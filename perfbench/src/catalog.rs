//! The metric names `BENCHMARK.json` lists, with their units. Every
//! workload prints every name of its mode, so one set of metrics
//! serves all workloads.

/// End-to-end metrics, printed with `--trace 0`. Each workload defines
/// each one; see `README.md` for what they mean per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("point_p50_us", "us"),
    ("disk_bytes_per_fact", "B/fact"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. Only metrics that every
/// listed workload measures carry a time unit; counts and ratios of a
/// path a workload does not take read 0. Workload-specific timings
/// (install path, harvest phases, NED and aggregation) are printed on
/// the `#` lines instead.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("store.build_ms", "ms"),
    ("store.freeze_ms", "ms"),
    ("store.create_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.prefault_ms", "ms"),
    ("store.segment_bytes", "B"),
    ("store.page_faults", "count"),
    ("store.wal_bytes", "B"),
    ("store.seals", "count"),
    ("store.compactions", "count"),
    ("store.compact_bytes", "B"),
    ("store.delta_depth_max", "count"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.exec_us", "us"),
    ("query.rows_per_op", "rows"),
    ("query.result_hit_ratio", "ratio"),
    ("query.plan_hit_ratio", "ratio"),
    ("query.result_evictions", "count"),
    ("query.result_invalidated", "count"),
    ("query.dedup", "count"),
    ("view.updates", "count"),
    ("view.patched_ratio", "ratio"),
    ("view.reexecuted", "count"),
    ("serve.build_ms", "ms"),
    ("serve.query_us", "us"),
    ("serve.routed_single", "count"),
    ("serve.scattered", "count"),
    ("serve.shed", "count"),
    ("serve.view_lagged", "count"),
    ("analytics.resolved_ratio", "ratio"),
    ("self.store_share", "ratio"),
    ("self.view_share", "ratio"),
    ("self.serve_share", "ratio"),
    ("self.ned_share", "ratio"),
    ("self.analytics_share", "ratio"),
    ("bench.layer_coverage", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.fail_ratio", "ratio"),
];

/// Unit of a catalog metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    /// `BENCHMARK.json` lists exactly these metrics, with these units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }
}
