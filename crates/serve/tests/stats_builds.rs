//! Router construction builds the global statistics catalog exactly
//! once: partition replicas plan with the shared catalog and never
//! build (and discard) one of their own.
//!
//! `query.stats.builds` lives in the process-global registry, so this
//! file holds a single test: nothing else in the binary builds a
//! catalog while it counts.

use std::sync::Arc;

use kb_obs::Registry;
use kb_serve::{AdmissionConfig, KbRouter};
use kb_store::KbBuilder;

#[test]
fn router_builds_one_stats_catalog_per_construction() {
    let mut b = KbBuilder::new();
    for i in 0..400u32 {
        b.assert_str(&format!("p{i}"), "bornIn", &format!("c{}", i % 40));
        b.assert_str(&format!("p{i}"), "worksAt", &format!("co{}", i % 7));
    }
    let base = Arc::new(b.freeze());
    let builds = kb_obs::global().counter("query.stats.builds");
    for partitions in [1usize, 2, 4] {
        let before = builds.get();
        let router = KbRouter::with_config(
            Arc::clone(&base),
            partitions,
            AdmissionConfig::default(),
            &Registry::new(),
        );
        assert_eq!(builds.get() - before, 1, "{partitions} partitions");
        assert!(router.query("p3 bornIn ?c").is_ok());
    }
}
