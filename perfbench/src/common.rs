//! Helpers every workload shares: the traced/untraced phase split,
//! span summaries, and kb-obs registry readings.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kb_query::{CacheStats, StatsCatalog};
use kb_serve::KbRouter;
use kb_store::{KbRead, KbSnapshot, SegmentStore, StoreOptions};

use crate::gen::{fnv, FNV_SEED};
use crate::outcome::Outcome;
use crate::stats::{full_windows, median, Samples, WINDOW_S};
use crate::trace::{self, Span, Tracer};
use crate::RunCfg;

/// Set-ups per benchmark run: as many as the run's own set-up time fits
/// into `SETUP_SPAN_S`, at least `SETUP_MIN` and at most `SETUP_MAX`.
/// `setup_s` is their median. The run does one set-up itself and starts
/// the others in child processes at even intervals across
/// `SETUP_SPAN_S`, so the median samples a shared host over seconds
/// rather than one burst of interference, and repeated set-ups neither
/// fragment the run's heap nor raise its peak resident set.
pub const SETUP_MIN: usize = 3;
/// See [`SETUP_MIN`].
pub const SETUP_MAX: usize = 15;
/// See [`SETUP_MIN`].
pub const SETUP_SPAN_S: f64 = 8.0;

/// Accounts for set-up once the run's own set-up took `secs` and
/// generated inputs with `digest`. In a `--setup-only` child this only
/// records the probe and returns `false`: the caller returns at once.
/// Otherwise it runs the other set-ups in child processes, gates that
/// every one generated the same inputs, and sets `setup_s`.
pub fn setups(cfg: &RunCfg, out: &mut Outcome, secs: f64, digest: u64) -> Result<bool, String> {
    if cfg.setup_only {
        out.probe = Some((secs, digest));
        return Ok(false);
    }
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut all = vec![secs];
    let n = ((SETUP_SPAN_S / secs).ceil() as usize).clamp(SETUP_MIN, SETUP_MAX);
    let start = Instant::now();
    for i in 1..n {
        let due = start + Duration::from_secs_f64(SETUP_SPAN_S * (i - 1) as f64 / (n - 1) as f64);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let child = Command::new(&exe)
            .args(["--workload", &cfg.workload, "--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string(), "--trace", "0", "--setup-only", "1"])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let probe = stdout.lines().last().and_then(|l| l.strip_prefix("setup ")).and_then(|l| {
            let (s, d) = l.split_once(' ')?;
            Some((s.parse::<f64>().ok()?, d.parse::<u64>().ok()?))
        });
        let Some((s, d)) = probe.filter(|_| child.status.success()) else {
            return Err(format!("set-up child failed: {}", String::from_utf8_lossy(&child.stderr)));
        };
        out.gate(d == digest, || "a set-up at the same seed generated different inputs".into());
        all.push(s);
    }
    out.env("setups", all.len());
    out.set("setup_s", median(&all));
    Ok(true)
}

/// The timed region's phases as `(traced, length)`. A traced run
/// spends its first half untraced and its second half traced, so the
/// gap between the halves is the tracing overhead; end-to-end metrics
/// come only from untraced runs.
pub fn phases(cfg: &RunCfg) -> Vec<(bool, Duration)> {
    let full = Duration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        vec![(false, full / 2), (true, full / 2)]
    } else {
        vec![(false, full)]
    }
}

/// Median duration of the spans named `name`, in microseconds (0 when
/// there are none).
pub fn span_median_us(spans: &[Span], name: &str) -> f64 {
    let d = trace::durations_us(spans, name);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Sum and count of a kb-obs global histogram.
pub fn hist(name: &str) -> (u64, u64) {
    let h = kb_obs::global().histogram(name);
    (h.sum(), h.count())
}

/// Value of a kb-obs global counter.
pub fn counter(name: &str) -> u64 {
    kb_obs::global().counter(name).get()
}

/// Digest of the set of live facts of `kb` by term string and
/// confidence: independent of term ids and fact order, which may differ
/// between two stores holding the same facts.
pub fn kb_digest<K: KbRead + ?Sized>(kb: &K) -> u64 {
    kb.iter().fold(0u64, |acc, f| {
        let mut h = FNV_SEED;
        for t in [f.triple.s, f.triple.p, f.triple.o] {
            h = fnv(fnv(h, kb.resolve(t).unwrap_or("?").as_bytes()), b"\t");
        }
        acc.wrapping_add(fnv(h, &f.confidence.to_bits().to_le_bytes()))
    })
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Records the trace-derived per-layer metrics: each layer's self time
/// as a share of the traced window summed over `threads` threads, the
/// share of that window the outermost spans cover, and the gap
/// between the untraced and traced throughput.
pub fn finish_trace(
    out: &mut Outcome,
    spans: Vec<Span>,
    window: (u64, u64),
    threads: &[u32],
    untraced_rate: f64,
    traced_rate: f64,
) {
    let (lo, hi) = window;
    let in_window: Vec<Span> =
        spans.iter().filter(|s| s.start_ns >= lo && s.end_ns <= hi).cloned().collect();
    let busy = (hi - lo) as f64 * threads.len() as f64;
    for (layer, ns) in trace::layer_self_ns(&in_window) {
        let share = ratio(ns as f64, busy);
        match layer {
            "store" => out.set("self.store_share", share),
            "view" => out.set("self.view_share", share),
            "serve" => out.set("self.serve_share", share),
            "ned" => out.set("self.ned_share", share),
            "analytics" => out.set("self.analytics_share", share),
            _ => out.named(format!("self.{layer}_share"), share, "ratio"),
        }
    }
    let reads = trace::durations_us(&in_window, "serve.query");
    if !reads.is_empty() {
        out.set("serve.query_us", median(&reads));
    }
    let cover: f64 = threads.iter().map(|&t| trace::coverage(&spans, t, lo, hi)).sum::<f64>();
    out.set("bench.layer_coverage", ratio(cover, threads.len() as f64));
    out.set("bench.trace_overhead_pct", 100.0 * ratio(untraced_rate - traced_rate, untraced_rate));
    out.spans = spans;
}

/// Replays `texts` through the query layer's public stages, each in
/// its own span (`query.parse`, `query.plan`, `query.exec`), and
/// records their median times and the mean output rows. The router
/// and service run these stages internally with no per-stage timing
/// a caller can read, so the traced run times them here, outside the
/// timed region.
pub fn query_breakdown<K: KbRead + ?Sized>(
    out: &mut Outcome,
    tr: &mut Tracer,
    kb: &K,
    texts: &[String],
) -> Result<(), String> {
    let op = tr.new_op();
    let stats = tr.span("query.stats", op, || StatsCatalog::build(kb));
    let (mut parse, mut plan, mut exec) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = 0usize;
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for text in texts {
        let op = tr.new_op();
        let t = Instant::now();
        let parsed = tr.span("query.parse", op, || kb_query::parse(text));
        parse.push(us(t));
        let parsed = parsed.map_err(|e| format!("parse {text:?}: {e}"))?;
        let t = Instant::now();
        let planned = tr.span("query.plan", op, || kb_query::plan(&parsed, kb, &stats));
        plan.push(us(t));
        let planned = planned.map_err(|e| format!("plan {text:?}: {e}"))?;
        let t = Instant::now();
        let (res, _) = tr.span("query.exec", op, || kb_query::execute_traced(&planned, kb));
        exec.push(us(t));
        rows += res.rows.len();
    }
    out.set("query.parse_us", median(&parse));
    out.set("query.plan_us", median(&plan));
    out.set("query.exec_us", median(&exec));
    out.set("query.rows_per_op", ratio(rows as f64, texts.len() as f64));
    Ok(())
}

/// Records the read metrics of a closed loop from its samples over the
/// first `secs` seconds: throughput and medians per window, reported as
/// the median window, and p99s over every sample. Only `point_p50_us`
/// is a bounded metric; the others held no steady spread on a shared
/// host (see `README.md`) and are printed by name.
pub fn read_metrics(
    out: &mut Outcome,
    point: &Samples,
    analytic: &Samples,
    secs: f64,
) -> Result<(), String> {
    let n = full_windows(secs);
    if n == 0 {
        return Err(format!("the timed region must last at least one {WINDOW_S} s window"));
    }
    let per_window: Vec<f64> = point
        .counts(n)
        .iter()
        .zip(analytic.counts(n))
        .map(|(p, a)| (p + a) as f64 / WINDOW_S)
        .collect();
    out.named("read_ops_per_s", median(&per_window), "ops/s");
    out.set("point_p50_us", point.window_p50(n, "point")?);
    out.named("point_p99_us", point.tail(0.99, "point")?, "us");
    out.named("analytic_p50_us", analytic.window_p50(n, "analytic")?, "us");
    out.named("analytic_p99_us", analytic.tail(0.99, "analytic")?, "us");
    Ok(())
}

/// Writes `base` as a new durable store at `dir` with the default
/// options, closes it, cold-opens it and prefaults every lazily loaded
/// region, each step in its own span (`store.create`, `store.open`,
/// `store.prefault`).
pub fn store_and_reopen(
    dir: &Path,
    base: Arc<KbSnapshot>,
    tr: &mut Tracer,
    op: u64,
) -> Result<SegmentStore, String> {
    let created =
        tr.span("store.create", op, || SegmentStore::create(dir, base, StoreOptions::default()));
    drop(created.map_err(|e| format!("create: {e}"))?);
    let store = tr
        .span("store.open", op, || SegmentStore::open_with(dir, StoreOptions::default()))
        .map_err(|e| format!("open: {e}"))?;
    tr.span("store.prefault", op, || store.view().prefault())
        .map_err(|e| format!("prefault: {e}"))?;
    Ok(store)
}

/// The router's query-cache counters, summed over its partitions.
pub fn cache_stats(router: &KbRouter) -> CacheStats {
    (0..router.partitions())
        .map(|p| router.service(p).cache_stats())
        .fold(CacheStats::default(), add_cache)
}

/// Field-wise sum of the cache counters the per-layer metrics use.
pub fn add_cache(a: CacheStats, c: CacheStats) -> CacheStats {
    CacheStats {
        result_hits: a.result_hits + c.result_hits,
        result_misses: a.result_misses + c.result_misses,
        result_dedup: a.result_dedup + c.result_dedup,
        plan_hits: a.plan_hits + c.plan_hits,
        plan_misses: a.plan_misses + c.plan_misses,
        plan_dedup: a.plan_dedup + c.plan_dedup,
        result_evictions: a.result_evictions + c.result_evictions,
        result_invalidated: a.result_invalidated + c.result_invalidated,
        ..a
    }
}

/// Sets the per-layer query-cache metrics from summed counters.
pub fn cache_metrics(out: &mut Outcome, c: &CacheStats) {
    out.set(
        "query.result_hit_ratio",
        ratio(c.result_hits as f64, (c.result_hits + c.result_misses) as f64),
    );
    out.set(
        "query.plan_hit_ratio",
        ratio(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64),
    );
    out.set("query.result_evictions", c.result_evictions as f64);
    out.set("query.result_invalidated", c.result_invalidated as f64);
    out.set("query.dedup", (c.result_dedup + c.plan_dedup) as f64);
}
