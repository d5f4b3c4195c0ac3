//! `live_stream`: delta installs beside reads.
//!
//! The §4 rival-product stream on a ~100k-fact base. The main thread is
//! an open-loop writer: install `k` falls due at `k / rate` seconds and
//! goes through `SegmentStore::install_delta` (default flush policy)
//! and `KbRouter::apply_delta`, after which both standing views'
//! subscribers are drained. Its latency runs from the due time, so a
//! stall is charged to every install that falls due during it. When
//! the default `Compactor` fires, the writer compacts the store,
//! rebuilds the router from the compacted view (the router has no
//! compaction path of its own), re-registers and re-subscribes the
//! views, and swaps the new router in. One closed-loop reader thread
//! issues point reads and drill-downs throughout.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use kb_obs::Counter;
use kb_query::{CacheStats, ViewId};
use kb_serve::{KbRouter, ServeError, Subscription};
use kb_store::{Compactor, KbBuilder, KbRead, SegmentStore, StoreOptions, Triple};

use crate::common::{self, counter, kb_digest, ratio, span_median_us};
use crate::gen::{self, Class, ReadOp, RivalStream};
use crate::openloop::Schedule;
use crate::outcome::Outcome;
use crate::stats::{median, window_of, Samples};
use crate::sys;
use crate::trace::{self, Tracer};
use crate::RunCfg;

/// Installs per second on the open-loop schedule: about half the rate
/// at which the writer's backlog starts to grow on a 2-core box (see
/// `README.md`).
pub const INSTALL_RATE: f64 = 12.0;
/// Base posts: two facts each plus ten brand facts ≈ 100k facts.
const BASE_POSTS: usize = 49_995;
/// Posts added per install (0.1% deltas, as in T20).
const ADDED: usize = 40;
/// Base posts retracted per install.
const RETRACTED: usize = 20;
/// Router partitions.
const PARTITIONS: usize = 2;
/// Ops in the reader's ring.
const RING: usize = 1 << 16;
/// Longest schedule the generated stream covers, in seconds.
const MAX_SECONDS: f64 = 120.0;

/// The standing views of T20: mention totals per product, and the
/// filtered drill-down feeding one product's per-day chart.
pub const VIEW_QUERIES: [&str; 2] = [
    "SELECT ?prod COUNT(?post) AS ?n WHERE { ?post mentions ?prod } GROUP BY ?prod",
    "SELECT ?post ?d WHERE { ?post mentions Strato_1 . ?post postedOn ?d . FILTER(?d != day_3) }",
];

/// The router's serve counters, captured when it is built: a rebuilt
/// router registers fresh ones, so each router's are kept to sum.
struct ServeCounters {
    routed_single: Arc<Counter>,
    scattered: Arc<Counter>,
}

impl ServeCounters {
    fn capture() -> Self {
        let reg = kb_obs::global();
        Self {
            routed_single: reg.counter("serve.routed_single"),
            scattered: reg.counter("serve.scattered"),
        }
    }
}

/// The writer's serving state.
struct Live {
    store: SegmentStore,
    router: Arc<KbRouter>,
    views: Vec<ViewId>,
    subs: Vec<Subscription>,
    counters: Vec<ServeCounters>,
}

fn post(i: usize) -> String {
    format!("post_{i}")
}

fn live_post(install: usize, j: usize) -> String {
    format!("live_{install}_{j}")
}

fn day(d: u8) -> String {
    format!("day_{d}")
}

/// Builds, stores, reopens and serves the base; registers and
/// subscribes the views.
fn setup(
    stream: &RivalStream,
    products: &[String],
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Live, String> {
    let op = tr.new_op();
    let builder = tr.span("store.build", op, || {
        let mut b = KbBuilder::new();
        for prod in products {
            let brand = if prod.starts_with("Strato") { "Strato" } else { "Nimbus" };
            b.assert_str(prod, "madeBy", brand);
        }
        for (i, &(p, d)) in stream.base.iter().enumerate() {
            b.assert_str(&post(i), "mentions", &products[p as usize]);
            b.assert_str(&post(i), "postedOn", &day(d));
        }
        b
    });
    let base = tr.span("store.freeze", op, || Arc::new(builder.freeze()));
    let store = common::store_and_reopen(dir, base, tr, op)?;
    let view = store.view();
    let router = Arc::new(tr.span("serve.build", op, || KbRouter::from_view(&view, PARTITIONS)));
    let counters = vec![ServeCounters::capture()];
    let views = register(&router, tr, op)?;
    let subs = views.iter().map(|&id| router.subscribe(id)).collect();
    Ok(Live { store, router, views, subs, counters })
}

fn register(router: &KbRouter, tr: &mut Tracer, op: u64) -> Result<Vec<ViewId>, String> {
    tr.span("view.register", op, || {
        VIEW_QUERIES.iter().map(|q| router.register_view(q)).collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("register view: {e}"))
}

/// The view's rows rendered one per line, sorted (term ids, and so the
/// canonical row order, may change across a compaction).
fn view_rows(router: &KbRouter, id: ViewId) -> Vec<String> {
    let out = router.view_result(id).expect("view is registered");
    let view = router.view();
    let mut rows: Vec<String> = out.rows.iter().map(|r| out.render_row(r, view.as_ref())).collect();
    rows.sort();
    rows
}

/// Standing-view updates drained from the subscriptions.
#[derive(Default)]
struct ViewTally {
    updates: u64,
    patched: u64,
    patch_us: Vec<f64>,
    lagged: u64,
}

fn drain(subs: &[Subscription], v: &mut ViewTally) {
    for sub in subs {
        loop {
            match sub.try_recv() {
                Ok(Some(u)) => {
                    v.updates += 1;
                    v.patched += u64::from(u.patched);
                    v.patch_us.push(u.patch_us as f64);
                }
                Ok(None) => break,
                Err(_) => {
                    v.lagged += 1;
                    break;
                }
            }
        }
    }
}

/// The reader's tallies.
#[derive(Default)]
struct Reads {
    point: Samples,
    analytic: Samples,
    done: u64,
    failed: u64,
    shed: u64,
}

fn reader(
    shared: &RwLock<Arc<KbRouter>>,
    ring: &[ReadOp],
    pos: &mut usize,
    (t0, stop): (Instant, &AtomicBool),
    tr: &mut Tracer,
    t: &mut Reads,
) {
    while !stop.load(Ordering::Acquire) {
        let op = &ring[*pos % ring.len()];
        *pos += 1;
        let router = Arc::clone(&shared.read().expect("router slot poisoned"));
        let id = tr.new_op();
        let q0 = Instant::now();
        let res = tr.span("serve.query", id, || router.query(&op.text));
        let us = q0.elapsed().as_secs_f64() * 1e6;
        match res {
            Ok(_) => {
                t.done += 1;
                match op.class {
                    Class::Point => t.point.push_at(window_of(t0, q0), us),
                    Class::Analytic => t.analytic.push_at(window_of(t0, q0), us),
                }
            }
            Err(e) => {
                t.failed += 1;
                t.shed += u64::from(matches!(e, ServeError::Overloaded(_)));
            }
        }
    }
}

/// The writer's tallies.
#[derive(Default)]
struct Writes {
    latency: Samples,
    gen_late: Vec<f64>,
    wal_bytes: Vec<f64>,
    fsync_us: Vec<f64>,
    depth_max: usize,
    disk_per_fact: Vec<f64>,
    compactions: u64,
    compact_bytes: Vec<f64>,
    views: ViewTally,
    cache: Vec<CacheStats>,
    view_mismatches: Vec<String>,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One install: delta, WAL, router fan-out, view pushes.
fn install(
    live: &mut Live,
    stream: &RivalStream,
    products: &[String],
    r: usize,
    tr: &mut Tracer,
    w: &mut Writes,
    op: u64,
) -> Result<(), String> {
    let spec = &stream.deltas[r];
    let delta = tr.span("store.delta_freeze", op, || {
        let mut b = KbBuilder::new();
        for (j, &(p, d)) in spec.added.iter().enumerate() {
            b.assert_str(&live_post(r, j), "mentions", &products[p as usize]);
            b.assert_str(&live_post(r, j), "postedOn", &day(d));
        }
        for &i in &spec.retracted {
            let prod = &products[stream.base[i as usize].0 as usize];
            b.retract_str(&post(i as usize), "mentions", prod);
        }
        Arc::new(b.freeze_delta(&live.store.view()))
    });
    let cost = tr
        .span("store.install", op, || live.store.install_delta(Arc::clone(&delta)))
        .map_err(|e| format!("install {r}: {e}"))?;
    w.wal_bytes.push(cost.bytes as f64);
    w.fsync_us.push(cost.fsync_micros as f64);
    tr.span("serve.apply_delta", op, || live.router.apply_delta(delta));
    tr.span("serve.push", op, || drain(&live.subs, &mut w.views));
    Ok(())
}

/// Compacts the store, rebuilds and re-registers the router, checks
/// the maintained views against the rebuilt router's fresh execution,
/// and swaps the new router in. Returns how long the check took, which
/// the schedule excludes.
fn compact_cycle(
    live: &mut Live,
    shared: &RwLock<Arc<KbRouter>>,
    tr: &mut Tracer,
    w: &mut Writes,
    op: u64,
) -> Result<Duration, String> {
    w.depth_max = w.depth_max.max(live.store.view().delta_count());
    tr.span("store.compact", op, || live.store.compact(&Compactor::default(), false))
        .map_err(|e| format!("compact: {e}"))?;
    w.compactions += 1;
    let base: u64 = sys::dir_files(live.store.dir())
        .iter()
        .filter(|f| f.0.starts_with("base"))
        .map(|f| f.1)
        .sum();
    w.compact_bytes.push(base as f64);
    let router = Arc::new(
        tr.span("serve.rebuild", op, || KbRouter::from_view(&live.store.view(), PARTITIONS)),
    );
    let counters = ServeCounters::capture();
    let views = register(&router, tr, op)?;

    let check = Instant::now();
    for (k, (&old, &new)) in live.views.iter().zip(&views).enumerate() {
        if view_rows(&live.router, old) != view_rows(&router, new) {
            w.view_mismatches.push(format!(
                "view {k} differs from re-execution at compaction {}",
                w.compactions
            ));
        }
    }
    let checked = check.elapsed();

    let subs = views.iter().map(|&id| router.subscribe(id)).collect();
    *shared.write().expect("router slot poisoned") = Arc::clone(&router);
    let old = std::mem::replace(&mut live.router, router);
    w.cache.push(common::cache_stats(&old));
    live.views = views;
    live.subs = subs;
    live.counters.push(counters);
    Ok(checked)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::new(cfg);
    let epoch = Instant::now();
    let mut tr = Tracer::new(cfg.trace, epoch, 0);
    let page_faults_before = counter("store.page_faults");
    let seals_before = counter("store.seals");
    let products = gen::products();
    let max_installs = (INSTALL_RATE * MAX_SECONDS.min(cfg.seconds + 1.0)).ceil() as usize + 1;
    let dir = cfg.work_dir.join("store");

    let t0 = Instant::now();
    let op = tr.new_op();
    let stream = tr.span("bench.generate", op, || {
        gen::rival_stream(cfg.seed, BASE_POSTS, max_installs, ADDED, RETRACTED)
    });
    let ring = tr.span("bench.generate", op, || gen::live_read_ops(cfg.seed, RING, BASE_POSTS));
    let mut live = setup(&stream, &products, &dir, &mut tr)?;
    if !common::setups(cfg, &mut out, t0.elapsed().as_secs_f64(), stream.digest())? {
        return Ok(out);
    }
    let segment_bytes: u64 =
        sys::dir_files(&dir).iter().filter(|f| f.0.starts_with("base")).map(|f| f.1).sum();
    let base_facts = live.store.view().len();
    out.env("kb", format!("{base_facts} base facts: {BASE_POSTS} posts x 2 + 10 brand facts, 10 products, {} days", gen::DAYS));
    out.env("deltas", format!("{ADDED} new posts + {RETRACTED} retractions per install"));
    out.env("install_rate", format!("{INSTALL_RATE} per s, open loop"));
    out.env("store", "StoreOptions::default() (fsync on, seal_every 8), Compactor::default() (max_deltas 4, max_ratio 0.2)");
    out.env("partitions", PARTITIONS);
    out.env("threads", "1 open-loop writer + 1 closed-loop reader");
    out.env(
        "reads",
        format!(
            "{}% drill-downs over {} texts, rest point reads",
            gen::LIVE_ANALYTIC_SHARE * 100.0,
            gen::drilldown_texts().len()
        ),
    );

    let shared = RwLock::new(Arc::clone(&live.router));
    let mut w = Writes::default();
    let mut reads = Reads::default();
    let mut reader_tr = Tracer::new(false, epoch, 1);
    let mut pos = 0usize;
    let mut next = 0usize;
    let mut rates = Vec::new();
    let mut window = (0, 0);
    let mut install_err = None;
    for (traced, len) in common::phases(cfg) {
        tr.set_enabled(traced);
        reader_tr.set_enabled(traced);
        let stop = AtomicBool::new(false);
        let done_before = reads.done;
        let start = Instant::now();
        if traced {
            window.0 = tr.ns(start);
        }
        let first = next;
        let mut schedule = Schedule::new(start, INSTALL_RATE);
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                reader(&shared, &ring, &mut pos, (start, &stop), &mut reader_tr, &mut reads)
            });
            while ((next - first) as f64) < INSTALL_RATE * len.as_secs_f64() {
                let due = schedule.due(next - first);
                if let Some(late) = schedule.wait(next - first) {
                    w.gen_late.push(late.as_secs_f64() * 1e6);
                }
                let op = tr.new_op();
                if let Err(e) = install(&mut live, &stream, &products, next, &mut tr, &mut w, op) {
                    install_err = Some(e);
                    break;
                }
                w.latency.push(us_since(due));
                next += 1;
                let view = live.store.view();
                w.disk_per_fact.push(sys::dir_bytes(live.store.dir()) as f64 / view.len() as f64);
                if Compactor::default().should_compact(&view) {
                    match compact_cycle(&mut live, &shared, &mut tr, &mut w, op) {
                        Ok(checked) => schedule.exclude(checked),
                        Err(e) => {
                            install_err = Some(e);
                            break;
                        }
                    }
                }
            }
            stop.store(true, Ordering::Release);
            handle.join().expect("reader thread panicked");
        });
        let wall = start.elapsed().as_secs_f64();
        if traced {
            window.1 = tr.ns(Instant::now());
        }
        rates.push((reads.done - done_before) as f64 / wall);
        if let Some(e) = install_err.take() {
            return Err(e);
        }
    }
    let installs = next;
    w.cache.push(common::cache_stats(&live.router));
    out.attempted = reads.done + reads.failed + installs as u64;
    out.failed = reads.failed + w.views.lagged;

    // Gates: views equal re-execution at every compaction and at the
    // end; the reopened store serves every acknowledged install.
    for m in &w.view_mismatches {
        out.gate(false, || m.clone());
    }
    let fresh = register(&live.router, &mut tr, 0)?;
    for (k, (&maintained, &executed)) in live.views.iter().zip(&fresh).enumerate() {
        out.gate(view_rows(&live.router, maintained) == view_rows(&live.router, executed), || {
            format!("view {k} differs from re-execution after the run")
        });
    }
    let routed_single: u64 = live.counters.iter().map(|c| c.routed_single.get()).sum();
    let scattered: u64 = live.counters.iter().map(|c| c.scattered.get()).sum();
    let before = live.store.view();
    let (len_before, digest_before) = (before.len(), kb_digest(&before));
    drop(before);
    drop(live);
    drop(shared);
    let reopened = SegmentStore::open_with(&dir, StoreOptions::default())
        .map_err(|e| format!("reopen: {e}"))?;
    let view = reopened.view();
    view.prefault().map_err(|e| format!("reopen prefault: {e}"))?;
    let expected = base_facts
        + stream.deltas[..installs]
            .iter()
            .map(|d| 2 * d.added.len() - d.retracted.len())
            .sum::<usize>();
    out.gate(view.len() == expected && len_before == expected, || {
        format!(
            "reopened store holds {} facts, served {len_before}, expected {expected}",
            view.len()
        )
    });
    out.gate(kb_digest(&view) == digest_before, || {
        "reopened store differs from the served store".into()
    });
    let holds = |s: &str, p: &str, o: &str| match (view.term(s), view.term(p), view.term(o)) {
        (Some(s), Some(p), Some(o)) => view.fact_for(&Triple::new(s, p, o)).is_some(),
        _ => false,
    };
    let mut missing = 0usize;
    for (r, spec) in stream.deltas[..installs].iter().enumerate() {
        for (j, &(p, d)) in spec.added.iter().enumerate() {
            let name = live_post(r, j);
            missing += usize::from(
                !holds(&name, "mentions", &products[p as usize])
                    || !holds(&name, "postedOn", &day(d)),
            );
        }
        for &i in &spec.retracted {
            missing += usize::from(holds(
                &post(i as usize),
                "mentions",
                &products[stream.base[i as usize].0 as usize],
            ));
        }
    }
    out.gate(missing == 0, || {
        format!("{missing} acknowledged install effects are missing after reopen")
    });
    out.gate(w.compactions > 0, || "no compaction cycle ran".into());
    out.env("installs", installs);
    out.env("compactions", w.compactions);

    let install_p50 = w.latency.p50("install")?;
    let install_p95 = w.latency.tail(0.95, "install")?;
    common::read_metrics(
        &mut out,
        &reads.point,
        &reads.analytic,
        common::phases(cfg)[0].1.as_secs_f64(),
    )?;
    out.set(
        "disk_bytes_per_fact",
        w.disk_per_fact.iter().sum::<f64>() / w.disk_per_fact.len().max(1) as f64,
    );
    out.set("peak_rss_mb", sys::peak_rss_mb()?);
    out.named("install_p50_us", install_p50, "us");
    out.named("install_p95_us", install_p95, "us");

    if cfg.trace {
        let spans = trace::merge(vec![tr.into_spans(), reader_tr.into_spans()]);
        let ms = |name: &str| span_median_us(&spans, name) / 1e3;
        let us = |name: &str| span_median_us(&spans, name);
        let cache = w.cache.iter().copied().fold(CacheStats::default(), common::add_cache);
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        out.set("store.build_ms", ms("store.build"));
        out.set("store.freeze_ms", ms("store.freeze"));
        out.set("store.create_ms", ms("store.create"));
        out.set("store.open_ms", ms("store.open"));
        out.set("store.prefault_ms", ms("store.prefault"));
        out.set("store.segment_bytes", segment_bytes as f64);
        out.set("store.page_faults", (counter("store.page_faults") - page_faults_before) as f64);
        out.named("store.delta_freeze_us", us("store.delta_freeze"), "us");
        out.named("store.install_us", us("store.install"), "us");
        out.set("store.wal_bytes", med(&w.wal_bytes));
        out.named("store.wal_fsync_us", med(&w.fsync_us), "us");
        out.set("store.seals", (counter("store.seals") - seals_before) as f64);
        out.named("store.compact_ms", ms("store.compact"), "ms");
        out.set("store.compact_bytes", med(&w.compact_bytes));
        out.set("store.delta_depth_max", w.depth_max as f64);
        out.set("store.compactions", w.compactions as f64);
        common::cache_metrics(&mut out, &cache);
        out.named("view.register_ms", ms("view.register"), "ms");
        out.named("view.patch_us", med(&w.views.patch_us), "us");
        out.set("view.patched_ratio", ratio(w.views.patched as f64, w.views.updates as f64));
        out.set("view.updates", w.views.updates as f64);
        out.set("view.reexecuted", (w.views.updates - w.views.patched) as f64);
        out.set("serve.build_ms", ms("serve.build"));
        out.named("serve.apply_delta_us", us("serve.apply_delta"), "us");
        out.named("serve.rebuild_ms", ms("serve.rebuild"), "ms");
        out.named("serve.push_us", us("serve.push"), "us");
        out.set("serve.routed_single", routed_single as f64);
        out.set("serve.scattered", scattered as f64);
        out.set("serve.shed", reads.shed as f64);
        out.set("serve.view_lagged", w.views.lagged as f64);
        out.named("bench.gen_late_us", med(&w.gen_late), "us");
        out.set("bench.fail_ratio", ratio(out.failed as f64, out.attempted as f64));
        let mut bench_tr = Tracer::new(true, epoch, 0);
        common::query_breakdown(&mut out, &mut bench_tr, &view, &gen::drilldown_texts())?;
        let spans = trace::merge(vec![spans, bench_tr.into_spans()]);
        common::finish_trace(&mut out, spans, window, &[0, 1], rates[0], rates[1]);
    }
    Ok(out)
}
