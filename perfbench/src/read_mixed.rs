//! `read_mixed`: closed-loop reads on a compacted, durable KB.
//!
//! Set-up builds a 1M-fact skewed KB through `KbBuilder`, writes a
//! durable store with default options, cold-opens and prefaults it,
//! and serves it through a 2-partition `KbRouter`. Two client threads
//! then each wait for every reply before sending the next read: ~70%
//! point lookups, ~20% subject stars, ~10% scatter analytics driven by
//! the rare relation, with Zipf-skewed subjects. No deltas, WAL, views
//! or compaction run.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kb_query::QueryService;
use kb_serve::{KbRouter, ServeError};
use kb_store::{KbBuilder, KbRead, SegmentedSnapshot, TermId};

use crate::common::{self, counter, ratio, span_median_us};
use crate::gen::{self, Class, ReadOp, SKEWED_ENTITIES, SKEWED_FACTS, SKEWED_RELS};
use crate::outcome::Outcome;
use crate::stats::{window_of, Samples};
use crate::sys;
use crate::trace::Tracer;
use crate::RunCfg;

/// Router partitions.
const PARTITIONS: usize = 2;
/// Closed-loop client threads (one per core on the reference box).
const CLIENTS: usize = 2;
/// Ops in each client's ring; the client cycles through it.
const RING: usize = 1 << 16;
/// Router answers compared against a monolithic service after the run.
const GATE_SAMPLE: usize = 512;

struct Served {
    view: SegmentedSnapshot,
    router: KbRouter,
    segment_bytes: u64,
}

/// Generates the inputs and serves them; returns the inputs' digest too.
fn setup(
    cfg: &RunCfg,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<(Served, Vec<Vec<ReadOp>>, u64), String> {
    let op = tr.new_op();
    let triples = tr.span("bench.generate", op, || gen::skewed_triples(SKEWED_FACTS, cfg.seed));
    let rings: Vec<Vec<ReadOp>> = tr.span("bench.generate", op, || {
        (0..CLIENTS as u64)
            .map(|c| gen::read_mixed_ops(cfg.seed, c, RING, SKEWED_ENTITIES))
            .collect()
    });
    let builder = tr.span("store.build", op, || {
        let mut b = KbBuilder::new();
        let entities: Vec<TermId> =
            (0..SKEWED_ENTITIES).map(|i| b.intern(&gen::entity(i))).collect();
        let rels = SKEWED_RELS.map(|r| b.intern(r));
        for &(s, r, o) in &triples {
            b.add_triple(entities[s as usize], rels[r as usize], entities[o as usize]);
        }
        b
    });
    let digest = gen::digest_inputs(&triples, &rings);
    drop(triples);
    let base = tr.span("store.freeze", op, || Arc::new(builder.freeze()));
    let store = common::store_and_reopen(dir, base, tr, op)?;
    let view = store.view();
    let router = tr.span("serve.build", op, || KbRouter::from_view(&view, PARTITIONS));
    let segment_bytes =
        sys::dir_files(dir).iter().filter(|f| f.0.starts_with("base")).map(|f| f.1).sum();
    Ok((Served { view, router, segment_bytes }, rings, digest))
}

/// One client's tallies.
#[derive(Default)]
struct Tally {
    point: Samples,
    analytic: Samples,
    done: u64,
    failed: u64,
    shed: u64,
}

/// Runs one client until `len` has passed since `t0`, starting at `pos` in its
/// ring; returns the position reached.
fn client(
    router: &KbRouter,
    ring: &[ReadOp],
    mut pos: usize,
    (t0, len): (Instant, Duration),
    tr: &mut Tracer,
    t: &mut Tally,
) -> usize {
    while t0.elapsed() < len {
        let op = &ring[pos % ring.len()];
        pos += 1;
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
                if matches!(e, ServeError::Overloaded(_)) {
                    t.shed += 1;
                }
            }
        }
    }
    pos
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::new(cfg);
    let epoch = Instant::now();
    let mut tr = Tracer::new(cfg.trace, epoch, 0);
    let page_faults_before = counter("store.page_faults");

    let t0 = Instant::now();
    let dir = cfg.work_dir.join("store");
    let (served, rings, digest) = setup(cfg, &dir, &mut tr)?;
    if !common::setups(cfg, &mut out, t0.elapsed().as_secs_f64(), digest)? {
        return Ok(out);
    }
    let page_faults = counter("store.page_faults") - page_faults_before;
    let Served { view, router, segment_bytes } = served;
    out.env("kb", format!("{} facts over {SKEWED_ENTITIES} entities (80% rel_big, 12% rel_mid, 8% rel_mid2, rare rel_rare)", view.len()));
    out.env("store", "StoreOptions::default() (fsync on, seal_every 8, unbounded page budget)");
    out.env("partitions", PARTITIONS);
    out.env("threads", format!("{CLIENTS} closed-loop clients"));
    out.env(
        "mix",
        format!("{:?} point / star / analytic, Zipf s={} subjects", gen::MIX, gen::ZIPF_S),
    );

    let mut tallies: Vec<Tally> = (0..CLIENTS).map(|_| Tally::default()).collect();
    let mut tracers: Vec<Tracer> =
        (0..CLIENTS).map(|c| Tracer::new(false, epoch, 1 + c as u32)).collect();
    let mut positions = vec![0usize; CLIENTS];
    let mut rates = Vec::new();
    let mut window = (0, 0);
    for (traced, len) in common::phases(cfg) {
        for t in &mut tracers {
            t.set_enabled(traced);
        }
        let done_before: u64 = tallies.iter().map(|t| t.done).sum();
        let t0 = Instant::now();
        if traced {
            window.0 = tr.ns(t0);
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = tallies
                .iter_mut()
                .zip(&mut tracers)
                .zip(&rings)
                .zip(&mut positions)
                .map(|(((tally, tracer), ring), pos)| {
                    let router = &router;
                    s.spawn(move || *pos = client(router, ring, *pos, (t0, len), tracer, tally))
                })
                .collect();
            for h in handles {
                h.join().expect("client thread panicked");
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            window.1 = tr.ns(Instant::now());
        }
        let done: u64 = tallies.iter().map(|t| t.done).sum();
        rates.push((done - done_before) as f64 / wall);
    }
    let (mut point, mut analytic) = (Samples::default(), Samples::default());
    for t in &tallies {
        point.extend(&t.point);
        analytic.extend(&t.analytic);
    }
    out.failed = tallies.iter().map(|t| t.failed).sum();
    out.attempted = out.failed + tallies.iter().map(|t| t.done).sum::<u64>();
    let shed: u64 = tallies.iter().map(|t| t.shed).sum();

    // Gate: sampled router answers are byte-identical to a monolithic
    // service over the same snapshot.
    let mono = QueryService::from_view(&view);
    let merged = router.view();
    let step = (RING / GATE_SAMPLE).max(1);
    let sample: Vec<&ReadOp> =
        rings.iter().flat_map(|r| r.iter().step_by(step * CLIENTS)).collect();
    let mut mismatches = 0;
    for op in &sample {
        let a =
            router.query(&op.text).map(|o| o.render(merged.as_ref())).map_err(|e| e.to_string());
        let b = mono.query(&op.text).map(|o| o.render(&view)).map_err(|e| e.to_string());
        if a != b || a.is_err() {
            mismatches += 1;
        }
    }
    out.gate(mismatches == 0, || {
        format!("{mismatches} of {} sampled router answers differ from the monolith", sample.len())
    });
    out.env("gate_sample", sample.len());

    let disk = sys::dir_bytes(&dir);
    common::read_metrics(&mut out, &point, &analytic, common::phases(cfg)[0].1.as_secs_f64())?;
    out.set("disk_bytes_per_fact", disk as f64 / view.len() as f64);
    out.set("peak_rss_mb", sys::peak_rss_mb()?);

    if cfg.trace {
        common::cache_metrics(&mut out, &common::cache_stats(&router));
        let spans = std::mem::replace(&mut tr, Tracer::new(true, epoch, 0)).into_spans();
        let ms = |name: &str| span_median_us(&spans, name) / 1e3;
        out.set("store.build_ms", ms("store.build"));
        out.set("store.freeze_ms", ms("store.freeze"));
        out.set("store.create_ms", ms("store.create"));
        out.set("store.open_ms", ms("store.open"));
        out.set("store.prefault_ms", ms("store.prefault"));
        out.set("serve.build_ms", ms("serve.build"));
        out.set("store.segment_bytes", segment_bytes as f64);
        out.set("store.page_faults", page_faults as f64);
        out.set("serve.routed_single", counter("serve.routed_single") as f64);
        out.set("serve.scattered", counter("serve.scattered") as f64);
        out.set("serve.shed", shed as f64);
        out.set("bench.fail_ratio", ratio(out.failed as f64, out.attempted as f64));
        let analytic_texts: Vec<String> =
            (0..gen::ANALYTIC_TEXTS).map(gen::analytic_text).collect();
        common::query_breakdown(&mut out, &mut tr, merged.as_ref(), &analytic_texts)?;
        let mut buffers = vec![spans, tr.into_spans()];
        buffers.extend(tracers.into_iter().map(Tracer::into_spans));
        let spans = crate::trace::merge(buffers);
        common::finish_trace(&mut out, spans, window, &[1, 2], rates[0], rates[1]);
    }
    Ok(out)
}
