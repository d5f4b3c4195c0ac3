//! `harvest_track` and `gold_track`: KB construction followed by
//! analytics.
//!
//! Set-up generates the standard corpus. Each timed cycle builds a KB
//! from it, freezes the result, writes a durable store, cold-opens and
//! prefaults it, serves it through a 2-partition router for fixed
//! verification reads, builds NED over the reopened KB and aggregates
//! the post stream into per-line weekly series (the T10 rival-product
//! tracking). `harvest_track` builds the KB with `harvest` (Reasoning,
//! 2 workers); `gold_track` loads the corpus's gold facts, taxonomy and
//! mention surfaces through `KbBuilder`, so it measures the same path
//! without the harvester.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kb_analytics::exec::aggregate_parallel;
use kb_analytics::stream::from_corpus;
use kb_analytics::{StreamPost, TimeSeries, Tracker};
use kb_corpus::{Corpus, CorpusConfig, EntityId, Rel};
use kb_harvest::pipeline::{harvest, HarvestConfig, Method};
use kb_ned::Ned;
use kb_serve::KbRouter;
use kb_store::{KbBuilder, KbRead, SegmentedSnapshot};

use crate::common::{self, counter, hist, kb_digest, ratio, span_median_us};
use crate::gen::{fnv, FNV_SEED};
use crate::outcome::Outcome;
use crate::stats::{median, Samples};
use crate::sys;
use crate::trace::Tracer;
use crate::RunCfg;

/// Harvest and aggregation workers (one per core on the reference box).
const WORKERS: usize = 2;
/// Router partitions serving the verification reads.
const PARTITIONS: usize = 2;

/// Where a cycle's KB comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `harvest` over the corpus documents.
    Harvest,
    /// The corpus's gold facts, `instanceOf` assertions, taxonomy edges
    /// and mention surfaces, loaded through `KbBuilder`.
    Gold,
}

/// Everything generated before the timed loop.
struct Inputs {
    corpus: Corpus,
    posts: Vec<StreamPost>,
    /// `(surface, canonical)` anchor observations for NED.
    anchors: Vec<(String, String)>,
    line_a: Vec<String>,
    line_b: Vec<String>,
    gold_mentions: usize,
    point_texts: Vec<String>,
    analytic_texts: Vec<String>,
    digest: u64,
}

/// Canonical names of every product made by `flagship`'s creator.
fn line_members(corpus: &Corpus, flagship: EntityId) -> Vec<EntityId> {
    let world = &corpus.world;
    let creator =
        world.facts.iter().find(|f| f.rel == Rel::Created && f.o == flagship).map(|f| f.s);
    world
        .facts
        .iter()
        .filter(|f| f.rel == Rel::Created && Some(f.s) == creator)
        .map(|f| f.o)
        .collect()
}

/// Loads what the corpus generator knows to be true, as `harvest`
/// loads what it accepted: facts under their relation names,
/// `instanceOf` assertions, subclass edges, and every document
/// mention's surface as an English label of its entity.
fn gold_kb(corpus: &Corpus) -> Result<KbBuilder, String> {
    let world = &corpus.world;
    let name = |e: EntityId| world.entity(e).canonical.as_str();
    let mut b = KbBuilder::new();
    for f in &world.facts {
        b.assert_str(name(f.s), f.rel.name(), name(f.o));
    }
    for (e, class) in &world.instance_of {
        b.assert_str(name(*e), "instanceOf", class);
    }
    for (sub, sup) in &world.taxonomy_edges {
        let (sub, sup) = (b.intern(sub), b.intern(sup));
        b.taxonomy.add_subclass(sub, sup).map_err(|e| format!("gold taxonomy: {e}"))?;
    }
    let en = b.labels.lang("en");
    for m in corpus.all_docs().iter().flat_map(|d| &d.mentions) {
        let term = b.intern(name(m.entity));
        b.labels.add(term, en, &m.surface);
    }
    Ok(b)
}

/// Verification scatter reads over the harvested relations, each at
/// two LIMITs (distinct texts, so none is a cache hit within a cycle).
fn analytic_texts() -> Vec<String> {
    const SHAPES: [&str; 8] = [
        "SELECT ?p COUNT(?s) AS ?n WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n) ?p",
        "SELECT ?c COUNT(?x) AS ?n WHERE { ?x instanceOf ?c } GROUP BY ?c ORDER BY DESC(?n) ?c",
        "SELECT ?c COUNT(?x) AS ?n WHERE { ?x bornIn ?c } GROUP BY ?c ORDER BY DESC(?n) ?c",
        "SELECT ?c COUNT(?x) AS ?n WHERE { ?x citizenOf ?c } GROUP BY ?c ORDER BY DESC(?n) ?c",
        "SELECT ?o COUNT(?x) AS ?n WHERE { ?x worksAt ?o } GROUP BY ?o ORDER BY DESC(?n) ?o",
        "SELECT ?a ?b WHERE { ?a worksAt ?c . ?b worksAt ?c } ORDER BY ?a ?b",
        "SELECT ?a ?b WHERE { ?a bornIn ?c . ?b bornIn ?c } ORDER BY ?a ?b",
        "SELECT ?x ?c WHERE { ?x created ?p . ?x headquarteredIn ?c } ORDER BY ?x ?c",
    ];
    [10, 40]
        .iter()
        .flat_map(|limit| SHAPES.iter().map(move |s| format!("{s} LIMIT {limit}")))
        .collect()
}

/// Harvest phase timings: `(metric, kb-obs histogram the pipeline feeds)`.
const PHASES: [(&str, &str); 5] = [
    ("harvest.collect_ms", "harvest.phase.collect_us"),
    ("harvest.extract_ms", "harvest.phase.extract_us"),
    ("harvest.refine_ms", "harvest.phase.refine_us"),
    ("harvest.taxonomy_ms", "harvest.phase.taxonomy_us"),
    ("harvest.load_ms", "harvest.phase.load_us"),
];

/// Share of the stream's gold tracked mentions that tracking must
/// resolve: the threshold of the T10 experiment's own test. NED is not
/// exact; at some seeds a fifth of the mentions stay unresolved with
/// either KB source.
const MIN_RESOLVED: f64 = 0.7;

/// Subject-anchored verification reads per cycle.
const POINT_READS: usize = 16;

fn generate(seed: u64, tr: &mut Tracer) -> Inputs {
    let op = tr.new_op();
    let corpus = tr.span("corpus.generate", op, || Corpus::generate(&CorpusConfig::standard(seed)));
    let world = &corpus.world;
    let canonical = |e: EntityId| world.entity(e).canonical.clone();
    let (pa, pb) = world.rival_products;
    let members_a = line_members(&corpus, pa);
    let members_b = line_members(&corpus, pb);
    let gold_mentions = corpus
        .posts
        .iter()
        .flat_map(|p| &p.mentions)
        .filter(|m| members_a.contains(&m.entity) || members_b.contains(&m.entity))
        .count();
    let anchors = corpus
        .all_docs()
        .iter()
        .flat_map(|d| &d.mentions)
        .map(|m| (m.surface.clone(), canonical(m.entity)))
        .collect();
    let mut seen = HashSet::new();
    let point_texts = world
        .facts
        .iter()
        .filter(|f| seen.insert(f.s))
        .take(POINT_READS)
        .map(|f| format!("SELECT ?p ?o WHERE {{ {} ?p ?o }}", canonical(f.s)))
        .collect();
    let posts: Vec<StreamPost> = corpus.posts.iter().map(from_corpus).collect();
    let mut digest = FNV_SEED;
    for d in corpus.all_docs() {
        digest = fnv(digest, d.text.as_bytes());
    }
    for p in &posts {
        digest = fnv(fnv(digest, &p.day.to_le_bytes()), p.text.as_bytes());
    }
    Inputs {
        line_a: members_a.into_iter().map(canonical).collect(),
        line_b: members_b.into_iter().map(canonical).collect(),
        gold_mentions,
        anchors,
        point_texts,
        analytic_texts: analytic_texts(),
        posts,
        digest,
        corpus,
    }
}

/// What one cycle produced, for the gates.
struct Cycle {
    secs: f64,
    harvest_secs: f64,
    track_secs: f64,
    accepted: usize,
    candidates: usize,
    quarantined: usize,
    retries: usize,
    store_digest: u64,
    answers_digest: u64,
    resolved: usize,
    b_ramps_faster: bool,
    disk_bytes_per_fact: f64,
    segment_bytes: u64,
    /// Reads routed to one partition and scattered ones.
    routed: (u64, u64),
}

fn cycle(
    source: Source,
    inp: &Inputs,
    dir: &Path,
    tr: &mut Tracer,
    point: &mut Samples,
    analytic: &mut Samples,
    last_view: &mut Option<SegmentedSnapshot>,
) -> Result<Cycle, String> {
    let op = tr.new_op();
    let t0 = Instant::now();
    let (base, accepted, candidates, quarantined, retries) = match source {
        Source::Harvest => {
            let cfg =
                HarvestConfig { method: Method::Reasoning, workers: WORKERS, ..Default::default() };
            let out = tr
                .span("harvest.call", op, || harvest(&inp.corpus, &cfg))
                .map_err(|e| format!("harvest: {e}"))?;
            let stats = &out.stats;
            let counts =
                (stats.accepted, stats.candidates, stats.quarantined_count(), stats.retries);
            let base = tr.span("store.freeze", op, || Arc::new(out.kb.into_snapshot()));
            (base, counts.0, counts.1, counts.2, counts.3)
        }
        Source::Gold => {
            let builder = tr.span("store.build", op, || gold_kb(&inp.corpus))?;
            let base = tr.span("store.freeze", op, || Arc::new(builder.freeze()));
            let facts = base.len();
            (base, facts, facts, 0, 0)
        }
    };
    let store = common::store_and_reopen(dir, base, tr, op)?;
    let view = store.view();

    let router = tr.span("serve.build", op, || KbRouter::from_view(&view, PARTITIONS));
    let merged = router.view();
    let mut answers = FNV_SEED;
    for (texts, samples) in [(&inp.point_texts, &mut *point), (&inp.analytic_texts, &mut *analytic)]
    {
        for text in texts {
            let q0 = Instant::now();
            let res = tr.span("serve.query", op, || router.query(text));
            samples.push(q0.elapsed().as_secs_f64() * 1e6);
            let res = res.map_err(|e| format!("verification query {text:?}: {e}"))?;
            answers = fnv(answers, res.render(merged.as_ref()).as_bytes());
        }
    }
    // Each router registers fresh routing counters, so these are this
    // cycle's.
    let routed = (counter("serve.routed_single"), counter("serve.scattered"));
    drop((merged, router));
    let harvest_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let ned = tr.span("ned.build", op, || {
        let mut ned = Ned::new(&view);
        for (surface, canonical) in &inp.anchors {
            if let Some(term) = view.term(canonical) {
                ned.add_anchor(surface, term);
            }
        }
        ned.finalize();
        ned
    });
    let terms = |names: &[String]| names.iter().filter_map(|n| view.term(n)).collect::<Vec<_>>();
    let (terms_a, terms_b) = (terms(&inp.line_a), terms(&inp.line_b));
    let tracker = Tracker::new(&ned, terms_a.iter().chain(&terms_b).copied().collect());
    let series = tr.span("analytics.aggregate", op, || {
        aggregate_parallel(&tracker, &view, &inp.posts, WORKERS)
    });
    let track_secs = t1.elapsed().as_secs_f64();
    let secs = t0.elapsed().as_secs_f64();

    let merge = |terms: &[kb_store::TermId]| {
        let mut merged = TimeSeries::new();
        for s in terms.iter().filter_map(|t| series.get(t)) {
            merged.merge(s);
        }
        merged
    };
    let (sa, sb) = (merge(&terms_a), merge(&terms_b));
    let files = sys::dir_files(dir);
    let store_digest = kb_digest(&view);
    let len = view.len();
    drop(tracker);
    drop(ned);
    *last_view = Some(view);
    Ok(Cycle {
        secs,
        harvest_secs,
        track_secs,
        accepted,
        candidates,
        quarantined,
        retries,
        store_digest,
        answers_digest: answers,
        resolved: sa.total_mentions() + sb.total_mentions(),
        b_ramps_faster: sb.trend_slope() > sa.trend_slope(),
        disk_bytes_per_fact: files.iter().map(|f| f.1).sum::<u64>() as f64 / len.max(1) as f64,
        segment_bytes: files.iter().filter(|f| f.0.starts_with("base")).map(|f| f.1).sum(),
        routed,
    })
}

/// Runs the workload, building each cycle's KB from `source`.
pub fn run(cfg: &RunCfg, source: Source) -> Result<Outcome, String> {
    let mut out = Outcome::new(cfg);
    let epoch = Instant::now();
    let mut tr = Tracer::new(cfg.trace, epoch, 0);
    let mut last_view = None;

    let t0 = Instant::now();
    let inp = generate(cfg.seed, &mut tr);
    if !common::setups(cfg, &mut out, t0.elapsed().as_secs_f64(), inp.digest)? {
        return Ok(out);
    }
    let docs = inp.corpus.all_docs().len();
    out.env("corpus", format!("standard scale: {docs} docs, {} posts", inp.posts.len()));
    out.env(
        "kb_source",
        match source {
            Source::Harvest => format!("harvest, Method::Reasoning, {WORKERS} workers"),
            Source::Gold => {
                "gold facts, instanceOf, taxonomy and mention labels via KbBuilder".into()
            }
        },
    );
    out.env("store", "StoreOptions::default() (fsync on, seal_every 8, unbounded page budget)");
    out.env("partitions", PARTITIONS);
    out.env("threads", format!("{WORKERS} (harvest and aggregate_parallel workers)"));
    out.env(
        "reads_per_cycle",
        format!(
            "{} point + {} analytic on a fresh router",
            inp.point_texts.len(),
            inp.analytic_texts.len()
        ),
    );

    let (mut point, mut analytic) = (Samples::default(), Samples::default());
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut rates = Vec::new();
    let mut window = (0, 0);
    let mut hist_before = Vec::new();
    let page_faults_before = counter("store.page_faults");
    let mut n = 0u64;
    for (traced, len) in common::phases(cfg) {
        tr.set_enabled(traced);
        if traced {
            window.0 = tr.ns(Instant::now());
            hist_before = PHASES.iter().map(|(_, h)| hist(h)).collect();
        }
        let (first, start) = (cycles.len(), Instant::now());
        while start.elapsed() < len || cycles.len() == first {
            n += 1;
            let dir = cfg.work_dir.join(format!("cycle-{n}"));
            let c = cycle(source, &inp, &dir, &mut tr, &mut point, &mut analytic, &mut last_view)?;
            std::fs::remove_dir_all(&dir).ok();
            cycles.push(c);
        }
        let done = &cycles[first..];
        rates.push(docs as f64 * done.len() as f64 / done.iter().map(|c| c.secs).sum::<f64>());
        if traced {
            window.1 = tr.ns(Instant::now());
        }
    }

    // Gates: every cycle agrees with the first, and the T10 shape holds.
    let c0 = &cycles[0];
    for (i, c) in cycles.iter().enumerate() {
        out.gate(c.accepted == c0.accepted, || {
            format!("cycle {i}: accepted {} != {}", c.accepted, c0.accepted)
        });
        out.gate(c.store_digest == c0.store_digest, || {
            format!("cycle {i}: reopened store digest differs")
        });
        out.gate(c.answers_digest == c0.answers_digest, || {
            format!("cycle {i}: verification answers differ")
        });
        out.gate(c.resolved == c0.resolved, || {
            format!("cycle {i}: resolved {} tracked mentions, not {}", c.resolved, c0.resolved)
        });
        out.gate(c.b_ramps_faster, || {
            format!("cycle {i}: line B does not ramp faster than line A")
        });
    }
    out.gate(c0.accepted > 0, || "the KB holds no facts".into());
    out.gate(c0.resolved as f64 >= MIN_RESOLVED * inp.gold_mentions as f64, || {
        format!("resolved {} of {} gold tracked mentions", c0.resolved, inp.gold_mentions)
    });
    out.env("resolved", format!("{} of {} gold tracked mentions", c0.resolved, inp.gold_mentions));
    out.env("kb_facts", c0.accepted);
    out.env("store_digest", format!("{:016x}", c0.store_digest));
    out.env("cycles", cycles.len());
    out.attempted =
        cycles.len() as u64 * (1 + (inp.point_texts.len() + inp.analytic_texts.len()) as u64);

    let med = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    out.named("cycle_docs_per_s", rates[0], "docs/s");
    out.set("point_p50_us", point.p50("point")?);
    out.named("point_p99_us", point.tail(0.99, "point")?, "us");
    out.named("analytic_p50_us", analytic.p50("analytic")?, "us");
    out.named("analytic_p99_us", analytic.tail(0.99, "analytic")?, "us");
    out.set("disk_bytes_per_fact", med(|c| c.disk_bytes_per_fact));
    out.set("peak_rss_mb", sys::peak_rss_mb()?);
    match source {
        Source::Harvest => {
            out.named("harvest_docs_per_s", docs as f64 / med(|c| c.harvest_secs), "docs/s")
        }
        Source::Gold => {
            out.named("build_facts_per_s", c0.accepted as f64 / med(|c| c.harvest_secs), "facts/s")
        }
    }
    out.named("track_posts_per_s", inp.posts.len() as f64 / med(|c| c.track_secs), "posts/s");

    if cfg.trace {
        let spans = std::mem::replace(&mut tr, Tracer::new(true, epoch, 0)).into_spans();
        let ms = |name: &str| span_median_us(&spans, name) / 1e3;
        out.named("corpus.generate_ms", ms("corpus.generate"), "ms");
        if source == Source::Harvest {
            out.named("harvest.call_ms", ms("harvest.call"), "ms");
            for ((name, h), (sum0, n0)) in PHASES.iter().zip(&hist_before) {
                let (sum1, n1) = hist(h);
                out.named(*name, ratio((sum1 - sum0) as f64, (n1 - n0) as f64) / 1e3, "ms");
            }
            out.named("harvest.candidates", c0.candidates as f64, "count");
            let accept_ratio = ratio(c0.accepted as f64, c0.candidates as f64);
            out.named("harvest.accept_ratio", accept_ratio, "ratio");
            let sum = |f: fn(&Cycle) -> usize| cycles.iter().map(f).sum::<usize>() as f64;
            out.named("harvest.quarantined", sum(|c| c.quarantined), "count");
            out.named("harvest.retries", sum(|c| c.retries), "count");
        } else {
            out.set("store.build_ms", ms("store.build"));
        }
        out.set("store.freeze_ms", ms("store.freeze"));
        out.set("store.create_ms", ms("store.create"));
        out.set("store.open_ms", ms("store.open"));
        out.set("store.prefault_ms", ms("store.prefault"));
        out.set("store.segment_bytes", c0.segment_bytes as f64);
        out.set("store.page_faults", (counter("store.page_faults") - page_faults_before) as f64);
        out.set("serve.build_ms", ms("serve.build"));
        out.set("serve.routed_single", cycles.iter().map(|c| c.routed.0).sum::<u64>() as f64);
        out.set("serve.scattered", cycles.iter().map(|c| c.routed.1).sum::<u64>() as f64);
        out.named("ned.build_ms", ms("ned.build"), "ms");
        out.named("analytics.aggregate_ms", ms("analytics.aggregate"), "ms");
        out.set("analytics.resolved_ratio", ratio(c0.resolved as f64, inp.gold_mentions as f64));
        out.set("bench.fail_ratio", 0.0);
        let view = last_view.as_ref().expect("a cycle ran");
        common::query_breakdown(&mut out, &mut tr, view, &inp.analytic_texts)?;
        let spans = crate::trace::merge(vec![spans, tr.into_spans()]);
        common::finish_trace(&mut out, spans, window, &[0], rates[0], rates[1]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::Triple;

    /// The gold KB is a function of the corpus, holds every gold fact
    /// under its relation name, and labels every mentioned entity.
    #[test]
    fn gold_kb_is_deterministic_and_complete() {
        let corpus = Corpus::generate(&CorpusConfig::standard(7));
        let kb = gold_kb(&corpus).unwrap().freeze();
        assert_eq!(kb_digest(&kb), kb_digest(&gold_kb(&corpus).unwrap().freeze()));
        let world = &corpus.world;
        let term = |name: &str| kb.term(name).unwrap_or_else(|| panic!("{name} is not a term"));
        for f in &world.facts {
            let s = term(&world.entity(f.s).canonical);
            let o = term(&world.entity(f.o).canonical);
            assert!(kb.contains(&Triple { s, p: term(f.rel.name()), o }), "{f:?} is missing");
        }
        for m in corpus.all_docs().iter().flat_map(|d| &d.mentions) {
            let entity = term(&world.entity(m.entity).canonical);
            assert!(kb.labels().candidate_entities(&m.surface).contains(&entity));
        }
    }
}
