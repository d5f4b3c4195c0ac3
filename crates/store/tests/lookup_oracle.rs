//! Differential property tests for exact-triple lookup. Frozen
//! snapshots keep no triple→fact map: `fact_for` and `contains` probe
//! the SPO index. On every read shape — an eager freeze, a reopened
//! lazy store (unbounded and under a tiny page budget), partition
//! slices and their merged view, segmented stacks before and after
//! compaction — both must agree with a linear scan over `facts()` for
//! every triple of the id grid the ops draw from, present or absent.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use kb_store::{
    partition_snapshot, FactId, KbBuilder, KbRead, PartitionedView, SegmentStore,
    SegmentedSnapshot, StoreOptions, TermId, Triple,
};

/// Entities and relations the ops draw from.
const ENTITIES: u32 = 8;
const RELATIONS: u32 = 4;

/// Assert a fact (repeats merge evidence) or retract a triple.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add { s: u32, p: u32, o: u32, conf: f64 },
    Retract { s: u32, p: u32, o: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // One op in four retracts; the small grid makes repeated asserts
    // and resurrections common.
    (0u8..4, 0..ENTITIES, 0..RELATIONS, 0..ENTITIES, 1u32..10).prop_map(|(kind, s, p, o, c)| {
        if kind == 0 {
            Op::Retract { s, p, o }
        } else {
            Op::Add { s, p, o, conf: c as f64 / 10.0 }
        }
    })
}

fn apply(b: &mut KbBuilder, op: Op) {
    match op {
        Op::Add { s, p, o, conf } => {
            let triple = Triple::new(
                b.intern(&format!("e{s}")),
                b.intern(&format!("r{p}")),
                b.intern(&format!("e{o}")),
            );
            b.add_fact(kb_store::Fact {
                triple,
                confidence: conf,
                source: kb_store::store::SourceId::DEFAULT,
                span: None,
            });
        }
        Op::Retract { s, p, o } => {
            b.retract_str(&format!("e{s}"), &format!("r{p}"), &format!("e{o}"));
        }
    }
}

/// Chunk 0 of `n_deltas + 1` even chunks is the base; every later
/// chunk freezes as a delta against the growing view.
fn build_stack(ops: &[Op], n_deltas: usize) -> SegmentedSnapshot {
    let chunks = n_deltas + 1;
    let bound = |i: usize| i * ops.len() / chunks;
    let mut base = KbBuilder::new();
    for &op in &ops[..bound(1)] {
        apply(&mut base, op);
    }
    let mut view = SegmentedSnapshot::from_base(base.freeze().into_shared());
    for c in 1..chunks {
        let mut b = KbBuilder::new();
        for &op in &ops[bound(c)..bound(c + 1)] {
            apply(&mut b, op);
        }
        view = view.with_delta(Arc::new(b.freeze_delta(&view)));
    }
    view
}

/// Every triple of the op grid whose terms `kb` knows, plus triples
/// whose ids no dictionary issued.
fn probes<K: KbRead + ?Sized>(kb: &K) -> Vec<Triple> {
    let ent = |i: u32| kb.term(&format!("e{i}"));
    let rel = |i: u32| kb.term(&format!("r{i}"));
    let mut out = Vec::new();
    for s in 0..ENTITIES {
        for p in 0..RELATIONS {
            for o in 0..ENTITIES {
                if let (Some(s), Some(p), Some(o)) = (ent(s), rel(p), ent(o)) {
                    out.push(Triple::new(s, p, o));
                }
            }
        }
    }
    let far = TermId(u32::MAX - 1);
    let known = out.first().copied().unwrap_or(Triple::new(far, far, far));
    out.push(Triple::new(far, known.p, known.o));
    out.push(Triple::new(known.s, far, known.o));
    out.push(Triple::new(known.s, known.p, far));
    out
}

/// `fact_for` and `contains` agree with a linear scan of the live facts.
fn check<K: KbRead + ?Sized>(kb: &K, what: &str) -> Result<(), TestCaseError> {
    for t in probes(kb) {
        let oracle = kb.facts().find(|f| f.triple == t);
        prop_assert_eq!(kb.fact_for(&t), oracle, "{}: fact_for({:?})", what, t);
        prop_assert_eq!(kb.contains(&t), oracle.is_some(), "{}: contains({:?})", what, t);
    }
    Ok(())
}

fn scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("kbkit-lookup-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An eager freeze, and the same KB behind a reopened lazy store
    /// with its deltas sealed to disk — unbounded, and under a budget
    /// small enough to spill index columns between probes.
    #[test]
    fn frozen_and_reopened_lookups_match_a_scan(
        ops in prop::collection::vec(op_strategy(), 0..80),
        n_deltas in 0usize..4,
    ) {
        let mut b = KbBuilder::new();
        for &op in &ops {
            apply(&mut b, op);
        }
        check(&b.freeze(), "eager freeze")?;

        let stack = build_stack(&ops, n_deltas);
        for memory_budget in [None, Some(256)] {
            let dir = scratch();
            let opts = StoreOptions { fsync: false, seal_every: 1, memory_budget };
            let mut store = SegmentStore::create(&dir, Arc::clone(stack.base()), opts).unwrap();
            for d in stack.deltas() {
                store.install_delta(Arc::clone(d)).unwrap();
            }
            drop(store);
            let reopened = SegmentStore::open_with(&dir, opts).unwrap().view();
            check(&reopened, &format!("reopened store, budget {memory_budget:?}"))?;
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Partition slices, their merged view, and segmented stacks of
    /// 0–4 deltas before and after compaction.
    #[test]
    fn partitioned_and_segmented_lookups_match_a_scan(
        ops in prop::collection::vec(op_strategy(), 0..80),
        n_deltas in 0usize..=4,
    ) {
        let stack = build_stack(&ops, n_deltas);
        check(&stack, &format!("{n_deltas}-delta stack"))?;
        let compacted = stack.compact();
        check(&compacted, &format!("compacted {n_deltas}-delta stack"))?;
        // One row per triple, retracted rows included.
        let rows: Vec<Triple> =
            (0..).map_while(|i| compacted.fact(FactId(i))).map(|f| f.triple).collect();
        let mut distinct = rows.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), rows.len(), "compaction repeated a triple");

        for n in 1..=4 {
            let parts = partition_snapshot(&compacted, n);
            for (i, part) in parts.iter().enumerate() {
                check(part, &format!("partition {i} of {n}"))?;
            }
            let merged = PartitionedView::new(
                parts
                    .into_iter()
                    .map(|p| Arc::new(SegmentedSnapshot::from_base(p.into_shared())))
                    .collect(),
            );
            check(&merged, &format!("merged view of {n}"))?;
        }
    }
}
