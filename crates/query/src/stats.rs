//! Cardinality statistics harvested from a KB view — the planner's
//! cost-model input.
//!
//! Per-predicate fact counts come straight from the snapshot's POS
//! offset buckets (`count_matching` on a bound-predicate pattern is
//! `O(1)` there); distinct-object counts stream the same bucket, which
//! the index contract sorts by `(o, s)`, so distinct objects are just
//! run boundaries; distinct subjects sort the bucket's subject column
//! once. Building the catalog is `O(n log n)` worst case and done once
//! per snapshot — the serving layer shares one catalog across all
//! queries against a generation.

use std::collections::HashMap;

use kb_store::{KbRead, TermId, TriplePattern};

/// Statistics for one predicate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredStat {
    /// Live facts with this predicate.
    pub count: usize,
    /// Distinct subjects among them.
    pub distinct_s: usize,
    /// Distinct objects among them.
    pub distinct_o: usize,
}

/// Per-predicate and whole-KB cardinality statistics.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    /// Total live facts.
    pub total: usize,
    /// Per-predicate stats.
    pub per_pred: HashMap<TermId, PredStat>,
    /// Distinct subjects across the whole KB.
    pub distinct_s: usize,
    /// Distinct objects across the whole KB.
    pub distinct_o: usize,
}

impl StatsCatalog {
    /// Harvests the catalog from any [`KbRead`] view. Every build
    /// counts in the global registry's `query.stats.builds`.
    pub fn build<K: KbRead + ?Sized>(kb: &K) -> Self {
        kb_obs::global().counter("query.stats.builds").inc();
        // One cheap insertion-order pass discovers the predicate set and
        // the global distinct-subject/object counts.
        let mut preds: Vec<TermId> = Vec::new();
        let mut seen_p: HashMap<TermId, ()> = HashMap::new();
        let mut subjects: Vec<TermId> = Vec::with_capacity(kb.len());
        let mut objects: Vec<TermId> = Vec::with_capacity(kb.len());
        for f in kb.facts() {
            if seen_p.insert(f.triple.p, ()).is_none() {
                preds.push(f.triple.p);
            }
            subjects.push(f.triple.s);
            objects.push(f.triple.o);
        }
        // The two global sorts are independent and sized by the whole
        // KB; overlapping them shaves a visible slice off cold start.
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                objects.sort_unstable();
                objects.dedup();
            });
            subjects.sort_unstable();
            subjects.dedup();
            h.join().expect("object sort");
        });

        // Per predicate: the POS bucket is one contiguous range sorted
        // by (o, s) — count is O(1), distinct objects are run
        // boundaries, distinct subjects need one sort of the bucket.
        let mut per_pred = HashMap::with_capacity(preds.len());
        for p in preds {
            let pattern = TriplePattern::with_p(p);
            let count = kb.count_matching(&pattern);
            let mut distinct_o = 0usize;
            let mut last_o: Option<TermId> = None;
            let mut bucket_s: Vec<TermId> = Vec::with_capacity(count);
            for t in kb.triples_iter(&pattern) {
                if last_o != Some(t.o) {
                    distinct_o += 1;
                    last_o = Some(t.o);
                }
                bucket_s.push(t.s);
            }
            bucket_s.sort_unstable();
            bucket_s.dedup();
            per_pred.insert(p, PredStat { count, distinct_s: bucket_s.len(), distinct_o });
        }
        StatsCatalog {
            total: kb.len(),
            per_pred,
            distinct_s: subjects.len(),
            distinct_o: objects.len(),
        }
    }

    /// Folds one [`DeltaSegment`] into the catalog without rescanning
    /// the base: net-new facts bump the per-predicate and total counts
    /// exactly; tombstones subtract exactly; shadow entries change no
    /// cardinality. Distinct-value counts are maintained as *sums of
    /// per-segment distincts* — an upper bound (a delta may repeat a
    /// subject the base already knows), which only skews the uniformity
    /// division slightly and keeps the merge `O(delta)` instead of
    /// `O(base)`. The next full rebuild/compaction restores exactness.
    ///
    /// [`DeltaSegment`]: kb_store::DeltaSegment
    pub fn merged_with_delta(&self, delta: &kb_store::DeltaSegment) -> Self {
        let mut cat = self.clone();
        // Group the net-new facts per predicate; count delta-local
        // distincts in one sort each.
        let mut per_new: HashMap<TermId, (usize, Vec<TermId>, Vec<TermId>)> = HashMap::new();
        let mut new_s: Vec<TermId> = Vec::new();
        let mut new_o: Vec<TermId> = Vec::new();
        for f in delta.new_facts_iter() {
            let e = per_new.entry(f.triple.p).or_default();
            e.0 += 1;
            e.1.push(f.triple.s);
            e.2.push(f.triple.o);
            new_s.push(f.triple.s);
            new_o.push(f.triple.o);
            cat.total += 1;
        }
        for (p, (count, mut ss, mut oo)) in per_new {
            ss.sort_unstable();
            ss.dedup();
            oo.sort_unstable();
            oo.dedup();
            let st = cat.per_pred.entry(p).or_insert(PredStat {
                count: 0,
                distinct_s: 0,
                distinct_o: 0,
            });
            st.count += count;
            st.distinct_s += ss.len();
            st.distinct_o += oo.len();
        }
        for f in delta.tombstones_iter() {
            cat.total = cat.total.saturating_sub(1);
            if let Some(st) = cat.per_pred.get_mut(&f.triple.p) {
                st.count = st.count.saturating_sub(1);
            }
        }
        // Global distincts: only terms allocated by this delta are
        // provably unseen; older ids may already be counted, so they
        // are skipped (keeps the bound tight-ish in both directions).
        let first = delta.first_term();
        for terms in [&mut new_s, &mut new_o] {
            terms.retain(|t| *t >= first);
            terms.sort_unstable();
            terms.dedup();
        }
        cat.distinct_s += new_s.len();
        cat.distinct_o += new_o.len();
        cat
    }

    /// Estimated matches for a scan of `pred` (a constant predicate id,
    /// or `None` for an unbound/variable predicate position) given
    /// whether the subject/object positions are fixed (a constant or an
    /// already-bound variable) at scan time.
    ///
    /// Uses the classic uniformity assumption: fixing a component
    /// divides the range cardinality by its distinct count.
    pub fn estimate(&self, pred: Option<TermId>, s_fixed: bool, o_fixed: bool) -> f64 {
        let (base, ds, do_) = match pred {
            Some(p) => match self.per_pred.get(&p) {
                // A constant predicate the KB has never seen: the scan
                // is empty, whatever else is bound.
                None => return 0.0,
                Some(st) => (st.count as f64, st.distinct_s as f64, st.distinct_o as f64),
            },
            None => (self.total as f64, self.distinct_s as f64, self.distinct_o as f64),
        };
        let mut est = base;
        if s_fixed {
            est /= ds.max(1.0);
        }
        if o_fixed {
            est /= do_.max(1.0);
        }
        est.max(if base == 0.0 { 0.0 } else { f64::MIN_POSITIVE })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    #[test]
    fn catalog_counts_are_exact() {
        let mut b = KbBuilder::new();
        b.assert_str("a", "r", "x");
        b.assert_str("b", "r", "x");
        b.assert_str("b", "r", "y");
        b.assert_str("c", "q", "y");
        let snap = b.freeze();
        let cat = StatsCatalog::build(&snap);
        assert_eq!(cat.total, 4);
        assert_eq!(cat.distinct_s, 3);
        assert_eq!(cat.distinct_o, 2);
        let r = snap.term("r").unwrap();
        let q = snap.term("q").unwrap();
        assert_eq!(cat.per_pred[&r], PredStat { count: 3, distinct_s: 2, distinct_o: 2 });
        assert_eq!(cat.per_pred[&q], PredStat { count: 1, distinct_s: 1, distinct_o: 1 });
    }

    #[test]
    fn estimates_shrink_with_bound_components() {
        let mut b = KbBuilder::new();
        for i in 0..10 {
            b.assert_str(&format!("s{i}"), "r", &format!("o{}", i % 2));
        }
        let snap = b.freeze();
        let cat = StatsCatalog::build(&snap);
        let r = snap.term("r").unwrap();
        assert_eq!(cat.estimate(Some(r), false, false), 10.0);
        assert_eq!(cat.estimate(Some(r), true, false), 1.0);
        assert_eq!(cat.estimate(Some(r), false, true), 5.0);
        // Unknown predicate: provably empty.
        assert_eq!(cat.estimate(Some(kb_store::TermId(9999)), false, false), 0.0);
        // Variable predicate: whole-KB stats.
        assert_eq!(cat.estimate(None, false, false), 10.0);
    }
}
