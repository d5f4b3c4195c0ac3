//! The [`KnowledgeBase`]: the mutable compatibility façade over the
//! split storage engine — a [`KbBuilder`](crate::KbBuilder)-style write side
//! ([`KbCore`](crate::builder) dictionary + fact table) plus a lazily
//! frozen, cached read side (`FrozenIndexes`).
//!
//! Design notes:
//!
//! * Facts live in an append-only `Vec<Fact>`; a `HashMap<Triple, FactId>`
//!   deduplicates statements, so re-adding a triple *merges* evidence
//!   (noisy-or on confidence) instead of duplicating it.
//! * Reads go through the [`KbRead`] trait. The three sorted-array
//!   permutation indexes (SPO, POS, OSP) are built on first read after a
//!   structural mutation and cached in a `OnceLock`; any
//!   [`TriplePattern`] is answered by one binary-searched contiguous
//!   range scan (see [`TriplePattern::choose_index`]).
//! * Confidence merges and span updates do not change the index key
//!   set, so they keep the cache; new facts, retractions and
//!   resurrections invalidate it.
//! * Queries take `&self` and the cache is a `OnceLock`, so the store
//!   stays `Sync`: read-heavy consumers (NED, analytics) can share it
//!   across threads. For long-lived read sharing prefer
//!   [`snapshot`](KnowledgeBase::snapshot), which detaches an immutable
//!   [`KbSnapshot`].

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::builder::{AddOutcome, KbCore, KbShard};
use crate::fact::{Fact, Triple};
use crate::ids::{FactId, TermId};
use crate::labels::LabelStore;
use crate::pattern::TriplePattern;
use crate::read::KbRead;
use crate::sameas::SameAsStore;
use crate::snapshot::{FrozenCore, FrozenIndexes, KbSnapshot, MatchIter};
use crate::taxonomy::Taxonomy;
use crate::time::TimeSpan;

/// Identifier of a registered provenance source (a corpus, an extractor,
/// a manual assertion batch, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

impl SourceId {
    /// The pre-registered source `"asserted"` present in every store.
    pub const DEFAULT: SourceId = SourceId(0);
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// An in-memory SPO knowledge base with metadata, taxonomy, sameAs and
/// multilingual labels. See the [crate docs](crate) for an overview.
///
/// Reads are provided by the [`KbRead`] impl; bring the trait into
/// scope (`use kb_store::KbRead;`) to query.
#[derive(Debug, Default)]
pub struct KnowledgeBase {
    core: KbCore,
    /// Subclass-of DAG over class terms.
    pub taxonomy: Taxonomy,
    /// owl:sameAs equivalence classes over entity terms.
    pub sameas: SameAsStore,
    /// Multilingual labels and the reverse surface-form (`means`) index.
    pub labels: LabelStore,
    frozen: OnceLock<FrozenIndexes>,
}

impl KnowledgeBase {
    /// Creates an empty store with the default `"asserted"` source.
    pub fn new() -> Self {
        let mut kb = Self::default();
        let id = kb.register_source("asserted");
        debug_assert_eq!(id, SourceId::DEFAULT);
        kb
    }

    /// The cached frozen indexes, built on first use.
    fn frozen(&self) -> &FrozenIndexes {
        self.frozen.get_or_init(|| FrozenIndexes::build(&self.core.facts))
    }

    /// Drops the cached indexes after a structural mutation.
    fn invalidate(&mut self) {
        self.frozen.take();
    }

    // ---------------------------------------------------------------
    // Terms
    // ---------------------------------------------------------------

    /// Interns a term, returning its id.
    pub fn intern(&mut self, term: &str) -> TermId {
        self.core.dict.intern(term)
    }

    // ---------------------------------------------------------------
    // Sources
    // ---------------------------------------------------------------

    /// Registers (or retrieves) a provenance source by name.
    pub fn register_source(&mut self, name: &str) -> SourceId {
        self.core.sources.register(name)
    }

    /// All registered sources in id order.
    pub fn sources(&self) -> impl Iterator<Item = (SourceId, &str)> {
        self.core.sources.iter()
    }

    // ---------------------------------------------------------------
    // Facts (write path)
    // ---------------------------------------------------------------

    /// Adds a fully-confident fact with default provenance; returns its id.
    pub fn add_triple(&mut self, s: TermId, p: TermId, o: TermId) -> FactId {
        self.add_fact(Fact::asserted(Triple::new(s, p, o)))
    }

    /// Convenience: interns three strings and asserts the triple.
    pub fn assert_str(&mut self, s: &str, p: &str, o: &str) -> FactId {
        let t = Triple::new(self.intern(s), self.intern(p), self.intern(o));
        self.add_fact(Fact::asserted(t))
    }

    /// Adds a fact. If the same triple already exists the stored fact is
    /// *merged*: confidence combines by noisy-or
    /// (`1 - (1-a)(1-b)`, the standard evidence combination for
    /// independent extractors), the temporal span is kept if previously
    /// unknown, and provenance keeps the earlier source. Returns the id
    /// of the (new or merged) fact.
    pub fn add_fact(&mut self, fact: Fact) -> FactId {
        let (id, outcome) = self.core.add_fact(fact);
        // Evidence merges touch no index keys; only structural changes
        // (new triple, resurrection) invalidate the cached indexes.
        if outcome != AddOutcome::Merged {
            self.invalidate();
        }
        id
    }

    /// Retracts a triple: its confidence is set to zero and it stops
    /// matching queries. The fact id remains valid. Returns whether the
    /// triple was present and live.
    pub fn retract(&mut self, t: Triple) -> bool {
        let changed = self.core.retract(t);
        if changed {
            self.invalidate();
        }
        changed
    }

    /// Sets the temporal scope of an existing triple. Returns `false` if
    /// the triple is absent.
    pub fn set_span(&mut self, t: Triple, span: TimeSpan) -> bool {
        // Spans are read from the fact table at query time, never from
        // the index keys — no invalidation needed.
        self.core.set_span(t, span)
    }

    // ---------------------------------------------------------------
    // Sharded ingest and snapshots
    // ---------------------------------------------------------------

    /// Merges one ingest shard (see [`KbShard`]); returns the number of
    /// new facts.
    pub fn merge_shard(&mut self, shard: &KbShard) -> usize {
        let added = self.core.merge_shard(shard);
        self.invalidate();
        added
    }

    /// The merge barrier for parallel ingest: replays `shards` in
    /// iteration order, reproducing the exact dictionary ids and merge
    /// semantics of a serial ingest of the concatenated shards.
    pub fn merge_shards<I>(&mut self, shards: I) -> usize
    where
        I: IntoIterator<Item = KbShard>,
    {
        let obs = kb_obs::global();
        let span = obs.span("store.shard.merge_us");
        let mut merges = 0u64;
        let added = shards
            .into_iter()
            .map(|s| {
                merges += 1;
                self.core.merge_shard(&s)
            })
            .sum();
        span.stop();
        obs.counter("store.shard.merges").add(merges);
        obs.counter("store.shard.merged_facts").add(added as u64);
        self.invalidate();
        added
    }

    /// Detaches an immutable, `Arc`-shareable [`KbSnapshot`] of the
    /// current contents (clones the dictionary, sources and fact table
    /// but not the triple dedup map; reuses the cached indexes when
    /// warm).
    pub fn snapshot(&self) -> KbSnapshot {
        let core = &self.core;
        KbSnapshot::from_parts(
            FrozenCore {
                dict: Arc::new(core.dict.clone()),
                sources: Arc::new(core.sources.clone()),
                facts: core.facts.clone(),
                live: core.live,
            },
            self.taxonomy.clone(),
            self.sameas.clone(),
            self.labels.clone(),
            self.frozen().clone(),
        )
    }

    /// Consumes the store into an immutable [`KbSnapshot`] without
    /// cloning the fact table.
    pub fn into_snapshot(self) -> KbSnapshot {
        let KnowledgeBase { core, taxonomy, sameas, labels, frozen } = self;
        let core = core.freeze();
        let indexes = frozen.into_inner().unwrap_or_else(|| FrozenIndexes::build(&core.facts));
        KbSnapshot::from_parts(core, taxonomy, sameas, labels, indexes)
    }

    /// The term dictionary (the mutable façade holds exactly one).
    pub fn dictionary(&self) -> &crate::Dictionary {
        &self.core.dict
    }
}

impl KbRead for KnowledgeBase {
    fn term(&self, term: &str) -> Option<TermId> {
        self.core.dict.get(term)
    }

    fn resolve(&self, id: TermId) -> Option<&str> {
        self.core.dict.resolve(id)
    }

    fn term_count(&self) -> usize {
        self.core.dict.len()
    }

    fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    fn sameas(&self) -> &SameAsStore {
        &self.sameas
    }

    fn labels(&self) -> &LabelStore {
        &self.labels
    }

    fn source_name(&self, id: SourceId) -> Option<&str> {
        self.core.sources.name(id)
    }

    fn fact(&self, id: FactId) -> Option<&Fact> {
        self.core.facts.get(id.index())
    }

    fn fact_for(&self, t: &Triple) -> Option<&Fact> {
        self.core.fact_for(t)
    }

    fn len(&self) -> usize {
        self.core.live
    }

    fn facts(&self) -> crate::LiveFactsIter<'_> {
        crate::snapshot::LiveFactsIter::new(&self.core.facts)
    }

    fn matching_iter(&self, pattern: &TriplePattern) -> MatchIter<'_> {
        let (cur, filter) = self.frozen().cursor(pattern, &self.core.facts);
        MatchIter::new(cur, filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimePoint;

    fn sample_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        kb.assert_str("Steve_Wozniak", "founded", "Apple_Inc");
        kb.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        kb.assert_str("San_Francisco", "locatedIn", "United_States");
        kb.assert_str("Apple_Inc", "headquarteredIn", "Cupertino");
        kb
    }

    #[test]
    fn add_and_query_by_every_shape() {
        let kb = sample_kb();
        let jobs = kb.term("Steve_Jobs").unwrap();
        let founded = kb.term("founded").unwrap();
        let apple = kb.term("Apple_Inc").unwrap();

        assert_eq!(kb.matching(&TriplePattern::with_s(jobs)).len(), 2);
        assert_eq!(kb.matching(&TriplePattern::with_p(founded)).len(), 2);
        assert_eq!(kb.matching(&TriplePattern::with_o(apple)).len(), 2);
        assert_eq!(kb.matching(&TriplePattern::with_sp(jobs, founded)).len(), 1);
        assert_eq!(kb.matching(&TriplePattern::with_po(founded, apple)).len(), 2);
        assert_eq!(kb.matching(&TriplePattern::with_so(jobs, apple)).len(), 1);
        assert_eq!(kb.matching(&TriplePattern::any()).len(), 5);
        let t = Triple::new(jobs, founded, apple);
        assert_eq!(kb.matching(&TriplePattern::exact(t)).len(), 1);
    }

    #[test]
    fn duplicate_adds_merge_by_noisy_or() {
        let mut kb = KnowledgeBase::new();
        let s = kb.intern("s");
        let p = kb.intern("p");
        let o = kb.intern("o");
        let t = Triple::new(s, p, o);
        kb.add_fact(Fact { triple: t, confidence: 0.5, source: SourceId::DEFAULT, span: None });
        kb.add_fact(Fact { triple: t, confidence: 0.5, source: SourceId::DEFAULT, span: None });
        assert_eq!(kb.len(), 1);
        let f = kb.fact_for(&t).unwrap();
        assert!((f.confidence - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_keeps_first_known_span() {
        let mut kb = KnowledgeBase::new();
        let t = Triple::new(kb.intern("a"), kb.intern("r"), kb.intern("b"));
        let span = TimeSpan::at(TimePoint::year(1976));
        kb.add_fact(Fact { triple: t, confidence: 0.4, source: SourceId::DEFAULT, span: None });
        kb.add_fact(Fact {
            triple: t,
            confidence: 0.4,
            source: SourceId::DEFAULT,
            span: Some(span),
        });
        assert_eq!(kb.fact_for(&t).unwrap().span, Some(span));
    }

    #[test]
    fn retract_hides_from_queries_and_resurrection_works() {
        let mut kb = sample_kb();
        let jobs = kb.term("Steve_Jobs").unwrap();
        let founded = kb.term("founded").unwrap();
        let apple = kb.term("Apple_Inc").unwrap();
        let t = Triple::new(jobs, founded, apple);

        assert!(kb.retract(t));
        assert!(!kb.contains(&t));
        assert_eq!(kb.len(), 4);
        assert_eq!(kb.matching(&TriplePattern::with_p(founded)).len(), 1);
        assert!(!kb.retract(t), "double retract is a no-op");

        // Re-adding resurrects the fact.
        kb.add_fact(Fact { triple: t, confidence: 0.9, source: SourceId::DEFAULT, span: None });
        assert!(kb.contains(&t));
        assert_eq!(kb.len(), 5);
    }

    #[test]
    fn merge_after_read_keeps_cached_indexes_correct() {
        let mut kb = sample_kb();
        let jobs = kb.term("Steve_Jobs").unwrap();
        let founded = kb.term("founded").unwrap();
        let apple = kb.term("Apple_Inc").unwrap();
        let t = Triple::new(jobs, founded, apple);
        // Warm the cache, then merge evidence into an existing fact:
        // the cache survives, and queries see the merged confidence.
        assert_eq!(kb.matching(&TriplePattern::any()).len(), 5);
        kb.add_fact(Fact { triple: t, confidence: 0.5, source: SourceId::DEFAULT, span: None });
        assert_eq!(kb.matching(&TriplePattern::any()).len(), 5);
        assert!(kb.fact_for(&t).unwrap().confidence > 0.999);
        // A structural add after a warm read shows up too.
        kb.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        assert_eq!(kb.matching(&TriplePattern::any()).len(), 6);
    }

    #[test]
    fn path_join_composes_relations() {
        let kb = sample_kb();
        let born = kb.term("bornIn").unwrap();
        let located = kb.term("locatedIn").unwrap();
        let pairs = kb.path_join(born, located);
        assert_eq!(pairs.len(), 1);
        let (s, o) = pairs[0];
        assert_eq!(kb.resolve(s), Some("Steve_Jobs"));
        assert_eq!(kb.resolve(o), Some("United_States"));
    }

    #[test]
    fn degree_and_neighbors() {
        let kb = sample_kb();
        let apple = kb.term("Apple_Inc").unwrap();
        assert_eq!(kb.degree(apple), 3);
        let names: Vec<_> =
            kb.neighbors(apple).into_iter().map(|t| kb.resolve(t).unwrap().to_string()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"Steve_Jobs".to_string()));
        assert!(names.contains(&"Cupertino".to_string()));
    }

    #[test]
    fn sources_register_and_resolve() {
        let mut kb = KnowledgeBase::new();
        assert_eq!(kb.source_name(SourceId::DEFAULT), Some("asserted"));
        let a = kb.register_source("wiki");
        let b = kb.register_source("wiki");
        assert_eq!(a, b);
        assert_eq!(kb.source_name(a), Some("wiki"));
        assert_eq!(kb.sources().count(), 2);
    }

    #[test]
    fn count_matching_agrees_with_matching() {
        let kb = sample_kb();
        let jobs = kb.term("Steve_Jobs").unwrap();
        let apple = kb.term("Apple_Inc").unwrap();
        for pat in [
            TriplePattern::any(),
            TriplePattern::with_s(jobs),
            TriplePattern::with_o(apple),
            TriplePattern::with_so(jobs, apple),
        ] {
            assert_eq!(kb.count_matching(&pat), kb.matching(&pat).len());
        }
    }

    #[test]
    fn stats_reflect_contents() {
        let mut kb = sample_kb();
        let t = kb.matching_triples(&TriplePattern::any())[0];
        kb.set_span(t, TimeSpan::since(TimePoint::year(1976)));
        let st = kb.stats();
        assert_eq!(st.facts, 5);
        assert_eq!(st.predicates, 4);
        assert_eq!(st.temporal_facts, 1);
        assert!(st.mean_confidence > 0.99);
    }

    #[test]
    fn matching_at_filters_by_validity() {
        use crate::time::TimePoint;
        let mut kb = KnowledgeBase::new();
        let p = kb.intern("worksAt");
        let (a, b, acme) = (kb.intern("A"), kb.intern("B"), kb.intern("Acme"));
        kb.add_triple(a, p, acme);
        kb.set_span(
            Triple::new(a, p, acme),
            TimeSpan::between(TimePoint::year(1990), TimePoint::year(1995)).unwrap(),
        );
        kb.add_triple(b, p, acme); // timeless
        let pat = TriplePattern::with_p(p);
        assert_eq!(kb.matching_at(&pat, &TimePoint::year(1992)).len(), 2);
        assert_eq!(kb.matching_at(&pat, &TimePoint::year(2000)).len(), 1);
        let only = kb.matching_at(&pat, &TimePoint::year(2000));
        assert_eq!(only[0].triple.s, b);
    }

    #[test]
    fn predicate_histogram_counts_live_facts() {
        let mut kb = sample_kb();
        let hist = kb.predicate_histogram();
        assert_eq!(hist[0], ("founded".to_string(), 2));
        assert_eq!(hist.len(), 4);
        let t = kb.matching_triples(&TriplePattern::with_p(kb.term("founded").unwrap()))[0];
        kb.retract(t);
        let hist = kb.predicate_histogram();
        assert_eq!(hist.iter().find(|(p, _)| p == "founded").unwrap().1, 1);
    }

    #[test]
    fn iter_returns_all_live_facts_in_spo_order() {
        let mut kb = sample_kb();
        let all: Vec<Triple> = kb.iter().map(|f| f.triple).collect();
        assert_eq!(all.len(), 5);
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        kb.retract(all[0]);
        assert_eq!(kb.iter().count(), 4);
    }

    #[test]
    fn snapshot_answers_like_the_live_store() {
        let kb = sample_kb();
        let snap = kb.snapshot();
        let jobs = kb.term("Steve_Jobs").unwrap();
        assert_eq!(snap.len(), kb.len());
        assert_eq!(
            snap.matching_triples(&TriplePattern::with_s(jobs)),
            kb.matching_triples(&TriplePattern::with_s(jobs)),
        );
        // into_snapshot gives the same view without cloning.
        let frozen = kb.into_snapshot();
        assert_eq!(frozen.len(), snap.len());
        assert_eq!(frozen.stats(), snap.stats());
    }

    #[test]
    fn sharded_ingest_matches_serial_ingest() {
        let mut serial = KnowledgeBase::new();
        let src = serial.register_source("harvest");
        let rows = [("a", "r", "b", 0.9), ("b", "r", "c", 0.8), ("a", "q", "c", 0.7)];
        for &(s, p, o, c) in &rows {
            let t = Triple::new(serial.intern(s), serial.intern(p), serial.intern(o));
            serial.add_fact(Fact { triple: t, confidence: c, source: src, span: None });
        }
        let mut sharded = KnowledgeBase::new();
        let src2 = sharded.register_source("harvest");
        assert_eq!(src, src2);
        let mut shards = vec![KbShard::new(), KbShard::new()];
        for (i, &(s, p, o, c)) in rows.iter().enumerate() {
            shards[i / 2].add(s, p, o, c, src2, None);
        }
        assert_eq!(sharded.merge_shards(shards), 3);
        assert_eq!(
            serial.matching_triples(&TriplePattern::any()),
            sharded.matching_triples(&TriplePattern::any()),
        );
        for (id, term) in serial.dictionary().iter() {
            assert_eq!(sharded.resolve(id), Some(term));
        }
    }
}
