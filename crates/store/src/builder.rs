//! The write side of the storage engine: `KbCore` (the shared
//! dictionary + fact-table state, plus the triple→fact dedup map that
//! only ingest needs), the batched [`KbBuilder`], and per-worker
//! [`KbShard`]s with local interning that merge deterministically at a
//! barrier. Freezing drops the dedup map: the read side's `FrozenCore`
//! answers exact-triple lookups from its SPO index instead.
//!
//! The construction/serving split mirrors the batch-curation vs
//! read-serving architecture of the industrial KBs the tutorial surveys
//! (YAGO-style batch builds): writers funnel into a builder, readers
//! get an immutable [`KbSnapshot`].
//!
//! Determinism contract: merging shards in shard order reproduces the
//! exact dictionary ids, fact ids and merge semantics of a serial
//! ingest that processed the same facts in the same order. This is what
//! keeps parallel harvest output bit-identical to the serial path.

use std::sync::Arc;

use crate::fact::{Fact, Triple};
use crate::fx::FxHashMap;
use crate::ids::{FactId, TermId};
use crate::labels::LabelStore;
use crate::sameas::SameAsStore;
use crate::snapshot::{FrozenCore, FrozenIndexes, KbSnapshot};
use crate::store::SourceId;
use crate::taxonomy::Taxonomy;
use crate::time::TimeSpan;
use crate::Dictionary;

/// What [`KbCore::add_fact`] did with the incoming fact — the write
/// façade uses this to decide whether cached read indexes must be
/// invalidated (only structural changes touch the index key set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AddOutcome {
    /// A brand-new triple was appended.
    New,
    /// The triple already existed live; evidence was merged in place.
    Merged,
    /// The triple existed retracted and came back to life.
    Resurrected,
}

/// The provenance source table: names in id order plus the reverse
/// lookup. Frozen snapshots share one table by `Arc`.
#[derive(Debug, Default, Clone)]
pub(crate) struct SourceTable {
    names: Vec<String>,
    lookup: FxHashMap<String, SourceId>,
}

impl SourceTable {
    /// Rebuilds a table from its names in id order. Returns the
    /// offending name if one repeats — a loader-side validation, since
    /// [`register`](Self::register) never creates a duplicate.
    pub(crate) fn from_names(names: Vec<String>) -> Result<Self, String> {
        let mut lookup = FxHashMap::with_capacity_and_hasher(names.len(), Default::default());
        for (i, name) in names.iter().enumerate() {
            if lookup.insert(name.clone(), SourceId(i as u32)).is_some() {
                return Err(name.clone());
            }
        }
        Ok(Self { names, lookup })
    }

    pub(crate) fn register(&mut self, name: &str) -> SourceId {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = SourceId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.lookup.insert(name.to_string(), id);
        id
    }

    pub(crate) fn get(&self, name: &str) -> Option<SourceId> {
        self.lookup.get(name).copied()
    }

    pub(crate) fn name(&self, id: SourceId) -> Option<&str> {
        self.names.get(id.0 as usize).map(|s| s.as_str())
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Names in id order.
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    /// `(id, name)` pairs in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SourceId, &str)> {
        self.names.iter().enumerate().map(|(i, s)| (SourceId(i as u32), s.as_str()))
    }
}

/// The mutable heart shared by every write-side type: term dictionary,
/// append-only fact table, triple→fact dedup map and provenance
/// sources. Holds *no* permutation indexes — those belong to the read
/// side ([`FrozenIndexes`]) and are built by freezing, which also drops
/// the dedup map ([`freeze`](Self::freeze)).
#[derive(Debug, Default, Clone)]
pub(crate) struct KbCore {
    pub(crate) dict: Dictionary,
    pub(crate) facts: Vec<Fact>,
    pub(crate) by_triple: FxHashMap<Triple, FactId>,
    pub(crate) sources: SourceTable,
    /// Number of live (non-retracted) facts, maintained incrementally
    /// so `len()` stays O(1) without any index.
    pub(crate) live: usize,
}

impl KbCore {
    /// An empty core with the default `"asserted"` source registered.
    pub(crate) fn new() -> Self {
        let mut core = Self::default();
        let id = core.sources.register("asserted");
        debug_assert_eq!(id, SourceId::DEFAULT);
        core
    }

    /// The read-side core: the same dictionary, sources and fact table
    /// with the dedup map dropped. Freed before the caller sorts the
    /// permutation indexes, so a freeze never holds both at once.
    pub(crate) fn freeze(self) -> FrozenCore {
        let KbCore { dict, facts, by_triple, sources, live } = self;
        drop(by_triple);
        FrozenCore { dict: Arc::new(dict), sources: Arc::new(sources), facts, live }
    }

    /// Adds or merges a fact; see [`KnowledgeBase::add_fact`] for the
    /// merge semantics (noisy-or confidence, first-known span, earliest
    /// source).
    ///
    /// [`KnowledgeBase::add_fact`]: crate::KnowledgeBase::add_fact
    pub(crate) fn add_fact(&mut self, fact: Fact) -> (FactId, AddOutcome) {
        debug_assert!((0.0..=1.0).contains(&fact.confidence));
        if let Some(&id) = self.by_triple.get(&fact.triple) {
            let existing = &mut self.facts[id.index()];
            let was_retracted = existing.is_retracted();
            existing.confidence = 1.0 - (1.0 - existing.confidence) * (1.0 - fact.confidence);
            if existing.span.is_none() {
                existing.span = fact.span;
            }
            let outcome = if was_retracted && !existing.is_retracted() {
                self.live += 1;
                AddOutcome::Resurrected
            } else {
                AddOutcome::Merged
            };
            return (id, outcome);
        }
        let id = FactId(self.facts.len() as u32);
        let t = fact.triple;
        self.facts.push(fact);
        self.by_triple.insert(t, id);
        self.live += 1;
        (id, AddOutcome::New)
    }

    /// Retracts a live triple (confidence forced to zero). Returns
    /// whether anything changed.
    pub(crate) fn retract(&mut self, t: Triple) -> bool {
        let Some(&id) = self.by_triple.get(&t) else {
            return false;
        };
        let fact = &mut self.facts[id.index()];
        if fact.is_retracted() {
            return false;
        }
        fact.confidence = 0.0;
        self.live -= 1;
        true
    }

    /// Retracts a triple even when it is not present locally: an absent
    /// triple gets a confidence-zero *tombstone* entry (never counted
    /// live). Delta builders use this to retract facts that live in an
    /// older segment — the tombstone shadows them at merge time.
    pub(crate) fn retract_or_tombstone(&mut self, t: Triple) -> bool {
        if self.by_triple.contains_key(&t) {
            return self.retract(t);
        }
        let id = FactId(self.facts.len() as u32);
        self.facts.push(Fact { triple: t, confidence: 0.0, source: SourceId::DEFAULT, span: None });
        self.by_triple.insert(t, id);
        true
    }

    /// Sets the temporal scope of an existing triple. Does not change
    /// the index key set, so callers need not invalidate caches.
    pub(crate) fn set_span(&mut self, t: Triple, span: TimeSpan) -> bool {
        match self.by_triple.get(&t) {
            Some(&id) => {
                self.facts[id.index()].span = Some(span);
                true
            }
            None => false,
        }
    }

    /// Looks up a live fact by triple (the write side's hash probe; a
    /// frozen snapshot probes its SPO index instead).
    pub(crate) fn fact_for(&self, t: &Triple) -> Option<&Fact> {
        self.by_triple.get(t).map(|id| &self.facts[id.index()]).filter(|f| !f.is_retracted())
    }

    /// Replays one shard into this core. Local term ids are remapped by
    /// re-interning the shard dictionary in local-id (= first-seen)
    /// order, which reproduces the global id assignment a serial ingest
    /// of the same facts would have produced.
    pub(crate) fn merge_shard(&mut self, shard: &KbShard) -> usize {
        let remap: Vec<TermId> =
            shard.dict.iter().map(|(_, term)| self.dict.intern(term)).collect();
        let mut new_facts = 0usize;
        for fact in &shard.facts {
            let t = fact.triple;
            let triple = Triple::new(remap[t.s.index()], remap[t.p.index()], remap[t.o.index()]);
            let (_, outcome) = self.add_fact(Fact { triple, ..fact.clone() });
            if outcome == AddOutcome::New {
                new_facts += 1;
            }
        }
        new_facts
    }
}

/// A per-worker ingest shard: facts over a *local* dictionary, built
/// without any shared lock. Workers fill shards independently; the
/// merge barrier ([`KbBuilder::merge_shards`] /
/// [`KnowledgeBase::merge_shards`]) replays them in shard order, so the
/// result is bit-identical to a serial ingest of the concatenated
/// shards.
///
/// Provenance [`SourceId`]s are *global*: register sources on the
/// target builder/store before forking shards and pass the returned
/// ids in.
///
/// [`KnowledgeBase::merge_shards`]: crate::KnowledgeBase::merge_shards
#[derive(Debug, Default, Clone)]
pub struct KbShard {
    dict: Dictionary,
    facts: Vec<Fact>,
}

impl KbShard {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term into the shard-local dictionary.
    pub fn intern(&mut self, term: &str) -> TermId {
        self.dict.intern(term)
    }

    /// Appends a fact whose triple uses shard-local term ids (from
    /// [`intern`](Self::intern)). Duplicates are *not* merged here —
    /// merge semantics are applied at the barrier, exactly as a serial
    /// ingest would.
    pub fn add_fact(&mut self, fact: Fact) {
        debug_assert!((0.0..=1.0).contains(&fact.confidence));
        self.facts.push(fact);
    }

    /// Convenience: interns three strings (subject first, then
    /// predicate, then object — the same order the serial ingest path
    /// uses, which keeps merged dictionaries identical) and appends the
    /// fact.
    pub fn add(
        &mut self,
        s: &str,
        p: &str,
        o: &str,
        confidence: f64,
        source: SourceId,
        span: Option<TimeSpan>,
    ) {
        let triple = Triple::new(self.intern(s), self.intern(p), self.intern(o));
        self.add_fact(Fact { triple, confidence, source, span });
    }

    /// Number of facts buffered in this shard.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the shard holds no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Distinct terms in the shard-local dictionary.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }
}

/// The batched write-side builder: accepts ingest (directly or via
/// [`KbShard`]s), then freezes into an immutable, `Arc`-shareable
/// [`KbSnapshot`] whose queries run on sorted-array indexes.
///
/// ```
/// use kb_store::{KbBuilder, KbRead, TriplePattern};
///
/// let mut b = KbBuilder::new();
/// b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
/// let snap = b.freeze();
/// assert_eq!(snap.count_matching(&TriplePattern::any()), 1);
/// ```
#[derive(Debug, Clone)]
pub struct KbBuilder {
    pub(crate) core: KbCore,
    /// Subclass-of DAG over class terms.
    pub taxonomy: Taxonomy,
    /// owl:sameAs equivalence classes over entity terms.
    pub sameas: SameAsStore,
    /// Multilingual labels and the reverse surface-form index.
    pub labels: LabelStore,
}

impl Default for KbBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl KbBuilder {
    /// Creates an empty builder with the default `"asserted"` source.
    pub fn new() -> Self {
        Self {
            core: KbCore::new(),
            taxonomy: Taxonomy::default(),
            sameas: SameAsStore::default(),
            labels: LabelStore::default(),
        }
    }

    /// Interns a term, returning its id.
    pub fn intern(&mut self, term: &str) -> TermId {
        self.core.dict.intern(term)
    }

    /// Looks up an already-interned term.
    pub fn term(&self, term: &str) -> Option<TermId> {
        self.core.dict.get(term)
    }

    /// Resolves a term id back to its string.
    pub fn resolve(&self, id: TermId) -> Option<&str> {
        self.core.dict.resolve(id)
    }

    /// Registers (or retrieves) a provenance source by name.
    pub fn register_source(&mut self, name: &str) -> SourceId {
        self.core.sources.register(name)
    }

    /// Adds a fully-confident fact with default provenance.
    pub fn add_triple(&mut self, s: TermId, p: TermId, o: TermId) -> FactId {
        self.add_fact(Fact::asserted(Triple::new(s, p, o)))
    }

    /// Convenience: interns three strings and asserts the triple.
    pub fn assert_str(&mut self, s: &str, p: &str, o: &str) -> FactId {
        let t = Triple::new(self.intern(s), self.intern(p), self.intern(o));
        self.add_fact(Fact::asserted(t))
    }

    /// Adds a fact with the same merge semantics as
    /// [`KnowledgeBase::add_fact`](crate::KnowledgeBase::add_fact).
    pub fn add_fact(&mut self, fact: Fact) -> FactId {
        self.core.add_fact(fact).0
    }

    /// Bulk ingest in iteration order.
    pub fn add_facts(&mut self, facts: impl IntoIterator<Item = Fact>) {
        for f in facts {
            self.core.add_fact(f);
        }
    }

    /// Retracts a triple. See
    /// [`KnowledgeBase::retract`](crate::KnowledgeBase::retract).
    pub fn retract(&mut self, t: Triple) -> bool {
        self.core.retract(t)
    }

    /// Retracts by strings, recording a tombstone even when the triple
    /// was never added to *this* builder. In a delta build
    /// ([`freeze_delta`](Self::freeze_delta)) the tombstone shadows the
    /// base segment's assertion; in a plain [`freeze`](Self::freeze) a
    /// tombstone for an absent triple is inert.
    pub fn retract_str(&mut self, s: &str, p: &str, o: &str) -> bool {
        let t = Triple::new(self.intern(s), self.intern(p), self.intern(o));
        self.core.retract_or_tombstone(t)
    }

    /// Sets the temporal scope of an existing triple.
    pub fn set_span(&mut self, t: Triple, span: TimeSpan) -> bool {
        self.core.set_span(t, span)
    }

    /// Number of live facts accumulated so far.
    pub fn len(&self) -> usize {
        self.core.live
    }

    /// Whether no live facts have been added.
    pub fn is_empty(&self) -> bool {
        self.core.live == 0
    }

    /// Merges one shard (replay in order; see [`KbShard`]). Returns the
    /// number of new facts.
    pub fn merge_shard(&mut self, shard: &KbShard) -> usize {
        self.core.merge_shard(shard)
    }

    /// The merge barrier: replays `shards` in iteration order, which
    /// must be the deterministic work-split order (chunk 0 first).
    /// Returns the number of new facts across all shards.
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
        added
    }

    /// Freezes the builder into an immutable snapshot: drops the
    /// triple dedup map, sorts the three permutation indexes once
    /// (`O(n log n)`) and hands everything over without copying the
    /// fact table.
    pub fn freeze(self) -> KbSnapshot {
        let core = self.core.freeze();
        let indexes = FrozenIndexes::build(&core.facts);
        KbSnapshot::from_parts(core, self.taxonomy, self.sameas, self.labels, indexes)
    }

    /// Freezes the builder into a [`DeltaSegment`](crate::DeltaSegment)
    /// layered on top of `view`: terms are re-interned against the
    /// view's dictionary (unknown terms get fresh ids continuing the
    /// view's id space), facts whose triple already exists in the view
    /// become *shadow* entries carrying the evidence-merged confidence,
    /// and retractions of view-visible triples become tombstones. The
    /// resulting segment is installed with
    /// [`SegmentedSnapshot::with_delta`](crate::SegmentedSnapshot::with_delta).
    ///
    /// The builder's taxonomy, sameAs and label stores are *not* carried
    /// into the delta — segmented views serve those from the base
    /// segment until the next compaction.
    pub fn freeze_delta(self, view: &crate::SegmentedSnapshot) -> crate::DeltaSegment {
        crate::DeltaSegment::from_builder(self, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::KbRead;
    use crate::TriplePattern;

    #[test]
    fn builder_freeze_answers_queries() {
        let mut b = KbBuilder::new();
        b.assert_str("a", "r", "b");
        b.assert_str("a", "r", "c");
        b.assert_str("b", "r", "c");
        let snap = b.freeze();
        let a = snap.term("a").unwrap();
        let r = snap.term("r").unwrap();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.count_matching(&TriplePattern::with_s(a)), 2);
        assert_eq!(snap.count_matching(&TriplePattern::with_p(r)), 3);
    }

    #[test]
    fn shard_merge_matches_serial_ingest_exactly() {
        // Serial reference.
        let mut serial = KbBuilder::new();
        let facts = [
            ("x", "p", "y", 0.5),
            ("y", "p", "z", 0.9),
            ("x", "p", "y", 0.5), // duplicate → noisy-or merge
            ("z", "q", "x", 0.7),
        ];
        for &(s, p, o, c) in &facts {
            let t = Triple::new(serial.intern(s), serial.intern(p), serial.intern(o));
            serial.add_fact(Fact {
                triple: t,
                confidence: c,
                source: SourceId::DEFAULT,
                span: None,
            });
        }
        // Sharded: same facts split 2/2, merged in order.
        let mut sharded = KbBuilder::new();
        let mut shards = vec![KbShard::new(), KbShard::new()];
        for (i, &(s, p, o, c)) in facts.iter().enumerate() {
            shards[i / 2].add(s, p, o, c, SourceId::DEFAULT, None);
        }
        let added = sharded.merge_shards(shards);
        assert_eq!(added, 3);
        // Identical dictionaries (same ids in same order) and fact tables.
        assert_eq!(serial.core.dict.len(), sharded.core.dict.len());
        for (id, term) in serial.core.dict.iter() {
            assert_eq!(sharded.core.dict.resolve(id), Some(term));
        }
        assert_eq!(serial.core.facts, sharded.core.facts);
    }

    #[test]
    fn retract_then_resurrect_keeps_live_count_right() {
        let mut b = KbBuilder::new();
        let id = b.assert_str("a", "r", "b");
        let t =
            crate::Triple::new(b.term("a").unwrap(), b.term("r").unwrap(), b.term("b").unwrap());
        assert_eq!(b.len(), 1);
        assert!(b.retract(t));
        assert_eq!(b.len(), 0);
        assert!(!b.retract(t));
        let id2 =
            b.add_fact(Fact { triple: t, confidence: 0.8, source: SourceId::DEFAULT, span: None });
        assert_eq!(id, id2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn empty_shard_is_a_no_op() {
        let mut b = KbBuilder::new();
        b.assert_str("a", "r", "b");
        assert_eq!(b.merge_shard(&KbShard::new()), 0);
        assert_eq!(b.len(), 1);
        assert!(KbShard::new().is_empty());
    }
}
