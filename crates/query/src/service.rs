//! Concurrent serving layer: a segmented-snapshot-backed service with a
//! bounded plan cache and a generation/epoch-invalidated result cache.
//!
//! ## Caching discipline
//!
//! Two cache levels sit in front of the parse → plan → execute
//! pipeline:
//!
//! 1. **Raw-text probe** — an exact match on the query string skips
//!    parsing entirely (the hot path for repeated identical queries).
//! 2. **Normalized probe** — on a raw miss the text is parsed and its
//!    canonical [`Display`](std::fmt::Display) form becomes the cache
//!    key, so formatting variants (case of keywords, whitespace,
//!    redundant dots) share one plan and one result entry. The raw
//!    text is then recorded as an alias for future level-1 hits.
//!
//! **Full-install invalidation:** every cached plan and result is
//! stamped with the snapshot *generation* it was computed against.
//! Installing a new base snapshot bumps the generation and raises each
//! cache's *generation floor*: stale entries are cleared eagerly,
//! entries probed with a mismatched stamp die lazily, and — crucially —
//! an in-flight query that captured the old generation can no longer
//! re-insert a dead generation's plan or result after the clear (the
//! floor rejects the `put`), so a dead snapshot's plans cannot be
//! pinned until LRU eviction. Plans are generation-scoped because
//! resolved [`TermId`]s are dictionary-specific, not just because facts
//! changed.
//!
//! **Partial (delta) invalidation:** [`apply_delta`] stacks a
//! [`DeltaSegment`] onto the current view *without* bumping the
//! generation. Instead it bumps an *epoch* counter and records, per
//! predicate the delta touches, the epoch at which that predicate last
//! changed. Every cached entry carries its plan's [`Footprint`] — the
//! set of predicate ids its answer can depend on — and is served only
//! while no footprint predicate has changed since the entry's epoch.
//! Entries whose predicates are untouched by a delta *survive the
//! install*; this is the cache-retention win the segmented store
//! exists for. Footprints that cannot be predicate-scoped (variable
//! predicates, or constants the view had never interned — a delta
//! could make them real) are *wildcard* and die on every delta.
//! The same epoch rule guards `put`: an execution that raced a delta
//! install is rejected exactly like a stale-generation put, so the
//! single-flight/floor machinery needs no special cases. Plans survive
//! deltas unless wildcard (TermIds are append-only across deltas; a
//! stale join order is a performance, not correctness, issue);
//! results are additionally swept by touched predicate.
//!
//! **Single flight:** concurrent identical queries that miss a cache do
//! the work once. Both plan compilation and execution are deduplicated
//! through an in-flight table keyed by `(generation, epoch, normalized
//! key)`: the first thread becomes the *leader* and computes; later
//! arrivals block until the leader publishes, and are counted in the
//! `*_dedup` counters instead of the miss counters. Keying on the epoch
//! too means a flight can never dedup across a delta install.
//!
//! ## Observability
//!
//! The service owns its counters and latency histograms (`kb-obs`
//! primitives) and publishes them in a [`Registry`] under
//! `query.cache.*` / `query.{parse,plan,exec}_us`; [`cache_stats`]
//! (CacheStats) reads the same counters. Span durations come from the
//! registry's injectable clock, so timing tests never touch the wall
//! clock. By default metrics land in [`kb_obs::global()`]; tests pass a
//! private registry via [`QueryService::with_instrumentation`].
//!
//! [`apply_delta`]: QueryService::apply_delta
//! [`cache_stats`]: QueryService::cache_stats
//! [`DeltaSegment`]: kb_store::DeltaSegment
//! [`Footprint`]: crate::plan::Footprint
//! [`Registry`]: kb_obs::Registry
//! [`TermId`]: kb_store::TermId
//!
//! Batches run on a crossbeam scoped worker pool (the same shape as
//! `kb-analytics`' `aggregate_parallel`): workers share the service and
//! the immutable view, so no locking happens on the read path beyond
//! brief cache probes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use kb_obs::{Clock, Counter, Histogram, Registry, SpanTimer};
use kb_store::{DeltaSegment, KbSnapshot, SegmentedSnapshot, TermId};

use crate::error::QueryError;
use crate::exec::{execute, QueryOutput};
use crate::parse::parse;
use crate::plan::{plan, Footprint, Plan};
use crate::stats::StatsCatalog;
use crate::view::{ViewId, ViewRegistry, ViewUpdate};

/// Default bound on each cache (plans and results separately).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Cache hit/miss/dedup counters, cheap to read at any time.
///
/// Conservation law: every [`query`](QueryService::query) call
/// increments exactly one of `result_hits` / `result_misses` /
/// `result_dedup`, so their sum equals the number of queries served —
/// exactly, even under concurrency (the stress tests pin this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered straight from the result cache.
    pub result_hits: u64,
    /// Queries that had to execute.
    pub result_misses: u64,
    /// Queries that joined another thread's in-flight execution instead
    /// of executing themselves (single-flight dedup).
    pub result_dedup: u64,
    /// Plan lookups that reused a cached plan (raw or normalized hit).
    pub plan_hits: u64,
    /// Plan lookups that parsed and planned from scratch.
    pub plan_misses: u64,
    /// Plan lookups that joined another thread's in-flight compilation.
    pub plan_dedup: u64,
    /// Entries evicted from the plan cache by capacity pressure.
    pub plan_evictions: u64,
    /// Entries evicted from the result cache by capacity pressure.
    pub result_evictions: u64,
    /// Inserts rejected because their generation stamp predated the
    /// cache's floor, or their epoch stamp predated a delta touching
    /// their footprint (an install raced the computation).
    pub stale_put_rejects: u64,
    /// Delta segments stacked onto the serving view by
    /// [`apply_delta`](QueryService::apply_delta).
    pub delta_installs: u64,
    /// Result-cache entries that *survived* a delta install because
    /// their footprint was disjoint from the delta's touched
    /// predicates — the partial-invalidation win.
    pub result_retained: u64,
    /// Result-cache entries swept by a delta install (wildcard
    /// footprint or touched predicate).
    pub result_invalidated: u64,
}

/// What [`LruCache::put`] did with the offered entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PutOutcome {
    /// Entry stored, nothing displaced.
    Inserted,
    /// Entry stored after evicting the least-recently-used one.
    Evicted,
    /// Entry rejected: its generation stamp predates the cache floor,
    /// or a delta touching its footprint landed after its epoch stamp.
    StaleRejected,
}

/// One cached value with its validity stamps.
struct Entry<V> {
    /// Base-snapshot generation the value was computed against.
    generation: u64,
    /// Delta epoch (within the generation) the value was computed
    /// against.
    epoch: u64,
    /// LRU recency tick.
    used: u64,
    /// Predicates the value can depend on; the unit of partial
    /// invalidation.
    footprint: Footprint,
    value: V,
}

/// A bounded LRU keyed by `String`, stamped with `(generation, epoch,
/// footprint)`. Recency is a monotone counter; eviction scans for the
/// minimum — `O(capacity)`, fine for the few hundred entries a plan
/// cache holds.
///
/// Invalidation has two teeth:
///
/// * The *generation floor* — [`set_floor`](LruCache::set_floor)
///   (called by `install`) clears the map and rejects any later `put`
///   stamped below the floor, closing the race where an in-flight
///   computation against a dead snapshot re-inserts after the clear.
/// * The *predicate epoch map* — [`apply_delta`](LruCache::apply_delta)
///   records the epoch at which each touched predicate last changed
///   and sweeps affected entries; `get` and `put` both re-check an
///   entry's footprint against the map, so a computation that raced a
///   delta install can neither be served nor re-inserted. This is the
///   same floor discipline, scoped per predicate.
struct LruCache<V> {
    capacity: usize,
    tick: u64,
    /// Minimum generation stamp accepted by `put`.
    floor: u64,
    /// Epoch at which each predicate last changed (missing = never,
    /// i.e. epoch 0 — the base snapshot).
    pred_epoch: HashMap<TermId, u64>,
    /// Epoch of the most recent delta install; the freshness bar for
    /// wildcard footprints.
    last_delta_epoch: u64,
    map: HashMap<String, Entry<V>>,
}

impl<V: Clone> LruCache<V> {
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            tick: 0,
            floor: 0,
            pred_epoch: HashMap::new(),
            last_delta_epoch: 0,
            map: HashMap::new(),
        }
    }

    /// Whether a value stamped `epoch` with this `footprint` is still
    /// current: no footprint predicate changed after the stamp, and a
    /// wildcard footprint has seen every delta.
    fn delta_fresh(&self, footprint: &Footprint, epoch: u64) -> bool {
        if footprint.is_wildcard() {
            return self.last_delta_epoch <= epoch;
        }
        footprint.preds.iter().all(|p| self.pred_epoch.get(p).copied().unwrap_or(0) <= epoch)
    }

    fn get(&mut self, key: &str, generation: u64, epoch: u64) -> Option<V> {
        let fresh = match self.map.get(key) {
            None => return None,
            Some(e) => {
                e.generation == generation
                    && e.epoch <= epoch
                    && self.delta_fresh(&e.footprint, e.epoch)
            }
        };
        if !fresh {
            // Stale generation or delta-outdated: drop eagerly.
            self.map.remove(key);
            return None;
        }
        self.tick += 1;
        let e = self.map.get_mut(key).expect("probed above");
        e.used = self.tick;
        Some(e.value.clone())
    }

    fn put(
        &mut self,
        key: String,
        generation: u64,
        epoch: u64,
        footprint: Footprint,
        value: V,
    ) -> PutOutcome {
        if generation < self.floor || !self.delta_fresh(&footprint, epoch) {
            return PutOutcome::StaleRejected;
        }
        self.tick += 1;
        let mut outcome = PutOutcome::Inserted;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(evict) = self.map.iter().min_by_key(|(_, e)| e.used).map(|(k, _)| k.clone())
            {
                self.map.remove(&evict);
                outcome = PutOutcome::Evicted;
            }
        }
        self.map.insert(key, Entry { generation, epoch, used: self.tick, footprint, value });
        outcome
    }

    /// Raises the floor to `generation` and drops everything cached:
    /// entries below the floor can neither be read (stamp mismatch) nor
    /// re-inserted (floor check) afterwards. A full install starts a
    /// fresh epoch timeline, so the predicate epochs reset too.
    fn set_floor(&mut self, generation: u64) {
        debug_assert!(generation >= self.floor, "generation floor must be monotone");
        self.floor = generation;
        self.pred_epoch.clear();
        self.last_delta_epoch = 0;
        self.map.clear();
    }

    /// Records a delta install at `epoch` touching `touched` and sweeps
    /// the entries it outdates: wildcard footprints always die; with
    /// `wildcard_only = false`, entries whose footprint intersects
    /// `touched` die too. Returns `(retained, invalidated)` counts.
    fn apply_delta(&mut self, epoch: u64, touched: &[TermId], wildcard_only: bool) -> (u64, u64) {
        for p in touched {
            self.pred_epoch.insert(*p, epoch);
        }
        self.last_delta_epoch = epoch;
        let before = self.map.len();
        self.map.retain(|_, e| {
            if e.footprint.is_wildcard() {
                return false;
            }
            wildcard_only || !e.footprint.is_touched_by(touched)
        });
        let after = self.map.len();
        (after as u64, (before - after) as u64)
    }

    /// Entries stamped with a generation older than `current`.
    fn stale_count(&self, current: u64) -> usize {
        self.map.values().filter(|e| e.generation < current).count()
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// State of one in-flight computation.
enum FlightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader published a value; followers clone it.
    Done(V),
    /// The leader died (panicked) without publishing; followers retry.
    Abandoned,
}

/// One in-flight computation slot: a state cell plus the condvar the
/// followers sleep on.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

/// Flight-table key: the snapshot generation, the delta epoch and the
/// normalized query key, so a flight can never dedup across an
/// `install` *or* an `apply_delta`.
type FlightKey = (u64, u64, String);

/// A single-flight table: at most one thread computes the value for a
/// given `(generation, epoch, key)` at a time; the rest wait for its
/// answer.
struct SingleFlight<V> {
    inflight: Mutex<HashMap<FlightKey, Arc<Flight<V>>>>,
}

/// The outcome of [`SingleFlight::enter`].
enum FlightEntry<'a, V> {
    /// This thread owns the computation; it must call
    /// [`FlightGuard::publish`] (dropping the guard un-published wakes
    /// the followers to retry).
    Leader(FlightGuard<'a, V>),
    /// Another thread computed the value; here is its clone.
    Joined(V),
}

/// Leadership token for one in-flight key. Publishing (or dropping)
/// wakes every follower and retires the flight.
struct FlightGuard<'a, V> {
    table: &'a SingleFlight<V>,
    key: FlightKey,
    flight: Arc<Flight<V>>,
    published: bool,
}

impl<V: Clone> SingleFlight<V> {
    fn new() -> Self {
        SingleFlight { inflight: Mutex::new(HashMap::new()) }
    }

    /// Joins (blocking) or leads the computation for `(generation,
    /// epoch, key)`.
    fn enter(&self, generation: u64, epoch: u64, key: &str) -> FlightEntry<'_, V> {
        loop {
            let flight = {
                let mut map = self.inflight.lock().expect("single-flight table poisoned");
                match map.get(&(generation, epoch, key.to_string())) {
                    Some(f) => Arc::clone(f),
                    None => {
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            cv: Condvar::new(),
                        });
                        map.insert((generation, epoch, key.to_string()), Arc::clone(&flight));
                        return FlightEntry::Leader(FlightGuard {
                            table: self,
                            key: (generation, epoch, key.to_string()),
                            flight,
                            published: false,
                        });
                    }
                }
            };
            let mut state = flight.state.lock().expect("flight poisoned");
            while matches!(*state, FlightState::Pending) {
                state = flight.cv.wait(state).expect("flight poisoned");
            }
            match &*state {
                FlightState::Done(v) => return FlightEntry::Joined(v.clone()),
                // Leader abandoned (panicked): take over on a fresh slot.
                FlightState::Abandoned => continue,
                FlightState::Pending => unreachable!("left the wait loop while pending"),
            }
        }
    }
}

impl<V> FlightGuard<'_, V> {
    /// Publishes `value` to every follower and retires the flight. The
    /// caller must make the value visible in the cache *before* this,
    /// so a thread arriving after retirement finds the cached entry.
    fn publish(mut self, value: V) {
        *self.flight.state.lock().expect("flight poisoned") = FlightState::Done(value);
        self.flight.cv.notify_all();
        self.published = true;
        self.table.inflight.lock().expect("single-flight table poisoned").remove(&self.key);
    }
}

impl<V> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        if !self.published {
            // Leader died without an answer: wake followers to retry.
            *self.flight.state.lock().expect("flight poisoned") = FlightState::Abandoned;
            self.flight.cv.notify_all();
            self.table.inflight.lock().expect("single-flight table poisoned").remove(&self.key);
        }
    }
}

/// The service's owned metric instances, published by name in a
/// [`Registry`]. Owning (rather than sharing get-or-create handles)
/// keeps per-service readouts exact even when several services coexist
/// in one process, as they do under `cargo test`.
struct ServiceMetrics {
    result_hits: Arc<Counter>,
    result_misses: Arc<Counter>,
    result_dedup: Arc<Counter>,
    plan_hits: Arc<Counter>,
    plan_misses: Arc<Counter>,
    plan_dedup: Arc<Counter>,
    plan_evictions: Arc<Counter>,
    result_evictions: Arc<Counter>,
    stale_put_rejects: Arc<Counter>,
    installs: Arc<Counter>,
    delta_installs: Arc<Counter>,
    result_retained: Arc<Counter>,
    result_invalidated: Arc<Counter>,
    parse_us: Arc<Histogram>,
    plan_us: Arc<Histogram>,
    exec_us: Arc<Histogram>,
    clock: Arc<dyn Clock>,
}

impl ServiceMetrics {
    /// Fresh instances, registered (replacing same-named predecessors)
    /// in `registry`.
    fn publish(registry: &Registry) -> Self {
        let counter = |name: &str| {
            let c = Arc::new(Counter::new());
            registry.register_counter(name, Arc::clone(&c));
            c
        };
        let histogram = |name: &str| {
            let h = Arc::new(Histogram::latency());
            registry.register_histogram(name, Arc::clone(&h));
            h
        };
        ServiceMetrics {
            result_hits: counter("query.cache.result_hits"),
            result_misses: counter("query.cache.result_misses"),
            result_dedup: counter("query.cache.result_dedup"),
            plan_hits: counter("query.cache.plan_hits"),
            plan_misses: counter("query.cache.plan_misses"),
            plan_dedup: counter("query.cache.plan_dedup"),
            plan_evictions: counter("query.cache.plan_evictions"),
            result_evictions: counter("query.cache.result_evictions"),
            stale_put_rejects: counter("query.cache.stale_put_rejects"),
            installs: counter("query.service.installs"),
            delta_installs: counter("query.service.delta_installs"),
            result_retained: counter("query.cache.result_retained"),
            result_invalidated: counter("query.cache.result_invalidated"),
            parse_us: histogram("query.parse_us"),
            plan_us: histogram("query.plan_us"),
            exec_us: histogram("query.exec_us"),
            clock: registry.clock(),
        }
    }

    fn span(&self, hist: &Arc<Histogram>) -> SpanTimer {
        SpanTimer::start(Arc::clone(&self.clock), Arc::clone(hist))
    }

    fn count_put(&self, which: &Arc<Counter>, outcome: PutOutcome) {
        match outcome {
            PutOutcome::Inserted => {}
            PutOutcome::Evicted => which.inc(),
            PutOutcome::StaleRejected => self.stale_put_rejects.inc(),
        }
    }
}

/// The current serving view (base + delta stack) and its planner
/// statistics, swapped atomically under one lock. `number` bumps on
/// full installs and scopes plan validity; `epoch` bumps on delta
/// installs (resetting on full installs) and scopes result freshness
/// per predicate.
struct Generation {
    view: Arc<SegmentedSnapshot>,
    stats: Arc<StatsCatalog>,
    number: u64,
    epoch: u64,
}

/// A concurrent query service over an immutable, segmentable KB view.
///
/// Shared by reference (or `Arc`) across client threads; all methods
/// take `&self`. See the module docs for the caching discipline, the
/// single-flight dedup and the metrics it publishes.
pub struct QueryService {
    current: Mutex<Generation>,
    plans: Mutex<LruCache<Arc<Plan>>>,
    results: Mutex<LruCache<Arc<QueryOutput>>>,
    /// raw query text → normalized cache key.
    aliases: Mutex<LruCache<String>>,
    plan_flight: SingleFlight<Result<Arc<Plan>, QueryError>>,
    result_flight: SingleFlight<Arc<QueryOutput>>,
    single_flight: AtomicBool,
    /// Standing views maintained across delta installs. Lock order is
    /// always `current` → `views`, never the reverse.
    views: Mutex<ViewRegistry>,
    metrics: ServiceMetrics,
}

impl QueryService {
    /// Creates a service over `snapshot` with
    /// [`DEFAULT_CACHE_CAPACITY`] for both caches. Builds the
    /// statistics catalog once, up front. Metrics are published in the
    /// process-global [`kb_obs::global()`] registry.
    pub fn new(snapshot: Arc<KbSnapshot>) -> Self {
        Self::with_capacity(snapshot, DEFAULT_CACHE_CAPACITY)
    }

    /// Like [`new`](Self::new) with an explicit per-cache bound.
    pub fn with_capacity(snapshot: Arc<KbSnapshot>, capacity: usize) -> Self {
        Self::with_instrumentation(snapshot, capacity, kb_obs::global())
    }

    /// Like [`with_capacity`](Self::with_capacity), publishing metrics
    /// in `registry` and timing spans with its clock. Tests pass a
    /// private registry (usually on a
    /// [`ManualClock`](kb_obs::ManualClock)) for exact, isolated
    /// readouts.
    pub fn with_instrumentation(
        snapshot: Arc<KbSnapshot>,
        capacity: usize,
        registry: &Registry,
    ) -> Self {
        let view = Arc::new(SegmentedSnapshot::from_base(snapshot));
        let stats = Arc::new(StatsCatalog::build(view.as_ref()));
        Self::over(view, stats, capacity, registry)
    }

    /// Like [`with_instrumentation`](Self::with_instrumentation), but
    /// planning with a caller-provided statistics catalog instead of
    /// one built from `snapshot` (no catalog is built here).
    ///
    /// This is the partitioned-replica constructor: a router slicing
    /// one KB into N partition services hands every replica the
    /// *global* catalog, so each partition makes exactly the join-order
    /// decisions a monolithic service over the whole KB would — the
    /// key to byte-identical routed-single answers.
    pub fn with_shared_stats(
        snapshot: Arc<KbSnapshot>,
        stats: Arc<StatsCatalog>,
        capacity: usize,
        registry: &Registry,
    ) -> Self {
        Self::over(Arc::new(SegmentedSnapshot::from_base(snapshot)), stats, capacity, registry)
    }

    fn over(
        view: Arc<SegmentedSnapshot>,
        stats: Arc<StatsCatalog>,
        capacity: usize,
        registry: &Registry,
    ) -> Self {
        QueryService {
            current: Mutex::new(Generation { view, stats, number: 0, epoch: 0 }),
            plans: Mutex::new(LruCache::new(capacity)),
            results: Mutex::new(LruCache::new(capacity)),
            aliases: Mutex::new(LruCache::new(capacity * 4)),
            plan_flight: SingleFlight::new(),
            result_flight: SingleFlight::new(),
            single_flight: AtomicBool::new(true),
            views: Mutex::new(ViewRegistry::new(registry)),
            metrics: ServiceMetrics::publish(registry),
        }
    }

    /// Builds a service that serves an already-layered view — the
    /// cold-start path for a durable
    /// [`SegmentStore`](kb_store::SegmentStore): the recovered base
    /// installs first, then each delta stacks in order, leaving caches
    /// and planner statistics exactly as if the deltas had been applied
    /// live.
    pub fn from_view(view: &SegmentedSnapshot) -> Self {
        let service = Self::new(Arc::clone(view.base()));
        for delta in view.deltas() {
            service.apply_delta(Arc::clone(delta));
        }
        service
    }

    /// [`from_view`](Self::from_view) for lazily opened stores: faults
    /// every region of the view first (see
    /// [`KbRead::prefault`](kb_store::KbRead::prefault)) so that a
    /// cold-region corruption surfaces here as a typed
    /// [`QueryError::Store`] instead of panicking mid-query later.
    pub fn try_from_view(view: &SegmentedSnapshot) -> Result<Self, QueryError> {
        use kb_store::KbRead as _;
        view.prefault()?;
        Ok(Self::from_view(view))
    }

    /// Enables or disables single-flight dedup (on by default). Only
    /// meant for benchmarking the thundering-herd effect the dedup
    /// exists to prevent — see EXPERIMENTS.md T14.
    pub fn set_single_flight(&self, enabled: bool) {
        self.single_flight.store(enabled, Ordering::Relaxed);
    }

    fn single_flight_enabled(&self) -> bool {
        self.single_flight.load(Ordering::Relaxed)
    }

    /// Installs a new base snapshot, bumping the generation and
    /// starting a fresh (empty) delta stack. The caches are cleared and
    /// their generation floor raised, so entries computed against older
    /// generations can neither be probed nor re-inserted afterwards
    /// (see the module docs); the alias map is generation-independent
    /// and survives.
    ///
    /// The cache sweeps happen while the generation lock is held, so an
    /// `apply_delta` racing this install cannot interleave between the
    /// swap and the floor raise. (Lock order is always `current` →
    /// cache, never the reverse, so this cannot deadlock.)
    pub fn install(&self, snapshot: Arc<KbSnapshot>) {
        let view = Arc::new(SegmentedSnapshot::from_base(snapshot));
        let stats = Arc::new(StatsCatalog::build(view.as_ref()));
        let mut cur = self.current.lock().expect("service lock poisoned");
        cur.number += 1;
        cur.epoch = 0;
        let generation = cur.number;
        cur.view = view;
        cur.stats = stats;
        self.plans.lock().expect("plan cache poisoned").set_floor(generation);
        self.results.lock().expect("result cache poisoned").set_floor(generation);
        drop(cur);
        self.metrics.installs.inc();
    }

    /// Stacks `delta` onto the current view *without* a full
    /// invalidation: the epoch bumps, the delta's statistics fold into
    /// the planner catalog incrementally, and only cached results whose
    /// footprint intersects the delta's
    /// [`touched_predicates`](DeltaSegment::touched_predicates) (plus
    /// all wildcard entries) are swept — everything else keeps serving.
    /// Plans survive unless wildcard: term ids are append-only across
    /// deltas, so a cached plan stays *correct*, merely possibly
    /// mis-costed until the next full install.
    ///
    /// The delta must have been frozen (via
    /// [`KbBuilder::freeze_delta`](kb_store::KbBuilder::freeze_delta))
    /// against the currently-served view — the sequential-stacking
    /// contract; a mismatch panics. The sweep runs while the generation
    /// lock is held so no query can observe the new view with the old
    /// cache epoch.
    pub fn apply_delta(&self, delta: Arc<DeltaSegment>) {
        self.apply_delta_inner(delta, None);
    }

    /// Like [`apply_delta`](Self::apply_delta), additionally returning
    /// one consistent [`ViewUpdate`] per registered standing view the
    /// delta touches — the subscription feed. Views are maintained
    /// under the same generation lock as the install itself, so every
    /// update batch corresponds to exactly one epoch.
    pub fn apply_delta_publishing(&self, delta: Arc<DeltaSegment>) -> Vec<ViewUpdate> {
        self.apply_delta_inner(delta, None)
    }

    /// Like [`apply_delta`](Self::apply_delta), but installing a
    /// caller-provided statistics catalog instead of folding the
    /// delta's statistics into the current one.
    ///
    /// Partitioned deployments use this: the router merges the *full*
    /// delta into the global catalog once and hands the result to every
    /// partition replica, so all replicas keep planning against
    /// identical whole-KB statistics no matter which slice of the delta
    /// they received.
    pub fn apply_delta_with_stats(&self, delta: Arc<DeltaSegment>, stats: Arc<StatsCatalog>) {
        self.apply_delta_inner(delta, Some(stats));
    }

    fn apply_delta_inner(
        &self,
        delta: Arc<DeltaSegment>,
        shared: Option<Arc<StatsCatalog>>,
    ) -> Vec<ViewUpdate> {
        let mut cur = self.current.lock().expect("service lock poisoned");
        let old_view = Arc::clone(&cur.view);
        let view = Arc::new(cur.view.with_delta(Arc::clone(&delta)));
        let stats = shared.unwrap_or_else(|| Arc::new(cur.stats.merged_with_delta(&delta)));
        cur.epoch += 1;
        let epoch = cur.epoch;
        cur.view = view;
        cur.stats = stats;
        let touched = delta.touched_predicates();
        self.plans.lock().expect("plan cache poisoned").apply_delta(epoch, touched, true);
        let (retained, invalidated) =
            self.results.lock().expect("result cache poisoned").apply_delta(epoch, touched, false);
        let updates = self.views.lock().expect("view registry poisoned").apply_delta(
            delta.as_ref(),
            old_view.as_ref(),
            cur.view.as_ref(),
            &cur.stats,
        );
        drop(cur);
        self.metrics.delta_installs.inc();
        self.metrics.result_retained.add(retained);
        self.metrics.result_invalidated.add(invalidated);
        updates
    }

    /// Registers `text` as a materialized standing view over the
    /// currently-served view; later [`apply_delta`](Self::apply_delta)
    /// calls patch its answer incrementally (see [`crate::view`]).
    /// Registration holds the generation lock so the initial answer is
    /// consistent with one epoch.
    pub fn register_view(&self, text: &str) -> Result<ViewId, QueryError> {
        let cur = self.current.lock().expect("service lock poisoned");
        self.views.lock().expect("view registry poisoned").register(
            text,
            cur.view.as_ref(),
            &cur.stats,
        )
    }

    /// Removes a standing view; returns whether it existed.
    pub fn unregister_view(&self, id: ViewId) -> bool {
        self.views.lock().expect("view registry poisoned").unregister(id)
    }

    /// The standing view's current materialized answer (canonical row
    /// order).
    pub fn view_result(&self, id: ViewId) -> Option<Arc<QueryOutput>> {
        self.views.lock().expect("view registry poisoned").result(id)
    }

    /// Number of registered standing views.
    pub fn view_count(&self) -> usize {
        self.views.lock().expect("view registry poisoned").len()
    }

    /// The current snapshot generation (starts at 0, bumps on
    /// [`install`](Self::install)).
    pub fn generation(&self) -> u64 {
        self.current.lock().expect("service lock poisoned").number
    }

    /// The delta epoch within the current generation (starts at 0,
    /// bumps on [`apply_delta`](Self::apply_delta), resets on
    /// [`install`](Self::install)).
    pub fn epoch(&self) -> u64 {
        self.current.lock().expect("service lock poisoned").epoch
    }

    /// The currently served view: the base snapshot plus any stacked
    /// deltas. Freeze incremental batches against this.
    pub fn snapshot(&self) -> Arc<SegmentedSnapshot> {
        self.current.lock().expect("service lock poisoned").view.clone()
    }

    /// Cache counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            result_hits: self.metrics.result_hits.get(),
            result_misses: self.metrics.result_misses.get(),
            result_dedup: self.metrics.result_dedup.get(),
            plan_hits: self.metrics.plan_hits.get(),
            plan_misses: self.metrics.plan_misses.get(),
            plan_dedup: self.metrics.plan_dedup.get(),
            plan_evictions: self.metrics.plan_evictions.get(),
            result_evictions: self.metrics.result_evictions.get(),
            stale_put_rejects: self.metrics.stale_put_rejects.get(),
            delta_installs: self.metrics.delta_installs.get(),
            result_retained: self.metrics.result_retained.get(),
            result_invalidated: self.metrics.result_invalidated.get(),
        }
    }

    /// Number of live entries in (plan cache, result cache).
    pub fn cache_sizes(&self) -> (usize, usize) {
        (
            self.plans.lock().expect("plan cache poisoned").len(),
            self.results.lock().expect("result cache poisoned").len(),
        )
    }

    /// Diagnostic: cached plan/result entries stamped with a generation
    /// older than the current one. The generation-floor invariant keeps
    /// this at zero from the moment [`install`](Self::install) returns —
    /// a dead snapshot's entries can never reappear (regression guard
    /// for the dead-snapshot pinning bug).
    pub fn stale_entries(&self) -> usize {
        let current = self.generation();
        self.plans.lock().expect("plan cache poisoned").stale_count(current)
            + self.results.lock().expect("result cache poisoned").stale_count(current)
    }

    fn generation_handles(&self) -> (Arc<SegmentedSnapshot>, Arc<StatsCatalog>, u64, u64) {
        let cur = self.current.lock().expect("service lock poisoned");
        (cur.view.clone(), cur.stats.clone(), cur.number, cur.epoch)
    }

    /// Looks up or compiles the plan for `text`. Public so callers can
    /// inspect [`Plan::explain`] (the CLI's `--explain` does).
    pub fn plan_for(&self, text: &str) -> Result<Arc<Plan>, QueryError> {
        let (view, stats, generation, epoch) = self.generation_handles();
        self.plan_for_generation(text, &view, &stats, generation, epoch).map(|(p, _)| p)
    }

    /// Returns the plan plus the normalized cache key.
    fn plan_for_generation(
        &self,
        text: &str,
        view: &SegmentedSnapshot,
        stats: &StatsCatalog,
        generation: u64,
        epoch: u64,
    ) -> Result<(Arc<Plan>, String), QueryError> {
        // Level 1: exact raw text (skips parsing).
        let alias = self.aliases.lock().expect("alias cache poisoned").get(text, 0, 0);
        if let Some(key) = &alias {
            if let Some(p) =
                self.plans.lock().expect("plan cache poisoned").get(key, generation, epoch)
            {
                self.metrics.plan_hits.inc();
                return Ok((p, key.clone()));
            }
        }
        // Level 2: parse, normalize, probe under the canonical key.
        let parse_span = self.metrics.span(&self.metrics.parse_us);
        let parsed = parse(text);
        parse_span.stop();
        let parsed = parsed?;
        let key = parsed.to_string();
        if let Some(p) =
            self.plans.lock().expect("plan cache poisoned").get(&key, generation, epoch)
        {
            self.metrics.plan_hits.inc();
            self.remember_alias(text, &key);
            return Ok((p, key));
        }
        if !self.single_flight_enabled() {
            let compiled = self.compile_and_cache(&parsed, &key, view, stats, generation, epoch)?;
            self.remember_alias(text, &key);
            return Ok((compiled, key));
        }
        match self.plan_flight.enter(generation, epoch, &key) {
            FlightEntry::Joined(result) => {
                self.metrics.plan_dedup.inc();
                self.remember_alias(text, &key);
                result.map(|p| (p, key))
            }
            FlightEntry::Leader(guard) => {
                // Double check: the previous leader may have cached the
                // plan after our probe but before our leadership.
                if let Some(p) =
                    self.plans.lock().expect("plan cache poisoned").get(&key, generation, epoch)
                {
                    self.metrics.plan_hits.inc();
                    guard.publish(Ok(Arc::clone(&p)));
                    self.remember_alias(text, &key);
                    return Ok((p, key));
                }
                let compiled =
                    self.compile_and_cache(&parsed, &key, view, stats, generation, epoch);
                guard.publish(compiled.clone());
                self.remember_alias(text, &key);
                compiled.map(|p| (p, key))
            }
        }
    }

    /// The plan-miss path: compiles `parsed` (timed) and stores the
    /// plan under `key`, subject to the generation floor and the delta
    /// epoch freshness rule.
    fn compile_and_cache(
        &self,
        parsed: &crate::ast::SelectQuery,
        key: &str,
        view: &SegmentedSnapshot,
        stats: &StatsCatalog,
        generation: u64,
        epoch: u64,
    ) -> Result<Arc<Plan>, QueryError> {
        self.metrics.plan_misses.inc();
        let plan_span = self.metrics.span(&self.metrics.plan_us);
        let compiled = plan(parsed, view, stats);
        plan_span.stop();
        let compiled = Arc::new(compiled?);
        let outcome = self.plans.lock().expect("plan cache poisoned").put(
            key.to_string(),
            generation,
            epoch,
            compiled.footprint().clone(),
            Arc::clone(&compiled),
        );
        self.metrics.count_put(&self.metrics.plan_evictions, outcome);
        Ok(compiled)
    }

    fn remember_alias(&self, raw: &str, key: &str) {
        // Aliases map text to text — generation- and delta-independent,
        // so they carry the empty footprint and never go stale.
        self.aliases.lock().expect("alias cache poisoned").put(
            raw.to_string(),
            0,
            0,
            Footprint::default(),
            key.to_string(),
        );
    }

    /// Probes the result cache; on a hit, counts it and returns it.
    fn result_probe(&self, key: &str, generation: u64, epoch: u64) -> Option<Arc<QueryOutput>> {
        let hit = self.results.lock().expect("result cache poisoned").get(key, generation, epoch);
        if hit.is_some() {
            self.metrics.result_hits.inc();
        }
        hit
    }

    /// The result-miss path: executes (timed) and stores the output
    /// under `key`, subject to the generation floor and the delta epoch
    /// freshness rule.
    fn execute_and_cache(
        &self,
        compiled: &Plan,
        key: &str,
        view: &SegmentedSnapshot,
        generation: u64,
        epoch: u64,
    ) -> Arc<QueryOutput> {
        self.metrics.result_misses.inc();
        let exec_span = self.metrics.span(&self.metrics.exec_us);
        let out = Arc::new(execute(compiled, view));
        exec_span.stop();
        let outcome = self.results.lock().expect("result cache poisoned").put(
            key.to_string(),
            generation,
            epoch,
            compiled.footprint().clone(),
            Arc::clone(&out),
        );
        self.metrics.count_put(&self.metrics.result_evictions, outcome);
        out
    }

    /// Parses (or reuses), plans (or reuses) and executes `text`
    /// against the current view, consulting the result cache first
    /// and deduplicating concurrent identical executions (single
    /// flight).
    pub fn query(&self, text: &str) -> Result<Arc<QueryOutput>, QueryError> {
        let (view, stats, generation, epoch) = self.generation_handles();
        // Result probe under the raw text first, then normalized.
        if let Some(key) = self.aliases.lock().expect("alias cache poisoned").get(text, 0, 0) {
            if let Some(r) = self.result_probe(&key, generation, epoch) {
                return Ok(r);
            }
        }
        let (compiled, key) = self.plan_for_generation(text, &view, &stats, generation, epoch)?;
        if let Some(r) = self.result_probe(&key, generation, epoch) {
            return Ok(r);
        }
        if !self.single_flight_enabled() {
            return Ok(self.execute_and_cache(compiled.as_ref(), &key, &view, generation, epoch));
        }
        match self.result_flight.enter(generation, epoch, &key) {
            FlightEntry::Joined(out) => {
                self.metrics.result_dedup.inc();
                Ok(out)
            }
            FlightEntry::Leader(guard) => {
                // Double check: the previous leader may have cached the
                // result between our probe and our leadership; without
                // this, a second burst thread could re-execute.
                if let Some(r) = self.result_probe(&key, generation, epoch) {
                    guard.publish(Arc::clone(&r));
                    return Ok(r);
                }
                let out = self.execute_and_cache(compiled.as_ref(), &key, &view, generation, epoch);
                guard.publish(Arc::clone(&out));
                Ok(out)
            }
        }
    }

    /// Serves a batch of queries on `workers` threads, returning results
    /// in input order. With one worker (or a single query) the batch
    /// runs inline. Worker chunking mirrors `kb-analytics`'
    /// `aggregate_parallel`.
    pub fn serve_batch(
        &self,
        queries: &[&str],
        workers: usize,
    ) -> Vec<Result<Arc<QueryOutput>, QueryError>> {
        let workers = workers.max(1);
        if workers == 1 || queries.len() < 2 {
            return queries.iter().map(|q| self.query(q)).collect();
        }
        let chunk_size = queries.len().div_ceil(workers);
        let chunks: Vec<Vec<Result<Arc<QueryOutput>, QueryError>>> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = queries
                    .chunks(chunk_size)
                    .map(|chunk| {
                        scope
                            .spawn(move |_| chunk.iter().map(|q| self.query(q)).collect::<Vec<_>>())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("query worker panicked")).collect()
            })
            .expect("scope failed");
        chunks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;
    use std::sync::Barrier;
    use std::thread;

    fn snapshot() -> Arc<KbSnapshot> {
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        b.assert_str("Steve_Wozniak", "bornIn", "San_Jose");
        b.assert_str("San_Francisco", "locatedIn", "California");
        b.assert_str("San_Jose", "locatedIn", "California");
        b.freeze().into_shared()
    }

    fn service() -> QueryService {
        // A private registry keeps counter readouts isolated from any
        // other service living in this (parallel) test process.
        QueryService::with_instrumentation(snapshot(), DEFAULT_CACHE_CAPACITY, &Registry::new())
    }

    #[test]
    fn repeated_query_hits_both_caches() {
        let svc = service();
        let q = "?p bornIn ?c . ?c locatedIn California";
        let a = svc.query(q).unwrap();
        let b = svc.query(q).unwrap();
        assert_eq!(a, b);
        let stats = svc.cache_stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.result_misses, 1);
        assert_eq!(stats.result_hits, 1);
    }

    #[test]
    fn formatting_variants_share_a_plan() {
        let svc = service();
        svc.query("SELECT ?p WHERE { ?p bornIn San_Jose }").unwrap();
        svc.query("select  ?p  where { ?p bornIn San_Jose . }").unwrap();
        let stats = svc.cache_stats();
        assert_eq!(stats.plan_misses, 1, "normalization should merge the variants");
        assert_eq!(stats.result_hits, 1);
    }

    /// Pins every counter transition on the two probe paths: the
    /// raw-alias fast path (no parse) vs the normalized path (parse,
    /// then canonical-key probes).
    #[test]
    fn counter_transitions_raw_alias_vs_normalized_path() {
        let svc = service();
        let raw = "select ?p where { ?p bornIn San_Jose }"; // non-canonical spelling

        // 1. Cold: alias miss → parse → plan miss → result miss.
        svc.query(raw).unwrap();
        assert_eq!(
            svc.cache_stats(),
            CacheStats { plan_misses: 1, result_misses: 1, ..Default::default() }
        );

        // 2. Same raw text: alias hit → result hit. No parse, no plan
        //    counter moves.
        svc.query(raw).unwrap();
        assert_eq!(
            svc.cache_stats(),
            CacheStats { plan_misses: 1, result_misses: 1, result_hits: 1, ..Default::default() }
        );

        // 3. A formatting variant (alias miss, same canonical form):
        //    parse → plan HIT under the canonical key → result hit.
        svc.query("SELECT ?p WHERE { ?p bornIn San_Jose . }").unwrap();
        assert_eq!(
            svc.cache_stats(),
            CacheStats {
                plan_misses: 1,
                plan_hits: 1,
                result_misses: 1,
                result_hits: 2,
                ..Default::default()
            }
        );

        // 4. The variant again: its alias is now remembered → pure
        //    result hit on the fast path.
        svc.query("SELECT ?p WHERE { ?p bornIn San_Jose . }").unwrap();
        assert_eq!(
            svc.cache_stats(),
            CacheStats {
                plan_misses: 1,
                plan_hits: 1,
                result_misses: 1,
                result_hits: 3,
                ..Default::default()
            }
        );

        // 5. plan_for alone on a fresh text: plan miss, result counters
        //    untouched.
        svc.plan_for("?c locatedIn California").unwrap();
        let s = svc.cache_stats();
        assert_eq!((s.plan_misses, s.result_misses, s.result_hits), (2, 1, 3));

        // Conservation: one result counter per query() call.
        assert_eq!(s.result_hits + s.result_misses + s.result_dedup, 4);
    }

    #[test]
    fn install_invalidates_results() {
        let svc = service();
        let q = "SELECT ?p WHERE { ?p bornIn San_Jose }";
        let before = svc.query(q).unwrap();
        assert_eq!(before.rows.len(), 1);

        let mut b = KbBuilder::new();
        b.assert_str("Steve_Wozniak", "bornIn", "San_Jose");
        b.assert_str("Another_Person", "bornIn", "San_Jose");
        svc.install(b.freeze().into_shared());
        assert_eq!(svc.generation(), 1);

        let after = svc.query(q).unwrap();
        assert_eq!(after.rows.len(), 2, "stale cached result must not survive install");
    }

    /// The partial-invalidation win: a delta that touches only a
    /// disjoint predicate leaves warm results serving, bumps the
    /// retention counter and never re-executes.
    #[test]
    fn delta_install_retains_untouched_results() {
        let svc = service();
        let qa = "SELECT ?p WHERE { ?p bornIn San_Jose }";
        let qb = "SELECT ?c WHERE { ?c locatedIn California }";
        svc.query(qa).unwrap();
        svc.query(qb).unwrap();

        // A delta touching only a brand-new predicate.
        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "worksAt", "Apple_Inc");
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        assert_eq!(svc.epoch(), 1);
        assert_eq!(svc.generation(), 0, "a delta install is not a generation bump");

        // Both warm results survive: pure cache hits, no re-execution.
        svc.query(qa).unwrap();
        svc.query(qb).unwrap();
        let stats = svc.cache_stats();
        assert_eq!(stats.delta_installs, 1);
        assert_eq!(stats.result_retained, 2, "disjoint-footprint entries must survive");
        assert_eq!(stats.result_invalidated, 0);
        assert_eq!(stats.result_misses, 2, "no re-execution after the delta");
        assert_eq!(stats.result_hits, 2);

        // The new fact is still queryable (fresh execution).
        let out = svc.query("SELECT ?x WHERE { Steve_Jobs worksAt ?x }").unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    /// The flip side: a delta touching a cached query's predicate
    /// sweeps exactly that entry, and the re-execution sees the delta.
    #[test]
    fn delta_install_invalidates_touched_predicates_only() {
        let svc = service();
        let qa = "SELECT ?p WHERE { ?p bornIn San_Jose }";
        let qb = "SELECT ?c WHERE { ?c locatedIn California }";
        assert_eq!(svc.query(qa).unwrap().rows.len(), 1);
        svc.query(qb).unwrap();

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Another_Person", "bornIn", "San_Jose");
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));

        let after = svc.query(qa).unwrap();
        assert_eq!(after.rows.len(), 2, "swept entry must re-execute over the delta");
        let stats = svc.cache_stats();
        assert_eq!(stats.result_invalidated, 1, "only the bornIn entry dies");
        assert_eq!(stats.result_retained, 1, "the locatedIn entry survives");
        assert_eq!(stats.result_misses, 3, "qa cold, qb cold, qa after the delta");
    }

    /// Standing views ride the install path: a registered view is
    /// patched by `apply_delta_publishing` and the update batch carries
    /// exactly the changed rows.
    #[test]
    fn standing_view_patches_through_the_install_path() {
        let svc = service();
        let id = svc
            .register_view("SELECT ?p ?c WHERE { ?p bornIn ?c . ?c locatedIn California }")
            .unwrap();
        assert_eq!(svc.view_count(), 1);
        assert_eq!(svc.view_result(id).unwrap().rows.len(), 2);

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Jerry_Brown", "bornIn", "San_Francisco");
        b.retract_str("Steve_Wozniak", "bornIn", "San_Jose");
        let updates = svc.apply_delta_publishing(Arc::new(b.freeze_delta(&view)));
        assert_eq!(updates.len(), 1);
        assert!(updates[0].patched, "conjunctive SELECT must be delta-patched");
        assert_eq!(updates[0].added.len(), 1);
        assert_eq!(updates[0].removed.len(), 1);

        // The patched answer matches a fresh service-level execution.
        let direct = svc.query("SELECT ?p ?c WHERE { ?p bornIn ?c . ?c locatedIn California }");
        assert_eq!(svc.view_result(id).unwrap().rows.len(), direct.unwrap().rows.len());

        assert!(svc.unregister_view(id));
        assert_eq!(svc.view_count(), 0);
    }

    /// A delta disjoint from every view footprint produces no updates,
    /// and plain `apply_delta` (no publishing) still maintains state.
    #[test]
    fn standing_view_survives_silent_installs() {
        let svc = service();
        let id = svc.register_view("SELECT ?p WHERE { ?p bornIn San_Jose }").unwrap();

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "worksAt", "Apple_Inc");
        let updates = svc.apply_delta_publishing(Arc::new(b.freeze_delta(&view)));
        assert!(updates.is_empty(), "disjoint delta must not touch the view");

        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("Another_Person", "bornIn", "San_Jose");
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        assert_eq!(
            svc.view_result(id).unwrap().rows.len(),
            2,
            "non-publishing installs still patch the materialized answer"
        );
    }

    /// Epoch scoping at the cache level: entries probed or re-inserted
    /// after a delta touching their footprint bounce exactly like
    /// stale-generation entries.
    #[test]
    fn delta_epoch_rejects_raced_puts_and_probes() {
        let mut lru: LruCache<u32> = LruCache::new(8);
        let p = TermId(7);
        let fp = Footprint { preds: vec![p], wildcard: false };
        assert_eq!(lru.put("q".into(), 0, 0, fp.clone(), 1), PutOutcome::Inserted);

        // A delta touching p at epoch 1 sweeps and raises the bar.
        let (retained, invalidated) = lru.apply_delta(1, &[p], false);
        assert_eq!((retained, invalidated), (0, 1));

        // A straggler stamped with the pre-delta epoch bounces.
        assert_eq!(lru.put("q".into(), 0, 0, fp.clone(), 1), PutOutcome::StaleRejected);
        // Stamped at the new epoch it lands and serves.
        assert_eq!(lru.put("q".into(), 0, 1, fp.clone(), 2), PutOutcome::Inserted);
        assert_eq!(lru.get("q", 0, 1), Some(2));

        // An untouched-predicate entry sails through regardless.
        let other = Footprint { preds: vec![TermId(9)], wildcard: false };
        assert_eq!(lru.put("r".into(), 0, 0, other, 3), PutOutcome::Inserted);
        let (retained, invalidated) = lru.apply_delta(2, &[p], false);
        assert_eq!((retained, invalidated), (1, 1), "only the p-footprint entry dies");
        assert_eq!(lru.get("r", 0, 0), Some(3));

        // Wildcard footprints die on every delta, even a disjoint one.
        let wild = Footprint { preds: vec![], wildcard: true };
        assert_eq!(lru.put("w".into(), 0, 2, wild.clone(), 4), PutOutcome::Inserted);
        lru.apply_delta(3, &[TermId(1000)], false);
        assert_eq!(lru.get("w", 0, 3), None);
        assert_eq!(lru.put("w".into(), 0, 2, wild, 4), PutOutcome::StaleRejected);
    }

    /// The thundering-herd fix: N threads issuing the same cold query
    /// must produce exactly one execution (one `result_miss`); everyone
    /// else is a cache hit or a single-flight join.
    #[test]
    fn single_flight_dedups_concurrent_cold_queries() {
        const THREADS: usize = 8;
        let svc = Arc::new(service());
        let barrier = Arc::new(Barrier::new(THREADS));
        let q = "?p bornIn ?c . ?c locatedIn California";
        let outputs: Vec<Arc<QueryOutput>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        svc.query(q).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for out in &outputs[1..] {
            assert_eq!(out, &outputs[0], "all threads must see the same answer");
        }
        let stats = svc.cache_stats();
        assert_eq!(stats.result_misses, 1, "exactly one execution: {stats:?}");
        assert_eq!(stats.plan_misses, 1, "exactly one compilation: {stats:?}");
        assert_eq!(
            stats.result_hits + stats.result_dedup,
            (THREADS - 1) as u64,
            "everyone else reused the leader's work: {stats:?}"
        );
    }

    /// Regression for the dead-snapshot pinning bug, at the cache
    /// level: the deterministic interleave is `put(gen 0)` →
    /// `install` (floor raised to 1, map cleared) → a straggler
    /// re-inserting its generation-0 entry. The straggler must bounce.
    #[test]
    fn stale_put_after_install_is_rejected() {
        let mut lru: LruCache<u32> = LruCache::new(8);
        let fp = Footprint::default;
        assert_eq!(lru.put("q".into(), 0, 0, fp(), 1), PutOutcome::Inserted);
        // install(): bump generation, raise the floor, clear.
        lru.set_floor(1);
        assert_eq!(lru.len(), 0);
        // The in-flight straggler stamped with the dead generation.
        assert_eq!(lru.put("q".into(), 0, 0, fp(), 1), PutOutcome::StaleRejected);
        assert_eq!(lru.len(), 0, "dead-generation entry must not be pinned");
        assert_eq!(lru.stale_count(1), 0);
        // Current-generation inserts still land.
        assert_eq!(lru.put("q".into(), 1, 0, fp(), 2), PutOutcome::Inserted);
        assert_eq!(lru.get("q", 1, 0), Some(2));
    }

    /// Service-level version of the same regression: queries racing
    /// installs must never leave an entry stamped with an older
    /// generation once `install` has returned — and the stale puts are
    /// visible in the counters.
    #[test]
    fn install_racing_queries_leaves_no_stale_entries() {
        let svc = Arc::new(service());
        let queries = [
            "?p bornIn ?c",
            "SELECT ?c WHERE { ?c locatedIn California }",
            "?p bornIn ?c . ?c locatedIn California",
        ];
        thread::scope(|scope| {
            for t in 0..4usize {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    for i in 0..200 {
                        let _ = svc.query(queries[(t + i) % queries.len()]);
                    }
                });
            }
            let svc = Arc::clone(&svc);
            scope.spawn(move || {
                for _ in 0..20 {
                    let mut b = KbBuilder::new();
                    b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
                    b.assert_str("San_Francisco", "locatedIn", "California");
                    svc.install(b.freeze().into_shared());
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(svc.generation(), 20);
        assert_eq!(svc.stale_entries(), 0, "no dead generation may stay cached");
        // And the invariant persists for later traffic.
        svc.query("?p bornIn ?c").unwrap();
        assert_eq!(svc.stale_entries(), 0);
    }

    #[test]
    fn batch_matches_serial_for_any_worker_count() {
        let svc = service();
        let queries: Vec<String> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    "?p bornIn ?c".to_string()
                } else {
                    format!("SELECT ?c WHERE {{ ?c locatedIn California }} LIMIT {}", i)
                }
            })
            .collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let serial = svc.serve_batch(&refs, 1);
        for w in [2, 4, 8] {
            let parallel = svc.serve_batch(&refs, w);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.as_ref().unwrap(), p.as_ref().unwrap(), "workers = {w}");
            }
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: LruCache<u32> = LruCache::new(2);
        let fp = Footprint::default;
        lru.put("a".into(), 0, 0, fp(), 1);
        lru.put("b".into(), 0, 0, fp(), 2);
        assert_eq!(lru.get("a", 0, 0), Some(1));
        assert_eq!(lru.put("c".into(), 0, 0, fp(), 3), PutOutcome::Evicted); // evicts "b"
        assert_eq!(lru.get("b", 0, 0), None);
        assert_eq!(lru.get("a", 0, 0), Some(1));
        assert_eq!(lru.get("c", 0, 0), Some(3));
        // Generation mismatch is a miss and drops the entry.
        assert_eq!(lru.get("a", 1, 0), None);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn eviction_and_error_counters_are_exposed() {
        let reg = Registry::new();
        let svc = QueryService::with_instrumentation(snapshot(), 1, &reg);
        svc.query("?p bornIn ?c").unwrap();
        svc.query("?c locatedIn ?s").unwrap(); // evicts the first plan+result
        let stats = svc.cache_stats();
        assert_eq!(stats.plan_evictions, 1);
        assert_eq!(stats.result_evictions, 1);
        // A parse error increments nothing but leaves the service sane.
        assert!(svc.query("SELECT WHERE {").is_err());
        assert_eq!(svc.cache_stats().result_misses, 2);
        // The metrics are visible in the registry the service published
        // into.
        assert!(reg.render_json().contains("\"query.cache.plan_evictions\":1"));
    }

    /// Timing histograms record one sample per timed step, with
    /// durations from the injected clock — never the wall clock.
    #[test]
    fn latency_histograms_use_the_injected_clock() {
        let clock = kb_obs::ManualClock::shared(0);
        let reg = Registry::with_clock(clock);
        let svc = QueryService::with_instrumentation(snapshot(), DEFAULT_CACHE_CAPACITY, &reg);
        svc.query("?p bornIn ?c").unwrap(); // cold: parse + plan + exec
        svc.query("?p bornIn ?c").unwrap(); // alias fast path: no timing
        let parse = reg.histogram("query.parse_us").snapshot();
        let plan = reg.histogram("query.plan_us").snapshot();
        let exec = reg.histogram("query.exec_us").snapshot();
        assert_eq!((parse.count, plan.count, exec.count), (1, 1, 1));
        // The manual clock never advanced, so every duration is exactly
        // zero — deterministically.
        assert_eq!((parse.sum, plan.sum, exec.sum), (0, 0, 0));
    }
}
