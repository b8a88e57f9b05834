//! The paged clause store: clauses on SPD tracks behind a track cache,
//! read through epoch-pinned snapshots, written by snapshot-isolated
//! transactions (MVCC).
//!
//! This is the crate's one live storage backend. [`MvccClauseStore`] lays
//! a [`ClauseDb`] out across SPD tracks; a [`Snapshot`] implements
//! [`ClauseSource`], so the best-first engine in `blog-core` — or any
//! engine built on [`try_expand_via`](blog_logic::try_expand_via) —
//! resolves candidates *through* the cache, one accounted track touch per
//! unification attempt. A database that is built once and only searched
//! is a store that stays at epoch 0; the write path is what the paper's
//! multiprogramming story adds — clauses asserted and retracted *while*
//! queries run.
//!
//! # One immutable version per epoch
//!
//! Everything a query can observe — clause pages, candidate index,
//! symbol table, clause count — hangs off one immutable `Version`, and
//! the store holds the committed one behind `current:
//! Mutex<Arc<Version>>`:
//!
//! ```text
//! current ─► Version { epoch, len, symbols, index, pages }
//!                                    │       │      │
//!     Arc<SymbolTable> ◄─────────────┘       │      └─► [chunk 0][chunk 1]…   one Arc per chunk
//!     (chunked names, sharded lookup)        │             │
//!                                            │             └─► 64 × Arc<Page>  one Arc per track
//!     (functor, arity) ─► Arc<segment> ◄─────┘
//!     (program-order ids, first-arg key ─► ids, var-headed ids)
//! ```
//!
//! - **[`begin_read`](MvccClauseStore::begin_read)** clones the `Arc`
//!   under the mutex and that is all: a [`Snapshot`] *is* a pinned
//!   version. Resolving a clause's page is two indexed loads into the
//!   pinned page table — no lock, nothing per-track to set up. Dropping
//!   a snapshot is one reference-count decrement.
//! - **[`begin_write`](MvccClauseStore::begin_write)** clones the same
//!   `Arc` as the transaction's base. A [`WriteTxn`] copies a page the
//!   first time it dirties it, the index segment of a predicate the
//!   first time it asserts into or retracts from it, and one shard of
//!   the symbol table the first time it interns a new name; everything
//!   else stays shared with the base.
//! - **[`commit`](WriteTxn::commit)** pays the simulated write I/O, then
//!   builds the next `Version` *outside* the mutex — copy the page
//!   table's top level, re-point the dirtied chunks — swaps the pointer
//!   under it, and drops the previous version after unlocking. Readers
//!   never wait for a commit.
//!
//! # Retirement is reference counting
//!
//! A page version that a commit replaced stays alive exactly as long as
//! some live version's page table still points at it, i.e.
//!
//! > a page version installed at epoch `I` and superseded at epoch `S`
//! > is retired when the last snapshot pinned at an epoch in `I..S`
//! > drops (immediately at commit, when there is none).
//!
//! Nobody walks anything to find that out: the page's own `Drop` counts
//! the retirement. [`stash_depth`](MvccClauseStore::stash_depth) — the
//! number of superseded page versions still alive — is "superseded so
//! far" minus "retired so far", two atomics.
//!
//! # Locks
//!
//! - `current` guards the pointer to the committed version and nothing
//!   else. Its critical sections are one `Arc` clone or one pointer swap
//!   and contain nothing that can panic.
//! - `writer` serializes transactions; it guards no data. A thread that
//!   panics with a transaction open has aborted it (nothing of a
//!   transaction is shared before commit), so a poisoned `writer` is
//!   taken over, not propagated.
//! - The [`TrackCache`] mutex guards the replacement policy, residency
//!   and its meters. Misses, evictions and the flush of a thread's
//!   batched hits take it; a resident hit does not (see
//!   [`cache`](crate::cache)). A snapshot flushes its thread's batch when
//!   it drops.
//!
//! The track cache is deliberately *version-blind*: an access touches
//! the same [`TrackId`] whichever page version it resolves to, so
//! replacement behavior and the golden trace fixtures are unchanged by
//! writes until a write actually moves a clause. The correctness
//! contract — **a query admitted at epoch E returns exactly the
//! sequential solution set of the epoch-E snapshot** — is enforced by
//! `tests/mvcc_props.rs` and the serving churn suite.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use blog_logic::{
    parse_clauses_interning, BindingLookup, Clause, ClauseDb, ClauseId, ClauseSource, ParseError,
    SourceStats, StoreError, Sym, SymbolTable, Term,
};
use serde::Serialize;

use crate::bitidx::{ClauseIndex, IndexCounters, IndexPolicy, IndexedCandidates};
use crate::cache::TrackCache;
use crate::paged::{PagedStoreConfig, PagedStoreStats, PoolTouchStats, TrackId};
use crate::timing::Geometry;

/// How a committing writer treats in-flight readers. There is one way,
/// so the parameter that carries this value ([`MvccClauseStore::new`]'s
/// third) is inert: it stays only because the frozen `benchmark/` crate
/// passes it, and goes with the next `[benchmark]` change.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum CommitMode {
    /// Snapshot isolation: the writer pays its simulated write I/O and
    /// builds the next version outside every lock, then installs it with
    /// one pointer swap. Readers are never blocked.
    Mvcc,
}

/// Tracks per shared chunk of a version's page table: a commit copies
/// one chunk of pointers per chunk it dirties.
const PAGES_PER_CHUNK: usize = 64;

/// What installed pages and snapshots report into as they come and go.
///
/// `superseded` and `retired` are read together as a difference, so
/// every access to them is `SeqCst`; a page's `superseded` increment
/// happens before the commit that replaces it publishes the next
/// version, hence before its `retired` one.
#[derive(Default, Debug)]
struct VersionGauges {
    /// Installed page versions replaced by a commit, ever.
    superseded: AtomicU64,
    /// Installed page versions dropped, ever. The committed version
    /// keeps every current page alive, so each of these was superseded
    /// first.
    retired: AtomicU64,
    /// Snapshots alive. Publishes nothing: `Relaxed`.
    readers: AtomicUsize,
}

/// One installed version of one track's clauses: the MVCC page. Slot `i`
/// holds the clause whose [`BlockAddr`](crate::timing::BlockAddr) maps
/// there; `None` is an empty or retracted slot.
#[derive(Debug)]
struct Page {
    clauses: Vec<Option<Clause>>,
    gauges: Arc<VersionGauges>,
}

impl Drop for Page {
    fn drop(&mut self) {
        self.gauges.retired.fetch_add(1, Ordering::SeqCst);
    }
}

/// The database as of one epoch. Immutable once built; see the module
/// docs for what is shared between consecutive versions.
#[derive(Debug)]
struct Version {
    /// Epoch 0 is the seed database.
    epoch: u64,
    /// Clause count: ids `0..len` have been allocated (some retracted).
    len: usize,
    /// Track `t` (`cylinder * n_sps + sp`) is
    /// `pages[t / PAGES_PER_CHUNK][t % PAGES_PER_CHUNK]`.
    pages: Vec<Arc<[Arc<Page>]>>,
    /// Candidate selection for this epoch (always maintained so a policy
    /// flip never needs a rebuild; narrowing is consulted only under
    /// [`IndexPolicy::FirstArg`]).
    index: ClauseIndex,
    symbols: Arc<SymbolTable>,
}

impl Version {
    fn page(&self, track: usize) -> &Page {
        &self.pages[track / PAGES_PER_CHUNK][track % PAGES_PER_CHUNK]
    }
}

/// MVCC diagnostics, for tests and reports.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MvccStats {
    /// The committed epoch (0 = seed database, nothing committed yet).
    pub committed_epoch: u64,
    /// Transactions committed (epoch bumps).
    pub commits: u64,
    /// Snapshots currently holding an epoch pin.
    pub active_readers: usize,
    /// Superseded page versions still alive, across all tracks.
    pub stashed_pages: usize,
    /// Superseded page versions retired over the store's lifetime.
    pub pages_retired: u64,
}

/// Errors from the write path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MvccError {
    /// The geometry has no free block for another clause.
    CapacityExhausted {
        /// Total block capacity of the store's geometry.
        capacity: usize,
    },
    /// Retract target was never allocated.
    NoSuchClause(ClauseId),
    /// Retract target was already retracted in an earlier epoch (or this
    /// transaction).
    AlreadyRetracted(ClauseId),
    /// Asserted clause had a variable or integer head/goal.
    Uncallable(String),
    /// Asserted clause's body held more than
    /// [`MAX_GOALS`](blog_logic::MAX_GOALS) goals.
    TooManyGoals {
        /// Goals in the rejected body.
        goals: usize,
    },
    /// Update text failed to parse.
    Parse(ParseError),
}

impl std::fmt::Display for MvccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MvccError::CapacityExhausted { capacity } => {
                write!(f, "store full: geometry holds at most {capacity} clauses")
            }
            MvccError::NoSuchClause(cid) => write!(f, "no clause with id {}", cid.0),
            MvccError::AlreadyRetracted(cid) => {
                write!(f, "clause {} is already retracted", cid.0)
            }
            MvccError::Uncallable(what) => write!(f, "uncallable term in clause: {what}"),
            MvccError::TooManyGoals { goals } => write!(
                f,
                "clause body has {goals} goals, more than {}",
                blog_logic::MAX_GOALS
            ),
            MvccError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MvccError {}

impl From<ParseError> for MvccError {
    fn from(e: ParseError) -> Self {
        MvccError::Parse(e)
    }
}

/// A clause database with snapshot-isolated writes, served through a
/// policy-driven track cache. See the module docs for the protocol.
///
/// The store **owns** its clauses (they are copied out of the seed
/// `ClauseDb` at construction), so it has no lifetime parameter and can
/// outlive the database it was built from.
#[derive(Debug)]
pub struct MvccClauseStore {
    geometry: Geometry,
    policy_kind: crate::policy::PolicyKind,
    index_policy: IndexPolicy,
    /// Candidate-selection meters (atomics — selection never locks).
    index_counters: IndexCounters,
    cache: TrackCache,
    /// The committed version. Held only to clone or swap the pointer.
    current: Mutex<Arc<Version>>,
    gauges: Arc<VersionGauges>,
    /// Serializes writers (one transaction at a time).
    writer: Mutex<()>,
    /// Nanoseconds slept per simulated tick of commit write I/O
    /// (0 = account only).
    write_stall_ns_per_tick: AtomicU64,
    commits: AtomicU64,
}

impl MvccClauseStore {
    /// Build epoch 0 from `db`: clauses are laid out with the same
    /// round-robin placement
    /// [`SpdArray::add_block`](crate::spd::SpdArray::add_block) uses
    /// (both call [`Geometry::addr_of_index`]), so a store and a
    /// simulator built over the same database agree block by block.
    /// `_mode` is inert (see [`CommitMode`]).
    ///
    /// # Panics
    /// Panics if the geometry cannot hold one block per clause. Size the
    /// geometry with headroom: asserts allocate fresh blocks and fail
    /// with [`MvccError::CapacityExhausted`] once the geometry is full.
    pub fn new(db: &ClauseDb, config: PagedStoreConfig, _mode: CommitMode) -> MvccClauseStore {
        assert!(
            config.geometry.capacity() as usize >= db.len(),
            "SPD geometry too small: capacity {} < {} clauses",
            config.geometry.capacity(),
            db.len()
        );
        let g = config.geometry;
        let n_tracks = (g.n_sps * g.n_cylinders) as usize;
        let mut tracks = vec![vec![None; g.blocks_per_track as usize]; n_tracks];
        for (i, clause) in db.clauses().iter().enumerate() {
            let addr = g.addr_of_index(i as u32);
            let ti = (addr.cylinder * g.n_sps + addr.sp) as usize;
            tracks[ti][addr.slot as usize] = Some(clause.clone());
        }
        let gauges = Arc::new(VersionGauges::default());
        let pages: Vec<Arc<Page>> = tracks
            .into_iter()
            .map(|clauses| {
                Arc::new(Page {
                    clauses,
                    gauges: Arc::clone(&gauges),
                })
            })
            .collect();
        MvccClauseStore {
            geometry: g,
            policy_kind: config.policy,
            index_policy: config.index,
            index_counters: IndexCounters::default(),
            cache: TrackCache::new(config.policy, config.capacity_tracks, g, config.cost)
                .with_faults(config.fault),
            current: Mutex::new(Arc::new(Version {
                epoch: 0,
                len: db.len(),
                pages: pages.chunks(PAGES_PER_CHUNK).map(Arc::from).collect(),
                index: ClauseIndex::from_db(db),
                symbols: Arc::new(db.symbols().clone()),
            })),
            gauges,
            writer: Mutex::new(()),
            write_stall_ns_per_tick: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        }
    }

    /// The committed version's slot. Recovers from poisoning: no
    /// critical section on this mutex can panic, so the flag could only
    /// be stale.
    fn current(&self) -> MutexGuard<'_, Arc<Version>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Where clause `cid` lives: its track, that track's index into a
    /// version's page table, and its slot in the page.
    fn place(&self, cid: ClauseId) -> (TrackId, usize, usize) {
        let addr = self.geometry.addr_of_index(cid.0);
        let track = TrackId {
            sp: addr.sp,
            cylinder: addr.cylinder,
        };
        let index = addr.cylinder * self.geometry.n_sps + addr.sp;
        (track, index as usize, addr.slot as usize)
    }

    /// The track (cache page) holding clause `cid`.
    pub fn track_of(&self, cid: ClauseId) -> TrackId {
        self.place(cid).0
    }

    /// Which replacement algorithm the track cache runs.
    pub fn policy_kind(&self) -> crate::policy::PolicyKind {
        self.policy_kind
    }

    /// Which candidate-selection policy snapshots resolve through.
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// The disk geometry (fixed at construction; asserts consume its
    /// remaining block capacity).
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Sleep this many nanoseconds per simulated tick of commit write
    /// I/O (one `track_load` per dirtied page). The sleep happens
    /// outside every lock.
    pub fn set_write_stall(&self, ns_per_tick: u64) {
        self.write_stall_ns_per_tick
            .store(ns_per_tick, Ordering::Relaxed);
    }

    /// Pin the committed version and return a read snapshot. The
    /// snapshot keeps every page version it may need alive until
    /// dropped.
    pub fn begin_read(&self) -> Snapshot<'_> {
        let version = Arc::clone(&self.current());
        self.gauges.readers.fetch_add(1, Ordering::Relaxed);
        Snapshot {
            store: self,
            version,
            pool: None,
            stall_ns_per_tick: 0,
            deps: None,
            trace: None,
        }
    }

    /// Start a write transaction. Writers are serialized: this blocks
    /// while another transaction is open. Readers are unaffected.
    pub fn begin_write(&self) -> WriteTxn<'_> {
        // A poisoned `writer` means a thread unwound with a transaction
        // open, which aborted it: nothing to repair.
        let guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // No commit can interleave past this point (we hold the writer
        // mutex), so the version read here stays the transaction's base.
        let base = Arc::clone(&self.current());
        WriteTxn {
            store: self,
            len: base.len,
            base,
            dirty: HashMap::new(),
            index: None,
            symbols: None,
            touched: BTreeSet::new(),
            trace: None,
            _writer: guard,
        }
    }

    /// The committed epoch (0 until the first commit).
    pub fn committed_epoch(&self) -> u64 {
        self.current().epoch
    }

    /// `(superseded page versions still alive, retired so far)`.
    fn stash(&self) -> (usize, u64) {
        // `retired` first: a concurrent commit can then only make the
        // difference read high, never negative.
        let retired = self.gauges.retired.load(Ordering::SeqCst);
        let superseded = self.gauges.superseded.load(Ordering::SeqCst);
        (superseded.saturating_sub(retired) as usize, retired)
    }

    /// MVCC diagnostics (see [`MvccStats`]).
    pub fn mvcc_stats(&self) -> MvccStats {
        let (stashed_pages, pages_retired) = self.stash();
        MvccStats {
            committed_epoch: self.committed_epoch(),
            commits: self.commits.load(Ordering::Relaxed),
            active_readers: self.reader_count(),
            stashed_pages,
            pages_retired,
        }
    }

    /// Snapshots currently holding an epoch pin.
    pub fn reader_count(&self) -> usize {
        self.gauges.readers.load(Ordering::Relaxed)
    }

    /// Superseded page versions still alive (some pinned snapshot can
    /// still read them), across all tracks.
    pub fn stash_depth(&self) -> usize {
        self.stash().0
    }

    /// Clause count at the committed epoch (allocated ids, including
    /// retracted ones — ids are never reused).
    pub fn committed_len(&self) -> usize {
        self.current().len
    }

    /// Track-cache counters (lock-traffic and candidate-selection meters
    /// included).
    pub fn stats(&self) -> PagedStoreStats {
        let mut s = self.cache.stats();
        let (hits, prunes, scanned) = self.index_counters.snapshot();
        s.index_hits = hits;
        s.index_prunes = prunes;
        s.candidates_scanned = scanned;
        s
    }

    /// One pool's touch counters (zeros for a pool never seen).
    pub fn pool_stats(&self, pool: usize) -> PoolTouchStats {
        self.cache.pool_stats(pool)
    }

    /// Lock-traffic meters of the track cache:
    /// `(acquisitions, contended)`.
    pub fn lock_stats(&self) -> (u64, u64) {
        self.cache.lock_stats()
    }

    /// Reset cache and candidate-selection counters (residency persists;
    /// versions unaffected).
    pub fn reset_stats(&self) {
        self.cache.reset_stats();
        self.index_counters.reset();
    }

    /// Number of resident tracks in the cache.
    pub fn resident_tracks(&self) -> usize {
        self.cache.resident_tracks()
    }
}

// ---------------------------------------------------------------------------
// Snapshot — the epoch-pinned read view
// ---------------------------------------------------------------------------

/// An epoch-pinned, immutable view of the store — the [`ClauseSource`]
/// queries execute against.
///
/// The snapshot holds the version that was committed at
/// [`begin_read`](MvccClauseStore::begin_read): pages, index and symbol
/// table all resolve through it, so commits that land afterwards are
/// never observed. Dropping the snapshot releases the version, and with
/// it every superseded page nobody else still pins.
#[derive(Debug)]
pub struct Snapshot<'s> {
    store: &'s MvccClauseStore,
    version: Arc<Version>,
    pool: Option<usize>,
    stall_ns_per_tick: u64,
    /// When enabled (see [`recording_deps`](Self::recording_deps)), every
    /// predicate whose candidate set a query resolves through this
    /// snapshot is collected here — the query's **dependency footprint**,
    /// which an answer cache compares against committing transactions'
    /// touched predicates. Behind a mutex because the OR-parallel engine
    /// shares one snapshot across worker threads.
    deps: Option<Mutex<BTreeSet<(Sym, u32)>>>,
    /// Span context of the request this snapshot serves (`None` — the
    /// default — is untraced). With it set, injected store faults and
    /// latency spikes surface as trace events on the request's span
    /// tree, so a slow request's flight record shows *which* fetches
    /// stalled it.
    trace: Option<blog_obs::SpanCtx>,
}

impl<'s> Snapshot<'s> {
    /// This snapshot with touches attributed to worker pool `pool`.
    pub fn for_pool(mut self, pool: usize) -> Self {
        self.pool = Some(pool);
        self
    }

    /// This snapshot with faults stalling the caller `ns_per_tick`
    /// nanoseconds per simulated tick (0 = no stall, accounting only).
    /// This is the SPD's disk latency made real: a multi-pool server
    /// overlaps one pool's I/O stall with another pool's computation
    /// exactly as the paper's processors hide track-load latency. The
    /// sleep happens **after** the cache mutex is released; residency
    /// bookkeeping is never held across a stall.
    pub fn with_stall(mut self, ns_per_tick: u64) -> Self {
        self.stall_ns_per_tick = ns_per_tick;
        self
    }

    /// This snapshot with dependency recording on: every
    /// `try_candidate_clauses` resolution notes the goal's
    /// `(functor, arity)` pair. A commit can only change the candidate sets of the
    /// predicates it asserts or retracts, so the first divergence between
    /// this epoch's search tree and a later epoch's must occur at a goal
    /// whose predicate the commit touched — if no recorded predicate was
    /// touched, a *complete* (untruncated, uncancelled) result is
    /// verbatim valid at the later epoch. That footprint-disjointness
    /// rule is the answer cache's invalidation contract.
    pub fn recording_deps(mut self) -> Self {
        self.deps = Some(Mutex::new(BTreeSet::new()));
        self
    }

    /// This snapshot with store events (injected faults, latency
    /// spikes) reported onto `trace`'s span tree. `None` (the default)
    /// keeps every fetch untraced.
    pub fn with_trace(mut self, trace: Option<blog_obs::SpanCtx>) -> Self {
        self.trace = trace;
        self
    }

    /// The predicates recorded so far (sorted; empty when recording was
    /// never enabled).
    pub fn recorded_deps(&self) -> Vec<(Sym, u32)> {
        match &self.deps {
            Some(deps) => deps.lock().unwrap().iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// The epoch this snapshot is pinned at.
    pub fn epoch(&self) -> u64 {
        self.version.epoch
    }

    /// The symbol table as of the pinned epoch (append-only across
    /// epochs, so handles valid at older epochs stay valid here).
    pub fn symbols(&self) -> &SymbolTable {
        &self.version.symbols
    }

    /// The store this snapshot reads.
    pub fn store(&self) -> &'s MvccClauseStore {
        self.store
    }

    /// This pool's touch counters so far (the shared-cache totals if the
    /// snapshot is not pool-tagged).
    pub fn touch_stats(&self) -> PoolTouchStats {
        match self.pool {
            Some(p) => self.store.pool_stats(p),
            None => {
                let s = self.store.stats();
                PoolTouchStats {
                    accesses: s.accesses,
                    hits: s.hits,
                    misses: s.misses,
                    fault_ticks: s.fault_ticks,
                }
            }
        }
    }
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        self.store.cache.flush();
        self.store.gauges.readers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ClauseSource for Snapshot<'_> {
    fn try_fetch_clause(&self, id: ClauseId) -> Result<&Clause, StoreError> {
        // An id the pinned epoch does not hold is refused before any
        // track is touched. Ids at or past `len` include every id the
        // geometry cannot place.
        let v = &*self.version;
        if id.index() >= v.len {
            return Err(StoreError::permanent(format!(
                "clause {} is not allocated at epoch {} ({} clauses)",
                id.0, v.epoch, v.len
            )));
        }
        let (track, page, slot) = self.store.place(id);
        let Some(clause) = &v.page(page).clauses[slot] else {
            return Err(StoreError::permanent(format!(
                "clause {} is retracted at epoch {}",
                id.0, v.epoch
            )));
        };
        let outcome = self
            .store
            .cache
            .try_touch(track, self.pool)
            .inspect_err(|e| {
                if let Some(t) = &self.trace {
                    t.event("store_fault", format!("clause {}: {e}", id.0));
                }
            })?;
        if let Some(t) = &self.trace {
            if outcome.spike_ticks > 0 {
                t.event(
                    "latency_spike",
                    format!("clause {}: +{} ticks", id.0, outcome.spike_ticks),
                );
            }
        }
        if self.stall_ns_per_tick > 0 && outcome.fault_ticks > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(
                outcome.fault_ticks * self.stall_ns_per_tick,
            ));
        }
        Ok(clause)
    }

    fn try_candidate_clauses<'a>(
        &'a self,
        goal: &Term,
        bindings: &dyn BindingLookup,
    ) -> Result<Cow<'a, [ClauseId]>, StoreError> {
        // Candidate lists are the figure-4 pointers stored *in the
        // caller's block*, which the search touched when it fetched the
        // caller; reading them costs no extra fault. The index is pinned
        // with the snapshot, so a concurrent commit cannot leak clauses
        // from another epoch in.
        let index = &self.version.index;
        let full = match goal.functor() {
            Some(pred) => {
                if let Some(deps) = &self.deps {
                    deps.lock().unwrap().insert(pred);
                }
                index.clauses_of(pred)
            }
            None => &[][..],
        };
        if self.store.index_policy == IndexPolicy::FirstArg {
            if let IndexedCandidates::Narrowed(ids) = index.lookup(goal, bindings) {
                self.store
                    .index_counters
                    .record_indexed(full.len(), ids.len());
                return Ok(ids);
            }
        }
        self.store.index_counters.record_scan(full.len());
        Ok(Cow::Borrowed(full))
    }

    fn clause_count(&self) -> usize {
        self.version.len
    }

    fn backend_name(&self) -> String {
        match self.pool {
            Some(p) => format!("mvcc/{}/pool{}", self.store.policy_kind.name(), p),
            None => format!("mvcc/{}", self.store.policy_kind.name()),
        }
    }

    fn flush_deferred(&self) {
        self.store.cache.flush();
    }

    fn source_stats(&self) -> Option<SourceStats> {
        Some(match self.pool {
            Some(p) => {
                let s = self.store.pool_stats(p);
                SourceStats {
                    accesses: s.accesses,
                    hits: s.hits,
                    misses: s.misses,
                    // Evictions are a store-wide event; they cannot be
                    // attributed to the pool whose fault happened to
                    // trigger them.
                    evictions: 0,
                }
            }
            // Untagged: the store-wide counters, all four of them.
            None => {
                let s = self.store.stats();
                SourceStats {
                    accesses: s.accesses,
                    hits: s.hits,
                    misses: s.misses,
                    evictions: s.evictions,
                }
            }
        })
    }
}

// ---------------------------------------------------------------------------
// WriteTxn — the copy-on-write transaction
// ---------------------------------------------------------------------------

/// A write transaction: assert/retract clauses, then [`commit`](Self::commit).
///
/// The transaction copies what it changes — a page; a predicate's index
/// segment and the one shard of its key map that a write lands in; a
/// shard of the symbol table — the first time it changes it, and shares
/// the rest with its base version; nothing is visible to
/// readers until commit installs the next version atomically. Dropping
/// without committing aborts with no trace. Writers are serialized by
/// the store (one open transaction at a time); readers never wait for a
/// transaction, open or committing.
#[derive(Debug)]
pub struct WriteTxn<'s> {
    store: &'s MvccClauseStore,
    /// The version this transaction branched from.
    base: Arc<Version>,
    /// Next clause id; ids are allocated densely and never reused.
    len: usize,
    /// Copy-on-write pages, by track index.
    dirty: HashMap<usize, Vec<Option<Clause>>>,
    /// The next version's index, branched from the base's by the first
    /// assert or retract.
    index: Option<ClauseIndex>,
    /// The next version's symbol table, branched from the base's by the
    /// first [`assert_text`](Self::assert_text).
    symbols: Option<SymbolTable>,
    /// Head predicates of every assert and retract in this transaction —
    /// the commit's *touched set*, which an answer cache intersects with
    /// cached queries' dependency footprints to invalidate precisely.
    touched: BTreeSet<(Sym, u32)>,
    /// Span context of the request this commit belongs to (`None` — the
    /// default — is untraced). With it set, [`commit`](Self::commit)
    /// records its write-I/O wait and install phases as spans and page
    /// retirement as an event.
    trace: Option<blog_obs::SpanCtx>,
    _writer: MutexGuard<'s, ()>,
}

impl WriteTxn<'_> {
    /// The committed epoch this transaction branched from.
    pub fn base_epoch(&self) -> u64 {
        self.base.epoch
    }

    /// Clause ids allocated so far (committed base plus this
    /// transaction's asserts).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store (plus this transaction) holds no clauses.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The transaction's symbol table (base table plus any vocabulary
    /// interned by [`assert_text`](Self::assert_text) so far).
    pub fn symbols(&self) -> &SymbolTable {
        self.symbols.as_ref().unwrap_or(&self.base.symbols)
    }

    /// This transaction with its commit phases (write-I/O wait, version
    /// install, page retirement) reported onto `trace`'s span tree.
    /// `None` (the default) keeps the commit untraced.
    pub fn with_trace(mut self, trace: Option<blog_obs::SpanCtx>) -> Self {
        self.trace = trace;
        self
    }

    /// Head predicates of every assert and retract so far (sorted).
    /// A commit can only change the candidate sets of these predicates,
    /// so a cached result whose dependency footprint (see
    /// [`Snapshot::recording_deps`]) is disjoint from this set is still
    /// valid at the committed epoch.
    pub fn touched_preds(&self) -> Vec<(Sym, u32)> {
        self.touched.iter().copied().collect()
    }

    /// The copy-on-write page for `track`, copied from the base version
    /// on first touch.
    fn dirty_page(&mut self, track: usize) -> &mut Vec<Option<Clause>> {
        self.dirty
            .entry(track)
            .or_insert_with(|| self.base.page(track).clauses.clone())
    }

    fn index_mut(&mut self) -> &mut ClauseIndex {
        self.index.get_or_insert_with(|| self.base.index.clone())
    }

    /// Assert `clause`, allocating the next clause id. The head and all
    /// body goals must be callable terms (same rule as
    /// [`ClauseDb::add_clause`]).
    pub fn assert_clause(&mut self, clause: Clause) -> Result<ClauseId, MvccError> {
        if clause.head.functor().is_none() {
            return Err(MvccError::Uncallable("clause head".into()));
        }
        if let Some(i) = clause.body.iter().position(|g| g.functor().is_none()) {
            return Err(MvccError::Uncallable(format!("body goal {i}")));
        }
        if clause.body.len() > blog_logic::MAX_GOALS {
            return Err(MvccError::TooManyGoals {
                goals: clause.body.len(),
            });
        }
        if self.len >= self.store.geometry.capacity() as usize {
            return Err(MvccError::CapacityExhausted {
                capacity: self.store.geometry.capacity() as usize,
            });
        }
        let cid = ClauseId(self.len as u32);
        let (_, track, slot) = self.store.place(cid);
        self.index_mut().insert_clause(cid, &clause);
        self.touched.insert(clause.head_pred());
        self.dirty_page(track)[slot] = Some(clause);
        self.len += 1;
        Ok(cid)
    }

    /// Parse `src` as clause text (facts and rules) and assert each
    /// clause, interning any new constants or functors into the
    /// transaction's symbol table — this is how the update lane
    /// introduces vocabulary the read-only parse path keeps rejecting.
    pub fn assert_text(&mut self, src: &str) -> Result<Vec<ClauseId>, MvccError> {
        let symbols = self
            .symbols
            .get_or_insert_with(|| SymbolTable::clone(&self.base.symbols));
        let clauses = parse_clauses_interning(symbols, src)?;
        clauses.into_iter().map(|c| self.assert_clause(c)).collect()
    }

    /// Retract clause `cid`: its block becomes an empty slot and it
    /// leaves the candidate index at the commit epoch. Ids are never
    /// reused. Retracting in-transaction asserts is allowed.
    pub fn retract(&mut self, cid: ClauseId) -> Result<(), MvccError> {
        if cid.index() >= self.len {
            return Err(MvccError::NoSuchClause(cid));
        }
        let (_, track, slot) = self.store.place(cid);
        let Some(clause) = self.dirty_page(track)[slot].take() else {
            return Err(MvccError::AlreadyRetracted(cid));
        };
        self.index_mut().remove_clause(cid, &clause);
        self.touched.insert(clause.head_pred());
        Ok(())
    }

    /// Commit: pay the simulated write I/O (one `track_load` per dirty
    /// page), then install the next version — new pages, index, symbol
    /// table — under the next epoch. Returns the new committed epoch (or
    /// the unchanged one for an empty transaction).
    ///
    /// The I/O sleep and the building of the next version happen before
    /// any lock is taken, and the install is one pointer swap — readers
    /// keep pinning and reading versions the whole time.
    pub fn commit(self) -> u64 {
        let store = self.store;
        let base = self.base;
        let Some(index) = self.index else {
            // No assert or retract got as far as the index, so no page
            // changed either: symbol-only and empty transactions do not
            // bump the epoch.
            return base.epoch;
        };
        let n_dirty = self.dirty.len() as u64;
        let io_ticks = n_dirty * store.cache.cost().track_load;
        let stall_ns = store.write_stall_ns_per_tick.load(Ordering::Relaxed);
        let io = std::time::Duration::from_nanos(io_ticks * stall_ns);
        let trace = self.trace;

        let io_span = trace.as_ref().map(|t| t.span("commit_io"));
        // Pay the I/O before touching any shared state.
        if !io.is_zero() {
            std::thread::sleep(io);
        }
        drop(io_span);

        let install_span = trace.as_ref().map(|t| t.span("commit_install"));
        let mut pages = base.pages.clone();
        for (track, clauses) in self.dirty {
            // The first dirty page of a chunk copies the chunk's 64
            // pointers; its later ones find the copy unshared.
            Arc::make_mut(&mut pages[track / PAGES_PER_CHUNK])[track % PAGES_PER_CHUNK] =
                Arc::new(Page {
                    clauses,
                    gauges: Arc::clone(&store.gauges),
                });
        }
        let next = Arc::new(Version {
            epoch: base.epoch + 1,
            len: self.len,
            pages,
            index,
            symbols: match self.symbols {
                Some(symbols) => Arc::new(symbols),
                None => Arc::clone(&base.symbols),
            },
        });
        let new_epoch = next.epoch;
        let retired_before = store.gauges.retired.load(Ordering::SeqCst);
        store.gauges.superseded.fetch_add(n_dirty, Ordering::SeqCst);
        let previous = std::mem::replace(&mut *store.current(), next);
        // Unlocked again: whatever only the previous version kept alive
        // is freed here, on the writer's time, not under the mutex.
        drop(previous);
        drop(base);
        if let Some(t) = &trace {
            let retired = store.gauges.retired.load(Ordering::SeqCst) - retired_before;
            t.event(
                "retire",
                format!("epoch {new_epoch}: {retired} pages retired"),
            );
        }
        drop(install_span);
        store.commits.fetch_add(1, Ordering::Relaxed);
        new_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::{parse_program, parse_query_symbols};

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    fn store_config(capacity_tracks: usize) -> PagedStoreConfig {
        PagedStoreConfig {
            geometry: Geometry {
                n_sps: 2,
                n_cylinders: 8,
                blocks_per_track: 2,
            },
            capacity_tracks,
            ..PagedStoreConfig::default()
        }
    }

    fn solutions(snap: &Snapshot<'_>, query: &str) -> Vec<String> {
        let q = parse_query_symbols(snap.symbols(), query).unwrap();
        let weights =
            blog_core::weight::WeightStore::new(blog_core::weight::WeightParams::default());
        let mut local = std::collections::HashMap::new();
        let mut view = blog_core::weight::WeightView::new(&mut local, &weights);
        let r = blog_core::engine::best_first_with(
            snap,
            &q,
            &mut view,
            &blog_core::engine::BestFirstConfig::default(),
        );
        let mut texts: Vec<String> = r
            .solutions
            .iter()
            .map(|s| s.solution.to_text_syms(snap.symbols()))
            .collect();
        texts.sort();
        texts
    }

    #[test]
    fn epoch_zero_matches_the_seed_database() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(4), CommitMode::Mvcc);
        assert_eq!(store.committed_epoch(), 0);
        let snap = store.begin_read();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.clause_count(), p.db.len());
        assert_eq!(solutions(&snap, "gf(sam,G)"), vec!["G = den", "G = doug"]);
    }

    #[test]
    fn assert_rejects_a_body_longer_than_max_goals() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let f = p.db.sym("f").unwrap();
        let goal = Term::app(f, vec![Term::Atom(f), Term::Int(1)]);
        let rule = |n| Clause::new(goal.clone(), vec![goal.clone(); n]);
        let mut txn = store.begin_write();
        assert!(txn.assert_clause(rule(blog_logic::MAX_GOALS)).is_ok());
        assert_eq!(
            txn.assert_clause(rule(blog_logic::MAX_GOALS + 1)),
            Err(MvccError::TooManyGoals {
                goals: blog_logic::MAX_GOALS + 1
            })
        );
        txn.commit();
        assert_eq!(store.begin_read().clause_count(), p.db.len() + 1);
    }

    #[test]
    fn assert_is_invisible_until_commit_and_to_older_snapshots() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let old = store.begin_read();

        let mut txn = store.begin_write();
        txn.assert_text("f(larry,zoe).").unwrap();
        // Open transaction: nothing visible anywhere.
        let mid = store.begin_read();
        assert_eq!(mid.epoch(), 0);
        assert_eq!(solutions(&mid, "gf(sam,G)"), vec!["G = den", "G = doug"]);
        let epoch = txn.commit();
        assert_eq!(epoch, 1);

        // The old snapshot still sees epoch 0 (and can't even parse the
        // new constant — its symbol table predates it).
        assert_eq!(solutions(&old, "gf(sam,G)"), vec!["G = den", "G = doug"]);
        assert!(parse_query_symbols(old.symbols(), "f(larry,zoe)").is_err());

        // A fresh snapshot sees the new fact.
        let new = store.begin_read();
        assert_eq!(new.epoch(), 1);
        assert_eq!(
            solutions(&new, "gf(sam,G)"),
            vec!["G = den", "G = doug", "G = zoe"]
        );
    }

    #[test]
    fn retract_removes_solutions_at_the_new_epoch_only() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let old = store.begin_read();

        // f(larry,den) is clause 5 in figure 1's program text.
        let mut txn = store.begin_write();
        txn.retract(ClauseId(5)).unwrap();
        txn.commit();

        assert_eq!(solutions(&old, "gf(sam,G)"), vec!["G = den", "G = doug"]);
        let new = store.begin_read();
        assert_eq!(solutions(&new, "gf(sam,G)"), vec!["G = doug"]);

        // Double retract is an error.
        let mut txn = store.begin_write();
        assert_eq!(
            txn.retract(ClauseId(5)),
            Err(MvccError::AlreadyRetracted(ClauseId(5)))
        );
        assert_eq!(
            txn.retract(ClauseId(999)),
            Err(MvccError::NoSuchClause(ClauseId(999)))
        );
        // Refused retracts change nothing: there is no epoch to install.
        assert_eq!(txn.commit(), 1);
        assert_eq!(store.mvcc_stats().commits, 1);
    }

    #[test]
    fn snapshot_resolves_pages_superseded_after_begin_read() {
        // Pin a snapshot, overwrite a page it has NOT touched yet, then
        // touch it — the fetch must resolve to the pinned version, which
        // the snapshot's page table keeps alive.
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let snap = store.begin_read();

        let mut txn = store.begin_write();
        txn.retract(ClauseId(3)).unwrap(); // f(sam,larry)
        txn.commit();
        assert_eq!(
            store.stash_depth(),
            1,
            "the pin keeps the old version alive"
        );

        // First touch of clause 3's page happens *after* the commit.
        let c = snap.try_fetch_clause(ClauseId(3)).unwrap();
        assert_eq!(c.head, p.db.clause(ClauseId(3)).head);
        assert_eq!(solutions(&snap, "gf(sam,G)"), vec!["G = den", "G = doug"]);
    }

    #[test]
    fn pinned_snapshot_resolves_candidates_through_its_epochs_bitmap_index() {
        // The clause index must be epoch-consistent, not just the pages:
        // a reader pinned at epoch 0 keeps narrowing through epoch 0's
        // index after later commits retract and assert clauses for the
        // very same functor.
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        assert_eq!(store.index_policy(), crate::bitidx::IndexPolicy::FirstArg);
        let old = store.begin_read();

        let mut txn = store.begin_write();
        txn.retract(ClauseId(3)).unwrap(); // f(sam,larry)
        let new_ids = txn.assert_text("f(sam,zoe).").unwrap();
        txn.commit();

        let q = parse_query_symbols(old.symbols(), "f(sam,Q)").unwrap();
        let bindings = blog_logic::Bindings::new();
        let old_ids = old.try_candidate_clauses(&q.goals[0], &bindings).unwrap();
        assert_eq!(*old_ids, [ClauseId(3)], "epoch-0 index still lists it");

        let new = store.begin_read();
        let q2 = parse_query_symbols(new.symbols(), "f(sam,Q)").unwrap();
        let got = new.try_candidate_clauses(&q2.goals[0], &bindings).unwrap();
        assert_eq!(
            *got,
            new_ids[..],
            "epoch-1 index lists only the replacement"
        );

        // And the meters saw two indexed resolutions.
        let s = store.stats();
        assert_eq!(s.index_hits, 2);
    }

    #[test]
    fn write_txn_reports_its_touched_predicates() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let mut txn = store.begin_write();
        assert!(txn.touched_preds().is_empty());
        txn.assert_text("f(larry,zoe).").unwrap();
        txn.retract(ClauseId(8)).unwrap(); // m(elain,john)
        let touched = txn.touched_preds();
        let mut names: Vec<(String, u32)> = touched
            .iter()
            .map(|&(s, a)| (txn.symbols().name(s).to_string(), a))
            .collect();
        names.sort();
        assert_eq!(names, vec![("f".to_string(), 2), ("m".to_string(), 2)]);
        // Asserting the same predicate again does not duplicate it.
        txn.assert_text("f(zoe,ann).").unwrap();
        assert_eq!(txn.touched_preds().len(), 2);
    }

    #[test]
    fn snapshot_records_dependency_footprints_when_asked() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);

        // Off by default: nothing recorded.
        let plain = store.begin_read();
        solutions(&plain, "gf(sam,G)");
        assert!(plain.recorded_deps().is_empty());

        // Recording: the gf query resolves gf/2, f/2, and m/2 goals.
        let snap = store.begin_read().recording_deps();
        solutions(&snap, "gf(sam,G)");
        let mut names: Vec<(String, u32)> = snap
            .recorded_deps()
            .iter()
            .map(|&(s, a)| (snap.symbols().name(s).to_string(), a))
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                ("f".to_string(), 2),
                ("gf".to_string(), 2),
                ("m".to_string(), 2)
            ]
        );
    }

    #[test]
    fn stash_drains_when_readers_drop() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let s0 = store.begin_read();
        let s0b = store.begin_read();

        let mut txn = store.begin_write();
        txn.assert_text("f(den,kim).").unwrap();
        txn.commit();
        let depth_while_pinned = store.stash_depth();
        assert!(depth_while_pinned > 0);
        assert_eq!(store.reader_count(), 2);

        drop(s0);
        assert_eq!(
            store.stash_depth(),
            depth_while_pinned,
            "second epoch-0 reader still pins the old versions"
        );
        drop(s0b);
        assert_eq!(
            store.stash_depth(),
            0,
            "no reader => nothing superseded survives"
        );
        let m = store.mvcc_stats();
        assert_eq!(m.active_readers, 0);
        assert_eq!(m.pages_retired, depth_while_pinned as u64);
        assert_eq!(m.commits, 1);
    }

    #[test]
    fn a_pin_keeps_only_the_versions_it_can_read() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let pin = store.begin_read();
        // Clauses 0 and 1 share a track (two blocks per track).
        for (commit, cid) in [ClauseId(0), ClauseId(1)].into_iter().enumerate() {
            let mut txn = store.begin_write();
            txn.retract(cid).unwrap();
            txn.commit();
            // The epoch-0 version of the track stays for the pin. The
            // version commit 1 installed is replaced by commit 2 with no
            // snapshot ever pinned at epoch 1: it retires on the spot.
            assert_eq!(store.stash_depth(), 1);
            assert_eq!(store.mvcc_stats().pages_retired, commit as u64);
        }
        drop(pin);
        assert_eq!(store.stash_depth(), 0);
        assert_eq!(store.mvcc_stats().pages_retired, 2);
    }

    #[test]
    fn fallible_fetch_refuses_clauses_the_epoch_does_not_hold() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let old = store.begin_read();
        let mut txn = store.begin_write();
        txn.retract(ClauseId(3)).unwrap();
        let new_id = txn.assert_text("f(sam,zoe).").unwrap()[0];
        txn.commit();
        let new = store.begin_read();

        // Beyond the geometry (2 x 8 x 2 = 32 blocks) altogether.
        for snap in [&old, &new] {
            let e = snap.try_fetch_clause(ClauseId(10_000)).unwrap_err();
            assert!(!e.is_transient(), "{e}");
        }
        // Asserted after the pinned epoch: visible at 1, not at 0.
        assert!(new.try_fetch_clause(new_id).is_ok());
        let e = old.try_fetch_clause(new_id).unwrap_err();
        assert!(
            !e.is_transient() && e.detail.contains("not allocated"),
            "{e}"
        );
        // Retracted: visible at 0, not at 1.
        assert!(old.try_fetch_clause(ClauseId(3)).is_ok());
        let e = new.try_fetch_clause(ClauseId(3)).unwrap_err();
        assert!(!e.is_transient() && e.detail.contains("retracted"), "{e}");
        // A refused fetch touches no track.
        assert_eq!(store.stats().accesses, 2);
    }

    #[test]
    fn a_panic_inside_a_transaction_is_an_abort() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        let crashed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut txn = store.begin_write();
                    txn.assert_text("f(larry,ghost).").unwrap();
                    txn.retract(ClauseId(0)).unwrap();
                    panic!("writer dies with the transaction open");
                })
                .join()
        });
        assert!(crashed.is_err());

        // The next writer and the next reader get through, and see
        // nothing of the dead transaction.
        let txn = store.begin_write();
        assert_eq!(txn.base_epoch(), 0);
        assert_eq!(txn.len(), p.db.len());
        drop(txn);
        let snap = store.begin_read();
        assert_eq!(store.committed_epoch(), 0);
        assert_eq!(snap.clause_count(), p.db.len());
        assert!(parse_query_symbols(snap.symbols(), "f(larry,ghost)").is_err());
        assert_eq!(solutions(&snap, "gf(sam,G)"), vec!["G = den", "G = doug"]);
        assert_eq!(store.stash_depth(), 0);

        // And the store still commits.
        let mut txn = store.begin_write();
        txn.assert_text("f(larry,zoe).").unwrap();
        assert_eq!(txn.commit(), 1);
    }

    #[test]
    fn capacity_exhaustion_is_an_error_not_a_panic() {
        let p = parse_program("f(a,b).").unwrap();
        let cfg = PagedStoreConfig {
            geometry: Geometry {
                n_sps: 1,
                n_cylinders: 1,
                blocks_per_track: 2,
            },
            ..PagedStoreConfig::default()
        };
        let store = MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc);
        let mut txn = store.begin_write();
        txn.assert_text("f(b,c).").unwrap();
        assert_eq!(
            txn.assert_text("f(c,d)."),
            Err(MvccError::CapacityExhausted { capacity: 2 })
        );
        // The transaction is still usable and commits what fit.
        assert_eq!(txn.commit(), 1);
        let snap = store.begin_read();
        assert_eq!(snap.clause_count(), 2);
    }

    #[test]
    fn empty_transaction_does_not_bump_the_epoch() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(4), CommitMode::Mvcc);
        let txn = store.begin_write();
        assert_eq!(txn.commit(), 0);
        assert_eq!(store.committed_epoch(), 0);
        assert_eq!(store.mvcc_stats().commits, 0);
    }

    #[test]
    fn abort_by_drop_leaves_no_trace() {
        let p = parse_program(FAMILY).unwrap();
        let store = MvccClauseStore::new(&p.db, store_config(8), CommitMode::Mvcc);
        {
            let mut txn = store.begin_write();
            txn.assert_text("f(larry,ghost).").unwrap();
            txn.retract(ClauseId(0)).unwrap();
            // dropped uncommitted
        }
        assert_eq!(store.committed_epoch(), 0);
        let snap = store.begin_read();
        assert_eq!(snap.clause_count(), p.db.len());
        assert!(parse_query_symbols(snap.symbols(), "f(larry,ghost)").is_err());
        assert_eq!(solutions(&snap, "gf(sam,G)"), vec!["G = den", "G = doug"]);
    }

    #[test]
    fn concurrent_readers_and_writer_never_tear() {
        // Writers churn one predicate while reader threads repeatedly
        // snapshot and verify they observe a consistent epoch: either
        // both effects of a commit (assert+retract pair) or neither.
        let p = parse_program("flag(off). other(x). ?- flag(S).").unwrap();
        let cfg = PagedStoreConfig {
            geometry: Geometry {
                n_sps: 2,
                n_cylinders: 16,
                blocks_per_track: 2,
            },
            ..PagedStoreConfig::default()
        };
        let store = MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc);
        let rounds = 30;
        std::thread::scope(|scope| {
            let store = &store;
            scope.spawn(move || {
                // Each commit retracts the current flag fact and asserts
                // the next one — exactly one flag/1 fact per epoch.
                let mut live = ClauseId(0);
                for i in 0..rounds {
                    let mut txn = store.begin_write();
                    txn.retract(live).unwrap();
                    let ids = txn.assert_text(&format!("flag(state{i}).")).unwrap();
                    live = ids[0];
                    txn.commit();
                }
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..200 {
                        let snap = store.begin_read();
                        let sols = solutions(&snap, "flag(S)");
                        assert_eq!(
                            sols.len(),
                            1,
                            "every epoch has exactly one flag fact: {sols:?}"
                        );
                    }
                });
            }
        });
        assert_eq!(store.committed_epoch(), rounds);
        assert_eq!(
            store.stash_depth(),
            0,
            "all readers gone => nothing superseded survives"
        );
    }
}
