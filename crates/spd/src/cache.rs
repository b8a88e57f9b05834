//! The policy-driven track cache inside the paged clause store.
//!
//! [`MvccClauseStore`](crate::mvcc::MvccClauseStore) meters which
//! *tracks* are resident, what a fault costs under the SPD cost model,
//! and how much lock traffic the metering itself generates. [`TrackCache`]
//! is that substance — one mutex around a replacement policy, per-SP head
//! positions and the global and per-pool touch counters, taken for
//! misses, evictions and flushes; lock meters kept *outside* the mutex so
//! a contended acquisition can be counted before the thread blocks on it;
//! and a lock-free path for resident hits.
//!
//! # Resident hits take no lock
//!
//! One residency bit per track mirrors the policy's resident set. The
//! bits change only under the mutex — set on admit, cleared on evict —
//! and are read with a plain atomic load. A touch that finds its track's
//! bit set, on a cache with no [`FaultPlan`], is a hit: it goes into a
//! fixed 64-entry batch owned by the calling thread and returns with no
//! lock taken and no shared word written. The batch is applied to the
//! policy and the meters under the mutex, in touch order:
//!
//! - when it fills;
//! - before the same thread's next miss on this cache, inside the
//!   miss's own critical section;
//! - before the same thread reads the cache's counters
//!   ([`stats`](TrackCache::stats), [`pool_stats`](TrackCache::pool_stats),
//!   [`resident_tracks`](TrackCache::resident_tracks)) or resets them;
//! - on [`flush`](TrackCache::flush), which a dropped
//!   [`Snapshot`](crate::mvcc::Snapshot) and a returning OR-parallel
//!   worker call.
//!
//! Residency only changes under the mutex, and a thread applies its own
//! batch before it takes the mutex for anything else, so on one thread
//! the policy sees exactly the access sequence that thread made: every
//! golden trace replays unchanged. Across threads, a batched hit whose
//! track another thread evicted before the flush counts as the hit its
//! caller saw and never re-admits the track. Counters read by one thread
//! do not include the hits other threads still hold in their batches.
//!
//! A batch is keyed by the cache's process-unique id, never by its
//! address, so it can never be applied to a cache that reuses a dropped
//! one's memory. A thread holds one batch: while it has hits pending on
//! one cache, its hits on another take the locked path.
//!
//! Residency is tracked per [`TrackId`] only; the cache knows nothing
//! about clause data or page versions. That is what keeps MVCC cheap:
//! installing a new page version changes which *bytes* a fetch returns,
//! not which track it touches, so the replacement policy and every
//! golden trace fixture see the identical access stream either way.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

use blog_logic::StoreError;

use crate::fault::{FaultPlan, FaultState};
use crate::lru::Touch;
use crate::paged::{PagedStoreStats, PoolTouchStats, TouchOutcome, TrackId};
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::timing::{CostModel, Geometry};

/// Resident hits a thread batches before it takes the mutex to apply
/// them.
const BATCH: usize = 64;

/// Source of cache ids; 0 is never handed out, so it marks a batch that
/// belongs to no cache.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's resident hits not yet applied, all on the cache with id
/// `cache`, oldest first.
struct HitBatch {
    cache: u64,
    len: usize,
    hits: [(TrackId, Option<usize>); BATCH],
}

thread_local! {
    static HITS: RefCell<HitBatch> = const {
        RefCell::new(HitBatch {
            cache: 0,
            len: 0,
            hits: [(TrackId { sp: 0, cylinder: 0 }, None); BATCH],
        })
    };
}

/// What a resident hit reports.
const HIT: TouchOutcome = TouchOutcome {
    hit: true,
    fault_ticks: 0,
    spike_ticks: 0,
};

/// Mutable cache state, behind one mutex so stores can expose `&self`
/// [`ClauseSource`](blog_logic::ClauseSource) methods across threads.
#[derive(Debug)]
struct CacheCore {
    policy: Box<dyn ReplacementPolicy<TrackId>>,
    /// Per-SP head position, for seek cost.
    heads: Vec<u32>,
    stats: PagedStoreStats,
    /// Per-pool touch counters, grown on first use of each pool id.
    pools: Vec<PoolTouchStats>,
}

impl CacheCore {
    /// Count one touch with `outcome` in the access and hit counters,
    /// globally and for `pool`. Misses count their own fault costs.
    fn count(&mut self, outcome: &TouchOutcome, pool: Option<usize>) {
        self.stats.accesses += 1;
        self.stats.hits += u64::from(outcome.hit);
        if let Some(p) = pool {
            if self.pools.len() <= p {
                self.pools.resize(p + 1, PoolTouchStats::default());
            }
            let slot = &mut self.pools[p];
            slot.accesses += 1;
            slot.hits += u64::from(outcome.hit);
            slot.misses += u64::from(!outcome.hit);
            slot.fault_ticks += outcome.fault_ticks;
        }
    }
}

/// A policy-driven track cache with SPD cost accounting (see the module
/// docs). One of these sits inside every paged clause store.
#[derive(Debug)]
pub struct TrackCache {
    /// Keys this cache's per-thread hit batches.
    id: u64,
    cost: CostModel,
    n_sps: u32,
    n_cylinders: u32,
    /// Bit `t % 64` of word `t / 64` is set while track `t` (`cylinder *
    /// n_sps + sp`) is resident. Written only under `inner`.
    resident: Box<[AtomicU64]>,
    inner: Mutex<CacheCore>,
    /// Lock-traffic meters, outside the mutex so a *contended* attempt
    /// can be counted before the thread blocks on it.
    lock_acquisitions: AtomicU64,
    lock_contended: AtomicU64,
    /// Fault-injection state, outside the mutex so decisions (including
    /// injected panics) happen before it is taken and can never poison
    /// the cache core. `None` = fault-free (the default).
    faults: Option<FaultState>,
}

impl TrackCache {
    /// An empty cache: `capacity_tracks` resident tracks under `policy`
    /// over the tracks of `geometry`, every SP's head parked at cylinder
    /// 0.
    pub fn new(
        policy: PolicyKind,
        capacity_tracks: usize,
        geometry: Geometry,
        cost: CostModel,
    ) -> Self {
        let n_tracks = geometry.n_sps as usize * geometry.n_cylinders as usize;
        TrackCache {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            cost,
            n_sps: geometry.n_sps,
            n_cylinders: geometry.n_cylinders,
            resident: (0..n_tracks.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            inner: Mutex::new(CacheCore {
                policy: policy.build(capacity_tracks),
                heads: vec![0; geometry.n_sps as usize],
                stats: PagedStoreStats::default(),
                pools: Vec::new(),
            }),
            lock_acquisitions: AtomicU64::new(0),
            lock_contended: AtomicU64::new(0),
            faults: None,
        }
    }

    /// This cache with fault injection under `plan` (`None` = fault-free).
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan.map(FaultState::new);
        self
    }

    /// Take the cache mutex, metering acquisitions and contention.
    ///
    /// Recovers from poisoning: every critical section below keeps its
    /// counters and policy state self-consistent at each statement (no
    /// invariant spans a panic point), and injected [`FaultKind::Panic`]
    /// (crate::fault::FaultKind::Panic) fires before the mutex is taken
    /// — so a poisoned flag only means some *other* panic unwound a
    /// holder, and continuing with the data is sound.
    fn lock(&self) -> MutexGuard<'_, CacheCore> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.lock_contended.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
            }
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }

    /// Touch `track`, attributing the access to worker pool `pool` when
    /// given. A resident track with no fault plan is a lock-free hit,
    /// batched on the calling thread (see the module docs). Anything
    /// else takes one lock acquisition, which first applies the thread's
    /// batch and then covers the residency decision, the fault cost (seek
    /// if the SP's head moves, plus the track load) and the global and
    /// per-pool counters; the pool counter table grows on first use of
    /// each pool id.
    ///
    /// With no fault plan this never returns `Err`. With one, every touch
    /// takes the locked path, and the plan decides *before* the cache
    /// mutex is taken: an injected error consumes a touch-sequence number
    /// but leaves the replacement policy, head positions and hit/miss
    /// counters untouched (faults are metered separately), so the cache's
    /// golden traces are unchanged by the attempt. An injected latency
    /// spike lets the touch proceed and adds its extra ticks to the
    /// outcome's `fault_ticks` (stall-slept like any miss by
    /// latency-simulating callers) and to the spike meters.
    pub fn try_touch(
        &self,
        track: TrackId,
        pool: Option<usize>,
    ) -> Result<TouchOutcome, StoreError> {
        if self.faults.is_none() && self.is_resident(track) && self.defer_hit(track, pool) {
            return Ok(HIT);
        }
        let spike = match &self.faults {
            Some(f) => f.decide(track, pool)?,
            None => 0,
        };
        let mut state = self.lock();
        self.own_batch(|batch| self.apply(&mut state, batch));
        let mut outcome = match state.policy.access(track) {
            Touch::Hit => HIT,
            Touch::Miss { evicted } => {
                if let Some(victim) = evicted {
                    self.set_resident(victim, false);
                }
                self.set_resident(track, true);
                state.stats.misses += 1;
                state.stats.evictions += u64::from(evicted.is_some());
                // Seek the SP's head to the faulting cylinder, then load
                // the track. Evictions are free: clause data is never
                // mutated in place (the MVCC write path installs fresh
                // page versions instead), so every cached track is clean.
                let mut ticks = 0;
                let head = state.heads[track.sp as usize];
                if head != track.cylinder {
                    let distance = head.abs_diff(track.cylinder) as u64;
                    ticks += self.cost.seek_settle + distance * self.cost.seek_per_cylinder;
                    state.heads[track.sp as usize] = track.cylinder;
                }
                ticks += self.cost.track_load;
                state.stats.fault_ticks += ticks;
                TouchOutcome {
                    hit: false,
                    fault_ticks: ticks,
                    spike_ticks: 0,
                }
            }
        };
        if spike > 0 {
            // Spike ticks ride in `fault_ticks` (globally, per pool and
            // in the outcome, so stall sleeps include them) and are
            // additionally broken out in the spike meters.
            outcome.fault_ticks += spike;
            outcome.spike_ticks = spike;
            state.stats.fault_ticks += spike;
            state.stats.latency_spikes += 1;
            state.stats.latency_spike_ticks += spike;
        }
        state.count(&outcome, pool);
        Ok(outcome)
    }

    /// Where `track`'s residency bit lives; `None` outside the geometry
    /// (such a track is never batched).
    fn bit(&self, track: TrackId) -> Option<(usize, u64)> {
        (track.sp < self.n_sps && track.cylinder < self.n_cylinders).then(|| {
            let t = track.cylinder as usize * self.n_sps as usize + track.sp as usize;
            (t / 64, 1 << (t % 64))
        })
    }

    /// Whether `track` is resident. Lock-free, so a racing eviction may
    /// make the answer stale by the time the caller acts on it; exact
    /// under the mutex. `Relaxed` suffices: the bit publishes no data
    /// (clause bytes come from the caller's pinned version), and a stale
    /// answer only sends one touch down the other path.
    fn is_resident(&self, track: TrackId) -> bool {
        self.bit(track)
            .is_some_and(|(word, mask)| self.resident[word].load(Ordering::Relaxed) & mask != 0)
    }

    /// Mirror an admission or eviction. Called only under the mutex.
    fn set_resident(&self, track: TrackId, resident: bool) {
        if let Some((word, mask)) = self.bit(track) {
            if resident {
                self.resident[word].fetch_or(mask, Ordering::Relaxed);
            } else {
                self.resident[word].fetch_and(!mask, Ordering::Relaxed);
            }
        }
    }

    /// Queue a resident hit on this thread's batch, applying the batch
    /// when it fills. `false` if the thread has hits pending on another
    /// cache, so this touch must take the locked path.
    fn defer_hit(&self, track: TrackId, pool: Option<usize>) -> bool {
        HITS.try_with(|batch| {
            let mut batch = batch.borrow_mut();
            if batch.len > 0 && batch.cache != self.id {
                return false;
            }
            batch.cache = self.id;
            let at = batch.len;
            batch.hits[at] = (track, pool);
            batch.len += 1;
            if batch.len == BATCH {
                let mut state = self.lock();
                self.apply(&mut state, &mut batch);
            }
            true
        })
        .unwrap_or(false)
    }

    /// Apply `batch` (this cache's) to the policy and meters, oldest hit
    /// first, and empty it.
    fn apply(&self, state: &mut CacheCore, batch: &mut HitBatch) {
        for &(track, pool) in &batch.hits[..batch.len] {
            // A track another thread evicted after this one saw it
            // resident is skipped: the caller's hit stands, but
            // re-admitting the track now would invent a miss nobody made.
            if self.is_resident(track) {
                let touch = state.policy.access(track);
                debug_assert!(touch.is_hit(), "a resident track must hit");
            }
            state.count(&HIT, pool);
        }
        batch.len = 0;
    }

    /// Run `f` on the calling thread's batch if it holds hits on this
    /// cache.
    fn own_batch(&self, f: impl FnOnce(&mut HitBatch)) {
        let _ = HITS.try_with(|batch| {
            let mut batch = batch.borrow_mut();
            if batch.len > 0 && batch.cache == self.id {
                f(&mut batch);
            }
        });
    }

    /// Apply the calling thread's batched hits on this cache now (one
    /// lock acquisition, none if nothing is pending). Everything that
    /// ends a thread's use of the cache calls this: a dropped
    /// [`Snapshot`](crate::mvcc::Snapshot), a returning OR-parallel
    /// worker, and every counter read.
    pub fn flush(&self) {
        self.own_batch(|batch| self.apply(&mut self.lock(), batch));
    }

    /// The cost model faults are charged under.
    pub fn cost(&self) -> CostModel {
        self.cost
    }

    /// This pool's touch counters (zeros for a pool never seen).
    pub fn pool_stats(&self, pool: usize) -> PoolTouchStats {
        self.flush();
        let state = self.lock();
        state.pools.get(pool).copied().unwrap_or_default()
    }

    /// Lock-traffic meters: `(acquisitions, contended acquisitions)`,
    /// read without taking the cache mutex at all (or flushing), so the
    /// read never perturbs the contention it reports.
    pub fn lock_stats(&self) -> (u64, u64) {
        (
            self.lock_acquisitions.load(Ordering::Relaxed),
            self.lock_contended.load(Ordering::Relaxed),
        )
    }

    /// Counters so far (lock-traffic and fault meters folded in; the
    /// fold's own lock acquisition is included, matching the historical
    /// behavior, and so is the flush before it).
    pub fn stats(&self) -> PagedStoreStats {
        self.flush();
        let mut stats = self.lock().stats;
        (stats.lock_acquisitions, stats.lock_contended) = self.lock_stats();
        if let Some(f) = &self.faults {
            stats.transient_faults = f.transient_faults.load(Ordering::Relaxed);
            stats.permanent_faults = f.permanent_faults.load(Ordering::Relaxed);
        }
        stats
    }

    /// Reset counters — the cache's, plus the per-pool, lock-traffic and
    /// fault meters; resident tracks and head positions persist. The
    /// calling thread's batched hits are applied first, so they are
    /// counted before the reset, as if they had taken the lock. The
    /// fault plan's *schedule position* and damaged-track set persist
    /// too: resetting statistics does not repair the medium.
    pub fn reset_stats(&self) {
        let mut state = self.lock();
        self.own_batch(|batch| self.apply(&mut state, batch));
        state.stats = PagedStoreStats::default();
        state.pools.clear();
        self.lock_acquisitions.store(0, Ordering::Relaxed);
        self.lock_contended.store(0, Ordering::Relaxed);
        if let Some(f) = &self.faults {
            f.transient_faults.store(0, Ordering::Relaxed);
            f.permanent_faults.store(0, Ordering::Relaxed);
        }
    }

    /// Number of resident tracks.
    pub fn resident_tracks(&self) -> usize {
        self.flush();
        self.lock().policy.len()
    }
}

impl Drop for TrackCache {
    /// Discard the dropping thread's batch if it holds this cache's hits,
    /// so the thread's next cache is not pushed onto the locked path.
    fn drop(&mut self) {
        self.own_batch(|batch| batch.len = 0);
    }
}
