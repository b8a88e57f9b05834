//! The policy-driven track cache inside the paged clause store.
//!
//! [`MvccClauseStore`](crate::mvcc::MvccClauseStore) meters which
//! *tracks* are resident, what a fault costs under the SPD cost model,
//! and how much lock traffic the metering itself generates. [`TrackCache`]
//! is that substance — one mutex around a replacement policy, per-SP head
//! positions, global and per-pool touch counters, and lock meters kept
//! *outside* the mutex so a contended acquisition can be counted before
//! the thread blocks on it.
//!
//! Residency is tracked per [`TrackId`] only; the cache knows nothing
//! about clause data or page versions. That is what keeps MVCC cheap:
//! installing a new page version changes which *bytes* a fetch returns,
//! not which track it touches, so the replacement policy and every
//! golden trace fixture see the identical access stream either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

use blog_logic::StoreError;

use crate::fault::{FaultPlan, FaultState};
use crate::paged::{PagedStoreStats, PoolTouchStats, TouchOutcome, TrackId};
use crate::policy::{PolicyKind, PolicyStats, ReplacementPolicy};
use crate::timing::CostModel;

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

/// A policy-driven track cache with SPD cost accounting (see the module
/// docs). One of these sits inside every paged clause store.
#[derive(Debug)]
pub struct TrackCache {
    cost: CostModel,
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
    /// An empty cache: `capacity_tracks` resident tracks under `policy`,
    /// `n_sps` independent heads parked at cylinder 0.
    pub fn new(policy: PolicyKind, capacity_tracks: usize, n_sps: u32, cost: CostModel) -> Self {
        TrackCache {
            cost,
            inner: Mutex::new(CacheCore {
                policy: policy.build(capacity_tracks),
                heads: vec![0; n_sps as usize],
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

    /// Whether a fault plan is configured.
    pub fn has_fault_plan(&self) -> bool {
        self.faults.is_some()
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
    /// given. One lock acquisition covers the residency decision, the
    /// fault cost (seek if the SP's head moves, plus the track load) and
    /// both counter sets; the pool counter table grows on first use of
    /// each pool id.
    ///
    /// With no fault plan this never returns `Err`. With one, the plan
    /// decides *before* the cache mutex is taken: an injected error
    /// consumes a touch-sequence number but leaves the replacement
    /// policy, head positions and hit/miss counters untouched (faults
    /// are metered separately), so the cache's golden traces are
    /// unchanged by the attempt. An injected latency spike lets the
    /// touch proceed and adds its extra ticks to the outcome's
    /// `fault_ticks` (stall-slept like any miss by latency-simulating
    /// callers) and to the spike meters.
    pub fn try_touch(
        &self,
        track: TrackId,
        pool: Option<usize>,
    ) -> Result<TouchOutcome, StoreError> {
        let spike = match &self.faults {
            Some(f) => f.decide(track, pool)?,
            None => 0,
        };
        let mut state = self.lock();
        state.stats.accesses += 1;
        let mut outcome = match state.policy.access(track) {
            crate::lru::Touch::Hit => {
                state.stats.hits += 1;
                TouchOutcome {
                    hit: true,
                    fault_ticks: 0,
                    spike_ticks: 0,
                }
            }
            crate::lru::Touch::Miss { evicted } => {
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
        if let Some(p) = pool {
            if state.pools.len() <= p {
                state.pools.resize(p + 1, PoolTouchStats::default());
            }
            let slot = &mut state.pools[p];
            slot.accesses += 1;
            slot.hits += u64::from(outcome.hit);
            slot.misses += u64::from(!outcome.hit);
            slot.fault_ticks += outcome.fault_ticks;
        }
        Ok(outcome)
    }

    /// The cost model faults are charged under.
    pub fn cost(&self) -> CostModel {
        self.cost
    }

    /// The policy's own counters (a second view over the same accesses
    /// [`stats`](Self::stats) meters, minus the cost-model fields).
    pub fn policy_stats(&self) -> PolicyStats {
        self.lock().policy.stats()
    }

    /// This pool's touch counters (zeros for a pool never seen).
    pub fn pool_stats(&self, pool: usize) -> PoolTouchStats {
        let state = self.lock();
        state.pools.get(pool).copied().unwrap_or_default()
    }

    /// Lock-traffic meters: `(acquisitions, contended acquisitions)`,
    /// read without taking the cache mutex at all, so the read never
    /// perturbs the contention it reports.
    pub fn lock_stats(&self) -> (u64, u64) {
        (
            self.lock_acquisitions.load(Ordering::Relaxed),
            self.lock_contended.load(Ordering::Relaxed),
        )
    }

    /// Counters so far (lock-traffic and fault meters folded in; the
    /// fold's own lock acquisition is included, matching the historical
    /// behavior).
    pub fn stats(&self) -> PagedStoreStats {
        let mut stats = self.lock().stats;
        (stats.lock_acquisitions, stats.lock_contended) = self.lock_stats();
        if let Some(f) = &self.faults {
            stats.transient_faults = f.transient_faults.load(Ordering::Relaxed);
            stats.permanent_faults = f.permanent_faults.load(Ordering::Relaxed);
        }
        stats
    }

    /// Reset counters — the cache's and the policy's, which stay two
    /// views over the same accesses, plus the per-pool, lock-traffic and
    /// fault meters; resident tracks and head positions persist. The
    /// fault plan's *schedule position* and damaged-track set persist
    /// too: resetting statistics does not repair the medium.
    pub fn reset_stats(&self) {
        let mut state = self.lock();
        state.stats = PagedStoreStats::default();
        state.pools.clear();
        *state.policy.stats_mut() = PolicyStats::default();
        self.lock_acquisitions.store(0, Ordering::Relaxed);
        self.lock_contended.store(0, Ordering::Relaxed);
        if let Some(f) = &self.faults {
            f.transient_faults.store(0, Ordering::Relaxed);
            f.permanent_faults.store(0, Ordering::Relaxed);
        }
    }

    /// Number of resident tracks.
    pub fn resident_tracks(&self) -> usize {
        self.lock().policy.len()
    }
}
