//! The paged clause store's value types: what configures it and what it
//! reports.
//!
//! The paper's §6 keeps clauses on semantic paging disks and faults them
//! in through a track cache as the search touches them. In this crate
//! that is one store, [`MvccClauseStore`](crate::mvcc::MvccClauseStore),
//! read through epoch-pinned [`Snapshot`](crate::mvcc::Snapshot)s — a
//! store nobody writes to is simply one that stays at epoch 0 — over one
//! [`TrackCache`](crate::cache::TrackCache). This module holds the plain
//! data both share: the [`TrackId`] a clause's block address maps to, the
//! [`PagedStoreConfig`] a store is built from, and the counters
//! ([`PagedStoreStats`], [`PoolTouchStats`], [`TouchOutcome`]) the cache
//! meters every touch into.
//!
//! Clauses are laid out with the same placement rule as
//! [`SpdArray`](crate::spd::SpdArray) (one block per clause, round-robin
//! over slots, SPs, and cylinders). Every unification attempt touches the
//! candidate clause's track: a resident track is a **hit**; a miss
//! charges the cost model for the seek and track load and may **evict** a
//! resident track, chosen by the configured
//! [`ReplacementPolicy`](crate::policy::ReplacementPolicy) (LRU by
//! default; see [`PolicyKind`] for the scan-resistant 2Q). Paging is
//! semantically transparent: searches return exactly the solutions the
//! in-memory database yields, while the store reports the
//! hit/miss/eviction behavior of the access pattern the search actually
//! generated. The integration tests in
//! `tests/paged_store.rs` assert both halves of that claim.

use serde::Serialize;

use crate::bitidx::IndexPolicy;
use crate::fault::FaultPlan;
use crate::policy::PolicyKind;
use crate::timing::{CostModel, Geometry};

/// Identity of one track: the unit of caching (and of disk transfer).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize)]
pub struct TrackId {
    /// Search processor (surface) index.
    pub sp: u32,
    /// Cylinder index.
    pub cylinder: u32,
}

/// Configuration for a paged clause store.
#[derive(Clone, Debug, Serialize)]
pub struct PagedStoreConfig {
    /// Disk layout; `blocks_per_track` is the page size in clauses.
    pub geometry: Geometry,
    /// Tick costs charged on track faults.
    pub cost: CostModel,
    /// Cache capacity in resident tracks.
    pub capacity_tracks: usize,
    /// Replacement algorithm deciding which track a fault evicts.
    pub policy: PolicyKind,
    /// Candidate-selection policy (first-argument clause index by
    /// default; `None` is the scan-everything baseline).
    pub index: IndexPolicy,
    /// Deterministic fault-injection schedule (`None` — the default —
    /// is a fault-free store; see [`FaultPlan`]).
    pub fault: Option<FaultPlan>,
}

impl Default for PagedStoreConfig {
    fn default() -> Self {
        PagedStoreConfig {
            geometry: Geometry::default(),
            cost: CostModel::default(),
            capacity_tracks: 8,
            policy: PolicyKind::Lru,
            index: IndexPolicy::default(),
            fault: None,
        }
    }
}

impl PagedStoreConfig {
    /// This configuration with a different replacement policy.
    pub fn with_policy(self, policy: PolicyKind) -> Self {
        PagedStoreConfig { policy, ..self }
    }

    /// This configuration with a different candidate-selection policy.
    pub fn with_index(self, index: IndexPolicy) -> Self {
        PagedStoreConfig { index, ..self }
    }

    /// This configuration with a fault-injection schedule.
    pub fn with_fault(self, fault: Option<FaultPlan>) -> Self {
        PagedStoreConfig { fault, ..self }
    }
}

/// Counters for one store's lifetime (or since the last reset).
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct PagedStoreStats {
    /// Clause fetches routed through the cache.
    pub accesses: u64,
    /// Fetches whose track was resident.
    pub hits: u64,
    /// Fetches that faulted a track in.
    pub misses: u64,
    /// Tracks evicted to make room.
    pub evictions: u64,
    /// Simulated ticks spent on faults (seeks plus track loads).
    pub fault_ticks: u64,
    /// Times the cache mutex was taken: every miss, flush of a thread's
    /// batched hits, stat read or reset is one acquisition; a resident
    /// hit takes none.
    pub lock_acquisitions: u64,
    /// Acquisitions that found the mutex held by another thread and had
    /// to block. With a single accessor this is structurally zero; under
    /// a serving fleet the `contended / acquisitions` ratio attributes
    /// slowdowns to store contention rather than scheduling.
    pub lock_contended: u64,
    /// `try_candidate_clauses` calls resolved through the first-argument
    /// clause index (zero under [`IndexPolicy::None`] and for goals
    /// whose first argument was unbound).
    pub index_hits: u64,
    /// Candidates the index removed versus the full predicate range —
    /// unification attempts (and their clause touches) that never
    /// happened.
    pub index_prunes: u64,
    /// Candidates actually handed to engines, under either policy.
    pub candidates_scanned: u64,
    /// Injected transient read faults (the touch failed but a retry may
    /// succeed). Zero without a [`FaultPlan`].
    pub transient_faults: u64,
    /// Injected permanent track faults, including every touch of an
    /// already-damaged track. Zero without a [`FaultPlan`].
    pub permanent_faults: u64,
    /// Touches an injected latency spike slowed down (the touch itself
    /// succeeded).
    pub latency_spikes: u64,
    /// Extra ticks those spikes charged — also included in
    /// [`fault_ticks`](Self::fault_ticks), so stall accounting needs no
    /// special case.
    pub latency_spike_ticks: u64,
}

impl PagedStoreStats {
    /// Hit rate in `[0, 1]` (zero when nothing was accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses as f64
    }

    /// Every counter (plus the derived hit rate) as one JSON object.
    pub fn to_json(&self) -> blog_obs::Json {
        use blog_obs::Json;
        Json::Obj(vec![
            ("accesses".into(), Json::int(self.accesses)),
            ("hits".into(), Json::int(self.hits)),
            ("misses".into(), Json::int(self.misses)),
            ("evictions".into(), Json::int(self.evictions)),
            ("fault_ticks".into(), Json::int(self.fault_ticks)),
            (
                "lock_acquisitions".into(),
                Json::int(self.lock_acquisitions),
            ),
            ("lock_contended".into(), Json::int(self.lock_contended)),
            ("index_hits".into(), Json::int(self.index_hits)),
            ("index_prunes".into(), Json::int(self.index_prunes)),
            (
                "candidates_scanned".into(),
                Json::int(self.candidates_scanned),
            ),
            ("transient_faults".into(), Json::int(self.transient_faults)),
            ("permanent_faults".into(), Json::int(self.permanent_faults)),
            ("latency_spikes".into(), Json::int(self.latency_spikes)),
            (
                "latency_spike_ticks".into(),
                Json::int(self.latency_spike_ticks),
            ),
            ("hit_rate".into(), Json::Num(self.hit_rate())),
        ])
    }
}

/// Per-pool slice of the store's touch counters, so a multi-pool server
/// over **one** shared cache can still attribute hits and faults to the
/// worker pool (and therefore to the session mix) that generated them.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct PoolTouchStats {
    /// Clause fetches this pool routed through the cache.
    pub accesses: u64,
    /// Fetches of this pool whose track was resident.
    pub hits: u64,
    /// Fetches of this pool that faulted a track in.
    pub misses: u64,
    /// Simulated fault ticks charged to this pool's fetches.
    pub fault_ticks: u64,
}

impl PoolTouchStats {
    /// Hit rate in `[0, 1]` (zero when nothing was accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses as f64
    }
}

/// Outcome of one accounted clause touch.
#[derive(Clone, Copy, Debug)]
pub struct TouchOutcome {
    /// Whether the clause's track was resident.
    pub hit: bool,
    /// Ticks charged for the fault (zero on a hit) — seek plus track
    /// load. A latency-simulating caller (a
    /// [`Snapshot`](crate::mvcc::Snapshot) built
    /// [`with_stall`](crate::mvcc::Snapshot::with_stall)) converts these
    /// into a real sleep.
    pub fault_ticks: u64,
    /// The slice of [`fault_ticks`](Self::fault_ticks) an injected
    /// latency spike contributed (zero without a [`FaultPlan`]), so
    /// tracing callers can
    /// tell a cold-cache miss from an injected slowdown.
    pub spike_ticks: u64,
}

/// What the types above mean, pinned by driving their two consumers:
/// [`TrackCache::try_touch`](crate::cache::TrackCache::try_touch) for the
/// counters, an epoch-0 [`Snapshot`](crate::mvcc::Snapshot) for the
/// configuration.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::TrackCache;
    use crate::mvcc::{CommitMode, MvccClauseStore};
    use blog_logic::{parse_program, ClauseId, ClauseSource};

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    /// Clauses in [`FAMILY`].
    const N_CLAUSES: u32 = 12;

    fn small_config(capacity_tracks: usize) -> PagedStoreConfig {
        // Index pinned off: these tests are about paging, and the
        // baseline keeps their counters policy-independent.
        PagedStoreConfig {
            geometry: Geometry {
                n_sps: 2,
                n_cylinders: 8,
                blocks_per_track: 2,
            },
            cost: CostModel::default(),
            capacity_tracks,
            policy: PolicyKind::Lru,
            index: IndexPolicy::None,
            fault: None,
        }
    }

    fn store(p: &blog_logic::Program, cfg: PagedStoreConfig) -> MvccClauseStore {
        MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc)
    }

    /// The bare cache a store built from `cfg` would hold.
    fn cache(cfg: &PagedStoreConfig) -> TrackCache {
        TrackCache::new(cfg.policy, cfg.capacity_tracks, cfg.geometry, cfg.cost)
            .with_faults(cfg.fault.clone())
    }

    /// The track clause `i` lands on under [`small_config`]'s geometry.
    fn track(i: u32) -> TrackId {
        let addr = small_config(1).geometry.addr_of_index(i);
        TrackId {
            sp: addr.sp,
            cylinder: addr.cylinder,
        }
    }

    #[test]
    fn placement_matches_spd_array() {
        let p = parse_program(FAMILY).unwrap();
        let cfg = small_config(4);
        let store = store(&p, cfg.clone());
        let weights =
            blog_core::weight::WeightStore::new(blog_core::weight::WeightParams::default());
        let (spd, layout) = crate::bridge::build_spd_from_db(
            &p.db,
            &weights,
            cfg.geometry,
            cfg.cost,
            crate::spd::SpMode::Simd,
        );
        for i in 0..p.db.len() {
            let cid = ClauseId(i as u32);
            let addr = spd.addr(layout.block_of(cid));
            assert_eq!(cfg.geometry.addr_of_index(cid.0), addr);
            assert_eq!(
                store.track_of(cid),
                TrackId {
                    sp: addr.sp,
                    cylinder: addr.cylinder
                }
            );
        }
    }

    #[test]
    fn same_track_hits_other_track_faults() {
        let cache = cache(&small_config(4));
        // Clauses 0 and 1 share track (sp 0, cyl 0) with blocks_per_track=2.
        assert!(!cache.try_touch(track(0), None).unwrap().hit);
        assert!(cache.try_touch(track(1), None).unwrap().hit);
        assert!(!cache.try_touch(track(2), None).unwrap().hit);
        let s = cache.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 0);
        assert!(s.fault_ticks >= 2 * CostModel::default().track_load);
    }

    #[test]
    fn capacity_bounds_residency_and_counts_evictions() {
        let cache = cache(&small_config(1));
        for i in 0..N_CLAUSES {
            cache.try_touch(track(i), None).unwrap();
        }
        assert_eq!(cache.resident_tracks(), 1);
        let s = cache.stats();
        assert!(s.evictions > 0, "single-track cache must evict: {s:?}");
    }

    #[test]
    fn fetch_returns_backing_clause() {
        let p = parse_program(FAMILY).unwrap();
        let store = store(&p, small_config(2));
        let snap = store.begin_read();
        for i in 0..p.db.len() {
            let cid = ClauseId(i as u32);
            assert_eq!(
                snap.try_fetch_clause(cid).unwrap().head,
                p.db.clause(cid).head
            );
        }
        assert_eq!(store.stats().accesses, p.db.len() as u64);
    }

    #[test]
    fn reset_stats_keeps_residency() {
        let cache = cache(&small_config(2));
        cache.try_touch(track(0), None).unwrap();
        cache.reset_stats();
        assert_eq!(cache.stats().accesses, 0);
        assert_eq!(cache.resident_tracks(), 1);
        assert!(
            cache.try_touch(track(0), None).unwrap().hit,
            "reset keeps residency"
        );
    }

    #[test]
    fn every_policy_bounds_residency_and_meters_accesses() {
        let p = parse_program(FAMILY).unwrap();
        for policy in PolicyKind::ALL {
            let cfg = small_config(2).with_policy(policy);
            assert_eq!(store(&p, cfg.clone()).policy_kind(), policy);
            let cache = cache(&cfg);
            for _ in 0..3 {
                for i in 0..N_CLAUSES {
                    cache.try_touch(track(i), None).unwrap();
                }
            }
            assert!(cache.resident_tracks() <= 2, "{policy}");
            let s = cache.stats();
            assert_eq!(s.accesses, 3 * u64::from(N_CLAUSES), "{policy}");
            assert_eq!(s.hits + s.misses, s.accesses, "{policy}");
            // Every miss admitted a track; each eviction made room for one.
            assert_eq!(
                s.misses,
                cache.resident_tracks() as u64 + s.evictions,
                "{policy}"
            );
        }
    }

    #[test]
    fn source_stats_surface_matches_store_stats() {
        let p = parse_program(FAMILY).unwrap();
        let store = store(&p, small_config(2).with_policy(PolicyKind::TwoQ));
        let snap = store.begin_read();
        assert_eq!(snap.backend_name(), "mvcc/2q");
        for i in 0..p.db.len() {
            snap.try_fetch_clause(ClauseId(i as u32)).unwrap();
        }
        let s = store.stats();
        let src = snap.source_stats().expect("paged store meters fetches");
        assert_eq!(src.accesses, s.accesses);
        assert_eq!(src.hits, s.hits);
        assert_eq!(src.misses, s.misses);
        assert!(s.evictions > 0, "six tracks through two slots: {s:?}");
        assert_eq!(src.evictions, s.evictions, "untagged: store-wide");
        assert_eq!(src.hit_rate(), s.hit_rate());
    }

    #[test]
    fn pool_snapshots_split_the_shared_counters() {
        let p = parse_program(FAMILY).unwrap();
        let store = store(&p, small_config(1));
        let v0 = store.begin_read().for_pool(0);
        let v1 = store.begin_read().for_pool(1);
        // Pool 0 faults the track in; pool 1 then hits the SAME cache.
        v0.try_fetch_clause(ClauseId(0)).unwrap();
        v1.try_fetch_clause(ClauseId(0)).unwrap();
        v1.try_fetch_clause(ClauseId(1)).unwrap();
        // ... and pool 0's next fault evicts it from the one-track cache.
        v0.try_fetch_clause(ClauseId(2)).unwrap();
        let s0 = v0.touch_stats();
        let s1 = v1.touch_stats();
        assert_eq!((s0.accesses, s0.hits, s0.misses), (2, 0, 2));
        assert_eq!(
            (s1.accesses, s1.hits, s1.misses),
            (2, 2, 0),
            "warm via pool 0"
        );
        let total = store.stats();
        assert_eq!(total.accesses, 4);
        assert_eq!(total.hits, s0.hits + s1.hits);
        assert_eq!(total.misses, s0.misses + s1.misses);
        assert_eq!(total.fault_ticks, s0.fault_ticks + s1.fault_ticks);
        assert_eq!(total.evictions, 1);
        assert_eq!(v1.backend_name(), "mvcc/lru/pool1");
        let src = v1.source_stats().unwrap();
        assert_eq!((src.accesses, src.hits), (2, 2));
        // An eviction belongs to no pool.
        assert_eq!(v0.source_stats().unwrap().evictions, 0);
        assert_eq!(src.evictions, 0);
    }

    #[test]
    fn untouched_pool_reports_zeros() {
        let s = cache(&small_config(4)).pool_stats(7);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn lock_meter_counts_acquisitions_and_resets() {
        let cache = cache(&small_config(4));
        cache.try_touch(track(0), Some(0)).unwrap();
        cache.try_touch(track(1), Some(0)).unwrap();
        let s = cache.stats();
        // The miss, the flush of the batched hit, and the stats() read.
        assert_eq!(s.lock_acquisitions, 3);
        assert_eq!(s.lock_contended, 0, "single thread never contends");
        let (acq, cont) = cache.lock_stats();
        assert_eq!((acq, cont), (3, 0), "lock_stats reads without locking");
        cache.reset_stats();
        let s = cache.stats();
        assert_eq!(s.lock_acquisitions, 1, "just the stats() read");
        assert_eq!(cache.pool_stats(0).accesses, 0, "pool meters reset too");
    }

    #[test]
    fn shared_store_is_concurrency_safe_and_exact() {
        // N threads hammer one store through per-pool snapshots; the
        // global counters must balance exactly and residency stay bounded.
        let p = parse_program(FAMILY).unwrap();
        let store = store(&p, small_config(2));
        let n_threads = 4;
        let rounds = 50;
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let store = &store;
                let db = &p.db;
                scope.spawn(move || {
                    let view = store.begin_read().for_pool(t);
                    for r in 0..rounds {
                        for i in 0..db.len() {
                            // Offset start per thread/round to vary interleaving.
                            let cid = ClauseId(((i + t + r) % db.len()) as u32);
                            view.try_fetch_clause(cid).unwrap();
                        }
                    }
                });
            }
        });
        let expected = (n_threads * rounds * p.db.len()) as u64;
        let s = store.stats();
        assert_eq!(s.accesses, expected);
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(store.resident_tracks() <= 2);
        let per_pool: u64 = (0..n_threads).map(|t| store.pool_stats(t).accesses).sum();
        assert_eq!(per_pool, expected, "every access attributed to a pool");
        // A lock is a miss, a full batch of 64 hits, a thread's last
        // flush (its snapshot's drop) or this stats read, or a touch that
        // saw its track absent and, having waited for the lock, found it
        // admitted by another thread's miss: a contended hit.
        assert!(
            s.lock_acquisitions
                <= s.misses + s.lock_contended + expected / 64 + n_threads as u64 + 2
        );
    }

    #[test]
    fn stalling_view_sleeps_on_faults_only() {
        let p = parse_program(FAMILY).unwrap();
        let store = store(&p, small_config(4));
        // ~1µs per tick; a default-cost fault is >= track_load ticks.
        let view = store.begin_read().for_pool(0).with_stall(1_000);
        let t0 = std::time::Instant::now();
        view.try_fetch_clause(ClauseId(0)).unwrap();
        let fault_elapsed = t0.elapsed();
        let ticks = view.touch_stats().fault_ticks;
        assert!(ticks > 0);
        assert!(
            fault_elapsed >= std::time::Duration::from_nanos(ticks * 1_000),
            "fault must stall: {fault_elapsed:?} for {ticks} ticks"
        );
        // Hits never stall (can't assert an upper bound on a loaded box,
        // but the accounting must show zero new fault ticks).
        view.try_fetch_clause(ClauseId(0)).unwrap();
        assert_eq!(view.touch_stats().fault_ticks, ticks);
    }

    #[test]
    fn indexed_store_narrows_and_meters_candidates() {
        let p = parse_program(FAMILY).unwrap();
        let baseline = store(&p, small_config(4));
        let indexed = store(&p, small_config(4).with_index(IndexPolicy::FirstArg));
        assert_eq!(baseline.index_policy(), IndexPolicy::None);
        assert_eq!(indexed.index_policy(), IndexPolicy::FirstArg);

        let mut db = p.db.clone();
        let query = blog_logic::parse_query(&mut db, "f(sam,Q)").unwrap();
        let goal = &query.goals[0];
        let bindings = blog_logic::Bindings::new();

        let (base_snap, idx_snap) = (baseline.begin_read(), indexed.begin_read());
        let full = base_snap.try_candidate_clauses(goal, &bindings).unwrap();
        let narrowed = idx_snap.try_candidate_clauses(goal, &bindings).unwrap();
        assert_eq!(full.len(), 6, "f/2 has six clauses");
        assert_eq!(*narrowed, [ClauseId(3)], "only f(sam,larry) can match");

        let bs = baseline.stats();
        assert_eq!((bs.index_hits, bs.index_prunes), (0, 0));
        assert_eq!(bs.candidates_scanned, 6);
        let is = indexed.stats();
        assert_eq!(
            (is.index_hits, is.index_prunes, is.candidates_scanned),
            (1, 5, 1)
        );
        // Selection itself never touches a page.
        assert_eq!(is.accesses, 0);

        indexed.reset_stats();
        let is = indexed.stats();
        assert_eq!(
            (is.index_hits, is.index_prunes, is.candidates_scanned),
            (0, 0, 0)
        );
    }

    #[test]
    fn indexed_store_falls_back_when_first_arg_unbound() {
        let p = parse_program(FAMILY).unwrap();
        let indexed = store(&p, small_config(4).with_index(IndexPolicy::FirstArg));
        let mut db = p.db.clone();
        let query = blog_logic::parse_query(&mut db, "f(X,Y)").unwrap();
        let got = indexed
            .begin_read()
            .try_candidate_clauses(&query.goals[0], &blog_logic::Bindings::new())
            .unwrap()
            .len();
        assert_eq!(got, 6, "unbound first arg sees every f/2 clause");
        let s = indexed.stats();
        assert_eq!(s.index_hits, 0, "fallback is not an index hit");
        assert_eq!(s.candidates_scanned, 6);
    }

    #[test]
    fn fault_plan_surfaces_typed_errors_and_meters_them() {
        use crate::fault::{FaultPlan, FaultSite};
        let cfg = small_config(4).with_fault(Some(FaultPlan::transient(17, 1.0)));
        let cache = cache(&cfg);
        let err = cache.try_touch(track(0), None).unwrap_err();
        assert!(err.is_transient());
        let s = cache.stats();
        assert_eq!(s.transient_faults, 1);
        // A faulted touch is not an access: the policy never saw it.
        assert_eq!(s.accesses, 0);
        assert_eq!(cache.resident_tracks(), 0);

        // Permanent damage sticks across retries, and a snapshot hands
        // the cache's error to its caller unchanged.
        let p = parse_program(FAMILY).unwrap();
        let cfg = small_config(4).with_fault(Some(
            FaultPlan::new(3).with_site(FaultSite::permanent_track(1.0).between(0, 1)),
        ));
        let store = store(&p, cfg);
        let snap = store.begin_read();
        assert!(!snap
            .try_fetch_clause(ClauseId(0))
            .unwrap_err()
            .is_transient());
        assert!(!snap
            .try_fetch_clause(ClauseId(0))
            .unwrap_err()
            .is_transient());
        assert_eq!(store.stats().permanent_faults, 2);
    }

    #[test]
    fn latency_spike_charges_ticks_but_succeeds() {
        use crate::fault::{FaultPlan, FaultSite};
        let cfg = small_config(4).with_fault(Some(
            FaultPlan::new(1).with_site(FaultSite::latency_spike(1.0, 500)),
        ));
        let cache = cache(&cfg);
        let out = cache.try_touch(track(0), Some(0)).unwrap();
        assert!(out.fault_ticks >= 500, "spike ticks flow into the outcome");
        let s = cache.stats();
        assert_eq!(s.latency_spikes, 1);
        assert_eq!(s.latency_spike_ticks, 500);
        assert_eq!(s.accesses, 1, "a spiked touch still counts as an access");
        assert_eq!(s.transient_faults + s.permanent_faults, 0);
        // Pool attribution includes the spike, and global fault_ticks
        // still balances against the per-pool sum.
        assert_eq!(cache.pool_stats(0).fault_ticks, s.fault_ticks);
    }

    #[test]
    fn fault_free_config_never_errors_through_the_fallible_surface() {
        let p = parse_program(FAMILY).unwrap();
        let store = store(&p, small_config(2));
        let snap = store.begin_read();
        for i in 0..p.db.len() {
            assert!(snap.try_fetch_clause(ClauseId(i as u32)).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_geometry_rejected() {
        let p = parse_program(FAMILY).unwrap();
        let _ = store(
            &p,
            PagedStoreConfig {
                geometry: Geometry {
                    n_sps: 1,
                    n_cylinders: 1,
                    blocks_per_track: 2,
                },
                ..PagedStoreConfig::default()
            },
        );
    }
}
