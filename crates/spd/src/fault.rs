//! Deterministic storage fault injection for the paged backends.
//!
//! The paper's knowledge base lives on a physical disk surface, and real
//! surfaces fail: reads drop, tracks go bad, seeks stall. A [`FaultPlan`]
//! makes those failures an *input* to the system — a seeded schedule of
//! per-site fault rates evaluated on every track touch — so the serving
//! layer's retry/breaker machinery can be exercised and measured
//! reproducibly (`tests/prop_fault_equivalence.rs` holds the server's
//! answers under any transient plan to the fault-free oracle's) instead
//! of waiting for real hardware to misbehave.
//!
//! Determinism contract: a fault decision is a pure function of the plan
//! (seed + sites) and the *touch sequence number*, a single atomic
//! counter the cache advances on every touch regardless of outcome. Two
//! runs that issue the same touch sequence see the same faults; a retry
//! consumes a fresh sequence number, which is exactly what makes
//! transient faults survivable.
//!
//! Fault taxonomy (see [`FaultKind`]):
//!
//! - **Transient read** — this touch fails, the next may succeed.
//!   Surfaces as [`StoreError::transient`]; the serving layer retries.
//! - **Permanent track** — the touched track is *damaged*: recorded in a
//!   damage set, every later touch of that track fails permanently.
//!   Surfaces as [`StoreError::permanent`]; retrying is useless and the
//!   serving layer fails the request instead.
//! - **Latency spike** — the touch succeeds but is charged extra fault
//!   ticks (a long seek, a marginal head settle), which flow into the
//!   same stall-sleep plumbing as ordinary cache-miss ticks.
//! - **Panic** — the touch panics, modeling a crashed worker. The
//!   decision fires *before* the cache mutex is taken, so an injected
//!   panic can never poison the shared cache state it never touched.
//!
//! Faulted touches leave the replacement policy, head positions and
//! hit/miss counters untouched — the golden trace fixtures see the
//! identical access stream whether or not a plan is configured — and are
//! metered separately in
//! [`PagedStoreStats`](crate::paged::PagedStoreStats).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use blog_logic::StoreError;
use blog_obs::splitmix64;
use serde::Serialize;

use crate::paged::TrackId;

/// What an injected fault does to the touch it fires on.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum FaultKind {
    /// The read fails this time; a retry draws a fresh decision.
    TransientRead,
    /// The touched track is damaged for the rest of the run: this touch
    /// and every later touch of the same track fail permanently.
    PermanentTrack,
    /// The touch succeeds but is charged `extra_ticks` additional fault
    /// ticks (stall-slept like any miss by latency-simulating views).
    LatencySpike {
        /// Extra simulated ticks charged to the touch.
        extra_ticks: u64,
    },
    /// The touch panics, modeling a worker crash mid-request. Fires
    /// before any lock is taken, so shared state is never poisoned.
    Panic,
}

/// Which touches a fault site applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum FaultScope {
    /// Every touch, whoever issues it.
    Any,
    /// Only touches attributed to this worker pool — models one pool's
    /// path to the disk going sick (drives the circuit breaker).
    Pool(usize),
    /// Only touches of tracks on this search processor (surface).
    Sp(u32),
}

impl FaultScope {
    fn matches(&self, track: TrackId, pool: Option<usize>) -> bool {
        match *self {
            FaultScope::Any => true,
            FaultScope::Pool(p) => pool == Some(p),
            FaultScope::Sp(sp) => track.sp == sp,
        }
    }
}

/// One fault source: a kind, a scope, a firing rate, and an activity
/// window in touch sequence numbers.
#[derive(Clone, Debug, Serialize)]
pub struct FaultSite {
    /// What happens when the site fires.
    pub kind: FaultKind,
    /// Which touches the site considers.
    pub scope: FaultScope,
    /// Probability in `[0, 1]` that the site fires on a considered
    /// touch (`1.0` fires on every one — a hard outage window).
    pub rate: f64,
    /// First touch sequence number the site is active at.
    pub from_access: u64,
    /// First touch sequence number the site is *no longer* active at
    /// (`u64::MAX` = active forever).
    pub until_access: u64,
}

impl FaultSite {
    fn new(kind: FaultKind, rate: f64) -> Self {
        FaultSite {
            kind,
            scope: FaultScope::Any,
            rate,
            from_access: 0,
            until_access: u64::MAX,
        }
    }

    /// A transient read fault firing at `rate`.
    pub fn transient_read(rate: f64) -> Self {
        FaultSite::new(FaultKind::TransientRead, rate)
    }

    /// A permanent track fault firing at `rate`.
    pub fn permanent_track(rate: f64) -> Self {
        FaultSite::new(FaultKind::PermanentTrack, rate)
    }

    /// A latency spike of `extra_ticks` firing at `rate`.
    pub fn latency_spike(rate: f64, extra_ticks: u64) -> Self {
        FaultSite::new(FaultKind::LatencySpike { extra_ticks }, rate)
    }

    /// An injected panic firing at `rate`.
    pub fn panic(rate: f64) -> Self {
        FaultSite::new(FaultKind::Panic, rate)
    }

    /// Restrict this site to touches attributed to worker pool `p`.
    pub fn for_pool(mut self, p: usize) -> Self {
        self.scope = FaultScope::Pool(p);
        self
    }

    /// Restrict this site to tracks on search processor `sp`.
    pub fn for_sp(mut self, sp: u32) -> Self {
        self.scope = FaultScope::Sp(sp);
        self
    }

    /// Restrict this site to the touch-sequence window `[from, until)`.
    pub fn between(mut self, from: u64, until: u64) -> Self {
        self.from_access = from;
        self.until_access = until;
        self
    }
}

/// A deterministic fault schedule: a seed plus any number of sites.
///
/// Configured under
/// [`PagedStoreConfig::fault`](crate::paged::PagedStoreConfig) (and
/// overridable per server via `ServeConfig`); evaluated by the shared
/// [`TrackCache`](crate::cache::TrackCache) on every touch.
#[derive(Clone, Debug, Default, Serialize)]
pub struct FaultPlan {
    /// Seed mixed into every decision; two plans differing only in seed
    /// fault *different* touches at the *same* rates.
    pub seed: u64,
    /// Fault sources, evaluated in order; the first that fires wins.
    pub sites: Vec<FaultSite>,
}

impl FaultPlan {
    /// An empty plan (no sites — injects nothing) with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: Vec::new(),
        }
    }

    /// This plan with `site` appended.
    pub fn with_site(mut self, site: FaultSite) -> Self {
        self.sites.push(site);
        self
    }

    /// Convenience: a plan with a single always-on transient-read site.
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultPlan::new(seed).with_site(FaultSite::transient_read(rate))
    }
}

/// A uniform draw in `[0, 1)` determined by `(seed, site, seq)`.
fn draw(seed: u64, site: usize, seq: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(site as u64 ^ splitmix64(seq)));
    // 53 mantissa bits, exactly representable.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Runtime fault state owned by a [`TrackCache`](crate::cache::TrackCache):
/// the immutable plan plus the touch-sequence counter, the damage set,
/// and fault meters (all outside the cache mutex — decisions happen
/// before it is taken).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Touch sequence counter; advanced on *every* touch, faulted or
    /// not, so the schedule is positional and retries draw fresh.
    seq: AtomicU64,
    /// Tracks a [`FaultKind::PermanentTrack`] site has damaged.
    damaged: Mutex<BTreeSet<TrackId>>,
    pub(crate) transient_faults: AtomicU64,
    pub(crate) permanent_faults: AtomicU64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            seq: AtomicU64::new(0),
            damaged: Mutex::new(BTreeSet::new()),
            transient_faults: AtomicU64::new(0),
            permanent_faults: AtomicU64::new(0),
        }
    }

    /// Tracks damaged so far (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn damaged_tracks(&self) -> usize {
        self.damaged_lock().len()
    }

    fn damaged_lock(&self) -> std::sync::MutexGuard<'_, BTreeSet<TrackId>> {
        // The set is only inserted into / probed; a panic between those
        // operations cannot leave it inconsistent, so poison is benign.
        self.damaged
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Decide the fate of one touch of `track` by `pool`.
    ///
    /// Returns the extra latency-spike ticks to charge (usually 0) or
    /// the injected [`StoreError`]; panics for [`FaultKind::Panic`].
    /// Called *before* the cache mutex is taken.
    pub(crate) fn decide(&self, track: TrackId, pool: Option<usize>) -> Result<u64, StoreError> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.damaged_lock().contains(&track) {
            self.permanent_faults.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::permanent(format!(
                "track sp{}/cyl{} damaged",
                track.sp, track.cylinder
            )));
        }
        let mut spike = 0u64;
        for (i, site) in self.plan.sites.iter().enumerate() {
            if seq < site.from_access || seq >= site.until_access {
                continue;
            }
            if !site.scope.matches(track, pool) {
                continue;
            }
            if draw(self.plan.seed, i, seq) >= site.rate {
                continue;
            }
            match site.kind {
                FaultKind::TransientRead => {
                    self.transient_faults.fetch_add(1, Ordering::Relaxed);
                    return Err(StoreError::transient(format!(
                        "injected read fault at sp{}/cyl{} (touch {seq})",
                        track.sp, track.cylinder
                    )));
                }
                FaultKind::PermanentTrack => {
                    self.damaged_lock().insert(track);
                    self.permanent_faults.fetch_add(1, Ordering::Relaxed);
                    return Err(StoreError::permanent(format!(
                        "track sp{}/cyl{} damaged (touch {seq})",
                        track.sp, track.cylinder
                    )));
                }
                FaultKind::LatencySpike { extra_ticks } => {
                    // Spikes stack if several sites fire; the touch
                    // still proceeds, so keep evaluating later sites.
                    spike += extra_ticks;
                }
                FaultKind::Panic => {
                    panic!(
                        "injected storage panic at sp{}/cyl{} (touch {seq})",
                        track.sp, track.cylinder
                    );
                }
            }
        }
        Ok(spike)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TrackId = TrackId { sp: 0, cylinder: 0 };

    #[test]
    fn empty_plan_injects_nothing() {
        let st = FaultState::new(FaultPlan::new(7));
        for _ in 0..1000 {
            assert_eq!(st.decide(T, None), Ok(0));
        }
        assert_eq!(st.transient_faults.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn decisions_are_deterministic_in_sequence() {
        let plan = FaultPlan::transient(42, 0.3);
        let a = FaultState::new(plan.clone());
        let b = FaultState::new(plan);
        for _ in 0..500 {
            assert_eq!(a.decide(T, Some(1)), b.decide(T, Some(1)));
        }
        assert!(a.transient_faults.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn rate_is_respected_roughly() {
        let st = FaultState::new(FaultPlan::transient(9, 0.25));
        let n = 10_000;
        let mut faults = 0;
        for _ in 0..n {
            faults += u32::from(st.decide(T, None).is_err());
        }
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn rate_one_fires_always_and_rate_zero_never() {
        let hot = FaultState::new(FaultPlan::transient(1, 1.0));
        let cold = FaultState::new(FaultPlan::transient(1, 0.0));
        for _ in 0..100 {
            assert!(hot.decide(T, None).is_err());
            assert_eq!(cold.decide(T, None), Ok(0));
        }
    }

    #[test]
    fn window_bounds_the_site() {
        let plan = FaultPlan::new(3).with_site(FaultSite::transient_read(1.0).between(10, 20));
        let st = FaultState::new(plan);
        for seq in 0..30u64 {
            let r = st.decide(T, None);
            if (10..20).contains(&seq) {
                assert!(r.is_err(), "touch {seq} inside the window");
            } else {
                assert_eq!(r, Ok(0), "touch {seq} outside the window");
            }
        }
    }

    #[test]
    fn pool_scope_spares_other_pools() {
        let plan = FaultPlan::new(5).with_site(FaultSite::transient_read(1.0).for_pool(2));
        let st = FaultState::new(plan);
        assert_eq!(st.decide(T, Some(0)), Ok(0));
        assert_eq!(st.decide(T, None), Ok(0));
        assert!(st.decide(T, Some(2)).is_err());
    }

    #[test]
    fn sp_scope_targets_a_surface() {
        let plan = FaultPlan::new(5).with_site(FaultSite::permanent_track(1.0).for_sp(1));
        let st = FaultState::new(plan);
        assert_eq!(st.decide(TrackId { sp: 0, cylinder: 3 }, None), Ok(0));
        assert!(st.decide(TrackId { sp: 1, cylinder: 3 }, None).is_err());
    }

    #[test]
    fn permanent_damage_sticks_to_the_track() {
        let plan = FaultPlan::new(11).with_site(FaultSite::permanent_track(1.0).between(0, 1));
        let st = FaultState::new(plan);
        let bad = TrackId { sp: 0, cylinder: 4 };
        let good = TrackId { sp: 0, cylinder: 5 };
        let first = st.decide(bad, None);
        assert!(matches!(&first, Err(e) if !e.is_transient()));
        // The firing window is over, but the damage persists...
        let later = st.decide(bad, None);
        assert!(matches!(&later, Err(e) if !e.is_transient()));
        // ...and is confined to the damaged track.
        assert_eq!(st.decide(good, None), Ok(0));
        assert_eq!(st.damaged_tracks(), 1);
    }

    #[test]
    fn latency_spikes_stack_and_do_not_fail() {
        let plan = FaultPlan::new(2)
            .with_site(FaultSite::latency_spike(1.0, 100))
            .with_site(FaultSite::latency_spike(1.0, 50));
        let st = FaultState::new(plan);
        assert_eq!(st.decide(T, None), Ok(150));
    }

    #[test]
    #[should_panic(expected = "injected storage panic")]
    fn panic_kind_panics() {
        let st = FaultState::new(FaultPlan::new(1).with_site(FaultSite::panic(1.0)));
        let _ = st.decide(T, None);
    }

    #[test]
    fn transient_errors_classify_as_retryable() {
        let st = FaultState::new(FaultPlan::transient(1, 1.0));
        let e = st.decide(T, None).unwrap_err();
        assert!(e.is_transient());
    }
}
