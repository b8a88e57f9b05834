//! Weights, bounds, and the weight store.
//!
//! Section 4 defines the weight of an arc as `-log2` of its unnormalized
//! probability of participating in a successful solution, so that chain
//! bounds are *sums* ("using logarithms, we could add rather than
//! multiply"). Section 5 fixes the practical coding used by the machine:
//! all successful queries aim at a constant target bound `N`, unknown
//! weights initialize to `N + 1` ("larger than a known solution that has a
//! bound N"), and infinity is coded as `A * N` where `A` bounds the chain
//! length.
//!
//! We use 24.8 fixed point (scale 256) so weight arithmetic is exact,
//! cheap, and deterministic — mirroring the paper's argument that the
//! machine should add integers, not multiply fractions.

use std::collections::HashMap;
use std::fmt;

use blog_logic::PointerKey;
use serde::Serialize;

/// A fixed-point arc weight (scale 1/256).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct Weight(pub u32);

impl Weight {
    /// Fixed-point scale: `Weight(SCALE)` is 1.0.
    pub const SCALE: u32 = 256;
    /// Zero weight (probability 1 — "no surprise").
    pub const ZERO: Weight = Weight(0);
    /// One unit (probability 1/2 — one bit of surprise).
    pub const ONE: Weight = Weight(Self::SCALE);

    /// Build from a float, saturating at the representable range.
    pub fn from_f64(w: f64) -> Weight {
        if w <= 0.0 {
            return Weight(0);
        }
        let scaled = (w * Self::SCALE as f64).round();
        Weight(scaled.min(u32::MAX as f64) as u32)
    }

    /// Convert to a float.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE as f64
    }

    /// Build from an integer number of bits.
    pub const fn from_bits_int(bits: u32) -> Weight {
        Weight(bits * Self::SCALE)
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Weight) -> Weight {
        Weight(self.0.saturating_add(other.0))
    }

    /// The unnormalized probability `2^-w` this weight encodes.
    pub fn probability(self) -> f64 {
        2f64.powf(-self.to_f64())
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.to_f64())
    }
}

/// A chain bound: the sum of the weights along a chain. Wider than
/// [`Weight`] so sums cannot overflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug, Serialize)]
pub struct Bound(pub u64);

impl Bound {
    /// The zero bound (the root chain).
    pub const ZERO: Bound = Bound(0);

    /// Extend the bound by one arc weight. Monotone by construction —
    /// weights are non-negative, so `b.plus(w) >= b`, which is exactly the
    /// branch-and-bound requirement of section 3.
    pub fn plus(self, w: Weight) -> Bound {
        Bound(self.0 + w.0 as u64)
    }

    /// Convert to a float (in weight units).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Weight::SCALE as f64
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.to_f64())
    }
}

/// The section-5 coding parameters.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct WeightParams {
    /// `N`: the constant bound every successful query is steered toward.
    pub target: Weight,
    /// `A`: the assumed longest chain, so that "infinity" is `A * N`.
    pub max_chain: u32,
}

impl Default for WeightParams {
    fn default() -> Self {
        // N = 16 bits of surprise, chains up to 64 arcs. Infinity (A*N =
        // 1024 bits) then dwarfs any finite chain bound (<= 64 * (N+1)).
        WeightParams {
            target: Weight::from_bits_int(16),
            max_chain: 64,
        }
    }
}

impl WeightParams {
    /// Construct, checking that the coding is consistent.
    pub fn new(target: Weight, max_chain: u32) -> WeightParams {
        assert!(target.0 > 0, "target bound N must be positive");
        assert!(max_chain >= 2, "max chain length A must be >= 2");
        WeightParams { target, max_chain }
    }

    /// The initial weight of an untried pointer: `N + 1`.
    pub fn unknown_weight(self) -> Weight {
        self.target.saturating_add(Weight::ONE)
    }

    /// The "infinity" coding: `A * N`.
    pub fn infinity_weight(self) -> Weight {
        Weight(self.target.0.saturating_mul(self.max_chain))
    }
}

/// The stored state of one pointer's weight.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum WeightState {
    /// Never touched by any search: effective weight `N + 1`.
    Unknown,
    /// Set by a successful search.
    Known(Weight),
    /// Set by an unsuccessful search: effective weight `A * N`.
    Infinite,
}

impl WeightState {
    /// The weight the engine actually adds to a bound.
    pub fn effective(self, params: WeightParams) -> Weight {
        match self {
            WeightState::Unknown => params.unknown_weight(),
            WeightState::Known(w) => w,
            WeightState::Infinite => params.infinity_weight(),
        }
    }

    /// Whether this is a finite, learned weight.
    pub fn is_known(self) -> bool {
        matches!(self, WeightState::Known(_))
    }
}

/// Aggregate statistics over a weight store (used by experiments).
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct WeightCensus {
    /// Pointers with learned finite weights.
    pub known: usize,
    /// Pointers marked infinite.
    pub infinite: usize,
}

/// The **global** weight database: one entry per figure-4 pointer that has
/// ever been touched. Pointers never touched are implicitly `Unknown`.
#[derive(Clone, Default, Debug)]
pub struct WeightStore {
    params: WeightParams,
    entries: HashMap<PointerKey, WeightState>,
}

impl WeightStore {
    /// An empty store with the given coding parameters.
    pub fn new(params: WeightParams) -> WeightStore {
        WeightStore {
            params,
            entries: HashMap::new(),
        }
    }

    /// The coding parameters.
    pub fn params(&self) -> WeightParams {
        self.params
    }

    /// The stored state for `key` (implicitly `Unknown`).
    pub fn get(&self, key: PointerKey) -> WeightState {
        self.entries
            .get(&key)
            .copied()
            .unwrap_or(WeightState::Unknown)
    }

    /// Store a state for `key`.
    pub fn set(&mut self, key: PointerKey, state: WeightState) {
        match state {
            WeightState::Unknown => {
                self.entries.remove(&key);
            }
            s => {
                self.entries.insert(key, s);
            }
        }
    }

    /// Number of explicitly stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (&PointerKey, &WeightState)> {
        self.entries.iter()
    }

    /// Census of the store.
    pub fn census(&self) -> WeightCensus {
        let mut c = WeightCensus::default();
        for s in self.entries.values() {
            match s {
                WeightState::Known(_) => c.known += 1,
                WeightState::Infinite => c.infinite += 1,
                WeightState::Unknown => {}
            }
        }
        c
    }
}

/// A session-scoped view: reads go local-then-global, writes go local.
///
/// This is exactly the paper's "within a session, we strongly modify the
/// bounds in a local database, while bounds kept in a global database are
/// weakly modified [at session end]".
pub struct WeightView<'a> {
    /// The session-local overlay.
    pub local: &'a mut HashMap<PointerKey, WeightState>,
    /// The shared global database (read-only during the session).
    pub global: &'a WeightStore,
}

impl<'a> WeightView<'a> {
    /// Build a view over an overlay and the global store.
    pub fn new(local: &'a mut HashMap<PointerKey, WeightState>, global: &'a WeightStore) -> Self {
        WeightView { local, global }
    }

    /// Coding parameters (shared with the global store).
    pub fn params(&self) -> WeightParams {
        self.global.params()
    }

    /// Effective stored state: local overlay wins.
    pub fn get(&self, key: PointerKey) -> WeightState {
        self.local
            .get(&key)
            .copied()
            .unwrap_or_else(|| self.global.get(key))
    }

    /// The weight added to a bound when following `key`.
    pub fn effective_weight(&self, key: PointerKey) -> Weight {
        self.get(key).effective(self.params())
    }

    /// Strong (local) write.
    pub fn set(&mut self, key: PointerKey, state: WeightState) {
        self.local.insert(key, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::{Caller, ClauseId};

    fn key(t: u32) -> PointerKey {
        PointerKey {
            caller: Caller::Query,
            goal_idx: 0,
            target: ClauseId(t),
        }
    }

    #[test]
    fn fixed_point_round_trip() {
        let w = Weight::from_f64(3.5);
        assert_eq!(w.0, 3 * 256 + 128);
        assert!((w.to_f64() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn probability_of_one_bit_is_half() {
        assert!((Weight::ONE.probability() - 0.5).abs() < 1e-12);
        assert!((Weight::ZERO.probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_floats_clamp_to_zero() {
        assert_eq!(Weight::from_f64(-2.0), Weight::ZERO);
    }

    #[test]
    fn unknown_exceeds_target_infinity_exceeds_everything() {
        let p = WeightParams::default();
        assert!(p.unknown_weight() > p.target);
        // Any chain of max_chain arcs of unknown weight stays below two
        // infinities but a single infinity beats target chains:
        assert!((p.infinity_weight().0 as u64) > (p.target.0 as u64 + Weight::SCALE as u64));
    }

    #[test]
    fn bound_plus_is_monotone() {
        let b = Bound::ZERO.plus(Weight::ONE).plus(Weight::from_bits_int(2));
        assert_eq!(b.to_f64(), 3.0);
        assert!(b.plus(Weight::ZERO) >= b);
    }

    #[test]
    fn store_defaults_to_unknown() {
        let s = WeightStore::new(WeightParams::default());
        assert_eq!(s.get(key(0)), WeightState::Unknown);
    }

    #[test]
    fn store_set_get_and_unknown_removal() {
        let mut s = WeightStore::new(WeightParams::default());
        s.set(key(1), WeightState::Known(Weight::ONE));
        assert_eq!(s.get(key(1)), WeightState::Known(Weight::ONE));
        assert_eq!(s.len(), 1);
        s.set(key(1), WeightState::Unknown);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn view_overlay_wins_and_writes_stay_local() {
        let mut global = WeightStore::new(WeightParams::default());
        global.set(key(2), WeightState::Known(Weight::ONE));
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        assert_eq!(view.get(key(2)), WeightState::Known(Weight::ONE));
        view.set(key(2), WeightState::Infinite);
        assert_eq!(view.get(key(2)), WeightState::Infinite);
        let _ = view;
        // Global untouched.
        assert_eq!(global.get(key(2)), WeightState::Known(Weight::ONE));
    }

    #[test]
    fn census_counts_states() {
        let mut s = WeightStore::new(WeightParams::default());
        s.set(key(0), WeightState::Known(Weight::ZERO));
        s.set(key(1), WeightState::Known(Weight::ONE));
        s.set(key(2), WeightState::Infinite);
        let c = s.census();
        assert_eq!(c.known, 2);
        assert_eq!(c.infinite, 1);
    }
}
