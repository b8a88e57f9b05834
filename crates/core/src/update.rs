//! The section-5 weight update rules.
//!
//! Quoting the paper:
//!
//! > "If a failed search occurs and it does not already have an arc with
//! > infinite weight in the chain, we will set any one of the unknown
//! > weights to infinity. The choice of which weight to set to 'infinity'
//! > is similar to the backtracking problem in Prolog; we think it should
//! > be the unknown nearest the leaf in the chain. If a solution to the
//! > query is found, we will reset all unknown or infinite weights as
//! > follows: if the known weights add up to a number greater than N, set
//! > them to 0, else if there are k unknown or infinite weights, set them
//! > equally so that the sum of weights is N; i.e. if the known weights
//! > add up to M, set them to (N-M)/k."
//!
//! Both rules write through a [`WeightView`], i.e. strongly into the
//! session-local overlay only.

use blog_logic::PointerKey;
use serde::Serialize;

use crate::util::SplitMix64;
use crate::weight::{Weight, WeightState, WeightView};

/// Which unknown weight a failure marks infinite — the paper recommends
/// nearest-the-leaf; the alternatives exist for the A1 ablation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum InfinityPlacement {
    /// The paper's choice: "the unknown nearest the leaf in the chain".
    NearestLeaf,
    /// Ablation: the unknown nearest the root.
    NearestRoot,
    /// Ablation: a uniformly random unknown (deterministic per engine seed).
    Random,
}

/// What an update changed.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct UpdateOutcome {
    /// Pointer weights written.
    pub changed: usize,
    /// The paper's anomaly cases: a success chain whose known weights
    /// already exceed `N`, or a failure chain with no unknown weight to
    /// mark (see §5: "when these anomalies appear, it appears too hard to
    /// completely correct the entire data base").
    pub anomaly: bool,
}

/// Apply the success rule to a solved chain (arcs given root→leaf).
///
/// Afterwards every arc of the chain is `Known`, and — anomalies aside —
/// the chain's bound is exactly `N`.
pub fn success_update(
    view: &mut WeightView<'_>,
    arcs_root_to_leaf: &[PointerKey],
) -> UpdateOutcome {
    let params = view.params();
    let n = params.target.0 as u64;

    let mut known_sum: u64 = 0;
    let mut open: Vec<PointerKey> = Vec::new();
    for &arc in arcs_root_to_leaf {
        match view.get(arc) {
            WeightState::Known(w) => known_sum += w.0 as u64,
            WeightState::Unknown | WeightState::Infinite => open.push(arc),
        }
    }
    if open.is_empty() {
        // Fully-known chain: nothing to reset. Anomalous only if its bound
        // disagrees with N (the heuristic tolerates this, §5).
        return UpdateOutcome {
            changed: 0,
            anomaly: known_sum != n,
        };
    }
    let k = open.len() as u64;
    let (base, rem, anomaly) = if known_sum > n {
        (0u64, 0u64, true)
    } else {
        ((n - known_sum) / k, (n - known_sum) % k, false)
    };
    // Integer fixed-point `(N-M)/k` with the remainder spread over the
    // first `rem` open arcs, so the chain bound lands on exactly N.
    for (i, arc) in open.iter().enumerate() {
        let extra = u64::from((i as u64) < rem);
        view.set(*arc, WeightState::Known(Weight((base + extra) as u32)));
    }
    UpdateOutcome {
        changed: open.len(),
        anomaly,
    }
}

/// Apply the failure rule to a failed chain (arcs given root→leaf).
///
/// If the chain already carries an infinite arc nothing changes; otherwise
/// one unknown arc (chosen per `placement`) becomes `Infinite`.
pub fn failure_update(
    view: &mut WeightView<'_>,
    arcs_root_to_leaf: &[PointerKey],
    placement: InfinityPlacement,
    rng: &mut SplitMix64,
) -> UpdateOutcome {
    // Already has an infinity? Then this path is already known-bad.
    if arcs_root_to_leaf
        .iter()
        .any(|&a| view.get(a) == WeightState::Infinite)
    {
        return UpdateOutcome {
            changed: 0,
            anomaly: false,
        };
    }
    let unknowns: Vec<PointerKey> = arcs_root_to_leaf
        .iter()
        .copied()
        .filter(|&a| view.get(a) == WeightState::Unknown)
        .collect();
    if unknowns.is_empty() {
        // All arcs carry known finite weights yet the chain failed — the
        // paper's pathological case (a success-participating arc cannot be
        // marked infinite). Leave the database alone.
        return UpdateOutcome {
            changed: 0,
            anomaly: true,
        };
    }
    let chosen = match placement {
        InfinityPlacement::NearestLeaf => *unknowns.last().expect("non-empty"),
        InfinityPlacement::NearestRoot => unknowns[0],
        InfinityPlacement::Random => unknowns[rng.below(unknowns.len())],
    };
    view.set(chosen, WeightState::Infinite);
    UpdateOutcome {
        changed: 1,
        anomaly: false,
    }
}

/// Apply the success or failure rule to one closed chain (arcs given
/// root→leaf), as its outcome says.
pub fn chain_update(
    view: &mut WeightView<'_>,
    arcs_root_to_leaf: &[PointerKey],
    success: bool,
    placement: InfinityPlacement,
    rng: &mut SplitMix64,
) -> UpdateOutcome {
    if success {
        success_update(view, arcs_root_to_leaf)
    } else {
        failure_update(view, arcs_root_to_leaf, placement, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight::{WeightParams, WeightStore};
    use blog_logic::{Caller, ClauseId};
    use std::collections::HashMap;

    fn key(t: u32) -> PointerKey {
        PointerKey {
            caller: Caller::Query,
            goal_idx: 0,
            target: ClauseId(t),
        }
    }

    fn setup() -> (WeightStore, HashMap<PointerKey, WeightState>) {
        (WeightStore::new(WeightParams::default()), HashMap::new())
    }

    #[test]
    fn success_sets_unknowns_to_n_minus_m_over_k() {
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let n = view.params().target;
        let arcs = [key(0), key(1), key(2), key(3)];
        // Pre-known: arc 0 with weight N/4.
        let quarter = Weight(n.0 / 4);
        view.set(key(0), WeightState::Known(quarter));
        let out = success_update(&mut view, &arcs);
        assert_eq!(out.changed, 3);
        assert!(!out.anomaly);
        // (N - N/4) / 3 = N/4 each.
        for k in &arcs[1..] {
            assert_eq!(view.get(*k), WeightState::Known(quarter));
        }
        // Chain bound is now exactly N.
        let total: u64 = arcs
            .iter()
            .map(|&a| view.effective_weight(a).0 as u64)
            .sum();
        assert_eq!(total, n.0 as u64);
    }

    #[test]
    fn success_resets_infinite_arcs_too() {
        // "we will reset all unknown or infinite weights".
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let arcs = [key(0), key(1)];
        view.set(key(1), WeightState::Infinite);
        let out = success_update(&mut view, &arcs);
        assert_eq!(out.changed, 2);
        assert!(view.get(key(1)).is_known());
    }

    #[test]
    fn success_with_overweight_knowns_zeroes_the_rest() {
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let n = view.params().target;
        let arcs = [key(0), key(1)];
        view.set(key(0), WeightState::Known(Weight(n.0 + 512)));
        let out = success_update(&mut view, &arcs);
        assert!(out.anomaly);
        assert_eq!(view.get(key(1)), WeightState::Known(Weight::ZERO));
    }

    #[test]
    fn success_on_fully_known_exact_chain_is_silent() {
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let n = view.params().target;
        view.set(key(0), WeightState::Known(n));
        let out = success_update(&mut view, &[key(0)]);
        assert_eq!(out.changed, 0);
        assert!(!out.anomaly);
    }

    #[test]
    fn failure_marks_unknown_nearest_leaf() {
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let mut rng = SplitMix64::new(0);
        let arcs = [key(0), key(1), key(2)]; // root → leaf
        view.set(key(2), WeightState::Known(Weight::ONE)); // leafmost is known
        let out = failure_update(&mut view, &arcs, InfinityPlacement::NearestLeaf, &mut rng);
        assert_eq!(out.changed, 1);
        // Nearest-leaf *unknown* is key(1).
        assert_eq!(view.get(key(1)), WeightState::Infinite);
        assert_eq!(view.get(key(0)), WeightState::Unknown);
    }

    #[test]
    fn failure_with_existing_infinity_is_a_no_op() {
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let mut rng = SplitMix64::new(0);
        let arcs = [key(0), key(1)];
        view.set(key(0), WeightState::Infinite);
        let out = failure_update(&mut view, &arcs, InfinityPlacement::NearestLeaf, &mut rng);
        assert_eq!(out.changed, 0);
        assert_eq!(view.get(key(1)), WeightState::Unknown);
    }

    #[test]
    fn failure_with_no_unknowns_is_anomalous() {
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let mut rng = SplitMix64::new(0);
        let arcs = [key(0)];
        view.set(key(0), WeightState::Known(Weight::ONE));
        let out = failure_update(&mut view, &arcs, InfinityPlacement::NearestLeaf, &mut rng);
        assert!(out.anomaly);
        assert_eq!(out.changed, 0);
        assert_eq!(view.get(key(0)), WeightState::Known(Weight::ONE));
    }

    #[test]
    fn failure_nearest_root_placement() {
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let mut rng = SplitMix64::new(0);
        let arcs = [key(0), key(1), key(2)];
        failure_update(&mut view, &arcs, InfinityPlacement::NearestRoot, &mut rng);
        assert_eq!(view.get(key(0)), WeightState::Infinite);
        assert_eq!(view.get(key(2)), WeightState::Unknown);
    }

    #[test]
    fn failure_random_placement_is_deterministic_per_seed() {
        let arcs = [key(0), key(1), key(2)];
        let pick = |seed| {
            let (global, mut local) = setup();
            let mut view = WeightView::new(&mut local, &global);
            let mut rng = SplitMix64::new(seed);
            failure_update(&mut view, &arcs, InfinityPlacement::Random, &mut rng);
            arcs.iter()
                .position(|&a| view.get(a) == WeightState::Infinite)
                .unwrap()
        };
        assert_eq!(pick(9), pick(9));
    }

    #[test]
    fn success_then_repeat_query_chain_bound_is_n() {
        // After a success update, re-walking the same chain sums to N.
        let (global, mut local) = setup();
        let mut view = WeightView::new(&mut local, &global);
        let arcs = [key(0), key(1), key(2)];
        success_update(&mut view, &arcs);
        let n = view.params().target.0 as u64;
        let total: u64 = arcs
            .iter()
            .map(|&a| view.effective_weight(a).0 as u64)
            .sum();
        assert_eq!(total, n);
    }
}
