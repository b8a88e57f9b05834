//! Measuring convergence of the learned weights toward the §4 model.
//!
//! "These weights will be updated with each query so that they will
//! eventually converge to be proportional to those described by the
//! theoretical model above as all queries are presented to the database"
//! (§4). The theoretical system is underdetermined — "generally, there
//! may be many solutions, and any one will satisfy our branch-and-bound
//! requirement" — so converging *arc by arc* to one particular solution
//! is not required (nor true: the Kaczmarz solver picks the min-norm
//! assignment, the §5 heuristic picks the even split). What §4 actually
//! requires, and what this module measures after each presentation of a
//! query, is the **chain-level** agreement:
//!
//! 1. every successful chain's bound equals the target (requirement 2),
//! 2. every failing chain carries an infinite arc (requirement 3),
//! 3. no successful chain carries an infinite arc (consistency).

use std::collections::HashMap;

use blog_logic::{ClauseDb, PointerKey, Query, SolveConfig};
use serde::Serialize;

use crate::engine::{best_first, BestFirstConfig};
use crate::theory::{enumerate_chains, target_bits_for, ArcIdentity, ArcKey, EnumeratedChains};
use crate::weight::{WeightParams, WeightState, WeightStore, WeightView};

/// Agreement metrics after one presentation of the query.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ConvergenceRound {
    /// Presentation number (1-based).
    pub round: usize,
    /// Mean |chain bound − N| over success chains, in bits (rescaled).
    pub mean_bound_error_bits: f64,
    /// Worst success-chain bound error, in bits.
    pub max_bound_error_bits: f64,
    /// Failing chains that carry at least one learned-infinite arc.
    pub dead_chains_marked: usize,
    /// Failing chains not yet carrying an infinity.
    pub dead_chains_unmarked: usize,
    /// Success chains polluted by a learned infinity (must stay 0 on
    /// non-pathological instances).
    pub poisoned_success_chains: usize,
    /// Nodes the engine expanded this round.
    pub nodes_expanded: u64,
}

/// The whole convergence trajectory.
#[derive(Clone, Debug, Serialize)]
pub struct ConvergenceReport {
    /// The theoretical target in bits (`log2(#solutions)`).
    pub target_bits: f64,
    /// Success / failure chain counts of the enumerated tree.
    pub n_success_chains: usize,
    /// See above.
    pub n_failure_chains: usize,
    /// Per-presentation metrics.
    pub rounds: Vec<ConvergenceRound>,
}

fn chain_metrics(
    chains: &EnumeratedChains,
    overlay: &HashMap<PointerKey, WeightState>,
    params: WeightParams,
    target_bits: f64,
    round: usize,
    nodes_expanded: u64,
) -> ConvergenceRound {
    // Rescale machine units to theory bits: the learned target is N
    // machine units where theory wants `target_bits`. For single-solution
    // queries (target 0 bits) we compare raw learned bounds against N
    // itself, normalized to N units = 0 error ⇒ use the machine target.
    let n_units = params.target.to_f64();
    let (reference, scale) = if target_bits > 0.0 {
        (target_bits, n_units / target_bits)
    } else {
        (n_units, 1.0)
    };

    let state_of = |key: &PointerKey| overlay.get(key).copied().unwrap_or(WeightState::Unknown);
    let mut sum_err = 0.0f64;
    let mut max_err = 0.0f64;
    let mut n_success = 0usize;
    let mut poisoned = 0usize;
    let mut dead_marked = 0usize;
    let mut dead_unmarked = 0usize;
    for chain in &chains.chains {
        let keys: Vec<PointerKey> = chain
            .arcs
            .iter()
            .map(|a| match a {
                ArcKey::Exact(k) => *k,
                ArcKey::Shared { .. } => unreachable!("convergence uses exact identity"),
            })
            .collect();
        if chain.success {
            n_success += 1;
            if keys.iter().any(|k| state_of(k) == WeightState::Infinite) {
                poisoned += 1;
            }
            let bound_units: f64 = keys
                .iter()
                .map(|k| state_of(k).effective(params).to_f64())
                .sum();
            let err = (bound_units / scale - reference).abs();
            sum_err += err;
            max_err = max_err.max(err);
        } else if keys.iter().any(|k| state_of(k) == WeightState::Infinite) {
            dead_marked += 1;
        } else {
            dead_unmarked += 1;
        }
    }
    ConvergenceRound {
        round,
        mean_bound_error_bits: if n_success > 0 {
            sum_err / n_success as f64
        } else {
            0.0
        },
        max_bound_error_bits: max_err,
        dead_chains_marked: dead_marked,
        dead_chains_unmarked: dead_unmarked,
        poisoned_success_chains: poisoned,
        nodes_expanded,
    }
}

/// Present `query` to a fresh learning engine `n_rounds` times and
/// measure chain-level agreement with the §4 model after each
/// presentation.
pub fn measure_convergence(
    db: &ClauseDb,
    query: &Query,
    params: WeightParams,
    n_rounds: usize,
) -> ConvergenceReport {
    let chains = enumerate_chains(db, query, &SolveConfig::all(), ArcIdentity::PointerExact);
    let target_bits = target_bits_for(chains.n_solutions);

    let store = WeightStore::new(params);
    let mut overlay: HashMap<PointerKey, WeightState> = HashMap::new();
    let mut rounds = Vec::with_capacity(n_rounds);
    for round in 1..=n_rounds {
        let stats = {
            let mut view = WeightView::new(&mut overlay, &store);
            best_first(db, query, &mut view, &BestFirstConfig::default()).stats
        };
        rounds.push(chain_metrics(
            &chains,
            &overlay,
            params,
            target_bits,
            round,
            stats.nodes_expanded,
        ));
    }
    ConvergenceReport {
        target_bits,
        n_success_chains: chains.n_solutions,
        n_failure_chains: chains.n_failures,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::parse_program;

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    #[test]
    fn family_satisfies_requirements_after_one_round() {
        let p = parse_program(FAMILY).unwrap();
        let report = measure_convergence(&p.db, &p.queries[0], WeightParams::default(), 4);
        assert_eq!(report.target_bits, 1.0);
        assert_eq!(report.n_success_chains, 2);
        assert_eq!(report.n_failure_chains, 1);
        let r1 = &report.rounds[0];
        // Requirement 2: success chains land exactly on N (fixed-point
        // remainder distribution makes this exact).
        assert!(
            r1.mean_bound_error_bits < 1e-6,
            "round-1 bound error {} bits",
            r1.mean_bound_error_bits
        );
        // Requirement 3: the failing m-chain carries an infinity.
        assert_eq!(r1.dead_chains_marked, 1);
        assert_eq!(r1.dead_chains_unmarked, 0);
        // Consistency: no success chain poisoned.
        assert_eq!(r1.poisoned_success_chains, 0);
    }

    #[test]
    fn error_never_grows_across_rounds() {
        let p = parse_program(FAMILY).unwrap();
        let report = measure_convergence(&p.db, &p.queries[0], WeightParams::default(), 5);
        let errs: Vec<f64> = report
            .rounds
            .iter()
            .map(|r| r.mean_bound_error_bits)
            .collect();
        for w in errs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "error grew: {errs:?}");
        }
    }

    #[test]
    fn single_solution_query_converges_to_machine_target() {
        let p = parse_program("p(a) :- q. q. ?- p(X).").unwrap();
        let report = measure_convergence(&p.db, &p.queries[0], WeightParams::default(), 2);
        assert_eq!(report.target_bits, 0.0);
        assert!(report.rounds[0].mean_bound_error_bits < 1e-6);
    }

    #[test]
    fn nodes_expanded_non_increasing() {
        let p = parse_program(FAMILY).unwrap();
        let report = measure_convergence(&p.db, &p.queries[0], WeightParams::default(), 3);
        let n: Vec<u64> = report.rounds.iter().map(|r| r.nodes_expanded).collect();
        assert!(n[1] <= n[0] && n[2] <= n[1], "{n:?}");
    }

    #[test]
    fn multi_failure_program_marks_every_dead_chain() {
        // Two distinct dead-end rules: both failing chains need marks.
        let p = parse_program(
            "
            p(X) :- a(X).
            p(X) :- bad1(X), a(X).
            p(X) :- bad2(X), a(X).
            a(1).
            bad1(zz). bad2(zz).
            ?- p(X).
        ",
        )
        .unwrap();
        let report = measure_convergence(&p.db, &p.queries[0], WeightParams::default(), 3);
        let last = report.rounds.last().unwrap();
        assert_eq!(last.dead_chains_unmarked, 0, "{report:?}");
        assert_eq!(last.poisoned_success_chains, 0);
    }
}
