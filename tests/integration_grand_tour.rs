//! The grand tour: one scenario through every subsystem of the
//! reproduction, in the order the paper composes them.
//!
//! 1. generate a genealogy (workloads) and solve it with the baselines;
//! 2. solve the §4 theoretical weights and check them (theory);
//! 3. run a learning session and verify convergence + speedup (core);
//! 4. lay the trained database out on the SPD and replay the search's
//!    clause trace (spd);
//! 5. trace the query into a machine tree and execute it on the
//!    simulated multiprocessor (machine);
//! 6. run the same query OR-parallel on real threads (parallel).
//!
//! Every hand-off is checked: solution counts must agree end to end.

use std::collections::HashMap;

use b_log::core::convergence::measure_convergence;
use b_log::core::engine::{best_first, BestFirstConfig};
use b_log::core::theory::{enumerate_chains, solve_weights, target_bits_for, ArcIdentity};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::{dfs_all, SolveConfig};
use b_log::machine::{simulate, tree_from_search, MachineConfig};
use b_log::parallel::{par_best_first_with, ParallelConfig};
use b_log::spd::{build_spd_from_db, CostModel, Geometry, Pager, SpMode};
use b_log::workloads::{family_program, FamilyParams};

#[test]
fn grand_tour() {
    // 1. Workload + baseline truth.
    let (program, meta) = family_program(&FamilyParams {
        generations: 4,
        branching: 3,
        tree_mother_density: 0.15,
        external_mother_density: 0.4,
        seed: 2026,
        ..FamilyParams::default()
    });
    let db = &program.db;
    let query = &program.queries[0];
    assert_eq!(meta.root(), "p0_0");
    let truth = dfs_all(db, query, &SolveConfig::all());
    let n_solutions = truth.solutions.len();
    assert!(n_solutions >= 9, "root must have grandchildren");

    // 2. Theory: solvable, all requirements met.
    let chains = enumerate_chains(db, query, &SolveConfig::all(), ArcIdentity::PointerExact);
    assert_eq!(chains.n_solutions, n_solutions);
    let theory = solve_weights(&chains, target_bits_for(n_solutions), 300);
    assert!(!theory.pathological);
    assert!(theory.max_residual < 1e-6);

    // 3. Learning session: convergence and cheaper re-runs.
    let params = WeightParams::default();
    let report = measure_convergence(db, query, params, 3);
    let last = report.rounds.last().expect("rounds recorded");
    assert!(last.mean_bound_error_bits < 1e-6);
    assert_eq!(last.poisoned_success_chains, 0);
    assert_eq!(last.dead_chains_unmarked, 0);

    let store = WeightStore::new(params);
    let mut overlay = HashMap::new();
    let cold = {
        let mut view = WeightView::new(&mut overlay, &store);
        best_first(db, query, &mut view, &BestFirstConfig::default())
    };
    assert_eq!(cold.solutions.len(), n_solutions);
    let trace = {
        let mut view = WeightView::new(&mut overlay, &store);
        let cfg = BestFirstConfig {
            record_trace: true,
            learn: false,
            ..BestFirstConfig::default()
        };
        best_first(db, query, &mut view, &cfg)
    };
    assert_eq!(trace.solutions.len(), n_solutions);
    assert!(trace.stats.nodes_expanded <= cold.stats.nodes_expanded);

    // 4. SPD: lay out the trained database, replay the clause trace.
    let mut trained = WeightStore::new(params);
    for (k, v) in &overlay {
        trained.set(*k, *v);
    }
    let (mut spd, layout) = build_spd_from_db(
        db,
        &trained,
        Geometry {
            n_sps: 4,
            n_cylinders: 32,
            blocks_per_track: 4,
        },
        CostModel::default(),
        SpMode::Simd,
    );
    let clause_trace: Vec<_> = trace.trace.iter().map(|k| k.target).collect();
    assert!(!clause_trace.is_empty());
    let mut pager = Pager::new(&mut spd, &layout, 1);
    let pstats = pager.replay(&clause_trace);
    assert_eq!(pstats.accesses, clause_trace.len() as u64);
    assert!(pstats.hit_rate() > 0.5, "prefetch must pay off");

    // 5. Machine: execute the traced tree on 4 simulated processors.
    let mut machine_overlay = HashMap::new();
    let view = WeightView::new(&mut machine_overlay, &trained);
    let tree = tree_from_search(db, query, &view, &SolveConfig::all(), 50, 5).unwrap();
    assert_eq!(tree.n_solutions(), n_solutions);
    let mstats = simulate(
        &tree,
        &MachineConfig {
            n_processors: 4,
            ..MachineConfig::default()
        },
    );
    assert_eq!(mstats.solutions_found, n_solutions);
    assert!(mstats.utilization > 0.0);

    // 6. Threads: same solution set OR-parallel.
    let pres = par_best_first_with(
        db,
        query,
        &trained,
        &ParallelConfig {
            n_workers: 4,
            ..ParallelConfig::default()
        },
    );
    assert_eq!(pres.solutions.len(), n_solutions);
    let mut expect: Vec<String> = truth.solutions.iter().map(|s| s.to_text(db)).collect();
    let mut got: Vec<String> = pres
        .solutions
        .iter()
        .map(|s| s.solution.to_text(db))
        .collect();
    expect.sort();
    got.sort();
    assert_eq!(got, expect, "threaded solutions must match the baseline");
}
