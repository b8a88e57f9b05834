//! T1 (search-strategy comparison) and A2 (bound-policy ablation).

use blog_core::engine::{best_first, BestFirstConfig, BoundPolicy};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{bfs_all, dfs_all, iterative_deepening, Program, Query, SearchStats, SolveConfig};
use blog_workloads::{
    dag_reach_program, family_program, mapcolor_program, queens_program, DagParams, FamilyParams,
    MapColorParams, QueensParams,
};

use crate::report::Table;

/// One strategy's cost on one workload.
#[derive(Clone, Debug)]
pub struct StrategyRow {
    /// Workload name.
    pub workload: String,
    /// `first` or `all` solutions.
    pub goal: &'static str,
    /// Strategy name.
    pub strategy: &'static str,
    /// Nodes expanded.
    pub nodes: u64,
    /// Unification attempts.
    pub unifies: u64,
    /// Solutions found.
    pub solutions: u64,
}

/// The benchmark workload suite for T1.
pub fn t1_workloads() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    let (fam, _) = family_program(&FamilyParams {
        generations: 4,
        branching: 3,
        tree_mother_density: 0.15,
        external_mother_density: 0.4,
        seed: 11,
        ..FamilyParams::default()
    });
    out.push(("family(4,3)".to_string(), fam));
    let (dag, _) = dag_reach_program(&DagParams {
        layers: 6,
        width: 4,
        density: 0.4,
        seed: 7,
    });
    out.push(("dag(6,4)".to_string(), dag));
    let (q, _) = queens_program(&QueensParams { n: 6 });
    out.push(("queens(6)".to_string(), q));
    let (mc, _) = mapcolor_program(&MapColorParams {
        rows: 3,
        cols: 3,
        colors: 3,
    });
    out.push(("mapcolor(3x3,3)".to_string(), mc));
    out
}

fn blog_run(
    db: &blog_logic::ClauseDb,
    query: &Query,
    store: &WeightStore,
    overlay: &mut std::collections::HashMap<blog_logic::PointerKey, blog_core::weight::WeightState>,
    solve: SolveConfig,
) -> SearchStats {
    let mut view = WeightView::new(overlay, store);
    let cfg = BestFirstConfig {
        solve,
        ..BestFirstConfig::default()
    };
    best_first(db, query, &mut view, &cfg).stats
}

/// T1: nodes/unifications for DFS, BFS, ID, B-LOG cold and B-LOG trained,
/// to the first solution and to all solutions, per workload.
pub fn run_t1() -> Vec<StrategyRow> {
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "workload",
        "goal",
        "strategy",
        "nodes",
        "unifies",
        "solutions",
    ]);
    for (name, program) in t1_workloads() {
        let db = &program.db;
        let query = &program.queries[0];
        for (goal, solve) in [("first", SolveConfig::first()), ("all", SolveConfig::all())] {
            let mut push = |strategy: &'static str, stats: SearchStats| {
                let row = StrategyRow {
                    workload: name.clone(),
                    goal,
                    strategy,
                    nodes: stats.nodes_expanded,
                    unifies: stats.unify_attempts,
                    solutions: stats.solutions,
                };
                table.row(vec![
                    row.workload.clone(),
                    goal.into(),
                    strategy.into(),
                    row.nodes.to_string(),
                    row.unifies.to_string(),
                    row.solutions.to_string(),
                ]);
                rows.push(row);
            };
            push("dfs", dfs_all(db, query, &solve).stats);
            push("bfs", bfs_all(db, query, &solve).stats);
            push("id", iterative_deepening(db, query, &solve, 4, 4).stats);

            let store = WeightStore::new(WeightParams::default());
            let mut overlay = std::collections::HashMap::new();
            // Cold B-LOG: unknown weights everywhere.
            push(
                "blog-cold",
                blog_run(db, query, &store, &mut overlay, solve.clone()),
            );
            // Train on a full enumeration, then measure.
            blog_run(db, query, &store, &mut overlay, SolveConfig::all());
            push(
                "blog-trained",
                blog_run(db, query, &store, &mut overlay, solve.clone()),
            );
        }
    }
    println!("T1 — search strategies (nodes expanded / unification attempts):");
    table.print();
    println!(
        "expected shape: blog-cold ≈ bfs (unknown weights make all arcs equal);\n\
         blog-trained ≪ dfs/bfs to first solution on workloads with dead branches.\n"
    );
    rows
}

/// A2: the bound-policy ablation — same engine, same trained weights,
/// different priority keys.
pub fn run_a2() -> Vec<(String, &'static str, u64)> {
    let mut rows = Vec::new();
    let mut table = Table::new(&["workload", "policy", "nodes-to-first"]);
    for (name, program) in t1_workloads() {
        let db = &program.db;
        let query = &program.queries[0];
        // Train once.
        let store = WeightStore::new(WeightParams::default());
        let mut overlay = std::collections::HashMap::new();
        blog_run(db, query, &store, &mut overlay, SolveConfig::all());
        for (label, policy) in [
            ("weights", BoundPolicy::Weights),
            ("uniform", BoundPolicy::Uniform),
            ("lifo", BoundPolicy::Lifo),
            ("fifo", BoundPolicy::Fifo),
        ] {
            let mut view_overlay = overlay.clone();
            let mut view = WeightView::new(&mut view_overlay, &store);
            let cfg = BestFirstConfig {
                solve: SolveConfig::first(),
                bound_policy: policy,
                learn: false,
                ..BestFirstConfig::default()
            };
            let r = best_first(db, query, &mut view, &cfg);
            table.row(vec![
                name.clone(),
                label.into(),
                r.stats.nodes_expanded.to_string(),
            ]);
            rows.push((name.clone(), label, r.stats.nodes_expanded));
        }
    }
    println!("A2 — bound-policy ablation (trained weights, nodes to first solution):");
    table.print();
    println!(
        "expected shape: the learned-weights key wins or ties; uniform/fifo pay\n\
         breadth-first costs, lifo pays depth-first costs on misleading clause order.\n"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_covers_all_cells() {
        let rows = run_t1();
        // 4 workloads × 2 goals × 5 strategies.
        assert_eq!(rows.len(), 4 * 2 * 5);
        // Every strategy agrees on the number of solutions when all are
        // requested (completeness).
        for (name, _) in t1_workloads() {
            let all: Vec<&StrategyRow> = rows
                .iter()
                .filter(|r| r.workload == name && r.goal == "all")
                .collect();
            let counts: std::collections::HashSet<u64> = all.iter().map(|r| r.solutions).collect();
            assert_eq!(counts.len(), 1, "{name}: {counts:?}");
        }
    }

    #[test]
    fn t1_trained_blog_beats_cold_blog_to_first_solution() {
        let rows = run_t1();
        for (name, _) in t1_workloads() {
            let get = |s: &str| {
                rows.iter()
                    .find(|r| r.workload == name && r.goal == "first" && r.strategy == s)
                    .map(|r| r.nodes)
                    .expect("row present")
            };
            assert!(
                get("blog-trained") <= get("blog-cold"),
                "{name}: trained {} > cold {}",
                get("blog-trained"),
                get("blog-cold")
            );
        }
    }

    #[test]
    fn a2_weights_policy_is_best_or_tied() {
        let rows = run_a2();
        for (name, _) in t1_workloads() {
            let get = |p: &str| {
                rows.iter()
                    .find(|(w, pol, _)| w == &name && *pol == p)
                    .map(|(_, _, n)| *n)
                    .expect("row present")
            };
            let w = get("weights");
            assert!(
                w <= get("uniform") && w <= get("fifo"),
                "{name}: weights {w} beaten by uniform/fifo"
            );
        }
    }
}
