//! End-to-end integration: parser → clause store → every engine →
//! sessions → parallel executor → machine trace, on the generated
//! workload suite.

use b_log::core::engine::{best_first, BestFirstConfig};
use b_log::core::session::{MergePolicy, SessionManager};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::{bfs_all, dfs_all, parse_program, Program, SolveConfig};
use b_log::machine::{simulate, tree_from_search, MachineConfig};
use b_log::parallel::{par_best_first_with, ParallelConfig};
use b_log::workloads::{
    dag_reach_program, family_program, mapcolor_program, queens_program, DagParams, FamilyParams,
    MapColorParams, QueensParams, PAPER_FIGURE_1,
};

fn workload_suite() -> Vec<(String, Program)> {
    let mut out = vec![(
        "paper-figure-1".to_string(),
        parse_program(PAPER_FIGURE_1).expect("figure 1 parses"),
    )];
    let (fam, _) = family_program(&FamilyParams {
        generations: 3,
        branching: 3,
        tree_mother_density: 0.2,
        external_mother_density: 0.4,
        seed: 42,
        ..FamilyParams::default()
    });
    out.push(("family".to_string(), fam));
    let (dag, _) = dag_reach_program(&DagParams {
        layers: 5,
        width: 3,
        density: 0.4,
        seed: 3,
    });
    out.push(("dag".to_string(), dag));
    let (q, _) = queens_program(&QueensParams { n: 5 });
    out.push(("queens5".to_string(), q));
    let (mc, _) = mapcolor_program(&MapColorParams {
        rows: 2,
        cols: 3,
        colors: 3,
    });
    out.push(("mapcolor".to_string(), mc));
    out
}

fn sorted_solutions(db: &b_log::logic::ClauseDb, texts: Vec<String>) -> Vec<String> {
    let _ = db;
    let mut texts = texts;
    texts.sort();
    texts
}

#[test]
fn all_engines_agree_on_every_workload() {
    for (name, program) in workload_suite() {
        let db = &program.db;
        let query = &program.queries[0];
        let cfg = SolveConfig::all();

        let dfs = dfs_all(db, query, &cfg);
        let expected = sorted_solutions(db, dfs.solution_texts(db));
        assert!(!expected.is_empty(), "{name}: no solutions at all");

        let bfs = bfs_all(db, query, &cfg);
        assert_eq!(
            sorted_solutions(db, bfs.solution_texts(db)),
            expected,
            "{name}: bfs disagrees"
        );

        let store = WeightStore::new(WeightParams::default());
        let mut overlay = std::collections::HashMap::new();
        let mut view = WeightView::new(&mut overlay, &store);
        let blog = best_first(db, query, &mut view, &BestFirstConfig::default());
        assert_eq!(
            sorted_solutions(db, blog.solution_texts(db)),
            expected,
            "{name}: best-first disagrees"
        );

        // Second (trained) run still complete.
        let mut view = WeightView::new(&mut overlay, &store);
        let trained = best_first(db, query, &mut view, &BestFirstConfig::default());
        assert_eq!(
            sorted_solutions(db, trained.solution_texts(db)),
            expected,
            "{name}: trained best-first disagrees"
        );

        // Parallel executor, several widths.
        for workers in [1usize, 4] {
            let pr = par_best_first_with(
                db,
                query,
                &store,
                &ParallelConfig {
                    n_workers: workers,
                    ..ParallelConfig::default()
                },
            );
            let texts = pr
                .solutions
                .iter()
                .map(|s| s.solution.to_text(db))
                .collect();
            assert_eq!(
                sorted_solutions(db, texts),
                expected,
                "{name}: parallel({workers}) disagrees"
            );
        }
    }
}

#[test]
fn session_lifecycle_improves_and_stays_complete() {
    let (program, _) = family_program(&FamilyParams {
        generations: 3,
        branching: 3,
        tree_mother_density: 0.2,
        external_mother_density: 0.5,
        seed: 9,
        ..FamilyParams::default()
    });
    let query = &program.queries[0];
    let mut mgr = SessionManager::new(WeightParams::default());
    let cfg = BestFirstConfig::default();

    let mut session = mgr.begin_session();
    let cold = mgr.query(&mut session, &program.db, query, &cfg);
    let warm = mgr.query(&mut session, &program.db, query, &cfg);
    assert_eq!(cold.solutions.len(), warm.solutions.len());
    assert!(warm.stats.nodes_expanded <= cold.stats.nodes_expanded);
    mgr.end_session(session, MergePolicy::conservative_half());

    let mut session2 = mgr.begin_session();
    let next = mgr.query(&mut session2, &program.db, query, &cfg);
    assert_eq!(next.solutions.len(), cold.solutions.len());
    assert!(next.stats.nodes_expanded <= cold.stats.nodes_expanded);
}

#[test]
fn machine_trace_from_real_query_reaches_all_solutions() {
    for (name, program) in workload_suite() {
        let db = &program.db;
        let query = &program.queries[0];
        let dfs = dfs_all(db, query, &SolveConfig::all());

        let store = WeightStore::new(WeightParams::default());
        let mut overlay = std::collections::HashMap::new();
        let view = WeightView::new(&mut overlay, &store);
        let tree = tree_from_search(db, query, &view, &SolveConfig::all(), 50, 5).unwrap();
        assert_eq!(
            tree.n_solutions() as u64,
            dfs.stats.solutions,
            "{name}: traced tree has wrong solution count"
        );

        let stats = simulate(
            &tree,
            &MachineConfig {
                n_processors: 4,
                ..MachineConfig::default()
            },
        );
        assert_eq!(
            stats.solutions_found as u64, dfs.stats.solutions,
            "{name}: machine missed solutions"
        );
    }
}

#[test]
fn queries_can_be_posed_incrementally() {
    // parse_query against an existing database, as a session would.
    let (mut program, meta) = family_program(&FamilyParams {
        generations: 3,
        branching: 2,
        tree_mother_density: 0.0,
        external_mother_density: 0.0,
        seed: 4,
        ..FamilyParams::default()
    });
    let root = meta.root().to_string();
    let q = b_log::logic::parse_query(&mut program.db, &format!("gf({root}, G)"))
        .expect("query parses");
    let r = dfs_all(&program.db, &q, &SolveConfig::all());
    assert_eq!(r.solutions.len(), 4, "branching 2, two generations below");
}

#[test]
fn umbrella_crate_reexports_work_together() {
    // Compile-time + runtime smoke test of the public facade.
    let program = parse_program(PAPER_FIGURE_1).unwrap();
    let mut mgr = SessionManager::new(WeightParams::default());
    let mut session = mgr.begin_session();
    let r = mgr.query(
        &mut session,
        &program.db,
        &program.queries[0],
        &BestFirstConfig::default(),
    );
    assert_eq!(r.solutions.len(), 2);
    let report = mgr.end_session(session, MergePolicy::conservative_half());
    assert!(report.stepped > 0 || report.infinities_set > 0);
}
