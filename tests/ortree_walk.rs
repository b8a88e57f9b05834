//! The contract of `walk_breadth_first`, seen through its four visitors:
//! breadth-first search, the figure-3 OR-tree, the §4 chain enumeration
//! and the machine's traced workload all stop at one node budget in one
//! place, and the traced workload reads any `ClauseSource` — a paged
//! store's snapshot included — with faults as values.

use std::collections::HashMap;

use b_log::core::engine::{best_first, BestFirstConfig};
use b_log::core::ortree::{build_ortree, NodeKind as OrKind};
use b_log::core::theory::{enumerate_chains, ArcIdentity};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::{bfs_all, parse_program, ClauseSource, Program, SolveConfig};
use b_log::machine::{tree_from_search, NodeKind, TreeSpec};
use b_log::spd::{CommitMode, FaultPlan, IndexPolicy, MvccClauseStore, PagedStoreConfig};
use b_log::workloads::{queens_program, QueensParams, PAPER_FIGURE_1};

/// Per-node work of a traced tree is exactly its unification attempts.
fn trace<S: ClauseSource + ?Sized>(
    source: &S,
    p: &Program,
    view: &WeightView<'_>,
    limits: &SolveConfig,
) -> TreeSpec {
    tree_from_search(source, &p.queries[0], view, limits, 0, 1).expect("no fault planned")
}

#[test]
fn one_node_budget_stops_all_four_visitors_at_the_same_node() {
    // Figure 1 breadth-first: the root, the two rule children and the
    // left branch's f(larry,G) are expanded; the budget then stops the
    // walk at the right branch's m(larry,G), with the two solutions under
    // f(larry,G) still queued.
    let p = parse_program(PAPER_FIGURE_1).unwrap();
    let q = &p.queries[0];
    let limits = SolveConfig::all().with_max_nodes(4);

    let bfs = bfs_all(&p.db, q, &limits);
    assert!(bfs.stats.truncated);
    assert_eq!(bfs.stats.nodes_expanded, 4);
    assert!(bfs.solutions.is_empty());
    assert_eq!(bfs.stats.failures, 0);

    let chains = enumerate_chains(&p.db, q, &limits, ArcIdentity::PointerExact);
    assert!(chains.truncated);
    assert_eq!((chains.n_solutions, chains.n_failures), (0, 0));

    let tree = build_ortree(&p.db, q, &limits);
    assert!(tree.truncated);
    let kinds: Vec<OrKind> = tree.nodes.iter().map(|n| n.kind).collect();
    use OrKind::{Cutoff, Internal};
    assert_eq!(
        kinds,
        [Internal, Internal, Internal, Internal, Cutoff, Cutoff, Cutoff],
        "the unvisited m-node and both queued solutions are cut off"
    );

    let weights = WeightStore::new(WeightParams::default());
    let mut overlay = HashMap::new();
    let view = WeightView::new(&mut overlay, &weights);
    let traced = trace(&p.db, &p, &view, &limits);
    traced.validate().unwrap();
    let kinds: Vec<NodeKind> = traced.nodes.iter().map(|n| n.kind).collect();
    use NodeKind::{Failure, Internal as In};
    assert_eq!(kinds, [In, In, In, In, Failure, Failure, Failure]);
    let expanded = traced.nodes.iter().filter(|n| n.work > 0).count();
    assert_eq!(expanded as u64, bfs.stats.nodes_expanded);
}

#[test]
fn a_snapshot_trace_equals_the_clause_db_trace() {
    let (queens, _) = queens_program(&QueensParams { n: 4 });
    for p in [parse_program(PAPER_FIGURE_1).unwrap(), queens] {
        // Learned weights, so arc weights differ between arcs.
        let weights = WeightStore::new(WeightParams::default());
        let mut overlay = HashMap::new();
        {
            let mut view = WeightView::new(&mut overlay, &weights);
            best_first(&p.db, &p.queries[0], &mut view, &BestFirstConfig::default());
        }
        let view = WeightView::new(&mut overlay, &weights);
        let limits = SolveConfig::all();
        let reference = trace(&p.db, &p, &view, &limits);
        for index in [IndexPolicy::None, IndexPolicy::FirstArg] {
            let cfg = PagedStoreConfig::default().with_index(index);
            let store = MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc);
            let got = trace(&store.begin_read(), &p, &view, &limits);
            assert_eq!(got.len(), reference.len(), "{index}");
            for (g, r) in got.nodes.iter().zip(&reference.nodes) {
                assert_eq!(g.kind, r.kind, "{index}");
                assert_eq!(g.children, r.children, "{index}: shape and arc weights");
                match index {
                    IndexPolicy::None => assert_eq!(g.work, r.work),
                    IndexPolicy::FirstArg => assert!(g.work <= r.work),
                }
            }
        }
    }
}

#[test]
fn a_store_fault_is_an_error_not_a_panic() {
    let p = parse_program(PAPER_FIGURE_1).unwrap();
    let cfg = PagedStoreConfig {
        fault: Some(FaultPlan::transient(7, 1.0)),
        ..PagedStoreConfig::default()
    };
    let store = MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc);
    let weights = WeightStore::new(WeightParams::default());
    let mut overlay = HashMap::new();
    let view = WeightView::new(&mut overlay, &weights);
    let got = tree_from_search(
        &store.begin_read(),
        &p.queries[0],
        &view,
        &SolveConfig::all(),
        0,
        1,
    );
    assert!(got.is_err(), "every read fails, so the trace must too");
}
