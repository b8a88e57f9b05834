//! Property tests for the search-state representations: on arbitrary
//! generated programs, `Cloned` (copy-per-child) and `Shared` (persistent
//! binding frames + cons-list goals) must be observationally identical —
//! same solution sets, same work counters, same pop-order traces — across
//! every frontier engine, including at adversarial flatten thresholds.
//! The one field that is *supposed* to differ, bytes copied per sprout,
//! is pinned to §6's claim on a deep workload at the end.

use std::collections::VecDeque;

use b_log::core::engine::{best_first, BestFirstConfig};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::node::ExpandStats;
use b_log::logic::{bfs_all, expand, parse_program, Program, SearchNode, SolveConfig, StateRepr};
use b_log::parallel::{par_best_first_with, ParallelConfig};
use b_log::workloads::{mapcolor_program, MapColorParams};
use proptest::prelude::*;

/// A random layered program with structured terms and a recursive layer:
/// - facts `a(ci, cj).` and `b(ci, f(cj)).` over constants `c0..c4`,
/// - rules `top(X,Z) :- a(X,Y), b(Y,Z).` and optionally the swap,
/// - a bounded-recursion layer `chain(X,Z) :- a(X,Y), chain(Y,Z).`
///   (searched under a depth limit so deep frame chains actually form),
/// - query `?- top(X,Z).` or `?- chain(X,Z).`
fn arb_program() -> impl Strategy<Value = (String, u32)> {
    (
        prop::collection::btree_set((0u32..5, 0u32..5), 1..12),
        prop::collection::btree_set((0u32..5, 0u32..5), 1..12),
        any::<bool>(),
        any::<bool>(),
        4u32..24,
    )
        .prop_map(|(a_facts, b_facts, second_rule, query_chain, depth)| {
            let mut src = String::new();
            src.push_str("top(X,Z) :- a(X,Y), b(Y,Z).\n");
            if second_rule {
                src.push_str("top(X,Z) :- b(X,Y), a(Y,Z).\n");
            }
            src.push_str("chain(X,Z) :- a(X,Z).\n");
            src.push_str("chain(X,Z) :- a(X,Y), chain(Y,Z).\n");
            for (x, y) in &a_facts {
                src.push_str(&format!("a(c{x},c{y}).\n"));
            }
            for (x, y) in &b_facts {
                src.push_str(&format!("b(c{x},f(c{y})).\n"));
            }
            if query_chain {
                src.push_str("?- chain(X,Z).\n");
            } else {
                src.push_str("?- top(X,Z).\n");
            }
            (src, depth)
        })
}

fn parse(src: &str) -> Program {
    parse_program(src).expect("generated program parses")
}

/// All solutions under `repr`, cut off below `depth`.
fn within(depth: u32, repr: StateRepr) -> SolveConfig {
    SolveConfig::all()
        .with_max_depth(depth)
        .with_state_repr(repr)
}

fn sorted(mut texts: Vec<String>) -> Vec<String> {
    texts.sort();
    texts
}

/// Trace-recording best-first run under `solve` (fresh weights, §5
/// learning on).
fn bf_run(
    p: &Program,
    solve: SolveConfig,
) -> (
    Vec<(String, u64)>,
    b_log::logic::SearchStats,
    Vec<b_log::logic::PointerKey>,
) {
    let store = WeightStore::new(WeightParams::default());
    let mut overlay = std::collections::HashMap::new();
    let mut view = WeightView::new(&mut overlay, &store);
    let cfg = BestFirstConfig {
        solve,
        record_trace: true,
        ..BestFirstConfig::default()
    };
    let r = best_first(&p.db, &p.queries[0], &mut view, &cfg);
    let sols = r
        .solutions
        .iter()
        .map(|s| (s.solution.to_text(&p.db), s.bound.0))
        .collect();
    (sols, r.stats, r.trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn best_first_is_representation_blind(case in arb_program()) {
        // (The vendored proptest macro only binds plain idents.)
        let (src, depth) = case;
        let p = parse(&src);
        let (sols_c, stats_c, trace_c) = bf_run(&p, within(depth, StateRepr::Cloned));
        let (sols_s, stats_s, trace_s) = bf_run(&p, within(depth, StateRepr::shared()));
        // Identical solutions *in discovery order*, with identical bounds.
        prop_assert_eq!(&sols_c, &sols_s);
        // Identical pop-order traces: the representations must not even
        // reorder the search.
        prop_assert_eq!(&trace_c, &trace_s);
        // Identical work counters (bytes_copied is the one field that is
        // *supposed* to differ).
        prop_assert_eq!(stats_c.nodes_expanded, stats_s.nodes_expanded);
        prop_assert_eq!(stats_c.unify_attempts, stats_s.unify_attempts);
        prop_assert_eq!(stats_c.unify_successes, stats_s.unify_successes);
        prop_assert_eq!(stats_c.failures, stats_s.failures);
        prop_assert_eq!(stats_c.solutions, stats_s.solutions);
        prop_assert_eq!(stats_c.depth_cutoff, stats_s.depth_cutoff);
        // Sharing must never copy more than cloning.
        prop_assert!(stats_s.bytes_copied <= stats_c.bytes_copied,
            "shared {} > cloned {}", stats_s.bytes_copied, stats_c.bytes_copied);
    }

    #[test]
    fn flatten_threshold_never_changes_results(case in arb_program(), threshold in 0u32..6) {
        // Adversarially small thresholds force flattening on (almost)
        // every sprout; results must be untouched.
        let (src, depth) = case;
        let p = parse(&src);
        let (sols_base, _, trace_base) = bf_run(&p, within(depth, StateRepr::shared()));
        let repr = StateRepr::Shared { flatten_threshold: threshold };
        let (sols_t, _, trace_t) = bf_run(&p, within(depth, repr));
        prop_assert_eq!(&sols_base, &sols_t, "threshold {}", threshold);
        prop_assert_eq!(&trace_base, &trace_t);
    }

    #[test]
    fn bfs_is_representation_blind(case in arb_program()) {
        let (src, depth) = case;
        let p = parse(&src);
        let q = &p.queries[0];
        let c = bfs_all(&p.db, q, &within(depth, StateRepr::Cloned));
        let s = bfs_all(&p.db, q, &within(depth, StateRepr::shared()));
        // BFS discovery order is frontier order: identical, not just
        // set-identical.
        prop_assert_eq!(c.solution_texts(&p.db), s.solution_texts(&p.db));
        prop_assert_eq!(c.stats.nodes_expanded, s.stats.nodes_expanded);
        prop_assert_eq!(c.stats.unify_attempts, s.stats.unify_attempts);
        prop_assert_eq!(c.stats.max_frontier, s.stats.max_frontier);
    }

    #[test]
    fn parallel_frontier_is_representation_blind(case in arb_program()) {
        let (src, depth) = case;
        let p = parse(&src);
        let q = &p.queries[0];
        let weights = WeightStore::new(WeightParams::default());
        let mk = |repr| ParallelConfig {
            n_workers: 3,
            solve: SolveConfig::all().with_max_depth(depth).with_state_repr(repr),
            ..ParallelConfig::default()
        };
        let c = par_best_first_with(&p.db, q, &weights, &mk(StateRepr::Cloned));
        let s = par_best_first_with(&p.db, q, &weights, &mk(StateRepr::shared()));
        // Parallel discovery order is scheduling-dependent: compare sets
        // and totals (frames here are shared across real threads).
        let ct = sorted(c.solutions.iter().map(|b| b.solution.to_text(&p.db)).collect());
        let st = sorted(s.solutions.iter().map(|b| b.solution.to_text(&p.db)).collect());
        prop_assert_eq!(ct, st);
        prop_assert_eq!(c.stats.nodes_expanded, s.stats.nodes_expanded);
        prop_assert_eq!(c.stats.unify_successes, s.stats.unify_successes);
    }
}

/// Sprout depth from which §6's copying argument is measured.
const DEEP_DEPTH: usize = 20;

/// Node budget of the deep-regime runs below.
const NODE_BUDGET: u64 = 120_000;

/// `(sprouts, bytes copied)` by child depth over a budgeted
/// breadth-first enumeration of `p`'s OR-tree under `repr`.
fn depth_profile(p: &Program, repr: StateRepr) -> Vec<(u64, u64)> {
    let mut by_depth: Vec<(u64, u64)> = Vec::new();
    let mut frontier = VecDeque::from([SearchNode::root_with(&p.queries[0].goals, repr)]);
    let mut expanded = 0u64;
    while let Some(node) = frontier.pop_front() {
        if expanded >= NODE_BUDGET {
            break;
        }
        if node.is_solution() {
            continue;
        }
        expanded += 1;
        let mut est = ExpandStats::default();
        let children = expand(&p.db, &node, &mut est);
        let child_depth = node.depth as usize + 1;
        if by_depth.len() <= child_depth {
            by_depth.resize(child_depth + 1, (0, 0));
        }
        by_depth[child_depth].0 += est.unify_successes;
        by_depth[child_depth].1 += est.bytes_copied;
        frontier.extend(children.into_iter().map(|e| e.node));
    }
    by_depth
}

fn totals(by_depth: &[(u64, u64)]) -> (u64, u64) {
    by_depth
        .iter()
        .fold((0, 0), |(s, b), (ds, db)| (s + ds, b + db))
}

/// §6 names "copying when chains are sprouted" as the dominant cost of
/// frontier search. On the cheapest workload that reaches the deep
/// regime, `Shared` must copy at least 10x fewer bytes per sprout at
/// depth ≥ 20 than `Cloned`, copy fewer bytes in total, and leave the
/// engine result untouched.
#[test]
fn shared_beats_cloned_by_10x_in_the_deep_regime() {
    let (p, _) = mapcolor_program(&MapColorParams {
        rows: 3,
        cols: 3,
        colors: 3,
    });
    let run = |repr| {
        bf_run(
            &p,
            SolveConfig::all()
                .with_max_nodes(NODE_BUDGET)
                .with_state_repr(repr),
        )
    };
    let (sols_c, stats_c, trace_c) = run(StateRepr::Cloned);
    let (sols_s, stats_s, trace_s) = run(StateRepr::shared());
    assert_eq!(sols_c, sols_s, "identical solutions and bounds");
    assert_eq!(trace_c, trace_s, "identical pop order");
    let work = |s: &b_log::logic::SearchStats| {
        (
            s.nodes_expanded,
            s.unify_attempts,
            s.unify_successes,
            s.failures,
            s.depth_cutoff,
            s.truncated,
        )
    };
    assert_eq!(work(&stats_c), work(&stats_s), "identical work counters");

    let cloned = depth_profile(&p, StateRepr::Cloned);
    let shared = depth_profile(&p, StateRepr::shared());
    assert!(
        cloned.len() > DEEP_DEPTH,
        "the enumeration reaches the deep regime"
    );
    let per_sprout = |(sprouts, bytes): (u64, u64)| {
        assert!(sprouts > 0, "sprouts at depth >= {DEEP_DEPTH}");
        bytes as f64 / sprouts as f64
    };
    let deep_cloned = per_sprout(totals(&cloned[DEEP_DEPTH..]));
    let deep_shared = per_sprout(totals(&shared[DEEP_DEPTH..]));
    assert!(
        deep_cloned >= 10.0 * deep_shared,
        "deep bytes/sprout: cloned {deep_cloned:.1} vs shared {deep_shared:.1}"
    );
    assert!(totals(&shared).1 < totals(&cloned).1, "total bytes copied");
}
