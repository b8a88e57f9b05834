//! Property tests for the two frontiers the one search loop runs on: on
//! arbitrary generated programs, the sequential engine's thread-local
//! heap (`best_first`, learning off), `par_best_first_with` at one worker
//! (the same heap, inline, with the deferred-learning sink) and at three
//! workers (a private heap each, sharing chains through the exchange) must be
//! observationally equivalent with pruning off — same solution sets, same
//! bounds, same nodes expanded and unifications — the way
//! `prop_state_repr` pins the search-state representations to each other.
//! Three workers start alone on worker 0: a tree below
//! `LONE_EXPANSIONS` must get no helper work and take the exchange's lock
//! once, to end, and in trees past it the helpers must take part.

use std::collections::{BTreeSet, HashMap};

use b_log::core::engine::{best_first, BestFirstConfig};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::{parse_program, Program, SolveConfig};
use b_log::parallel::{
    par_best_first_with, FrontierPolicy, ParallelConfig, ParallelResult, LONE_EXPANSIONS,
};
use proptest::prelude::*;

/// A layered program with structured terms and a recursive layer (same
/// family as `prop_state_repr`): facts `a/2`, `b/2` over constants, `top`
/// rules joining them, and a bounded-recursion `chain` layer so frontiers
/// actually deepen. With `fan = Some(n)` the query first picks one of `n`
/// `fan/1` facts, repeating the search under each: those trees reach
/// thousands of nodes, so many cross `LONE_EXPANSIONS`.
fn program_source(
    a_facts: &BTreeSet<(u32, u32)>,
    b_facts: &BTreeSet<(u32, u32)>,
    second_rule: bool,
    query_chain: bool,
    fan: Option<u32>,
) -> String {
    let mut src = String::new();
    src.push_str("top(X,Z) :- a(X,Y), b(Y,Z).\n");
    if second_rule {
        src.push_str("top(X,Z) :- b(X,Y), a(Y,Z).\n");
    }
    src.push_str("chain(X,Z) :- a(X,Z).\n");
    src.push_str("chain(X,Z) :- a(X,Y), chain(Y,Z).\n");
    for (x, y) in a_facts {
        src.push_str(&format!("a(c{x},c{y}).\n"));
    }
    for (x, y) in b_facts {
        src.push_str(&format!("b(c{x},f(c{y})).\n"));
    }
    let goal = if query_chain {
        "chain(X,Z)"
    } else {
        "top(X,Z)"
    };
    match fan {
        Some(n) => {
            for i in 0..n {
                src.push_str(&format!("fan(u{i}).\n"));
            }
            src.push_str(&format!("?- fan(U), {goal}.\n"));
        }
        None => src.push_str(&format!("?- {goal}.\n")),
    }
    src
}

/// A random program of `program_source`'s family, fanned out over 2–47
/// `fan/1` facts in half the cases, and its depth limit.
fn arb_program() -> impl Strategy<Value = (String, u32)> {
    (
        prop::collection::btree_set((0u32..5, 0u32..5), 1..12),
        prop::collection::btree_set((0u32..5, 0u32..5), 1..12),
        any::<bool>(),
        any::<bool>(),
        4u32..20,
        (any::<bool>(), 2u32..48),
    )
        .prop_map(
            |(a_facts, b_facts, second_rule, query_chain, depth, (fans, n))| {
                let fan = fans.then_some(n);
                let src = program_source(&a_facts, &b_facts, second_rule, query_chain, fan);
                (src, depth)
            },
        )
}

fn parse(src: &str) -> Program {
    parse_program(src).expect("generated program parses")
}

/// Run the parallel executor with pruning off and learning on.
fn run(p: &Program, workers: usize, depth: u32) -> ParallelResult {
    let weights = WeightStore::new(WeightParams::default());
    par_best_first_with(
        &p.db,
        &p.queries[0],
        &weights,
        &ParallelConfig {
            n_workers: workers,
            policy: FrontierPolicy::Sharded { d: 64 },
            solve: SolveConfig::all().with_max_depth(depth),
            ..ParallelConfig::default()
        },
    )
}

/// Sorted `(text, bound)` pairs — the executor-blind observable.
fn solution_set<'a>(
    p: &Program,
    solutions: impl IntoIterator<Item = &'a b_log::core::engine::BoundedSolution>,
) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = solutions
        .into_iter()
        .map(|s| (s.solution.to_text(&p.db), s.bound.0))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn frontier_policies_are_interchangeable(case in arb_program()) {
        // (The vendored proptest macro only binds plain idents.)
        let (src, depth) = case;
        let p = parse(&src);
        let weights = WeightStore::new(WeightParams::default());
        let mut overlay = HashMap::new();
        let seq = best_first(
            &p.db,
            &p.queries[0],
            &mut WeightView::new(&mut overlay, &weights),
            &BestFirstConfig {
                solve: SolveConfig::all().with_max_depth(depth),
                learn: false,
                ..BestFirstConfig::default()
            },
        );
        let seq_set = solution_set(&p, &seq.solutions);
        for workers in [1usize, 3] {
            let r = run(&p, workers, depth);
            prop_assert_eq!(&solution_set(&p, &r.solutions), &seq_set, "x{}", workers);
            // Pruning off: every executor expands the whole (depth-
            // limited) tree.
            prop_assert_eq!(
                r.stats.nodes_expanded, seq.stats.nodes_expanded,
                "x{}", workers
            );
            prop_assert_eq!(
                r.stats.unify_successes, seq.stats.unify_successes,
                "x{}", workers
            );
            prop_assert_eq!(
                r.per_worker_expanded.iter().sum::<u64>(),
                r.stats.nodes_expanded,
                "x{}: accounting", workers
            );
            if workers == 3 && seq.stats.nodes_expanded < LONE_EXPANSIONS {
                // Worker 0 searched alone: one exchange lock, to end, and
                // no helper work.
                prop_assert_eq!(r.counters.shard_locks, 1);
                prop_assert_eq!(&r.per_worker_expanded[1..], &[0, 0][..]);
            }
        }
    }
}

#[test]
fn helpers_take_part_in_trees_past_the_lone_start() {
    // Full 5 × 5 `a` and `b` tables under 16, 32 and 47 fans: every tree
    // crosses `LONE_EXPANSIONS`, so worker 0 calls the crew in each. A
    // helper that wakes after worker 0 has finished takes no part, so the
    // check is over the three runs, not each.
    let full: BTreeSet<(u32, u32)> = (0..5).flat_map(|x| (0..5).map(move |y| (x, y))).collect();
    let mut helped_runs = 0;
    for n in [16, 32, 47] {
        let p = parse(&program_source(&full, &full, true, true, Some(n)));
        let r = run(&p, 3, 8);
        assert!(
            r.stats.nodes_expanded > 2 * LONE_EXPANSIONS,
            "{n} fans: {} nodes",
            r.stats.nodes_expanded
        );
        // A helper took part: it received chains or expanded a node.
        let helped = r.counters.steals > 0 || r.per_worker_expanded[1..].iter().any(|&n| n > 0);
        helped_runs += u32::from(helped);
    }
    assert!(
        helped_runs > 0,
        "no helper took part in three crossing trees"
    );
}
