//! Property tests over randomly generated (recursion-free) programs:
//! every search strategy enumerates the same solution multiset, and the
//! B-LOG chain bounds behave like branch-and-bound bounds must.

use b_log::core::engine::{best_first, best_first_with, BestFirstConfig, BoundPolicy};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::{
    bfs_all, dfs_all, iterative_deepening, parse_program, SolveConfig, SolveResult,
};
use b_log::parallel::{and_parallel_solve, par_best_first, semijoin_conjunction, ParallelConfig};
use b_log::spd::{CommitMode, IndexPolicy, MvccClauseStore, PagedStoreConfig};
use proptest::prelude::*;

/// A random layered Datalog-ish program:
/// - facts `a(ci, cj).` and `b(ci, cj).` over constants `c0..c4`,
/// - rules `top(X,Z) :- a(X,Y), b(Y,Z).` and optionally
///   `top(X,Z) :- b(X,Y), a(Y,Z).`,
/// - query `?- top(X, Z).`
///
/// No recursion, so every engine terminates without limits.
fn arb_program() -> impl Strategy<Value = String> {
    (
        prop::collection::btree_set((0u32..5, 0u32..5), 0..10),
        prop::collection::btree_set((0u32..5, 0u32..5), 0..10),
        any::<bool>(),
    )
        .prop_map(|(a_facts, b_facts, second_rule)| {
            let mut src = String::new();
            src.push_str("top(X,Z) :- a(X,Y), b(Y,Z).\n");
            if second_rule {
                src.push_str("top(X,Z) :- b(X,Y), a(Y,Z).\n");
            }
            for (x, y) in &a_facts {
                src.push_str(&format!("a(c{x},c{y}).\n"));
            }
            for (x, y) in &b_facts {
                src.push_str(&format!("b(c{x},c{y}).\n"));
            }
            // Guarantee the predicates exist so the query is well-formed.
            src.push_str("a(sentinel_x, sentinel_y).\n");
            src.push_str("b(sentinel_y, sentinel_z).\n");
            src.push_str("?- top(X,Z).\n");
            src
        })
}

fn sorted_texts(db: &b_log::logic::ClauseDb, texts: Vec<String>) -> Vec<String> {
    let _ = db;
    let mut t = texts;
    t.sort();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_strategies_agree(src in arb_program()) {
        let p = parse_program(&src).expect("generated program parses");
        let db = &p.db;
        let q = &p.queries[0];
        let expected = sorted_texts(db, dfs_all(db, q, &SolveConfig::all()).solution_texts(db));

        let bfs = sorted_texts(db, bfs_all(db, q, &SolveConfig::all()).solution_texts(db));
        prop_assert_eq!(&bfs, &expected);

        let store = WeightStore::new(WeightParams::default());
        let mut overlay = std::collections::HashMap::new();
        for policy in [BoundPolicy::Weights, BoundPolicy::Uniform, BoundPolicy::Lifo, BoundPolicy::Fifo] {
            let mut view = WeightView::new(&mut overlay, &store);
            let cfg = BestFirstConfig { bound_policy: policy, ..BestFirstConfig::default() };
            let r = best_first(db, q, &mut view, &cfg);
            prop_assert_eq!(
                &sorted_texts(db, r.solution_texts(db)),
                &expected,
                "policy {:?}", policy
            );
        }

        let pr = par_best_first(db, q, &store, &ParallelConfig {
            n_workers: 3,
            ..ParallelConfig::default()
        });
        let texts = pr.solutions.iter().map(|s| s.solution.to_text(db)).collect();
        prop_assert_eq!(&sorted_texts(db, texts), &expected);
    }

    #[test]
    fn chain_bounds_are_monotone_and_consistent(src in arb_program()) {
        // Every recorded solution bound equals the sum of its chain's
        // weights and trained reruns close solution chains at exactly N.
        let p = parse_program(&src).expect("generated program parses");
        let db = &p.db;
        let q = &p.queries[0];
        let store = WeightStore::new(WeightParams::default());
        let mut overlay = std::collections::HashMap::new();
        {
            let mut view = WeightView::new(&mut overlay, &store);
            best_first(db, q, &mut view, &BestFirstConfig::default());
        }
        let mut view = WeightView::new(&mut overlay, &store);
        let r = best_first(db, q, &mut view, &BestFirstConfig::default());
        let n = store.params().target.0 as u64;
        for s in &r.solutions {
            prop_assert_eq!(s.bound.0, n, "trained solution bound must be N");
        }
    }

    #[test]
    fn first_solution_search_never_expands_more_than_full(src in arb_program()) {
        let p = parse_program(&src).expect("generated program parses");
        let db = &p.db;
        let q = &p.queries[0];
        let full = dfs_all(db, q, &SolveConfig::all());
        let first = dfs_all(db, q, &SolveConfig::first());
        prop_assert!(first.stats.nodes_expanded <= full.stats.nodes_expanded);
        if full.stats.solutions > 0 {
            prop_assert_eq!(first.stats.solutions, 1);
        }
    }

    #[test]
    fn first_arg_indexing_is_semantically_invisible(src in arb_program()) {
        // The store's first-argument index, read through epoch-0
        // snapshots: it may only skip attempts unification would fail.
        let p = parse_program(&src).expect("generated program parses");
        let q = &p.queries[0];
        let weights = WeightStore::new(WeightParams::default());
        let run = |index: IndexPolicy| {
            let cfg = PagedStoreConfig::default().with_index(index);
            let store = MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc);
            let mut overlay = std::collections::HashMap::new();
            let mut view = WeightView::new(&mut overlay, &weights);
            let bf = BestFirstConfig { learn: false, ..BestFirstConfig::default() };
            let r = best_first_with(&store.begin_read(), q, &mut view, &bf);
            (sorted_texts(&p.db, r.solution_texts(&p.db)), r.stats)
        };
        let (plain, plain_stats) = run(IndexPolicy::None);
        let (indexed, indexed_stats) = run(IndexPolicy::FirstArg);
        prop_assert_eq!(plain, indexed);
        prop_assert_eq!(indexed_stats.nodes_expanded, plain_stats.nodes_expanded);
        prop_assert!(indexed_stats.unify_attempts <= plain_stats.unify_attempts);
    }

    #[test]
    fn learning_never_loses_solutions_across_repeats(src in arb_program()) {
        let p = parse_program(&src).expect("generated program parses");
        let db = &p.db;
        let q = &p.queries[0];
        let baseline = dfs_all(db, q, &SolveConfig::all()).stats.solutions;
        let store = WeightStore::new(WeightParams::default());
        let mut overlay = std::collections::HashMap::new();
        for _ in 0..3 {
            let mut view = WeightView::new(&mut overlay, &store);
            let r = best_first(db, q, &mut view, &BestFirstConfig::default());
            prop_assert_eq!(r.stats.solutions, baseline);
        }
    }
}

/// A solution cap is a ceiling for every engine, 0 included: each
/// returns `min(cap, n)` solutions and counts exactly those in its stats.
#[test]
fn every_engine_returns_at_most_its_solution_cap() {
    let p = parse_program(
        "p(a). p(b). q(c). q(d). r(a,c). r(b,d). s(c). s(d).
         ?- p(X).
         ?- p(X), q(Y).
         ?- r(X,Y), s(Y).",
    )
    .unwrap();
    let db = &p.db;
    let weights = WeightStore::new(WeightParams::default());
    for q in &p.queries {
        let n = dfs_all(db, q, &SolveConfig::all()).solutions.len();
        assert!(n >= 2, "each query has at least two solutions");
        for cap in [0, 1, 2] {
            let solve = SolveConfig {
                max_solutions: Some(cap),
                ..SolveConfig::all()
            };
            let counts = |r: SolveResult| (r.solutions.len(), r.stats.solutions);
            let mut runs = vec![
                ("dfs", counts(dfs_all(db, q, &solve))),
                ("bfs", counts(bfs_all(db, q, &solve))),
                ("id", counts(iterative_deepening(db, q, &solve, 1, 1))),
                ("and-parallel", counts(and_parallel_solve(db, q, &solve))),
            ];
            if q.goals.len() >= 2 {
                runs.push(("semi-join", counts(semijoin_conjunction(db, q, &solve).0)));
            }
            let mut overlay = std::collections::HashMap::new();
            let mut view = WeightView::new(&mut overlay, &weights);
            let bf = BestFirstConfig {
                solve: solve.clone(),
                learn: false,
                ..BestFirstConfig::default()
            };
            let r = best_first(db, q, &mut view, &bf);
            runs.push(("best-first", (r.solutions.len(), r.stats.solutions)));
            for n_workers in [1, 2] {
                let cfg = ParallelConfig {
                    n_workers,
                    solve: solve.clone(),
                    ..ParallelConfig::default()
                };
                let r = par_best_first(db, q, &weights, &cfg);
                runs.push(("par-best-first", (r.solutions.len(), r.stats.solutions)));
            }
            for (engine, (got, counted)) in runs {
                let goals = q.goals.len();
                assert_eq!(got, cap.min(n), "{engine}, {goals} goal(s), cap {cap}");
                assert_eq!(counted, got as u64, "{engine}, {goals} goal(s), cap {cap}");
            }
        }
    }
}
