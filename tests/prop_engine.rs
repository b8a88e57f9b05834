//! Property tests over randomly generated (recursion-free) programs:
//! every search strategy enumerates the same solution multiset, the §7
//! AND-parallel solvers enumerate it up to the naming of unbound
//! variables, and the B-LOG chain bounds behave like branch-and-bound
//! bounds must.

use b_log::core::engine::{best_first, best_first_with, BestFirstConfig, BoundPolicy};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::{
    bfs_all, canonical_query, dfs_all, iterative_deepening, parse_program, ClauseDb, ClauseSource,
    Query, Solution, SolveConfig, SolveResult, StoreError, Term,
};
use b_log::parallel::{
    and_parallel_solve, par_best_first_with, semijoin_conjunction, ParallelConfig,
};
use b_log::spd::{CommitMode, FaultPlan, IndexPolicy, MvccClauseStore, PagedStoreConfig};
use proptest::prelude::*;

/// A random layered Datalog-ish program:
/// - facts `a(ci, cj).` and `b(ci, cj).` over constants `c0..c4`, and
///   optionally one non-ground fact, `a(ci, W).` or `b(W, W).`,
/// - rules `top(X,Z) :- a(X,Y), b(Y,Z).` and optionally
///   `top(X,Z) :- b(X,Y), a(Y,Z).`,
/// - queries `?- top(X, Z).`, the independent conjunction
///   `?- a(X,Y), b(Z,W).` and the shared-variable one `?- a(X,Y), b(Y,Z).`
///
/// No recursion, so every engine terminates without limits.
fn arb_program() -> impl Strategy<Value = String> {
    (
        prop::collection::btree_set((0u32..5, 0u32..5), 0..10),
        prop::collection::btree_set((0u32..5, 0u32..5), 0..10),
        any::<bool>(),
        // 0..5: `a(ci, W).` with i = the draw; 5: `b(W, W).`; 6: neither.
        0u32..7,
    )
        .prop_map(|(a_facts, b_facts, second_rule, open_fact)| {
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
            match open_fact {
                0..=4 => src.push_str(&format!("a(c{open_fact},W).\n")),
                5 => src.push_str("b(W,W).\n"),
                _ => {}
            }
            // Guarantee the predicates exist so the query is well-formed.
            src.push_str("a(sentinel_x, sentinel_y).\n");
            src.push_str("b(sentinel_y, sentinel_z).\n");
            src.push_str("?- top(X,Z).\n");
            src.push_str("?- a(X,Y), b(Z,W).\n");
            src.push_str("?- a(X,Y), b(Y,Z).\n");
            src
        })
}

/// `t` with each query variable replaced by its own answer.
fn own(t: &Term, answer: &[Term]) -> Term {
    match t {
        Term::Var(v) => answer.get(v.index()).unwrap_or(t).clone(),
        Term::Atom(_) | Term::Int(_) => t.clone(),
        Term::Struct(f, args) => Term::app(*f, args.iter().map(|a| own(a, answer)).collect()),
    }
}

/// Each answer with its query variables read as their own answers and
/// every variable then numbered by first occurrence, sorted: two engines
/// agree up to a consistent renaming of non-query variables when these
/// are equal, and an answer that aliases a query variable shows it.
fn answer_set(db: &ClauseDb, solutions: &[Solution]) -> Vec<String> {
    let mut v: Vec<String> = solutions
        .iter()
        .map(|s| {
            let terms = Query {
                goals: s.terms.iter().map(|t| own(t, &s.terms)).collect(),
                var_names: Vec::new(),
            };
            canonical_query(db.symbols(), &terms)
        })
        .collect();
    v.sort();
    v
}

/// Both AND-parallel entry points on `q` over `source`.
fn and_solvers<S: ClauseSource + ?Sized>(
    source: &S,
    q: &Query,
    n_workers: usize,
) -> [(&'static str, Result<SolveResult, StoreError>); 2] {
    let weights = WeightStore::new(WeightParams::default());
    let cfg = ParallelConfig {
        n_workers,
        ..ParallelConfig::default()
    };
    [
        (
            "and-parallel",
            and_parallel_solve(source, q, &weights, &cfg),
        ),
        (
            "semi-join",
            semijoin_conjunction(source, q, &weights, &cfg).map(|(r, _)| r),
        ),
    ]
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

        let pr = par_best_first_with(db, q, &store, &ParallelConfig {
            n_workers: 3,
            ..ParallelConfig::default()
        });
        let texts = pr.solutions.iter().map(|s| s.solution.to_text(db)).collect();
        prop_assert_eq!(&sorted_texts(db, texts), &expected);
    }

    #[test]
    fn and_parallel_solvers_match_dfs_up_to_renaming(src in arb_program()) {
        // Over the clause database and through an epoch-0 snapshot under
        // the first-argument index, at one and two workers; a store that
        // faults every read fails the call instead.
        let p = parse_program(&src).expect("generated program parses");
        let db = &p.db;
        let indexed = PagedStoreConfig::default().with_index(IndexPolicy::FirstArg);
        let store = MvccClauseStore::new(db, indexed.clone(), CommitMode::Mvcc);
        let faulty = indexed.with_fault(Some(FaultPlan::transient(7, 1.0)));
        let faulty = MvccClauseStore::new(db, faulty, CommitMode::Mvcc);
        for q in &p.queries[1..] {
            let expected = answer_set(db, &dfs_all(db, q, &SolveConfig::all()).solutions);
            for n_workers in [1, 2] {
                let runs = and_solvers(db, q, n_workers)
                    .into_iter()
                    .chain(and_solvers(&store.begin_read(), q, n_workers));
                for (engine, r) in runs {
                    let r = r.expect("a fault-free source");
                    prop_assert_eq!(
                        &answer_set(db, &r.solutions),
                        &expected,
                        "{} x{}", engine, n_workers
                    );
                }
                for (engine, r) in and_solvers(&faulty.begin_read(), q, n_workers) {
                    prop_assert!(r.is_err(), "{} x{} must fail on a fault", engine, n_workers);
                }
            }
        }
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
            ];
            for n_workers in [1, 2] {
                let cfg = ParallelConfig {
                    n_workers,
                    solve: solve.clone(),
                    ..ParallelConfig::default()
                };
                let r = and_parallel_solve(db, q, &weights, &cfg).unwrap();
                runs.push(("and-parallel", counts(r)));
                if q.goals.len() >= 2 {
                    let (r, _) = semijoin_conjunction(db, q, &weights, &cfg).unwrap();
                    runs.push(("semi-join", counts(r)));
                }
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
                let r = par_best_first_with(db, q, &weights, &cfg);
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
