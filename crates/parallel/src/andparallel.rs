//! AND-parallel extensions (§7).
//!
//! "Its inclusion is a relatively simple issue for conjunctions of goals
//! which do not share variables … Calls which share variables can be
//! executed in sequence using the same scheme as Prolog. Alternatively a
//! join algorithm can be applied. In our implementation a highly
//! efficient semi-join algorithm can use the marking capabilities of the
//! SPD's."
//!
//! Three pieces, matching that paragraph:
//! - [`independent_groups`] — the variable-sharing analysis partitioning
//!   a conjunction into independent groups;
//! - [`and_parallel_solve`] — fork-join evaluation: each group solved on
//!   its own thread, solutions cross-joined (sound because the groups
//!   bind disjoint variables);
//! - [`semijoin_conjunction`] — for goals that *do* share variables:
//!   evaluate the producer, project the distinct shared bindings (the
//!   SPD "marking"), and evaluate the consumer once per distinct binding
//!   instead of once per producer solution.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use blog_core::weight::WeightStore;
use blog_logic::{
    dfs_all, push_solution, Bindings, ClauseDb, Query, SearchStats, Solution, SolveConfig,
    SolveResult, Term, Trail, VarId,
};
use serde::Serialize;

use crate::orparallel::{par_best_first, ParallelConfig};

/// Collect the variables occurring in a term.
fn vars_of(term: &Term, out: &mut HashSet<VarId>) {
    match term {
        Term::Var(v) => {
            out.insert(*v);
        }
        Term::Atom(_) | Term::Int(_) => {}
        Term::Struct(_, args) => {
            for a in args.iter() {
                vars_of(a, out);
            }
        }
    }
}

/// Partition the goals of a conjunction into groups such that goals in
/// different groups share no variables. Ground goals form singleton
/// groups. Group order follows the first goal of each group.
pub fn independent_groups(goals: &[Term]) -> Vec<Vec<usize>> {
    // Union-find over goal indices.
    let mut parent: Vec<usize> = (0..goals.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut owner: HashMap<VarId, usize> = HashMap::new();
    for (i, g) in goals.iter().enumerate() {
        let mut vs = HashSet::new();
        vars_of(g, &mut vs);
        for v in vs {
            match owner.get(&v) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a.max(b)] = a.min(b);
                    }
                }
                None => {
                    owner.insert(v, i);
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut root_to_group: HashMap<usize, usize> = HashMap::new();
    for i in 0..goals.len() {
        let r = find(&mut parent, i);
        match root_to_group.get(&r) {
            Some(&g) => groups[g].push(i),
            None => {
                root_to_group.insert(r, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Solve a conjunction by fork-join over its independent goal groups.
///
/// Each group runs (depth-first) on its own thread; the final solution
/// set is the cross product of the group solution sets — sound because
/// groups bind disjoint variables. Falls back to plain depth-first search
/// when the conjunction has a single group. The returned stats are the
/// *sum* of per-group work: with `g` independent groups of `s` solutions
/// each, sequential execution costs `O(s^g)` goal evaluations while this
/// costs `O(g·s)` plus the join.
pub fn and_parallel_solve(db: &ClauseDb, query: &Query, config: &SolveConfig) -> SolveResult {
    let groups = independent_groups(&query.goals);
    if groups.len() <= 1 {
        return dfs_all(db, query, config);
    }

    // Solve groups concurrently.
    let group_results: Vec<SolveResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .map(|idxs| {
                let sub = Query {
                    goals: idxs.iter().map(|&i| query.goals[i].clone()).collect(),
                    var_names: query.var_names.clone(),
                };
                let cfg = SolveConfig {
                    // Per-group limits: solutions cap applies to the join,
                    // not the factors; keep factors unbounded except for
                    // safety budgets.
                    max_solutions: None,
                    ..config.clone()
                };
                scope.spawn(move || dfs_all(db, &sub, &cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("group solver panicked"))
            .collect()
    });

    let mut stats = SearchStats::default();
    for r in &group_results {
        stats.merge(&r.stats);
    }
    let factors: Vec<Vec<Solution>> = group_results.into_iter().map(|r| r.solutions).collect();
    let solutions = cross_join(query, &groups, &factors, config.max_solutions);
    stats.solutions = solutions.len() as u64;
    SolveResult { solutions, stats }
}

/// Cross-join per-group solution sets back into whole-query solutions —
/// sound because the groups bind disjoint variables. Any empty factor
/// empties the product.
fn cross_join(
    query: &Query,
    groups: &[Vec<usize>],
    factors: &[Vec<Solution>],
    max_solutions: Option<usize>,
) -> Vec<Solution> {
    // Which variables each group binds.
    let group_vars: Vec<HashSet<VarId>> = groups
        .iter()
        .map(|idxs| {
            let mut vs = HashSet::new();
            for &i in idxs {
                vars_of(&query.goals[i], &mut vs);
            }
            vs
        })
        .collect();

    let var_names = Arc::new(query.var_names.clone());
    let n_vars = query.var_names.len();
    let mut solutions: Vec<Solution> = Vec::new();
    if factors.iter().all(|f| !f.is_empty()) {
        let mut index = vec![0usize; factors.len()];
        'outer: loop {
            let flow = push_solution(&mut solutions, max_solutions, || {
                let mut terms: Vec<Term> =
                    (0..n_vars).map(|i| Term::Var(VarId(i as u32))).collect();
                let mut depth = 0;
                for (g, f) in factors.iter().enumerate() {
                    let s = &f[index[g]];
                    depth += s.depth;
                    for (v, t) in s.terms.iter().enumerate() {
                        if group_vars[g].contains(&VarId(v as u32)) {
                            terms[v] = t.clone();
                        }
                    }
                }
                Solution {
                    var_names: Arc::clone(&var_names),
                    terms,
                    depth,
                }
            });
            if flow.is_break() {
                break;
            }
            // Odometer increment.
            for g in (0..index.len()).rev() {
                index[g] += 1;
                if index[g] < factors[g].len() {
                    continue 'outer;
                }
                index[g] = 0;
            }
            break;
        }
    }
    solutions
}

/// AND-parallelism over OR-parallelism: fork-join over the independent
/// goal groups, with each group enumerated by the OR-parallel best-first
/// executor instead of a single depth-first thread. Pruning and
/// `max_solutions` are join-level concerns, so each factor runs unpruned
/// and unbounded (safety budgets aside); the solution *set* therefore
/// matches [`and_parallel_solve`].
pub fn and_or_parallel_solve(
    db: &ClauseDb,
    query: &Query,
    weights: &WeightStore,
    config: &ParallelConfig,
) -> SolveResult {
    let groups = independent_groups(&query.goals);
    let factor_config = ParallelConfig {
        prune: blog_core::engine::PruneMode::None,
        learn: false,
        solve: SolveConfig {
            max_solutions: None,
            ..config.solve.clone()
        },
        ..config.clone()
    };
    if groups.len() <= 1 {
        // Single group: no join, so the solutions cap passes straight
        // through (par_best_first aborts early on it — important on
        // unbounded trees, where enumerate-then-truncate would never
        // return).
        let single_config = ParallelConfig {
            solve: config.solve.clone(),
            ..factor_config
        };
        let r = par_best_first(db, query, weights, &single_config);
        let mut stats = r.stats;
        let solutions: Vec<Solution> = r.solutions.into_iter().map(|b| b.solution).collect();
        stats.solutions = solutions.len() as u64;
        return SolveResult { solutions, stats };
    }

    // Each group gets its own OR-parallel frontier; the groups themselves
    // run sequentially here since every group already fans out across
    // `config.n_workers` worker threads.
    let mut stats = SearchStats::default();
    let mut factors: Vec<Vec<Solution>> = Vec::with_capacity(groups.len());
    for idxs in &groups {
        let sub = Query {
            goals: idxs.iter().map(|&i| query.goals[i].clone()).collect(),
            var_names: query.var_names.clone(),
        };
        let r = par_best_first(db, &sub, weights, &factor_config);
        stats.merge(&r.stats);
        factors.push(r.solutions.into_iter().map(|b| b.solution).collect());
    }
    let solutions = cross_join(query, &groups, &factors, config.solve.max_solutions);
    stats.solutions = solutions.len() as u64;
    SolveResult { solutions, stats }
}

/// Work counters for the semi-join strategy.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct SemiJoinStats {
    /// Solutions of the producer (first goal).
    pub producer_solutions: usize,
    /// Distinct shared-variable bindings (the "marked" set).
    pub distinct_keys: usize,
    /// Consumer evaluations performed (`== distinct_keys`; a naive
    /// nested-loop join performs `producer_solutions`).
    pub consumer_evaluations: usize,
}

/// Solve a two-part conjunction `g1, rest…` whose parts share variables,
/// using the semi-join strategy: enumerate `g1`, project the distinct
/// shared bindings, solve `rest` once per distinct binding, and join.
///
/// Returns the same solution set as sequential resolution (up to order).
pub fn semijoin_conjunction(
    db: &ClauseDb,
    query: &Query,
    config: &SolveConfig,
) -> (SolveResult, SemiJoinStats) {
    assert!(
        query.goals.len() >= 2,
        "semi-join needs a producer and a consumer"
    );
    let producer_goal = &query.goals[0];
    let rest: Vec<Term> = query.goals[1..].to_vec();

    // Shared variables between producer and consumer.
    let mut pv = HashSet::new();
    vars_of(producer_goal, &mut pv);
    let mut cv = HashSet::new();
    for g in &rest {
        vars_of(g, &mut cv);
    }
    let mut shared: Vec<VarId> = pv.intersection(&cv).copied().collect();
    shared.sort_unstable();

    // Producer pass.
    let producer = dfs_all(
        db,
        &Query {
            goals: vec![producer_goal.clone()],
            var_names: query.var_names.clone(),
        },
        &SolveConfig {
            max_solutions: None,
            ..config.clone()
        },
    );
    let mut stats = producer.stats;

    // Project distinct keys (the SPD "marking" step).
    let mut by_key: HashMap<Vec<Term>, Vec<usize>> = HashMap::new();
    for (i, s) in producer.solutions.iter().enumerate() {
        let key: Vec<Term> = shared.iter().map(|v| s.terms[v.index()].clone()).collect();
        by_key.entry(key).or_default().push(i);
    }
    let mut sj = SemiJoinStats {
        producer_solutions: producer.solutions.len(),
        distinct_keys: by_key.len(),
        consumer_evaluations: 0,
    };

    // Consumer pass: once per distinct key.
    let var_names = Arc::new(query.var_names.clone());
    let n_vars = query.var_names.len();
    let mut solutions: Vec<Solution> = Vec::new();
    let mut keys: Vec<&Vec<Term>> = by_key.keys().collect();
    keys.sort_by_key(|k| format!("{k:?}")); // deterministic order
    'keys: for key in keys {
        sj.consumer_evaluations += 1;
        // Substitute the key into the consumer goals.
        let mut bindings = Bindings::new();
        let mut trail = Trail::new();
        for (v, t) in shared.iter().zip(key.iter()) {
            bindings.ensure(v.index() + 1);
            bindings.bind(&mut trail, *v, t.clone());
        }
        let consumer_goals: Vec<Term> = rest.iter().map(|g| bindings.resolve(g)).collect();
        let consumer = dfs_all(
            db,
            &Query {
                goals: consumer_goals,
                var_names: query.var_names.clone(),
            },
            &SolveConfig {
                max_solutions: None,
                ..config.clone()
            },
        );
        stats.merge(&consumer.stats);
        if consumer.solutions.is_empty() {
            continue;
        }
        for &pi in &by_key[key] {
            let ps = &producer.solutions[pi];
            for cs in &consumer.solutions {
                let flow = push_solution(&mut solutions, config.max_solutions, || {
                    let mut terms: Vec<Term> =
                        (0..n_vars).map(|i| Term::Var(VarId(i as u32))).collect();
                    for (v, t) in ps.terms.iter().enumerate() {
                        if pv.contains(&VarId(v as u32)) {
                            terms[v] = t.clone();
                        }
                    }
                    for (v, t) in cs.terms.iter().enumerate() {
                        if cv.contains(&VarId(v as u32)) && !matches!(t, Term::Var(_)) {
                            terms[v] = t.clone();
                        }
                    }
                    Solution {
                        var_names: Arc::clone(&var_names),
                        terms,
                        depth: ps.depth + cs.depth,
                    }
                });
                if flow.is_break() {
                    break 'keys;
                }
            }
        }
    }
    stats.solutions = solutions.len() as u64;
    (SolveResult { solutions, stats }, sj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::parse_program;

    #[test]
    fn grouping_separates_disjoint_goals() {
        let mut p = parse_program("a(1). b(2). c(3).").unwrap();
        let q = blog_logic::parse_query(&mut p.db, "a(X), b(Y), c(Z)").unwrap();
        let groups = independent_groups(&q.goals);
        assert_eq!(groups, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn grouping_links_shared_vars_transitively() {
        let mut p = parse_program("a(1,1). b(1,1). c(1).").unwrap();
        // X links goals 0-1, Y links 1-2 → one group; Z separate.
        let q = blog_logic::parse_query(&mut p.db, "a(X,Y), b(Y,W), c(Z)").unwrap();
        let groups = independent_groups(&q.goals);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0, 1]);
        assert_eq!(groups[1], vec![2]);
    }

    #[test]
    fn ground_goals_are_singletons() {
        let mut p = parse_program("a(1). b(2).").unwrap();
        let q = blog_logic::parse_query(&mut p.db, "a(1), b(2)").unwrap();
        assert_eq!(independent_groups(&q.goals).len(), 2);
    }

    #[test]
    fn fork_join_matches_sequential_on_independent_conjunction() {
        let p = parse_program(
            "
            a(1). a(2). a(3).
            b(x). b(y).
            ?- a(X), b(Y).
        ",
        )
        .unwrap();
        let seq = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let par = and_parallel_solve(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(par.solutions.len(), 6);
        let mut a: Vec<String> = seq.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        let mut b: Vec<String> = par.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn fork_join_does_less_work_than_sequential() {
        // Each of three independent goals enumerates k facts; sequential
        // resolution re-solves inner goals per outer solution, fork-join
        // solves each exactly once.
        let mut src = String::new();
        for i in 0..10 {
            src.push_str(&format!("a({i}). b({i}). c({i}).\n"));
        }
        src.push_str("?- a(X), b(Y), c(Z).\n");
        let p = parse_program(&src).unwrap();
        let seq = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let par = and_parallel_solve(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(par.solutions.len(), 1000);
        assert_eq!(seq.solutions.len(), 1000);
        assert!(
            par.stats.nodes_expanded * 10 < seq.stats.nodes_expanded,
            "fork-join {} vs sequential {}",
            par.stats.nodes_expanded,
            seq.stats.nodes_expanded
        );
    }

    #[test]
    fn fork_join_empty_factor_gives_no_solutions() {
        let p = parse_program("a(1). ?- a(X), nosuch(Y).").unwrap();
        let r = and_parallel_solve(&p.db, &p.queries[0], &SolveConfig::all());
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn single_group_falls_back_to_dfs() {
        let p = parse_program("a(1,2). b(2,3). ?- a(X,Y), b(Y,Z).").unwrap();
        let r = and_parallel_solve(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(r.solutions[0].to_text(&p.db), "X = 1, Y = 2, Z = 3");
    }

    #[test]
    fn and_or_parallel_matches_fork_join_set() {
        use blog_core::weight::{WeightParams, WeightStore};
        let p = parse_program(
            "
            a(1). a(2). a(3).
            b(x). b(y).
            ?- a(X), b(Y).
        ",
        )
        .unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let seq = and_parallel_solve(&p.db, &p.queries[0], &SolveConfig::all());
        let par = and_or_parallel_solve(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                n_workers: 3,
                ..ParallelConfig::default()
            },
        );
        let mut a: Vec<String> = seq.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        let mut b: Vec<String> = par.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn and_or_parallel_single_group_honors_max_solutions_early() {
        use blog_core::weight::{WeightParams, WeightStore};
        // Cyclic graph: the OR-tree is unbounded, so the solutions cap
        // must abort the search rather than truncate afterwards.
        let p = parse_program(
            "
            edge(a,b). edge(b,c). edge(c,a).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- edge(X,Y), path(Y,Z).
            ?- path(a,c).
        ",
        )
        .unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let r = and_or_parallel_solve(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                n_workers: 2,
                solve: SolveConfig {
                    max_solutions: Some(1),
                    max_nodes: Some(20_000), // safety net, never hit
                    ..SolveConfig::all()
                },
                ..ParallelConfig::default()
            },
        );
        assert_eq!(r.solutions.len(), 1);
        assert!(!r.stats.truncated, "must stop on the cap, not the budget");
        assert!(r.stats.nodes_expanded < 10_000);
    }

    #[test]
    fn and_or_parallel_single_group_matches_dfs() {
        use blog_core::weight::{WeightParams, WeightStore};
        let p = parse_program("a(1,2). b(2,3). ?- a(X,Y), b(Y,Z).").unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let r = and_or_parallel_solve(&p.db, &p.queries[0], &weights, &ParallelConfig::default());
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(r.solutions[0].to_text(&p.db), "X = 1, Y = 2, Z = 3");
    }

    #[test]
    fn semijoin_matches_sequential_set() {
        let p = parse_program(
            "
            f(a,k1). f(b,k1). f(c,k2).
            g(k1,r1). g(k1,r2). g(k2,r3).
            ?- f(X,K), g(K,R).
        ",
        )
        .unwrap();
        let seq = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let (sj, stats) = semijoin_conjunction(&p.db, &p.queries[0], &SolveConfig::all());
        let mut a: Vec<String> = seq.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        let mut b: Vec<String> = sj.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // 3 producer solutions but only 2 distinct keys.
        assert_eq!(stats.producer_solutions, 3);
        assert_eq!(stats.distinct_keys, 2);
        assert_eq!(stats.consumer_evaluations, 2);
    }

    #[test]
    fn semijoin_saves_consumer_evaluations_on_skew() {
        // 50 producer rows share one key: one consumer evaluation total.
        let mut src = String::new();
        for i in 0..50 {
            src.push_str(&format!("f(p{i},k).\n"));
        }
        src.push_str("g(k,win).\n?- f(X,K), g(K,R).\n");
        let p = parse_program(&src).unwrap();
        let (r, stats) = semijoin_conjunction(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(r.solutions.len(), 50);
        assert_eq!(stats.producer_solutions, 50);
        assert_eq!(stats.consumer_evaluations, 1);
    }

    #[test]
    fn semijoin_handles_no_shared_vars() {
        // Degenerate: empty key → single consumer evaluation.
        let p = parse_program("a(1). a(2). b(7). ?- a(X), b(Y).").unwrap();
        let (r, stats) = semijoin_conjunction(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(r.solutions.len(), 2);
        assert_eq!(stats.distinct_keys, 1);
    }
}
