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
//! - [`and_parallel_solve`] — fork-join evaluation: each group is one
//!   factor search, and every combination of one answer per group is an
//!   answer (sound because the groups bind disjoint variables);
//! - [`semijoin_conjunction`] — for goals that *do* share variables:
//!   evaluate the producer, project the distinct shared bindings (the
//!   SPD "marking"), and evaluate the consumer once per distinct binding
//!   instead of once per producer answer.
//!
//! Both solvers are AND-parallelism over OR-parallelism, over any
//! [`ClauseSource`]. Every factor search of a call is an OR-parallel
//! best-first search, unpruned and learning nothing, on the one crew
//! started for the call (at one worker, on the caller's thread). One join
//! assembles the answers: it renames each factor answer's variables
//! apart, unifies the answers into one binding store and resolves the
//! query variables, so an unbound variable of one factor's answer never
//! aliases another's. A storage fault in any factor search fails the
//! whole call: a partial join is never an answer.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use blog_core::engine::PruneMode;
use blog_core::weight::WeightStore;
use blog_logic::{
    push_solution, unify, Bindings, ClauseSource, Query, SearchStats, Solution, SolveConfig,
    SolveResult, StoreError, Term, Trail, VarId,
};
use serde::Serialize;

use crate::orparallel::{with_call_search, ParallelConfig, ParallelResult};

/// The variables occurring in `goals`, ascending.
fn vars_of(goals: &[Term]) -> Vec<VarId> {
    fn collect(t: &Term, out: &mut Vec<VarId>) {
        match t {
            Term::Var(v) => out.push(*v),
            Term::Atom(_) | Term::Int(_) => {}
            Term::Struct(_, args) => args.iter().for_each(|a| collect(a, out)),
        }
    }
    let mut out = Vec::new();
    goals.iter().for_each(|g| collect(g, &mut out));
    out.sort_unstable();
    out.dedup();
    out
}

/// Partition the goals of a conjunction into groups such that goals in
/// different groups share no variables. Ground goals form singleton
/// groups. Group order follows the first goal of each group.
pub fn independent_groups(goals: &[Term]) -> Vec<Vec<usize>> {
    // Union-find over goal indices; a root is its group's first goal.
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..goals.len()).collect();
    let mut owner: HashMap<VarId, usize> = HashMap::new();
    for (i, g) in goals.iter().enumerate() {
        for v in vars_of(std::slice::from_ref(g)) {
            let j = *owner.entry(v).or_insert(i);
            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
            parent[a.max(b)] = a.min(b);
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = vec![0; goals.len()];
    for i in 0..goals.len() {
        let root = find(&mut parent, i);
        if root == i {
            group_of[i] = groups.len();
            groups.push(Vec::new());
        }
        groups[group_of[root]].push(i);
    }
    groups
}

/// One operand of the join: the variables a factor reports, and its
/// answers, each holding a term for every reported variable (indexed by
/// [`VarId`]).
struct Factor {
    vars: Vec<VarId>,
    answers: Vec<Solution>,
}

/// Every factor search of a call runs unpruned and learning nothing; only
/// a search whose answers are the call's own takes the solutions cap.
fn factor_config(config: &ParallelConfig, max_solutions: Option<usize>) -> ParallelConfig {
    ParallelConfig {
        prune: PruneMode::None,
        learn: false,
        solve: SolveConfig {
            max_solutions,
            ..config.solve.clone()
        },
        ..config.clone()
    }
}

/// Search `query` as one factor, adding its work to `stats`.
fn factor_answers(
    search: &dyn Fn(Query) -> ParallelResult,
    query: Query,
    stats: &mut SearchStats,
) -> Result<Vec<Solution>, StoreError> {
    let r = search(query);
    stats.merge(&r.stats);
    let answers = r.solutions.into_iter().map(|b| b.solution);
    r.store_error.map_or_else(|| Ok(answers.collect()), Err)
}

/// The join: push every combination of one answer per factor whose
/// reported terms unify, resolved over the query's variables, to `out`
/// until `cap` is met.
fn join(
    factors: &[Factor],
    var_names: &Arc<Vec<String>>,
    cap: Option<usize>,
    out: &mut Vec<Solution>,
) -> ControlFlow<()> {
    let n_vars = var_names.len() as u32;
    // Renamed answer variables start past every reported variable.
    let free = factors
        .iter()
        .flat_map(|f| &f.vars)
        .fold(n_vars, |m, v| m.max(v.0 + 1));
    let (mut bindings, mut trail) = (Bindings::new(), Trail::new());
    extend(
        factors,
        free,
        0,
        &mut bindings,
        &mut trail,
        &mut |bindings, depth| {
            push_solution(out, cap, || Solution {
                var_names: Arc::clone(var_names),
                terms: (0..n_vars)
                    .map(|v| bindings.resolve(&Term::Var(VarId(v))))
                    .collect(),
                depth,
            })
        },
    )
}

/// [`join`]'s depth-first walk: bind the first factor's answers in turn,
/// each with its variables shifted to start at `free`, and extend with the
/// rest.
fn extend(
    factors: &[Factor],
    free: u32,
    depth: u32,
    bindings: &mut Bindings,
    trail: &mut Trail,
    emit: &mut impl FnMut(&Bindings, u32) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some((factor, rest)) = factors.split_first() else {
        return emit(bindings, depth);
    };
    for answer in &factor.answers {
        let mark = trail.mark();
        let mut next = free;
        let unified = factor.vars.iter().all(|&v| {
            let t = &answer.terms[v.index()];
            if let Some(m) = t.max_var() {
                next = next.max(free + m.0 + 1);
            }
            unify(bindings, trail, &Term::Var(v), &t.offset_vars(free), false)
        });
        let flow = if unified {
            extend(rest, next, depth + answer.depth, bindings, trail, emit)
        } else {
            ControlFlow::Continue(())
        };
        bindings.undo_to(trail, mark);
        flow?;
    }
    ControlFlow::Continue(())
}

/// Solve a conjunction by fork-join over its independent goal groups.
///
/// Each group is one factor search, and the answers are every combination
/// of one answer per group. A lone group's search takes the solutions cap
/// itself, so it stops early (on an unbounded tree, enumerate-then-
/// truncate would never return); with several groups each is enumerated
/// whole and the cap is the join's. The returned stats are the *sum* of
/// per-group work: with `g` independent groups of `s` solutions each,
/// sequential execution costs `O(s^g)` goal evaluations while this costs
/// `O(g·s)` plus the join.
pub fn and_parallel_solve<S: ClauseSource + ?Sized>(
    source: &S,
    query: &Query,
    weights: &WeightStore,
    config: &ParallelConfig,
) -> Result<SolveResult, StoreError> {
    let groups = independent_groups(&query.goals);
    let cap = config.solve.max_solutions;
    let factor_config = factor_config(config, if groups.len() == 1 { cap } else { None });
    let mut stats = SearchStats::default();
    let factors = with_call_search(source, weights, &factor_config, |search| {
        groups
            .iter()
            .map(|idxs| {
                let goals: Vec<Term> = idxs.iter().map(|&i| query.goals[i].clone()).collect();
                let vars = vars_of(&goals);
                let sub = Query {
                    goals,
                    var_names: query.var_names.clone(),
                };
                let answers = factor_answers(search, sub, &mut stats)?;
                Ok(Factor { vars, answers })
            })
            .collect::<Result<Vec<_>, StoreError>>()
    })?;
    let mut solutions = Vec::new();
    let _ = join(
        &factors,
        &Arc::new(query.var_names.clone()),
        cap,
        &mut solutions,
    );
    stats.solutions = solutions.len() as u64;
    Ok(SolveResult { solutions, stats })
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

/// `t` with each variable replaced by `Var(base + j)`, where `j` is its
/// index in `seen` (appended on first occurrence).
fn number_vars(t: &Term, base: u32, seen: &mut Vec<VarId>) -> Term {
    match t {
        Term::Var(v) => {
            let j = seen.iter().position(|s| s == v).unwrap_or_else(|| {
                seen.push(*v);
                seen.len() - 1
            });
            Term::Var(VarId(base + j as u32))
        }
        Term::Atom(_) | Term::Int(_) => t.clone(),
        Term::Struct(f, args) => Term::app(
            *f,
            args.iter().map(|a| number_vars(a, base, seen)).collect(),
        ),
    }
}

/// Solve a conjunction `g1, rest…` whose parts share variables, using the
/// semi-join strategy: enumerate `g1`, project the distinct shared
/// bindings, solve `rest` once per distinct binding, and join.
///
/// A key may hold unbound variables. They are reported with the
/// consumer's answers, so each consumer answer unifies back into every
/// producer answer with that key. The producer is enumerated whole before
/// the first answer, so the solutions cap stops only the consumer side.
///
/// Returns the same solution set as sequential resolution (up to order
/// and the naming of unbound variables).
pub fn semijoin_conjunction<S: ClauseSource + ?Sized>(
    source: &S,
    query: &Query,
    weights: &WeightStore,
    config: &ParallelConfig,
) -> Result<(SolveResult, SemiJoinStats), StoreError> {
    assert!(
        query.goals.len() >= 2,
        "semi-join needs a producer and a consumer"
    );
    let (producer_goal, rest) = (&query.goals[0], &query.goals[1..]);
    let producer_vars = vars_of(std::slice::from_ref(producer_goal));
    let (shared, consumer_only): (Vec<VarId>, Vec<VarId>) = vars_of(rest)
        .into_iter()
        .partition(|v| producer_vars.contains(v));
    let (n_vars, cap) = (query.var_names.len() as u32, config.solve.max_solutions);
    let var_names = Arc::new(query.var_names.clone());
    let mut stats = SearchStats::default();
    let mut solutions = Vec::new();
    let sj = with_call_search(source, weights, &factor_config(config, None), |search| {
        let producer_query = Query {
            goals: vec![producer_goal.clone()],
            var_names: query.var_names.clone(),
        };
        let producer = factor_answers(search, producer_query, &mut stats)?;
        let producer_solutions = producer.len();

        // Mark: group the producer answers by key (the SPD "marking"): the
        // shared variables' terms, with the key's own variables numbered
        // from `n_vars` by first occurrence. Each answer reports the key's
        // variables too.
        let mut marked: Vec<(Vec<Term>, Vec<Solution>)> = Vec::new();
        let mut slot_of: HashMap<Vec<Term>, usize> = HashMap::new();
        for mut answer in producer {
            let mut seen = Vec::new();
            let key: Vec<Term> = shared
                .iter()
                .map(|v| number_vars(&answer.terms[v.index()], n_vars, &mut seen))
                .collect();
            answer.terms.extend(seen.into_iter().map(Term::Var));
            let slot = *slot_of.entry(key.clone()).or_insert_with(|| {
                marked.push((key, Vec::new()));
                marked.len() - 1
            });
            marked[slot].1.push(answer);
        }

        // Consumer pass: once per distinct key.
        let distinct_keys = marked.len();
        let mut consumer_evaluations = 0;
        for (key, answers) in marked {
            consumer_evaluations += 1;
            let (mut bindings, mut trail) = (Bindings::new(), Trail::new());
            for (&v, t) in shared.iter().zip(&key) {
                bindings.bind(&mut trail, v, t.clone());
            }
            let key_vars = vars_of(&key);
            let key_names = (0..key_vars.len()).map(|j| format!("_K{j}"));
            let consumer_query = Query {
                goals: rest.iter().map(|g| bindings.resolve(g)).collect(),
                var_names: query.var_names.iter().cloned().chain(key_names).collect(),
            };
            let consumer = factor_answers(search, consumer_query, &mut stats)?;
            let factors = [
                Factor {
                    vars: [&producer_vars[..], &key_vars].concat(),
                    answers,
                },
                Factor {
                    vars: [&consumer_only[..], &key_vars].concat(),
                    answers: consumer,
                },
            ];
            if join(&factors, &var_names, cap, &mut solutions).is_break() {
                break;
            }
        }
        Ok(SemiJoinStats {
            producer_solutions,
            distinct_keys,
            consumer_evaluations,
        })
    })?;
    stats.solutions = solutions.len() as u64;
    Ok((SolveResult { solutions, stats }, sj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_core::weight::WeightParams;
    use blog_logic::{canonical_query, dfs_all, parse_program, Program};

    fn weights() -> WeightStore {
        WeightStore::new(WeightParams::default())
    }

    fn workers(n_workers: usize) -> ParallelConfig {
        ParallelConfig {
            n_workers,
            ..ParallelConfig::default()
        }
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
    /// every variable then numbered by first occurrence, sorted: equal
    /// sets are equal up to a consistent renaming of non-query variables,
    /// and an answer that aliases a query variable shows it.
    fn answer_set(p: &Program, solutions: &[Solution]) -> Vec<String> {
        let mut v: Vec<String> = solutions
            .iter()
            .map(|s| {
                let terms = Query {
                    goals: s.terms.iter().map(|t| own(t, &s.terms)).collect(),
                    var_names: Vec::new(),
                };
                canonical_query(p.db.symbols(), &terms)
            })
            .collect();
        v.sort();
        v
    }

    fn dfs_set(p: &Program) -> Vec<String> {
        answer_set(
            p,
            &dfs_all(&p.db, &p.queries[0], &SolveConfig::all()).solutions,
        )
    }

    fn fork_join(p: &Program, config: &ParallelConfig) -> SolveResult {
        and_parallel_solve(&p.db, &p.queries[0], &weights(), config).unwrap()
    }

    fn semijoin(p: &Program, config: &ParallelConfig) -> (SolveResult, SemiJoinStats) {
        semijoin_conjunction(&p.db, &p.queries[0], &weights(), config).unwrap()
    }

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
        let r = fork_join(&p, &workers(1));
        assert_eq!(r.solutions.len(), 6);
        assert_eq!(answer_set(&p, &r.solutions), dfs_set(&p));
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
        for n_workers in [1, 2] {
            let par = fork_join(&p, &workers(n_workers));
            assert_eq!(par.solutions.len(), 1000);
            assert_eq!(seq.solutions.len(), 1000);
            assert!(
                par.stats.nodes_expanded * 10 < seq.stats.nodes_expanded,
                "fork-join {} vs sequential {}",
                par.stats.nodes_expanded,
                seq.stats.nodes_expanded
            );
        }
    }

    #[test]
    fn fork_join_empty_factor_gives_no_solutions() {
        let p = parse_program("a(1). ?- a(X), nosuch(Y).").unwrap();
        assert!(fork_join(&p, &workers(1)).solutions.is_empty());
    }

    #[test]
    fn fork_join_renames_unbound_answer_variables_apart() {
        // Each factor numbers its fresh variables from its own largest
        // variable, so unrenamed they collide with each other's and with
        // the other group's query variables.
        for src in [
            "p(f(A,B)). q(g(C)). ?- p(X), q(Y).",
            "p(f(W)). q(g(W)). ?- p(Y), q(X).",
        ] {
            let p = parse_program(src).unwrap();
            for n_workers in [1, 2] {
                let r = fork_join(&p, &workers(n_workers));
                assert_eq!(
                    answer_set(&p, &r.solutions),
                    dfs_set(&p),
                    "{src} x{n_workers}"
                );
            }
        }
    }

    #[test]
    fn and_or_parallel_matches_fork_join_set() {
        let p = parse_program(
            "
            a(1). a(2). a(3).
            b(x). b(y).
            ?- a(X), b(Y).
        ",
        )
        .unwrap();
        let one = fork_join(&p, &workers(1));
        let three = fork_join(&p, &workers(3));
        assert_eq!(
            answer_set(&p, &three.solutions),
            answer_set(&p, &one.solutions)
        );
        assert_eq!(three.stats.nodes_expanded, one.stats.nodes_expanded);
    }

    #[test]
    fn and_or_parallel_single_group_honors_max_solutions_early() {
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
        for n_workers in [1, 2] {
            let config = ParallelConfig {
                solve: SolveConfig {
                    max_solutions: Some(1),
                    max_nodes: Some(20_000), // safety net, never hit
                    ..SolveConfig::all()
                },
                ..workers(n_workers)
            };
            let r = fork_join(&p, &config);
            assert_eq!(r.solutions.len(), 1);
            assert!(!r.stats.truncated, "must stop on the cap, not the budget");
            assert!(r.stats.nodes_expanded < 10_000);
        }
    }

    #[test]
    fn and_or_parallel_single_group_matches_dfs() {
        let p = parse_program("a(1,2). b(2,3). ?- a(X,Y), b(Y,Z).").unwrap();
        for n_workers in [1, 2] {
            let r = fork_join(&p, &workers(n_workers));
            assert_eq!(r.solutions.len(), 1);
            assert_eq!(r.solutions[0].to_text(&p.db), "X = 1, Y = 2, Z = 3");
        }
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
        for n_workers in [1, 2] {
            let (sj, stats) = semijoin(&p, &workers(n_workers));
            assert_eq!(answer_set(&p, &sj.solutions), dfs_set(&p));
            // 3 producer solutions but only 2 distinct keys.
            assert_eq!(stats.producer_solutions, 3);
            assert_eq!(stats.distinct_keys, 2);
            assert_eq!(stats.consumer_evaluations, 2);
        }
    }

    #[test]
    fn semijoin_unifies_non_ground_keys_back_into_the_producer() {
        // The consumer binds variables of the producer's answer: the join
        // must carry those bindings back, not copy terms over.
        for (src, answers) in [
            ("p(Z,Z). q(a). ?- p(X,K), q(K).", 1),
            ("p(W,f(W)). q(f(b)). ?- p(X,K), q(K).", 1),
            ("p(W,g(W)). q(g(c)). q(g(d)). ?- p(X,K), q(K).", 2),
        ] {
            let p = parse_program(src).unwrap();
            for n_workers in [1, 2] {
                let (r, _) = semijoin(&p, &workers(n_workers));
                assert_eq!(r.solutions.len(), answers, "{src} x{n_workers}");
                assert_eq!(
                    answer_set(&p, &r.solutions),
                    dfs_set(&p),
                    "{src} x{n_workers}"
                );
            }
        }
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
        let (r, stats) = semijoin(&p, &workers(1));
        assert_eq!(r.solutions.len(), 50);
        assert_eq!(stats.producer_solutions, 50);
        assert_eq!(stats.consumer_evaluations, 1);
    }

    #[test]
    fn semijoin_handles_no_shared_vars() {
        // Degenerate: empty key → single consumer evaluation.
        let p = parse_program("a(1). a(2). b(7). ?- a(X), b(Y).").unwrap();
        let (r, stats) = semijoin(&p, &workers(1));
        assert_eq!(r.solutions.len(), 2);
        assert_eq!(stats.distinct_keys, 1);
    }
}
