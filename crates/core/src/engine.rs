//! The best-first branch-and-bound engine — B-LOG proper.
//!
//! "An approach based on a branch-and-bound algorithm seems more
//! appropriate\[,\] using best-first search guided by a bound. … Each
//! processor works on the chains with the lowest bounds" (§3). This module
//! is the single-processor engine; `blog-machine` simulates, and
//! `blog-parallel` actually runs, the multi-processor version around the
//! same expansion and update rules.
//!
//! The frontier is a min-heap of chains keyed by bound, with a strictly
//! monotone sequence number as a deterministic tie-break. Weight updates
//! happen *during* the search, exactly as in the paper's machine: a
//! success immediately rewrites its chain's weights in the local database,
//! a failure plants an infinity. Chains already in the frontier keep the
//! bound they were priced at — the paper's "approximation to true
//! best-first searching".

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use blog_logic::node::ExpandStats;
use blog_logic::{try_expand_via, Query, SearchNode, SearchStats, SolveConfig, Solution};
use blog_logic::{ClauseDb, ClauseSource};
use serde::Serialize;

use crate::chain::Chain;
use crate::update::{failure_update, success_update, InfinityPlacement};
use crate::util::SplitMix64;
use crate::weight::{Bound, Weight, WeightView};

/// How a chain's priority key is computed. `Weights` is B-LOG; the other
/// policies exist for the A2 ablation, which shows that the *bound* — not
/// merely having a priority queue — provides the speedup.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum BoundPolicy {
    /// B-LOG: sum of learned arc weights.
    Weights,
    /// Every arc costs 1: degenerate to breadth-first (with FIFO ties).
    Uniform,
    /// Ignore bounds, last-in-first-out: degenerate to depth-first.
    Lifo,
    /// Ignore bounds, first-in-first-out: plain breadth-first.
    Fifo,
}

/// Incumbent pruning. "Once a solution is found, its bound can be used to
/// cut off any searches on other chains if their bound is greater than the
/// one found" (§3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum PruneMode {
    /// Never prune — complete enumeration.
    None,
    /// Drop frontier chains whose bound exceeds the best solution bound
    /// plus `slack`. With learned weights all solutions aim at bound `N`,
    /// so a slack of a few units keeps enumeration complete in practice
    /// while cutting hopeless (infinity-priced) chains.
    Incumbent {
        /// Extra bound allowance above the incumbent.
        slack: Weight,
    },
}

/// Configuration for [`best_first`].
#[derive(Clone, Debug)]
pub struct BestFirstConfig {
    /// Limits shared with the baseline engines.
    pub solve: SolveConfig,
    /// Priority key policy (B-LOG = `Weights`).
    pub bound_policy: BoundPolicy,
    /// Incumbent pruning mode.
    pub prune: PruneMode,
    /// Whether to run the §5 weight updates during the search.
    pub learn: bool,
    /// Failure-infinity placement (A1 ablation; paper = `NearestLeaf`).
    pub infinity_placement: InfinityPlacement,
    /// Seed for the `Random` placement ablation.
    pub seed: u64,
    /// Record the arc of every chain popped from the frontier, in pop
    /// order, into [`BlogResult::trace`] — the clause-access trace the
    /// SPD paging experiments replay.
    pub record_trace: bool,
    /// Cooperative cancellation, checked once per popped chain. A tripped
    /// token stops the search exactly like an exhausted node budget
    /// (`stats.truncated`), keeping whatever solutions were already
    /// found. `None` (the default) runs to completion.
    pub cancel: Option<blog_logic::CancelToken>,
}

impl Default for BestFirstConfig {
    fn default() -> Self {
        BestFirstConfig {
            solve: SolveConfig::all(),
            bound_policy: BoundPolicy::Weights,
            prune: PruneMode::None,
            learn: true,
            infinity_placement: InfinityPlacement::NearestLeaf,
            seed: 0x5EED,
            record_trace: false,
            cancel: None,
        }
    }
}

impl BestFirstConfig {
    /// Stop at the first solution.
    pub fn first_solution() -> Self {
        BestFirstConfig {
            solve: SolveConfig::first(),
            ..Self::default()
        }
    }
}

/// B-LOG-specific counters, alongside the common [`SearchStats`].
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct BlogStats {
    /// Chains discarded by incumbent pruning.
    pub pruned: u64,
    /// Success updates applied.
    pub success_updates: u64,
    /// Failure updates applied.
    pub failure_updates: u64,
    /// §5 anomalies observed (overweight success chains, unmarkable
    /// failure chains).
    pub anomalies: u64,
    /// Bound of the best solution found, if any.
    pub best_bound: Option<Bound>,
}

/// A solution with the bound of the chain that produced it.
#[derive(Clone, Debug)]
pub struct BoundedSolution {
    /// The resolved query bindings.
    pub solution: Solution,
    /// The chain's bound when it closed.
    pub bound: Bound,
}

/// Result of a best-first run.
#[derive(Clone, Debug)]
pub struct BlogResult {
    /// Solutions in discovery order, with bounds.
    pub solutions: Vec<BoundedSolution>,
    /// Work counters comparable with the baseline engines.
    pub stats: SearchStats,
    /// B-LOG-specific counters.
    pub blog: BlogStats,
    /// Arcs of popped chains in pop order (empty unless
    /// [`BestFirstConfig::record_trace`] was set).
    pub trace: Vec<blog_logic::PointerKey>,
    /// The storage fault that aborted the search, if one did. `Some`
    /// only when searching a fault-planned source: the run stopped at
    /// the fault (with `stats.truncated` set), and `solutions` holds
    /// whatever closed before it — callers must treat the set as
    /// partial, never complete.
    pub store_error: Option<blog_logic::StoreError>,
}

impl BlogResult {
    /// Convenience: rendered solution texts.
    pub fn solution_texts(&self, db: &ClauseDb) -> Vec<String> {
        self.solutions
            .iter()
            .map(|s| s.solution.to_text(db))
            .collect()
    }
}

/// Heap key: `(priority, seq)`, wrapped for a min-heap.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey(u64, u64);

struct HeapEntry {
    key: HeapKey,
    chain: Chain,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

fn priority(policy: BoundPolicy, bound: Bound, depth: u32, seq: u64) -> HeapKey {
    match policy {
        BoundPolicy::Weights => HeapKey(bound.0, seq),
        BoundPolicy::Uniform => HeapKey(depth as u64, seq),
        BoundPolicy::Lifo => HeapKey(0, u64::MAX - seq),
        BoundPolicy::Fifo => HeapKey(0, seq),
    }
}

/// Run the B-LOG best-first branch-and-bound search for `query`, reading
/// and (if `config.learn`) updating weights through `view`.
pub fn best_first(
    db: &ClauseDb,
    query: &Query,
    view: &mut WeightView<'_>,
    config: &BestFirstConfig,
) -> BlogResult {
    best_first_with(db, query, view, config)
}

/// [`best_first`], generalized over any [`ClauseSource`].
///
/// This is how the engine searches a *paged* clause database: pass a
/// `Snapshot` of `blog-spd`'s `MvccClauseStore` and every clause the
/// search touches is routed through its track cache, producing real
/// hit/miss/eviction statistics for the access pattern the bound policy
/// actually generates. Results are identical to running over the backing
/// [`ClauseDb`] directly — paging is semantically transparent. A store
/// fault ends the search with `fault` set on the result; it never
/// panics.
pub fn best_first_with<S: ClauseSource + ?Sized>(
    source: &S,
    query: &Query,
    view: &mut WeightView<'_>,
    config: &BestFirstConfig,
) -> BlogResult {
    let var_names = Arc::new(query.var_names.clone());
    let n_query_vars = query.var_names.len() as u32;
    let mut stats = SearchStats::default();
    let mut blog = BlogStats::default();
    let mut solutions: Vec<BoundedSolution> = Vec::new();
    let mut rng = SplitMix64::new(config.seed);
    let mut seq: u64 = 0;
    let mut incumbent: Option<Bound> = None;

    let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
    let root = Chain::root(SearchNode::root_with(&query.goals, config.solve.state_repr));
    heap.push(Reverse(HeapEntry {
        key: priority(config.bound_policy, root.bound, 0, seq),
        chain: root,
    }));
    seq += 1;

    let mut trace: Vec<blog_logic::PointerKey> = Vec::new();
    let mut store_error: Option<blog_logic::StoreError> = None;

    while let Some(Reverse(entry)) = heap.pop() {
        if config.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            stats.truncated = true;
            break;
        }
        let chain = entry.chain;
        if config.record_trace {
            if let Some(link) = &chain.last {
                trace.push(link.arc);
            }
        }

        // Incumbent pruning: drop chains that can no longer beat (or tie
        // within slack of) the best solution. Bounds are monotone along
        // chains, so this never cuts a chain that could close at or under
        // the threshold.
        if let (PruneMode::Incumbent { slack }, Some(best)) = (config.prune, incumbent) {
            if chain.bound > best.plus(slack) {
                blog.pruned += 1;
                continue;
            }
        }

        if chain.node.is_solution() {
            // Solution extraction resolves through the node's state —
            // under `Shared`, that chases the persistent frame chain.
            let terms = (0..n_query_vars)
                .map(|i| chain.node.resolve_var(i))
                .collect();
            solutions.push(BoundedSolution {
                solution: Solution {
                    var_names: Arc::clone(&var_names),
                    terms,
                    depth: chain.node.depth,
                },
                bound: chain.bound,
            });
            stats.solutions += 1;
            incumbent = Some(match incumbent {
                Some(b) if b <= chain.bound => b,
                _ => chain.bound,
            });
            blog.best_bound = incumbent;
            if config.learn {
                let out = success_update(view, &chain.arcs_root_to_leaf());
                blog.success_updates += 1;
                blog.anomalies += u64::from(out.anomaly);
            }
            if let Some(max) = config.solve.max_solutions {
                if solutions.len() >= max {
                    break;
                }
            }
            continue;
        }

        if let Some(limit) = config.solve.max_depth {
            if chain.node.depth >= limit {
                stats.depth_cutoff = true;
                continue;
            }
        }
        if let Some(budget) = config.solve.max_nodes {
            if stats.nodes_expanded >= budget {
                stats.truncated = true;
                break;
            }
        }

        stats.nodes_expanded += 1;
        let mut est = ExpandStats::default();
        let children = match try_expand_via(source, &chain.node, &mut est) {
            Ok(children) => children,
            Err(e) => {
                // A storage fault aborts the search at the faulted
                // expansion: the solution set so far is incomplete, so
                // mark the run truncated and surface the error for the
                // caller's retry/fail decision.
                stats.truncated = true;
                store_error = Some(e);
                break;
            }
        };
        stats.unify_attempts += est.unify_attempts;
        stats.unify_successes += est.unify_successes;
        stats.bytes_copied += est.bytes_copied;

        if children.is_empty() {
            // A failure leaf: a goal remained but nothing resolved it.
            stats.failures += 1;
            if config.learn {
                let out = failure_update(
                    view,
                    &chain.arcs_root_to_leaf(),
                    config.infinity_placement,
                    &mut rng,
                );
                blog.failure_updates += 1;
                blog.anomalies += u64::from(out.anomaly);
            }
            continue;
        }

        // Under LIFO, sibling order must match the clause order a stack
        // would see (first clause on top), so enqueue them in reverse.
        let ordered: Vec<_> = if config.bound_policy == BoundPolicy::Lifo {
            children.into_iter().rev().collect()
        } else {
            children
        };
        for child in ordered {
            let w = view.effective_weight(child.arc);
            let next = chain.extend(child.arc, w, child.node);
            let key = priority(config.bound_policy, next.bound, next.node.depth, seq);
            seq += 1;
            heap.push(Reverse(HeapEntry { key, chain: next }));
        }
        stats.max_frontier = stats.max_frontier.max(heap.len());
    }

    BlogResult {
        solutions,
        stats,
        blog,
        trace,
        store_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight::{WeightParams, WeightState, WeightStore};
    use blog_logic::parse_program;
    use std::collections::HashMap;

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    fn run_family(config: &BestFirstConfig) -> (BlogResult, WeightStore) {
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let r = best_first(&p.db, &p.queries[0], &mut view, config);
        // Fold the local learning into a store for inspection.
        let mut merged = WeightStore::new(WeightParams::default());
        for (k, v) in local {
            merged.set(k, v);
        }
        (r, merged)
    }

    #[test]
    fn finds_the_full_solution_set() {
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let r = best_first(&p.db, &p.queries[0], &mut view, &BestFirstConfig::default());
        let mut names: Vec<_> = r
            .solutions
            .iter()
            .map(|s| s.solution.binding_text(&p.db, "G").unwrap())
            .collect();
        names.sort();
        assert_eq!(names, vec!["den", "doug"]);
    }

    #[test]
    fn matches_dfs_solution_set_on_family() {
        let p = parse_program(FAMILY).unwrap();
        let dfs = blog_logic::dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let (r, _) = run_family(&BestFirstConfig::default());
        assert_eq!(r.solutions.len(), dfs.solutions.len());
    }

    #[test]
    fn success_chains_get_bound_n_in_local_db() {
        let (_, learned) = run_family(&BestFirstConfig::default());
        // After both solutions, the arcs of each solved chain are Known.
        let census = learned.census();
        assert!(census.known >= 3, "census {census:?}");
        // The failing m-branch planted exactly one infinity.
        assert!(census.infinite >= 1);
    }

    #[test]
    fn second_run_with_learned_weights_is_cheaper_to_first_solution() {
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();

        let cfg_first = BestFirstConfig::first_solution();
        let cold = {
            let mut view = WeightView::new(&mut local, &global);
            best_first(&p.db, &p.queries[0], &mut view, &cfg_first)
        };
        // Keep the learned local overlay for the second run.
        let warm = {
            let mut view = WeightView::new(&mut local, &global);
            best_first(&p.db, &p.queries[0], &mut view, &cfg_first)
        };
        assert!(
            warm.stats.nodes_expanded <= cold.stats.nodes_expanded,
            "warm {} > cold {}",
            warm.stats.nodes_expanded,
            cold.stats.nodes_expanded
        );
    }

    #[test]
    fn trained_solution_bound_is_exactly_n() {
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let cfg = BestFirstConfig::default();
        {
            let mut view = WeightView::new(&mut local, &global);
            best_first(&p.db, &p.queries[0], &mut view, &cfg);
        }
        let mut view = WeightView::new(&mut local, &global);
        let r = best_first(&p.db, &p.queries[0], &mut view, &cfg);
        let n = global.params().target.0 as u64;
        for s in &r.solutions {
            assert_eq!(s.bound.0, n, "solution bound {} != N {}", s.bound.0, n);
        }
    }

    #[test]
    fn lifo_policy_behaves_like_dfs_first_solution() {
        let p = parse_program(
            "
            p(deep) :- q, q, q, r.
            p(shallow).
            q. r.
            ?- p(X).
        ",
        )
        .unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let cfg = BestFirstConfig {
            solve: SolveConfig::first(),
            bound_policy: BoundPolicy::Lifo,
            learn: false,
            ..BestFirstConfig::default()
        };
        let r = best_first(&p.db, &p.queries[0], &mut view, &cfg);
        assert_eq!(
            r.solutions[0].solution.binding_text(&p.db, "X").unwrap(),
            "deep"
        );
    }

    #[test]
    fn fifo_policy_behaves_like_bfs_first_solution() {
        let p = parse_program(
            "
            p(deep) :- q, q, q, r.
            p(shallow).
            q. r.
            ?- p(X).
        ",
        )
        .unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let cfg = BestFirstConfig {
            solve: SolveConfig::first(),
            bound_policy: BoundPolicy::Fifo,
            learn: false,
            ..BestFirstConfig::default()
        };
        let r = best_first(&p.db, &p.queries[0], &mut view, &cfg);
        assert_eq!(
            r.solutions[0].solution.binding_text(&p.db, "X").unwrap(),
            "shallow"
        );
    }

    #[test]
    fn pruning_cuts_infinity_priced_chains_on_retry() {
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let cfg_learn = BestFirstConfig::default();
        {
            let mut view = WeightView::new(&mut local, &global);
            best_first(&p.db, &p.queries[0], &mut view, &cfg_learn);
        }
        // Retry with pruning: the m-branch (marked infinite) is discarded
        // without expansion.
        let cfg_prune = BestFirstConfig {
            prune: PruneMode::Incumbent {
                slack: Weight::from_bits_int(2),
            },
            ..BestFirstConfig::default()
        };
        let mut view = WeightView::new(&mut local, &global);
        let r = best_first(&p.db, &p.queries[0], &mut view, &cfg_prune);
        assert_eq!(r.solutions.len(), 2, "pruning must keep all solutions");
        assert!(r.blog.pruned > 0, "expected pruned chains");
    }

    #[test]
    fn weight_preference_steers_search_order() {
        // Two ways to prove p: via a (cheap weights) and via b. Pre-set
        // weights so the b-route is cheap and check it is found first.
        let p = parse_program(
            "
            p(X) :- a(X).
            p(X) :- b(X).
            a(1). b(2).
            ?- p(X).
        ",
        )
        .unwrap();
        let params = WeightParams::default();
        let mut global = WeightStore::new(params);
        // Find the arc keys by expanding manually: arcs from the query are
        // (Query, 0, clause0/clause1).
        use blog_logic::{Caller, ClauseId, PointerKey};
        let to_rule_a = PointerKey {
            caller: Caller::Query,
            goal_idx: 0,
            target: ClauseId(0),
        };
        let to_rule_b = PointerKey {
            caller: Caller::Query,
            goal_idx: 0,
            target: ClauseId(1),
        };
        global.set(to_rule_a, WeightState::Known(Weight::from_bits_int(8)));
        global.set(to_rule_b, WeightState::Known(Weight::ZERO));
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let cfg = BestFirstConfig {
            learn: false,
            ..BestFirstConfig::default()
        };
        let r = best_first(&p.db, &p.queries[0], &mut view, &cfg);
        assert_eq!(
            r.solutions[0].solution.binding_text(&p.db, "X").unwrap(),
            "2",
            "the zero-weight b-route must be explored first"
        );
    }

    #[test]
    fn learn_false_leaves_weights_untouched() {
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let cfg = BestFirstConfig {
            learn: false,
            ..BestFirstConfig::default()
        };
        best_first(&p.db, &p.queries[0], &mut view, &cfg);
        assert!(local.is_empty());
    }

    #[test]
    fn stats_are_consistent() {
        let (r, _) = run_family(&BestFirstConfig::default());
        assert!(r.stats.unify_successes <= r.stats.unify_attempts);
        assert!(r.stats.nodes_expanded > 0);
        assert_eq!(r.stats.solutions, r.solutions.len() as u64);
        assert_eq!(r.blog.success_updates, 2);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_expansion() {
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let token = blog_logic::CancelToken::new();
        token.cancel();
        let cfg = BestFirstConfig {
            cancel: Some(token),
            ..BestFirstConfig::default()
        };
        let r = best_first(&p.db, &p.queries[0], &mut view, &cfg);
        assert!(r.stats.truncated, "cancellation reports as truncation");
        assert_eq!(r.stats.nodes_expanded, 0);
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn untripped_token_changes_nothing() {
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let baseline = {
            let mut local = HashMap::new();
            let mut view = WeightView::new(&mut local, &global);
            best_first(&p.db, &p.queries[0], &mut view, &BestFirstConfig::default())
        };
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let cfg = BestFirstConfig {
            cancel: Some(blog_logic::CancelToken::new()),
            ..BestFirstConfig::default()
        };
        let r = best_first(&p.db, &p.queries[0], &mut view, &cfg);
        assert!(!r.stats.truncated);
        assert_eq!(r.solutions.len(), baseline.solutions.len());
        assert_eq!(r.stats.nodes_expanded, baseline.stats.nodes_expanded);
    }

    #[test]
    fn depth_limit_applies() {
        let p = parse_program(
            "
            edge(a,b). edge(b,a).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- edge(X,Y), path(Y,Z).
            ?- path(a,b).
        ",
        )
        .unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let cfg = BestFirstConfig {
            solve: SolveConfig::all().with_max_depth(8),
            ..BestFirstConfig::default()
        };
        let r = best_first(&p.db, &p.queries[0], &mut view, &cfg);
        assert!(r.stats.depth_cutoff);
        assert!(r.stats.solutions > 0);
    }
}
