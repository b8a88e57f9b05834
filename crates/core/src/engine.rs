//! The best-first branch-and-bound engine — B-LOG proper.
//!
//! "An approach based on a branch-and-bound algorithm seems more
//! appropriate\[,\] using best-first search guided by a bound. … Each
//! processor works on the chains with the lowest bounds" (§3). This module
//! holds the one search loop: [`expand_chain`] does everything B-LOG does
//! to one chain — cancellation, incumbent pruning, solution extraction,
//! the depth and node limits, expansion, the store-fault abort, the §5
//! hooks and sprouting — against an [`Executor`], which owns where chains
//! wait and where a query's shared outcomes go. The single-processor
//! executor here is a thread-local min-heap; `blog-parallel`'s worker,
//! with its own heap and a shared exchange, is the other, and
//! `blog-machine` simulates the same rules on the paper's machine.
//!
//! The heap is keyed by bound, with a strictly monotone sequence number as
//! a deterministic tie-break. Learning is one of two sinks of the same
//! loop. [`best_first_with`] learns *during* the search, exactly as in the
//! paper's machine: a success immediately rewrites its chain's weights in
//! the local database, a failure plants an infinity. Chains already in the
//! frontier keep the bound they were priced at — the paper's
//! "approximation to true best-first searching". [`best_first_deferred`]
//! and the parallel executors read a frozen weight store instead and log
//! each closed chain, applying the log at join.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use blog_logic::node::ExpandStats;
use blog_logic::{
    try_expand_via, ExpandBuffers, PointerKey, Query, SearchNode, SearchStats, Solution,
    SolveConfig, StoreError,
};
use blog_logic::{ClauseDb, ClauseSource};
use serde::Serialize;

use crate::chain::{Chain, Queued};
use crate::update::{chain_update, InfinityPlacement, UpdateOutcome};
use crate::util::SplitMix64;
use crate::weight::{Bound, Weight, WeightStore, WeightView};

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

/// The §5 evidence of one closed chain: its arcs root→leaf and whether it
/// solved the query. Executors that defer learning log these in
/// completion order and replay them through [`chain_update`] at join.
pub type ChainOutcome = (Vec<PointerKey>, bool);

/// One query as every executor's step sees it: the clause source, the
/// query, and the limits and switches of `config` (of which the step
/// reads `solve`, `prune`, `learn` and `cancel`).
pub struct Search<'a, S: ?Sized> {
    source: &'a S,
    query: &'a Query,
    config: &'a BestFirstConfig,
    var_names: Arc<Vec<String>>,
}

impl<'a, S: ClauseSource + ?Sized> Search<'a, S> {
    /// Describe one search of `query` over `source`.
    pub fn new(source: &'a S, query: &'a Query, config: &'a BestFirstConfig) -> Self {
        let var_names = Arc::new(query.var_names.clone());
        Search {
            source,
            query,
            config,
            var_names,
        }
    }

    /// The clause source every chain resolves through.
    pub fn source(&self) -> &'a S {
        self.source
    }

    /// The root chain: the query's goals at bound zero.
    pub fn root(&self) -> Chain {
        Chain::root(SearchNode::root_with(
            &self.query.goals,
            self.config.solve.state_repr,
        ))
    }
}

/// Where one search's chains wait and where its shared outcomes go — the
/// seam between [`expand_chain`] and a frontier.
///
/// Two implementations: the thread-local heap behind [`best_first_with`]
/// and [`best_first_deferred`] (no atomics, no locks), and
/// `blog-parallel`'s worker, which keeps its own heap and shares the
/// incumbent, node count and solution list of one query across threads.
pub trait Executor {
    /// The weight added to a bound when following `arc`.
    fn weight(&self, arc: PointerKey) -> Weight;

    /// The best solution bound found so far, for incumbent pruning;
    /// `own` is the best this executor closed itself.
    fn incumbent(&self, own: Option<Bound>) -> Option<Bound>;

    /// Record `solution` unless `cap` solutions are already recorded.
    /// Returns `None` when the solution was refused, else whether it met
    /// the cap.
    fn close(&mut self, solution: BoundedSolution, cap: Option<usize>) -> Option<bool>;

    /// Claim one expansion against the node `budget`; `expanded` counts
    /// this executor's own expansions so far. `false` means the budget is
    /// spent.
    fn claim_node(&mut self, expanded: u64, budget: u64) -> bool;

    /// Take the §5 evidence of a closed chain: apply it now and say what
    /// it changed, or log it for the join and return `None`.
    fn learn(&mut self, arcs: Vec<PointerKey>, success: bool) -> Option<UpdateOutcome>;

    /// Queue freshly sprouted chains, draining `children`.
    fn sprout(&mut self, children: &mut Vec<Chain>);

    /// End the whole search: cancelled, a limit met, or `fault`.
    fn stop(&mut self, fault: Option<StoreError>);
}

/// What one [`expand_chain`] call fills and the next reuses: the node
/// expansion's [`ExpandBuffers`] and the sprouted chains. Each search
/// loop owns one, so a steady-state expansion allocates only what its
/// children keep.
#[derive(Default)]
pub struct ChainBuffers {
    expand: ExpandBuffers,
    chains: Vec<Chain>,
}

/// Process one chain: cancellation, incumbent pruning, solution
/// extraction, the depth and node limits, expansion (a store fault stops
/// the search), the §5 hooks, and sprouting the children into `bufs`
/// for `exec` to queue.
///
/// A child's chain records its arc only when something will read it —
/// the §5 updates (`config.learn`) or the pop trace
/// (`config.record_trace`); otherwise it carries its bound alone.
pub fn expand_chain<S: ClauseSource + ?Sized, E: Executor>(
    search: &Search<'_, S>,
    exec: &mut E,
    stats: &mut SearchStats,
    blog: &mut BlogStats,
    chain: Chain,
    bufs: &mut ChainBuffers,
) {
    let config = search.config;
    // Cooperative cancellation (a request's deadline, a server shedding
    // load) ends the search like an exhausted node budget.
    if config.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        stats.truncated = true;
        exec.stop(None);
        return;
    }

    // Incumbent pruning: drop chains that can no longer beat (or tie
    // within slack of) the best solution. Bounds are monotone along
    // chains, so this never cuts a chain that could close at or under
    // the threshold.
    if let PruneMode::Incumbent { slack } = config.prune {
        let best = exec.incumbent(blog.best_bound);
        if best.is_some_and(|best| chain.bound > best.plus(slack)) {
            blog.pruned += 1;
            return;
        }
    }

    if chain.node.is_solution() {
        // Solution extraction resolves through the node's state — under
        // `Shared`, that chases the persistent frame chain, whose frames
        // are `Arc`-shared across workers.
        let terms = (0..search.var_names.len() as u32)
            .map(|i| chain.node.resolve_var(i))
            .collect();
        let solution = BoundedSolution {
            solution: Solution {
                var_names: Arc::clone(&search.var_names),
                terms,
                depth: chain.node.depth,
            },
            bound: chain.bound,
        };
        let Some(cap_met) = exec.close(solution, config.solve.max_solutions) else {
            exec.stop(None);
            return;
        };
        stats.solutions += 1;
        blog.best_bound = Some(blog.best_bound.map_or(chain.bound, |b| b.min(chain.bound)));
        if config.learn {
            if let Some(out) = exec.learn(chain.arcs_root_to_leaf(), true) {
                blog.success_updates += 1;
                blog.anomalies += u64::from(out.anomaly);
            }
        }
        if cap_met {
            exec.stop(None);
        }
        return;
    }

    if let Some(limit) = config.solve.max_depth {
        if chain.node.depth >= limit {
            stats.depth_cutoff = true;
            return;
        }
    }
    if let Some(budget) = config.solve.max_nodes {
        if !exec.claim_node(stats.nodes_expanded, budget) {
            stats.truncated = true;
            exec.stop(None);
            return;
        }
    }

    stats.nodes_expanded += 1;
    let mut est = ExpandStats::default();
    if let Err(e) = try_expand_via(search.source, &chain.node, &mut est, &mut bufs.expand) {
        // A storage fault aborts the search at the faulted expansion:
        // the solution set so far is incomplete, so mark the run
        // truncated and surface the error for the caller's retry/fail
        // decision.
        stats.truncated = true;
        exec.stop(Some(e));
        return;
    }
    let children = &mut bufs.expand.children;
    stats.unify_attempts += est.unify_attempts;
    stats.unify_successes += est.unify_successes;
    stats.bytes_copied += est.bytes_copied;

    if children.is_empty() {
        // A failure leaf: a goal remained but nothing resolved it.
        stats.failures += 1;
        if config.learn {
            if let Some(out) = exec.learn(chain.arcs_root_to_leaf(), false) {
                blog.failure_updates += 1;
                blog.anomalies += u64::from(out.anomaly);
            }
        }
        return;
    }

    debug_assert!(bufs.chains.is_empty());
    let keep_arcs = config.learn || config.record_trace;
    bufs.chains.extend(children.drain(..).map(|c| {
        let w = exec.weight(c.arc);
        if keep_arcs {
            chain.extend(c.arc, w, c.node)
        } else {
            chain.extend_bound(w, c.node)
        }
    }));
    exec.sprout(&mut bufs.chains)
}

fn priority(policy: BoundPolicy, bound: Bound, depth: u32, seq: u64) -> (u64, u64) {
    match policy {
        BoundPolicy::Weights => (bound.0, seq),
        BoundPolicy::Uniform => (depth as u64, seq),
        BoundPolicy::Lifo => (0, u64::MAX - seq),
        BoundPolicy::Fifo => (0, seq),
    }
}

/// The single-processor executor: a thread-local min-heap of chains keyed
/// by [`BoundPolicy`] with a monotone `seq` tie-break. It reads weights
/// through a [`WeightView`] and either learns during the search or, given
/// a `log`, records each [`ChainOutcome`] there and leaves the view
/// untouched.
struct Heap<'v, 'w> {
    entries: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    policy: BoundPolicy,
    view: &'v mut WeightView<'w>,
    placement: InfinityPlacement,
    rng: SplitMix64,
    log: Option<Vec<ChainOutcome>>,
    solutions: Vec<BoundedSolution>,
    store_error: Option<StoreError>,
    max_len: usize,
}

impl Executor for Heap<'_, '_> {
    fn weight(&self, arc: PointerKey) -> Weight {
        self.view.effective_weight(arc)
    }

    fn incumbent(&self, own: Option<Bound>) -> Option<Bound> {
        own
    }

    fn close(&mut self, solution: BoundedSolution, cap: Option<usize>) -> Option<bool> {
        if cap.is_some_and(|m| self.solutions.len() >= m) {
            return None;
        }
        self.solutions.push(solution);
        Some(cap.is_some_and(|m| self.solutions.len() >= m))
    }

    fn claim_node(&mut self, expanded: u64, budget: u64) -> bool {
        expanded < budget
    }

    fn learn(&mut self, arcs: Vec<PointerKey>, success: bool) -> Option<UpdateOutcome> {
        if let Some(log) = &mut self.log {
            log.push((arcs, success));
            return None;
        }
        Some(chain_update(
            self.view,
            &arcs,
            success,
            self.placement,
            &mut self.rng,
        ))
    }

    fn sprout(&mut self, children: &mut Vec<Chain>) {
        // Under LIFO, sibling order must match the clause order a stack
        // would see (first clause on top), so enqueue them in reverse.
        if self.policy == BoundPolicy::Lifo {
            children.reverse();
        }
        for chain in children.drain(..) {
            let key = priority(self.policy, chain.bound, chain.node.depth, self.seq);
            self.seq += 1;
            self.entries.push(Reverse(Queued { key, chain }));
        }
        self.max_len = self.max_len.max(self.entries.len());
    }

    fn stop(&mut self, fault: Option<StoreError>) {
        self.entries.clear();
        if fault.is_some() {
            self.store_error = fault;
        }
    }
}

/// Pop and expand the cheapest chain until the heap empties or the search
/// stops, recording the arc of every popped chain in pop order when
/// `config.record_trace` is set. With `log` the §5 evidence is logged and
/// returned instead of learned.
fn run_heap<S: ClauseSource + ?Sized>(
    search: &Search<'_, S>,
    view: &mut WeightView<'_>,
    log: Option<Vec<ChainOutcome>>,
) -> (BlogResult, Vec<ChainOutcome>) {
    let config = search.config;
    let root = search.root();
    let key = priority(config.bound_policy, root.bound, 0, 0);
    let mut heap = Heap {
        entries: BinaryHeap::from([Reverse(Queued { key, chain: root })]),
        seq: 1,
        policy: config.bound_policy,
        view,
        placement: config.infinity_placement,
        rng: SplitMix64::new(config.seed),
        log,
        solutions: Vec::new(),
        store_error: None,
        max_len: 0,
    };
    let (mut stats, mut blog) = (SearchStats::default(), BlogStats::default());
    let mut trace = Vec::new();
    let mut bufs = ChainBuffers::default();
    // `stop` empties the heap, ending the loop.
    while let Some(Reverse(Queued { chain, .. })) = heap.entries.pop() {
        if config.record_trace {
            if let Some(link) = &chain.last {
                trace.push(link.arc);
            }
        }
        expand_chain(search, &mut heap, &mut stats, &mut blog, chain, &mut bufs);
    }
    stats.max_frontier = heap.max_len;
    let result = BlogResult {
        solutions: heap.solutions,
        stats,
        blog,
        trace,
        store_error: heap.store_error,
    };
    (result, heap.log.unwrap_or_default())
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
    run_heap(&Search::new(source, query, config), view, None).0
}

/// [`best_first_with`] over the frozen `weights`, with learning deferred:
/// each closed chain's [`ChainOutcome`] is returned in completion order
/// (when `config.learn`) for the caller to apply at join, as the parallel
/// executors do, instead of steering the rest of this search.
pub fn best_first_deferred<S: ClauseSource + ?Sized>(
    source: &S,
    query: &Query,
    weights: &WeightStore,
    config: &BestFirstConfig,
) -> (BlogResult, Vec<ChainOutcome>) {
    let mut overlay = HashMap::new();
    let mut view = WeightView::new(&mut overlay, weights);
    run_heap(
        &Search::new(source, query, config),
        &mut view,
        Some(Vec::new()),
    )
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
    fn a_token_past_its_deadline_stops_before_any_expansion() {
        // No `cancel()` call: the passed deadline alone trips the token.
        let p = parse_program(FAMILY).unwrap();
        let global = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let mut view = WeightView::new(&mut local, &global);
        let cfg = BestFirstConfig {
            cancel: Some(blog_logic::CancelToken::until(std::time::Instant::now())),
            ..BestFirstConfig::default()
        };
        let r = best_first_with(&p.db, &p.queries[0], &mut view, &cfg);
        assert!(r.stats.truncated, "a passed deadline reports as truncation");
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
