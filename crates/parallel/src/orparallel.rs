//! OR-parallel best-first execution on real threads.
//!
//! "Parallel searching is possible in a branch-and-bound problem …
//! Each processor works on the chains with the lowest bounds" (§3).
//! Workers are OS threads; the frontier is [`Frontier`]; pruning shares
//! the incumbent bound through an atomic; weight learning is applied at
//! the query boundary (see the crate docs for why).
//!
//! Under [`FrontierPolicy::Sharded`] the worker loop adds the paper's "a
//! processor keeps its own cheapest chain": after an expansion, if the
//! cheapest sprouted child is within `D` of the **global** published
//! minimum (N lock-free atomic loads — the §6 comparison; see
//! [`Frontier::should_dive`](crate::frontier::Frontier::should_dive)),
//! the worker **dives** — it expands that child immediately, pushing
//! only the siblings, so the common deepening step costs one shard lock
//! instead of a push + acquire round-trip. A per-acquisition dive budget
//! bounds how far a worker may run ahead of the frontier order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blog_core::chain::Chain;
use blog_core::engine::{BoundedSolution, PruneMode};
use blog_core::update::{failure_update, success_update, InfinityPlacement};
use blog_core::util::SplitMix64;
use blog_core::weight::{Bound, WeightParams, WeightState, WeightStore, WeightView};
use blog_logic::node::ExpandStats;
use blog_logic::{
    try_expand_via, CancelToken, ClauseDb, ClauseSource, PointerKey, Query, SearchNode,
    SearchStats, Solution, SolveConfig, StoreError,
};
use parking_lot::Mutex;

use crate::frontier::{Frontier, FrontierCounters, FrontierPolicy};

/// Configuration for [`par_best_first`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Worker threads (the paper's processors).
    pub n_workers: usize,
    /// Frontier sharing policy.
    pub policy: FrontierPolicy,
    /// Incumbent pruning mode.
    pub prune: PruneMode,
    /// Limits shared with the sequential engines.
    pub solve: SolveConfig,
    /// Apply the §5 weight updates (at query end) and return the overlay.
    pub learn: bool,
    /// Failure-infinity placement for learning.
    pub infinity_placement: InfinityPlacement,
    /// Seed for the `Random` placement ablation.
    pub seed: u64,
    /// Maximum consecutive local dives per acquisition (sharded policy
    /// only; 0 disables diving). Each acquire refreshes the budget.
    pub dive_budget: u32,
    /// Cooperative cancellation, observed once per processed chain and
    /// folded into the frontier's abort flag (the same flag the node
    /// budget and `max_solutions` exits use), so every worker drains and
    /// joins promptly. Reported as [`SearchStats::truncated`].
    pub cancel: Option<CancelToken>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            n_workers: 4,
            policy: FrontierPolicy::Sharded { d: 512 },
            prune: PruneMode::None,
            solve: SolveConfig::all(),
            learn: true,
            infinity_placement: InfinityPlacement::NearestLeaf,
            seed: 0x5EED,
            dive_budget: 64,
            cancel: None,
        }
    }
}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ParallelResult {
    /// Solutions in discovery order (non-deterministic across runs; the
    /// *set* is deterministic when pruning is off).
    pub solutions: Vec<BoundedSolution>,
    /// Merged work counters.
    pub stats: SearchStats,
    /// Chains discarded by incumbent pruning.
    pub pruned: u64,
    /// Frontier counters (steals, locals, dives, lock/publish traffic).
    pub counters: FrontierCounters,
    /// Nodes expanded by each worker (the load-balance picture).
    pub per_worker_expanded: Vec<u64>,
    /// The weight overlay learned from this query (empty when
    /// `learn == false`); merge it into a session or store as desired.
    pub learned: HashMap<PointerKey, WeightState>,
    /// The first storage fault any worker hit, if one did. `Some` only
    /// when searching a fault-planned source: the run aborted (every
    /// worker drained via the frontier's abort flag, `stats.truncated`
    /// set) and `solutions` holds whatever closed before the fault —
    /// callers must treat the set as partial, never complete.
    pub store_error: Option<StoreError>,
}

struct SharedCtx<'a, S: ClauseSource + ?Sized> {
    source: &'a S,
    weights: &'a WeightStore,
    frontier: Frontier,
    config: &'a ParallelConfig,
    incumbent: AtomicU64,
    nodes: AtomicU64,
    solutions: Mutex<Vec<BoundedSolution>>,
    /// First storage fault observed by any worker (first writer wins;
    /// later faults are aftershocks of the same abort).
    store_error: Mutex<Option<StoreError>>,
    var_names: Arc<Vec<String>>,
    n_query_vars: u32,
}

/// Per-worker outcome, merged (deterministically, by worker id) at join.
#[derive(Default)]
struct WorkerStats {
    stats: SearchStats,
    pruned: u64,
    dives: u64,
    /// §5 chain log, kept thread-local so the hot path never touches a
    /// shared mutex; `(arcs root→leaf, success)` in completion order.
    chain_log: Vec<(Vec<PointerKey>, bool)>,
}

/// What to do with the active slot after processing one chain.
enum Step {
    /// The chain's lineage ended (solution, failure, cutoff, pushed).
    Done,
    /// Keep the slot: expand this dived child next.
    Dive(Chain),
}

/// Process one chain: prune/solution/limit checks, expansion, sprouting
/// into `buf`, then either dive into the cheapest child or push the whole
/// batch. Shared by the acquired chain and every dived descendant.
#[allow(clippy::too_many_arguments)]
fn step<S: ClauseSource + ?Sized>(
    ctx: &SharedCtx<'_, S>,
    w: usize,
    out: &mut WorkerStats,
    chain: Chain,
    buf: &mut Vec<Chain>,
    dives_left: &mut u32,
    params: WeightParams,
) -> Step {
    // Cooperative cancellation (a deadline reaper, a server shedding
    // load): fold into the frontier's abort flag so every worker exits.
    if ctx.config.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        out.stats.truncated = true;
        ctx.frontier.abort();
        return Step::Done;
    }

    // Incumbent pruning.
    if let PruneMode::Incumbent { slack } = ctx.config.prune {
        let best = ctx.incumbent.load(Ordering::Acquire);
        if best != u64::MAX && chain.bound.0 > best.saturating_add(slack.0 as u64) {
            out.pruned += 1;
            return Step::Done;
        }
    }

    if chain.node.is_solution() {
        // Resolves through the shared frame chain under the default
        // representation — frames are `Arc`-shared across workers, so
        // extraction never copies another thread's state.
        let terms = (0..ctx.n_query_vars)
            .map(|i| chain.node.resolve_var(i))
            .collect();
        let bounded = BoundedSolution {
            solution: Solution {
                var_names: Arc::clone(&ctx.var_names),
                terms,
                depth: chain.node.depth,
            },
            bound: chain.bound,
        };
        out.stats.solutions += 1;
        ctx.incumbent.fetch_min(chain.bound.0, Ordering::AcqRel);
        if ctx.config.learn {
            out.chain_log.push((chain.arcs_root_to_leaf(), true));
        }
        let mut sols = ctx.solutions.lock();
        sols.push(bounded);
        let enough = ctx
            .config
            .solve
            .max_solutions
            .is_some_and(|m| sols.len() >= m);
        drop(sols);
        if enough {
            ctx.frontier.abort();
        }
        return Step::Done;
    }

    if let Some(limit) = ctx.config.solve.max_depth {
        if chain.node.depth >= limit {
            out.stats.depth_cutoff = true;
            return Step::Done;
        }
    }
    if let Some(budget) = ctx.config.solve.max_nodes {
        if ctx.nodes.fetch_add(1, Ordering::Relaxed) >= budget {
            out.stats.truncated = true;
            ctx.frontier.abort();
            return Step::Done;
        }
    } else {
        ctx.nodes.fetch_add(1, Ordering::Relaxed);
    }

    out.stats.nodes_expanded += 1;
    let mut est = ExpandStats::default();
    let children = match try_expand_via(ctx.source, &chain.node, &mut est) {
        Ok(children) => children,
        Err(e) => {
            // A storage fault aborts the whole query: record the first
            // error, mark the run truncated, and drain every worker
            // through the frontier's abort flag (the same path a node
            // budget or cancel uses), so no worker strands.
            let mut slot = ctx.store_error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
            drop(slot);
            out.stats.truncated = true;
            ctx.frontier.abort();
            return Step::Done;
        }
    };
    out.stats.unify_attempts += est.unify_attempts;
    out.stats.unify_successes += est.unify_successes;
    out.stats.bytes_copied += est.bytes_copied;

    if children.is_empty() {
        out.stats.failures += 1;
        if ctx.config.learn {
            out.chain_log.push((chain.arcs_root_to_leaf(), false));
        }
        return Step::Done;
    }

    // Batched sprout: build the whole batch in the reusable buffer, then
    // hand it to the frontier under one shard-lock acquisition.
    debug_assert!(buf.is_empty());
    buf.extend(children.into_iter().map(|c| {
        let wgt = ctx.weights.get(c.arc).effective(params);
        chain.extend(c.arc, wgt, c.node)
    }));

    // Local dive: keep the cheapest child when it is within D of the
    // global published minimum, pushing only the siblings.
    if *dives_left > 0 {
        let (min_idx, min_bound) = buf
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.bound))
            .min_by_key(|&(_, b)| b)
            .expect("children non-empty");
        if ctx.frontier.should_dive(w, min_bound) {
            *dives_left -= 1;
            out.dives += 1;
            if let Some(t) = &ctx.config.solve.trace {
                t.event("dive", format!("worker {w} bound {min_bound}"));
            }
            let next = buf.swap_remove(min_idx);
            ctx.frontier.push_children_from(w, buf);
            return Step::Dive(next);
        }
    }
    ctx.frontier.push_children_from(w, buf);
    Step::Done
}

/// Aborts the frontier if the worker unwinds, so a panicking worker
/// (whose `finish` never runs) fails the whole query loudly at join
/// instead of leaving its active slot leaked and the surviving workers
/// waiting for a termination signal that can never come.
struct AbortOnPanic<'a>(&'a Frontier);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

fn worker_loop<S: ClauseSource + ?Sized>(ctx: &SharedCtx<'_, S>, w: usize) -> WorkerStats {
    let _abort_guard = AbortOnPanic(&ctx.frontier);
    // One span per worker thread, parented under the request's engine
    // span: the flight record shows each worker's busy interval, with
    // its dive events nested by timestamp.
    let _worker_span = ctx
        .config
        .solve
        .trace
        .as_ref()
        .map(|t| t.span(format!("worker{w}")));
    let mut out = WorkerStats::default();
    let params = ctx.weights.params();
    // Reused across every expansion this worker performs.
    let mut buf: Vec<Chain> = Vec::new();
    while let Some(chain) = ctx.frontier.acquire(w) {
        let mut cur = chain;
        let mut dives_left = ctx.config.dive_budget;
        while let Step::Dive(next) = step(ctx, w, &mut out, cur, &mut buf, &mut dives_left, params)
        {
            cur = next;
        }
        // One `finish` per acquire: the dive lineage shares the slot.
        ctx.frontier.finish(w);
    }
    out
}

/// Run OR-parallel best-first search with `config.n_workers` threads,
/// reading weights from the frozen `weights` snapshot.
pub fn par_best_first(
    db: &ClauseDb,
    query: &Query,
    weights: &WeightStore,
    config: &ParallelConfig,
) -> ParallelResult {
    par_best_first_with(db, query, weights, config)
}

/// [`par_best_first`], generalized over any [`ClauseSource`] — the same
/// seam [`best_first_with`](blog_core::engine) opened for the sequential
/// engine. Pass a `Snapshot` of `blog-spd`'s `MvccClauseStore` (pool-
/// tagged or not) and every worker thread resolves clauses *through the
/// shared cache*: the source's `Sync` bound is what makes this sound. Results
/// are identical to running over the backing [`ClauseDb`] directly.
pub fn par_best_first_with<S: ClauseSource + ?Sized>(
    source: &S,
    query: &Query,
    weights: &WeightStore,
    config: &ParallelConfig,
) -> ParallelResult {
    assert!(config.n_workers >= 1);
    let root = Chain::root(SearchNode::root_with(&query.goals, config.solve.state_repr));
    let ctx = SharedCtx {
        source,
        weights,
        frontier: Frontier::new(config.n_workers, config.policy, root),
        config,
        incumbent: AtomicU64::new(u64::MAX),
        nodes: AtomicU64::new(0),
        solutions: Mutex::new(Vec::new()),
        store_error: Mutex::new(None),
        var_names: Arc::new(query.var_names.clone()),
        n_query_vars: query.var_names.len() as u32,
    };

    let mut per_worker: Vec<WorkerStats> = Vec::with_capacity(config.n_workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.n_workers)
            .map(|w| {
                let ctx_ref = &ctx;
                scope.spawn(move || worker_loop(ctx_ref, w))
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("worker thread panicked"));
        }
    });

    let mut stats = SearchStats::default();
    let mut pruned = 0;
    let mut dives = 0;
    let mut per_worker_expanded = Vec::with_capacity(per_worker.len());
    for w in &per_worker {
        stats.merge(&w.stats);
        pruned += w.pruned;
        dives += w.dives;
        per_worker_expanded.push(w.stats.nodes_expanded);
    }
    let mut counters = ctx.frontier.counters();
    counters.dives = dives;
    stats.max_frontier = counters.max_len;
    if let Some(t) = &config.solve.trace {
        t.event(
            "frontier",
            format!(
                "steals {} local {} dives {} max_len {}",
                counters.steals, counters.local, counters.dives, counters.max_len
            ),
        );
    }

    // Apply the deferred §5 updates from the per-worker logs, merged
    // deterministically: by worker id, then per-worker completion order.
    let mut learned: HashMap<PointerKey, WeightState> = HashMap::new();
    if config.learn {
        let mut rng = SplitMix64::new(config.seed);
        let mut view = WeightView::new(&mut learned, weights);
        for wstats in &per_worker {
            for (arcs, success) in &wstats.chain_log {
                if *success {
                    success_update(&mut view, arcs);
                } else {
                    failure_update(&mut view, arcs, config.infinity_placement, &mut rng);
                }
            }
        }
    }

    let solutions = ctx.solutions.into_inner();
    stats.solutions = solutions.len() as u64;
    let store_error = ctx.store_error.into_inner();
    ParallelResult {
        solutions,
        stats,
        pruned,
        counters,
        per_worker_expanded,
        learned,
        store_error,
    }
}

/// Convenience: the incumbent bound as a [`Bound`], if any solution was
/// found.
pub fn best_bound(result: &ParallelResult) -> Option<Bound> {
    result.solutions.iter().map(|s| s.bound).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_core::weight::WeightParams;
    use blog_logic::{dfs_all, parse_program};

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    fn sorted_texts(db: &ClauseDb, r: &ParallelResult) -> Vec<String> {
        let mut v: Vec<String> = r
            .solutions
            .iter()
            .map(|s| s.solution.to_text(db))
            .collect();
        v.sort();
        v
    }

    fn all_policies() -> [FrontierPolicy; 3] {
        [
            FrontierPolicy::SharedHeap,
            FrontierPolicy::LocalPools { d: 512 },
            FrontierPolicy::Sharded { d: 512 },
        ]
    }

    #[test]
    fn family_solution_set_matches_dfs() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let d = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let mut expect: Vec<String> =
            d.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        expect.sort();
        for policy in all_policies() {
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    policy,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(sorted_texts(&p.db, &r), expect, "{policy:?}");
        }
    }

    #[test]
    fn single_worker_matches_multi_worker_set() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let one = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                n_workers: 1,
                ..ParallelConfig::default()
            },
        );
        let eight = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                n_workers: 8,
                ..ParallelConfig::default()
            },
        );
        assert_eq!(sorted_texts(&p.db, &one), sorted_texts(&p.db, &eight));
        assert_eq!(
            one.stats.nodes_expanded, eight.stats.nodes_expanded,
            "without pruning, total work is the whole tree either way"
        );
    }

    #[test]
    fn policies_agree_on_set_and_total_work() {
        // The T8 equivalence claim in miniature: same solution set and
        // (pruning off) same nodes expanded under every frontier policy.
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let runs: Vec<_> = all_policies()
            .into_iter()
            .map(|policy| {
                par_best_first(
                    &p.db,
                    &p.queries[0],
                    &weights,
                    &ParallelConfig {
                        n_workers: 4,
                        policy,
                        ..ParallelConfig::default()
                    },
                )
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(sorted_texts(&p.db, &runs[0]), sorted_texts(&p.db, r));
            assert_eq!(runs[0].stats.nodes_expanded, r.stats.nodes_expanded);
        }
    }

    #[test]
    fn sharded_runs_dive() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let r = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                n_workers: 2,
                policy: FrontierPolicy::Sharded { d: 512 },
                ..ParallelConfig::default()
            },
        );
        assert!(r.counters.dives > 0, "family search deepens via dives");
        // Dived chains never pass through the frontier store.
        assert!(
            r.counters.dives + r.counters.local + r.counters.steals
                >= r.stats.nodes_expanded
        );
    }

    #[test]
    fn dive_budget_zero_disables_dives() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let r = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                dive_budget: 0,
                ..ParallelConfig::default()
            },
        );
        assert_eq!(r.counters.dives, 0);
        assert_eq!(r.solutions.len(), 2);
    }

    #[test]
    fn pre_cancelled_token_aborts_every_policy() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        for policy in all_policies() {
            let token = CancelToken::new();
            token.cancel();
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    policy,
                    cancel: Some(token),
                    ..ParallelConfig::default()
                },
            );
            assert!(r.stats.truncated, "{policy:?}");
            assert_eq!(r.stats.nodes_expanded, 0, "{policy:?}");
        }
    }

    #[test]
    fn untripped_token_is_transparent() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let base = par_best_first(&p.db, &p.queries[0], &weights, &ParallelConfig::default());
        let r = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                cancel: Some(CancelToken::new()),
                ..ParallelConfig::default()
            },
        );
        assert!(!r.stats.truncated);
        assert_eq!(sorted_texts(&p.db, &r), sorted_texts(&p.db, &base));
        assert_eq!(r.stats.nodes_expanded, base.stats.nodes_expanded);
    }

    #[test]
    fn generalized_source_matches_clause_db() {
        // par_best_first_with over the db as a ClauseSource must be the
        // identity generalization.
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let direct = par_best_first(&p.db, &p.queries[0], &weights, &ParallelConfig::default());
        let source: &dyn blog_logic::ClauseSource = &p.db;
        let via = par_best_first_with(source, &p.queries[0], &weights, &ParallelConfig::default());
        assert_eq!(sorted_texts(&p.db, &via), sorted_texts(&p.db, &direct));
        assert_eq!(via.stats.nodes_expanded, direct.stats.nodes_expanded);
    }

    #[test]
    fn max_solutions_stops_early() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let r = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                solve: SolveConfig::first(),
                ..ParallelConfig::default()
            },
        );
        assert!(!r.solutions.is_empty());
    }

    #[test]
    fn learning_produces_overlay() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let r = par_best_first(&p.db, &p.queries[0], &weights, &ParallelConfig::default());
        assert!(!r.learned.is_empty());
        let known = r
            .learned
            .values()
            .filter(|s| matches!(s, WeightState::Known(_)))
            .count();
        let infinite = r
            .learned
            .values()
            .filter(|s| matches!(s, WeightState::Infinite))
            .count();
        assert!(known >= 3, "solution chains become known");
        assert!(infinite >= 1, "the m dead-end is marked");
    }

    #[test]
    fn learned_overlay_is_stable_across_workers_and_policies() {
        // The per-worker chain logs (merged by worker id at join) must
        // produce the same overlay the old shared-mutex log did: on the
        // family workload the §5 updates commute, so any worker count and
        // any policy lands on the same weights.
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let base = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                n_workers: 1,
                policy: FrontierPolicy::SharedHeap,
                ..ParallelConfig::default()
            },
        );
        for policy in all_policies() {
            for n_workers in [1, 4, 8] {
                let r = par_best_first(
                    &p.db,
                    &p.queries[0],
                    &weights,
                    &ParallelConfig {
                        n_workers,
                        policy,
                        ..ParallelConfig::default()
                    },
                );
                assert_eq!(
                    r.learned, base.learned,
                    "{policy:?} x{n_workers}: overlay must be unchanged"
                );
            }
        }
    }

    #[test]
    fn learn_false_returns_empty_overlay() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let r = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                learn: false,
                ..ParallelConfig::default()
            },
        );
        assert!(r.learned.is_empty());
    }

    #[test]
    fn shared_heap_policy_works() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let r = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                policy: FrontierPolicy::SharedHeap,
                ..ParallelConfig::default()
            },
        );
        assert_eq!(r.solutions.len(), 2);
    }

    #[test]
    fn trained_weights_plus_pruning_skip_dead_branches() {
        let p = parse_program(FAMILY).unwrap();
        // Train sequentially first.
        let mut mgr = blog_core::session::SessionManager::new(WeightParams::default());
        let mut session = mgr.begin_session();
        mgr.query(
            &mut session,
            &p.db,
            &p.queries[0],
            &blog_core::engine::BestFirstConfig::default(),
        );
        mgr.end_session(session, blog_core::session::MergePolicy::Overwrite);
        // Parallel re-run with pruning: the infinite m-branch dies.
        let r = par_best_first(
            &p.db,
            &p.queries[0],
            mgr.global(),
            &ParallelConfig {
                prune: PruneMode::Incumbent {
                    slack: blog_core::weight::Weight::from_bits_int(2),
                },
                ..ParallelConfig::default()
            },
        );
        assert_eq!(r.solutions.len(), 2, "pruning keeps all real solutions");
        assert!(r.pruned > 0, "the dead branch must be pruned");
    }

    #[test]
    fn node_budget_truncates() {
        let p = parse_program(
            "
            edge(a,b). edge(b,a).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- edge(X,Y), path(Y,Z).
            ?- path(a,b).
        ",
        )
        .unwrap();
        let weights = WeightStore::new(WeightParams::default());
        for policy in all_policies() {
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    policy,
                    solve: SolveConfig {
                        max_nodes: Some(500),
                        ..SolveConfig::all()
                    },
                    ..ParallelConfig::default()
                },
            );
            assert!(r.stats.truncated, "{policy:?}");
        }
    }

    #[test]
    fn queens_parallel_matches_sequential_count() {
        // A bigger nondeterministic workload exercises real contention.
        let src = {
            // Inline 4-queens via the dom/ok encoding.
            let mut s = String::new();
            for c in 1..=4 {
                s.push_str(&format!("dom({c}).\n"));
            }
            for d in 1..4i64 {
                for c1 in 1..=4i64 {
                    for c2 in 1..=4i64 {
                        let dc = c1 - c2;
                        if dc != 0 && dc.abs() != d {
                            s.push_str(&format!("ok({d},{c1},{c2}).\n"));
                        }
                    }
                }
            }
            s.push_str(
                "q(Q1,Q2,Q3,Q4) :- dom(Q1), dom(Q2), ok(1,Q1,Q2), dom(Q3), \
                 ok(2,Q1,Q3), ok(1,Q2,Q3), dom(Q4), ok(3,Q1,Q4), ok(2,Q2,Q4), \
                 ok(1,Q3,Q4).\n?- q(Q1,Q2,Q3,Q4).\n",
            );
            s
        };
        let p = parse_program(&src).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        for policy in all_policies() {
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    n_workers: 8,
                    policy,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(r.solutions.len(), 2, "4-queens has two solutions");
            // Per-worker counters account for all the work. (Whether work
            // actually spreads across workers depends on the host's core
            // count and scheduling; on a single-core CI box one worker can
            // drain the whole frontier.)
            assert_eq!(
                r.per_worker_expanded.iter().sum::<u64>(),
                r.stats.nodes_expanded,
                "{policy:?}"
            );
        }
    }
}
