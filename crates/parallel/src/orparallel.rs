//! OR-parallel best-first execution.
//!
//! "Parallel searching is possible in a branch-and-bound problem …
//! Each processor works on the chains with the lowest bounds" (§3).
//! Every chain goes through `blog-core`'s one per-chain step,
//! [`expand_chain`]; this module holds the multi-threaded executor and
//! the join. One worker is `blog-core`'s thread-local heap
//! ([`best_first_deferred`]) on the caller's thread; two or more are OS
//! threads sharing a sharded [`Frontier`] and an atomic incumbent. Either
//! way the weights stay frozen and every closed chain is logged, and the
//! §5 updates are applied at join (see the crate docs for why): the
//! deferred sink of the same loop that learns during the search in
//! `best_first_with`.
//!
//! The sharded worker adds the paper's "a processor keeps its own
//! cheapest chain": after an expansion, if the cheapest sprouted child is
//! within `D` of the **global** published minimum (N lock-free atomic
//! loads — the §6 comparison; see [`Frontier::should_dive`]), the worker
//! **dives** — it expands that child immediately, pushing only the
//! siblings, so the common deepening step costs one shard lock instead of
//! a push + acquire round-trip. A per-acquisition dive budget bounds how
//! far a worker may run ahead of the frontier order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use blog_core::chain::Chain;
use blog_core::engine::{
    best_first_deferred, expand_chain, BestFirstConfig, BlogStats, BoundedSolution, ChainOutcome,
    Executor, PruneMode, Search,
};
use blog_core::update::{chain_update, InfinityPlacement, UpdateOutcome};
use blog_core::util::SplitMix64;
use blog_core::weight::{Bound, Weight, WeightState, WeightStore, WeightView};
use blog_logic::{
    CancelToken, ClauseDb, ClauseSource, PointerKey, Query, SearchStats, SolveConfig, StoreError,
};
use parking_lot::Mutex;

use crate::frontier::{Frontier, FrontierCounters, FrontierPolicy};

/// Configuration for [`par_best_first`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Workers (the paper's processors). One runs inline on the caller's
    /// thread; more are OS threads.
    pub n_workers: usize,
    /// Frontier sharing policy for two or more workers.
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
    /// Maximum consecutive local dives per acquisition (two or more
    /// workers; 0 disables diving). Each acquire refreshes the budget.
    pub dive_budget: u32,
    /// Cooperative cancellation, observed once per processed chain. It
    /// stops the search exactly like the node budget and the
    /// `max_solutions` exits, so every worker drains and joins promptly.
    /// Reported as [`SearchStats::truncated`].
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
    /// A one-worker run has no shared frontier: only `max_len` is set.
    pub counters: FrontierCounters,
    /// Nodes expanded by each worker (the load-balance picture).
    pub per_worker_expanded: Vec<u64>,
    /// The weight overlay learned from this query (empty when
    /// `learn == false`); merge it into a session or store as desired.
    pub learned: HashMap<PointerKey, WeightState>,
    /// The first storage fault any worker hit, if one did. `Some` only
    /// when searching a fault-planned source: the run aborted (every
    /// worker drained, `stats.truncated` set) and `solutions` holds
    /// whatever closed before the fault — callers must treat the set as
    /// partial, never complete.
    pub store_error: Option<StoreError>,
}

/// Query-wide state the sharded workers share.
struct Shared<'a> {
    weights: &'a WeightStore,
    config: &'a ParallelConfig,
    frontier: Frontier,
    /// Best solution bound so far; `u64::MAX` before the first.
    incumbent: AtomicU64,
    /// Expansions claimed against the node budget, all workers.
    nodes: AtomicU64,
    solutions: Mutex<Vec<BoundedSolution>>,
    /// First storage fault observed by any worker (first writer wins;
    /// later faults are aftershocks of the same abort).
    store_error: Mutex<Option<StoreError>>,
}

/// One sharded worker: the multi-threaded [`Executor`].
struct Worker<'s, 'a> {
    shared: &'s Shared<'a>,
    w: usize,
    dives_left: u32,
    dives: u64,
    /// §5 chain log, kept thread-local so the hot path never touches a
    /// shared mutex; in completion order.
    chain_log: Vec<ChainOutcome>,
}

impl Executor for Worker<'_, '_> {
    fn weight(&self, arc: PointerKey) -> Weight {
        let weights = self.shared.weights;
        weights.get(arc).effective(weights.params())
    }

    fn incumbent(&self, _own: Option<Bound>) -> Option<Bound> {
        let best = self.shared.incumbent.load(Ordering::Acquire);
        (best != u64::MAX).then_some(Bound(best))
    }

    fn close(&mut self, solution: BoundedSolution, cap: Option<usize>) -> Option<bool> {
        // Check the cap and push under one lock: a worker still holding a
        // solution chain when another meets the cap must not push past it.
        // The incumbent drops to this bound for every worker.
        let mut solutions = self.shared.solutions.lock();
        if cap.is_some_and(|m| solutions.len() >= m) {
            return None;
        }
        self.shared
            .incumbent
            .fetch_min(solution.bound.0, Ordering::AcqRel);
        solutions.push(solution);
        Some(cap.is_some_and(|m| solutions.len() >= m))
    }

    fn claim_node(&mut self, _expanded: u64, budget: u64) -> bool {
        self.shared.nodes.fetch_add(1, Ordering::Relaxed) < budget
    }

    fn learn(&mut self, arcs: Vec<PointerKey>, success: bool) -> Option<UpdateOutcome> {
        self.chain_log.push((arcs, success));
        None
    }

    fn sprout(&mut self, children: &mut Vec<Chain>) -> Option<Chain> {
        let frontier = &self.shared.frontier;
        // Local dive: keep the cheapest child when it is within D of the
        // global published minimum, pushing only the siblings.
        if self.dives_left > 0 {
            let (min_idx, min_bound) = children
                .iter()
                .enumerate()
                .map(|(i, c)| (i, c.bound))
                .min_by_key(|&(_, b)| b)
                .expect("a sprout has at least one child");
            if frontier.should_dive(self.w, min_bound) {
                self.dives_left -= 1;
                self.dives += 1;
                if let Some(t) = &self.shared.config.solve.trace {
                    t.event("dive", format!("worker {} bound {min_bound}", self.w));
                }
                let next = children.swap_remove(min_idx);
                frontier.push_children_from(self.w, children);
                return Some(next);
            }
        }
        frontier.push_children_from(self.w, children);
        None
    }

    fn stop(&mut self, fault: Option<StoreError>) {
        if let Some(e) = fault {
            self.shared.store_error.lock().get_or_insert(e);
        }
        // Every worker drains through the frontier's abort flag, so none
        // strands waiting for work.
        self.shared.frontier.abort();
    }
}

/// Aborts the frontier if the worker unwinds, so a panicking worker
/// (whose `finish` never runs) fails the whole query loudly at join
/// instead of leaving its active slot leaked and the surviving workers
/// waiting for a termination signal that can never come.
impl Drop for Worker<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.frontier.abort();
        }
    }
}

fn worker_loop<'s, 'a, S: ClauseSource + ?Sized>(
    search: &Search<'_, S>,
    shared: &'s Shared<'a>,
    w: usize,
) -> (SearchStats, BlogStats, Worker<'s, 'a>) {
    // One span per worker thread, parented under the request's engine
    // span: the flight record shows each worker's busy interval, with
    // its dive events nested by timestamp.
    let _worker_span = shared
        .config
        .solve
        .trace
        .as_ref()
        .map(|t| t.span(format!("worker{w}")));
    let mut worker = Worker {
        shared,
        w,
        dives_left: 0,
        dives: 0,
        chain_log: Vec::new(),
    };
    let mut stats = SearchStats::default();
    let mut blog = BlogStats::default();
    // Reused across every expansion this worker performs.
    let mut buf: Vec<Chain> = Vec::new();
    while let Some(chain) = shared.frontier.acquire(w) {
        worker.dives_left = shared.config.dive_budget;
        let mut next = Some(chain);
        while let Some(chain) = next {
            next = expand_chain(search, &mut worker, &mut stats, &mut blog, chain, &mut buf);
        }
        // One `finish` per acquire: the dive lineage shares the slot.
        shared.frontier.finish(w);
    }
    // This thread is done with the source: hand it what it deferred (the
    // paged store's batched hits), so counters read after the join are
    // complete.
    search.source().flush_deferred();
    (stats, blog, worker)
}

/// Run OR-parallel best-first search with `config.n_workers` workers,
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
    let cfg = BestFirstConfig {
        solve: config.solve.clone(),
        prune: config.prune,
        learn: config.learn,
        cancel: config.cancel.clone(),
        ..BestFirstConfig::default()
    };
    let (mut result, logs) = if config.n_workers == 1 {
        // One worker: `blog-core`'s heap on the caller's thread — no
        // thread spawn, no locks — logging like a sharded worker.
        let (r, log) = best_first_deferred(source, query, weights, &cfg);
        let result = ParallelResult {
            per_worker_expanded: vec![r.stats.nodes_expanded],
            counters: FrontierCounters {
                max_len: r.stats.max_frontier,
                ..FrontierCounters::default()
            },
            pruned: r.blog.pruned,
            solutions: r.solutions,
            stats: r.stats,
            learned: HashMap::new(),
            store_error: r.store_error,
        };
        (result, vec![log])
    } else {
        run_sharded(&Search::new(source, query, &cfg), weights, config)
    };

    // Apply the deferred §5 updates from the per-worker logs, merged
    // deterministically: by worker id, then per-worker completion order.
    let (placement, mut rng) = (config.infinity_placement, SplitMix64::new(config.seed));
    let mut view = WeightView::new(&mut result.learned, weights);
    for (arcs, success) in logs.iter().flatten() {
        chain_update(&mut view, arcs, *success, placement, &mut rng);
    }
    result
}

/// Two or more workers: scoped OS threads sharing a sharded frontier.
fn run_sharded<S: ClauseSource + ?Sized>(
    search: &Search<'_, S>,
    weights: &WeightStore,
    config: &ParallelConfig,
) -> (ParallelResult, Vec<Vec<ChainOutcome>>) {
    let shared = Shared {
        weights,
        config,
        frontier: Frontier::new(config.n_workers, config.policy, search.root()),
        incumbent: AtomicU64::new(u64::MAX),
        nodes: AtomicU64::new(0),
        solutions: Mutex::new(Vec::new()),
        store_error: Mutex::new(None),
    };
    let per_worker: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.n_workers)
            .map(|w| {
                let shared = &shared;
                scope.spawn(move || worker_loop(search, shared, w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut stats = SearchStats::default();
    let mut pruned = 0;
    let mut dives = 0;
    let mut per_worker_expanded = Vec::with_capacity(per_worker.len());
    let mut logs = Vec::with_capacity(per_worker.len());
    for (w_stats, blog, mut worker) in per_worker {
        stats.merge(&w_stats);
        pruned += blog.pruned;
        dives += worker.dives;
        per_worker_expanded.push(w_stats.nodes_expanded);
        logs.push(std::mem::take(&mut worker.chain_log));
    }
    let mut counters = shared.frontier.counters();
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
    let result = ParallelResult {
        solutions: shared.solutions.into_inner(),
        stats,
        pruned,
        counters,
        per_worker_expanded,
        learned: HashMap::new(),
        store_error: shared.store_error.into_inner(),
    };
    (result, logs)
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

    /// Worker counts that select each executor: the inline heap and the
    /// sharded threads.
    const EXECUTORS: [usize; 2] = [1, 4];

    fn sorted_texts(db: &ClauseDb, r: &ParallelResult) -> Vec<String> {
        let mut v: Vec<String> = r.solutions.iter().map(|s| s.solution.to_text(db)).collect();
        v.sort();
        v
    }

    #[test]
    fn family_solution_set_matches_dfs() {
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let d = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let mut expect: Vec<String> = d.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        expect.sort();
        for n_workers in EXECUTORS {
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    n_workers,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(sorted_texts(&p.db, &r), expect, "x{n_workers}");
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
        assert!(r.counters.dives + r.counters.local + r.counters.steals >= r.stats.nodes_expanded);
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
        for n_workers in EXECUTORS {
            let token = CancelToken::new();
            token.cancel();
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    n_workers,
                    cancel: Some(token),
                    ..ParallelConfig::default()
                },
            );
            assert!(r.stats.truncated, "x{n_workers}");
            assert_eq!(r.stats.nodes_expanded, 0, "x{n_workers}");
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
        for n_workers in EXECUTORS {
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    n_workers,
                    solve: SolveConfig::first(),
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(r.solutions.len(), 1, "x{n_workers}");
        }
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
        // produce the same overlay as the inline one-worker heap: on the
        // family workload the §5 updates commute, so any worker count and
        // any D lands on the same weights.
        let p = parse_program(FAMILY).unwrap();
        let weights = WeightStore::new(WeightParams::default());
        let base = par_best_first(
            &p.db,
            &p.queries[0],
            &weights,
            &ParallelConfig {
                n_workers: 1,
                ..ParallelConfig::default()
            },
        );
        for d in [0, 512] {
            for n_workers in [1, 4, 8] {
                let r = par_best_first(
                    &p.db,
                    &p.queries[0],
                    &weights,
                    &ParallelConfig {
                        n_workers,
                        policy: FrontierPolicy::Sharded { d },
                        ..ParallelConfig::default()
                    },
                );
                assert_eq!(
                    r.learned, base.learned,
                    "D={d} x{n_workers}: overlay must be unchanged"
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
        for n_workers in EXECUTORS {
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    n_workers,
                    solve: SolveConfig {
                        max_nodes: Some(500),
                        ..SolveConfig::all()
                    },
                    ..ParallelConfig::default()
                },
            );
            assert!(r.stats.truncated, "x{n_workers}");
        }
    }

    #[test]
    fn queens_parallel_matches_sequential_count() {
        // A bigger nondeterministic workload exercises real contention.
        let (p, _) = blog_workloads::queens_program(&blog_workloads::QueensParams { n: 4 });
        let weights = WeightStore::new(WeightParams::default());
        for n_workers in [1, 8] {
            let r = par_best_first(
                &p.db,
                &p.queries[0],
                &weights,
                &ParallelConfig {
                    n_workers,
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
                "x{n_workers}"
            );
        }
    }
}
