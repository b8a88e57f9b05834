//! OR-parallel best-first execution.
//!
//! "Parallel searching is possible in a branch-and-bound problem …
//! Each processor works on the chains with the lowest bounds" (§3).
//! Every chain goes through `blog-core`'s one per-chain step,
//! [`expand_chain`]. One worker is `blog-core`'s thread-local heap
//! ([`best_first_deferred`]) on the caller's thread. Two or more each own
//! a heap and share chains through the [`frontier`](crate::frontier)
//! exchange; the caller's thread is worker 0 and a [`Crew`]'s helpers are
//! the rest. Either way the weights stay frozen, every closed chain is
//! logged, and the §5 updates are applied at join (see the crate docs for
//! why): the deferred sink of the loop that learns during the search in
//! `best_first_with`.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

use crate::crew::Crew;
use crate::frontier::{Exchange, FrontierCounters, FrontierPolicy, LocalHeap};

/// Configuration for [`par_best_first`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Workers (the paper's processors). The caller's thread is worker 0;
    /// one worker runs the sequential heap inline.
    pub n_workers: usize,
    /// The donation threshold `D` for two or more workers.
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
    /// Frontier counters (pops, chains received, exchange-lock traffic).
    /// A one-worker run has no exchange: only `max_len` is set.
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

/// A value on a cache line of its own.
#[repr(align(128))]
struct Line<T>(T);

/// Query-wide state the workers share. Apart from the exchange, a worker
/// writes here only to claim a node, close a solution, or report.
struct Shared<'w> {
    weights: &'w WeightStore,
    config: BestFirstConfig,
    d: u64,
    exchange: Exchange,
    /// Best solution bound so far; `u64::MAX` before the first.
    incumbent: Line<AtomicU64>,
    /// Expansions claimed against the node budget, all workers.
    nodes: Line<AtomicU64>,
    solutions: Mutex<Vec<BoundedSolution>>,
    /// First storage fault observed by any worker (first writer wins;
    /// later faults are aftershocks of the same abort).
    store_error: Mutex<Option<StoreError>>,
    /// What the workers that ran reported, merged as each one finished.
    joined: Mutex<Joined>,
}

#[derive(Default)]
struct Joined {
    stats: SearchStats,
    pruned: u64,
    counters: FrontierCounters,
    per_worker_expanded: Vec<u64>,
    /// The §5 chain logs, by worker id.
    logs: Vec<Vec<ChainOutcome>>,
}

/// One worker of a multi-worker search: the multi-threaded [`Executor`].
struct Worker<'s, 'w, S: ClauseSource + ?Sized> {
    search: &'s Search<'s, S>,
    shared: &'s Shared<'w>,
    heap: LocalHeap,
    meter: FrontierCounters,
    /// §5 chain log, in completion order.
    chain_log: Vec<ChainOutcome>,
}

impl<S: ClauseSource + ?Sized> Executor for Worker<'_, '_, S> {
    fn weight(&self, arc: PointerKey) -> Weight {
        let weights = self.shared.weights;
        weights.get(arc).effective(weights.params())
    }

    fn incumbent(&self, _own: Option<Bound>) -> Option<Bound> {
        let best = self.shared.incumbent.0.load(Ordering::Acquire);
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
            .0
            .fetch_min(solution.bound.0, Ordering::AcqRel);
        solutions.push(solution);
        Some(cap.is_some_and(|m| solutions.len() >= m))
    }

    fn claim_node(&mut self, _expanded: u64, budget: u64) -> bool {
        // Exact: only claims under the budget expand, so a truncated run
        // expands exactly `budget` nodes.
        self.shared.nodes.0.fetch_add(1, Ordering::Relaxed) < budget
    }

    fn learn(&mut self, arcs: Vec<PointerKey>, success: bool) -> Option<UpdateOutcome> {
        self.chain_log.push((arcs, success));
        None
    }

    fn sprout(&mut self, children: &mut Vec<Chain>) {
        self.heap.push_all(children);
    }

    fn stop(&mut self, fault: Option<StoreError>) {
        if let Some(e) = fault {
            self.shared.store_error.lock().get_or_insert(e);
        }
        self.heap.clear();
        self.shared.exchange.stop(&mut self.meter);
    }
}

/// Every worker hands the source what it deferred (the paged store's
/// batched hits) before its thread lets go of the search, so counters
/// read after the join are complete. A worker that unwinds also stops the
/// exchange, so its peers drain instead of waiting for it to run dry.
impl<S: ClauseSource + ?Sized> Drop for Worker<'_, '_, S> {
    fn drop(&mut self) {
        self.search.source().flush_deferred();
        if std::thread::panicking() {
            self.shared.exchange.stop(&mut self.meter);
        }
    }
}

/// Worker `w`'s loop: pop its own cheapest chain and expand it; when its
/// heap is empty take a batch from the exchange; after each expansion
/// feed a hungry peer.
fn worker_loop<S: ClauseSource + ?Sized>(search: &Search<'_, S>, shared: &Shared<'_>, w: usize) {
    // One span per worker, parented under the request's engine span: the
    // flight record shows each worker's busy interval and its thread.
    let trace = shared.config.solve.trace.as_ref();
    let span = trace.map(|t| t.span(format!("worker{w}")));
    let mut worker = Worker {
        search,
        shared,
        heap: LocalHeap::default(),
        meter: FrontierCounters::default(),
        chain_log: Vec::new(),
    };
    // Worker 0 starts with the root; the rest start idle.
    let mut holds = w == 0;
    if holds {
        worker.heap.push_all(&mut vec![search.root()]);
    }
    let exchange = &shared.exchange;
    let (mut stats, mut blog) = (SearchStats::default(), BlogStats::default());
    // Reused across every expansion this worker performs.
    let mut buf: Vec<Chain> = Vec::new();
    while !exchange.stopped() {
        let Some(chain) = worker.heap.pop() else {
            let Some(mut batch) = exchange.acquire(holds, &mut worker.meter) else {
                break;
            };
            worker.heap.push_all(&mut batch);
            holds = true;
            continue;
        };
        worker.meter.local += 1;
        expand_chain(search, &mut worker, &mut stats, &mut blog, chain, &mut buf);
        if exchange.hungry() {
            exchange.donate_from(&mut worker.heap, shared.d, &mut worker.meter);
        }
    }
    if let (Some(t), Some(span)) = (trace, &span) {
        let thread = std::thread::current().id();
        t.handle().event(
            span.id(),
            "worker",
            format!("{} nodes on {thread:?}", stats.nodes_expanded),
        );
    }
    worker.meter.max_len = worker.heap.peak;
    let mut joined = shared.joined.lock();
    joined.stats.merge(&stats);
    joined.pruned += blog.pruned;
    joined.counters.merge(&worker.meter);
    joined.per_worker_expanded[w] = stats.nodes_expanded;
    joined.logs[w] = std::mem::take(&mut worker.chain_log);
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
///
/// Two or more workers run on a [`Crew`] started for this call: the
/// caller's thread plus `n_workers − 1` scoped threads. A server that
/// searches many queries keeps one crew instead ([`par_best_first_on`]).
pub fn par_best_first_with<S: ClauseSource + ?Sized>(
    source: &S,
    query: &Query,
    weights: &WeightStore,
    config: &ParallelConfig,
) -> ParallelResult {
    assert!(config.n_workers >= 1);
    let (result, logs) = if config.n_workers == 1 {
        // One worker: `blog-core`'s heap on the caller's thread — no
        // thread, no locks — logging like a parallel worker.
        let (r, log) = best_first_deferred(source, query, weights, &best_first_config(config));
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
        std::thread::scope(|scope| {
            let crew = Crew::start(scope, config.n_workers - 1);
            run_on_crew(&crew, source, query, weights, config)
        })
    };
    with_learning(result, logs, weights, config)
}

/// [`par_best_first_with`] on a long-lived `crew`, whose size must match
/// `config.n_workers`: the caller's thread is worker 0 and the crew's
/// parked helpers are the rest, so no thread is started. The source and
/// query travel in `Arc`s because the helpers outlive this call.
pub fn par_best_first_on<'a, S: ClauseSource + Send + 'a>(
    crew: &Crew<'a>,
    source: Arc<S>,
    query: Arc<Query>,
    weights: &'a WeightStore,
    config: &ParallelConfig,
) -> ParallelResult {
    assert_eq!(crew.workers(), config.n_workers, "crew size");
    let (result, logs) = run_on_crew(crew, source, query, weights, config);
    with_learning(result, logs, weights, config)
}

/// The sequential engine's configuration for the same search.
fn best_first_config(config: &ParallelConfig) -> BestFirstConfig {
    BestFirstConfig {
        solve: config.solve.clone(),
        prune: config.prune,
        learn: config.learn,
        cancel: config.cancel.clone(),
        ..BestFirstConfig::default()
    }
}

/// Apply the deferred §5 updates from the per-worker logs, merged
/// deterministically: by worker id, then per-worker completion order.
fn with_learning(
    mut result: ParallelResult,
    logs: Vec<Vec<ChainOutcome>>,
    weights: &WeightStore,
    config: &ParallelConfig,
) -> ParallelResult {
    let (placement, mut rng) = (config.infinity_placement, SplitMix64::new(config.seed));
    let mut view = WeightView::new(&mut result.learned, weights);
    for (arcs, success) in logs.iter().flatten() {
        chain_update(&mut view, arcs, *success, placement, &mut rng);
    }
    result
}

/// Two or more workers: one worker loop per crew thread, then the join.
fn run_on_crew<'a, S, Src, Q>(
    crew: &Crew<'a>,
    source: Src,
    query: Q,
    weights: &'a WeightStore,
    config: &ParallelConfig,
) -> (ParallelResult, Vec<Vec<ChainOutcome>>)
where
    S: ClauseSource + ?Sized,
    Src: Deref<Target = S> + Send + Sync + 'a,
    Q: Deref<Target = Query> + Send + Sync + 'a,
{
    let n_workers = crew.workers();
    let FrontierPolicy::Sharded { d } = config.policy;
    let shared = Arc::new(Shared {
        weights,
        config: best_first_config(config),
        d,
        exchange: Exchange::new(n_workers),
        incumbent: Line(AtomicU64::new(u64::MAX)),
        nodes: Line(AtomicU64::new(0)),
        solutions: Mutex::new(Vec::new()),
        store_error: Mutex::new(None),
        joined: Mutex::new(Joined {
            per_worker_expanded: vec![0; n_workers],
            logs: vec![Vec::new(); n_workers],
            ..Joined::default()
        }),
    });
    // The job owns the source, the query and a handle on the shared state.
    let job = Arc::clone(&shared);
    crew.run(Arc::new(move |w| {
        let search = Search::new(&*source, &query, &job.config);
        worker_loop(&search, &job, w);
    }));

    // Every worker that ran has reported; a helper that never picked the
    // job up held no chain and expanded nothing.
    let Joined {
        mut stats,
        pruned,
        counters,
        per_worker_expanded,
        logs,
    } = std::mem::take(&mut *shared.joined.lock());
    stats.max_frontier = counters.max_len;
    if let Some(t) = &config.solve.trace {
        t.event(
            "frontier",
            format!(
                "steals {} local {} locks {} max_len {}",
                counters.steals, counters.local, counters.shard_locks, counters.max_len
            ),
        );
    }
    let result = ParallelResult {
        solutions: std::mem::take(&mut *shared.solutions.lock()),
        stats,
        pruned,
        counters,
        per_worker_expanded,
        learned: HashMap::new(),
        store_error: shared.store_error.lock().take(),
    };
    (result, logs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_core::weight::WeightParams;
    use blog_logic::{dfs_all, parse_program, Program};

    const FAMILY: &str = "
        gf(X,Z) :- f(X,Y), f(Y,Z).
        gf(X,Z) :- f(X,Y), m(Y,Z).
        f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
        f(pat,john). f(larry,doug).
        m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
        ?- gf(sam,G).
    ";

    /// Worker counts that select each executor: the inline heap and the
    /// worker-owned heaps.
    const EXECUTORS: [usize; 2] = [1, 4];

    fn family() -> (Program, WeightStore) {
        let p = parse_program(FAMILY).unwrap();
        (p, WeightStore::new(WeightParams::default()))
    }

    fn workers(n_workers: usize) -> ParallelConfig {
        ParallelConfig {
            n_workers,
            ..ParallelConfig::default()
        }
    }

    /// `par_best_first` on `p`'s query.
    fn run(p: &Program, weights: &WeightStore, config: ParallelConfig) -> ParallelResult {
        par_best_first(&p.db, &p.queries[0], weights, &config)
    }

    fn sorted_texts(db: &ClauseDb, r: &ParallelResult) -> Vec<String> {
        let mut v: Vec<String> = r.solutions.iter().map(|s| s.solution.to_text(db)).collect();
        v.sort();
        v
    }

    #[test]
    fn family_solution_set_matches_dfs() {
        let (p, weights) = family();
        let d = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let mut expect: Vec<String> = d.solutions.iter().map(|s| s.to_text(&p.db)).collect();
        expect.sort();
        for n_workers in EXECUTORS {
            let r = run(&p, &weights, workers(n_workers));
            assert_eq!(sorted_texts(&p.db, &r), expect, "x{n_workers}");
        }
    }

    #[test]
    fn single_worker_matches_multi_worker_set() {
        let (p, weights) = family();
        let one = run(&p, &weights, workers(1));
        let eight = run(&p, &weights, workers(8));
        assert_eq!(sorted_texts(&p.db, &one), sorted_texts(&p.db, &eight));
        assert_eq!(
            one.stats.nodes_expanded, eight.stats.nodes_expanded,
            "without pruning, total work is the whole tree either way"
        );
    }

    #[test]
    fn pre_cancelled_token_aborts_every_policy() {
        let (p, weights) = family();
        for n_workers in EXECUTORS {
            let token = CancelToken::new();
            token.cancel();
            let cancel = Some(token);
            let r = run(
                &p,
                &weights,
                ParallelConfig {
                    cancel,
                    ..workers(n_workers)
                },
            );
            assert!(r.stats.truncated, "x{n_workers}");
            assert_eq!(r.stats.nodes_expanded, 0, "x{n_workers}");
        }
    }

    #[test]
    fn untripped_token_is_transparent() {
        let (p, weights) = family();
        let base = run(&p, &weights, ParallelConfig::default());
        let cancel = Some(CancelToken::new());
        let r = run(
            &p,
            &weights,
            ParallelConfig {
                cancel,
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
        let (p, weights) = family();
        let direct = run(&p, &weights, ParallelConfig::default());
        let source: &dyn blog_logic::ClauseSource = &p.db;
        let via = par_best_first_with(source, &p.queries[0], &weights, &ParallelConfig::default());
        assert_eq!(sorted_texts(&p.db, &via), sorted_texts(&p.db, &direct));
        assert_eq!(via.stats.nodes_expanded, direct.stats.nodes_expanded);
    }

    #[test]
    fn max_solutions_stops_early() {
        let (p, weights) = family();
        for n_workers in EXECUTORS {
            let solve = SolveConfig::first();
            let r = run(
                &p,
                &weights,
                ParallelConfig {
                    solve,
                    ..workers(n_workers)
                },
            );
            assert_eq!(r.solutions.len(), 1, "x{n_workers}");
        }
    }

    #[test]
    fn learning_produces_overlay() {
        let (p, weights) = family();
        let r = run(&p, &weights, ParallelConfig::default());
        assert!(!r.learned.is_empty());
        let count = |f: fn(&WeightState) -> bool| r.learned.values().filter(|s| f(s)).count();
        let known = count(|s| matches!(s, WeightState::Known(_)));
        let infinite = count(|s| matches!(s, WeightState::Infinite));
        assert!(known >= 3, "solution chains become known");
        assert!(infinite >= 1, "the m dead-end is marked");
    }

    #[test]
    fn learned_overlay_is_stable_across_workers_and_policies() {
        // The per-worker chain logs (merged by worker id at join) must
        // produce the same overlay as the inline one-worker heap: on the
        // family workload the §5 updates commute, so any worker count and
        // any D lands on the same weights.
        let (p, weights) = family();
        let base = run(&p, &weights, workers(1));
        for d in [0, 512] {
            for n_workers in [1, 4, 8] {
                let policy = FrontierPolicy::Sharded { d };
                let r = run(
                    &p,
                    &weights,
                    ParallelConfig {
                        policy,
                        ..workers(n_workers)
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
        let (p, weights) = family();
        let r = run(
            &p,
            &weights,
            ParallelConfig {
                learn: false,
                ..ParallelConfig::default()
            },
        );
        assert!(r.learned.is_empty());
    }

    #[test]
    fn trained_weights_plus_pruning_skip_dead_branches() {
        let (p, _) = family();
        // Train sequentially first.
        let mut mgr = blog_core::session::SessionManager::new(WeightParams::default());
        let mut session = mgr.begin_session();
        mgr.query(
            &mut session,
            &p.db,
            &p.queries[0],
            &BestFirstConfig::default(),
        );
        mgr.end_session(session, blog_core::session::MergePolicy::Overwrite);
        // Parallel re-run with pruning: the infinite m-branch dies. The
        // donor keeps it (it is more than D above its cheapest chain), so
        // an incumbent exists by the time it is popped.
        let prune = PruneMode::Incumbent {
            slack: Weight::from_bits_int(2),
        };
        let r = run(
            &p,
            mgr.global(),
            ParallelConfig {
                prune,
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
            let solve = SolveConfig {
                max_nodes: Some(500),
                ..SolveConfig::all()
            };
            let r = run(
                &p,
                &weights,
                ParallelConfig {
                    solve,
                    ..workers(n_workers)
                },
            );
            assert!(r.stats.truncated, "x{n_workers}");
            assert_eq!(
                r.stats.nodes_expanded, 500,
                "x{n_workers}: the budget is exact"
            );
        }
    }

    #[test]
    fn queens_parallel_matches_sequential_count() {
        // A bigger nondeterministic workload exercises real contention.
        let (p, _) = blog_workloads::queens_program(&blog_workloads::QueensParams { n: 4 });
        let weights = WeightStore::new(WeightParams::default());
        for n_workers in [1, 8] {
            let r = run(&p, &weights, workers(n_workers));
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
