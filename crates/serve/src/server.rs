//! The scheduler: the open submit/drain loop, pool queues, affinity
//! routing, overflow admission, the update lane, the answer cache, and
//! the memory governor. A serve run's only threads are its pools (each
//! with its crew of OR-parallel helpers, if any) and, in
//! [`QueryServer::serve_mixed`], the update lane: a request's deadline
//! rides in its cancel token, which the engine checks once per chain.
//!
//! A request's hand-off costs what it needs. [`Submitter::submit`] takes
//! its pool queue's lock once and makes a wakeup call only when the
//! pool's worker is parked; the worker takes everything queued in one
//! lock and runs it in order; the submission and completion counts are
//! atomics, and the progress mutex only pairs with the condvar
//! [`Submitter::quiesce`] waits on. The byte budget is charged without
//! the answer cache's mutex (see [`AnswerCache::try_admit`]), and a
//! request that runs no engine reads neither the session ledger nor the
//! store's counters (see [`EngineBaseline`]).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use blog_core::weight::{WeightParams, WeightStore};
use blog_logic::{
    canonical_query, parse_query_symbols, CancelToken, ClauseDb, ClauseId, SearchStats, SolveConfig,
};
use blog_parallel::{par_best_first_on, Crew, FrontierPolicy, ParallelConfig};
use blog_spd::{
    CommitMode, IndexPolicy, MvccClauseStore, MvccError, PagedStoreConfig, PagedStoreStats,
    PoolTouchStats,
};

use crate::breaker::{Breaker, BreakerConfig, Gate, Transition};
use crate::cache::{AnswerCache, CacheConfig, CacheKey, CacheStats};
use crate::request::{
    Outcome, QueryRequest, QueryResponse, RetryAdvice, ServedFrom, UpdateOp, UpdateOutcome,
    UpdateRequest, UpdateResponse,
};
use crate::retry::RetryPolicy;
use crate::stats::{hist_ms, PoolReport, ServeReport, ServeStats, WarmthSplit};

use blog_obs::{splitmix64, SpanCtx, SpanId, TraceHandle, Tracer};

/// Seed of the server's deterministic trace sampler: the same config
/// and request sequence always sample the same requests with the same
/// trace ids, so flight-recorder contents are reproducible.
const TRACE_SEED: u64 = 0xB10C_0B5E_7E1E_A55E;

/// Lock a mutex, recovering from poisoning.
///
/// Invariant that makes the recovery sound: every critical section in
/// this crate leaves its protected data consistent at each statement
/// boundary (counters bump atomically, collections push whole elements),
/// so a thread that panicked while holding a lock — an injected engine
/// panic, an assert in a driver callback — cannot have left torn state
/// behind. Propagating the poison instead would let one isolated request
/// failure strand every worker sharing the lock, which is exactly what
/// the panic-isolation path exists to prevent.
pub(crate) fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How many workers run each request, and the donation threshold `D`
/// between them. Every request runs on the OR-parallel executor on its
/// pool's crew; the server reads this once, as a worker count and a `D`.
#[derive(Clone, Copy, Debug)]
pub enum ExecMode {
    /// One worker: the sequential best-first heap, inline on the pool's
    /// thread (one pool = one processor). The same as
    /// [`OrParallel`](Self::OrParallel) with `n_workers: 1`.
    Sequential,
    /// A request fans out over up to `n_workers` workers that share the
    /// pool's store view (and therefore its touch attribution). The
    /// pool's thread is worker 0; with two or more, the pool keeps
    /// `n_workers − 1` helper threads for the whole serving session, and
    /// a request calls them in once its search passes
    /// `blog_parallel::LONE_EXPANSIONS` expansions. One worker runs the
    /// sequential heap inline on the pool's thread.
    OrParallel {
        /// Workers per request.
        n_workers: usize,
        /// The donation threshold `D` between those workers.
        policy: FrontierPolicy,
    },
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker pools (each is one OS thread draining its own queue, plus
    /// its OR-parallel helpers, if any).
    pub n_pools: usize,
    /// Admission-time work stealing: when the routed pool's queue is at
    /// least this deep, the request is diverted to the currently
    /// shortest queue instead (`None` = never divert). This caps the
    /// queue skew a hot session can build while keeping the common case
    /// on its warm pool.
    pub overflow_threshold: Option<usize>,
    /// Engine per request.
    pub exec: ExecMode,
    /// Base limits for every request (`QueryRequest` fields override
    /// per request).
    pub solve: SolveConfig,
    /// Nanoseconds each simulated SPD fault tick stalls the serving
    /// thread (0 = accounting only). With a nonzero stall, pools overlap
    /// one another's disk latency — the multiprogramming form of the
    /// paper's latency hiding, and the mechanism by which serving
    /// throughput scales with pool count even when queries are
    /// CPU-light. The update lane's commit I/O stalls under the same
    /// scale.
    pub stall_ns_per_tick: u64,
    /// Inert: [`CommitMode::Mvcc`] (readers never wait for a commit) is
    /// the only commit mode. The field stays because the frozen
    /// `benchmark/` crate reads it, and goes with the next `[benchmark]`
    /// change.
    pub commit: CommitMode,
    /// Inert: the store config's [`PagedStoreConfig::index`] picks the
    /// candidate-selection policy. The field stays because the frozen
    /// `benchmark/` crate reads it, and goes with the next `[benchmark]`
    /// change.
    pub index: IndexPolicy,
    /// Answer cache and memory governor (see [`CacheConfig`]); default
    /// [`CacheMode::Off`](crate::CacheMode::Off) and ungoverned, which
    /// reproduces the pre-cache server exactly.
    pub cache: CacheConfig,
    /// Retry budget for transient storage faults and engine panics.
    pub retry: RetryPolicy,
    /// Per-pool circuit breaker (see [`BreakerConfig`]).
    pub breaker: BreakerConfig,
    /// Request tracing (see [`blog_obs::TraceConfig`]): sampled requests
    /// record a span tree (queue wait → attempt → engine → store events
    /// → cache) into the server's flight recorder
    /// ([`QueryServer::tracer`]). Default off — every instrumentation
    /// site reduces to a branch on `None`.
    pub trace: blog_obs::TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_pools: 2,
            overflow_threshold: None,
            exec: ExecMode::Sequential,
            solve: SolveConfig::all(),
            stall_ns_per_tick: 0,
            commit: CommitMode::Mvcc,
            index: IndexPolicy::default(),
            cache: CacheConfig::default(),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            trace: blog_obs::TraceConfig::off(),
        }
    }
}

/// One admitted request waiting in a pool queue.
struct Job {
    idx: usize,
    request: QueryRequest,
    /// Carries the request's deadline, if it has one.
    cancel: CancelToken,
    enqueued: Instant,
    /// Trace handle when this request was sampled (created at
    /// admission, so the root span covers queue wait too).
    trace: Option<TraceHandle>,
}

/// One pool's open queue: jobs, a wakeup for its worker, and live
/// depth/peak gauges. `depth` counts the jobs admitted to the pool and
/// not yet started, whether still queued or already taken by the
/// worker's drain; it is what overflow stealing compares.
struct PoolQueue {
    jobs: Mutex<Jobs>,
    /// Notified only when the worker is parked on it (see
    /// [`Jobs::parked`]) or admission closes.
    available: Condvar,
    depth: AtomicUsize,
    peak: AtomicUsize,
}

/// What a pool queue's mutex guards.
#[derive(Default)]
struct Jobs {
    queue: VecDeque<Job>,
    /// The worker found the queue empty and is waiting on
    /// [`PoolQueue::available`]: the next submission must wake it. A
    /// submission to a pool that is busy makes no wakeup call.
    parked: bool,
}

impl PoolQueue {
    fn new() -> PoolQueue {
        PoolQueue {
            jobs: Mutex::new(Jobs::default()),
            available: Condvar::new(),
            depth: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }
}

/// What a response's warmth and store traffic are measured against,
/// read just before a request's first engine run: a request that runs no
/// engine (a cache hit above all) reads neither the session ledger nor
/// the store's counters.
struct EngineBaseline {
    /// The session's home was the serving pool.
    warm: bool,
    /// The serving pool's store counters.
    touches: PoolTouchStats,
}

/// Submission/completion ledger. The counters are atomics; the mutex
/// only pairs with `idle`, so that [`Submitter::quiesce`] cannot miss
/// the wakeup of the completion that leaves nothing in flight.
#[derive(Default)]
struct Progress {
    queued: AtomicUsize,
    finished: AtomicUsize,
    lock: Mutex<()>,
    /// Notified under `lock` when a completion leaves nothing in flight —
    /// the one condition [`Submitter::quiesce`] waits for.
    idle: Condvar,
}

/// Everything one open serve run shares between the driver and the pool
/// workers.
struct OpenState {
    queues: Vec<PoolQueue>,
    /// `true` while the driver may still submit; flipping it (with every
    /// queue's condvar notified under its lock) releases idle workers.
    accepting: AtomicBool,
    progress: Progress,
    next_query: AtomicUsize,
    next_update: AtomicUsize,
    overflow: AtomicU64,
    /// Responses for submissions the governor refused (they never reach
    /// a pool queue).
    overloaded: Mutex<Vec<QueryResponse>>,
    updates: Mutex<Vec<UpdateResponse>>,
}

impl OpenState {
    fn new(n_pools: usize) -> OpenState {
        OpenState {
            queues: (0..n_pools).map(|_| PoolQueue::new()).collect(),
            accepting: AtomicBool::new(true),
            progress: Progress::default(),
            next_query: AtomicUsize::new(0),
            next_update: AtomicUsize::new(0),
            overflow: AtomicU64::new(0),
            overloaded: Mutex::new(Vec::new()),
            updates: Mutex::new(Vec::new()),
        }
    }
}

/// The immediate verdict of one [`Submitter::submit`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    /// Admitted onto `pool`'s queue; the response will carry index
    /// `request`.
    Queued {
        /// Request index in the run (response order).
        request: usize,
        /// The pool the request was routed (or overflow-diverted) to.
        pool: usize,
    },
    /// Refused by the memory governor: the store-wide byte budget cannot
    /// fit another request reservation even after evicting the whole
    /// answer cache. An [`Outcome::Overloaded`] response is already
    /// recorded under `request` — back off and resubmit later.
    Overloaded {
        /// Request index in the run (response order).
        request: usize,
    },
}

/// The open front door of a running [`QueryServer::serve_open`] call:
/// submit queries and apply updates **while the pools are draining**.
/// Shareable across driver threads (`&Submitter` is `Send + Sync`).
pub struct Submitter<'a> {
    server: &'a QueryServer,
    state: &'a OpenState,
    t0: Instant,
}

impl Submitter<'_> {
    /// When this serve run started (the zero point of
    /// [`UpdateRequest::not_before`]-style delays).
    pub fn started(&self) -> Instant {
        self.t0
    }

    /// Submit one query: the memory governor reserves its bytes (or
    /// refuses — [`Admission::Overloaded`]), routing picks its pool
    /// (overflow stealing consults **live** queue depths, so it fires
    /// mid-flight), and its deadline goes into its cancel token. The
    /// queue's worker is woken if it is parked (a busy worker finds the
    /// job when it next drains its queue); the response is collected by
    /// the enclosing [`QueryServer::serve_open`] call.
    pub fn submit(&self, request: QueryRequest) -> Admission {
        let state = self.state;
        let n_pools = state.queues.len();
        let idx = state.next_query.fetch_add(1, Ordering::Relaxed);
        let mut pool = self.server.route(request.session.0);
        if let Some(threshold) = self.server.config.overflow_threshold {
            if state.queues[pool].depth.load(Ordering::Relaxed) >= threshold {
                let shortest = (0..n_pools)
                    .min_by_key(|&p| state.queues[p].depth.load(Ordering::Relaxed))
                    .expect("n_pools >= 1");
                if state.queues[shortest].depth.load(Ordering::Relaxed)
                    < state.queues[pool].depth.load(Ordering::Relaxed)
                {
                    pool = shortest;
                    state.overflow.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Breaker reroute: a pool whose breaker is open and still
        // cooling gets no new work while any healthy pool exists —
        // affinity warmth is worth less than an answer. (When the
        // cooldown has elapsed, the request is allowed through as the
        // half-open probe; when every pool is sick, the routed pool
        // keeps it and serves degraded.)
        let now = Instant::now();
        let cooling = |q: usize| lock_unpoisoned(&self.server.breakers[q]).cooling(now);
        if cooling(pool) {
            let healthy = (0..n_pools)
                .filter(|&q| q != pool && !cooling(q))
                .min_by_key(|&q| state.queues[q].depth.load(Ordering::Relaxed));
            if let Some(alt) = healthy {
                pool = alt;
                self.server.breaker_reroutes.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !self.server.cache.try_admit() {
            lock_unpoisoned(&state.overloaded).push(QueryResponse {
                request: idx,
                session: request.session,
                tenant: request.tenant,
                pool,
                epoch: self.server.store.committed_epoch(),
                outcome: Outcome::Overloaded {
                    // The governor frees bytes as in-flight requests
                    // finish; one service quantum is a sensible earliest
                    // resubmit.
                    advice: RetryAdvice::after(self.server.config.retry.base_backoff),
                },
                stats: blog_logic::SearchStats::default(),
                queue_wait: Duration::ZERO,
                service: Duration::ZERO,
                warm: false,
                served_from: ServedFrom::Engine,
                store_accesses: 0,
                store_hits: 0,
            });
            return Admission::Overloaded { request: idx };
        }
        let cancel = match request.deadline {
            Some(d) => CancelToken::until(now + d),
            None => CancelToken::new(),
        };
        // Sampling decision at admission, so the root span covers the
        // queue wait; the handle rides in the job to the pool worker.
        let trace = self.server.tracer.start(idx as u64, || {
            format!("s{} {}", request.session.0, request.text)
        });
        if let Some(h) = &trace {
            h.event(SpanId::ROOT, "admitted", format!("pool {pool}"));
        }
        // Counted before the job is visible to the worker, whose
        // completion count must never pass it.
        state.progress.queued.fetch_add(1, Ordering::Relaxed);
        let q = &state.queues[pool];
        let wake = {
            let mut jobs = lock_unpoisoned(&q.jobs);
            jobs.queue.push_back(Job {
                idx,
                request,
                cancel,
                enqueued: now,
                trace,
            });
            let depth = q.depth.fetch_add(1, Ordering::Relaxed) + 1;
            q.peak.fetch_max(depth, Ordering::Relaxed);
            // The worker read `parked` under this lock before waiting, so
            // a notify after the unlock still reaches it.
            std::mem::take(&mut jobs.parked)
        };
        if wake {
            q.available.notify_one();
        }
        Admission::Queued { request: idx, pool }
    }

    /// Apply one update batch on the caller's thread (the update lane of
    /// an open run): commits between epochs while queries run, and the
    /// answer cache is notified in commit order.
    pub fn update(&self, session: crate::SessionId, ops: &[UpdateOp]) -> UpdateResponse {
        let idx = self.state.next_update.fetch_add(1, Ordering::Relaxed);
        // Updates sample from the same tracer as queries, in a disjoint
        // index namespace (high bit set) so trace ids never collide.
        let trace = self
            .server
            .tracer
            .start((1 << 62) | idx as u64, || format!("update s{}", session.0));
        let response = match self.server.apply_update_traced(
            ops,
            trace
                .as_ref()
                .map(|h| SpanCtx::new(h.clone(), SpanId::ROOT)),
        ) {
            Ok((epoch, asserted)) => UpdateResponse {
                request: idx,
                session,
                epoch,
                outcome: UpdateOutcome::Committed { asserted },
            },
            Err(e) => UpdateResponse {
                request: idx,
                session,
                epoch: self.server.store.committed_epoch(),
                outcome: UpdateOutcome::Rejected {
                    error: e.to_string(),
                },
            },
        };
        if let Some(h) = trace {
            self.server.tracer.finish(h);
        }
        lock_unpoisoned(&self.state.updates).push(response.clone());
        response
    }

    /// Queries submitted but not yet answered.
    pub fn pending(&self) -> usize {
        let progress = &self.state.progress;
        // Completions first: every one was queued before it finished, so
        // the queued count read after it is at least as large.
        let finished = progress.finished.load(Ordering::Acquire);
        progress.queued.load(Ordering::Acquire) - finished
    }

    /// Block until every query submitted so far has a response — the
    /// deterministic barrier interleaved commit/query schedules need.
    pub fn quiesce(&self) {
        let progress = &self.state.progress;
        let mut guard = lock_unpoisoned(&progress.lock);
        // Checked under the lock: the completion that makes the counts
        // equal takes it before notifying, so it cannot notify between
        // this check and the wait.
        while self.pending() > 0 {
            guard = progress
                .idle
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// The multi-session query server. See the crate docs for the model.
///
/// The server owns a snapshot-isolated [`MvccClauseStore`] seeded from
/// the clause database at construction (the database itself is not
/// retained — the store's epoch-0 state *is* the database), a frozen
/// [`WeightStore`] snapshot, and an [`AnswerCache`] governed by the
/// store-wide byte budget. Queries execute against per-request
/// epoch-pinned snapshots; the update lane
/// ([`serve_mixed`](Self::serve_mixed), [`apply_update`](Self::apply_update))
/// commits asserts and retracts between epochs without blocking readers.
/// The store's cache persists across batches, so a second batch starts
/// warm — servers don't reboot between requests.
pub struct QueryServer {
    weights: WeightStore,
    /// Every request's engine configuration but its limits and token:
    /// `config.exec`'s worker count and `D`, learning off.
    engine: ParallelConfig,
    store: MvccClauseStore,
    cache: AnswerCache,
    config: ServeConfig,
    /// Session → pool that last completed one of its requests (the
    /// warmth ledger; persists across batches).
    sessions: Mutex<HashMap<u64, usize>>,
    /// Serializes [`apply_update`](Self::apply_update) commits *and*
    /// their cache notifications, so [`AnswerCache::on_commit`] observes
    /// base/new epoch pairs in true commit order.
    update_order: Mutex<()>,
    /// One circuit breaker per pool (state persists across batches: a
    /// pool that tripped at the end of one run is still sick at the
    /// start of the next).
    breakers: Vec<Mutex<Breaker>>,
    /// Cumulative resilience meters (serve runs report deltas).
    retries: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_reroutes: AtomicU64,
    degraded_cache_hits: AtomicU64,
    /// Request tracing: deterministic sampler plus the flight recorder
    /// completed traces land in (persists across batches, like every
    /// other server-lifetime meter).
    tracer: Tracer,
}

impl QueryServer {
    /// A server seeded from `db` with default (untrained) weights.
    ///
    /// # Panics
    /// Panics if `config.n_pools == 0` or the store geometry cannot hold
    /// the database (see [`MvccClauseStore::new`]). Size the geometry
    /// with headroom (see [`tuning::churn_store_config`](crate::tuning::churn_store_config))
    /// when the update lane will assert clauses.
    pub fn new(db: &ClauseDb, store_config: PagedStoreConfig, config: ServeConfig) -> QueryServer {
        Self::with_weights(
            db,
            store_config,
            config,
            WeightStore::new(WeightParams::default()),
        )
    }

    /// A server executing against a trained weight snapshot (weights are
    /// frozen for the server's lifetime: serving never learns, so
    /// concurrent and sequential execution provably enumerate the same
    /// solution sets).
    pub fn with_weights(
        db: &ClauseDb,
        store_config: PagedStoreConfig,
        config: ServeConfig,
        weights: WeightStore,
    ) -> QueryServer {
        assert!(config.n_pools >= 1, "need at least one pool");
        let (n_workers, policy) = match config.exec {
            ExecMode::Sequential => (1, ParallelConfig::default().policy),
            ExecMode::OrParallel { n_workers, policy } => (n_workers, policy),
        };
        assert!(n_workers >= 1, "need at least one worker per request");
        let engine = ParallelConfig {
            n_workers,
            policy,
            learn: false,
            ..ParallelConfig::default()
        };
        let store = MvccClauseStore::new(db, store_config, config.commit);
        store.set_write_stall(config.stall_ns_per_tick);
        let cache = AnswerCache::new(config.cache.clone());
        let breakers = (0..config.n_pools)
            .map(|_| Mutex::new(Breaker::new(config.breaker)))
            .collect();
        let config_trace = config.trace;
        QueryServer {
            weights,
            engine,
            store,
            cache,
            config,
            sessions: Mutex::new(HashMap::new()),
            update_order: Mutex::new(()),
            breakers,
            retries: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            breaker_reroutes: AtomicU64::new(0),
            degraded_cache_hits: AtomicU64::new(0),
            tracer: Tracer::new(config_trace, TRACE_SEED),
        }
    }

    /// The shared store (for inspecting cache and epoch state between
    /// batches).
    pub fn store(&self) -> &MvccClauseStore {
        &self.store
    }

    /// The request tracer (sampler plus flight recorder). Snapshot its
    /// [`recorder`](Tracer::recorder) after a run to inspect or export
    /// the sampled requests' span trees.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The session's home pool: its id hashed onto a pool (SplitMix64
    /// spreads consecutive ids, which modulo `n_pools` would alias tenants
    /// to pools in generated workloads), so one session's stream of
    /// similar queries is serviced consecutively by one pool and finds
    /// its clause tracks still resident when the "second and third query"
    /// arrive — §5's warmth produced by scheduling.
    fn route(&self, session: u64) -> usize {
        (splitmix64(session) % self.config.n_pools as u64) as usize
    }

    /// Step pool `p`'s breaker with a request's verdict from storage,
    /// metering and tracing the transition it makes, if any.
    fn record_verdict(&self, p: usize, success: bool, trace: Option<&TraceHandle>) {
        let transition = lock_unpoisoned(&self.breakers[p]).record(success, Instant::now());
        let (name, why) = match transition {
            None => return,
            Some(Transition::Opened) => {
                self.breaker_opens.fetch_add(1, Ordering::Relaxed);
                ("breaker_open", "failure streak hit the threshold")
            }
            Some(Transition::Closed) => ("breaker_closed", "half-open probe succeeded"),
        };
        if let Some(h) = trace {
            h.event(SpanId::ROOT, name, format!("pool {p}: {why}"));
        }
    }

    /// Apply one batch of ops as a single atomic transaction and commit.
    /// Returns the committed epoch and the clause ids allocated by the
    /// asserts; on any failing op the transaction is dropped (nothing
    /// changes) and the op's error comes back.
    ///
    /// This is the update lane's primitive; it can also be called
    /// directly — including from other threads while
    /// [`serve`](Self::serve) is running, which is exactly the churn the
    /// `paged_churn` benchmark workload measures.
    /// Commits through this path notify the
    /// answer cache with the transaction's touched predicates, in commit
    /// order (commits that bypass it — a raw
    /// [`MvccClauseStore::begin_write`] — leave the cache behind, which
    /// is safe: lagging entries expire instead of ever serving stale).
    pub fn apply_update(
        &self,
        ops: &[crate::request::UpdateOp],
    ) -> Result<(u64, Vec<ClauseId>), MvccError> {
        self.apply_update_traced(ops, None)
    }

    /// [`apply_update`](Self::apply_update) with the commit reported
    /// onto `trace`'s span tree: a `writer_wait` span while the update
    /// serializes behind earlier writers, then the store's own
    /// `commit_io` / `commit_install` spans and `retire` event (see
    /// [`blog_spd::WriteTxn::with_trace`]).
    pub fn apply_update_traced(
        &self,
        ops: &[crate::request::UpdateOp],
        trace: Option<SpanCtx>,
    ) -> Result<(u64, Vec<ClauseId>), MvccError> {
        let wait_span = trace.as_ref().map(|t| t.span("writer_wait"));
        let _order = lock_unpoisoned(&self.update_order);
        let mut txn = self.store.begin_write().with_trace(trace.clone());
        drop(wait_span);
        let mut asserted = Vec::new();
        for op in ops {
            match op {
                crate::request::UpdateOp::Assert { text } => {
                    asserted.extend(txn.assert_text(text)?)
                }
                crate::request::UpdateOp::Retract { id } => txn.retract(*id)?,
            }
        }
        let base = txn.base_epoch();
        let touched = txn.touched_preds();
        let epoch = txn.commit();
        self.cache.on_commit(base, epoch, &touched);
        Ok((epoch, asserted))
    }

    /// Serve a read-only batch of requests to completion and report.
    ///
    /// A convenience wrapper over [`serve_open`](Self::serve_open): the
    /// whole batch is submitted (the *offered load*) while the pools
    /// drain concurrently; the call returns when every request has a
    /// response. Responses come back in batch order.
    pub fn serve(&self, requests: Vec<QueryRequest>) -> ServeReport {
        self.serve_mixed(requests, Vec::new())
    }

    /// Serve queries and updates together: pools drain the query queues
    /// while a dedicated **update lane** thread applies each
    /// [`UpdateRequest`] in batch order (honoring
    /// [`not_before`](UpdateRequest::not_before) delays), committing
    /// between epochs. Every query response carries the
    /// [`epoch`](QueryResponse::epoch) it executed at; its solutions are
    /// exactly the sequential solution set of that epoch's snapshot.
    ///
    /// Implemented on the open loop: requests are submitted while the
    /// pools are already draining, exactly as a network front end would
    /// deliver them.
    pub fn serve_mixed(
        &self,
        requests: Vec<QueryRequest>,
        updates: Vec<UpdateRequest>,
    ) -> ServeReport {
        let (report, ()) = self.serve_open(move |s| {
            std::thread::scope(|scope| {
                if !updates.is_empty() {
                    let updates = &updates;
                    scope.spawn(move || {
                        for update in updates {
                            if let Some(delay) = update.not_before {
                                let at = s.started() + delay;
                                let now = Instant::now();
                                if now < at {
                                    std::thread::sleep(at - now);
                                }
                            }
                            s.update(update.session, &update.ops);
                        }
                    });
                }
                for request in requests {
                    s.submit(request);
                }
            });
        });
        report
    }

    /// Run an **open** serving session: the pool workers start
    /// immediately, then `driver` runs on the calling thread
    /// with a [`Submitter`] — submitting queries, applying updates, and
    /// pacing arrivals however it likes (Poisson load generators, network
    /// accept loops, interleaved commit/query schedules). When `driver`
    /// returns, admission closes, the pools drain what remains, and the
    /// report covers **every** submission, including the ones the memory
    /// governor refused ([`Outcome::Overloaded`]).
    ///
    /// Returns the report and the driver's own result.
    pub fn serve_open<R>(&self, driver: impl FnOnce(&Submitter<'_>) -> R) -> (ServeReport, R) {
        let n_pools = self.config.n_pools;
        let t0 = Instant::now();
        let state = OpenState::new(n_pools);
        let store_before = self.store.stats();
        let mvcc_before = self.store.mvcc_stats();
        let cache_before = self.cache.stats();
        let pools_before: Vec<_> = (0..n_pools).map(|p| self.store.pool_stats(p)).collect();
        let retries_before = self.retries.load(Ordering::Relaxed);
        let breaker_opens_before = self.breaker_opens.load(Ordering::Relaxed);
        let breaker_reroutes_before = self.breaker_reroutes.load(Ordering::Relaxed);
        let degraded_before = self.degraded_cache_hits.load(Ordering::Relaxed);

        let mut per_pool_responses: Vec<Vec<QueryResponse>> = Vec::with_capacity(n_pools);
        let mut driver_result: Option<R> = None;
        std::thread::scope(|scope| {
            let state = &state;
            let handles: Vec<_> = (0..n_pools)
                .map(|p| {
                    // The pool's OR-parallel helpers, spawned at the first
                    // request that calls them in and parked between
                    // requests (the pool's own thread is worker 0; one
                    // worker has none).
                    let crew = Crew::start(scope, self.engine.n_workers - 1);
                    scope.spawn(move || {
                        let queue = &state.queues[p];
                        let progress = &state.progress;
                        let mut out = Vec::new();
                        // The worker's own batch: everything the queue
                        // held at its last drain, run in order.
                        let mut batch = VecDeque::new();
                        loop {
                            {
                                let mut jobs = lock_unpoisoned(&queue.jobs);
                                loop {
                                    if !jobs.queue.is_empty() {
                                        std::mem::swap(&mut batch, &mut jobs.queue);
                                        break;
                                    }
                                    if !state.accepting.load(Ordering::Acquire) {
                                        break;
                                    }
                                    jobs.parked = true;
                                    jobs = queue
                                        .available
                                        .wait(jobs)
                                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                                    jobs.parked = false;
                                }
                            }
                            if batch.is_empty() {
                                break;
                            }
                            while let Some(job) = batch.pop_front() {
                                queue.depth.fetch_sub(1, Ordering::Relaxed);
                                out.push(self.execute(p, job, &crew));
                                self.cache.release();
                                let finished = progress.finished.fetch_add(1, Ordering::AcqRel) + 1;
                                if finished == progress.queued.load(Ordering::Acquire) {
                                    let _idle = lock_unpoisoned(&progress.lock);
                                    progress.idle.notify_all();
                                }
                            }
                        }
                        out
                    })
                })
                .collect();

            // Closes admission when dropped: workers drain what is queued
            // and exit. Taking each queue's lock before notifying closes
            // the race with a worker that just observed `accepting ==
            // true` and is about to wait. A drop guard (not a plain
            // statement) so a panicking driver still releases the
            // workers and the scope can propagate its panic instead of
            // deadlocking on join.
            struct CloseGuard<'a>(&'a OpenState);
            impl Drop for CloseGuard<'_> {
                fn drop(&mut self) {
                    self.0.accepting.store(false, Ordering::Release);
                    for queue in &self.0.queues {
                        let _jobs = lock_unpoisoned(&queue.jobs);
                        queue.available.notify_all();
                    }
                }
            }
            let close = CloseGuard(state);

            let submitter = Submitter {
                server: self,
                state,
                t0,
            };
            driver_result = Some(driver(&submitter));

            drop(close);
            for h in handles {
                per_pool_responses.push(h.join().expect("pool thread panicked"));
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();

        // --- Report assembly.
        let queue_peaks: Vec<usize> = state
            .queues
            .iter()
            .map(|q| q.peak.load(Ordering::Relaxed))
            .collect();
        let mut per_pool = Vec::with_capacity(n_pools);
        for (p, responses) in per_pool_responses.iter().enumerate() {
            let latencies: Vec<f64> = responses
                .iter()
                .map(|r| r.service.as_secs_f64() * 1e3)
                .collect();
            let pool_hist = hist_ms(&latencies);
            let after = self.store.pool_stats(p);
            let before = pools_before[p];
            per_pool.push(PoolReport {
                pool: p,
                served: responses.len(),
                queue_peak: queue_peaks[p],
                nodes_expanded: responses.iter().map(|r| r.stats.nodes_expanded).sum(),
                p50_ms: pool_hist.quantile_ms(0.5),
                p99_ms: pool_hist.quantile_ms(0.99),
                touches: blog_spd::PoolTouchStats {
                    accesses: after.accesses - before.accesses,
                    hits: after.hits - before.hits,
                    misses: after.misses - before.misses,
                    fault_ticks: after.fault_ticks - before.fault_ticks,
                },
            });
        }
        let mut responses: Vec<QueryResponse> = per_pool_responses.into_iter().flatten().collect();
        responses.extend(
            state
                .overloaded
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        responses.sort_by_key(|r| r.request);
        let mut update_responses = state
            .updates
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        update_responses.sort_by_key(|r| r.request);
        let total = responses.len();
        // One pass counts the outcomes and collects the latency samples
        // and the warm/cold store traffic. Latency percentiles cover
        // requests that reached a pool: governor-refused submissions
        // never ran and would only dilute the signal with zeros. The
        // warmth split covers requests that read the store to an answer.
        let [mut completed, mut cancelled, mut rejected, mut overloaded, mut failed] = [0; 5];
        let (mut service_ms, mut wait_ms) = (Vec::with_capacity(total), Vec::with_capacity(total));
        let (mut warm, mut cold) = (WarmthSplit::default(), WarmthSplit::default());
        for r in &responses {
            match r.outcome {
                Outcome::Overloaded { .. } => {
                    overloaded += 1;
                    continue;
                }
                Outcome::Rejected { .. } => rejected += 1,
                Outcome::Failed { .. } => failed += 1,
                Outcome::Completed { .. } => completed += 1,
                Outcome::Cancelled { .. } => cancelled += 1,
            }
            if matches!(
                r.outcome,
                Outcome::Completed { .. } | Outcome::Cancelled { .. }
            ) {
                let split = if r.warm { &mut warm } else { &mut cold };
                split.add(r);
            }
            service_ms.push(r.service.as_secs_f64() * 1e3);
            wait_ms.push(r.queue_wait.as_secs_f64() * 1e3);
        }
        let service_hist = hist_ms(&service_ms);
        let wait_hist = hist_ms(&wait_ms);
        let mvcc_after = self.store.mvcc_stats();
        let store = stats_delta(store_before, self.store.stats());
        let cache = CacheStats::delta(cache_before, self.cache.stats());
        let stats = ServeStats {
            wall_s,
            requests: total,
            completed,
            cancelled,
            rejected,
            overloaded,
            failed,
            retries: self.retries.load(Ordering::Relaxed) - retries_before,
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed) - breaker_opens_before,
            breaker_reroutes: self.breaker_reroutes.load(Ordering::Relaxed)
                - breaker_reroutes_before,
            degraded_cache_hits: self.degraded_cache_hits.load(Ordering::Relaxed) - degraded_before,
            throughput_rps: if wall_s > 0.0 {
                (total - overloaded) as f64 / wall_s
            } else {
                0.0
            },
            p50_ms: service_hist.quantile_ms(0.5),
            p99_ms: service_hist.quantile_ms(0.99),
            wait_p50_ms: wait_hist.quantile_ms(0.5),
            wait_p99_ms: wait_hist.quantile_ms(0.99),
            overflow_admissions: state.overflow.load(Ordering::Relaxed),
            commits: mvcc_after.commits - mvcc_before.commits,
            final_epoch: mvcc_after.committed_epoch,
            per_pool,
            store,
            cache,
            warm,
            cold,
        };
        let report = ServeReport {
            responses,
            updates: update_responses,
            stats,
        };
        (report, driver_result.expect("driver ran"))
    }

    /// Execute one job on pool `p`, lending it the pool's `crew`.
    fn execute<'a>(&'a self, p: usize, mut job: Job, crew: &Crew<'a>) -> QueryResponse {
        let started = Instant::now();
        let queue_wait = started - job.enqueued;
        let session = job.request.session;
        if let Some(h) = &job.trace {
            // Backdated to handle creation (= admission), ended now:
            // the whole time this job sat in the pool queue.
            h.span_at(SpanId::ROOT, "queue_wait", h.start_ns()).finish();
        }
        let mut baseline = None;

        // A request whose deadline expired while queued is answered
        // without touching an engine (load shedding).
        let shed = job.cancel.is_cancelled();
        let (outcome, stats, epoch, served_from) = if shed {
            if let Some(h) = &job.trace {
                h.event(SpanId::ROOT, "shed", "deadline expired in queue");
            }
            (
                Outcome::Cancelled {
                    partial: Vec::new(),
                },
                SearchStats::default(),
                self.store.committed_epoch(),
                ServedFrom::Engine,
            )
        } else {
            self.execute_attempts(p, &job, started, crew, &mut baseline)
        };
        // Warm = the session's tracks were already resident on this
        // pool, or the answer itself was served from the cache — both
        // are §5's "later searches become more efficient". Only a request
        // that neither hit nor ran an engine reads the ledger here.
        let warm = served_from == ServedFrom::Cache
            || baseline
                .as_ref()
                .map_or_else(|| self.is_home(session.0, p), |b| b.warm);
        // The pool has now seen this session — but only if an engine ran
        // to an answer: a parse rejection, an expired-in-queue shed, a
        // failure, or an answer-cache hit touched none of the session's
        // tracks, so marking it warm would dilute the warm-vs-cold split
        // the serving report exists to measure.
        if !matches!(outcome, Outcome::Rejected { .. } | Outcome::Failed { .. })
            && !shed
            && served_from == ServedFrom::Engine
        {
            lock_unpoisoned(&self.sessions).insert(session.0, p);
        }
        let (store_accesses, store_hits) = baseline.map_or((0, 0), |b| {
            let after = self.store.pool_stats(p);
            (
                after.accesses - b.touches.accesses,
                after.hits - b.touches.hits,
            )
        });
        if let Some(h) = job.trace.take() {
            let label = match &outcome {
                Outcome::Completed { .. } => "completed",
                Outcome::Cancelled { .. } => "cancelled",
                Outcome::Rejected { .. } => "rejected",
                Outcome::Failed { .. } => "failed",
                Outcome::Overloaded { .. } => "overloaded",
            };
            h.event(
                SpanId::ROOT,
                "outcome",
                format!("{label} from {served_from:?} epoch {epoch}"),
            );
            self.tracer.finish(h);
        }
        QueryResponse {
            request: job.idx,
            session,
            tenant: job.request.tenant,
            pool: p,
            epoch,
            outcome,
            stats,
            queue_wait,
            service: started.elapsed(),
            warm,
            served_from,
            store_accesses,
            store_hits,
        }
    }

    /// Whether pool `p` last completed an engine run for `session`.
    fn is_home(&self, session: u64, p: usize) -> bool {
        lock_unpoisoned(&self.sessions)
            .get(&session)
            .is_some_and(|&home| home == p)
    }

    /// Answer one request on pool `p`. The breaker's gate is read once
    /// at `now`; then each attempt pins a fresh epoch snapshot, parses
    /// against it, probes the answer cache and, on a miss, runs the engine
    /// behind a panic shield, until an attempt answers, fails for good or
    /// spends the retry budget. While the breaker is open the engine — and
    /// the sick storage path behind it — is never touched: a cache hit
    /// still answers (a degraded cache hit), a miss fails fast with the
    /// remaining cooldown as the client's retry hint.
    ///
    /// `baseline` is read just before the first engine run, if any (see
    /// [`EngineBaseline`]).
    ///
    /// The soundness rule of the whole path: a response is either the
    /// pinned epoch's **exact** sequential solution set (engine ran
    /// fault-free; cache fills only happen here), an honestly-labelled
    /// `Cancelled` partial, or a `Failed` — partial solutions from a
    /// faulted or panicked attempt are discarded, never served as if
    /// they were the answer.
    fn execute_attempts<'a>(
        &'a self,
        p: usize,
        job: &Job,
        now: Instant,
        crew: &Crew<'a>,
        baseline: &mut Option<EngineBaseline>,
    ) -> (Outcome, SearchStats, u64, ServedFrom) {
        let h = job.trace.as_ref();
        let gate = lock_unpoisoned(&self.breakers[p]).gate(now);
        let degraded = match gate {
            Gate::Run => None,
            Gate::Probe => {
                if let Some(h) = h {
                    h.event(
                        SpanId::ROOT,
                        "breaker_half_open",
                        format!("pool {p}: cooldown elapsed, this request probes"),
                    );
                }
                None
            }
            Gate::Degraded { remaining } => {
                if let Some(h) = h {
                    h.event(
                        SpanId::ROOT,
                        "degraded",
                        format!("pool {p} breaker open for {remaining:?}; cache-only"),
                    );
                }
                Some(remaining)
            }
        };
        let mut attempt: u32 = 0;
        loop {
            // One span per attempt; everything the attempt does (parse,
            // cache lookup, engine, store events) nests under it.
            let attempt_span = h.map(|h| h.span(SpanId::ROOT, format!("attempt{attempt}")));
            let attempt_id = attempt_span.as_ref().map_or(SpanId::ROOT, |g| g.id());
            // Pin the epoch *before* parsing: the query is admitted at
            // this snapshot, parsed against its symbol table (so text
            // mentioning vocabulary from a later epoch rejects, exactly
            // as it would have sequentially), and executed against its
            // pages whatever commits land meanwhile. A retry pins a
            // *fresh* snapshot — commits may have landed during the
            // backoff, and the response's epoch tag must match the pages
            // the successful attempt actually read. Pinning, parsing and
            // the cache probe read no pages, so a degraded request does
            // them too.
            let mut snap = self
                .store
                .begin_read()
                .for_pool(p)
                .with_stall(self.config.stall_ns_per_tick)
                .with_trace(h.map(|h| SpanCtx::new(h.clone(), attempt_id)));
            let epoch = snap.epoch();
            let parse_span = h.map(|h| h.span(attempt_id, "parse"));
            let query = match parse_query_symbols(snap.symbols(), &job.request.text) {
                Err(e) => {
                    return (
                        Outcome::Rejected {
                            error: e.to_string(),
                        },
                        SearchStats::default(),
                        epoch,
                        ServedFrom::Engine,
                    )
                }
                Ok(query) => query,
            };
            drop(parse_span);
            let mut solve = self.config.solve.clone();
            if job.request.max_nodes.is_some() {
                solve.max_nodes = job.request.max_nodes;
            }
            if job.request.max_solutions.is_some() {
                solve.max_solutions = job.request.max_solutions;
            }
            // The cache key is the canonical (alpha-invariant) query
            // text plus every limit that shapes the solution set.
            let key = self.cache.enabled().then(|| CacheKey {
                canon: canonical_query(snap.symbols(), &query),
                max_nodes: solve.max_nodes,
                max_solutions: solve.max_solutions,
                max_depth: solve.max_depth,
            });
            let hit = key.as_ref().and_then(|k| self.cache.lookup(k, epoch));
            if let Some(h) = h {
                if key.is_some() {
                    h.event(
                        attempt_id,
                        "cache_lookup",
                        if hit.is_some() { "hit" } else { "miss" },
                    );
                }
            }
            if let Some(solutions) = hit {
                // Answer-cache hit: the engine is bypassed entirely; the
                // cached set is provably the sequential solution set of
                // this epoch, shared with the response rather than
                // copied. The breaker is left alone — a hit probes
                // nothing about the pool's storage path.
                if degraded.is_some() {
                    self.degraded_cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                return (
                    Outcome::Completed { solutions },
                    SearchStats::default(),
                    epoch,
                    ServedFrom::Cache,
                );
            }
            if let Some(remaining) = degraded {
                return (
                    Outcome::Failed {
                        error: format!(
                            "pool {p} circuit breaker open; no cached answer covers epoch {epoch}"
                        ),
                        advice: RetryAdvice::after(remaining),
                    },
                    SearchStats::default(),
                    epoch,
                    ServedFrom::Engine,
                );
            }
            if key.is_some() {
                snap = snap.recording_deps();
            }
            // Shared with the crew's helpers for the engine run.
            let snap = Arc::new(snap);
            let budget = solve.max_nodes;
            let cap = solve.max_solutions;
            // The engine span also parents what runs *inside* the
            // engine: per-worker spans and frontier events from the
            // OR-parallel executor arrive through `solve.trace`.
            let engine_span = h.map(|h| h.span(attempt_id, "engine"));
            let engine_id = engine_span.as_ref().map_or(attempt_id, |g| g.id());
            solve.trace = h.map(|h| SpanCtx::new(h.clone(), engine_id));
            baseline.get_or_insert_with(|| EngineBaseline {
                warm: self.is_home(job.request.session.0, p),
                touches: self.store.pool_stats(p),
            });
            // The engine runs behind a panic shield: an injected storage
            // panic (FaultKind::Panic) or any engine bug fails this
            // *attempt* instead of unwinding through the pool worker —
            // which would strand the queue's condvar waiters and take
            // every later request on the pool down with it. A panic on a
            // crew helper is caught there and re-raised here.
            let run = catch_unwind(AssertUnwindSafe(|| {
                let cfg = ParallelConfig {
                    solve,
                    cancel: Some(job.cancel.clone()),
                    ..self.engine.clone()
                };
                let r = par_best_first_on(
                    crew,
                    Arc::clone(&snap),
                    Arc::new(query),
                    &self.weights,
                    &cfg,
                );
                let texts: Vec<String> = r
                    .solutions
                    .iter()
                    .map(|s| s.solution.to_text_syms(snap.symbols()))
                    .collect();
                (texts, r.stats, r.store_error)
            }));
            drop(engine_span);
            // A clean run answers. A panic or a storage fault fails the
            // attempt, and whatever it had enumerated is discarded (see
            // the method docs): a transient one retries while the budget
            // lasts, anything else fails the request.
            let (error, stats, transient, advice) = match run {
                Ok((mut texts, stats, None)) => {
                    self.record_verdict(p, true, h);
                    texts.sort();
                    // Classify from what actually stopped the engine,
                    // not from the token alone: a deadline passing *after*
                    // the search ran to its natural end (or to its node
                    // budget) must not relabel a finished answer.
                    let budget_exhausted = budget.is_some_and(|b| stats.nodes_expanded >= b);
                    let cancelled =
                        stats.truncated && !budget_exhausted && job.cancel.is_cancelled();
                    if cancelled {
                        return (
                            Outcome::Cancelled { partial: texts },
                            stats,
                            epoch,
                            ServedFrom::Engine,
                        );
                    }
                    // Memoize only **complete** enumerations: truncated,
                    // depth-cut, or solution-capped results depend on
                    // expansion order (the OR-parallel engine's is
                    // nondeterministic) and must never be served to a
                    // later request. Fault-free by construction here, so
                    // an injected fault can never pollute the cache.
                    let complete = !stats.truncated
                        && !stats.depth_cutoff
                        && cap.is_none_or(|c| texts.len() < c);
                    let solutions = Arc::new(texts);
                    if complete {
                        if let Some(k) = key {
                            if let Some(h) = h {
                                h.event(
                                    attempt_id,
                                    "cache_fill",
                                    format!("{} solutions", solutions.len()),
                                );
                            }
                            let deps = snap.recorded_deps();
                            self.cache.fill(k, epoch, deps, Arc::clone(&solutions));
                        }
                    }
                    return (
                        Outcome::Completed { solutions },
                        stats,
                        epoch,
                        ServedFrom::Engine,
                    );
                }
                // Injected panics are positional in the fault schedule,
                // so a retry draws fresh luck exactly like a transient
                // read fault; the attempt's snapshot is gone and every
                // lock it could have poisoned recovers (see
                // `lock_unpoisoned`).
                Err(payload) => (
                    format!("engine panicked: {}", panic_text(&payload)),
                    SearchStats::default(),
                    true,
                    RetryAdvice::after(self.config.breaker.cooldown),
                ),
                Ok((_, stats, Some(e))) => {
                    let advice = if e.is_transient() {
                        RetryAdvice::after(self.config.retry.backoff(job.idx, attempt + 1))
                    } else {
                        RetryAdvice::give_up()
                    };
                    (e.to_string(), stats, e.is_transient(), advice)
                }
            };
            if transient && attempt < self.config.retry.max_retries && !job.cancel.is_cancelled() {
                attempt += 1;
                self.retries.fetch_add(1, Ordering::Relaxed);
                if let Some(h) = h {
                    h.event(attempt_id, "retry", error);
                }
                drop(attempt_span);
                let _backoff = h.map(|h| h.span(SpanId::ROOT, "backoff"));
                std::thread::sleep(self.config.retry.backoff(job.idx, attempt));
                continue;
            }
            self.record_verdict(p, false, h);
            return (
                Outcome::Failed { error, advice },
                stats,
                epoch,
                ServedFrom::Engine,
            );
        }
    }
}

/// Best-effort text of a caught panic payload (panics raise `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Field-wise `after - before` of the store counters.
fn stats_delta(before: PagedStoreStats, after: PagedStoreStats) -> PagedStoreStats {
    PagedStoreStats {
        accesses: after.accesses - before.accesses,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        fault_ticks: after.fault_ticks - before.fault_ticks,
        lock_acquisitions: after.lock_acquisitions - before.lock_acquisitions,
        lock_contended: after.lock_contended.saturating_sub(before.lock_contended),
        index_hits: after.index_hits - before.index_hits,
        index_prunes: after.index_prunes - before.index_prunes,
        candidates_scanned: after.candidates_scanned - before.candidates_scanned,
        transient_faults: after.transient_faults - before.transient_faults,
        permanent_faults: after.permanent_faults - before.permanent_faults,
        latency_spikes: after.latency_spikes - before.latency_spikes,
        latency_spike_ticks: after.latency_spike_ticks - before.latency_spike_ticks,
    }
}
