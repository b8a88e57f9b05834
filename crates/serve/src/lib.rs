//! # blog-serve — the query-serving subsystem
//!
//! Everything below this crate accelerates *one* query: the paged clause
//! store, the scan-resistant replacement policies, structure-sharing
//! search state, the worker-owned OR-parallel heaps. The paper's §5
//! scenario — and the reason any of it matters at production scale — is
//! **many users issuing streams of similar queries against one clause
//! base**: "where a user tries a second and third query that is similar
//! to the first one with some minor changes, later searches should
//! become more efficient". This crate is that serving layer.
//!
//! A [`QueryServer`] owns one shared snapshot-isolated
//! [`MvccClauseStore`](blog_spd::MvccClauseStore) and a fixed set of
//! **worker pools** (OS threads). Each [`QueryRequest`] — query text,
//! session id, optional deadline / node budget / solutions cap — is
//! admitted to a pool queue and executed through the existing engines
//! (sequential best-first, or the OR-parallel executor) against a
//! per-request epoch-pinned [`Snapshot`](blog_spd::Snapshot) of the
//! store, pool-tagged so hits and faults stay attributable to the pool
//! (and session mix) that generated them.
//!
//! The store being MVCC is what makes the server *live*: an **update
//! lane** ([`QueryServer::serve_mixed`], [`UpdateRequest`]) asserts and
//! retracts clauses between epochs while queries run. Every
//! [`QueryResponse`] is tagged with the [`epoch`](QueryResponse::epoch)
//! it executed at, and the contract — a query admitted at epoch `E`
//! returns exactly the sequential solution set of the epoch-`E` snapshot
//! — is enforced by the churn test suites against a single-threaded
//! oracle rebuilt per epoch. Commits are snapshot-isolated: queries never
//! wait for one ([`ServeConfig::commit`] has the single value
//! [`CommitMode::Mvcc`] and is inert).
//!
//! The scheduler's one real decision is **session affinity**: requests
//! from the same session hash to the same pool, so one session's similar
//! queries are serviced consecutively and find their clause tracks still
//! resident — the §5 cache-warmth effect, now produced by scheduling
//! rather than luck. Admission-time work stealing (an [`overflow_threshold`](ServeConfig::overflow_threshold))
//! bounds queue skew when one session floods its home pool.
//!
//! Per-request cancellation reuses the engines'
//! [`CancelToken`](blog_logic::CancelToken) plumbing (the OR-parallel
//! frontier folds it into the same abort flag its node budget uses): a
//! request's deadline rides in its token, which counts as cancelled once
//! the deadline passes, and the engine returns with whatever solutions it
//! had. No thread watches the clock; a serve run's threads are its pools
//! (and their crews of OR-parallel helpers, when a request may use more
//! than one worker).
//!
//! **Serving v2** adds three coupled pieces on top of that scheduler:
//!
//! - An **answer cache** ([`AnswerCache`], tabling-lite): complete
//!   solution sets are memoized under the query's canonical
//!   (alpha-invariant) text and an epoch-validity window, and
//!   invalidated *per predicate* — a commit only drops entries whose
//!   recorded dependency footprint intersects the transaction's touched
//!   `(pred, arity)` set ([`CacheMode::Precise`]).
//!   Hits bypass the engines entirely and are tagged
//!   [`ServedFrom::Cache`].
//! - A **streaming front door** ([`QueryServer::serve_open`],
//!   [`Submitter`]): requests are submitted while the pools are already
//!   draining — open-loop arrivals, mid-flight overflow stealing, the
//!   same deadlines — instead of the closed-batch
//!   [`serve`](QueryServer::serve) admission (now a wrapper).
//! - A **memory governor** ([`CacheConfig::budget_bytes`]): one
//!   store-wide byte budget covers cache entries and per-request
//!   admission reservations; cache entries are evicted LRU under
//!   pressure, and submissions that cannot fit are refused with
//!   [`Outcome::Overloaded`] rather than queued. The charged bytes are
//!   one atomic word: an admission that fits and every release are a
//!   compare-and-swap and a subtraction on it, and only an admission
//!   that must evict takes the cache's mutex.
//!
//! **Resilience** hardens the request path against a faulty store. A
//! deterministic [`FaultPlan`] on the store config
//! ([`PagedStoreConfig::with_fault`](blog_spd::PagedStoreConfig::with_fault)) injects
//! transient read errors, permanent track damage, latency spikes and
//! worker panics at the paging layer; per-request retries with
//! exponential backoff ([`RetryPolicy`]) absorb the transient ones, a
//! panic shield turns an unwinding engine into an [`Outcome::Failed`]
//! instead of a stranded pool worker, a per-pool circuit breaker
//! ([`BreakerConfig`]) routes admissions around pools that storage keeps
//! defeating, and while a breaker is open the pool still answers from
//! valid answer-cache entries — degraded cache-only serving. Every
//! failure-ish outcome carries machine-readable [`RetryAdvice`]. The
//! invariant throughout: a response is the pinned epoch's exact
//! sequential solution set, an honest `Cancelled` partial, or a
//! `Failed` — never a silently shortened answer (`prop_fault_equivalence`
//! checks this against the sequential oracle, on sequential and
//! OR-parallel pools).
//!
//! [`ServeStats`] reports the serving picture — per-pool throughput and
//! p50/p99 latency, queue depths, admission overflow, answer-cache
//! hits/fills/invalidations, store hit rate split warm-vs-cold by
//! session — so a serving run can attribute wins to scheduling and
//! caching and losses to store contention (the store's lock meters)
//! rather than guessing.

mod breaker;
mod cache;
mod request;
mod retry;
mod server;
mod stats;
pub mod tuning;

pub use blog_obs::{to_chrome_trace, to_jsonl, FlightRecorder, TraceConfig, TraceRecord, Tracer};
pub use blog_spd::{CommitMode, FaultKind, FaultPlan, FaultScope, FaultSite, IndexPolicy};
pub use breaker::BreakerConfig;
pub use cache::{AnswerCache, CacheConfig, CacheKey, CacheMode, CacheStats};
pub use request::{
    Outcome, QueryRequest, QueryResponse, RetryAdvice, ServedFrom, SessionId, UpdateOp,
    UpdateOutcome, UpdateRequest, UpdateResponse,
};
pub use retry::RetryPolicy;
pub use server::{Admission, ExecMode, QueryServer, ServeConfig, Submitter};
pub use stats::{PoolReport, ServeReport, ServeStats, WarmthSplit};
