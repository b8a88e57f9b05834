//! Requests and responses — the server's wire-shaped surface.

use std::sync::Arc;
use std::time::Duration;

use blog_logic::{ClauseId, SearchStats};

/// Identity of one user session: the unit of cache-warmth affinity.
///
/// Requests sharing a `SessionId` are assumed to be the paper's "second
/// and third query that is similar to the first"; the scheduler routes
/// them to the same pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SessionId(pub u64);

/// One query submitted to the server.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The issuing session (drives affinity routing and warmth stats).
    pub session: SessionId,
    /// The issuing tenant, for reporting only — tenants are a property
    /// of the *workload* (disjoint working sets); the scheduler sees
    /// sessions.
    pub tenant: u32,
    /// Query text, parsed read-only against the shared database (so a
    /// malformed query rejects without touching any engine).
    pub text: String,
    /// Wall-clock budget measured from admission; past it the request's
    /// cancel token is tripped and the search stops where it stands.
    pub deadline: Option<Duration>,
    /// Node-expansion budget for this request (overrides the server's
    /// default when set).
    pub max_nodes: Option<u64>,
    /// Stop after this many solutions (overrides the server's default
    /// when set).
    pub max_solutions: Option<usize>,
}

impl QueryRequest {
    /// A request with no per-request limits.
    pub fn new(session: u64, text: impl Into<String>) -> QueryRequest {
        QueryRequest {
            session: SessionId(session),
            tenant: 0,
            text: text.into(),
            deadline: None,
            max_nodes: None,
            max_solutions: None,
        }
    }

    /// Tag the issuing tenant.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Set a wall-clock deadline (measured from admission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set a node-expansion budget.
    pub fn with_max_nodes(mut self, budget: u64) -> Self {
        self.max_nodes = Some(budget);
        self
    }

    /// Cap the number of solutions.
    pub fn with_max_solutions(mut self, cap: usize) -> Self {
        self.max_solutions = Some(cap);
        self
    }
}

/// Machine-readable client backoff hint, carried by the outcomes a
/// client may want to resubmit after ([`Outcome::Overloaded`],
/// [`Outcome::Failed`]) — so open-loop drivers can implement
/// client-side backoff without parsing error strings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryAdvice {
    /// Whether resubmitting can possibly succeed. `false` means the
    /// failure is permanent (damaged storage, an unparseable state) and
    /// the client should surface the error instead of retrying.
    pub retryable: bool,
    /// How long to wait before resubmitting (zero when `retryable` is
    /// `false`, or when the server has no reason to ask for a delay).
    pub retry_after: Duration,
}

impl RetryAdvice {
    /// "Resubmit after `delay`."
    pub fn after(delay: Duration) -> RetryAdvice {
        RetryAdvice {
            retryable: true,
            retry_after: delay,
        }
    }

    /// "Do not resubmit — this will keep failing."
    pub fn give_up() -> RetryAdvice {
        RetryAdvice {
            retryable: false,
            retry_after: Duration::ZERO,
        }
    }
}

/// How a request ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The search ran to its natural end (or its *node budget* — see
    /// [`SearchStats::truncated`] for that distinction). Solutions are
    /// rendered binding texts, sorted, so two runs compare by `==`.
    Completed {
        /// Sorted rendered solutions. A cache hit shares the answer
        /// cache's copy, and a miss that fills the cache answers with the
        /// copy it filled.
        solutions: Arc<Vec<String>>,
    },
    /// The request's deadline passed mid-search (or before it started):
    /// its cancel token, which carries the deadline, stopped the engine. Whatever solutions the engine had already
    /// found are kept — a timed-out user still sees partial answers.
    Cancelled {
        /// Sorted rendered solutions found before cancellation.
        partial: Vec<String>,
    },
    /// The query text did not parse against the shared database (syntax
    /// error or a symbol the program never defined).
    Rejected {
        /// Parse error text.
        error: String,
    },
    /// The memory governor refused the submission: the store-wide byte
    /// budget could not fit the request's reservation even after
    /// evicting the answer cache. The request never reached a pool —
    /// back off per `advice` and resubmit.
    Overloaded {
        /// When to resubmit.
        advice: RetryAdvice,
    },
    /// The request ran but could not produce a trustworthy answer: the
    /// store faulted past the retry budget, the storage is permanently
    /// damaged, the executing engine panicked, or the pool's circuit
    /// breaker was open with no valid cache entry to serve. **No partial
    /// solutions are returned** — a failed request never reports a
    /// half-enumerated set as if it were the answer.
    Failed {
        /// Human-readable failure description.
        error: String,
        /// Whether (and when) resubmitting could succeed.
        advice: RetryAdvice,
    },
}

impl Outcome {
    /// Whether this is a [`Completed`](Outcome::Completed) outcome.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }

    /// The rendered solutions, however the request ended (empty for
    /// rejections, governor refusals and failures).
    pub fn solutions(&self) -> &[String] {
        match self {
            Outcome::Completed { solutions } => solutions,
            Outcome::Cancelled { partial } => partial,
            Outcome::Rejected { .. } | Outcome::Overloaded { .. } | Outcome::Failed { .. } => &[],
        }
    }

    /// The backoff hint, for the outcomes that carry one.
    pub fn retry_advice(&self) -> Option<RetryAdvice> {
        match self {
            Outcome::Overloaded { advice } | Outcome::Failed { advice, .. } => Some(*advice),
            _ => None,
        }
    }
}

/// Where a completed answer came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedFrom {
    /// A search engine ran against an epoch-pinned snapshot.
    Engine,
    /// The answer cache: a prior complete enumeration of the same
    /// canonical query, still valid at this request's epoch, was
    /// returned without touching any engine.
    Cache,
}

impl ServedFrom {
    /// Machine-readable label for sweep tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServedFrom::Engine => "engine",
            ServedFrom::Cache => "cache",
        }
    }
}

/// One served request, with its scheduling and execution telemetry.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Index of the request in the submitted batch (responses are
    /// returned in batch order whatever order pools finished in).
    pub request: usize,
    /// Echo of the request's session.
    pub session: SessionId,
    /// Echo of the request's tenant.
    pub tenant: u32,
    /// The pool that executed the request.
    pub pool: usize,
    /// The store epoch the request executed at: its solutions are
    /// exactly the sequential solution set of the epoch-`epoch` snapshot,
    /// whatever updates committed while the search ran.
    pub epoch: u64,
    /// How the request ended.
    pub outcome: Outcome,
    /// Engine work counters for this request.
    pub stats: SearchStats,
    /// Time between admission and a pool picking the request up.
    pub queue_wait: Duration,
    /// Time the pool spent executing (parse + search + render).
    pub service: Duration,
    /// Whether this request rode prior work: the session had already
    /// completed a request *on this pool* (track warmth produced by
    /// affinity routing), or the answer came straight from the answer
    /// cache ([`served_from`](Self::served_from) says which).
    pub warm: bool,
    /// Whether the answer came from an engine run or the answer cache.
    pub served_from: ServedFrom,
    /// Clause touches this request routed through the shared store.
    pub store_accesses: u64,
    /// How many of those touches hit a resident track.
    pub store_hits: u64,
}

impl QueryResponse {
    /// This request's store hit rate in `[0, 1]`.
    pub fn store_hit_rate(&self) -> f64 {
        if self.store_accesses == 0 {
            return 0.0;
        }
        self.store_hits as f64 / self.store_accesses as f64
    }
}

/// One mutation inside an [`UpdateRequest`].
#[derive(Clone, Debug)]
pub enum UpdateOp {
    /// Parse `text` as clause source (facts and rules, no queries) and
    /// assert every clause, interning any vocabulary the program has
    /// never seen — this is the one path by which new constants and
    /// functors enter the store; the query parse path keeps rejecting
    /// unknown symbols against its snapshot's table.
    Assert {
        /// Clause source text, e.g. `"f(larry,zoe)."`.
        text: String,
    },
    /// Retract one clause by id (ids are dense and never reused; asserts
    /// report the ids they allocated).
    Retract {
        /// The clause to retract.
        id: ClauseId,
    },
}

/// A batch of mutations applied as **one atomic transaction**: either
/// every op commits under a single new epoch, or none do.
#[derive(Clone, Debug)]
pub struct UpdateRequest {
    /// The issuing session (reporting only — updates are not routed to
    /// pools; they run on the server's update lane).
    pub session: SessionId,
    /// The mutations, applied in order inside one transaction.
    pub ops: Vec<UpdateOp>,
    /// Earliest time this update may start, measured from batch
    /// admission — lets a mixed batch interleave commits into the middle
    /// of the query stream deterministically (`None` = immediately).
    pub not_before: Option<Duration>,
}

impl UpdateRequest {
    /// An update with the given ops and no start delay.
    pub fn new(session: u64, ops: Vec<UpdateOp>) -> UpdateRequest {
        UpdateRequest {
            session: SessionId(session),
            ops,
            not_before: None,
        }
    }

    /// Convenience: a single-assert update.
    pub fn assert_text(session: u64, text: impl Into<String>) -> UpdateRequest {
        UpdateRequest::new(session, vec![UpdateOp::Assert { text: text.into() }])
    }

    /// Convenience: a single-retract update.
    pub fn retract(session: u64, id: ClauseId) -> UpdateRequest {
        UpdateRequest::new(session, vec![UpdateOp::Retract { id }])
    }

    /// Set the earliest start time (from batch admission).
    pub fn with_not_before(mut self, delay: Duration) -> Self {
        self.not_before = Some(delay);
        self
    }
}

/// How an update ended.
#[derive(Clone, Debug)]
pub enum UpdateOutcome {
    /// The transaction committed.
    Committed {
        /// Clause ids allocated by the update's asserts, in op order.
        asserted: Vec<ClauseId>,
    },
    /// An op failed (parse error, unknown retract target, capacity…);
    /// the whole transaction was aborted and nothing changed.
    Rejected {
        /// The failing op's error text.
        error: String,
    },
}

impl UpdateOutcome {
    /// Whether this is a [`Committed`](UpdateOutcome::Committed) outcome.
    pub fn is_committed(&self) -> bool {
        matches!(self, UpdateOutcome::Committed { .. })
    }
}

/// One applied (or rejected) update.
#[derive(Clone, Debug)]
pub struct UpdateResponse {
    /// Index of the update in the submitted batch.
    pub request: usize,
    /// Echo of the update's session.
    pub session: SessionId,
    /// The epoch this update committed as (for rejections, the epoch
    /// that was committed when the update failed). Queries tagged with
    /// an [`epoch`](QueryResponse::epoch) `>=` this value see the
    /// update's effects; older snapshots never do.
    pub epoch: u64,
    /// How the update ended.
    pub outcome: UpdateOutcome,
}
