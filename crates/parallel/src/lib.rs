//! # blog-parallel — B-LOG on real threads
//!
//! The `blog-machine` crate *simulates* the paper's MIMD computer; this
//! crate *runs* the same scheduling policy on actual OS threads, which is
//! the closest a 2020s machine gets to the architecture the authors
//! sketched in 1985:
//!
//! - [`frontier`] — worker-owned chain heaps and the one exchange
//!   between them; the communication threshold **D** decides which
//!   chains a worker hands a dry peer (§6).
//! - [`crew`] — long-lived helper threads a serving pool lends to every
//!   request; the caller's thread is worker 0, and it calls the helpers
//!   in only once the search is big enough to share.
//! - [`orparallel`] — OR-parallel best-first search: every chain runs
//!   `blog-core`'s one per-chain step (`expand_chain`). One worker is the
//!   sequential heap, inline; more each expand their own cheapest chains,
//!   sharing the incumbent and an exact node budget through atomics,
//!   after worker 0's lone start.
//! - [`andparallel`] — the §7 extensions over any `ClauseSource`:
//!   variable-sharing independence analysis, fork-join evaluation of
//!   independent goal groups, and the semi-join strategy for goals that
//!   do share variables. Every factor search of a call runs on the
//!   OR-parallel executor, on one crew started for the call, and one join
//!   (rename apart, unify, resolve) assembles the answers.
//!
//! ## Weight-update semantics under parallelism
//!
//! Learning is one of two sinks of the same search loop. The sequential
//! engine learns during the search (§5 on one processor). Within one
//! parallel query the weight database is frozen (workers read an
//! immutable snapshot); solved and failed chains are logged and the §5
//! updates are applied when the query completes. The paper itself keeps
//! strong updates in a session-local database and only consults weights
//! to *guide* the search, so deferring the writes to the query boundary
//! preserves the methodology while keeping workers lock-free on the hot
//! path. (The simulator in `blog-machine` has no such relaxation — its
//! single-threaded event loop updates mid-search like the paper's
//! machine.)

pub mod andparallel;
pub mod crew;
pub mod frontier;
pub mod orparallel;

pub use andparallel::{
    and_parallel_solve, independent_groups, semijoin_conjunction, SemiJoinStats,
};
pub use crew::Crew;
pub use frontier::{FrontierCounters, FrontierPolicy};
pub use orparallel::{
    par_best_first_on, par_best_first_with, ParallelConfig, ParallelResult, LONE_EXPANSIONS,
};
