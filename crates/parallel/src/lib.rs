//! # blog-parallel — B-LOG on real threads
//!
//! The `blog-machine` crate *simulates* the paper's MIMD computer; this
//! crate *runs* the same scheduling policy on actual OS threads, which is
//! the closest a 2020s machine gets to the architecture the authors
//! sketched in 1985:
//!
//! - [`frontier`] — the shared weighted frontier: per-worker chain pools
//!   with the communication threshold **D** gating remote acquisition,
//!   the §6 comparator network as a sharded store (per-pool locks +
//!   lock-free `AtomicU64` published minimums + atomic-count
//!   termination).
//! - [`orparallel`] — OR-parallel best-first search: every chain runs
//!   `blog-core`'s one per-chain step (`expand_chain`). One worker is the
//!   sequential heap, inline on the caller's thread; more expand the
//!   globally cheapest chains concurrently, with incumbent-bound pruning
//!   shared through an atomic, batched sprouts, and local dives that keep
//!   a worker on its own cheapest child.
//! - [`andparallel`] — the §7 extensions: variable-sharing independence
//!   analysis, fork-join evaluation of independent goal groups, and the
//!   semi-join strategy for goals that do share variables.
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
pub mod frontier;
pub mod orparallel;

pub use andparallel::{
    and_or_parallel_solve, and_parallel_solve, independent_groups, semijoin_conjunction,
    SemiJoinStats,
};
pub use frontier::{Frontier, FrontierCounters, FrontierPolicy};
pub use orparallel::{par_best_first, par_best_first_with, ParallelConfig, ParallelResult};
