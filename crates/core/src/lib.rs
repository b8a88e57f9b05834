//! # blog-core — the B-LOG methodology
//!
//! The primary contribution of Lipovski & Hermenegildo (ICPP 1985): a
//! branch-and-bound, **best-first** execution strategy for logic programs,
//! guided by information-theoretic arc weights that are *learned* across
//! queries and *averaged* across sessions.
//!
//! - [`weight`] — fixed-point weights, the `N`-target coding of section 5
//!   (`unknown = N+1`, `infinity = A*N`), and the global weight store.
//! - [`chain`] — chains (root-to-frontier paths) with their monotone bounds.
//! - [`engine`] — the best-first branch-and-bound engine: the one
//!   per-chain step every executor runs, the sequential heap executor,
//!   and pluggable bound policies for ablation.
//! - [`update`] — the section-5 success/failure weight-update rules.
//! - [`session`] — sessions: local strong updates, conservative global merge.
//! - [`theory`] — the section-4 theoretical model: enumerate all chains and
//!   solve the linear system for exact weights, used to validate that the
//!   heuristic converges toward it.
//! - [`ortree`] — explicit OR-tree construction (the paper's figure 3).
//!
//! ## Quick tour
//!
//! ```
//! use blog_logic::parse_program;
//! use blog_core::{session::SessionManager, weight::WeightParams, engine::BestFirstConfig};
//!
//! let p = parse_program("
//!     gf(X,Z) :- f(X,Y), f(Y,Z).
//!     gf(X,Z) :- f(X,Y), m(Y,Z).
//!     f(curt,elain).  f(sam,larry).  f(dan,pat).
//!     f(larry,den).   f(pat,john).   f(larry,doug).
//!     m(elain,john).  m(marian,elain). m(peg,den). m(peg,doug).
//!     ?- gf(sam,G).
//! ").unwrap();
//!
//! let mut mgr = SessionManager::new(WeightParams::default());
//! let mut session = mgr.begin_session();
//! let cfg = BestFirstConfig::default();
//!
//! // First query: weights unknown, search is breadth-first-ish.
//! let r1 = mgr.query(&mut session, &p.db, &p.queries[0], &cfg);
//! assert_eq!(r1.solutions.len(), 2);
//!
//! // Second identical query: learned weights steer straight to solutions.
//! let r2 = mgr.query(&mut session, &p.db, &p.queries[0], &cfg);
//! assert!(r2.stats.nodes_expanded <= r1.stats.nodes_expanded);
//! ```

pub mod chain;
pub mod convergence;
pub mod engine;
pub mod ortree;
pub mod session;
pub mod theory;
pub mod update;
pub mod util;
pub mod weight;

pub use chain::{Chain, ChainLink};
pub use engine::{
    best_first, best_first_deferred, best_first_with, expand_chain, BestFirstConfig, BlogResult,
    BlogStats, BoundPolicy, ChainOutcome, Executor, PruneMode, Search,
};
pub use session::{MergePolicy, MergeReport, Session, SessionManager};
pub use update::{chain_update, failure_update, success_update, InfinityPlacement, UpdateOutcome};
pub use weight::{Bound, Weight, WeightParams, WeightState, WeightStore, WeightView};
