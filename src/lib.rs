//! # b-log — branch-and-bound best-first execution of logic programs
//!
//! A full reproduction of *"B-LOG: A Branch and Bound Methodology for the
//! Parallel Execution of Logic Programs"* (G. J. Lipovski and M. V.
//! Hermenegildo, ICPP 1985) as a Rust workspace. This umbrella crate
//! re-exports the member crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`logic`] | `blog-logic` | terms, unification, weighted clause store, parser, DFS/BFS/ID baselines |
//! | [`core`] | `blog-core` | the B-LOG methodology: weights, bounds, best-first engine, sessions, theory |
//! | [`spd`] | `blog-spd` | Semantic Paging Disk simulator |
//! | [`machine`] | `blog-machine` | discrete-event simulation of the parallel B-LOG machine |
//! | [`parallel`] | `blog-parallel` | real-thread OR-parallel and AND-parallel execution |
//! | [`workloads`] | `blog-workloads` | generators: families, DAGs, N-queens, map coloring, sessions |
//! | [`serve`] | `blog-serve` | multi-session query server over one shared paged store |
//! | [`obs`] | `blog-obs` | telemetry: metrics registry, span traces, flight recorder |
//!
//! ## Quickstart
//!
//! ```
//! use b_log::logic::parse_program;
//! use b_log::core::{engine::BestFirstConfig, session::SessionManager, weight::WeightParams};
//!
//! // The paper's figure-1 program.
//! let program = parse_program(b_log::workloads::PAPER_FIGURE_1).unwrap();
//! let mut mgr = SessionManager::new(WeightParams::default());
//! let mut session = mgr.begin_session();
//! let result = mgr.query(
//!     &mut session,
//!     &program.db,
//!     &program.queries[0],
//!     &BestFirstConfig::default(),
//! );
//! assert_eq!(result.solutions.len(), 2); // den and doug
//! ```

pub use blog_core as core;
pub use blog_logic as logic;
pub use blog_machine as machine;
pub use blog_obs as obs;
pub use blog_parallel as parallel;
pub use blog_serve as serve;
pub use blog_spd as spd;
pub use blog_workloads as workloads;
