//! # blog-logic — the logic-programming substrate for B-LOG
//!
//! This crate implements everything the B-LOG paper (Lipovski &
//! Hermenegildo, ICPP 1985) assumes as given: a Horn-clause database with
//! the weighted-pointer ("inverted file") layout of the paper's figure 4, a
//! unification engine, a small Prolog-ish parser, and the *baseline* search
//! strategies B-LOG is compared against — Prolog's depth-first SLD
//! resolution, breadth-first search, and iterative deepening.
//!
//! The B-LOG contribution itself (weights, bounds, best-first
//! branch-and-bound, sessions) lives in the `blog-core` crate and drives
//! search through the [`try_expand_via`] primitive defined here, so
//! every strategy — baseline or best-first — resolves goals through exactly
//! the same unification code.
//!
//! ## Quick tour
//!
//! ```
//! use blog_logic::{parse_program, solve::{dfs_all, SolveConfig}};
//!
//! let src = "
//!     gf(X,Z) :- f(X,Y), f(Y,Z).
//!     gf(X,Z) :- f(X,Y), m(Y,Z).
//!     f(curt,elain).  f(sam,larry).
//!     f(dan,pat).     f(larry,den).
//!     f(pat,john).    f(larry,doug).
//!     m(elain,john).  m(marian,elain).
//!     m(peg,den).     m(peg,doug).
//!     ?- gf(sam,G).
//! ";
//! let program = parse_program(src).unwrap();
//! let query = &program.queries[0];
//! let result = dfs_all(&program.db, query, &SolveConfig::default());
//! let names: Vec<String> = result
//!     .solutions
//!     .iter()
//!     .map(|s| s.binding_text(&program.db, "G").unwrap())
//!     .collect();
//! assert_eq!(names, vec!["den", "doug"]);
//! ```

pub mod bindings;
pub mod canon;
pub mod clause;
pub mod frames;
pub mod goals;
pub mod node;
pub mod parser;
pub mod pretty;
pub mod solve;
pub mod source;
pub mod store;
pub mod symbol;
pub mod term;
pub mod unify;

pub use bindings::{BindingLookup, BindingWrite, Bindings, Trail};
pub use canon::canonical_query;
pub use clause::{Clause, ClauseId};
pub use frames::{BindingFrame, DeltaBindings, DEFAULT_FLATTEN_THRESHOLD};
pub use goals::GoalStack;
pub use node::{
    expand, try_expand_via, Caller, ExpandBuffers, Expansion, Goal, NodeState, PointerKey,
    SearchNode, StateRepr, MAX_GOALS,
};
pub use parser::{
    parse_clauses_interning, parse_program, parse_query, parse_query_shared, parse_query_symbols,
    ParseError, Program, Query,
};
pub use pretty::{clause_to_source, term_to_string, term_to_string_syms};
pub use solve::{
    bfs_all, dfs_all, iterative_deepening, push_solution, walk_breadth_first, CancelToken,
    SearchStats, Solution, SolveConfig, SolveResult, WalkVisit,
};
pub use source::{ClauseSource, SourceStats, StoreError, StoreErrorKind};
pub use store::{arg_key, ArgKey, ClauseDb};
pub use symbol::{Sym, SymbolTable};
pub use term::{Term, VarId};
pub use unify::{unify, unify_head, GoalKeys};
