//! # blog-workloads — workload generators for the B-LOG experiments
//!
//! The 1985 paper sketches its evaluation on the kinds of programs its
//! introduction motivates — database-flavoured deduction (the family
//! example of figure 1), graph search, and classic non-deterministic
//! constraint puzzles. This crate generates parameterized, deterministic
//! (seeded) instances of each, as ordinary Horn-clause programs:
//!
//! - [`family`] — scaled-up versions of the paper's figure-1 genealogy,
//!   with controllable failure branches (the `m`-rule dead end).
//! - [`graph`] — DAG reachability (`path/2` over `edge/2`).
//! - [`queens`] — N-queens as a pure Horn program (domain facts plus
//!   pre-tabled no-attack facts; no arithmetic builtins needed).
//! - [`mapcolor`] — grid map coloring with `ne/2` disequality facts.
//! - [`sessions`] — query *sequences* with controllable similarity drift,
//!   the workload shape the paper's session concept (§5) targets.
//! - [`churn`] — seeded assert/retract streams over the tenant mix, the
//!   update half of the live-knowledge (MVCC) serving workload.
//!
//! Everything is emitted as program text and run through the real parser,
//! so generated workloads exercise exactly the same pipeline as
//! hand-written programs.

pub mod churn;
pub mod family;
pub mod graph;
pub mod mapcolor;
pub mod queens;
pub mod sessions;

pub use churn::{churn_updates, ChurnOp, ChurnSpec, ChurnUpdate};
pub use family::{family_program, family_source, FamilyMeta, FamilyParams};
pub use graph::{dag_reach_program, DagParams};
pub use mapcolor::{mapcolor_program, MapColorParams};
pub use queens::{queens_program, QueensParams};
pub use sessions::{
    session_queries, tenant_mix_program, tenant_mix_requests, SessionSpec, TenantMix, TenantRequest,
};

/// The verbatim figure-1 program from the paper, used by tests, examples
/// and the F1/F3/W1 experiments.
pub const PAPER_FIGURE_1: &str = "
    gf(X,Z) :- f(X,Y), f(Y,Z).
    gf(X,Z) :- f(X,Y), m(Y,Z).
    f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
    f(pat,john). f(larry,doug).
    m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
    ?- gf(sam,G).
";

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::{dfs_all, parse_program, SolveConfig};

    #[test]
    fn paper_figure_1_parses_and_solves() {
        let p = parse_program(PAPER_FIGURE_1).unwrap();
        let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        assert_eq!(r.solutions.len(), 2);
    }
}
