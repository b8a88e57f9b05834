//! Session learning on a scaled-up genealogy.
//!
//! Generates a 4-generation family database, then runs a *session* of
//! similar `gf/2` queries (the paper's §5 scenario: "a user tries a
//! second and third query that is similar to the first one with some
//! minor changes") and prints how the per-query search cost falls as the
//! weights adapt. Finally it ends the session with the conservative merge
//! and shows the improved cold-start of the next session.
//!
//! ```text
//! cargo run --example genealogy_session
//! ```

use b_log::core::engine::BestFirstConfig;
use b_log::core::session::{MergePolicy, SessionManager};
use b_log::core::weight::WeightParams;
use b_log::workloads::{family_program, session_queries, FamilyParams, SessionSpec};

fn main() {
    let (mut program, meta) = family_program(&FamilyParams {
        generations: 4,
        branching: 3,
        tree_mother_density: 0.15,
        external_mother_density: 0.4,
        seed: 11,
        ..FamilyParams::default()
    });
    println!(
        "Family database: {} clauses, {} f-facts, {} m-facts, root {}\n",
        program.db.len(),
        meta.f_facts,
        meta.m_facts,
        meta.root()
    );

    let subjects: Vec<String> = meta.grandparents().iter().map(|s| s.to_string()).collect();
    let refs: Vec<&str> = subjects.iter().map(String::as_str).collect();
    let (queries, trace) = session_queries(
        &mut program.db,
        &refs,
        &SessionSpec {
            n_queries: 12,
            drift: 0.25,
            seed: 3,
            ..SessionSpec::default()
        },
    );

    let mut mgr = SessionManager::new(WeightParams::default());
    let cfg = BestFirstConfig::default();

    println!("Session 1 (strong local updates only):");
    println!(
        "{:>5} {:>14} {:>10} {:>10}",
        "query", "subject", "nodes", "solutions"
    );
    let mut session = mgr.begin_session();
    for (i, q) in queries.iter().enumerate() {
        let r = mgr.query(&mut session, &program.db, q, &cfg);
        println!(
            "{:>5} {:>14} {:>10} {:>10}",
            i + 1,
            refs[trace[i]],
            r.stats.nodes_expanded,
            r.solutions.len()
        );
    }
    let overlay = session.local.len();
    let report = mgr.end_session(session, MergePolicy::conservative_half());
    println!(
        "\nConservative merge: {} weights learned locally → {} stepped into \
         the global database, {} infinities applied, {} blocked.\n",
        overlay, report.stepped, report.infinities_set, report.infinities_blocked
    );

    println!("Session 2 (cold start, but from merged global weights):");
    let mut session2 = mgr.begin_session();
    let r = mgr.query(&mut session2, &program.db, &queries[0], &cfg);
    println!(
        "  first query of session 2: {} nodes expanded",
        r.stats.nodes_expanded
    );
    mgr.end_session(session2, MergePolicy::conservative_half());

    let census = mgr.global().census();
    println!(
        "\nGlobal weight database now holds {} known weights and {} infinities.",
        census.known, census.infinite
    );
}
