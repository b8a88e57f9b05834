//! Quickstart: the paper's own worked example, end to end.
//!
//! Runs the figure-1 family program through (a) the Prolog-style
//! depth-first baseline, (b) the B-LOG best-first engine with weight
//! learning, and (c) the section-4 theoretical weight solver, printing
//! the figure-3 OR-tree along the way.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use b_log::core::engine::BestFirstConfig;
use b_log::core::ortree::build_ortree;
use b_log::core::session::SessionManager;
use b_log::core::theory::{enumerate_chains, solve_weights, target_bits_for, ArcIdentity};
use b_log::core::weight::WeightParams;
use b_log::logic::{dfs_all, parse_program, SolveConfig};
use b_log::workloads::PAPER_FIGURE_1;

fn main() {
    let program = parse_program(PAPER_FIGURE_1).expect("figure-1 program parses");
    let query = &program.queries[0];
    println!("== B-LOG quickstart: the paper's figure-1 example ==\n");
    println!(
        "Database: {} clauses. Query: gf(sam, G).\n",
        program.db.len()
    );

    // --- Prolog baseline (depth-first, figure 1's trace) ---------------
    let dfs = dfs_all(&program.db, query, &SolveConfig::all());
    println!("Prolog-style depth-first search:");
    for s in &dfs.solutions {
        println!("  {}", s.to_text(&program.db));
    }
    println!(
        "  nodes expanded: {}, unifications: {}\n",
        dfs.stats.nodes_expanded, dfs.stats.unify_attempts
    );

    // --- The figure-3 OR-tree ------------------------------------------
    let tree = build_ortree(&program.db, query, &SolveConfig::all());
    let shape = tree.shape();
    println!(
        "OR-tree (figure 3): {} nodes, {} solutions, {} failure, depth {}",
        shape.nodes, shape.solutions, shape.failures, shape.depth
    );
    println!("Graphviz dot of the tree:\n{}", tree.to_dot());

    // --- B-LOG best-first with learning --------------------------------
    let mgr = SessionManager::new(WeightParams::default());
    let mut session = mgr.begin_session();
    let cfg = BestFirstConfig::default();
    let first = mgr.query(&mut session, &program.db, query, &cfg);
    let second = mgr.query(&mut session, &program.db, query, &cfg);
    println!("B-LOG best-first, same query twice within a session:");
    println!(
        "  1st run: {} nodes expanded ({} solutions)",
        first.stats.nodes_expanded,
        first.solutions.len()
    );
    println!(
        "  2nd run: {} nodes expanded — learned weights steer the search",
        second.stats.nodes_expanded
    );
    for s in &second.solutions {
        println!(
            "  solution {} at bound {} (target N = {})",
            s.solution.to_text(&program.db),
            s.bound,
            mgr.params().target.0
        );
    }

    // --- Section-4 theoretical weights ----------------------------------
    let chains = enumerate_chains(
        &program.db,
        query,
        &SolveConfig::all(),
        ArcIdentity::SharedGoal,
    );
    let n_bits = target_bits_for(chains.n_solutions);
    let weights = solve_weights(&chains, n_bits, 200);
    println!("\nSection-4 theoretical model:");
    println!(
        "  {} success chains, {} failure chains, target N = {} bits",
        chains.n_solutions, chains.n_failures, n_bits
    );
    println!(
        "  solved weights: residual {:.2e}, {} arcs infinite, pathological: {}",
        weights.max_residual,
        weights.infinite.len(),
        weights.pathological
    );
    for chain in chains.chains.iter().filter(|c| c.success) {
        println!(
            "  success chain probability: {:.3} (paper: 1/2 each)",
            weights.chain_probability(chain)
        );
    }
}
