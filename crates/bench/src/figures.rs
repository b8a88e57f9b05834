//! F1, F3, F4, W1 — the paper's worked examples, reproduced exactly.

use blog_core::engine::{best_first, BestFirstConfig};
use blog_core::ortree::{build_ortree, TreeShape};
use blog_core::theory::{
    enumerate_chains, solve_weights, target_bits_for, ArcIdentity, TheoreticalWeights,
};
use blog_core::weight::{Weight, WeightParams, WeightState, WeightStore, WeightView};
use blog_logic::{dfs_all, parse_program, Caller, ClauseId, PointerKey, SolveConfig};
use blog_workloads::PAPER_FIGURE_1;

use crate::report::Table;

/// F1: run figure 1's query under depth-first search; return the answers
/// in Prolog discovery order.
pub fn run_f1() -> Vec<String> {
    let p = parse_program(PAPER_FIGURE_1).expect("figure-1 parses");
    let r = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
    let names: Vec<String> = r
        .solutions
        .iter()
        .map(|s| s.binding_text(&p.db, "G").expect("G bound"))
        .collect();
    println!("F1 — figure 1, ?- gf(sam,G) under depth-first search:");
    let mut t = Table::new(&["order", "G", "depth"]);
    for (i, (name, s)) in names.iter().zip(&r.solutions).enumerate() {
        t.row(vec![(i + 1).to_string(), name.clone(), s.depth.to_string()]);
    }
    t.print();
    println!("paper: first answer den via the leftmost chain; both answers den, doug.\n");
    names
}

/// F3: the figure-3 OR-tree shape.
pub fn run_f3() -> TreeShape {
    let p = parse_program(PAPER_FIGURE_1).expect("figure-1 parses");
    let tree = build_ortree(&p.db, &p.queries[0], &SolveConfig::all());
    let s = tree.shape();
    println!("F3 — figure 3, the OR-tree of gf(sam,G):");
    let mut t = Table::new(&["nodes", "internal", "solutions", "failures", "depth"]);
    t.row(vec![
        s.nodes.to_string(),
        s.internal.to_string(),
        s.solutions.to_string(),
        s.failures.to_string(),
        s.depth.to_string(),
    ]);
    t.print();
    println!("paper: 2 solutions (den, doug), 1 failing m-branch, 3 arcs deep.\n");
    s
}

/// The §5 worked example's program (figure 4's clause set).
pub const FIGURE_4_PROGRAM: &str = "
    a :- b, c, d.
    b :- e.
    b :- f.
    c :- g.
    d :- h.
    e. f. g. h.
";

/// Pointer keys of figure 4's `A` block, in pointer order (B1, B2, C, D).
fn figure4_keys() -> [PointerKey; 4] {
    let key = |goal_idx: u16, target: u32| PointerKey {
        caller: Caller::Clause(ClauseId(0)),
        goal_idx,
        target: ClauseId(target),
    };
    [key(0, 1), key(0, 2), key(1, 3), key(2, 4)]
}

/// F4 scenario 1 outcome: the first three expansions' targets.
pub fn run_f4() -> (Vec<ClauseId>, Vec<ClauseId>) {
    let p = parse_program(FIGURE_4_PROGRAM).expect("figure-4 parses");
    let mut db = p.db.clone();
    let query = blog_logic::parse_query(&mut db, "a").expect("query parses");
    let [b1, b2, c, d] = figure4_keys();
    let bits = Weight::from_bits_int;

    let run = |weights: &[(PointerKey, Weight)]| -> Vec<ClauseId> {
        let mut store = WeightStore::new(WeightParams::default());
        for (k, w) in weights {
            store.set(*k, WeightState::Known(*w));
        }
        let mut local = std::collections::HashMap::new();
        let mut view = WeightView::new(&mut local, &store);
        let cfg = BestFirstConfig {
            learn: false,
            record_trace: true,
            ..BestFirstConfig::default()
        };
        let r = best_first(&db, &query, &mut view, &cfg);
        r.trace.iter().map(|k| k.target).collect()
    };

    // Scenario 1 (§5's first trace): the second B pointer is cheapest
    // (weight 3); after it expands, the chain through F costs 3+2=5,
    // so the first B (weight 4) is grown next — "similar to a
    // breadth-first search".
    let f_ptr = PointerKey {
        caller: Caller::Clause(ClauseId(2)),
        goal_idx: 0,
        target: ClauseId(6),
    };
    let s1 = run(&[
        (b1, bits(4)),
        (b2, bits(3)),
        (c, bits(6)),
        (d, bits(6)),
        (f_ptr, bits(2)),
    ]);

    // Scenario 2 (§5's second trace): "suppose the weight of the first B
    // pointer … were 1": then after B1, the clause B:-E expands next
    // (chain bound 1+1 = 2 < 3) — "this appears to be a depth-first
    // search, as in PROLOG".
    let e_ptr = PointerKey {
        caller: Caller::Clause(ClauseId(1)),
        goal_idx: 0,
        target: ClauseId(5),
    };
    let s2 = run(&[
        (b1, bits(1)),
        (b2, bits(3)),
        (c, bits(6)),
        (d, bits(6)),
        (e_ptr, bits(1)),
    ]);

    println!("F4 — figure 4 / §5 worked example (expansion order of clause blocks):");
    let mut t = Table::new(&["scenario", "1st", "2nd", "3rd", "behaviour"]);
    let name = |c: &ClauseId| match c.0 {
        0 => "A".to_string(),
        1 => "B1".to_string(),
        2 => "B2".to_string(),
        3 => "C".to_string(),
        4 => "D".to_string(),
        5 => "E".to_string(),
        6 => "F".to_string(),
        7 => "G".to_string(),
        n => format!("#{n}"),
    };
    t.row(vec![
        "w(B2)=3 < w(B1)=4".into(),
        name(&s1[0]),
        name(&s1[1]),
        name(&s1[2]),
        "breadth-first-like".into(),
    ]);
    t.row(vec![
        "w(B1)=1".into(),
        name(&s2[0]),
        name(&s2[1]),
        name(&s2[2]),
        "depth-first-like".into(),
    ]);
    t.print();
    println!("paper: scenario 1 expands B2 then B1; scenario 2 expands B1 then B:-E.\n");
    (s1, s2)
}

/// W1: the §4 theoretical weights on figure 3.
pub fn run_w1() -> TheoreticalWeights {
    let p = parse_program(PAPER_FIGURE_1).expect("figure-1 parses");
    let chains = enumerate_chains(
        &p.db,
        &p.queries[0],
        &SolveConfig::all(),
        ArcIdentity::SharedGoal,
    );
    let n = target_bits_for(chains.n_solutions);
    let w = solve_weights(&chains, n, 300);
    println!("W1 — §4 theoretical weight model on figure 3:");
    let mut t = Table::new(&[
        "success chains",
        "failure chains",
        "N (bits)",
        "residual",
        "infinite arcs",
        "pathological",
    ]);
    t.row(vec![
        chains.n_solutions.to_string(),
        chains.n_failures.to_string(),
        format!("{n:.1}"),
        format!("{:.2e}", w.max_residual),
        w.infinite.len().to_string(),
        w.pathological.to_string(),
    ]);
    t.print();
    for chain in chains.chains.iter().filter(|c| c.success) {
        println!(
            "  success chain probability {:.4} (paper: 1/2)",
            w.chain_probability(chain)
        );
    }
    println!("paper: solution chains probability 1/2 each, m-branch probability 0.\n");
    w
}

/// W2: chain-level convergence of the learned weights toward the §4
/// model, per presentation round.
pub fn run_w2() -> blog_core::convergence::ConvergenceReport {
    use blog_workloads::{family_program, FamilyParams};
    let (program, _) = family_program(&FamilyParams {
        generations: 3,
        branching: 3,
        tree_mother_density: 0.15,
        external_mother_density: 0.4,
        seed: 77,
        ..FamilyParams::default()
    });
    let report = blog_core::convergence::measure_convergence(
        &program.db,
        &program.queries[0],
        WeightParams::default(),
        6,
    );
    println!("W2 — convergence of learned weights to the §4 model (scaled to bits):");
    println!(
        "tree: {} success chains, {} failure chains, theoretical N = {:.2} bits",
        report.n_success_chains, report.n_failure_chains, report.target_bits
    );
    let mut t = Table::new(&[
        "round",
        "mean |bound-N|",
        "max |bound-N|",
        "dead marked",
        "dead unmarked",
        "poisoned",
        "nodes",
    ]);
    for r in &report.rounds {
        t.row(vec![
            r.round.to_string(),
            format!("{:.4}", r.mean_bound_error_bits),
            format!("{:.4}", r.max_bound_error_bits),
            r.dead_chains_marked.to_string(),
            r.dead_chains_unmarked.to_string(),
            r.poisoned_success_chains.to_string(),
            r.nodes_expanded.to_string(),
        ]);
    }
    t.print();
    println!(
        "paper: weights \"eventually converge to be proportional to those described\n\
         by the theoretical model\" — bound error collapses after one presentation\n\
         and every dead chain acquires an infinity, with none spurious.\n"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_order_matches_paper() {
        assert_eq!(run_f1(), vec!["den", "doug"]);
    }

    #[test]
    fn f3_shape_matches_figure() {
        let s = run_f3();
        assert_eq!(s.solutions, 2);
        assert_eq!(s.failures, 1);
        assert_eq!(s.depth, 3);
        assert_eq!(s.nodes, 7);
    }

    #[test]
    fn f4_expansion_orders_match_section_5() {
        let (s1, s2) = run_f4();
        // Both scenarios start by resolving the query goal against A.
        assert_eq!(s1[0], ClauseId(0));
        assert_eq!(s2[0], ClauseId(0));
        // Scenario 1: second B (clause 2) first, then first B (clause 1).
        assert_eq!(s1[1], ClauseId(2));
        assert_eq!(s1[2], ClauseId(1));
        // Scenario 2: first B (clause 1), then B:-E's body (clause 5).
        assert_eq!(s2[1], ClauseId(1));
        assert_eq!(s2[2], ClauseId(5));
    }

    #[test]
    fn w1_solves_cleanly() {
        let w = run_w1();
        assert!(!w.pathological);
        assert!(w.max_residual < 1e-9);
        assert_eq!(w.infinite.len(), 1, "only the m-rule arc dies");
    }
}
