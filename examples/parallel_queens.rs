//! OR-parallel N-queens on real threads, plus the AND-parallel demo.
//!
//! Solves N-queens with the OR-parallel best-first executor at several
//! worker counts and reports wall-clock speedups and work distribution
//! (the T4 experiment in miniature). Then demonstrates the §7 extensions,
//! whose factor searches run on the same executor at two workers:
//! fork-join on an independent conjunction and semi-join on a shared-
//! variable conjunction.
//!
//! ```text
//! cargo run --release --example parallel_queens
//! ```

use std::time::Instant;

use b_log::core::weight::{WeightParams, WeightStore};
use b_log::logic::{dfs_all, parse_program, SolveConfig};
use b_log::parallel::{
    and_parallel_solve, par_best_first_with, semijoin_conjunction, ParallelConfig,
};
use b_log::workloads::{queens_program, QueensParams};

fn main() {
    let n = 6;
    let (program, _) = queens_program(&QueensParams { n });
    let query = &program.queries[0];
    println!("== OR-parallel {n}-queens ==");
    let seq_start = Instant::now();
    let seq = dfs_all(&program.db, query, &SolveConfig::all());
    let seq_time = seq_start.elapsed();
    println!(
        "sequential DFS: {} solutions, {} nodes, {:?}\n",
        seq.solutions.len(),
        seq.stats.nodes_expanded,
        seq_time
    );

    let weights = WeightStore::new(WeightParams::default());
    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>20}",
        "workers", "time", "speedup", "steals", "per-worker nodes"
    );
    for workers in [1usize, 2, 4, 8] {
        let cfg = ParallelConfig {
            n_workers: workers,
            learn: false,
            ..ParallelConfig::default()
        };
        let start = Instant::now();
        let r = par_best_first_with(&program.db, query, &weights, &cfg);
        let elapsed = start.elapsed();
        assert_eq!(r.solutions.len(), seq.solutions.len());
        let speedup = seq_time.as_secs_f64() / elapsed.as_secs_f64();
        let spread: Vec<String> = r
            .per_worker_expanded
            .iter()
            .map(|n| n.to_string())
            .collect();
        println!(
            "{:>8} {:>12?} {:>9.2}x {:>8} {:>20}",
            workers,
            elapsed,
            speedup,
            r.counters.steals,
            spread.join("/")
        );
    }

    // ------------------------------------------------------------------
    let and_cfg = ParallelConfig {
        n_workers: 2,
        ..ParallelConfig::default()
    };
    println!("\n== AND-parallel fork-join (independent goals) ==");
    let mut src = String::new();
    for i in 0..30 {
        src.push_str(&format!("a({i}). b({i}). c({i}).\n"));
    }
    src.push_str("?- a(X), b(Y), c(Z).\n");
    let p = parse_program(&src).unwrap();
    let seq = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
    let par = and_parallel_solve(&p.db, &p.queries[0], &weights, &and_cfg)
        .expect("a clause database never faults");
    println!(
        "30×30×30 cross product: sequential expanded {} nodes, fork-join {} \
         (both found {} solutions)",
        seq.stats.nodes_expanded,
        par.stats.nodes_expanded,
        par.solutions.len()
    );

    println!("\n== Semi-join (shared variables) ==");
    let mut src = String::new();
    for i in 0..40 {
        src.push_str(&format!("emp(e{i}, dept{}).\n", i % 4));
    }
    for d in 0..4 {
        src.push_str(&format!("mgr(dept{d}, boss{d}).\n"));
    }
    src.push_str("?- emp(E, D), mgr(D, M).\n");
    let p = parse_program(&src).unwrap();
    let (r, sj) = semijoin_conjunction(&p.db, &p.queries[0], &weights, &and_cfg)
        .expect("a clause database never faults");
    println!(
        "40 employees over 4 departments: {} producer rows, {} distinct keys \
         → {} consumer evaluations instead of {} (naive); {} joined solutions",
        sj.producer_solutions,
        sj.distinct_keys,
        sj.consumer_evaluations,
        sj.producer_solutions,
        r.solutions.len()
    );
}
