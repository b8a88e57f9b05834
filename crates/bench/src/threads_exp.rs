//! T4 (real threads): OR-parallel execution on actual OS threads.
//!
//! What this measures: *correctness under concurrency* (the solution set
//! is invariant across worker counts) and the *scheduling behaviour* of
//! the D-threshold frontier (steal counts, load distribution, overhead).
//!
//! What it deliberately does not promise: wall-clock speedup on this
//! host. The executor reports the machine's logical CPU count — on a
//! single-core box (such as many CI containers) wall-clock time is flat
//! or slightly worse with more workers, and the *speedup* claim of the
//! paper is reproduced by the `blog-machine` discrete-event simulator
//! (T4 machine rows), which models the 1985 multiprocessor the paper
//! actually sketches.

use std::time::{Duration, Instant};

use blog_core::weight::{WeightParams, WeightStore};
use blog_logic::{dfs_all, SolveConfig};
use blog_parallel::{par_best_first_with, ParallelConfig};
use blog_workloads::{queens_program, QueensParams};

use crate::report::{f2, Table};

/// One worker-count measurement.
#[derive(Clone, Debug)]
pub struct ThreadRow {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time (best of 3).
    pub elapsed: Duration,
    /// Solutions found.
    pub solutions: usize,
    /// Chains stolen through the frontier.
    pub steals: u64,
    /// Nodes expanded per worker (load distribution).
    pub per_worker: Vec<u64>,
}

/// Available hardware parallelism.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// T4 (threads): solve N-queens with 1..=8 workers.
pub fn run_t4_threads(n: u32) -> Vec<ThreadRow> {
    let (program, _) = queens_program(&QueensParams { n });
    let query = &program.queries[0];
    let seq = dfs_all(&program.db, query, &SolveConfig::all());
    let weights = WeightStore::new(WeightParams::default());
    let cores = host_cores();
    let mut rows = Vec::new();
    println!(
        "T4 (threads) — OR-parallel {n}-queens, all solutions, on a host with \
         {cores} logical core(s):"
    );
    let mut t = Table::new(&[
        "workers",
        "millis",
        "vs 1 worker",
        "steals",
        "solutions",
        "load spread (nodes/worker)",
    ]);
    let mut base = Duration::ZERO;
    for workers in [1usize, 2, 4, 8] {
        let cfg = ParallelConfig {
            n_workers: workers,
            learn: false,
            ..ParallelConfig::default()
        };
        let mut best = Duration::MAX;
        let mut last = None;
        for _ in 0..3 {
            let start = Instant::now();
            let r = par_best_first_with(&program.db, query, &weights, &cfg);
            let e = start.elapsed();
            assert_eq!(r.solutions.len(), seq.solutions.len());
            best = best.min(e);
            last = Some(r);
        }
        let r = last.expect("ran at least once");
        if workers == 1 {
            base = best;
        }
        let spread: Vec<String> = r
            .per_worker_expanded
            .iter()
            .map(|n| n.to_string())
            .collect();
        t.row(vec![
            workers.to_string(),
            format!("{:.1}", best.as_secs_f64() * 1e3),
            f2(base.as_secs_f64() / best.as_secs_f64()),
            r.counters.steals.to_string(),
            r.solutions.len().to_string(),
            spread.join("/"),
        ]);
        rows.push(ThreadRow {
            workers,
            elapsed: best,
            solutions: r.solutions.len(),
            steals: r.counters.steals,
            per_worker: r.per_worker_expanded.clone(),
        });
    }
    t.print();
    println!(
        "expected shape: identical solution sets at every width; work spread\n\
         across workers by the D-threshold frontier. Wall-clock gains require\n\
         ≥ 2 physical cores — on this {cores}-core host treat the 'vs 1 worker'\n\
         column as scheduling overhead; the speedup curve lives in the machine\n\
         simulator rows above.\n"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_counts_are_invariant() {
        // Small board keeps the test quick.
        let rows = run_t4_threads(5);
        assert!(rows.iter().all(|r| r.solutions == 10));
    }

    #[test]
    fn per_worker_counters_account_for_all_work() {
        // How evenly work spreads depends on core count and OS
        // scheduling, so assert only the accounting invariant: every
        // expansion is attributed to exactly one worker.
        let rows = run_t4_threads(5);
        for row in &rows {
            assert_eq!(row.per_worker.len(), row.workers);
        }
    }
}
