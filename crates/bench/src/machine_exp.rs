//! T4 (machine speedup), T5 (D threshold), T7 (latency hiding +
//! scoreboard + multi-write), A3 (startup distribution).

use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::SolveConfig;
use blog_machine::machine::{simulate, MachineConfig, MachineStats};
use blog_machine::multiwrite::{multiwrite_speedup, MemoryCosts};
use blog_machine::scoreboard::{simulate_scoreboard, ScoreboardConfig};
use blog_machine::tree::{
    planted_tree, tree_from_search, PlantedTreeParams, TreeSpec, WeightModel,
};
use blog_workloads::{queens_program, QueensParams};

use crate::report::{f2, pct, Table};

/// The standard planted workload tree for machine experiments.
pub fn bench_tree() -> TreeSpec {
    planted_tree(&PlantedTreeParams {
        depth: 8,
        branching: 3,
        n_solution_paths: 6,
        weights: WeightModel::Random { lo: 1, hi: 30 },
        work_min: 80,
        work_max: 160,
        seed: 2024,
    })
}

/// A machine workload traced from a real logic search (5-queens).
pub fn traced_tree() -> TreeSpec {
    let (p, _) = queens_program(&QueensParams { n: 5 });
    let store = WeightStore::new(WeightParams::default());
    let mut overlay = std::collections::HashMap::new();
    let view = WeightView::new(&mut overlay, &store);
    tree_from_search(&p.db, &p.queries[0], &view, &SolveConfig::all(), 50, 5)
        .expect("the in-memory ClauseDb never faults")
}

/// T4: machine speedup vs processor count, on both trees. Returns
/// `(tree name, n, stats)`.
pub fn run_t4_machine() -> Vec<(&'static str, u32, MachineStats)> {
    let trees: [(&'static str, TreeSpec); 2] = [
        ("planted(3^8)", bench_tree()),
        ("queens(5)-trace", traced_tree()),
    ];
    let mut out = Vec::new();
    println!("T4 — machine speedup vs processors (M = 2 tasks each):");
    let mut t = Table::new(&[
        "tree",
        "procs",
        "makespan",
        "speedup",
        "util",
        "transfers",
        "all-busy@",
    ]);
    for (name, tree) in &trees {
        let base = simulate(
            tree,
            &MachineConfig {
                n_processors: 1,
                ..MachineConfig::default()
            },
        )
        .makespan;
        for n in [1u32, 2, 4, 8, 16, 32] {
            let s = simulate(
                tree,
                &MachineConfig {
                    n_processors: n,
                    ..MachineConfig::default()
                },
            );
            t.row(vec![
                name.to_string(),
                n.to_string(),
                s.makespan.to_string(),
                f2(base as f64 / s.makespan as f64),
                pct(s.utilization),
                s.remote_acquisitions.to_string(),
                s.time_all_busy.map_or("never".into(), |x| x.to_string()),
            ]);
            out.push((*name, n, s));
        }
    }
    t.print();
    println!(
        "expected shape: near-linear speedup while the frontier outnumbers the\n\
         processors, then saturation; the paper's scheduling-limit caveat (§3).\n"
    );
    out
}

/// T5: the D threshold sweep. Returns `(D, stats)`.
pub fn run_t5() -> Vec<(u64, MachineStats)> {
    let tree = bench_tree();
    let mut out = Vec::new();
    println!("T5 — communication threshold D (8 processors):");
    let mut t = Table::new(&["D", "makespan", "transfers", "net-busy", "util"]);
    for d in [0u64, 2, 5, 10, 20, 40, 80, 160, u64::MAX / 2] {
        let s = simulate(
            &tree,
            &MachineConfig {
                n_processors: 8,
                d_threshold: d,
                ..MachineConfig::default()
            },
        );
        let label = if d > 1_000_000 {
            "inf".into()
        } else {
            d.to_string()
        };
        t.row(vec![
            label,
            s.makespan.to_string(),
            s.remote_acquisitions.to_string(),
            s.net_busy_time.to_string(),
            pct(s.utilization),
        ]);
        out.push((d, s));
    }
    // Adaptive D for comparison.
    let adaptive = simulate(
        &tree,
        &MachineConfig {
            n_processors: 8,
            d_threshold: 1,
            adapt_d: true,
            ..MachineConfig::default()
        },
    );
    println!(
        "adaptive D starting at 1: makespan {}, {} transfers, final D = {}",
        adaptive.makespan, adaptive.remote_acquisitions, adaptive.final_d
    );
    t.print();
    println!(
        "expected shape: D = 0 chases tiny bound differences through the network\n\
         (max traffic); very large D starves; the knee sits between.\n"
    );

    // §3 incumbent pruning in the parallel machine, on a trained tree.
    let trained = planted_tree(&PlantedTreeParams {
        depth: 7,
        branching: 3,
        n_solution_paths: 3,
        weights: WeightModel::Trained {
            on_path: 0,
            off_path: 10,
        },
        work_min: 100,
        work_max: 100,
        seed: 5,
    });
    let mut pt = Table::new(&["pruning", "makespan", "expansions", "pruned", "solutions"]);
    for (label, slack) in [
        ("off", None),
        ("slack 0", Some(0u64)),
        ("slack 10", Some(10)),
    ] {
        let s = simulate(
            &trained,
            &MachineConfig {
                n_processors: 8,
                prune_slack: slack,
                ..MachineConfig::default()
            },
        );
        pt.row(vec![
            label.into(),
            s.makespan.to_string(),
            s.expansions.to_string(),
            s.pruned.to_string(),
            s.solutions_found.to_string(),
        ]);
    }
    println!("T5b — incumbent pruning on a trained tree (8 processors):");
    pt.print();
    println!(
        "\"once a solution is found, its bound can be used to cut off any searches\n\
         on other chains\" — with converged weights the dead subtrees evaporate\n\
         while the solution count is unchanged.\n"
    );
    out
}

/// T7a: tasks-per-processor sweep under a slow disk (machine level).
pub fn run_t7_machine() -> Vec<(u32, MachineStats)> {
    let tree = bench_tree();
    let mut out = Vec::new();
    println!("T7a — hiding disk latency with M tasks (2 processors, slow disk):");
    let mut t = Table::new(&["M", "makespan", "util"]);
    for m in [1u32, 2, 4, 8, 16] {
        let s = simulate(
            &tree,
            &MachineConfig {
                n_processors: 2,
                tasks_per_processor: m,
                disk_latency: 1_000,
                ..MachineConfig::default()
            },
        );
        t.row(vec![
            m.to_string(),
            s.makespan.to_string(),
            pct(s.utilization),
        ]);
        out.push((m, s));
    }
    t.print();
    out
}

/// T7b: scoreboard unit utilization vs M (processor micro-level).
pub fn run_t7_scoreboard() -> Vec<(u32, f64, f64)> {
    let mut out = Vec::new();
    println!("T7b — scoreboard micro-simulation (throughput & unify-unit utilization):");
    let mut t = Table::new(&["M", "throughput", "match", "unify", "copy", "wupd"]);
    for m in [1u32, 2, 4, 8, 16, 32] {
        let s = simulate_scoreboard(&ScoreboardConfig {
            n_tasks: m,
            n_expansions: 2_000,
            ..ScoreboardConfig::default()
        });
        t.row(vec![
            m.to_string(),
            f2(s.throughput),
            pct(s.unit_utilization[0]),
            pct(s.unit_utilization[1]),
            pct(s.unit_utilization[2]),
            pct(s.unit_utilization[3]),
        ]);
        out.push((m, s.throughput, s.unit_utilization[1]));
    }
    t.print();
    println!(
        "expected shape: throughput climbs with M until the bottleneck unit\n\
         (unify) saturates — \"delays due to disk access can be compensated\".\n"
    );
    out
}

/// T7c: the multi-write memory's copy speedup. Returns `(k, speedup)`.
pub fn run_t7_multiwrite() -> Vec<(u64, f64)> {
    let costs = MemoryCosts::default();
    let mut out = Vec::new();
    println!("T7c — multi-write copy memory speedup (chain sprouting, 256-word chains):");
    let mut t = Table::new(&["copies k", "speedup"]);
    for k in [1u64, 2, 4, 8, 16, 32] {
        let sp = multiwrite_speedup(&costs, k, 256);
        t.row(vec![k.to_string(), f2(sp)]);
        out.push((k, sp));
    }
    t.print();
    out
}

/// A3: startup distribution — time until all processors are busy.
pub fn run_a3() -> Vec<(u32, u64, Option<u64>)> {
    let tree = bench_tree();
    let mut out = Vec::new();
    println!("A3 — startup: time until every processor has work:");
    let mut t = Table::new(&["procs", "makespan", "all-busy@", "fraction of run"]);
    for n in [2u32, 4, 8, 16, 32] {
        let s = simulate(
            &tree,
            &MachineConfig {
                n_processors: n,
                ..MachineConfig::default()
            },
        );
        let frac = s.time_all_busy.map_or("—".to_string(), |x| {
            pct(x as f64 / s.makespan.max(1) as f64)
        });
        t.row(vec![
            n.to_string(),
            s.makespan.to_string(),
            s.time_all_busy.map_or("never".into(), |x| x.to_string()),
            frac,
        ]);
        out.push((n, s.makespan, s.time_all_busy));
    }
    t.print();
    println!(
        "paper: \"initially, the tree is searched breadth-first to get all\n\
         processors working\" — the fill time grows with N as the early tree\n\
         fans out only as fast as expansions sprout chains.\n"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_speedup_monotone_until_saturation() {
        let rows = run_t4_machine();
        let planted: Vec<&(_, u32, MachineStats)> = rows
            .iter()
            .filter(|(name, _, _)| *name == "planted(3^8)")
            .collect();
        let mk = |n: u32| {
            planted
                .iter()
                .find(|(_, procs, _)| *procs == n)
                .map(|(_, _, s)| s.makespan)
                .expect("row present")
        };
        assert!(mk(2) < mk(1));
        assert!(mk(4) < mk(2));
        assert!(mk(8) < mk(4));
    }

    #[test]
    fn t5_zero_d_has_max_traffic() {
        let rows = run_t5();
        let traffic0 = rows[0].1.remote_acquisitions;
        for (d, s) in &rows[1..] {
            assert!(
                s.remote_acquisitions <= traffic0,
                "D={d} traffic {} exceeds D=0 {traffic0}",
                s.remote_acquisitions
            );
        }
    }

    #[test]
    fn t7_multitasking_helps_under_slow_disk() {
        let rows = run_t7_machine();
        assert!(rows[2].1.makespan < rows[0].1.makespan, "M=4 beats M=1");
    }

    #[test]
    fn t7_scoreboard_throughput_climbs() {
        let rows = run_t7_scoreboard();
        assert!(rows[1].1 > rows[0].1);
        assert!(rows[3].1 >= rows[1].1);
    }

    #[test]
    fn a3_all_processors_eventually_busy_when_feasible() {
        let rows = run_a3();
        for (n, _, t) in &rows {
            if *n <= 16 {
                assert!(t.is_some(), "n={n} never got all processors busy");
            }
        }
    }
}
