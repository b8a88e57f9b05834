//! Simulating the parallel B-LOG machine.
//!
//! Runs the discrete-event machine simulator over a planted OR-tree and
//! prints the §6 behaviours: speedup versus processor count, the startup
//! phase that is "searched breadth-first to get all processors working",
//! the communication-threshold D trade-off, and disk-latency hiding
//! through per-processor multitasking.
//!
//! ```text
//! cargo run --release --example machine_sim
//! ```

use b_log::machine::{planted_tree, simulate, MachineConfig, PlantedTreeParams, WeightModel};

fn main() {
    let tree = planted_tree(&PlantedTreeParams {
        depth: 8,
        branching: 3,
        n_solution_paths: 6,
        weights: WeightModel::Random { lo: 1, hi: 30 },
        work_min: 80,
        work_max: 160,
        seed: 2024,
    });
    println!(
        "Planted OR-tree: {} nodes, {} solutions, depth {}, total work {} cycles\n",
        tree.len(),
        tree.n_solutions(),
        tree.depth(),
        tree.total_work()
    );

    println!("== Speedup vs processors (M = 2 tasks each) ==");
    println!(
        "{:>6} {:>12} {:>9} {:>12} {:>10} {:>12}",
        "procs", "makespan", "speedup", "util", "transfers", "all-busy@"
    );
    let base = simulate(
        &tree,
        &MachineConfig {
            n_processors: 1,
            ..MachineConfig::default()
        },
    )
    .makespan;
    for n in [1u32, 2, 4, 8, 16, 32] {
        let s = simulate(
            &tree,
            &MachineConfig {
                n_processors: n,
                ..MachineConfig::default()
            },
        );
        println!(
            "{:>6} {:>12} {:>8.2}x {:>11.1}% {:>10} {:>12}",
            n,
            s.makespan,
            base as f64 / s.makespan as f64,
            s.utilization * 100.0,
            s.remote_acquisitions,
            s.time_all_busy.map_or("never".into(), |t| t.to_string()),
        );
    }

    println!("\n== The D threshold: traffic vs completion time (8 procs) ==");
    println!(
        "{:>8} {:>12} {:>10} {:>12}",
        "D", "makespan", "transfers", "net busy"
    );
    for d in [0u64, 5, 20, 80, 320, u64::MAX / 2] {
        let s = simulate(
            &tree,
            &MachineConfig {
                n_processors: 8,
                d_threshold: d,
                ..MachineConfig::default()
            },
        );
        let label = if d > 1_000_000 {
            "∞".into()
        } else {
            d.to_string()
        };
        println!(
            "{:>8} {:>12} {:>10} {:>12}",
            label, s.makespan, s.remote_acquisitions, s.net_busy_time
        );
    }

    println!("\n== Hiding disk latency with M tasks per processor (2 procs, slow disk) ==");
    println!("{:>6} {:>12} {:>10}", "M", "makespan", "util");
    for m in [1u32, 2, 4, 8] {
        let s = simulate(
            &tree,
            &MachineConfig {
                n_processors: 2,
                tasks_per_processor: m,
                disk_latency: 1_000,
                ..MachineConfig::default()
            },
        );
        println!(
            "{:>6} {:>12} {:>9.1}%",
            m,
            s.makespan,
            s.utilization * 100.0
        );
    }

    println!("\n== Adaptive D on an expensive network ==");
    let fixed = simulate(
        &tree,
        &MachineConfig {
            n_processors: 8,
            d_threshold: 1,
            transfer_latency: 600,
            ..MachineConfig::default()
        },
    );
    let adaptive = simulate(
        &tree,
        &MachineConfig {
            n_processors: 8,
            d_threshold: 1,
            transfer_latency: 600,
            adapt_d: true,
            ..MachineConfig::default()
        },
    );
    println!(
        "  fixed D=1:    makespan {}, {} transfers",
        fixed.makespan, fixed.remote_acquisitions
    );
    println!(
        "  adaptive D:   makespan {}, {} transfers (final D = {})",
        adaptive.makespan, adaptive.remote_acquisitions, adaptive.final_d
    );
}
