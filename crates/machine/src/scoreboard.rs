//! A micro-simulator of one B-LOG processor's scoreboard.
//!
//! "Recall that in the CDC 6600, a scoreboard is used to keep busy a
//! collection of adders, multipliers and the like … We should build some
//! specialized units, for example, to instantiate variables. When a unit
//! has completed its operation, it should consult the scoreboard to
//! determine what operation it can do next. … a single processor will
//! thus be multitasked, able to develop several chains of the search tree
//! at one time. Also, the delays due to disk access can be compensated
//! for by developing other chains that are not waiting for the slow
//! disk." (§6)
//!
//! The model: `M` tasks, each repeatedly performing one chain extension =
//! a disk fetch followed by a dependency chain of unit operations
//! (match, then the unifications, then chain copies, then weight
//! updates). Units are typed and counted; a task's next operation
//! dispatches when its predecessor finishes *and* a unit of the right
//! kind is free — exactly a scoreboard's read-after-write plus structural
//! hazards, at operation granularity.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::Serialize;

/// The specialized functional units of the B-LOG processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum UnitKind {
    /// Goal-to-head candidate matching.
    Match,
    /// Variable instantiation (unification).
    Unify,
    /// Chain sprouting (block copy; see [`crate::multiwrite`]).
    Copy,
    /// Pointer-weight updates.
    WeightUpdate,
}

/// All unit kinds, for indexing.
pub const UNIT_KINDS: [UnitKind; 4] = [
    UnitKind::Match,
    UnitKind::Unify,
    UnitKind::Copy,
    UnitKind::WeightUpdate,
];

/// Configuration of the processor micro-simulation.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ScoreboardConfig {
    /// Concurrent tasks `M`.
    pub n_tasks: u32,
    /// Unit counts, indexed like [`UNIT_KINDS`].
    pub unit_counts: [u32; 4],
    /// Unit operation latencies, indexed like [`UNIT_KINDS`].
    pub unit_latencies: [u64; 4],
    /// Disk fetch latency between chain extensions (no unit consumed).
    pub disk_latency: u64,
    /// Unification operations per extension.
    pub unifies_per_expansion: u32,
    /// Chain copies (and weight updates) per extension.
    pub copies_per_expansion: u32,
    /// Total chain extensions to process.
    pub n_expansions: u64,
}

impl Default for ScoreboardConfig {
    fn default() -> Self {
        ScoreboardConfig {
            n_tasks: 4,
            unit_counts: [1, 2, 1, 1],
            unit_latencies: [8, 12, 6, 4],
            disk_latency: 400,
            unifies_per_expansion: 4,
            copies_per_expansion: 2,
            n_expansions: 256,
        }
    }
}

/// Measured outcome of the micro-simulation.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ScoreboardStats {
    /// Total cycles to finish all expansions.
    pub makespan: u64,
    /// Busy cycles per unit kind.
    pub unit_busy: [u64; 4],
    /// Utilization per unit kind (busy / (makespan × count)).
    pub unit_utilization: [f64; 4],
    /// Expansions completed per 1000 cycles.
    pub throughput: f64,
}

/// Run the micro-simulation.
pub fn simulate_scoreboard(cfg: &ScoreboardConfig) -> ScoreboardStats {
    assert!(cfg.n_tasks >= 1 && cfg.n_expansions >= 1);
    assert!(cfg.unit_counts.iter().all(|&c| c >= 1));

    // Per-kind unit free times (min-heaps).
    let mut units: Vec<BinaryHeap<Reverse<u64>>> = cfg
        .unit_counts
        .iter()
        .map(|&c| (0..c).map(|_| Reverse(0u64)).collect())
        .collect();
    let mut busy = [0u64; 4];

    // The operation template of one chain extension, after its fetch.
    let mut template: Vec<usize> = Vec::new();
    template.push(0); // Match
    template.extend(std::iter::repeat_n(1, cfg.unifies_per_expansion as usize));
    template.extend(std::iter::repeat_n(2, cfg.copies_per_expansion as usize));
    template.extend(std::iter::repeat_n(3, cfg.copies_per_expansion as usize));

    // Tasks advance independently; requests are served in global time
    // order, which a min-heap over (ready_time, task_id) gives us.
    #[derive(Clone, Copy)]
    struct TaskState {
        op_idx: usize, // index into template; == len() → fetch next node
    }
    let mut tasks = vec![
        TaskState {
            op_idx: template.len()
        };
        cfg.n_tasks as usize
    ];
    let mut ready: BinaryHeap<Reverse<(u64, u32)>> =
        (0..cfg.n_tasks).map(|t| Reverse((0u64, t))).collect();
    let mut remaining = cfg.n_expansions;
    let mut in_flight = vec![true; cfg.n_tasks as usize];
    let mut makespan = 0u64;

    while let Some(Reverse((t, task))) = ready.pop() {
        let st = &mut tasks[task as usize];
        if st.op_idx == template.len() {
            // Extension finished: account, then fetch the next node.
            if remaining == 0 {
                in_flight[task as usize] = false;
                makespan = makespan.max(t);
                continue;
            }
            remaining -= 1;
            st.op_idx = 0;
            ready.push(Reverse((t + cfg.disk_latency, task)));
            continue;
        }
        let kind = template[st.op_idx];
        let lat = cfg.unit_latencies[kind];
        let Reverse(free) = units[kind].pop().expect("unit count >= 1");
        let start = t.max(free);
        let end = start + lat;
        units[kind].push(Reverse(end));
        busy[kind] += lat;
        st.op_idx += 1;
        ready.push(Reverse((end, task)));
        makespan = makespan.max(end);
    }

    let mut stats = ScoreboardStats {
        makespan,
        unit_busy: busy,
        ..ScoreboardStats::default()
    };
    for (k, &b) in busy.iter().enumerate() {
        let denom = makespan.max(1) as f64 * cfg.unit_counts[k] as f64;
        stats.unit_utilization[k] = b as f64 / denom;
    }
    stats.throughput = cfg.n_expansions as f64 * 1000.0 / makespan.max(1) as f64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_task_is_disk_bound() {
        let cfg = ScoreboardConfig {
            n_tasks: 1,
            n_expansions: 10,
            ..ScoreboardConfig::default()
        };
        let s = simulate_scoreboard(&cfg);
        // Every expansion pays the full disk latency serially.
        assert!(s.makespan >= 10 * cfg.disk_latency);
    }

    #[test]
    fn more_tasks_raise_throughput_until_compute_bound() {
        let run = |m| {
            simulate_scoreboard(&ScoreboardConfig {
                n_tasks: m,
                n_expansions: 200,
                ..ScoreboardConfig::default()
            })
        };
        let t1 = run(1).throughput;
        let t2 = run(2).throughput;
        let t8 = run(8).throughput;
        assert!(t2 > t1 * 1.5, "2 tasks {t2} vs 1 task {t1}");
        assert!(t8 > t2, "8 tasks {t8} vs 2 tasks {t2}");
    }

    #[test]
    fn throughput_saturates_at_unit_capacity() {
        // With the disk fully hidden, the bottleneck unit caps throughput:
        // unify has 2 units, 4 ops × 12 cycles per expansion → ≥ 24
        // cycles/expansion on the unify units alone.
        let s = simulate_scoreboard(&ScoreboardConfig {
            n_tasks: 64,
            n_expansions: 2_000,
            ..ScoreboardConfig::default()
        });
        let cap = 1000.0 / 24.0;
        assert!(s.throughput <= cap * 1.05, "{} > {}", s.throughput, cap);
        assert!(
            s.throughput > cap * 0.8,
            "{} far below cap {}",
            s.throughput,
            cap
        );
    }

    #[test]
    fn utilization_bounded_and_bottleneck_is_hottest() {
        let s = simulate_scoreboard(&ScoreboardConfig {
            n_tasks: 16,
            n_expansions: 1_000,
            ..ScoreboardConfig::default()
        });
        for u in s.unit_utilization {
            assert!((0.0..=1.0).contains(&u));
        }
        // Unify (2 units × 12 cycles × 4 ops) is the designed bottleneck.
        let unify = s.unit_utilization[1];
        for (k, &u) in s.unit_utilization.iter().enumerate() {
            if k != 1 {
                assert!(unify >= u, "unify {unify} < unit {k} {u}");
            }
        }
    }

    #[test]
    fn busy_cycles_match_op_counts() {
        let cfg = ScoreboardConfig {
            n_tasks: 3,
            n_expansions: 100,
            ..ScoreboardConfig::default()
        };
        let s = simulate_scoreboard(&cfg);
        assert_eq!(s.unit_busy[0], 100 * cfg.unit_latencies[0]);
        assert_eq!(
            s.unit_busy[1],
            100 * cfg.unifies_per_expansion as u64 * cfg.unit_latencies[1]
        );
    }

    #[test]
    fn deterministic() {
        let cfg = ScoreboardConfig::default();
        assert_eq!(
            simulate_scoreboard(&cfg).makespan,
            simulate_scoreboard(&cfg).makespan
        );
    }
}
