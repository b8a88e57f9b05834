//! The discrete-event simulation of the parallel B-LOG machine.
//!
//! "Each of N processors has the capability of supporting M tasks at the
//! same time. … Initially, one processor is given the initial query …
//! The other processors use the minimum seeking network to wait for some
//! chain to work on. … The priority network assigns a minimum to just one
//! awaiting processor at a time. Thus, initially, the tree is searched
//! breadth-first to get all processors working. … We choose a value D,
//! which reflects the communication cost of moving a chain. If the
//! minimum over the network is D lower than the minimum of the tasks in
//! a processor, the freed task would acquire the chain through the
//! network, else it would work on the minimum chain given by some task
//! in its own processor. D can be modified at run time, based on the
//! measured communication overhead." (§6)
//!
//! Every sentence above is a simulation rule here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::Serialize;

use crate::net::{MinSeekTree, EMPTY};
use crate::tree::{NodeKind, TreeSpec};

/// Configuration of the simulated machine.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MachineConfig {
    /// Number of processors `N`.
    pub n_processors: u32,
    /// Tasks per processor `M`.
    pub tasks_per_processor: u32,
    /// The communication threshold `D` (in bound units).
    pub d_threshold: u64,
    /// Adapt `D` at run time from the measured remote-acquisition share.
    pub adapt_d: bool,
    /// Database fetch latency per chain acquisition (cycles). The task
    /// waits; the processor does not.
    pub disk_latency: u64,
    /// Network occupancy for moving one chain between processors.
    pub transfer_latency: u64,
    /// Per-stage latency of the minimum-seeking comparator tree; total
    /// network decision latency is `ceil(log2 N)` stages.
    pub net_stage_latency: u64,
    /// Cycles to record a solution leaf.
    pub solution_cost: u64,
    /// Stop after this many solutions (`None` = exhaust the tree).
    pub max_solutions: Option<usize>,
    /// §3 incumbent pruning: once a solution with bound `B` exists, drop
    /// queued chains whose bound exceeds `B + slack` (`None` = never
    /// prune). With converged weights every true solution sits at the
    /// same bound, so a small slack keeps enumeration complete while
    /// dead subtrees evaporate.
    pub prune_slack: Option<u64>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            n_processors: 4,
            tasks_per_processor: 2,
            d_threshold: 2,
            adapt_d: false,
            disk_latency: 200,
            transfer_latency: 50,
            net_stage_latency: 2,
            solution_cost: 20,
            max_solutions: None,
            prune_slack: None,
        }
    }
}

impl MachineConfig {
    /// Min-seeking network decision latency for this size.
    pub fn net_latency(&self) -> u64 {
        let stages = (self.n_processors.max(2) as f64).log2().ceil() as u64;
        stages * self.net_stage_latency
    }
}

/// Measured outcome of one simulation run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct MachineStats {
    /// Total simulated time.
    pub makespan: u64,
    /// Internal-node expansions performed.
    pub expansions: u64,
    /// Solutions recorded.
    pub solutions_found: usize,
    /// Times at which each solution was recorded.
    pub solution_times: Vec<u64>,
    /// Chains acquired through the network.
    pub remote_acquisitions: u64,
    /// Chains acquired from the local pool.
    pub local_acquisitions: u64,
    /// Total network busy time (transfers × latency).
    pub net_busy_time: u64,
    /// Per-processor compute-busy cycles.
    pub busy: Vec<u64>,
    /// Aggregate utilization: busy / (makespan × N).
    pub utilization: f64,
    /// First time every processor had at least one active task.
    pub time_all_busy: Option<u64>,
    /// Final value of `D` (differs from the config when adapting).
    pub final_d: u64,
    /// Chains discarded by incumbent pruning.
    pub pruned: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EvKind {
    /// Chain fetch (disk + any network lead) completed; ready to compute.
    FetchDone {
        proc: u32,
        task: u32,
        node: u32,
        bound: u64,
    },
    /// Processor finished computing this node.
    ComputeDone {
        proc: u32,
        task: u32,
        node: u32,
        bound: u64,
    },
    /// The transfer network went idle.
    NetFree,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Event {
    time: u64,
    seq: u64,
    kind: EvKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

type PoolEntry = Reverse<(u64, u64, u32)>; // (bound, seq, node) min-heap

struct Sim<'a> {
    tree: &'a TreeSpec,
    cfg: MachineConfig,
    d: u64,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    pools: Vec<BinaryHeap<PoolEntry>>,
    pool_seq: u64,
    server_free_at: Vec<u64>,
    active_tasks: Vec<u32>,
    idle: Vec<(u32, u32)>,
    net_wait: Vec<(u32, u32)>,
    net_free_at: u64,
    halted: bool,
    best_bound: Option<u64>,
    /// The §6 comparator tree, kept synchronized with the pool minima.
    min_net: MinSeekTree,
    stats: MachineStats,
    // adaptive-D window counters
    window_total: u64,
    window_remote: u64,
}

impl<'a> Sim<'a> {
    fn push_event(&mut self, time: u64, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Publish a pool's current minimum to the min-seeking network.
    fn publish_min(&mut self, proc: u32) {
        let min = self.pools[proc as usize]
            .peek()
            .map(|Reverse((b, _, _))| *b)
            .unwrap_or(EMPTY);
        self.min_net.update(proc as usize, min);
    }

    fn pool_push(&mut self, proc: u32, bound: u64, node: u32) {
        // Incumbent pruning at sprout time: a chain already over the
        // threshold never enters a pool (bounds are monotone, so it could
        // only get worse).
        if let (Some(slack), Some(best)) = (self.cfg.prune_slack, self.best_bound) {
            if bound > best.saturating_add(slack) {
                self.stats.pruned += 1;
                return;
            }
        }
        self.pool_seq += 1;
        self.pools[proc as usize].push(Reverse((bound, self.pool_seq, node)));
        self.publish_min(proc);
    }

    /// Re-filter every pool against the (improved) incumbent.
    fn prune_pools(&mut self) {
        let (Some(slack), Some(best)) = (self.cfg.prune_slack, self.best_bound) else {
            return;
        };
        let threshold = best.saturating_add(slack);
        for pool in &mut self.pools {
            let before = pool.len();
            let kept: BinaryHeap<PoolEntry> = pool
                .drain()
                .filter(|Reverse((b, _, _))| *b <= threshold)
                .collect();
            self.stats.pruned += (before - kept.len()) as u64;
            *pool = kept;
        }
        for p in 0..self.cfg.n_processors {
            self.publish_min(p);
        }
    }

    /// What the min-seeking network shows a freed task on `me`: the
    /// cheapest chain on any *other* processor. The hardware tree reports
    /// the global minimum; when that minimum lives on `me` itself the
    /// comparison `net_min + D < local_min` is false by construction, so
    /// falling back to a scan-excluding-`me` is only needed for that case.
    fn best_remote(&self, me: u32) -> Option<(u32, u64)> {
        match self.min_net.min() {
            None => None,
            Some((b, leaf)) if leaf != me => Some((leaf, b)),
            Some(_) => {
                // Global min is local; any other pool's chain cannot beat
                // it, so remote acquisition never triggers. Report the
                // runner-up only to keep the starvation path (empty local
                // pool) working.
                let mut best: Option<(u32, u64)> = None;
                for (q, pool) in self.pools.iter().enumerate() {
                    if q as u32 == me {
                        continue;
                    }
                    if let Some(Reverse((b, _, _))) = pool.peek() {
                        if best.is_none_or(|(_, bb)| *b < bb) {
                            best = Some((q as u32, *b));
                        }
                    }
                }
                best
            }
        }
    }

    fn mark_active(&mut self, proc: u32, now: u64) {
        self.active_tasks[proc as usize] += 1;
        if self.stats.time_all_busy.is_none() && self.active_tasks.iter().all(|&c| c > 0) {
            self.stats.time_all_busy = Some(now);
        }
    }

    /// Start a task on a node: the fetch lead is disk latency plus, for
    /// network acquisitions, the min-seek decision and the transfer.
    fn assign(&mut self, proc: u32, task: u32, node: u32, bound: u64, now: u64, via_net: bool) {
        let lead = if via_net {
            self.cfg.net_latency() + self.cfg.transfer_latency + self.cfg.disk_latency
        } else {
            self.cfg.disk_latency
        };
        self.mark_active(proc, now);
        self.push_event(
            now + lead,
            EvKind::FetchDone {
                proc,
                task,
                node,
                bound,
            },
        );
    }

    fn note_acquisition(&mut self, remote: bool) {
        self.window_total += 1;
        self.window_remote += u64::from(remote);
        if self.cfg.adapt_d && self.window_total >= 32 {
            // "D can be modified at run time, based on the measured
            // communication overhead": too many remote moves → raise D
            // (be stickier locally); almost none → lower it.
            let share = self.window_remote as f64 / self.window_total as f64;
            if share > 0.25 {
                self.d = (self.d.max(1)) * 2;
            } else if share < 0.05 && self.d > 0 {
                self.d /= 2;
            }
            self.window_total = 0;
            self.window_remote = 0;
        }
    }

    /// Free task looks for work: local pool vs the network minimum,
    /// gated by `D`.
    fn try_acquire(&mut self, proc: u32, task: u32, now: u64) {
        if self.halted {
            return;
        }
        let local = self.pools[proc as usize]
            .peek()
            .map(|Reverse((b, _, _))| *b);
        let remote = self.best_remote(proc);
        let go_remote = match (local, remote) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(lb), Some((_, rb))) => rb.saturating_add(self.d) < lb,
        };
        if go_remote {
            if self.net_free_at > now {
                // The priority circuit holds one request per task; grants
                // are issued as the network frees.
                self.net_wait.push((proc, task));
                return;
            }
            let (rp, _) = remote.expect("go_remote implies remote exists");
            let Reverse((bound, _, node)) = self.pools[rp as usize]
                .pop()
                .expect("peeked entry still present");
            self.publish_min(rp);
            self.stats.remote_acquisitions += 1;
            self.stats.net_busy_time += self.cfg.transfer_latency;
            self.net_free_at = now + self.cfg.transfer_latency;
            self.push_event(self.net_free_at, EvKind::NetFree);
            self.note_acquisition(true);
            self.assign(proc, task, node, bound, now, true);
        } else if local.is_some() {
            let Reverse((bound, _, node)) = self.pools[proc as usize]
                .pop()
                .expect("peeked entry still present");
            self.publish_min(proc);
            self.stats.local_acquisitions += 1;
            self.note_acquisition(false);
            self.assign(proc, task, node, bound, now, false);
        } else {
            self.idle.push((proc, task));
        }
    }

    /// Offer work to idle tasks, in priority order (the priority circuit:
    /// lowest processor, then lowest task id, wins).
    fn wake_idle(&mut self, now: u64) {
        loop {
            if self.halted || self.idle.is_empty() {
                return;
            }
            let any_work = self.pools.iter().any(|p| !p.is_empty());
            if !any_work {
                return;
            }
            self.idle.sort_unstable();
            let (proc, task) = self.idle.remove(0);
            let before = self.idle.len();
            self.try_acquire(proc, task, now);
            // If the task re-idled, no progress is possible now.
            if self.idle.len() > before {
                return;
            }
        }
    }

    fn run(&mut self) {
        // The initial query lands on processor 0 (§6).
        self.pool_push(0, 0, TreeSpec::ROOT);
        for p in 0..self.cfg.n_processors {
            for t in 0..self.cfg.tasks_per_processor {
                self.idle.push((p, t));
            }
        }
        self.wake_idle(0);

        let mut now = 0;
        while let Some(Reverse(ev)) = self.events.pop() {
            now = ev.time;
            if self.halted {
                break;
            }
            match ev.kind {
                EvKind::FetchDone {
                    proc,
                    task,
                    node,
                    bound,
                } => {
                    // The processor is a single compute server; tasks
                    // queue FIFO behind it — the scoreboard's job is to
                    // keep it fed, which this models at task granularity.
                    let work = match self.tree.nodes[node as usize].kind {
                        NodeKind::Solution => self.cfg.solution_cost,
                        _ => self.tree.nodes[node as usize].work,
                    };
                    let start = now.max(self.server_free_at[proc as usize]);
                    self.server_free_at[proc as usize] = start + work;
                    self.stats.busy[proc as usize] += work;
                    self.push_event(
                        start + work,
                        EvKind::ComputeDone {
                            proc,
                            task,
                            node,
                            bound,
                        },
                    );
                }
                EvKind::ComputeDone {
                    proc,
                    task,
                    node,
                    bound,
                } => {
                    self.active_tasks[proc as usize] -= 1;
                    let tnode = &self.tree.nodes[node as usize];
                    match tnode.kind {
                        NodeKind::Solution => {
                            self.stats.solutions_found += 1;
                            self.stats.solution_times.push(now);
                            if self.best_bound.is_none_or(|b| bound < b) {
                                self.best_bound = Some(bound);
                                self.prune_pools();
                            }
                            if self
                                .cfg
                                .max_solutions
                                .is_some_and(|m| self.stats.solutions_found >= m)
                            {
                                self.halted = true;
                                self.stats.makespan = now;
                                continue;
                            }
                        }
                        NodeKind::Failure => {}
                        NodeKind::Internal => {
                            self.stats.expansions += 1;
                            let children = tnode.children.clone();
                            for (child, w) in children {
                                self.pool_push(proc, bound + w, child);
                            }
                        }
                    }
                    self.try_acquire(proc, task, now);
                    self.wake_idle(now);
                }
                EvKind::NetFree => {
                    if !self.net_wait.is_empty() {
                        self.net_wait.sort_unstable();
                        let (proc, task) = self.net_wait.remove(0);
                        self.try_acquire(proc, task, now);
                    }
                    self.wake_idle(now);
                }
            }
        }
        if !self.halted {
            self.stats.makespan = now;
        }
        self.stats.final_d = self.d;
        let total_busy: u64 = self.stats.busy.iter().sum();
        self.stats.utilization = if self.stats.makespan == 0 {
            0.0
        } else {
            total_busy as f64 / (self.stats.makespan as f64 * self.cfg.n_processors as f64)
        };
    }
}

/// Simulate the machine executing `tree` under `config`.
pub fn simulate(tree: &TreeSpec, config: &MachineConfig) -> MachineStats {
    assert!(config.n_processors >= 1 && config.tasks_per_processor >= 1);
    tree.validate().expect("workload tree must be well-formed");
    let mut sim = Sim {
        tree,
        cfg: *config,
        d: config.d_threshold,
        events: BinaryHeap::new(),
        seq: 0,
        pools: (0..config.n_processors)
            .map(|_| BinaryHeap::new())
            .collect(),
        pool_seq: 0,
        server_free_at: vec![0; config.n_processors as usize],
        active_tasks: vec![0; config.n_processors as usize],
        idle: Vec::new(),
        net_wait: Vec::new(),
        net_free_at: 0,
        halted: false,
        best_bound: None,
        min_net: MinSeekTree::new(config.n_processors as usize),
        stats: MachineStats {
            busy: vec![0; config.n_processors as usize],
            ..MachineStats::default()
        },
        window_total: 0,
        window_remote: 0,
    };
    sim.run();
    sim.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{planted_tree, PlantedTreeParams, TreeNode, WeightModel};

    fn small_tree() -> TreeSpec {
        planted_tree(&PlantedTreeParams {
            depth: 6,
            branching: 3,
            n_solution_paths: 4,
            weights: WeightModel::Uniform(1),
            work_min: 50,
            work_max: 150,
            seed: 42,
        })
    }

    #[test]
    fn single_processor_visits_whole_tree() {
        let tree = small_tree();
        let stats = simulate(
            &tree,
            &MachineConfig {
                n_processors: 1,
                tasks_per_processor: 1,
                ..MachineConfig::default()
            },
        );
        assert_eq!(stats.solutions_found, tree.n_solutions());
        // Every internal node expanded exactly once.
        let internals = tree
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Internal)
            .count() as u64;
        assert_eq!(stats.expansions, internals);
    }

    #[test]
    fn more_processors_finish_sooner() {
        let tree = small_tree();
        let run = |n| {
            simulate(
                &tree,
                &MachineConfig {
                    n_processors: n,
                    tasks_per_processor: 2,
                    ..MachineConfig::default()
                },
            )
        };
        let t1 = run(1).makespan;
        let t4 = run(4).makespan;
        let t16 = run(16).makespan;
        assert!(t4 < t1, "4 procs {t4} !< 1 proc {t1}");
        assert!(t16 <= t4, "16 procs {t16} !<= 4 procs {t4}");
        // Speedup is bounded by N.
        assert!(t4 * 5 > t1, "speedup beyond N is impossible");
    }

    #[test]
    fn solution_count_invariant_across_configs() {
        let tree = small_tree();
        for n in [1u32, 2, 4, 8] {
            for m in [1u32, 4] {
                let s = simulate(
                    &tree,
                    &MachineConfig {
                        n_processors: n,
                        tasks_per_processor: m,
                        ..MachineConfig::default()
                    },
                );
                assert_eq!(s.solutions_found, tree.n_solutions(), "n={n} m={m}");
            }
        }
    }

    #[test]
    fn startup_is_breadth_first_to_all_processors() {
        let tree = small_tree();
        let s = simulate(
            &tree,
            &MachineConfig {
                n_processors: 8,
                ..MachineConfig::default()
            },
        );
        let t = s.time_all_busy.expect("all processors eventually busy");
        // All busy well before the end of the run.
        assert!(t < s.makespan / 2, "all-busy at {t} of {}", s.makespan);
        assert!(s.remote_acquisitions >= 7, "startup distributes via net");
    }

    #[test]
    fn idle_order_grants_the_lowest_processor() {
        // One chain, the root, which both idle processors can take:
        // processor 0 from its own pool, processor 1 through the network.
        // The priority circuit's order hands it to processor 0.
        let tree = TreeSpec {
            nodes: vec![TreeNode {
                kind: NodeKind::Solution,
                work: 0,
                children: Vec::new(),
            }],
        };
        let cfg = MachineConfig {
            n_processors: 2,
            tasks_per_processor: 1,
            ..MachineConfig::default()
        };
        let s = simulate(&tree, &cfg);
        assert_eq!(s.busy, vec![cfg.solution_cost, 0]);
        assert_eq!((s.local_acquisitions, s.remote_acquisitions), (1, 0));
    }

    #[test]
    fn zero_d_transfers_more_than_huge_d() {
        // Random weights so chain bounds genuinely differ — with uniform
        // weights bounds tie constantly and D never gates anything.
        let tree = planted_tree(&PlantedTreeParams {
            depth: 6,
            branching: 3,
            n_solution_paths: 4,
            weights: WeightModel::Random { lo: 1, hi: 40 },
            work_min: 50,
            work_max: 150,
            seed: 42,
        });
        let run = |d| {
            simulate(
                &tree,
                &MachineConfig {
                    n_processors: 4,
                    d_threshold: d,
                    ..MachineConfig::default()
                },
            )
        };
        let eager = run(0);
        let sticky = run(u64::MAX / 2);
        assert!(
            eager.remote_acquisitions > sticky.remote_acquisitions,
            "D=0 {} !> D=max {}",
            eager.remote_acquisitions,
            sticky.remote_acquisitions
        );
        // With a huge D, only starving processors go remote.
        assert!(sticky.remote_acquisitions >= 3, "startup still distributes");
    }

    #[test]
    fn max_solutions_halts_early() {
        let tree = small_tree();
        let all = simulate(&tree, &MachineConfig::default());
        let one = simulate(
            &tree,
            &MachineConfig {
                max_solutions: Some(1),
                ..MachineConfig::default()
            },
        );
        assert_eq!(one.solutions_found, 1);
        assert!(one.makespan < all.makespan);
    }

    #[test]
    fn trained_weights_find_first_solution_faster() {
        let mk = |weights| {
            planted_tree(&PlantedTreeParams {
                depth: 7,
                branching: 3,
                n_solution_paths: 1,
                weights,
                work_min: 100,
                work_max: 100,
                seed: 9,
            })
        };
        let uniform = mk(WeightModel::Uniform(5));
        let trained = mk(WeightModel::Trained {
            on_path: 0,
            off_path: 10,
        });
        let cfg = MachineConfig {
            n_processors: 4,
            max_solutions: Some(1),
            ..MachineConfig::default()
        };
        let tu = simulate(&uniform, &cfg).makespan;
        let tt = simulate(&trained, &cfg).makespan;
        assert!(
            tt < tu / 2,
            "trained weights {tt} should beat uniform {tu} decisively"
        );
    }

    #[test]
    fn utilization_is_sane() {
        let tree = small_tree();
        let s = simulate(&tree, &MachineConfig::default());
        assert!(s.utilization > 0.0 && s.utilization <= 1.0);
        assert_eq!(s.busy.len(), 4);
    }

    #[test]
    fn adaptive_d_changes_d() {
        let tree = small_tree();
        let s = simulate(
            &tree,
            &MachineConfig {
                n_processors: 8,
                d_threshold: 1,
                adapt_d: true,
                transfer_latency: 500, // expensive network
                ..MachineConfig::default()
            },
        );
        // With such an expensive network, adaptation should have raised D.
        assert!(s.final_d > 1, "final D {}", s.final_d);
    }

    #[test]
    fn determinism() {
        let tree = small_tree();
        let a = simulate(&tree, &MachineConfig::default());
        let b = simulate(&tree, &MachineConfig::default());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.remote_acquisitions, b.remote_acquisitions);
        assert_eq!(a.solution_times, b.solution_times);
    }

    #[test]
    fn incumbent_pruning_keeps_solutions_and_cuts_work() {
        // Trained weights: every solution sits at bound 0, dead branches
        // cost 10 per arc. With slack 0, pruning must keep all solutions
        // while skipping almost the entire off-path tree.
        let tree = planted_tree(&PlantedTreeParams {
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
        let unpruned = simulate(&tree, &MachineConfig::default());
        let pruned = simulate(
            &tree,
            &MachineConfig {
                prune_slack: Some(0),
                ..MachineConfig::default()
            },
        );
        assert_eq!(pruned.solutions_found, tree.n_solutions());
        assert_eq!(pruned.solutions_found, unpruned.solutions_found);
        assert!(pruned.pruned > 0);
        assert!(
            pruned.makespan * 4 < unpruned.makespan,
            "pruned {} vs unpruned {}",
            pruned.makespan,
            unpruned.makespan
        );
    }

    #[test]
    fn pruning_with_huge_slack_is_a_no_op() {
        let tree = small_tree();
        let a = simulate(&tree, &MachineConfig::default());
        let b = simulate(
            &tree,
            &MachineConfig {
                prune_slack: Some(u64::MAX / 2),
                ..MachineConfig::default()
            },
        );
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(b.pruned, 0);
    }

    #[test]
    fn more_tasks_hide_disk_latency() {
        let tree = small_tree();
        let run = |m| {
            simulate(
                &tree,
                &MachineConfig {
                    n_processors: 2,
                    tasks_per_processor: m,
                    disk_latency: 1_000, // slow disk dominates
                    ..MachineConfig::default()
                },
            )
        };
        let m1 = run(1).makespan;
        let m4 = run(4).makespan;
        assert!(
            m4 * 2 < m1,
            "4 tasks ({m4}) should hide disk latency vs 1 task ({m1})"
        );
    }
}
