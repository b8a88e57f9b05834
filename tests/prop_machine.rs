//! Property tests for the machine DES and the SPD simulator: the
//! simulators must conserve work and solutions across every
//! configuration, and semantic paging must equal a reference graph BFS.

use std::collections::{HashMap, HashSet, VecDeque};

use b_log::machine::machine::{simulate, MachineConfig};
use b_log::machine::tree::{planted_tree, NodeKind, PlantedTreeParams, WeightModel};
use b_log::spd::{Block, BlockId, CostModel, Geometry, PageRequest, SpMode, SpdArray};
use proptest::prelude::*;

fn arb_tree_params() -> impl Strategy<Value = PlantedTreeParams> {
    (
        2u32..5,      // depth
        1u32..4,      // branching
        0u32..4,      // solution paths
        any::<u64>(), // seed
        prop_oneof![
            (1u64..10).prop_map(WeightModel::Uniform),
            ((0u64..5), (5u64..20)).prop_map(|(a, b)| WeightModel::Random { lo: a, hi: b }),
        ],
    )
        .prop_map(
            |(depth, branching, paths, seed, weights)| PlantedTreeParams {
                depth,
                branching,
                n_solution_paths: paths,
                weights,
                work_min: 10,
                work_max: 50,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn machine_conserves_solutions_and_expansions(
        params in arb_tree_params(),
        n_procs in 1u32..6,
        n_tasks in 1u32..4,
        d in prop_oneof![Just(0u64), Just(5), Just(1_000_000)],
    ) {
        let tree = planted_tree(&params);
        tree.validate().unwrap();
        let stats = simulate(&tree, &MachineConfig {
            n_processors: n_procs,
            tasks_per_processor: n_tasks,
            d_threshold: d,
            ..MachineConfig::default()
        });
        prop_assert_eq!(stats.solutions_found, tree.n_solutions());
        let internals = tree
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Internal)
            .count() as u64;
        prop_assert_eq!(stats.expansions, internals);
        // Makespan is at least the critical path's work and at most the
        // serial sum plus overheads.
        prop_assert!(stats.makespan > 0);
        prop_assert!(stats.utilization <= 1.0);
    }

    #[test]
    fn machine_is_deterministic(params in arb_tree_params(), n_procs in 1u32..6) {
        let tree = planted_tree(&params);
        let cfg = MachineConfig {
            n_processors: n_procs,
            ..MachineConfig::default()
        };
        let a = simulate(&tree, &cfg);
        let b = simulate(&tree, &cfg);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.solution_times, b.solution_times);
        prop_assert_eq!(a.remote_acquisitions, b.remote_acquisitions);
    }

    #[test]
    fn adding_processors_never_loses_solutions(params in arb_tree_params()) {
        let tree = planted_tree(&params);
        let counts: Vec<usize> = [1u32, 2, 4, 8]
            .iter()
            .map(|&n| {
                simulate(&tree, &MachineConfig {
                    n_processors: n,
                    ..MachineConfig::default()
                })
                .solutions_found
            })
            .collect();
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }
}

// ---------------------------------------------------------------------
// SPD semantic paging vs reference BFS
// ---------------------------------------------------------------------

/// A random pointer graph over `n` blocks.
#[derive(Clone, Debug)]
struct GraphSpec {
    n: u32,
    edges: Vec<(u32, u32, u32)>, // (from, to, weight)
    roots: Vec<u32>,
    distance: u32,
    weight_max: Option<u32>,
}

fn arb_graph() -> impl Strategy<Value = GraphSpec> {
    (3u32..20).prop_flat_map(|n| {
        (
            prop::collection::vec((0..n, 0..n, 0u32..100), 0..40),
            prop::collection::vec(0..n, 1..3),
            0u32..5,
            prop_oneof![Just(None), (0u32..100).prop_map(Some)],
        )
            .prop_map(move |(edges, roots, distance, weight_max)| GraphSpec {
                n,
                edges,
                roots,
                distance,
                weight_max,
            })
    })
}

fn build_spd(spec: &GraphSpec, mode: SpMode) -> (SpdArray, Vec<BlockId>) {
    let mut spd = SpdArray::new(
        Geometry {
            n_sps: 2,
            n_cylinders: 8,
            blocks_per_track: 2,
        },
        CostModel::default(),
        mode,
    );
    let ids: Vec<BlockId> = (0..spec.n).map(|_| spd.add_block(Block::new(2))).collect();
    for &(f, t, w) in &spec.edges {
        spd.add_pointer(ids[f as usize], 0, ids[t as usize], w);
    }
    (spd, ids)
}

/// Reference: multi-source BFS with hop limit, skipping heavy edges.
fn reference_reachable(spec: &GraphSpec) -> HashSet<u32> {
    let mut adj: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
    for &(f, t, w) in &spec.edges {
        adj.entry(f).or_default().push((t, w));
    }
    let mut dist: HashMap<u32, u32> = HashMap::new();
    let mut queue = VecDeque::new();
    for &r in &spec.roots {
        dist.entry(r).or_insert(0);
        queue.push_back(r);
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        if du >= spec.distance {
            continue;
        }
        for &(v, w) in adj.get(&u).map(Vec::as_slice).unwrap_or(&[]) {
            if spec.weight_max.is_some_and(|m| w > m) {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist.into_keys().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn semantic_page_equals_reference_bfs(spec in arb_graph(), simd in any::<bool>()) {
        let mode = if simd { SpMode::Simd } else { SpMode::Mimd };
        let (mut spd, ids) = build_spd(&spec, mode);
        let result = spd.semantic_page(&PageRequest {
            roots: spec.roots.iter().map(|&r| ids[r as usize]).collect(),
            distance: spec.distance,
            name: None,
            weight_max: spec.weight_max,
        });
        let got: HashSet<u32> = result.blocks.iter().map(|b| b.0).collect();
        let want = reference_reachable(&spec);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn paging_twice_is_idempotent_on_contents(spec in arb_graph()) {
        let (mut spd, ids) = build_spd(&spec, SpMode::Simd);
        let req = PageRequest {
            roots: spec.roots.iter().map(|&r| ids[r as usize]).collect(),
            distance: spec.distance,
            name: None,
            weight_max: spec.weight_max,
        };
        let a: HashSet<BlockId> = spd.semantic_page(&req).blocks.into_iter().collect();
        spd.clear_marks();
        let b: HashSet<BlockId> = spd.semantic_page(&req).blocks.into_iter().collect();
        prop_assert_eq!(a, b);
    }
}
