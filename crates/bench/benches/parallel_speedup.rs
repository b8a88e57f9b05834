//! T4/T5 as Criterion benches: the machine simulator across processor
//! counts and D values, and the real-thread executor across worker
//! counts (simulation cost and scheduling overhead, respectively).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use blog_core::weight::{WeightParams, WeightStore};
use blog_machine::machine::{simulate, MachineConfig};
use blog_machine::tree::{planted_tree, PlantedTreeParams, WeightModel};
use blog_parallel::{par_best_first_with, ParallelConfig};
use blog_workloads::{queens_program, QueensParams};

fn bench_machine(c: &mut Criterion) {
    let tree = planted_tree(&PlantedTreeParams {
        depth: 7,
        branching: 3,
        n_solution_paths: 4,
        weights: WeightModel::Random { lo: 1, hi: 30 },
        work_min: 80,
        work_max: 160,
        seed: 2024,
    });
    let mut group = c.benchmark_group("machine_sim");
    group.sample_size(20);
    for n in [1u32, 4, 16] {
        group.bench_with_input(BenchmarkId::new("procs", n), &n, |b, &n| {
            b.iter(|| {
                black_box(simulate(
                    &tree,
                    &MachineConfig {
                        n_processors: n,
                        ..MachineConfig::default()
                    },
                ))
            })
        });
    }
    for d in [0u64, 20, u64::MAX / 2] {
        group.bench_with_input(BenchmarkId::new("d_threshold", d), &d, |b, &d| {
            b.iter(|| {
                black_box(simulate(
                    &tree,
                    &MachineConfig {
                        n_processors: 8,
                        d_threshold: d,
                        ..MachineConfig::default()
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_threads(c: &mut Criterion) {
    let (program, _) = queens_program(&QueensParams { n: 5 });
    let query = &program.queries[0];
    let weights = WeightStore::new(WeightParams::default());
    let mut group = c.benchmark_group("or_parallel_threads");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("queens5_all", workers),
            &workers,
            |b, &workers| {
                let cfg = ParallelConfig {
                    n_workers: workers,
                    learn: false,
                    ..ParallelConfig::default()
                };
                b.iter(|| black_box(par_best_first_with(&program.db, query, &weights, &cfg)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_machine, bench_threads);
criterion_main!(benches);
