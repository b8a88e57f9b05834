//! T6 as a Criterion bench: semantic-page requests and trace replay at
//! different page distances and SP modes — plus the *live* paged clause
//! store, where the best-first engine resolves every clause through an
//! LRU track cache and the numbers reflect real hit/miss/eviction
//! behavior rather than simulated ticks alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use blog_bench::spd_exp::{engine_run_through, t6b_geometry, t6b_total_tracks, traced_workload};
use blog_logic::{ClauseId, ClauseSource};
use blog_spd::{
    build_spd_from_db, CommitMode, CostModel, Geometry, IndexPolicy, MvccClauseStore, PageRequest,
    PagedStoreConfig, Pager, PolicyKind, SpMode,
};

fn bench_spd(c: &mut Criterion) {
    let (program, trained, trace) = traced_workload();
    let geometry = Geometry {
        n_sps: 4,
        n_cylinders: 32,
        blocks_per_track: 4,
    };

    let mut group = c.benchmark_group("spd");
    group.sample_size(20);
    for mode in [SpMode::Simd, SpMode::Mimd] {
        for distance in [1u32, 3] {
            group.bench_with_input(
                BenchmarkId::new(format!("page_{mode:?}"), distance),
                &distance,
                |b, &distance| {
                    b.iter_batched(
                        || {
                            build_spd_from_db(
                                &program.db,
                                &trained,
                                geometry,
                                CostModel::default(),
                                mode,
                            )
                        },
                        |(mut spd, layout)| {
                            black_box(spd.semantic_page(&PageRequest {
                                roots: vec![layout.block_of(ClauseId(0))],
                                distance,
                                name: None,
                                weight_max: None,
                            }))
                        },
                        criterion::BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    group.bench_function("replay_trace_d2", |b| {
        b.iter_batched(
            || {
                build_spd_from_db(
                    &program.db,
                    &trained,
                    geometry,
                    CostModel::default(),
                    SpMode::Simd,
                )
            },
            |(mut spd, layout)| {
                let mut pager = Pager::new(&mut spd, &layout, 2);
                black_box(pager.replay(&trace))
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The live storage path: a full best-first search resolving clauses
/// through the LRU-paged store, swept over cache capacities. Contrast
/// with `bench_spd`, which replays canned traces against the simulator.
fn bench_paged_store(c: &mut Criterion) {
    let (program, _, trace) = traced_workload();
    let geometry = t6b_geometry(program.db.len());

    let total_tracks = t6b_total_tracks(program.db.len());
    // One capacity on each side of the LRU cliff, plus the degenerate
    // single-track cache (see run_t6b in blog-bench for the full sweep).
    // Guard against tiny workloads: no zero capacities, no duplicates.
    let mut capacities = vec![1usize, (total_tracks / 2).max(1), total_tracks + 1];
    capacities.dedup();

    let mut group = c.benchmark_group("paged_store");
    group.sample_size(20);
    for capacity_tracks in capacities.iter().copied() {
        let cfg = PagedStoreConfig {
            geometry,
            cost: CostModel::default(),
            capacity_tracks,
            policy: PolicyKind::Lru,
            index: IndexPolicy::None,
            fault: None,
        };
        group.bench_with_input(
            BenchmarkId::new("engine_through_cache", capacity_tracks),
            &capacity_tracks,
            |b, _| {
                b.iter_batched(
                    || MvccClauseStore::new(&program.db, cfg.clone(), CommitMode::Mvcc),
                    |paged| black_box(engine_run_through(&paged.begin_read(), &program)),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("trace_replay", capacity_tracks),
            &capacity_tracks,
            |b, _| {
                b.iter_batched(
                    || MvccClauseStore::new(&program.db, cfg.clone(), CommitMode::Mvcc),
                    |paged| {
                        let snap = paged.begin_read();
                        for &cid in &trace {
                            snap.try_fetch_clause(cid).expect("fault-free store");
                        }
                        black_box(paged.stats())
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();

    // Print the cache behavior once so `cargo bench` output carries the
    // hit/miss/eviction numbers alongside the timings.
    for capacity_tracks in capacities {
        let paged = MvccClauseStore::new(
            &program.db,
            PagedStoreConfig {
                geometry,
                cost: CostModel::default(),
                capacity_tracks,
                policy: PolicyKind::Lru,
                index: IndexPolicy::None,
                fault: None,
            },
            CommitMode::Mvcc,
        );
        let (_, _, s) = engine_run_through(&paged.begin_read(), &program);
        println!(
            "paged_store capacity={capacity_tracks:>2}: accesses {} hits {} misses {} \
             evictions {} fault-ticks {} (hit rate {:.1}%)",
            s.accesses,
            s.hits,
            s.misses,
            s.evictions,
            s.fault_ticks,
            100.0 * s.hit_rate()
        );
    }
}

criterion_group!(benches, bench_spd, bench_paged_store);
criterion_main!(benches);
