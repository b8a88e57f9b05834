//! Replacement-policy microbenchmarks for the paged clause store: the
//! same best-first search and the same recorded trace, served through
//! each [`PolicyKind`] at a mid-range (sub-working-set) capacity — the
//! regime where T6b showed LRU flatlining and where policy choice is
//! supposed to matter. Timings show what the policy's bookkeeping costs;
//! the printed hit/miss/eviction counts show what it buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use blog_bench::spd_exp::{engine_run_through, t6b_geometry, t6b_total_tracks, traced_workload};
use blog_logic::ClauseSource;
use blog_spd::{
    CommitMode, CostModel, IndexPolicy, MvccClauseStore, PagedStoreConfig, PolicyKind,
};

fn bench_policies(c: &mut Criterion) {
    let (program, _, trace) = traced_workload();
    let geometry = t6b_geometry(program.db.len());
    let total_tracks = t6b_total_tracks(program.db.len());
    // Mid-range capacity: half the working set, the heart of the cliff.
    let capacity_tracks = (total_tracks / 2).max(1);

    let mut group = c.benchmark_group("spd_policy");
    group.sample_size(20);
    for policy in PolicyKind::CACHE_SWEEP {
        // Baseline selection: this group measures replacement policies,
        // so the candidate stream must not depend on the index.
        let cfg = PagedStoreConfig {
            geometry,
            cost: CostModel::default(),
            capacity_tracks,
            policy,
            index: IndexPolicy::None,
            fault: None,
        };
        group.bench_with_input(
            BenchmarkId::new("engine_through_cache", policy.name()),
            &policy,
            |b, _| {
                b.iter_batched(
                    || MvccClauseStore::new(&program.db, cfg.clone(), CommitMode::Mvcc),
                    |paged| black_box(engine_run_through(&paged.begin_read(), &program)),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("trace_replay", policy.name()),
            &policy,
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

    // Print each policy's cache behavior once so `cargo bench` output
    // carries the locality numbers alongside the timings.
    for policy in PolicyKind::CACHE_SWEEP {
        let paged = MvccClauseStore::new(
            &program.db,
            PagedStoreConfig {
                geometry,
                cost: CostModel::default(),
                capacity_tracks,
                policy,
                index: IndexPolicy::None,
                fault: None,
            },
            CommitMode::Mvcc,
        );
        let (_, _, s) = engine_run_through(&paged.begin_read(), &program);
        println!(
            "spd_policy {:>5} @ {capacity_tracks:>2}/{total_tracks} tracks: accesses {} \
             hits {} misses {} evictions {} fault-ticks {} (hit rate {:.1}%)",
            policy.name(),
            s.accesses,
            s.hits,
            s.misses,
            s.evictions,
            s.fault_ticks,
            100.0 * s.hit_rate()
        );
    }
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
