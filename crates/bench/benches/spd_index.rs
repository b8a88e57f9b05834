//! First-argument bitmap index microbenchmarks: the same best-first
//! engine run through the same paged store with the index off and on
//! (the end-to-end win), plus the two costs the index itself adds —
//! building the bitmap tree from a database (paid once per store open
//! and copy-on-write per MVCC commit) and resolving one bound-key
//! lookup (paid per subgoal expansion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use blog_bench::spd_exp::{engine_run_through, t6b_geometry, t6b_total_tracks, traced_workload};
use blog_logic::{Bindings, ClauseSource, Term};
use blog_spd::{
    BitmapClauseIndex, CommitMode, CostModel, IndexPolicy, MvccClauseStore, PagedStoreConfig,
    PolicyKind,
};

fn bench_index(c: &mut Criterion) {
    let (program, _, _) = traced_workload();
    let geometry = t6b_geometry(program.db.len());
    let total_tracks = t6b_total_tracks(program.db.len());
    let capacity_tracks = (total_tracks / 2).max(1);
    let cfg = |index: IndexPolicy| PagedStoreConfig {
        geometry,
        cost: CostModel::default(),
        capacity_tracks,
        policy: PolicyKind::Lru,
        index,
        fault: None,
    };
    // A ground goal with a bound first argument: any fact's own head
    // (facts are ground, so the key is bound without any bindings).
    let bound_goal: Term = program
        .db
        .clauses()
        .iter()
        .find(|cl| cl.body.is_empty() && matches!(cl.head, Term::Struct(_, _)))
        .expect("workload has a ground fact")
        .head
        .clone();

    let mut group = c.benchmark_group("spd_index");
    group.sample_size(20);
    for index in [IndexPolicy::None, IndexPolicy::FirstArg] {
        group.bench_with_input(
            BenchmarkId::new("engine_through_store", index.name()),
            &index,
            |b, &index| {
                b.iter_batched(
                    || MvccClauseStore::new(&program.db, cfg(index), CommitMode::Mvcc),
                    |paged| black_box(engine_run_through(&paged.begin_read(), &program)),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.bench_function("build_from_db", |b| {
        b.iter(|| black_box(BitmapClauseIndex::from_db(&program.db)))
    });
    let store = MvccClauseStore::new(&program.db, cfg(IndexPolicy::FirstArg), CommitMode::Mvcc);
    let snap = store.begin_read();
    let bindings = Bindings::new();
    group.bench_function("bound_lookup", |b| {
        b.iter(|| black_box(snap.try_candidate_clauses(&bound_goal, &bindings)))
    });
    group.finish();

    // Print the candidate-traffic picture once so `cargo bench` output
    // carries the pruning numbers alongside the timings.
    for index in [IndexPolicy::None, IndexPolicy::FirstArg] {
        let paged = MvccClauseStore::new(&program.db, cfg(index), CommitMode::Mvcc);
        let (_, _, s) = engine_run_through(&paged.begin_read(), &program);
        println!(
            "spd_index {:>9} @ {capacity_tracks:>2}/{total_tracks} tracks: accesses {} \
             misses {} index_hits {} pruned {} scanned {}",
            index.name(),
            s.accesses,
            s.misses,
            s.index_hits,
            s.index_prunes,
            s.candidates_scanned,
        );
    }
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
