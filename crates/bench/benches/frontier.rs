//! The `frontier` group: push/acquire throughput of the sharded chain
//! store under 1/4/8 worker threads, on synthetic chains (no
//! unification, so the store itself is the measured object).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, Ordering};

use blog_core::chain::Chain;
use blog_core::weight::Bound;
use blog_logic::SearchNode;
use blog_parallel::{Frontier, FrontierPolicy};

/// A synthetic chain at the given bound.
fn chain(bound: u64) -> Chain {
    let mut c = Chain::root(SearchNode::root(&[]));
    c.bound = Bound(bound);
    c
}

/// Churn `ops` chains through a frontier with `workers` threads: each
/// acquisition fans out three children until the op budget is spent, then
/// the frontier drains. Exercises push batching, the D/published-min
/// comparator, steals, and the termination protocol.
fn churn(workers: usize, ops: i64) -> u64 {
    let f = Frontier::new(workers, FrontierPolicy::Sharded { d: 512 }, chain(0));
    // Signed so concurrent decrements past zero go negative instead of
    // wrapping (a wrapped unsigned budget would fan out forever).
    let budget = AtomicI64::new(ops);
    let done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                let budget = &budget;
                scope.spawn(move || {
                    let mut processed = 0u64;
                    let mut buf: Vec<Chain> = Vec::new();
                    while let Some(c) = f.acquire(w) {
                        processed += 1;
                        if budget.fetch_sub(3, Ordering::Relaxed) >= 3 {
                            let b = c.bound.0 + 1;
                            buf.extend([chain(b), chain(b + 1), chain(b + 2)]);
                            f.push_children_from(w, &mut buf);
                        }
                        f.finish(w);
                    }
                    processed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    done
}

fn bench_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier");
    group.sample_size(10);
    const OPS: i64 = 12_000;
    for workers in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("push_acquire/sharded", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(churn(workers, OPS))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_frontier);
criterion_main!(benches);
