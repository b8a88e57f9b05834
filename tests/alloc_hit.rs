//! Allocations of a served answer-cache hit.
//!
//! A hit reads the query text once, into terms resolved against the
//! pinned symbol table, derives the cache key from those terms, and
//! answers with the cache's own copy of the solution set. So reading a
//! query costs a fixed handful of allocations, and a warm hit served
//! through `QueryServer` allocates a small constant however many
//! solutions it returns.
//!
//! A counting global allocator meters allocation calls twice: per thread
//! (the parse and key counts repeat exactly) and process-wide (a served
//! request runs on a pool thread). The process-wide count also sees
//! whatever else the process does, so the server test runs alone (one
//! lock) and reads a per-request slope over many hits, not one request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use b_log::logic::{canonical_query, parse_program, parse_query_symbols};
use b_log::serve::tuning::working_set_store_config;
use b_log::serve::{
    CacheConfig, CacheMode, Outcome, QueryRequest, QueryServer, ServeConfig, ServedFrom,
};

thread_local! {
    /// Allocation calls made by this thread. `const`-initialized and
    /// without a destructor, so reading it from inside the allocator
    /// neither allocates nor outlives the thread's storage.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls made by every thread.
static ALLOCATED_ANYWHERE: AtomicU64 = AtomicU64::new(0);

/// Held by each test, so no test's allocations land in another's
/// process-wide count.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Counting;

fn count() {
    ALLOCATED_ANYWHERE.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations are nobody's business.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` and an atomic, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATED.get();
    std::hint::black_box(f());
    ALLOCATED.get() - before
}

/// Allocation calls every thread makes while running `f`, and its result.
fn allocations_anywhere<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATED_ANYWHERE.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED_ANYWHERE.load(Ordering::Relaxed) - before, out)
}

#[test]
fn reading_a_query_against_a_frozen_table_allocates_a_pinned_count() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let p = parse_program("t0_gf(p1_1, p2_1). t0_gf(X, Y) :- t0_f(X, Z), t0_f(Z, Y).").unwrap();
    let symbols = p.db.symbols();
    let text = "t0_gf(p1_1, G)";
    let read = || parse_query_symbols(symbols, text).unwrap();
    read();
    // The reader's term stack, the goal vector, the argument slice, the
    // variable list, the name list and the one name.
    assert_eq!(allocations(read), 6);
    let query = read();
    // The numbering vector and the key text.
    assert_eq!(allocations(|| canonical_query(symbols, &query)), 2);
    // Nothing more for a longer text of the same shape: tokens borrow
    // the text, and names resolve by lookup.
    let nested = "t0_gf(p1_1, G), t0_gf(G, H)";
    let read = || parse_query_symbols(symbols, nested).unwrap();
    read();
    // Two argument slices and two names where the text above has one.
    assert_eq!(allocations(read), 8);
}

#[test]
fn a_warm_cache_hit_shares_the_cached_answer_and_allocates_a_small_constant() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // 64 solutions: a hit that copied the answer would allocate at least
    // one string per solution.
    const SOLUTIONS: usize = 64;
    let facts: String = (0..SOLUTIONS).map(|i| format!("n(v{i}). ")).collect();
    let p = parse_program(&facts).unwrap();
    let server = QueryServer::new(
        &p.db,
        working_set_store_config(p.db.len()),
        ServeConfig {
            n_pools: 1,
            cache: CacheConfig {
                mode: CacheMode::Precise,
                ..CacheConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let batch = |n: usize| {
        (0..n)
            .map(|_| QueryRequest::new(1, "n(X)"))
            .collect::<Vec<_>>()
    };
    let fill = server.serve(batch(1));
    assert_eq!(fill.responses[0].served_from, ServedFrom::Engine);
    assert_eq!(fill.responses[0].outcome.solutions().len(), SOLUTIONS);
    let Outcome::Completed { solutions: filled } = &fill.responses[0].outcome else {
        panic!("the fill completes")
    };

    // Each batch is served once unmeasured, so every buffer the serve
    // loop grows has its steady-state size.
    const HITS: usize = 256;
    let (small, large) = (batch(1), batch(1 + HITS));
    server.serve(small.clone());
    server.serve(large.clone());
    let (one, _) = allocations_anywhere(|| server.serve(small));
    let (many, report) = allocations_anywhere(|| server.serve(large));
    for r in &report.responses {
        assert_eq!(r.served_from, ServedFrom::Cache);
        let Outcome::Completed { solutions } = &r.outcome else {
            panic!("a hit completes")
        };
        assert!(
            Arc::ptr_eq(solutions, filled),
            "the hit shares the filled answer"
        );
    }
    let per_hit = (many - one) as f64 / HITS as f64;
    println!("allocations per warm hit: {per_hit:.2}");
    assert!(per_hit <= 16.0, "{per_hit:.2} allocations per warm hit");
}
