//! What a snapshot and a transaction allocate must not grow with the
//! store.
//!
//! A counting global allocator meters the calling thread, so the numbers
//! repeat exactly and nothing here reads a clock:
//!
//! - `begin_read()` + one fetch + drop allocates the same calls and bytes
//!   on a 1 k-track and a 64 k-track store — pinning a version sets
//!   nothing up per track;
//! - `begin_write()` + one `assert_text` with a new constant + `commit()`
//!   allocates less than twice as much on a 64 k-clause base as on a
//!   2 k-clause base holding the asserted predicate at the same size — a
//!   transaction copies the pages, index segments and symbol shards it
//!   touches, plus the page table's top level (one pointer per 64
//!   tracks), never the database.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use blog_logic::{parse_program, ClauseId, ClauseSource};
use blog_spd::{CommitMode, Geometry, MvccClauseStore, PagedStoreConfig};

thread_local! {
    /// `(calls, bytes)` allocated by this thread. `const`-initialized and
    /// without a destructor, so reading it from inside the allocator
    /// neither allocates nor outlives the thread's storage.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations are nobody's business.
    let _ = ALLOCATED.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(calls, bytes)` this thread allocates while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let before = ALLOCATED.get();
    std::hint::black_box(f());
    let after = ALLOCATED.get();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_snapshot_allocates_the_same_on_1k_and_64k_tracks() {
    let p = parse_program("f(a,b). f(b,c). f(c,d). g(X) :- f(X,Y).").unwrap();
    let cycle_on = |n_cylinders: u32| {
        let cfg = PagedStoreConfig {
            geometry: Geometry {
                n_sps: 4,
                n_cylinders,
                blocks_per_track: 1,
            },
            ..PagedStoreConfig::default()
        };
        let store = MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc);
        let cycle = || {
            let snap = store.begin_read().for_pool(0);
            snap.try_fetch_clause(ClauseId(2)).unwrap().n_vars
        };
        // The first cycle faults the track in and grows the pool's
        // counters; the second is the steady state.
        (allocated_by(cycle), allocated_by(cycle))
    };
    let small = cycle_on(256);
    let large = cycle_on(16_384);
    assert_eq!(small, large, "(first, steady) cycle on 1 k vs 64 k tracks");
    assert_eq!(small.1, (0, 0), "a warm snapshot cycle allocates nothing");
}

/// `n_clauses` facts over 64-clause predicates `p0, p1, …` sharing one
/// 128-name vocabulary, then a 32-fact `hot/2`.
fn base(n_clauses: usize) -> String {
    let mut text = String::new();
    for i in 0..n_clauses {
        writeln!(text, "p{}(k{}, v{}).", i / 64, i % 64, (i * 7) % 64).unwrap();
    }
    for i in 0..32 {
        writeln!(text, "hot(k{i}, v{i}).").unwrap();
    }
    text
}

#[test]
fn a_transaction_allocates_alike_on_2k_and_64k_clauses() {
    let txn_on = |n_clauses: usize| {
        let p = parse_program(&base(n_clauses)).unwrap();
        let blocks = p.db.len() as u32 + 64;
        let cfg = PagedStoreConfig {
            geometry: Geometry {
                n_sps: 4,
                n_cylinders: blocks.div_ceil(4 * 8),
                blocks_per_track: 8,
            },
            ..PagedStoreConfig::default()
        };
        let store = MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc);
        let txn = |fact: &'static str| {
            let mut txn = store.begin_write();
            txn.assert_text(fact).unwrap();
            txn.commit()
        };
        // The measured transaction starts, like every one but a store's
        // first, from a version an earlier commit built.
        assert_eq!(txn("hot(new0, v0)."), 1);
        let measured = allocated_by(|| assert_eq!(txn("hot(new1, v1)."), 2));
        assert_eq!(store.stash_depth(), 0);
        measured
    };
    let (small_calls, small_bytes) = txn_on(2_048);
    let (large_calls, large_bytes) = txn_on(65_536);
    assert!(
        large_calls < 2 * small_calls && small_calls < 2 * large_calls,
        "allocation calls: {small_calls} on 2 k clauses, {large_calls} on 64 k"
    );
    assert!(
        large_bytes < 2 * small_bytes && small_bytes < 2 * large_bytes,
        "allocated bytes: {small_bytes} on 2 k clauses, {large_bytes} on 64 k"
    );
}
