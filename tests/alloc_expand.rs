//! Allocations per expanded node of a served best-first search.
//!
//! A node expansion should allocate what its children keep — their
//! binding frames, goal cells and renamed body goals — and nothing else:
//! no trail, delta or children vector of its own (the search loop owns
//! and reuses those) and, when nothing reads a chain's arcs (`learn:
//! false`, no pop trace), no chain link. A counting global allocator
//! meters the calling thread, so these counts repeat exactly and nothing
//! here reads a clock. Each search runs once unmeasured first, so the
//! track cache holds the whole base and the measured run is the steady
//! state a serving pool sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use b_log::core::engine::{best_first_with, BestFirstConfig};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::{ClauseSource, Program};
use b_log::serve::tuning::working_set_store_config;
use b_log::spd::{CommitMode, MvccClauseStore};
use b_log::workloads::{
    dag_reach_program, mapcolor_program, queens_program, DagParams, MapColorParams, QueensParams,
};

thread_local! {
    /// Allocation calls made by this thread. `const`-initialized and
    /// without a destructor, so reading it from inside the allocator
    /// neither allocates nor outlives the thread's storage.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations are nobody's business.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` and never allocates.
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

/// The search-base programs of the benchmark's `search_*` workloads,
/// each with its own query.
fn search_base() -> Vec<(&'static str, Program)> {
    let dag = DagParams {
        layers: 6,
        width: 4,
        density: 0.5,
        seed: 1,
    };
    let colours = MapColorParams {
        rows: 3,
        cols: 3,
        colors: 3,
    };
    vec![
        ("queens 5", queens_program(&QueensParams { n: 5 }).0),
        ("mapcolor 3x3x3", mapcolor_program(&colours).0),
        ("dag 6x4", dag_reach_program(&dag).0),
    ]
}

/// Allocation calls per expanded node of a second, served-style search
/// (`learn: false`, no trace) of `p`'s query over `source`.
fn calls_per_node<S: ClauseSource + ?Sized>(source: impl Fn() -> Box<S>, p: &Program) -> f64 {
    let weights = WeightStore::new(WeightParams::default());
    let config = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let search = || {
        let source = source();
        let mut overlay = HashMap::new();
        let mut view = WeightView::new(&mut overlay, &weights);
        best_first_with(&*source, &p.queries[0], &mut view, &config)
    };
    let warm = search();
    assert!(!warm.solutions.is_empty(), "the query has solutions");
    let before = ALLOCATED.get();
    let r = search();
    let calls = ALLOCATED.get() - before;
    assert_eq!(r.stats.nodes_expanded, warm.stats.nodes_expanded);
    calls as f64 / r.stats.nodes_expanded as f64
}

/// Measured per program: (`ClauseDb`, epoch-0 `Snapshot`).
fn measure() -> Vec<(&'static str, f64, f64)> {
    search_base()
        .into_iter()
        .map(|(name, p)| {
            let db = calls_per_node(|| Box::new(p.db.clone()), &p);
            let mut cfg = working_set_store_config(p.db.len());
            cfg.capacity_tracks = p.db.len();
            let store = MvccClauseStore::new(&p.db, cfg, CommitMode::Mvcc);
            let snap = calls_per_node(|| Box::new(store.begin_read()), &p);
            eprintln!("{name}: {db:.3} calls/node on a ClauseDb, {snap:.3} on a Snapshot");
            (name, db, snap)
        })
        .collect()
}

#[test]
fn a_served_expansion_allocates_only_what_its_children_keep() {
    // Ceilings about 10 % above this code's counts. The engine's own
    // per-node trail, delta and children vectors, and a chain link per
    // child, cost about three more calls per node than that: the search
    // loop before it read (ClauseDb / Snapshot) queens 4.36 / 7.11,
    // mapcolor 4.52 / 5.33 and dag 8.84 / 9.12. What remains is what the
    // children keep.
    let ceilings = [
        ("queens 5", 1.4, 1.3),
        ("mapcolor 3x3x3", 1.4, 1.35),
        ("dag 6x4", 4.6, 4.5),
    ];
    for ((name, db, snap), (want, db_max, snap_max)) in measure().into_iter().zip(ceilings) {
        assert_eq!(name, want);
        assert!(db < db_max, "{name}: {db:.3} calls/node on a ClauseDb");
        assert!(
            snap < snap_max,
            "{name}: {snap:.3} calls/node on a Snapshot"
        );
    }
}
