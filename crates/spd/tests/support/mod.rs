//! Shared builders for the `blog-spd` integration tests.
//!
//! `paged_store.rs`, `policy_props.rs`, and `trace_replay.rs` all need
//! the same plumbing — a store config sized to a clause database, a
//! reference best-first run over the unpaged `ClauseDb`, the same run
//! routed through an epoch-0 `Snapshot` of the paged store, and ways to
//! record and replay the clause stream a search actually fetches. It
//! lives here once instead of inline in each test file.
//!
//! Each test crate uses a subset of these helpers, so the module as a
//! whole allows dead code.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::Mutex;

use blog_core::engine::{best_first, best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{
    parse_program, BindingLookup, Clause, ClauseDb, ClauseId, ClauseSource, Program, Term,
};
use blog_spd::{
    CommitMode, CostModel, Geometry, IndexPolicy, MvccClauseStore, PagedStoreConfig,
    PagedStoreStats, PolicyKind, Snapshot,
};
use blog_workloads::{family_program, queens_program, FamilyParams, QueensParams, PAPER_FIGURE_1};
use std::borrow::Cow;

/// A store config whose geometry is just big enough for `n_clauses` at
/// the given track width, split over two SPs.
pub fn paged_config(
    policy: PolicyKind,
    capacity_tracks: usize,
    blocks_per_track: u32,
    n_clauses: usize,
) -> PagedStoreConfig {
    let tracks_needed = (n_clauses as u32).div_ceil(blocks_per_track);
    PagedStoreConfig {
        geometry: Geometry {
            n_sps: 2,
            n_cylinders: tracks_needed.div_ceil(2).max(1),
            blocks_per_track,
        },
        cost: CostModel::default(),
        capacity_tracks,
        policy,
        // Pinned off: the goldens and counter assertions that predate the
        // first-argument index were recorded against full predicate
        // ranges. Indexed tests opt in with `.with_index(...)`.
        index: IndexPolicy::None,
        fault: None,
    }
}

/// The paper's figure-1 program.
pub fn figure_1_program() -> Program {
    parse_program(PAPER_FIGURE_1).unwrap()
}

/// The standard scaled family workload these tests share (the same
/// parameters `paged_store.rs` has used since PR 1).
pub fn family_workload() -> Program {
    let (program, _) = family_program(&FamilyParams {
        generations: 4,
        branching: 3,
        seed: 7,
        ..FamilyParams::default()
    });
    program
}

/// A queens instance small enough for per-policy trace replay but large
/// enough to spread over many tracks.
pub fn queens_workload() -> Program {
    let (program, _) = queens_program(&QueensParams { n: 5 });
    program
}

/// Solutions of a fresh (untrained) best-first run over the plain db.
pub fn reference_solutions(program: &Program) -> Vec<String> {
    let store = WeightStore::new(WeightParams::default());
    let mut local = HashMap::new();
    let mut view = WeightView::new(&mut local, &store);
    let r = best_first(
        &program.db,
        &program.queries[0],
        &mut view,
        &BestFirstConfig::default(),
    );
    let mut texts = r.solution_texts(&program.db);
    texts.sort();
    texts
}

/// A paged store over `program`'s database (read through `begin_read`).
pub fn paged_store(program: &Program, cfg: PagedStoreConfig) -> MvccClauseStore {
    MvccClauseStore::new(&program.db, cfg, CommitMode::Mvcc)
}

/// Solutions of the same run routed through a paged store, plus its stats.
pub fn paged_solutions(program: &Program, cfg: PagedStoreConfig) -> (Vec<String>, PagedStoreStats) {
    let paged = paged_store(program, cfg);
    let store = WeightStore::new(WeightParams::default());
    let mut local = HashMap::new();
    let mut view = WeightView::new(&mut local, &store);
    let r = best_first_with(
        &paged.begin_read(),
        &program.queries[0],
        &mut view,
        &BestFirstConfig::default(),
    );
    let mut texts = r.solution_texts(&program.db);
    texts.sort();
    (texts, paged.stats())
}

/// Fetch every clause of `trace` through `snap`, in order; returns the
/// store's cumulative stats.
pub fn replay(snap: &Snapshot<'_>, trace: &[ClauseId]) -> PagedStoreStats {
    for &cid in trace {
        snap.try_fetch_clause(cid).unwrap();
    }
    snap.store().stats()
}

/// A transparent [`ClauseSource`] over a [`ClauseDb`] that records every
/// clause fetch, in order — the access stream a paged store would see.
pub struct RecordingSource<'a> {
    db: &'a ClauseDb,
    trace: Mutex<Vec<ClauseId>>,
}

impl<'a> RecordingSource<'a> {
    pub fn new(db: &'a ClauseDb) -> Self {
        RecordingSource {
            db,
            trace: Mutex::new(Vec::new()),
        }
    }

    /// The fetches recorded so far, in access order.
    pub fn trace(&self) -> Vec<ClauseId> {
        self.trace.lock().unwrap().clone()
    }
}

impl ClauseSource for RecordingSource<'_> {
    fn try_fetch_clause(&self, id: ClauseId) -> Result<&Clause, blog_logic::StoreError> {
        self.trace.lock().unwrap().push(id);
        Ok(self.db.clause(id))
    }

    fn try_candidate_clauses<'a>(
        &'a self,
        goal: &Term,
        bindings: &dyn BindingLookup,
    ) -> Result<Cow<'a, [ClauseId]>, blog_logic::StoreError> {
        self.db.try_candidate_clauses(goal, bindings)
    }

    fn clause_count(&self) -> usize {
        self.db.len()
    }
}

/// The clause-fetch stream of an untrained best-first run on `program`'s
/// first query.
pub fn record_access_trace(program: &Program) -> Vec<ClauseId> {
    let recorder = RecordingSource::new(&program.db);
    let store = WeightStore::new(WeightParams::default());
    let mut local = HashMap::new();
    let mut view = WeightView::new(&mut local, &store);
    best_first_with(
        &recorder,
        &program.queries[0],
        &mut view,
        &BestFirstConfig::default(),
    );
    recorder.trace()
}
