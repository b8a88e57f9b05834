//! T6: semantic paging — hit rate and I/O time vs page distance, SP mode,
//! and the weight filter. T6b drives the *live* paged clause store: the
//! best-first engine resolves through an epoch-0 snapshot's LRU track
//! cache, so hit rates
//! come from the search's real access stream, not a canned trace. T6c
//! sweeps the same live path across every replacement policy and every
//! workload generator, reading results through the backend-agnostic
//! [`ClauseSource`] stats surface.

use blog_core::engine::{best_first, best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{ClauseId, ClauseSource, Program, SourceStats};
use blog_spd::{
    build_spd_from_db, CommitMode, CostModel, Geometry, IndexPolicy, MvccClauseStore,
    PagedStoreConfig, PagedStoreStats, Pager, PagerStats, PolicyKind, Snapshot, SpMode,
};
use blog_workloads::{family_program, FamilyParams};

use crate::report::{pct, Table};

/// Build the family program, a trained weight store, and the clause-
/// access trace of a best-first run over it.
fn traced_workload() -> (Program, WeightStore, Vec<ClauseId>) {
    let (program, _) = family_program(&FamilyParams {
        generations: 4,
        branching: 3,
        tree_mother_density: 0.15,
        external_mother_density: 0.4,
        seed: 31,
        ..FamilyParams::default()
    });
    let store = WeightStore::new(WeightParams::default());
    let mut overlay = std::collections::HashMap::new();
    // Train once, then trace the second (weight-guided) run.
    {
        let mut view = WeightView::new(&mut overlay, &store);
        best_first(
            &program.db,
            &program.queries[0],
            &mut view,
            &BestFirstConfig::default(),
        );
    }
    let trace = {
        let mut view = WeightView::new(&mut overlay, &store);
        let cfg = BestFirstConfig {
            record_trace: true,
            learn: false,
            ..BestFirstConfig::default()
        };
        best_first(&program.db, &program.queries[0], &mut view, &cfg)
            .trace
            .iter()
            .map(|k| k.target)
            .collect()
    };
    // Fold the learned overlay into a store so the SPD layout carries the
    // trained weights.
    let mut trained = WeightStore::new(WeightParams::default());
    for (k, v) in overlay {
        trained.set(k, v);
    }
    (program, trained, trace)
}

/// One T6 measurement.
#[derive(Clone, Debug)]
pub struct SpdRow {
    /// SP cooperation mode.
    pub mode: SpMode,
    /// Semantic page distance.
    pub distance: u32,
    /// Whether the weight filter was applied.
    pub filtered: bool,
    /// Pager statistics.
    pub stats: PagerStats,
}

/// T6: replay the trace at several page distances, in both SP modes,
/// with and without the weight filter.
pub fn run_t6() -> Vec<SpdRow> {
    let (program, trained, trace) = traced_workload();
    let geometry = Geometry {
        n_sps: 4,
        n_cylinders: 32,
        blocks_per_track: 4,
    };
    let params = trained.params();
    // Filter ceiling: anything above the unknown coding (i.e. only
    // learned-good pointers) is skipped during prefetch.
    let ceiling = params.unknown_weight().0;

    let mut rows = Vec::new();
    println!("T6 — semantic paging (trace of a trained best-first family query):");
    let mut t = Table::new(&[
        "mode",
        "distance",
        "filter",
        "hit-rate",
        "faults",
        "blocks-paged",
        "fault-ticks",
    ]);
    for mode in [SpMode::Simd, SpMode::Mimd] {
        for distance in [0u32, 1, 2, 3] {
            for filtered in [false, true] {
                let (mut spd, layout) =
                    build_spd_from_db(&program.db, &trained, geometry, CostModel::default(), mode);
                let mut pager = Pager::new(&mut spd, &layout, distance);
                if filtered {
                    pager.weight_max = Some(ceiling);
                }
                let stats = pager.replay(&trace);
                t.row(vec![
                    format!("{mode:?}"),
                    distance.to_string(),
                    if filtered { "on" } else { "off" }.into(),
                    pct(stats.hit_rate()),
                    stats.faults.to_string(),
                    stats.blocks_paged.to_string(),
                    stats.fault_ticks.to_string(),
                ]);
                rows.push(SpdRow {
                    mode,
                    distance,
                    filtered,
                    stats,
                });
            }
        }
    }
    t.print();
    println!(
        "expected shape: hit rate rises with page distance (semantic prefetch);\n\
         the weight filter cuts blocks paged at equal hit rates on the hot path;\n\
         SIMD needs fewer fault ticks than MIMD when pages span SPs.\n"
    );
    rows
}

/// One T6b measurement: a live engine run through the paged store.
#[derive(Clone, Debug)]
pub struct PagedRow {
    /// LRU capacity in tracks.
    pub capacity_tracks: usize,
    /// Store counters after the run.
    pub stats: PagedStoreStats,
    /// Nodes the engine expanded (identical at every capacity —
    /// paging is semantically transparent).
    pub nodes_expanded: u64,
    /// Solutions found (ditto).
    pub solutions: usize,
}

/// The store geometry T6b sweeps over: 4 clauses per track.
fn t6b_geometry(n_clauses: usize) -> Geometry {
    Geometry {
        n_sps: 4,
        n_cylinders: ((n_clauses as u32).div_ceil(4)).div_ceil(4).max(1),
        blocks_per_track: 4,
    }
}

/// Number of tracks the T6b geometry spreads `n_clauses` over — where
/// the LRU cliff sits.
fn t6b_total_tracks(n_clauses: usize) -> usize {
    (n_clauses as u32).div_ceil(t6b_geometry(n_clauses).blocks_per_track) as usize
}

/// Run an untrained best-first search for `program`'s first query with
/// every clause fetch routed through `paged`. Returns
/// `(nodes expanded, solutions found, store stats)` — the recipe shared
/// by [`run_t6b`] and [`run_t6c`].
fn engine_run_through(paged: &Snapshot<'_>, program: &Program) -> (u64, usize, PagedStoreStats) {
    let store = WeightStore::new(WeightParams::default());
    let mut overlay = std::collections::HashMap::new();
    let mut view = WeightView::new(&mut overlay, &store);
    let r = best_first_with(
        paged,
        &program.queries[0],
        &mut view,
        &BestFirstConfig::default(),
    );
    (
        r.stats.nodes_expanded,
        r.solutions.len(),
        paged.store().stats(),
    )
}

/// T6b: run the best-first engine *through* the paged clause store at a
/// sweep of cache capacities, reporting real hit/miss/eviction counts.
pub fn run_t6b() -> Vec<PagedRow> {
    let (program, _, _) = traced_workload();
    let geometry = t6b_geometry(program.db.len());
    let total_tracks = t6b_total_tracks(program.db.len());

    let mut rows = Vec::new();
    println!(
        "T6b — live paged clause store ({} clauses over {} tracks, LRU):",
        program.db.len(),
        total_tracks
    );
    let mut t = Table::new(&[
        "capacity",
        "accesses",
        "hit-rate",
        "misses",
        "evictions",
        "fault-ticks",
        "nodes",
        "sols",
    ]);
    // Sweep across the LRU cliff: best-first scans most of the database
    // between revisits of a track, so capacities below the working set
    // all behave alike and the hit rate jumps only once everything fits.
    let capacities = [
        1,
        total_tracks / 4,
        total_tracks / 2,
        total_tracks.saturating_sub(1),
        total_tracks,
        total_tracks + total_tracks / 4,
    ];
    let mut seen = std::collections::BTreeSet::new();
    for capacity_tracks in capacities {
        let capacity_tracks = capacity_tracks.max(1);
        if !seen.insert(capacity_tracks) {
            continue;
        }
        let paged = MvccClauseStore::new(
            &program.db,
            PagedStoreConfig {
                geometry,
                cost: CostModel::default(),
                capacity_tracks,
                policy: PolicyKind::Lru,
                // T5's capacity sweep is the pre-index baseline; keep its
                // access counts comparable across report generations.
                index: IndexPolicy::None,
                fault: None,
            },
            CommitMode::Mvcc,
        );
        let (nodes_expanded, solutions, stats) = engine_run_through(&paged.begin_read(), &program);
        t.row(vec![
            capacity_tracks.to_string(),
            stats.accesses.to_string(),
            pct(stats.hit_rate()),
            stats.misses.to_string(),
            stats.evictions.to_string(),
            stats.fault_ticks.to_string(),
            nodes_expanded.to_string(),
            solutions.to_string(),
        ]);
        rows.push(PagedRow {
            capacity_tracks,
            stats,
            nodes_expanded,
            solutions,
        });
    }
    t.print();
    println!(
        "expected shape: the access stream is identical at every capacity (the\n\
         cache never changes the search). Best-first scans the candidate space\n\
         between revisits, so LRU shows a *cliff*: sub-working-set capacities\n\
         hit only on within-expansion runs, and the rate jumps once every track\n\
         fits. T6c sweeps the scan-resistant policies over the same path.\n"
    );
    rows
}

/// One T6c measurement: a live engine run through the paged store under
/// one `(workload, policy, capacity)` combination.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Workload label (matches [`crate::strategies::t1_workloads`]).
    pub workload: String,
    /// Replacement policy under test.
    pub policy: PolicyKind,
    /// Cache capacity in tracks.
    pub capacity_tracks: usize,
    /// Tracks the workload's clause database spreads over.
    pub total_tracks: usize,
    /// Counters read through the [`ClauseSource`] stats surface.
    pub stats: SourceStats,
    /// Nodes the engine expanded (policy-invariant by transparency).
    pub nodes_expanded: u64,
    /// Solutions found (ditto).
    pub solutions: usize,
}

/// The capacity grid T6c sweeps for a database spread over `total`
/// tracks: the degenerate single track, the mid-range where the LRU
/// cliff lives, the exact working set, and one beyond it.
pub fn t6c_capacities(total: usize) -> Vec<usize> {
    let mut caps: Vec<usize> = [
        1,
        total / 4,
        3 * total / 8,
        total / 2,
        5 * total / 8,
        3 * total / 4,
        7 * total / 8,
        total,
        total + total / 4,
    ]
    .into_iter()
    .map(|c| c.max(1))
    .collect();
    caps.sort_unstable();
    caps.dedup();
    caps
}

/// T6c: sweep every replacement policy across every workload generator's
/// benchmark instance, running the real engine through the paged store.
pub fn run_t6c() -> Vec<PolicyRow> {
    let policies = PolicyKind::ALL;
    let mut rows = Vec::new();
    println!(
        "T6c — replacement-policy sweep over the live paged store (policies: {}):",
        policies
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (workload, program) in crate::strategies::t1_workloads() {
        let geometry = t6b_geometry(program.db.len());
        let total_tracks = t6b_total_tracks(program.db.len());
        println!(
            "  {workload}: {} clauses over {} tracks",
            program.db.len(),
            total_tracks
        );
        let mut t = Table::new(&[
            "policy",
            "capacity",
            "accesses",
            "hit-rate",
            "evictions",
            "nodes",
            "sols",
        ]);
        for capacity_tracks in t6c_capacities(total_tracks) {
            for policy in policies {
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
                let snap = paged.begin_read();
                let (nodes_expanded, solutions, _) = engine_run_through(&snap, &program);
                // Read the counters back through the trait seam: the
                // table must not care what backend served the search.
                let source: &dyn ClauseSource = &snap;
                let stats = source
                    .source_stats()
                    .expect("paged store exposes source stats");
                t.row(vec![
                    source.backend_name(),
                    capacity_tracks.to_string(),
                    stats.accesses.to_string(),
                    pct(stats.hit_rate()),
                    stats.evictions.to_string(),
                    nodes_expanded.to_string(),
                    solutions.to_string(),
                ]);
                rows.push(PolicyRow {
                    workload: workload.clone(),
                    policy,
                    capacity_tracks,
                    total_tracks,
                    stats,
                    nodes_expanded,
                    solutions,
                });
            }
        }
        t.print();
    }
    println!(
        "expected shape: per workload, every policy expands identical nodes and\n\
         finds identical solutions (transparency). LRU keeps the T6b\n\
         cliff: no gain until the working set fits. 2Q flattens it — the ghost\n\
         window promotes re-referenced tracks into Am, so mid-range capacities\n\
         finally buy hit rate on scan-heavy searches.\n"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_nonempty_and_weights_trained() {
        let (_, trained, trace) = traced_workload();
        assert!(trace.len() >= 4, "trace too short: {}", trace.len());
        let c = trained.census();
        assert!(c.known > 0);
    }

    #[test]
    fn t6_hit_rate_rises_with_distance() {
        let rows = run_t6();
        let get = |mode: SpMode, d: u32| {
            rows.iter()
                .find(|r| r.mode == mode && r.distance == d && !r.filtered)
                .map(|r| r.stats.hit_rate())
                .expect("row present")
        };
        assert!(get(SpMode::Simd, 2) >= get(SpMode::Simd, 0));
    }

    #[test]
    fn t6_filter_reduces_blocks_paged() {
        let rows = run_t6();
        let blocks = |filtered: bool| {
            rows.iter()
                .find(|r| r.mode == SpMode::Simd && r.distance == 2 && r.filtered == filtered)
                .map(|r| r.stats.blocks_paged)
                .expect("row present")
        };
        assert!(
            blocks(true) <= blocks(false),
            "filter paged more blocks ({} > {})",
            blocks(true),
            blocks(false)
        );
    }

    #[test]
    fn t6b_access_stream_is_capacity_invariant_and_hits_grow() {
        let rows = run_t6b();
        assert!(rows.len() >= 2);
        let accesses = rows[0].stats.accesses;
        let solutions = rows[0].solutions;
        let mut last_hits = 0;
        for row in &rows {
            assert_eq!(row.stats.accesses, accesses, "stream changed: {row:?}");
            assert_eq!(row.solutions, solutions, "solutions changed: {row:?}");
            assert!(row.stats.hits >= last_hits, "hits not monotone: {row:?}");
            last_hits = row.stats.hits;
        }
        assert!(last_hits > 0, "largest capacity should produce hits");
    }

    #[test]
    fn t6c_two_q_dominates_lru_and_flattens_the_cliff() {
        let rows = run_t6c();
        // Every (workload, capacity) pair: transparency means identical
        // nodes, solutions, and access streams across policies.
        for pair in rows.chunks(PolicyKind::ALL.len()) {
            for r in &pair[1..] {
                assert_eq!(r.nodes_expanded, pair[0].nodes_expanded, "{r:?}");
                assert_eq!(r.solutions, pair[0].solutions, "{r:?}");
                assert_eq!(r.stats.accesses, pair[0].stats.accesses, "{r:?}");
            }
        }
        let hits = |workload: &str, policy: PolicyKind| -> Vec<(usize, u64, u64)> {
            rows.iter()
                .filter(|r| r.workload == workload && r.policy == policy)
                .map(|r| (r.capacity_tracks, r.stats.hits, r.stats.accesses))
                .collect()
        };
        // The acceptance criterion: 2Q >= LRU at every capacity point on
        // the family workload...
        let family_lru = hits("family(4,3)", PolicyKind::Lru);
        let family_2q = hits("family(4,3)", PolicyKind::TwoQ);
        assert_eq!(family_lru.len(), family_2q.len());
        let mut flattened = false;
        for ((cap, lru, accesses), (_, twoq, _)) in family_lru.iter().zip(&family_2q) {
            assert!(
                twoq >= lru,
                "2Q lost to LRU on family at capacity {cap}: {twoq} < {lru}"
            );
            // ...with the mid-range cliff measurably flattened: at least
            // one sub-working-set capacity where 2Q is >= 5 points ahead.
            if (*twoq as f64 - *lru as f64) / *accesses as f64 >= 0.05 {
                flattened = true;
            }
        }
        assert!(
            flattened,
            "2Q never pulled >= 5 points ahead of LRU on family"
        );
        // ...and 2Q never loses on queens or mapcolor.
        for workload in ["queens(6)", "mapcolor(3x3,3)"] {
            let lru = hits(workload, PolicyKind::Lru);
            let twoq = hits(workload, PolicyKind::TwoQ);
            for ((cap, l, _), (_, q, _)) in lru.iter().zip(&twoq) {
                assert!(
                    q >= l,
                    "2Q lost to LRU on {workload} at capacity {cap}: {q} < {l}"
                );
            }
        }
    }

    #[test]
    fn t6c_capacity_grid_is_sane() {
        assert_eq!(t6c_capacities(1), vec![1]);
        let caps = t6c_capacities(47);
        assert_eq!(caps.first(), Some(&1));
        assert!(caps.contains(&47), "working set always swept");
        assert!(caps.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
    }

    #[test]
    fn weight_state_is_visible_in_layout() {
        // Sanity: at least one pointer weight in the SPD differs from the
        // unknown coding after training.
        let (program, trained, _) = traced_workload();
        let params = trained.params();
        let (spd, _) = build_spd_from_db(
            &program.db,
            &trained,
            Geometry {
                n_sps: 4,
                n_cylinders: 32,
                blocks_per_track: 4,
            },
            CostModel::default(),
            SpMode::Simd,
        );
        let mut seen_known = false;
        for i in 0..spd.len() {
            for p in &spd.block(blog_spd::BlockId(i as u32)).pointers {
                if p.weight != params.unknown_weight().0 {
                    seen_known = true;
                }
            }
        }
        assert!(seen_known);
    }
}
