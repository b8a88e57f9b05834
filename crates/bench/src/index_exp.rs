//! T11: the first-argument index experiment — clause touches, faults,
//! and latency per solution, with and without the bitmap index.
//!
//! Four workloads run their query stream twice through an otherwise
//! identical paged store at half the working-set capacity: once under
//! [`IndexPolicy::None`] (the pre-index baseline: full predicate ranges)
//! and once under [`IndexPolicy::FirstArg`]. The index is pure
//! candidate pruning, so the report's headline is **clause touches per
//! solution** — every touch the index avoids is a unification attempt
//! and a potential page fault that never happened — alongside the fault
//! count and p50/p99 per-query latency.
//!
//! Correctness is asserted, not assumed: for every query in the stream,
//! the indexed run's solution set must equal the baseline run's,
//! pointwise and in the same discovery order. A pruning bug that drops
//! a matching clause fails the experiment before any number is printed.
//!
//! Workload shapes (why each is here):
//!
//! - **family** — drifting `gf(<subject>, G)` session queries, the §5
//!   serving regime: every subgoal's first argument is bound, the
//!   index's best case.
//! - **queens** — one `q(Q1..Qn)` query: `dom/1` subgoals are unbound
//!   (pure fallback) but every `ok(d, _, _)` subgoal carries a bound
//!   integer key, so the index partitions the dominant fact table.
//! - **mapcolor** — one grid-coloring query: `ne/2` constraint checks
//!   become keyed once the earlier region is colored.
//! - **tenant mix** — the T9 multi-tenant request stream, mixed
//!   predicates over disjoint working sets.

use std::collections::HashMap;
use std::time::Instant;

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{parse_query, Program, Query};
use blog_spd::{
    CommitMode, CostModel, Geometry, IndexPolicy, MvccClauseStore, PagedStoreConfig,
    PagedStoreStats, PolicyKind,
};
use blog_workloads::{
    family_program, mapcolor_program, queens_program, tenant_mix_program, tenant_mix_requests,
    FamilyParams, MapColorParams, QueensParams, TenantMix,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{f2, Json, Table};

/// Blocks per track for every T11 store.
const BLOCKS_PER_TRACK: u32 = 4;

/// Queries in the family session stream.
const FAMILY_SESSION: usize = 32;

/// Tenants in the mix point.
const N_TENANTS: usize = 4;

/// One measured point: workload × index policy.
#[derive(Clone, Debug)]
pub struct IndexRow {
    /// Workload label.
    pub workload: &'static str,
    /// Index-policy label (`none` / `first_arg`).
    pub index: &'static str,
    /// Queries executed.
    pub requests: usize,
    /// Total solutions across the stream (asserted identical to the
    /// baseline point, query by query).
    pub solutions: u64,
    /// Clause touches (store accesses) across the stream.
    pub clause_touches: u64,
    /// Track faults (store misses) across the stream.
    pub faults: u64,
    /// Candidate resolutions that went through the bitmap index.
    pub index_hits: u64,
    /// Candidates the index pruned before any unification attempt.
    pub index_prunes: u64,
    /// Candidates handed to the engine.
    pub candidates_scanned: u64,
    /// Clause touches per solution — the headline column.
    pub touches_per_solution: f64,
    /// Median per-query latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile per-query latency, ms.
    pub p99_ms: f64,
    /// Wall-clock of the whole stream, seconds.
    pub wall_s: f64,
}

/// A workload's program plus its parsed query stream.
struct WorkloadSpec {
    name: &'static str,
    program: Program,
    queries: Vec<Query>,
}

/// Parse `texts` as queries against the workload's own database (all
/// symbols already interned by the generators).
fn parse_stream(program: &mut Program, texts: &[String]) -> Vec<Query> {
    texts
        .iter()
        .map(|t| parse_query(&mut program.db, t).expect("workload query parses"))
        .collect()
}

/// The four T11 workloads, query streams capped at `max_requests`.
fn workloads(max_requests: Option<usize>) -> Vec<WorkloadSpec> {
    let cap = |n: usize| max_requests.map_or(n, |m| n.min(m.max(1)));
    let mut out = Vec::new();

    // family: a drifting session over the grandparent subjects, the
    // same walk shape as `blog_workloads::session_queries`.
    let (mut p, meta) = family_program(&FamilyParams {
        generations: 4,
        branching: 3,
        seed: 7,
        ..FamilyParams::default()
    });
    let subjects = meta.grandparents();
    let mut rng = SmallRng::seed_from_u64(0xB10C);
    let mut current = rng.gen_range(0..subjects.len());
    let texts: Vec<String> = (0..cap(FAMILY_SESSION))
        .map(|_| {
            if rng.gen::<f64>() < 0.2 {
                current = rng.gen_range(0..subjects.len());
            }
            format!("gf({}, G)", subjects[current])
        })
        .collect();
    let queries = parse_stream(&mut p, &texts);
    out.push(WorkloadSpec {
        name: "family",
        program: p,
        queries,
    });

    // queens / mapcolor: the generators' own single query.
    let (p, _) = queens_program(&QueensParams { n: 5 });
    let queries = vec![p.queries[0].clone()];
    out.push(WorkloadSpec {
        name: "queens",
        program: p,
        queries,
    });
    let (p, _) = mapcolor_program(&MapColorParams::default());
    let queries = vec![p.queries[0].clone()];
    out.push(WorkloadSpec {
        name: "mapcolor",
        program: p,
        queries,
    });

    // tenant mix: the T9 request stream, served sequentially here so
    // clause touches stay attributable to the index alone.
    let m = TenantMix {
        n_tenants: N_TENANTS,
        queries_per_tenant: cap(32).div_ceil(N_TENANTS).max(1),
        drift: 0.15,
        burst: 3,
        family: FamilyParams {
            generations: 3,
            branching: 3,
            ..FamilyParams::default()
        },
        ..TenantMix::default()
    };
    let (mut p, metas) = tenant_mix_program(&m);
    let texts: Vec<String> = tenant_mix_requests(&m, &metas)
        .into_iter()
        .map(|r| r.text)
        .collect();
    let queries = parse_stream(&mut p, &texts);
    out.push(WorkloadSpec {
        name: "tenant_mix",
        program: p,
        queries,
    });
    out
}

/// Store config at half the working set (same shape as the trace-replay
/// fixtures; LRU so both points of a pair page identically).
fn store_config(n_clauses: usize, index: IndexPolicy) -> PagedStoreConfig {
    let tracks_needed = (n_clauses as u32).div_ceil(BLOCKS_PER_TRACK);
    PagedStoreConfig {
        geometry: Geometry {
            n_sps: 2,
            n_cylinders: tracks_needed.div_ceil(2).max(1),
            blocks_per_track: BLOCKS_PER_TRACK,
        },
        cost: CostModel::default(),
        capacity_tracks: (tracks_needed as usize / 2).max(1),
        policy: PolicyKind::Lru,
        index,
        fault: None,
    }
}

/// `q`-quantile of an unsorted sample by nearest rank.
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run one workload's stream under `index`; returns the row plus the
/// per-query sorted solution sets (for the cross-point assertion).
fn measure_point(spec: &WorkloadSpec, index: IndexPolicy) -> (IndexRow, Vec<Vec<String>>) {
    let store = MvccClauseStore::new(
        &spec.program.db,
        store_config(spec.program.db.len(), index),
        CommitMode::Mvcc,
    );
    let snap = store.begin_read();
    let weights = WeightStore::new(WeightParams::default());
    let cfg = BestFirstConfig {
        // Each query independent: no cross-query learning, so the two
        // points of a pair expand identical search trees.
        learn: false,
        ..BestFirstConfig::default()
    };
    let mut latencies = Vec::with_capacity(spec.queries.len());
    let mut per_query = Vec::with_capacity(spec.queries.len());
    let mut solutions = 0u64;
    let wall = Instant::now();
    for q in &spec.queries {
        let mut overlay = HashMap::new();
        let mut view = WeightView::new(&mut overlay, &weights);
        let t0 = Instant::now();
        let r = best_first_with(&snap, q, &mut view, &cfg);
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut texts = r.solution_texts(&spec.program.db);
        texts.sort();
        solutions += texts.len() as u64;
        per_query.push(texts);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let s: PagedStoreStats = store.stats();
    let row = IndexRow {
        workload: spec.name,
        index: index.name(),
        requests: spec.queries.len(),
        solutions,
        clause_touches: s.accesses,
        faults: s.misses,
        index_hits: s.index_hits,
        index_prunes: s.index_prunes,
        candidates_scanned: s.candidates_scanned,
        touches_per_solution: s.accesses as f64 / (solutions.max(1)) as f64,
        p50_ms: percentile(&latencies, 0.5),
        p99_ms: percentile(&latencies, 0.99),
        wall_s,
    };
    (row, per_query)
}

/// Run the T11 sweep. `max_requests` caps each workload's query stream
/// (the CI smoke path runs `t11 --requests=50`).
pub fn run_t11(max_requests: Option<usize>) -> Vec<IndexRow> {
    let specs = workloads(max_requests);
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "workload",
        "index",
        "requests",
        "solutions",
        "touches",
        "touches/sol",
        "faults",
        "pruned",
        "p50 ms",
        "p99 ms",
    ]);
    let mut best_ratio: (f64, &'static str) = (1.0, "");
    for spec in &specs {
        let (base, base_sets) = measure_point(spec, IndexPolicy::None);
        let (indexed, indexed_sets) = measure_point(spec, IndexPolicy::FirstArg);
        // The correctness gate: identical solutions at every point of
        // the stream, same answers in the same discovery order.
        assert_eq!(
            base_sets, indexed_sets,
            "T11 index transparency violated on {}",
            spec.name
        );
        assert!(
            indexed.clause_touches <= base.clause_touches,
            "{}: the index increased clause touches ({} > {})",
            spec.name,
            indexed.clause_touches,
            base.clause_touches
        );
        let ratio = base.touches_per_solution / indexed.touches_per_solution.max(f64::MIN_POSITIVE);
        if ratio > best_ratio.0 {
            best_ratio = (ratio, spec.name);
        }
        for row in [base, indexed] {
            table.row(vec![
                row.workload.to_string(),
                row.index.to_string(),
                row.requests.to_string(),
                row.solutions.to_string(),
                row.clause_touches.to_string(),
                f2(row.touches_per_solution),
                row.faults.to_string(),
                row.index_prunes.to_string(),
                f2(row.p50_ms),
                f2(row.p99_ms),
            ]);
            rows.push(row);
        }
    }
    table.print();
    println!(
        "(best clause-touch-per-solution reduction: {:.1}x on {}; every point's \
         solution stream asserted identical to its unindexed baseline)",
        best_ratio.0, best_ratio.1
    );
    assert!(
        best_ratio.0 >= 2.0,
        "T11 acceptance: expected >= 2x touch-per-solution reduction on at least \
         one workload, best was {:.2}x on {}",
        best_ratio.0,
        best_ratio.1
    );
    rows
}

/// The T11 rows as a JSON array (for `BENCH_T11_INDEX.json`).
pub fn rows_to_json(rows: &[IndexRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::Obj(vec![
                    ("workload".into(), Json::str(r.workload)),
                    ("index".into(), Json::str(r.index)),
                    ("requests".into(), Json::int(r.requests as u64)),
                    ("solutions".into(), Json::int(r.solutions)),
                    ("clause_touches".into(), Json::int(r.clause_touches)),
                    ("faults".into(), Json::int(r.faults)),
                    ("index_hits".into(), Json::int(r.index_hits)),
                    ("index_prunes".into(), Json::int(r.index_prunes)),
                    (
                        "candidates_scanned".into(),
                        Json::int(r.candidates_scanned),
                    ),
                    (
                        "touches_per_solution".into(),
                        Json::Num(r.touches_per_solution),
                    ),
                    ("p50_ms".into(), Json::Num(r.p50_ms)),
                    ("p99_ms".into(), Json::Num(r.p99_ms)),
                    ("wall_s".into(), Json::Num(r.wall_s)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_point_is_transparent_and_prunes() {
        let spec = &workloads(Some(6))[0];
        assert_eq!(spec.name, "family");
        let (base, base_sets) = measure_point(spec, IndexPolicy::None);
        let (indexed, indexed_sets) = measure_point(spec, IndexPolicy::FirstArg);
        assert_eq!(base_sets, indexed_sets);
        assert_eq!(base.index_hits, 0);
        assert!(indexed.index_hits > 0);
        assert!(indexed.index_prunes > 0);
        assert!(indexed.clause_touches < base.clause_touches);
        assert!(indexed.candidates_scanned < base.candidates_scanned);
    }

    #[test]
    fn smoke_sweep_meets_the_acceptance_ratio() {
        // The capped sweep still shows the >= 2x headline (the assert
        // lives inside run_t11).
        let rows = run_t11(Some(4));
        assert_eq!(rows.len(), 8, "four workloads, two points each");
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].workload, pair[1].workload);
            assert_eq!(pair[0].solutions, pair[1].solutions);
        }
    }

    #[test]
    fn json_rows_render() {
        let spec = &workloads(Some(2))[0];
        let (row, _) = measure_point(spec, IndexPolicy::FirstArg);
        let json = rows_to_json(&[row]).render();
        assert!(json.contains("\"index\":\"first_arg\""));
        assert!(json.contains("\"touches_per_solution\":"));
    }
}
