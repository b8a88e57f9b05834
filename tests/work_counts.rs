//! Exact work counts of three fixed request streams, pinned byte for byte
//! in `tests/work_counts.golden`.
//!
//! Wall time on a shared machine swings by tens of percent for identical
//! work; these counts do not move at all unless the work does. Each row
//! drives a deterministic stream through a `QueryServer` with one
//! sequential pool, applying commits between batches (never while a
//! batch is in flight), so no count depends on timing:
//!
//! - **a**: a Zipf tenant mix with the answer cache on (`Precise`),
//!   churned by notified commits and one commit that bypasses the server
//!   (written straight to the store, so the cache is never told). Pins
//!   the cache's lookups, hits, fills, invalidations, expiries and
//!   resident entries, and the track cache's lock acquisitions: a cache
//!   hit takes none.
//! - **b**: a churned tenant base whose 2Q track cache holds a tenth of
//!   its tracks, with the answer cache off. Pins the store's clause
//!   accesses, hits, misses, evictions, fault ticks and lock
//!   acquisitions.
//! - **c**: the four search classes of one resident base (queens,
//!   mapcolor, a wide DAG and a deep one), with the answer cache off.
//!   Pins, per class, the requests, solutions, nodes expanded, unify
//!   attempts and successes, failures, store accesses and candidates
//!   scanned. The row is rendered once with [`ExecMode::Sequential`] and
//!   once with one OR-parallel worker, and the two must be equal: one
//!   worker is the sequential heap.
//!
//! A change that only re-arranges bookkeeping must leave the golden as it
//! is. A change that means to move a count re-pins the golden with the
//! rendering the failure prints, and says why. CI runs this test twice
//! and compares the two printed renderings.

use b_log::logic::{clause_to_source, parse_program, Program};
use b_log::parallel::FrontierPolicy;
use b_log::serve::tuning::{churn_store_config, working_set_store_config};
use b_log::serve::{
    CacheConfig, CacheMode, CacheStats, ExecMode, QueryRequest, QueryServer, ServeConfig,
    SessionId, UpdateOp, UpdateOutcome,
};
use b_log::workloads::{
    churn_updates, dag_reach_program, mapcolor_program, queens_program, tenant_mix_program,
    tenant_mix_requests, ChurnOp, ChurnSpec, DagParams, FamilyMeta, FamilyParams, MapColorParams,
    QueensParams, TenantMix,
};

const GOLDEN: &str = include_str!("work_counts.golden");

/// Requests served between two commits.
const BATCH: usize = 16;

fn one_sequential_pool(cache: CacheMode) -> ServeConfig {
    ServeConfig {
        n_pools: 1,
        cache: CacheConfig {
            mode: cache,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// `n` churn transactions over the tenants' `f/2` facts, as update ops.
fn churn_ops(program: &Program, metas: &[FamilyMeta], n: usize, seed: u64) -> Vec<Vec<UpdateOp>> {
    let spec = ChurnSpec {
        n_updates: n,
        ops_per_update: 2,
        seed,
        ..ChurnSpec::default()
    };
    churn_updates(&program.db, metas, &spec)
        .into_iter()
        .map(|u| {
            u.ops
                .into_iter()
                .map(|op| match op {
                    ChurnOp::Assert { text } => UpdateOp::Assert { text },
                    ChurnOp::Retract { id } => UpdateOp::Retract { id },
                })
                .collect()
        })
        .collect()
}

/// Serve `requests` in batches of [`BATCH`] in one open session, applying
/// the next update of `updates` once each batch has its responses; after
/// the batch numbered `bypass.0` (if any), also commit `bypass.1`
/// straight to the store. Returns the session's answer-cache counters.
fn drive(
    server: &QueryServer,
    requests: Vec<QueryRequest>,
    updates: &[Vec<UpdateOp>],
    bypass: Option<(usize, &str)>,
) -> CacheStats {
    let (report, ()) = server.serve_open(|s| {
        let mut updates = updates.iter();
        for (batch_no, batch) in requests.chunks(BATCH).enumerate() {
            for request in batch {
                s.submit(request.clone());
            }
            s.quiesce();
            if let Some(ops) = updates.next() {
                let r = s.update(SessionId(0), ops);
                assert!(
                    matches!(r.outcome, UpdateOutcome::Committed { .. }),
                    "churn update {batch_no} commits"
                );
            }
            if let Some((after, text)) = bypass {
                if after == batch_no {
                    let mut txn = server.store().begin_write();
                    txn.assert_text(text).expect("bypass assert parses");
                    txn.commit();
                }
            }
        }
    });
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.completed, requests.len());
    report.stats.cache
}

/// Row a: the answer cache under a Zipf tenant mix and churn.
fn tenant_mix_cache_row() -> String {
    let mix = TenantMix {
        n_tenants: 8,
        family: FamilyParams {
            generations: 4,
            branching: 3,
            deep_rules: true,
            ..FamilyParams::default()
        },
        queries_per_tenant: 40,
        drift: 0.15,
        deep_share: 0.2,
        burst: 1,
        zipf_s: Some(1.2),
        seed: 7,
    };
    let (program, metas) = tenant_mix_program(&mix);
    let requests: Vec<QueryRequest> = tenant_mix_requests(&mix, &metas)
        .into_iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text).with_tenant(r.tenant as u32))
        .collect();
    let batches = requests.len().div_ceil(BATCH);
    let updates = churn_ops(&program, &metas, batches, 7);
    let server = QueryServer::new(
        &program.db,
        churn_store_config(program.db.len(), 4 * batches + 8),
        one_sequential_pool(CacheMode::Precise),
    );
    let c = drive(
        &server,
        requests,
        &updates,
        Some((batches / 2, "t0_f(p0_0,bypass).")),
    );
    format!(
        "a tenant_mix_cache lookups={} hits={} fills={} invalidations={} expired={} entries={} store_locks={}\n",
        c.lookups,
        c.hits,
        c.fills,
        c.invalidations,
        c.expired,
        c.entries,
        server.store().lock_stats().0
    )
}

/// Row b: the 2Q track cache under a churned base it cannot hold.
fn paged_churn_row() -> String {
    let n_tenants = 24;
    let family = FamilyParams {
        generations: 4,
        branching: 3,
        ..FamilyParams::default()
    };
    let mix = TenantMix {
        n_tenants,
        family,
        queries_per_tenant: 16,
        drift: 1.0,
        burst: 1,
        seed: 11,
        ..TenantMix::default()
    };
    let (program, metas) = tenant_mix_program(&mix);
    let requests: Vec<QueryRequest> = tenant_mix_requests(&mix, &metas)
        .into_iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text).with_tenant(r.tenant as u32))
        .collect();
    let batches = requests.len().div_ceil(BATCH);
    let updates = churn_ops(&program, &metas, batches, 11);
    let mut store = churn_store_config(program.db.len(), 4 * batches + 8);
    let seed_tracks = program
        .db
        .len()
        .div_ceil(store.geometry.blocks_per_track as usize);
    store.capacity_tracks = (seed_tracks / 10).max(2);
    let capacity_tracks = store.capacity_tracks;
    let server = QueryServer::new(&program.db, store, one_sequential_pool(CacheMode::Off));
    drive(&server, requests, &updates, None);
    let s = server.store().stats();
    format!(
        "b paged_churn_2q tracks={}/{} accesses={} hits={} misses={} evictions={} fault_ticks={} lock_acquisitions={}\n",
        capacity_tracks,
        seed_tracks,
        s.accesses,
        s.hits,
        s.misses,
        s.evictions,
        s.fault_ticks,
        s.lock_acquisitions
    )
}

/// The four search programs in one base, the deep DAG's predicates
/// renamed apart from the wide one's.
fn search_base() -> Program {
    let dag = |layers, width, seed| {
        dag_reach_program(&DagParams {
            layers,
            width,
            density: 0.5,
            seed,
        })
        .0
    };
    let parts = [
        (queens_program(&QueensParams { n: 5 }).0, false),
        (
            mapcolor_program(&MapColorParams {
                rows: 3,
                cols: 3,
                colors: 3,
            })
            .0,
            false,
        ),
        (dag(6, 4, 1), false),
        (dag(20, 2, 2), true),
    ];
    let mut text = String::new();
    for (program, rename) in parts {
        for clause in program.db.clauses() {
            let line = clause_to_source(program.db.symbols(), clause);
            let line = if rename {
                line.replace("path(", "dpath(").replace("edge(", "dedge(")
            } else {
                line
            };
            text.push_str(&line);
            text.push('\n');
        }
    }
    parse_program(&text).expect("search base parses")
}

/// Each search class's fixed request list: partial bindings of its
/// query.
fn search_classes() -> [(&'static str, Vec<String>); 4] {
    let queens = (1..=5)
        .flat_map(|val| {
            [0, 2].map(|pos| {
                let mut args = ["A", "B", "C", "D", "E"].map(String::from);
                args[pos] = val.to_string();
                format!("q({})", args.join(","))
            })
        })
        .collect();
    let mapcolor = [0, 4, 8]
        .into_iter()
        .flat_map(|region| {
            ["red", "green", "blue"].map(|colour| {
                let mut args: Vec<String> = (0..9).map(|r| format!("R{r}")).collect();
                args[region] = colour.to_string();
                format!("mc({})", args.join(","))
            })
        })
        .collect();
    let paths = |pred: &str, layers: std::ops::RangeInclusive<u32>, width: u32| {
        layers
            .flat_map(|layer| (0..width).map(move |i| (layer, i)))
            .flat_map(|(layer, i)| {
                [
                    format!("{pred}(n{layer}_{i}, X)"),
                    format!("{pred}(n{layer}_{i}, snk)"),
                ]
            })
            .collect()
    };
    [
        ("queens", queens),
        ("mapcolor", mapcolor),
        ("dag_wide", paths("path", 1..=2, 4)),
        ("dag_deep", paths("dpath", 9..=12, 2)),
    ]
}

/// Row c under `exec`: each class served as one batch on one pool, its
/// work summed over its responses and the store's counters.
fn search_rows(base: &Program, exec: ExecMode) -> String {
    let mut store = working_set_store_config(base.db.len());
    // Resident: every track fits, as in the benchmark's search base.
    let blocks_per_track = store.geometry.blocks_per_track as usize;
    store.capacity_tracks = base.db.len().div_ceil(blocks_per_track);
    let config = ServeConfig {
        exec,
        ..one_sequential_pool(CacheMode::Off)
    };
    let server = QueryServer::new(&base.db, store, config);
    let mut out = String::new();
    for (class, texts) in search_classes() {
        let requests: Vec<QueryRequest> = texts
            .iter()
            .map(|t| QueryRequest::new(0, t.as_str()))
            .collect();
        let before = server.store().stats();
        let report = server.serve(requests);
        let after = server.store().stats();
        assert_eq!(report.stats.completed, texts.len(), "{class}");
        let mut solutions = 0;
        let mut work = b_log::logic::SearchStats::default();
        for r in &report.responses {
            solutions += r.outcome.solutions().len();
            work.merge(&r.stats);
        }
        out += &format!(
            "c search_{class} requests={} solutions={solutions} nodes={} unify_attempts={} \
             unify_successes={} failures={} store_accesses={} candidates_scanned={}\n",
            texts.len(),
            work.nodes_expanded,
            work.unify_attempts,
            work.unify_successes,
            work.failures,
            after.accesses - before.accesses,
            after.candidates_scanned - before.candidates_scanned,
        );
    }
    out
}

/// Row c, checked equal at one sequential and one OR-parallel worker.
fn search_row() -> String {
    let base = search_base();
    let sequential = search_rows(&base, ExecMode::Sequential);
    let one_worker = search_rows(
        &base,
        ExecMode::OrParallel {
            n_workers: 1,
            policy: FrontierPolicy::Sharded { d: 512 },
        },
    );
    assert_eq!(sequential, one_worker, "one worker is the sequential heap");
    sequential
}

#[test]
fn work_counts_match_the_golden() {
    let rendered = [tenant_mix_cache_row(), paged_churn_row(), search_row()].concat();
    for line in rendered.lines() {
        println!("work_counts: {line}");
    }
    assert_eq!(
        rendered, GOLDEN,
        "work counts moved; if the change means to move them, re-pin \
         tests/work_counts.golden with:\n{rendered}"
    );
}

#[test]
fn the_streams_do_work_worth_pinning() {
    // Guards the golden against a stream that silently stops exercising
    // what it pins: the mix must hit, invalidate and expire, and the
    // churned store must evict.
    let field = |line: &str, name: &str| -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing in {line}"))
    };
    let mut lines = GOLDEN.lines();
    let a = lines.next().expect("row a");
    let b = lines.next().expect("row b");
    for name in [
        "hits",
        "fills",
        "invalidations",
        "expired",
        "entries",
        "store_locks",
    ] {
        assert!(field(a, name) > 0, "row a: {name} is zero");
    }
    for name in ["misses", "evictions", "fault_ticks"] {
        assert!(field(b, name) > 0, "row b: {name} is zero");
    }
    let c: Vec<&str> = lines.collect();
    assert_eq!(c.len(), 4, "row c has one line per search class");
    for line in c {
        for name in ["solutions", "nodes", "failures", "candidates_scanned"] {
            assert!(field(line, name) > 0, "row c: {name} is zero in {line}");
        }
    }
}
