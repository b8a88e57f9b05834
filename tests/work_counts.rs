//! Exact work counts of two fixed request streams, pinned byte for byte
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
//!   resident entries.
//! - **b**: a churned tenant base whose 2Q track cache holds a tenth of
//!   its tracks, with the answer cache off. Pins the store's clause
//!   accesses, hits, misses, evictions, fault ticks and lock
//!   acquisitions.
//!
//! A change that only re-arranges bookkeeping must leave the golden as it
//! is. A change that means to move a count re-pins the golden with the
//! rendering the failure prints, and says why. CI runs this test twice
//! and compares the two printed renderings.

use b_log::logic::Program;
use b_log::serve::tuning::churn_store_config;
use b_log::serve::{
    CacheConfig, CacheMode, CacheStats, QueryRequest, QueryServer, ServeConfig, SessionId,
    UpdateOp, UpdateOutcome,
};
use b_log::workloads::{
    churn_updates, tenant_mix_program, tenant_mix_requests, ChurnOp, ChurnSpec, FamilyMeta,
    FamilyParams, TenantMix,
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
        "a tenant_mix_cache lookups={} hits={} fills={} invalidations={} expired={} entries={}\n",
        c.lookups, c.hits, c.fills, c.invalidations, c.expired, c.entries
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

#[test]
fn work_counts_match_the_golden() {
    let rendered = [tenant_mix_cache_row(), paged_churn_row()].concat();
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
    for name in ["hits", "fills", "invalidations", "expired", "entries"] {
        assert!(field(a, name) > 0, "row a: {name} is zero");
    }
    for name in ["misses", "evictions", "fault_ticks"] {
        assert!(field(b, name) > 0, "row b: {name} is zero");
    }
}
