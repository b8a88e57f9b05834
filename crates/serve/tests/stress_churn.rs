//! Churn stress for the MVCC write path at the serving layer: writer
//! threads and the update lane mutate the store while pools drain query
//! batches, with every run under a watchdog (mirroring
//! `blog-parallel`'s `stress_termination.rs`) so a lost wakeup or a
//! reader blocked on a committing writer fails the test instead of
//! hanging the suite.
//!
//! Correctness is the ISSUE's epoch contract, checked two ways:
//!
//! - **Mixed batches** (`serve_mixed`): the update lane applies a
//!   deterministic churn stream mid-batch; every query response is
//!   diffed against a sequential oracle rebuilt at the response's epoch.
//! - **Free-running writers** (`apply_update` from N threads): each
//!   writer logs its committed transactions; responses are diffed the
//!   same way. A torn page — a reader observing half a commit — cannot
//!   produce the exact solution set of *any* single epoch, let alone the
//!   one it was admitted at.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use blog_core::engine::{best_first, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{clause_to_source, parse_program, parse_query_shared, ClauseId, Program};
use blog_serve::{
    QueryRequest, QueryServer, ServeConfig, UpdateOp, UpdateOutcome, UpdateRequest,
};
use blog_spd::{Geometry, PagedStoreConfig, PolicyKind};
use blog_workloads::{
    churn_updates, tenant_mix_program, tenant_mix_requests, ChurnOp, ChurnSpec, FamilyParams,
    TenantMix,
};

/// Per-run watchdog budget, matching `stress_termination.rs`.
const WATCHDOG: Duration = Duration::from_secs(10);

fn mix() -> TenantMix {
    TenantMix {
        n_tenants: 3,
        queries_per_tenant: 6,
        drift: 0.2,
        burst: 2,
        family: FamilyParams {
            generations: 3,
            branching: 3,
            ..FamilyParams::default()
        },
        ..TenantMix::default()
    }
}

/// Geometry for the seed plus `headroom` churned clauses, cache small
/// enough that writers and readers fight over residency.
fn store_cfg(db_len: usize, headroom: usize) -> PagedStoreConfig {
    let blocks_per_track = 2u32;
    let n_sps = 2u32;
    let tracks_needed = (db_len + headroom).div_ceil(blocks_per_track as usize);
    PagedStoreConfig {
        geometry: Geometry {
            n_sps,
            n_cylinders: (tracks_needed.div_ceil(n_sps as usize) + 1) as u32,
            blocks_per_track,
        },
        capacity_tracks: db_len.div_ceil(blocks_per_track as usize).div_ceil(2).max(2),
        policy: PolicyKind::TwoQ,
        ..PagedStoreConfig::default()
    }
}

/// Sequential solutions of `text` against `db`, sorted.
fn sequential_solutions(p: &Program, text: &str) -> Vec<String> {
    let q = parse_query_shared(&p.db, text).expect("oracle query parses");
    let weights = WeightStore::new(WeightParams::default());
    let mut overlay = HashMap::new();
    let mut view = WeightView::new(&mut overlay, &weights);
    let cfg = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let r = best_first(&p.db, &q, &mut view, &cfg);
    let mut texts: Vec<String> = r.solutions.iter().map(|s| s.solution.to_text(&p.db)).collect();
    texts.sort();
    texts
}

/// `(epoch, asserted (id, text) pairs, retracted ids)` — the unit the
/// per-epoch oracle replays, from whichever side produced the commit.
type CommitLog = (u64, Vec<(u32, String)>, Vec<u32>);

/// Diff every response against a sequential database rebuilt at the
/// response's epoch from the seed program plus the committed `logs`.
fn verify_per_epoch(
    p: &Program,
    query_texts: &[String],
    responses: &[blog_serve::QueryResponse],
    mut logs: Vec<CommitLog>,
    what: &str,
) {
    logs.sort_by_key(|(e, _, _)| *e);
    let mut epochs: Vec<u64> = responses.iter().map(|r| r.epoch).collect();
    epochs.sort_unstable();
    epochs.dedup();
    let mut alive: Vec<Option<String>> = p
        .db
        .clauses()
        .iter()
        .map(|c| Some(clause_to_source(p.db.symbols(), c)))
        .collect();
    let mut next = 0usize;
    for &epoch in &epochs {
        while next < logs.len() && logs[next].0 <= epoch {
            let (_, asserted, retracted) = &logs[next];
            for (id, text) in asserted {
                let id = *id as usize;
                if alive.len() <= id {
                    alive.resize(id + 1, None);
                }
                alive[id] = Some(text.clone());
            }
            for id in retracted {
                alive[*id as usize] = None;
            }
            next += 1;
        }
        let src: String = alive.iter().flatten().fold(String::new(), |mut acc, t| {
            acc.push_str(t);
            acc.push('\n');
            acc
        });
        let oracle = parse_program(&src).expect("oracle program parses");
        let mut truth: HashMap<&str, Vec<String>> = HashMap::new();
        for r in responses.iter().filter(|r| r.epoch == epoch) {
            let text = query_texts[r.request].as_str();
            let expect = truth
                .entry(text)
                .or_insert_with(|| sequential_solutions(&oracle, text));
            assert_eq!(
                r.outcome.solutions(),
                expect.as_slice(),
                "{what}: request {} ({text}) diverged from its epoch-{epoch} snapshot",
                r.request,
            );
        }
    }
}

/// Run `f` on a detached thread under the watchdog. Detached, not
/// scoped: a scoped join would block on exactly the hang this suite
/// exists to catch. On timeout the stuck thread is leaked and the test
/// fails loudly.
fn with_watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("deadlock or crash: {what} did not finish in {WATCHDOG:?}"));
}

// ---------------------------------------------------------------------------
// Update lane: deterministic churn through serve_mixed
// ---------------------------------------------------------------------------

fn run_mixed_batch() {
    let m = mix();
    let (p, metas) = tenant_mix_program(&m);
    let originals = tenant_mix_requests(&m, &metas);
    let query_texts: Vec<String> = originals.iter().map(|r| r.text.clone()).collect();
    let queries: Vec<QueryRequest> = originals
        .iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text.clone()).with_tenant(r.tenant as u32))
        .collect();

    let spec = ChurnSpec {
        n_updates: 12,
        ops_per_update: 2,
        assert_share: 0.6,
        seed: 3,
    };
    let stream = churn_updates(&p.db, &metas, &spec);
    let updates: Vec<UpdateRequest> = stream
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let ops: Vec<UpdateOp> = u
                .ops
                .iter()
                .map(|op| match op {
                    ChurnOp::Assert { text } => UpdateOp::Assert { text: text.clone() },
                    ChurnOp::Retract { id } => UpdateOp::Retract { id: *id },
                })
                .collect();
            // Stagger commits across the batch so queries land at many
            // different epochs.
            UpdateRequest::new(1_000 + u.tenant as u64, ops)
                .with_not_before(Duration::from_millis(i as u64))
        })
        .collect();

    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 256),
        ServeConfig {
            n_pools: 2,
            ..ServeConfig::default()
        },
    );
    let report = server.serve_mixed(queries, updates);

    // Every update committed (the churn generator only retracts live
    // facts when its stream is applied in order — which the single
    // update lane guarantees), at strictly increasing epochs.
    assert_eq!(report.updates.len(), stream.len());
    let mut last = 0;
    let mut logs: Vec<CommitLog> = Vec::new();
    for (i, u) in report.updates.iter().enumerate() {
        assert_eq!(u.request, i, "update responses in submission order");
        let UpdateOutcome::Committed { asserted } = &u.outcome else {
            panic!("update {i} rejected: {:?}", u.outcome);
        };
        assert!(u.epoch > last, "update lane epochs must increase: {i}");
        last = u.epoch;
        let mut texts = stream[i].ops.iter().filter_map(|op| match op {
            ChurnOp::Assert { text } => Some(text.clone()),
            ChurnOp::Retract { .. } => None,
        });
        let asserted: Vec<(u32, String)> = asserted
            .iter()
            .map(|cid| (cid.0, texts.next().expect("one text per asserted id")))
            .collect();
        let retracted: Vec<u32> = stream[i]
            .ops
            .iter()
            .filter_map(|op| match op {
                ChurnOp::Retract { id } => Some(id.0),
                ChurnOp::Assert { .. } => None,
            })
            .collect();
        logs.push((u.epoch, asserted, retracted));
    }
    assert_eq!(report.stats.commits, stream.len() as u64);
    assert_eq!(report.stats.final_epoch, last);

    verify_per_epoch(&p, &query_texts, &report.responses, logs, "mixed batch");

    // No readers or stashed versions survive the batch.
    let s = server.store().mvcc_stats();
    assert_eq!(server.store().reader_count(), 0, "leaked epoch pin");
    assert_eq!(s.stashed_pages, 0, "stash leak after batch");
}

#[test]
fn mixed_batch_is_epoch_exact_under_mvcc() {
    with_watchdog("mixed batch (mvcc)", run_mixed_batch);
}

// ---------------------------------------------------------------------------
// Free-running writers: N threads churning while M pools serve
// ---------------------------------------------------------------------------

fn run_writer_storm(n_writers: usize, n_pools: usize) {
    let m = mix();
    let (p, metas) = tenant_mix_program(&m);
    let originals = tenant_mix_requests(&m, &metas);
    let query_texts: Vec<String> = originals.iter().map(|r| r.text.clone()).collect();
    let queries: Vec<QueryRequest> = originals
        .iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text.clone()).with_tenant(r.tenant as u32))
        .collect();

    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 1024),
        ServeConfig {
            n_pools,
            ..ServeConfig::default()
        },
    );

    let stop = AtomicBool::new(false);
    let mut logs: Vec<CommitLog> = Vec::new();
    let mut report = None;
    std::thread::scope(|scope| {
        let (server, stop, metas) = (&server, &stop, &metas);
        let handles: Vec<_> = (0..n_writers)
            .map(|w| {
                scope.spawn(move || {
                    // Each writer churns one tenant and retracts only its
                    // own asserts, so every transaction commits and the
                    // union of logs is the total commit record.
                    let tenant = w % metas.len();
                    let parent = &metas[tenant].persons[1][w % metas[tenant].persons[1].len()];
                    let mut own: Vec<(u32, String)> = Vec::new();
                    let mut log: Vec<CommitLog> = Vec::new();
                    let mut i = 0usize;
                    while !stop.load(Ordering::Acquire) && log.len() < 60 {
                        if own.len() < 3 {
                            let text = format!("t{tenant}_f({parent},s{w}x{i}).");
                            i += 1;
                            let (epoch, ids) = server
                                .apply_update(&[UpdateOp::Assert { text: text.clone() }])
                                .expect("headroom covers every writer");
                            own.push((ids[0].0, text.clone()));
                            log.push((epoch, vec![(ids[0].0, text)], vec![]));
                        } else {
                            let (id, _) = own.remove(0);
                            let (epoch, _) = server
                                .apply_update(&[UpdateOp::Retract { id: ClauseId(id) }])
                                .expect("own asserts are live");
                            log.push((epoch, vec![], vec![id]));
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    log
                })
            })
            .collect();
        report = Some(server.serve(queries));
        stop.store(true, Ordering::Release);
        for h in handles {
            logs.extend(h.join().expect("writer thread panicked"));
        }
    });
    let report = report.expect("serve ran");

    assert!(
        logs.iter().map(|(e, _, _)| *e).max().unwrap_or(0) > 0,
        "writers must land commits during the batch"
    );
    verify_per_epoch(
        &p,
        &query_texts,
        &report.responses,
        logs,
        &format!("writer storm (mvcc w={n_writers} p={n_pools})"),
    );
    assert_eq!(server.store().reader_count(), 0, "leaked epoch pin");
    assert_eq!(server.store().stash_depth(), 0, "stash leak after batch");
}

#[test]
fn writer_storm_is_epoch_exact_under_mvcc() {
    with_watchdog("writer storm (mvcc 4x3)", || run_writer_storm(4, 3));
}

#[test]
fn single_writer_single_pool_still_interleaves() {
    with_watchdog("writer storm (mvcc 1x1)", || run_writer_storm(1, 1));
}

// ---------------------------------------------------------------------------
// Repeated batches: nothing accumulates
// ---------------------------------------------------------------------------

#[test]
fn repeated_churn_batches_retire_everything() {
    with_watchdog("repeated batches", || {
        let p = Arc::new(
            parse_program(
                "
                gf(X,Z) :- f(X,Y), f(Y,Z).
                f(curt,elain). f(sam,larry). f(larry,den). f(larry,doug).
            ",
            )
            .unwrap(),
        );
        let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 128), ServeConfig::default());
        let mut retired = 0;
        for round in 0..5 {
            let update = UpdateRequest::assert_text(9, format!("f(den,r{round})."));
            let report = server.serve_mixed(
                vec![QueryRequest::new(1, "gf(sam, G)"), QueryRequest::new(2, "gf(sam, G)")],
                vec![update],
            );
            assert!(report.updates[0].outcome.is_committed());
            let s = server.store().mvcc_stats();
            assert_eq!(s.committed_epoch, round + 1);
            assert_eq!(s.stashed_pages, 0, "round {round}: stash leak");
            assert_eq!(server.store().reader_count(), 0);
            assert!(
                s.pages_retired >= retired,
                "round {round}: retirement went backwards"
            );
            retired = s.pages_retired;
        }
        // The final database answers like its sequential equivalent.
        let full = parse_program(
            "
            gf(X,Z) :- f(X,Y), f(Y,Z).
            f(curt,elain). f(sam,larry). f(larry,den). f(larry,doug).
            f(den,r0). f(den,r1). f(den,r2). f(den,r3). f(den,r4).
        ",
        )
        .unwrap();
        let report = server.serve(vec![QueryRequest::new(3, "gf(sam, G)")]);
        assert_eq!(
            report.responses[0].outcome.solutions(),
            sequential_solutions(&full, "gf(sam, G)").as_slice()
        );
    });
}

// ---------------------------------------------------------------------------
// Fault storm: injected storage faults + writer churn, under the watchdog
// ---------------------------------------------------------------------------

use blog_serve::{BreakerConfig, FaultPlan, FaultSite, RetryPolicy};

/// Writer churn and a three-kind fault storm (transient reads, latency
/// spikes, injected engine panics) at once: the serving layer must stay
/// live (watchdog), leak nothing, answer every request exactly once, and
/// every response it *does* complete must still be the exact sequential
/// solution set of its epoch — resilience never buys availability with
/// wrong answers.
#[test]
fn fault_storm_with_writer_churn_is_live_and_exact() {
    with_watchdog("fault storm (2 writers, 2 pools)", || {
        let m = mix();
        let (p, metas) = tenant_mix_program(&m);
        let originals = tenant_mix_requests(&m, &metas);
        let query_texts: Vec<String> = originals.iter().map(|r| r.text.clone()).collect();
        let queries: Vec<QueryRequest> = originals
            .iter()
            .map(|r| {
                QueryRequest::new(r.tenant as u64, r.text.clone()).with_tenant(r.tenant as u32)
            })
            .collect();

        let plan = FaultPlan::new(0xD15EA5E)
            .with_site(FaultSite::transient_read(0.03))
            .with_site(FaultSite::latency_spike(0.02, 5))
            .with_site(FaultSite::panic(0.002));
        let server = QueryServer::new(
            &p.db,
            store_cfg(p.db.len(), 1024).with_fault(Some(plan)),
            ServeConfig {
                n_pools: 2,
                retry: RetryPolicy {
                    max_retries: 50,
                    base_backoff: Duration::from_micros(10),
                    max_backoff: Duration::from_micros(200),
                },
                breaker: BreakerConfig {
                    failure_threshold: u32::MAX,
                    cooldown: Duration::from_secs(1),
                },
                ..ServeConfig::default()
            },
        );

        let stop = AtomicBool::new(false);
        let mut logs: Vec<CommitLog> = Vec::new();
        let mut report = None;
        std::thread::scope(|scope| {
            let (server, stop, metas) = (&server, &stop, &metas);
            let handles: Vec<_> = (0..2)
                .map(|w| {
                    scope.spawn(move || {
                        let tenant = w % metas.len();
                        let parent =
                            &metas[tenant].persons[1][w % metas[tenant].persons[1].len()];
                        let mut own: Vec<(u32, String)> = Vec::new();
                        let mut log: Vec<CommitLog> = Vec::new();
                        let mut i = 0usize;
                        while !stop.load(Ordering::Acquire) && log.len() < 40 {
                            if own.len() < 3 {
                                let text = format!("t{tenant}_f({parent},s{w}x{i}).");
                                i += 1;
                                let (epoch, ids) = server
                                    .apply_update(&[UpdateOp::Assert { text: text.clone() }])
                                    .expect("headroom covers every writer");
                                own.push((ids[0].0, text.clone()));
                                log.push((epoch, vec![(ids[0].0, text)], vec![]));
                            } else {
                                let (id, _) = own.remove(0);
                                let (epoch, _) = server
                                    .apply_update(&[UpdateOp::Retract { id: ClauseId(id) }])
                                    .expect("own asserts are live");
                                log.push((epoch, vec![], vec![id]));
                            }
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        log
                    })
                })
                .collect();
            report = Some(server.serve(queries));
            stop.store(true, Ordering::Release);
            for h in handles {
                logs.extend(h.join().expect("writer thread panicked"));
            }
        });
        let report = report.expect("serve ran");

        // Liveness + bookkeeping: every request answered exactly once,
        // no stranded worker (the batch returned), nothing leaked.
        assert_eq!(
            report.stats.completed
                + report.stats.cancelled
                + report.stats.rejected
                + report.stats.overloaded
                + report.stats.failed,
            report.stats.requests,
            "every submission gets exactly one outcome"
        );
        assert!(report.stats.store.transient_faults > 0, "the storm fired");
        assert!(report.stats.retries > 0, "retries did the absorbing");
        assert!(report.stats.completed > 0, "the storm was survivable");
        assert_eq!(server.store().reader_count(), 0, "leaked epoch pin");
        assert_eq!(server.store().stash_depth(), 0, "stash leak after batch");

        // Soundness: completed responses (only) replay against the
        // per-epoch oracle; Failed ones returned no solutions at all.
        for r in &report.responses {
            if !r.outcome.is_completed() {
                assert!(r.outcome.solutions().is_empty() || matches!(r.outcome, blog_serve::Outcome::Cancelled { .. }));
            }
        }
        let completed: Vec<blog_serve::QueryResponse> = report
            .responses
            .iter()
            .filter(|r| r.outcome.is_completed())
            .cloned()
            .collect();
        verify_per_epoch(&p, &query_texts, &completed, logs, "fault storm");
    });
}

/// A driver that panics mid-flight (after submitting work) must not
/// strand the pool workers on their queue condvars: admission closes via
/// the drop guard, the pools drain, the panic propagates to the caller,
/// and the server keeps serving afterwards.
#[test]
fn driver_panic_mid_flight_releases_workers() {
    with_watchdog("driver panic mid-flight", || {
        let p = parse_program(
            "
            gf(X,Z) :- f(X,Y), f(Y,Z).
            f(curt,elain). f(sam,larry). f(larry,den). f(larry,doug).
        ",
        )
        .unwrap();
        let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 64), ServeConfig::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.serve_open(|s| {
                s.submit(QueryRequest::new(1, "gf(sam, G)"));
                s.submit(QueryRequest::new(2, "gf(sam, G)"));
                panic!("driver fell over mid-flight");
            })
        }));
        assert!(result.is_err(), "the driver's panic must propagate");
        // Workers were released (no deadlocked join), queues drained, and
        // the server still answers exactly.
        let report = server.serve(vec![QueryRequest::new(3, "gf(sam, G)")]);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(
            report.responses[0].outcome.solutions(),
            sequential_solutions(&p, "gf(sam, G)").as_slice()
        );
        assert_eq!(server.store().reader_count(), 0, "no stranded epoch pins");
    });
}
