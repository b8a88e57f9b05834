//! Integration tests for the query server: routing, warmth, overflow
//! admission, cancellation, and — above all — result equivalence between
//! concurrent serving and sequential execution.

use std::collections::HashMap;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use blog_core::engine::{best_first, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{parse_program, parse_query_shared, Program, SolveConfig};
use blog_parallel::FrontierPolicy;
use blog_serve::{
    Admission, CacheConfig, CacheMode, ExecMode, Outcome, QueryRequest, QueryServer, ServeConfig,
    ServedFrom, SessionId, TraceConfig, TraceRecord, UpdateOp, UpdateOutcome,
};
use blog_spd::{Geometry, IndexPolicy, PagedStoreConfig, PolicyKind};
use blog_workloads::{tenant_mix_program, tenant_mix_requests, FamilyParams, TenantMix};

const FAMILY: &str = "
    gf(X,Z) :- f(X,Y), f(Y,Z).
    gf(X,Z) :- f(X,Y), m(Y,Z).
    f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
    f(pat,john). f(larry,doug).
    m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
";

fn store_cfg(db_len: usize, capacity_tracks: usize) -> PagedStoreConfig {
    let blocks_per_track = 2;
    let n_sps = 2;
    let tracks_needed = db_len.div_ceil(blocks_per_track as usize);
    PagedStoreConfig {
        geometry: Geometry {
            n_sps,
            n_cylinders: (tracks_needed.div_ceil(n_sps as usize) + 1) as u32,
            blocks_per_track,
        },
        capacity_tracks,
        policy: PolicyKind::TwoQ,
        ..PagedStoreConfig::default()
    }
}

/// Sequential ground truth: sorted solution texts for one query text.
fn sequential_solutions(p: &Program, text: &str) -> Vec<String> {
    let q = parse_query_shared(&p.db, text).expect("query parses");
    let weights = WeightStore::new(WeightParams::default());
    let mut overlay = HashMap::new();
    let mut view = WeightView::new(&mut overlay, &weights);
    let cfg = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let r = best_first(&p.db, &q, &mut view, &cfg);
    let mut texts: Vec<String> = r
        .solutions
        .iter()
        .map(|s| s.solution.to_text(&p.db))
        .collect();
    texts.sort();
    texts
}

#[test]
fn serves_family_queries_exactly() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 4), ServeConfig::default());
    let requests = vec![
        QueryRequest::new(1, "gf(sam, G)"),
        QueryRequest::new(2, "gf(curt, G)"),
        QueryRequest::new(1, "gf(sam, G)"),
    ];
    let report = server.serve(requests);
    assert_eq!(report.responses.len(), 3);
    assert_eq!(report.stats.completed, 3);
    for (i, text) in ["gf(sam, G)", "gf(curt, G)", "gf(sam, G)"]
        .iter()
        .enumerate()
    {
        let r = &report.responses[i];
        assert_eq!(r.request, i, "responses in batch order");
        match &r.outcome {
            Outcome::Completed { solutions } => {
                assert_eq!(**solutions, sequential_solutions(&p, text), "{text}");
            }
            other => panic!("{text}: {other:?}"),
        }
    }
    // Same session, affinity routing: same pool both times, warm second.
    assert_eq!(report.responses[0].pool, report.responses[2].pool);
    assert!(!report.responses[0].warm);
    assert!(report.responses[2].warm);
}

#[test]
fn or_parallel_exec_mode_matches_sequential() {
    let p = parse_program(FAMILY).unwrap();
    // One worker runs the sequential heap inline; three own a heap
    // each and share the pool's two helpers.
    for n_workers in [1, 3] {
        let server = QueryServer::new(
            &p.db,
            store_cfg(p.db.len(), 4),
            ServeConfig {
                exec: ExecMode::OrParallel {
                    n_workers,
                    policy: FrontierPolicy::Sharded { d: 512 },
                },
                ..ServeConfig::default()
            },
        );
        let report = server.serve(vec![QueryRequest::new(9, "gf(sam, G)")]);
        assert_eq!(
            report.responses[0].outcome.solutions(),
            sequential_solutions(&p, "gf(sam, G)"),
            "x{n_workers}"
        );
    }
}

#[test]
fn or_parallel_pool_reuses_one_helper_thread() {
    // 8⁴ solutions. `t(X, Y, Z, W)` and `t(X, Y, Z, k2)` make 586
    // expansions, past `LONE_EXPANSIONS`, so worker 0 calls the helper in
    // and the helper usually gets chains; `t(k1, Y, Z, W)` makes 75 and
    // worker 0 searches it alone.
    let mut src = String::new();
    for pred in ["a", "b", "c", "d"] {
        for i in 0..8 {
            src.push_str(&format!("{pred}(k{i}).\n"));
        }
    }
    src.push_str("t(X,Y,Z,W) :- a(X), b(Y), c(Z), d(W).\n");
    let p = parse_program(&src).unwrap();
    let n_requests = 120;
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4),
        ServeConfig {
            n_pools: 1,
            exec: ExecMode::OrParallel {
                n_workers: 2,
                policy: FrontierPolicy::Sharded { d: 512 },
            },
            trace: TraceConfig::always_on().with_ring_capacity(n_requests),
            ..ServeConfig::default()
        },
    );
    let texts = ["t(X, Y, Z, W)", "t(k1, Y, Z, W)", "t(X, Y, Z, k2)"];
    let truth: Vec<Vec<String>> = texts.iter().map(|t| sequential_solutions(&p, t)).collect();
    let (report, ()) = server.serve_open(|s| {
        for i in 0..n_requests {
            s.submit(QueryRequest::new(i as u64, texts[i % texts.len()]));
        }
    });
    assert_eq!(report.stats.completed, n_requests);
    for r in &report.responses {
        let i = r.request % texts.len();
        assert_eq!(r.outcome.solutions(), truth[i], "{}", texts[i]);
    }
    // Each worker span closes with a "worker" event: "<nodes> nodes on
    // <thread id>". Worker 0 is the pool's own thread, worker 1 the
    // pool's one helper, for every request.
    let traces = server.tracer().recorder().snapshot();
    assert_eq!(traces.len(), n_requests);
    let mut threads: [std::collections::BTreeSet<String>; 2] = Default::default();
    let mut helper_nodes = 0u64;
    for t in &traces {
        for (w, threads) in threads.iter_mut().enumerate() {
            let Some(span) = t.spans.iter().find(|s| s.name == format!("worker{w}")) else {
                continue;
            };
            let detail = &t
                .events
                .iter()
                .find(|e| e.parent == span.id && e.name == "worker")
                .expect("worker event")
                .detail;
            let (nodes, thread) = detail.split_once(" nodes on ").expect("event format");
            if w == 1 {
                helper_nodes += nodes.parse::<u64>().unwrap();
            }
            threads.insert(thread.to_string());
        }
    }
    assert!(
        helper_nodes > 0,
        "the helper expanded nothing in {n_requests} requests"
    );
    assert_eq!(threads[1].len(), 1, "one helper thread: {:?}", threads[1]);
    assert_eq!(threads[0].len(), 1, "one pool thread: {:?}", threads[0]);
    assert_ne!(threads[0], threads[1]);
}

#[test]
fn a_small_or_parallel_request_never_wakes_the_helper() {
    // `gf(sam, G)` ends long before `LONE_EXPANSIONS`: worker 0 searches
    // it alone on the pool's thread, and the parked helper never runs a
    // part, so no request's flight record has a `worker1` span.
    let p = parse_program(FAMILY).unwrap();
    let n_requests = 8;
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4),
        ServeConfig {
            n_pools: 1,
            exec: ExecMode::OrParallel {
                n_workers: 2,
                policy: FrontierPolicy::Sharded { d: 512 },
            },
            trace: TraceConfig::always_on().with_ring_capacity(n_requests),
            ..ServeConfig::default()
        },
    );
    let report = server.serve(
        (0..n_requests as u64)
            .map(|s| QueryRequest::new(s, "gf(sam, G)"))
            .collect(),
    );
    assert_eq!(report.stats.completed, n_requests);
    let truth = sequential_solutions(&p, "gf(sam, G)");
    for r in &report.responses {
        assert_eq!(r.outcome.solutions(), truth);
    }
    let traces = server.tracer().recorder().snapshot();
    assert_eq!(traces.len(), n_requests);
    for t in &traces {
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"worker0"), "{names:?}");
        assert!(!names.contains(&"worker1"), "the helper ran: {names:?}");
    }
}

#[test]
fn affinity_keeps_a_session_on_its_home_pool() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4),
        ServeConfig {
            n_pools: 3,
            ..ServeConfig::default()
        },
    );
    // One hot session, six requests: all on one pool.
    let report = server.serve((0..6).map(|_| QueryRequest::new(7, "gf(sam, G)")).collect());
    let pools: std::collections::BTreeSet<usize> =
        report.responses.iter().map(|r| r.pool).collect();
    assert_eq!(pools.len(), 1, "affinity keeps the session home");
}

#[test]
fn overflow_threshold_diverts_a_hot_session() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4),
        ServeConfig {
            n_pools: 2,
            overflow_threshold: Some(2),
            ..ServeConfig::default()
        },
    );
    let report = server.serve((0..8).map(|_| QueryRequest::new(7, "gf(sam, G)")).collect());
    assert!(
        report.stats.overflow_admissions > 0,
        "a hot session past the threshold must divert"
    );
    let pools: std::collections::BTreeSet<usize> =
        report.responses.iter().map(|r| r.pool).collect();
    assert_eq!(pools.len(), 2, "diverted requests land on the other pool");
    // Queue peaks stay near the threshold: 8 requests over 2 pools with
    // threshold 2 must not pile 7 deep anywhere.
    for pr in &report.stats.per_pool {
        assert!(
            pr.queue_peak <= 5,
            "pool {} peaked at {}",
            pr.pool,
            pr.queue_peak
        );
    }
    // Every response still exact.
    let expect = sequential_solutions(&p, "gf(sam, G)");
    for r in &report.responses {
        assert_eq!(r.outcome.solutions(), expect);
    }
}

#[test]
fn malformed_and_unknown_queries_reject_without_engine_work() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 4), ServeConfig::default());
    let report = server.serve(vec![
        QueryRequest::new(1, "gf(sam,"),
        QueryRequest::new(2, "zebra(sam, G)"),
        QueryRequest::new(3, "gf(sam, G)"),
    ]);
    assert_eq!(report.stats.rejected, 2);
    assert_eq!(report.stats.completed, 1);
    for r in &report.responses[..2] {
        assert!(matches!(r.outcome, Outcome::Rejected { .. }));
        assert_eq!(r.stats.nodes_expanded, 0);
        assert_eq!(r.store_accesses, 0);
    }
    // A rejection touches none of the session's tracks, so it must not
    // mark the session warm for the next request.
    let retry = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);
    assert!(
        !retry.responses[0].warm,
        "a rejected request must not warm its session"
    );
    let after = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);
    assert!(after.responses[0].warm, "a completed request does");
}

#[test]
fn hostile_deep_query_text_is_a_parse_rejection_and_the_pool_keeps_serving() {
    // 2 KB of `f(f(f(…` used to overflow the parsing thread's stack — a
    // process abort no `catch_unwind` contains. It must come back as an
    // ordinary rejection, on both lanes, and leave the pool serving.
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 4), ServeConfig::default());
    let hostile = format!("{}sam{}", "f(".repeat(1_000), ")".repeat(1_000));
    let (report, ()) = server.serve_open(|s| {
        s.submit(QueryRequest::new(1, hostile.clone()));
        s.quiesce();
        s.update(
            SessionId(2),
            &[UpdateOp::Assert {
                text: format!("{hostile}."),
            }],
        );
        s.submit(QueryRequest::new(1, "gf(sam, G)"));
        s.quiesce();
    });
    let Outcome::Rejected { error } = &report.responses[0].outcome else {
        panic!(
            "hostile query must be rejected: {:?}",
            report.responses[0].outcome
        );
    };
    assert!(error.contains("levels deep"), "{error}");
    assert_eq!(report.responses[0].stats.nodes_expanded, 0);
    let UpdateOutcome::Rejected { error } = &report.updates[0].outcome else {
        panic!(
            "hostile assert must be rejected: {:?}",
            report.updates[0].outcome
        );
    };
    assert!(error.contains("levels deep"), "{error}");
    assert_eq!(report.stats.commits, 0);
    assert_eq!(
        report.responses[1].outcome.solutions(),
        sequential_solutions(&p, "gf(sam, G)")
    );
}

#[test]
fn per_request_node_budget_truncates() {
    let p = parse_program(
        "
        edge(a,b). edge(b,a).
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- edge(X,Y), path(Y,Z).
    ",
    )
    .unwrap();
    let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 4), ServeConfig::default());
    let report = server.serve(vec![QueryRequest::new(1, "path(a, X)").with_max_nodes(100)]);
    let r = &report.responses[0];
    assert!(
        r.outcome.is_completed(),
        "budget exhaustion is not cancellation"
    );
    assert!(r.stats.truncated, "but it is reported as truncation");
    assert!(r.stats.nodes_expanded <= 101);
}

#[test]
fn deadline_cancels_mid_flight_and_keeps_partials() {
    // Unbounded left-recursive search; only the deadline can stop it.
    let p = parse_program(
        "
        edge(a,b). edge(b,a).
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- edge(X,Y), path(Y,Z).
    ",
    )
    .unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4),
        ServeConfig {
            n_pools: 1,
            solve: SolveConfig {
                max_nodes: None,
                ..SolveConfig::all()
            },
            ..ServeConfig::default()
        },
    );
    let t0 = std::time::Instant::now();
    let report = server.serve(vec![
        QueryRequest::new(1, "path(a, X)").with_deadline(Duration::from_millis(30))
    ]);
    let elapsed = t0.elapsed();
    let r = &report.responses[0];
    assert!(
        matches!(r.outcome, Outcome::Cancelled { .. }),
        "unbounded search must be reaped: {:?}",
        r.outcome
    );
    assert!(r.stats.truncated);
    assert_eq!(report.stats.cancelled, 1);
    assert!(
        elapsed < Duration::from_secs(20),
        "the deadline must stop the search promptly, took {elapsed:?}"
    );
}

#[test]
fn expired_in_queue_requests_are_shed_unrun() {
    // One slow request ahead of a zero-deadline one on a single pool:
    // the second expires while queued and must not run at all.
    let p = parse_program(
        "
        edge(a,b). edge(b,a).
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- edge(X,Y), path(Y,Z).
    ",
    )
    .unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4),
        ServeConfig {
            n_pools: 1,
            ..ServeConfig::default()
        },
    );
    let report = server.serve(vec![
        QueryRequest::new(1, "path(a, X)").with_max_nodes(2_000),
        QueryRequest::new(2, "path(a, X)").with_deadline(Duration::ZERO),
    ]);
    let shed = &report.responses[1];
    assert!(matches!(shed.outcome, Outcome::Cancelled { .. }));
    assert_eq!(shed.stats.nodes_expanded, 0, "shed without engine work");
    assert_eq!(shed.store_accesses, 0);
}

#[test]
fn store_cache_stays_warm_across_batches() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 16),
        ServeConfig {
            n_pools: 1,
            ..ServeConfig::default()
        },
    );
    let cold = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);
    let warm = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);
    let cold_rate = cold.responses[0].store_hit_rate();
    let warm_rate = warm.responses[0].store_hit_rate();
    assert!(
        warm_rate > cold_rate,
        "second batch must hit the resident tracks: {cold_rate} -> {warm_rate}"
    );
    assert!(warm.responses[0].warm, "session ledger persists too");
}

#[test]
fn serve_stats_are_internally_consistent() {
    let mix = TenantMix {
        n_tenants: 3,
        queries_per_tenant: 5,
        ..TenantMix::default()
    };
    let (p, metas) = tenant_mix_program(&mix);
    let requests: Vec<QueryRequest> = tenant_mix_requests(&mix, &metas)
        .into_iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text).with_tenant(r.tenant as u32))
        .collect();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 8),
        ServeConfig {
            n_pools: 2,
            ..ServeConfig::default()
        },
    );
    let report = server.serve(requests);
    let s = &report.stats;
    assert_eq!(s.requests, 15);
    assert_eq!(
        s.completed + s.cancelled + s.rejected + s.overloaded,
        s.requests
    );
    assert_eq!(s.rejected, 0);
    assert_eq!(s.overloaded, 0);
    assert_eq!(
        s.per_pool.iter().map(|p| p.served).sum::<usize>(),
        s.requests
    );
    // Store counters balance: the run's delta equals the pool touches,
    // equals the per-response attribution.
    let pool_accesses: u64 = s.per_pool.iter().map(|p| p.touches.accesses).sum();
    let response_accesses: u64 = report.responses.iter().map(|r| r.store_accesses).sum();
    assert_eq!(s.store.accesses, pool_accesses);
    assert_eq!(s.store.accesses, response_accesses);
    assert_eq!(s.store.hits + s.store.misses, s.store.accesses);
    assert_eq!(s.warm.accesses + s.cold.accesses, s.store.accesses);
    assert_eq!(s.warm.requests + s.cold.requests, s.requests);
    assert!(s.throughput_rps > 0.0);
    assert!(s.p99_ms >= s.p50_ms);
    assert!(s.store.lock_acquisitions > 0);
    // Every response exact vs sequential.
    let originals = tenant_mix_requests(&mix, &metas);
    for r in &report.responses {
        let text = &originals[r.request].text;
        assert_eq!(
            r.outcome.solutions(),
            sequential_solutions(&p, text),
            "request {} ({text})",
            r.request
        );
    }
}

#[test]
fn tenant_mix_warm_requests_hit_at_least_as_often_as_cold_ones() {
    // The §5 claim in miniature: drifting sessions with disjoint working
    // sets through a capacity-limited shared cache — affinity keeps each
    // session's tracks warm between its bursts, so a request on the pool
    // that last served its session hits at least as often as one that
    // runs cold.
    let mix = TenantMix {
        n_tenants: 6,
        queries_per_tenant: 8,
        drift: 0.1,
        burst: 2,
        family: FamilyParams {
            generations: 3,
            branching: 3,
            ..FamilyParams::default()
        },
        ..TenantMix::default()
    };
    let (p, metas) = tenant_mix_program(&mix);
    let requests = tenant_mix_requests(&mix, &metas)
        .into_iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text).with_tenant(r.tenant as u32))
        .collect();
    // Capacity: a couple of tenants' working sets, not all six.
    let tracks_total = p.db.len().div_ceil(2);
    let capacity = (tracks_total / 3).max(2);
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), capacity),
        ServeConfig {
            n_pools: 2,
            ..ServeConfig::default()
        },
    );
    let stats = server.serve(requests).stats;
    assert!(
        stats.warm.hit_rate() >= stats.cold.hit_rate(),
        "warm requests hit at least as often as cold ones: warm {:.3} cold {:.3}",
        stats.warm.hit_rate(),
        stats.cold.hit_rate()
    );
}

fn cached_config(mode: CacheMode) -> ServeConfig {
    ServeConfig {
        cache: CacheConfig {
            mode,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    }
}

#[test]
fn answer_cache_hits_bypass_the_engine() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 8),
        cached_config(CacheMode::Precise),
    );
    let first = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);
    assert_eq!(first.responses[0].served_from, ServedFrom::Engine);
    assert_eq!(first.stats.cache.fills, 1);
    assert_eq!(first.stats.cache.hits, 0);
    // An alpha-variant of the same query from a *different* session hits
    // the cache: no engine, no store traffic, exact answers.
    let second = server.serve(vec![QueryRequest::new(2, "gf(sam, Who)")]);
    let r = &second.responses[0];
    assert_eq!(r.served_from, ServedFrom::Cache);
    assert_eq!(
        r.outcome.solutions(),
        sequential_solutions(&p, "gf(sam, G)")
    );
    assert_eq!(r.stats.nodes_expanded, 0, "hit bypasses the engine");
    assert_eq!(r.store_accesses, 0, "hit touches no tracks");
    assert!(r.warm, "a cache hit is a warm response");
    assert_eq!(second.stats.cache.hits, 1);
    assert_eq!(second.stats.cache.fills, 0);
}

#[test]
fn quoted_names_get_their_own_answer_cache_entries() {
    // `p('_0')` is not `p(X)`, and `q('a,b')` (arity 1) is not `q(a, b)`
    // (arity 2): each must run on an engine, never take the other's
    // cached answer.
    let p = parse_program("p('_0'). p(b). q('a,b'). q(a,c).").unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 8),
        cached_config(CacheMode::Precise),
    );
    for (first, second) in [("p(X)", "p('_0')"), ("q('a,b')", "q(a, b)")] {
        for text in [first, second] {
            let report = server.serve(vec![QueryRequest::new(1, text)]);
            let r = &report.responses[0];
            assert_eq!(r.served_from, ServedFrom::Engine, "{text}");
            assert_eq!(
                r.outcome.solutions(),
                sequential_solutions(&p, text),
                "{text}"
            );
        }
    }
    assert_eq!(sequential_solutions(&p, "p('_0')"), ["true"]);
    assert_eq!(sequential_solutions(&p, "p(X)"), ["X = '_0'", "X = b"]);
    assert!(sequential_solutions(&p, "q(a, b)").is_empty());
    // The same texts again are hits, with the same answers.
    let again = server.serve(vec![
        QueryRequest::new(1, "p('_0')"),
        QueryRequest::new(1, "q(a, b)"),
    ]);
    for r in &again.responses {
        assert_eq!(r.served_from, ServedFrom::Cache);
    }
    assert_eq!(again.responses[0].outcome.solutions(), ["true"]);
    assert!(again.responses[1].outcome.solutions().is_empty());
}

#[test]
fn a_capped_request_completes_with_one_of_the_full_set() {
    let p = parse_program(FAMILY).unwrap();
    let all = sequential_solutions(&p, "gf(sam, G)");
    assert!(all.len() >= 2, "the cap must cut something: {all:?}");
    for n_workers in [1, 3] {
        let exec = ExecMode::OrParallel {
            n_workers,
            policy: FrontierPolicy::Sharded { d: 512 },
        };
        let config = ServeConfig {
            exec,
            ..ServeConfig::default()
        };
        let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 4), config);
        let request = QueryRequest::new(1, "gf(sam, G)").with_max_solutions(1);
        let outcome = &server.serve(vec![request]).responses[0].outcome;
        assert!(matches!(outcome, Outcome::Completed { .. }), "{outcome:?}");
        let got = outcome.solutions();
        assert!(
            got.len() == 1 && all.contains(&got[0]),
            "x{n_workers}: {got:?}"
        );
    }
}

#[test]
fn capped_and_uncapped_requests_never_answer_each_other() {
    // The cache key carries the cap, and a run its cap stopped depends
    // on expansion order, so it is never memoized: the capped request
    // runs on an engine every time, and the uncapped one fills the cache
    // and hits it on its repeat. Both orders, each twice.
    let p = parse_program(FAMILY).unwrap();
    let all = sequential_solutions(&p, "gf(sam, G)");
    for capped_first in [true, false] {
        let server = QueryServer::new(
            &p.db,
            store_cfg(p.db.len(), 8),
            cached_config(CacheMode::Precise),
        );
        for round in 0..2 {
            for capped in [capped_first, !capped_first] {
                let mut request = QueryRequest::new(1, "gf(sam, G)");
                if capped {
                    request = request.with_max_solutions(1);
                }
                let r = &server.serve(vec![request]).responses[0];
                assert!(matches!(r.outcome, Outcome::Completed { .. }));
                let got = r.outcome.solutions();
                let from = if capped || round == 0 {
                    ServedFrom::Engine
                } else {
                    ServedFrom::Cache
                };
                assert_eq!(r.served_from, from, "capped {capped}, round {round}");
                if capped {
                    assert!(got.len() == 1 && all.contains(&got[0]), "{got:?}");
                } else {
                    assert_eq!(got, all, "the full set, never the single answer");
                }
            }
        }
    }
}

#[test]
fn list_queries_against_a_program_without_the_empty_list_are_answered() {
    // The program only takes lists apart (`[X|_]`), so `[]` appears only
    // in the query; it must still be served, not refused as unknown.
    let p = parse_program("member(X, [X|_]). member(X, [_|T]) :- member(X, T). item(a). item(b).")
        .unwrap();
    let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 8), ServeConfig::default());
    for (text, want) in [
        ("member(a, [a, b])", &["true"][..]),
        ("member(X, [b])", &["X = b"]),
    ] {
        let report = server.serve(vec![QueryRequest::new(1, text)]);
        assert_eq!(report.responses[0].outcome.solutions(), want, "{text}");
        assert_eq!(sequential_solutions(&p, text), want, "{text}");
    }
}

#[test]
fn list_queries_after_an_update_that_only_takes_lists_apart_are_answered() {
    // The base has no lists at all; the update brings `'.'` in through
    // `[X|_]` patterns only, and `[]` must come with it.
    let p = parse_program("item(a). item(b).").unwrap();
    let server = QueryServer::new(&p.db, store_cfg(p.db.len(), 8), ServeConfig::default());
    server
        .apply_update(&[UpdateOp::Assert {
            text: "member(X,[X|_]). member(X,[_|T]) :- member(X,T).".into(),
        }])
        .unwrap();
    for (text, want) in [
        ("member(a, [a, b])", &["true"][..]),
        ("member(X, [b])", &["X = b"]),
    ] {
        let report = server.serve(vec![QueryRequest::new(1, text)]);
        assert_eq!(report.responses[0].outcome.solutions(), want, "{text}");
    }
}

#[test]
fn the_store_config_picks_the_index_policy() {
    let p = parse_program(FAMILY).unwrap();
    for (index, indexed) in [(IndexPolicy::None, false), (IndexPolicy::FirstArg, true)] {
        let server = QueryServer::new(
            &p.db,
            store_cfg(p.db.len(), 4).with_index(index),
            ServeConfig::default(),
        );
        assert_eq!(server.store().index_policy(), index);
        let report = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.store.index_hits > 0, indexed, "{index:?}");
    }
}

#[test]
fn commits_invalidate_touched_predicates_and_spare_the_rest() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 8),
        cached_config(CacheMode::Precise),
    );
    // Two entries: gf/2 depends on {gf, f, m}; m(peg, X) on {m} only.
    server.serve(vec![
        QueryRequest::new(1, "gf(sam, G)"),
        QueryRequest::new(2, "m(peg, X)"),
    ]);
    // Commit touching f/2 only.
    server
        .apply_update(&[UpdateOp::Assert {
            text: "f(larry,zoe).".into(),
        }])
        .unwrap();
    let report = server.serve(vec![
        QueryRequest::new(3, "gf(sam, G)"),
        QueryRequest::new(4, "m(peg, X)"),
    ]);
    let gf = &report.responses[0];
    let m = &report.responses[1];
    assert_eq!(
        gf.served_from,
        ServedFrom::Engine,
        "gf depends on the touched f/2 — its entry must die"
    );
    assert!(
        gf.outcome.solutions().iter().any(|s| s.contains("zoe")),
        "re-run sees the committed fact: {:?}",
        gf.outcome.solutions()
    );
    assert_eq!(
        m.served_from,
        ServedFrom::Cache,
        "m/2 is disjoint from the commit — its entry survives"
    );
    assert_eq!(
        report.stats.cache.invalidations, 0,
        "invalidation happened at commit time"
    );
}

#[test]
fn open_loop_interleaves_submissions_and_commits_deterministically() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 8),
        cached_config(CacheMode::Precise),
    );
    let (report, marker) = server.serve_open(|s| {
        let a = s.submit(QueryRequest::new(1, "gf(sam, G)"));
        assert!(matches!(a, Admission::Queued { request: 0, .. }));
        s.quiesce();
        s.update(
            SessionId(9),
            &[UpdateOp::Assert {
                text: "f(larry,zoe).".into(),
            }],
        );
        s.submit(QueryRequest::new(1, "gf(sam, G)"));
        s.quiesce();
        assert_eq!(s.pending(), 0);
        42
    });
    assert_eq!(marker, 42, "driver result is returned");
    assert_eq!(report.responses.len(), 2);
    assert_eq!(report.updates.len(), 1);
    assert_eq!(report.stats.commits, 1);
    let before = &report.responses[0];
    let after = &report.responses[1];
    assert!(before.epoch < after.epoch, "second query sees the commit");
    assert!(!before.outcome.solutions().iter().any(|s| s.contains("zoe")));
    assert!(after.outcome.solutions().iter().any(|s| s.contains("zoe")));
    // Same canonical query, but the commit invalidated the entry: both
    // ran on an engine, and the second filled a fresh window.
    assert_eq!(after.served_from, ServedFrom::Engine);
    assert_eq!(report.stats.cache.invalidations, 1);
    assert_eq!(report.stats.cache.fills, 2);
}

#[test]
fn governor_refuses_submissions_past_the_byte_budget() {
    // Budget fits exactly one request reservation; a slow in-flight
    // request therefore forces the next submission to be refused.
    let p = parse_program(
        "
        edge(a,b). edge(b,a).
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- edge(X,Y), path(Y,Z).
    ",
    )
    .unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4),
        ServeConfig {
            n_pools: 1,
            cache: CacheConfig {
                mode: CacheMode::Precise,
                budget_bytes: Some(16 * 1024),
                request_reserve_bytes: 16 * 1024,
            },
            ..ServeConfig::default()
        },
    );
    let (report, ()) = server.serve_open(|s| {
        let a = s.submit(QueryRequest::new(1, "path(a, X)").with_max_nodes(3_000));
        assert!(matches!(a, Admission::Queued { .. }));
        let b = s.submit(QueryRequest::new(2, "path(a, X)"));
        assert!(
            matches!(b, Admission::Overloaded { request: 1 }),
            "budget holds one reservation: {b:?}"
        );
        // Once the first request finishes, its reservation frees and
        // admission recovers.
        s.quiesce();
        let c = s.submit(QueryRequest::new(3, "gf(a, X)"));
        assert!(matches!(c, Admission::Queued { .. }), "{c:?}");
    });
    assert_eq!(report.responses.len(), 3);
    assert_eq!(report.stats.overloaded, 1);
    assert_eq!(
        report.stats.completed
            + report.stats.cancelled
            + report.stats.rejected
            + report.stats.overloaded,
        report.stats.requests
    );
    // Throughput counts the two admitted requests, not the refusal.
    assert_eq!(
        (report.stats.throughput_rps * report.stats.wall_s).round(),
        2.0
    );
    let refused = &report.responses[1];
    assert!(matches!(refused.outcome, Outcome::Overloaded { .. }));
    assert_eq!(refused.stats.nodes_expanded, 0);
    assert_eq!(refused.store_accesses, 0);
}

#[test]
fn quiesce_returns_with_three_pools_and_refused_submissions_mixed_in() {
    // The pools wake a quiescing driver only when nothing is left in
    // flight; refused submissions never enter that count, so they must
    // not leave the driver waiting for a completion that never comes.
    let p = parse_program(
        "
        edge(a,b). edge(b,a).
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- edge(X,Y), path(Y,Z).
    ",
    )
    .unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4),
        ServeConfig {
            n_pools: 3,
            cache: CacheConfig {
                mode: CacheMode::Precise,
                budget_bytes: Some(2 * 16 * 1024),
                request_reserve_bytes: 16 * 1024,
            },
            ..ServeConfig::default()
        },
    );
    let (report, (queued, refused)) = server.serve_open(|s| {
        let (mut queued, mut refused) = (0, 0);
        for _round in 0..20 {
            for session in 0..6 {
                // Truncated by the node budget, so never cached: every
                // admitted request holds its reservation while it runs.
                let request = QueryRequest::new(session, "path(a, X)").with_max_nodes(2_000);
                match s.submit(request) {
                    Admission::Queued { .. } => queued += 1,
                    Admission::Overloaded { .. } => refused += 1,
                }
            }
            s.quiesce();
            assert_eq!(s.pending(), 0);
        }
        (queued, refused)
    });
    assert!(
        refused > 0,
        "the budget holds two reservations, six arrive at once"
    );
    assert_eq!(report.responses.len(), queued + refused);
    assert_eq!(report.stats.overloaded, refused);
    assert_eq!(report.stats.completed, queued);
    let pools: std::collections::HashSet<usize> = report
        .responses
        .iter()
        .filter(|r| !matches!(r.outcome, Outcome::Overloaded { .. }))
        .map(|r| r.pool)
        .collect();
    assert!(pools.len() > 1, "more than one pool served: {pools:?}");
}

#[test]
fn a_lone_submission_always_wakes_a_parked_pool() {
    // A submission wakes its pool only if the pool is parked, and a
    // quiescing driver is woken only by the completion that leaves
    // nothing in flight. One request per round, then a quiesce, lets the
    // pool park between rounds, so a lost wakeup on either side hangs
    // the run: a watchdog turns that hang into a failure.
    const ROUNDS: u64 = 500;
    for n_pools in [1, 3] {
        let (done, finished) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let p = parse_program(FAMILY).unwrap();
            let server = QueryServer::new(
                &p.db,
                store_cfg(p.db.len(), 8),
                ServeConfig {
                    n_pools,
                    ..ServeConfig::default()
                },
            );
            let (report, ()) = server.serve_open(|s| {
                for round in 0..ROUNDS {
                    s.submit(QueryRequest::new(round, "gf(sam, G)"));
                    s.quiesce();
                    assert_eq!(s.pending(), 0);
                }
            });
            let _ = done.send(report);
        });
        // A hung run cannot be joined; one that ended is, so that its
        // own panic is the one reported.
        let report = match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(report) => report,
            Err(RecvTimeoutError::Timeout) => {
                panic!("{n_pools} pool(s): a submission or a quiesce was never woken")
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(run.join().expect_err("the run sent no report"))
            }
        };
        run.join().expect("the run ended after sending its report");
        assert_eq!(report.stats.completed, ROUNDS as usize, "{n_pools} pool(s)");
        let expect = sequential_solutions(&parse_program(FAMILY).unwrap(), "gf(sam, G)");
        for r in &report.responses {
            assert_eq!(r.outcome.solutions(), expect);
        }
    }
}

// --- Resilience: retries, panic isolation, breakers, degraded serving.

use blog_serve::{BreakerConfig, FaultPlan, FaultSite, RetryPolicy};

/// A retry policy tuned for tests: a deep budget and near-zero backoff.
fn eager_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 50,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(100),
    }
}

/// A breaker that effectively never trips (for tests isolating retries).
fn no_breaker() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: u32::MAX,
        cooldown: Duration::from_secs(10),
    }
}

#[test]
fn transient_faults_are_absorbed_by_retries() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4).with_fault(Some(FaultPlan::transient(42, 0.05))),
        ServeConfig {
            n_pools: 1,
            retry: eager_retry(),
            breaker: no_breaker(),
            ..ServeConfig::default()
        },
    );
    let report = server.serve(vec![
        QueryRequest::new(1, "gf(sam, G)"),
        QueryRequest::new(2, "gf(curt, G)"),
        QueryRequest::new(1, "gf(sam, G)"),
    ]);
    assert_eq!(
        report.stats.completed, 3,
        "retries mask every transient fault"
    );
    assert_eq!(report.stats.failed, 0);
    assert!(
        report.stats.store.transient_faults > 0,
        "the plan actually fired"
    );
    assert!(report.stats.retries > 0, "recovery took retries");
    for (r, text) in report
        .responses
        .iter()
        .zip(["gf(sam, G)", "gf(curt, G)", "gf(sam, G)"])
    {
        assert_eq!(
            r.outcome.solutions(),
            sequential_solutions(&p, text),
            "a retried answer is still the exact sequential solution set"
        );
    }
}

#[test]
fn no_retry_ablation_fails_instead_of_answering_wrong() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4).with_fault(Some(FaultPlan::transient(42, 0.05))),
        ServeConfig {
            n_pools: 1,
            retry: RetryPolicy::none(),
            breaker: no_breaker(),
            ..ServeConfig::default()
        },
    );
    let report = server.serve(vec![
        QueryRequest::new(1, "gf(sam, G)"),
        QueryRequest::new(2, "gf(curt, G)"),
        QueryRequest::new(1, "gf(sam, G)"),
    ]);
    assert_eq!(report.stats.retries, 0);
    assert!(
        report.stats.failed > 0,
        "same schedule, no retries: requests fail"
    );
    for r in &report.responses {
        match &r.outcome {
            Outcome::Completed { solutions } => {
                // A lucky fault-free request still answers exactly.
                let text = if r.session == SessionId(2) {
                    "gf(curt, G)"
                } else {
                    "gf(sam, G)"
                };
                assert_eq!(**solutions, sequential_solutions(&p, text));
            }
            Outcome::Failed { advice, .. } => {
                assert!(advice.retryable, "transient failures invite resubmission");
                assert!(r.outcome.solutions().is_empty(), "no partial answers");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn permanent_damage_fails_with_give_up_advice() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4).with_fault(Some(
            FaultPlan::new(7).with_site(FaultSite::permanent_track(1.0)),
        )),
        ServeConfig {
            n_pools: 1,
            retry: eager_retry(),
            breaker: no_breaker(),
            ..ServeConfig::default()
        },
    );
    let report = server.serve(vec![
        QueryRequest::new(1, "gf(sam, G)"),
        QueryRequest::new(2, "gf(curt, G)"),
    ]);
    assert_eq!(
        report.stats.failed, 2,
        "damaged medium: retrying is useless"
    );
    assert_eq!(report.stats.completed, 0);
    for r in &report.responses {
        let Some(advice) = r.outcome.retry_advice() else {
            panic!("expected Failed, got {:?}", r.outcome);
        };
        assert!(!advice.retryable, "permanent faults say give up");
    }
}

#[test]
fn injected_panics_are_isolated_to_the_request() {
    let p = parse_program(FAMILY).unwrap();
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4)
            .with_fault(Some(FaultPlan::new(3).with_site(FaultSite::panic(1.0)))),
        ServeConfig {
            n_pools: 1,
            retry: RetryPolicy::none(),
            breaker: no_breaker(),
            ..ServeConfig::default()
        },
    );
    // Both requests panic inside the engine; the pool worker survives
    // both (the second executes, the batch drains, the call returns).
    let report = server.serve(vec![
        QueryRequest::new(1, "gf(sam, G)"),
        QueryRequest::new(2, "gf(curt, G)"),
    ]);
    assert_eq!(report.stats.failed, 2);
    for r in &report.responses {
        match &r.outcome {
            Outcome::Failed { error, .. } => {
                assert!(error.contains("panic"), "{error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}

#[test]
fn open_breaker_serves_cached_answers_degraded() {
    let p = parse_program(FAMILY).unwrap();
    let config = ServeConfig {
        n_pools: 1,
        retry: RetryPolicy::none(),
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(30),
        },
        cache: CacheConfig {
            mode: CacheMode::Precise,
            budget_bytes: None,
            request_reserve_bytes: 1024,
        },
        ..ServeConfig::default()
    };
    // Measure the cache-filling batch's touch count on an identical
    // fault-free server, then schedule a hard transient storm from the
    // very next touch: the fill runs clean, everything after it fails.
    let probe = QueryServer::new(&p.db, store_cfg(p.db.len(), 4), config.clone());
    let fill_touches = probe
        .serve(vec![QueryRequest::new(1, "gf(sam, G)")])
        .stats
        .store
        .accesses;
    let plan = FaultPlan::new(11)
        .with_site(FaultSite::transient_read(1.0).between(fill_touches, u64::MAX));
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4).with_fault(Some(plan)),
        config,
    );
    // Batch 1: fill the cache while storage is healthy.
    let fill = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);
    assert_eq!(fill.stats.completed, 1);
    assert_eq!(
        fill.stats.store.transient_faults, 0,
        "storm starts after the fill"
    );
    // Batch 2: three uncached queries fail against the storm and trip
    // the pool's breaker.
    let storm = server.serve(vec![
        QueryRequest::new(2, "gf(curt, G)"),
        QueryRequest::new(3, "gf(curt, G)"),
        QueryRequest::new(4, "gf(curt, G)"),
    ]);
    assert_eq!(storm.stats.failed, 3);
    assert_eq!(
        storm.stats.breaker_opens, 1,
        "third consecutive failure trips"
    );
    // Batch 3: the breaker is open — the cached query is still answered
    // (degraded cache-only serving); the uncached one fails fast with a
    // cooldown hint, touching no storage.
    let degraded = server.serve(vec![
        QueryRequest::new(1, "gf(sam, G)"),
        QueryRequest::new(5, "gf(curt, G)"),
    ]);
    assert_eq!(degraded.stats.degraded_cache_hits, 1);
    let hit = &degraded.responses[0];
    assert_eq!(hit.served_from, ServedFrom::Cache);
    assert_eq!(
        hit.outcome.solutions(),
        sequential_solutions(&p, "gf(sam, G)")
    );
    let miss = &degraded.responses[1];
    match &miss.outcome {
        Outcome::Failed { advice, .. } => {
            assert!(advice.retryable);
            assert!(
                advice.retry_after > Duration::ZERO,
                "come back after cooldown"
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(
        degraded.stats.store.transient_faults, 0,
        "degraded path reads no pages"
    );
}

#[test]
fn breaker_reroutes_admissions_to_healthy_pools() {
    let p = parse_program(FAMILY).unwrap();
    // Pool 1's path to the disk is permanently sick; pool 0 is fine.
    let plan = FaultPlan::new(5).with_site(FaultSite::transient_read(1.0).for_pool(1));
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4).with_fault(Some(plan)),
        ServeConfig {
            n_pools: 2,
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(30),
            },
            ..ServeConfig::default()
        },
    );
    // Six sessions whose home is pool 1, paced one at a time so each
    // admission sees the breaker state the previous request left behind.
    let sessions = (100..).filter(|&s| blog_obs::splitmix64(s) % 2 == 1);
    let (report, ()) = server.serve_open(|s| {
        for session in sessions.take(6) {
            s.submit(QueryRequest::new(session, "gf(sam, G)"));
            s.quiesce();
        }
    });
    assert_eq!(report.stats.failed, 1, "only pool 1's first victim fails");
    assert!(
        report.stats.breaker_reroutes >= 1,
        "later admissions to pool 1 divert to pool 0"
    );
    for r in &report.responses {
        if r.outcome.is_completed() {
            assert_eq!(
                r.outcome.solutions(),
                sequential_solutions(&p, "gf(sam, G)")
            );
        }
    }
}

#[test]
fn breaker_storm_traces_the_full_transition_cycle() {
    let p = parse_program(FAMILY).unwrap();
    // Every touch in [0, 3) faults: the first three requests each fail
    // on their first clause fetch, tripping the single pool's breaker
    // at the threshold.
    let plan = FaultPlan::new(9).with_site(FaultSite::transient_read(1.0).between(0, 3));
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 4).with_fault(Some(plan)),
        ServeConfig {
            n_pools: 1,
            retry: RetryPolicy::none(),
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(50),
            },
            trace: TraceConfig::always_on(),
            ..ServeConfig::default()
        },
    );
    let storm = server.serve(vec![
        QueryRequest::new(1, "gf(sam, G)"),
        QueryRequest::new(2, "gf(sam, G)"),
        QueryRequest::new(3, "gf(sam, G)"),
    ]);
    assert_eq!(storm.stats.failed, 3);
    assert_eq!(
        storm.stats.breaker_opens, 1,
        "third consecutive failure trips"
    );
    std::thread::sleep(Duration::from_millis(60));
    // Cooldown elapsed: the next request is the half-open probe; the
    // storm window is spent, so it runs clean and closes the breaker.
    let probe = server.serve(vec![QueryRequest::new(4, "gf(sam, G)")]);
    assert_eq!(probe.stats.completed, 1);
    assert_eq!(
        probe.responses[0].outcome.solutions(),
        sequential_solutions(&p, "gf(sam, G)")
    );

    // Every request was traced (sample 1-in-1); the breaker transition
    // events across the flight recorder, in timestamp order, must spell
    // the exact Closed -> Open -> HalfOpen -> Closed cycle.
    let mut transitions: Vec<(u64, String)> = server
        .tracer()
        .recorder()
        .snapshot()
        .iter()
        .flat_map(|t| t.events.iter().map(|e| (e.at_ns, e.name.clone())))
        .filter(|(_, name)| name.starts_with("breaker_"))
        .collect();
    transitions.sort();
    let names: Vec<&str> = transitions.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(
        names,
        ["breaker_open", "breaker_half_open", "breaker_closed"]
    );
    // And the trees themselves are well-formed.
    for t in server.tracer().recorder().snapshot() {
        t.well_formed().expect("trace tree is well-formed");
    }
}

/// Serve a 16-request tenant mix on two pools under `trace` and return
/// what the flight recorder kept.
fn traced_tenant_mix(trace: TraceConfig) -> Vec<TraceRecord> {
    let mix = TenantMix {
        n_tenants: 4,
        queries_per_tenant: 4,
        ..TenantMix::default()
    };
    let (p, metas) = tenant_mix_program(&mix);
    let server = QueryServer::new(
        &p.db,
        store_cfg(p.db.len(), 8),
        ServeConfig {
            n_pools: 2,
            trace,
            ..ServeConfig::default()
        },
    );
    let requests = tenant_mix_requests(&mix, &metas)
        .into_iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text).with_tenant(r.tenant as u32))
        .collect();
    let report = server.serve(requests);
    assert_eq!(report.stats.completed, 16);
    server.tracer().recorder().snapshot()
}

#[test]
fn tracing_off_records_nothing() {
    assert!(
        traced_tenant_mix(TraceConfig::off()).is_empty(),
        "tracing off records nothing"
    );
}

#[test]
fn always_on_tracing_records_a_well_formed_trace_per_request() {
    let traces = traced_tenant_mix(TraceConfig::always_on());
    assert_eq!(traces.len(), 16, "always-on traces every request");
    for t in &traces {
        t.well_formed()
            .unwrap_or_else(|e| panic!("malformed trace {}: {e}", t.label));
        assert!(
            t.span_total_ns("queue_wait") > 0,
            "queue_wait missing: {}",
            t.label
        );
        assert!(
            t.spans.iter().any(|s| s.name == "engine"),
            "engine span missing: {}",
            t.label
        );
    }
}
