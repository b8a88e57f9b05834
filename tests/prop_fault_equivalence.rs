//! Property tests for the resilient request path: under **any** seeded
//! transient-only fault plan, the server's answers must be exactly the
//! fault-free sequential oracle's — retries may cost attempts, never
//! correctness. Under permanent damage the server must *fail* requests,
//! with give-up advice, rather than ever shorten an answer. This
//! extends the `prop_serve_equivalence` pattern to the fault substrate,
//! on sequential pools and on OR-parallel pools whose helpers take faults
//! and panics of their own.

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use b_log::core::engine::{best_first, BestFirstConfig};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::{parse_program, parse_query_shared, Program};
use b_log::parallel::FrontierPolicy;
use b_log::serve::{
    BreakerConfig, ExecMode, FaultPlan, FaultSite, Outcome, QueryRequest, QueryServer,
    RetryPolicy, ServeConfig, TraceConfig,
};
use b_log::spd::{Geometry, PagedStoreConfig, PolicyKind};
use proptest::prelude::*;

/// A small random join program — deliberately *non-recursive* and
/// fact-bounded so per-request touch counts stay low enough that the
/// retry budget below makes completion under a ≤2% transient rate a
/// statistical certainty (each attempt succeeds with probability
/// `(1-rate)^touches`; 400 attempts at worst-case make the all-fail
/// probability astronomically small).
fn arb_program() -> impl Strategy<Value = String> {
    (
        prop::collection::btree_set((0u32..4, 0u32..4), 1..7),
        prop::collection::btree_set((0u32..4, 0u32..4), 1..7),
        any::<bool>(),
    )
        .prop_map(|(a_facts, b_facts, second_rule)| {
            let mut src = String::new();
            src.push_str("top(X,Z) :- a(X,Y), b(Y,Z).\n");
            if second_rule {
                src.push_str("top(X,Z) :- b(X,Y), a(Y,Z).\n");
            }
            for (x, y) in &a_facts {
                src.push_str(&format!("a(c{x},c{y}).\n"));
            }
            for (x, y) in &b_facts {
                src.push_str(&format!("b(c{x},f(c{y})).\n"));
            }
            src
        })
}

/// Fault-free sequential ground truth: sorted solution texts.
fn sequential(p: &Program, text: &str) -> Vec<String> {
    let q = parse_query_shared(&p.db, text).expect("query parses");
    let weights = WeightStore::new(WeightParams::default());
    let mut overlay = HashMap::new();
    let mut view = WeightView::new(&mut overlay, &weights);
    let r = best_first(&p.db, &q, &mut view, &BestFirstConfig::default());
    let mut texts: Vec<String> = r.solutions.iter().map(|s| s.solution.to_text(&p.db)).collect();
    texts.sort();
    texts
}

/// A small store, so the workload actually pages (faults fire on cache
/// touches — an all-resident store would still fault, but a paging one
/// exercises the refetch path too).
fn small_store(p: &Program) -> PagedStoreConfig {
    PagedStoreConfig {
        geometry: Geometry {
            n_sps: 2,
            n_cylinders: (p.db.len() as u32).div_ceil(4) + 1,
            blocks_per_track: 2,
        },
        capacity_tracks: 3,
        policy: PolicyKind::TwoQ,
        ..PagedStoreConfig::default()
    }
}

/// Two workers per request: the pool's thread and its one helper.
const TWO_WORKERS: ExecMode = ExecMode::OrParallel {
    n_workers: 2,
    policy: FrontierPolicy::Sharded { d: 512 },
};

/// Resilient-mode config: one pool running `exec` (sequential keeps the
/// fault plan's global touch sequence deterministic per seed), a retry
/// budget sized for certainty, and the breaker disabled so every
/// request runs the full retry ladder instead of being shed.
fn resilient(exec: ExecMode, retry: RetryPolicy) -> ServeConfig {
    ServeConfig {
        n_pools: 1,
        exec,
        retry,
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            cooldown: Duration::from_secs(10),
        },
        ..ServeConfig::default()
    }
}

fn eager_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 400,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

fn batch() -> Vec<QueryRequest> {
    (0..3u64)
        .map(|s| QueryRequest::new(s, "top(X, Z)"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transient-only plans (read errors + latency spikes, any seed, any
    /// rate up to 2%): every request completes and every solution set is
    /// the fault-free sequential oracle's, bit for bit — on a sequential
    /// pool and on a two-worker OR-parallel one (whose responses are the
    /// sorted sets).
    #[test]
    fn transient_faults_never_change_answers(case in (arb_program(), any::<u64>(), 0u32..2000, 0u32..5000)) {
        // (The vendored proptest macro only binds plain idents, and its
        // range strategies are integer-only — rates arrive scaled.)
        let (src, seed, read_bp, spike_bp) = case;
        let (read_rate, spike_rate) = (read_bp as f64 / 100_000.0, spike_bp as f64 / 100_000.0);
        let p = parse_program(&src).expect("generated program parses");
        let truth = sequential(&p, "top(X, Z)");
        for exec in [ExecMode::Sequential, TWO_WORKERS] {
            let plan = FaultPlan::new(seed)
                .with_site(FaultSite::transient_read(read_rate))
                .with_site(FaultSite::latency_spike(spike_rate, 2));
            let server = QueryServer::new(
                &p.db,
                small_store(&p).with_fault(Some(plan)),
                resilient(exec, eager_retry()),
            );
            let report = server.serve(batch());
            prop_assert_eq!(
                report.stats.completed, 3,
                "{:?}: transient-only + eager retries must complete (failed={}, retries={}, faults={})",
                exec, report.stats.failed, report.stats.retries, report.stats.store.transient_faults
            );
            for r in &report.responses {
                prop_assert_eq!(
                    r.outcome.solutions(), truth.as_slice(),
                    "{:?} seed={} rate={} request {}", exec, seed, read_rate, r.request
                );
            }
            prop_assert_eq!(server.store().reader_count(), 0);
        }
    }

    /// Permanent damage (any seed, any rate): requests either complete —
    /// in which case their answers are still oracle-exact — or fail with
    /// empty solutions and "give up" advice. Never a wrong or shortened
    /// answer, and every failure is backed by a metered permanent fault.
    #[test]
    fn permanent_damage_fails_rather_than_lies(case in (arb_program(), any::<u64>(), 50u32..1000)) {
        let (src, seed, rate_mil) = case;
        let rate = rate_mil as f64 / 1000.0;
        let p = parse_program(&src).expect("generated program parses");
        let truth = sequential(&p, "top(X, Z)");
        let plan = FaultPlan::new(seed).with_site(FaultSite::permanent_track(rate));
        let server = QueryServer::new(
            &p.db,
            small_store(&p).with_fault(Some(plan)),
            resilient(ExecMode::Sequential, RetryPolicy::default()),
        );
        let report = server.serve(batch());
        for r in &report.responses {
            match &r.outcome {
                Outcome::Completed { solutions } => {
                    prop_assert_eq!(solutions.as_slice(), truth.as_slice(),
                        "seed={} rate={} request {}", seed, rate, r.request);
                }
                Outcome::Failed { advice, .. } => {
                    prop_assert!(r.outcome.solutions().is_empty());
                    prop_assert!(!advice.retryable,
                        "permanent damage must advise giving up (seed={seed} rate={rate})");
                }
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
        }
        if report.stats.failed > 0 {
            prop_assert!(report.stats.store.permanent_faults > 0);
        }
        prop_assert_eq!(server.store().reader_count(), 0);
    }
}

/// Injected panics on a two-worker pool land on the pool's thread or on
/// its helper, whichever makes the faulted touch. A panic on the helper
/// must behave like one on the pool's thread: the helper survives, the
/// panic fails only its attempt (one retry), the next attempt and every
/// later request on the same pool complete exactly, and no snapshot is
/// left pinned.
#[test]
fn a_panic_on_a_helper_costs_one_attempt() {
    // A wide join, so the helper makes a share of every request's touches.
    let mut src = String::new();
    for pred in ["a", "b", "c"] {
        for i in 0..4 {
            src.push_str(&format!("{pred}(k{i}).\n"));
        }
    }
    src.push_str("t(X,Y,Z) :- a(X), b(Y), c(Z).\n");
    let p = parse_program(&src).unwrap();
    let truth = sequential(&p, "t(X, Y, Z)");
    let n_requests = 300;
    let plan = FaultPlan::new(11).with_site(FaultSite::panic(0.002));
    let server = QueryServer::new(
        &p.db,
        small_store(&p).with_fault(Some(plan)),
        ServeConfig {
            trace: TraceConfig::always_on().with_ring_capacity(n_requests),
            ..resilient(TWO_WORKERS, eager_retry())
        },
    );
    let report = server.serve(
        (0..n_requests as u64)
            .map(|s| QueryRequest::new(s, "t(X, Y, Z)"))
            .collect(),
    );
    assert_eq!(report.stats.completed, n_requests);
    for r in &report.responses {
        assert_eq!(r.outcome.solutions(), truth.as_slice(), "request {}", r.request);
    }
    // A worker that returns closes its span with a "worker" event; one
    // that unwinds closes the span without it. Count the engine runs
    // (attempts) in which some worker panicked, and the helper's panics.
    let (mut panicked_attempts, mut helper_panics) = (0, 0);
    for t in server.tracer().recorder().snapshot() {
        let mut engines = BTreeSet::new();
        for span in t.spans.iter().filter(|s| s.name.starts_with("worker")) {
            if !t.events.iter().any(|e| e.parent == span.id && e.name == "worker") {
                engines.insert(span.parent.0);
                helper_panics += u64::from(span.name == "worker1");
            }
        }
        panicked_attempts += engines.len() as u64;
    }
    assert!(helper_panics > 0, "no panic landed on the helper");
    assert_eq!(
        panicked_attempts, report.stats.retries,
        "each panicked attempt costs exactly one retry"
    );
    assert_eq!(server.store().reader_count(), 0);
}
