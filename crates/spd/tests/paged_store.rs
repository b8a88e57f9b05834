//! Integration tests for the paged clause-store backend: the best-first
//! engine must see *exactly* the in-memory database's semantics through
//! the cache — under every replacement policy — while the cache reports
//! the search's real paging behavior.

mod support;

use std::collections::HashMap;

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::ClauseId;
use blog_spd::PolicyKind;

use support::{
    family_workload, figure_1_program, paged_config, paged_solutions, paged_store,
    reference_solutions, replay,
};

#[test]
fn figure_1_solutions_identical_with_live_cache_stats() {
    // The PR-1 acceptance criterion: identical solutions to the
    // in-memory ClauseDb on the paper's figure-1 program, with nonzero
    // hit AND miss counts proving the cache actually mediated the search.
    let program = figure_1_program();
    let expected = reference_solutions(&program);
    assert_eq!(expected.len(), 2, "figure 1 has solutions den and doug");

    let (got, stats) = paged_solutions(
        &program,
        paged_config(PolicyKind::Lru, 2, 2, program.db.len()),
    );
    assert_eq!(got, expected);
    assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
    assert!(stats.misses > 0, "expected cache misses, got {stats:?}");
    assert!(stats.fault_ticks > 0, "faults must cost ticks: {stats:?}");
}

#[test]
fn every_policy_is_semantically_transparent() {
    // This PR's acceptance criterion: whatever the replacement policy,
    // the engine's results must be identical to the unpaged ClauseDb
    // path — on the paper's program and on a generated workload, at a
    // thrashing capacity and at a comfortable one.
    for program in [figure_1_program(), family_workload()] {
        let expected = reference_solutions(&program);
        for policy in PolicyKind::ALL {
            for capacity in [1, 4] {
                let (got, stats) = paged_solutions(
                    &program,
                    paged_config(policy, capacity, 2, program.db.len()),
                );
                assert_eq!(
                    got, expected,
                    "policy {policy} at capacity {capacity} changed the solution set"
                );
                assert!(stats.accesses > 0, "{policy}: cache saw no accesses");
            }
        }
    }
}

#[test]
fn access_stream_is_policy_invariant() {
    // Transparency has a sharper corollary: since no policy may alter
    // the search, every policy sees the *identical* access stream — same
    // count, same hit+miss split.
    let program = family_workload();
    let mut accesses = None;
    for policy in PolicyKind::ALL {
        let (_, stats) = paged_solutions(&program, paged_config(policy, 4, 2, program.db.len()));
        assert_eq!(stats.hits + stats.misses, stats.accesses, "{policy}");
        match accesses {
            None => accesses = Some(stats.accesses),
            Some(a) => assert_eq!(a, stats.accesses, "{policy} changed the stream"),
        }
    }
}

#[test]
fn eviction_is_semantically_invisible() {
    // A single-track cache thrashes constantly; solutions must not change.
    let program = family_workload();
    let expected = reference_solutions(&program);

    let (got, stats) = paged_solutions(
        &program,
        paged_config(PolicyKind::Lru, 1, 2, program.db.len()),
    );
    assert_eq!(got, expected, "thrashing cache changed the solution set");
    assert!(
        stats.evictions > 0,
        "single-track cache over {} clauses must evict: {stats:?}",
        program.db.len()
    );
}

#[test]
fn hit_rate_is_monotone_in_capacity() {
    // LRU is a stack algorithm, so for the identical access stream the
    // hit count can only grow with capacity. The stream *is* identical at
    // every capacity because paging never alters the search. (2Q is
    // deliberately *not* a stack algorithm — this only holds for LRU.)
    let program = family_workload();
    let mut last_hits = 0u64;
    let mut accesses = None;
    for capacity in [1, 2, 4, 8, 16] {
        let (_, stats) = paged_solutions(
            &program,
            paged_config(PolicyKind::Lru, capacity, 2, program.db.len()),
        );
        assert!(
            stats.hits >= last_hits,
            "hits dropped from {last_hits} to {} at capacity {capacity}",
            stats.hits
        );
        last_hits = stats.hits;
        // Same search => same number of clause touches at every capacity.
        match accesses {
            None => accesses = Some(stats.accesses),
            Some(a) => assert_eq!(a, stats.accesses, "access stream changed with capacity"),
        }
    }
    assert!(last_hits > 0, "largest cache should finally hit");
}

#[test]
fn figure_1_trace_replay_smoke() {
    // Record the engine's clause-touch order on figure 1, then replay it
    // through a fresh store: replay must see the same access count as a
    // live run at the same capacity, and a warm second replay must hit
    // more than the cold first.
    let program = figure_1_program();
    let cfg = paged_config(PolicyKind::Lru, 2, 2, program.db.len());

    // Live run, capturing the access stream via a tracing wrapper run.
    let paged = paged_store(&program, cfg.clone());
    let store = WeightStore::new(WeightParams::default());
    let mut local = HashMap::new();
    let mut view = WeightView::new(&mut local, &store);
    let trace_cfg = BestFirstConfig {
        record_trace: true,
        ..BestFirstConfig::default()
    };
    let r = best_first_with(
        &paged.begin_read(),
        &program.queries[0],
        &mut view,
        &trace_cfg,
    );
    assert!(!r.trace.is_empty(), "record_trace must capture arcs");
    let live = paged.stats();

    // Replay the popped-arc trace (a subset of all touches: one per
    // expanded chain) against a fresh store.
    let trace: Vec<ClauseId> = r.trace.iter().map(|arc| arc.target).collect();
    let fresh = paged_store(&program, cfg);
    let snap = fresh.begin_read();
    let cold = replay(&snap, &trace);
    assert_eq!(cold.accesses, trace.len() as u64);
    assert!(cold.misses > 0);
    assert!(cold.accesses < live.accesses, "popped-arc trace is sparser");

    // Warm replay: residency carries over, so hits can only improve.
    let before_hits = cold.hits;
    let warm = replay(&snap, &trace);
    assert!(
        warm.hits - before_hits >= before_hits,
        "warm replay should hit at least as often as the cold one: {warm:?}"
    );
}

#[test]
fn learning_through_the_cache_matches_learning_without() {
    // Two trained runs (learn on) must produce the same node counts and
    // solutions whether or not the clauses come through the cache —
    // under every policy: the cache must not perturb weight updates
    // either.
    let program = figure_1_program();
    let cfg = BestFirstConfig::default();

    let run_plain = || {
        let store = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let first = {
            let mut view = WeightView::new(&mut local, &store);
            blog_core::engine::best_first(&program.db, &program.queries[0], &mut view, &cfg)
        };
        let mut view = WeightView::new(&mut local, &store);
        let second =
            blog_core::engine::best_first(&program.db, &program.queries[0], &mut view, &cfg);
        (first.stats.nodes_expanded, second.stats.nodes_expanded)
    };
    let run_paged = |policy: PolicyKind| {
        let paged = paged_store(&program, paged_config(policy, 2, 2, program.db.len()));
        let snap = paged.begin_read();
        let store = WeightStore::new(WeightParams::default());
        let mut local = HashMap::new();
        let first = {
            let mut view = WeightView::new(&mut local, &store);
            best_first_with(&snap, &program.queries[0], &mut view, &cfg)
        };
        let mut view = WeightView::new(&mut local, &store);
        let second = best_first_with(&snap, &program.queries[0], &mut view, &cfg);
        (first.stats.nodes_expanded, second.stats.nodes_expanded)
    };

    let plain = run_plain();
    for policy in PolicyKind::ALL {
        assert_eq!(plain, run_paged(policy), "policy {policy}");
    }
}
