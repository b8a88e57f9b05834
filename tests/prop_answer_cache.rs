//! Property tests for the answer cache (tabling-lite): with caching on,
//! the server must be *observationally identical* to the same server
//! with caching off, across random programs, random interleaved
//! commit/query schedules, both search-state representations, and both
//! commit modes. A cache hit that returns a stale or wrong solution set
//! is exactly the bug class these properties hunt; the second property
//! pins down invalidation *precision* — a commit must spare entries
//! whose dependency footprint it does not touch, and those survivors
//! must still be correct.

use std::collections::HashMap;

use b_log::core::engine::{best_first, BestFirstConfig};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::node::StateRepr;
use b_log::logic::{parse_program, parse_query_shared, Program, SolveConfig};
use b_log::serve::tuning::churn_store_config;
use b_log::serve::{
    CacheConfig, CacheMode, Outcome, QueryRequest, QueryResponse, QueryServer, ServeConfig,
    ServedFrom, SessionId, UpdateOp, UpdateOutcome,
};
use proptest::prelude::*;

/// One step of an interleaved schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Run a query (session id, which of the two query shapes).
    Query { session: u64, top: bool },
    /// Commit a fresh fact into `a/2` or `b/2`.
    Assert { a_pred: bool, x: u32, y: u32 },
    /// Retract the most recently asserted still-live fact (no-op when
    /// nothing has been asserted yet).
    Retract,
}

/// The same layered program family as `prop_serve_equivalence`: `a/2`
/// and `b/2` facts under `top` join rules and a bounded `chain`
/// recursion.
fn arb_program() -> impl Strategy<Value = (String, u32)> {
    (
        prop::collection::btree_set((0u32..5, 0u32..5), 1..8),
        prop::collection::btree_set((0u32..5, 0u32..5), 1..8),
        any::<bool>(),
        4u32..10,
    )
        .prop_map(|(a_facts, b_facts, second_rule, depth)| {
            let mut src = String::new();
            src.push_str("top(X,Z) :- a(X,Y), b(Y,Z).\n");
            if second_rule {
                src.push_str("top(X,Z) :- b(X,Y), a(Y,Z).\n");
            }
            src.push_str("chain(X,Z) :- a(X,Z).\n");
            src.push_str("chain(X,Z) :- a(X,Y), chain(Y,Z).\n");
            for (x, y) in &a_facts {
                src.push_str(&format!("a(c{x},c{y}).\n"));
            }
            for (x, y) in &b_facts {
                src.push_str(&format!("b(c{x},f(c{y})).\n"));
            }
            (src, depth)
        })
}

fn arb_schedule() -> impl Strategy<Value = Vec<Step>> {
    // (The vendored prop_oneof! takes no weights: skew toward queries
    // by drawing a selector range instead.)
    prop::collection::vec(
        (0u32..7, 0u64..3, any::<bool>(), 0u32..5, 0u32..5).prop_map(
            |(pick, session, flag, x, y)| match pick {
                0..=3 => Step::Query { session, top: flag },
                4 | 5 => Step::Assert { a_pred: flag, x, y },
                _ => Step::Retract,
            },
        ),
        3..12,
    )
}

fn query_text(top: bool) -> &'static str {
    if top {
        "top(X, Z)"
    } else {
        "chain(X, Z)"
    }
}

/// Sequential ground truth of one query against one program source.
fn sequential(src: &str, solve: &SolveConfig, text: &str) -> Vec<String> {
    let p: Program = parse_program(src).expect("program parses");
    let q = parse_query_shared(&p.db, text).expect("query parses");
    let weights = WeightStore::new(WeightParams::default());
    let mut overlay = HashMap::new();
    let mut view = WeightView::new(&mut overlay, &weights);
    let cfg = BestFirstConfig {
        solve: solve.clone(),
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

fn server_for(p: &Program, solve: &SolveConfig, mode: CacheMode) -> QueryServer {
    QueryServer::new(
        &p.db,
        churn_store_config(p.db.len(), 512),
        ServeConfig {
            n_pools: 2,
            solve: solve.clone(),
            cache: CacheConfig {
                mode,
                ..CacheConfig::default()
            },
            ..ServeConfig::default()
        },
    )
}

/// Drive `schedule` through `server` one step at a time, quiescing after
/// every query so each response's epoch is deterministic. Returns the
/// query responses in schedule order plus, per response, the program
/// source that was live when it ran (for oracle replay).
fn run_schedule(
    server: &QueryServer,
    src: &str,
    schedule: &[Step],
) -> Vec<(QueryResponse, String, &'static str)> {
    let mut live = src.to_string();
    let mut asserted: Vec<(b_log::logic::ClauseId, String)> = Vec::new();
    let mut out = Vec::new();
    let (report, observed) = server.serve_open(|s| {
        let mut observed: Vec<(usize, String, &'static str)> = Vec::new();
        for step in schedule {
            match step {
                Step::Query { session, top } => {
                    let text = query_text(*top);
                    let idx = match s.submit(QueryRequest::new(*session, text)) {
                        b_log::serve::Admission::Queued { request, .. } => request,
                        b_log::serve::Admission::Overloaded { .. } => {
                            unreachable!("no byte budget is configured")
                        }
                    };
                    s.quiesce();
                    observed.push((idx, live.clone(), text));
                }
                Step::Assert { a_pred, x, y } => {
                    let fact = if *a_pred {
                        format!("a(c{x},c{y}).")
                    } else {
                        format!("b(c{x},f(c{y})).")
                    };
                    let r = s.update(SessionId(0), &[UpdateOp::Assert { text: fact.clone() }]);
                    match r.outcome {
                        UpdateOutcome::Committed { asserted: ids } => {
                            asserted.push((ids[0], fact.clone()));
                            live.push_str(&fact);
                            live.push('\n');
                        }
                        UpdateOutcome::Rejected { error } => {
                            panic!("assert rejected: {error}")
                        }
                    }
                }
                Step::Retract => {
                    if let Some((id, fact)) = asserted.pop() {
                        let r = s.update(SessionId(0), &[UpdateOp::Retract { id }]);
                        assert!(
                            matches!(r.outcome, UpdateOutcome::Committed { .. }),
                            "retract of a live own fact cannot fail"
                        );
                        let line = format!("{fact}\n");
                        let at = live.rfind(&line).expect("asserted fact is in the source");
                        live.replace_range(at..at + line.len(), "");
                    }
                }
            }
        }
        observed
    });
    for (idx, live_src, text) in observed {
        let response = report
            .responses
            .iter()
            .find(|r| r.request == idx)
            .expect("every submitted query gets a response")
            .clone();
        out.push((response, live_src, text));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache on == cache off == sequential oracle, under interleaved
    /// commits, for both state representations.
    #[test]
    fn cached_serving_equals_uncached_and_sequential(
        case in arb_program(),
        schedule in arb_schedule(),
    ) {
        let (src, depth) = case;
        let p = parse_program(&src).expect("generated program parses");
        for repr in [StateRepr::shared(), StateRepr::Cloned] {
            let solve = SolveConfig::all().with_max_depth(depth).with_state_repr(repr);
            let mut runs = Vec::new();
            for mode in [CacheMode::Off, CacheMode::Precise] {
                let server = server_for(&p, &solve, mode);
                let run = run_schedule(&server, &src, &schedule);
                for (r, live_src, text) in &run {
                    prop_assert!(
                        !matches!(r.outcome, Outcome::Rejected { .. }),
                        "schedule queries always parse"
                    );
                    let expect = sequential(live_src, &solve, text);
                    prop_assert_eq!(
                        r.outcome.solutions(),
                        expect.as_slice(),
                        "{:?} {:?}: {} at epoch {} ({}) diverged from the \
                         sequential oracle of its live program",
                        repr, mode, text, r.epoch, r.served_from.label()
                    );
                }
                runs.push((mode, run));
            }
            // Pairwise: cached modes are observationally identical
            // to cache-off, epoch tags included.
            let (_, off) = &runs[0];
            for (mode, cached) in &runs[1..] {
                prop_assert_eq!(cached.len(), off.len());
                for ((c, _, _), (o, _, _)) in cached.iter().zip(off) {
                    prop_assert_eq!(
                        c.outcome.solutions(),
                        o.outcome.solutions(),
                        "{:?} {:?} diverged from CacheMode::Off on request {}",
                        repr, mode, c.request
                    );
                    prop_assert_eq!(c.epoch, o.epoch);
                }
            }
        }
    }

    /// Invalidation precision: a commit touching only `b/2` must spare
    /// the `a(X, Z)` entry (whose footprint is `{a}`) and drop the
    /// `top` entry (whose footprint includes `b`) — and the surviving
    /// hit must still be the correct answer set. (The recursive `chain`
    /// query is deliberately absent here: it completes only by depth
    /// cutoff, and the fill-soundness rule refuses to cache truncated
    /// enumerations.)
    #[test]
    fn commits_spare_entries_with_disjoint_footprints(case in arb_program()) {
        let (src, depth) = case;
        let p = parse_program(&src).expect("generated program parses");
        let solve = SolveConfig::all().with_max_depth(depth);
        let server = server_for(&p, &solve, CacheMode::Precise);
        let fill = server.serve(vec![
            QueryRequest::new(0, "top(X, Z)"),
            QueryRequest::new(0, "a(X, Z)"),
        ]);
        prop_assert_eq!(fill.stats.cache.fills, 2, "complete enumerations fill");

        let (_, ids) = server
            .apply_update(&[UpdateOp::Assert { text: "b(c0,f(c9)).".to_string() }])
            .expect("assert commits");
        prop_assert_eq!(ids.len(), 1);

        let after = server.serve(vec![
            QueryRequest::new(1, "a(X, Z)"),
            QueryRequest::new(1, "top(X, Z)"),
        ]);
        let a_q = after.responses.iter().find(|r| r.request == 0).unwrap();
        let top = after.responses.iter().find(|r| r.request == 1).unwrap();
        prop_assert_eq!(
            a_q.served_from, ServedFrom::Cache,
            "the b/2 commit must not evict the a/2 entry"
        );
        prop_assert_eq!(
            top.served_from, ServedFrom::Engine,
            "the b/2 commit must invalidate the top entry"
        );

        let live = format!("{src}b(c0,f(c9)).\n");
        let a_truth = sequential(&live, &solve, "a(X, Z)");
        let top_truth = sequential(&live, &solve, "top(X, Z)");
        prop_assert_eq!(
            a_q.outcome.solutions(),
            a_truth.as_slice(),
            "the surviving cache hit must still be correct"
        );
        prop_assert_eq!(top.outcome.solutions(), top_truth.as_slice());
    }
}
