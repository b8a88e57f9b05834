//! Property tests for the serving layer: N concurrent sessions through
//! the query server must produce exactly the same solution sets as the
//! same requests run sequentially against the raw database — whatever
//! the search-state representation, the per-request engine (sequential
//! best-first, or OR-parallel on one inline worker or on two sharded
//! ones), and however small the shared store's cache is. This extends
//! the `prop_frontier_policy` equivalence pattern one layer up, to the
//! scheduler.

use std::collections::HashMap;

use b_log::core::engine::{best_first, BestFirstConfig};
use b_log::core::weight::{WeightParams, WeightStore, WeightView};
use b_log::logic::node::StateRepr;
use b_log::logic::{parse_program, parse_query_shared, Program, SolveConfig};
use b_log::parallel::FrontierPolicy;
use b_log::serve::{ExecMode, QueryRequest, QueryServer, ServeConfig};
use b_log::spd::{Geometry, PagedStoreConfig, PolicyKind};
use proptest::prelude::*;

/// A random layered program (same family as `prop_frontier_policy`):
/// facts `a/2`, `b/2`, `top` join rules, and a bounded-recursion `chain`
/// layer, plus the depth limit that keeps it finite.
fn arb_program() -> impl Strategy<Value = (String, u32)> {
    (
        prop::collection::btree_set((0u32..5, 0u32..5), 1..10),
        prop::collection::btree_set((0u32..5, 0u32..5), 1..10),
        any::<bool>(),
        4u32..12,
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

/// Sequential ground truth: sorted solution texts of one query text.
fn sequential(p: &Program, text: &str, solve: &SolveConfig) -> Vec<String> {
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

/// A deliberately tiny shared cache, so serving churns evictions.
fn tiny_store(p: &Program) -> PagedStoreConfig {
    PagedStoreConfig {
        geometry: Geometry {
            n_sps: 2,
            n_cylinders: (p.db.len() as u32).div_ceil(4) + 1,
            blocks_per_track: 2,
        },
        capacity_tracks: 2,
        policy: PolicyKind::TwoQ,
        ..PagedStoreConfig::default()
    }
}

/// Three sessions interleaving the two query shapes, twice each.
fn batch() -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for round in 0..2 {
        for session in 0..3u64 {
            let text = if (session + round) % 2 == 0 {
                "top(X, Z)"
            } else {
                "chain(X, Z)"
            };
            requests.push(QueryRequest::new(session, text));
        }
    }
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_serving_equals_sequential_execution(case in arb_program()) {
        // (The vendored proptest macro only binds plain idents.)
        let (src, depth) = case;
        let p = parse_program(&src).expect("generated program parses");
        for repr in [StateRepr::shared(), StateRepr::Cloned] {
            let solve = SolveConfig::all().with_max_depth(depth).with_state_repr(repr);
            let truth: HashMap<&str, Vec<String>> = ["top(X, Z)", "chain(X, Z)"]
                .into_iter()
                .map(|t| (t, sequential(&p, t, &solve)))
                .collect();
            for exec in [
                ExecMode::Sequential,
                ExecMode::OrParallel { n_workers: 2, policy: FrontierPolicy::Sharded { d: 64 } },
                ExecMode::OrParallel { n_workers: 1, policy: FrontierPolicy::Sharded { d: 64 } },
            ] {
                let server = QueryServer::new(
                    &p.db,
                    tiny_store(&p),
                    ServeConfig {
                        n_pools: 2,
                        exec,
                        solve: solve.clone(),
                        ..ServeConfig::default()
                    },
                );
                let report = server.serve(batch());
                prop_assert_eq!(report.stats.rejected, 0);
                prop_assert_eq!(report.stats.cancelled, 0);
                for r in &report.responses {
                    let text = &batch()[r.request].text;
                    prop_assert_eq!(
                        r.outcome.solutions(),
                        truth[text.as_str()].as_slice(),
                        "{:?} {:?} request {} ({})",
                        repr, exec, r.request, text
                    );
                }
                // The store must have metered every engine fetch.
                let total_store: u64 =
                    report.responses.iter().map(|r| r.store_accesses).sum();
                prop_assert_eq!(total_store, report.stats.store.accesses);
            }
        }
    }
}
