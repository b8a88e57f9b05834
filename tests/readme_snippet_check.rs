use b_log::serve::{
    CacheConfig, CacheMode, FaultPlan, FaultSite, QueryRequest, QueryServer, RetryPolicy,
    ServeConfig, ServedFrom, SessionId, TraceConfig, UpdateOp,
};
use b_log::spd::PagedStoreConfig;
use std::time::Duration;

#[test]
fn readme_paged_backend_snippet() {
    use b_log::core::engine::{best_first_with, BestFirstConfig};
    use b_log::core::weight::{WeightParams, WeightStore, WeightView};
    use b_log::spd::{CommitMode, MvccClauseStore};

    let program = b_log::logic::parse_program(b_log::workloads::PAPER_FIGURE_1).unwrap();
    let store = MvccClauseStore::new(&program.db, PagedStoreConfig::default(), CommitMode::Mvcc);
    let snap = store.begin_read();
    let weights = WeightStore::new(WeightParams::default());
    let mut local = std::collections::HashMap::new();
    let mut view = WeightView::new(&mut local, &weights);
    let r = best_first_with(&snap, &program.queries[0], &mut view, &BestFirstConfig::default());
    assert_eq!(r.solutions.len(), 2);
    let stats = store.stats();
    assert!(stats.accesses > 0);
}

#[test]
fn readme_serving_v2_snippet() {
    let program = b_log::logic::parse_program(b_log::workloads::PAPER_FIGURE_1).unwrap();
    let config = ServeConfig {
        cache: CacheConfig { mode: CacheMode::Precise, ..CacheConfig::default() },
        ..ServeConfig::default()
    };
    let server = QueryServer::new(&program.db, PagedStoreConfig::default(), config);

    let (report, ()) = server.serve_open(|s| {
        s.submit(QueryRequest::new(1, "gf(sam, G)"));
        s.quiesce();
        s.submit(QueryRequest::new(2, "gf(sam, Who)"));
        s.quiesce();
        s.update(SessionId(9), &[UpdateOp::Assert { text: "f(larry,ann).".into() }]);
        s.submit(QueryRequest::new(3, "gf(sam, G)"));
    });
    assert_eq!(report.responses[1].served_from, ServedFrom::Cache);
    assert_eq!(report.responses[1].stats.nodes_expanded, 0);
    assert_eq!(report.responses[2].outcome.solutions().len(), 3);
    assert_eq!(report.stats.cache.hits, 1);
}

#[test]
fn readme_telemetry_snippet() {
    let program = b_log::logic::parse_program(b_log::workloads::PAPER_FIGURE_1).unwrap();
    let config = ServeConfig {
        trace: TraceConfig::always_on(),
        ..ServeConfig::default()
    };
    let server = QueryServer::new(&program.db, PagedStoreConfig::default(), config);
    let report = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);

    let traces = server.tracer().recorder().snapshot();
    let t = &traces[0];
    assert!(t.well_formed().is_ok());
    assert!(t.span_total_ns("queue_wait") > 0);
    assert!(t.spans.iter().any(|s| s.name == "engine"));
    println!("{}", b_log::serve::to_jsonl(&traces));
    assert!(report.stats.to_json().render().contains("\"p50_ms\""));
}

#[test]
fn readme_resilience_snippet() {
    let program = b_log::logic::parse_program(b_log::workloads::PAPER_FIGURE_1).unwrap();
    // Every clause-track read fails 30% of the time (seeded, replayable).
    let store_config = PagedStoreConfig::default().with_fault(Some(
        FaultPlan::new(42).with_site(FaultSite::transient_read(0.3)),
    ));
    let config = ServeConfig {
        retry: RetryPolicy {
            max_retries: 50,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
        },
        ..ServeConfig::default()
    };
    let server = QueryServer::new(&program.db, store_config, config);

    let report = server.serve(vec![QueryRequest::new(1, "gf(sam, G)")]);
    assert!(report.responses[0].outcome.is_completed());
    assert!(report.stats.store.transient_faults > 0);
    assert_eq!(report.responses[0].outcome.solutions().len(), 2);
}
