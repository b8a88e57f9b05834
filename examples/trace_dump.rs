//! Trace export: serve a 32-request tenant mix with every request traced
//! and a mild latency-spike plan injected, then write the flight recorder
//! as JSON-lines (`TRACE_DUMP.jsonl`, one trace per line) and as a
//! chrome://tracing / Perfetto document (`TRACE_DUMP_chrome.json`).
//!
//! ```text
//! cargo run --release --example trace_dump
//! ```

use b_log::serve::tuning::working_set_store_config;
use b_log::serve::{
    to_chrome_trace, to_jsonl, FaultPlan, FaultSite, QueryRequest, QueryServer, ServeConfig,
    TraceConfig,
};
use b_log::workloads::{tenant_mix_program, tenant_mix_requests, TenantMix};

fn main() {
    let mix = TenantMix {
        n_tenants: 8,
        queries_per_tenant: 4,
        ..TenantMix::default()
    };
    let (program, metas) = tenant_mix_program(&mix);
    let config = ServeConfig {
        stall_ns_per_tick: 2_000,
        trace: TraceConfig::always_on(),
        ..ServeConfig::default()
    };
    let server = QueryServer::new(
        &program.db,
        working_set_store_config(program.db.len()).with_fault(Some(
            FaultPlan::new(14).with_site(FaultSite::latency_spike(0.02, 50)),
        )),
        config,
    );
    let requests = tenant_mix_requests(&mix, &metas)
        .into_iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text).with_tenant(r.tenant as u32))
        .collect();
    server.serve(requests);

    let traces = server.tracer().recorder().snapshot();
    std::fs::write("TRACE_DUMP.jsonl", to_jsonl(&traces)).expect("write TRACE_DUMP.jsonl");
    std::fs::write("TRACE_DUMP_chrome.json", to_chrome_trace(&traces))
        .expect("write TRACE_DUMP_chrome.json");
    let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
    println!(
        "dumped {} traces ({spans} spans) to TRACE_DUMP.jsonl and TRACE_DUMP_chrome.json \
         (load the latter at chrome://tracing or ui.perfetto.dev)",
        traces.len()
    );
}
