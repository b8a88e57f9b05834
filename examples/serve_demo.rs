//! Serving demo: a multi-tenant burst of drifting §5 sessions through
//! the query server's session-affinity routing over one shared paged
//! store.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use b_log::logic::SolveConfig;
use b_log::serve::tuning::working_set_store_config;
use b_log::serve::{QueryRequest, QueryServer, ServeConfig};
use b_log::workloads::{tenant_mix_program, tenant_mix_requests, FamilyParams, TenantMix};

fn main() {
    // Eight tenants, each with a private family tree (disjoint working
    // sets) and a drifting session of 12 queries, offered in bursts.
    let mix = TenantMix {
        n_tenants: 8,
        queries_per_tenant: 12,
        drift: 0.15,
        burst: 3,
        family: FamilyParams {
            generations: 3,
            branching: 3,
            ..FamilyParams::default()
        },
        ..TenantMix::default()
    };
    let (program, metas) = tenant_mix_program(&mix);
    // Cache sized for the pools' *instantaneous* working set (each pool
    // serving one tenant) but not for all eight tenants at once: the
    // regime where scheduling decides warmth.
    let store_config = working_set_store_config(program.db.len());
    println!(
        "tenant mix: {} tenants, {} clauses over ~{} tracks (cache: {}), {} requests offered",
        mix.n_tenants,
        program.db.len(),
        program
            .db
            .len()
            .div_ceil(store_config.geometry.blocks_per_track as usize),
        store_config.capacity_tracks,
        mix.n_tenants * mix.queries_per_tenant,
    );

    let server = QueryServer::new(
        &program.db,
        store_config,
        ServeConfig {
            n_pools: 4,
            overflow_threshold: None,
            solve: SolveConfig::all(),
            // ~0.5µs per simulated SPD tick: pools overlap each
            // other's disk stalls, the serving form of §6 latency
            // hiding.
            stall_ns_per_tick: 500,
            ..ServeConfig::default()
        },
    );
    let requests: Vec<QueryRequest> = tenant_mix_requests(&mix, &metas)
        .into_iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text).with_tenant(r.tenant as u32))
        .collect();
    let report = server.serve(requests);
    let s = &report.stats;
    println!("\n== session-affinity routing ==");
    println!(
        "  {} requests in {:.1} ms  ({:.0} req/s), p50 {:.2} ms  p99 {:.2} ms",
        s.requests,
        s.wall_s * 1e3,
        s.throughput_rps,
        s.p50_ms,
        s.p99_ms
    );
    println!(
        "  store: {:.1}% hit rate ({} accesses, {} faults), warm sessions {:.1}% vs cold {:.1}%",
        100.0 * s.store.hits as f64 / s.store.accesses.max(1) as f64,
        s.store.accesses,
        s.store.misses,
        100.0 * s.warm.hit_rate(),
        100.0 * s.cold.hit_rate(),
    );
    println!(
        "  locks: {} acquisitions, {} contended; admission overflow: {}",
        s.store.lock_acquisitions, s.store.lock_contended, s.overflow_admissions
    );
    for p in &s.per_pool {
        println!(
            "    pool {}: {:>3} served, queue peak {:>3}, p50 {:.2} ms, hit rate {:.1}%",
            p.pool,
            p.served,
            p.queue_peak,
            p.p50_ms,
            100.0 * p.touches.hit_rate(),
        );
    }
    println!("\n(warm requests should hit at least as often as cold ones: one");
    println!(" session's similar queries stay on one pool, so its tracks are warm.)");
}
