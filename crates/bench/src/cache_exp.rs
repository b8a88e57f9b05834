//! T12: the answer-cache experiment — open-loop sustainable throughput
//! with and without tabling-lite, invalidation precision under churn,
//! and memory-governed admission.
//!
//! The workload is the serving regime's [`TenantMix`] made
//! *repeated-query-heavy*: Zipf-skewed session arrivals (one hot tenant
//! issuing most of the traffic, a cold tail) over drifting §5 walks, so
//! the same canonical queries recur — exactly the population an answer
//! cache feeds on. Load is **open-loop**: a Poisson arrival schedule
//! submits requests through [`QueryServer::serve_open`] while the pools
//! drain, so queueing delay is real — past the server's capacity the
//! backlog grows without bound and p99 *sojourn* (wait + service)
//! explodes. Every configuration gets the same steady-state warmup (one
//! closed-batch pass over the distinct queries — store tracks warmed
//! for cache-off, answers filled for cache-on) so the timed window
//! measures queueing, not cold-start fills. The sustainable rate of a
//! configuration is the highest offered rate whose p99 sojourn stays
//! under the SLO; the headline number is that rate with the cache on
//! versus off.
//!
//! The churn phase pins down **invalidation precision**: one writer
//! churns the *coldest* tenant's facts while the sweep's hot traffic
//! repeats. [`CacheMode::Precise`] drops only entries whose dependency
//! footprint intersects each commit's touched predicates — the hot
//! tenants' entries survive — while the [`CacheMode::ClearAll`]
//! ablation drops everything on every commit. The measured hit-rate gap
//! is what per-predicate invalidation buys.
//!
//! Correctness is asserted, not assumed, in every phase: each response —
//! **cache hits included** — is diffed against a sequential oracle
//! rebuilt at the epoch the response executed at.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{clause_to_source, parse_program, parse_query_shared, ClauseDb, Program};
use blog_serve::tuning::churn_store_config;
use blog_serve::{
    CacheConfig, CacheMode, Outcome, QueryRequest, QueryServer, ServeConfig, ServeReport, UpdateOp,
};
use blog_workloads::{tenant_mix_program, tenant_mix_requests, FamilyParams, TenantMix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{f2, pct, Json, Table};

/// Offered arrival rates swept (requests per second).
pub const RATE_SWEEP: [f64; 6] = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0];

/// p99-sojourn SLO (milliseconds): a rate is *sustainable* when the 99th
/// percentile of (queue wait + service) stays under this.
pub const SLO_MS: f64 = 50.0;

/// Requests per swept point (capped by `--requests` on the CI smoke
/// path, which also skips the headline asserts).
const LOAD: usize = 600;

/// Tenants in the mix (Zipf rank 0 is the hot one).
const N_TENANTS: usize = 8;

/// Zipf skew over tenant rank.
const ZIPF_S: f64 = 1.2;

/// Nanoseconds one simulated SPD fault tick stalls a serving thread.
/// Higher than T9's 500 on purpose: the engine path must be slow enough
/// that the server saturates well below what one Poisson generator
/// thread can offer, or the 5x headline would be generator-bound.
const STALL_NS_PER_TICK: u64 = 2_000;

/// Geometry headroom for the churn phase's asserts.
const HEADROOM: usize = 4096;

/// Pause between one churn writer's transactions.
const WRITER_PAUSE: Duration = Duration::from_micros(500);

/// Churn writer's transaction budget (churn must stay a perturbation,
/// not a runaway database growth).
const MAX_TXNS: usize = 400;

/// Cap on the churn writer's live asserted facts.
const OWN_CAP: usize = 4;

/// Offered rate of the churn and governed phases: high enough that hits
/// matter, low enough that even the clear-all ablation (which re-runs
/// the engine after every commit) does not saturate and drown the
/// invalidation signal in queueing delay.
const CHURN_RATE: f64 = 200.0;

/// Byte budget of the governed phase (a few cache entries' worth, so
/// admission control visibly refuses work at the swept rate).
const GOVERNED_BUDGET: usize = 64 * 1024;

/// One measured point.
#[derive(Clone, Debug)]
pub struct CacheRow {
    /// Phase: `rate-sweep`, `churn`, or `governed`.
    pub phase: &'static str,
    /// Cache-mode label (`off` / `precise` / `clear-all`).
    pub mode: &'static str,
    /// Offered Poisson arrival rate, req/s.
    pub offered_rps: f64,
    /// Achieved rate over the whole run (drain included), req/s.
    pub achieved_rps: f64,
    /// Requests submitted.
    pub requests: usize,
    /// Wall-clock, seconds.
    pub wall_s: f64,
    /// Median sojourn (queue wait + service), ms.
    pub sojourn_p50_ms: f64,
    /// p99 sojourn, ms.
    pub sojourn_p99_ms: f64,
    /// Answer-cache hit rate over the run's lookups.
    pub cache_hit_rate: f64,
    /// Answer-cache hits.
    pub hits: u64,
    /// Answer-cache fills.
    pub fills: u64,
    /// Entries dropped because a commit touched their dependencies.
    pub invalidations: u64,
    /// Commits observed while the run drained.
    pub commits: u64,
    /// Submissions the memory governor refused.
    pub overloaded: usize,
    /// Paged-store hit rate (track residency, not answers).
    pub store_hit_rate: f64,
    /// Total solutions returned (oracle-verified per epoch).
    pub solutions: u64,
}

/// One committed churn transaction, logged for oracle replay.
struct LogEntry {
    epoch: u64,
    asserted: Vec<(u32, String)>,
    retracted: Vec<u32>,
}

pub(crate) fn mix(total: usize) -> TenantMix {
    TenantMix {
        n_tenants: N_TENANTS,
        queries_per_tenant: total.div_ceil(N_TENANTS),
        drift: 0.15,
        burst: 1,
        zipf_s: Some(ZIPF_S),
        family: FamilyParams {
            generations: 3,
            branching: 3,
            ..FamilyParams::default()
        },
        ..TenantMix::default()
    }
}

fn serve_config(mode: CacheMode, budget: Option<usize>) -> ServeConfig {
    ServeConfig {
        stall_ns_per_tick: STALL_NS_PER_TICK,
        cache: CacheConfig {
            mode,
            budget_bytes: budget,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Poisson arrival offsets for `n` requests at `rate` req/s.
fn poisson_schedule(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Steady-state warmup: run each distinct (tenant, query) once through
/// the closed-batch path before the timed run. Every mode gets the same
/// pass — it warms the paged store's tracks for cache-off and fills the
/// answer cache for cache-on — so the measured window is steady state
/// rather than cold start, and p99 measures queueing, not first-touch
/// fills.
pub(crate) fn warm(server: &QueryServer, originals: &[blog_workloads::TenantRequest]) {
    let mut seen = std::collections::HashSet::new();
    let warmers: Vec<QueryRequest> = originals
        .iter()
        .filter(|r| seen.insert((r.tenant, r.text.clone())))
        .map(|r| QueryRequest::new(r.tenant as u64, r.text.clone()).with_tenant(r.tenant as u32))
        .collect();
    let report = server.serve(warmers);
    assert_eq!(report.stats.rejected, 0, "warmup queries always parse");
}

/// Open-loop run: submit `requests` on the Poisson schedule while the
/// pools drain, then let the server finish the backlog.
pub(crate) fn serve_poisson(
    server: &QueryServer,
    requests: Vec<QueryRequest>,
    rate: f64,
) -> ServeReport {
    let schedule = poisson_schedule(requests.len(), rate, 0xD15EA5E);
    let (report, ()) = server.serve_open(move |s| {
        let t0 = s.started();
        for (req, offset) in requests.into_iter().zip(schedule) {
            let at = t0 + offset;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            // Behind schedule: submit immediately (the catch-up burst an
            // open-loop generator owes the server).
            s.submit(req);
        }
    });
    report
}

/// The churn writer: assert/retract the *coldest* tenant's `f/2` facts
/// (tenant rank `N_TENANTS - 1` under the Zipf skew), logging every
/// committed transaction for oracle replay. Precise invalidation should
/// therefore keep the hot tenants' entries alive through every commit.
fn churn_writer(server: &QueryServer, stop: &AtomicBool) -> Vec<LogEntry> {
    let tenant = N_TENANTS - 1;
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut own: Vec<(u32, String)> = Vec::new();
    let mut fresh = 0usize;
    let mut log = Vec::new();
    let mut full = false;
    while !stop.load(Ordering::Acquire) && log.len() < MAX_TXNS {
        let assert_now =
            !full && own.len() < OWN_CAP && (own.is_empty() || rng.gen::<f64>() < 0.5);
        if assert_now {
            let text = format!("t{tenant}_f(p1_{}, w0f{fresh}).", rng.gen_range(0..3));
            fresh += 1;
            match server.apply_update(&[UpdateOp::Assert { text: text.clone() }]) {
                Ok((epoch, ids)) => {
                    let id = ids[0].0;
                    own.push((id, text.clone()));
                    log.push(LogEntry {
                        epoch,
                        asserted: vec![(id, text)],
                        retracted: vec![],
                    });
                }
                Err(e) => {
                    assert!(e.to_string().contains("store full"), "unexpected: {e}");
                    full = true;
                }
            }
        } else if let Some(i) = (!own.is_empty()).then(|| rng.gen_range(0..own.len())) {
            let (id, _) = own.swap_remove(i);
            let (epoch, _) = server
                .apply_update(&[UpdateOp::Retract {
                    id: blog_logic::ClauseId(id),
                }])
                .expect("own facts are never retracted twice");
            log.push(LogEntry {
                epoch,
                asserted: vec![],
                retracted: vec![id],
            });
            full = false;
        } else {
            break;
        }
        std::thread::sleep(WRITER_PAUSE);
    }
    log
}

/// Sequential solutions of `text` against `db`, sorted.
fn oracle_solutions(db: &ClauseDb, text: &str) -> Vec<String> {
    let q = parse_query_shared(db, text).expect("oracle query parses");
    let weights = WeightStore::new(WeightParams::default());
    let mut overlay = HashMap::new();
    let mut view = WeightView::new(&mut overlay, &weights);
    let cfg = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let r = best_first_with(db, &q, &mut view, &cfg);
    let mut texts: Vec<String> = r.solutions.iter().map(|s| s.solution.to_text(db)).collect();
    texts.sort();
    texts
}

/// Diff every response — cache hits included — against a sequential
/// oracle rebuilt at the response's epoch (seed clauses plus the
/// writer's committed log up to that epoch). Returns the total
/// solution count.
fn verify_against_oracle(
    p: &Program,
    originals: &[blog_workloads::TenantRequest],
    report: &ServeReport,
    mut logs: Vec<LogEntry>,
    context: &str,
) -> u64 {
    logs.sort_by_key(|e| e.epoch);
    let mut epochs: Vec<u64> = report
        .responses
        .iter()
        .filter(|r| !matches!(r.outcome, Outcome::Overloaded { .. }))
        .map(|r| r.epoch)
        .collect();
    epochs.sort_unstable();
    epochs.dedup();
    let mut alive: Vec<Option<String>> = p
        .db
        .clauses()
        .iter()
        .map(|c| Some(clause_to_source(p.db.symbols(), c)))
        .collect();
    let mut next_log = 0usize;
    let mut solutions = 0u64;
    for &epoch in &epochs {
        while next_log < logs.len() && logs[next_log].epoch <= epoch {
            let e = &logs[next_log];
            for (id, text) in &e.asserted {
                let id = *id as usize;
                if alive.len() <= id {
                    alive.resize(id + 1, None);
                }
                alive[id] = Some(text.clone());
            }
            for id in &e.retracted {
                alive[*id as usize] = None;
            }
            next_log += 1;
        }
        let src: String = alive.iter().flatten().fold(String::new(), |mut acc, t| {
            acc.push_str(t);
            acc.push('\n');
            acc
        });
        let oracle = parse_program(&src).expect("oracle program parses");
        let mut truth: HashMap<&str, Vec<String>> = HashMap::new();
        for r in report.responses.iter().filter(|r| r.epoch == epoch) {
            if matches!(r.outcome, Outcome::Overloaded { .. }) {
                continue;
            }
            let text = originals[r.request].text.as_str();
            let expect = truth
                .entry(text)
                .or_insert_with(|| oracle_solutions(&oracle.db, text));
            assert_eq!(
                r.outcome.solutions(),
                expect.as_slice(),
                "T12 equivalence violated ({context}): request {} ({text}, {}) at epoch {epoch}",
                r.request,
                r.served_from.label(),
            );
            solutions += r.outcome.solutions().len() as u64;
        }
    }
    solutions
}

/// Sojourn (wait + service) percentiles over non-refused responses.
pub(crate) fn sojourns_ms(report: &ServeReport) -> Vec<f64> {
    report
        .responses
        .iter()
        .filter(|r| !matches!(r.outcome, Outcome::Overloaded { .. }))
        .map(|r| (r.queue_wait + r.service).as_secs_f64() * 1e3)
        .collect()
}

pub(crate) fn pctl(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn row_from(
    phase: &'static str,
    mode: &'static str,
    offered: f64,
    report: &ServeReport,
    solutions: u64,
) -> CacheRow {
    let s = &report.stats;
    assert_eq!(
        s.completed + s.cancelled + s.rejected + s.overloaded,
        s.requests,
        "T12 outcome accounting must balance ({phase}/{mode})"
    );
    assert_eq!(s.rejected, 0, "generated queries always parse");
    let so = sojourns_ms(report);
    CacheRow {
        phase,
        mode,
        offered_rps: offered,
        achieved_rps: s.throughput_rps,
        requests: s.requests,
        wall_s: s.wall_s,
        sojourn_p50_ms: pctl(&so, 0.5),
        sojourn_p99_ms: pctl(&so, 0.99),
        cache_hit_rate: s.cache.hit_rate(),
        hits: s.cache.hits,
        fills: s.cache.fills,
        invalidations: s.cache.invalidations,
        commits: s.commits,
        overloaded: s.overloaded,
        store_hit_rate: s.store.hit_rate(),
        solutions,
    }
}

/// One rate-sweep point: fresh server, Poisson arrivals, oracle diff.
fn measure_rate_point(
    p: &Program,
    originals: &[blog_workloads::TenantRequest],
    mode: CacheMode,
    rate: f64,
) -> CacheRow {
    let requests: Vec<QueryRequest> = originals
        .iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text.clone()).with_tenant(r.tenant as u32))
        .collect();
    let server = QueryServer::new(
        &p.db,
        churn_store_config(p.db.len(), HEADROOM),
        serve_config(mode, None),
    );
    warm(&server, originals);
    let report = serve_poisson(&server, requests, rate);
    let solutions = verify_against_oracle(
        p,
        originals,
        &report,
        Vec::new(),
        &format!("rate-sweep {} @{rate}", mode.label()),
    );
    row_from("rate-sweep", mode.label(), rate, &report, solutions)
}

/// One churn point: a writer churns the cold tenant while the Poisson
/// stream runs; every response oracle-verified at its epoch.
fn measure_churn_point(
    p: &Program,
    originals: &[blog_workloads::TenantRequest],
    mode: CacheMode,
) -> CacheRow {
    let requests: Vec<QueryRequest> = originals
        .iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text.clone()).with_tenant(r.tenant as u32))
        .collect();
    let server = QueryServer::new(
        &p.db,
        churn_store_config(p.db.len(), HEADROOM),
        serve_config(mode, None),
    );
    warm(&server, originals);
    let stop = AtomicBool::new(false);
    let mut logs = Vec::new();
    let mut report = None;
    std::thread::scope(|scope| {
        let (server_ref, stop_ref) = (&server, &stop);
        let writer = scope.spawn(move || churn_writer(server_ref, stop_ref));
        report = Some(serve_poisson(server_ref, requests, CHURN_RATE));
        stop.store(true, Ordering::Release);
        logs = writer.join().expect("churn writer panicked");
    });
    let report = report.expect("serve ran");
    let solutions = verify_against_oracle(
        p,
        originals,
        &report,
        logs,
        &format!("churn {}", mode.label()),
    );
    row_from("churn", mode.label(), CHURN_RATE, &report, solutions)
}

/// The governed point: same load, tight byte budget — the governor must
/// refuse part of the offered work instead of queueing it.
fn measure_governed_point(p: &Program, originals: &[blog_workloads::TenantRequest]) -> CacheRow {
    let requests: Vec<QueryRequest> = originals
        .iter()
        .map(|r| QueryRequest::new(r.tenant as u64, r.text.clone()).with_tenant(r.tenant as u32))
        .collect();
    let server = QueryServer::new(
        &p.db,
        churn_store_config(p.db.len(), HEADROOM),
        serve_config(CacheMode::Precise, Some(GOVERNED_BUDGET)),
    );
    warm(&server, originals);
    let report = serve_poisson(&server, requests, CHURN_RATE);
    let solutions =
        verify_against_oracle(p, originals, &report, Vec::new(), "governed precise");
    row_from("governed", "precise", CHURN_RATE, &report, solutions)
}

/// Highest swept rate whose p99 sojourn met the SLO (0 when none did).
fn sustainable(rows: &[CacheRow], mode: &str) -> f64 {
    rows.iter()
        .filter(|r| r.phase == "rate-sweep" && r.mode == mode && r.sojourn_p99_ms <= SLO_MS)
        .map(|r| r.offered_rps)
        .fold(0.0, f64::max)
}

/// Run the T12 sweep. `max_requests` caps the per-point load (the CI
/// smoke path runs `t12 --requests=50`, which also skips the headline
/// asserts — 50 Poisson arrivals are too few for a stable p99).
pub fn run_t12(max_requests: Option<usize>) -> Vec<CacheRow> {
    let load = max_requests.unwrap_or(LOAD).max(N_TENANTS);
    let full = load >= LOAD;
    let m = mix(load);
    let (p, metas) = tenant_mix_program(&m);
    let originals = tenant_mix_requests(&m, &metas);

    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "phase", "mode", "offered", "achieved", "p50 ms", "p99 ms", "cache hit", "hits", "fills",
        "inval", "commits", "overload",
    ]);
    let tabulate = |row: &CacheRow, table: &mut Table| {
        table.row(vec![
            row.phase.to_string(),
            row.mode.to_string(),
            f2(row.offered_rps),
            f2(row.achieved_rps),
            f2(row.sojourn_p50_ms),
            f2(row.sojourn_p99_ms),
            pct(row.cache_hit_rate),
            row.hits.to_string(),
            row.fills.to_string(),
            row.invalidations.to_string(),
            row.commits.to_string(),
            row.overloaded.to_string(),
        ]);
    };

    // --- Phase 1: the open-loop rate sweep, cache off vs precise.
    for mode in [CacheMode::Off, CacheMode::Precise] {
        for &rate in &RATE_SWEEP {
            let row = measure_rate_point(&p, &originals, mode, rate);
            tabulate(&row, &mut table);
            rows.push(row);
        }
    }

    // --- Phase 2: invalidation storm — precise vs clear-all.
    for mode in [CacheMode::Precise, CacheMode::ClearAll] {
        let row = measure_churn_point(&p, &originals, mode);
        if full {
            assert!(row.commits > 0, "the churn writer must land commits");
        }
        tabulate(&row, &mut table);
        rows.push(row);
    }

    // --- Phase 3: memory-governed admission.
    let row = measure_governed_point(&p, &originals);
    if full {
        assert!(
            row.overloaded > 0,
            "a {GOVERNED_BUDGET}-byte budget must refuse part of the load"
        );
    }
    tabulate(&row, &mut table);
    rows.push(row);
    table.print();

    let off = sustainable(&rows, "off");
    let on = sustainable(&rows, "precise");
    println!(
        "(sustainable at p99 <= {SLO_MS} ms: cache off {} req/s, cache on {} req/s; every \
         response — cache hits included — diffed against its epoch's sequential oracle)",
        f2(off),
        f2(on)
    );
    if full {
        assert!(
            off > 0.0,
            "the lowest swept rate must be sustainable without the cache"
        );
        assert!(
            on >= 5.0 * off,
            "headline regression: cache-on sustainable rate {on} req/s is under 5x the \
             cache-off rate {off} req/s at p99 <= {SLO_MS} ms"
        );
        let precise = rows
            .iter()
            .find(|r| r.phase == "churn" && r.mode == "precise")
            .expect("churn precise row");
        let clearall = rows
            .iter()
            .find(|r| r.phase == "churn" && r.mode == "clear-all")
            .expect("churn clear-all row");
        assert!(
            precise.cache_hit_rate > clearall.cache_hit_rate,
            "invalidation precision regression: precise {:.4} must beat clear-all {:.4} \
             under cold-tenant churn",
            precise.cache_hit_rate,
            clearall.cache_hit_rate
        );
    }
    rows
}

/// The T12 rows plus the headline summary as JSON (for
/// `BENCH_T12_CACHE.json`).
pub fn rows_to_json(rows: &[CacheRow]) -> Json {
    let arr = Json::Arr(
        rows.iter()
            .map(|r| {
                Json::Obj(vec![
                    ("phase".into(), Json::str(r.phase)),
                    ("mode".into(), Json::str(r.mode)),
                    ("offered_rps".into(), Json::Num(r.offered_rps)),
                    ("achieved_rps".into(), Json::Num(r.achieved_rps)),
                    ("requests".into(), Json::int(r.requests as u64)),
                    ("wall_s".into(), Json::Num(r.wall_s)),
                    ("sojourn_p50_ms".into(), Json::Num(r.sojourn_p50_ms)),
                    ("sojourn_p99_ms".into(), Json::Num(r.sojourn_p99_ms)),
                    ("cache_hit_rate".into(), Json::Num(r.cache_hit_rate)),
                    ("hits".into(), Json::int(r.hits)),
                    ("fills".into(), Json::int(r.fills)),
                    ("invalidations".into(), Json::int(r.invalidations)),
                    ("commits".into(), Json::int(r.commits)),
                    ("overloaded".into(), Json::int(r.overloaded as u64)),
                    ("store_hit_rate".into(), Json::Num(r.store_hit_rate)),
                    ("solutions".into(), Json::int(r.solutions)),
                ])
            })
            .collect(),
    );
    let off = sustainable(rows, "off");
    let on = sustainable(rows, "precise");
    let summary = Json::Obj(vec![
        ("slo_ms".into(), Json::Num(SLO_MS)),
        ("sustainable_off_rps".into(), Json::Num(off)),
        ("sustainable_precise_rps".into(), Json::Num(on)),
        (
            "gain".into(),
            Json::Num(if off > 0.0 { on / off } else { 0.0 }),
        ),
    ]);
    Json::Obj(vec![("rows".into(), arr), ("summary".into(), summary)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_point_hits_and_verifies() {
        let m = mix(32);
        let (p, metas) = tenant_mix_program(&m);
        let originals = tenant_mix_requests(&m, &metas);
        let row = measure_rate_point(&p, &originals, CacheMode::Precise, 2000.0);
        assert_eq!(row.requests, 32);
        assert_eq!(
            row.fills, 0,
            "warmup prefills every distinct query before the timed window"
        );
        assert_eq!(
            row.hits as usize, row.requests,
            "a warmed cache serves the whole steady-state window: {row:?}"
        );
        assert!(row.solutions > 0);
    }

    #[test]
    fn churn_point_verifies_under_invalidation() {
        let m = mix(24);
        let (p, metas) = tenant_mix_program(&m);
        let originals = tenant_mix_requests(&m, &metas);
        let row = measure_churn_point(&p, &originals, CacheMode::Precise);
        assert_eq!(row.phase, "churn");
        assert!(row.solutions > 0);
    }

    #[test]
    fn json_rows_render_with_summary() {
        let m = mix(16);
        let (p, metas) = tenant_mix_program(&m);
        let originals = tenant_mix_requests(&m, &metas);
        let row = measure_rate_point(&p, &originals, CacheMode::Off, 4000.0);
        let json = rows_to_json(&[row]).render();
        assert!(json.contains("\"phase\":\"rate-sweep\""));
        assert!(json.contains("\"sustainable_off_rps\":"));
    }
}
