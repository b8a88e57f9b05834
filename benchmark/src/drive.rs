//! One trial: build a fresh server, warm it, run the closed-loop `sat`
//! phase and the open-loop `open` phase, and reduce the responses to
//! samples and digests.
//!
//! The whole trial runs inside **one** `QueryServer::serve_open` session,
//! so the pool threads are started once, during warm-up, and the kernel
//! has placed them on their cores before anything is timed (on the 2-core
//! box this was written on, two freshly spawned threads can share one
//! core for a second before they are spread out).

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use blog_logic::parse_program;
use blog_serve::{
    Outcome, QueryRequest, QueryResponse, QueryServer, ServedFrom, SessionId, Submitter,
    TraceConfig, UpdateOp, UpdateOutcome, UpdateResponse,
};
use blog_spd::PagedStoreStats;

use crate::gen::{poisson_schedule, CommitPlan, CommitSpec, Kind, Req, Workload, WAVE};
use crate::oracle::{hash_solutions, CommitRecord, Digest};
use crate::rng::Rng;
use crate::spans::{Spans, NO_REQUEST};
use crate::stats::{median, process_cpu_s, sorted, tail_percentile};

/// Above this gap to the next due time the open-loop generator sleeps (so
/// it is not a busy thread at low rates); below it, it yields in a loop.
const SLEEP_ABOVE: Duration = Duration::from_micros(200);

/// How a trial is instrumented.
#[derive(Clone, Copy, Default, Debug)]
pub struct TrialOpts {
    /// Smoke-run sizes.
    pub quick: bool,
    /// `ServeConfig::trace` always-on (the server's own tracer).
    pub server_trace: bool,
    /// Skip the `open` phase (the traced run's extra trials need `sat`
    /// only).
    pub skip_open: bool,
    /// After the `open` phase, offer the four fixed rates of
    /// `serve.sustained_rps_slo` and record p99 sojourn at each.
    pub slo_sweep: bool,
    /// Read the store's version-stash depth after every commit.
    pub sample_stash: bool,
}

/// One block of the closed-loop phase: a fixed number of waves, timed
/// together.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    pub requests: usize,
    pub wall_s: f64,
}

/// What the closed-loop phase measured.
#[derive(Default, Debug)]
pub struct SatPhase {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub requests: usize,
    pub blocks: Vec<Block>,
    /// `QueryResponse::service` per request, µs, in stream order.
    pub service_us: Vec<f64>,
    /// Whether each request was answered from the answer cache.
    pub from_cache: Vec<bool>,
    /// Latency of each `Submitter::update`, µs.
    pub commit_us: Vec<f64>,
    /// Store counters over the phase.
    pub store: PagedStoreStats,
    pub stash_depth_max: usize,
    pub pages_retired: u64,
}

/// What one open-loop phase measured.
#[derive(Default, Debug)]
pub struct OpenPhase {
    /// Due time to response, µs: lateness + queue wait + service.
    pub sojourn_us: Vec<f64>,
    /// How late the generator submitted each request, µs.
    pub late_us: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
}

#[derive(Default, Debug)]
pub struct Trial {
    /// Generate + parse + `QueryServer::new` + warm-up pass.
    pub setup_s: f64,
    /// `QueryServer::new` alone (the store build).
    pub build_s: f64,
    pub db_len: usize,
    pub tracks_total: usize,
    pub capacity_tracks: usize,
    pub sat: SatPhase,
    pub open: OpenPhase,
    /// `(offered rate, p99 sojourn µs)` of the SLO sweep.
    pub slo: Vec<(f64, f64)>,
    pub digests: Vec<Digest>,
    pub commits: Vec<CommitRecord>,
    /// Requests and commits submitted in the measured phases.
    pub attempted: u64,
    /// Responses that were not `Completed`, plus rejected commits.
    pub failed: u64,
    /// Whole-session server meters that must stay 0.
    pub retries: u64,
    pub overloaded: usize,
    pub overflow_admissions: u64,
}

fn request_of(w: &Workload, r: &Req) -> QueryRequest {
    let q = &w.queries[r.query as usize];
    QueryRequest::new(r.session, q.text.clone()).with_tenant(q.tenant)
}

/// Apply one transaction through the open run's update lane; returns its
/// latency in µs.
fn commit(s: &Submitter<'_>, c: &CommitSpec) -> (f64, UpdateResponse) {
    let t = Instant::now();
    let response = s.update(SessionId(u64::from(c.part)), &c.ops);
    (t.elapsed().as_secs_f64() * 1e6, response)
}

/// The commit log entry for an acknowledged transaction (`None` when the
/// server rejected it).
fn record(c: &CommitSpec, response: &UpdateResponse) -> Option<CommitRecord> {
    let UpdateOutcome::Committed { asserted } = &response.outcome else {
        eprintln!("COMMIT REJECTED: {:?}", response.outcome);
        return None;
    };
    let mut ids = asserted.iter();
    let mut rec = CommitRecord {
        epoch: response.epoch,
        part: c.part,
        asserted: Vec::new(),
        retracted: Vec::new(),
    };
    for op in &c.ops {
        match op {
            UpdateOp::Assert { text } => {
                let id = ids.next().expect("one id per asserted clause");
                rec.asserted.push((id.0, text.clone()));
            }
            UpdateOp::Retract { id } => rec.retracted.push(id.0),
        }
    }
    Some(rec)
}

/// What the closed-loop phase hands back besides its samples.
struct SatOutcome {
    blocks: Vec<Block>,
    commit_us: Vec<f64>,
    log: Vec<CommitRecord>,
    rejected: u64,
    stash_depth_max: usize,
}

/// The closed-loop phase: waves of [`WAVE`] requests, each awaited in
/// `quiesce()` (the driver blocks, it never spins), with the workload's
/// commits between the waves or beside them. With `spans`, each call
/// into the server from the driver thread is recorded.
fn sat_phase(
    w: &Workload,
    server: &QueryServer,
    s: &Submitter<'_>,
    mut spans: Option<&mut Spans>,
    sample_stash: bool,
) -> SatOutcome {
    let n_waves = w.sat.len().div_ceil(WAVE);
    let block_waves = w.sizes.block_waves;
    let mut out = SatOutcome {
        blocks: Vec::with_capacity(n_waves.div_ceil(block_waves)),
        commit_us: Vec::with_capacity(w.commits.len()),
        log: Vec::with_capacity(w.commits.len()),
        rejected: 0,
        stash_depth_max: 0,
    };
    let mut requests = w.sat.iter().map(|r| request_of(w, r));
    let mut submitted = 0usize;
    let mut submit_wave = |spans: &mut Option<&mut Spans>| {
        for _ in 0..WAVE.min(w.sat.len() - submitted) {
            let request = requests.next().expect("one request per stream entry");
            match spans {
                Some(sp) => {
                    let id = sp.open(0, submitted as u32, "serve.submit");
                    s.submit(request);
                    sp.close(id);
                }
                None => {
                    s.submit(request);
                }
            }
            submitted += 1;
        }
        match spans {
            Some(sp) => sp.time(0, NO_REQUEST, "serve.quiesce", || s.quiesce()),
            None => s.quiesce(),
        }
    };
    let stash = |max: &mut usize| {
        if sample_stash {
            *max = (*max).max(server.store().stash_depth());
        }
    };
    let mut block_start = Instant::now();
    let mut end_block = |blocks: &mut Vec<Block>, wave: usize| {
        if (wave + 1).is_multiple_of(block_waves) || wave + 1 == n_waves {
            let now = Instant::now();
            let first = blocks.len() * block_waves;
            blocks.push(Block {
                requests: ((wave + 1) * WAVE).min(w.sat.len()) - first * WAVE,
                wall_s: (now - block_start).as_secs_f64(),
            });
            block_start = now;
        }
    };
    match w.plan {
        CommitPlan::BetweenWaves => {
            let per_wave = w.commits.len() / n_waves;
            for wave in 0..n_waves {
                submit_wave(&mut spans);
                for c in &w.commits[wave * per_wave..(wave + 1) * per_wave] {
                    let (us, response) = match &mut spans {
                        Some(sp) => sp.time(0, NO_REQUEST, "serve.update", || commit(s, c)),
                        None => commit(s, c),
                    };
                    stash(&mut out.stash_depth_max);
                    out.commit_us.push(us);
                    match record(c, &response) {
                        Some(rec) => out.log.push(rec),
                        None => out.rejected += 1,
                    }
                }
                end_block(&mut out.blocks, wave);
            }
        }
        CommitPlan::Concurrent { per } => {
            // (requests submitted, commits done), paced by counts: the
            // writer owes one commit per `per` submitted requests, and
            // the driver never runs more than one wave ahead of the
            // writer, so every trial interleaves the same commits with
            // the same requests.
            let progress = Mutex::new((0usize, 0usize));
            let moved = Condvar::new();
            let per_wave = WAVE / per;
            let poisoned = "no panic under this lock";
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let mut done = Vec::with_capacity(w.commits.len());
                    let mut depth = 0;
                    for (i, c) in w.commits.iter().enumerate() {
                        let mut p = progress.lock().expect(poisoned);
                        while p.0 < (i + 1) * per {
                            p = moved.wait(p).expect(poisoned);
                        }
                        drop(p);
                        done.push(commit(s, c));
                        stash(&mut depth);
                        progress.lock().expect(poisoned).1 = i + 1;
                        moved.notify_all();
                    }
                    (done, depth)
                });
                for wave in 0..n_waves {
                    let mut p = progress.lock().expect(poisoned);
                    while p.1 < wave.saturating_sub(1) * per_wave {
                        p = moved.wait(p).expect(poisoned);
                    }
                    p.0 = ((wave + 1) * WAVE).min(w.sat.len());
                    drop(p);
                    moved.notify_all();
                    submit_wave(&mut spans);
                    end_block(&mut out.blocks, wave);
                }
                let (done, depth) = writer.join().expect("writer thread panicked");
                out.stash_depth_max = depth;
                for (c, (us, response)) in w.commits.iter().zip(done) {
                    out.commit_us.push(us);
                    match record(c, &response) {
                        Some(rec) => out.log.push(rec),
                        None => out.rejected += 1,
                    }
                }
            });
        }
    }
    out
}

/// One open-loop phase: requests are submitted at their seeded Poisson
/// due times whether or not earlier ones have been answered; returns how
/// late each submission ran, µs.
fn open_phase(w: &Workload, s: &Submitter<'_>, stream: &[Req], due_s: &[f64]) -> Vec<f64> {
    let mut late_us = Vec::with_capacity(stream.len());
    // Requests are built ahead of the clock: the generator's own work
    // between two due times is one `submit`.
    let requests: Vec<QueryRequest> = stream.iter().map(|r| request_of(w, r)).collect();
    let t0 = Instant::now();
    for (request, due) in requests.into_iter().zip(due_s) {
        let due = t0 + Duration::from_secs_f64(*due);
        loop {
            let now = Instant::now();
            if now >= due {
                late_us.push((now - due).as_secs_f64() * 1e6);
                break;
            }
            let gap = due - now;
            if gap > SLEEP_ABOVE {
                // Wake a little early and yield through the rest: a
                // sleep overshoots by the kernel's timer slack.
                std::thread::sleep(gap - SLEEP_ABOVE / 2);
            } else {
                // Not `spin_loop`: woken by the pool's `notify`, this
                // thread often lands on the pool thread's core, and a
                // generator spinning there makes the two time-share it a
                // millisecond slice at a time. Yielding lets the pool
                // thread run whenever it has work.
                std::thread::yield_now();
            }
        }
        s.submit(request);
    }
    s.quiesce();
    late_us
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn open_samples(responses: &[QueryResponse], late_us: Vec<f64>) -> OpenPhase {
    OpenPhase {
        sojourn_us: responses
            .iter()
            .zip(&late_us)
            .map(|(r, late)| late + us(r.queue_wait) + us(r.service))
            .collect(),
        queue_wait_us: responses.iter().map(|r| us(r.queue_wait)).collect(),
        late_us,
    }
}

/// Reduce a phase's responses to oracle digests; returns how many were
/// not `Completed`.
fn digest(stream: &[Req], responses: &[QueryResponse], out: &mut Vec<Digest>) -> u64 {
    let mut failed = 0;
    for (req, r) in stream.iter().zip(responses) {
        match &r.outcome {
            Outcome::Completed { solutions } => out.push(Digest {
                query: req.query,
                epoch: r.epoch,
                hash: hash_solutions(solutions),
            }),
            other => {
                failed += 1;
                eprintln!("REQUEST FAILED: request {} ended {other:?}", r.request);
            }
        }
    }
    failed
}

/// Run one whole trial. Set-up (timed as `setup_s`) generates the inputs
/// from the seed, parses the base, builds the server and runs every
/// distinct query once, so tracks and answers are warm before anything
/// is measured.
pub fn run_trial(kind: Kind, seed: u64, opts: TrialOpts, spans: Option<&mut Spans>) -> Trial {
    let t0 = Instant::now();
    let w = Workload::generate(kind, seed, opts.quick);
    let program = parse_program(&w.program_text).expect("generated base parses");
    let store_config = w.store_config(program.db.len());
    let mut trial = Trial {
        db_len: program.db.len(),
        tracks_total: program
            .db
            .len()
            .div_ceil(store_config.geometry.blocks_per_track as usize),
        capacity_tracks: store_config.capacity_tracks,
        ..Trial::default()
    };
    let mut serve = w.serve.clone();
    if opts.server_trace {
        serve.trace = TraceConfig::always_on();
    }
    let t_build = Instant::now();
    let server = QueryServer::new(&program.db, store_config, serve);
    trial.build_s = t_build.elapsed().as_secs_f64();
    drop(program);

    // Index ranges of the phases in the session's responses.
    let n_warm = w.queries.len();
    let n_sat = w.sat.len();
    let mut late_us = Vec::new();
    let mut sweep: Vec<(f64, Vec<Req>, Vec<f64>)> = Vec::new();
    let mut sat = SatPhase::default();
    let mut outcome = None;

    let (report, ()) = server.serve_open(|s| {
        for q in &w.queries {
            s.submit(QueryRequest::new(u64::from(q.tenant), q.text.clone()).with_tenant(q.tenant));
        }
        s.quiesce();
        trial.setup_s = t0.elapsed().as_secs_f64();

        let store_before = server.store().stats();
        let mvcc_before = server.store().mvcc_stats();
        let cpu0 = process_cpu_s();
        let t_sat = Instant::now();
        outcome = Some(sat_phase(&w, &server, s, spans, opts.sample_stash));
        sat.wall_s = t_sat.elapsed().as_secs_f64();
        sat.cpu_s = process_cpu_s() - cpu0;
        sat.store = store_delta(store_before, server.store().stats());
        sat.pages_retired = server.store().mvcc_stats().pages_retired - mvcc_before.pages_retired;

        if !opts.skip_open {
            late_us = open_phase(&w, s, &w.open, &w.open_due_s);
        }
        if opts.slo_sweep {
            for (i, &rate) in w.sizes.slo_rates.iter().enumerate() {
                // About as long as the `open` phase, at most its stream.
                let n = ((w.open.len() as f64 * rate / w.sizes.open_rate) as usize)
                    .clamp(WAVE.min(w.open.len()), w.open.len());
                let stream = w.open[..n].to_vec();
                let due = poisson_schedule(&mut Rng::new(seed, 16 + i as u64), n, rate);
                let late = open_phase(&w, s, &stream, &due);
                sweep.push((rate, stream, late));
            }
        }
    });

    let responses = &report.responses;
    let (warm, rest) = responses.split_at(n_warm);
    assert!(
        warm.iter().all(|r| r.outcome.is_completed()),
        "warm-up queries always complete"
    );
    let (sat_responses, rest) = rest.split_at(n_sat);
    let outcome = outcome.expect("the driver ran");
    sat.requests = sat_responses.len();
    sat.blocks = outcome.blocks;
    sat.service_us = sat_responses.iter().map(|r| us(r.service)).collect();
    sat.from_cache = sat_responses
        .iter()
        .map(|r| r.served_from == ServedFrom::Cache)
        .collect();
    sat.commit_us = outcome.commit_us;
    sat.stash_depth_max = outcome.stash_depth_max;
    trial.failed += outcome.rejected + digest(&w.sat, sat_responses, &mut trial.digests);
    trial.attempted += (n_sat + w.commits.len()) as u64;
    trial.commits = outcome.log;
    trial.sat = sat;

    let mut rest = rest;
    if !opts.skip_open {
        let (open_responses, tail) = rest.split_at(w.open.len());
        rest = tail;
        trial.failed += digest(&w.open, open_responses, &mut trial.digests);
        trial.attempted += open_responses.len() as u64;
        trial.open = open_samples(open_responses, late_us);
    }
    for (rate, stream, late) in sweep {
        let (sweep_responses, tail) = rest.split_at(stream.len());
        rest = tail;
        trial.failed += digest(&stream, sweep_responses, &mut trial.digests);
        trial.attempted += sweep_responses.len() as u64;
        let phase = open_samples(sweep_responses, late);
        let p99 = tail_percentile(&sorted(&phase.sojourn_us), 0.99).1;
        trial.slo.push((rate, p99));
    }
    trial.retries = report.stats.retries;
    trial.overloaded = report.stats.overloaded;
    trial.overflow_admissions = report.stats.overflow_admissions;
    trial
}

/// Field-wise `after - before` of the store's monotone counters.
pub fn store_delta(before: PagedStoreStats, after: PagedStoreStats) -> PagedStoreStats {
    PagedStoreStats {
        accesses: after.accesses - before.accesses,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        fault_ticks: after.fault_ticks - before.fault_ticks,
        lock_acquisitions: after.lock_acquisitions - before.lock_acquisitions,
        lock_contended: after.lock_contended - before.lock_contended,
        index_hits: after.index_hits - before.index_hits,
        index_prunes: after.index_prunes - before.index_prunes,
        candidates_scanned: after.candidates_scanned - before.candidates_scanned,
        ..after
    }
}

impl Trial {
    /// Requests per second of the median block of the `sat` phase.
    pub fn req_per_s(&self) -> f64 {
        median(
            &self
                .sat
                .blocks
                .iter()
                .map(|b| b.requests as f64 / b.wall_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Process CPU (every thread, user + system) per request over the
    /// whole `sat` phase, µs. `/proc` counts CPU in 10 ms ticks, too
    /// coarse to read per block.
    pub fn cpu_us_per_req(&self) -> f64 {
        self.sat.cpu_s * 1e6 / self.sat.requests.max(1) as f64
    }
}
