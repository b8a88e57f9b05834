//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Three kinds of trial are interleaved while the time budget lasts —
//! `plain` (exactly what an end-to-end run does), `spans` (benchmark-side
//! spans around every `submit`, `quiesce` and `update`) and `server`
//! (`ServeConfig::trace` always on) — so that the two overhead
//! percentages compare trials taken minutes apart at most. Then the same
//! request and commit stream is replayed single-threaded with a span
//! around every layer call (see [`crate::replay`]), the micro loops run,
//! and on `search_par` the OR-parallel executor is driven directly.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use blog_logic::parse_program;

use crate::drive::{run_trial, Trial, TrialOpts};
use crate::gen::Workload;
use crate::metrics::{Metric, RunResult, PER_LAYER};
use crate::micro;
use crate::replay::{replay, Replay};
use crate::run::{load_flags, Checker, RunOpts};
use crate::spans::Spans;
use crate::stats::{loadavg_1m, median, ratio, sorted, spread, tail_percentile};

/// Share of the time budget the interleaved trials may use; the replay,
/// the micro loops and the direct executor runs take the rest.
const TRIAL_SHARE: f64 = 0.55;

/// Where trace files go: `benchmark/out/` from the repository root (where
/// the driver runs the command), `out/` from inside the package.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// The per-layer numbers the replay gives, by metric name.
fn replay_metrics(r: &Replay, cache_on: bool, out: &mut HashMap<&'static str, f64>) {
    let c = &r.counts;
    let ns = |name: &str| r.times.by_name.get(name).copied().unwrap_or(0) as f64;
    let requests = c.requests as f64;
    let nodes = c.search.nodes_expanded as f64;
    let commits = c.commits as f64;

    out.insert(
        "logic.parse_us_per_req",
        ratio(ns("logic.parse_query"), requests) / 1e3,
    );
    out.insert(
        "logic.canon_us_per_req",
        ratio(ns("logic.canonical_query"), requests) / 1e3,
    );
    out.insert(
        "logic.render_us_per_solution",
        ratio(ns("logic.render"), c.solutions_rendered as f64) / 1e3,
    );
    out.insert(
        "logic.unify_attempts_per_node",
        ratio(c.search.unify_attempts as f64, nodes),
    );
    out.insert(
        "logic.unify_success_share",
        ratio(
            c.search.unify_successes as f64,
            c.search.unify_attempts as f64,
        ),
    );
    out.insert(
        "logic.bytes_copied_per_node",
        ratio(c.search.bytes_copied as f64, nodes),
    );

    let engine_self = r.times.engine_self_ns as f64;
    out.insert(
        "core.engine_self_us_per_req",
        ratio(engine_self, requests) / 1e3,
    );
    out.insert("core.engine_self_ns_per_node", ratio(engine_self, nodes));
    out.insert("core.nodes_per_req", ratio(nodes, requests));
    out.insert(
        "core.solutions_per_node",
        ratio(c.search.solutions as f64, nodes),
    );
    out.insert(
        "core.failures_per_node",
        ratio(c.search.failures as f64, nodes),
    );
    let frontiers = sorted(&c.max_frontiers);
    out.insert(
        "core.max_frontier_p99",
        if frontiers.is_empty() {
            0.0
        } else {
            tail_percentile(&frontiers, 0.99).1
        },
    );

    out.insert(
        "spd.snapshot_open_us",
        ratio(ns("spd.begin_read"), requests) / 1e3,
    );
    out.insert(
        "spd.snapshot_close_us",
        ratio(ns("spd.snapshot_drop"), requests) / 1e3,
    );
    out.insert(
        "spd.candidates_ns_per_call",
        ratio(ns("spd.try_candidate_clauses"), c.candidates_calls as f64),
    );
    out.insert(
        "spd.candidates_per_call",
        ratio(c.candidates_returned as f64, c.candidates_calls as f64),
    );
    out.insert(
        "spd.index_prune_share",
        ratio(
            c.store.index_prunes as f64,
            (c.store.index_prunes + c.store.candidates_scanned) as f64,
        ),
    );
    out.insert(
        "spd.fetch_ns_per_touch",
        ratio(ns("spd.try_fetch_clause"), c.fetch_calls as f64),
    );
    out.insert("spd.touches_per_node", ratio(c.fetch_calls as f64, nodes));
    out.insert(
        "spd.hit_rate",
        ratio(c.store.hits as f64, c.store.accesses as f64),
    );
    out.insert("spd.faults_per_req", ratio(c.store.misses as f64, requests));
    out.insert(
        "spd.evictions_per_req",
        ratio(c.store.evictions as f64, requests),
    );
    out.insert(
        "spd.fault_ticks_per_req",
        ratio(c.store.fault_ticks as f64, requests),
    );

    out.insert(
        "spd.txn_open_us",
        ratio(ns("spd.begin_write"), commits) / 1e3,
    );
    out.insert(
        "spd.assert_us_per_op",
        ratio(ns("spd.assert_text"), c.asserts as f64) / 1e3,
    );
    out.insert(
        "spd.retract_us_per_op",
        ratio(ns("spd.retract"), c.retracts as f64) / 1e3,
    );
    out.insert("spd.commit_us", ratio(ns("spd.commit"), commits) / 1e3);

    if cache_on {
        out.insert(
            "serve.cache_probe_ns",
            ratio(ns("serve.cache_lookup"), c.cache.lookups as f64),
        );
        out.insert(
            "serve.cache_hit_copy_us",
            ratio(ns("serve.cache_hit_copy"), c.cache.hits as f64) / 1e3,
        );
        out.insert(
            "serve.cache_fill_us",
            ratio(ns("serve.cache_fill"), c.cache.fills as f64) / 1e3,
        );
        out.insert(
            "serve.cache_hit_rate",
            ratio(c.cache.hits as f64, c.cache.lookups as f64),
        );
        out.insert(
            "serve.cache_evictions_per_req",
            ratio(c.cache.evictions as f64, requests),
        );
        out.insert(
            "serve.cache_on_commit_us",
            ratio(ns("serve.cache_on_commit"), commits) / 1e3,
        );
        out.insert(
            "serve.cache_invalidations_per_commit",
            ratio(c.cache.invalidations as f64, commits),
        );
    }
}

/// What the `plain` trials give: lock traffic, queue waits, the open
/// phase's tails, the SLO sweep.
fn trial_metrics(w: &Workload, plain: &[Trial], out: &mut HashMap<&'static str, f64>) {
    let over = |f: &dyn Fn(&Trial) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    out.insert(
        "spd.lock_acq_per_req",
        over(&|t| ratio(t.sat.store.lock_acquisitions as f64, t.sat.requests as f64)),
    );
    out.insert(
        "spd.lock_contended_share",
        over(&|t| {
            ratio(
                t.sat.store.lock_contended as f64,
                t.sat.store.lock_acquisitions as f64,
            )
        }),
    );
    out.insert("spd.build_s", over(&|t| t.build_s));
    out.insert(
        "serve.commits_per_s",
        over(&|t| ratio(t.sat.commit_us.len() as f64, t.sat.wall_s)),
    );
    let p99 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            tail_percentile(&sorted(v), 0.99).1
        }
    };
    out.insert("serve.service_p99_us", over(&|t| p99(&t.sat.service_us)));
    // Requests that took more than ten times the median: the stalls a
    // percentile sitting on their knee cannot report steadily.
    out.insert(
        "serve.slow_request_share",
        over(&|t| {
            let limit = 10.0 * median(&t.sat.service_us);
            ratio(
                t.sat.service_us.iter().filter(|&&s| s > limit).count() as f64,
                t.sat.requests as f64,
            )
        }),
    );
    out.insert(
        "serve.queue_wait_p50_us",
        over(&|t| median(&t.open.queue_wait_us)),
    );
    out.insert(
        "serve.queue_wait_p99_us",
        over(&|t| p99(&t.open.queue_wait_us)),
    );
    out.insert(
        "serve.open_sojourn_p99_us",
        over(&|t| p99(&t.open.sojourn_us)),
    );
    out.insert(
        "serve.open_gen_late_p99_us",
        over(&|t| p99(&t.open.late_us)),
    );
    out.insert(
        "serve.retries",
        plain.iter().map(|t| t.retries as f64).sum(),
    );
    out.insert(
        "serve.overloaded_share",
        ratio(
            plain.iter().map(|t| t.overloaded as f64).sum(),
            plain.iter().map(|t| t.attempted as f64).sum(),
        ),
    );
    out.insert(
        "serve.overflow_admissions",
        plain.iter().map(|t| t.overflow_admissions as f64).sum(),
    );
    // The first plain trial sampled the stash and ran the SLO sweep.
    let first = &plain[0];
    out.insert("spd.stash_depth_max", first.sat.stash_depth_max as f64);
    out.insert(
        "spd.pages_retired_per_commit",
        ratio(
            first.sat.pages_retired as f64,
            first.sat.commit_us.len() as f64,
        ),
    );
    let sustained = first
        .slo
        .iter()
        .filter(|(_, p99)| *p99 <= w.sizes.slo_limit_us)
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max);
    out.insert("serve.sustained_rps_slo", sustained);
}

pub fn run_traced(opts: RunOpts) -> RunResult {
    let started = Instant::now();
    let load = loadavg_1m();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let timer_ns = micro::timer_overhead_ns();
    let mut checker = Checker::new(opts.kind, opts.seed, opts.quick, opts.seconds);
    let base = TrialOpts {
        quick: opts.quick,
        ..TrialOpts::default()
    };

    let (mut plain, mut spanned, mut server_traced): (Vec<Trial>, Vec<Trial>, Vec<Trial>) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut driver_spans = Spans::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut longest_round = 0.0f64;
    loop {
        let t_round = Instant::now();
        let first = plain.is_empty();
        let rounds: [(&mut Vec<Trial>, TrialOpts, bool); 3] = [
            (
                &mut plain,
                TrialOpts {
                    slo_sweep: first,
                    sample_stash: first,
                    ..base
                },
                false,
            ),
            (
                &mut spanned,
                TrialOpts {
                    skip_open: true,
                    ..base
                },
                true,
            ),
            (
                &mut server_traced,
                TrialOpts {
                    skip_open: true,
                    server_trace: true,
                    ..base
                },
                false,
            ),
        ];
        for (into, trial_opts, with_spans) in rounds {
            let spans = with_spans.then_some(&mut driver_spans);
            let mut trial = run_trial(opts.kind, opts.seed, trial_opts, spans);
            checker.check(&mut trial);
            attempted += trial.attempted;
            failed += trial.failed;
            into.push(trial);
        }
        longest_round = longest_round.max(t_round.elapsed().as_secs_f64());
        let enough = if opts.quick { 1 } else { 2 };
        if plain.len() >= enough
            && started.elapsed().as_secs_f64() + longest_round > opts.seconds * TRIAL_SHARE
        {
            break;
        }
    }

    let w = Workload::generate(opts.kind, opts.seed, opts.quick);
    let cache_on = w.serve.cache.mode != blog_serve::CacheMode::Off;
    let profile = replay(&w, timer_ns);
    let db = parse_program(&w.program_text)
        .expect("generated base parses")
        .db;
    let parallel = micro::parallel_profile(&w, if opts.quick { 1 } else { 3 });

    let mut values: HashMap<&'static str, f64> = HashMap::new();
    replay_metrics(&profile, cache_on, &mut values);
    trial_metrics(&w, &plain, &mut values);
    values.insert("logic.unify_ns_per_call", micro::unify_ns_per_call(&db));
    values.insert("obs.counter_inc_ns", micro::counter_inc_ns());
    values.insert("obs.histogram_record_ns", micro::histogram_record_ns());
    values.insert("bench.timer_overhead_ns", timer_ns);
    values.insert("parallel.speedup_2w", parallel.speedup_2w);
    values.insert("parallel.seq_ratio_1w", parallel.seq_ratio_1w);
    values.insert("parallel.ns_per_node_2w", parallel.ns_per_node_2w);
    values.insert(
        "parallel.shard_locks_per_node",
        parallel.shard_locks_per_node,
    );
    values.insert("parallel.steal_share", parallel.steal_share);
    values.insert("parallel.dives_per_node", parallel.dives_per_node);
    values.insert(
        "parallel.spurious_wakeups_per_req",
        parallel.spurious_wakeups_per_req,
    );
    values.insert("parallel.worker_imbalance", parallel.worker_imbalance);

    let cpu =
        |trials: &[Trial]| median(&trials.iter().map(Trial::cpu_us_per_req).collect::<Vec<_>>());
    let plain_cpu = cpu(&plain);
    values.insert(
        "bench.trace_overhead_pct",
        ratio(cpu(&spanned) - plain_cpu, plain_cpu) * 100.0,
    );
    values.insert(
        "obs.server_trace_cpu_overhead_pct",
        ratio(cpu(&server_traced) - plain_cpu, plain_cpu) * 100.0,
    );
    let submits: Vec<f64> = driver_spans
        .all()
        .iter()
        .filter(|s| s.name == "serve.submit")
        .map(|s| s.duration_ns() as f64)
        .collect();
    values.insert("serve.submit_ns", median(&submits));

    // What the server adds around the layers the replay calls: request by
    // request, its `service` minus the replayed spans, over the requests
    // both answered the same way (cache or engine).
    let first = &plain[0];
    let overheads: Vec<f64> = first
        .sat
        .service_us
        .iter()
        .zip(&profile.times.request_us)
        .zip(first.sat.from_cache.iter().zip(&profile.times.from_cache))
        .filter(|(_, (a, b))| a == b)
        .map(|((served, replayed), _)| served - replayed)
        .collect();
    values.insert("serve.overhead_us_per_req", median(&overheads));
    let served_us = median(
        &plain
            .iter()
            .map(|t| t.sat.service_us.iter().sum())
            .collect::<Vec<f64>>(),
    );
    let replayed_us: f64 = profile.times.request_us.iter().sum();
    values.insert("bench.replay_coverage", ratio(replayed_us, served_us));
    values.insert("bench.oracle_checked_share", checker.checked_share());
    values.insert(
        "bench.trial_spread_pct",
        spread(&plain.iter().map(Trial::req_per_s).collect::<Vec<_>>()) * 100.0,
    );
    values.insert("bench.loadavg_start", load);

    let trace_path = out_dir().join(format!("trace-{}.jsonl", opts.kind.name()));
    match Spans::write_jsonl(&trace_path, &[&profile.spans, &driver_spans]) {
        Ok(n) => println!("{n} spans written to {}", trace_path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", trace_path.display()),
    }

    let engine_share = ratio(profile.times.engine_self_ns as f64 / 1e3, served_us);
    println!(
        "{}: {} plain + {} spans + {} server-traced trials, replay of {} requests and {} commits, in {:.1} s",
        opts.kind.name(),
        plain.len(),
        spanned.len(),
        server_traced.len(),
        profile.counts.requests,
        profile.counts.commits,
        started.elapsed().as_secs_f64(),
    );
    println!(
        "engine self time is {:.1}% of the server's service time; the replayed spans cover {:.1}% of it; SLO sweep (rate, p99 sojourn us): {:?}, limit {} us",
        engine_share * 100.0,
        ratio(replayed_us, served_us) * 100.0,
        first.slo,
        w.sizes.slo_limit_us,
    );
    let mut flags = load_flags(load, cores);
    // A generator that runs late is itself the bottleneck: the open-loop
    // numbers then describe the benchmark, not the server.
    if values["serve.open_gen_late_p99_us"] > 1e6 / w.sizes.open_rate / 10.0 {
        flags.push("generator_bound");
    }

    let verdict = checker.verdict;
    failed += verdict.mismatched;
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| Metric::single(name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    RunResult {
        workload: opts.kind.name(),
        seed: opts.seed,
        traced: true,
        quick: opts.quick,
        correct: failed == 0 && verdict.checked > 0,
        attempted,
        failed,
        metrics,
        flags,
    }
}
