//! The end-to-end run: repeat fixed-work trials until the time budget is
//! spent, check every response of every trial against the oracle, and
//! condense each metric over the trials.

use std::time::{Duration, Instant};

use crate::drive::{run_trial, Trial, TrialOpts};
use crate::gen::{Kind, Workload};
use crate::metrics::{Metric, RunResult, END_TO_END};
use crate::oracle::{Oracle, Verdict};
use crate::stats::{loadavg_1m, median, peak_rss_mb, ratio};

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub kind: Kind,
    pub seed: u64,
    /// Measuring time: trials are started while the budget lasts.
    pub seconds: f64,
    /// Two small trials, whatever the budget.
    pub quick: bool,
}

/// A full run always takes at least this many trials, so a median and
/// quartiles exist even when one trial outlasts the budget.
const MIN_TRIALS: usize = 3;

/// The values of one trial, in [`END_TO_END`] order without `peak_rss_mb`
/// (which is read once per run).
fn per_trial_values(t: &Trial) -> [f64; 5] {
    [
        t.req_per_s(),
        t.cpu_us_per_req(),
        median(&t.sat.service_us),
        median(&t.sat.commit_us),
        t.setup_s,
    ]
}

/// The oracle of one run, with the running totals of what it checked.
/// Each trial is checked as soon as it ends and its digests dropped, so
/// the process's memory does not grow with the number of trials.
pub struct Checker {
    workload: Workload,
    oracle: Oracle,
    per_trial: Duration,
    pub verdict: Verdict,
}

impl Checker {
    pub fn new(kind: Kind, seed: u64, quick: bool, seconds: f64) -> Checker {
        let workload = Workload::generate(kind, seed, quick);
        Checker {
            oracle: Oracle::new(&workload),
            workload,
            // The first trial fills the memo; later ones mostly hit it.
            per_trial: Duration::from_secs_f64((seconds * 0.15).clamp(2.0, 6.0)),
            verdict: Verdict::default(),
        }
    }

    /// Check `trial`'s responses and drop them.
    pub fn check(&mut self, trial: &mut Trial) {
        let deadline = Instant::now() + self.per_trial;
        let v = self
            .oracle
            .check(&self.workload, &trial.digests, &trial.commits, deadline);
        self.verdict.checked += v.checked;
        self.verdict.mismatched += v.mismatched;
        self.verdict.unchecked += v.unchecked;
        trial.digests = Vec::new();
        trial.commits = Vec::new();
    }

    /// Share of the responses seen that were checked.
    pub fn checked_share(&self) -> f64 {
        let seen = self.verdict.checked + self.verdict.unchecked;
        ratio(self.verdict.checked as f64, seen as f64)
    }
}

/// Run-guard flag: the machine was already busy when the run started.
pub fn load_flags(load: f64, cores: usize) -> Vec<&'static str> {
    if load > cores as f64 * 0.5 {
        vec!["loaded_at_start"]
    } else {
        Vec::new()
    }
}

pub fn run_end_to_end(opts: RunOpts) -> RunResult {
    let started = Instant::now();
    let load = loadavg_1m();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // No end-to-end metric comes from the open loop (see the README:
    // its sojourn could not be made to repeat), so only the traced run
    // pays for that phase.
    let trial_opts = TrialOpts {
        quick: opts.quick,
        skip_open: true,
        ..TrialOpts::default()
    };
    let mut checker = Checker::new(opts.kind, opts.seed, opts.quick, opts.seconds);
    let mut columns: [Vec<f64>; 5] = Default::default();
    let mut first_trial_rss_mb = 0.0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut longest = 0.0f64;
    let mut shape = String::new();
    loop {
        let t0 = Instant::now();
        let mut trial = run_trial(opts.kind, opts.seed, trial_opts, None);
        checker.check(&mut trial);
        longest = longest.max(t0.elapsed().as_secs_f64());
        attempted += trial.attempted;
        failed += trial.failed;
        let v = per_trial_values(&trial);
        if columns[0].is_empty() {
            // The peak of a process that has run one trial: later trials
            // only add what the allocator kept from earlier ones.
            first_trial_rss_mb = peak_rss_mb();
        }
        println!(
            "trial {:>2}: {:>9.1} req/s {:>8.2} cpu_us {:>8.2} p50 {:>8.2} commit {:>6.3} setup_s ({:.2} s)",
            columns[0].len(), v[0], v[1], v[2], v[3], v[4], t0.elapsed().as_secs_f64()
        );
        for (col, v) in columns.iter_mut().zip(v) {
            col.push(v);
        }
        if shape.is_empty() {
            shape = format!(
                "base {} clauses, {} tracks, cache {} tracks; per trial: {} requests + {} commits",
                trial.db_len,
                trial.tracks_total,
                trial.capacity_tracks,
                trial.sat.requests,
                trial.sat.commit_us.len(),
            );
        }
        let n = columns[0].len();
        let done = if opts.quick {
            n >= 2
        } else {
            n >= MIN_TRIALS && started.elapsed().as_secs_f64() + longest > opts.seconds
        };
        if done {
            break;
        }
    }

    let mut per_trial = columns.iter();
    let mut column = || per_trial.next().expect("one column per per-trial metric");
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| match name {
            "peak_rss_mb" => Metric::single(name, unit, first_trial_rss_mb),
            // The driver's contract asks for the median set-up time.
            "setup_s" => Metric::of_trials(name, unit, column()),
            "cpu_us_per_req" => Metric::of_coarse_trials(name, unit, column()),
            "req_per_s" => Metric::of_speed_trials(name, unit, column(), true),
            _ => Metric::of_speed_trials(name, unit, column(), false),
        })
        .collect();

    let verdict = checker.verdict;
    failed += verdict.mismatched;
    println!(
        "{}: {} trials in {:.1} s; {shape}",
        opts.kind.name(),
        columns[0].len(),
        started.elapsed().as_secs_f64(),
    );
    println!(
        "oracle checked {} of {} responses ({} mismatched); {cores} cores, load average {load:.2} at start; VmHWM {:.1} MB",
        verdict.checked,
        verdict.checked + verdict.unchecked,
        verdict.mismatched,
        peak_rss_mb(),
    );
    RunResult {
        workload: opts.kind.name(),
        seed: opts.seed,
        traced: false,
        quick: opts.quick,
        correct: failed == 0 && verdict.checked > 0,
        attempted,
        failed,
        metrics,
        flags: load_flags(load, cores),
    }
}
