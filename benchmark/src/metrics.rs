//! The metric tables (names and units, exactly as `BENCHMARK.json` lists
//! them) and the result record a run prints.

use std::fmt::Write as _;

use crate::stats::{fast_decile, fast_fifth_mean, median, quartiles};

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("req_per_s", "1/s"),
    ("cpu_us_per_req", "us"),
    ("service_p50_us", "us"),
    ("commit_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// metric whose layer the workload does not exercise (`parallel.*` off
/// `search_par`, `serve.cache_*` with the cache off) reads 0.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("logic.parse_us_per_req", "us"),
    ("logic.canon_us_per_req", "us"),
    ("logic.render_us_per_solution", "us"),
    ("logic.unify_ns_per_call", "ns"),
    ("logic.unify_attempts_per_node", "count"),
    ("logic.unify_success_share", "ratio"),
    ("logic.bytes_copied_per_node", "bytes"),
    ("core.engine_self_us_per_req", "us"),
    ("core.engine_self_ns_per_node", "ns"),
    ("core.nodes_per_req", "count"),
    ("core.solutions_per_node", "ratio"),
    ("core.failures_per_node", "ratio"),
    ("core.max_frontier_p99", "count"),
    ("spd.snapshot_open_us", "us"),
    ("spd.snapshot_close_us", "us"),
    ("spd.candidates_ns_per_call", "ns"),
    ("spd.candidates_per_call", "count"),
    ("spd.index_prune_share", "ratio"),
    ("spd.fetch_ns_per_touch", "ns"),
    ("spd.touches_per_node", "count"),
    ("spd.hit_rate", "ratio"),
    ("spd.faults_per_req", "count"),
    ("spd.evictions_per_req", "count"),
    ("spd.fault_ticks_per_req", "count"),
    ("spd.lock_acq_per_req", "count"),
    ("spd.lock_contended_share", "ratio"),
    ("spd.txn_open_us", "us"),
    ("spd.assert_us_per_op", "us"),
    ("spd.retract_us_per_op", "us"),
    ("spd.commit_us", "us"),
    ("spd.stash_depth_max", "count"),
    ("spd.pages_retired_per_commit", "count"),
    ("spd.build_s", "s"),
    ("parallel.speedup_2w", "ratio"),
    ("parallel.seq_ratio_1w", "ratio"),
    ("parallel.ns_per_node_2w", "ns"),
    ("parallel.shard_locks_per_node", "count"),
    ("parallel.steal_share", "ratio"),
    ("parallel.dives_per_node", "ratio"),
    ("parallel.spurious_wakeups_per_req", "count"),
    ("parallel.worker_imbalance", "ratio"),
    ("serve.submit_ns", "ns"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.cache_probe_ns", "ns"),
    ("serve.cache_hit_copy_us", "us"),
    ("serve.cache_fill_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_evictions_per_req", "count"),
    ("serve.cache_on_commit_us", "us"),
    ("serve.cache_invalidations_per_commit", "count"),
    ("serve.commits_per_s", "1/s"),
    ("serve.overhead_us_per_req", "us"),
    ("serve.retries", "count"),
    ("serve.overloaded_share", "ratio"),
    ("serve.overflow_admissions", "count"),
    ("serve.service_p99_us", "us"),
    ("serve.slow_request_share", "ratio"),
    ("serve.open_sojourn_p50_us", "us"),
    ("serve.open_sojourn_p99_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.open_gen_late_p99_us", "us"),
    ("serve.sustained_rps_slo", "1/s"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.server_trace_cpu_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.timer_overhead_ns", "ns"),
    ("bench.replay_coverage", "ratio"),
    ("bench.oracle_checked_share", "ratio"),
    ("bench.trial_spread_pct", "%"),
    ("bench.loadavg_start", "count"),
];

/// One reported metric: the run's value (a median or the fast decile of
/// its trials, or a once-per-run measurement) with the trials' quartiles.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Metric {
    /// The median of per-trial `values`, with their quartiles.
    pub fn of_trials(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        let (q1, q3) = quartiles(values);
        Metric {
            name,
            unit,
            value: median(values),
            q1,
            q3,
            samples: values.len(),
        }
    }

    /// The [`fast_decile`] of per-trial `values`, with their quartiles.
    pub fn of_speed_trials(
        name: &'static str,
        unit: &'static str,
        values: &[f64],
        higher_is_better: bool,
    ) -> Metric {
        Metric {
            value: fast_decile(values, higher_is_better),
            ..Metric::of_trials(name, unit, values)
        }
    }

    /// The [`fast_fifth_mean`] of per-trial `values` of a time read in
    /// coarse steps, with their quartiles.
    pub fn of_coarse_trials(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            value: fast_fifth_mean(values, false),
            ..Metric::of_trials(name, unit, values)
        }
    }

    /// A once-per-run measurement.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    /// Interquartile distance as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// Everything one run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run-guard flags (e.g. `generator_bound`).
    pub flags: Vec<&'static str>,
}

/// A float with all its digits (shortest round-trip form); JSON has no
/// NaN or infinity, which a measurement here should never be.
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite measurement");
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

impl RunResult {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
            .expect("write to string");
        }
        s.push_str("}}");
        s
    }

    /// The ledger line `compare` reads: the contract line's content plus
    /// what identifies the run and each metric's trial quartiles.
    pub fn ledger_line(&self) -> String {
        let mut s = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"quick\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"flags\": [{}], \"metrics\": {{",
            self.workload,
            self.seed,
            self.traced,
            self.quick,
            self.correct,
            self.attempted,
            self.failed,
            self.flags.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", ")
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
                m.name,
                num(m.value),
                m.unit,
                num(m.q1),
                num(m.q3),
                m.samples
            )
            .expect("write to string");
        }
        s.push_str("}}");
        s
    }

    /// The human-readable table printed before the result line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let mode = match (self.traced, self.quick) {
            (true, _) => "traced",
            (false, true) => "quick",
            (false, false) => "end-to-end",
        };
        writeln!(s, "== {} seed {} ({mode}) ==", self.workload, self.seed).expect("write");
        for m in &self.metrics {
            write!(
                s,
                "{:<40} {:>16} {:<6}",
                m.name,
                format!("{:.4}", m.value),
                m.unit
            )
            .expect("write");
            if m.samples > 1 {
                write!(
                    s,
                    " q1 {:<14} q3 {:<14} spread {:>5.1}% n={}",
                    format!("{:.4}", m.q1),
                    format!("{:.4}", m.q3),
                    m.spread() * 100.0,
                    m.samples
                )
                .expect("write");
            }
            s.push('\n');
        }
        for f in &self.flags {
            writeln!(s, "FLAG {f}").expect("write");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::gen::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_parses() {
        let r = RunResult {
            workload: "serve_mix",
            seed: 3,
            traced: false,
            quick: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::of_trials("req_per_s", "1/s", &[100.0, 110.0, 120.0]),
                Metric::single("setup_s", "s", 0.25),
            ],
            flags: vec![],
        };
        let v = json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("req_per_s").unwrap().get("value").unwrap().as_f64(),
            Some(110.0)
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        let ledger = json::parse(&r.ledger_line()).unwrap();
        assert_eq!(ledger.get("workload").unwrap().as_str(), Some("serve_mix"));
        assert_eq!(
            ledger
                .get("metrics")
                .unwrap()
                .get("req_per_s")
                .unwrap()
                .get("q3")
                .unwrap()
                .as_f64(),
            Some(120.0)
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(1234.5678), "1234.5678");
    }
}
