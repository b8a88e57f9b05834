//! `blog-benchmark compare A.jsonl B.jsonl`: per workload and end-to-end
//! metric, did B get worse than A by more than the metric's bound?
//!
//! Bounds and directions come from `BENCHMARK.json`. A difference counts
//! only when it exceeds both the bound and the spread of the runs; where
//! the spread alone is wider than the bound and no such difference shows,
//! the verdict is `unresolved`, never `same`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::stats::{median, spread};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One side's measurement of one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub value: f64,
    /// Interquartile distance over the median: across runs when the
    /// ledger holds at least four of the workload, else the widest
    /// across-trials spread of its runs.
    pub spread: f64,
}

pub fn verdict(a: Side, b: Side, m: &Bound) -> Verdict {
    if a.value == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = B is worse than A.
    let change = if m.lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    let noise = a.spread.max(b.spread);
    if change.abs() > m.bound && change.abs() > noise {
        if change > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    } else if noise > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

pub fn parse_bounds(spec: &Value) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without a direction")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Bound {
                name: name.to_owned(),
                lower_is_better: match better {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("{name}: direction {other:?}")),
                },
                bound,
            })
        })
        .collect()
}

/// `workload → metric → one (value, trial spread) per run` of a ledger.
type Ledger = BTreeMap<String, BTreeMap<String, Vec<(f64, f64)>>>;

pub fn parse_ledger(text: &str) -> Result<Ledger, String> {
    let mut ledger = Ledger::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.get("traced").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = rec
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no value"))?;
            let q1 = m.get("q1").and_then(Value::as_f64).unwrap_or(value);
            let q3 = m.get("q3").and_then(Value::as_f64).unwrap_or(value);
            let trial_spread = if value == 0.0 {
                0.0
            } else {
                (q3 - q1) / value.abs()
            };
            ledger
                .entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push((value, trial_spread));
        }
    }
    Ok(ledger)
}

fn side(runs: &[(f64, f64)]) -> Side {
    let values: Vec<f64> = runs.iter().map(|r| r.0).collect();
    Side {
        value: median(&values),
        spread: if runs.len() >= 4 {
            spread(&values)
        } else {
            runs.iter().map(|r| r.1).fold(0.0, f64::max)
        },
    }
}

/// The comparison table; `Err` when a file is unreadable or malformed.
pub fn compare(a: &str, b: &str, spec: &str) -> Result<(String, bool), String> {
    let bounds = parse_bounds(&json::parse(spec)?)?;
    let (a, b) = (parse_ledger(a)?, parse_ledger(b)?);
    let mut out = format!(
        "{:<12} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "change", "noise", "bound"
    );
    let mut clean = true;
    let mut rows = 0;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for m in &bounds {
            let (Some(ra), Some(rb)) = (a_metrics.get(&m.name), b_metrics.get(&m.name)) else {
                continue;
            };
            let (sa, sb) = (side(ra), side(rb));
            let v = verdict(sa, sb, m);
            clean &= matches!(v, Verdict::Same | Verdict::Better);
            rows += 1;
            out.push_str(&format!(
                "{:<12} {:<22} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}\n",
                workload,
                m.name,
                sa.value,
                sb.value,
                if sa.value == 0.0 {
                    0.0
                } else {
                    (sb.value - sa.value) / sa.value * 100.0
                },
                sa.spread.max(sb.spread) * 100.0,
                m.bound * 100.0,
                v.label()
            ));
        }
    }
    if rows == 0 {
        return Err("the two ledgers share no workload and end-to-end metric".into());
    }
    Ok((out, clean))
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            match it.next() {
                Some(p) => spec_path = p.clone(),
                None => {
                    eprintln!("--spec needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(a.clone());
        }
    }
    if files.len() != 2 {
        eprintln!("usage: blog-benchmark compare <a.jsonl> <b.jsonl> [--spec <BENCHMARK.json>]");
        return ExitCode::from(2);
    }
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = read(&files[0])
        .and_then(|a| Ok((a, read(&files[1])?, read(&spec_path)?)))
        .and_then(|(a, b, spec)| compare(&a, &b, &spec));
    match result {
        Ok((table, clean)) => {
            print!("{table}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_us".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn higher(bound: f64) -> Bound {
        Bound {
            name: "req_per_s".into(),
            lower_is_better: false,
            bound,
        }
    }

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // Within the bound, quiet runs: same.
        assert_eq!(
            verdict(s(100.0, 0.01), s(104.0, 0.02), &lower(0.05)),
            Verdict::Same
        );
        // Beyond the bound: worse for lower-is-better, better the other way.
        assert_eq!(
            verdict(s(100.0, 0.01), s(110.0, 0.01), &lower(0.05)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(110.0, 0.01), &higher(0.05)),
            Verdict::Better
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(90.0, 0.01), &higher(0.05)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(90.0, 0.01), &lower(0.05)),
            Verdict::Better
        );
        // Spread wider than the bound and no clear difference: unresolved,
        // never same.
        assert_eq!(
            verdict(s(100.0, 0.08), s(101.0, 0.01), &lower(0.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(107.0, 0.09), &lower(0.05)),
            Verdict::Unresolved
        );
        // A difference larger than a wide spread still counts.
        assert_eq!(
            verdict(s(100.0, 0.08), s(130.0, 0.08), &lower(0.05)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(0.0, 0.0), s(1.0, 0.0), &lower(0.05)),
            Verdict::Unresolved
        );
    }

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#;

    fn line(workload: &str, rps: f64, setup: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"traced\": false, \"metrics\": {{\
             \"req_per_s\": {{\"value\": {rps}, \"unit\": \"1/s\", \"q1\": {}, \"q3\": {}}}, \
             \"setup_s\": {{\"value\": {setup}, \"unit\": \"s\", \"q1\": {setup}, \"q3\": {setup}}}}}}}\n",
            rps * 0.99,
            rps * 1.01
        )
    }

    #[test]
    fn compares_ledgers_row_by_row() {
        let a = line("serve_mix", 1000.0, 0.5) + &line("search_seq", 200.0, 0.3);
        let b = line("serve_mix", 1020.0, 0.5) + &line("search_seq", 150.0, 0.31);
        let (table, clean) = compare(&a, &b, SPEC).unwrap();
        assert!(!clean);
        let row = |w: &str, m: &str| {
            table
                .lines()
                .find(|l| l.starts_with(w) && l.contains(m))
                .unwrap_or_else(|| panic!("no row {w} {m} in\n{table}"))
                .to_owned()
        };
        assert!(row("serve_mix", "req_per_s").ends_with("same"));
        assert!(row("serve_mix", "setup_s").ends_with("same"));
        assert!(row("search_seq", "req_per_s").ends_with("worse"));
        let (_, clean) = compare(&a, &a, SPEC).unwrap();
        assert!(clean);
    }

    #[test]
    fn four_runs_per_workload_use_the_run_to_run_spread() {
        // Trial-level quartiles are tight (1 %), but the four runs scatter
        // by far more than the 10 % bound: unresolved.
        let a: String = [800.0, 1000.0, 1200.0, 1400.0]
            .iter()
            .map(|&v| line("serve_mix", v, 0.5))
            .collect();
        let (table, clean) = compare(&a, &a, SPEC).unwrap();
        assert!(!clean);
        assert!(table
            .lines()
            .any(|l| l.contains("req_per_s") && l.ends_with("unresolved")));
    }

    #[test]
    fn traced_records_and_foreign_ledgers_are_rejected_or_skipped() {
        let traced = "{\"workload\": \"serve_mix\", \"traced\": true, \"metrics\": {\"req_per_s\": {\"value\": 1.0}}}\n";
        assert!(parse_ledger(traced).unwrap().is_empty());
        assert!(compare(traced, traced, SPEC).is_err());
        assert!(parse_ledger("not json").is_err());
        assert!(parse_bounds(&json::parse("{}").unwrap()).is_err());
    }
}
