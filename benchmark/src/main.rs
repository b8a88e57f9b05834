//! `blog-benchmark` — the repository's one benchmark. See `README.md` in
//! this directory for the metrics, the workloads and how to run it.

mod compare;
mod drive;
mod gen;
mod json;
mod metrics;
mod micro;
mod oracle;
mod replay;
mod rng;
mod run;
mod spans;
mod stats;
mod traced;

use std::io::Write as _;
use std::process::ExitCode;

use gen::Kind;
use metrics::RunResult;
use run::RunOpts;

const USAGE: &str = "\
usage:
  blog-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <ledger.jsonl>]
      one run of one workload; the last line of standard output is the result
  blog-benchmark full [--seed <n>] [--seconds <s>] [--trace <0|1>] --out <ledger.jsonl>
      one run of every workload, appended to the ledger `compare` reads
  blog-benchmark --quick [--seed <n>]
      two small trials of every workload, correctness asserted (smoke run)
  blog-benchmark compare <a.jsonl> <b.jsonl> [--spec <BENCHMARK.json>]
      per workload and end-to-end metric: same / worse / better / unresolved
workloads: serve_mix search_seq search_par paged_churn";

/// Parsed command line of the run modes.
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Kind::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Run one workload and print its table; returns the result.
fn run_one(kind: Kind, args: &Args) -> RunResult {
    let opts = RunOpts {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let result = if args.trace {
        traced::run_traced(opts)
    } else {
        run::run_end_to_end(opts)
    };
    print!("{}", result.table());
    result
}

fn append_ledger(path: &str, result: &RunResult) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", result.ledger_line())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("full") => ("full", &args[1..]),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(_) => ("one", &args[..]),
    };
    let parsed = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kinds: Vec<Kind> = match (mode, parsed.workload) {
        ("one", Some(kind)) => vec![kind],
        ("one", None) if parsed.quick => Kind::ALL.to_vec(),
        ("full", None) => Kind::ALL.to_vec(),
        ("full", Some(_)) => {
            eprintln!("`full` runs every workload; drop --workload\n{USAGE}");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!("--workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for kind in kinds {
        let result = run_one(kind, &parsed);
        ok &= result.correct;
        if let Some(path) = &parsed.out {
            if let Err(e) = append_ledger(path, &result) {
                eprintln!("cannot append to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        // The driver reads the last line of standard output.
        if mode == "one" && !parsed.quick {
            println!("{}", result.contract_line());
        } else {
            println!("{}", result.ledger_line());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a response was wrong, failed or went unchecked");
        ExitCode::FAILURE
    }
}
