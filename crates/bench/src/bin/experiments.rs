//! Regenerate every table and figure of the B-LOG reproduction.
//!
//! ```text
//! cargo run --release -p blog-bench --bin experiments            # everything
//! cargo run --release -p blog-bench --bin experiments -- t1 t5   # a subset
//! cargo run --release -p blog-bench --bin experiments -- t6 --policy=2q
//! ```
//!
//! Experiment ids match DESIGN.md's index: f1 f3 f4 w1 w2 t1 t2 t3 t4 t5
//! t6 t7 t8 t9 t11 t12 t13 t14 a1 a2 a3 a4.
//! `--policy=<lru|2q|clock|fifo>` restricts the T6c replacement-policy
//! sweep (every `blog-workloads` generator runs through an epoch-0
//! snapshot of the paged clause store) to one policy; given without
//! experiment ids it implies `t6`. `--pools=<n>` and
//! `--requests=<n>` restrict the T9 serving sweep's pool axis and
//! offered-load axis (the CI smoke path runs `t9 --pools=2
//! --requests=50`); given without experiment ids they imply `t9`.
//! The T11 first-argument-index sweep, the T12 answer-cache
//! sweep and the T13 chaos sweep honor `--requests` too (the CI smoke
//! paths run `t11 --requests=50`, `t12 --requests=50`, `t13
//! --requests=50` and `t14 --requests=50`; capped T12/T13/T14 runs also
//! skip their headline asserts — too few arrivals for a stable p99,
//! availability or overhead estimate). `--stats-json` makes the T9
//! sweep print its final point's full `ServeStats::to_json` document
//! after the table; given without experiment ids it implies `t9`.
//! `trace-dump` runs a small always-on traced serve and exports the
//! flight recorder to `TRACE_DUMP.jsonl` (one trace per line) and
//! `TRACE_DUMP_chrome.json` (chrome://tracing / Perfetto); it never
//! runs as part of `all`.
//! `--json[=PATH]` writes the machine-readable rows of the experiments
//! that emit them — the T7 state sweep to `BENCH_T7_STATE.json`, the
//! T9 serving sweep to `BENCH_T9_SERVE.json`, the T11 index sweep to
//! `BENCH_T11_INDEX.json`, the T12 cache sweep to
//! `BENCH_T12_CACHE.json`, the T13 chaos sweep to
//! `BENCH_T13_CHAOS.json`, and the T14 telemetry-overhead sweep to
//! `BENCH_T14_OBS.json` (or all into `PATH`, keyed by section, when
//! an explicit path is given) — so PRs can record the perf trajectory
//! as `BENCH_*.json` files.

use blog_bench::report::Json;
use blog_bench::{
    andp_exp, cache_exp, chaos_exp, figures, index_exp, machine_exp, obs_exp, serve_exp,
    sessions_exp, spd_exp, state_exp, strategies, threads_exp,
};
use blog_spd::PolicyKind;

fn main() {
    let mut policy: Option<PolicyKind> = None;
    let mut json_path: Option<String> = None;
    let mut pools: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut stats_json = false;
    let mut args: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(spec) = arg.strip_prefix("--policy=") {
            match PolicyKind::parse(spec) {
                Some(kind) => policy = Some(kind),
                None => {
                    eprintln!("unknown policy {spec:?}; known: lru 2q clock fifo");
                    std::process::exit(2);
                }
            }
        } else if let Some(spec) = arg.strip_prefix("--pools=") {
            match spec.parse::<usize>() {
                Ok(n) if n >= 1 => pools = Some(n),
                _ => {
                    eprintln!("--pools: expected a pool count >= 1, got {spec:?}");
                    std::process::exit(2);
                }
            }
        } else if let Some(spec) = arg.strip_prefix("--requests=") {
            match spec.parse::<usize>() {
                Ok(n) if n >= 1 => requests = Some(n),
                _ => {
                    eprintln!("--requests: expected a request cap >= 1, got {spec:?}");
                    std::process::exit(2);
                }
            }
        } else if arg == "--stats-json" {
            stats_json = true;
        } else if arg == "--json" {
            json_path = Some("--default--".to_string());
        } else if let Some(path) = arg.strip_prefix("--json=") {
            json_path = Some(path.to_string());
        } else {
            args.push(arg);
        }
    }
    // Flags given without experiment ids imply their sections rather than
    // running every experiment: `--policy` targets the T6c sweep,
    // `--json` the (only) JSON-emitting section, t7. Together they imply
    // both.
    if args.is_empty() {
        if policy.is_some() {
            args.push("t6".to_string());
        }
        if pools.is_some() || requests.is_some() || stats_json {
            args.push("t9".to_string());
        }
        if json_path.is_some()
            && !args
                .iter()
                .any(|a| {
                    a == "t9"
                        || a == "t11"
                        || a == "t12"
                        || a == "t13"
                        || a == "t14"
                })
        {
            args.push("t7".to_string());
        }
    }
    // Fail fast on `--json` with an id list that excludes every
    // JSON-emitting section, rather than after minutes of other sweeps.
    if json_path.is_some()
        && !args.is_empty()
        && !args.iter().any(|a| {
            a == "t7"
                || a == "t9"
                || a == "t11"
                || a == "t12"
                || a == "t13"
                || a == "t14"
                || a == "all"
        })
    {
        eprintln!(
            "--json: include t7, t9, t11, t12, t13 or t14 (the JSON-emitting experiments) in the id list"
        );
        std::process::exit(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);
    let mut ran = 0;

    let mut section = |id: &str, title: &str, f: &mut dyn FnMut()| {
        if want(id) {
            println!("================================================================");
            println!("{} — {}", id.to_uppercase(), title);
            println!("================================================================");
            f();
            ran += 1;
        }
    };

    section("f1", "figure 1: the family query under Prolog search", &mut || {
        figures::run_f1();
    });
    section("f3", "figure 3: the OR-tree shape", &mut || {
        figures::run_f3();
    });
    section("f4", "figure 4 / §5: weight-directed expansion order", &mut || {
        figures::run_f4();
    });
    section("w1", "§4: theoretical weights on figure 3", &mut || {
        figures::run_w1();
    });
    section("w2", "§4: convergence of learned weights to the model", &mut || {
        figures::run_w2();
    });
    section("t1", "search strategies across workloads", &mut || {
        strategies::run_t1();
    });
    section("t2", "session learning curve", &mut || {
        sessions_exp::run_t2();
    });
    section("t3", "conservative merge across sessions", &mut || {
        sessions_exp::run_t3();
    });
    section("t4", "parallel speedup (machine sim + real threads)", &mut || {
        machine_exp::run_t4_machine();
        threads_exp::run_t4_threads(6);
    });
    section("t5", "communication threshold D", &mut || {
        machine_exp::run_t5();
    });
    section("t6", "semantic paging disks", &mut || {
        spd_exp::run_t6();
        spd_exp::run_t6b();
        spd_exp::run_t6c(policy);
    });
    let mut t7_state_rows: Vec<state_exp::StateRow> = Vec::new();
    section("t7", "latency hiding + §6 copying cost (search-state repr)", &mut || {
        machine_exp::run_t7_machine();
        machine_exp::run_t7_scoreboard();
        machine_exp::run_t7_multiwrite();
        t7_state_rows = state_exp::run_t7_state();
    });
    section("t8", "AND-parallelism: fork-join and semi-join", &mut || {
        andp_exp::run_t8_forkjoin();
        andp_exp::run_t8_semijoin();
    });
    let mut t9_serve_rows: Vec<serve_exp::ServeRow> = Vec::new();
    section("t9", "serving sweep: offered load x pools x routing", &mut || {
        t9_serve_rows = serve_exp::run_t9(pools, requests, stats_json);
    });
    let mut t11_index_rows: Vec<index_exp::IndexRow> = Vec::new();
    section("t11", "first-argument bitmap index: touches and faults per solution", &mut || {
        t11_index_rows = index_exp::run_t11(requests);
    });
    let mut t12_cache_rows: Vec<cache_exp::CacheRow> = Vec::new();
    section("t12", "answer cache: open-loop sustainable rate + invalidation precision", &mut || {
        t12_cache_rows = cache_exp::run_t12(requests);
    });
    let mut t13_chaos_rows: Vec<chaos_exp::ChaosRow> = Vec::new();
    section("t13", "chaos: availability under injected faults + degraded serving", &mut || {
        t13_chaos_rows = chaos_exp::run_t13(requests);
    });
    let mut t14_obs_rows: Vec<obs_exp::ObsRow> = Vec::new();
    section("t14", "telemetry overhead: tracing off vs sampled vs always-on", &mut || {
        t14_obs_rows = obs_exp::run_t14(requests);
    });
    section("a1", "ablation: infinity placement", &mut || {
        sessions_exp::run_a1();
    });
    section("a2", "ablation: bound policy", &mut || {
        strategies::run_a2();
    });
    section("a3", "ablation: startup distribution", &mut || {
        machine_exp::run_a3();
    });
    section("a4", "ablation: first-argument clause indexing", &mut || {
        strategies::run_a4();
    });

    // Explicit-only (never part of `all`): dumping trace files is a
    // debugging action, not an experiment.
    if args.iter().any(|a| a == "trace-dump") {
        println!("================================================================");
        println!("TRACE-DUMP — flight-recorder export (jsonl + chrome://tracing)");
        println!("================================================================");
        obs_exp::run_trace_dump();
        ran += 1;
    }

    if ran == 0 {
        eprintln!(
            "unknown experiment id(s): {:?}\nknown: f1 f3 f4 w1 w2 t1 t2 t3 t4 t5 t6 t7 t8 t9 t11 t12 t13 t14 a1 a2 a3 a4 trace-dump (or no args for all; trace-dump only runs when named)\nflags: --policy=<lru|2q|clock|fifo> (restricts the T6c sweep), --pools=<n> / --requests=<n> (restrict the T9/T11/T12/T13/T14 sweeps), --stats-json (T9 prints its final ServeStats as JSON), --json[=PATH] (write machine-readable rows)",
            args
        );
        std::process::exit(2);
    }

    if let Some(path) = json_path {
        if t7_state_rows.is_empty()
            && t9_serve_rows.is_empty()
            && t11_index_rows.is_empty()
            && t12_cache_rows.is_empty()
            && t13_chaos_rows.is_empty()
            && t14_obs_rows.is_empty()
        {
            eprintln!(
                "--json: no JSON-emitting experiment ran (include t7, t9, t11, t12, t13 or t14)"
            );
            std::process::exit(2);
        }
        let write = |path: &str, doc: Json| {
            let mut text = doc.render();
            text.push('\n');
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("--json: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        };
        if path == "--default--" {
            // Bare `--json`: each section to its own trajectory file.
            if !t7_state_rows.is_empty() {
                write(
                    "BENCH_T7_STATE.json",
                    Json::Obj(vec![(
                        "t7_state".to_string(),
                        state_exp::rows_to_json(&t7_state_rows),
                    )]),
                );
            }
            if !t9_serve_rows.is_empty() {
                write(
                    "BENCH_T9_SERVE.json",
                    Json::Obj(vec![(
                        "t9_serve".to_string(),
                        serve_exp::rows_to_json(&t9_serve_rows),
                    )]),
                );
            }
            if !t11_index_rows.is_empty() {
                write(
                    "BENCH_T11_INDEX.json",
                    Json::Obj(vec![(
                        "t11_index".to_string(),
                        index_exp::rows_to_json(&t11_index_rows),
                    )]),
                );
            }
            if !t12_cache_rows.is_empty() {
                write(
                    "BENCH_T12_CACHE.json",
                    Json::Obj(vec![(
                        "t12_cache".to_string(),
                        cache_exp::rows_to_json(&t12_cache_rows),
                    )]),
                );
            }
            if !t13_chaos_rows.is_empty() {
                write(
                    "BENCH_T13_CHAOS.json",
                    Json::Obj(vec![(
                        "t13_chaos".to_string(),
                        chaos_exp::rows_to_json(&t13_chaos_rows),
                    )]),
                );
            }
            if !t14_obs_rows.is_empty() {
                write(
                    "BENCH_T14_OBS.json",
                    Json::Obj(vec![(
                        "t14_obs".to_string(),
                        obs_exp::rows_to_json(&t14_obs_rows),
                    )]),
                );
            }
        } else {
            // Explicit path: one combined document, keyed by section.
            let mut fields = Vec::new();
            if !t7_state_rows.is_empty() {
                fields.push((
                    "t7_state".to_string(),
                    state_exp::rows_to_json(&t7_state_rows),
                ));
            }
            if !t9_serve_rows.is_empty() {
                fields.push((
                    "t9_serve".to_string(),
                    serve_exp::rows_to_json(&t9_serve_rows),
                ));
            }
            if !t11_index_rows.is_empty() {
                fields.push((
                    "t11_index".to_string(),
                    index_exp::rows_to_json(&t11_index_rows),
                ));
            }
            if !t12_cache_rows.is_empty() {
                fields.push((
                    "t12_cache".to_string(),
                    cache_exp::rows_to_json(&t12_cache_rows),
                ));
            }
            if !t13_chaos_rows.is_empty() {
                fields.push((
                    "t13_chaos".to_string(),
                    chaos_exp::rows_to_json(&t13_chaos_rows),
                ));
            }
            if !t14_obs_rows.is_empty() {
                fields.push((
                    "t14_obs".to_string(),
                    obs_exp::rows_to_json(&t14_obs_rows),
                ));
            }
            write(&path, Json::Obj(fields));
        }
    }
}
