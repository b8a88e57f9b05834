//! Regenerate every table and figure of the B-LOG reproduction.
//!
//! ```text
//! cargo run --release -p blog-bench --bin experiments            # everything
//! cargo run --release -p blog-bench --bin experiments -- t1 t5   # a subset
//! cargo run --release -p blog-bench --bin experiments -- t6 --policy=2q
//! ```
//!
//! Experiment ids: f1 f3 f4 w1 w2 t1 t2 t3 t4 t5 t6 t7 t8 a1 a2 a3
//! (module table in the crate docs). `--policy=<lru|2q|clock|fifo>`
//! restricts the T6c replacement-policy sweep (every `blog-workloads`
//! generator runs through an epoch-0 snapshot of the paged clause store)
//! to one policy; given without experiment ids it implies `t6`. Every
//! argument is checked before anything runs: an unknown id or flag
//! prints the usage line and exits 2.

use blog_bench::{andp_exp, figures, machine_exp, sessions_exp, spd_exp, strategies, threads_exp};
use blog_spd::PolicyKind;

/// Every experiment id, in run order.
const IDS: [&str; 16] = [
    "f1", "f3", "f4", "w1", "w2", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "a1", "a2", "a3",
];

fn usage_exit(complaint: &str) -> ! {
    eprintln!(
        "{complaint}\nusage: experiments [all | {}]... [--policy=<lru|2q|clock|fifo>]\n\
         (no ids runs every experiment; --policy restricts the T6c sweep and implies t6)",
        IDS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut policy: Option<PolicyKind> = None;
    let mut args: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(spec) = arg.strip_prefix("--policy=") {
            match PolicyKind::parse(spec) {
                Some(kind) => policy = Some(kind),
                None => usage_exit(&format!("unknown policy {spec:?}")),
            }
        } else if arg == "all" || IDS.contains(&arg.as_str()) {
            args.push(arg);
        } else {
            usage_exit(&format!("unknown experiment id or flag {arg:?}"));
        }
    }
    // `--policy` without experiment ids targets the T6c sweep rather than
    // running every experiment.
    if args.is_empty() && policy.is_some() {
        args.push("t6".to_string());
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);

    let section = |id: &str, title: &str, f: &mut dyn FnMut()| {
        if want(id) {
            println!("================================================================");
            println!("{} — {}", id.to_uppercase(), title);
            println!("================================================================");
            f();
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
    section("t7", "latency hiding (machine sim)", &mut || {
        machine_exp::run_t7_machine();
        machine_exp::run_t7_scoreboard();
        machine_exp::run_t7_multiwrite();
    });
    section("t8", "AND-parallelism: fork-join and semi-join", &mut || {
        andp_exp::run_t8_forkjoin();
        andp_exp::run_t8_semijoin();
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
}
