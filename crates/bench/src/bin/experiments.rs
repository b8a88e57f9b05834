//! Regenerate every table and figure of the B-LOG reproduction.
//!
//! ```text
//! cargo run --release -p blog-bench --bin experiments            # everything
//! cargo run --release -p blog-bench --bin experiments -- t1 t5   # a subset
//! ```
//!
//! Experiment ids: f1 f3 f4 w1 w2 t1 t2 t3 t4 t5 t6 t7 t8 a1 a2 a3
//! (module table in the crate docs). Every argument must be one of them
//! or `all`, and all are checked before anything runs: anything else
//! prints the usage line and exits 2.

use blog_bench::{andp_exp, figures, machine_exp, sessions_exp, spd_exp, strategies, threads_exp};

/// Every experiment id, in run order.
const IDS: [&str; 16] = [
    "f1", "f3", "f4", "w1", "w2", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "a1", "a2", "a3",
];

fn usage_exit(complaint: &str) -> ! {
    eprintln!(
        "{complaint}\nusage: experiments [all | {}]...\n(no ids runs every experiment)",
        IDS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = args
        .iter()
        .find(|a| *a != "all" && !IDS.contains(&a.as_str()))
    {
        usage_exit(&format!("unknown experiment id or flag {arg:?}"));
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

    section(
        "f1",
        "figure 1: the family query under Prolog search",
        &mut || {
            figures::run_f1();
        },
    );
    section("f3", "figure 3: the OR-tree shape", &mut || {
        figures::run_f3();
    });
    section(
        "f4",
        "figure 4 / §5: weight-directed expansion order",
        &mut || {
            figures::run_f4();
        },
    );
    section("w1", "§4: theoretical weights on figure 3", &mut || {
        figures::run_w1();
    });
    section(
        "w2",
        "§4: convergence of learned weights to the model",
        &mut || {
            figures::run_w2();
        },
    );
    section("t1", "search strategies across workloads", &mut || {
        strategies::run_t1();
    });
    section("t2", "session learning curve", &mut || {
        sessions_exp::run_t2();
    });
    section("t3", "conservative merge across sessions", &mut || {
        sessions_exp::run_t3();
    });
    section(
        "t4",
        "parallel speedup (machine sim + real threads)",
        &mut || {
            machine_exp::run_t4_machine();
            threads_exp::run_t4_threads(6);
        },
    );
    section("t5", "communication threshold D", &mut || {
        machine_exp::run_t5();
    });
    section("t6", "semantic paging disks", &mut || {
        spd_exp::run_t6();
        spd_exp::run_t6b();
        spd_exp::run_t6c();
    });
    section("t7", "latency hiding (machine sim)", &mut || {
        machine_exp::run_t7_machine();
        machine_exp::run_t7_scoreboard();
        machine_exp::run_t7_multiwrite();
    });
    section(
        "t8",
        "AND-parallelism: fork-join and semi-join",
        &mut || {
            andp_exp::run_t8_forkjoin();
            andp_exp::run_t8_semijoin();
        },
    );
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
