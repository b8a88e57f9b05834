//! The `experiments` binary validates its whole command line before it
//! runs anything: one bad argument next to a good id must not run the
//! good one and silently drop the bad one. And the tables it prints stay
//! byte-identical to `tables.golden` unless a change means to move them.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn assert_refused_before_running(args: &[&str]) {
    let out = experiments(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(
        stderr.contains("usage: experiments"),
        "{args:?}: stderr {stderr}"
    );
    assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
}

#[test]
fn an_unknown_id_next_to_a_known_one_exits_2_without_running_either() {
    assert_refused_before_running(&["t6", "t11"]);
}

#[test]
fn a_retired_flag_exits_2_without_running_anything() {
    assert_refused_before_running(&["--json"]);
    assert_refused_before_running(&["t6", "--requests=50"]);
    assert_refused_before_running(&["t6", "--policy=2q"]);
}

#[test]
fn an_unknown_policy_exits_2() {
    assert_refused_before_running(&["t6", "--policy=mru"]);
}

/// Every experiment except `t4`, whose thread table prints wall-clock
/// times. All of these tables are deterministic: seeded workloads, counted
/// work, simulated time.
const GOLDEN_IDS: [&str; 15] = [
    "f1", "f3", "f4", "w1", "w2", "t1", "t2", "t3", "t5", "t6", "t7", "t8", "a1", "a2", "a3",
];

/// A change that moves a paper table on purpose regenerates the golden
/// with `cargo run -p blog-bench --bin experiments -- <GOLDEN_IDS> >
/// crates/bench/tests/tables.golden` and says why.
#[test]
fn paper_tables_match_the_golden_output() {
    let out = experiments(&GOLDEN_IDS);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("tables are UTF-8");
    let golden = include_str!("tables.golden");
    if let Some((i, (g, w))) =
        (got.lines().zip(golden.lines()).enumerate()).find(|(_, (g, w))| g != w)
    {
        panic!("line {}: got {g:?}, golden {w:?}", i + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "table length");
}
