//! The `experiments` binary validates its whole command line before it
//! runs anything: one bad argument next to a good id must not run the
//! good one and silently drop the bad one.

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
}

#[test]
fn an_unknown_policy_exits_2() {
    assert_refused_before_running(&["t6", "--policy=mru"]);
}
