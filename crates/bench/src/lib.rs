//! # blog-bench — the experiment harness
//!
//! One module per experiment family of the paper reproduction; the
//! `experiments` binary dispatches on experiment id and prints each
//! table. Every module exposes `run_*` functions that return structured
//! rows (so tests can assert the qualitative shape) and print via
//! [`report::Table`].
//!
//! | id | module | reproduces |
//! |---|---|---|
//! | F1, F3, F4, W1 | [`figures`] | the paper's worked examples |
//! | T1, A2 | [`strategies`] | best-first vs depth/breadth-first/ID, bound policy |
//! | T2, T3, A1 | [`sessions_exp`] | session learning, conservative merge, infinity placement |
//! | T4, T5, T7, A3 | [`machine_exp`] | machine speedup, D threshold, latency hiding, startup |
//! | T4 (threads) | [`threads_exp`] | real-thread OR-parallel speedup |
//! | T6 | [`spd_exp`] | semantic paging hit rates and I/O time |
//! | T8 | [`andp_exp`] | AND-parallel fork-join and semi-join |
//!
//! The serving stack (answer cache, retries and breakers, telemetry) is
//! measured by the standalone benchmark described in `BENCHMARK.json`,
//! and its behavioural claims are plain tests in the crates that own
//! them.

pub mod andp_exp;
pub mod figures;
pub mod machine_exp;
pub mod report;
pub mod sessions_exp;
pub mod spd_exp;
pub mod strategies;
pub mod threads_exp;
