//! # blog-bench — the experiment harness
//!
//! One module per experiment family from DESIGN.md's index; the
//! `experiments` binary dispatches on experiment id and prints the tables
//! recorded in EXPERIMENTS.md. Every module exposes `run_*` functions
//! that return structured rows (so tests can assert the qualitative
//! shape) and print via [`report::Table`].
//!
//! | id | module | reproduces |
//! |---|---|---|
//! | F1, F3, F4, W1 | [`figures`] | the paper's worked examples |
//! | T1, A2 | [`strategies`] | best-first vs depth/breadth-first/ID |
//! | T2, T3, A1 | [`sessions_exp`] | session learning, conservative merge, infinity placement |
//! | T4, T5, T7, A3 | [`machine_exp`] | machine speedup, D threshold, latency hiding, startup |
//! | T4 (threads) | [`threads_exp`] | real-thread OR-parallel speedup |
//! | T6 | [`spd_exp`] | semantic paging hit rates and I/O time |
//! | T7 (state) | [`state_exp`] | §6 copying cost: Cloned vs Shared search state |
//! | T8 | [`andp_exp`] | AND-parallel fork-join and semi-join |
//! | T9 | [`serve_exp`] | serving sweep: offered load × pools × routing over one shared store |
//! | T11 | [`index_exp`] | first-argument bitmap index: clause touches and faults per solution |
//! | T12 | [`cache_exp`] | answer cache: open-loop sustainable rate, invalidation precision, governed admission |
//! | T13 | [`chaos_exp`] | chaos: availability under injected faults, retries vs no-retry, degraded cache-only serving |
//! | T14 | [`obs_exp`] | telemetry overhead: tracing off vs sampled vs always-on, p99 span breakdown |

pub mod andp_exp;
pub mod cache_exp;
pub mod chaos_exp;
pub mod figures;
pub mod index_exp;
pub mod machine_exp;
pub mod obs_exp;
pub mod report;
pub mod serve_exp;
pub mod sessions_exp;
pub mod spd_exp;
pub mod state_exp;
pub mod strategies;
pub mod threads_exp;
