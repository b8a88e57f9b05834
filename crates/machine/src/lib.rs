//! # blog-machine — simulating the parallel B-LOG machine
//!
//! Section 6 of the paper sketches a MIMD computer that no one ever
//! built: `N` processors, each multitasking `M` chains behind a CDC-6600
//! style scoreboard, coordinated by a **minimum-seeking network** plus a
//! **priority circuit**, pulling database pages from semantic paging
//! disks, and arbitrating local-versus-remote work with a communication
//! threshold **D**. This crate simulates that machine so the paper's
//! architectural claims become measurable:
//!
//! - [`tree`] — the machine's workload format: an explicit weighted
//!   OR-tree, either synthetically planted or traced from a real search
//!   run by `blog-core`.
//! - [`machine`] — the discrete-event simulation: task scheduling, the
//!   min-seeking network ([`net`]), the priority circuit (the order in
//!   which idle tasks are offered work), D-threshold work acquisition
//!   (including the run-time adaptive D the paper proposes), disk-latency
//!   overlap, and the startup phase that is "searched breadth-first to
//!   get all processors working".
//! - [`scoreboard`] — a micro-simulator of one processor's functional
//!   units under scoreboard control, for the utilization-versus-M figure.
//! - [`multiwrite`] — the multi-write copying memory proposed to cheapen
//!   chain sprouting, as a cost model.
//!
//! ## Layering note
//!
//! The machine consumes disk behaviour as a latency parameter rather than
//! embedding the full SPD simulator in the event loop; `blog-spd`
//! measures those latencies from realistic layouts, and the experiment
//! harness feeds the distilled numbers in here. This keeps both
//! simulators independently testable while preserving the interaction
//! the paper cares about (disk waits being hidden by multitasking).

pub mod machine;
pub mod multiwrite;
pub mod net;
pub mod scoreboard;
pub mod tree;

pub use machine::{simulate, MachineConfig, MachineStats};
pub use net::MinSeekTree;
pub use scoreboard::{ScoreboardConfig, ScoreboardStats, UnitKind};
pub use tree::{
    planted_tree, tree_from_search, NodeKind, PlantedTreeParams, TreeSpec, WeightModel,
};
