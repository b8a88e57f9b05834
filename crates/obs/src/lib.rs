//! Unified telemetry for the b-log stack.
//!
//! Five layers (paged store → MVCC → engines → answer cache → resilient
//! server) each grew an ad-hoc counter struct; this crate is the shared
//! substrate that lets them answer the production question — *why was
//! this one request slow / failed / degraded?* — instead of batch-end
//! aggregates. Three pieces:
//!
//! - [`Registry`] — lock-cheap [`Counter`]s / [`Gauge`]s plus log-linear
//!   bucket [`Histogram`]s (HDR-style: fixed memory, mergeable, ≤ 1/32
//!   relative bucket width) that replace sorted-vec percentile math: the
//!   server's latency percentiles are [`Histogram`] reads. A registry
//!   snapshots to a flat `Vec<(name, value)>` and dumps as [`Json`].
//! - [`Tracer`] — structured per-request span trees
//!   (admission → queue wait → attempt N → engine solve → store faults →
//!   cache lookup/fill → commit wait) recorded into a seeded, bounded
//!   ring-buffer [`FlightRecorder`] under [`TraceConfig`] sampling, and
//!   exported as JSON-lines ([`to_jsonl`]) or chrome://tracing format
//!   ([`to_chrome_trace`]). With [`TraceConfig::off`] every
//!   instrumentation site is a branch on `None` — no allocation, no
//!   clock read.
//! - [`Json`] — the hand-rolled JSON writer (the workspace's `serde` is
//!   an offline stub), shared here so every crate can render one blob.
//!
//! This crate is a dependency leaf: it depends on nothing else in the
//! workspace, so any layer can record into it.

pub mod json;
pub mod registry;
pub mod trace;

pub use json::Json;
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use trace::{
    now_ns, splitmix64, to_chrome_trace, to_jsonl, FlightRecorder, Span, SpanCtx, SpanGuard,
    SpanId, TraceConfig, TraceEvent, TraceHandle, TraceRecord, Tracer,
};
