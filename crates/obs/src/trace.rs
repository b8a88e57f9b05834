//! Structured request tracing and the flight recorder.
//!
//! One [`Tracer`] serves one server (or experiment run). Per request the
//! instrumented layer calls [`Tracer::start`] with the request's index:
//! under [`TraceConfig`] sampling that either returns `None` — the
//! request is untraced and every downstream site is a branch on `None`
//! with no allocation — or a [`TraceHandle`], a cheap `Arc` the request
//! threads through the stack. The handle grows a **span tree**
//! ([`TraceHandle::span`] guards time an interval; [`TraceHandle::event`]
//! marks a point, like a breaker transition or an injected fault) and is
//! closed with [`Tracer::finish`], which freezes it into a
//! [`TraceRecord`] and pushes it onto the bounded ring-buffer
//! [`FlightRecorder`] — the last `ring_capacity` traces are always
//! available for a post-hoc "why was this slow?" dump.
//!
//! Sampling is **deterministic**: request `index` is traced iff
//! `splitmix64(seed ^ index) % sample_one_in == 0`, and that same hash
//! is the trace id — so the same seed and request plan always yield the
//! same traced set with the same ids, and storms replay exactly (the
//! property `obs_props` checks).
//!
//! Completed traces export as JSON-lines ([`to_jsonl`], one trace per
//! line) or as chrome://tracing's event-array format
//! ([`to_chrome_trace`], loadable in `chrome://tracing` / Perfetto).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Point events kept per trace before further ones are counted into
/// `dropped_events` instead of stored — bounds hot sites (per-touch
/// faults) even in always-on mode.
pub const MAX_EVENTS_PER_TRACE: usize = 512;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide monotonic anchor (fixed at first
/// use). All span timestamps share this origin, so spans recorded by
/// different layers and threads compare directly.
pub fn now_ns() -> u64 {
    u64::try_from(ANCHOR.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// SplitMix64: the workspace's standard cheap bit mixer (the same one
/// the server uses for backoff jitter), here deriving sampling decisions
/// and trace ids from `(seed, request index)`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Tracing configuration: how often to trace and how much to keep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceConfig {
    /// Trace one request in this many (deterministically by request
    /// index); `0` disables tracing entirely, `1` traces everything.
    pub sample_one_in: u32,
    /// Completed traces the flight recorder retains (oldest evicted).
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Tracing fully off: every site is a branch on `None`.
    pub fn off() -> TraceConfig {
        TraceConfig {
            sample_one_in: 0,
            ring_capacity: 0,
        }
    }

    /// Trace every request into a default-sized ring.
    pub fn always_on() -> TraceConfig {
        TraceConfig::sampled(1)
    }

    /// Trace one request in `n` into a default-sized ring.
    pub fn sampled(n: u32) -> TraceConfig {
        TraceConfig {
            sample_one_in: n,
            ring_capacity: 256,
        }
    }

    /// This configuration with a different ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> TraceConfig {
        self.ring_capacity = capacity;
        self
    }

    /// Whether any request can be traced at all.
    pub fn enabled(&self) -> bool {
        self.sample_one_in > 0
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::off()
    }
}

/// Identifier of one span within one trace. `SpanId::ROOT` is the
/// implicit whole-request span every trace has.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The implicit root span (the whole request).
    pub const ROOT: SpanId = SpanId(0);
}

/// One closed interval in a trace's span tree.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id (root is 0).
    pub id: SpanId,
    /// Parent span id (the root is its own parent).
    pub parent: SpanId,
    /// Taxonomy name, e.g. `attempt`, `engine`, `backoff`.
    pub name: String,
    /// Start, ns since the [`now_ns`] anchor.
    pub start_ns: u64,
    /// End, ns since the anchor (`>= start_ns`).
    pub end_ns: u64,
}

/// One point event inside a span (breaker flip, injected fault, …).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span the event belongs to.
    pub parent: SpanId,
    /// Taxonomy name, e.g. `breaker`, `fault`, `worker`.
    pub name: String,
    /// Free-form detail, e.g. `closed->open`.
    pub detail: String,
    /// When, ns since the [`now_ns`] anchor.
    pub at_ns: u64,
}

#[derive(Debug)]
struct TraceInner {
    trace_id: u64,
    index: u64,
    label: String,
    start_ns: u64,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    events: Mutex<Vec<TraceEvent>>,
    dropped_events: AtomicU64,
}

/// A live, shareable handle onto one request's trace. Clones share the
/// same span tree, so worker threads can record concurrently; close the
/// request with [`Tracer::finish`] after they join.
#[derive(Clone, Debug)]
pub struct TraceHandle {
    inner: Arc<TraceInner>,
}

impl TraceHandle {
    fn new(trace_id: u64, index: u64, label: String) -> TraceHandle {
        TraceHandle {
            inner: Arc::new(TraceInner {
                trace_id,
                index,
                label,
                start_ns: now_ns(),
                next_id: AtomicU32::new(1),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                dropped_events: AtomicU64::new(0),
            }),
        }
    }

    /// This trace's id (deterministic per `(seed, index)`).
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// The request index the trace was started with.
    pub fn index(&self) -> u64 {
        self.inner.index
    }

    /// When the trace began (root span start), ns since the [`now_ns`]
    /// anchor — the backdating floor for [`span_at`](Self::span_at).
    pub fn start_ns(&self) -> u64 {
        self.inner.start_ns
    }

    /// Open a child span of `parent`, timed from now until the returned
    /// guard drops (or [`SpanGuard::finish`]).
    pub fn span(&self, parent: SpanId, name: impl Into<String>) -> SpanGuard<'_> {
        self.span_at(parent, name, now_ns())
    }

    /// Open a child span whose start is backdated to `start_ns` — e.g.
    /// queue wait, measured from an enqueue timestamp taken before the
    /// request was sampled.
    pub fn span_at(
        &self,
        parent: SpanId,
        name: impl Into<String>,
        start_ns: u64,
    ) -> SpanGuard<'_> {
        SpanGuard {
            handle: self,
            id: self.next_span_id(),
            parent,
            name: Some(name.into()),
            start_ns,
        }
    }

    /// Record an already-closed interval (both endpoints known).
    pub fn add_span(
        &self,
        parent: SpanId,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.next_span_id();
        self.push_span(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Record a point event under `parent` (capped at
    /// [`MAX_EVENTS_PER_TRACE`]; overflow is counted, not stored).
    pub fn event(&self, parent: SpanId, name: impl Into<String>, detail: impl Into<String>) {
        let mut events = lock(&self.inner.events);
        if events.len() >= MAX_EVENTS_PER_TRACE {
            self.inner.dropped_events.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(TraceEvent {
            parent,
            name: name.into(),
            detail: detail.into(),
            at_ns: now_ns(),
        });
    }

    fn next_span_id(&self) -> SpanId {
        SpanId(self.inner.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn push_span(&self, span: Span) {
        lock(&self.inner.spans).push(span);
    }

    /// Freeze into a record (root span materialized, buffers drained).
    fn into_record(self) -> TraceRecord {
        let end_ns = now_ns();
        let inner = &self.inner;
        let mut spans = std::mem::take(&mut *lock(&inner.spans));
        spans.push(Span {
            id: SpanId::ROOT,
            parent: SpanId::ROOT,
            name: inner.label.clone(),
            start_ns: inner.start_ns,
            end_ns,
        });
        spans.sort_by_key(|s| (s.start_ns, s.id.0));
        TraceRecord {
            trace_id: inner.trace_id,
            index: inner.index,
            label: inner.label.clone(),
            start_ns: inner.start_ns,
            end_ns,
            spans,
            events: std::mem::take(&mut *lock(&inner.events)),
            dropped_events: inner.dropped_events.load(Ordering::Relaxed),
        }
    }
}

/// A [`TraceHandle`] plus the span new work should be parented under —
/// the unit layers hand *down* the stack (the engine's `SolveConfig`
/// carries one, snapshots attach one with `with_trace`), so a store
/// fault deep inside an engine run lands under the right attempt span.
#[derive(Clone, Debug)]
pub struct SpanCtx {
    handle: TraceHandle,
    parent: SpanId,
}

impl SpanCtx {
    /// A context recording under `parent` in `handle`'s trace.
    pub fn new(handle: TraceHandle, parent: SpanId) -> SpanCtx {
        SpanCtx { handle, parent }
    }

    /// The underlying trace handle.
    pub fn handle(&self) -> &TraceHandle {
        &self.handle
    }

    /// The span new work is parented under.
    pub fn parent(&self) -> SpanId {
        self.parent
    }

    /// Open a child span of this context's parent.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        self.handle.span(self.parent, name)
    }

    /// This context re-parented under `parent` (same trace).
    pub fn under(&self, parent: SpanId) -> SpanCtx {
        SpanCtx {
            handle: self.handle.clone(),
            parent,
        }
    }

    /// Record a point event under this context's parent.
    pub fn event(&self, name: impl Into<String>, detail: impl Into<String>) {
        self.handle.event(self.parent, name, detail);
    }
}

/// Times one span: the interval closes when the guard drops (or
/// [`finish`](Self::finish) is called, which is the same thing spelled
/// explicitly). Open child spans under [`id`](Self::id).
pub struct SpanGuard<'a> {
    handle: &'a TraceHandle,
    id: SpanId,
    parent: SpanId,
    name: Option<String>,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id — the `parent` for child spans and events.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Close the span now.
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let name = self.name.take().expect("span closed once");
        self.handle.push_span(Span {
            id: self.id,
            parent: self.parent,
            name,
            start_ns: self.start_ns,
            end_ns: now_ns().max(self.start_ns),
        });
    }
}

/// One completed request trace.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Deterministic id (`splitmix64(seed ^ index)`).
    pub trace_id: u64,
    /// Request index the trace was started with.
    pub index: u64,
    /// Root label (e.g. the request's query text or kind).
    pub label: String,
    /// Root start, ns since the [`now_ns`] anchor.
    pub start_ns: u64,
    /// Root end.
    pub end_ns: u64,
    /// All closed spans, root included, ordered by start.
    pub spans: Vec<Span>,
    /// Point events (bounded; see [`MAX_EVENTS_PER_TRACE`]).
    pub events: Vec<TraceEvent>,
    /// Events dropped by the per-trace cap.
    pub dropped_events: u64,
}

impl TraceRecord {
    /// Whole-request duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Total nanoseconds spent in spans named `name` (summed across
    /// repeats, e.g. every `backoff` of a retry ladder).
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.id != SpanId::ROOT && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Check the span tree is well-formed: ids unique, every parent
    /// exists, every child interval nested inside its parent's, no
    /// interval inverted. Returns the first violation.
    pub fn well_formed(&self) -> Result<(), String> {
        let mut by_id = std::collections::HashMap::new();
        for s in &self.spans {
            if by_id.insert(s.id.0, s).is_some() {
                return Err(format!("duplicate span id {}", s.id.0));
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) inverted", s.id.0, s.name));
            }
        }
        if !by_id.contains_key(&SpanId::ROOT.0) {
            return Err("missing root span".into());
        }
        for s in &self.spans {
            if s.id == SpanId::ROOT {
                continue;
            }
            let Some(p) = by_id.get(&s.parent.0) else {
                return Err(format!("span {} ({}) orphaned", s.id.0, s.name));
            };
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                    s.id.0, s.name, s.start_ns, s.end_ns, p.id.0, p.name, p.start_ns, p.end_ns
                ));
            }
        }
        for e in &self.events {
            if !by_id.contains_key(&e.parent.0) {
                return Err(format!("event {} orphaned", e.name));
            }
        }
        Ok(())
    }

    /// The whole trace as one JSON object (one JSON-lines line).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("trace_id".into(), Json::str(format!("{:016x}", self.trace_id))),
            ("index".into(), Json::int(self.index)),
            ("label".into(), Json::str(&*self.label)),
            ("start_ns".into(), Json::int(self.start_ns)),
            ("dur_ns".into(), Json::int(self.duration_ns())),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("id".into(), Json::int(u64::from(s.id.0))),
                                ("parent".into(), Json::int(u64::from(s.parent.0))),
                                ("name".into(), Json::str(&*s.name)),
                                ("start_ns".into(), Json::int(s.start_ns)),
                                ("dur_ns".into(), Json::int(s.end_ns - s.start_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "events".into(),
                Json::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("parent".into(), Json::int(u64::from(e.parent.0))),
                                ("name".into(), Json::str(&*e.name)),
                                ("detail".into(), Json::str(&*e.detail)),
                                ("at_ns".into(), Json::int(e.at_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("dropped_events".into(), Json::int(self.dropped_events)),
        ])
    }
}

/// Bounded ring of the most recent [`TraceRecord`]s.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<TraceRecord>>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// An empty recorder keeping at most `capacity` traces.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Push a completed trace, evicting the oldest past capacity.
    pub fn record(&self, trace: TraceRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = lock(&self.ring);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(trace);
    }

    /// Resident traces, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        lock(&self.ring).iter().cloned().collect()
    }

    /// Resident trace count (≤ capacity).
    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    /// Whether no trace is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces ever recorded (evicted ones included).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces evicted (or dropped by a zero-capacity ring).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// The per-server tracing front door (see the module docs).
pub struct Tracer {
    config: TraceConfig,
    seed: u64,
    recorder: FlightRecorder,
}

impl Tracer {
    /// A tracer under `config`, sampling deterministically from `seed`.
    pub fn new(config: TraceConfig, seed: u64) -> Tracer {
        Tracer {
            config,
            seed,
            recorder: FlightRecorder::new(config.ring_capacity),
        }
    }

    /// A disabled tracer: [`start`](Self::start) always returns `None`.
    pub fn off() -> Tracer {
        Tracer::new(TraceConfig::off(), 0)
    }

    /// This tracer's configuration.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Whether any request can be traced.
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// The deterministic trace id request `index` would get.
    pub fn trace_id_for(&self, index: u64) -> u64 {
        splitmix64(self.seed ^ index)
    }

    /// Begin tracing request `index` if it is sampled; `None` (and no
    /// allocation) otherwise.
    pub fn start(&self, index: u64, label: impl Into<String>) -> Option<TraceHandle> {
        let n = self.config.sample_one_in;
        if n == 0 {
            return None;
        }
        let h = self.trace_id_for(index);
        if n > 1 && !h.is_multiple_of(u64::from(n)) {
            return None;
        }
        Some(TraceHandle::new(h, index, label.into()))
    }

    /// Close `handle`: freeze it into a [`TraceRecord`] and push it onto
    /// the flight recorder. Call after any worker clones have joined —
    /// spans recorded through a clone after this point are lost.
    pub fn finish(&self, handle: TraceHandle) {
        self.recorder.record(handle.into_record());
    }

    /// The flight recorder holding completed traces.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

/// Render traces as JSON-lines: one [`TraceRecord::to_json`] object per
/// line.
pub fn to_jsonl(traces: &[TraceRecord]) -> String {
    let mut out = String::new();
    for t in traces {
        out.push_str(&t.to_json().render());
        out.push('\n');
    }
    out
}

/// Render traces in chrome://tracing's JSON event-array format: spans as
/// complete (`"ph":"X"`) events, point events as instants (`"ph":"i"`),
/// one `tid` lane per trace. Microsecond timestamps, as the format
/// requires. Load the output in `chrome://tracing` or Perfetto.
pub fn to_chrome_trace(traces: &[TraceRecord]) -> String {
    let mut events = Vec::new();
    for (lane, t) in traces.iter().enumerate() {
        let lane = lane as u64 + 1;
        let args = |extra: Vec<(String, Json)>| {
            let mut v = vec![(
                "trace_id".to_string(),
                Json::str(format!("{:016x}", t.trace_id)),
            )];
            v.extend(extra);
            Json::Obj(v)
        };
        for s in &t.spans {
            events.push(Json::Obj(vec![
                ("name".into(), Json::str(&*s.name)),
                ("cat".into(), Json::str("blog")),
                ("ph".into(), Json::str("X")),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid".into(), Json::int(1)),
                ("tid".into(), Json::int(lane)),
                (
                    "args".into(),
                    args(vec![
                        ("span".into(), Json::int(u64::from(s.id.0))),
                        ("parent".into(), Json::int(u64::from(s.parent.0))),
                    ]),
                ),
            ]));
        }
        for e in &t.events {
            events.push(Json::Obj(vec![
                ("name".into(), Json::str(&*e.name)),
                ("cat".into(), Json::str("blog")),
                ("ph".into(), Json::str("i")),
                ("s".into(), Json::str("t")),
                ("ts".into(), Json::Num(e.at_ns as f64 / 1e3)),
                ("pid".into(), Json::int(1)),
                ("tid".into(), Json::int(lane)),
                (
                    "args".into(),
                    args(vec![("detail".into(), Json::str(&*e.detail))]),
                ),
            ]));
        }
    }
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).render()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_traces_nothing() {
        let tracer = Tracer::new(TraceConfig::off(), 7);
        assert!(!tracer.enabled());
        for i in 0..100 {
            assert!(tracer.start(i, "req").is_none());
        }
        assert_eq!(tracer.recorder().recorded(), 0);
    }

    #[test]
    fn always_on_traces_everything_with_deterministic_ids() {
        let a = Tracer::new(TraceConfig::always_on(), 42);
        let b = Tracer::new(TraceConfig::always_on(), 42);
        for i in 0..20 {
            let ta = a.start(i, "req").expect("always on");
            let tb = b.start(i, "req").expect("always on");
            assert_eq!(ta.trace_id(), tb.trace_id(), "same seed, same id");
            a.finish(ta);
            b.finish(tb);
        }
        let c = Tracer::new(TraceConfig::always_on(), 43);
        let t = c.start(0, "req").unwrap();
        assert_ne!(t.trace_id(), a.trace_id_for(0), "different seed");
        c.finish(t);
    }

    #[test]
    fn sampling_rate_is_roughly_one_in_n() {
        let tracer = Tracer::new(TraceConfig::sampled(64), 1);
        let sampled = (0..64_000).filter(|&i| tracer.start(i, "r").is_some()).count();
        // splitmix64 is a good mixer: expect 1000 ± a wide margin.
        assert!((500..2000).contains(&sampled), "sampled {sampled} of 64000");
    }

    #[test]
    fn span_tree_is_well_formed_and_breakdown_sums() {
        let tracer = Tracer::new(TraceConfig::always_on(), 0);
        let t = tracer.start(3, "request").unwrap();
        {
            let attempt = t.span(SpanId::ROOT, "attempt");
            {
                let engine = t.span(attempt.id(), "engine");
                t.event(engine.id(), "fault", "transient");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let backoff = t.span(attempt.id(), "backoff");
            backoff.finish();
        }
        t.add_span(SpanId::ROOT, "queue", t.start_ns(), t.start_ns());
        tracer.finish(t);
        let recs = tracer.recorder().snapshot();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        r.well_formed().expect("well formed");
        assert_eq!(r.spans.len(), 5, "root + attempt + engine + backoff + queue");
        assert!(r.span_total_ns("engine") >= 1_000_000);
        assert!(r.span_total_ns("attempt") >= r.span_total_ns("engine"));
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.label, "request");
    }

    #[test]
    fn ring_is_bounded_and_fifo() {
        let tracer = Tracer::new(TraceConfig::always_on().with_ring_capacity(4), 0);
        for i in 0..10 {
            let t = tracer.start(i, format!("r{i}")).unwrap();
            tracer.finish(t);
        }
        let rec = tracer.recorder();
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.evicted(), 6);
        let labels: Vec<String> = rec.snapshot().iter().map(|t| t.label.clone()).collect();
        assert_eq!(labels, ["r6", "r7", "r8", "r9"]);
    }

    #[test]
    fn event_cap_counts_overflow() {
        let tracer = Tracer::new(TraceConfig::always_on(), 0);
        let t = tracer.start(0, "r").unwrap();
        for i in 0..(MAX_EVENTS_PER_TRACE + 10) {
            t.event(SpanId::ROOT, "e", format!("{i}"));
        }
        tracer.finish(t);
        let r = &tracer.recorder().snapshot()[0];
        assert_eq!(r.events.len(), MAX_EVENTS_PER_TRACE);
        assert_eq!(r.dropped_events, 10);
    }

    #[test]
    fn exports_render_both_formats() {
        let tracer = Tracer::new(TraceConfig::always_on(), 9);
        let t = tracer.start(0, "q").unwrap();
        {
            let s = t.span(SpanId::ROOT, "engine");
            t.event(s.id(), "breaker", "closed->open");
        }
        tracer.finish(t);
        let traces = tracer.recorder().snapshot();
        let jsonl = to_jsonl(&traces);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"label\":\"q\""));
        assert!(jsonl.contains("\"name\":\"engine\""));
        let chrome = to_chrome_trace(&traces);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("closed->open"));
    }

    #[test]
    fn concurrent_clones_record_into_one_tree() {
        let tracer = Tracer::new(TraceConfig::always_on(), 0);
        let t = tracer.start(0, "fanout").unwrap();
        let work = t.span(SpanId::ROOT, "parallel");
        let parent = work.id();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let handle = t.clone();
                scope.spawn(move || {
                    let s = handle.span(parent, format!("worker-{w}"));
                    handle.event(s.id(), "dive", "d");
                });
            }
        });
        work.finish();
        tracer.finish(t);
        let r = &tracer.recorder().snapshot()[0];
        r.well_formed().expect("well formed across threads");
        assert_eq!(r.spans.len(), 6, "root + parallel + 4 workers");
        assert_eq!(r.events.len(), 4);
    }
}
