//! Property tests for the tracing substrate: the flight-recorder ring
//! bound, deterministic sampling, and span-tree well-formedness under
//! concurrent recording — the invariants every instrumented subsystem
//! (store, engines, server) leans on without re-checking.
//!
//! Case counts honor the `PROPTEST_CASES` environment variable (the CI
//! profile sets a reduced count; see `.github/workflows/ci.yml`).

use blog_obs::{splitmix64, SpanId, TraceConfig, Tracer};
use proptest::prelude::*;

proptest! {
    /// The ring never holds more than `capacity` traces, never loses
    /// count, and evicts oldest-first — for any capacity including the
    /// degenerate drop-everything zero.
    #[test]
    fn ring_never_exceeds_capacity(capacity in 0usize..48, n in 0usize..128) {
        let tracer =
            Tracer::new(TraceConfig::always_on().with_ring_capacity(capacity), 11);
        for i in 0..n {
            let h = tracer.start(i as u64, || format!("r{i}")).expect("always-on samples all");
            h.span(SpanId::ROOT, "work").finish();
            tracer.finish(h);
        }
        let rec = tracer.recorder();
        prop_assert!(rec.len() <= capacity);
        prop_assert_eq!(rec.len(), n.min(capacity));
        prop_assert_eq!(rec.recorded(), n as u64);
        prop_assert_eq!(rec.evicted(), (n - n.min(capacity)) as u64);
        // Oldest-first eviction: the survivors are exactly the most
        // recent `len` records, in submission order.
        let kept: Vec<u64> = rec.snapshot().iter().map(|t| t.index).collect();
        let expect: Vec<u64> = ((n - n.min(capacity))..n).map(|i| i as u64).collect();
        prop_assert_eq!(kept, expect);
    }

    /// Sampling is a pure function of (seed, index): two tracers under
    /// the same config agree on every decision and every trace id, a
    /// tracer with a different seed is allowed to disagree, and the
    /// decision matches the documented `splitmix64(seed ^ index)`
    /// residue rule. `sample_one_in == 1` traces everything.
    #[test]
    fn sampling_is_deterministic_per_seed(
        seed in any::<u64>(),
        one_in in 1u32..20,
        indices in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let config = TraceConfig::sampled(one_in);
        let a = Tracer::new(config, seed);
        let b = Tracer::new(config, seed);
        for &i in &indices {
            let (ta, tb) = (a.start(i, || "x"), b.start(i, || "x"));
            prop_assert_eq!(ta.is_some(), tb.is_some(), "seed {} index {}", seed, i);
            let expect = splitmix64(seed ^ i).is_multiple_of(u64::from(one_in));
            prop_assert_eq!(ta.is_some(), expect || one_in == 1);
            if let (Some(ta), Some(tb)) = (ta, tb) {
                prop_assert_eq!(ta.trace_id(), tb.trace_id());
                prop_assert_eq!(ta.trace_id(), a.trace_id_for(i));
            }
        }
    }

    /// A disabled tracer samples nothing and allocates nothing.
    #[test]
    fn off_tracer_never_starts(seed in any::<u64>(), index in any::<u64>()) {
        let t = Tracer::new(TraceConfig::off(), seed);
        prop_assert!(t.start(index, || "x").is_none());
        prop_assert_eq!(t.recorder().capacity(), 0);
    }

    /// Span trees stay well-formed when several worker threads record
    /// spans and events through clones of one handle concurrently — the
    /// exact shape the server produces (admission thread + OR-parallel
    /// pool workers writing into one trace).
    #[test]
    fn concurrent_span_trees_stay_well_formed(
        pools in 1usize..6,
        spans_per_pool in 0usize..12,
        events_per_pool in 0usize..6,
    ) {
        let tracer = Tracer::new(TraceConfig::always_on(), 7);
        let h = tracer.start(0, || "concurrent").expect("always-on samples everything");
        std::thread::scope(|scope| {
            for w in 0..pools {
                let h = h.clone();
                scope.spawn(move || {
                    let worker = h.span(SpanId::ROOT, format!("worker{w}"));
                    for s in 0..spans_per_pool {
                        let inner = h.span(worker.id(), format!("w{w}s{s}"));
                        for e in 0..events_per_pool {
                            h.event(inner.id(), format!("w{w}e{e}"), "detail");
                        }
                        inner.finish();
                    }
                    worker.finish();
                });
            }
        });
        tracer.finish(h);
        let traces = tracer.recorder().snapshot();
        prop_assert_eq!(traces.len(), 1);
        let t = &traces[0];
        if let Err(e) = t.well_formed() {
            return Err(TestCaseError::fail(format!("malformed: {e}")));
        }
        // Nothing recorded before the close went missing.
        prop_assert_eq!(t.spans.len(), 1 + pools * (1 + spans_per_pool));
        prop_assert_eq!(
            t.events.len() + t.dropped_events as usize,
            pools * spans_per_pool * events_per_pool
        );
    }
}
