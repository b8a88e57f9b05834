//! The metrics registry: lock-cheap counters and gauges plus
//! log-linear bucket histograms.
//!
//! A [`Registry`] is a named bag of metrics. Handles ([`Counter`],
//! [`Gauge`], [`Arc<Histogram>`](Histogram)) are obtained once by name —
//! the only locked path — and then updated lock-free with relaxed
//! atomics, so hot loops never contend on the registry itself. The whole
//! registry snapshots to a flat `Vec<(name, value)>` and renders as
//! [`Json`].
//!
//! The [`Histogram`] is HDR-style log-linear: values land in buckets of
//! relative width ≤ 1/32 (5 mantissa bits per power of two), so memory
//! is fixed (~10 KiB), recording is O(1), two histograms
//! [`merge`](Histogram::merge) by bucket-wise addition, and any quantile is
//! recovered within one bucket width — which is what lets it replace
//! sorted-raw-vec percentile math without changing reported numbers
//! beyond that bound.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;

/// Mantissa bits per power of two: buckets have relative width ≤ 2⁻⁵.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per octave (`1 << SUB_BITS`).
const SUBS: usize = 1 << SUB_BITS;
/// Highest exponent tracked exactly; larger values clamp into the last
/// bucket (their true maximum is still tracked exactly). 2⁴⁴ ns ≈ 4.9 h.
const MAX_EXP: u32 = 43;
/// Total bucket count: `SUBS` unit-width buckets below 32 plus `SUBS`
/// per octave for exponents 5..=MAX_EXP.
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUBS + SUBS;

/// Index of the bucket containing `v` (after clamping to the tracked
/// range).
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let e = (63 - v.leading_zeros()).min(MAX_EXP);
    let sub = ((v >> (e - SUB_BITS)) as usize) & (SUBS - 1);
    (e - SUB_BITS) as usize * SUBS + SUBS + sub
}

/// Lowest value contained in bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i < SUBS {
        return i as u64;
    }
    let octave = i / SUBS - 1;
    let e = SUB_BITS + octave as u32;
    let sub = (i % SUBS) as u64;
    (SUBS as u64 + sub) << (e - SUB_BITS)
}

/// A monotone counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (stored as `f64` bits). Cloning shares the
/// underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log-linear bucket histogram (see the module docs). Recording and
/// quantile queries take `&self`; all state is relaxed atomics.
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Exact minimum recorded (`u64::MAX` when empty).
    min: AtomicU64,
    /// Exact maximum recorded.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (~10 KiB, fixed forever).
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record a latency given in (fractional) milliseconds, stored as
    /// nanoseconds.
    pub fn record_ms(&self, ms: f64) {
        self.record((ms.max(0.0) * 1e6).round() as u64);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact minimum recorded (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() as f64 / n as f64
    }

    /// Fold `other`'s buckets into `self` (bucket-wise addition; min/max
    /// merge exactly).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`: the value at rank
    /// `ceil(q·n)` (clamped to `[1, n]`), reported as the top of its
    /// bucket — within one bucket width of the exact sorted-vec answer —
    /// and clamped to the exact recorded maximum. 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_top(i).min(self.max());
            }
        }
        self.max()
    }

    /// [`value_at_quantile`](Self::value_at_quantile) of a histogram
    /// recorded via [`record_ms`](Self::record_ms) /
    /// [`record_duration`](Self::record_duration), converted back to
    /// milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.value_at_quantile(q) as f64 / 1e6
    }

    /// Snapshot of this histogram's summary statistics as JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::int(self.count())),
            ("mean".into(), Json::Num(self.mean())),
            ("p50".into(), Json::int(self.value_at_quantile(0.5))),
            ("p90".into(), Json::int(self.value_at_quantile(0.9))),
            ("p99".into(), Json::int(self.value_at_quantile(0.99))),
            ("min".into(), Json::int(self.min())),
            ("max".into(), Json::int(self.max())),
        ])
    }
}

/// Highest value contained in bucket `i`.
fn bucket_top(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(i + 1) - 1
    }
}

/// Width of the bucket containing `v` — the agreement bound between a
/// histogram quantile and the exact sorted-vec one (saturating for the
/// open-ended overflow bucket).
pub fn bucket_width(v: u64) -> u64 {
    let i = bucket_index(v);
    bucket_top(i)
        .saturating_sub(bucket_low(i))
        .saturating_add(1)
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Arc<Histogram>),
}

/// A named bag of metrics (see the module docs).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn entry(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.entry(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.entry(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.entry(name, || Metric::Hist(Arc::new(Histogram::new()))) {
            Metric::Hist(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Flat name-sorted snapshot. Counters and gauges yield one entry;
    /// histograms expand to `name.count` / `.mean` / `.p50` / `.p90` /
    /// `.p99` / `.max` in the histogram's raw unit.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = Vec::with_capacity(inner.len());
        for (name, m) in inner.iter() {
            match m {
                Metric::Counter(c) => out.push((name.clone(), c.get() as f64)),
                Metric::Gauge(g) => out.push((name.clone(), g.get())),
                Metric::Hist(h) => {
                    out.push((format!("{name}.count"), h.count() as f64));
                    out.push((format!("{name}.mean"), h.mean()));
                    out.push((format!("{name}.p50"), h.value_at_quantile(0.5) as f64));
                    out.push((format!("{name}.p90"), h.value_at_quantile(0.9) as f64));
                    out.push((format!("{name}.p99"), h.value_at_quantile(0.99) as f64));
                    out.push((format!("{name}.max"), h.max() as f64));
                }
            }
        }
        out
    }

    /// The whole registry as one JSON object (histograms as nested
    /// summary objects).
    pub fn to_json(&self) -> Json {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        Json::Obj(
            inner
                .iter()
                .map(|(name, m)| {
                    let v = match m {
                        Metric::Counter(c) => Json::int(c.get()),
                        Metric::Gauge(g) => Json::Num(g.get()),
                        Metric::Hist(h) => h.to_json(),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_low_agree() {
        // Every bucket's low value maps back to that bucket, and indices
        // are monotone in the value.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_low(i)), i, "bucket {i}");
        }
        let mut last = 0;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1_000, 1_000_000, 1 << 40] {
            let i = bucket_index(v);
            assert!(i >= last, "index monotone at {v}");
            last = i;
            assert!(bucket_low(i) <= v, "low({i}) <= {v}");
            assert!(v - bucket_low(i) < bucket_width(v), "within width at {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), 31);
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn quantiles_match_sorted_within_one_bucket_width() {
        // The exact claim the serve-stats dedupe relies on.
        let mut samples: Vec<u64> = (0..500u64).map(|i| (i * i * 7919) % 2_000_000).collect();
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = h.value_at_quantile(q);
            assert!(
                approx.abs_diff(exact) <= bucket_width(exact),
                "q={q}: approx {approx} vs exact {exact} (width {})",
                bucket_width(exact)
            );
        }
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v * 3);
            b.record(v * 5 + 1_000_000);
        }
        let merged = Histogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), 200);
        assert_eq!(merged.sum(), a.sum() + b.sum());
        assert_eq!(merged.min(), a.min().min(b.min()));
        assert_eq!(merged.max(), a.max().max(b.max()));
        assert_eq!(merged.value_at_quantile(1.0), b.max());
    }

    #[test]
    fn huge_values_clamp_but_max_is_exact() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1 << 60);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX, "clamped to exact max");
    }

    #[test]
    fn registry_handles_share_cells_and_snapshot_flattens() {
        let r = Registry::new();
        let c = r.counter("requests");
        c.inc();
        r.counter("requests").add(2);
        assert_eq!(c.get(), 3);
        r.gauge("depth").set(1.5);
        r.histogram("latency_ns").record(100);
        let snap = r.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("requests"), Some(3.0));
        assert_eq!(get("depth"), Some(1.5));
        assert_eq!(get("latency_ns.count"), Some(1.0));
        let json = r.to_json().render();
        assert!(json.contains("\"requests\":3"));
        assert!(json.contains("\"latency_ns\":{\"count\":1"));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
