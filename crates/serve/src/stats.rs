//! The serving telemetry surface: per-pool throughput and latency,
//! queue behavior, and the store picture split warm-vs-cold.

use blog_spd::{PagedStoreStats, PoolTouchStats};
use serde::Serialize;

use crate::cache::CacheStats;
use crate::request::QueryResponse;

/// One pool's slice of a serve run.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct PoolReport {
    /// Pool index.
    pub pool: usize,
    /// Requests this pool executed.
    pub served: usize,
    /// Deepest its admission queue ever got.
    pub queue_peak: usize,
    /// Nodes expanded across its requests.
    pub nodes_expanded: u64,
    /// Median service latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile service latency, milliseconds.
    pub p99_ms: f64,
    /// This pool's touches of the shared store.
    pub touches: PoolTouchStats,
}

/// Store traffic attributed to one warmth class of requests.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct WarmthSplit {
    /// Requests in the class.
    pub requests: usize,
    /// Their clause touches through the shared store.
    pub accesses: u64,
    /// Touches that hit a resident track.
    pub hits: u64,
}

impl WarmthSplit {
    /// Hit rate in `[0, 1]` (zero when nothing was accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses as f64
    }

    pub(crate) fn add(&mut self, r: &QueryResponse) {
        self.requests += 1;
        self.accesses += r.store_accesses;
        self.hits += r.store_hits;
    }
}

/// Aggregate picture of one [`serve`](crate::QueryServer::serve) run.
#[derive(Clone, Debug, Serialize)]
pub struct ServeStats {
    /// Wall-clock of the whole batch, seconds.
    pub wall_s: f64,
    /// Requests admitted.
    pub requests: usize,
    /// Requests that ran to their natural end.
    pub completed: usize,
    /// Requests cancelled by deadline.
    pub cancelled: usize,
    /// Requests rejected at parse.
    pub rejected: usize,
    /// Submissions refused by the memory governor (they never reached a
    /// pool; excluded from the latency percentiles below).
    pub overloaded: usize,
    /// Requests that ran but could not produce a trustworthy answer:
    /// retry budget exhausted on transient storage faults, permanently
    /// damaged storage, an engine panic, or an open circuit breaker with
    /// no cached answer ([`Outcome::Failed`](crate::Outcome::Failed)).
    pub failed: usize,
    /// Engine attempts re-run after a transient storage fault or an
    /// engine panic (each retry is one extra attempt beyond the first).
    pub retries: u64,
    /// Closed→open (and half-open→open) circuit-breaker transitions.
    pub breaker_opens: u64,
    /// Admissions diverted off their routed pool because its breaker was
    /// open and still cooling.
    pub breaker_reroutes: u64,
    /// Requests answered from the answer cache while their pool's
    /// breaker was open — the degraded cache-only serving path.
    pub degraded_cache_hits: u64,
    /// Requests per second of wall-clock.
    pub throughput_rps: f64,
    /// Median service latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile service latency, milliseconds.
    pub p99_ms: f64,
    /// Median admission-queue wait, milliseconds.
    pub wait_p50_ms: f64,
    /// 99th-percentile admission-queue wait, milliseconds.
    pub wait_p99_ms: f64,
    /// Admissions diverted off their routed pool by the overflow
    /// threshold (the work-stealing admission path).
    pub overflow_admissions: u64,
    /// Write transactions committed during the run (the update lane's
    /// epoch bumps; 0 for a read-only batch).
    pub commits: u64,
    /// The store's committed epoch when the batch finished.
    pub final_epoch: u64,
    /// Per-pool slices.
    pub per_pool: Vec<PoolReport>,
    /// The shared store's counters over the run (deltas, lock meters
    /// included).
    pub store: PagedStoreStats,
    /// Answer-cache counters over the run (deltas; byte gauges are the
    /// end-of-run values).
    pub cache: CacheStats,
    /// Store traffic of *warm* requests (session had already completed
    /// a request on the serving pool).
    pub warm: WarmthSplit,
    /// Store traffic of *cold* requests (first contact of this session
    /// with the serving pool).
    pub cold: WarmthSplit,
}

impl ServeStats {
    /// The whole aggregate picture as one JSON object (store and cache
    /// blocks nested; per-pool slices as an array).
    pub fn to_json(&self) -> blog_obs::Json {
        use blog_obs::Json;
        let split = |s: &WarmthSplit| {
            Json::Obj(vec![
                ("requests".into(), Json::int(s.requests as u64)),
                ("accesses".into(), Json::int(s.accesses)),
                ("hits".into(), Json::int(s.hits)),
                ("hit_rate".into(), Json::Num(s.hit_rate())),
            ])
        };
        Json::Obj(vec![
            ("wall_s".into(), Json::Num(self.wall_s)),
            ("requests".into(), Json::int(self.requests as u64)),
            ("completed".into(), Json::int(self.completed as u64)),
            ("cancelled".into(), Json::int(self.cancelled as u64)),
            ("rejected".into(), Json::int(self.rejected as u64)),
            ("overloaded".into(), Json::int(self.overloaded as u64)),
            ("failed".into(), Json::int(self.failed as u64)),
            ("retries".into(), Json::int(self.retries)),
            ("breaker_opens".into(), Json::int(self.breaker_opens)),
            ("breaker_reroutes".into(), Json::int(self.breaker_reroutes)),
            (
                "degraded_cache_hits".into(),
                Json::int(self.degraded_cache_hits),
            ),
            ("throughput_rps".into(), Json::Num(self.throughput_rps)),
            ("p50_ms".into(), Json::Num(self.p50_ms)),
            ("p99_ms".into(), Json::Num(self.p99_ms)),
            ("wait_p50_ms".into(), Json::Num(self.wait_p50_ms)),
            ("wait_p99_ms".into(), Json::Num(self.wait_p99_ms)),
            (
                "overflow_admissions".into(),
                Json::int(self.overflow_admissions),
            ),
            ("commits".into(), Json::int(self.commits)),
            ("final_epoch".into(), Json::int(self.final_epoch)),
            (
                "per_pool".into(),
                Json::Arr(
                    self.per_pool
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("pool".into(), Json::int(p.pool as u64)),
                                ("served".into(), Json::int(p.served as u64)),
                                ("queue_peak".into(), Json::int(p.queue_peak as u64)),
                                ("nodes_expanded".into(), Json::int(p.nodes_expanded)),
                                ("p50_ms".into(), Json::Num(p.p50_ms)),
                                ("p99_ms".into(), Json::Num(p.p99_ms)),
                                ("accesses".into(), Json::int(p.touches.accesses)),
                                ("hits".into(), Json::int(p.touches.hits)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("store".into(), self.store.to_json()),
            ("cache".into(), self.cache.to_json()),
            ("warm".into(), split(&self.warm)),
            ("cold".into(), split(&self.cold)),
        ])
    }
}

/// Everything a serve run returns.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// One response per request, in batch order.
    pub responses: Vec<QueryResponse>,
    /// One response per update, in batch order (empty for
    /// [`serve`](crate::QueryServer::serve)).
    pub updates: Vec<crate::request::UpdateResponse>,
    /// The aggregate picture.
    pub stats: ServeStats,
}

/// Fold an unsorted millisecond sample into one log-linear
/// [`blog_obs::Histogram`] — the shared percentile path of every serve
/// report (pool latency, batch service, queue wait). Quantiles read
/// back within one bucket width (≤ 1/32 relative) of the exact
/// nearest-rank answer; see `histogram_agrees_with_sorted_percentiles`.
pub(crate) fn hist_ms(samples: &[f64]) -> blog_obs::Histogram {
    let h = blog_obs::Histogram::new();
    for &ms in samples {
        h.record_ms(ms);
    }
    h
}

/// `q`-quantile (0..=1) of an **unsorted** sample, by sorting a copy;
/// 0.0 for an empty sample. Nearest-rank, so p99 of 10 samples is the
/// largest. Retained as the exact reference the histogram path is
/// tested against (reports themselves go through [`hist_ms`]).
#[cfg(test)]
pub(crate) fn percentile_ms(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|n| n as f64).collect();
        assert_eq!(percentile_ms(&v, 0.5), 50.0);
        assert_eq!(percentile_ms(&v, 0.99), 99.0);
        assert_eq!(percentile_ms(&v, 1.0), 100.0);
        assert_eq!(percentile_ms(&[7.0], 0.99), 7.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        // Unsorted input is handled.
        assert_eq!(percentile_ms(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn histogram_agrees_with_sorted_percentiles() {
        // Latencies spanning several decades (0.01 ms .. ~10 s), in
        // scrambled order — the shape a serve run actually produces.
        let samples: Vec<f64> = (1..=500u64)
            .map(|n| (blog_obs::splitmix64(n) % 1_000_000_000) as f64 / 1e5)
            .collect();
        let h = hist_ms(&samples);
        for q in [0.5, 0.9, 0.99, 1.0] {
            let exact = percentile_ms(&samples, q);
            let approx = h.quantile_ms(q);
            let exact_ns = (exact * 1e6).round() as u64;
            let width_ns = blog_obs::registry::bucket_width(exact_ns);
            let diff_ns = ((approx - exact) * 1e6).abs().round() as u64;
            assert!(
                diff_ns <= width_ns,
                "q={q}: exact {exact} ms vs histogram {approx} ms \
                 (diff {diff_ns} ns > bucket width {width_ns} ns)"
            );
        }
        // Empty sample behaves like the sorted path.
        assert_eq!(hist_ms(&[]).quantile_ms(0.5), 0.0);
    }

    #[test]
    fn warmth_split_hit_rate() {
        let s = WarmthSplit {
            requests: 2,
            accesses: 10,
            hits: 4,
        };
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(WarmthSplit::default().hit_rate(), 0.0);
    }
}
