//! The per-layer profile: a single-threaded replay of a trial's request
//! and commit stream on a twin store and answer cache, with a span around
//! every call into a layer's public functions.
//!
//! The replay calls the layers in the order
//! `QueryServer::execute_attempts` and `apply_update` do — `begin_read` →
//! `parse_query_symbols` → `canonical_query` → `AnswerCache::lookup` →
//! `best_first_with` → `to_text_syms` → `AnswerCache::fill` → snapshot
//! drop; `begin_write` → `assert_text`/`retract` → `commit` →
//! `AnswerCache::on_commit` — but on one thread with nothing else
//! running, so a layer's time is its own and the counts repeat exactly
//! for a seed. What the replay leaves out (queues, the breaker, the
//! session map, the panic shield) is what `serve.overhead_us_per_req`
//! measures by subtraction.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{
    canonical_query, parse_program, parse_query_symbols, BindingLookup, CancelToken, Clause,
    ClauseId, ClauseSource, SearchStats, SourceStats, StoreError, Term,
};
use blog_serve::{AnswerCache, CacheKey, CacheStats, UpdateOp};
use blog_spd::{MvccClauseStore, PagedStoreStats};

use crate::drive::store_delta;
use crate::gen::{CommitPlan, CommitSpec, Workload, WAVE};
use crate::spans::{Spans, NO_REQUEST};

/// A [`ClauseSource`] that times every call into the wrapped one. The
/// engine calls these millions of times, so the calls are summed here and
/// recorded as one aggregate span per request.
pub struct TimedSource<'a, S: ClauseSource> {
    inner: &'a S,
    fetch_ns: AtomicU64,
    fetch_calls: AtomicU64,
    candidates_ns: AtomicU64,
    candidates_calls: AtomicU64,
    candidates_returned: AtomicU64,
}

impl<'a, S: ClauseSource> TimedSource<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        TimedSource {
            inner,
            fetch_ns: AtomicU64::new(0),
            fetch_calls: AtomicU64::new(0),
            candidates_ns: AtomicU64::new(0),
            candidates_calls: AtomicU64::new(0),
            candidates_returned: AtomicU64::new(0),
        }
    }
}

impl<S: ClauseSource> ClauseSource for TimedSource<'_, S> {
    fn try_fetch_clause(&self, id: ClauseId) -> Result<&Clause, StoreError> {
        let t = Instant::now();
        let out = self.inner.try_fetch_clause(id);
        // Relaxed: statistics read after the engine returns.
        self.fetch_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.fetch_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn try_candidate_clauses<'b>(
        &'b self,
        goal: &Term,
        bindings: &dyn BindingLookup,
    ) -> Result<Cow<'b, [ClauseId]>, StoreError> {
        let t = Instant::now();
        let out = self.inner.try_candidate_clauses(goal, bindings);
        self.candidates_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.candidates_calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(ids) = &out {
            self.candidates_returned
                .fetch_add(ids.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn clause_count(&self) -> usize {
        self.inner.clause_count()
    }

    fn backend_name(&self) -> String {
        self.inner.backend_name()
    }

    fn source_stats(&self) -> Option<SourceStats> {
        self.inner.source_stats()
    }
}

/// What the replay counted. Everything here repeats exactly for a seed.
#[derive(Default, Debug, Clone)]
pub struct ReplayCounts {
    pub requests: u64,
    pub engine_runs: u64,
    pub cache_hits: u64,
    pub search: SearchStats,
    /// `max_frontier` of every engine run.
    pub max_frontiers: Vec<f64>,
    pub fetch_calls: u64,
    pub candidates_calls: u64,
    pub candidates_returned: u64,
    pub solutions_rendered: u64,
    pub commits: u64,
    pub asserts: u64,
    pub retracts: u64,
    pub store: PagedStoreStats,
    pub cache: CacheStats,
}

/// Summed span time by name, ns, plus what only the replay knows.
#[derive(Default, Debug)]
pub struct ReplayTimes {
    /// Total duration of the spans of each name.
    pub by_name: HashMap<&'static str, u64>,
    /// Engine self time: `core.best_first` spans minus the store calls
    /// made from inside them.
    pub engine_self_ns: u64,
    /// Total request-span time per request, µs, in stream order.
    pub request_us: Vec<f64>,
    /// Whether the replay answered each request from the answer cache.
    pub from_cache: Vec<bool>,
}

pub struct Replay {
    pub counts: ReplayCounts,
    pub times: ReplayTimes,
    pub spans: Spans,
}

/// Replay `w`'s `sat` stream: every request, and the commits where the
/// stream's plan puts them (after each wave, or one per `per` requests).
/// `timer_ns` is the measured cost of one `Instant::now()` pair, taken off
/// the engine's self time once per timed store call.
pub fn replay(w: &Workload, timer_ns: f64) -> Replay {
    let program = parse_program(&w.program_text).expect("generated base parses");
    let store_config = w.store_config(program.db.len()).with_index(w.serve.index);
    let store = MvccClauseStore::new(&program.db, store_config, w.serve.commit);
    let cache = AnswerCache::new(w.serve.cache.clone());
    let weights = WeightStore::new(WeightParams::default());

    // The same warm-up pass a trial's set-up runs, so the profile is of
    // the steady state the end-to-end numbers are measured in. Its spans
    // and counts are thrown away.
    let mut scratch = (
        Spans::new(),
        ReplayCounts::default(),
        ReplayTimes::default(),
    );
    for q in &w.queries {
        replay_request(
            w,
            &store,
            &cache,
            &weights,
            &q.text,
            NO_REQUEST,
            &mut scratch.0,
            &mut scratch.1,
            &mut scratch.2,
        );
    }
    drop(scratch);
    let store_before = store.stats();
    let cache_before = cache.stats();

    let mut spans = Spans::new();
    let mut counts = ReplayCounts::default();
    let mut times = ReplayTimes::default();
    // `(after every this many requests, this many commits)`.
    let (every, burst) = match w.plan {
        CommitPlan::BetweenWaves => (WAVE, w.commits.len() / w.sat.len().div_ceil(WAVE)),
        CommitPlan::Concurrent { per } => (per, 1),
    };
    let mut commits = w.commits.iter();
    for (i, req) in w.sat.iter().enumerate() {
        let text = &w.queries[req.query as usize].text;
        let hit = replay_request(
            w,
            &store,
            &cache,
            &weights,
            text,
            i as u32,
            &mut spans,
            &mut counts,
            &mut times,
        );
        times.from_cache.push(hit);
        if (i + 1).is_multiple_of(every) {
            for c in commits.by_ref().take(burst) {
                replay_commit(&store, &cache, c, &mut spans, &mut counts);
            }
        }
    }
    counts.store = store_delta(store_before, store.stats());
    counts.cache = CacheStats::delta(cache_before, cache.stats());
    // Engine self time: each `core.best_first` span minus the union of
    // its children (the store calls made from inside it), minus what
    // timing those calls cost.
    let timers = ((counts.fetch_calls + counts.candidates_calls) as f64 * timer_ns) as u64;
    let engine_self: u64 = spans
        .all()
        .iter()
        .zip(spans.self_times())
        .filter(|(s, _)| s.name == "core.best_first")
        .map(|(_, own)| own)
        .sum();
    times.engine_self_ns = engine_self.saturating_sub(timers);
    for s in spans.all() {
        *times.by_name.entry(s.name).or_insert(0) += s.duration_ns();
    }
    Replay {
        counts,
        times,
        spans,
    }
}

/// One request, as `execute_attempts` runs it. Returns whether the answer
/// cache answered it.
#[allow(clippy::too_many_arguments)]
fn replay_request(
    w: &Workload,
    store: &MvccClauseStore,
    cache: &AnswerCache,
    weights: &WeightStore,
    text: &str,
    request: u32,
    spans: &mut Spans,
    counts: &mut ReplayCounts,
    times: &mut ReplayTimes,
) -> bool {
    counts.requests += 1;
    let root = spans.open(0, request, "request");
    let mut snap = spans.time(root, request, "spd.begin_read", || {
        store
            .begin_read()
            .for_pool(0)
            .with_stall(w.serve.stall_ns_per_tick)
    });
    let epoch = snap.epoch();
    let query = spans
        .time(root, request, "logic.parse_query", || {
            parse_query_symbols(snap.symbols(), text)
        })
        .expect("generated queries parse");
    let solve = w.serve.solve.clone();
    let key = cache.enabled().then(|| {
        spans.time(root, request, "logic.canonical_query", || CacheKey {
            canon: canonical_query(snap.symbols(), &query),
            max_nodes: solve.max_nodes,
            max_solutions: solve.max_solutions,
            max_depth: solve.max_depth,
        })
    });
    let hit = key.as_ref().and_then(|k| {
        spans.time(root, request, "serve.cache_lookup", || {
            cache.lookup(k, epoch)
        })
    });
    let from_cache = hit.is_some();
    if let Some(solutions) = hit {
        counts.cache_hits += 1;
        let copy = spans.time(root, request, "serve.cache_hit_copy", || {
            (*solutions).clone()
        });
        std::hint::black_box(copy);
    } else {
        if key.is_some() {
            snap = snap.recording_deps();
        }
        let source = TimedSource::new(&snap);
        let cfg = BestFirstConfig {
            solve,
            learn: false,
            cancel: Some(CancelToken::new()),
            ..BestFirstConfig::default()
        };
        let engine = spans.open(root, request, "core.best_first");
        let mut overlay = HashMap::new();
        let mut view = WeightView::new(&mut overlay, weights);
        let result = best_first_with(&source, &query, &mut view, &cfg);
        spans.close(engine);
        assert!(
            result.store_error.is_none(),
            "the benchmark injects no faults"
        );
        let fetch_ns = source.fetch_ns.load(Ordering::Relaxed);
        let fetch_calls = source.fetch_calls.load(Ordering::Relaxed);
        let cand_ns = source.candidates_ns.load(Ordering::Relaxed);
        let cand_calls = source.candidates_calls.load(Ordering::Relaxed);
        spans.aggregate(
            engine,
            request,
            "spd.try_fetch_clause",
            0,
            fetch_ns,
            fetch_calls as u32,
        );
        spans.aggregate(
            engine,
            request,
            "spd.try_candidate_clauses",
            fetch_ns,
            cand_ns,
            cand_calls as u32,
        );
        counts.engine_runs += 1;
        counts.search.merge(&result.stats);
        counts.max_frontiers.push(result.stats.max_frontier as f64);
        counts.fetch_calls += fetch_calls;
        counts.candidates_calls += cand_calls;
        counts.candidates_returned += source.candidates_returned.load(Ordering::Relaxed);
        counts.solutions_rendered += result.solutions.len() as u64;
        let mut texts = spans.time(root, request, "logic.render", || {
            result
                .solutions
                .iter()
                .map(|s| s.solution.to_text_syms(snap.symbols()))
                .collect::<Vec<_>>()
        });
        texts.sort();
        if let Some(k) = key {
            spans.time(root, request, "serve.cache_fill", || {
                cache.fill(k, epoch, snap.recorded_deps(), Arc::new(texts.clone()))
            });
        }
        std::hint::black_box(texts);
    }
    spans.time(root, request, "spd.snapshot_drop", || drop(snap));
    times.request_us.push(spans.close(root) as f64 / 1e3);
    from_cache
}

/// One transaction, as `apply_update` runs it.
fn replay_commit(
    store: &MvccClauseStore,
    cache: &AnswerCache,
    c: &CommitSpec,
    spans: &mut Spans,
    counts: &mut ReplayCounts,
) {
    let root = spans.open(0, NO_REQUEST, "commit");
    let mut txn = spans.time(root, NO_REQUEST, "spd.begin_write", || store.begin_write());
    for op in &c.ops {
        match op {
            UpdateOp::Assert { text } => {
                counts.asserts += 1;
                spans
                    .time(root, NO_REQUEST, "spd.assert_text", || {
                        txn.assert_text(text)
                    })
                    .expect("generated asserts apply");
            }
            UpdateOp::Retract { id } => {
                counts.retracts += 1;
                spans
                    .time(root, NO_REQUEST, "spd.retract", || txn.retract(*id))
                    .expect("generated retracts apply");
            }
        }
    }
    let base = txn.base_epoch();
    let touched = txn.touched_preds();
    let epoch = spans.time(root, NO_REQUEST, "spd.commit", || txn.commit());
    spans.time(root, NO_REQUEST, "serve.cache_on_commit", || {
        cache.on_commit(base, epoch, &touched)
    });
    spans.close(root);
    counts.commits += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Kind;

    #[test]
    fn replay_counts_repeat_exactly_for_a_seed() {
        for kind in [Kind::ServeMix, Kind::PagedChurn] {
            let w = Workload::generate(kind, 4, true);
            let a = replay(&w, 0.0);
            let b = replay(&w, 0.0);
            assert_eq!(
                format!("{:?}", a.counts),
                format!("{:?}", b.counts),
                "{}",
                kind.name()
            );
            assert_eq!(a.counts.requests as usize, w.sat.len());
            assert_eq!(a.counts.commits as usize, w.commits.len());
            assert_eq!(a.times.from_cache, b.times.from_cache);
        }
    }

    #[test]
    fn spans_nest_under_their_request_and_cover_it() {
        let w = Workload::generate(Kind::SearchSeq, 2, true);
        let r = replay(&w, 0.0);
        let all = r.spans.all();
        let selfs = r.spans.self_times();
        for (s, own) in all.iter().zip(&selfs) {
            if s.parent != 0 {
                let p = &all[s.parent as usize - 1];
                assert_eq!(p.request, s.request, "{} under {}", s.name, p.name);
                assert!(
                    p.start_ns <= s.start_ns,
                    "{} starts inside {}",
                    s.name,
                    p.name
                );
            }
            assert!(*own <= s.duration_ns());
        }
        // Search requests are engine runs: every one has a best_first
        // span with both store aggregates under it.
        assert_eq!(r.counts.engine_runs, r.counts.requests);
        let engines = all.iter().filter(|s| s.name == "core.best_first").count();
        let fetches = all
            .iter()
            .filter(|s| s.name == "spd.try_fetch_clause")
            .count();
        assert_eq!(engines as u64, r.counts.requests);
        assert_eq!(engines, fetches);
        assert!(r.counts.store.accesses > 0 && r.counts.store.misses == 0);
    }

    #[test]
    fn serve_mix_replay_is_mostly_cache_hits() {
        let w = Workload::generate(Kind::ServeMix, 1, true);
        let r = replay(&w, 0.0);
        // Every distinct query was warmed, so only the cold tenant's
        // invalidated answers miss.
        assert!(
            r.counts.cache_hits * 10 > r.counts.requests * 9,
            "{:?}",
            r.counts.cache
        );
        assert_eq!(
            r.counts.cache_hits + r.counts.engine_runs,
            r.counts.requests
        );
    }
}
