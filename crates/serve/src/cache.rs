//! The answer cache (tabling-lite) and the store-wide memory governor.
//!
//! **Cache.** An [`AnswerCache`] memoizes whole solution sets: the key is
//! the query's canonical text (see [`blog_logic::canonical_query`]) plus
//! the effective engine limits, the value a sorted `Vec<String>` of
//! rendered solutions tagged with an **epoch-validity window**
//! `[valid_from, valid_to]` and the query's **dependency footprint** —
//! every `(functor, arity)` the engine resolved candidates for (see
//! [`blog_spd::Snapshot::recording_deps`]). A lookup hits only when the
//! request's pinned epoch falls inside the window, so a hit is provably
//! the sequential solution set of that epoch.
//!
//! **Invalidation.** On every commit the server calls
//! [`on_commit`](AnswerCache::on_commit) with the transaction's base
//! epoch, new epoch, and touched predicates (see
//! [`blog_spd::WriteTxn::touched_preds`]). An entry whose window ends at
//! the base epoch is *extended* to the new epoch when its footprint is
//! disjoint from the touched set (the commit cannot have changed any
//! candidate set the query looked at), and dropped otherwise. Entries
//! whose window ends before the base epoch witnessed a commit the cache
//! was not told about (a direct [`blog_spd::MvccClauseStore::begin_write`]
//! bypassing the server) and are dropped conservatively.
//!
//! A commit costs what it invalidates, not what the cache holds, because
//! the mutex it takes is the one every hit takes. An entry valid through
//! the last notified epoch is *current*: its window's end is the
//! `CURRENT` sentinel, so a disjoint commit extends it by doing nothing.
//! A `(functor, arity)` index over the current entries' footprints
//! finds the ones the touched predicates drop; it deletes lazily, and is
//! compacted once more than half its references are stale. An entry
//! filled at another epoch waits on a short pending list that the next
//! commit settles by the rule above. The one full pass left is a commit
//! whose base is not the last notified epoch: a commit slipped past the
//! cache, and every window is checked as above.
//!
//! **Governor.** One byte budget covers cached answers *and* per-request
//! admission reservations: [`try_admit`](AnswerCache::try_admit) evicts
//! least-recently-used entries to make room for incoming work and refuses
//! admission ([`Outcome::Overloaded`](crate::Outcome::Overloaded)) when
//! even an empty cache cannot fit another reservation — the reservation /
//! spill discipline, applied to serving: shed load instead of thrashing
//! the cache.
//!
//! The budget is one atomic word of charged bytes (resident entries plus
//! reservations), and every charge is a compare-and-swap that succeeds
//! only if the total stays within the budget, so the total never exceeds
//! it. An admission that fits and every release touch only that word; the
//! cache mutex is taken by fills, commits, evictions and an admission
//! that has to evict.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::server::lock_unpoisoned;

use blog_logic::Sym;
use serde::Serialize;

/// What the answer cache does with fills and commits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheMode {
    /// No caching: every query runs an engine. The default, and what the
    /// benchmark's `search_*` and `paged_churn` workloads run.
    Off,
    /// Cache complete solution sets; each commit invalidates only the
    /// entries whose dependency footprint intersects the transaction's
    /// touched predicates.
    Precise,
}

/// Answer-cache and memory-governor configuration.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Caching / invalidation behavior.
    pub mode: CacheMode,
    /// Store-wide byte budget shared by cached answers and per-request
    /// admission reservations; `None` = ungoverned (never overloads,
    /// never evicts).
    pub budget_bytes: Option<usize>,
    /// Bytes one admitted request reserves until its response is
    /// produced (its queue slot, parse buffers, and search-state
    /// headroom under the same budget as the cache).
    pub request_reserve_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            mode: CacheMode::Off,
            budget_bytes: None,
            request_reserve_bytes: 16 * 1024,
        }
    }
}

/// The cache key: canonical query text plus every engine limit that
/// shapes the solution set. Alpha-equivalent query texts collapse to one
/// key; the same text under different limits does not.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Canonical query text (see [`blog_logic::canonical_query`]).
    pub canon: String,
    /// Effective node budget of the run.
    pub max_nodes: Option<u64>,
    /// Effective solutions cap of the run.
    pub max_solutions: Option<usize>,
    /// Effective depth limit of the run.
    pub max_depth: Option<u32>,
}

/// Cumulative cache and governor counters (monotone; report deltas with
/// [`CacheStats::delta`]). `entries`, `bytes`, and `reserved_bytes` are
/// point-in-time gauges.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct CacheStats {
    /// Lookups attempted (cache enabled, query parsed).
    pub lookups: u64,
    /// Lookups answered from the cache (engine bypassed).
    pub hits: u64,
    /// Complete results inserted.
    pub fills: u64,
    /// Entries dropped because a commit touched a footprint predicate.
    pub invalidations: u64,
    /// Entries dropped because their window ended before a commit's base
    /// epoch (a commit bypassed the server's notification path).
    pub expired: u64,
    /// Entries evicted least-recently-used to fit the byte budget.
    pub evictions: u64,
    /// Fills skipped because the result could not fit the budget.
    pub skipped_fills: u64,
    /// Admissions refused because even eviction could not free a
    /// reservation ([`Outcome::Overloaded`](crate::Outcome::Overloaded)).
    pub overloaded: u64,
    /// Entries resident now.
    pub entries: usize,
    /// Bytes of cached answers resident now.
    pub bytes: usize,
    /// Bytes reserved by in-flight requests now.
    pub reserved_bytes: usize,
}

impl CacheStats {
    /// Hit rate over attempted lookups, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }

    /// Every counter and gauge (plus the derived hit rate) as one JSON
    /// object.
    pub fn to_json(&self) -> blog_obs::Json {
        use blog_obs::Json;
        Json::Obj(vec![
            ("lookups".into(), Json::int(self.lookups)),
            ("hits".into(), Json::int(self.hits)),
            ("fills".into(), Json::int(self.fills)),
            ("invalidations".into(), Json::int(self.invalidations)),
            ("expired".into(), Json::int(self.expired)),
            ("evictions".into(), Json::int(self.evictions)),
            ("skipped_fills".into(), Json::int(self.skipped_fills)),
            ("overloaded".into(), Json::int(self.overloaded)),
            ("entries".into(), Json::int(self.entries as u64)),
            ("bytes".into(), Json::int(self.bytes as u64)),
            (
                "reserved_bytes".into(),
                Json::int(self.reserved_bytes as u64),
            ),
            ("hit_rate".into(), Json::Num(self.hit_rate())),
        ])
    }

    /// Counter-wise `after - before` (gauges keep their `after` value).
    pub fn delta(before: CacheStats, after: CacheStats) -> CacheStats {
        CacheStats {
            lookups: after.lookups - before.lookups,
            hits: after.hits - before.hits,
            fills: after.fills - before.fills,
            invalidations: after.invalidations - before.invalidations,
            expired: after.expired - before.expired,
            evictions: after.evictions - before.evictions,
            skipped_fills: after.skipped_fills - before.skipped_fills,
            overloaded: after.overloaded - before.overloaded,
            entries: after.entries,
            bytes: after.bytes,
            reserved_bytes: after.reserved_bytes,
        }
    }
}

/// The `valid_to` of a current entry: valid through the last epoch a
/// commit notified.
const CURRENT: u64 = u64::MAX;

/// One cached solution set.
struct Entry {
    /// Sorted rendered solutions, shared with hit responses.
    solutions: Arc<Vec<String>>,
    /// Sorted dependency footprint recorded at fill time.
    deps: Vec<(Sym, u32)>,
    /// Epoch the filling query pinned.
    valid_from: u64,
    /// Last epoch the entry is known valid at, or [`CURRENT`].
    valid_to: u64,
    /// Budget charge for this entry.
    bytes: usize,
    /// LRU clock value of the last hit or fill.
    last_used: u64,
    /// LRU clock value of the fill: tells a reference to this fill from
    /// one to an earlier fill of the same key.
    filled: u64,
}

/// A reference to one fill of one key; stale once the key is dropped or
/// refilled.
type FillRef = (Arc<CacheKey>, u64);

#[derive(Default)]
struct Counters {
    lookups: u64,
    hits: u64,
    fills: u64,
    invalidations: u64,
    expired: u64,
    evictions: u64,
    skipped_fills: u64,
    overloaded: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<Arc<CacheKey>, Entry>,
    /// New epoch of the last notified commit; `None` before the first.
    epoch: Option<u64>,
    /// Footprint predicate → the current entries whose footprint holds
    /// it. Stale references stay until a commit touching the predicate
    /// or a compaction drops them.
    by_pred: HashMap<(Sym, u32), Vec<FillRef>>,
    /// References in `by_pred`, live and stale.
    indexed: usize,
    /// Live references in `by_pred`: the current entries' footprint
    /// sizes summed.
    indexed_live: usize,
    /// Entries filled at an epoch other than `epoch`, settled by the
    /// next commit (may hold stale references).
    pending: Vec<FillRef>,
    /// Bytes charged by resident entries (also counted in
    /// [`AnswerCache::charged`]).
    cache_bytes: usize,
    /// LRU clock.
    tick: u64,
    counters: Counters,
}

/// Whether `r` names the resident fill of its key and that fill is
/// current.
fn is_current(entries: &HashMap<Arc<CacheKey>, Entry>, (key, filled): &FillRef) -> bool {
    entries
        .get(key)
        .is_some_and(|e| e.filled == *filled && e.valid_to == CURRENT)
}

fn meets(deps: &[(Sym, u32)], touched: &[(Sym, u32)]) -> bool {
    touched.iter().any(|t| deps.binary_search(t).is_ok())
}

/// The last epoch an entry whose `valid_to` is `valid_to` is known valid
/// at, when `last` is the last notified epoch.
fn window_end(valid_to: u64, last: Option<u64>) -> u64 {
    if valid_to == CURRENT {
        last.expect("current entries exist once a commit was notified")
    } else {
        valid_to
    }
}

impl Inner {
    /// Make the resident fill `r` current and index its footprint.
    fn make_current(&mut self, (key, filled): FillRef) {
        let e = self.entries.get_mut(&key).expect("resident fill");
        e.valid_to = CURRENT;
        for &dep in &e.deps {
            self.by_pred
                .entry(dep)
                .or_default()
                .push((Arc::clone(&key), filled));
        }
        self.indexed += e.deps.len();
        self.indexed_live += e.deps.len();
    }

    /// Drop `key`'s entry and its charge, returning the charge. Its index
    /// references go stale.
    fn remove(&mut self, key: &CacheKey) -> usize {
        let e = self.entries.remove(key).expect("resident entry");
        self.cache_bytes -= e.bytes;
        if e.valid_to == CURRENT {
            self.indexed_live -= e.deps.len();
            self.compact_index();
        }
        e.bytes
    }

    /// Drop the index's stale references once they outnumber the live
    /// ones, which pays for the pass before the index can double again.
    fn compact_index(&mut self) {
        if self.indexed <= 2 * self.indexed_live {
            return;
        }
        let Inner {
            entries, by_pred, ..
        } = self;
        by_pred.retain(|_, refs| {
            refs.retain(|r| is_current(entries, r));
            !refs.is_empty()
        });
        self.indexed = self.indexed_live;
    }

    /// The commit `base → new_epoch` when `base` is the last notified
    /// epoch: visits the index lists of `touched` and the pending list.
    fn commit_notified(&mut self, base: u64, new_epoch: u64, touched: &[(Sym, u32)]) {
        for t in touched {
            let Some(refs) = self.by_pred.remove(t) else {
                continue;
            };
            self.indexed -= refs.len();
            for r in refs {
                // A footprint listing two touched predicates is found
                // twice; the second reference is stale by then.
                if is_current(&self.entries, &r) {
                    self.remove(&r.0);
                    self.counters.invalidations += 1;
                }
            }
        }
        for r in std::mem::take(&mut self.pending) {
            let Some(e) = self.entries.get(&r.0).filter(|e| e.filled == r.1) else {
                continue;
            };
            if e.valid_to >= new_epoch {
                self.pending.push(r);
            } else if e.valid_to == base {
                if meets(&e.deps, touched) {
                    self.remove(&r.0);
                    self.counters.invalidations += 1;
                } else {
                    self.make_current(r);
                }
            } else {
                self.remove(&r.0);
                self.counters.expired += 1;
            }
        }
    }

    /// Any other commit: every entry is checked, and the index and the
    /// pending list are rebuilt around `new_epoch` as the last notified
    /// epoch.
    fn commit_full_pass(&mut self, base: u64, new_epoch: u64, touched: &[(Sym, u32)]) {
        let last = self.epoch;
        let mut freed = 0usize;
        let mut invalidations = 0u64;
        let mut expired = 0u64;
        self.entries.retain(|_, e| {
            e.valid_to = window_end(e.valid_to, last);
            if e.valid_to >= new_epoch {
                return true;
            }
            if e.valid_to == base {
                if meets(&e.deps, touched) {
                    invalidations += 1;
                    freed += e.bytes;
                    false
                } else {
                    e.valid_to = new_epoch;
                    true
                }
            } else {
                expired += 1;
                freed += e.bytes;
                false
            }
        });
        self.counters.invalidations += invalidations;
        self.counters.expired += expired;
        self.cache_bytes -= freed;
        self.by_pred.clear();
        self.pending.clear();
        self.indexed = 0;
        self.indexed_live = 0;
        let fills: Vec<(FillRef, bool)> = self
            .entries
            .iter()
            .map(|(key, e)| ((Arc::clone(key), e.filled), e.valid_to == new_epoch))
            .collect();
        for (r, current) in fills {
            if current {
                self.make_current(r);
            } else {
                self.pending.push(r);
            }
        }
    }

    /// Evict the least-recently-used entry; returns its charge, or
    /// `None` when the cache is empty.
    fn evict_lru(&mut self) -> Option<usize> {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| Arc::clone(k))?;
        self.counters.evictions += 1;
        Some(self.remove(&victim))
    }
}

/// The answer cache + memory governor. See the module docs for the
/// protocol; [`QueryServer`](crate::QueryServer) owns exactly one.
pub struct AnswerCache {
    config: CacheConfig,
    /// Bytes charged against the budget: resident entries plus
    /// admission reservations. Only [`charge`](Self::charge) raises it,
    /// never past the budget; entry charges move only under `inner`'s
    /// lock, together with `Inner::cache_bytes`.
    charged: AtomicUsize,
    inner: Mutex<Inner>,
}

impl AnswerCache {
    /// An empty cache under `config`.
    pub fn new(config: CacheConfig) -> AnswerCache {
        AnswerCache {
            config,
            charged: AtomicUsize::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether lookups and fills do anything at all.
    pub fn enabled(&self) -> bool {
        self.config.mode != CacheMode::Off
    }

    /// The solutions for `key` if a cached window covers `epoch`.
    pub fn lookup(&self, key: &CacheKey, epoch: u64) -> Option<Arc<Vec<String>>> {
        if !self.enabled() {
            return None;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.counters.lookups += 1;
        inner.tick += 1;
        let tick = inner.tick;
        let last = inner.epoch;
        let hit = match inner.entries.get_mut(key) {
            Some(e) if e.valid_from <= epoch && epoch <= window_end(e.valid_to, last) => {
                e.last_used = tick;
                Some(Arc::clone(&e.solutions))
            }
            _ => None,
        };
        if hit.is_some() {
            inner.counters.hits += 1;
        }
        hit
    }

    /// Insert a **complete** result executed at `epoch` with dependency
    /// footprint `deps`. The caller asserts completeness (not truncated,
    /// not cancelled, not capped): partial results are order-dependent
    /// and must never be memoized. Under a budget, LRU entries are
    /// evicted to fit; a result that cannot fit is skipped (counted, not
    /// an error).
    pub fn fill(
        &self,
        key: CacheKey,
        epoch: u64,
        deps: Vec<(Sym, u32)>,
        solutions: Arc<Vec<String>>,
    ) {
        if !self.enabled() {
            return;
        }
        let bytes = entry_bytes(&key, &deps, &solutions);
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(old) = inner.entries.get(&key) {
            if window_end(old.valid_to, inner.epoch) >= epoch {
                // A fresher result for this key is already resident; a
                // slow query that pinned an older epoch must not clobber
                // it.
                return;
            }
            // Replacing a staler entry frees its charge first.
            let freed = inner.remove(&key);
            self.uncharge(freed);
        }
        if !self.charge_evicting(&mut inner, bytes) {
            inner.counters.skipped_fills += 1;
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let key = Arc::new(key);
        inner.entries.insert(
            Arc::clone(&key),
            Entry {
                solutions,
                deps,
                valid_from: epoch,
                valid_to: epoch,
                bytes,
                last_used: tick,
                filled: tick,
            },
        );
        inner.cache_bytes += bytes;
        inner.counters.fills += 1;
        if inner.epoch == Some(epoch) {
            inner.make_current((key, tick));
        } else {
            inner.pending.push((key, tick));
        }
    }

    /// Tell the cache a transaction with `touched` head predicates
    /// committed, moving the store from `base` to `new_epoch`. Must be
    /// called in commit order (the server serializes commits through one
    /// mutex). Entries valid through `base` either extend to `new_epoch`
    /// (footprint disjoint from `touched`) or drop; entries that already
    /// lag behind `base` drop as expired. When `base` is the last
    /// notified epoch this visits only the entries `touched` can drop
    /// and those filled at other epochs; otherwise every entry.
    pub fn on_commit(&self, base: u64, new_epoch: u64, touched: &[(Sym, u32)]) {
        if !self.enabled() || new_epoch == base {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        let bytes_before = inner.cache_bytes;
        if inner.epoch == Some(base) && new_epoch > base {
            inner.commit_notified(base, new_epoch, touched);
        } else {
            inner.commit_full_pass(base, new_epoch, touched);
        }
        inner.epoch = Some(new_epoch);
        self.uncharge(bytes_before - inner.cache_bytes);
    }

    /// Reserve one request's bytes under the budget, evicting LRU cache
    /// entries to make room. Returns `false` — refuse admission — when
    /// even an empty cache cannot fit the reservation. Ungoverned caches
    /// always admit. Pair every `true` with one [`release`](Self::release).
    ///
    /// A reservation that fits is one compare-and-swap on the charged
    /// bytes; only one that does not takes the cache mutex, to evict.
    pub fn try_admit(&self) -> bool {
        let Some(budget) = self.config.budget_bytes else {
            return true;
        };
        let need = self.config.request_reserve_bytes;
        if self.charge(budget, need) {
            return true;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        if self.charge_evicting(&mut inner, need) {
            true
        } else {
            inner.counters.overloaded += 1;
            false
        }
    }

    /// Release one admitted request's reservation (no lock).
    pub fn release(&self) {
        if self.config.budget_bytes.is_some() {
            self.uncharge(self.config.request_reserve_bytes);
        }
    }

    /// Add `need` to the charged bytes if the total stays within
    /// `budget`; returns whether it did.
    fn charge(&self, budget: usize, need: usize) -> bool {
        self.charged
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |charged| {
                charged.checked_add(need).filter(|&total| total <= budget)
            })
            .is_ok()
    }

    /// [`charge`](Self::charge) `need` against the budget (unbounded when
    /// ungoverned), evicting least-recently-used entries until it fits.
    /// Returns `false`, having emptied the cache, when it cannot.
    fn charge_evicting(&self, inner: &mut Inner, need: usize) -> bool {
        let budget = self.config.budget_bytes.unwrap_or(usize::MAX);
        while !self.charge(budget, need) {
            match inner.evict_lru() {
                Some(freed) => self.uncharge(freed),
                None => return false,
            }
        }
        true
    }

    fn uncharge(&self, bytes: usize) {
        self.charged.fetch_sub(bytes, Ordering::AcqRel);
    }

    /// Snapshot of the counters and gauges.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_unpoisoned(&self.inner);
        CacheStats {
            lookups: inner.counters.lookups,
            hits: inner.counters.hits,
            fills: inner.counters.fills,
            invalidations: inner.counters.invalidations,
            expired: inner.counters.expired,
            evictions: inner.counters.evictions,
            skipped_fills: inner.counters.skipped_fills,
            overloaded: inner.counters.overloaded,
            entries: inner.entries.len(),
            bytes: inner.cache_bytes,
            // Entry charges move only under the lock held here, so what
            // the word holds beyond them is reservations.
            reserved_bytes: self.charged.load(Ordering::Acquire) - inner.cache_bytes,
        }
    }
}

/// Budget charge of one entry: solution text, key text, footprint, and a
/// fixed struct overhead — an estimate, applied consistently so the
/// budget is a real ceiling on what the cache holds.
fn entry_bytes(key: &CacheKey, deps: &[(Sym, u32)], solutions: &[String]) -> usize {
    const ENTRY_OVERHEAD: usize = 128;
    const STRING_OVERHEAD: usize = std::mem::size_of::<String>();
    ENTRY_OVERHEAD
        + key.canon.len()
        + std::mem::size_of_val(deps)
        + solutions
            .iter()
            .map(|s| s.len() + STRING_OVERHEAD)
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(canon: &str) -> CacheKey {
        CacheKey {
            canon: canon.to_string(),
            max_nodes: None,
            max_solutions: None,
            max_depth: None,
        }
    }

    fn sols(texts: &[&str]) -> Arc<Vec<String>> {
        Arc::new(texts.iter().map(|s| s.to_string()).collect())
    }

    fn precise(budget: Option<usize>) -> AnswerCache {
        AnswerCache::new(CacheConfig {
            mode: CacheMode::Precise,
            budget_bytes: budget,
            request_reserve_bytes: 256,
        })
    }

    const P: (Sym, u32) = (Sym(1), 2);
    const Q: (Sym, u32) = (Sym(2), 2);

    #[test]
    fn off_mode_never_caches() {
        let cache = AnswerCache::new(CacheConfig::default());
        assert!(!cache.enabled());
        cache.fill(key("p(_0)"), 0, vec![P], sols(&["_0 = a"]));
        assert!(cache.lookup(&key("p(_0)"), 0).is_none());
        assert_eq!(cache.stats().fills, 0);
        assert!(cache.try_admit(), "ungoverned: always admits");
    }

    #[test]
    fn hit_only_inside_the_validity_window() {
        let cache = precise(None);
        cache.fill(key("p(_0)"), 3, vec![P], sols(&["_0 = a"]));
        assert!(cache.lookup(&key("p(_0)"), 2).is_none(), "before window");
        assert_eq!(*cache.lookup(&key("p(_0)"), 3).unwrap(), *sols(&["_0 = a"]));
        assert!(cache.lookup(&key("p(_0)"), 4).is_none(), "after window");
        assert!(cache.lookup(&key("q(_0)"), 3).is_none(), "other key");
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.fills), (4, 1, 1));
    }

    #[test]
    fn disjoint_commit_extends_touched_commit_invalidates() {
        let cache = precise(None);
        cache.fill(key("p(_0)"), 0, vec![P], sols(&["_0 = a"]));
        cache.fill(key("q(_0)"), 0, vec![Q], sols(&["_0 = b"]));
        // Commit touching only q/2: p survives and extends, q drops.
        cache.on_commit(0, 1, &[Q]);
        assert!(cache.lookup(&key("p(_0)"), 1).is_some(), "extended to 1");
        assert!(cache.lookup(&key("q(_0)"), 1).is_none());
        assert!(cache.lookup(&key("q(_0)"), 0).is_none(), "dropped entirely");
        let s = cache.stats();
        assert_eq!((s.invalidations, s.entries), (1, 1));
    }

    #[test]
    fn lagging_entries_expire_on_the_next_notified_commit() {
        let cache = precise(None);
        cache.fill(key("p(_0)"), 0, vec![P], sols(&["_0 = a"]));
        // A commit the cache never heard about moved the store 0 -> 1;
        // the next notified commit has base 1: the [0,0] entry lags.
        cache.on_commit(1, 2, &[Q]);
        assert!(cache.lookup(&key("p(_0)"), 2).is_none());
        let s = cache.stats();
        assert_eq!((s.expired, s.invalidations, s.entries), (1, 0, 0));
    }

    /// Invalidation precision under churn: a writer that commits only to
    /// a cold tenant's predicate must not cost the hot tenants their
    /// entries: `Precise` extends them across every commit.
    #[test]
    fn precise_keeps_hot_entries_through_cold_tenant_churn() {
        const COLD: (Sym, u32) = (Sym(9), 2);
        const EPOCHS: u64 = 8;
        let cache = precise(None);
        for epoch in 0..EPOCHS {
            // Every query twice per epoch, filling on a miss as the
            // server does.
            for (canon, dep) in [("p(_0)", P), ("q(_0)", Q), ("cold(_0)", COLD)]
                .into_iter()
                .cycle()
                .take(6)
            {
                if cache.lookup(&key(canon), epoch).is_none() {
                    cache.fill(key(canon), epoch, vec![dep], sols(&["_0 = a"]));
                }
            }
            cache.on_commit(epoch, epoch + 1, &[COLD]);
        }
        let s = cache.stats();
        // Epoch 0 misses each query once (3 hits); every later epoch
        // misses only the cold one (5 hits).
        assert_eq!(
            s.hits,
            3 + 5 * (EPOCHS - 1),
            "hot entries hit through churn"
        );
        assert_eq!(s.invalidations, EPOCHS, "only the cold entry drops");
        assert_eq!(s.fills, 2 + EPOCHS, "hot entries fill once");
    }

    #[test]
    fn refill_after_invalidation_reopens_the_window() {
        let cache = precise(None);
        cache.fill(key("p(_0)"), 0, vec![P], sols(&["_0 = a"]));
        cache.on_commit(0, 1, &[P]);
        assert!(cache.lookup(&key("p(_0)"), 1).is_none());
        cache.fill(key("p(_0)"), 1, vec![P], sols(&["_0 = a", "_0 = z"]));
        assert_eq!(cache.lookup(&key("p(_0)"), 1).unwrap().len(), 2);
    }

    #[test]
    fn budget_evicts_lru_and_bounds_bytes() {
        let budget = 2048;
        let cache = precise(Some(budget));
        for i in 0..64 {
            cache.fill(
                key(&format!("p{i}(_0)")),
                0,
                vec![P],
                sols(&["_0 = some_solution_text"]),
            );
            assert!(cache.stats().bytes <= budget, "budget is a ceiling");
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "64 entries cannot fit 2 KiB");
        assert!(s.entries < 64);
        // The most recent fill is resident; the oldest is not.
        assert!(cache.lookup(&key("p63(_0)"), 0).is_some());
        assert!(cache.lookup(&key("p0(_0)"), 0).is_none());
    }

    #[test]
    fn admission_reserves_evicts_and_overloads() {
        let cache = AnswerCache::new(CacheConfig {
            mode: CacheMode::Precise,
            budget_bytes: Some(1024),
            request_reserve_bytes: 400,
        });
        cache.fill(key("p(_0)"), 0, vec![P], sols(&["_0 = a"]));
        assert!(cache.stats().bytes > 0);
        // Two reservations fit (evicting the entry if needed), a third
        // cannot: 3 * 400 > 1024 even with the cache empty.
        assert!(cache.try_admit());
        assert!(cache.try_admit());
        assert!(!cache.try_admit(), "overloaded");
        let s = cache.stats();
        assert_eq!(s.reserved_bytes, 800);
        assert_eq!(s.overloaded, 1);
        assert_eq!(s.entries, 0, "the reservation evicted the entry");
        cache.release();
        cache.release();
        assert_eq!(cache.stats().reserved_bytes, 0);
        assert!(cache.try_admit(), "admits again after release");
        cache.release();
    }

    /// Four threads interleave admissions, releases and fills against a
    /// budget a few entries wide: charged bytes never exceed the budget,
    /// whichever path (lock-free admission, eviction under the lock)
    /// moved them, and the books balance once every reservation is
    /// released.
    #[test]
    fn budget_holds_under_concurrent_admits_releases_and_fills() {
        const BUDGET: usize = 2048;
        let cache = AnswerCache::new(CacheConfig {
            mode: CacheMode::Precise,
            budget_bytes: Some(BUDGET),
            request_reserve_bytes: 300,
        });
        let within_budget = |cache: &AnswerCache| {
            let s = cache.stats();
            assert!(
                s.bytes + s.reserved_bytes <= BUDGET,
                "{} cached + {} reserved exceed the budget",
                s.bytes,
                s.reserved_bytes
            );
        };
        // Released together, so the four streams overlap from the start.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut held = 0;
                    for i in 0..2_000u64 {
                        match blog_obs::splitmix64(t << 32 | i) % 3 {
                            0 => held += usize::from(cache.try_admit()),
                            1 if held > 0 => {
                                cache.release();
                                held -= 1;
                            }
                            _ => cache.fill(
                                key(&format!("t{t}_{}(_0)", i % 5)),
                                i,
                                vec![P],
                                sols(&["_0 = a_solution_of_some_length", "_0 = another"]),
                            ),
                        }
                        within_budget(cache);
                    }
                    for _ in 0..held {
                        cache.release();
                        within_budget(cache);
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.fills > 0 && s.evictions > 0 && s.overloaded > 0);
        assert_eq!(s.reserved_bytes, 0);
        let resident: usize = lock_unpoisoned(&cache.inner)
            .entries
            .values()
            .map(|e| e.bytes)
            .sum();
        assert_eq!(s.bytes, resident);
    }

    #[test]
    fn oversized_results_are_skipped_not_inserted() {
        let cache = precise(Some(256));
        let big: Vec<String> = (0..64).map(|i| format!("_0 = solution_{i}")).collect();
        cache.fill(key("p(_0)"), 0, vec![P], Arc::new(big));
        let s = cache.stats();
        assert_eq!((s.entries, s.skipped_fills), (0, 1));
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn stats_delta_subtracts_counters_keeps_gauges() {
        let before = CacheStats {
            lookups: 10,
            hits: 4,
            entries: 7,
            bytes: 100,
            ..CacheStats::default()
        };
        let after = CacheStats {
            lookups: 25,
            hits: 9,
            entries: 3,
            bytes: 40,
            ..CacheStats::default()
        };
        let d = CacheStats::delta(before, after);
        assert_eq!((d.lookups, d.hits), (15, 5));
        assert_eq!((d.entries, d.bytes), (3, 40));
        assert!((CacheStats::default().hit_rate() - 0.0).abs() < 1e-12);
        assert!((d.hit_rate() - 5.0 / 15.0).abs() < 1e-12);
    }
}
