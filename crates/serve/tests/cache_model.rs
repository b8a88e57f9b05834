//! Differential property for the answer cache's bookkeeping: the real
//! [`AnswerCache`] against a reference model that checks every entry on
//! every commit.
//!
//! The model is the cache as it was before commits went by index: one
//! map of entries, each with an explicit `[valid_from, valid_to]` window,
//! and an `on_commit` that walks them all. Random sequences of fills (at,
//! below and above the last notified epoch), lookups, notified commits
//! and commits the cache is never told about go through both, under an
//! optional byte budget with admissions in between. After every step the
//! lookups, counters and gauges must agree.
//!
//! Case counts honor the `PROPTEST_CASES` environment variable (the CI
//! profile sets a reduced count; see `.github/workflows/ci.yml`).

use std::collections::HashMap;
use std::sync::Arc;

use blog_logic::Sym;
use blog_serve::{AnswerCache, CacheConfig, CacheKey, CacheMode, CacheStats};
use proptest::prelude::*;

/// Footprint predicates the generator draws from.
const PREDS: u32 = 5;
/// Distinct query keys.
const KEYS: u32 = 6;

#[derive(Clone, Debug)]
enum Op {
    /// Fill `key` at the store's epoch plus `offset` (clamped at 0).
    Fill {
        key: u32,
        offset: i64,
        deps: Vec<u32>,
        n_solutions: usize,
    },
    /// Look `key` up at the store's epoch plus `offset`.
    Lookup {
        key: u32,
        offset: i64,
    },
    /// Commit touching `touched`, and tell the cache.
    Commit {
        touched: Vec<u32>,
    },
    /// Commit the cache is never told about.
    Bypass,
    /// Reserve a request's bytes, or release one reservation.
    Admit,
    Release,
}

fn op() -> impl Strategy<Value = Op> {
    let preds = || prop::collection::btree_set(0..PREDS, 0..3);
    (0u32..16, 0..KEYS, -2i64..2, preds(), 0usize..4).prop_map(
        |(pick, key, offset, set, n_solutions)| match pick {
            0..=4 => Op::Fill {
                key,
                offset,
                deps: set.into_iter().collect(),
                n_solutions,
            },
            5..=9 => Op::Lookup { key, offset },
            10..=12 => Op::Commit {
                touched: set.into_iter().collect(),
            },
            13 => Op::Bypass,
            14 => Op::Admit,
            _ => Op::Release,
        },
    )
}

fn key(k: u32) -> CacheKey {
    CacheKey {
        canon: format!("q{k}(_0)"),
        max_nodes: None,
        max_solutions: None,
        max_depth: None,
    }
}

fn pred(p: u32) -> (Sym, u32) {
    (Sym(p), 2)
}

/// The footprint as the engine reports it: sorted, no duplicates.
fn footprint(deps: &[u32]) -> Vec<(Sym, u32)> {
    deps.iter().map(|&p| pred(p)).collect()
}

fn solutions(key: u32, epoch: u64, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("_0 = s{key}_{epoch}_{i}")).collect()
}

// ---------------------------------------------------------------------------
// The reference model
// ---------------------------------------------------------------------------

struct ModelEntry {
    solutions: Vec<String>,
    deps: Vec<(Sym, u32)>,
    valid_from: u64,
    valid_to: u64,
    bytes: usize,
    last_used: u64,
}

/// The answer cache with explicit windows and a full scan per commit.
struct Model {
    budget: Option<usize>,
    reserve: usize,
    entries: HashMap<CacheKey, ModelEntry>,
    reserved_bytes: usize,
    tick: u64,
    stats: CacheStats,
}

/// The budget charge the cache documents: a fixed overhead, the key
/// text, the footprint, and each solution's text plus a `String` header.
fn charge(key: &CacheKey, deps: &[(Sym, u32)], solutions: &[String]) -> usize {
    128 + key.canon.len()
        + std::mem::size_of_val(deps)
        + solutions
            .iter()
            .map(|s| s.len() + std::mem::size_of::<String>())
            .sum::<usize>()
}

impl Model {
    fn new(config: &CacheConfig) -> Model {
        Model {
            budget: config.budget_bytes,
            reserve: config.request_reserve_bytes,
            entries: HashMap::new(),
            reserved_bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn remove(&mut self, key: &CacheKey) {
        let e = self.entries.remove(key).expect("resident");
        self.stats.bytes -= e.bytes;
    }

    fn make_room(&mut self, budget: usize, need: usize) -> bool {
        while self.stats.bytes + self.reserved_bytes + need > budget {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                return false;
            };
            self.remove(&victim);
            self.stats.evictions += 1;
        }
        true
    }

    fn lookup(&mut self, key: &CacheKey, epoch: u64) -> Option<Vec<String>> {
        self.stats.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(key)?;
        if e.valid_from <= epoch && epoch <= e.valid_to {
            e.last_used = tick;
            self.stats.hits += 1;
            return Some(e.solutions.clone());
        }
        None
    }

    fn fill(&mut self, key: CacheKey, epoch: u64, deps: Vec<(Sym, u32)>, solutions: Vec<String>) {
        let bytes = charge(&key, &deps, &solutions);
        if let Some(old) = self.entries.get(&key) {
            if old.valid_to >= epoch {
                return;
            }
            self.remove(&key);
        }
        if let Some(budget) = self.budget {
            if !self.make_room(budget, bytes) {
                self.stats.skipped_fills += 1;
                return;
            }
        }
        self.tick += 1;
        let entry = ModelEntry {
            solutions,
            deps,
            valid_from: epoch,
            valid_to: epoch,
            bytes,
            last_used: self.tick,
        };
        self.entries.insert(key, entry);
        self.stats.bytes += bytes;
        self.stats.fills += 1;
    }

    fn on_commit(&mut self, base: u64, new_epoch: u64, touched: &[(Sym, u32)]) {
        if new_epoch == base {
            return;
        }
        let (mut freed, mut invalidations, mut expired) = (0, 0, 0);
        self.entries.retain(|_, e| {
            if e.valid_to >= new_epoch {
                return true;
            }
            if e.valid_to == base {
                if touched.iter().any(|t| e.deps.binary_search(t).is_ok()) {
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
        self.stats.invalidations += invalidations;
        self.stats.expired += expired;
        self.stats.bytes -= freed;
    }

    fn try_admit(&mut self) -> bool {
        let Some(budget) = self.budget else {
            return true;
        };
        if self.make_room(budget, self.reserve) {
            self.reserved_bytes += self.reserve;
            true
        } else {
            self.stats.overloaded += 1;
            false
        }
    }

    fn release(&mut self) {
        if self.budget.is_some() {
            self.reserved_bytes -= self.reserve;
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            reserved_bytes: self.reserved_bytes,
            ..self.stats
        }
    }
}

/// Every counter and gauge, comparable.
fn counts(s: &CacheStats) -> [u64; 11] {
    [
        s.lookups,
        s.hits,
        s.fills,
        s.invalidations,
        s.expired,
        s.evictions,
        s.skipped_fills,
        s.overloaded,
        s.entries as u64,
        s.bytes as u64,
        s.reserved_bytes as u64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed cache and the full-scan model answer every lookup the
    /// same and keep the same counters and gauges, step by step.
    #[test]
    fn answer_cache_matches_the_full_scan_model(
        budget in prop_oneof![Just(None), (1usize..6).prop_map(|k| Some(k * 256))],
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let config = CacheConfig {
            mode: CacheMode::Precise,
            budget_bytes: budget,
            request_reserve_bytes: 200,
        };
        let cache = AnswerCache::new(config.clone());
        let mut model = Model::new(&config);
        // The store's committed epoch, and the admissions outstanding.
        let (mut epoch, mut admitted) = (0u64, 0usize);
        let at = |epoch: u64, offset: i64| epoch.saturating_add_signed(offset);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Fill { key: k, offset, deps, n_solutions } => {
                    let e = at(epoch, *offset);
                    let sols = solutions(*k, e, *n_solutions);
                    cache.fill(key(*k), e, footprint(deps), Arc::new(sols.clone()));
                    model.fill(key(*k), e, footprint(deps), sols);
                }
                Op::Lookup { key: k, offset } => {
                    let e = at(epoch, *offset);
                    let real = cache.lookup(&key(*k), e).map(|s| s.to_vec());
                    prop_assert_eq!(real, model.lookup(&key(*k), e), "step {} {:?}", i, op);
                }
                Op::Commit { touched } => {
                    let touched = footprint(touched);
                    cache.on_commit(epoch, epoch + 1, &touched);
                    model.on_commit(epoch, epoch + 1, &touched);
                    epoch += 1;
                }
                Op::Bypass => epoch += 1,
                Op::Admit => {
                    let real = cache.try_admit();
                    prop_assert_eq!(real, model.try_admit(), "step {} {:?}", i, op);
                    admitted += usize::from(real);
                }
                Op::Release => {
                    if admitted > 0 {
                        cache.release();
                        model.release();
                        admitted -= 1;
                    }
                }
            }
            prop_assert_eq!(
                counts(&cache.stats()),
                counts(&model.stats()),
                "step {} {:?}: lookups, hits, fills, invalidations, expired, evictions, \
                 skipped, overloaded, entries, bytes, reserved",
                i,
                op
            );
        }
    }
}
