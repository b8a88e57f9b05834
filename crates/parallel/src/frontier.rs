//! The shared weighted frontier.
//!
//! Per-worker chain pools with a minimum-seeking acquisition rule: a free
//! worker compares its own cheapest chain against the cheapest chain on
//! any other worker and takes the remote one only when it is more than
//! `D` cheaper — §6's arbitration network. Each pool is a heap under its
//! own small lock, and the comparator is lock-free: an `AtomicU64`
//! published minimum per pool, refreshed on every push/pop, so the §6
//! D-threshold decision reads N atomics instead of peeking N heaps.
//! Termination is an atomic outstanding-chain count plus an
//! eventcount-style sleep protocol (no global condvar on the hot path).
//!
//! Nothing on the hot path writes a line another worker's pool lives on:
//! each shard and the termination block sit on their own 128-byte line,
//! and the meters are plain fields under the shard lock they describe
//! (or, for spurious wakeups, written only by the shard's worker),
//! summed when [`Frontier::counters`] is read.
//!
//! The sharded shape also enables two executor-side levers (see
//! `orparallel`): **batched sprouts** (all children of one expansion enter
//! the owner's shard under a single lock acquisition, publishing the new
//! minimum once) and **local dives** ([`Frontier::should_dive`] — the
//! paper's "a processor keeps its own cheapest chain").

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

use blog_core::chain::{Chain, Queued};
use blog_core::weight::Bound;
use parking_lot::{Condvar, Mutex};

/// How workers share chains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrontierPolicy {
    /// Per-worker pools, each under its own lock, with the D-threshold
    /// decision made over per-pool `AtomicU64` published minimums.
    Sharded {
        /// The communication threshold `D`, in bound units.
        d: u64,
    },
}

/// Outcome counters returned by [`Frontier::counters`].
#[derive(Clone, Copy, Default, Debug)]
pub struct FrontierCounters {
    /// Chains taken from another worker's pool.
    pub steals: u64,
    /// Chains taken from the worker's own pool.
    pub local: u64,
    /// The sum over pools of each pool's peak length: exact for one
    /// worker, an upper bound on the peak total frontier for more (the
    /// pools need not peak at the same moment).
    pub max_len: usize,
    /// Chains expanded without a frontier round-trip (filled in by the
    /// executor, which is where dives happen; always 0 straight from
    /// [`Frontier::counters`]).
    pub dives: u64,
    /// Shard-lock acquisitions on the chain store: one per push batch or
    /// pop. The small sleep mutex guards no chain state and is not
    /// counted.
    pub shard_locks: u64,
    /// Published-minimum refreshes (each covers a whole push batch or
    /// pop).
    pub min_publishes: u64,
    /// Wakeups after which the woken worker found nothing to pop.
    pub spurious_wakeups: u64,
}

impl blog_obs::RecordInto for FrontierCounters {
    fn record_into(&self, registry: &blog_obs::Registry) {
        registry.counter("frontier.steals").add(self.steals);
        registry.counter("frontier.local").add(self.local);
        registry.gauge("frontier.max_len").set(self.max_len as f64);
        registry.counter("frontier.dives").add(self.dives);
        registry.counter("frontier.shard_locks").add(self.shard_locks);
        registry.counter("frontier.min_publishes").add(self.min_publishes);
        registry
            .counter("frontier.spurious_wakeups")
            .add(self.spurious_wakeups);
    }
}

/// Sentinel published by an empty shard.
const EMPTY_MIN: u64 = u64::MAX;

/// One pool's chains, and the meters of the lock that guards them: plain
/// fields, so metering a push or pop writes only the line the pool's own
/// lock already owns.
struct ShardHeap {
    heap: BinaryHeap<Reverse<Queued>>,
    /// Per-shard monotone sequence for deterministic tie-breaks.
    seq: u64,
    /// Acquisitions of this shard's lock.
    locks: u64,
    /// Published-minimum refreshes of this shard.
    publishes: u64,
    /// Pops by the shard's owner.
    local: u64,
    /// Pops by other workers.
    steals: u64,
    /// Peak `heap.len()`.
    peak: usize,
}

/// One worker's pool, on its own pair of cache lines so that pushing
/// into it, or sleeping beside it, never writes a line another pool or
/// the termination block lives on.
#[repr(align(128))]
struct Shard {
    heap: Mutex<ShardHeap>,
    /// Cheapest queued bound in this shard, [`EMPTY_MIN`] when empty.
    /// Written only under the shard lock; read lock-free by the §6
    /// comparator ([`Frontier::choose_shard`]) and the dive rule.
    published_min: AtomicU64,
    /// Wakeups of this shard's worker that found nothing to pop; written
    /// only by that worker.
    spurious_wakeups: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            heap: Mutex::new(ShardHeap {
                heap: BinaryHeap::new(),
                seq: 0,
                locks: 0,
                publishes: 0,
                local: 0,
                steals: 0,
                peak: 0,
            }),
            published_min: AtomicU64::new(EMPTY_MIN),
            spurious_wakeups: AtomicU64::new(0),
        }
    }
}

/// Termination detection and the sleep protocol, on a line of their own:
/// every worker reads them, and `outstanding` is written once per push
/// batch and per finished chain.
#[repr(align(128))]
struct Termination {
    /// Chains pushed but not yet `finish`ed (queued + being expanded).
    /// Zero means the search is exhausted — the termination detector.
    outstanding: AtomicU64,
    done: AtomicBool,
    /// Sleep protocol: a worker that finds every published minimum empty
    /// registers in `sleepers`, re-checks under `sleep`, then waits.
    /// Pushers store the new minimum *before* loading `sleepers` (both
    /// `SeqCst`), so either the pusher sees the sleeper and notifies, or
    /// the sleeper's re-check sees the new minimum — no lost wakeup.
    sleep: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
}

/// The shared frontier (one per parallel query).
pub struct Frontier {
    shards: Vec<Shard>,
    d: u64,
    term: Termination,
}

impl Frontier {
    /// A frontier for `n_workers` workers, seeded with the root chain in
    /// worker 0's pool (the paper: "initially, one processor is given the
    /// initial query").
    pub fn new(n_workers: usize, policy: FrontierPolicy, root: Chain) -> Frontier {
        assert!(n_workers >= 1);
        let FrontierPolicy::Sharded { d } = policy;
        let shards: Vec<Shard> = (0..n_workers).map(|_| Shard::new()).collect();
        let root_bound = root.bound.0;
        {
            let mut sh = shards[0].heap.lock();
            sh.heap.push(Reverse(Queued {
                key: (root_bound, 0),
                chain: root,
            }));
            (sh.locks, sh.publishes, sh.peak) = (1, 1, 1);
        }
        shards[0].published_min.store(root_bound, SeqCst);
        Frontier {
            shards,
            d,
            term: Termination {
                outstanding: AtomicU64::new(1),
                done: AtomicBool::new(false),
                sleep: Mutex::new(()),
                cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
        }
    }

    /// Push freshly sprouted chains from `worker`, draining `children` so
    /// the caller can reuse the buffer across expansions. The whole batch
    /// enters the worker's pool under one lock acquisition, publishing the
    /// new minimum once.
    pub fn push_children_from(&self, worker: usize, children: &mut Vec<Chain>) {
        if children.is_empty() {
            return;
        }
        // Count the new chains as outstanding *before* they become
        // poppable, so the termination detector can never observe zero
        // while queued work exists.
        self.term
            .outstanding
            .fetch_add(children.len() as u64, SeqCst);
        let shard = &self.shards[worker];
        {
            let mut sh = shard.heap.lock();
            sh.locks += 1;
            for chain in children.drain(..) {
                sh.seq += 1;
                let key = (chain.bound.0, sh.seq);
                sh.heap.push(Reverse(Queued { key, chain }));
            }
            sh.peak = sh.peak.max(sh.heap.len());
            let new_min = sh.heap.peek().map_or(EMPTY_MIN, |Reverse(i)| i.key.0);
            shard.published_min.store(new_min, SeqCst);
            sh.publishes += 1;
        }
        // Wake at most ONE sleeper per push batch (SeqCst pairs with the
        // sleeper's registration; see the `sleep` field docs). Waking a
        // thief per chain just produces a wake-steal-sleep convoy; a
        // woken thief that finds surplus work wakes the next sleeper
        // itself (see `acquire`), so throughput ramps without the storm.
        if self.term.sleepers.load(SeqCst) > 0 {
            let _g = self.term.sleep.lock();
            self.term.cv.notify_one();
        }
    }

    /// The §6 comparator: read every shard's published minimum (N atomic
    /// loads, no locks) and apply the D rule. Relaxed loads suffice: a
    /// stale minimum costs at most a futile `try_pop` retry or a detour
    /// through the sleep path, whose registered re-check reads `SeqCst`.
    fn choose_shard(&self, my_pool: usize) -> Option<usize> {
        let local = self.shards[my_pool].published_min.load(Relaxed);
        let mut best_remote: Option<(usize, u64)> = None;
        for (p, shard) in self.shards.iter().enumerate() {
            if p == my_pool {
                continue;
            }
            let b = shard.published_min.load(Relaxed);
            if b != EMPTY_MIN && best_remote.is_none_or(|(_, bb)| b < bb) {
                best_remote = Some((p, b));
            }
        }
        match (local != EMPTY_MIN, best_remote) {
            (false, None) => None,
            (true, None) => Some(my_pool),
            (false, Some((p, _))) => Some(p),
            (true, Some((p, rb))) => {
                if rb.saturating_add(self.d) < local {
                    Some(p)
                } else {
                    Some(my_pool)
                }
            }
        }
    }

    /// Pop from `pool` for `worker`, republishing the pool's minimum.
    /// `None` if the shard was drained by a racing worker since the
    /// comparator read. The republish can be `Release`: a pop only
    /// *raises* the minimum, so a reader acting on the stale (lower)
    /// value merely retries — the no-lost-wakeup argument needs only
    /// *pushes* to be promptly visible.
    fn try_pop(&self, worker: usize, pool: usize) -> Option<Chain> {
        let shard = &self.shards[pool];
        let mut sh = shard.heap.lock();
        sh.locks += 1;
        let popped = sh.heap.pop();
        if popped.is_some() {
            // The chain moves from queued to active: `outstanding` is
            // unchanged until `finish`.
            if pool == worker {
                sh.local += 1;
            } else {
                sh.steals += 1;
            }
        }
        let new_min = sh.heap.peek().map_or(EMPTY_MIN, |Reverse(i)| i.key.0);
        shard
            .published_min
            .store(new_min, std::sync::atomic::Ordering::Release);
        sh.publishes += 1;
        drop(sh);
        popped.map(|Reverse(item)| item.chain)
    }

    /// Acquire the next chain for `worker`, blocking while the frontier
    /// is temporarily empty but other workers are still expanding.
    /// Returns `None` when the search is complete (or aborted).
    pub fn acquire(&self, worker: usize) -> Option<Chain> {
        let term = &self.term;
        let mut woke = false;
        loop {
            if term.done.load(SeqCst) {
                return None;
            }
            if let Some(pool) = self.choose_shard(worker) {
                if let Some(chain) = self.try_pop(worker, pool) {
                    // Wake chaining: a *woken* thief that finds the
                    // victim still has surplus recruits the next sleeper
                    // (pushes wake only one, so the wake tree fans out at
                    // the rate work actually appears, without a futex
                    // call per steal).
                    if woke
                        && pool != worker
                        && self.shards[pool].published_min.load(Relaxed) != EMPTY_MIN
                        && term.sleepers.load(SeqCst) > 0
                    {
                        let _g = term.sleep.lock();
                        term.cv.notify_one();
                    }
                    return Some(chain);
                }
                // Raced: the published minimum was stale. Rescan.
                continue;
            }
            if woke {
                // Only this worker writes its own shard's meter.
                let spurious = &self.shards[worker].spurious_wakeups;
                spurious.store(spurious.load(Relaxed) + 1, Relaxed);
                woke = false;
            }
            if term.outstanding.load(SeqCst) == 0 {
                self.abort();
                return None;
            }
            // Every published minimum is empty but chains are in flight:
            // sleep until a pusher or the termination detector wakes us.
            term.sleepers.fetch_add(1, SeqCst);
            let mut g = term.sleep.lock();
            // Re-check after registering (the other half of the pusher's
            // store-then-load); skip the wait if anything changed.
            let work_appeared = term.done.load(SeqCst)
                || term.outstanding.load(SeqCst) == 0
                || self
                    .shards
                    .iter()
                    .any(|s| s.published_min.load(SeqCst) != EMPTY_MIN);
            if !work_appeared {
                // Timed wait as a liveness belt: if a wakeup were ever
                // lost despite the protocol, the sleeper re-scans after a
                // bounded nap instead of hanging the search.
                term.cv
                    .wait_for(&mut g, std::time::Duration::from_millis(2));
                woke = true;
            }
            drop(g);
            term.sleepers.fetch_sub(1, SeqCst);
        }
    }

    /// Mark one acquired chain as fully processed. Must be called exactly
    /// once per successful [`acquire`](Self::acquire) — a local dive
    /// (expanding a child without re-acquiring) extends the chain's
    /// active slot rather than opening a new one.
    pub fn finish(&self, _worker: usize) {
        if self.term.outstanding.fetch_sub(1, SeqCst) == 1 {
            // Last outstanding chain: every pushed chain has been fully
            // expanded, so every heap is empty. Search over.
            self.abort();
        }
    }

    /// End the search (complete or aborted): wake everyone, acquire
    /// returns `None`.
    pub fn abort(&self) {
        self.term.done.store(true, SeqCst);
        let _g = self.term.sleep.lock();
        self.term.cv.notify_all();
    }

    /// Whether the search has completed or been aborted (advisory, for
    /// tests and monitoring; the executor's dive cutoff after an abort
    /// happens inside [`should_dive`](Self::should_dive)).
    pub fn is_done(&self) -> bool {
        self.term.done.load(SeqCst)
    }

    /// The §6 dive rule: keep expanding the freshly sprouted child
    /// (bound `child_bound`) when it is within `D` of the **global**
    /// published minimum — the paper's "each processor compares its
    /// cheapest chain against the global minimum", read here as N
    /// lock-free atomic loads over the per-pool published minimums.
    /// A child more than `D` above the global minimum goes back through
    /// arbitration instead (diving on it would pin the worker to a
    /// globally uncompetitive subtree). Always false after an abort.
    pub fn should_dive(&self, _worker: usize, child_bound: Bound) -> bool {
        // Lock-free — the executor runs this once per expansion.
        if self.term.done.load(Relaxed) {
            return false;
        }
        let global_min = self
            .shards
            .iter()
            .map(|shard| shard.published_min.load(Relaxed))
            .min()
            .unwrap_or(EMPTY_MIN);
        child_bound.0 <= global_min.saturating_add(self.d)
    }

    /// The globally cheapest queued bound, if any (for tests/monitoring).
    /// This reads the published minimums, so it can briefly trail the
    /// heaps during a push.
    pub fn global_min(&self) -> Option<Bound> {
        self.shards
            .iter()
            .map(|s| s.published_min.load(SeqCst))
            .filter(|&b| b != EMPTY_MIN)
            .min()
            .map(Bound)
    }

    /// Steal/local/contention counters, summed over the pools (each
    /// pool's lock is taken once to read its meters).
    pub fn counters(&self) -> FrontierCounters {
        let mut c = FrontierCounters::default();
        for shard in &self.shards {
            let sh = shard.heap.lock();
            c.steals += sh.steals;
            c.local += sh.local;
            c.max_len += sh.peak;
            c.shard_locks += sh.locks;
            c.min_publishes += sh.publishes;
            c.spurious_wakeups += shard.spurious_wakeups.load(Relaxed);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::SearchNode;

    fn chain(bound: u64) -> Chain {
        let mut c = Chain::root(SearchNode::root(&[]));
        c.bound = Bound(bound);
        c
    }

    fn sharded(d: u64) -> FrontierPolicy {
        FrontierPolicy::Sharded { d }
    }

    #[test]
    fn seeded_root_is_acquired_first() {
        let f = Frontier::new(2, sharded(5), chain(7));
        let c = f.acquire(0).unwrap();
        assert_eq!(c.bound, Bound(7));
        f.finish(0);
        assert!(f.acquire(0).is_none());
    }

    #[test]
    fn local_pools_respect_d() {
        // Worker 0 holds bounds {10}; worker 1 holds {13}. With D=5 the
        // remote 10 is not 5 cheaper than 13, so worker 1 stays local.
        let f = Frontier::new(2, sharded(5), chain(10));
        // Seed worker 1's pool by pushing from worker 1.
        f.push_children_from(1, &mut vec![chain(13)]);
        let got = f.acquire(1).unwrap();
        assert_eq!(got.bound, Bound(13), "D gate keeps worker 1 local");
        // With D=1, worker 1 steals the 10.
        let f2 = Frontier::new(2, sharded(1), chain(10));
        f2.push_children_from(1, &mut vec![chain(13)]);
        let got2 = f2.acquire(1).unwrap();
        assert_eq!(got2.bound, Bound(10));
        assert_eq!(f2.counters().steals, 1);
        f.abort();
        f2.abort();
    }

    #[test]
    fn empty_local_pool_always_steals() {
        let f = Frontier::new(2, sharded(1_000), chain(42));
        let got = f.acquire(1).unwrap();
        assert_eq!(got.bound, Bound(42));
        assert_eq!(f.counters().steals, 1);
        f.abort();
    }

    #[test]
    fn finish_without_work_terminates_all() {
        let f = Frontier::new(1, sharded(5), chain(1));
        let _c = f.acquire(0).unwrap();
        f.finish(0); // no children pushed → done
        assert!(f.acquire(0).is_none());
        assert!(f.is_done());
    }

    #[test]
    fn blocking_acquire_wakes_on_push() {
        use std::sync::Arc;
        let f = Arc::new(Frontier::new(2, sharded(5), chain(1)));
        let c = f.acquire(0).unwrap();
        assert_eq!(c.bound, Bound(1));
        let f2 = Arc::clone(&f);
        let handle = std::thread::spawn(move || f2.acquire(1).map(|c| c.bound));
        // The spawned worker blocks (one chain active, every pool
        // empty); pushing work must wake it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        f.push_children_from(0, &mut vec![chain(8)]);
        f.finish(0);
        let got = handle.join().unwrap();
        assert_eq!(got, Some(Bound(8)));
        f.abort();
    }

    #[test]
    fn max_len_tracks_peak() {
        let f = Frontier::new(1, sharded(5), chain(1));
        let _ = f.acquire(0).unwrap();
        f.push_children_from(0, &mut vec![chain(2), chain(3), chain(4)]);
        assert_eq!(f.counters().max_len, 3);
        f.abort();
    }

    #[test]
    fn sharded_publishes_minimums() {
        let f = Frontier::new(2, sharded(0), chain(9));
        assert_eq!(f.global_min(), Some(Bound(9)));
        let _root = f.acquire(0).unwrap();
        assert_eq!(f.global_min(), None, "popped root leaves empty pools");
        f.push_children_from(0, &mut vec![chain(4), chain(6)]);
        assert_eq!(f.global_min(), Some(Bound(4)));
        let c = f.counters();
        assert!(c.min_publishes >= 3, "seed + pop + batch push");
        assert!(c.shard_locks >= 3);
        f.abort();
    }

    #[test]
    fn batch_push_takes_one_lock_and_one_publish() {
        let f = Frontier::new(1, sharded(0), chain(1));
        let _ = f.acquire(0).unwrap();
        let before = f.counters();
        f.push_children_from(0, &mut vec![chain(2), chain(3), chain(4), chain(5)]);
        let after = f.counters();
        assert_eq!(after.shard_locks - before.shard_locks, 1);
        assert_eq!(after.min_publishes - before.min_publishes, 1);
        f.abort();
    }

    #[test]
    fn dive_rule_follows_the_d_margin() {
        let f = Frontier::new(1, sharded(5), chain(10));
        let _root = f.acquire(0).unwrap();
        // Empty pool: any child is worth keeping.
        assert!(f.should_dive(0, Bound(1_000)));
        f.push_children_from(0, &mut vec![chain(10)]);
        // Child within D of the queued minimum: keep diving.
        assert!(f.should_dive(0, Bound(15)));
        // Queued chain more than D cheaper: go through the frontier.
        assert!(!f.should_dive(0, Bound(16)));
        // Nothing dives once the search is over.
        f.abort();
        assert!(!f.should_dive(0, Bound(0)));
    }

    #[test]
    fn push_children_from_reuses_the_buffer() {
        let f = Frontier::new(1, sharded(0), chain(1));
        let _ = f.acquire(0).unwrap();
        let mut buf = vec![chain(2), chain(3)];
        f.push_children_from(0, &mut buf);
        assert!(buf.is_empty(), "buffer drained for reuse");
        assert_eq!(f.global_min(), Some(Bound(2)));
        f.abort();
    }

    #[test]
    fn sharded_termination_under_contention() {
        use std::sync::Arc;
        // 4 workers × a seeded pool; every worker drains until the
        // termination detector fires. Repeated to shake races out.
        for _ in 0..50 {
            let f = Arc::new(Frontier::new(4, sharded(2), chain(1)));
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let f = Arc::clone(&f);
                    std::thread::spawn(move || {
                        let mut popped = 0u64;
                        while let Some(c) = f.acquire(w) {
                            // Fan out a little synthetic work.
                            if c.bound.0 < 6 {
                                let b = c.bound.0;
                                f.push_children_from(w, &mut vec![chain(b + 2), chain(b + 3)]);
                            }
                            f.finish(w);
                            popped += 1;
                        }
                        popped
                    })
                })
                .collect();
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(total >= 1, "at least the root is processed");
            assert!(f.is_done());
        }
    }
}
