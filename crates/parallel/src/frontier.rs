//! Worker-owned frontiers and the exchange between them.
//!
//! "Each processor works on the chains with the lowest bounds" (§3): every
//! worker keeps its chains in its own `LocalHeap`, keyed `(bound, seq)`,
//! and pushes and pops there with no lock and no shared write. Chains
//! cross between workers only through the one `Exchange`, and only when
//! a peer has run dry: §6 moves a chain between processors when bounds
//! differ by more than `D`, and here `D` gates what a donor hands over
//! (`LocalHeap::donate`).
//!
//! The exchange is touched when a worker runs dry, when it donates, and
//! when the search stops. Its mutex guards the donated batches, the idle
//! and waiting counts and the end-of-search flag; the two words every
//! worker reads after each expansion — `hungry` and `stopped` — sit on
//! their own 128-byte line and change only under that mutex.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicUsize};

use blog_core::chain::{Chain, Queued};
use parking_lot::{Condvar, Mutex};

/// How workers share chains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrontierPolicy {
    /// Worker-owned heaps; a donor hands a hungry peer only chains within
    /// `d` of its own cheapest.
    Sharded {
        /// The communication threshold `D`, in bound units.
        d: u64,
    },
}

/// Frontier counters of one parallel run, summed over its workers.
#[derive(Clone, Copy, Default, Debug)]
pub struct FrontierCounters {
    /// Chains received through the exchange.
    pub steals: u64,
    /// Pops from a worker's own heap (every expanded or pruned chain).
    pub local: u64,
    /// The sum over workers of each heap's peak length: exact for one
    /// worker, an upper bound on the peak total frontier for more (the
    /// heaps need not peak at the same moment).
    pub max_len: usize,
    /// Always 0: workers expand only what they pop. Kept because the
    /// benchmark reads it.
    pub dives: u64,
    /// Exchange-lock acquisitions: runs dry, donations and stops.
    pub shard_locks: u64,
    /// Wakeups that found the exchange empty and the search still on.
    pub spurious_wakeups: u64,
}

impl FrontierCounters {
    /// Add `other`'s counts to these.
    pub(crate) fn merge(&mut self, other: &FrontierCounters) {
        self.steals += other.steals;
        self.local += other.local;
        self.max_len += other.max_len;
        self.dives += other.dives;
        self.shard_locks += other.shard_locks;
        self.spurious_wakeups += other.spurious_wakeups;
    }
}

/// One worker's chains: a min-heap on `(bound, seq)` with a per-heap
/// monotone `seq` for deterministic ties. Touched by its owner only.
#[derive(Default)]
pub(crate) struct LocalHeap {
    heap: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    /// Peak `heap.len()`.
    pub(crate) peak: usize,
}

impl LocalHeap {
    /// Queue `chains`, draining the vector so the caller can reuse it.
    pub(crate) fn push_all(&mut self, chains: &mut Vec<Chain>) {
        for chain in chains.drain(..) {
            self.seq += 1;
            let key = (chain.bound.0, self.seq);
            self.heap.push(Reverse(Queued { key, chain }));
        }
        self.peak = self.peak.max(self.heap.len());
    }

    /// The cheapest chain, if any.
    pub(crate) fn pop(&mut self) -> Option<Chain> {
        self.heap.pop().map(|Reverse(q)| q.chain)
    }

    /// Drop every queued chain (the search stopped).
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// The §6 donation: walk the heap from its cheapest chain, keeping
    /// and giving alternately (keep, give, keep, …), and return the
    /// given chains — at most half the heap. The walk stops at the first
    /// chain more than `d` above the cheapest, so the donor always keeps
    /// its cheapest chain and never ships one it would not itself expand
    /// soon (a dead branch priced at infinity stays until the incumbent
    /// can prune it).
    pub(crate) fn donate(&mut self, d: u64) -> Vec<Chain> {
        let mut given = Vec::new();
        let Some(Reverse(cheapest)) = self.heap.pop() else {
            return given;
        };
        let limit = cheapest.key.0.saturating_add(d);
        let max_give = self.heap.len().div_ceil(2);
        let mut kept = vec![cheapest];
        while given.len() < max_give {
            match self.heap.peek() {
                Some(Reverse(next)) if next.key.0 <= limit => {}
                _ => break,
            }
            let Reverse(next) = self.heap.pop().expect("peeked");
            if kept.len() > given.len() {
                given.push(next.chain);
            } else {
                kept.push(next);
            }
        }
        self.heap.extend(kept.into_iter().map(Reverse));
        given
    }
}

/// What the exchange lock guards.
struct Pool {
    /// Donated batches not yet taken.
    batches: Vec<Vec<Chain>>,
    /// Workers holding no chains. Workers that have not started yet count
    /// as idle: they hold nothing, so the search can end without them.
    idle: usize,
    /// Idle workers blocked waiting for a batch.
    waiting: usize,
    /// The search is over: exhausted, stopped by a limit, or failed.
    done: bool,
}

/// The per-expansion signals, on a line of their own: read after every
/// expansion, written only under the exchange lock. Both are hints and
/// publish no other data (`Relaxed`): a donor re-checks under the lock
/// that a waiter still needs a batch, and a worker that reads `stopped`
/// late only expands a few more chains of a finished search.
#[repr(align(128))]
struct Signals {
    /// Waiting workers no donated batch has been set aside for yet.
    hungry: AtomicUsize,
    /// Mirrors `Pool::done`.
    stopped: AtomicBool,
}

/// Where idle workers wait and donors leave chains — the only state of a
/// parallel search that more than one worker writes, apart from the
/// node-budget count, the incumbent and the solution list.
pub(crate) struct Exchange {
    pool: Mutex<Pool>,
    cv: Condvar,
    signals: Signals,
    n_workers: usize,
}

impl Exchange {
    /// An exchange for `n_workers` workers of which only worker 0 holds a
    /// chain (the root): "initially, one processor is given the initial
    /// query".
    pub(crate) fn new(n_workers: usize) -> Exchange {
        Exchange {
            pool: Mutex::new(Pool {
                batches: Vec::new(),
                idle: n_workers - 1,
                waiting: 0,
                done: false,
            }),
            cv: Condvar::new(),
            signals: Signals {
                hungry: AtomicUsize::new(0),
                stopped: AtomicBool::new(false),
            },
            n_workers,
        }
    }

    /// Whether a peer is waiting for chains (lock-free; may be stale).
    pub(crate) fn hungry(&self) -> bool {
        self.signals.hungry.load(Relaxed) > 0
    }

    /// Whether the search is over (lock-free; may be stale).
    pub(crate) fn stopped(&self) -> bool {
        self.signals.stopped.load(Relaxed)
    }

    fn publish(&self, pool: &Pool) {
        let hungry = pool.waiting.saturating_sub(pool.batches.len());
        self.signals.hungry.store(hungry, Relaxed);
    }

    fn end(&self, pool: &mut Pool) {
        pool.done = true;
        self.signals.stopped.store(true, Relaxed);
        self.cv.notify_all();
    }

    /// Take a batch of chains for a worker that holds none, blocking while
    /// peers are still busy. `ran_dry` says the worker held chains until
    /// now (a worker that has not started yet already counts as idle).
    /// `None` when the search is over. The search ends here, under the
    /// lock, when every worker is idle and no batch is waiting: no chain
    /// is then queued anywhere, and none can appear.
    pub(crate) fn acquire(
        &self,
        ran_dry: bool,
        meter: &mut FrontierCounters,
    ) -> Option<Vec<Chain>> {
        let mut pool = self.pool.lock();
        meter.shard_locks += 1;
        if ran_dry {
            pool.idle += 1;
        }
        let mut woken = false;
        loop {
            if pool.done {
                return None;
            }
            if let Some(batch) = pool.batches.pop() {
                pool.idle -= 1;
                self.publish(&pool);
                meter.steals += batch.len() as u64;
                return Some(batch);
            }
            if woken {
                meter.spurious_wakeups += 1;
            }
            if pool.idle == self.n_workers {
                self.end(&mut pool);
                return None;
            }
            pool.waiting += 1;
            self.publish(&pool);
            self.cv.wait(&mut pool);
            pool.waiting -= 1;
            woken = true;
        }
    }

    /// Feed a waiting peer from `heap` by the donation rule
    /// ([`LocalHeap::donate`] with `d`). The batch goes back to `heap` if
    /// no peer still needs one (another donor got there first) or the
    /// search is over.
    pub(crate) fn donate_from(&self, heap: &mut LocalHeap, d: u64, meter: &mut FrontierCounters) {
        let mut batch = heap.donate(d);
        if batch.is_empty() {
            return;
        }
        let mut pool = self.pool.lock();
        meter.shard_locks += 1;
        if pool.done || pool.waiting <= pool.batches.len() {
            drop(pool);
            heap.push_all(&mut batch);
            return;
        }
        pool.batches.push(batch);
        self.publish(&pool);
        self.cv.notify_one();
    }

    /// End the search for every worker: a limit met, a cancellation, a
    /// store fault or a panic.
    pub(crate) fn stop(&self, meter: &mut FrontierCounters) {
        meter.shard_locks += 1;
        self.end(&mut self.pool.lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_core::weight::Bound;
    use blog_logic::SearchNode;

    fn chain(bound: u64) -> Chain {
        let mut c = Chain::root(SearchNode::root(&[]));
        c.bound = Bound(bound);
        c
    }

    fn heap_of(bounds: &[u64]) -> LocalHeap {
        let mut h = LocalHeap::default();
        h.push_all(&mut bounds.iter().map(|&b| chain(b)).collect());
        h
    }

    fn drain(h: &mut LocalHeap) -> Vec<u64> {
        std::iter::from_fn(|| h.pop().map(|c| c.bound.0)).collect()
    }

    #[test]
    fn seeded_root_is_acquired_first() {
        let mut h = heap_of(&[7]);
        h.push_all(&mut vec![chain(9), chain(8)]);
        assert_eq!(drain(&mut h), [7, 8, 9]);
        assert!(h.pop().is_none());
    }

    #[test]
    fn push_children_from_reuses_the_buffer() {
        let mut h = LocalHeap::default();
        let mut buf = vec![chain(2), chain(3)];
        h.push_all(&mut buf);
        assert!(buf.is_empty(), "buffer drained for reuse");
        assert_eq!(drain(&mut h), [2, 3]);
    }

    #[test]
    fn max_len_tracks_peak() {
        let mut h = heap_of(&[2, 3, 4]);
        h.pop();
        h.push_all(&mut vec![chain(5)]);
        assert_eq!(h.peak, 3);
    }

    #[test]
    fn donation_gives_alternate_chains_within_d() {
        let (b, d) = (100, 5);
        // Ties keep insertion order, so the walk sees the chains as
        // pushed: keep b, give b, keep b, stop at b+D+1.
        let mut h = heap_of(&[b, b, b, b + d + 1, b + d + 2, b + 2 * d]);
        let given: Vec<u64> = h.donate(d).iter().map(|c| c.bound.0).collect();
        assert_eq!(given, [b], "only chains within D of the cheapest go");
        assert_eq!(drain(&mut h)[0], b, "the donor keeps its cheapest");

        // Everything within D: alternate chains, at most half.
        let mut h = heap_of(&[b; 5]);
        assert_eq!(h.donate(d).len(), 2);
        assert_eq!(drain(&mut h).len(), 3);

        // Second chain more than D above the first: nothing to give.
        for bounds in [&[b, b + d + 1][..], &[b], &[]] {
            let mut h = heap_of(bounds);
            assert!(h.donate(d).is_empty(), "{bounds:?}");
            assert_eq!(drain(&mut h), bounds);
        }
    }

    #[test]
    fn empty_local_pool_always_steals() {
        let x = Exchange::new(2);
        let mut meter = FrontierCounters::default();
        // Nobody is waiting: a donation comes straight back.
        let mut donor = heap_of(&[1, 2, 2, 2]);
        x.donate_from(&mut donor, 5, &mut meter);
        assert_eq!(donor.heap.len(), 4);
        assert!(!x.hungry());
        std::thread::scope(|s| {
            let thief = s.spawn(|| {
                let mut meter = FrontierCounters::default();
                let got = x.acquire(false, &mut meter).map(|b| b.len());
                (got, meter.steals)
            });
            while !x.hungry() {
                std::thread::yield_now();
            }
            x.donate_from(&mut donor, 5, &mut meter);
            assert_eq!(thief.join().unwrap(), (Some(2), 2));
            assert_eq!(drain(&mut donor), [1, 2]);
        });
        assert!(!x.hungry(), "the batch answered the only waiter");
    }

    #[test]
    fn finish_without_work_terminates_all() {
        let x = Exchange::new(1);
        let mut meter = FrontierCounters::default();
        assert!(x.acquire(true, &mut meter).is_none());
        assert!(x.stopped());
        assert_eq!(meter.shard_locks, 1);
    }

    #[test]
    fn blocking_acquire_wakes_on_push() {
        let x = Exchange::new(2);
        std::thread::scope(|s| {
            let helper = s.spawn(|| {
                let batch = x.acquire(false, &mut FrontierCounters::default());
                batch.map(|b| b.iter().map(|c| c.bound.0).collect::<Vec<_>>())
            });
            // The helper blocks (worker 0 is busy, no batch waits); a
            // donation must wake it.
            while !x.hungry() {
                std::thread::yield_now();
            }
            x.donate_from(&mut heap_of(&[8, 8]), 0, &mut FrontierCounters::default());
            assert_eq!(helper.join().unwrap(), Some(vec![8]));
        });
        assert!(!x.stopped(), "the helper holds a chain");
    }

    #[test]
    fn sharded_termination_under_contention() {
        // 4 workers fan out synthetic work through their own heaps and
        // the exchange until termination fires: a chain with bound b < 9
        // sprouts b+2 and b+3. Repeated to shake races out; every chain
        // is popped exactly once.
        fn tree(b: u64) -> u64 {
            1 + if b < 9 { tree(b + 2) + tree(b + 3) } else { 0 }
        }
        fn worker(x: &Exchange, w: usize) -> u64 {
            let mut heap = heap_of(if w == 0 { &[1][..] } else { &[] });
            let (mut meter, mut holds, mut popped) = (FrontierCounters::default(), w == 0, 0);
            loop {
                let Some(c) = heap.pop() else {
                    let Some(mut batch) = x.acquire(holds, &mut meter) else {
                        return popped;
                    };
                    heap.push_all(&mut batch);
                    holds = true;
                    continue;
                };
                popped += 1;
                if c.bound.0 < 9 {
                    heap.push_all(&mut vec![chain(c.bound.0 + 2), chain(c.bound.0 + 3)]);
                }
                if x.hungry() {
                    x.donate_from(&mut heap, 2, &mut meter);
                }
            }
        }
        for _ in 0..50 {
            let x = Exchange::new(4);
            let popped: u64 = std::thread::scope(|s| {
                let x = &x;
                let handles: Vec<_> = (0..4).map(|w| s.spawn(move || worker(x, w))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(popped, tree(1));
            assert!(x.stopped());
        }
    }
}
