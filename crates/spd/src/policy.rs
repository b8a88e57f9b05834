//! Pluggable page-replacement policies for the SPD caches.
//!
//! PR 1's T6b capacity sweep showed why replacement must be a seam, not a
//! hard-coded list: best-first expansion streams over most of the clause
//! database between revisits of any one track, and against that scan
//! pattern pure LRU gets *no* benefit from extra capacity until the whole
//! database fits (hit-rate cliff at the working-set boundary).
//! [`ReplacementPolicy`] abstracts the residency decision so the clause
//! store's [`TrackCache`](crate::cache::TrackCache) can swap algorithms
//! per workload:
//!
//! | Policy | Structure | Strength |
//! |---|---|---|
//! | [`Lru`] | recency list | general-purpose; exact stack algorithm; the default |
//! | [`TwoQ`] | A1in FIFO + A1out ghosts (lazily deleted) + Am LRU | scan-resistant: one-touch pages die in A1in, re-referenced pages earn Am |
//!
//! The trait splits the cache transition into `touch` (hit bookkeeping),
//! `evict_candidate` (victim selection) and `admit` (insertion), with a
//! provided [`access`](ReplacementPolicy::access) that sequences them.
//! The policies count nothing: the cache's
//! [`PagedStoreStats`](crate::paged::PagedStoreStats) is the one count of
//! its traffic. The property suite in `tests/policy_props.rs` checks
//! every implementation against a brute-force reference model on
//! arbitrary traces.
//!
//! A track cache calls its policy under the mutex every missing reader
//! waits on, so no step here walks a queue: each is O(1), amortized for
//! 2Q's ghost queue (see [`TwoQ`]).

use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;

use serde::Serialize;

use crate::idhash::IdMap;
use crate::lru::{LruSet, Touch};

/// A fixed-capacity residency set with a replacement algorithm.
///
/// The contract, checked by `tests/policy_props.rs`:
///
/// - no more keys are resident at any time than the capacity it was
///   built with;
/// - [`touch`](Self::touch) updates recency state for a *resident* key and
///   reports whether it was resident — it never admits. On a miss it may
///   record admission-routing state *keyed to that key* (2Q's ghost
///   promotion), consumed by a later `admit` of the same key; admitting
///   other keys in between is safe;
/// - [`evict_candidate`](Self::evict_candidate) removes and returns a
///   victim **only** when the set is full (so that one `admit` fits), and
///   the victim was resident immediately before the call;
/// - [`admit`](Self::admit) inserts an absent key; callers make room
///   first. [`access`](Self::access) is the canonical sequencing.
pub trait ReplacementPolicy<K: Eq + Hash + Copy>: fmt::Debug + Send {
    /// Number of resident keys.
    fn len(&self) -> usize;

    /// Whether no keys are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is resident (must not affect recency state).
    fn contains(&self, key: &K) -> bool;

    /// Record an access to `key`; returns `true` (a hit) iff it was
    /// resident, updating whatever recency state the algorithm keeps.
    fn touch(&mut self, key: K) -> bool;

    /// If the set is full, remove and return the key the algorithm
    /// sacrifices to make room for one admission; `None` while below
    /// capacity.
    fn evict_candidate(&mut self) -> Option<K>;

    /// Insert the absent `key` as resident.
    ///
    /// # Panics
    /// Implementations may panic if `key` is already resident or the set
    /// is full (both are caller bugs — see [`access`](Self::access)).
    fn admit(&mut self, key: K);

    /// The resident keys, in unspecified order (diagnostic/testing aid).
    fn resident_keys(&self) -> Vec<K>;

    /// One full cache transition: touch, then on a miss evict-if-full and
    /// admit. The track cache calls this and nothing else.
    fn access(&mut self, key: K) -> Touch<K> {
        if self.touch(key) {
            return Touch::Hit;
        }
        let evicted = self.evict_candidate();
        self.admit(key);
        Touch::Miss { evicted }
    }
}

/// Which replacement algorithm a paged store should run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize)]
pub enum PolicyKind {
    /// Exact least-recently-used ([`Lru`]).
    Lru,
    /// Scan-resistant 2Q ([`TwoQ`]).
    TwoQ,
}

impl PolicyKind {
    /// Every selectable policy, in display order.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::TwoQ];

    /// Short name, matching [`parse`](Self::parse).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::TwoQ => "2q",
        }
    }

    /// Parse a CLI spelling (`lru`, `2q`/`twoq`), case-insensitively.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Some(PolicyKind::Lru),
            "2q" | "twoq" => Some(PolicyKind::TwoQ),
            _ => None,
        }
    }

    /// Construct a fresh policy instance of this kind.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn build<K: Eq + Hash + Copy + fmt::Debug + Send + 'static>(
        self,
        capacity: usize,
    ) -> Box<dyn ReplacementPolicy<K>> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new(capacity)),
            PolicyKind::TwoQ => Box::new(TwoQ::new(capacity)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Exact least-recently-used replacement — the clause store's default —
/// over an [`LruSet`].
#[derive(Clone, Debug)]
pub struct Lru<K: Eq + Hash + Copy> {
    set: LruSet<K>,
}

impl<K: Eq + Hash + Copy> Lru<K> {
    /// An empty cache of `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Lru {
            set: LruSet::new(capacity),
        }
    }
}

impl<K: Eq + Hash + Copy + fmt::Debug + Send> ReplacementPolicy<K> for Lru<K> {
    fn len(&self) -> usize {
        self.set.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.set.contains(key)
    }

    fn touch(&mut self, key: K) -> bool {
        self.set.promote(&key)
    }

    fn evict_candidate(&mut self) -> Option<K> {
        if self.set.len() == self.set.capacity() {
            self.set.pop_lru()
        } else {
            None
        }
    }

    fn admit(&mut self, key: K) {
        self.set.insert_mru(key);
    }

    fn resident_keys(&self) -> Vec<K> {
        self.set.iter_mru().copied().collect()
    }
}

// ---------------------------------------------------------------------------
// 2Q
// ---------------------------------------------------------------------------

/// Scan-resistant 2Q replacement (Johnson & Shasha, VLDB '94, "full
/// version").
///
/// Resident keys live in one of two queues whose combined size is bounded
/// by the capacity:
///
/// - **A1in** — a FIFO holding first-touch admissions. A scan's
///   once-only pages enter here, march through, and fall off without ever
///   disturbing the hot set.
/// - **Am** — an LRU holding keys that proved their reuse: a key enters
///   Am only when it misses *while its ghost is still remembered in
///   A1out*.
///
/// **A1out** is a bounded FIFO of evicted-from-A1in *keys only* (ghosts —
/// they hold no data and do not count against capacity). It is the
/// algorithm's memory of "recently seen exactly once": a re-reference
/// within the ghost window is evidence of a reuse distance short enough
/// to protect, which a plain LRU cannot distinguish from scan traffic.
///
/// Tuning: `Kin` (A1in's nominal share) is the paper's 25% of capacity;
/// `Kout` (ghost window) is a **full capacity** of ghosts rather than the
/// paper's 50%. Ghosts store a key and nothing else, so the cost is
/// negligible, and the longer memory is what lets the window span the
/// database-wide scans best-first generates between hot-track revisits
/// (ARC makes the same trade with its ghost lists).
///
/// The ghost FIFO forgets by lazy deletion, so no step scans it while
/// the track cache's mutex is held. Every queued ghost carries a sequence
/// number, and the membership map holds the number of each *live*
/// ghost's entry. Forgetting a ghost (it missed again, or a prefetch
/// re-admitted it) removes it from the map alone; its queue entry goes
/// stale and is skipped when it reaches the front. The window slides by
/// popping the front until at most `Kout` ghosts are live, and the queue
/// is compacted once it holds more than `2·Kout` entries, so it never
/// grows past that. The live ghosts, and their order, are exactly those
/// of a FIFO that removed a forgotten ghost on the spot.
#[derive(Clone, Debug)]
pub struct TwoQ<K: Eq + Hash + Copy> {
    capacity: usize,
    /// Nominal A1in share; eviction drains A1in while it exceeds this.
    kin: usize,
    /// Ghost window length.
    kout: usize,
    /// First-touch FIFO (never promoted on hit).
    a1in: LruSet<K>,
    /// Proven-reuse LRU.
    am: LruSet<K>,
    /// Ghost FIFO of `(key, sequence number)`: front = oldest. An entry
    /// is live iff `ghost_set` maps its key to its number.
    a1out: VecDeque<(K, u64)>,
    /// Live ghosts: key -> sequence number of its queue entry.
    ghost_set: IdMap<K, u64>,
    /// Sequence number of the next remembered ghost.
    next_ghost: u64,
    /// Set by a [`touch`](ReplacementPolicy::touch) miss that found its
    /// key ghosted: a following `admit` of *that key* goes to Am.
    /// Resolved at miss time because the eviction making room may slide
    /// the ghost window past the key being admitted; keyed so an
    /// interleaved miss or prefetch admission of a different key can
    /// never consume another key's promotion.
    pending_am: Option<K>,
}

impl<K: Eq + Hash + Copy> TwoQ<K> {
    /// An empty 2Q cache of `capacity` resident keys.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TwoQ capacity must be nonzero");
        TwoQ {
            capacity,
            kin: (capacity / 4).max(1),
            kout: capacity,
            // Each queue is sized to the whole capacity: the *combined*
            // occupancy is what the policy bounds, and either queue may
            // transiently own every frame (e.g. a pure scan fills A1in).
            a1in: LruSet::new(capacity),
            am: LruSet::new(capacity),
            a1out: VecDeque::new(),
            ghost_set: IdMap::default(),
            next_ghost: 0,
            pending_am: None,
        }
    }

    /// Number of ghost keys currently remembered (testing aid).
    pub fn ghost_len(&self) -> usize {
        self.ghost_set.len()
    }

    /// Number of entries in the ghost queue, live and stale (testing
    /// aid): never more than twice the ghost window.
    pub fn ghost_queue_len(&self) -> usize {
        self.a1out.len()
    }

    fn is_live(&self, &(key, seq): &(K, u64)) -> bool {
        self.ghost_set.get(&key) == Some(&seq)
    }

    fn remember_ghost(&mut self, key: K) {
        let seq = self.next_ghost;
        self.next_ghost += 1;
        self.a1out.push_back((key, seq));
        self.ghost_set.insert(key, seq);
        while self.ghost_set.len() > self.kout {
            let oldest = self.a1out.pop_front().expect("a live ghost is queued");
            if self.is_live(&oldest) {
                self.ghost_set.remove(&oldest.0);
            }
        }
        if self.a1out.len() > 2 * self.kout {
            // At least `kout` entries are stale: dropping them all pays
            // for this pass before the queue can grow this long again.
            let mut queue = std::mem::take(&mut self.a1out);
            queue.retain(|entry| self.is_live(entry));
            self.a1out = queue;
        }
    }

    fn forget_ghost(&mut self, key: &K) -> bool {
        self.ghost_set.remove(key).is_some()
    }
}

impl<K: Eq + Hash + Copy + fmt::Debug + Send> ReplacementPolicy<K> for TwoQ<K> {
    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.a1in.contains(key) || self.am.contains(key)
    }

    fn touch(&mut self, key: K) -> bool {
        // Am hit: promote. A1in hit: leave in place — promotion out of
        // A1in happens only via the ghost path, which is what makes a
        // single scan unable to fabricate "hotness".
        if self.am.promote(&key) || self.a1in.contains(&key) {
            return true;
        }
        // Miss: resolve the admission route *now*, while the ghost
        // window still reflects the state at miss time.
        self.pending_am = self.forget_ghost(&key).then_some(key);
        false
    }

    fn evict_candidate(&mut self) -> Option<K> {
        if self.len() < self.capacity {
            return None;
        }
        // Drain A1in while it holds more than its nominal share (or Am
        // has nothing to give); evicted first-touch keys leave a ghost.
        if !self.a1in.is_empty() && (self.a1in.len() > self.kin || self.am.is_empty()) {
            let victim = self.a1in.pop_lru().expect("nonempty A1in");
            self.remember_ghost(victim);
            Some(victim)
        } else {
            // Am victims leave no ghost: their reuse was already proven
            // once; if they come back they re-qualify through A1in.
            self.am.pop_lru()
        }
    }

    fn admit(&mut self, key: K) {
        assert!(self.len() < self.capacity, "TwoQ::admit: set full");
        // Route decided by the preceding `touch` miss of this same key
        // (the `access` sequencing). The trait also allows an admit with
        // no touch before it (a prefetch: `evict_candidate`, then
        // `admit`); such a key counts as a first touch and lands in
        // A1in. Either way the key's ghost (already consumed on the
        // touch path, possibly stale on the prefetch path) must go:
        // resident and ghost sets stay disjoint.
        if self.pending_am == Some(key) {
            self.pending_am = None;
            self.am.insert_mru(key);
        } else {
            // A pending promotion for a *different* key survives: a
            // prefetch admission in between must not eat it.
            self.forget_ghost(&key);
            self.a1in.insert_mru(key);
        }
    }

    fn resident_keys(&self) -> Vec<K> {
        self.a1in
            .iter_mru()
            .chain(self.am.iter_mru())
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay `trace` through a fresh policy of `kind`; returns hit flags.
    fn hits(kind: PolicyKind, capacity: usize, trace: &[u32]) -> Vec<bool> {
        let mut p = kind.build::<u32>(capacity);
        trace.iter().map(|&k| p.access(k).is_hit()).collect()
    }

    #[test]
    fn lru_policy_matches_lru_set() {
        let trace: Vec<u32> = [1, 2, 3, 1, 4, 2, 5, 1, 2, 3, 4, 5, 1, 1, 2, 6, 3]
            .into_iter()
            .cycle()
            .take(120)
            .collect();
        for cap in 1..6 {
            let mut set = LruSet::new(cap);
            let mut policy = Lru::new(cap);
            for &k in &trace {
                assert_eq!(set.touch(k), policy.access(k), "cap {cap} key {k}");
            }
        }
    }

    #[test]
    fn all_policies_obey_capacity_and_counters() {
        let trace: Vec<u32> = (0..200u32).map(|i| (i * 7 + i / 3) % 23).collect();
        for kind in PolicyKind::ALL {
            for cap in [1, 2, 5, 23] {
                let mut p = kind.build::<u32>(cap);
                let (mut misses, mut evictions) = (0, 0);
                for &k in &trace {
                    if let Touch::Miss { evicted } = p.access(k) {
                        misses += 1;
                        evictions += usize::from(evicted.is_some());
                    }
                    assert!(p.len() <= cap, "{kind} exceeded capacity {cap}");
                    assert!(p.contains(&k), "{kind}: just-accessed key absent");
                }
                // Every miss admitted one key; each eviction made room
                // for one of them.
                assert_eq!(misses, p.len() + evictions, "{kind}");
                assert_eq!(p.resident_keys().len(), p.len(), "{kind}");
            }
        }
    }

    #[test]
    fn everything_hits_when_capacity_covers_the_keyspace() {
        // With capacity >= distinct keys, no policy may ever evict, so
        // every policy produces the identical (compulsory-miss-only)
        // behavior.
        let trace: Vec<u32> = (0..90u32).map(|i| i % 9).collect();
        for kind in PolicyKind::ALL {
            let h = hits(kind, 9, &trace);
            let miss_count = h.iter().filter(|&&b| !b).count();
            assert_eq!(miss_count, 9, "{kind}: only compulsory misses");
            let mut p = kind.build::<u32>(9);
            for &k in &trace {
                let touch = p.access(k);
                assert!(
                    !matches!(touch, Touch::Miss { evicted: Some(_) }),
                    "{kind}: evicted below the keyspace"
                );
            }
        }
    }

    #[test]
    fn two_q_survives_a_scan_lru_does_not() {
        // Hot set {0,1} re-referenced around one-touch scan traffic.
        // LRU at capacity 4 loses the hot pair to the scan; 2Q parks the
        // scan in A1in and promotes the proven-hot keys to Am.
        let mut trace = Vec::new();
        let mut cold = 100u32;
        for _ in 0..40 {
            trace.push(0);
            trace.push(1);
            for _ in 0..6 {
                trace.push(cold);
                cold += 1;
            }
        }
        let count_hits = |kind: PolicyKind| hits(kind, 4, &trace).iter().filter(|&&b| b).count();
        let lru = count_hits(PolicyKind::Lru);
        let twoq = count_hits(PolicyKind::TwoQ);
        assert!(
            twoq > lru,
            "2Q should beat LRU on scan+hot mix: 2q={twoq} lru={lru}"
        );
    }

    #[test]
    fn two_q_prefetch_admit_drops_stale_ghost() {
        // The trait lets a key be admitted with no touch before it (a
        // prefetch: `evict_candidate`, then `admit`). Re-admitting a key
        // whose ghost is still remembered that way must drop the ghost,
        // or the ghost queue and its membership set drift apart on the
        // key's next eviction.
        let mut p = TwoQ::new(4); // kin = 1
        for k in [1u32, 2, 3, 4, 5] {
            p.access(k); // 1 evicted to the ghosts; A1in: [5, 4, 3, 2]
        }
        assert!(!p.contains(&1));
        assert_eq!(p.ghost_len(), 1);
        // Prefetch-style re-admission of the ghosted key.
        assert_eq!(p.evict_candidate(), Some(2)); // ghost: [1, 2]
        p.admit(1);
        assert!(p.contains(&1));
        assert_eq!(p.ghost_len(), 1, "stale ghost of 1 must be dropped");
    }

    #[test]
    fn two_q_ghost_window_is_bounded() {
        let mut p = TwoQ::new(4); // kout = 4
        for k in 0..50u32 {
            p.access(k);
        }
        assert!(p.ghost_len() <= 4, "ghosts {} > kout", p.ghost_len());
    }

    #[test]
    fn two_q_promotes_through_the_ghost_path() {
        let mut p = TwoQ::new(4); // kin = 1, kout = 4
        for k in [1u32, 2, 3, 4] {
            p.access(k); // A1in: [4, 3, 2, 1]
        }
        p.access(5); // evicts 1 to the ghosts, A1in: [5, 4, 3, 2]
        assert!(!p.contains(&1));
        // 1 misses while ghosted: admitted straight into Am.
        assert!(!p.access(1).is_hit());
        assert!(p.contains(&1));
        // Scan traffic now churns A1in but cannot dislodge 1 from Am:
        // eviction drains A1in first while it exceeds its kin share.
        for k in 10..20u32 {
            p.access(k);
        }
        assert!(p.access(1).is_hit(), "Am key lost to scan traffic");
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("TwoQ"), Some(PolicyKind::TwoQ));
        assert_eq!(PolicyKind::parse("LRU"), Some(PolicyKind::Lru));
        assert_eq!(PolicyKind::parse("arc"), None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn two_q_zero_capacity_rejected() {
        let _ = TwoQ::<u32>::new(0);
    }
}
