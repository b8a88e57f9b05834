//! A fixed-capacity LRU residency set with O(1) touch and eviction.
//!
//! This is the list under both replacement policies of the
//! [`TrackCache`](crate::cache::TrackCache): the whole of
//! [`Lru`](crate::policy::Lru), the default, and each of
//! [`TwoQ`](crate::policy::TwoQ)'s two resident queues. It tracks *which*
//! pages are resident, not their contents (clause data always lives in
//! the store's page versions — the "disk"). Entries are kept in recency
//! order by an intrusive doubly-linked list over a slot vector, so
//! `touch` is a hash lookup plus pointer swaps.
//!
//! LRU is a stack algorithm: for any fixed access trace, the hit set at
//! capacity `k` is a subset of the hit set at capacity `k+1`. The paging
//! tests rely on that monotonicity.

use std::hash::Hash;

use crate::idhash::IdMap;

const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Slot<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// Outcome of one [`LruSet::touch`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Touch<K> {
    /// The key was resident; it is now most-recently used.
    Hit,
    /// The key was brought in; if the set was full, the least-recently
    /// used key was evicted to make room.
    Miss {
        /// The key evicted to make room, if the set was at capacity.
        evicted: Option<K>,
    },
}

impl<K> Touch<K> {
    /// Whether the touch was a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Touch::Hit)
    }
}

/// Fixed-capacity LRU set over copyable keys.
#[derive(Clone, Debug)]
pub struct LruSet<K: Eq + Hash + Copy> {
    capacity: usize,
    /// Keys are store-assigned (track ids), so a fixed hash is safe.
    map: IdMap<K, usize>,
    slots: Vec<Slot<K>>,
    /// Most-recently used slot.
    head: usize,
    /// Least-recently used slot.
    tail: usize,
    free: Vec<usize>,
}

impl<K: Eq + Hash + Copy> LruSet<K> {
    /// An empty set holding at most `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruSet capacity must be nonzero");
        LruSet {
            capacity,
            map: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is resident (does not affect recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Touch `key`: a resident key becomes most-recently used; an absent
    /// key is inserted, evicting the least-recently used key when full.
    pub fn touch(&mut self, key: K) -> Touch<K> {
        if self.promote(&key) {
            return Touch::Hit;
        }
        let evicted = if self.map.len() == self.capacity {
            self.pop_lru()
        } else {
            None
        };
        self.insert_mru(key);
        Touch::Miss { evicted }
    }

    /// Move a resident `key` to most-recently used; `false` if absent.
    ///
    /// This is the hit half of [`touch`](Self::touch), split out so
    /// replacement policies (see [`crate::policy`]) can drive the list
    /// step by step instead of through `touch`'s all-in-one transition.
    pub fn promote(&mut self, key: &K) -> bool {
        match self.map.get(key) {
            Some(&slot) => {
                self.unlink(slot);
                self.push_front(slot);
                true
            }
            None => false,
        }
    }

    /// Insert an absent `key` at the most-recently-used position without
    /// evicting anything.
    ///
    /// # Panics
    /// Panics if `key` is already resident or the set is at capacity —
    /// callers split insertion from eviction (via
    /// [`pop_lru`](Self::pop_lru)) and must make room first.
    pub fn insert_mru(&mut self, key: K) {
        assert!(!self.map.contains_key(&key), "insert_mru: key resident");
        assert!(self.map.len() < self.capacity, "insert_mru: set full");
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.slots.push(Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Remove and return the least-recently-used key, if any.
    pub fn pop_lru(&mut self) -> Option<K> {
        if self.tail == NIL {
            return None;
        }
        let lru = self.tail;
        let victim = self.slots[lru].key;
        self.unlink(lru);
        self.map.remove(&victim);
        self.free.push(lru);
        Some(victim)
    }

    /// Drop every resident key.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Resident keys from most- to least-recently used.
    pub fn iter_mru(&self) -> impl Iterator<Item = &K> {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let slot = &self.slots[cursor];
            cursor = slot.next;
            Some(&slot.key)
        })
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_hits_and_misses() {
        let mut lru = LruSet::new(2);
        assert_eq!(lru.touch(1), Touch::Miss { evicted: None });
        assert_eq!(lru.touch(2), Touch::Miss { evicted: None });
        assert_eq!(lru.touch(1), Touch::Hit);
        // 2 is now LRU; inserting 3 evicts it.
        assert_eq!(lru.touch(3), Touch::Miss { evicted: Some(2) });
        assert!(lru.contains(&1));
        assert!(!lru.contains(&2));
        assert!(lru.contains(&3));
    }

    #[test]
    fn recency_order_is_maintained() {
        let mut lru = LruSet::new(3);
        for k in [10, 20, 30] {
            lru.touch(k);
        }
        lru.touch(10); // order now 10, 30, 20
        let order: Vec<i32> = lru.iter_mru().copied().collect();
        assert_eq!(order, vec![10, 30, 20]);
        assert_eq!(lru.touch(40), Touch::Miss { evicted: Some(20) });
    }

    #[test]
    fn capacity_one_thrashes() {
        let mut lru = LruSet::new(1);
        assert_eq!(lru.touch('a'), Touch::Miss { evicted: None });
        assert_eq!(lru.touch('a'), Touch::Hit);
        assert_eq!(lru.touch('b'), Touch::Miss { evicted: Some('a') });
        assert_eq!(lru.touch('a'), Touch::Miss { evicted: Some('b') });
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut lru = LruSet::new(2);
        lru.touch(1);
        lru.touch(2);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.touch(1), Touch::Miss { evicted: None });
    }

    #[test]
    fn lru_is_a_stack_algorithm() {
        // For a fixed trace, every hit at capacity k is a hit at k+1.
        let trace: Vec<u32> = [1, 2, 3, 1, 4, 2, 5, 1, 2, 3, 4, 5, 1, 1, 2, 6, 3]
            .into_iter()
            .cycle()
            .take(200)
            .collect();
        let hits_at = |cap: usize| -> Vec<bool> {
            let mut lru = LruSet::new(cap);
            trace.iter().map(|&k| lru.touch(k).is_hit()).collect()
        };
        for cap in 1..8 {
            let small = hits_at(cap);
            let large = hits_at(cap + 1);
            for (i, (s, l)) in small.iter().zip(&large).enumerate() {
                assert!(
                    !s || *l,
                    "access {i}: hit at cap {cap} but miss at {}",
                    cap + 1
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = LruSet::<u32>::new(0);
    }

    #[test]
    fn split_primitives_compose_to_touch() {
        // promote / pop_lru / insert_mru must reproduce touch's behavior
        // when sequenced the way the Lru policy sequences them.
        let mut whole = LruSet::new(2);
        let mut split = LruSet::new(2);
        for k in [1u32, 2, 1, 3, 2, 3, 1] {
            let expected = whole.touch(k);
            let got = if split.promote(&k) {
                Touch::Hit
            } else {
                let evicted = if split.len() == split.capacity() {
                    split.pop_lru()
                } else {
                    None
                };
                split.insert_mru(k);
                Touch::Miss { evicted }
            };
            assert_eq!(expected, got, "diverged at key {k}");
        }
        let a: Vec<u32> = whole.iter_mru().copied().collect();
        let b: Vec<u32> = split.iter_mru().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn pop_lru_empties_in_reverse_recency() {
        let mut lru = LruSet::new(3);
        for k in [1, 2, 3] {
            lru.touch(k);
        }
        lru.promote(&1); // order: 1, 3, 2
        assert_eq!(lru.pop_lru(), Some(2));
        assert_eq!(lru.pop_lru(), Some(3));
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    #[should_panic(expected = "set full")]
    fn insert_mru_rejects_overflow() {
        let mut lru = LruSet::new(1);
        lru.insert_mru(1);
        lru.insert_mru(2);
    }
}
