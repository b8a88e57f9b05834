//! One hasher for keys the store assigns itself.
//!
//! The track caches' replacement policies look a [`TrackId`] up on every
//! clause touch, and candidate selection looks a `(functor, arity)`
//! predicate up on every expansion. `std`'s default SipHash defends a
//! map against keys an adversary picks; these keys are numbers the store
//! hands out, so that defence buys nothing and costs a SipHash round per
//! lookup. [`IdHasher`] is one multiply per word instead.
//!
//! Never key an [`IdMap`] by anything derived from client text — a fixed
//! hash would let crafted input force every key into one bucket.
//!
//! [`TrackId`]: crate::paged::TrackId

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher over integer words: add, then multiply by an
/// odd constant, so distinct small keys get distinct hashes. `finish`
/// rotates the well-mixed high bits down to where the table's bucket
/// index reads them.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct IdHasher(u64);

/// Odd, with its bits spread (the constant of rustc's hasher).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over store-assigned keys.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::TrackId;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn distinct_tracks_hash_apart() {
        let mut seen = HashSet::new();
        for sp in 0..16 {
            for cylinder in 0..256 {
                assert!(seen.insert(hash_of(TrackId { sp, cylinder })));
            }
        }
    }

    #[test]
    fn maps_over_tracks_behave_like_maps() {
        let mut map: IdMap<TrackId, usize> = IdMap::default();
        for i in 0..1000u32 {
            let track = TrackId {
                sp: i % 4,
                cylinder: i / 4,
            };
            map.insert(track, i as usize);
        }
        assert_eq!(map.len(), 1000);
        let last = TrackId {
            sp: 3,
            cylinder: 249,
        };
        assert_eq!(map[&last], 999);
    }
}
