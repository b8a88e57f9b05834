//! Compressed hierarchical clause-id bitmaps with popcount rank
//! navigation — the set representation behind the first-argument clause
//! index ([`bitidx`](crate::bitidx)).
//!
//! A [`ClauseBitmap`] whose ids all fall in one 64-id chunk — most of the
//! index's per-predicate, per-key sets — is that chunk's number and one
//! word, inline, no heap. Anything wider is a tree of two levels, in the
//! style of hierarchical sparse arrays (dense tree + rank-indexed
//! levels):
//!
//! - **Leaf words**: only the *nonzero* 64-bit words of the flat bitmap
//!   are stored, densely packed in ascending chunk order.
//! - **Summary level**: one bit per leaf chunk (so one summary word
//!   covers 64 × 64 = 4096 ids) saying whether that chunk has a stored
//!   leaf word, plus a cumulative-popcount `ranks` array. Locating a
//!   chunk's leaf word is `ranks[s] + popcount(summary[s] & below(bit))`
//!   — rank navigation, no search.
//!
//! Membership, insertion, and removal are `O(1)` popcount arithmetic
//! plus (for structural changes) a dense `Vec` shift — acceptable
//! because mutation happens only on store build and in write
//! transactions, never on the query path. The tree sits behind an `Arc`
//! and is copied by the first change after a clone, so cloning a bitmap
//! (a write transaction branching a predicate's index segment clones all
//! of that predicate's) never allocates.
//!
//! The query path reads a bitmap through [`iter`](ClauseBitmap::iter), or
//! two of them through [`union`](ClauseBitmap::union): set bits in
//! ascending order, nothing materialized in between. Ascending clause-id
//! order *is* program order (ids are allocated densely in insertion
//! order), which is the candidate-order contract every engine relies on.

use std::sync::Arc;

use blog_logic::ClauseId;

/// Ids per leaf word (one summary word therefore spans 64 × 64 ids).
const WORD_BITS: usize = 64;

/// A compressed set of clause ids. See the module docs for the layout.
#[derive(Clone, Debug)]
pub struct ClauseBitmap(Repr);

#[derive(Clone, Debug)]
enum Repr {
    /// Every id is in chunk `chunk`; `bits` is that chunk's leaf word
    /// (zero: the empty set, whatever `chunk` says).
    Word { chunk: usize, bits: u64 },
    /// Ids in two chunks or more.
    Tree(Arc<Tree>),
}

/// The two-level form. See the module docs.
#[derive(Clone, Default, Debug)]
struct Tree {
    /// Bit `c % 64` of `summary[c / 64]` is set iff leaf chunk `c` has a
    /// stored (nonzero) word. Trailing zero summary words are allowed
    /// (an insert far out grows the level; removals do not shrink it).
    summary: Vec<u64>,
    /// `ranks[s]` = number of stored leaf words before summary word `s`
    /// (cumulative popcount of `summary[..s]`).
    ranks: Vec<u32>,
    /// The nonzero leaf words, dense, in ascending chunk order.
    leaves: Vec<u64>,
    /// Cached set-bit count.
    len: u32,
}

impl Tree {
    /// The dense index of chunk `chunk`'s leaf word, if stored.
    fn leaf_index(&self, chunk: usize) -> Option<usize> {
        let (s, bit) = (chunk / WORD_BITS, chunk % WORD_BITS);
        let word = *self.summary.get(s)?;
        if word & (1u64 << bit) == 0 {
            return None;
        }
        let below = word & ((1u64 << bit) - 1);
        Some(self.ranks[s] as usize + below.count_ones() as usize)
    }

    fn contains(&self, chunk: usize, mask: u64) -> bool {
        self.leaf_index(chunk)
            .is_some_and(|li| self.leaves[li] & mask != 0)
    }

    /// Set the `mask` bits of chunk `chunk`, none of which is set yet.
    fn insert(&mut self, chunk: usize, mask: u64) {
        self.len += mask.count_ones();
        if let Some(li) = self.leaf_index(chunk) {
            self.leaves[li] |= mask;
            return;
        }
        // New chunk: grow the summary level if needed, splice the leaf
        // word in at its rank, and bump every later rank.
        let (s, bit) = (chunk / WORD_BITS, chunk % WORD_BITS);
        if s >= self.summary.len() {
            self.summary.resize(s + 1, 0);
            // Ranks of empty trailing words equal the total leaf count.
            self.ranks.resize(s + 1, self.leaves.len() as u32);
        }
        let below = self.summary[s] & ((1u64 << bit) - 1);
        let li = self.ranks[s] as usize + below.count_ones() as usize;
        self.leaves.insert(li, mask);
        self.summary[s] |= 1u64 << bit;
        for r in &mut self.ranks[s + 1..] {
            *r += 1;
        }
    }

    /// Clear bit `mask` of chunk `chunk`, which is set.
    fn remove(&mut self, chunk: usize, mask: u64) {
        let li = self.leaf_index(chunk).expect("the bit's chunk is stored");
        self.leaves[li] &= !mask;
        self.len -= 1;
        if self.leaves[li] == 0 {
            // Chunk emptied: unsplice the leaf and fix the ranks.
            let (s, bit) = (chunk / WORD_BITS, chunk % WORD_BITS);
            self.leaves.remove(li);
            self.summary[s] &= !(1u64 << bit);
            for r in &mut self.ranks[s + 1..] {
                *r -= 1;
            }
        }
    }
}

impl Default for ClauseBitmap {
    fn default() -> Self {
        ClauseBitmap(Repr::Word { chunk: 0, bits: 0 })
    }
}

/// The chunk of `id` and its bit in that chunk's word.
fn locate(id: ClauseId) -> (usize, u64) {
    let i = id.0 as usize;
    (i / WORD_BITS, 1u64 << (i % WORD_BITS))
}

impl ClauseBitmap {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from ascending (or arbitrary) ids.
    pub fn from_ids<I: IntoIterator<Item = ClauseId>>(ids: I) -> Self {
        let mut bm = Self::new();
        for id in ids {
            bm.insert(id);
        }
        bm
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Word { bits, .. } => bits.count_ones() as usize,
            Repr::Tree(tree) => tree.len as usize,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: ClauseId) -> bool {
        let (chunk, mask) = locate(id);
        match &self.0 {
            Repr::Word { chunk: c, bits } => *c == chunk && bits & mask != 0,
            Repr::Tree(tree) => tree.contains(chunk, mask),
        }
    }

    /// Insert `id`; returns whether it was newly inserted.
    pub fn insert(&mut self, id: ClauseId) -> bool {
        if self.contains(id) {
            return false;
        }
        let (chunk, mask) = locate(id);
        match &mut self.0 {
            Repr::Word { chunk: c, bits } if *bits == 0 || *c == chunk => {
                *c = chunk;
                *bits |= mask;
            }
            Repr::Word { chunk: c, bits } => {
                let mut tree = Tree::default();
                tree.insert(*c, *bits);
                tree.insert(chunk, mask);
                self.0 = Repr::Tree(Arc::new(tree));
            }
            Repr::Tree(tree) => Arc::make_mut(tree).insert(chunk, mask),
        }
        true
    }

    /// Remove `id`; returns whether it was present.
    pub fn remove(&mut self, id: ClauseId) -> bool {
        if !self.contains(id) {
            return false;
        }
        let (chunk, mask) = locate(id);
        match &mut self.0 {
            Repr::Word { bits, .. } => *bits &= !mask,
            Repr::Tree(tree) => Arc::make_mut(tree).remove(chunk, mask),
        }
        true
    }

    /// Iterate the set ids in ascending order.
    pub fn iter(&self) -> BitmapIter<'_> {
        match &self.0 {
            Repr::Word { chunk, bits } => BitmapIter {
                summary: &[],
                leaves: &[],
                s: 0,
                summary_rest: 0,
                chunk: *chunk,
                word_rest: *bits,
            },
            Repr::Tree(tree) => BitmapIter {
                summary: &tree.summary,
                leaves: &tree.leaves,
                s: 0,
                summary_rest: tree.summary.first().copied().unwrap_or(0),
                chunk: 0,
                word_rest: 0,
            },
        }
    }

    /// Lazy `self ∪ other`, ascending: the two walks merged, an id in
    /// both yielded once. Nothing is materialized until the caller
    /// collects.
    pub fn union<'a>(&'a self, other: &'a ClauseBitmap) -> impl Iterator<Item = ClauseId> + 'a {
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        std::iter::from_fn(move || match (a.peek().copied(), b.peek().copied()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    a.next();
                }
                if y <= x {
                    b.next();
                }
                Some(x.min(y))
            }
            (Some(_), None) => a.next(),
            (None, _) => b.next(),
        })
    }
}

/// Ascending iterator over one bitmap (walks the dense leaf array once;
/// rank navigation is implicit in the walk order).
#[derive(Debug)]
pub struct BitmapIter<'a> {
    /// The tree's levels; both empty for the inline form, whose one word
    /// starts out in `word_rest`.
    summary: &'a [u64],
    /// The leaf words not consumed yet.
    leaves: &'a [u64],
    /// Current summary word index.
    s: usize,
    /// Unconsumed bits of the current summary word.
    summary_rest: u64,
    /// Chunk of the word currently being drained.
    chunk: usize,
    /// Unconsumed bits of that word.
    word_rest: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = ClauseId;

    fn next(&mut self) -> Option<ClauseId> {
        loop {
            if self.word_rest != 0 {
                let bit = self.word_rest.trailing_zeros() as usize;
                self.word_rest &= self.word_rest - 1;
                return Some(ClauseId((self.chunk * WORD_BITS + bit) as u32));
            }
            while self.summary_rest == 0 {
                self.s += 1;
                if self.s >= self.summary.len() {
                    return None;
                }
                self.summary_rest = self.summary[self.s];
            }
            let bit = self.summary_rest.trailing_zeros() as usize;
            self.summary_rest &= self.summary_rest - 1;
            self.chunk = self.s * WORD_BITS + bit;
            let (word, rest) = self.leaves.split_first().expect("one leaf per summary bit");
            self.word_rest = *word;
            self.leaves = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ids(v: &[u32]) -> Vec<ClauseId> {
        v.iter().map(|&i| ClauseId(i)).collect()
    }

    fn collect(bm: &ClauseBitmap) -> Vec<u32> {
        bm.iter().map(|c| c.0).collect()
    }

    #[test]
    fn empty_bitmap_has_nothing() {
        let bm = ClauseBitmap::new();
        assert!(bm.is_empty());
        assert_eq!(bm.len(), 0);
        assert!(!bm.contains(ClauseId(0)));
        assert!(!bm.contains(ClauseId(100_000)));
        assert_eq!(collect(&bm), Vec::<u32>::new());
    }

    #[test]
    fn single_bit_trees() {
        // A lone bit at each structurally interesting position: word 0,
        // the last bit of a word, the first bit past a word edge, past a
        // summary-word edge, and far out (forcing empty summary words in
        // between — "empty levels").
        for pos in [0u32, 1, 63, 64, 65, 4095, 4096, 4097, 200_000] {
            let mut bm = ClauseBitmap::new();
            assert!(bm.insert(ClauseId(pos)));
            assert!(!bm.insert(ClauseId(pos)), "double insert at {pos}");
            assert_eq!(bm.len(), 1, "at {pos}");
            assert!(bm.contains(ClauseId(pos)));
            assert!(!bm.contains(ClauseId(pos ^ 1)), "at {pos}");
            assert_eq!(collect(&bm), vec![pos]);
            assert!(bm.remove(ClauseId(pos)));
            assert!(!bm.remove(ClauseId(pos)), "double remove at {pos}");
            assert!(bm.is_empty());
            assert_eq!(collect(&bm), Vec::<u32>::new());
        }
    }

    #[test]
    fn word_edge_63_64_65_navigation() {
        // 63 and 64 land in different leaf words of the same summary
        // word; ranks must route each to its own word.
        let mut bm = ClauseBitmap::from_ids(ids(&[63, 64, 65]));
        assert_eq!(bm.len(), 3);
        assert!(bm.contains(ClauseId(63)));
        assert!(bm.contains(ClauseId(64)));
        assert!(bm.contains(ClauseId(65)));
        assert!(!bm.contains(ClauseId(62)));
        assert!(!bm.contains(ClauseId(66)));
        assert_eq!(collect(&bm), vec![63, 64, 65]);
        // Remove the whole second word; 63 must survive untouched.
        assert!(bm.remove(ClauseId(64)));
        assert!(bm.remove(ClauseId(65)));
        assert_eq!(collect(&bm), vec![63]);
    }

    #[test]
    fn summary_edge_4095_4096_4097() {
        // 4095 is the last id of summary word 0; 4096 opens summary
        // word 1. Rank arithmetic must not leak between summary words.
        let bm = ClauseBitmap::from_ids(ids(&[4095, 4096, 4097]));
        assert_eq!(collect(&bm), vec![4095, 4096, 4097]);
        assert!(!bm.contains(ClauseId(4094)));
        assert!(!bm.contains(ClauseId(4098)));
    }

    #[test]
    fn out_of_order_inserts_iterate_ascending() {
        let bm = ClauseBitmap::from_ids(ids(&[500, 3, 64, 4097, 0, 63]));
        assert_eq!(collect(&bm), vec![0, 3, 63, 64, 500, 4097]);
    }

    #[test]
    fn empty_middle_summary_words_are_skipped() {
        // Ids only in summary words 0 and 3: words 1 and 2 stay zero and
        // both iteration and membership must skip them.
        let bm = ClauseBitmap::from_ids(ids(&[10, 3 * 4096 + 7]));
        assert_eq!(collect(&bm), vec![10, 3 * 4096 + 7]);
        assert!(!bm.contains(ClauseId(4096 + 10)));
        assert!(!bm.contains(ClauseId(2 * 4096 + 10)));
    }

    #[test]
    fn union_matches_btreeset_model() {
        let a_ids = [0u32, 1, 63, 64, 65, 127, 128, 4095, 4096, 9000];
        let b_ids = [1u32, 64, 127, 4096, 8999, 20_000];
        let a = ClauseBitmap::from_ids(ids(&a_ids));
        let b = ClauseBitmap::from_ids(ids(&b_ids));

        let sa: BTreeSet<u32> = a_ids.into_iter().collect();
        let sb: BTreeSet<u32> = b_ids.into_iter().collect();
        let want: Vec<u32> = sa.union(&sb).copied().collect();
        let got: Vec<u32> = a.union(&b).map(|x| x.0).collect();
        assert_eq!(got, want);
        let flipped: Vec<u32> = b.union(&a).map(|x| x.0).collect();
        assert_eq!(flipped, want);
    }

    #[test]
    fn union_with_empty_is_the_other_side() {
        let a = ClauseBitmap::from_ids(ids(&[1, 2, 3, 4096]));
        let empty = ClauseBitmap::new();
        assert_eq!(
            a.union(&empty).map(|x| x.0).collect::<Vec<_>>(),
            collect(&a)
        );
        assert_eq!(
            empty.union(&a).map(|x| x.0).collect::<Vec<_>>(),
            collect(&a)
        );
        assert_eq!(empty.union(&empty).count(), 0);
    }

    #[test]
    fn removal_keeps_ranks_consistent() {
        // Build three chunks, drop the middle one, and verify navigation
        // into the third still lands on the right word.
        let mut bm = ClauseBitmap::from_ids(ids(&[5, 70, 135]));
        assert!(bm.remove(ClauseId(70)));
        assert_eq!(collect(&bm), vec![5, 135]);
        assert!(bm.contains(ClauseId(135)));
        assert!(!bm.contains(ClauseId(70)));
        assert!(bm.insert(ClauseId(70)));
        assert_eq!(collect(&bm), vec![5, 70, 135]);
    }
}
