//! The minimum-seeking network.
//!
//! "Several circuits have been presented which can very efficiently find
//! a minimum, one of which is a tree where each node selects the minimum
//! of its descendants and passes that to its parent. A priority circuit
//! can be implemented in a tree-shaped carry-lookahead circuit." (§6)
//!
//! [`MinSeekTree`] is that comparator tree: one leaf per processor
//! holding the bound of its cheapest unexpanded chain, `N − 1` internal
//! comparators, updates propagating along one root path. The DES in
//! [`crate::machine`] keeps one of these synchronized with the processor
//! pools, so "the minimum seeking network keeps track of the lowest
//! bound of the chains not yet expanded" is literally a data structure
//! here, and its depth gives the network's decision latency.
//!
//! The priority circuit has no structure of its own: it is the order in
//! which the DES offers work to idle tasks (`Sim::wake_idle` in
//! [`crate::machine`]), lowest processor, then lowest task, first. The
//! same lowest-index rule breaks the tree's ties.

/// The "no chain" sentinel: an empty processor reports this bound.
pub const EMPTY: u64 = u64::MAX;

/// A comparator tree over per-processor minimum bounds.
#[derive(Clone, Debug)]
pub struct MinSeekTree {
    n_leaves: usize,
    /// Heap-layout tree: `tree[1]` is the root; leaves occupy
    /// `base..base + n_leaves`. Each node holds `(bound, leaf)`.
    tree: Vec<(u64, u32)>,
    base: usize,
    comparisons: u64,
    updates: u64,
}

impl MinSeekTree {
    /// A tree for `n` processors, all initially empty.
    pub fn new(n: usize) -> MinSeekTree {
        assert!(n >= 1);
        let base = n.next_power_of_two();
        let mut tree = vec![(EMPTY, 0u32); 2 * base];
        for leaf in 0..base {
            tree[base + leaf] = (EMPTY, leaf as u32);
        }
        // Initialize internal nodes (all EMPTY, lowest leaf wins ties).
        for i in (1..base).rev() {
            tree[i] = std::cmp::min(tree[2 * i], tree[2 * i + 1]);
        }
        MinSeekTree {
            n_leaves: n,
            tree,
            base,
            comparisons: 0,
            updates: 0,
        }
    }

    /// Number of leaves (processors).
    pub fn len(&self) -> usize {
        self.n_leaves
    }

    /// Whether the tree has no leaves (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n_leaves == 0
    }

    /// Comparator count of the hardware (internal nodes).
    pub fn comparator_count(&self) -> usize {
        self.base - 1
    }

    /// Stages a value ripples through — the network's decision latency in
    /// units of one comparator delay.
    pub fn depth(&self) -> u32 {
        self.base.trailing_zeros()
    }

    /// Publish processor `leaf`'s new minimum bound (`EMPTY` when its
    /// pool is empty). One root path of comparators re-evaluates, which
    /// is exactly what the hardware tree does per update.
    pub fn update(&mut self, leaf: usize, bound: u64) {
        assert!(leaf < self.n_leaves, "no such processor");
        self.updates += 1;
        let mut i = self.base + leaf;
        self.tree[i] = (bound, leaf as u32);
        while i > 1 {
            i /= 2;
            self.tree[i] = std::cmp::min(self.tree[2 * i], self.tree[2 * i + 1]);
            self.comparisons += 1;
        }
    }

    /// The global minimum: `(bound, processor)`, or `None` when every
    /// pool is empty. Ties go to the lowest processor index (the same
    /// fixed ordering the priority circuit uses).
    pub fn min(&self) -> Option<(u64, u32)> {
        let (b, leaf) = self.tree[1];
        if b == EMPTY {
            None
        } else {
            Some((b, leaf))
        }
    }

    /// Total comparator evaluations so far (hardware activity).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Updates published so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_reports_none() {
        let t = MinSeekTree::new(5);
        assert!(t.min().is_none());
        assert_eq!(t.comparator_count(), 7); // padded to 8 leaves
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn update_and_min() {
        let mut t = MinSeekTree::new(4);
        t.update(2, 50);
        assert_eq!(t.min(), Some((50, 2)));
        t.update(0, 30);
        assert_eq!(t.min(), Some((30, 0)));
        t.update(0, EMPTY);
        assert_eq!(t.min(), Some((50, 2)));
    }

    #[test]
    fn ties_go_to_lowest_processor() {
        let mut t = MinSeekTree::new(4);
        t.update(3, 10);
        t.update(1, 10);
        assert_eq!(t.min(), Some((10, 1)));
        t.update(0, 10);
        assert_eq!(t.min(), Some((10, 0)));
    }

    #[test]
    fn matches_naive_scan_under_random_updates() {
        use blog_core::util::SplitMix64;
        let n = 7;
        let mut t = MinSeekTree::new(n);
        let mut naive = vec![EMPTY; n];
        let mut rng = SplitMix64::new(99);
        for _ in 0..2_000 {
            let leaf = rng.below(n);
            let value = if rng.below(4) == 0 {
                EMPTY
            } else {
                rng.next_u64() % 1000
            };
            t.update(leaf, value);
            naive[leaf] = value;
            let expect = naive
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != EMPTY)
                .min_by_key(|(i, &v)| (v, *i))
                .map(|(i, &v)| (v, i as u32));
            assert_eq!(t.min(), expect);
        }
        assert!(t.comparisons() > 0);
        assert_eq!(t.updates(), 2_000);
    }

    #[test]
    fn single_leaf_tree_works() {
        let mut t = MinSeekTree::new(1);
        assert!(t.min().is_none());
        t.update(0, 7);
        assert_eq!(t.min(), Some((7, 0)));
        assert_eq!(t.comparator_count(), 0);
    }

    #[test]
    fn depths_scale_logarithmically() {
        assert_eq!(MinSeekTree::new(2).depth(), 1);
        assert_eq!(MinSeekTree::new(16).depth(), 4);
        assert_eq!(MinSeekTree::new(17).depth(), 5);
    }
}
