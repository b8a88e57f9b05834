//! Chains: root-to-frontier paths and their bounds.
//!
//! "Each chain from a leaf to the root is either a solution to the query
//! at the root or an unsuccessful search. Each arc in a chain represents a
//! decision made towards the solution" (§3). A [`Chain`] couples the
//! OR-tree node at its tip with the list of arcs (figure-4 pointers)
//! followed to reach it and the accumulated [`Bound`].
//!
//! Parent segments are shared via `Arc`, the software counterpart of the
//! multi-write copying memory the paper proposes for sprouting chains
//! cheaply (§6).

use std::sync::Arc;

use blog_logic::{PointerKey, SearchNode};

use crate::weight::{Bound, Weight};

/// One arc of a chain, linked toward the root.
#[derive(Debug)]
pub struct ChainLink {
    /// The figure-4 pointer this arc followed.
    pub arc: PointerKey,
    /// The weight charged when the arc was added (effective weight at
    /// expansion time; later updates do not retroactively re-sort the
    /// frontier — the paper's "approximation to true best-first").
    pub weight: Weight,
    /// The arc closer to the root, if any.
    pub parent: Option<Arc<ChainLink>>,
}

/// A chain: the tip node plus the path of arcs back to the root.
#[derive(Debug)]
pub struct Chain {
    /// Last (leafmost) arc; `None` for the root chain.
    pub last: Option<Arc<ChainLink>>,
    /// Sum of arc weights from the root (monotone along the chain).
    pub bound: Bound,
    /// The OR-tree node at the tip.
    pub node: SearchNode,
}

impl Chain {
    /// The root chain for a query.
    pub fn root(node: SearchNode) -> Chain {
        Chain {
            last: None,
            bound: Bound::ZERO,
            node,
        }
    }

    /// Extend this chain by one arc.
    pub fn extend(&self, arc: PointerKey, weight: Weight, node: SearchNode) -> Chain {
        Chain {
            last: Some(Arc::new(ChainLink {
                arc,
                weight,
                parent: self.last.clone(),
            })),
            bound: self.bound.plus(weight),
            node,
        }
    }

    /// Extend this chain's bound by one arc without recording the arc:
    /// for searches that never read a chain's arcs, so a sprout links no
    /// [`ChainLink`] and shares no link refcount. The result's arcs
    /// ([`arcs_leaf_to_root`](Self::arcs_leaf_to_root), [`len`](Self::len))
    /// are empty.
    pub(crate) fn extend_bound(&self, weight: Weight, node: SearchNode) -> Chain {
        Chain {
            last: None,
            bound: self.bound.plus(weight),
            node,
        }
    }

    /// Number of arcs from the root.
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = &self.last;
        while let Some(link) = cur {
            n += 1;
            cur = &link.parent;
        }
        n
    }

    /// Whether this chain records no arcs: the root, or a chain whose
    /// search reads no arcs (sprouted without recording them).
    pub fn is_empty(&self) -> bool {
        self.last.is_none()
    }

    /// The arcs from the **leaf to the root** (the natural traversal
    /// direction; the paper's failure rule wants "the unknown nearest the
    /// leaf", which is the first match in this order).
    pub fn arcs_leaf_to_root(&self) -> Vec<PointerKey> {
        let mut arcs = Vec::with_capacity(8);
        let mut cur = &self.last;
        while let Some(link) = cur {
            arcs.push(link.arc);
            cur = &link.parent;
        }
        arcs
    }

    /// The arcs from the **root to the leaf**.
    pub fn arcs_root_to_leaf(&self) -> Vec<PointerKey> {
        let mut arcs = self.arcs_leaf_to_root();
        arcs.reverse();
        arcs
    }

    /// Recompute the bound from the stored per-arc weights (used by tests
    /// to check the incremental bound never drifts).
    pub fn recomputed_bound(&self) -> Bound {
        let mut b = Bound::ZERO;
        let mut cur = &self.last;
        while let Some(link) = cur {
            b = b.plus(link.weight);
            cur = &link.parent;
        }
        b
    }
}

/// A chain waiting in a frontier heap, ordered by `key` alone:
/// `(priority, seq)`, where the monotone `seq` makes ties deterministic.
/// Wrap in `Reverse` for a min-heap.
pub struct Queued {
    /// `(priority, seq)`.
    pub key: (u64, u64),
    /// The waiting chain.
    pub chain: Chain,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::{Caller, ClauseId};

    fn key(t: u32) -> PointerKey {
        PointerKey {
            caller: Caller::Query,
            goal_idx: 0,
            target: ClauseId(t),
        }
    }

    fn dummy_node() -> SearchNode {
        SearchNode::root(&[])
    }

    #[test]
    fn root_chain_is_empty_with_zero_bound() {
        let c = Chain::root(dummy_node());
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.bound, Bound::ZERO);
        assert!(c.arcs_leaf_to_root().is_empty());
    }

    #[test]
    fn extend_accumulates_bound_and_arcs() {
        let c0 = Chain::root(dummy_node());
        let c1 = c0.extend(key(1), Weight::ONE, dummy_node());
        let c2 = c1.extend(key(2), Weight::from_bits_int(2), dummy_node());
        assert_eq!(c2.len(), 2);
        assert_eq!(c2.bound.to_f64(), 3.0);
        assert_eq!(c2.arcs_root_to_leaf(), vec![key(1), key(2)]);
        assert_eq!(c2.arcs_leaf_to_root(), vec![key(2), key(1)]);
    }

    #[test]
    fn sibling_chains_share_parent_links() {
        let c0 = Chain::root(dummy_node());
        let c1 = c0.extend(key(1), Weight::ONE, dummy_node());
        let a = c1.extend(key(2), Weight::ONE, dummy_node());
        let b = c1.extend(key(3), Weight::ONE, dummy_node());
        let pa = a.last.as_ref().unwrap().parent.as_ref().unwrap();
        let pb = b.last.as_ref().unwrap().parent.as_ref().unwrap();
        assert!(Arc::ptr_eq(pa, pb));
    }

    #[test]
    fn bound_matches_recomputation() {
        let c = Chain::root(dummy_node())
            .extend(key(1), Weight::from_f64(0.25), dummy_node())
            .extend(key(2), Weight::from_f64(1.5), dummy_node());
        assert_eq!(c.bound, c.recomputed_bound());
    }

    #[test]
    fn extend_bound_adds_weight_without_links() {
        let c1 = Chain::root(dummy_node()).extend(key(1), Weight::ONE, dummy_node());
        let c2 = c1.extend_bound(Weight::from_bits_int(2), dummy_node());
        assert_eq!(c2.bound.to_f64(), 3.0);
        assert!(c2.last.is_none(), "no arc recorded");
        assert_eq!(
            Arc::strong_count(c1.last.as_ref().unwrap()),
            1,
            "no link shared"
        );
    }

    #[test]
    fn extending_does_not_mutate_parent() {
        let c1 = Chain::root(dummy_node()).extend(key(1), Weight::ONE, dummy_node());
        let before = c1.bound;
        let _c2 = c1.extend(key(2), Weight::ONE, dummy_node());
        assert_eq!(c1.bound, before);
        assert_eq!(c1.len(), 1);
    }
}
