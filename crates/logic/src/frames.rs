//! Persistent binding frames — structure-sharing search state.
//!
//! Section 6 of the paper names "copying when chains are sprouted" as the
//! dominant software cost of frontier search and proposes a multi-write
//! copying memory to make sprouting cheap in hardware. This module is the
//! software counterpart: instead of cloning the whole binding store per
//! child, each OR-tree node holds an `Arc` to its parent's [`BindingFrame`]
//! plus only the bindings *its own* unification step wrote. Sprouting a
//! child is O(delta); siblings and ancestors share every older frame.
//!
//! Lookups chase the parent chain leaf-to-root (bindings are write-once in
//! SLD resolution, so the first hit wins and shadowing cannot occur). The
//! chain length is bounded: when freezing a delta would push it past a
//! configurable threshold, the new frame is *flattened* — every inherited
//! binding is copied into one root frame — trading one O(state) copy for
//! O(threshold)-bounded walks on all descendants until the next flatten.
//!
//! [`DeltaBindings`] is the mutable builder used during a single
//! unification attempt; it implements
//! [`BindingWrite`] so
//! [`unify`](crate::unify::unify) runs over it unchanged, and
//! [`freeze`](DeltaBindings::freeze)s into an immutable shared frame on
//! success.

use std::sync::Arc;

use crate::bindings::{BindingLookup, BindingWrite, Trail};
use crate::term::{Term, VarId};

/// Default frame-chain length at which [`DeltaBindings::freeze`] flattens.
///
/// Chosen so a walk touches at most a cache-line-friendly handful of small
/// sorted arrays; `tests/prop_state_repr.rs` holds the copying cost it
/// buys against per-child cloning in the deep regime.
pub const DEFAULT_FLATTEN_THRESHOLD: u32 = 16;

/// One immutable frame of a persistent binding chain.
///
/// A frame owns the bindings written by a single resolution step, sorted
/// by variable for binary search, plus an `Arc` to the frame of the parent
/// node (`None` for the root or a flattened frame).
#[derive(Debug)]
pub struct BindingFrame {
    /// The parent node's frame, shared with every sibling.
    parent: Option<Arc<BindingFrame>>,
    /// This step's writes, sorted by [`VarId`].
    writes: Box<[(VarId, Term)]>,
    /// Frames on the chain from here to the root, inclusive.
    chain_len: u32,
    /// Total bindings reachable through this frame (for flatten sizing
    /// and the bytes-copied accounting).
    total_bindings: u32,
}

impl BindingFrame {
    /// The empty root frame.
    pub fn root() -> Arc<BindingFrame> {
        Arc::new(BindingFrame {
            parent: None,
            writes: Box::from([]),
            chain_len: 1,
            total_bindings: 0,
        })
    }

    /// Number of frames on the chain from this frame to the root.
    pub fn chain_len(&self) -> u32 {
        self.chain_len
    }

    /// Total bindings reachable from this frame.
    pub fn total_bindings(&self) -> u32 {
        self.total_bindings
    }

    /// Whether this frame starts a chain (root or flattened).
    pub fn is_chain_start(&self) -> bool {
        self.parent.is_none()
    }

    /// Collect every reachable binding, leaf-to-root. Bindings are
    /// write-once so the union is disjoint.
    fn collect_all(&self, out: &mut Vec<(VarId, Term)>) {
        let mut frame = self;
        loop {
            out.extend(frame.writes.iter().cloned());
            match &frame.parent {
                Some(p) => frame = p,
                None => break,
            }
        }
    }
}

impl Drop for BindingFrame {
    /// Iterative unlink, like `GoalStack`'s: the derived drop would
    /// recurse once per frame, and a large `flatten_threshold` makes
    /// chains arbitrarily long. Walk the uniquely-owned prefix; the first
    /// shared ancestor just loses a refcount.
    fn drop(&mut self) {
        let mut cur = self.parent.take();
        while let Some(frame) = cur {
            match Arc::try_unwrap(frame) {
                Ok(mut f) => cur = f.parent.take(),
                Err(_) => break,
            }
        }
    }
}

impl BindingLookup for BindingFrame {
    fn lookup(&self, v: VarId) -> Option<&Term> {
        let mut frame = self;
        loop {
            if let Ok(i) = frame.writes.binary_search_by_key(&v, |(w, _)| *w) {
                return Some(&frame.writes[i].1);
            }
            match &frame.parent {
                Some(p) => frame = p,
                None => return None,
            }
        }
    }
}

/// What [`DeltaBindings::freeze`] did, for the bytes-copied accounting.
#[derive(Clone, Copy, Default, Debug)]
pub struct FreezeStats {
    /// Bindings written by this step (the delta).
    pub delta: u32,
    /// Inherited bindings copied because the freeze flattened (zero when
    /// the chain stayed within the threshold).
    pub flattened: u32,
}

/// Mutable binding overlay for one unification attempt on top of a parent
/// [`BindingFrame`].
///
/// Writes go to a small append-only vector (linear-scanned on lookup —
/// a head unification writes a handful of bindings at most); reads fall
/// through to the parent chain, except for *fresh* variables. On success,
/// [`freeze`](Self::freeze) produces the child's immutable frame; on
/// failure the delta is simply [`clear`](Self::clear)ed — nothing in the
/// shared chain was touched, so there is nothing to undo.
///
/// A variable at or above the node's `next_var` is fresh: renaming
/// allocates upward, so no frame on the parent chain binds it, and its
/// lookup reads only this attempt's own writes. Every renamed head
/// variable is fresh, which spares each of them a walk of up to
/// `flatten_threshold` parent frames that cannot bind it.
#[derive(Debug)]
pub struct DeltaBindings<'p> {
    parent: &'p Arc<BindingFrame>,
    /// The first variable no frame on the parent chain binds.
    next_var: u32,
    writes: Vec<(VarId, Term)>,
}

impl<'p> DeltaBindings<'p> {
    /// An empty delta over `parent`, for a node whose fresh variables
    /// start at `next_var` (no frame on the chain binds one of them).
    pub fn new(parent: &'p Arc<BindingFrame>, next_var: u32) -> Self {
        DeltaBindings::reusing(parent, next_var, Vec::new())
    }

    /// [`new`](Self::new), writing into `writes` (cleared first) so a
    /// search can keep one allocation across nodes; take it back with
    /// [`into_writes`](Self::into_writes).
    pub(crate) fn reusing(
        parent: &'p Arc<BindingFrame>,
        next_var: u32,
        mut writes: Vec<(VarId, Term)>,
    ) -> Self {
        writes.clear();
        DeltaBindings {
            parent,
            next_var,
            writes,
        }
    }

    /// The write buffer, for the next [`reusing`](Self::reusing).
    pub(crate) fn into_writes(self) -> Vec<(VarId, Term)> {
        self.writes
    }

    /// Number of bindings written so far.
    pub fn delta_len(&self) -> usize {
        self.writes.len()
    }

    /// Discard this attempt's writes, keeping the allocation for the next
    /// candidate.
    pub fn clear(&mut self) {
        self.writes.clear();
    }

    /// Freeze the delta into an immutable child frame, flattening when the
    /// chain would exceed `flatten_threshold` frames.
    ///
    /// The delta is drained (left empty and reusable); the returned
    /// [`FreezeStats`] says how many bindings were physically copied.
    pub fn freeze(&mut self, flatten_threshold: u32) -> (Arc<BindingFrame>, FreezeStats) {
        // Fact steps bind nothing: the child shares the parent frame
        // outright — no new frame, no chain growth, and no periodic
        // flatten re-copying inherited state for zero new information.
        if self.writes.is_empty() {
            return (Arc::clone(self.parent), FreezeStats::default());
        }
        let delta = self.writes.len() as u32;
        // A child of the root already has chain length 2, so thresholds
        // 0 and 1 mean "flatten every sprout".
        let child_chain = self.parent.chain_len + 1;
        if child_chain > flatten_threshold {
            // Flatten: one frame holding every reachable binding.
            let mut all: Vec<(VarId, Term)> =
                Vec::with_capacity(self.writes.len() + self.parent.total_bindings as usize);
            all.append(&mut self.writes);
            self.parent.collect_all(&mut all);
            let flattened = all.len() as u32 - delta;
            all.sort_unstable_by_key(|(v, _)| *v);
            debug_assert!(
                all.windows(2).all(|w| w[0].0 != w[1].0),
                "duplicate binding"
            );
            let total = all.len() as u32;
            let frame = Arc::new(BindingFrame {
                parent: None,
                writes: all.into_boxed_slice(),
                chain_len: 1,
                total_bindings: total,
            });
            (frame, FreezeStats { delta, flattened })
        } else {
            self.writes.sort_unstable_by_key(|(v, _)| *v);
            // Drain rather than take: the Vec keeps its allocation for
            // the caller's next candidate attempt.
            let writes: Box<[(VarId, Term)]> = self.writes.drain(..).collect();
            let frame = Arc::new(BindingFrame {
                chain_len: child_chain,
                total_bindings: self.parent.total_bindings + delta,
                writes,
                parent: Some(Arc::clone(self.parent)),
            });
            (
                frame,
                FreezeStats {
                    delta,
                    flattened: 0,
                },
            )
        }
    }
}

impl BindingLookup for DeltaBindings<'_> {
    fn lookup(&self, v: VarId) -> Option<&Term> {
        // Newest-first: within one attempt a variable is written once, but
        // scanning back-to-front is the natural trail order anyway.
        if let Some((_, t)) = self.writes.iter().rev().find(|(w, _)| *w == v) {
            return Some(t);
        }
        if v.0 >= self.next_var {
            return None;
        }
        self.parent.lookup(v)
    }
}

impl BindingWrite for DeltaBindings<'_> {
    fn bind(&mut self, trail: &mut Trail, v: VarId, t: Term) {
        // The whole chain, not `lookup`: this also checks that no
        // ancestor binds a variable `lookup` treats as fresh.
        debug_assert!(
            self.writes.iter().all(|(w, _)| *w != v) && self.parent.lookup(v).is_none(),
            "variable {v:?} bound twice in a frame chain"
        );
        self.writes.push((v, t));
        trail.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Sym;

    fn atom(i: u32) -> Term {
        Term::Atom(Sym(i))
    }
    fn var(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// Above every variable these tests bind: none is fresh.
    const NEXT_VAR: u32 = 16;

    /// Freeze a single-binding delta onto `parent`.
    fn push1(parent: &Arc<BindingFrame>, v: u32, t: Term, thresh: u32) -> Arc<BindingFrame> {
        let mut d = DeltaBindings::new(parent, NEXT_VAR);
        let mut tr = Trail::new();
        d.bind(&mut tr, VarId(v), t);
        d.freeze(thresh).0
    }

    #[test]
    fn lookup_chases_parent_chain() {
        let root = BindingFrame::root();
        let f1 = push1(&root, 0, atom(1), 16);
        let f2 = push1(&f1, 1, var(0), 16);
        assert_eq!(f2.lookup(VarId(0)), Some(&atom(1)));
        assert_eq!(f2.lookup(VarId(1)), Some(&var(0)));
        assert_eq!(f2.walk(&var(1)), &atom(1));
        assert_eq!(f2.lookup(VarId(7)), None);
        // The parent frame is unaffected by the child's writes.
        assert_eq!(f1.lookup(VarId(1)), None);
    }

    #[test]
    fn resolve_descends_into_structs() {
        let root = BindingFrame::root();
        let f1 = push1(&root, 0, atom(1), 16);
        let t = Term::app(Sym(9), vec![var(0), var(2)]);
        assert_eq!(f1.resolve(&t), Term::app(Sym(9), vec![atom(1), var(2)]));
    }

    #[test]
    fn siblings_share_the_parent_frame() {
        let root = BindingFrame::root();
        let parent = push1(&root, 0, atom(1), 16);
        let a = push1(&parent, 1, atom(2), 16);
        let b = push1(&parent, 1, atom(3), 16);
        // Each sibling sees its own binding for var 1...
        assert_eq!(a.lookup(VarId(1)), Some(&atom(2)));
        assert_eq!(b.lookup(VarId(1)), Some(&atom(3)));
        // ...over the *same* parent allocation (3 = parent + a + b).
        assert_eq!(Arc::strong_count(&parent), 3);
    }

    #[test]
    fn chain_len_grows_until_threshold_then_flattens() {
        let thresh = 4;
        let mut frame = BindingFrame::root();
        // chain_len: root=1, then 2, 3, 4 — all within threshold.
        for v in 0..3 {
            frame = push1(&frame, v, atom(v), thresh);
            assert_eq!(frame.chain_len(), v + 2);
            assert!(!frame.is_chain_start());
        }
        // The next freeze would make chain_len 5 > 4: it must flatten.
        let mut d = DeltaBindings::new(&frame, NEXT_VAR);
        let mut tr = Trail::new();
        d.bind(&mut tr, VarId(3), atom(3));
        let (flat, stats) = d.freeze(thresh);
        assert_eq!(flat.chain_len(), 1);
        assert!(flat.is_chain_start());
        assert_eq!(stats.delta, 1);
        assert_eq!(stats.flattened, 3, "inherited bindings copied once");
        assert_eq!(flat.total_bindings(), 4);
        // Every binding survives the flatten.
        for v in 0..4 {
            assert_eq!(flat.lookup(VarId(v)), Some(&atom(v)), "var {v}");
        }
    }

    #[test]
    fn exactly_at_threshold_does_not_flatten() {
        let thresh = 4;
        let mut frame = BindingFrame::root();
        for v in 0..thresh - 1 {
            frame = push1(&frame, v, atom(v), thresh);
        }
        assert_eq!(
            frame.chain_len(),
            thresh,
            "boundary: chain_len == threshold"
        );
        assert!(!frame.is_chain_start(), "no flatten at the boundary");
        let (_, last) = {
            let mut d = DeltaBindings::new(&frame, NEXT_VAR);
            let mut tr = Trail::new();
            d.bind(&mut tr, VarId(9), atom(9));
            d.freeze(thresh)
        };
        assert_eq!(last.flattened, thresh - 1, "one past the boundary flattens");
    }

    #[test]
    fn empty_deltas_share_the_parent_frame_outright() {
        // Facts bind nothing: freezing an empty delta returns the parent
        // frame itself — no chain growth, no copies.
        let root = BindingFrame::root();
        let parent = push1(&root, 0, atom(1), 16);
        let mut frame = Arc::clone(&parent);
        for _ in 0..10 {
            let mut d = DeltaBindings::new(&frame, NEXT_VAR);
            let (f, stats) = d.freeze(3);
            assert_eq!(stats.delta, 0);
            assert_eq!(stats.flattened, 0);
            frame = f;
        }
        assert!(Arc::ptr_eq(&frame, &parent), "fact chains share one frame");
        assert_eq!(frame.chain_len(), 2);
    }

    #[test]
    fn failed_attempt_clears_without_touching_parent() {
        let root = BindingFrame::root();
        let parent = push1(&root, 0, atom(1), 16);
        let mut d = DeltaBindings::new(&parent, NEXT_VAR);
        let mut tr = Trail::new();
        d.bind(&mut tr, VarId(1), atom(2));
        assert_eq!(d.delta_len(), 1);
        assert_eq!(d.lookup(VarId(0)), Some(&atom(1)), "reads fall through");
        d.clear();
        assert_eq!(d.delta_len(), 0);
        assert_eq!(parent.lookup(VarId(1)), None);
    }

    #[test]
    fn unify_runs_over_delta_bindings() {
        use crate::unify::unify;
        let root = BindingFrame::root();
        let parent = push1(&root, 0, atom(5), 16);
        let mut d = DeltaBindings::new(&parent, NEXT_VAR);
        let mut tr = Trail::new();
        // f(X, Y) = f(5-via-frame, 7): X already bound in the parent frame.
        let lhs = Term::app(Sym(1), vec![var(0), var(1)]);
        let rhs = Term::app(Sym(1), vec![atom(5), atom(7)]);
        assert!(unify(&mut d, &mut tr, &lhs, &rhs, false));
        assert_eq!(d.lookup(VarId(1)), Some(&atom(7)));
        // Mismatch against the inherited binding fails.
        let bad = Term::app(Sym(1), vec![atom(6), atom(7)]);
        d.clear();
        tr.clear();
        assert!(!unify(&mut d, &mut tr, &lhs, &bad, false));
    }
}
