//! Variable bindings and the undo trail.
//!
//! A [`Bindings`] store maps variable indices to optional terms. The
//! depth-first engine binds through a [`Trail`] and undoes on backtracking
//! (the classic Prolog discipline). The frontier-based engines (breadth-
//! first, B-LOG best-first, and the parallel executors) historically
//! *cloned* the store per child node — the software analogue of the
//! "copying when chains are sprouted" cost the paper discusses in section
//! 6 — and can now instead thread a persistent
//! [`BindingFrame`](crate::frames::BindingFrame) chain through the same
//! unification code. The [`BindingLookup`] / [`BindingWrite`] traits are
//! the seam that lets [`unify`](crate::unify::unify) and clause indexing
//! run over either representation.

use std::borrow::Cow;

use crate::term::{rebuild_args, Term, VarId};

/// Read access to a variable-binding environment.
///
/// Object-safe so clause indexing can dereference goals through `&dyn
/// BindingLookup` without knowing whether the search runs over a flat
/// [`Bindings`] store or a persistent frame chain.
pub trait BindingLookup {
    /// The raw binding of `v`, without dereferencing chains.
    fn lookup(&self, v: VarId) -> Option<&Term>;

    /// Dereference `t` through binding chains until an unbound variable or
    /// a non-variable term is reached. Does not descend into structures.
    fn walk<'a>(&'a self, mut t: &'a Term) -> &'a Term {
        while let Term::Var(v) = t {
            match self.lookup(*v) {
                Some(next) => t = next,
                None => break,
            }
        }
        t
    }

    /// [`walk`](Self::walk), but with the result's lifetime tied to the
    /// *input* term rather than the store: if the walk goes nowhere the
    /// input is returned borrowed (no clone, no borrow of `self` kept
    /// alive); only a walk that actually moved clones the (cheap,
    /// `Arc`-shared) destination term.
    ///
    /// This is the read path for [`try_expand_via`](crate::node::try_expand_via)
    /// and the depth-first engine, which must keep the dereferenced goal
    /// alive while mutating the store.
    fn walk_cow<'a>(&self, t: &'a Term) -> Cow<'a, Term> {
        let w = self.walk(t);
        if std::ptr::eq(w, t) {
            Cow::Borrowed(t)
        } else {
            Cow::Owned(w.clone())
        }
    }

    /// Fully apply the bindings to `t`, producing a term whose remaining
    /// variables are all unbound. One pass; a subterm in which no
    /// variable is bound is shared, not rebuilt.
    fn resolve(&self, t: &Term) -> Term {
        resolve_changed(self, t).unwrap_or_else(|| t.clone())
    }
}

/// [`BindingLookup::resolve`], `None` when no variable in `t` is bound
/// (the resolved term is `t` itself).
fn resolve_changed<B: BindingLookup + ?Sized>(bindings: &B, t: &Term) -> Option<Term> {
    match t {
        Term::Var(_) => {
            let w = bindings.walk(t);
            if std::ptr::eq(w, t) {
                return None;
            }
            Some(resolve_changed(bindings, w).unwrap_or_else(|| w.clone()))
        }
        Term::Atom(_) | Term::Int(_) => None,
        Term::Struct(f, args) => {
            rebuild_args(args, |a| resolve_changed(bindings, a)).map(|args| Term::Struct(*f, args))
        }
    }
}

/// Write access to a variable-binding environment, on top of
/// [`BindingLookup`]. Implemented by [`Bindings`] (flat slots) and
/// [`DeltaBindings`](crate::frames::DeltaBindings) (per-node frame delta),
/// so one [`unify`](crate::unify::unify) serves both representations.
pub trait BindingWrite: BindingLookup {
    /// Bind `v := t`, recording the write on `trail` for undo.
    fn bind(&mut self, trail: &mut Trail, v: VarId, t: Term);
}

/// A growable map from variable index to its binding.
#[derive(Clone, Default, Debug)]
pub struct Bindings {
    slots: Vec<Option<Term>>,
}

impl Bindings {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store pre-sized for `n` variables.
    pub fn with_capacity(n: usize) -> Self {
        Bindings {
            slots: Vec::with_capacity(n),
        }
    }

    /// Number of variable slots allocated.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slots exist yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Ensure slots exist for variables `0..n`.
    pub fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, None);
        }
    }

    /// The raw binding of `v`, without dereferencing chains.
    #[inline]
    pub fn get(&self, v: VarId) -> Option<&Term> {
        self.slots.get(v.index()).and_then(|s| s.as_ref())
    }

    /// Bind `v := t`, recording the write on `trail` for undo.
    ///
    /// # Panics
    /// In debug builds, panics if `v` is already bound (rebinding without
    /// undoing is always a bug in SLD resolution).
    pub fn bind(&mut self, trail: &mut Trail, v: VarId, t: Term) {
        self.ensure(v.index() + 1);
        debug_assert!(
            self.slots[v.index()].is_none(),
            "variable {v:?} bound twice"
        );
        self.slots[v.index()] = Some(t);
        trail.push(v);
    }

    /// Dereference `t` through binding chains until an unbound variable or
    /// a non-variable term is reached. Does not descend into structures.
    pub fn walk<'a>(&'a self, t: &'a Term) -> &'a Term {
        BindingLookup::walk(self, t)
    }

    /// See [`BindingLookup::walk_cow`]: dereference without keeping a
    /// borrow of the store alive when the walk goes nowhere.
    pub fn walk_cow<'a>(&self, t: &'a Term) -> Cow<'a, Term> {
        BindingLookup::walk_cow(self, t)
    }

    /// Fully apply the bindings to `t`, producing a term whose remaining
    /// variables are all unbound.
    pub fn resolve(&self, t: &Term) -> Term {
        BindingLookup::resolve(self, t)
    }

    /// Undo every binding recorded at or after `mark`.
    pub fn undo_to(&mut self, trail: &mut Trail, mark: TrailMark) {
        while trail.entries.len() > mark.0 {
            let v = trail.entries.pop().expect("trail length checked");
            self.slots[v.index()] = None;
        }
    }
}

impl BindingLookup for Bindings {
    #[inline]
    fn lookup(&self, v: VarId) -> Option<&Term> {
        self.slots.get(v.index()).and_then(|s| s.as_ref())
    }
}

impl BindingWrite for Bindings {
    #[inline]
    fn bind(&mut self, trail: &mut Trail, v: VarId, t: Term) {
        Bindings::bind(self, trail, v, t);
    }
}

/// A record of variable writes, enabling O(1)-per-binding undo.
#[derive(Default, Debug)]
pub struct Trail {
    entries: Vec<VarId>,
}

/// A saved position in a [`Trail`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrailMark(usize);

impl Trail {
    /// An empty trail.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trail pre-sized for `n` writes, so one allocation serves a
    /// whole expansion's worth of candidate attempts.
    pub fn with_capacity(n: usize) -> Self {
        Trail {
            entries: Vec::with_capacity(n),
        }
    }

    /// Forget every recorded write, keeping the allocation. Used between
    /// candidate attempts when the store itself is discarded rather than
    /// undone (the cloning and frame-delta expansion paths).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Record the current position, to pass to [`Bindings::undo_to`].
    pub fn mark(&self) -> TrailMark {
        TrailMark(self.entries.len())
    }

    /// Record one variable write.
    #[inline]
    pub fn push(&mut self, v: VarId) {
        self.entries.push(v);
    }

    /// Number of writes recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no writes are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Sym;
    use std::sync::Arc;

    fn atom(i: u32) -> Term {
        Term::Atom(Sym(i))
    }

    #[test]
    fn bind_and_walk_chain() {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        // v0 -> v1 -> atom
        b.bind(&mut tr, VarId(0), Term::Var(VarId(1)));
        b.bind(&mut tr, VarId(1), atom(7));
        let t = Term::Var(VarId(0));
        assert_eq!(b.walk(&t), &atom(7));
    }

    #[test]
    fn walk_stops_at_unbound() {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        b.bind(&mut tr, VarId(0), Term::Var(VarId(5)));
        let t = Term::Var(VarId(0));
        assert_eq!(b.walk(&t), &Term::Var(VarId(5)));
    }

    #[test]
    fn resolve_descends_into_structs() {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        b.bind(&mut tr, VarId(0), atom(1));
        let t = Term::app(Sym(9), vec![Term::Var(VarId(0)), Term::Var(VarId(2))]);
        let r = b.resolve(&t);
        assert_eq!(r, Term::app(Sym(9), vec![atom(1), Term::Var(VarId(2))]));
    }

    #[test]
    fn resolve_shares_a_term_whose_variables_are_all_unbound() {
        // f(X0, f(X1, … f(X199, a))) with only an unrelated variable
        // bound: nothing to apply, so the input's own `Arc` comes back.
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        b.bind(&mut tr, VarId(1000), atom(1));
        let deep = (0..200).fold(atom(0), |inner, v| {
            Term::app(Sym(9), vec![Term::Var(VarId(v)), inner])
        });
        let (Term::Struct(_, before), Term::Struct(_, after)) = (&deep, &b.resolve(&deep)) else {
            panic!("expected structs");
        };
        assert!(Arc::ptr_eq(before, after));
    }

    #[test]
    fn resolve_rebuilds_only_the_spine_above_a_binding() {
        // f(g(X0), h(X1)) with X1 bound: the h argument is rebuilt, the
        // g argument shared.
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        b.bind(&mut tr, VarId(1), atom(5));
        let g = Term::app(Sym(1), vec![Term::Var(VarId(0))]);
        let t = Term::app(
            Sym(0),
            vec![g, Term::app(Sym(2), vec![Term::Var(VarId(1))])],
        );
        let r = b.resolve(&t);
        let want = Term::app(
            Sym(0),
            vec![
                Term::app(Sym(1), vec![Term::Var(VarId(0))]),
                Term::app(Sym(2), vec![atom(5)]),
            ],
        );
        assert_eq!(r, want);
        let (Term::Struct(_, a0), Term::Struct(_, a1)) = (&t, &r) else {
            panic!("expected structs");
        };
        let (Term::Struct(_, g0), Term::Struct(_, g1)) = (&a0[0], &a1[0]) else {
            panic!("expected structs");
        };
        assert!(Arc::ptr_eq(g0, g1));
    }

    #[test]
    fn undo_restores_unbound_state() {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        b.bind(&mut tr, VarId(0), atom(1));
        let mark = tr.mark();
        b.bind(&mut tr, VarId(1), atom(2));
        b.bind(&mut tr, VarId(2), atom(3));
        b.undo_to(&mut tr, mark);
        assert!(b.get(VarId(1)).is_none());
        assert!(b.get(VarId(2)).is_none());
        assert_eq!(b.get(VarId(0)), Some(&atom(1)));
        assert_eq!(tr.len(), 1);
    }

    #[test]
    fn undo_to_start_empties_trail() {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        let mark = tr.mark();
        b.bind(&mut tr, VarId(0), atom(1));
        b.undo_to(&mut tr, mark);
        assert!(tr.is_empty());
        assert!(b.get(VarId(0)).is_none());
    }

    #[test]
    fn clone_is_independent() {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        b.bind(&mut tr, VarId(0), atom(1));
        let mut c = b.clone();
        let mut tr2 = Trail::new();
        c.bind(&mut tr2, VarId(1), atom(2));
        assert!(b.get(VarId(1)).is_none());
        assert_eq!(c.get(VarId(0)), Some(&atom(1)));
    }
}
