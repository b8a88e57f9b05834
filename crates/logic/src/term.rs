//! First-order terms.
//!
//! Terms are immutable; compound arguments are shared through `Arc` so that
//! renaming-apart and solution extraction can reuse ground subterms without
//! copying. Variables are plain indices into a [`Bindings`](crate::Bindings)
//! store — clauses are stored with variables normalized to `0..n_vars` and
//! are *renamed apart* at resolution time by offsetting into fresh indices.

use std::sync::Arc;

use crate::symbol::Sym;

/// A logic variable, an index into the binding store of one derivation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into a bindings vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A first-order term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A logic variable.
    Var(VarId),
    /// A constant symbol (`sam`, `[]`, …).
    Atom(Sym),
    /// An integer constant.
    Int(i64),
    /// A compound term `f(t1, …, tn)` with `n >= 1`.
    Struct(Sym, Arc<[Term]>),
}

impl Term {
    /// Build a compound term.
    pub fn app(functor: Sym, args: Vec<Term>) -> Term {
        debug_assert!(!args.is_empty(), "compound terms need >= 1 argument");
        Term::Struct(functor, args.into())
    }

    /// The functor symbol and arity of this term, treating an atom as a
    /// 0-ary functor. Variables and integers have no functor.
    pub fn functor(&self) -> Option<(Sym, u32)> {
        match self {
            Term::Atom(s) => Some((*s, 0)),
            Term::Struct(s, args) => Some((*s, args.len() as u32)),
            Term::Var(_) | Term::Int(_) => None,
        }
    }

    /// Whether the term contains no variables at all.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Atom(_) | Term::Int(_) => true,
            Term::Struct(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Whether `v` occurs anywhere in the term (syntactically, without
    /// walking bindings — see [`unify`](crate::unify::unify) for the
    /// bound version).
    pub fn contains_var(&self, v: VarId) -> bool {
        match self {
            Term::Var(w) => *w == v,
            Term::Atom(_) | Term::Int(_) => false,
            Term::Struct(_, args) => args.iter().any(|a| a.contains_var(v)),
        }
    }

    /// The largest variable index occurring in the term, if any.
    pub fn max_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Atom(_) | Term::Int(_) => None,
            Term::Struct(_, args) => args.iter().filter_map(Term::max_var).max(),
        }
    }

    /// Return a copy of the term with every variable index shifted up by
    /// `base`. Ground subtrees are shared, not copied.
    pub fn offset_vars(&self, base: u32) -> Term {
        if base == 0 {
            return self.clone();
        }
        self.offset_changed(base).unwrap_or_else(|| self.clone())
    }

    /// [`offset_vars`](Self::offset_vars) in one pass, `None` when the
    /// term is ground (nothing moves; the caller shares it).
    fn offset_changed(&self, base: u32) -> Option<Term> {
        match self {
            Term::Var(v) => Some(Term::Var(VarId(v.0 + base))),
            Term::Atom(_) | Term::Int(_) => None,
            Term::Struct(f, args) => {
                rebuild_args(args, |a| a.offset_changed(base)).map(|args| Term::Struct(*f, args))
            }
        }
    }

    /// Structural size of the term (number of symbol/variable occurrences).
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Atom(_) | Term::Int(_) => 1,
            Term::Struct(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// Structural depth of the term (an atom has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) | Term::Atom(_) | Term::Int(_) => 1,
            Term::Struct(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
        }
    }
}

/// `args` with `change` applied, or `None` when it changes none of them.
/// Arguments before the first change are visited once and shared; the
/// new slice is allocated once, straight into its `Arc`.
pub(crate) fn rebuild_args(
    args: &[Term],
    mut change: impl FnMut(&Term) -> Option<Term>,
) -> Option<Arc<[Term]>> {
    let (i, first) = args
        .iter()
        .enumerate()
        .find_map(|(i, a)| change(a).map(|t| (i, t)))?;
    let rest = args[i + 1..]
        .iter()
        .map(|a| change(a).unwrap_or_else(|| a.clone()));
    Some(
        args[..i]
            .iter()
            .cloned()
            .chain(std::iter::once(first))
            .chain(rest)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn functor_of_each_shape() {
        assert_eq!(Term::Atom(s(3)).functor(), Some((s(3), 0)));
        let t = Term::app(s(1), vec![Term::Int(4), Term::Var(VarId(0))]);
        assert_eq!(t.functor(), Some((s(1), 2)));
        assert_eq!(Term::Var(VarId(0)).functor(), None);
        assert_eq!(Term::Int(9).functor(), None);
    }

    #[test]
    fn groundness() {
        let g = Term::app(s(0), vec![Term::Atom(s(1)), Term::Int(2)]);
        assert!(g.is_ground());
        let ng = Term::app(s(0), vec![Term::Atom(s(1)), Term::Var(VarId(7))]);
        assert!(!ng.is_ground());
    }

    #[test]
    fn offset_vars_shifts_only_vars() {
        let t = Term::app(s(0), vec![Term::Var(VarId(1)), Term::Atom(s(2))]);
        let u = t.offset_vars(10);
        assert_eq!(
            u,
            Term::app(s(0), vec![Term::Var(VarId(11)), Term::Atom(s(2))])
        );
    }

    #[test]
    fn offset_vars_shares_ground_subtrees() {
        let ground = Term::app(s(0), vec![Term::Atom(s(1))]);
        let t = Term::app(s(2), vec![ground.clone(), Term::Var(VarId(0))]);
        let u = t.offset_vars(5);
        match (&t, &u) {
            (Term::Struct(_, a0), Term::Struct(_, a1)) => {
                // The ground first argument must be the same allocation.
                match (&a0[0], &a1[0]) {
                    (Term::Struct(_, g0), Term::Struct(_, g1)) => {
                        assert!(Arc::ptr_eq(g0, g1));
                    }
                    _ => panic!("expected structs"),
                }
            }
            _ => panic!("expected structs"),
        }
    }

    #[test]
    fn offset_zero_is_identity() {
        let t = Term::app(s(0), vec![Term::Var(VarId(3))]);
        assert_eq!(t.offset_vars(0), t);
    }

    #[test]
    fn size_and_depth() {
        let t = Term::app(
            s(0),
            vec![Term::app(s(1), vec![Term::Int(1)]), Term::Atom(s(2))],
        );
        assert_eq!(t.size(), 4);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn max_var_finds_largest() {
        let t = Term::app(
            s(0),
            vec![
                Term::Var(VarId(3)),
                Term::app(s(1), vec![Term::Var(VarId(9))]),
            ],
        );
        assert_eq!(t.max_var(), Some(VarId(9)));
        assert_eq!(Term::Atom(s(0)).max_var(), None);
    }

    #[test]
    fn contains_var_walks_structure() {
        let t = Term::app(s(0), vec![Term::app(s(1), vec![Term::Var(VarId(2))])]);
        assert!(t.contains_var(VarId(2)));
        assert!(!t.contains_var(VarId(3)));
    }
}
