//! Robinson unification over the binding store.
//!
//! Implemented iteratively with an explicit stack so that deep terms
//! cannot overflow the call stack. The stack holds one frame per matched
//! pair of compound terms — both argument slices and a cursor — not one
//! entry per pending argument, and its first eight frames live in the
//! call frame: unifying against a clause head of any arity whose
//! compound arguments nest fewer than eight levels deep allocates
//! nothing. The occurs check is optional and off by default, matching
//! the DEC-10 Prolog the paper takes as its baseline; the B-LOG engines
//! run with whatever the caller configures, so baseline and best-first
//! searches always unify identically.
//!
//! Resolution unifies a goal with a clause head *renamed apart*: head
//! variable `v` stands for `v + base`. [`unify_head`] reads the head in
//! place under that offset and builds only the head subterm a goal
//! variable gets bound to, so a failed attempt copies nothing and never
//! touches the reference counts of the program's shared clause terms.
//! [`unify`] is the same loop with no offset.
//!
//! Before any of that machinery runs, [`GoalKeys`] rejects a head whose
//! top-level arguments cannot match the goal's: the goal's argument keys
//! are read once per node, and each candidate head is compared against
//! them position by position.

use std::sync::Arc;

use crate::bindings::{BindingLookup, BindingWrite, Trail};
use crate::store::{arg_key, ArgKey};
use crate::term::{Term, VarId};

/// Attempt to unify `a` and `b` under `bindings`.
///
/// Generic over the binding representation: the flat
/// [`Bindings`](crate::bindings::Bindings) store and the persistent
/// [`DeltaBindings`](crate::frames::DeltaBindings) frame builder both
/// implement [`BindingWrite`], so every engine unifies through exactly
/// this code whatever its search-state representation.
///
/// On success, returns `true` with the new bindings recorded on `trail`.
/// On failure, returns `false` — the caller must undo to its own trail
/// mark (bindings made before the failure point are *not* rolled back
/// here, exactly like a WAM-style engine).
pub fn unify<B: BindingWrite + ?Sized>(
    bindings: &mut B,
    trail: &mut Trail,
    a: &Term,
    b: &Term,
    occurs_check: bool,
) -> bool {
    unify_head(bindings, trail, a, b, 0, occurs_check)
}

/// [`unify`] `goal` with `head.offset_vars(base)` — the clause head
/// renamed apart — without building the renamed copy.
///
/// Head variables are read as `v + base` in place. Only a head subterm
/// that a goal variable gets bound to is materialised (with
/// [`Term::offset_vars`]), so the result, the bindings and their order on
/// `trail` are exactly those of unifying against the renamed copy.
///
/// Arguments are solved last first, depth-first: a compound argument's
/// own arguments are all solved before the argument to its left.
pub fn unify_head<B: BindingWrite + ?Sized>(
    bindings: &mut B,
    trail: &mut Trail,
    goal: &Term,
    head: &Term,
    base: u32,
    occurs_check: bool,
) -> bool {
    let mut stack = FrameStack::new();
    let mut next = Some((Side::Ref(goal, 0), Side::Ref(head, base)));
    while let Some((x, y)) = next.take().or_else(|| stack.next_pair()) {
        match (x.walk(bindings), y.walk(bindings)) {
            (Walked::Var(v), Walked::Var(w)) if v == w => {}
            (Walked::Var(v), t) | (t, Walked::Var(v)) => {
                let t = t.into_term();
                if occurs_check && occurs(bindings, v, &t) {
                    return false;
                }
                bindings.bind(trail, v, t);
            }
            (Walked::Term(x), Walked::Term(y)) => match (x.term(), y.term()) {
                (Term::Atom(p), Term::Atom(q)) => {
                    if p != q {
                        return false;
                    }
                }
                (Term::Int(p), Term::Int(q)) => {
                    if p != q {
                        return false;
                    }
                }
                (Term::Struct(f, xs), Term::Struct(g, ys)) => {
                    if f != g || xs.len() != ys.len() {
                        return false;
                    }
                    stack.push(Frame {
                        cursor: xs.len(),
                        xs: x.into_args(),
                        ys: y.into_args(),
                    });
                }
                _ => return false,
            },
        }
    }
    true
}

/// The [`ArgKey`]s of one goal's top-level arguments, each walked
/// through the node's bindings: `None` where the argument is an unbound
/// variable.
///
/// A search loop owns one and refills it per node, so it costs no
/// allocation per node. [`admits`](Self::admits) is the fail-fast check
/// in front of [`unify_head`]: a pair it rejects is one `unify_head` is
/// certain to fail on, whatever it binds first, because binding a
/// variable never changes the principal functor of a term that is
/// already bound.
#[derive(Default, Debug)]
pub struct GoalKeys {
    keys: Vec<Option<ArgKey>>,
}

impl GoalKeys {
    /// Read the keys of `goal` (dereferenced first) under `bindings`,
    /// replacing the previous goal's.
    pub fn fill<B: BindingLookup + ?Sized>(&mut self, goal: &Term, bindings: &B) {
        self.keys.clear();
        if let Term::Struct(_, args) = bindings.walk(goal) {
            self.keys
                .extend(args.iter().map(|a| arg_key(bindings.walk(a))));
        }
    }

    /// `false` exactly when some argument position has a bound goal key
    /// and a non-variable head argument with a different key (atom vs
    /// atom, int vs int, functor or arity, or a different kind of term).
    pub fn admits(&self, head: &Term) -> bool {
        let Term::Struct(_, args) = head else {
            return true;
        };
        self.keys
            .iter()
            .zip(args.iter())
            .all(|(goal, head)| match (goal, arg_key(head)) {
                (Some(g), Some(h)) => *g == h,
                _ => true,
            })
    }
}

/// One side of a pending equation.
enum Side<'t> {
    /// A term borrowed from the caller, whose variables stand for
    /// `v + offset` (0 on the goal side, the renaming base on the head
    /// side).
    Ref(&'t Term, u32),
    /// A term cloned out of the binding store (no offset).
    Own(Term),
}

/// A [`Side`] dereferenced through the bindings.
enum Walked<'t> {
    /// An unbound variable.
    Var(VarId),
    /// Anything but a variable.
    Term(Side<'t>),
}

impl<'t> Side<'t> {
    /// Dereference through `bindings` until an unbound variable or a
    /// non-variable term. Only a walk that moves through a binding clones
    /// (the bound term, cheaply: compound arguments are `Arc`-shared).
    fn walk<B: BindingLookup + ?Sized>(self, bindings: &B) -> Walked<'t> {
        let v = match &self {
            Side::Ref(Term::Var(v), offset) => VarId(v.0 + offset),
            Side::Own(Term::Var(v)) => *v,
            _ => return Walked::Term(self),
        };
        match bindings.lookup(v) {
            None => Walked::Var(v),
            Some(bound) => match bindings.walk(bound) {
                Term::Var(w) => Walked::Var(*w),
                t => Walked::Term(Side::Own(t.clone())),
            },
        }
    }

    /// The term as written, before the offset applies.
    fn term(&self) -> &Term {
        match self {
            Side::Ref(t, _) => t,
            Side::Own(t) => t,
        }
    }

    /// The arguments of a compound term, under the same offset. An owned
    /// term hands over its `Arc` rather than cloning it.
    fn into_args(self) -> Args<'t> {
        match self {
            Side::Ref(Term::Struct(_, args), offset) => Args::Ref(args, offset),
            Side::Own(Term::Struct(_, args)) => Args::Own(args),
            _ => unreachable!("arguments of a non-compound term"),
        }
    }
}

impl Walked<'_> {
    /// The term this side stands for, offset applied: the one allocation
    /// a head side can cost, and only when a goal variable binds to it.
    fn into_term(self) -> Term {
        match self {
            Walked::Var(v) => Term::Var(v),
            Walked::Term(Side::Ref(t, offset)) => t.offset_vars(offset),
            Walked::Term(Side::Own(t)) => t,
        }
    }
}

/// The argument slice of one side of a matched compound pair.
enum Args<'t> {
    /// Borrowed from the caller, read under an offset.
    Ref(&'t [Term], u32),
    /// Taken out of the binding store (no offset).
    Own(Arc<[Term]>),
}

impl<'t> Args<'t> {
    /// Argument `i` as one side of an equation.
    fn side(&self, i: usize) -> Side<'t> {
        match self {
            Args::Ref(args, offset) => Side::Ref(&args[i], *offset),
            Args::Own(args) => Side::Own(args[i].clone()),
        }
    }
}

/// A matched compound pair whose arguments `0..cursor` are still to be
/// unified, last first.
struct Frame<'t> {
    xs: Args<'t>,
    ys: Args<'t>,
    cursor: usize,
}

/// Frames the stack keeps in the call frame before it spills to the
/// heap: compound arguments nested this deep inside a head fit.
const INLINE_FRAMES: usize = 8;

/// A LIFO stack of [`Frame`]s whose first [`INLINE_FRAMES`] need no
/// allocation. A frame is popped as its last pending pair is handed
/// out, so every frame on the stack has work left.
struct FrameStack<'t> {
    inline: [Option<Frame<'t>>; INLINE_FRAMES],
    len: usize,
    /// Frames pushed while `inline` is full; always above it.
    spill: Vec<Frame<'t>>,
}

impl<'t> FrameStack<'t> {
    fn new() -> Self {
        FrameStack {
            inline: [const { None }; INLINE_FRAMES],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, frame: Frame<'t>) {
        if self.len < INLINE_FRAMES {
            self.inline[self.len] = Some(frame);
            self.len += 1;
        } else {
            self.spill.push(frame);
        }
    }

    /// The next pending pair: the rightmost unsolved argument pair of the
    /// innermost frame.
    fn next_pair(&mut self) -> Option<(Side<'t>, Side<'t>)> {
        let top = match self.spill.last_mut() {
            Some(frame) => frame,
            None => self.inline[self.len.checked_sub(1)?].as_mut()?,
        };
        top.cursor -= 1;
        let i = top.cursor;
        let pair = (top.xs.side(i), top.ys.side(i));
        if i == 0 && self.spill.pop().is_none() {
            self.len -= 1;
            self.inline[self.len] = None;
        }
        Some(pair)
    }
}

/// Whether variable `v` occurs in `t` after dereferencing through
/// `bindings`.
pub fn occurs<B: BindingLookup + ?Sized>(bindings: &B, v: VarId, t: &Term) -> bool {
    let mut stack: Vec<Term> = vec![t.clone()];
    while let Some(u) = stack.pop() {
        match bindings.walk(&u) {
            Term::Var(w) => {
                if *w == v {
                    return true;
                }
            }
            Term::Atom(_) | Term::Int(_) => {}
            Term::Struct(_, args) => {
                for a in args.iter() {
                    stack.push(a.clone());
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::Bindings;
    use crate::symbol::Sym;

    fn atom(i: u32) -> Term {
        Term::Atom(Sym(i))
    }
    fn var(i: u32) -> Term {
        Term::Var(VarId(i))
    }
    fn app(f: u32, args: Vec<Term>) -> Term {
        Term::app(Sym(f), args)
    }

    fn fresh() -> (Bindings, Trail) {
        (Bindings::new(), Trail::new())
    }

    #[test]
    fn atoms_unify_iff_equal() {
        let (mut b, mut t) = fresh();
        assert!(unify(&mut b, &mut t, &atom(1), &atom(1), false));
        assert!(!unify(&mut b, &mut t, &atom(1), &atom(2), false));
    }

    #[test]
    fn ints_unify_iff_equal() {
        let (mut b, mut t) = fresh();
        assert!(unify(&mut b, &mut t, &Term::Int(5), &Term::Int(5), false));
        assert!(!unify(&mut b, &mut t, &Term::Int(5), &Term::Int(6), false));
    }

    #[test]
    fn var_binds_to_term() {
        let (mut b, mut t) = fresh();
        assert!(unify(&mut b, &mut t, &var(0), &atom(3), false));
        assert_eq!(b.walk(&var(0)), &atom(3));
    }

    #[test]
    fn structs_unify_argwise() {
        let (mut b, mut t) = fresh();
        let lhs = app(0, vec![var(0), atom(2)]);
        let rhs = app(0, vec![atom(1), var(1)]);
        assert!(unify(&mut b, &mut t, &lhs, &rhs, false));
        assert_eq!(b.walk(&var(0)), &atom(1));
        assert_eq!(b.walk(&var(1)), &atom(2));
    }

    #[test]
    fn functor_mismatch_fails() {
        let (mut b, mut t) = fresh();
        assert!(!unify(
            &mut b,
            &mut t,
            &app(0, vec![atom(1)]),
            &app(1, vec![atom(1)]),
            false
        ));
    }

    #[test]
    fn arity_mismatch_fails() {
        let (mut b, mut t) = fresh();
        assert!(!unify(
            &mut b,
            &mut t,
            &app(0, vec![atom(1)]),
            &app(0, vec![atom(1), atom(2)]),
            false
        ));
    }

    #[test]
    fn atom_vs_struct_fails() {
        let (mut b, mut t) = fresh();
        assert!(!unify(
            &mut b,
            &mut t,
            &atom(0),
            &app(0, vec![atom(1)]),
            false
        ));
    }

    #[test]
    fn same_var_unifies_without_binding() {
        let (mut b, mut t) = fresh();
        assert!(unify(&mut b, &mut t, &var(4), &var(4), false));
        assert!(t.is_empty());
    }

    #[test]
    fn var_var_aliasing() {
        let (mut b, mut t) = fresh();
        assert!(unify(&mut b, &mut t, &var(0), &var(1), false));
        assert!(unify(&mut b, &mut t, &var(1), &atom(9), false));
        assert_eq!(b.walk(&var(0)), &atom(9));
    }

    #[test]
    fn occurs_check_rejects_cyclic() {
        let (mut b, mut t) = fresh();
        let cyc = app(0, vec![var(0)]);
        assert!(!unify(&mut b, &mut t, &var(0), &cyc, true));
    }

    #[test]
    fn without_occurs_check_cyclic_binds() {
        // DEC-10 Prolog behaviour: X = f(X) silently succeeds.
        let (mut b, mut t) = fresh();
        let cyc = app(0, vec![var(1)]);
        assert!(unify(&mut b, &mut t, &var(0), &cyc, false));
    }

    #[test]
    fn occurs_dereferences_chains() {
        let (mut b, mut tr) = fresh();
        // v1 := f(v2); does v2 occur in v1?
        assert!(unify(
            &mut b,
            &mut tr,
            &var(1),
            &app(0, vec![var(2)]),
            false
        ));
        assert!(occurs(&b, VarId(2), &var(1)));
        assert!(!occurs(&b, VarId(3), &var(1)));
    }

    #[test]
    fn deep_terms_do_not_overflow() {
        // A term nested 100_000 deep would kill a recursive unifier; our
        // explicit work stack handles it. The nested term's *Drop* is
        // recursive in debug builds, so run on a thread with a large
        // stack — unify itself must succeed well within it.
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(|| {
                let mut t1 = atom(0);
                let mut t2 = atom(0);
                for _ in 0..100_000 {
                    t1 = app(1, vec![t1]);
                    t2 = app(1, vec![t2]);
                }
                let (mut b, mut tr) = fresh();
                assert!(unify(&mut b, &mut tr, &t1, &t2, false));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn head_offset_reads_like_the_renamed_copy() {
        // p(X, f(X, Y)) renamed by 10 against p(a, Z). The last argument
        // is solved first: Z binds to the materialised f(X+10, Y+10),
        // then X+10 := a.
        let head = app(0, vec![var(0), app(1, vec![var(0), var(1)])]);
        let goal = app(0, vec![atom(5), var(2)]);
        let (mut b1, mut t1) = fresh();
        let (mut b2, mut t2) = fresh();
        assert!(unify_head(&mut b1, &mut t1, &goal, &head, 10, false));
        assert!(unify(&mut b2, &mut t2, &goal, &head.offset_vars(10), false));
        assert_eq!(b1.get(VarId(2)), Some(&app(1, vec![var(10), var(11)])));
        for v in [2, 10, 11] {
            assert_eq!(b1.resolve(&var(v)), b2.resolve(&var(v)), "var {v}");
        }
        assert_eq!(t1.len(), t2.len());
    }

    #[test]
    fn nesting_spills_past_the_inline_frames() {
        // Each level is f(a_i, <next level>, b_i): every frame still has
        // its first argument pending when the next one is pushed, so
        // 3 × INLINE_FRAMES levels keep that many frames live at once.
        let nested = |leaf: Term| {
            let n = 3 * INLINE_FRAMES as u32;
            (0..n).fold(leaf, |inner, i| app(0, vec![atom(i), inner, atom(100 + i)]))
        };
        let (mut b, mut t) = fresh();
        assert!(unify(
            &mut b,
            &mut t,
            &nested(var(0)),
            &nested(atom(99)),
            false
        ));
        assert_eq!(b.get(VarId(0)), Some(&atom(99)));
        let (one, two) = (nested(atom(1)), nested(atom(2)));
        assert!(!unify(&mut b, &mut t, &one, &two, false));
        // A mismatch left of the spilled frames is still reached once
        // they are popped.
        let left = |a: u32| app(0, vec![atom(a), nested(atom(7))]);
        assert!(!unify(&mut b, &mut t, &left(1), &left(2), false));
        assert!(unify(&mut b, &mut t, &left(1), &left(1), false));
    }

    /// The keys of `goal` under `b`.
    fn keys_of(goal: &Term, b: &Bindings) -> GoalKeys {
        let mut keys = GoalKeys::default();
        keys.fill(goal, b);
        keys
    }

    #[test]
    fn goal_keys_reject_an_atom_against_an_int() {
        let b = Bindings::new();
        let keys = keys_of(&app(0, vec![atom(1)]), &b);
        assert!(!keys.admits(&app(0, vec![Term::Int(1)])));
        assert!(!keys.admits(&app(0, vec![atom(2)])));
        assert!(keys.admits(&app(0, vec![atom(1)])));
        let keys = keys_of(&app(0, vec![Term::Int(3)]), &b);
        assert!(!keys.admits(&app(0, vec![Term::Int(4)])));
        assert!(!keys.admits(&app(0, vec![atom(3)])));
    }

    #[test]
    fn goal_keys_reject_a_functor_or_arity_mismatch() {
        let b = Bindings::new();
        let keys = keys_of(&app(0, vec![atom(0), app(1, vec![var(0)])]), &b);
        assert!(!keys.admits(&app(0, vec![var(1), app(2, vec![var(2)])])));
        assert!(!keys.admits(&app(0, vec![var(1), app(1, vec![var(2), var(3)])])));
        assert!(!keys.admits(&app(0, vec![var(1), atom(1)])));
        // Only the principal functor is compared: f(X) against f(a) is
        // left to unification.
        assert!(keys.admits(&app(0, vec![var(1), app(1, vec![atom(5)])])));
    }

    #[test]
    fn goal_keys_admit_a_variable_on_either_side() {
        let (mut b, mut t) = fresh();
        // An unbound goal argument matches any head argument.
        let keys = keys_of(&app(0, vec![var(0), atom(1)]), &b);
        assert!(keys.admits(&app(0, vec![Term::Int(7), atom(1)])));
        // A head variable matches any goal key.
        assert!(keys.admits(&app(0, vec![var(3), var(4)])));
        // A goal variable bound through the bindings is read as its
        // binding, at both levels: the goal and its arguments.
        assert!(unify(&mut b, &mut t, &var(0), &atom(2), false));
        assert!(unify(&mut b, &mut t, &var(5), &app(0, vec![var(0)]), false));
        let keys = keys_of(&var(5), &b);
        assert!(!keys.admits(&app(0, vec![atom(1)])));
        assert!(keys.admits(&app(0, vec![atom(2)])));
    }

    #[test]
    fn failed_unification_leaves_partial_bindings_on_trail() {
        // Callers are responsible for undoing; verify the contract.
        let (mut b, mut tr) = fresh();
        let mark = tr.mark();
        let lhs = app(0, vec![var(0), atom(1)]);
        let rhs = app(0, vec![atom(5), atom(2)]);
        assert!(!unify(&mut b, &mut tr, &lhs, &rhs, false));
        b.undo_to(&mut tr, mark);
        assert!(b.get(VarId(0)).is_none());
    }
}
