//! Property tests for terms, bindings and unification.

use std::sync::Arc;

use b_log::logic::{
    unify, unify_head, BindingFrame, BindingLookup, BindingWrite, Bindings, DeltaBindings, Sym,
    Term, Trail, VarId, DEFAULT_FLATTEN_THRESHOLD,
};
use proptest::prelude::*;

/// Goal/head pairs: two independent terms, or two calls of one
/// predicate (same functor and arity), whose arguments do get unified
/// pairwise with the head's variables renamed.
fn arb_goal_head() -> impl Strategy<Value = (Term, Term)> {
    prop_oneof![
        (arb_term(), arb_term()),
        prop::collection::vec((arb_term(), arb_term()), 1..6).prop_map(|args| {
            let (goal, head): (Vec<Term>, Vec<Term>) = args.into_iter().unzip();
            (Term::app(Sym(0), goal), Term::app(Sym(0), head))
        }),
    ]
}

/// A flat store that logs every `bind` call in order: the trail order
/// and the exact term each variable was bound to.
#[derive(Default)]
struct Recording {
    bindings: Bindings,
    log: Vec<(VarId, Term)>,
}

impl BindingLookup for Recording {
    fn lookup(&self, v: VarId) -> Option<&Term> {
        self.bindings.lookup(v)
    }
}

impl BindingWrite for Recording {
    fn bind(&mut self, trail: &mut Trail, v: VarId, t: Term) {
        self.log.push((v, t.clone()));
        self.bindings.bind(trail, v, t);
    }
}

/// A store with each `(v, t)` of `pre` bound where the occurs check
/// allows it — goal variables already bound, often into structures.
fn prebound(pre: &[(u32, Term)]) -> Recording {
    let mut r = Recording::default();
    let mut trail = Trail::new();
    for (v, t) in pre {
        let mark = trail.mark();
        if !unify(&mut r.bindings, &mut trail, &Term::Var(VarId(*v)), t, true) {
            r.bindings.undo_to(&mut trail, mark);
        }
    }
    r
}

/// [`prebound`] as a search leaves it: each `(v, t)` that unifies is
/// frozen into a frame of its own on top of the previous one. Every
/// variable involved is below 6, so 6 is a valid `next_var` throughout.
fn prebound_frames(pre: &[(u32, Term)]) -> Arc<BindingFrame> {
    let mut frame = BindingFrame::root();
    let mut trail = Trail::new();
    for (v, t) in pre {
        let mut delta = DeltaBindings::new(&frame, 6);
        if unify(&mut delta, &mut trail, &Term::Var(VarId(*v)), t, true) {
            frame = delta.freeze(DEFAULT_FLATTEN_THRESHOLD).0;
        }
    }
    frame
}

/// Strategy: arbitrary terms over a small symbol/variable alphabet.
fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u32..6).prop_map(|v| Term::Var(VarId(v))),
        (0u32..4).prop_map(|s| Term::Atom(Sym(s))),
        (-3i64..4).prop_map(Term::Int),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        ((0u32..3), prop::collection::vec(inner, 1..4))
            .prop_map(|(f, args)| Term::app(Sym(f), args))
    })
}

#[test]
fn head_unification_binds_in_the_historical_order() {
    // p(a, Z) against p(X, f(X, Y)) renamed by 10: the last argument is
    // solved first, so Z := f(X+10, Y+10) is trailed before X+10 := a.
    let (p, f) = (Sym(0), Sym(1));
    let v = |i| Term::Var(VarId(i));
    let goal = Term::app(p, vec![Term::Atom(Sym(2)), v(0)]);
    let head = Term::app(p, vec![v(0), Term::app(f, vec![v(0), v(1)])]);
    let (mut r, mut trail) = (Recording::default(), Trail::new());
    assert!(unify_head(&mut r, &mut trail, &goal, &head, 10, false));
    assert_eq!(
        r.log,
        vec![
            (VarId(0), Term::app(f, vec![v(10), v(11)])),
            (VarId(10), Term::Atom(Sym(2))),
        ]
    );
}

proptest! {
    #[test]
    fn unify_is_reflexive(t in arb_term()) {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        prop_assert!(unify(&mut b, &mut tr, &t, &t, false));
    }

    #[test]
    fn unify_is_symmetric(a in arb_term(), c in arb_term()) {
        let run = |x: &Term, y: &Term| {
            let mut b = Bindings::new();
            let mut tr = Trail::new();
            unify(&mut b, &mut tr, x, y, true)
        };
        prop_assert_eq!(run(&a, &c), run(&c, &a));
    }

    #[test]
    fn successful_unification_equalizes_resolved_terms(a in arb_term(), c in arb_term()) {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        // Occurs check on: resolved terms are then finite and comparable.
        if unify(&mut b, &mut tr, &a, &c, true) {
            prop_assert_eq!(b.resolve(&a), b.resolve(&c));
        }
    }

    #[test]
    fn undo_restores_cleanliness(a in arb_term(), c in arb_term()) {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        let mark = tr.mark();
        let _ = unify(&mut b, &mut tr, &a, &c, false);
        b.undo_to(&mut tr, mark);
        prop_assert!(tr.is_empty());
        for v in 0..8 {
            prop_assert!(b.get(VarId(v)).is_none());
        }
    }

    #[test]
    fn resolve_is_idempotent(a in arb_term(), c in arb_term()) {
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        if unify(&mut b, &mut tr, &a, &c, true) {
            let once = b.resolve(&a);
            let twice = b.resolve(&once);
            prop_assert_eq!(once, twice);
        }
    }

    #[test]
    fn offset_vars_shifts_max_var(t in arb_term(), base in 0u32..100) {
        let shifted = t.offset_vars(base);
        match (t.max_var(), shifted.max_var()) {
            (Some(v), Some(w)) => prop_assert_eq!(w.0, v.0 + base),
            (None, None) => {}
            other => prop_assert!(false, "mismatched var presence: {:?}", other),
        }
        prop_assert_eq!(t.size(), shifted.size());
        prop_assert_eq!(t.depth(), shifted.depth());
    }

    #[test]
    fn ground_terms_unify_iff_equal(a in arb_term(), c in arb_term()) {
        if a.is_ground() && c.is_ground() {
            let mut b = Bindings::new();
            let mut tr = Trail::new();
            let unified = unify(&mut b, &mut tr, &a, &c, false);
            prop_assert_eq!(unified, a == c);
            // Ground unification never binds anything.
            prop_assert!(tr.is_empty() || !unified);
        }
    }

    #[test]
    fn head_unifier_agrees_with_the_renamed_copy(
        goal_head in arb_goal_head(),
        pre in prop::collection::vec((0u32..6, arb_term()), 0..3),
        base in prop_oneof![Just(0u32), 1u32..12],
        occurs_check in any::<bool>(),
    ) {
        // Reading the head in place at offset `base` must be
        // indistinguishable from unifying against `head.offset_vars(base)`:
        // the same answer, the same binds in the same order, the same
        // resolved bindings.
        let (goal, head) = goal_head;
        let (mut in_place, mut renamed) = (prebound(&pre), prebound(&pre));
        let (mut t1, mut t2) = (Trail::new(), Trail::new());
        let ok = unify_head(&mut in_place, &mut t1, &goal, &head, base, occurs_check);
        let renamed_head = head.offset_vars(base);
        let expected = unify(&mut renamed, &mut t2, &goal, &renamed_head, occurs_check);
        prop_assert_eq!(ok, expected);
        prop_assert_eq!(&in_place.log, &renamed.log);
        prop_assert_eq!(t1.len(), t2.len());
        if occurs_check {
            // Finite bindings: resolving every variable terminates.
            for v in 0..6 + base + 6 {
                let var = Term::Var(VarId(v));
                prop_assert_eq!(in_place.resolve(&var), renamed.resolve(&var));
            }
        }
    }

    #[test]
    fn head_unifier_over_a_frame_chain_agrees_with_flat_bindings(
        goal_head in arb_goal_head(),
        pre in prop::collection::vec((0u32..6, arb_term()), 0..4),
        base in 6u32..16,
        occurs_check in any::<bool>(),
    ) {
        // The same attempt through a delta over frozen parent frames,
        // told that variables from `base` up are fresh (the renamed head
        // lives there; `pre` binds only goal variables below 6), must
        // give the flat store's answer and resolved bindings.
        let (goal, head) = goal_head;
        let mut flat = prebound(&pre);
        let parent = prebound_frames(&pre);
        let mut delta = DeltaBindings::new(&parent, base);
        let (mut t1, mut t2) = (Trail::new(), Trail::new());
        let expected = unify_head(&mut flat, &mut t1, &goal, &head, base, occurs_check);
        let ok = unify_head(&mut delta, &mut t2, &goal, &head, base, occurs_check);
        prop_assert_eq!(ok, expected);
        prop_assert_eq!(t1.len(), t2.len());
        prop_assert_eq!(delta.delta_len(), flat.log.len());
        if occurs_check {
            for v in 0..base + 6 {
                let var = Term::Var(VarId(v));
                prop_assert_eq!(delta.resolve(&var), flat.resolve(&var));
            }
        }
    }

    #[test]
    fn occurs_check_never_creates_cycles(a in arb_term(), c in arb_term()) {
        // With occurs check on, every binding must resolve to a finite
        // term; recursion through resolve would hang/overflow otherwise.
        let mut b = Bindings::new();
        let mut tr = Trail::new();
        if unify(&mut b, &mut tr, &a, &c, true) {
            // Just resolving both terms proves finiteness.
            let _ = b.resolve(&a);
            let _ = b.resolve(&c);
        }
    }
}
