//! Property tests for terms, bindings and unification, and for the
//! argument-key filter in front of head unification.

use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

use b_log::logic::node::ExpandStats;
use b_log::logic::{
    parse_program, try_expand_via, unify, unify_head, BindingFrame, BindingLookup, BindingWrite,
    Bindings, Caller, ClauseDb, DeltaBindings, ExpandBuffers, Expansion, Goal, GoalKeys, GoalStack,
    NodeState, PointerKey, Program, SearchNode, StateRepr, Sym, Term, Trail, VarId,
    DEFAULT_FLATTEN_THRESHOLD,
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

/// A random program over `p/3` facts and `q/2` rules whose arguments mix
/// atoms, integers, ground structures of two functors and variables, so
/// that many candidate heads clash with a goal on a bound argument. The
/// structures are ground so that no binding can be cyclic and every
/// resolved goal is finite.
fn arb_keyed_program() -> impl Strategy<Value = String> {
    const ARGS: [&str; 11] = [
        "c0", "c1", "c2", "0", "1", "f(c0)", "f(c1)", "g(c0,c1)", "X", "Y", "Z",
    ];
    let arg = || (0..ARGS.len()).prop_map(|i| ARGS[i]);
    let fact = (arg(), arg(), arg()).prop_map(|(a, b, c)| format!("p({a},{b},{c}).\n"));
    let rule = (prop::collection::vec(arg(), 6..7), any::<bool>()).prop_map(|(v, recurse)| {
        let [a, b, c, d, e, f] = v[..] else {
            unreachable!("six arguments")
        };
        let tail = if recurse {
            format!(", q({e},{f})")
        } else {
            String::new()
        };
        format!("q({a},{b}) :- p({a},{c},{d}), p({d},{e},{f}){tail}.\n")
    });
    let query = (arg(), arg(), arg(), any::<bool>()).prop_map(|(a, b, c, via_q)| {
        if via_q {
            format!("?- q({a},{b}).\n")
        } else {
            format!("?- p({a},{b},{c}), q({c},{a}).\n")
        }
    });
    (
        prop::collection::vec(fact, 1..10),
        prop::collection::vec(rule, 1..4),
        query,
    )
        .prop_map(|(facts, rules, query)| facts.concat() + &rules.concat() + &query)
}

/// One child as the differential property compares it: the arc, the
/// next fresh variable and every pending goal's provenance and term,
/// resolved through the child's bindings.
type ChildView = (PointerKey, u32, Vec<(Caller, u16, Term)>);

fn view_goals<'g>(
    goals: impl Iterator<Item = &'g Goal>,
    bindings: &dyn BindingLookup,
) -> Vec<(Caller, u16, Term)> {
    goals
        .map(|g| (g.caller, g.goal_idx, bindings.resolve(&g.term)))
        .collect()
}

fn view_child(e: &Expansion) -> ChildView {
    let goals = e.node.goal_stack();
    (
        e.arc,
        e.node.next_var,
        view_goals(goals.iter(), e.node.lookup()),
    )
}

/// `try_expand_via` without the key filter: every candidate's head goes
/// through `unify_head`, in both state representations, sprouting and
/// metering children the way the engine does.
fn expand_unfiltered(db: &ClauseDb, node: &SearchNode, stats: &mut ExpandStats) -> Vec<ChildView> {
    let Some(goal) = node.first_goal() else {
        return Vec::new();
    };
    let goal_term = node.walk_cow(&goal.term);
    let rest: Vec<Goal> = node.goal_stack().iter().skip(1).cloned().collect();
    let base = node.next_var;
    let mut children = Vec::new();
    for &cid in db.candidates_for(&goal_term) {
        stats.unify_attempts += 1;
        let clause = db.clause(cid);
        let body: Vec<Goal> = (clause.body.iter().enumerate())
            .map(|(i, b)| Goal {
                term: b.offset_vars(base),
                caller: Caller::Clause(cid),
                goal_idx: i as u16,
            })
            .collect();
        let goals = || body.iter().chain(rest.iter());
        let mut trail = Trail::new();
        let resolved = match &node.state {
            NodeState::Cloned { bindings, .. } => {
                let mut child = bindings.clone();
                child.ensure((base + clause.n_vars) as usize);
                if !unify_head(
                    &mut child,
                    &mut trail,
                    &goal_term,
                    &clause.head,
                    base,
                    false,
                ) {
                    continue;
                }
                stats.bytes_copied += (child.len() * size_of::<Option<Term>>()
                    + (body.len() + rest.len()) * size_of::<Goal>())
                    as u64;
                view_goals(goals(), &child)
            }
            NodeState::Shared {
                frame,
                flatten_threshold,
                ..
            } => {
                let mut delta = DeltaBindings::new(frame, base);
                if !unify_head(
                    &mut delta,
                    &mut trail,
                    &goal_term,
                    &clause.head,
                    base,
                    false,
                ) {
                    continue;
                }
                let (child, fz) = delta.freeze(*flatten_threshold);
                stats.bytes_copied +=
                    ((fz.delta + fz.flattened) as usize * size_of::<(VarId, Term)>()
                        + body.len() * GoalStack::cons_cell_bytes()) as u64;
                view_goals(goals(), child.as_ref())
            }
        };
        stats.unify_successes += 1;
        let arc = PointerKey {
            caller: goal.caller,
            goal_idx: goal.goal_idx,
            target: cid,
        };
        children.push((arc, base + clause.n_vars, resolved));
    }
    children
}

/// Walk `p`'s first query breadth first for `budget` nodes under `repr`,
/// checking every expansion against [`expand_unfiltered`]. One buffer set
/// serves the whole walk, as in a search loop. Returns the unifications
/// the filter spared.
fn filtered_expansion_matches_unfiltered(
    p: &Program,
    repr: StateRepr,
    budget: usize,
) -> Result<u64, TestCaseError> {
    let mut frontier = VecDeque::from([SearchNode::root_with(&p.queries[0].goals, repr)]);
    let mut bufs = ExpandBuffers::default();
    let mut spared = 0;
    for _ in 0..budget {
        let Some(node) = frontier.pop_front() else {
            break;
        };
        let (mut got, mut want) = (ExpandStats::default(), ExpandStats::default());
        try_expand_via(&p.db, &node, &mut got, &mut bufs).expect("a ClauseDb never faults");
        let expected = expand_unfiltered(&p.db, &node, &mut want);
        let children: Vec<ChildView> = bufs.children.iter().map(view_child).collect();
        prop_assert_eq!(children, expected);
        prop_assert_eq!(got.unify_attempts, want.unify_attempts);
        prop_assert_eq!(got.unify_successes, want.unify_successes);
        prop_assert_eq!(got.bytes_copied, want.bytes_copied);
        if let Some(goal) = node.first_goal() {
            let mut keys = GoalKeys::default();
            keys.fill(&goal.term, node.lookup());
            spared += (p.db.candidates_for(&node.walk_cow(&goal.term)))
                .iter()
                .filter(|&&cid| !keys.admits(&p.db.clause(cid).head))
                .count() as u64;
        }
        frontier.extend(bufs.children.drain(..).map(|e| e.node));
    }
    Ok(spared)
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
    fn goal_keys_reject_only_heads_that_cannot_unify(
        goal_head in arb_goal_head(),
        pre in prop::collection::vec((0u32..6, arb_term()), 0..4),
        base in 6u32..16,
        occurs_check in any::<bool>(),
    ) {
        // The filter is sound over both binding representations: a head
        // it rejects is one `unify_head` fails on. Both environments bind
        // the same goal variables, so they read the same keys.
        let (goal, head) = goal_head;
        let mut flat = prebound(&pre);
        let parent = prebound_frames(&pre);
        let (mut on_flat, mut on_frames) = (GoalKeys::default(), GoalKeys::default());
        on_flat.fill(&goal, &flat);
        on_frames.fill(&goal, parent.as_ref());
        let admitted = on_flat.admits(&head);
        prop_assert_eq!(admitted, on_frames.admits(&head));
        let mut delta = DeltaBindings::new(&parent, base);
        let (mut t1, mut t2) = (Trail::new(), Trail::new());
        let on_flat_ok = unify_head(&mut flat, &mut t1, &goal, &head, base, occurs_check);
        let on_frames_ok = unify_head(&mut delta, &mut t2, &goal, &head, base, occurs_check);
        if !admitted {
            prop_assert!(!on_flat_ok, "rejected a head that unifies on flat bindings");
            prop_assert!(!on_frames_ok, "rejected a head that unifies over a frame chain");
        }
    }

    #[test]
    fn filtered_expansion_equals_unify_on_every_candidate(
        src in arb_keyed_program(),
        threshold in 0u32..4,
    ) {
        // Children, their order, their resolved goals and every counter
        // are those of trying `unify_head` on each candidate, under both
        // representations and with flattening forced or not.
        let p = parse_program(&src).expect("generated program parses");
        let shared = StateRepr::Shared { flatten_threshold: threshold };
        for repr in [StateRepr::Cloned, shared, StateRepr::shared()] {
            filtered_expansion_matches_unfiltered(&p, repr, 60)?;
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

#[test]
fn the_generated_programs_exercise_the_filter() {
    // The differential property above is only as strong as the number of
    // candidates the filter actually rejects on its programs.
    let mut rng = TestRng::deterministic();
    let (mut spared, mut programs) = (0, 0);
    for _ in 0..32 {
        let src = arb_keyed_program().gen(&mut rng);
        let p = parse_program(&src).expect("generated program parses");
        spared += filtered_expansion_matches_unfiltered(&p, StateRepr::shared(), 60).unwrap();
        programs += 1;
    }
    assert!(
        spared >= programs,
        "{spared} rejections over {programs} programs"
    );
}
