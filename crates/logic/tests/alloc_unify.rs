//! A failed head unification must not allocate.
//!
//! Most resolution attempts fail (two in three on the benchmark's search
//! base), so an attempt that fails should cost comparisons and nothing
//! else: no renamed copy of the clause head, no heap frame stack. A
//! counting global allocator meters the calling thread, so the numbers
//! repeat exactly and nothing here reads a clock. Each attempt is run
//! once unmeasured first, so the trail and the frame delta have the
//! capacity a steady-state search reuses across attempts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blog_logic::{
    parse_program, parse_query, unify, unify_head, BindingFrame, Bindings, DeltaBindings, Term,
    Trail, VarId,
};

thread_local! {
    /// Allocation calls made by this thread. `const`-initialized and
    /// without a destructor, so reading it from inside the allocator
    /// neither allocates nor outlives the thread's storage.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations are nobody's business.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATED.get();
    std::hint::black_box(f());
    ALLOCATED.get() - before
}

/// An arity-8 ground fact, and goals against it that each fail —
/// first thing, after binding goal variables, or through a goal
/// variable already bound to a structure (`W`).
const FACT: &str = "f(a, g(b, 1), c, 2, h(d, e, k), m, 3, n).";
const FAILING_GOALS: [&str; 4] = [
    "f(X, g(b, Y), c, 2, h(d, e, Z), m, 3, zz)",
    "f(zz, g(b, Y), c, 2, h(d, e, Z), m, 3, n)",
    "f(a, W, c, 2, h(d, e, k), m, 3, zz)",
    "f(a, g(b, 1), c, 2, h(d, e, k), m, Q, p(n))",
];

/// The fact's head and each failing goal (the goal's variables start at
/// 0; `W` is pre-bound to `g(b, 1)` where it occurs).
fn setup() -> (Term, Vec<(Term, Option<VarId>)>) {
    let p = parse_program(FACT).unwrap();
    let mut db = p.db.clone();
    let head = p.db.clauses()[0].head.clone();
    let goals = FAILING_GOALS
        .iter()
        .map(|text| {
            let q = parse_query(&mut db, text).unwrap();
            let w = q.var_names.iter().position(|n| n == "W");
            (q.goals[0].clone(), w.map(|i| VarId(i as u32)))
        })
        .collect();
    (head, goals)
}

/// `g(b, 1)`, written into the binding store before the attempt.
fn structure(head: &Term) -> Term {
    let Term::Struct(_, args) = head else {
        panic!("the fact has arguments")
    };
    args[1].clone()
}

#[test]
fn a_failed_head_unification_on_flat_bindings_allocates_nothing() {
    let (head, goals) = setup();
    for (goal, w) in &goals {
        let base = 10;
        let mut bindings = Bindings::with_capacity(16);
        bindings.ensure(16);
        let mut trail = Trail::with_capacity(16);
        if let Some(w) = w {
            assert!(unify(
                &mut bindings,
                &mut trail,
                &Term::Var(*w),
                &structure(&head),
                false
            ));
        }
        let mark = trail.mark();
        let mut attempt = || {
            let ok = unify_head(&mut bindings, &mut trail, goal, &head, base, false);
            bindings.undo_to(&mut trail, mark);
            ok
        };
        assert!(!attempt(), "{goal:?} must fail");
        assert_eq!(allocations(&mut attempt), 0, "{goal:?}");
    }
}

#[test]
fn a_failed_head_unification_on_a_frame_delta_allocates_nothing() {
    let (head, goals) = setup();
    for (goal, w) in &goals {
        let base = 10;
        let mut trail = Trail::with_capacity(16);
        let root = BindingFrame::root();
        let parent = match w {
            Some(w) => {
                // Over the empty root no variable is bound yet.
                let mut delta = DeltaBindings::new(&root, 0);
                assert!(unify(
                    &mut delta,
                    &mut trail,
                    &Term::Var(*w),
                    &structure(&head),
                    false
                ));
                delta.freeze(16).0
            }
            None => root,
        };
        // The head is renamed from `base` up, past every goal variable.
        let mut delta = DeltaBindings::new(&parent, base);
        let mut attempt = || {
            delta.clear();
            trail.clear();
            unify_head(&mut delta, &mut trail, goal, &head, base, false)
        };
        assert!(!attempt(), "{goal:?} must fail");
        assert_eq!(allocations(&mut attempt), 0, "{goal:?}");
    }
}
