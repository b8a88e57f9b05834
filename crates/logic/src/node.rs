//! OR-tree nodes and the single resolution-step primitive.
//!
//! The paper's figure 3 draws execution as an OR-tree: each node carries a
//! goal to search for, and each arc below it is one way of resolving that
//! goal against the database. [`SearchNode`] is one node of that tree
//! (goal list + bindings), [`try_expand_via`] produces its children, and
//! [`PointerKey`] names the arc that led to each child — the identity that
//! the B-LOG weight store keys on.
//!
//! AND-composition is linearized into the goal list exactly as the paper's
//! simplified model prescribes ("we consider AND-trees now only in a
//! sequential way, in very much the same way Prolog does").
//!
//! ## Search-state representation
//!
//! Sprouting a child historically *copied* the whole search state — clone
//! the binding store, rebuild the goal vector — which is exactly the §6
//! cost the paper's multi-write memory attacks. [`StateRepr`] picks the
//! representation per search:
//!
//! - [`StateRepr::Cloned`] — the baseline: flat [`Bindings`] clone and a
//!   rebuilt `Vec<Goal>` per child. O(state) per sprout.
//! - [`StateRepr::Shared`] — structure sharing: each child holds an `Arc`
//!   to its parent's [`BindingFrame`] plus only its own unification's
//!   writes, and goals are an `Arc` cons [`GoalStack`] whose continuation
//!   is aliased, not copied. O(delta) per sprout, with frame chains
//!   flattened past a configurable threshold so walks stay bounded.
//!
//! Both representations resolve goals through the same
//! [`unify_head`] — the clause head read in place, renamed apart by an
//! offset, never copied for an attempt that fails — behind the same
//! [`GoalKeys`] check, which skips a head whose argument keys clash with
//! the goal's before any unification starts. They produce identical
//! children (the
//! `state_repr` property suite in `tests/` holds them equal on arbitrary
//! programs); [`ExpandStats::bytes_copied`] meters the difference.

use std::sync::Arc;

use serde::Serialize;

use crate::bindings::{BindingLookup, Bindings, Trail};
use crate::clause::ClauseId;
use crate::frames::{BindingFrame, DeltaBindings, FreezeStats, DEFAULT_FLATTEN_THRESHOLD};
use crate::goals::GoalStack;
use crate::source::{ClauseSource, StoreError};
use crate::store::ClauseDb;
use crate::term::{Term, VarId};
use crate::unify::{unify_head, GoalKeys};

/// Where a goal came from: the query itself or the body of a clause.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Caller {
    /// A goal of the top-level query.
    Query,
    /// A body goal of the given clause.
    Clause(ClauseId),
}

/// A goal to be resolved, together with its provenance (which clause body,
/// and which position in it, the goal came from). Provenance is what lets
/// us name the figure-4 pointer being followed when the goal is resolved.
#[derive(Clone, Debug)]
pub struct Goal {
    /// The goal term (not yet dereferenced).
    pub term: Term,
    /// The clause whose body contributed this goal.
    pub caller: Caller,
    /// Position of this goal within the caller's body (or within the
    /// query's conjunction).
    pub goal_idx: u16,
}

/// Most goals one clause body or one query may hold. [`Goal::goal_idx`]
/// is a `u16`: a longer body would give two of its goals one index, and
/// so one [`PointerKey`] and one §5 weight. [`ClauseDb::add_clause`], the
/// store's transactional assert and the parser reject anything longer.
pub const MAX_GOALS: usize = u16::MAX as usize + 1;

/// Goal position `i` of a body or query as a [`Goal::goal_idx`].
///
/// # Panics
/// If `i` is not below [`MAX_GOALS`], which every insertion path rules
/// out.
pub fn goal_idx(i: usize) -> u16 {
    u16::try_from(i).expect("a body or query holds at most MAX_GOALS goals")
}

/// Identity of one weighted pointer of figure 4: caller block, pointer
/// position within the block, and target block.
///
/// Weights attached to these keys are shared by *every occurrence* of the
/// arc in any search tree, which is requirement 1 of the paper's section 4
/// ("if an arc appears twice in a tree … they have the same probability.
/// This is required if these probabilities are to be stored in a database
/// that is common to all queries").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PointerKey {
    /// Block containing the pointer.
    pub caller: Caller,
    /// Goal position within the caller block.
    pub goal_idx: u16,
    /// Block the pointer targets.
    pub target: ClauseId,
}

/// How search state is represented and sprouted; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum StateRepr {
    /// Copy-per-child: clone the binding store and rebuild the goal list
    /// for every sprout (the pre-sharing baseline, kept for measurement
    /// and equivalence testing).
    Cloned,
    /// Structure sharing: persistent binding frames + cons-list goals.
    Shared {
        /// Frame-chain length past which
        /// [`freeze`](crate::frames::DeltaBindings::freeze) flattens.
        flatten_threshold: u32,
    },
}

impl StateRepr {
    /// The sharing representation with the default flatten threshold.
    pub fn shared() -> StateRepr {
        StateRepr::Shared {
            flatten_threshold: DEFAULT_FLATTEN_THRESHOLD,
        }
    }
}

impl Default for StateRepr {
    /// Sharing is the default: it is measured no slower sequentially and
    /// removes the dominant cross-thread copy traffic (§6).
    fn default() -> StateRepr {
        StateRepr::shared()
    }
}

/// The per-representation payload of a [`SearchNode`].
#[derive(Clone, Debug)]
pub enum NodeState {
    /// Baseline copy-per-child state.
    Cloned {
        /// Remaining goals, leftmost first (Prolog selection rule).
        goals: Vec<Goal>,
        /// Bindings accumulated along the chain from the root.
        bindings: Bindings,
    },
    /// Structure-shared state.
    Shared {
        /// Remaining goals; the continuation below the top is aliased
        /// with the parent and every sibling.
        goals: GoalStack,
        /// This node's binding frame (own writes + `Arc` to the parent's).
        frame: Arc<BindingFrame>,
        /// Chain length past which freezing flattens.
        flatten_threshold: u32,
    },
}

/// One node of the OR-tree: the remaining conjunction of goals plus the
/// bindings accumulated on the chain from the root, in either
/// representation.
#[derive(Clone, Debug)]
pub struct SearchNode {
    /// Goals + bindings in the representation chosen at the root.
    pub state: NodeState,
    /// Next fresh variable index for renaming clauses apart.
    pub next_var: u32,
    /// Number of arcs from the root (chain length).
    pub depth: u32,
}

impl SearchNode {
    /// The root node for a query conjunction, in the default
    /// (structure-sharing) representation.
    ///
    /// Query variables must be normalized to `0..n`; they stay at those
    /// indices for the whole search so solutions can be read back out.
    pub fn root(query_goals: &[Term]) -> SearchNode {
        SearchNode::root_with(query_goals, StateRepr::default())
    }

    /// [`root`](Self::root) with an explicit state representation.
    pub fn root_with(query_goals: &[Term], repr: StateRepr) -> SearchNode {
        let n_vars = query_goals
            .iter()
            .filter_map(Term::max_var)
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0);
        let goals: Vec<Goal> = query_goals
            .iter()
            .enumerate()
            .map(|(i, t)| Goal {
                term: t.clone(),
                caller: Caller::Query,
                goal_idx: goal_idx(i),
            })
            .collect();
        let state = match repr {
            StateRepr::Cloned => NodeState::Cloned {
                goals,
                bindings: Bindings::new(),
            },
            StateRepr::Shared { flatten_threshold } => NodeState::Shared {
                goals: GoalStack::from_slice(&goals),
                frame: BindingFrame::root(),
                flatten_threshold,
            },
        };
        SearchNode {
            state,
            next_var: n_vars,
            depth: 0,
        }
    }

    /// The representation this node (and every node sprouted from it)
    /// uses.
    pub fn repr(&self) -> StateRepr {
        match &self.state {
            NodeState::Cloned { .. } => StateRepr::Cloned,
            NodeState::Shared {
                flatten_threshold, ..
            } => StateRepr::Shared {
                flatten_threshold: *flatten_threshold,
            },
        }
    }

    /// Whether every goal has been resolved — a solution leaf.
    pub fn is_solution(&self) -> bool {
        match &self.state {
            NodeState::Cloned { goals, .. } => goals.is_empty(),
            NodeState::Shared { goals, .. } => goals.is_empty(),
        }
    }

    /// The goal the node is about to resolve (Prolog selection rule).
    pub fn first_goal(&self) -> Option<&Goal> {
        match &self.state {
            NodeState::Cloned { goals, .. } => goals.first(),
            NodeState::Shared { goals, .. } => goals.first(),
        }
    }

    /// The pending goals as a cons stack: aliased under `Shared`, copied
    /// once under `Cloned` (used by the depth-first engine, whose
    /// backtracking goal list is the same persistent type).
    pub fn goal_stack(&self) -> GoalStack {
        match &self.state {
            NodeState::Cloned { goals, .. } => GoalStack::from_slice(goals),
            NodeState::Shared { goals, .. } => goals.clone(),
        }
    }

    /// Number of pending goals.
    pub fn goal_count(&self) -> usize {
        match &self.state {
            NodeState::Cloned { goals, .. } => goals.len(),
            NodeState::Shared { goals, .. } => goals.len(),
        }
    }

    /// The node's binding environment, representation-blind.
    pub fn lookup(&self) -> &dyn BindingLookup {
        match &self.state {
            NodeState::Cloned { bindings, .. } => bindings,
            NodeState::Shared { frame, .. } => frame.as_ref(),
        }
    }

    /// Fully resolve `t` through the node's bindings (solution
    /// extraction resolves through the frame chain in `Shared`).
    pub fn resolve(&self, t: &Term) -> Term {
        self.lookup().resolve(t)
    }

    /// Resolve query variable `v` (for reading solutions back out).
    pub fn resolve_var(&self, v: u32) -> Term {
        self.resolve(&Term::Var(VarId(v)))
    }

    /// Dereference `t` without copying when the walk goes nowhere; see
    /// [`BindingLookup::walk_cow`].
    pub fn walk_cow<'a>(&self, t: &'a Term) -> std::borrow::Cow<'a, Term> {
        self.lookup().walk_cow(t)
    }
}

/// One child produced by [`expand`].
#[derive(Clone, Debug)]
pub struct Expansion {
    /// The figure-4 pointer followed to produce this child.
    pub arc: PointerKey,
    /// The child node.
    pub node: SearchNode,
}

/// Counters shared by all engines; see [`crate::solve::SearchStats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct ExpandStats {
    /// Unification attempts (head matches tried).
    pub unify_attempts: u64,
    /// Successful unifications (children actually produced).
    pub unify_successes: u64,
    /// Bytes of search state physically copied to sprout children: cloned
    /// binding slots + rebuilt goal entries under [`StateRepr::Cloned`];
    /// frame deltas, flatten copies + new cons cells under
    /// [`StateRepr::Shared`]. This is the measured form of the §6
    /// "copying when chains are sprouted" cost.
    pub bytes_copied: u64,
}

/// Bytes physically copied to sprout one `Cloned` child.
#[inline]
fn cloned_sprout_bytes(binding_slots: usize, goal_entries: usize) -> u64 {
    (binding_slots * std::mem::size_of::<Option<Term>>()
        + goal_entries * std::mem::size_of::<Goal>()) as u64
}

/// Bytes physically copied to sprout one `Shared` child.
#[inline]
fn shared_sprout_bytes(fz: &FreezeStats, body_goals: usize) -> u64 {
    ((fz.delta + fz.flattened) as usize * std::mem::size_of::<(VarId, Term)>()
        + body_goals * GoalStack::cons_cell_bytes()) as u64
}

/// Resolve the first goal of `node` against every candidate clause of an
/// in-memory database, returning the surviving children in clause
/// (program) order.
///
/// This is [`try_expand_via`] with fresh buffers, for tests and one-off
/// callers. Every engine and the breadth-first walk call
/// [`try_expand_via`] itself with buffers they keep across nodes, so
/// "nodes expanded" counts are directly comparable across strategies.
///
/// Returns an empty vector if the node is a solution (nothing to expand)
/// or if every candidate fails to unify (the node is a *failure* leaf).
pub fn expand(db: &ClauseDb, node: &SearchNode, stats: &mut ExpandStats) -> Vec<Expansion> {
    let mut bufs = ExpandBuffers::default();
    try_expand_via(db, node, stats, &mut bufs).expect("the in-memory ClauseDb never faults");
    bufs.children
}

/// The buffers one [`try_expand_via`] call fills and the next reuses: the
/// trail, the frame delta's writes, the goal's argument keys and the
/// children. A search loop owns one and keeps it across nodes, so these
/// cost no allocation per node.
#[derive(Default, Debug)]
pub struct ExpandBuffers {
    trail: Trail,
    writes: Vec<(VarId, Term)>,
    keys: GoalKeys,
    /// The children of the last expansion, in clause order.
    pub children: Vec<Expansion>,
}

/// [`expand`], generalized over any [`ClauseSource`], with storage
/// faults surfaced as values and the children left in `bufs.children`
/// (cleared first).
///
/// Every clause touched during candidate matching is fetched through the
/// source, so a paged backend observes the search's true block-access
/// stream — one [`try_fetch_clause`](ClauseSource::try_fetch_clause) per
/// unification attempt.
///
/// When the goal has two or more candidates, its argument keys are read
/// once into `bufs` and each fetched head is checked with
/// [`GoalKeys::admits`] before [`unify_head`] runs. A rejected head is one
/// unification would fail on, and it has already been fetched and counted
/// as an attempt, so the touch stream, the planned faults and every
/// counter are exactly those of unifying every candidate.
///
/// Children inherit the node's [`StateRepr`]: under `Cloned` each child
/// copies the store; under `Shared` each child is an `Arc` onto the
/// parent's frame plus this step's delta, and the goal continuation is
/// aliased. Every candidate attempt reuses the caller's [`Trail`] and,
/// under `Shared`, the caller's delta write buffer.
///
/// A [`StoreError`] from a fault-planned backend propagates as a value
/// the retry/breaker machinery can classify. On `Err`, `bufs.children`
/// holds the children sprouted before the fault, which the caller must
/// discard — it abandons the whole expansion and either retries the
/// request against a fresh snapshot or fails it; partial expansions are
/// never searched.
pub fn try_expand_via<S: ClauseSource + ?Sized>(
    source: &S,
    node: &SearchNode,
    stats: &mut ExpandStats,
    bufs: &mut ExpandBuffers,
) -> Result<(), StoreError> {
    bufs.children.clear();
    let Some(goal) = node.first_goal() else {
        return Ok(());
    };
    // Dereference the goal far enough to know its functor: the goal term
    // as stored may be a variable bound to a structure by an earlier step.
    // `walk_cow` borrows from the goal (not the store) when the walk goes
    // nowhere, so nothing is cloned on the common already-resolved path.
    let goal_term = node.walk_cow(&goal.term);
    let candidates = source.try_candidate_clauses(&goal_term, node.lookup())?;
    let ExpandBuffers {
        trail,
        writes,
        keys,
        children: out,
    } = bufs;
    // A lone candidate gains nothing from the key check: unification
    // answers for it just as well.
    let filter = candidates.len() >= 2;
    out.reserve(candidates.len());
    let arc_for = |cid: ClauseId| PointerKey {
        caller: goal.caller,
        goal_idx: goal.goal_idx,
        target: cid,
    };
    let base = node.next_var;

    match &node.state {
        NodeState::Cloned { goals, bindings } => {
            if filter {
                keys.fill(&goal_term, bindings);
            }
            for &cid in candidates.iter() {
                stats.unify_attempts += 1;
                let clause = source.try_fetch_clause(cid)?;
                if filter && !keys.admits(&clause.head) {
                    continue;
                }

                // Child state: clone bindings, try the head match.
                let mut child_bindings = bindings.clone();
                child_bindings.ensure((base + clause.n_vars) as usize);
                trail.clear();
                if !unify_head(
                    &mut child_bindings,
                    trail,
                    &goal_term,
                    &clause.head,
                    base,
                    false,
                ) {
                    continue;
                }
                stats.unify_successes += 1;

                // New goal list: renamed body goals, then the rest of the
                // old list — rebuilt in full, the baseline cost.
                let mut child_goals = Vec::with_capacity(clause.body.len() + goals.len() - 1);
                for (i, b) in clause.body.iter().enumerate() {
                    child_goals.push(Goal {
                        term: b.offset_vars(base),
                        caller: Caller::Clause(cid),
                        goal_idx: goal_idx(i),
                    });
                }
                child_goals.extend_from_slice(&goals[1..]);
                stats.bytes_copied += cloned_sprout_bytes(child_bindings.len(), child_goals.len());

                out.push(Expansion {
                    arc: arc_for(cid),
                    node: SearchNode {
                        state: NodeState::Cloned {
                            goals: child_goals,
                            bindings: child_bindings,
                        },
                        next_var: base + clause.n_vars,
                        depth: node.depth + 1,
                    },
                });
            }
        }
        NodeState::Shared {
            goals,
            frame,
            flatten_threshold,
        } => {
            // The continuation below the goal being resolved — shared by
            // every child without copying.
            let continuation = goals.rest();
            // A fault returns early and gives up the write buffer; the
            // next expansion allocates a fresh one.
            let mut delta = DeltaBindings::reusing(frame, base, std::mem::take(writes));
            if filter {
                keys.fill(&goal_term, frame.as_ref());
            }
            for &cid in candidates.iter() {
                stats.unify_attempts += 1;
                let clause = source.try_fetch_clause(cid)?;
                if filter && !keys.admits(&clause.head) {
                    continue;
                }

                delta.clear();
                trail.clear();
                if !unify_head(&mut delta, trail, &goal_term, &clause.head, base, false) {
                    continue;
                }
                stats.unify_successes += 1;

                let (child_frame, fz) = delta.freeze(*flatten_threshold);
                let mut child_goals = continuation.clone();
                for (i, b) in clause.body.iter().enumerate().rev() {
                    child_goals = child_goals.push(Goal {
                        term: b.offset_vars(base),
                        caller: Caller::Clause(cid),
                        goal_idx: goal_idx(i),
                    });
                }
                stats.bytes_copied += shared_sprout_bytes(&fz, clause.body.len());

                out.push(Expansion {
                    arc: arc_for(cid),
                    node: SearchNode {
                        state: NodeState::Shared {
                            goals: child_goals,
                            frame: child_frame,
                            flatten_threshold: *flatten_threshold,
                        },
                        next_var: base + clause.n_vars,
                        depth: node.depth + 1,
                    },
                });
            }
            *writes = delta.into_writes();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::Clause;
    use crate::term::VarId;

    /// The paper's figure-1 program.
    pub(crate) fn family() -> (ClauseDb, Vec<Term>) {
        let mut db = ClauseDb::new();
        let f = db.intern("f");
        let m = db.intern("m");
        let gf = db.intern("gf");
        let v = |i| Term::Var(VarId(i));
        // gf(X,Z) :- f(X,Y), f(Y,Z).
        db.add_clause(Clause::new(
            Term::app(gf, vec![v(0), v(2)]),
            vec![
                Term::app(f, vec![v(0), v(1)]),
                Term::app(f, vec![v(1), v(2)]),
            ],
        ))
        .unwrap();
        // gf(X,Z) :- f(X,Y), m(Y,Z).
        db.add_clause(Clause::new(
            Term::app(gf, vec![v(0), v(2)]),
            vec![
                Term::app(f, vec![v(0), v(1)]),
                Term::app(m, vec![v(1), v(2)]),
            ],
        ))
        .unwrap();
        let names = [
            ("f", "curt", "elain"),
            ("f", "sam", "larry"),
            ("f", "dan", "pat"),
            ("f", "larry", "den"),
            ("f", "pat", "john"),
            ("f", "larry", "doug"),
            ("m", "elain", "john"),
            ("m", "marian", "elain"),
            ("m", "peg", "den"),
            ("m", "peg", "doug"),
        ];
        for (p, a, b) in names {
            let ps = db.intern(p);
            let aa = db.intern(a);
            let bb = db.intern(b);
            db.add_fact(Term::app(ps, vec![Term::Atom(aa), Term::Atom(bb)]))
                .unwrap();
        }
        db.build_pointers();
        let sam = db.sym("sam").unwrap();
        let query = vec![Term::app(gf, vec![Term::Atom(sam), Term::Var(VarId(0))])];
        (db, query)
    }

    /// Both representations, for representation-blind tests.
    fn both_reprs() -> [StateRepr; 2] {
        [StateRepr::Cloned, StateRepr::shared()]
    }

    #[test]
    fn root_counts_query_vars() {
        let (_, query) = family();
        for repr in both_reprs() {
            let root = SearchNode::root_with(&query, repr);
            assert_eq!(root.next_var, 1);
            assert_eq!(root.goal_count(), 1);
            assert_eq!(root.depth, 0);
            assert!(!root.is_solution());
            assert_eq!(root.repr(), repr);
        }
    }

    #[test]
    fn expanding_root_matches_both_rules() {
        let (db, query) = family();
        for repr in both_reprs() {
            let root = SearchNode::root_with(&query, repr);
            let mut st = ExpandStats::default();
            let kids = expand(&db, &root, &mut st);
            // gf(sam,G) matches exactly the two gf rules.
            assert_eq!(kids.len(), 2);
            assert_eq!(kids[0].arc.target, ClauseId(0));
            assert_eq!(kids[1].arc.target, ClauseId(1));
            assert_eq!(st.unify_attempts, 2);
            assert_eq!(st.unify_successes, 2);
            assert!(st.bytes_copied > 0, "sprouting is metered");
            // Each child now has the two body goals queued.
            assert_eq!(kids[0].node.goal_count(), 2);
            assert_eq!(kids[0].node.depth, 1);
        }
    }

    #[test]
    fn failing_candidates_are_filtered() {
        let (db, _) = family();
        // f(sam, X): only f(sam,larry) among six f-facts unifies.
        let f = db.sym("f").unwrap();
        let sam = db.sym("sam").unwrap();
        let q = vec![Term::app(f, vec![Term::Atom(sam), Term::Var(VarId(0))])];
        for repr in both_reprs() {
            let root = SearchNode::root_with(&q, repr);
            let mut st = ExpandStats::default();
            let kids = expand(&db, &root, &mut st);
            assert_eq!(kids.len(), 1);
            assert_eq!(st.unify_attempts, 6);
            assert_eq!(st.unify_successes, 1);
            assert!(kids[0].node.is_solution());
        }
    }

    #[test]
    fn arc_keys_record_provenance() {
        let (db, query) = family();
        let root = SearchNode::root(&query);
        let mut st = ExpandStats::default();
        let kids = expand(&db, &root, &mut st);
        assert_eq!(kids[0].arc.caller, Caller::Query);
        assert_eq!(kids[0].arc.goal_idx, 0);
        // Expand one level further: goal now comes from clause 0's body.
        let grandkids = expand(&db, &kids[0].node, &mut st);
        assert!(!grandkids.is_empty());
        assert_eq!(grandkids[0].arc.caller, Caller::Clause(ClauseId(0)));
        assert_eq!(grandkids[0].arc.goal_idx, 0);
    }

    #[test]
    fn expansion_renames_clause_vars_apart() {
        let (db, query) = family();
        for repr in both_reprs() {
            let root = SearchNode::root_with(&query, repr);
            let mut st = ExpandStats::default();
            let kids = expand(&db, &root, &mut st);
            // Clause 0 has 3 vars; child must have advanced next_var past
            // them.
            assert_eq!(kids[0].node.next_var, root.next_var + 3);
        }
    }

    #[test]
    fn solution_node_expands_to_nothing() {
        let (db, _) = family();
        let node = SearchNode::root(&[]);
        assert!(node.is_solution());
        let mut st = ExpandStats::default();
        assert!(expand(&db, &node, &mut st).is_empty());
        assert_eq!(st.unify_attempts, 0);
    }

    #[test]
    fn shared_children_alias_the_goal_continuation() {
        let (db, query) = family();
        let root = SearchNode::root_with(&query, StateRepr::shared());
        let mut st = ExpandStats::default();
        let kids = expand(&db, &root, &mut st);
        // Both rule children queue two body goals over the same (empty)
        // continuation; expanding further shares the remaining goal.
        let grandkids = expand(&db, &kids[0].node, &mut st);
        let (NodeState::Shared { goals: g1, .. }, NodeState::Shared { goals: g2, .. }) =
            (&grandkids[0].node.state, &kids[0].node.state)
        else {
            panic!("expected shared nodes");
        };
        assert!(
            g1.ptr_eq(&g2.rest()),
            "the f(Y,Z) continuation must be aliased, not copied"
        );
    }

    #[test]
    fn shared_sprouts_copy_fewer_bytes_than_cloned() {
        let (db, query) = family();
        let mut frontier_cloned = vec![SearchNode::root_with(&query, StateRepr::Cloned)];
        let mut frontier_shared = vec![SearchNode::root_with(&query, StateRepr::shared())];
        let mut st_cloned = ExpandStats::default();
        let mut st_shared = ExpandStats::default();
        while let Some(n) = frontier_cloned.pop() {
            frontier_cloned.extend(expand(&db, &n, &mut st_cloned).into_iter().map(|e| e.node));
        }
        while let Some(n) = frontier_shared.pop() {
            frontier_shared.extend(expand(&db, &n, &mut st_shared).into_iter().map(|e| e.node));
        }
        assert_eq!(st_cloned.unify_successes, st_shared.unify_successes);
        assert!(
            st_shared.bytes_copied < st_cloned.bytes_copied,
            "shared {} !< cloned {}",
            st_shared.bytes_copied,
            st_cloned.bytes_copied
        );
    }

    #[test]
    fn tiny_flatten_threshold_preserves_results() {
        // Force a flatten at every sprout: results must be unchanged.
        let (db, query) = family();
        let reprs = [
            StateRepr::Cloned,
            StateRepr::Shared {
                flatten_threshold: 0,
            },
            StateRepr::shared(),
        ];
        let mut leaves: Vec<Vec<String>> = Vec::new();
        for repr in reprs {
            let mut frontier = vec![SearchNode::root_with(&query, repr)];
            let mut st = ExpandStats::default();
            let mut solutions = Vec::new();
            while let Some(n) = frontier.pop() {
                if n.is_solution() {
                    solutions.push(format!("{:?}", n.resolve_var(0)));
                    continue;
                }
                frontier.extend(expand(&db, &n, &mut st).into_iter().map(|e| e.node));
            }
            solutions.sort();
            leaves.push(solutions);
        }
        assert_eq!(leaves[0], leaves[1]);
        assert_eq!(leaves[0], leaves[2]);
    }
}
