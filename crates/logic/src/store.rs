//! The clause database with the paper's weighted-pointer layout.
//!
//! Section 5 / figure 4 of the paper store the program as "a linked list
//! data structure, with blocks representing each Horn clause … and
//! pointers to blocks representing other rules or facts in the database
//! that can resolve the rule", one weight per pointer — i.e. an inverted
//! file from every body goal to its candidate resolvers.
//!
//! [`ClauseDb`] reproduces exactly that: clauses are blocks, and for every
//! body-goal position of every clause (plus, lazily, every query goal) the
//! db precomputes the ordered candidate list. A *pointer* is identified by
//! [`PointerKey`](crate::node::PointerKey) = (caller clause, goal index,
//! target clause); the B-LOG weight store in `blog-core` hangs weights off
//! those keys, which is the software form of "weights are stored with the
//! pointers, rather than at the beginning of each block".

use std::borrow::Cow;
use std::collections::HashMap;

use crate::bindings::BindingLookup;
use crate::clause::{Clause, ClauseId};
use crate::node::MAX_GOALS;
use crate::symbol::{Sym, SymbolTable};
use crate::term::Term;

/// How candidate clauses are selected for a goal.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum IndexMode {
    /// All clauses of the goal's predicate, in program order — the
    /// figure-4 pointer list exactly as stored. This is the default so
    /// work counters match the paper's model one-to-one.
    #[default]
    PredicateOnly,
    /// Additionally filter by the goal's (dereferenced) first argument,
    /// the classic Prolog-engine optimization: candidates whose head
    /// first argument cannot match are skipped without a unification
    /// attempt. Never changes the solution set, only the attempt counts.
    FirstArg,
}

/// First-argument index key: the principal functor of a bound argument.
///
/// Public so secondary indexes (the bitmap clause index in `blog-spd`)
/// can key on exactly the same discriminator the database's own
/// first-argument index uses — the differential oracle tests rely on
/// both sides agreeing on what "the leading functor" means.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArgKey {
    /// A constant (`sam`).
    Atom(Sym),
    /// An integer (`42`).
    Int(i64),
    /// A compound term's principal functor (`point/2`).
    Struct(Sym, u32),
}

/// The [`ArgKey`] of a (dereferenced) term, `None` for unbound variables
/// — which match any head, so they cannot narrow a candidate set.
pub fn arg_key(t: &Term) -> Option<ArgKey> {
    match t {
        Term::Var(_) => None,
        Term::Atom(s) => Some(ArgKey::Atom(*s)),
        Term::Int(n) => Some(ArgKey::Int(*n)),
        Term::Struct(f, args) => Some(ArgKey::Struct(*f, args.len() as u32)),
    }
}

/// Per-predicate first-argument index.
#[derive(Default, Clone, Debug)]
struct FirstArgIndex {
    /// Clauses whose head first argument is the given constant, sorted.
    by_key: HashMap<ArgKey, Vec<ClauseId>>,
    /// Clauses whose head first argument is a variable (match anything),
    /// sorted.
    var_headed: Vec<ClauseId>,
}

/// Errors raised when inserting ill-formed clauses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DbError {
    /// Clause head was a variable or integer.
    UncallableHead,
    /// A body goal was a variable or integer.
    UncallableGoal { goal_idx: usize },
    /// The body holds more than [`MAX_GOALS`] goals.
    TooManyGoals { goals: usize },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::UncallableHead => write!(f, "clause head is not a callable term"),
            DbError::UncallableGoal { goal_idx } => {
                write!(f, "body goal {goal_idx} is not a callable term")
            }
            DbError::TooManyGoals { goals } => {
                write!(f, "clause body has {goals} goals, more than {MAX_GOALS}")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// The clause database: symbol table, clause blocks, predicate index and
/// the per-goal candidate ("pointer") lists of figure 4.
#[derive(Default, Clone, Debug)]
pub struct ClauseDb {
    symbols: SymbolTable,
    clauses: Vec<Clause>,
    /// Predicate `(functor, arity)` → clauses defining it, in program order.
    index: HashMap<(Sym, u32), Vec<ClauseId>>,
    /// `clause_goal_candidates[c][g]` = candidate resolvers for goal `g` of
    /// clause `c` — the figure-4 pointer lists. Rebuilt on insertion.
    clause_goal_candidates: Vec<Vec<Vec<ClauseId>>>,
    candidates_dirty: bool,
    /// First-argument indexes per predicate (built with the pointers).
    first_arg: HashMap<(Sym, u32), FirstArgIndex>,
    /// Candidate-selection mode.
    index_mode: IndexMode,
}

impl ClauseDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a symbol name.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.symbols.intern(name)
    }

    /// The symbol table (read-only).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Look up an interned symbol by name.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.symbols.get(name)
    }

    /// Add a clause block. Returns its id.
    pub fn add_clause(&mut self, clause: Clause) -> Result<ClauseId, DbError> {
        if clause.head.functor().is_none() {
            return Err(DbError::UncallableHead);
        }
        for (goal_idx, g) in clause.body.iter().enumerate() {
            if g.functor().is_none() {
                return Err(DbError::UncallableGoal { goal_idx });
            }
        }
        if clause.body.len() > MAX_GOALS {
            return Err(DbError::TooManyGoals {
                goals: clause.body.len(),
            });
        }
        let id = ClauseId(self.clauses.len() as u32);
        let pred = clause.head_pred();
        self.index.entry(pred).or_default().push(id);
        self.clauses.push(clause);
        self.candidates_dirty = true;
        Ok(id)
    }

    /// Convenience: add a fact.
    pub fn add_fact(&mut self, head: Term) -> Result<ClauseId, DbError> {
        self.add_clause(Clause::fact(head))
    }

    /// The clause with id `id`.
    pub fn clause(&self, id: ClauseId) -> &Clause {
        &self.clauses[id.index()]
    }

    /// All clauses, in insertion order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clause blocks.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Clauses defining predicate `(functor, arity)`, in program order —
    /// Prolog's textual clause order, which the baselines rely on.
    pub fn resolvers(&self, pred: (Sym, u32)) -> &[ClauseId] {
        self.index.get(&pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Candidate resolvers for a goal term (by its functor). Goals that are
    /// unbound variables or integers have no candidates.
    pub fn candidates_for(&self, goal: &Term) -> &[ClauseId] {
        match goal.functor() {
            Some(pred) => self.resolvers(pred),
            None => &[],
        }
    }

    /// Finalize the figure-4 pointer lists after a batch of insertions.
    ///
    /// Called automatically by [`parse_program`](crate::parse_program);
    /// callers constructing databases by hand should call it once all
    /// clauses are in (it is idempotent).
    pub fn build_pointers(&mut self) {
        self.clause_goal_candidates.clear();
        self.clause_goal_candidates.reserve(self.clauses.len());
        let lists: Vec<Vec<Vec<ClauseId>>> = self
            .clauses
            .iter()
            .map(|c| {
                c.body
                    .iter()
                    .map(|g| self.candidates_for(g).to_vec())
                    .collect()
            })
            .collect();
        self.clause_goal_candidates = lists;
        self.build_first_arg_index();
        self.candidates_dirty = false;
    }

    fn build_first_arg_index(&mut self) {
        self.first_arg.clear();
        for (i, clause) in self.clauses.iter().enumerate() {
            let pred = clause.head_pred();
            let entry = self.first_arg.entry(pred).or_default();
            let first_arg = match &clause.head {
                Term::Struct(_, args) => Some(&args[0]),
                _ => None,
            };
            match first_arg.and_then(arg_key) {
                Some(key) => entry.by_key.entry(key).or_default().push(ClauseId(i as u32)),
                None => entry.var_headed.push(ClauseId(i as u32)),
            }
        }
    }

    /// Select the candidate-selection mode (see [`IndexMode`]).
    pub fn set_index_mode(&mut self, mode: IndexMode) {
        self.index_mode = mode;
    }

    /// The current candidate-selection mode.
    pub fn index_mode(&self) -> IndexMode {
        self.index_mode
    }

    /// Candidate resolvers for a goal under the current [`IndexMode`],
    /// dereferencing the goal's first argument through `bindings`.
    ///
    /// With `FirstArg` indexing, the returned list is the program-order
    /// merge of the matching-constant bucket and the variable-headed
    /// clauses; candidates that cannot match are absent. The result is
    /// always a subsequence of [`candidates_for`](Self::candidates_for).
    pub fn candidates_for_resolved<'a>(
        &'a self,
        goal: &Term,
        bindings: &dyn BindingLookup,
    ) -> Cow<'a, [ClauseId]> {
        let full = self.candidates_for(goal);
        if self.index_mode == IndexMode::PredicateOnly {
            return Cow::Borrowed(full);
        }
        let Some(pred) = goal.functor() else {
            return Cow::Borrowed(full);
        };
        // Only compound goals have a first argument to index on.
        let Term::Struct(_, args) = goal else {
            return Cow::Borrowed(full);
        };
        let first = bindings.walk(&args[0]);
        let Some(key) = arg_key(first) else {
            return Cow::Borrowed(full); // unbound: every clause may match
        };
        let Some(index) = self.first_arg.get(&pred) else {
            return Cow::Borrowed(full);
        };
        let matching = index.by_key.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        if index.var_headed.is_empty() {
            return Cow::Borrowed(matching);
        }
        // Merge two sorted id lists to preserve program order.
        let mut merged = Vec::with_capacity(matching.len() + index.var_headed.len());
        let (mut a, mut b) = (matching.iter().peekable(), index.var_headed.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    if x < y {
                        merged.push(x);
                        a.next();
                    } else {
                        merged.push(y);
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    merged.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        Cow::Owned(merged)
    }

    /// The precomputed pointer list for goal `goal_idx` of clause `caller`.
    ///
    /// # Panics
    /// Panics if [`build_pointers`](Self::build_pointers) has not been
    /// called since the last insertion.
    pub fn pointer_list(&self, caller: ClauseId, goal_idx: usize) -> &[ClauseId] {
        assert!(
            !self.candidates_dirty,
            "ClauseDb::build_pointers must be called after insertions"
        );
        &self.clause_goal_candidates[caller.index()][goal_idx]
    }

    /// Whether pointer lists are up to date.
    pub fn pointers_built(&self) -> bool {
        !self.candidates_dirty && self.clause_goal_candidates.len() == self.clauses.len()
    }

    /// Total number of figure-4 pointers in the database (arcs in the
    /// "inverted file"). Used by experiments to report database size.
    pub fn pointer_count(&self) -> usize {
        self.clause_goal_candidates
            .iter()
            .flat_map(|per_clause| per_clause.iter())
            .map(Vec::len)
            .sum()
    }

    /// All predicates defined in the database.
    pub fn predicates(&self) -> impl Iterator<Item = (Sym, u32)> + '_ {
        self.index.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::Bindings;
    use crate::term::VarId;

    fn family_db() -> ClauseDb {
        let mut db = ClauseDb::new();
        let f = db.intern("f");
        let gf = db.intern("gf");
        let sam = db.intern("sam");
        let larry = db.intern("larry");
        let den = db.intern("den");
        // gf(X,Z) :- f(X,Y), f(Y,Z).
        db.add_clause(Clause::new(
            Term::app(gf, vec![Term::Var(VarId(0)), Term::Var(VarId(2))]),
            vec![
                Term::app(f, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]),
                Term::app(f, vec![Term::Var(VarId(1)), Term::Var(VarId(2))]),
            ],
        ))
        .unwrap();
        db.add_fact(Term::app(f, vec![Term::Atom(sam), Term::Atom(larry)]))
            .unwrap();
        db.add_fact(Term::app(f, vec![Term::Atom(larry), Term::Atom(den)]))
            .unwrap();
        db.build_pointers();
        db
    }

    #[test]
    fn resolvers_in_program_order() {
        let db = family_db();
        let f = db.sym("f").unwrap();
        let ids = db.resolvers((f, 2));
        assert_eq!(ids, &[ClauseId(1), ClauseId(2)]);
    }

    #[test]
    fn pointer_lists_cover_body_goals() {
        let db = family_db();
        // Rule 0 has two body goals, each resolvable by the two f/2 facts.
        assert_eq!(db.pointer_list(ClauseId(0), 0), &[ClauseId(1), ClauseId(2)]);
        assert_eq!(db.pointer_list(ClauseId(0), 1), &[ClauseId(1), ClauseId(2)]);
        assert_eq!(db.pointer_count(), 4);
    }

    #[test]
    fn uncallable_head_rejected() {
        let mut db = ClauseDb::new();
        let err = db.add_fact(Term::Int(3)).unwrap_err();
        assert_eq!(err, DbError::UncallableHead);
    }

    #[test]
    fn uncallable_goal_rejected() {
        let mut db = ClauseDb::new();
        let p = db.intern("p");
        let err = db
            .add_clause(Clause::new(
                Term::app(p, vec![Term::Var(VarId(0))]),
                vec![Term::Var(VarId(0))],
            ))
            .unwrap_err();
        assert_eq!(err, DbError::UncallableGoal { goal_idx: 0 });
    }

    #[test]
    fn a_body_longer_than_max_goals_is_rejected() {
        let mut db = ClauseDb::new();
        let p = db.intern("p");
        let body = |n| Clause::new(Term::Atom(p), vec![Term::Atom(p); n]);
        assert!(db.add_clause(body(MAX_GOALS)).is_ok());
        let too_many = DbError::TooManyGoals {
            goals: MAX_GOALS + 1,
        };
        assert_eq!(db.add_clause(body(MAX_GOALS + 1)), Err(too_many));
        assert_eq!(db.len(), 1, "the rejected clause is not stored");
    }

    #[test]
    fn unknown_predicate_has_no_candidates() {
        let db = family_db();
        let mut db2 = db.clone();
        let q = db2.intern("q");
        assert!(db2.resolvers((q, 1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "build_pointers")]
    fn pointer_list_panics_when_dirty() {
        let mut db = family_db();
        let p = db.intern("p");
        db.add_fact(Term::app(p, vec![Term::Int(1)])).unwrap();
        let _ = db.pointer_list(ClauseId(0), 0);
    }

    #[test]
    fn first_arg_index_filters_bound_goals() {
        let mut db = family_db();
        db.set_index_mode(IndexMode::FirstArg);
        let f = db.sym("f").unwrap();
        let sam = db.sym("sam").unwrap();
        let goal = Term::app(f, vec![Term::Atom(sam), Term::Var(VarId(0))]);
        let b = Bindings::new();
        let filtered = db.candidates_for_resolved(&goal, &b);
        // Only f(sam,larry) has first argument sam.
        assert_eq!(filtered.as_ref(), &[ClauseId(1)]);
    }

    #[test]
    fn first_arg_index_keeps_unbound_goals_full() {
        let mut db = family_db();
        db.set_index_mode(IndexMode::FirstArg);
        let f = db.sym("f").unwrap();
        let goal = Term::app(f, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let b = Bindings::new();
        let filtered = db.candidates_for_resolved(&goal, &b);
        assert_eq!(filtered.as_ref(), db.resolvers((f, 2)));
    }

    #[test]
    fn first_arg_index_merges_var_headed_clauses_in_order() {
        let mut db = ClauseDb::new();
        let p = db.intern("p");
        let a = db.intern("a");
        let b_ = db.intern("b");
        // p(a). p(X). p(b). — a goal p(a) must see clauses 0 and 1, in order.
        db.add_fact(Term::app(p, vec![Term::Atom(a)])).unwrap();
        db.add_clause(Clause::new(Term::app(p, vec![Term::Var(VarId(0))]), vec![]))
            .unwrap();
        db.add_fact(Term::app(p, vec![Term::Atom(b_)])).unwrap();
        db.build_pointers();
        db.set_index_mode(IndexMode::FirstArg);
        let goal = Term::app(p, vec![Term::Atom(a)]);
        let filtered = db.candidates_for_resolved(&goal, &Bindings::new());
        assert_eq!(filtered.as_ref(), &[ClauseId(0), ClauseId(1)]);
    }

    #[test]
    fn first_arg_index_derefs_through_bindings() {
        let mut db = family_db();
        db.set_index_mode(IndexMode::FirstArg);
        let f = db.sym("f").unwrap();
        let larry = db.sym("larry").unwrap();
        // Goal f(V, W) with V already bound to larry.
        let goal = Term::app(f, vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let mut b = Bindings::new();
        let mut tr = crate::Trail::new();
        b.bind(&mut tr, VarId(0), Term::Atom(larry));
        let filtered = db.candidates_for_resolved(&goal, &b);
        // f(larry,den) is clause 2 in the test db (den only).
        assert_eq!(filtered.as_ref(), &[ClauseId(2)]);
    }

    #[test]
    fn predicate_only_mode_is_the_default() {
        let db = family_db();
        assert_eq!(db.index_mode(), IndexMode::PredicateOnly);
        let f = db.sym("f").unwrap();
        let sam = db.sym("sam").unwrap();
        let goal = Term::app(f, vec![Term::Atom(sam), Term::Var(VarId(0))]);
        let all = db.candidates_for_resolved(&goal, &Bindings::new());
        assert_eq!(all.as_ref(), db.resolvers((f, 2)));
    }
}
