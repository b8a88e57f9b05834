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

use std::collections::HashMap;

use crate::clause::{Clause, ClauseId};
use crate::node::MAX_GOALS;
use crate::symbol::{Sym, SymbolTable};
use crate::term::Term;

/// Argument key: the principal functor of a bound argument.
///
/// The one definition of "the leading functor" that the first-argument
/// clause index in `blog-spd` and [`GoalKeys`](crate::unify::GoalKeys)
/// both key on, so the index and the head pre-filter agree on which
/// heads can match.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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

/// Why [`ClauseDb::add_clause`] would refuse `clause`, if it would.
pub(crate) fn check_clause(clause: &Clause) -> Result<(), DbError> {
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
    Ok(())
}

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

    /// The symbol table, for the reader to intern into.
    pub(crate) fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Look up an interned symbol by name.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.symbols.get(name)
    }

    /// Add a clause block. Returns its id.
    pub fn add_clause(&mut self, clause: Clause) -> Result<ClauseId, DbError> {
        check_clause(&clause)?;
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
        self.candidates_dirty = false;
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
}
