//! First-argument bitmap clause index — one copy-on-write segment per
//! predicate: program-order clause list plus `leading-functor-of-arg1` →
//! compressed clause-id bitmap.
//!
//! This is the classic first-argument-indexing lever of Prolog engines,
//! rebuilt on the compressed bitmaps of [`bitmap`](crate::bitmap) so it
//! can live as a **per-epoch immutable structure** in the MVCC store.
//! A [`BitmapClauseIndex`] maps each `(functor, arity)` to an
//! `Arc`-shared segment holding, for *that* predicate only:
//!
//! - `ids` — its defining clauses in program order (the candidate list
//!   when nothing narrows);
//! - `first_arg[k]` — its clauses whose head's first argument has
//!   [`ArgKey`] `k`;
//! - `var_headed` — its clauses whose head has no first-argument key
//!   (variable first argument, or an atom head with no arguments at
//!   all), i.e. clauses no bound key can rule out.
//!
//! A goal `p(t, ...)` whose first argument dereferences (through the
//! live [`BindingLookup`]) to key `k` resolves to `first_arg[k] ∪
//! var_headed` of `p/n`'s segment — ascending clause-id order, which is
//! program order, so the result is exactly the subsequence of the full
//! predicate range that first-argument filtering keeps. The database's
//! own [`arg_key`] discriminator is reused so both index implementations
//! agree on what "the leading functor" means; the differential oracle
//! tests in `tests/index_props.rs` hold them to it.
//!
//! Cloning an index copies `PRED_SHARDS` pointers. The first insert or
//! remove under a predicate after a clone copies that predicate's shard
//! of the map (pointers again) and its segment (the id list and the
//! key → bitmap map; a [`ClauseBitmap`] clones without allocating), then
//! the one bitmap it changes — which is what lets a write transaction
//! start from the committed epoch's index and pay only for the
//! predicates it asserts into or retracts from.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blog_logic::{arg_key, ArgKey, BindingLookup, Clause, ClauseDb, ClauseId, Sym, Term};
use serde::Serialize;

use crate::bitmap::ClauseBitmap;
use crate::idhash::IdMap;

/// Candidate-selection policy for the paged and MVCC stores.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug, Serialize)]
pub enum IndexPolicy {
    /// Predicate range only — the pre-index baseline.
    None,
    /// Narrow by the goal's bound first argument through the bitmap
    /// index; fall back to the predicate range when unbound.
    #[default]
    FirstArg,
}

impl IndexPolicy {
    /// Stable lowercase name (for CLI flags and report rows).
    pub fn name(self) -> &'static str {
        match self {
            IndexPolicy::None => "none",
            IndexPolicy::FirstArg => "first_arg",
        }
    }
}

impl std::fmt::Display for IndexPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of an indexed candidate lookup.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IndexedCandidates {
    /// The goal cannot be narrowed (non-compound, or first argument
    /// unbound): the caller must use its full predicate range.
    Fallback,
    /// The narrowed candidate list in program order — possibly empty
    /// (unknown functor), in which case no page is ever touched.
    Narrowed(Vec<ClauseId>),
}

/// Shards of the predicate map: the first write under a predicate after
/// a clone copies `1/PRED_SHARDS` of the map's pointers.
const PRED_SHARDS: usize = 64;

/// Everything candidate selection knows about one predicate.
#[derive(Clone, Default, Debug)]
struct PredSegment {
    /// Defining clauses in program order (ascending id).
    ids: Vec<ClauseId>,
    /// Head-first-argument key → this predicate's clauses with that key.
    /// Keeps `std`'s keyed SipHash, unlike the predicate map: an
    /// `ArgKey::Int` comes straight from client text, and a fixed hash
    /// would let crafted integers pile into one bucket (the reason
    /// `SymbolTable` keys its hasher too).
    first_arg: HashMap<ArgKey, ClauseBitmap>,
    /// Clauses with no head-first-argument key: match any bound key.
    var_headed: ClauseBitmap,
}

/// Keyed by interned symbol and arity, which the store assigns, so the
/// fixed [`IdMap`] hash is safe here.
type PredShard = IdMap<(Sym, u32), Arc<PredSegment>>;

/// Immutable-per-epoch candidate index over a clause snapshot: one
/// [`Arc`]-shared segment per predicate (see the module docs).
#[derive(Clone, Debug)]
pub struct BitmapClauseIndex {
    shards: [Arc<PredShard>; PRED_SHARDS],
}

impl Default for BitmapClauseIndex {
    fn default() -> Self {
        BitmapClauseIndex {
            shards: std::array::from_fn(|_| Arc::default()),
        }
    }
}

/// The head's first-argument key, `None` when the head cannot
/// discriminate (variable first argument or argument-less atom head).
fn head_first_key(clause: &Clause) -> Option<ArgKey> {
    match &clause.head {
        Term::Struct(_, args) => arg_key(&args[0]),
        _ => None,
    }
}

fn shard_of(pred: (Sym, u32)) -> usize {
    (pred.0.index() + pred.1 as usize) % PRED_SHARDS
}

impl BitmapClauseIndex {
    /// Build the index over every clause currently in `db`.
    pub fn from_db(db: &ClauseDb) -> Self {
        let mut idx = Self::default();
        for (i, clause) in db.clauses().iter().enumerate() {
            idx.insert_clause(ClauseId(i as u32), clause);
        }
        idx
    }

    fn segment(&self, pred: (Sym, u32)) -> Option<&PredSegment> {
        self.shards[shard_of(pred)].get(&pred).map(|seg| &**seg)
    }

    /// Add one clause (store build, or an assert inside a `WriteTxn`).
    pub fn insert_clause(&mut self, id: ClauseId, clause: &Clause) {
        let pred = clause.head_pred();
        let shard = Arc::make_mut(&mut self.shards[shard_of(pred)]);
        let seg = Arc::make_mut(shard.entry(pred).or_default());
        // Ids are allocated densely, so this is a push in practice.
        let at = seg.ids.partition_point(|&earlier| earlier < id);
        seg.ids.insert(at, id);
        match head_first_key(clause) {
            Some(key) => {
                seg.first_arg.entry(key).or_default().insert(id);
            }
            None => {
                seg.var_headed.insert(id);
            }
        }
    }

    /// Remove one clause (a retract inside a `WriteTxn`). Emptied key
    /// buckets and predicates are dropped so unknown predicates/functors
    /// stay recognizably absent.
    pub fn remove_clause(&mut self, id: ClauseId, clause: &Clause) {
        let pred = clause.head_pred();
        let shard = Arc::make_mut(&mut self.shards[shard_of(pred)]);
        let Some(seg) = shard.get_mut(&pred).map(Arc::make_mut) else {
            return;
        };
        if let Ok(at) = seg.ids.binary_search(&id) {
            seg.ids.remove(at);
        }
        match head_first_key(clause) {
            Some(key) => {
                if let Some(bm) = seg.first_arg.get_mut(&key) {
                    bm.remove(id);
                    if bm.is_empty() {
                        seg.first_arg.remove(&key);
                    }
                }
            }
            None => {
                seg.var_headed.remove(id);
            }
        }
        if seg.ids.is_empty() {
            shard.remove(&pred);
        }
    }

    /// Every clause defining `pred`, in program order (empty for an
    /// unknown predicate).
    pub fn clauses_of(&self, pred: (Sym, u32)) -> &[ClauseId] {
        self.segment(pred).map_or(&[], |seg| &seg.ids)
    }

    /// Resolve a goal's candidate clauses through the index,
    /// dereferencing its first argument through `bindings`.
    pub fn lookup(&self, goal: &Term, bindings: &dyn BindingLookup) -> IndexedCandidates {
        // Only compound goals have a first argument to index on;
        // arity-0 goals keep their full (trivial) range.
        let Term::Struct(f, args) = goal else {
            return IndexedCandidates::Fallback;
        };
        let Some(key) = arg_key(bindings.walk(&args[0])) else {
            return IndexedCandidates::Fallback;
        };
        let Some(seg) = self.segment((*f, args.len() as u32)) else {
            // Unknown predicate: nothing to resolve against.
            return IndexedCandidates::Narrowed(Vec::new());
        };
        let ids = match seg.first_arg.get(&key) {
            // Unknown functor: only clauses no key can rule out — none
            // at all, before any page is touched, when there are no
            // var-headed ones.
            None => seg.var_headed.iter().collect(),
            Some(by_key) if seg.var_headed.is_empty() => by_key.iter().collect(),
            Some(by_key) => by_key.union(&seg.var_headed).collect(),
        };
        IndexedCandidates::Narrowed(ids)
    }
}

/// Lock-free candidate-selection meters, shared by the paged and MVCC
/// stores. Candidate selection never takes the cache mutex (candidate
/// lists ride in the caller's block), so these live **outside**
/// [`TrackCache`](crate::cache::TrackCache) as plain atomics — the
/// lock-traffic meters stay an honest census of page touches.
#[derive(Default, Debug)]
pub struct IndexCounters {
    /// `candidate_clauses` calls resolved through the bitmap index.
    hits: AtomicU64,
    /// Candidates the index removed versus the full predicate range
    /// (unification attempts — and page touches — that never happened).
    prunes: AtomicU64,
    /// Candidates actually handed to engines, under either policy.
    scanned: AtomicU64,
}

impl IndexCounters {
    /// Record one indexed resolution that narrowed `full` candidates
    /// down to `kept`.
    pub fn record_indexed(&self, full: usize, kept: usize) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.prunes
            .fetch_add(full.saturating_sub(kept) as u64, Ordering::Relaxed);
        self.scanned.fetch_add(kept as u64, Ordering::Relaxed);
    }

    /// Record one unindexed (baseline or fallback) resolution returning
    /// `kept` candidates.
    pub fn record_scan(&self, kept: usize) {
        self.scanned.fetch_add(kept as u64, Ordering::Relaxed);
    }

    /// `(index_hits, index_prunes, candidates_scanned)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.prunes.load(Ordering::Relaxed),
            self.scanned.load(Ordering::Relaxed),
        )
    }

    /// Zero all three meters.
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.prunes.store(0, Ordering::Relaxed);
        self.scanned.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blog_logic::{parse_program, Bindings};

    fn family_db() -> blog_logic::Program {
        parse_program(
            "
            gf(X,Z) :- f(X,Y), f(Y,Z).
            gf(X,Z) :- f(X,Y), m(Y,Z).
            f(curt,elain).  f(sam,larry).
            f(dan,pat).     f(larry,den).
            f(pat,john).    f(larry,doug).
            m(elain,john).  m(marian,elain).
            m(peg,den).     m(peg,doug).
            ?- gf(sam,G).
            ",
        )
        .unwrap()
    }

    fn lookup_ids(idx: &BitmapClauseIndex, db: &ClauseDb, goal: &str) -> IndexedCandidates {
        // Parse against a scratch copy so unseen constants (e.g. `zed`)
        // intern without mutating the caller's database.
        let mut scratch = db.clone();
        let query = blog_logic::parse_query(&mut scratch, goal).unwrap();
        idx.lookup(&query.goals[0], &Bindings::default())
    }

    #[test]
    fn bound_first_arg_narrows_to_matching_bucket() {
        let program = family_db();
        let idx = BitmapClauseIndex::from_db(&program.db);
        // f(sam, _) has exactly one matching clause: f(sam,larry), id 3.
        match lookup_ids(&idx, &program.db, "f(sam,Q)") {
            IndexedCandidates::Narrowed(ids) => assert_eq!(ids, vec![ClauseId(3)]),
            other => panic!("expected narrowed candidates, got {other:?}"),
        }
    }

    #[test]
    fn var_headed_rules_survive_any_key() {
        let program = family_db();
        let idx = BitmapClauseIndex::from_db(&program.db);
        // Both gf/2 rules have variable first arguments: any bound key
        // must keep both, in program order.
        match lookup_ids(&idx, &program.db, "gf(sam,Q)") {
            IndexedCandidates::Narrowed(ids) => {
                assert_eq!(ids, vec![ClauseId(0), ClauseId(1)]);
            }
            other => panic!("expected narrowed candidates, got {other:?}"),
        }
    }

    #[test]
    fn unbound_first_arg_falls_back() {
        let program = family_db();
        let idx = BitmapClauseIndex::from_db(&program.db);
        assert_eq!(
            lookup_ids(&idx, &program.db, "f(X,Y)"),
            IndexedCandidates::Fallback
        );
    }

    #[test]
    fn unknown_functor_short_circuits_to_empty() {
        let program = family_db();
        let idx = BitmapClauseIndex::from_db(&program.db);
        // `zed` appears nowhere as an f/2 first argument and f/2 has no
        // var-headed clauses: provably empty without touching a page.
        match lookup_ids(&idx, &program.db, "f(zed,Q)") {
            IndexedCandidates::Narrowed(ids) => assert!(ids.is_empty()),
            other => panic!("expected empty narrowed set, got {other:?}"),
        }
    }

    #[test]
    fn retract_and_assert_are_tracked() {
        let program = family_db();
        let db = &program.db;
        let mut idx = BitmapClauseIndex::from_db(db);
        // Retract f(sam,larry): the sam bucket goes empty.
        idx.remove_clause(ClauseId(3), db.clause(ClauseId(3)));
        match lookup_ids(&idx, db, "f(sam,Q)") {
            IndexedCandidates::Narrowed(ids) => assert!(ids.is_empty()),
            other => panic!("expected empty narrowed set, got {other:?}"),
        }
        // Re-assert it under a fresh id: the bucket comes back.
        idx.insert_clause(ClauseId(12), db.clause(ClauseId(3)));
        match lookup_ids(&idx, db, "f(sam,Q)") {
            IndexedCandidates::Narrowed(ids) => assert_eq!(ids, vec![ClauseId(12)]),
            other => panic!("expected narrowed candidates, got {other:?}"),
        }
    }
}
