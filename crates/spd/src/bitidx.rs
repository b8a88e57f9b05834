//! First-argument clause index — one copy-on-write segment per
//! predicate, kept as a **per-epoch immutable structure** in the MVCC
//! store. A [`ClauseIndex`] maps each `(functor, arity)` to an
//! `Arc`-shared segment holding three ascending (program-order) id lists
//! for *that* predicate only:
//!
//! - `ids` — its defining clauses (the candidate list when nothing
//!   narrows);
//! - `first_arg[k]` — its clauses whose head's first argument has
//!   [`ArgKey`] `k`;
//! - `var_headed` — its clauses with no first-argument key (variable
//!   first argument, or an atom head with no arguments), which no bound
//!   key can rule out.
//!
//! A goal `p(t, ...)` whose first argument dereferences (through the
//! live [`BindingLookup`]) to key `k` resolves to `first_arg[k] ∪
//! var_headed` — exactly the subsequence of the predicate's range that
//! first-argument filtering keeps, in program order. The lookup borrows
//! one list unless the predicate mixes keyed and var-headed heads; only
//! then does it merge the two into a new one. The database's own
//! [`arg_key`] discriminator is reused so the index and the engines
//! agree on what "the leading functor" means; `tests/index_props.rs`
//! holds the index to a brute-force scan.
//!
//! Both maps are split into `Arc`-shared shards (one private
//! `CowShards` type): the predicate map into `PRED_SHARDS`, each
//! predicate's key map into `KEY_SHARDS`, the shard picked by a fixed
//! mix of the key. Cloning an index copies `PRED_SHARDS` pointers. The
//! first insert or remove under a predicate after a clone copies that
//! predicate's shard of the predicate map, its segment (the id list and
//! `KEY_SHARDS + 1` list pointers) and the one key shard it changes (a
//! pointer per key), then edits its copy of the id list and replaces
//! the one shared list it changes with a new one. So a write
//! transaction pays only for the part of the index it changes, however
//! many distinct keys the predicate has.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blog_logic::{arg_key, ArgKey, BindingLookup, Clause, ClauseDb, ClauseId, Sym, Term};
use serde::Serialize;

use crate::idhash::IdHasher;

/// Candidate-selection policy for the paged and MVCC stores.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug, Serialize)]
pub enum IndexPolicy {
    /// Predicate range only — the pre-index baseline.
    None,
    /// Narrow by the goal's bound first argument through the clause
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
pub enum IndexedCandidates<'a> {
    /// The goal cannot be narrowed (non-compound, or first argument
    /// unbound): the caller must use its full predicate range.
    Fallback,
    /// The narrowed candidate list in program order — possibly empty
    /// (unknown functor), in which case no page is ever touched.
    /// Borrowed from the index unless the predicate mixes keyed and
    /// var-headed clauses.
    Narrowed(Cow<'a, [ClauseId]>),
}

/// A map split into `N` `Arc`-shared shards, so cloning it copies `N`
/// pointers and a write copies only the shard its key lands in. The
/// shard is picked by a fixed [`IdHasher`] mix of the key; inside a
/// shard the map hashes with `S`. A shard that holds no key is `None`.
#[derive(Clone, Debug)]
struct CowShards<K, V, S, const N: usize> {
    shards: [Option<Arc<HashMap<K, V, S>>>; N],
}

impl<K, V, S, const N: usize> Default for CowShards<K, V, S, N> {
    fn default() -> Self {
        CowShards {
            shards: std::array::from_fn(|_| None),
        }
    }
}

/// Odd, with its bits spread; remixes the shard pick's hash so a map
/// inside a shard that also hashes with [`IdHasher`] still sees its
/// bucket bits vary.
const SHARD_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl<K, V, S, const N: usize> CowShards<K, V, S, N>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher + Clone + Default,
{
    fn shard_of(key: &K) -> usize {
        let mut h = IdHasher::default();
        key.hash(&mut h);
        (h.finish().wrapping_mul(SHARD_MIX) >> 32) as usize % N
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.shards[Self::shard_of(key)].as_deref()?.get(key)
    }

    /// The value under `key`, inserted as `V::default()` when absent;
    /// copies the key's shard first if it is shared.
    fn entry(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let shard = self.shards[Self::shard_of(&key)].get_or_insert_with(Arc::default);
        Arc::make_mut(shard).entry(key).or_default()
    }

    /// Apply `f` to the value under `key`, if any (copying the key's
    /// shard first if it is shared), and drop the entry when `f`
    /// returns `true` — and the shard when that empties it.
    fn edit(&mut self, key: &K, f: impl FnOnce(&mut V) -> bool) {
        let slot = &mut self.shards[Self::shard_of(key)];
        let Some(shard) = slot.as_mut().map(Arc::make_mut) else {
            return;
        };
        let Some(value) = shard.get_mut(key) else {
            return;
        };
        if f(value) {
            shard.remove(key);
            if shard.is_empty() {
                *slot = None;
            }
        }
    }
}

/// Shards of the predicate map: the first write under a predicate after
/// a clone copies `1/PRED_SHARDS` of the map's pointers.
const PRED_SHARDS: usize = 64;

/// Shards of each predicate's key map: the first write under a key
/// after a clone copies the one shard the key lands in.
const KEY_SHARDS: usize = 16;

/// Head-first-argument key → the predicate's clauses with that key.
/// Keeps `std`'s keyed SipHash inside each shard, unlike the predicate
/// map: an `ArgKey::Int` comes straight from client text, and a fixed
/// hash would let crafted integers pile into one bucket (the reason
/// `SymbolTable` keys its hasher too). Only the shard pick is fixed, so
/// crafted keys that all land in one shard make a write copy what one
/// unsharded map would cost, never more.
type KeyShards = CowShards<ArgKey, Arc<[ClauseId]>, RandomState, KEY_SHARDS>;

/// Everything candidate selection knows about one predicate. Every
/// list is ascending, i.e. in program order.
#[derive(Clone, Default, Debug)]
struct PredSegment {
    /// Defining clauses, one contiguous list so the unindexed fallback
    /// can borrow it.
    ids: Vec<ClauseId>,
    /// Head-first-argument key → this predicate's clauses with that
    /// key, in [`KEY_SHARDS`] copy-on-write shards.
    first_arg: KeyShards,
    /// Clauses with no head-first-argument key: match any bound key.
    var_headed: Arc<[ClauseId]>,
}

/// Keyed by interned symbol and arity, which the store assigns, so the
/// fixed [`IdHasher`] hash is safe inside each shard too.
type PredShards =
    CowShards<(Sym, u32), Arc<PredSegment>, BuildHasherDefault<IdHasher>, PRED_SHARDS>;

/// Immutable-per-epoch candidate index over a clause snapshot: one
/// [`Arc`]-shared segment per predicate (see the module docs).
#[derive(Clone, Default, Debug)]
pub struct ClauseIndex {
    preds: PredShards,
}

/// The head's first-argument key, `None` when the head cannot
/// discriminate (variable first argument or argument-less atom head).
fn head_first_key(clause: &Clause) -> Option<ArgKey> {
    match &clause.head {
        Term::Struct(_, args) => arg_key(&args[0]),
        _ => None,
    }
}

/// Insert `id` into ascending `list`, keeping it ascending.
fn insert_id(list: &mut Vec<ClauseId>, id: ClauseId) {
    let at = list.partition_point(|&earlier| earlier < id);
    list.insert(at, id);
}

/// Remove `id` from ascending `list`, if it is there.
fn remove_id(list: &mut Vec<ClauseId>, id: ClauseId) {
    if let Ok(at) = list.binary_search(&id) {
        list.remove(at);
    }
}

/// Replace a shared list with a new one: a copy changed by `edit`.
fn replace(list: &mut Arc<[ClauseId]>, id: ClauseId, edit: fn(&mut Vec<ClauseId>, ClauseId)) {
    let mut ids = list.to_vec();
    edit(&mut ids, id);
    *list = ids.into();
}

/// The ascending union of two disjoint ascending lists, in a list of
/// exact size: the stable `sort` finds the two runs and merges them.
fn merged(a: &[ClauseId], b: &[ClauseId]) -> Vec<ClauseId> {
    let mut out = [a, b].concat();
    out.sort();
    out
}

impl ClauseIndex {
    /// Build the index over every clause currently in `db`: one pass
    /// puts each clause in its predicate's group, then each
    /// predicate's `(key, id)` pairs are sorted and every key's run
    /// frozen into its list — `O(n log n)` in a predicate's size however
    /// many clauses share a key. Predicates group under the fixed
    /// `IdHasher`, as in the predicate map.
    pub fn from_db(db: &ClauseDb) -> Self {
        type Groups = (Vec<ClauseId>, Vec<(ArgKey, ClauseId)>, Vec<ClauseId>);
        let mut groups: HashMap<(Sym, u32), Groups, BuildHasherDefault<IdHasher>> =
            HashMap::default();
        for (i, clause) in db.clauses().iter().enumerate() {
            let id = ClauseId(i as u32);
            let (ids, keyed, var_headed) = groups.entry(clause.head_pred()).or_default();
            ids.push(id);
            match head_first_key(clause) {
                Some(key) => keyed.push((key, id)),
                None => var_headed.push(id),
            }
        }
        let mut idx = Self::default();
        for (pred, (ids, mut keyed, var_headed)) in groups {
            keyed.sort_unstable();
            let mut first_arg = KeyShards::default();
            for run in keyed.chunk_by(|a, b| a.0 == b.0) {
                *first_arg.entry(run[0].0) = run.iter().map(|&(_, id)| id).collect();
            }
            *idx.preds.entry(pred) = Arc::new(PredSegment {
                ids,
                first_arg,
                var_headed: var_headed.into(),
            });
        }
        idx
    }

    fn segment(&self, pred: (Sym, u32)) -> Option<&PredSegment> {
        self.preds.get(&pred).map(|seg| &**seg)
    }

    /// Add one clause (an assert inside a `WriteTxn`).
    pub fn insert_clause(&mut self, id: ClauseId, clause: &Clause) {
        let seg = Arc::make_mut(self.preds.entry(clause.head_pred()));
        insert_id(&mut seg.ids, id);
        let list = match head_first_key(clause) {
            Some(key) => seg.first_arg.entry(key),
            None => &mut seg.var_headed,
        };
        replace(list, id, insert_id);
    }

    /// Remove one clause (a retract inside a `WriteTxn`). Emptied key
    /// lists and predicates are dropped so unknown predicates/functors
    /// stay recognizably absent.
    pub fn remove_clause(&mut self, id: ClauseId, clause: &Clause) {
        self.preds.edit(&clause.head_pred(), |seg| {
            let seg = Arc::make_mut(seg);
            remove_id(&mut seg.ids, id);
            match head_first_key(clause) {
                Some(key) => seg.first_arg.edit(&key, |list| {
                    replace(list, id, remove_id);
                    list.is_empty()
                }),
                None => replace(&mut seg.var_headed, id, remove_id),
            }
            seg.ids.is_empty()
        });
    }

    /// Every clause defining `pred`, in program order (empty for an
    /// unknown predicate).
    pub fn clauses_of(&self, pred: (Sym, u32)) -> &[ClauseId] {
        self.segment(pred).map_or(&[], |seg| &seg.ids)
    }

    /// Resolve a goal's candidate clauses through the index,
    /// dereferencing its first argument through `bindings`.
    pub fn lookup(&self, goal: &Term, bindings: &dyn BindingLookup) -> IndexedCandidates<'_> {
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
            return IndexedCandidates::Narrowed(Cow::Borrowed(&[]));
        };
        let ids = match seg.first_arg.get(&key) {
            // Unknown functor: only clauses no key can rule out — none
            // at all, before any page is touched, when there are no
            // var-headed ones.
            None => Cow::Borrowed(&*seg.var_headed),
            Some(by_key) if seg.var_headed.is_empty() => Cow::Borrowed(&**by_key),
            Some(by_key) => Cow::Owned(merged(by_key, &seg.var_headed)),
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
    /// `candidate_clauses` calls resolved through the clause index.
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
    use blog_logic::{parse_program, Bindings, VarId};

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

    fn lookup_ids<'a>(idx: &'a ClauseIndex, db: &ClauseDb, goal: &str) -> IndexedCandidates<'a> {
        // Parse against a scratch copy so unseen constants (e.g. `zed`)
        // intern without mutating the caller's database.
        let mut scratch = db.clone();
        let query = blog_logic::parse_query(&mut scratch, goal).unwrap();
        idx.lookup(&query.goals[0], &Bindings::default())
    }

    fn narrowed(ids: &[u32]) -> IndexedCandidates<'static> {
        IndexedCandidates::Narrowed(ids.iter().map(|&i| ClauseId(i)).collect())
    }

    #[test]
    fn bound_first_arg_narrows_to_matching_bucket() {
        let program = family_db();
        let idx = ClauseIndex::from_db(&program.db);
        // f(sam, _) has exactly one matching clause: f(sam,larry), id 3.
        assert_eq!(lookup_ids(&idx, &program.db, "f(sam,Q)"), narrowed(&[3]));
    }

    #[test]
    fn var_headed_rules_survive_any_key() {
        let program = family_db();
        let idx = ClauseIndex::from_db(&program.db);
        // Both gf/2 rules have variable first arguments: any bound key
        // must keep both, in program order.
        assert_eq!(
            lookup_ids(&idx, &program.db, "gf(sam,Q)"),
            narrowed(&[0, 1])
        );
    }

    #[test]
    fn unbound_first_arg_falls_back() {
        let program = family_db();
        let idx = ClauseIndex::from_db(&program.db);
        assert_eq!(
            lookup_ids(&idx, &program.db, "f(X,Y)"),
            IndexedCandidates::Fallback
        );
    }

    #[test]
    fn unknown_functor_short_circuits_to_empty() {
        let program = family_db();
        let idx = ClauseIndex::from_db(&program.db);
        // `zed` appears nowhere as an f/2 first argument and f/2 has no
        // var-headed clauses: provably empty without touching a page.
        assert_eq!(lookup_ids(&idx, &program.db, "f(zed,Q)"), narrowed(&[]));
    }

    #[test]
    fn lookup_borrows_unless_the_predicate_mixes_heads() {
        let borrowed =
            |c: &IndexedCandidates| matches!(c, IndexedCandidates::Narrowed(Cow::Borrowed(_)));
        // p/2 and q/1 mix keyed and var-headed heads: a known key merges
        // into a new list; an unknown key needs only the var-headed one.
        let program = parse_program("p(a,1). p(X,2). p(a,3). p(b,4). q(X). q(a).").unwrap();
        let (db, idx) = (&program.db, ClauseIndex::from_db(&program.db));
        for (goal, ids, borrows) in [
            ("p(a,Q)", &[0, 1, 2][..], false),
            ("p(b,Q)", &[1, 3], false),
            ("q(a)", &[4, 5], false),
            ("p(c,Q)", &[1], true),
        ] {
            let got = lookup_ids(&idx, db, goal);
            assert_eq!(got, narrowed(ids), "{goal}");
            assert_eq!(borrowed(&got), borrows, "{goal}");
        }
        // Only keyed heads (f/2) or only var-headed ones (gf/2): borrowed.
        let family = family_db();
        let idx = ClauseIndex::from_db(&family.db);
        for goal in ["f(sam,Q)", "gf(sam,Q)", "f(zed,Q)"] {
            assert!(borrowed(&lookup_ids(&idx, &family.db, goal)), "{goal}");
        }
    }

    #[test]
    fn retract_and_assert_are_tracked() {
        let program = family_db();
        let db = &program.db;
        let mut idx = ClauseIndex::from_db(db);
        // Retract f(sam,larry): the sam bucket goes empty.
        idx.remove_clause(ClauseId(3), db.clause(ClauseId(3)));
        assert_eq!(lookup_ids(&idx, db, "f(sam,Q)"), narrowed(&[]));
        // Re-assert it under a fresh id: the bucket comes back.
        idx.insert_clause(ClauseId(12), db.clause(ClauseId(3)));
        assert_eq!(lookup_ids(&idx, db, "f(sam,Q)"), narrowed(&[12]));
    }

    /// `p/2` fact with first argument `first`, as predicate symbol `p`.
    fn fact(p: u32, first: Term) -> Clause {
        Clause::fact(Term::app(Sym(p), vec![first, Term::Atom(Sym(0))]))
    }

    fn lookup_key(idx: &ClauseIndex, p: u32, first: Term) -> IndexedCandidates<'_> {
        let goal = Term::app(Sym(p), vec![first, Term::Var(VarId(0))]);
        idx.lookup(&goal, &Bindings::default())
    }

    fn shared<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    #[test]
    fn a_write_copies_one_key_shard_and_one_pred_shard() {
        const P: u32 = 1;
        let mut base = ClauseIndex::default();
        let mut next = 0;
        let mut insert = |idx: &mut ClauseIndex, clause: &Clause| {
            idx.insert_clause(ClauseId(next), clause);
            next += 1;
            ClauseId(next - 1)
        };
        // A fact under every predicate shard, then 1 024 keys under P.
        for p in 2..2 + 4 * PRED_SHARDS as u32 {
            insert(&mut base, &fact(p, Term::Int(0)));
        }
        let ids: Vec<ClauseId> = (0..1024)
            .map(|k| insert(&mut base, &fact(P, Term::Int(k))))
            .collect();
        let probes: Vec<Term> = (0..1024).chain([5000, -1]).map(Term::Int).collect();
        let before: Vec<_> = probes
            .iter()
            .map(|k| lookup_key(&base, P, k.clone()))
            .collect();

        // Insert a new key, then retract an old one from the same shard.
        let new_key = ArgKey::Int(5000);
        let touched = KeyShards::shard_of(&new_key);
        let old = (0..1024)
            .find(|&k| KeyShards::shard_of(&ArgKey::Int(k)) == touched)
            .unwrap();
        let mut next_idx = base.clone();
        let new_id = insert(&mut next_idx, &fact(P, Term::Int(5000)));
        next_idx.remove_clause(ids[old as usize], &fact(P, Term::Int(old)));

        let pred = (Sym(P), 2);
        let (b, n) = (base.segment(pred).unwrap(), next_idx.segment(pred).unwrap());
        for i in 0..KEY_SHARDS {
            let (bs, ns) = (&b.first_arg.shards[i], &n.first_arg.shards[i]);
            assert!(bs.is_some(), "1 024 keys fill key shard {i}");
            assert_eq!(shared(bs, ns), i != touched, "key shard {i}");
        }
        let touched_pred = PredShards::shard_of(&pred);
        for i in 0..PRED_SHARDS {
            let (bs, ns) = (&base.preds.shards[i], &next_idx.preds.shards[i]);
            assert!(bs.is_some(), "pred shard {i} holds a predicate");
            assert_eq!(shared(bs, ns), i != touched_pred, "pred shard {i}");
        }

        let after: Vec<_> = probes
            .iter()
            .map(|k| lookup_key(&base, P, k.clone()))
            .collect();
        assert_eq!(after, before, "the base answers as before");
        let (new_key, old_key) = (Term::Int(5000), Term::Int(old));
        assert_eq!(lookup_key(&next_idx, P, new_key), narrowed(&[new_id.0]));
        assert_eq!(lookup_key(&next_idx, P, old_key), narrowed(&[]));
    }

    #[test]
    fn keys_crowded_into_one_shard_still_answer() {
        const P: u32 = 1;
        let keys: Vec<i64> = (0..)
            .filter(|&k| KeyShards::shard_of(&ArgKey::Int(k)) == 0)
            .take(200)
            .collect();
        let mut idx = ClauseIndex::default();
        for (i, &k) in keys.iter().enumerate() {
            idx.insert_clause(ClauseId(i as u32), &fact(P, Term::Int(k)));
        }
        let seg = idx.segment((Sym(P), 2)).unwrap();
        let used = seg.first_arg.shards.iter().filter(|s| s.is_some()).count();
        assert_eq!(used, 1, "every key landed in shard 0");

        // Retract every other key through a clone; both sides answer.
        let mut next = idx.clone();
        for (i, &k) in keys.iter().enumerate().step_by(2) {
            next.remove_clause(ClauseId(i as u32), &fact(P, Term::Int(k)));
        }
        for (i, &k) in keys.iter().enumerate() {
            let id = [i as u32];
            let kept = if i % 2 == 0 { &[][..] } else { &id };
            assert_eq!(lookup_key(&idx, P, Term::Int(k)), narrowed(&id));
            assert_eq!(lookup_key(&next, P, Term::Int(k)), narrowed(kept));
        }
    }
}
