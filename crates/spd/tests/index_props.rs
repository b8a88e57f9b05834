//! Differential index-oracle battery for the first-argument clause
//! index.
//!
//! The index is an *optimization contract*: for any program and any
//! goal, the candidate list a store hands the engines must be exactly
//! what a brute-force scan of the predicate range — keeping every
//! clause whose raw head first-argument key is absent or equal to the
//! goal's dereferenced key — would produce, in the same (program)
//! order. The per-epoch clause index a paged-store `Snapshot` resolves
//! through (`IndexPolicy::FirstArg`) is held to that oracle on generated
//! programs and goal streams, across all four replacement policies. It
//! is the workspace's one first-argument index; a `ClauseDb` serves the
//! figure-4 predicate lists as stored.
//!
//! Baseline stores (`IndexPolicy::None`) must keep returning the full
//! predicate range untouched. Goals arrive with their first argument
//! ground in the source text, bound through a flat [`Bindings`] chain,
//! bound through live [`DeltaBindings`], bound through a frozen
//! [`BindingFrame`] (both `StateRepr`s' read paths), or unbound — the
//! unbound forms must fall back to the full range, which is the
//! satellite regression: a variable-headed goal sees *every* clause.
//!
//! The index itself is copy-on-write: a write transaction clones the
//! committed epoch's index and changes only the shards it writes. A
//! property drives insert/remove batches through successive clones and
//! holds every clone, old and new, to an index rebuilt from the live
//! clauses of its moment, and the one-pass build of the seed clauses to
//! the same clauses inserted one at a time.
//!
//! Also here: engine-level runs proving solution sets are
//! index-invariant under both `StateRepr`s, and the pruning bar: on
//! every generated workload the index at least halves the clause
//! touches of the same query stream.
//!
//! Case counts honor the `PROPTEST_CASES` environment variable (the CI
//! profile sets a reduced count; see `.github/workflows/ci.yml`).

mod support;

use std::collections::HashMap;

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{
    arg_key, parse_program, parse_query, parse_query_shared, BindingFrame, BindingLookup,
    BindingWrite, Bindings, Clause, ClauseDb, ClauseId, ClauseSource, DeltaBindings, Program,
    Query, SolveConfig, StateRepr, Sym, Term, Trail, VarId, DEFAULT_FLATTEN_THRESHOLD,
};
use blog_spd::{ClauseIndex, IndexPolicy, MvccClauseStore, PagedStoreStats, PolicyKind, Snapshot};
use blog_workloads::{
    family_program, mapcolor_program, tenant_mix_program, tenant_mix_requests, FamilyParams,
    MapColorParams, TenantMix,
};
use proptest::prelude::*;

use support::{paged_config, paged_store, queens_workload};

// ---------------------------------------------------------------------------
// Generated programs + goal streams
// ---------------------------------------------------------------------------

const ATOMS: [&str; 4] = ["a", "b", "c", "d"];

/// Predicates the generator defines; goal selectors beyond this table
/// produce unknown-predicate / wrong-arity probes.
const PREDS: [(&str, usize); 3] = [("p", 2), ("q", 1), ("r", 3)];

/// Render the head first-argument for clause `ci` from selector `sel`.
///
/// The table covers every [`blog_logic::ArgKey`] shape plus the two
/// unkeyed forms: atoms, ints, structs of two arities, a struct with a
/// variable *inside* (still keyed — the key is the principal functor
/// only), and a bare variable (unkeyed: matches any goal key).
fn first_arg_src(sel: u8, ci: usize) -> String {
    match sel % 12 {
        s @ 0..=3 => ATOMS[s as usize].to_string(),
        s @ 4..=6 => format!("{}", s - 4),
        7 => "s(a)".to_string(),
        8 => "s(b)".to_string(),
        9 => "t(a, z)".to_string(),
        10 => format!("s(W{ci})"),
        _ => format!("V{ci}"),
    }
}

/// Render one generated clause as source text.
fn clause_src(pred_sel: u8, arg_sel: u8, ci: usize) -> String {
    let (name, arity) = PREDS[pred_sel as usize % PREDS.len()];
    let mut args = vec![first_arg_src(arg_sel, ci)];
    args.extend((1..arity).map(|_| "z".to_string()));
    format!("{name}({}).\n", args.join(", "))
}

/// Render one goal's source text with the first argument spelled
/// `first` (a ground key, or a variable name). Selectors past the known
/// predicates probe an unknown predicate and a wrong arity.
fn goal_src(pred_sel: u8, first: &str) -> String {
    match pred_sel % 5 {
        s @ 0..=2 => {
            let (name, arity) = PREDS[s as usize];
            let mut args = vec![first.to_string()];
            args.extend((1..arity).map(|i| format!("G{i}")));
            format!("{name}({})", args.join(", "))
        }
        3 => format!("nosuch({first})"),
        // p/1 — right functor, wrong arity: a distinct predicate.
        _ => format!("p({first})"),
    }
}

/// Goal first-argument selectors reuse the clause table and extend it
/// with keys no clause head uses (unknown atom / int / struct).
fn goal_first_src(sel: u8) -> String {
    match sel % 15 {
        12 => "zed".to_string(),
        13 => "99".to_string(),
        14 => "u(a)".to_string(),
        s => first_arg_src(s, 9000),
    }
}

/// The brute-force oracle: the full predicate range, filtered by the
/// goal's dereferenced first-argument key against each clause's **raw**
/// head key (clause variables are clause-local — they are never
/// dereferenced through the goal's bindings). Unkeyed heads survive any
/// goal key; an unkeyed goal keeps the full range.
fn oracle_candidates(db: &ClauseDb, goal: &Term, bindings: &dyn BindingLookup) -> Vec<ClauseId> {
    let full = db.candidates_for(goal).to_vec();
    let Term::Struct(_, args) = goal else {
        return full;
    };
    let Some(key) = arg_key(bindings.walk(&args[0])) else {
        return full;
    };
    full.into_iter()
        .filter(|id| match &db.clause(*id).head {
            Term::Struct(_, hargs) => arg_key(&hargs[0]).is_none_or(|hk| hk == key),
            _ => true,
        })
        .collect()
}

/// One goal in the three binding presentations the stores must treat
/// identically: key ground in the source text, key reached through a
/// binding chain, or first argument unbound.
struct GoalCase {
    /// The goal term whose first argument is written ground (absent for
    /// variable-first-arg selectors).
    inline: Option<Term>,
    /// The goal term whose first argument is the variable `Q`.
    var_goal: Term,
    /// `Q`'s id in `var_goal`.
    q: VarId,
    /// The ground key term to bind `Q` to (absent when the selector
    /// asked for an unbound first argument).
    key_term: Option<Term>,
}

/// Parse the two goal forms against a scratch clone of `db`, so probe
/// symbols (`zed`, `nosuch`, …) intern consistently without mutating
/// the database the stores were built over.
fn build_goal_case(db: &ClauseDb, pred_sel: u8, key_sel: u8) -> GoalCase {
    let mut scratch = db.clone();
    let first = goal_first_src(key_sel);
    let unbound = key_sel % 15 == 11;

    let var_q = parse_query(&mut scratch, &goal_src(pred_sel, "Q")).unwrap();
    let var_goal = var_q.goals[0].clone();
    let q = match &var_goal {
        Term::Struct(_, args) => match &args[0] {
            Term::Var(v) => *v,
            other => panic!("Q parsed as {other:?}"),
        },
        other => panic!("goal parsed as {other:?}"),
    };

    if unbound {
        return GoalCase {
            inline: None,
            var_goal,
            q,
            key_term: None,
        };
    }
    let inline_q = parse_query(&mut scratch, &goal_src(pred_sel, &first)).unwrap();
    let inline = inline_q.goals[0].clone();
    let key_term = match &inline {
        Term::Struct(_, args) => args[0].clone(),
        other => panic!("goal parsed as {other:?}"),
    };
    GoalCase {
        inline: Some(inline),
        var_goal,
        q,
        key_term: Some(key_term),
    }
}

/// Every (goal, bindings) presentation for one case: the engines read
/// candidates through flat trail-backed `Bindings` under
/// `StateRepr::Cloned` and through `DeltaBindings` / frozen
/// `BindingFrame`s under `StateRepr::Shared`, so the differential check
/// runs the lookup through all of them. The bound presentations route
/// `Q` through a two-step chain (`Q -> M -> key`) so `walk` has real
/// dereferencing to do.
fn check_case(
    case: &GoalCase,
    check: &mut dyn FnMut(&Term, &dyn BindingLookup) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    // Ground in the text; nothing bound.
    if let Some(inline) = &case.inline {
        check(inline, &Bindings::new())?;
    }

    let mid = VarId(case.q.0 + 101);
    match &case.key_term {
        Some(key) => {
            // Flat bindings, chained.
            let mut flat = Bindings::new();
            let mut trail = Trail::new();
            flat.bind(&mut trail, case.q, Term::Var(mid));
            flat.bind(&mut trail, mid, key.clone());
            check(&case.var_goal, &flat)?;

            // Live delta over the root frame.
            let root = BindingFrame::root();
            let mut delta = DeltaBindings::new(&root, 0);
            let mut trail = Trail::new();
            delta.bind(&mut trail, case.q, Term::Var(mid));
            delta.bind(&mut trail, mid, key.clone());
            check(&case.var_goal, &delta)?;

            // Frozen frames, at the default threshold and with
            // flattening forced on every freeze.
            let (frame, _) = delta.freeze(DEFAULT_FLATTEN_THRESHOLD);
            check(&case.var_goal, &*frame)?;
            let root2 = BindingFrame::root();
            let mut delta2 = DeltaBindings::new(&root2, 0);
            let mut trail = Trail::new();
            delta2.bind(&mut trail, case.q, Term::Var(mid));
            delta2.bind(&mut trail, mid, key.clone());
            let (flattened, _) = delta2.freeze(0);
            check(&case.var_goal, &*flattened)?;
        }
        None => {
            // Unbound, and unbound-through-a-chain: both must fall back.
            check(&case.var_goal, &Bindings::new())?;
            let mut flat = Bindings::new();
            let mut trail = Trail::new();
            flat.bind(&mut trail, case.q, Term::Var(mid));
            check(&case.var_goal, &flat)?;
        }
    }
    Ok(())
}

fn program_from(clauses: &[(u8, u8)]) -> Program {
    let mut src = String::new();
    for (ci, (pred_sel, arg_sel)) in clauses.iter().enumerate() {
        src.push_str(&clause_src(*pred_sel, *arg_sel, ci));
    }
    src.push_str("?- q(a).\n");
    parse_program(&src).expect("generated program parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The differential property: on arbitrary programs and goal
    /// streams, every indexed store equals the brute-force oracle and
    /// every baseline store equals the full predicate range — ids *and*
    /// order — across all four replacement policies and every binding
    /// representation.
    #[test]
    fn indexed_candidates_equal_brute_force_oracle(
        clauses in proptest::collection::vec((0u8..3, 0u8..12), 1..24),
        goals in proptest::collection::vec((0u8..5, 0u8..15), 1..8),
    ) {
        let p = program_from(&clauses);
        let n = p.db.len();

        let paged_fa: Vec<MvccClauseStore> = PolicyKind::ALL
            .iter()
            .map(|&pk| {
                paged_store(&p, paged_config(pk, 2, 4, n).with_index(IndexPolicy::FirstArg))
            })
            .collect();
        let snaps_fa: Vec<Snapshot<'_>> = paged_fa.iter().map(|s| s.begin_read()).collect();
        let paged_none = paged_store(&p, paged_config(PolicyKind::Lru, 2, 4, n));
        let snap_none = paged_none.begin_read();

        for (pred_sel, key_sel) in &goals {
            let case = build_goal_case(&p.db, *pred_sel, *key_sel);
            check_case(&case, &mut |goal, bindings| {
                let oracle = oracle_candidates(&p.db, goal, bindings);
                let full = p.db.candidates_for(goal);

                // The oracle itself honors the order contract: a
                // strictly ascending subsequence of the full range.
                prop_assert!(oracle.windows(2).all(|w| w[0] < w[1]));

                for snap in &snaps_fa {
                    let got = snap.try_candidate_clauses(goal, bindings).unwrap();
                    prop_assert_eq!(got.as_ref(), oracle.as_slice());
                }

                // Baseline: the untouched predicate range.
                let got = snap_none.try_candidate_clauses(goal, bindings).unwrap();
                prop_assert_eq!(got.as_ref(), full);
                Ok(())
            })?;
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-level regression: unbound first args see every clause
// ---------------------------------------------------------------------------

const FAMILY: &str = "
    gf(X,Z) :- f(X,Y), f(Y,Z).
    gf(X,Z) :- f(X,Y), m(Y,Z).
    f(curt,elain).  f(sam,larry).
    f(dan,pat).     f(larry,den).
    f(pat,john).    f(larry,doug).
    m(elain,john).  m(marian,elain).
    m(peg,den).     m(peg,doug).
";

fn family_query(query: &str) -> Program {
    parse_program(&format!("{FAMILY}\n?- {query}.\n")).unwrap()
}

/// Best-first solutions through a paged store under an explicit
/// `StateRepr`, plus the store's stats.
fn paged_run(
    program: &Program,
    index: IndexPolicy,
    repr: StateRepr,
) -> (Vec<String>, PagedStoreStats) {
    let cfg = paged_config(PolicyKind::Lru, 2, 4, program.db.len()).with_index(index);
    let paged = paged_store(program, cfg);
    let store = WeightStore::new(WeightParams::default());
    let mut local = HashMap::new();
    let mut view = WeightView::new(&mut local, &store);
    let bf = BestFirstConfig {
        solve: SolveConfig::all().with_state_repr(repr),
        ..BestFirstConfig::default()
    };
    let r = best_first_with(&paged.begin_read(), &program.queries[0], &mut view, &bf);
    let mut texts = r.solution_texts(&program.db);
    texts.sort();
    (texts, paged.stats())
}

/// Satellite regression: a goal whose first argument is an unbound
/// variable must see **every** clause of its predicate — under both
/// state representations — so indexing never loses solutions the full
/// scan would find. The fallback is visible in the meters: zero index
/// hits, identical candidate traffic to the unindexed baseline.
#[test]
fn var_headed_goals_see_every_clause_under_both_reprs() {
    let p = family_query("f(A,B)");
    let (base, base_stats) = paged_run(&p, IndexPolicy::None, StateRepr::Cloned);
    assert_eq!(base.len(), 6, "all six f/2 facts answer f(A,B)");

    for repr in [StateRepr::Cloned, StateRepr::shared()] {
        let (sols, stats) = paged_run(&p, IndexPolicy::FirstArg, repr);
        assert_eq!(sols, base);
        assert_eq!(stats.index_hits, 0, "unbound first arg never narrows");
        assert_eq!(stats.candidates_scanned, base_stats.candidates_scanned);
    }
}

/// The complement: a ground first argument narrows (hits and prunes
/// are nonzero) and the solution set still matches the unindexed run,
/// under both state representations.
#[test]
fn bound_goals_narrow_without_changing_solutions() {
    let p = family_query("gf(sam,G)");
    let (base, base_stats) = paged_run(&p, IndexPolicy::None, StateRepr::Cloned);
    assert!(!base.is_empty());

    for repr in [StateRepr::Cloned, StateRepr::shared()] {
        let (sols, stats) = paged_run(&p, IndexPolicy::FirstArg, repr);
        assert_eq!(sols, base);
        assert!(stats.index_hits > 0, "ground subgoals resolve indexed");
        assert!(stats.index_prunes > 0, "f(sam,_) prunes the f/2 range");
        assert!(stats.candidates_scanned < base_stats.candidates_scanned);
    }
}

// ---------------------------------------------------------------------------
// Pruning bar: the index at least halves clause touches
// ---------------------------------------------------------------------------

/// Run `queries` in order through one epoch-0 snapshot of a store built
/// under `index` (no learning, so both policies expand the same trees).
/// Returns each query's sorted solutions and the store's clause touches.
fn stream_run(p: &Program, queries: &[Query], index: IndexPolicy) -> (Vec<Vec<String>>, u64) {
    let store = paged_store(
        p,
        paged_config(PolicyKind::Lru, 2, 4, p.db.len()).with_index(index),
    );
    let snap = store.begin_read();
    let weights = WeightStore::new(WeightParams::default());
    let cfg = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let sets = queries
        .iter()
        .map(|q| {
            let mut local = HashMap::new();
            let mut view = WeightView::new(&mut local, &weights);
            let mut texts = best_first_with(&snap, q, &mut view, &cfg).solution_texts(&p.db);
            texts.sort();
            texts
        })
        .collect();
    (sets, store.stats().accesses)
}

fn parse_all(p: &Program, texts: impl IntoIterator<Item = String>) -> Vec<Query> {
    texts
        .into_iter()
        .map(|t| parse_query_shared(&p.db, &t).expect("workload query parses"))
        .collect()
}

/// Family grandparent queries (every subgoal's first argument bound),
/// queens and map colouring (keyed constraint checks once earlier
/// choices are made), and a small multi-tenant request stream: the
/// first-argument index must return the unindexed solution sets with at
/// most half the clause touches.
#[test]
fn first_arg_index_halves_clause_touches() {
    let mut workloads: Vec<(&str, Program, Vec<Query>)> = Vec::new();

    let (p, meta) = family_program(&FamilyParams {
        generations: 4,
        branching: 3,
        seed: 7,
        ..FamilyParams::default()
    });
    let subjects: Vec<String> = meta
        .grandparents()
        .iter()
        .take(8)
        .map(|s| format!("gf({s}, G)"))
        .collect();
    let queries = parse_all(&p, subjects);
    workloads.push(("family", p, queries));

    for (name, p) in [
        ("queens", queens_workload()),
        ("mapcolor", mapcolor_program(&MapColorParams::default()).0),
    ] {
        let queries = vec![p.queries[0].clone()];
        workloads.push((name, p, queries));
    }

    let mix = TenantMix {
        n_tenants: 4,
        queries_per_tenant: 4,
        drift: 0.15,
        burst: 3,
        family: FamilyParams {
            generations: 3,
            branching: 3,
            ..FamilyParams::default()
        },
        ..TenantMix::default()
    };
    let (p, metas) = tenant_mix_program(&mix);
    let requests = tenant_mix_requests(&mix, &metas);
    let queries = parse_all(&p, requests.into_iter().map(|r| r.text));
    workloads.push(("tenant_mix", p, queries));

    for (name, p, queries) in &workloads {
        let (base, base_touches) = stream_run(p, queries, IndexPolicy::None);
        let (indexed, indexed_touches) = stream_run(p, queries, IndexPolicy::FirstArg);
        assert_eq!(base, indexed, "{name}: the index changed a solution set");
        assert!(
            base.iter().any(|s| !s.is_empty()),
            "{name}: the stream answers something"
        );
        assert!(
            2 * indexed_touches <= base_touches,
            "{name}: {indexed_touches} touches indexed vs {base_touches} unindexed"
        );
    }
}

// ---------------------------------------------------------------------------
// Copy-on-write index against a rebuild
// ---------------------------------------------------------------------------

/// Predicates the copy-on-write property writes under, as `(symbol,
/// arity)`; symbol 0 is left for the filler arguments.
const COW_PREDS: [(u32, usize); 3] = [(1, 2), (2, 1), (3, 3)];

/// Every first-argument key the copy-on-write property asserts: 64
/// atoms, 96 integers and 8 functors at two arities — enough that every
/// key shard of the first predicate's segment holds some.
fn cow_keys() -> Vec<Term> {
    let atoms = (100..164).map(|s| Term::Atom(Sym(s)));
    let ints = (-32..64).map(Term::Int);
    let structs = (200..208)
        .flat_map(|f| (1..=2).map(move |n| Term::app(Sym(f), vec![Term::Atom(Sym(0)); n])));
    atoms.chain(ints).chain(structs).collect()
}

/// Keys no clause ever has.
fn unknown_keys() -> Vec<Term> {
    vec![
        Term::Atom(Sym(999)),
        Term::Int(1_000_000),
        Term::app(Sym(200), vec![Term::Atom(Sym(0)); 3]),
    ]
}

/// A fact of predicate `COW_PREDS[pred]` whose first argument is
/// `first` (`None`: a variable, so the clause is var-headed).
fn cow_fact(pred: usize, first: Option<&Term>) -> Clause {
    let (name, arity) = COW_PREDS[pred];
    let mut args = vec![first.cloned().unwrap_or(Term::Var(VarId(0)))];
    args.extend((1..arity).map(|_| Term::Atom(Sym(0))));
    Clause::fact(Term::app(Sym(name), args))
}

/// The index rebuilt from scratch over the live clauses, in id order.
fn rebuild(live: &[Option<Clause>]) -> ClauseIndex {
    let mut idx = ClauseIndex::default();
    for (i, clause) in live.iter().enumerate() {
        if let Some(clause) = clause {
            idx.insert_clause(ClauseId(i as u32), clause);
        }
    }
    idx
}

/// Every lookup `got` and `want` can be asked — each predicate (and an
/// unknown one) under every key, unknown keys and an unbound first
/// argument — answers the same, and so does every predicate's id list.
fn same_answers(got: &ClauseIndex, want: &ClauseIndex, keys: &[Term]) -> bool {
    let bindings = Bindings::default();
    let preds = COW_PREDS.iter().copied().chain([(9, 2)]);
    preds.into_iter().all(|(name, arity)| {
        let pred = (Sym(name), arity as u32);
        got.clauses_of(pred) == want.clauses_of(pred)
            && keys
                .iter()
                .cloned()
                .chain(unknown_keys())
                .chain([Term::Var(VarId(0))])
                .all(|first| {
                    let mut args = vec![first];
                    args.extend((1..arity).map(|i| Term::Var(VarId(i as u32))));
                    let goal = Term::app(Sym(name), args);
                    got.lookup(&goal, &bindings) == want.lookup(&goal, &bindings)
                })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A copy-on-write index written through successive clones answers
    /// every lookup as an index rebuilt from its live clauses does, and
    /// no write through a later clone changes what an earlier clone
    /// answers. Each step clones the current index (a transaction's
    /// branch) and applies a batch of inserts — keyed or var-headed —
    /// and removes of live clauses to the clone. The seed index built in
    /// one pass by `from_db` answers as its clauses inserted one by one.
    #[test]
    fn cow_index_equals_a_rebuild_through_clones(
        extra in proptest::collection::vec((0u8..3, any::<u16>()), 0..32),
        steps in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 0u8..3, any::<u16>()), 1..6),
            1..8,
        ),
    ) {
        let keys = cow_keys();
        // Every key once under the first predicate, then random extras
        // (a selector past the keys makes a var-headed clause).
        let key_of = |sel: u16| keys.get(sel as usize % (keys.len() + 8));
        let mut live: Vec<Option<Clause>> = keys.iter().map(|k| Some(cow_fact(0, Some(k)))).collect();
        live.extend(extra.iter().map(|&(p, sel)| Some(cow_fact(p as usize, key_of(sel)))));
        let mut idx = rebuild(&live);
        let mut seed = ClauseDb::new();
        for clause in live.iter().flatten() {
            seed.add_clause(clause.clone()).unwrap();
        }
        prop_assert!(same_answers(&ClauseIndex::from_db(&seed), &idx, &keys));
        let mut earlier: Vec<(ClauseIndex, ClauseIndex)> = Vec::new();

        for batch in &steps {
            let base = idx.clone();
            earlier.push((base, rebuild(&live)));
            for &(insert, p, sel) in batch {
                if insert {
                    let clause = cow_fact(p as usize, key_of(sel));
                    idx.insert_clause(ClauseId(live.len() as u32), &clause);
                    live.push(Some(clause));
                } else {
                    let ids: Vec<usize> = (0..live.len()).filter(|&i| live[i].is_some()).collect();
                    if ids.is_empty() {
                        continue;
                    }
                    let victim = ids[sel as usize % ids.len()];
                    let clause = live[victim].take().unwrap();
                    idx.remove_clause(ClauseId(victim as u32), &clause);
                }
            }
            prop_assert!(same_answers(&idx, &rebuild(&live), &keys));
            for (clone, at_clone) in &earlier {
                prop_assert!(same_answers(clone, at_clone, &keys));
            }
        }
    }
}
