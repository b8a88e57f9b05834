//! Property tests for the MVCC write path: arbitrary assert/retract/
//! snapshot schedules checked against a brute-force versioned-map model.
//!
//! The model is the obvious one — a growing `Vec` of epochs, each epoch
//! a dense `id -> Option<clause text>` map — rebuilt into a plain
//! in-memory `ClauseDb` whenever a snapshot's solution set needs
//! checking. The real store must agree with it *at every epoch a
//! snapshot holds open*, under every replacement policy and cache
//! capacity: the track cache is version-blind, so paging decisions may
//! change hit counts but never answers.
//!
//! Four families of invariants ride along on every schedule:
//!
//! - **Snapshot isolation** — a snapshot pinned at epoch E keeps
//!   returning exactly the epoch-E solution set (and clause count) no
//!   matter how many commits land after it.
//! - **Exact retirement** — the model logs every page version a commit
//!   replaces as `(installed_at, superseded_at)`; after every step
//!   `stash_depth()` must equal the number of logged versions with
//!   `installed_at <= E < superseded_at` for some open snapshot's epoch
//!   E, and `pages_retired` the rest. No version outlives its last
//!   possible reader, none dies before it.
//! - **Version-state consistency** — `mvcc_stats()` agrees with the
//!   driver's own bookkeeping: committed epoch, active readers, clause
//!   count.
//! - **Epoch-pinned indexing** — the store runs `IndexPolicy::FirstArg`,
//!   so a reader pinned at epoch E must resolve bound-first-argument
//!   candidates through E's index even after later commits churn the
//!   same functor: the candidate ids for `f(a0,Q)` are recomputed from
//!   E's clause texts at every step.
//!
//! Aborted transactions (dropped uncommitted after interning symbols and
//! dirtying pages) must leave no trace, and a geometry with a few free
//! blocks drives asserts into `CapacityExhausted`.
//!
//! Case counts honor the `PROPTEST_CASES` environment variable (the CI
//! profile sets a reduced count; see `.github/workflows/ci.yml`).

use std::collections::{BTreeSet, HashMap};

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{
    clause_to_source, parse_program, parse_query_symbols, Bindings, ClauseId, ClauseSource, Program,
};
use blog_spd::{
    CommitMode, CostModel, Geometry, IndexPolicy, MvccClauseStore, MvccError, PagedStoreConfig,
    PolicyKind, Snapshot, TrackId, WriteTxn,
};
use proptest::prelude::*;

/// Seed program: two rules (never retracted) over a handful of facts.
const SEED: &str = "
    gf(X,Z) :- f(X,Y), f(Y,Z).
    gf(X,Z) :- f(X,Y), m(Y,Z).
    f(a0,b0). f(a0,b1). f(b0,c0). f(b1,c1). f(a1,b2). f(b2,c2).
    m(b2,c3).
";

/// Parents new facts attach under (all present in the seed vocabulary).
const PARENTS: [&str; 5] = ["a0", "a1", "b0", "b1", "b2"];

/// The queries every open snapshot is re-checked against.
const QUERIES: [&str; 2] = ["f(X,Y)", "gf(X,Z)"];

fn seed_program() -> Program {
    parse_program(SEED).unwrap()
}

/// Room for the seed plus every assert a schedule can make.
const ROOMY: Geometry = Geometry {
    n_sps: 2,
    n_cylinders: 16,
    blocks_per_track: 4,
};

/// Room for the seed's 9 clauses plus 3 asserts.
const TIGHT: Geometry = Geometry {
    n_sps: 2,
    n_cylinders: 3,
    blocks_per_track: 2,
};

fn store_config(
    policy: PolicyKind,
    capacity_tracks: usize,
    geometry: Geometry,
) -> PagedStoreConfig {
    PagedStoreConfig {
        geometry,
        cost: CostModel::default(),
        capacity_tracks,
        policy,
        // The indexed path: schedules churn f/2 with bound first
        // arguments, so every epoch's clause index is exercised and the
        // solution-set assertions prove it never changes an answer.
        index: IndexPolicy::FirstArg,
        fault: None,
    }
}

// ---------------------------------------------------------------------------
// Schedule grammar
// ---------------------------------------------------------------------------

/// One mutation inside a transaction.
#[derive(Clone, Debug)]
enum TxnOp {
    /// Assert `f(<parent>, z<fresh>).` — a brand-new constant each time,
    /// so the write path's symbol interning is always exercised.
    Assert { parent: u8 },
    /// Retract the `pick % live`-th live fact (seed facts and committed
    /// asserts alike; rules are never retracted).
    Retract { pick: u8 },
}

/// One step of a schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Apply these ops as one transaction and commit.
    Txn(Vec<TxnOp>),
    /// Apply these ops as one transaction and drop it uncommitted.
    Abort(Vec<TxnOp>),
    /// Open a snapshot at the current committed epoch.
    Open,
    /// Drop the `pick % open`-th open snapshot.
    Close { pick: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Transactions listed twice: schedules should mutate more often than
    // they pin (the vendored proptest's `prop_oneof` is unweighted).
    let op = || {
        prop_oneof![
            (0u8..5).prop_map(|parent| TxnOp::Assert { parent }),
            any::<u8>().prop_map(|pick| TxnOp::Retract { pick }),
        ]
    };
    prop_oneof![
        proptest::collection::vec(op(), 1..4).prop_map(Step::Txn),
        proptest::collection::vec(op(), 1..4).prop_map(Step::Txn),
        proptest::collection::vec(op(), 1..4).prop_map(Step::Abort),
        Just(Step::Open),
        any::<u8>().prop_map(|pick| Step::Close { pick }),
    ]
}

fn schedule_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(step_strategy(), 1..24)
}

// ---------------------------------------------------------------------------
// Brute-force versioned-map model
// ---------------------------------------------------------------------------

/// Clause texts by id at one epoch (`None` = retracted / never present).
type EpochMap = Vec<Option<String>>;

/// Sequential solutions of `query` against the clause texts of one epoch.
fn model_solutions(epoch_map: &EpochMap, query: &str) -> Vec<String> {
    let src: String = epoch_map.iter().flatten().fold(String::new(), |mut s, t| {
        s.push_str(t);
        s.push('\n');
        s
    });
    let p = parse_program(&src).expect("model program parses");
    let q = parse_query_symbols(p.db.symbols(), query).expect("model query parses");
    let weights = WeightStore::new(WeightParams::default());
    let mut local = HashMap::new();
    let mut view = WeightView::new(&mut local, &weights);
    let cfg = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let r = best_first_with(&p.db, &q, &mut view, &cfg);
    let mut texts: Vec<String> = r
        .solutions
        .iter()
        .map(|s| s.solution.to_text(&p.db))
        .collect();
    texts.sort();
    texts
}

/// Solutions of `query` against a pinned snapshot.
fn snapshot_solutions(snap: &Snapshot<'_>, query: &str) -> Vec<String> {
    let q = parse_query_symbols(snap.symbols(), query).expect("snapshot query parses");
    let weights = WeightStore::new(WeightParams::default());
    let mut local = HashMap::new();
    let mut view = WeightView::new(&mut local, &weights);
    let cfg = BestFirstConfig {
        learn: false,
        ..BestFirstConfig::default()
    };
    let r = best_first_with(snap, &q, &mut view, &cfg);
    let mut texts: Vec<String> = r
        .solutions
        .iter()
        .map(|s| s.solution.to_text_syms(snap.symbols()))
        .collect();
    texts.sort();
    texts
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Apply `ops` to `txn` and, side by side, to `next` — the model's copy
/// of the epoch the transaction is building. Returns the tracks the
/// transaction dirtied.
fn apply_ops(
    store: &MvccClauseStore,
    txn: &mut WriteTxn<'_>,
    ops: &[TxnOp],
    next: &mut EpochMap,
    live_facts: &[u32],
    fresh: &mut usize,
) -> Result<BTreeSet<TrackId>, TestCaseError> {
    let capacity = store.geometry().capacity() as usize;
    let mut dirtied = BTreeSet::new();
    // Retract pool for this transaction: committed live facts not yet
    // retracted in it (in-txn asserts stay off-limits so the model never
    // has to track half-committed state).
    let mut pool = live_facts.to_vec();
    for op in ops {
        match op {
            TxnOp::Assert { parent } => {
                let text = format!("f({},z{fresh}).", PARENTS[*parent as usize % PARENTS.len()]);
                *fresh += 1;
                let got = txn.assert_text(&text);
                if next.len() == capacity {
                    prop_assert_eq!(got, Err(MvccError::CapacityExhausted { capacity }));
                    continue;
                }
                let ids = got.expect("assert in bounds");
                prop_assert_eq!(ids.len(), 1);
                prop_assert_eq!(ids[0].0 as usize, next.len(), "ids allocate densely");
                dirtied.insert(store.track_of(ids[0]));
                next.push(Some(text));
            }
            TxnOp::Retract { pick } => {
                if pool.is_empty() {
                    continue;
                }
                let id = pool.remove(*pick as usize % pool.len());
                txn.retract(ClauseId(id)).expect("retract of a live fact");
                dirtied.insert(store.track_of(ClauseId(id)));
                next[id as usize] = None;
            }
        }
    }
    Ok(dirtied)
}

/// Replay `schedule` against a real store under `(policy, capacity)` and
/// the model side by side, checking every invariant after every step.
fn check_schedule(
    policy: PolicyKind,
    capacity_tracks: usize,
    geometry: Geometry,
    schedule: &[Step],
) -> Result<(), TestCaseError> {
    let p = seed_program();
    let store = MvccClauseStore::new(
        &p.db,
        store_config(policy, capacity_tracks, geometry),
        CommitMode::Mvcc,
    );

    // The versioned map: one EpochMap per committed epoch.
    let seed_map: EpochMap =
        p.db.clauses()
            .iter()
            .map(|c| Some(clause_to_source(p.db.symbols(), c)))
            .collect();
    let n_rules = p.db.clauses().iter().filter(|c| !c.body.is_empty()).count();
    let mut epochs: Vec<EpochMap> = vec![seed_map];
    // Memoized model answers, keyed by (epoch, query index).
    let mut truth: HashMap<(u64, usize), Vec<String>> = HashMap::new();
    // Live *fact* ids at the committed epoch, in id order (the retract
    // pool: rules are excluded so the model programs always parse).
    let mut live_facts: Vec<u32> = (n_rules as u32..p.db.len() as u32).collect();
    // Every page version a commit replaced: (installed_at, superseded_at).
    let mut superseded: Vec<(u64, u64)> = Vec::new();
    // The epoch that installed each track's current page (absent: 0).
    let mut current_since: HashMap<TrackId, u64> = HashMap::new();

    let mut open: Vec<Snapshot<'_>> = Vec::new();
    let mut fresh = 0usize;

    for step in schedule {
        match step {
            Step::Txn(ops) => {
                let mut txn = store.begin_write();
                prop_assert_eq!(txn.base_epoch(), (epochs.len() - 1) as u64);
                let mut next = epochs.last().unwrap().clone();
                let dirtied = apply_ops(&store, &mut txn, ops, &mut next, &live_facts, &mut fresh)?;
                if dirtied.is_empty() {
                    // Every op degenerated to a no-op (empty retract
                    // pool, store full): the commit must not bump the
                    // epoch.
                    prop_assert_eq!(txn.commit(), (epochs.len() - 1) as u64);
                } else {
                    let committed = txn.commit();
                    prop_assert_eq!(committed, epochs.len() as u64);
                    for track in dirtied {
                        let since = current_since.insert(track, committed).unwrap_or(0);
                        superseded.push((since, committed));
                    }
                    live_facts = (n_rules..next.len())
                        .filter(|&i| next[i].is_some())
                        .map(|i| i as u32)
                        .collect();
                    epochs.push(next);
                }
            }
            Step::Abort(ops) => {
                let first_fresh = fresh;
                let mut txn = store.begin_write();
                let mut scratch = epochs.last().unwrap().clone();
                apply_ops(&store, &mut txn, ops, &mut scratch, &live_facts, &mut fresh)?;
                drop(txn);
                // No trace: the checks below hold the epoch, the clause
                // count and the page versions to the model, which never
                // saw this transaction; the vocabulary is checked here.
                let snap = store.begin_read();
                for n in first_fresh..fresh {
                    prop_assert!(
                        parse_query_symbols(snap.symbols(), &format!("f(a0,z{n})")).is_err(),
                        "aborted constant z{} leaked into the committed table",
                        n
                    );
                }
            }
            Step::Open => {
                let snap = store.begin_read();
                prop_assert_eq!(snap.epoch(), (epochs.len() - 1) as u64);
                open.push(snap);
            }
            Step::Close { pick } => {
                if !open.is_empty() {
                    let i = *pick as usize % open.len();
                    drop(open.remove(i));
                }
            }
        }

        // --- Version-state consistency ---
        let stats = store.mvcc_stats();
        prop_assert_eq!(stats.committed_epoch, (epochs.len() - 1) as u64);
        prop_assert_eq!(stats.active_readers, open.len());
        prop_assert_eq!(stats.stashed_pages, store.stash_depth());
        prop_assert_eq!(store.committed_len(), epochs.last().unwrap().len());

        // --- Exact retirement: a superseded page version is alive iff
        // some open snapshot's epoch falls in its lifetime ---
        let pinned = superseded
            .iter()
            .filter(|&&(installed_at, superseded_at)| {
                open.iter()
                    .any(|snap| (installed_at..superseded_at).contains(&snap.epoch()))
            })
            .count();
        prop_assert_eq!(store.stash_depth(), pinned, "live superseded page versions");
        prop_assert_eq!(stats.pages_retired, (superseded.len() - pinned) as u64);

        // --- Snapshot isolation: every open snapshot still answers as
        // its epoch's sequential database ---
        for snap in &open {
            let e = snap.epoch();
            let map = &epochs[e as usize];
            prop_assert_eq!(snap.clause_count(), map.len());

            // The epoch's clause index, not the committed one: the
            // candidate ids for a bound first argument are exactly the
            // live `f(a0,_)` facts *of this snapshot's epoch*, in id
            // order, no matter how many commits churned `f/2` since.
            let cq =
                parse_query_symbols(snap.symbols(), "f(a0,Q)").expect("candidate probe parses");
            let got: Vec<u32> = snap
                .try_candidate_clauses(&cq.goals[0], &Bindings::new())
                .unwrap()
                .iter()
                .map(|c| c.0)
                .collect();
            let want: Vec<u32> = map
                .iter()
                .enumerate()
                .filter(|(_, t)| t.as_deref().is_some_and(|t| t.starts_with("f(a0,")))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(
                got,
                want,
                "{}@{}: epoch {} candidate set diverged",
                policy,
                capacity_tracks,
                e
            );
            for (qi, query) in QUERIES.iter().enumerate() {
                let expect = truth
                    .entry((e, qi))
                    .or_insert_with(|| model_solutions(map, query));
                let got = snapshot_solutions(snap, query);
                prop_assert_eq!(
                    &got,
                    expect,
                    "{}@{}: epoch {} diverged on {}",
                    policy,
                    capacity_tracks,
                    e,
                    query
                );
            }
        }
    }

    drop(open);
    prop_assert_eq!(store.reader_count(), 0);
    prop_assert_eq!(
        store.stash_depth(),
        0,
        "superseded pages leaked after final drop"
    );
    Ok(())
}

proptest! {
    // 256 schedules locally (the ISSUE's >= 200 seeded interleavings);
    // `PROPTEST_CASES` still caps this downward for the CI profile.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The full invariant battery on arbitrary schedules, across every
    /// replacement policy at an arbitrary (small) cache capacity. The
    /// cache is version-blind: answers must be identical under all four.
    #[test]
    fn schedules_match_the_versioned_map_model(
        capacity in 1usize..=6,
        schedule in schedule_strategy(),
    ) {
        for kind in PolicyKind::ALL {
            check_schedule(kind, capacity, ROOMY, &schedule)?;
        }
    }

    /// The same battery with three free blocks: most schedules run the
    /// store full, after which asserts fail with `CapacityExhausted`,
    /// change nothing, and leave the transaction usable.
    #[test]
    fn schedules_match_the_model_when_the_store_runs_full(
        schedule in schedule_strategy(),
    ) {
        check_schedule(PolicyKind::Lru, 2, TIGHT, &schedule)?;
    }

    /// Interleaved pins: a snapshot opened before a run of commits keeps
    /// the seed answers while a snapshot opened after sees the final
    /// ones — at every policy, with the cache thrashing at capacity 1.
    #[test]
    fn oldest_pin_survives_any_commit_run(
        n_commits in 1usize..=12,
    ) {
        let p = seed_program();
        for kind in PolicyKind::ALL {
            let store = MvccClauseStore::new(&p.db, store_config(kind, 1, ROOMY), CommitMode::Mvcc);
            let old = store.begin_read();
            let before = snapshot_solutions(&old, "f(X,Y)");
            for i in 0..n_commits {
                let mut txn = store.begin_write();
                txn.assert_text(&format!("f(a0,w{i}).")).unwrap();
                txn.commit();
            }
            prop_assert_eq!(
                snapshot_solutions(&old, "f(X,Y)"),
                before,
                "{}: pinned snapshot drifted",
                kind
            );
            let new = store.begin_read();
            prop_assert_eq!(new.epoch(), n_commits as u64);
            prop_assert_eq!(
                snapshot_solutions(&new, "f(X,Y)").len(),
                before.len() + n_commits
            );
        }
    }
}
