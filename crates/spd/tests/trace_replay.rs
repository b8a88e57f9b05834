//! Trace-replay regression fixtures: recorded clause-access streams for
//! the family and queens workloads, replayed through every replacement
//! policy against golden hit counts.
//!
//! The traces under `tests/fixtures/` were recorded once from an
//! untrained best-first run (see [`support::record_access_trace`]) and
//! are committed so future pager or engine changes cannot *silently*
//! regress clause-access locality: a legitimate change to the access
//! stream or to a policy's behavior must regenerate the fixtures /
//! goldens in the same commit, where a reviewer sees it.
//!
//! - **LRU goldens are tolerance-free**: the policy's semantics are
//!   frozen (it is the seed behavior), so replaying a fixed trace must
//!   reproduce the hit count exactly.
//! - **2Q goldens allow a bounded window** (±2.5 points of hit rate):
//!   its tuning knobs (`kin`, `kout`) are legitimate things to adjust,
//!   so the fixtures pin them loosely enough to tune but tightly enough
//!   to catch a scan-resistance collapse.
//!
//! Regenerate with:
//! `REGEN_TRACE_FIXTURES=1 cargo test -p blog-spd --test trace_replay`
//! (failing golden assertions print the observed numbers to paste in).

mod support;

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{ClauseId, Program};
use blog_spd::{IndexPolicy, PolicyKind};

use support::{family_workload, paged_config, paged_store, queens_workload, record_access_trace};

/// Blocks per track used by every replay in this file.
const BLOCKS_PER_TRACK: u32 = 4;

/// Hit-rate window (absolute) allowed for the tunable policy, 2Q.
const TUNABLE_WINDOW: f64 = 0.025;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Load a fixture, regenerating it first when `REGEN_TRACE_FIXTURES` is
/// set. Asserts the fixture was recorded against a database of the same
/// size as `program`'s (a mismatch means the workload generator changed
/// under the fixture).
fn load_or_regen(name: &str, describe: &str, program: &Program) -> Vec<ClauseId> {
    let path = fixture_path(name);
    if std::env::var_os("REGEN_TRACE_FIXTURES").is_some() {
        let trace = record_access_trace(program);
        let mut out = String::new();
        out.push_str(&format!("# clause-access trace: {describe}\n"));
        out.push_str("# recorded from an untrained best-first run of the first query\n");
        out.push_str(&format!("# clauses: {}\n", program.db.len()));
        for cid in &trace {
            out.push_str(&format!("{}\n", cid.0));
        }
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, out).unwrap();
        eprintln!("regenerated {} ({} accesses)", path.display(), trace.len());
    }
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with REGEN_TRACE_FIXTURES=1",
            path.display()
        )
    });
    let mut clauses_recorded = None;
    let mut trace = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("clauses:") {
                clauses_recorded = Some(n.trim().parse::<usize>().unwrap());
            }
            continue;
        }
        trace.push(ClauseId(line.parse::<u32>().unwrap()));
    }
    assert_eq!(
        clauses_recorded,
        Some(program.db.len()),
        "{name}: fixture recorded against a different database — regenerate it"
    );
    assert!(
        trace.iter().all(|cid| cid.index() < program.db.len()),
        "{name}: trace references clauses outside the database"
    );
    trace
}

/// Replay `trace` through a fresh store under `policy`; returns
/// `(hits, accesses)`.
fn replay(
    program: &Program,
    trace: &[ClauseId],
    policy: PolicyKind,
    capacity_tracks: usize,
) -> (u64, u64) {
    let store = paged_store(
        program,
        paged_config(policy, capacity_tracks, BLOCKS_PER_TRACK, program.db.len()),
    );
    let stats = support::replay(&store.begin_read(), trace);
    (stats.hits, stats.accesses)
}

/// One golden entry: policy, capacity in tracks, expected hits.
struct Golden {
    policy: PolicyKind,
    capacity_tracks: usize,
    hits: u64,
}

fn check_goldens(name: &str, program: &Program, trace: &[ClauseId], goldens: &[Golden]) {
    for g in goldens {
        let (hits, accesses) = replay(program, trace, g.policy, g.capacity_tracks);
        if g.policy == PolicyKind::Lru {
            // Frozen semantics: exact.
            assert_eq!(
                hits, g.hits,
                "{name}: LRU@{} replay drifted (got {hits} hits of {accesses})",
                g.capacity_tracks
            );
        } else {
            let got = hits as f64 / accesses as f64;
            let want = g.hits as f64 / accesses as f64;
            assert!(
                (got - want).abs() <= TUNABLE_WINDOW,
                "{name}: {}@{} hit rate {:.4} outside golden {:.4} ± {TUNABLE_WINDOW} \
                 (got {hits} hits of {accesses}; update the golden if the tuning change is intended)",
                g.policy,
                g.capacity_tracks,
                got,
                want
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Family workload
// ---------------------------------------------------------------------------

#[test]
fn family_fixture_replays_against_goldens() {
    let program = family_workload();
    let trace = load_or_regen(
        "family_access.trace",
        "family workload (generations=4, branching=3, seed=7)",
        &program,
    );
    assert!(trace.len() > 500, "family trace too short: {}", trace.len());

    // 186 clauses over 47 tracks; 794 recorded accesses. LRU shows the
    // PR-1 cliff (flat 430 hits at every sub-working-set capacity, 747
    // once everything fits); 2Q flattens it (455 at half, 599 at three
    // quarters).
    let total_tracks = (program.db.len() as u32).div_ceil(BLOCKS_PER_TRACK) as usize;
    let quarter = (total_tracks / 4).max(1);
    let half = (total_tracks / 2).max(1);
    let three_quarters = (3 * total_tracks / 4).max(1);
    check_goldens(
        "family",
        &program,
        &trace,
        &[
            Golden {
                policy: PolicyKind::Lru,
                capacity_tracks: quarter,
                hits: 430,
            },
            Golden {
                policy: PolicyKind::Lru,
                capacity_tracks: half,
                hits: 430,
            },
            Golden {
                policy: PolicyKind::Lru,
                capacity_tracks: total_tracks,
                hits: 747,
            },
            Golden {
                policy: PolicyKind::TwoQ,
                capacity_tracks: quarter,
                hits: 430,
            },
            Golden {
                policy: PolicyKind::TwoQ,
                capacity_tracks: half,
                hits: 455,
            },
            Golden {
                policy: PolicyKind::TwoQ,
                capacity_tracks: three_quarters,
                hits: 599,
            },
        ],
    );
}

#[test]
fn family_two_q_beats_lru_at_mid_capacities() {
    // The locality property the fixtures exist to protect: on the
    // scan-heavy family trace, 2Q's hit rate dominates LRU's at every
    // sub-working-set capacity.
    let program = family_workload();
    let trace = load_or_regen(
        "family_access.trace",
        "family workload (generations=4, branching=3, seed=7)",
        &program,
    );
    let total_tracks = (program.db.len() as u32).div_ceil(BLOCKS_PER_TRACK) as usize;
    for capacity in [total_tracks / 4, total_tracks / 2, 3 * total_tracks / 4] {
        let capacity = capacity.max(1);
        let (lru, _) = replay(&program, &trace, PolicyKind::Lru, capacity);
        let (twoq, _) = replay(&program, &trace, PolicyKind::TwoQ, capacity);
        assert!(
            twoq >= lru,
            "2Q lost to LRU at capacity {capacity}: {twoq} < {lru}"
        );
    }
}

// ---------------------------------------------------------------------------
// Queens workload
// ---------------------------------------------------------------------------

#[test]
fn queens_fixture_replays_against_goldens() {
    let program = queens_workload();
    let trace = load_or_regen("queens_access.trace", "queens workload (n=5)", &program);
    assert!(trace.len() > 500, "queens trace too short: {}", trace.len());

    // 66 clauses over 17 tracks; 24521 recorded accesses. Same shape as
    // the family trace: LRU cliff at the working set, 2Q ahead at half
    // capacity.
    let total_tracks = (program.db.len() as u32).div_ceil(BLOCKS_PER_TRACK) as usize;
    let half = (total_tracks / 2).max(1);
    check_goldens(
        "queens",
        &program,
        &trace,
        &[
            Golden {
                policy: PolicyKind::Lru,
                capacity_tracks: half,
                hits: 18036,
            },
            Golden {
                policy: PolicyKind::Lru,
                capacity_tracks: total_tracks,
                hits: 24504,
            },
            Golden {
                policy: PolicyKind::TwoQ,
                capacity_tracks: half,
                hits: 19347,
            },
        ],
    );
}

// ---------------------------------------------------------------------------
// MVCC write path
// ---------------------------------------------------------------------------

/// Segments the family trace is split into (one commit between each).
const MVCC_SEGMENTS: usize = 4;

/// One write-path golden line: counters after segment `seg`'s replay and
/// the commit that follows it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct MvccGolden {
    policy: PolicyKind,
    seg: usize,
    epoch: u64,
    accesses: u64,
    hits: u64,
    evictions: u64,
    stash: usize,
}

/// Replay the family trace through the paged store under `policy`
/// at half the working-set capacity, committing one small transaction
/// (retract the previous probe, assert a new one) between segments while
/// an epoch-0 snapshot stays pinned. A superseded page version lives
/// only while some pinned version's page table points at it, so `stash`
/// counts the *epoch-0* versions of the tracks dirtied so far — the only
/// ones the pin can read. A version installed by one of these commits
/// and replaced by a later one retires at that later commit: no
/// snapshot was ever pinned between the two.
fn mvcc_write_path_replay(
    program: &Program,
    trace: &[ClauseId],
    policy: PolicyKind,
) -> Vec<MvccGolden> {
    let total_tracks = (program.db.len() as u32).div_ceil(BLOCKS_PER_TRACK) as usize;
    let store = paged_store(
        program,
        paged_config(
            policy,
            (total_tracks / 2).max(1),
            BLOCKS_PER_TRACK,
            program.db.len() + 2 * MVCC_SEGMENTS,
        ),
    );
    let pin = store.begin_read();
    let chunk = trace.len().div_ceil(MVCC_SEGMENTS);
    let mut out = Vec::new();
    let mut last_probe: Option<ClauseId> = None;
    for (seg, ids) in trace.chunks(chunk).enumerate() {
        support::replay(&store.begin_read(), ids);
        let mut txn = store.begin_write();
        if let Some(old) = last_probe.take() {
            txn.retract(old).unwrap();
        }
        last_probe = Some(txn.assert_text(&format!("mvcc_probe(s{seg}).")).unwrap()[0]);
        let epoch = txn.commit();
        let s = store.stats();
        out.push(MvccGolden {
            policy,
            seg,
            epoch,
            accesses: s.accesses,
            hits: s.hits,
            evictions: s.evictions,
            stash: store.stash_depth(),
        });
    }
    // Dropping the epoch-0 pin retires what it alone kept alive.
    drop(pin);
    assert_eq!(
        store.stash_depth(),
        0,
        "{policy}: stash leak after pin drop"
    );
    out
}

fn mvcc_golden_line(g: &MvccGolden) -> String {
    format!(
        "{} seg={} epoch={} accesses={} hits={} evictions={} stash={}",
        g.policy.name(),
        g.seg,
        g.epoch,
        g.accesses,
        g.hits,
        g.evictions,
        g.stash
    )
}

fn parse_mvcc_golden(line: &str) -> MvccGolden {
    let mut parts = line.split_whitespace();
    let policy = PolicyKind::parse(parts.next().unwrap()).unwrap();
    let mut field = |name: &str| -> u64 {
        let kv = parts
            .next()
            .unwrap_or_else(|| panic!("missing {name}: {line}"));
        kv.strip_prefix(name)
            .and_then(|v| v.strip_prefix('='))
            .unwrap_or_else(|| panic!("bad field {kv}, wanted {name}: {line}"))
            .parse()
            .unwrap()
    };
    MvccGolden {
        policy,
        seg: field("seg") as usize,
        epoch: field("epoch"),
        accesses: field("accesses"),
        hits: field("hits"),
        evictions: field("evictions"),
        stash: field("stash") as usize,
    }
}

#[test]
fn family_mvcc_write_path_replays_against_goldens() {
    let program = family_workload();
    let trace = load_or_regen(
        "family_access.trace",
        "family workload (generations=4, branching=3, seed=7)",
        &program,
    );
    let path = fixture_path("family_mvcc_write.golden");
    if std::env::var_os("REGEN_TRACE_FIXTURES").is_some() {
        let mut out = String::new();
        out.push_str("# MVCC write-path goldens: family trace in 4 segments, one\n");
        out.push_str("# commit (retract previous probe + assert new) between segments,\n");
        out.push_str("# an epoch-0 snapshot pinned throughout. Cache at half the\n");
        out.push_str(&format!("# working set. clauses: {}\n", program.db.len()));
        for kind in PolicyKind::ALL {
            for g in mvcc_write_path_replay(&program, &trace, kind) {
                out.push_str(&mvcc_golden_line(&g));
                out.push('\n');
            }
        }
        fs::write(&path, out).unwrap();
        eprintln!("regenerated {}", path.display());
    }
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with REGEN_TRACE_FIXTURES=1",
            path.display()
        )
    });
    let goldens: Vec<MvccGolden> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(parse_mvcc_golden)
        .collect();
    assert_eq!(goldens.len(), PolicyKind::ALL.len() * MVCC_SEGMENTS);

    for kind in PolicyKind::ALL {
        let got = mvcc_write_path_replay(&program, &trace, kind);
        let want: Vec<&MvccGolden> = goldens.iter().filter(|g| g.policy == kind).collect();
        assert_eq!(got.len(), want.len(), "{kind}: segment count drifted");
        for (g, w) in got.iter().zip(&want) {
            // Version bookkeeping is policy-independent: epoch, access
            // count, and stash depth are exact for every policy.
            assert_eq!(g.seg, w.seg, "{kind}");
            assert_eq!(g.epoch, w.epoch, "{kind} seg {}: epoch drifted", g.seg);
            assert_eq!(
                g.accesses, w.accesses,
                "{kind} seg {}: access count drifted",
                g.seg
            );
            assert_eq!(
                g.stash, w.stash,
                "{kind} seg {}: stash depth drifted",
                g.seg
            );
            if kind == PolicyKind::Lru {
                // Frozen semantics: exact.
                assert_eq!(g.hits, w.hits, "{kind} seg {}: hits drifted", g.seg);
                assert_eq!(
                    g.evictions, w.evictions,
                    "{kind} seg {}: evictions drifted",
                    g.seg
                );
            } else {
                let got_rate = g.hits as f64 / g.accesses as f64;
                let want_rate = w.hits as f64 / w.accesses as f64;
                assert!(
                    (got_rate - want_rate).abs() <= TUNABLE_WINDOW,
                    "{kind} seg {}: hit rate {got_rate:.4} outside golden {want_rate:.4} \
                     ± {TUNABLE_WINDOW} (update the golden if the tuning change is intended)",
                    g.seg
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Indexed candidate selection
// ---------------------------------------------------------------------------

/// One indexed-run golden line: the whole counter picture of a live
/// best-first run through a `FirstArg` store at half working-set
/// capacity. Unlike the replay goldens above, the *access stream itself*
/// is what's under test here — it is produced by indexed candidate
/// selection, so an index bug shows up as a drifted access or
/// index-counter line before any hit-rate wobble.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct IndexedGolden {
    policy: PolicyKind,
    accesses: u64,
    hits: u64,
    evictions: u64,
    index_hits: u64,
    index_prunes: u64,
    candidates_scanned: u64,
    solutions: usize,
}

/// Untrained best-first run of the family workload's first query through
/// a paged store under `policy` and `index`, at half the working set.
fn indexed_family_run(program: &Program, policy: PolicyKind, index: IndexPolicy) -> IndexedGolden {
    let total_tracks = (program.db.len() as u32).div_ceil(BLOCKS_PER_TRACK) as usize;
    let cfg = paged_config(
        policy,
        (total_tracks / 2).max(1),
        BLOCKS_PER_TRACK,
        program.db.len(),
    )
    .with_index(index);
    let store = paged_store(program, cfg);
    let weights = WeightStore::new(WeightParams::default());
    let mut local = HashMap::new();
    let mut view = WeightView::new(&mut local, &weights);
    let r = best_first_with(
        &store.begin_read(),
        &program.queries[0],
        &mut view,
        &BestFirstConfig::default(),
    );
    let s = store.stats();
    IndexedGolden {
        policy,
        accesses: s.accesses,
        hits: s.hits,
        evictions: s.evictions,
        index_hits: s.index_hits,
        index_prunes: s.index_prunes,
        candidates_scanned: s.candidates_scanned,
        solutions: r.solutions.len(),
    }
}

fn indexed_golden_line(g: &IndexedGolden) -> String {
    format!(
        "{} accesses={} hits={} evictions={} index_hits={} index_prunes={} scanned={} solutions={}",
        g.policy.name(),
        g.accesses,
        g.hits,
        g.evictions,
        g.index_hits,
        g.index_prunes,
        g.candidates_scanned,
        g.solutions
    )
}

fn parse_indexed_golden(line: &str) -> IndexedGolden {
    let mut parts = line.split_whitespace();
    let policy = PolicyKind::parse(parts.next().unwrap()).unwrap();
    let mut field = |name: &str| -> u64 {
        let kv = parts
            .next()
            .unwrap_or_else(|| panic!("missing {name}: {line}"));
        kv.strip_prefix(name)
            .and_then(|v| v.strip_prefix('='))
            .unwrap_or_else(|| panic!("bad field {kv}, wanted {name}: {line}"))
            .parse()
            .unwrap()
    };
    IndexedGolden {
        policy,
        accesses: field("accesses"),
        hits: field("hits"),
        evictions: field("evictions"),
        index_hits: field("index_hits"),
        index_prunes: field("index_prunes"),
        candidates_scanned: field("scanned"),
        solutions: field("solutions") as usize,
    }
}

#[test]
fn family_indexed_run_replays_against_goldens() {
    let program = family_workload();
    let path = fixture_path("family_indexed.golden");
    if std::env::var_os("REGEN_TRACE_FIXTURES").is_some() {
        let mut out = String::new();
        out.push_str("# Indexed-run goldens: untrained best-first on the family\n");
        out.push_str("# workload (generations=4, branching=3, seed=7) through a\n");
        out.push_str("# FirstArg paged store at half the working set. The access\n");
        out.push_str("# stream is index-determined, so accesses and the index\n");
        out.push_str(&format!(
            "# counters are exact for every policy. clauses: {}\n",
            program.db.len()
        ));
        for kind in PolicyKind::ALL {
            out.push_str(&indexed_golden_line(&indexed_family_run(
                &program,
                kind,
                IndexPolicy::FirstArg,
            )));
            out.push('\n');
        }
        fs::write(&path, out).unwrap();
        eprintln!("regenerated {}", path.display());
    }
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with REGEN_TRACE_FIXTURES=1",
            path.display()
        )
    });
    let goldens: Vec<IndexedGolden> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(parse_indexed_golden)
        .collect();
    assert_eq!(goldens.len(), PolicyKind::ALL.len());

    let baseline = indexed_family_run(&program, PolicyKind::Lru, IndexPolicy::None);
    for w in &goldens {
        let g = indexed_family_run(&program, w.policy, IndexPolicy::FirstArg);

        // The candidate stream is determined by the index, not the
        // replacement policy: the engine-work picture is exact for every
        // policy, and it must show the index actually pruning.
        assert_eq!(g.accesses, w.accesses, "{}: access count drifted", w.policy);
        assert_eq!(
            g.index_hits, w.index_hits,
            "{}: index_hits drifted",
            w.policy
        );
        assert_eq!(
            g.index_prunes, w.index_prunes,
            "{}: index_prunes drifted",
            w.policy
        );
        assert_eq!(
            g.candidates_scanned, w.candidates_scanned,
            "{}: candidates_scanned drifted",
            w.policy
        );
        assert!(g.index_prunes > 0, "{}: index never pruned", w.policy);
        assert!(
            g.accesses < baseline.accesses,
            "{}: indexed run touched no fewer clauses than baseline ({} >= {})",
            w.policy,
            g.accesses,
            baseline.accesses
        );
        // Index transparency at the answer level, per policy.
        assert_eq!(
            g.solutions, baseline.solutions,
            "{}: solution count diverged from the unindexed run",
            w.policy
        );
        assert_eq!(
            g.solutions, w.solutions,
            "{}: solution count drifted",
            w.policy
        );

        if w.policy == PolicyKind::Lru {
            // Frozen semantics: exact.
            assert_eq!(g.hits, w.hits, "{}: hits drifted", w.policy);
            assert_eq!(g.evictions, w.evictions, "{}: evictions drifted", w.policy);
        } else {
            let got_rate = g.hits as f64 / g.accesses as f64;
            let want_rate = w.hits as f64 / w.accesses as f64;
            assert!(
                (got_rate - want_rate).abs() <= TUNABLE_WINDOW,
                "{}: hit rate {got_rate:.4} outside golden {want_rate:.4} ± {TUNABLE_WINDOW} \
                 (update the golden if the tuning change is intended)",
                w.policy
            );
        }
    }
}

#[test]
fn queens_two_q_never_loses_to_lru() {
    // The ISSUE's companion claim to the family dominance test: on
    // workloads where scan resistance cannot help, 2Q must at least
    // never lose.
    let program = queens_workload();
    let trace = load_or_regen("queens_access.trace", "queens workload (n=5)", &program);
    let total_tracks = (program.db.len() as u32).div_ceil(BLOCKS_PER_TRACK) as usize;
    for capacity in [
        1,
        total_tracks / 4,
        total_tracks / 2,
        3 * total_tracks / 4,
        total_tracks,
    ] {
        let capacity = capacity.max(1);
        let (lru, _) = replay(&program, &trace, PolicyKind::Lru, capacity);
        let (twoq, _) = replay(&program, &trace, PolicyKind::TwoQ, capacity);
        assert!(
            twoq >= lru,
            "2Q lost to LRU at capacity {capacity}: {twoq} < {lru}"
        );
    }
}
