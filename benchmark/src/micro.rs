//! Micro measurements the replay's spans cannot see: one unification,
//! one registry update, one timer read — and the OR-parallel executor
//! driven directly, without the server around it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use blog_core::engine::{best_first_with, BestFirstConfig};
use blog_core::weight::{WeightParams, WeightStore, WeightView};
use blog_logic::{parse_program, parse_query_symbols, unify, Bindings, ClauseDb, Term, Trail};
use blog_obs::Registry;
use blog_parallel::{par_best_first_with, ParallelConfig};
use blog_serve::ExecMode;
use blog_spd::MvccClauseStore;

use crate::gen::Workload;
use crate::stats::{median, ratio};

/// How long each micro loop runs.
const MICRO: Duration = Duration::from_millis(60);

/// Mean nanoseconds per call of `f`, over batches until [`MICRO`] has
/// passed; the median batch is reported so one preemption does not count.
fn ns_per_call(batch: u64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut batches = Vec::new();
    while started.elapsed() < MICRO || batches.len() < 3 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        batches.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&batches)
}

/// Cost of one `Instant::now()` + `elapsed()` pair, ns — what every timed
/// store call in the replay pays.
pub fn timer_overhead_ns() -> f64 {
    ns_per_call(10_000, || {
        let t = Instant::now();
        black_box(t.elapsed());
    })
}

/// `Counter::inc` on a registered counter, ns.
pub fn counter_inc_ns() -> f64 {
    let registry = Registry::new();
    let counter = registry.counter("bench.micro");
    ns_per_call(10_000, || counter.inc())
}

/// `Histogram::record` on a registered histogram, ns.
pub fn histogram_record_ns() -> f64 {
    let registry = Registry::new();
    let histogram = registry.histogram("bench.micro");
    let mut v = 1u64;
    ns_per_call(10_000, || {
        // Walk the buckets instead of hammering one.
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        histogram.record(v >> 44);
    })
}

/// Head/goal pairs harvested from the base: every body goal of every rule
/// against the heads of (up to eight of) the clauses that could resolve
/// it, renamed apart the way resolution renames them.
fn unify_pairs(db: &ClauseDb) -> Vec<(Term, Term, usize)> {
    let mut pairs = Vec::new();
    for rule in db.clauses().iter().filter(|c| !c.body.is_empty()) {
        for goal in &rule.body {
            let Some(pred) = goal.functor() else { continue };
            for &cid in db.resolvers(pred).iter().take(8) {
                let head = db.clause(cid);
                pairs.push((
                    goal.clone(),
                    head.head.offset_vars(rule.n_vars),
                    (rule.n_vars + head.n_vars) as usize,
                ));
                if pairs.len() == 4096 {
                    return pairs;
                }
            }
        }
    }
    pairs
}

/// One `unify` of a harvested pair (and the undo of its bindings), ns.
pub fn unify_ns_per_call(db: &ClauseDb) -> f64 {
    let pairs = unify_pairs(db);
    if pairs.is_empty() {
        return 0.0;
    }
    let slots = pairs.iter().map(|p| p.2).max().unwrap_or(0);
    let mut bindings = Bindings::new();
    bindings.ensure(slots);
    let mut trail = Trail::new();
    let mut next = 0;
    ns_per_call(pairs.len() as u64, || {
        let (goal, head, _) = &pairs[next];
        next = (next + 1) % pairs.len();
        let mark = trail.mark();
        black_box(unify(&mut bindings, &mut trail, goal, head, false));
        bindings.undo_to(&mut trail, mark);
    })
}

/// The OR-parallel executor on the workload's distinct queries, against
/// the sequential engine on the same snapshot.
#[derive(Default, Debug, Clone, Copy)]
pub struct ParallelProfile {
    /// Sequential wall time over two-worker wall time.
    pub speedup_2w: f64,
    /// One-worker executor wall time over sequential wall time.
    pub seq_ratio_1w: f64,
    pub ns_per_node_2w: f64,
    pub shard_locks_per_node: f64,
    /// Chains taken from the other worker's pool, as a share of all taken.
    pub steal_share: f64,
    pub dives_per_node: f64,
    pub spurious_wakeups_per_req: f64,
    /// How much more than its fair share the busiest worker expanded:
    /// 0 = even, 1 = one of two workers did everything.
    pub worker_imbalance: f64,
}

/// Run every distinct query of `w` through `best_first_with`, the
/// one-worker executor and the two-worker executor, `rounds` times each,
/// interleaved; times are the median round's.
pub fn parallel_profile(w: &Workload, rounds: usize) -> ParallelProfile {
    let ExecMode::OrParallel { policy, .. } = w.serve.exec else {
        return ParallelProfile::default();
    };
    let program = parse_program(&w.program_text).expect("generated base parses");
    let store_config = w.store_config(program.db.len()).with_index(w.serve.index);
    let store = MvccClauseStore::new(&program.db, store_config, w.serve.commit);
    let weights = WeightStore::new(WeightParams::default());
    let snap = store.begin_read().for_pool(0);
    let queries: Vec<_> = w
        .queries
        .iter()
        .map(|q| parse_query_symbols(snap.symbols(), &q.text).expect("generated queries parse"))
        .collect();
    let seq_cfg = BestFirstConfig {
        solve: w.serve.solve.clone(),
        learn: false,
        ..BestFirstConfig::default()
    };
    let par_cfg = |n_workers| ParallelConfig {
        n_workers,
        policy,
        solve: w.serve.solve.clone(),
        learn: false,
        ..ParallelConfig::default()
    };
    let (one, two) = (par_cfg(1), par_cfg(2));

    let (mut t_seq, mut t_1w, mut t_2w) = (Vec::new(), Vec::new(), Vec::new());
    let mut p = ParallelProfile::default();
    let (mut nodes, mut locks, mut steals, mut taken, mut dives, mut spurious) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut busiest, mut fair) = (0u64, 0.0f64);
    for _ in 0..rounds {
        let t = Instant::now();
        for q in &queries {
            let mut overlay = HashMap::new();
            let mut view = WeightView::new(&mut overlay, &weights);
            black_box(best_first_with(&snap, q, &mut view, &seq_cfg));
        }
        t_seq.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for q in &queries {
            black_box(par_best_first_with(&snap, q, &weights, &one));
        }
        t_1w.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for q in &queries {
            let r = par_best_first_with(&snap, q, &weights, &two);
            nodes += r.stats.nodes_expanded;
            locks += r.counters.shard_locks;
            steals += r.counters.steals;
            taken += r.counters.steals + r.counters.local;
            dives += r.counters.dives;
            spurious += r.counters.spurious_wakeups;
            busiest += r.per_worker_expanded.iter().copied().max().unwrap_or(0);
            fair += r.stats.nodes_expanded as f64 / two.n_workers as f64;
        }
        t_2w.push(t.elapsed().as_secs_f64());
    }
    let requests = (rounds * queries.len()) as f64;
    let per = |x: u64, of: u64| ratio(x as f64, of as f64);
    p.speedup_2w = median(&t_seq) / median(&t_2w);
    p.seq_ratio_1w = median(&t_1w) / median(&t_seq);
    p.ns_per_node_2w = median(&t_2w) * 1e9 * rounds as f64 / nodes.max(1) as f64;
    p.shard_locks_per_node = per(locks, nodes);
    p.steal_share = per(steals, taken);
    p.dives_per_node = per(dives, nodes);
    p.spurious_wakeups_per_req = spurious as f64 / requests;
    p.worker_imbalance = if fair == 0.0 {
        0.0
    } else {
        busiest as f64 / fair - 1.0
    };
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Kind;

    #[test]
    fn micro_loops_return_plausible_costs() {
        for (name, ns) in [
            ("timer", timer_overhead_ns()),
            ("counter", counter_inc_ns()),
            ("histogram", histogram_record_ns()),
        ] {
            assert!(ns > 0.0 && ns < 100_000.0, "{name}: {ns} ns");
        }
    }

    #[test]
    fn unify_pairs_are_harvested_from_rules() {
        let w = Workload::generate(Kind::SearchSeq, 1, true);
        let db = parse_program(&w.program_text).unwrap().db;
        let pairs = unify_pairs(&db);
        assert!(pairs.len() > 20, "{} pairs", pairs.len());
        // Renamed apart: the head's variables start above the rule's.
        assert!(pairs.iter().all(|(_, _, slots)| *slots < 64));
        assert!(unify_ns_per_call(&db) > 0.0);
    }

    #[test]
    fn parallel_profile_only_runs_on_the_parallel_workload() {
        let seq = Workload::generate(Kind::SearchSeq, 1, true);
        assert_eq!(parallel_profile(&seq, 1).speedup_2w, 0.0);
        let par = Workload::generate(Kind::SearchPar, 1, true);
        let p = parallel_profile(&par, 1);
        assert!(p.speedup_2w > 0.0 && p.seq_ratio_1w > 0.0 && p.ns_per_node_2w > 0.0);
        assert!((0.0..=1.0).contains(&p.steal_share));
        assert!(
            (-1e-9..=1.0 + 1e-9).contains(&p.worker_imbalance),
            "{}",
            p.worker_imbalance
        );
    }
}
