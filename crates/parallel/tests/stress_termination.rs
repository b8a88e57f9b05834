//! Termination stress for the worker-owned heaps and their exchange: many
//! workers, many iterations, tiny node budgets (aborting mid-flight with
//! chains still queued), and `max_solutions` early exits.
//! Any lost wakeup or missed termination shows up as a hang, which the
//! per-iteration watchdog converts into a test failure; any accounting
//! slip shows up as `per_worker_expanded` not summing to `nodes_expanded`.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use blog_core::weight::{WeightParams, WeightStore};
use blog_logic::{parse_program, Program, SolveConfig};
use blog_parallel::{par_best_first, FrontierPolicy, ParallelConfig};

/// A cyclic graph program whose OR-tree is infinite: every run must end
/// by budget or early exit, never by exhaustion — the adversarial case
/// for termination detection.
fn cyclic_program() -> Arc<Program> {
    Arc::new(
        parse_program(
            "
        edge(a,b). edge(b,c). edge(c,a). edge(b,a).
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- edge(X,Y), path(Y,Z).
        ?- path(a,c).
    ",
        )
        .unwrap(),
    )
}

/// Run one configuration under a watchdog; panics (failing the test) if
/// the run deadlocks. The search runs on a *detached* thread — a scoped
/// thread would block the panic in the join on exactly the hang this
/// suite exists to catch. On timeout the stuck thread is leaked, which
/// is fine: the test still fails loudly instead of hanging the suite.
fn run_with_watchdog(p: &Arc<Program>, cfg: ParallelConfig, timeout: Duration, what: &str) {
    let (tx, rx) = mpsc::channel();
    let p = Arc::clone(p);
    let n_workers = cfg.n_workers;
    std::thread::spawn(move || {
        let weights = WeightStore::new(WeightParams::default());
        let r = par_best_first(&p.db, &p.queries[0], &weights, &cfg);
        // The accounting invariant must hold on every exit path,
        // including aborts: each expansion belongs to one worker.
        assert_eq!(
            r.per_worker_expanded.iter().sum::<u64>(),
            r.stats.nodes_expanded,
            "accounting"
        );
        assert_eq!(r.per_worker_expanded.len(), n_workers);
        let _ = tx.send(());
    });
    rx.recv_timeout(timeout)
        .unwrap_or_else(|_| panic!("deadlock: {what} did not terminate"));
}

#[test]
fn sharded_termination_survives_budget_aborts_and_early_exits() {
    let p = cyclic_program();
    let iterations = 200;
    for i in 0..iterations {
        // Vary budget and D so aborts land at different points of the
        // donate/acquire/wait protocol every iteration.
        let budget = 20 + (i % 37) as u64 * 3;
        let cfg = ParallelConfig {
            n_workers: 8,
            policy: FrontierPolicy::Sharded {
                d: (i % 5) as u64 * 64,
            },
            learn: false,
            solve: SolveConfig {
                max_nodes: Some(budget),
                ..SolveConfig::all()
            },
            ..ParallelConfig::default()
        };
        run_with_watchdog(
            &p,
            cfg,
            Duration::from_secs(10),
            &format!("budget-abort iteration {i}"),
        );
    }
}

#[test]
fn sharded_termination_survives_max_solutions_exits() {
    let p = cyclic_program();
    for i in 0..200 {
        let cfg = ParallelConfig {
            n_workers: 8,
            policy: FrontierPolicy::Sharded { d: 128 },
            learn: false,
            solve: SolveConfig {
                max_solutions: Some(1 + i % 3),
                // Safety net so a scheduling pathology can't run away.
                max_nodes: Some(200_000),
                ..SolveConfig::all()
            },
            ..ParallelConfig::default()
        };
        run_with_watchdog(
            &p,
            cfg,
            Duration::from_secs(10),
            &format!("max-solutions iteration {i}"),
        );
    }
}

#[test]
fn max_solutions_cap_holds_under_contention() {
    // 30³ solutions; every `c/1` expansion sprouts 30 solution chains at
    // once, so workers still holding solution chains race to close them
    // after another met the cap. A response must never carry more
    // answers than the request asked for.
    let mut src = String::new();
    for pred in ["a", "b", "c"] {
        for i in 0..30 {
            src.push_str(&format!("{pred}(k{i}).\n"));
        }
    }
    src.push_str("p(X,Y,Z) :- a(X), b(Y), c(Z).\n?- p(X,Y,Z).\n");
    let p = parse_program(&src).unwrap();
    let weights = WeightStore::new(WeightParams::default());
    for n_workers in [2, 8] {
        for i in 0..100 {
            let cfg = ParallelConfig {
                n_workers,
                learn: false,
                solve: SolveConfig {
                    max_solutions: Some(3),
                    ..SolveConfig::all()
                },
                ..ParallelConfig::default()
            };
            let r = par_best_first(&p.db, &p.queries[0], &weights, &cfg);
            assert_eq!(
                r.solutions.len(),
                3,
                "{n_workers} workers, run {i}: the cap is 3"
            );
            assert_eq!(r.stats.solutions, 3, "{n_workers} workers, run {i}");
        }
    }
}
