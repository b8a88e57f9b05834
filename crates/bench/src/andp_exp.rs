//! T8: AND-parallelism — fork-join on independent goals, semi-join on
//! shared variables. Both run their factor searches on the OR-parallel
//! executor at two workers; the counts they report do not depend on the
//! worker count.

use blog_core::weight::{WeightParams, WeightStore};
use blog_logic::{dfs_all, parse_program, SolveConfig};
use blog_parallel::{and_parallel_solve, semijoin_conjunction, ParallelConfig, SemiJoinStats};

use crate::report::Table;

/// The AND-parallel solvers' configuration: two workers, every solution.
fn and_config() -> ParallelConfig {
    ParallelConfig {
        n_workers: 2,
        ..ParallelConfig::default()
    }
}

/// One fork-join measurement: `(k facts per goal, sequential nodes,
/// fork-join nodes, solutions)`.
pub fn run_t8_forkjoin() -> Vec<(usize, u64, u64, usize)> {
    let mut rows = Vec::new();
    println!("T8a — fork-join on independent conjunctions (a(X), b(Y), c(Z)):");
    let mut t = Table::new(&["k", "seq nodes", "fork-join nodes", "solutions", "ratio"]);
    for k in [5usize, 10, 20] {
        let mut src = String::new();
        for i in 0..k {
            src.push_str(&format!("a({i}). b({i}). c({i}).\n"));
        }
        src.push_str("?- a(X), b(Y), c(Z).\n");
        let p = parse_program(&src).expect("generated program parses");
        let seq = dfs_all(&p.db, &p.queries[0], &SolveConfig::all());
        let weights = WeightStore::new(WeightParams::default());
        let par = and_parallel_solve(&p.db, &p.queries[0], &weights, &and_config())
            .expect("a clause database never faults");
        assert_eq!(seq.solutions.len(), par.solutions.len());
        t.row(vec![
            k.to_string(),
            seq.stats.nodes_expanded.to_string(),
            par.stats.nodes_expanded.to_string(),
            par.solutions.len().to_string(),
            format!(
                "{:.1}x",
                seq.stats.nodes_expanded as f64 / par.stats.nodes_expanded.max(1) as f64
            ),
        ]);
        rows.push((
            k,
            seq.stats.nodes_expanded,
            par.stats.nodes_expanded,
            par.solutions.len(),
        ));
    }
    t.print();
    println!(
        "expected shape: sequential resolution re-solves inner goals per outer\n\
         answer (O(k^3) work); fork-join solves each goal once (O(k)) + join.\n"
    );
    rows
}

/// One semi-join measurement.
pub fn run_t8_semijoin() -> Vec<(usize, SemiJoinStats)> {
    let mut rows = Vec::new();
    println!("T8b — semi-join vs naive nested evaluation (emp ⋈ mgr):");
    let mut t = Table::new(&[
        "employees",
        "departments",
        "producer rows",
        "distinct keys",
        "consumer evals (semi-join)",
        "consumer evals (naive)",
    ]);
    for (emps, depts) in [(20usize, 4usize), (50, 5), (100, 10)] {
        let mut src = String::new();
        for i in 0..emps {
            src.push_str(&format!("emp(e{i}, dept{}).\n", i % depts));
        }
        for d in 0..depts {
            src.push_str(&format!("mgr(dept{d}, boss{d}).\n"));
        }
        src.push_str("?- emp(E, D), mgr(D, M).\n");
        let p = parse_program(&src).expect("generated program parses");
        let weights = WeightStore::new(WeightParams::default());
        let (r, sj) = semijoin_conjunction(&p.db, &p.queries[0], &weights, &and_config())
            .expect("a clause database never faults");
        assert_eq!(r.solutions.len(), emps);
        t.row(vec![
            emps.to_string(),
            depts.to_string(),
            sj.producer_solutions.to_string(),
            sj.distinct_keys.to_string(),
            sj.consumer_evaluations.to_string(),
            sj.producer_solutions.to_string(),
        ]);
        rows.push((emps, sj));
    }
    t.print();
    println!(
        "paper: \"a highly efficient semi-join algorithm can use the marking\n\
         capabilities of the SPD's\" — consumer work scales with distinct keys,\n\
         not producer rows.\n"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forkjoin_ratio_grows_with_k() {
        let rows = run_t8_forkjoin();
        let ratio = |i: usize| rows[i].1 as f64 / rows[i].2.max(1) as f64;
        assert!(ratio(2) > ratio(0), "ratio should grow with k");
        assert!(ratio(2) > 10.0, "k=20 ratio {} too small", ratio(2));
    }

    #[test]
    fn semijoin_keys_equal_departments() {
        let rows = run_t8_semijoin();
        for (emps, sj) in rows {
            assert_eq!(sj.producer_solutions, emps);
            assert!(sj.consumer_evaluations < emps);
        }
    }
}
