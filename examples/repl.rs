//! An interactive B-LOG top level.
//!
//! Loads a program (a file path argument, or the paper's figure-1 family
//! example by default) and answers queries best-first with session weight
//! learning, exactly as the B-LOG machine would:
//!
//! ```text
//! cargo run --example repl [program.pl]
//! ?- gf(sam, G).
//! G = den    (bound 51.000, 5 nodes)
//! G = doug   (bound 51.000, 0 nodes)
//! ?- :stats
//! ?- :end            % end the session (conservative merge)
//! ?- :quit
//! ```

use std::io::{BufRead, Write};

use b_log::core::engine::{BestFirstConfig, PruneMode};
use b_log::core::session::{MergePolicy, SessionManager};
use b_log::core::weight::{Weight, WeightParams};
use b_log::logic::{parse_program, parse_query};
use b_log::workloads::PAPER_FIGURE_1;

fn main() {
    let source = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => PAPER_FIGURE_1.to_string(),
    };
    let mut program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("program error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "B-LOG top level — {} clauses loaded. Queries end with '.', commands: \
         :stats :end :quit",
        program.db.len()
    );

    let mut mgr = SessionManager::new(WeightParams::default());
    let mut session = mgr.begin_session();
    let cfg = BestFirstConfig {
        prune: PruneMode::Incumbent {
            slack: Weight::from_bits_int(48),
        },
        ..BestFirstConfig::default()
    };

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("?- ");
        out.flush().expect("stdout flush");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        match line {
            "" => continue,
            ":quit" | ":q" => break,
            ":stats" => {
                let census = mgr.global().census();
                println!(
                    "session: {} queries, {} local weights; global: {} known, {} infinite",
                    session.queries_run,
                    session.local.len(),
                    census.known,
                    census.infinite
                );
                continue;
            }
            ":end" => {
                let finished = std::mem::replace(&mut session, mgr.begin_session());
                let report = mgr.end_session(finished, MergePolicy::conservative_half());
                println!(
                    "session merged: {} stepped, {} infinities set, {} blocked, {} cleared",
                    report.stepped,
                    report.infinities_set,
                    report.infinities_blocked,
                    report.infinities_cleared
                );
                continue;
            }
            _ => {}
        }
        let query = match parse_query(&mut program.db, line) {
            Ok(q) => q,
            Err(e) => {
                println!("syntax error: {e}");
                continue;
            }
        };
        // Rebuild pointers in case the query introduced new symbols for
        // predicates that exist (cheap; idempotent).
        program.db.build_pointers();
        let result = mgr.query(&mut session, &program.db, &query, &cfg);
        if result.solutions.is_empty() {
            println!("no.");
        } else {
            for s in &result.solutions {
                println!(
                    "{}    (bound {}, depth {})",
                    s.solution.to_text(&program.db),
                    s.bound,
                    s.solution.depth
                );
            }
        }
        println!(
            "[{} nodes expanded, {} unifications, {} pruned]",
            result.stats.nodes_expanded, result.stats.unify_attempts, result.blog.pruned
        );
    }
    println!("bye.");
}
