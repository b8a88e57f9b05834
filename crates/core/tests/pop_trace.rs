//! Golden pop traces for the sequential best-first engine.
//!
//! Every case runs `best_first` twice on one weight overlay (cold, then
//! warm on whatever the first run learned) and records, per run, the arc
//! of every chain popped from the frontier in pop order, the solutions
//! with their bounds, `SearchStats`, `BlogStats` and the learned overlay.
//! The fixture pins the exact search order across commits: a change to
//! the engine loop that reorders one pop, moves one counter or learns one
//! weight differently fails here.
//!
//! Cases: the family, 4-queens and `p(deep)/p(shallow)` programs × all
//! four `BoundPolicy` values × learning on and off × pruning off and
//! `PruneMode::Incumbent`.
//!
//! Regenerate (only for an intended change of search order) with:
//! `REGEN_TRACE_FIXTURES=1 cargo test -p blog-core --test pop_trace`

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use blog_core::engine::{best_first, BestFirstConfig, BlogResult, BoundPolicy, PruneMode};
use blog_core::weight::{Weight, WeightParams, WeightStore, WeightView};
use blog_logic::{parse_program, Caller, PointerKey, Program};

const FAMILY: &str = "
    gf(X,Z) :- f(X,Y), f(Y,Z).
    gf(X,Z) :- f(X,Y), m(Y,Z).
    f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
    f(pat,john). f(larry,doug).
    m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
    ?- gf(sam,G).
";

const DEEP_SHALLOW: &str = "
    p(deep) :- q, q, q, r.
    p(shallow).
    q. r.
    ?- p(X).
";

/// 4-queens in the dom/ok encoding.
fn queens4() -> String {
    let mut s = String::new();
    for c in 1..=4 {
        s.push_str(&format!("dom({c}).\n"));
    }
    for d in 1..4i64 {
        for c1 in 1..=4i64 {
            for c2 in 1..=4i64 {
                let dc = c1 - c2;
                if dc != 0 && dc.abs() != d {
                    s.push_str(&format!("ok({d},{c1},{c2}).\n"));
                }
            }
        }
    }
    s.push_str(
        "q(Q1,Q2,Q3,Q4) :- dom(Q1), dom(Q2), ok(1,Q1,Q2), dom(Q3), \
         ok(2,Q1,Q3), ok(1,Q2,Q3), dom(Q4), ok(3,Q1,Q4), ok(2,Q2,Q4), \
         ok(1,Q3,Q4).\n?- q(Q1,Q2,Q3,Q4).\n",
    );
    s
}

fn key_text(k: &PointerKey) -> String {
    match k.caller {
        Caller::Query => format!("q.{}>{}", k.goal_idx, k.target.0),
        Caller::Clause(c) => format!("{}.{}>{}", c.0, k.goal_idx, k.target.0),
    }
}

fn run_text(
    out: &mut String,
    p: &Program,
    r: &BlogResult,
    local: &HashMap<PointerKey, blog_core::WeightState>,
) {
    let trace: Vec<String> = r.trace.iter().map(key_text).collect();
    writeln!(out, "  trace {}: {}", trace.len(), trace.join(" ")).unwrap();
    for s in &r.solutions {
        writeln!(
            out,
            "  solution {} bound={} depth={}",
            s.solution.to_text(&p.db),
            s.bound.0,
            s.solution.depth
        )
        .unwrap();
    }
    writeln!(out, "  {:?}", r.stats).unwrap();
    writeln!(out, "  {:?}", r.blog).unwrap();
    let mut learned: Vec<_> = local.iter().collect();
    learned.sort_by_key(|(k, _)| **k);
    let learned: Vec<String> = learned
        .into_iter()
        .map(|(k, v)| format!("{}={v:?}", key_text(k)))
        .collect();
    writeln!(out, "  learned {}: {}", learned.len(), learned.join(" ")).unwrap();
}

/// Every case, rendered.
fn render() -> String {
    let programs = [
        ("family", FAMILY.to_owned()),
        ("queens4", queens4()),
        ("deep_shallow", DEEP_SHALLOW.to_owned()),
    ];
    let mut out = String::new();
    for (name, src) in &programs {
        let p = parse_program(src).expect("fixture program parses");
        for policy in [
            BoundPolicy::Weights,
            BoundPolicy::Uniform,
            BoundPolicy::Lifo,
            BoundPolicy::Fifo,
        ] {
            for learn in [true, false] {
                for prune in [
                    PruneMode::None,
                    PruneMode::Incumbent {
                        slack: Weight::from_bits_int(2),
                    },
                ] {
                    writeln!(out, "case {name} {policy:?} learn={learn} {prune:?}").unwrap();
                    let cfg = BestFirstConfig {
                        bound_policy: policy,
                        learn,
                        prune,
                        record_trace: true,
                        ..BestFirstConfig::default()
                    };
                    let global = WeightStore::new(WeightParams::default());
                    let mut local = HashMap::new();
                    for pass in ["cold", "warm"] {
                        let r = {
                            let mut view = WeightView::new(&mut local, &global);
                            best_first(&p.db, &p.queries[0], &mut view, &cfg)
                        };
                        writeln!(out, " {pass}").unwrap();
                        run_text(&mut out, &p, &r, &local);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn best_first_pop_traces_match_the_golden_fixture() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/best_first_pop.golden");
    let got = render();
    if std::env::var_os("REGEN_TRACE_FIXTURES").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with REGEN_TRACE_FIXTURES=1",
            path.display()
        )
    });
    // Compare line by line so a drift names its case instead of dumping
    // the whole fixture.
    let mut case = "";
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if w.starts_with("case ") {
            case = w;
        }
        assert_eq!(g, w, "line {}: {case} drifted", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "case count drifted"
    );
}
