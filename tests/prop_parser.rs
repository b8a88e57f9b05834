//! Property tests for the parser/pretty-printer pair: rendered terms
//! re-parse to the same structure, parsing is total on generated
//! program text, and reading a query against a frozen symbol table
//! agrees with reading it into a copy of the database.

use b_log::logic::pretty::term_to_string;
use b_log::logic::{
    parse_program, parse_query, parse_query_symbols, ClauseId, ParseError, Program, Query, Term,
};
use proptest::prelude::*;

/// Strategy: a random ground term as source text (atoms, ints, compound
/// terms, lists).
fn arb_ground_term_text() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        "[a-d][a-d0-9_]{0,5}".prop_map(|s| s),
        (-99i64..100).prop_map(|n| n.to_string()),
        pick(QUOTED).prop_map(str::to_owned),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            // f(args...), the functor bare or quoted
            (
                prop_oneof!["[f-h]", pick(QUOTED).prop_map(str::to_owned)],
                prop::collection::vec(inner.clone(), 1..4)
            )
                .prop_map(|(f, args)| format!("{f}({})", args.join(","))),
            // [items...]
            prop::collection::vec(inner, 0..4).prop_map(|items| format!("[{}]", items.join(","))),
        ]
    })
}

/// Quoted atoms whose bare spelling would read as something else (a
/// variable, two arguments, a syntax error), or not at all.
const QUOTED: &[&str] = &[
    "'_0'",
    "'a,b'",
    "'Café'",
    "'Sam Smith'",
    "'[]'",
    "'.'",
    "'%'",
    "''",
];

/// Strategy: one of `items`.
fn pick(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// Strategy: a query text over a vocabulary that [`DIFF_PROGRAMS`]
/// partly defines — known and unknown names, quoted atoms, integers,
/// variables (`_` included), lists and odd whitespace — sometimes cut
/// short or with junk after it, so syntax errors are generated too.
fn arb_query_text() -> impl Strategy<Value = String> {
    const LEAVES: &[&str] = &[
        "a", "b", "zebra", "'Café'", "'_0'", "'a,b'", "'Yak'", "[]", "X", "Y", "_", "_T", "-3",
        "0", "42",
    ];
    const FUNCTORS: &[&str] = &["f", "g", "h", "'a,b'", "'Café'"];
    const SPACE: &[&str] = &["", " ", "  ", "\n\t", " % note\n"];
    let term = pick(LEAVES)
        .prop_map(str::to_owned)
        .prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                (
                    pick(FUNCTORS),
                    prop::collection::vec(inner.clone(), 1..4),
                    pick(SPACE)
                )
                    .prop_map(|(f, args, ws)| format!("{f}({})", args.join(&format!(",{ws}")))),
                prop::collection::vec(inner.clone(), 0..3)
                    .prop_map(|items| format!("[{}]", items.join(", "))),
                (prop::collection::vec(inner.clone(), 1..3), inner)
                    .prop_map(|(items, tail)| format!("[{} | {tail}]", items.join(","))),
            ]
        });
    let goals = (prop::collection::vec(term, 1..4), pick(SPACE))
        .prop_map(|(goals, ws)| format!("{ws}{}{ws}", goals.join(&format!("{ws},{ws}"))));
    let framed = (goals, any::<bool>(), any::<bool>()).prop_map(|(body, query_dash, dot)| {
        format!(
            "{}{body}{}",
            if query_dash { "?- " } else { "" },
            if dot { "." } else { "" }
        )
    });
    (framed, 0u32..8, 0usize..64).prop_map(|(text, damage, at)| match damage {
        0 => text.chars().take(at).collect(),
        1 => format!("{text} oops"),
        _ => text,
    })
}

/// Programs the differential property reads queries against: one with
/// lists and most of the vocabulary, one without `'.'`, `[]` or `g`.
const DIFF_PROGRAMS: [&str; 2] = [
    "f(a, b). g('Café', '_0', 'a,b'). 'a,b'(x). l([a]). l([]). 'Café'(1).",
    "f(a, b). 'a,b'(x). h('_0').",
];

/// What `parse_query_symbols` should answer: the query read into a copy
/// of the database, unless that interned a name, in which case the first
/// new name in pre-order (functor before arguments) is reported. Both
/// sides share the lexer and list code, so only name resolution is
/// compared here; [`RECORDED`] pins the rest.
fn reference(program: &Program, text: &str) -> Result<Query, ParseError> {
    fn first_new<'t>(t: &'t Term, base: usize, out: &mut Option<&'t Term>) {
        match t {
            _ if out.is_some() => {}
            Term::Atom(s) if s.index() >= base => *out = Some(t),
            Term::Struct(f, _) if f.index() >= base => *out = Some(t),
            Term::Struct(_, args) => args.iter().for_each(|a| first_new(a, base, out)),
            _ => {}
        }
    }
    let mut db = program.db.clone();
    let base = db.symbols().len();
    let query = parse_query(&mut db, text)?;
    let mut new = None;
    query
        .goals
        .iter()
        .for_each(|g| first_new(g, base, &mut new));
    match new.and_then(Term::functor) {
        None => Ok(query),
        Some((sym, _)) => Err(ParseError {
            message: format!(
                "unknown symbol `{}` (not defined by the program)",
                db.symbols().name(sym)
            ),
            line: 1,
            col: 1,
        }),
    }
}

/// Programs for [`RECORDED`]: one whose only lists are `[H|T]` patterns
/// (no `[]` in its text), one with lists, integers and quoted names.
const RECORDED_PROGRAMS: [&str; 2] = [
    "member(X, [X|_]). member(X, [_|T]) :- member(X, T). item(a). item(b).",
    "f(a, b). g(c, '_0', 'a,b'). 'a,b'(x). l([a]). l([]). n(-3, 42).",
];

/// `parse_query_symbols` answers recorded with the reader that parsed
/// into a scratch database and then looked every name up: the program
/// (an index into [`RECORDED_PROGRAMS`]), the text, and the goals (see
/// [`shape`]) with `var_names`, or the error. They pin what the
/// differential property cannot, as its reference shares the reader.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const RECORDED: &[(usize, &str, Result<(&[&str], &[&str]), &str>)] = &[
    (0, "member(a, [a, b])", Ok((&["`member`(`a`, `.`(`a`, `.`(`b`, `[]`)))"], &[]))),
    (0, "?- member(X, [a | T]).", Ok((&["`member`(_0, `.`(`a`, _1))"], &["X", "T"]))),
    (0, "member(X, [])", Ok((&["`member`(_0, `[]`)"], &["X"]))),
    (0, "member(c, [a])", Err("parse error at 1:1: unknown symbol `c` (not defined by the program)")),
    (0, "item(X), member(X, [b, _])", Ok((&["`item`(_0)", "`member`(_0, `.`(`b`, `.`(_1, `[]`)))"], &["X", "_G1"]))),
    (1, "g(X, '_0', Y)", Ok((&["`g`(_0, `_0`, _1)"], &["X", "Y"]))),
    (1, "'a,b'(X), f(X, _)", Ok((&["`a,b`(_0)", "`f`(_0, _1)"], &["X", "_G1"]))),
    (1, "f(a, zebra)", Err("parse error at 1:1: unknown symbol `zebra` (not defined by the program)")),
    (1, "zebra(q)", Err("parse error at 1:1: unknown symbol `zebra` (not defined by the program)")),
    (1, "f(zebra, [yak])", Err("parse error at 1:1: unknown symbol `zebra` (not defined by the program)")),
    (1, "l([a | T]), n(-3, N)", Ok((&["`l`(`.`(`a`, _0))", "`n`(-3, _1)"], &["T", "N"]))),
    (1, "f(a, b", Err("parse error at 1:7: expected ')' closing argument list")),
    (1, "f(a, b) oops", Err("parse error at 1:9: trailing input after query")),
    (1, "f(A, B), 'a,b'(A", Err("parse error at 1:17: expected ')' closing argument list")),
    (1, "f('a,b', X)", Ok((&["`f`(`a,b`, _0)"], &["X"]))),
    (1, "f(a,b) .", Ok((&["`f`(`a`, `b`)"], &[]))),
    (0, "zebra(a", Err("parse error at 1:8: expected ')' closing argument list")),
    (0, "member(X, [a|b]), item('Yak')", Err("parse error at 1:1: unknown symbol `Yak` (not defined by the program)")),
];

/// `t` with every name in backticks and variables by number, so the
/// text does not depend on symbol handles or on how names are rendered.
fn shape(program: &Program, t: &Term) -> String {
    let name = |s| program.db.symbols().name(s);
    match t {
        Term::Var(v) => format!("_{}", v.0),
        Term::Int(n) => n.to_string(),
        Term::Atom(a) => format!("`{}`", name(*a)),
        Term::Struct(f, args) => {
            let args: Vec<String> = args.iter().map(|a| shape(program, a)).collect();
            format!("`{}`({})", name(*f), args.join(", "))
        }
    }
}

#[test]
fn frozen_table_reads_match_the_recorded_answers() {
    for &(which, text, want) in RECORDED {
        let program = parse_program(RECORDED_PROGRAMS[which]).expect("fixture parses");
        match (parse_query_symbols(program.db.symbols(), text), want) {
            (Ok(q), Ok((goals, var_names))) => {
                let got: Vec<String> = q.goals.iter().map(|g| shape(&program, g)).collect();
                assert_eq!(got, goals, "{text}");
                assert_eq!(q.var_names, var_names, "{text}");
            }
            (Err(e), Err(message)) => assert_eq!(e.to_string(), message, "{text}"),
            (got, want) => panic!("{text}: want {want:?}, got {got:?}"),
        }
    }
}

/// Strategy: a random fact database + query in source form.
fn arb_fact_program() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_ground_term_text(), 1..12).prop_map(|terms| {
        let mut src = String::new();
        for t in &terms {
            src.push_str(&format!("p({t}).\n"));
        }
        src.push_str("?- p(X).\n");
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pretty_print_reparses_to_identical_term(text in arb_ground_term_text()) {
        let src = format!("w({text}).");
        let p1 = parse_program(&src).expect("first parse");
        let t1 = match &p1.db.clause(ClauseId(0)).head {
            b_log::logic::Term::Struct(_, args) => args[0].clone(),
            other => panic!("unexpected head {other:?}"),
        };
        let rendered = term_to_string(&p1.db, &t1);
        let src2 = format!("w({rendered}).");
        let p2 = parse_program(&src2).expect("reparse of rendered term");
        let t2 = match &p2.db.clause(ClauseId(0)).head {
            b_log::logic::Term::Struct(_, args) => args[0].clone(),
            other => panic!("unexpected head {other:?}"),
        };
        // Same rendered form means structurally equal modulo symbol ids;
        // compare by re-rendering in the second database.
        prop_assert_eq!(rendered, term_to_string(&p2.db, &t2));
    }

    #[test]
    fn frozen_table_reads_agree_with_reading_into_a_copy(
        text in arb_query_text(),
        which in 0usize..2,
    ) {
        let program = parse_program(DIFF_PROGRAMS[which]).expect("fixture parses");
        let got = parse_query_symbols(program.db.symbols(), &text);
        match (reference(&program, &text), got) {
            (Ok(want), Ok(got)) => {
                prop_assert_eq!(&got.goals, &want.goals, "{:?}", text);
                prop_assert_eq!(&got.var_names, &want.var_names, "{:?}", text);
            }
            (Err(want), Err(got)) => prop_assert_eq!(got, want, "{:?}", text),
            (want, got) => prop_assert!(false, "{:?}: want {:?}, got {:?}", text, want, got),
        }
    }

    #[test]
    fn fact_programs_parse_and_enumerate_every_fact(src in arb_fact_program()) {
        let p = parse_program(&src).expect("generated program parses");
        let n_facts = p.db.len();
        let r = b_log::logic::dfs_all(&p.db, &p.queries[0], &b_log::logic::SolveConfig::all());
        // One solution per fact (duplicate fact terms produce duplicate
        // solutions, which is correct Prolog behaviour).
        prop_assert_eq!(r.solutions.len(), n_facts);
    }

    #[test]
    fn solutions_render_to_reparseable_terms(src in arb_fact_program()) {
        let mut p = parse_program(&src).expect("generated program parses");
        let r = b_log::logic::dfs_all(&p.db, &p.queries[0], &b_log::logic::SolveConfig::all());
        for s in &r.solutions {
            let text = s.binding_text(&p.db, "X").expect("X bound");
            // Every solution term must be readable back as a query.
            let q = parse_query(&mut p.db, &format!("p({text})"));
            prop_assert!(q.is_ok(), "unparseable solution text {text}");
        }
    }
}
