//! Rendering terms back to Prolog-ish text.
//!
//! Every renderer comes in two addressing modes: by [`ClauseDb`] (the
//! historical entry points) and by bare [`SymbolTable`] (`*_syms`), for
//! callers that hold an epoch-pinned snapshot's symbol table rather than
//! a whole database.

use std::fmt::Write;

use crate::store::ClauseDb;
use crate::symbol::SymbolTable;
use crate::term::Term;

/// Render `t` using the database's symbol table. Unbound variables print
/// as `_Gn`. List cells built on `'.'/2` print with bracket sugar.
pub fn term_to_string(db: &ClauseDb, t: &Term) -> String {
    term_to_string_syms(db.symbols(), t)
}

/// [`term_to_string`] addressed by symbol table.
pub fn term_to_string_syms(symbols: &SymbolTable, t: &Term) -> String {
    let mut s = String::new();
    write_term(symbols, t, &mut s);
    s
}

/// Whether `name` must be quoted to re-read as the atom it names: true
/// for anything but a lowercase-led identifier (`sam`, `p1_1`) and `[]`.
/// The reader has no escapes, so a name holding a `'` cannot re-read at
/// all; the reader never produces one.
pub fn atom_needs_quotes(name: &str) -> bool {
    let bare = name.as_bytes().first().is_some_and(u8::is_ascii_lowercase)
        && name.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_');
    !bare && name != "[]"
}

/// Append `name` as an atom (or, with `functor`, the functor of a
/// compound: `[](…)` does not re-read, so there `[]` is quoted too).
pub(crate) fn write_name(out: &mut String, name: &str, functor: bool) {
    if atom_needs_quotes(name) || (functor && name == "[]") {
        out.push('\'');
        out.push_str(name);
        out.push('\'');
    } else {
        out.push_str(name);
    }
}

fn write_term(symbols: &SymbolTable, t: &Term, out: &mut String) {
    match t {
        Term::Var(v) => {
            let _ = write!(out, "_G{}", v.0);
        }
        Term::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Term::Atom(s) => write_name(out, symbols.name(*s), false),
        Term::Struct(f, args) => {
            let fname = symbols.name(*f);
            if fname == "." && args.len() == 2 {
                write_list(symbols, t, out);
                return;
            }
            write_name(out, fname, true);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_term(symbols, a, out);
            }
            out.push(')');
        }
    }
}

fn write_list(symbols: &SymbolTable, t: &Term, out: &mut String) {
    out.push('[');
    let mut cur = t;
    let mut first = true;
    loop {
        match cur {
            Term::Struct(f, args) if args.len() == 2 && symbols.name(*f) == "." => {
                if !first {
                    out.push(',');
                }
                first = false;
                write_term(symbols, &args[0], out);
                cur = &args[1];
            }
            Term::Atom(s) if symbols.name(*s) == "[]" => break,
            other => {
                out.push('|');
                write_term(symbols, other, out);
                break;
            }
        }
    }
    out.push(']');
}

/// Render a stored clause back to parseable program text (`head.` for a
/// fact, `head :- g1, g2.` for a rule). Clause-local variables print as
/// `_Gn`, which re-reads as a variable — round-tripping through
/// [`parse_program`](crate::parse_program) preserves the clause's
/// variable structure. The MVCC oracle harness uses this to rebuild a
/// sequential database for any epoch from rendered clause texts.
pub fn clause_to_source(symbols: &SymbolTable, clause: &crate::clause::Clause) -> String {
    let mut s = term_to_string_syms(symbols, &clause.head);
    if !clause.body.is_empty() {
        s.push_str(" :- ");
        for (i, g) in clause.body.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&term_to_string_syms(symbols, g));
        }
    }
    s.push('.');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn atoms_vars_ints() {
        let p = parse_program("p(a, 3, X).").unwrap();
        let c = p.db.clause(crate::ClauseId(0));
        assert_eq!(term_to_string(&p.db, &c.head), "p(a,3,_G0)");
        assert_eq!(term_to_string_syms(p.db.symbols(), &c.head), "p(a,3,_G0)");
    }

    #[test]
    fn proper_list_sugar() {
        let p = parse_program("l([a,b,c]).").unwrap();
        let c = p.db.clause(crate::ClauseId(0));
        assert_eq!(term_to_string(&p.db, &c.head), "l([a,b,c])");
    }

    #[test]
    fn improper_list_tail() {
        let p = parse_program("l([a|T]).").unwrap();
        let c = p.db.clause(crate::ClauseId(0));
        assert_eq!(term_to_string(&p.db, &c.head), "l([a|_G0])");
    }

    #[test]
    fn empty_list() {
        let p = parse_program("l([]).").unwrap();
        let c = p.db.clause(crate::ClauseId(0));
        assert_eq!(term_to_string(&p.db, &c.head), "l([])");
    }

    #[test]
    fn names_that_are_not_bare_atoms_render_quoted_and_read_back() {
        let src = "w('Café', 'Sam Smith', '_0', 'a,b', [], '[]'(x), '.', 'a,b'('ü'), p1_1).";
        let p = parse_program(src).unwrap();
        let head = &p.db.clause(crate::ClauseId(0)).head;
        let rendered = term_to_string(&p.db, head);
        assert_eq!(
            rendered,
            "w('Café','Sam Smith','_0','a,b',[],'[]'(x),'.','a,b'('ü'),p1_1)"
        );
        let again = parse_program(&format!("{rendered}.")).unwrap();
        assert_eq!(
            term_to_string(&again.db, &again.db.clause(crate::ClauseId(0)).head),
            rendered
        );
        for (name, quoted) in [
            ("sam", false),
            ("p1_1", false),
            ("[]", false),
            ("Sam", true),
            ("_0", true),
            ("", true),
            ("é", true),
            ("a b", true),
            ("1a", true),
        ] {
            assert_eq!(atom_needs_quotes(name), quoted, "{name:?}");
        }
    }

    #[test]
    fn clause_round_trips_through_source() {
        let p = parse_program("gf(X,Z) :- f(X,Y), f(Y,Z). f(a,b).").unwrap();
        let rule = clause_to_source(p.db.symbols(), p.db.clause(crate::ClauseId(0)));
        let fact = clause_to_source(p.db.symbols(), p.db.clause(crate::ClauseId(1)));
        assert_eq!(rule, "gf(_G0,_G1) :- f(_G0,_G2), f(_G2,_G1).");
        assert_eq!(fact, "f(a,b).");
        let reparsed = parse_program(&format!("{rule} {fact}")).unwrap();
        assert_eq!(reparsed.db.clause(crate::ClauseId(0)).n_vars, 3);
        assert_eq!(reparsed.db.len(), 2);
    }
}
