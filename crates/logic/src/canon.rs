//! Canonical query rendering — the answer-cache key derivation.
//!
//! Two query texts that differ only in variable spelling (`gf(sam, G)` /
//! `gf(sam, Who)`) denote the same question and must hit the same cache
//! entry; two queries that differ in structure anywhere must not. The
//! canonical form renders the goal conjunction with every variable
//! replaced by its **first-occurrence index** (`_0`, `_1`, …), atoms and
//! functors by their interned names — quoted wherever the bare name
//! would not re-read as that atom
//! ([`atom_needs_quotes`](crate::pretty::atom_needs_quotes)) — and no
//! whitespace: a total, injective-on-meaning encoding that is stable
//! across epochs (the symbol table is append-only, so a name never
//! changes spelling).
//!
//! The full canonical string is used as the key (not a hash of it), so
//! key collisions are impossible rather than improbable.

use std::fmt::Write;

use crate::parser::Query;
use crate::pretty::write_name;
use crate::symbol::SymbolTable;
use crate::term::Term;

/// Render `query` in canonical form: goals joined by `;`, variables
/// numbered by first occurrence across the whole conjunction.
///
/// Canonicalization is alpha-invariant — `gf(X, Y)` and `gf(A, B)`
/// canonicalize identically, while `gf(X, X)` (a repeated variable) does
/// not, because the second occurrence renders as `_0` rather than `_1`.
/// Atom and functor names cannot collide with the `_n` variable form,
/// with integer literals or with the `,`/`;` separators: a name that is
/// not a lowercase-led identifier renders quoted, and no name the reader
/// produces contains a quote.
pub fn canonical_query(symbols: &SymbolTable, query: &Query) -> String {
    let mut canon = Canon {
        symbols,
        numbers: vec![None; query.var_names.len()],
        next: 0,
        out: String::with_capacity(64),
    };
    for (i, goal) in query.goals.iter().enumerate() {
        if i > 0 {
            canon.out.push(';');
        }
        canon.write(goal);
    }
    canon.out
}

struct Canon<'s> {
    symbols: &'s SymbolTable,
    /// `numbers[v]` is variable `v`'s first-occurrence index, once seen.
    numbers: Vec<Option<u32>>,
    next: u32,
    out: String,
}

impl Canon<'_> {
    fn write(&mut self, t: &Term) {
        match t {
            Term::Var(v) => {
                if v.index() >= self.numbers.len() {
                    self.numbers.resize(v.index() + 1, None);
                }
                let n = *self.numbers[v.index()].get_or_insert_with(|| {
                    self.next += 1;
                    self.next - 1
                });
                let _ = write!(self.out, "_{n}");
            }
            Term::Int(n) => {
                let _ = write!(self.out, "{n}");
            }
            Term::Atom(s) => write_name(&mut self.out, self.symbols.name(*s), false),
            Term::Struct(f, args) => {
                write_name(&mut self.out, self.symbols.name(*f), true);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.write(a);
                }
                self.out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query_shared};
    use crate::term::VarId;

    fn canon(src: &str, query: &str) -> String {
        let p = parse_program(src).unwrap();
        let q = parse_query_shared(&p.db, query).unwrap();
        canonical_query(p.db.symbols(), &q)
    }

    const DB: &str = "gf(a,b). f(a,b). pair(a,b).";

    #[test]
    fn alpha_equivalent_queries_share_a_key() {
        assert_eq!(canon(DB, "gf(a, G)"), canon(DB, "gf(a,  Who)"));
        assert_eq!(canon(DB, "gf(X, Y)"), canon(DB, "gf(A, B)"));
        assert_eq!(canon(DB, "gf(a, G)"), "gf(a,_0)");
    }

    #[test]
    fn repeated_variables_are_distinguished_from_fresh_ones() {
        assert_ne!(canon(DB, "pair(X, X)"), canon(DB, "pair(X, Y)"));
        assert_eq!(canon(DB, "pair(X, X)"), "pair(_0,_0)");
        assert_eq!(canon(DB, "pair(X, Y)"), "pair(_0,_1)");
    }

    #[test]
    fn structure_differences_keep_keys_apart() {
        assert_ne!(canon(DB, "gf(a, G)"), canon(DB, "f(a, G)"));
        assert_ne!(canon(DB, "gf(a, G)"), canon(DB, "gf(b, G)"));
        assert_ne!(canon(DB, "gf(a, G)"), canon(DB, "gf(G, a)"));
    }

    #[test]
    fn conjunctions_number_variables_across_goals() {
        // The shared variable Y must render identically in both goals.
        let c = canon(DB, "f(X, Y), gf(Y, Z)");
        assert_eq!(c, "f(_0,_1);gf(_1,_2)");
    }

    #[test]
    fn canonical_form_is_whitespace_insensitive() {
        assert_eq!(canon(DB, "f( a , G )"), canon(DB, "f(a,G)"));
    }

    #[test]
    fn quoted_names_never_pass_for_variables_or_argument_lists() {
        let db = "p('_0'). p(b). q('a,b'). q(a,b). r('Sam Smith', 'Café', [], '[]'(x)).";
        assert_eq!(canon(db, "p('_0')"), "p('_0')");
        assert_eq!(canon(db, "p(X)"), "p(_0)");
        assert_eq!(canon(db, "q('a,b')"), "q('a,b')");
        assert_eq!(canon(db, "q(a, b)"), "q(a,b)");
        assert_eq!(
            canon(db, "r('Sam Smith', 'Café', [], '[]'(x))"),
            "r('Sam Smith','Café',[],'[]'(x))"
        );
        assert_eq!(canon("l([a]).", "l([a|T])"), "l('.'(a,_0))");
    }

    #[test]
    fn numbering_ignores_variable_ids_and_tolerates_unnamed_ones() {
        // Ids need not start at 0 or be dense, and `var_names` may be
        // empty (the AND-parallel joins canonicalize answer terms).
        let p = parse_program(DB).unwrap();
        let f = p.db.sym("pair").unwrap();
        let var = |i| Term::Var(VarId(i));
        let q = Query {
            goals: vec![
                Term::app(f, vec![var(7), var(3)]),
                Term::app(f, vec![var(3), Term::Int(-4)]),
            ],
            var_names: Vec::new(),
        };
        assert_eq!(
            canonical_query(p.db.symbols(), &q),
            "pair(_0,_1);pair(_1,-4)"
        );
    }
}
