//! A small Prolog-ish reader.
//!
//! Supports exactly the language the paper uses (facts, rules, queries —
//! figure 1) plus integers and lists, which the workload generators use:
//!
//! ```text
//! gf(X,Z) :- f(X,Y), f(Y,Z).      % a rule
//! f(curt, elain).                 % a fact
//! ?- gf(sam, G).                  % a query
//! ```
//!
//! Variables start with an uppercase letter or `_`; atoms start lowercase
//! or are quoted (`'Like This'`); `%` starts a line comment. Lists use the
//! usual `[a, b | Tail]` sugar desugared onto `'.'/2` and `[]`. Terms may
//! nest at most 128 levels deep, a list's length counting as depth; deeper
//! text is a [`ParseError`], never a stack overflow.
//!
//! One reader serves every entry point: tokens borrow the source text,
//! and each name is interned, looked up in a frozen table or given a
//! provisional handle as it is read, so every term is built once.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::clause::Clause;
use crate::node::MAX_GOALS;
use crate::store::{check_clause, ClauseDb};
use crate::symbol::{Sym, SymbolTable};
use crate::term::{Term, VarId};

/// A parsed query: conjunction of goals plus the user's variable names
/// (query variable `i` is named `var_names[i]`).
#[derive(Clone, Debug)]
pub struct Query {
    /// The conjunction, in textual order.
    pub goals: Vec<Term>,
    /// Original source names of query variables, indexed by [`VarId`].
    pub var_names: Vec<String>,
}

impl Query {
    /// The variable id for source name `name`, if it appears in the query.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }
}

/// A parsed program: the clause database plus its queries.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// The clause store, with pointer lists already built.
    pub db: ClauseDb,
    /// Queries in source order.
    pub queries: Vec<Query>,
}

/// Parse failure with 1-based line/column.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Tok<'a> {
    Atom(&'a str),
    Var(&'a str),
    Int(i64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Pipe,
    Comma,
    Dot,
    ColonDash,
    QueryDash,
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

struct Spanned<'a> {
    tok: Tok<'a>,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.as_bytes().get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn next_tok(&mut self) -> Result<Spanned<'a>, ParseError> {
        self.skip_ws();
        let (line, col) = (self.line, self.col);
        let mk = |tok| Spanned { tok, line, col };
        let Some(c) = self.peek() else {
            return Ok(mk(Tok::Eof));
        };
        match c {
            b'(' => {
                self.bump();
                Ok(mk(Tok::LParen))
            }
            b')' => {
                self.bump();
                Ok(mk(Tok::RParen))
            }
            b'[' => {
                self.bump();
                Ok(mk(Tok::LBracket))
            }
            b']' => {
                self.bump();
                Ok(mk(Tok::RBracket))
            }
            b'|' => {
                self.bump();
                Ok(mk(Tok::Pipe))
            }
            b',' => {
                self.bump();
                Ok(mk(Tok::Comma))
            }
            b'.' => {
                self.bump();
                Ok(mk(Tok::Dot))
            }
            b':' => {
                self.bump();
                if self.peek() == Some(b'-') {
                    self.bump();
                    Ok(mk(Tok::ColonDash))
                } else {
                    Err(self.err("expected '-' after ':'"))
                }
            }
            b'?' => {
                self.bump();
                if self.peek() == Some(b'-') {
                    self.bump();
                    Ok(mk(Tok::QueryDash))
                } else {
                    Err(self.err("expected '-' after '?'"))
                }
            }
            b'\'' => {
                self.bump();
                let start = self.pos;
                loop {
                    match self.bump() {
                        Some(b'\'') => break,
                        Some(_) => {}
                        None => return Err(self.err("unterminated quoted atom")),
                    }
                }
                // The quote is ASCII, so the slice ends on a character
                // boundary: a quoted name keeps its UTF-8 text.
                Ok(mk(Tok::Atom(&self.src[start..self.pos - 1])))
            }
            b'-' if self.peek2().is_some_and(|d| d.is_ascii_digit()) => {
                self.bump();
                let n = self.lex_int()?;
                Ok(mk(Tok::Int(-n)))
            }
            c if c.is_ascii_digit() => {
                let n = self.lex_int()?;
                Ok(mk(Tok::Int(n)))
            }
            c if c.is_ascii_lowercase() => {
                let s = self.lex_ident();
                Ok(mk(Tok::Atom(s)))
            }
            c if c.is_ascii_uppercase() || c == b'_' => {
                let s = self.lex_ident();
                Ok(mk(Tok::Var(s)))
            }
            c => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn lex_int(&mut self) -> Result<i64, ParseError> {
        let mut n: i64 = 0;
        while let Some(c) = self.peek() {
            if !c.is_ascii_digit() {
                break;
            }
            self.bump();
            n = n
                .checked_mul(10)
                .and_then(|m| m.checked_add((c - b'0') as i64))
                .ok_or_else(|| self.err("integer literal overflows i64"))?;
        }
        Ok(n)
    }

    fn lex_ident(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        &self.src[start..self.pos]
    }
}

/// Deepest term nesting the reader accepts, list spines included
/// (`[a, b, …]` is a cons chain as deep as it is long). The reader, and
/// most of what walks a term downstream — variable renaming,
/// canonicalization, rendering, `Drop` — recurses once per level, and a
/// stack overflow aborts the process where a panic would only fail the
/// request. The bound keeps the deepest accepted term well inside a
/// default 2 MiB thread stack in an unoptimized build; it is a property
/// of those recursions, not a tuning knob.
const MAX_TERM_DEPTH: usize = 128;

/// Past this many variables in one clause or query, names are found
/// through a map, so a text with thousands of them reads in linear time.
const VAR_SCAN: usize = 32;

/// How the reader turns a name into a [`Sym`]. Names resolve in
/// pre-order: a functor before its arguments, a list's `'.'` before its
/// items and its `[]` after them (interning also adds `[]` right after
/// `'.'`).
enum Names<'a, 's> {
    /// Program text and [`parse_query`]: intern into the caller's table.
    Interning(&'s mut SymbolTable),
    /// Query or update text against a table the reader only reads. A name
    /// the table lacks gets the handle it will have once the `new` names
    /// are interned in order: an update interns them after the whole text
    /// has parsed; a query fails naming `new[0]` once it has parsed, so a
    /// syntax error wins.
    Lookup {
        symbols: &'s SymbolTable,
        new: Vec<&'a str>,
        new_ids: HashMap<&'a str, Sym>,
    },
}

impl<'a, 's> Names<'a, 's> {
    fn lookup(symbols: &'s SymbolTable) -> Self {
        Names::Lookup {
            symbols,
            new: Vec::new(),
            new_ids: HashMap::new(),
        }
    }

    fn sym(&mut self, name: &'a str) -> Sym {
        match self {
            Names::Interning(symbols) => symbols.intern(name),
            Names::Lookup {
                symbols,
                new,
                new_ids,
            } => symbols.get(name).unwrap_or_else(|| {
                let next = u32::try_from(symbols.len() + new.len());
                let next = Sym(next.expect("symbol handles are 32-bit"));
                *new_ids.entry(name).or_insert_with(|| {
                    new.push(name);
                    next
                })
            }),
        }
    }
}

struct Parser<'a, 's> {
    lexer: Lexer<'a>,
    lookahead: Spanned<'a>,
    names: Names<'a, 's>,
    /// Source names of the clause's or query's variables, by [`VarId`]
    /// (`_` for each anonymous one); reset per clause/query.
    vars: Vec<&'a str>,
    /// Name → index into `vars`, once there are more than [`VAR_SCAN`].
    var_index: Option<HashMap<&'a str, usize>>,
    /// Arguments, list items and goals read so far of the terms and
    /// conjunctions still open, innermost last.
    terms: Vec<Term>,
    /// Terms enclosing the one being read (see [`MAX_TERM_DEPTH`]).
    depth: usize,
}

impl<'a, 's> Parser<'a, 's> {
    fn new(src: &'a str, names: Names<'a, 's>) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let lookahead = lexer.next_tok()?;
        Ok(Parser {
            lexer,
            lookahead,
            names,
            vars: Vec::new(),
            var_index: None,
            terms: Vec::new(),
            depth: 0,
        })
    }

    fn advance(&mut self) -> Result<Spanned<'a>, ParseError> {
        let next = self.lexer.next_tok()?;
        Ok(std::mem::replace(&mut self.lookahead, next))
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.lookahead.line,
            col: self.lookahead.col,
        }
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<(), ParseError> {
        if self.lookahead.tok == tok {
            self.advance()?;
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    fn fresh_clause_scope(&mut self) {
        self.vars.clear();
        self.var_index = None;
    }

    fn var_id(&mut self, name: &'a str) -> VarId {
        let seen = match &self.var_index {
            // An `_` on its own is always a fresh anonymous variable.
            _ if name == "_" => None,
            Some(index) => index.get(name).copied(),
            None => self.vars.iter().position(|&v| v == name),
        };
        if let Some(i) = seen {
            return VarId(i as u32);
        }
        let i = self.vars.len();
        self.vars.push(name);
        if let Some(index) = &mut self.var_index {
            index.insert(name, i);
        } else if self.vars.len() > VAR_SCAN {
            let ids = self.vars.iter().enumerate().map(|(i, &v)| (v, i));
            self.var_index = Some(ids.collect());
        }
        VarId(i as u32)
    }

    /// The variable names of the query just read (`_Gn` for the
    /// anonymous variable `n`).
    fn var_names(&self) -> Vec<String> {
        let name = |(i, v): (usize, &&str)| match *v {
            "_" => format!("_G{i}"),
            v => v.to_owned(),
        };
        self.vars.iter().enumerate().map(name).collect()
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        if self.depth >= MAX_TERM_DEPTH {
            return Err(self.err_here(format!(
                "term nested more than {MAX_TERM_DEPTH} levels deep"
            )));
        }
        self.depth += 1;
        let term = match self.advance()?.tok {
            Tok::Int(n) => Term::Int(n),
            Tok::Var(name) => Term::Var(self.var_id(name)),
            Tok::Atom(name) if self.lookahead.tok == Tok::LParen => {
                self.advance()?;
                let f = self.names.sym(name);
                let start = self.parse_terms(0, usize::MAX)?;
                self.expect(Tok::RParen, "')' closing argument list")?;
                Term::Struct(f, self.terms.drain(start..).collect())
            }
            Tok::Atom(name) => Term::Atom(self.names.sym(name)),
            Tok::LBracket => self.parse_list()?,
            other => return Err(self.err_here(format!("expected a term, found {other:?}"))),
        };
        self.depth -= 1;
        Ok(term)
    }

    fn parse_list(&mut self) -> Result<Term, ParseError> {
        if self.lookahead.tok == Tok::RBracket {
            self.advance()?;
            return Ok(Term::Atom(self.names.sym("[]")));
        }
        let cons = self.names.sym(".");
        // Interned text gets `[]` with every list, `[H|T]` included, so
        // a program that only takes lists apart still accepts queries
        // that build them.
        if let Names::Interning(symbols) = &mut self.names {
            symbols.intern("[]");
        }
        // Item `i` sits under `i` more cons cells than item 0 does, so
        // every further item is read one level deeper.
        let outer = self.depth;
        let start = self.parse_terms(1, usize::MAX)?;
        let tail = if self.lookahead.tok == Tok::Pipe {
            self.advance()?;
            self.parse_term()?
        } else {
            Term::Atom(self.names.sym("[]"))
        };
        self.depth = outer;
        self.expect(Tok::RBracket, "']' closing list")?;
        let items = self.terms.drain(start..).rev();
        Ok(items.fold(tail, |acc, item| Term::Struct(cons, Arc::new([item, acc]))))
    }

    /// Comma-separated terms, pushed onto `terms` from the returned index
    /// on: each read `step` levels deeper than the one before, and more
    /// than `max` of them a conjunction too long.
    fn parse_terms(&mut self, step: usize, max: usize) -> Result<usize, ParseError> {
        let start = self.terms.len();
        loop {
            let term = self.parse_term()?;
            self.terms.push(term);
            if self.lookahead.tok != Tok::Comma {
                return Ok(start);
            }
            if self.terms.len() - start == max {
                return Err(
                    self.err_here(format!("more than {MAX_GOALS} goals in one conjunction"))
                );
            }
            self.advance()?;
            self.depth += step;
        }
    }

    /// A conjunction: a clause body or a query, at most [`MAX_GOALS`]
    /// goals long.
    fn parse_goals(&mut self) -> Result<Vec<Term>, ParseError> {
        let start = self.parse_terms(0, MAX_GOALS)?;
        Ok(self.terms.drain(start..).collect())
    }

    /// Clauses (each passing [`ClauseDb::add_clause`]'s checks) and `?-`
    /// queries, in source order.
    fn parse_program(&mut self) -> Result<(Vec<Clause>, Vec<Query>), ParseError> {
        let (mut clauses, mut queries) = (Vec::new(), Vec::new());
        loop {
            match self.lookahead.tok {
                Tok::Eof => break,
                Tok::QueryDash => {
                    self.advance()?;
                    self.fresh_clause_scope();
                    let goals = self.parse_goals()?;
                    self.expect(Tok::Dot, "'.' ending query")?;
                    queries.push(Query {
                        goals,
                        var_names: self.var_names(),
                    });
                }
                _ => {
                    self.fresh_clause_scope();
                    let head = self.parse_term()?;
                    let body = if self.lookahead.tok == Tok::ColonDash {
                        self.advance()?;
                        self.parse_goals()?
                    } else {
                        Vec::new()
                    };
                    self.expect(Tok::Dot, "'.' ending clause")?;
                    let clause = Clause::new(head, body);
                    check_clause(&clause).map_err(|e| self.err_here(e.to_string()))?;
                    clauses.push(clause);
                }
            }
        }
        Ok((clauses, queries))
    }

    /// A single query body: an optional leading `?-` and trailing `.`.
    fn parse_query(&mut self) -> Result<Query, ParseError> {
        if self.lookahead.tok == Tok::QueryDash {
            self.advance()?;
        }
        let goals = self.parse_goals()?;
        if self.lookahead.tok == Tok::Dot {
            self.advance()?;
        }
        if self.lookahead.tok != Tok::Eof {
            return Err(self.err_here("trailing input after query"));
        }
        if let Names::Lookup { new, .. } = &self.names {
            if let Some(name) = new.first() {
                return Err(ParseError {
                    message: format!("unknown symbol `{name}` (not defined by the program)"),
                    line: 1,
                    col: 1,
                });
            }
        }
        Ok(Query {
            goals,
            var_names: self.var_names(),
        })
    }
}

/// Parse a full program (clauses and `?-` queries).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut db = ClauseDb::new();
    let (clauses, queries) =
        Parser::new(src, Names::Interning(db.symbols_mut()))?.parse_program()?;
    for clause in clauses {
        db.add_clause(clause)
            .expect("the reader checked the clause");
    }
    db.build_pointers();
    Ok(Program { db, queries })
}

/// Parse a single query body (no leading `?-`, no trailing `.` required)
/// against an existing database, so sessions can pose new queries without
/// re-reading the program. New names are interned into `db`.
pub fn parse_query(db: &mut ClauseDb, src: &str) -> Result<Query, ParseError> {
    Parser::new(src, Names::Interning(db.symbols_mut()))?.parse_query()
}

/// [`parse_query`] against a **frozen** symbol table: `symbols` is only
/// read, so many server pools can parse concurrently while other threads
/// search (or write new epochs of) the same database.
///
/// Symbols are resolved through the existing table instead of being
/// interned; a query mentioning an atom or functor the program never
/// defined is rejected with a parse error. (Such a goal could only fail
/// anyway — no clause head can contain a symbol that is not in the
/// table — so refusing it early turns a silent empty answer into a
/// diagnosable client error, which is what a multi-tenant server wants.)
pub fn parse_query_symbols(symbols: &SymbolTable, src: &str) -> Result<Query, ParseError> {
    Parser::new(src, Names::lookup(symbols))?.parse_query()
}

/// [`parse_query_symbols`] addressed by database (the historical entry
/// point; the symbol table is the only part of `db` it reads).
pub fn parse_query_shared(db: &ClauseDb, src: &str) -> Result<Query, ParseError> {
    parse_query_symbols(db.symbols(), src)
}

/// Parse clause text (facts and rules, **no** `?-` queries) while
/// interning any new constants or functors into `symbols`.
///
/// This is the write-path twin of [`parse_query_symbols`]: an update
/// transaction hands in its private copy-on-write symbol table, so new
/// tenants can introduce vocabulary without the read-only parse path
/// giving up its rejection guarantee. Returned clauses use the caller's
/// table. A text that fails to parse leaves `symbols` unchanged.
pub fn parse_clauses_interning(
    symbols: &mut SymbolTable,
    src: &str,
) -> Result<Vec<Clause>, ParseError> {
    let mut parser = Parser::new(src, Names::lookup(symbols))?;
    let (clauses, queries) = parser.parse_program()?;
    if !queries.is_empty() {
        return Err(ParseError {
            message: "queries are not allowed in an update (assert clauses only)".into(),
            line: 1,
            col: 1,
        });
    }
    let Names::Lookup { new, .. } = parser.names else {
        unreachable!("the reader only looks names up")
    };
    let base = symbols.len();
    for (i, name) in new.into_iter().enumerate() {
        let sym = symbols.intern(name);
        debug_assert_eq!(sym.index(), base + i);
    }
    // As with program text, a table that has lists has `[]`, so an
    // update that only takes lists apart still lets queries build them.
    if symbols.get(".").is_some() {
        symbols.intern("[]");
    }
    Ok(clauses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarId;

    #[test]
    fn parses_figure_1_program() {
        let src = "
            gf(X,Z) :- f(X,Y), f(Y,Z).
            gf(X,Z) :- f(X,Y), m(Y,Z).
            f(curt,elain). f(sam,larry). f(dan,pat). f(larry,den).
            f(pat,john). f(larry,doug).
            m(elain,john). m(marian,elain). m(peg,den). m(peg,doug).
            ?- gf(sam,G).
        ";
        let p = parse_program(src).unwrap();
        assert_eq!(p.db.len(), 12);
        assert_eq!(p.queries.len(), 1);
        let q = &p.queries[0];
        assert_eq!(q.var_names, vec!["G"]);
        assert_eq!(q.var("G"), Some(VarId(0)));
    }

    #[test]
    fn clause_vars_are_scoped_per_clause() {
        let p = parse_program("p(X) :- q(X). r(X).").unwrap();
        // Both clauses see their X as var 0.
        assert_eq!(p.db.clause(crate::ClauseId(0)).n_vars, 1);
        assert_eq!(p.db.clause(crate::ClauseId(1)).n_vars, 1);
    }

    #[test]
    fn anonymous_vars_are_fresh() {
        let p = parse_program("p(_, _).").unwrap();
        assert_eq!(p.db.clause(crate::ClauseId(0)).n_vars, 2);
    }

    #[test]
    fn integers_and_negatives() {
        let p = parse_program("age(sam, 70). delta(-3).").unwrap();
        assert_eq!(p.db.len(), 2);
    }

    #[test]
    fn quoted_atoms() {
        let p = parse_program("likes('Sam Smith', jazz).").unwrap();
        assert!(p.db.sym("Sam Smith").is_some());
    }

    #[test]
    fn lists_desugar_to_cons() {
        let p = parse_program("l([a, b]). e([]). t([H|T]).").unwrap();
        let c = p.db.clause(crate::ClauseId(0));
        // l('.'(a, '.'(b, [])))
        match &c.head {
            Term::Struct(_, args) => match &args[0] {
                Term::Struct(cons, inner) => {
                    assert_eq!(p.db.symbols().name(*cons), ".");
                    assert_eq!(inner.len(), 2);
                }
                other => panic!("expected cons cell, got {other:?}"),
            },
            other => panic!("expected struct head, got {other:?}"),
        }
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program("% a comment\np(a). % another\n").unwrap();
        assert_eq!(p.db.len(), 1);
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("p(a)\nq(b).").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_dot_is_an_error() {
        assert!(parse_program("p(a)").is_err());
    }

    #[test]
    fn parse_query_reuses_db_symbols() {
        let mut p = parse_program("f(a,b).").unwrap();
        let before = p.db.symbols().len();
        let q = parse_query(&mut p.db, "f(a, X)").unwrap();
        assert_eq!(q.goals.len(), 1);
        assert_eq!(q.var_names, vec!["X"]);
        // 'f' and 'a' were already interned.
        assert_eq!(p.db.symbols().len(), before);
    }

    #[test]
    fn parse_query_rejects_trailing_garbage() {
        let mut p = parse_program("f(a,b).").unwrap();
        assert!(parse_query(&mut p.db, "f(a,X). oops").is_err());
    }

    #[test]
    fn parse_query_shared_reads_only() {
        let p = parse_program("f(a,b). f(b,c). g(c,d).").unwrap();
        let before = p.db.symbols().len();
        let q = parse_query_shared(&p.db, "f(a, X), g(X, Y)").unwrap();
        assert_eq!(q.goals.len(), 2);
        assert_eq!(q.var_names, vec!["X", "Y"]);
        assert_eq!(p.db.symbols().len(), before, "no interning happened");
        // The remapped query must behave exactly like the mutably-parsed one.
        let mut db2 = p.db.clone();
        let q_mut = parse_query(&mut db2, "f(a, X), g(X, Y)").unwrap();
        assert_eq!(format!("{:?}", q.goals), format!("{:?}", q_mut.goals));
    }

    #[test]
    fn parse_query_shared_rejects_unknown_symbols() {
        let p = parse_program("f(a,b).").unwrap();
        let err = parse_query_shared(&p.db, "f(zebra, X)").unwrap_err();
        assert!(err.message.contains("zebra"), "{err}");
        let err = parse_query_shared(&p.db, "nosuchpred(a)").unwrap_err();
        assert!(err.message.contains("nosuchpred"), "{err}");
    }

    #[test]
    fn programs_that_only_take_lists_apart_still_accept_list_queries() {
        // No `[]` in the text: reading a list interns it anyway, so a
        // frozen-table query may build lists with it.
        let src = "member(X, [X|_]). member(X, [_|T]) :- member(X, T). item(a). item(b).";
        let p = parse_program(src).unwrap();
        assert!(p.db.symbols().get("[]").is_some());
        let q = parse_query_shared(&p.db, "member(a, [a, b])").unwrap();
        let mut db = p.db.clone();
        let q_mut = parse_query(&mut db, "member(a, [a, b])").unwrap();
        assert_eq!(q.goals, q_mut.goals);
        assert_eq!(db.symbols().len(), p.db.symbols().len());
    }

    #[test]
    fn parse_query_shared_still_reports_syntax_errors() {
        let p = parse_program("f(a,b).").unwrap();
        assert!(parse_query_shared(&p.db, "f(a,").is_err());
    }

    #[test]
    fn parse_query_symbols_matches_shared_path() {
        let p = parse_program("f(a,b). g(b,c).").unwrap();
        let q = parse_query_symbols(p.db.symbols(), "f(a, X), g(X, Y)").unwrap();
        let q2 = parse_query_shared(&p.db, "f(a, X), g(X, Y)").unwrap();
        assert_eq!(format!("{:?}", q.goals), format!("{:?}", q2.goals));
        assert!(parse_query_symbols(p.db.symbols(), "f(zebra, X)").is_err());
    }

    #[test]
    fn parse_clauses_interning_adds_new_symbols() {
        let p = parse_program("f(a,b).").unwrap();
        let mut syms = p.db.symbols().clone();
        let before = syms.len();
        let clauses =
            parse_clauses_interning(&mut syms, "f(b, zebra). gf(X,Z) :- f(X,Y), f(Y,Z).").unwrap();
        assert_eq!(clauses.len(), 2);
        assert!(syms.len() > before, "new constants were interned");
        assert!(syms.get("zebra").is_some());
        assert!(syms.get("gf").is_some());
        // Existing symbols resolve to their old handles.
        assert_eq!(syms.get("f"), p.db.sym("f"));
        // Rules keep their variable structure.
        assert_eq!(clauses[1].n_vars, 3);
        // The shared read path still rejects what the *original* table
        // doesn't know.
        assert!(parse_query_shared(&p.db, "gf(a, X)").is_err());
        assert!(parse_query_symbols(&syms, "gf(a, X)").is_ok());
    }

    #[test]
    fn parse_clauses_interning_rejects_queries() {
        let mut syms = SymbolTable::new();
        assert!(parse_clauses_interning(&mut syms, "f(a,b). ?- f(a,X).").is_err());
    }

    #[test]
    fn parse_clauses_interning_interns_new_names_in_pre_order() {
        let p = parse_program("f(a,b).").unwrap();
        let mut syms = p.db.symbols().clone();
        let base = syms.len() as u32;
        let clauses = parse_clauses_interning(&mut syms, "g(h(new1), [new2]).").unwrap();
        let names: Vec<&str> = (base..syms.len() as u32)
            .map(|i| syms.name(Sym(i)))
            .collect();
        assert_eq!(names, ["g", "h", "new1", ".", "new2", "[]"]);
        let rendered = crate::pretty::clause_to_source(&syms, &clauses[0]);
        assert_eq!(rendered, "g(h(new1),[new2]).");
    }

    #[test]
    fn updates_that_only_take_lists_apart_still_accept_list_queries() {
        let p = parse_program("item(a). item(b).").unwrap();
        let mut syms = p.db.symbols().clone();
        let text = "member(X, [X|_]). member(X, [_|T]) :- member(X, T).";
        parse_clauses_interning(&mut syms, text).unwrap();
        assert!(syms.get("[]").is_some());
        assert!(parse_query_symbols(&syms, "member(a, [a, b])").is_ok());
        // Text without lists adds no `[]`.
        let mut plain = p.db.symbols().clone();
        parse_clauses_interning(&mut plain, "item(c).").unwrap();
        assert!(plain.get("[]").is_none());
    }

    #[test]
    fn a_failed_update_parse_leaves_the_table_unchanged() {
        let p = parse_program("f(a,b).").unwrap();
        for text in ["f(a, zebra). g(", "f(zebra). ?- f(yak).", "f(zebra). 3."] {
            let mut syms = p.db.symbols().clone();
            assert!(parse_clauses_interning(&mut syms, text).is_err(), "{text}");
            assert_eq!(syms.len(), p.db.symbols().len(), "{text}");
            assert_eq!(syms.get("zebra"), None, "{text}");
        }
        // The add_clause checks keep their text and position.
        let err = parse_clauses_interning(&mut p.db.symbols().clone(), "f(a) :- X.").unwrap_err();
        assert_eq!(err, parse_program("f(a) :- X.").map(|_| ()).unwrap_err());
        assert_eq!(err.message, "body goal 0 is not a callable term");
    }

    #[test]
    fn quoted_atoms_keep_their_utf8_text() {
        let p = parse_program("likes('Café', 'naïve σ').").unwrap();
        assert!(p.db.sym("Café").is_some());
        assert!(p.db.sym("naïve σ").is_some());
        let q = parse_query_shared(&p.db, "likes('Café', X)").unwrap();
        assert_eq!(q.var_names, ["X"]);
        // Columns still count bytes, as they always have.
        let err = parse_query_shared(&p.db, "likes('é',").unwrap_err();
        assert_eq!((err.line, err.col), (1, 12));
    }

    #[test]
    fn the_first_unknown_name_in_pre_order_is_reported_and_syntax_errors_win() {
        let p = parse_program("f(a,b).").unwrap();
        let unknown = |text: &str| parse_query_shared(&p.db, text).unwrap_err().message;
        assert!(unknown("nope(zebra, yak)").contains("`nope`"));
        assert!(unknown("f(zebra, yak)").contains("`zebra`"));
        assert!(unknown("f([zebra], a)").contains("`.`"));
        assert!(unknown("f(a, b), f(yak, X)").contains("`yak`"));
        let err = parse_query_shared(&p.db, "f(zebra, ").unwrap_err();
        assert!(err.message.starts_with("expected a term"), "{err}");
    }

    #[test]
    fn many_variables_keep_their_identity_past_the_scan_limit() {
        let n = 3 * VAR_SCAN;
        let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
        let text = format!("f({}, _, {})", vars.join(","), vars.join(","));
        let q = parse_query_shared(&parse_program("f(a).").unwrap().db, &text).unwrap();
        assert_eq!(q.var_names.len(), n + 1);
        assert_eq!(q.var_names[n], format!("_G{n}"));
        let Term::Struct(_, args) = &q.goals[0] else {
            panic!()
        };
        for i in 0..n {
            assert_eq!(args[i], Term::Var(VarId(i as u32)));
            assert_eq!(args[n + 1 + i], Term::Var(VarId(i as u32)));
        }
    }

    /// `f(f(…f(a)…))`, `levels` terms deep (the innermost `a` included).
    fn nested(levels: usize) -> String {
        format!("{}a{}", "f(".repeat(levels - 1), ")".repeat(levels - 1))
    }

    /// `f([a, a, …, a])` whose last item sits `levels` terms deep: `f`,
    /// then one cons cell per item, then the item.
    fn long_list(levels: usize) -> String {
        format!("f([{}a])", "a,".repeat(levels - 3))
    }

    /// Run `body` on a thread with the default stack — what a server
    /// worker or a test thread gets — and propagate its panic, if any.
    fn on_default_stack(body: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .spawn(body)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn terms_at_the_depth_limit_parse_through_every_entry_point() {
        on_default_stack(|| {
            let mut p = parse_program("f([a]).").unwrap();
            for text in [nested(MAX_TERM_DEPTH), long_list(MAX_TERM_DEPTH)] {
                assert!(parse_program(&format!("{text}. ?- {text}.")).is_ok());
                assert!(parse_query_symbols(p.db.symbols(), &text).is_ok());
                assert!(parse_query_shared(&p.db, &text).is_ok());
                let mut syms = p.db.symbols().clone();
                assert_eq!(
                    parse_clauses_interning(&mut syms, &format!("{text}.")).map(|c| c.len()),
                    Ok(1)
                );
                assert!(parse_query(&mut p.db, &text).is_ok());
            }
        });
    }

    #[test]
    fn terms_past_the_depth_limit_are_a_positioned_error_not_an_overflow() {
        on_default_stack(|| {
            let mut p = parse_program("f([a]).").unwrap();
            // One level too many, and the 2 KB hostile query that used to
            // abort the process, as nested structures and as nested and
            // flat lists.
            let hostile = [
                nested(MAX_TERM_DEPTH + 1),
                long_list(MAX_TERM_DEPTH + 1),
                nested(1_000),
                long_list(100_000),
                format!("f({}a{})", "[".repeat(1_000), "]".repeat(1_000)),
            ];
            for text in &hostile {
                let errs = [
                    parse_program(&format!("{text}.")).map(|_| ()).unwrap_err(),
                    parse_program(&format!("?- {text}."))
                        .map(|_| ())
                        .unwrap_err(),
                    parse_query_symbols(p.db.symbols(), text).unwrap_err(),
                    parse_query_shared(&p.db, text).unwrap_err(),
                    parse_clauses_interning(&mut p.db.symbols().clone(), &format!("{text}."))
                        .unwrap_err(),
                    parse_query(&mut p.db, text).unwrap_err(),
                ];
                for e in errs {
                    assert!(e.message.contains("levels deep"), "{e}");
                    assert!(
                        e.line == 1 && e.col > 1,
                        "points at the offending token: {e}"
                    );
                }
            }
            // The reader is still usable afterwards.
            assert!(parse_query_shared(&p.db, "f([a, a])").is_ok());
        });
    }

    #[test]
    fn conjunctions_longer_than_max_goals_are_rejected() {
        let goals = |n: usize| vec!["a"; n].join(",");
        let (at, past) = (goals(MAX_GOALS), goals(MAX_GOALS + 1));
        let mut p = parse_program("a.").unwrap();
        assert_eq!(parse_query(&mut p.db, &at).unwrap().goals.len(), MAX_GOALS);
        assert!(parse_query_shared(&p.db, &at).is_ok());
        let rule = parse_program(&format!("b :- {at}.")).unwrap();
        assert_eq!(rule.db.clause(crate::ClauseId(0)).body.len(), MAX_GOALS);
        let program_err = |src: String| parse_program(&src).map(|_| ()).unwrap_err();
        let errs = [
            parse_query(&mut p.db, &past).map(|_| ()).unwrap_err(),
            parse_query_shared(&p.db, &past).map(|_| ()).unwrap_err(),
            program_err(format!("?- {past}.")),
            program_err(format!("b :- {past}.")),
        ];
        for e in errs {
            assert!(e.message.contains("goals in one conjunction"), "{e}");
        }
    }

    #[test]
    fn multi_goal_query() {
        let mut p = parse_program("f(a,b). g(b,c).").unwrap();
        let q = parse_query(&mut p.db, "f(a,X), g(X,Y)").unwrap();
        assert_eq!(q.goals.len(), 2);
        assert_eq!(q.var_names, vec!["X", "Y"]);
    }
}
