//! Operator-precedence (Pratt) parser producing raw clause terms.

use crate::ast::Term;
use crate::error::ParseError;
use crate::lexer::{tokenize, Tok, Token};
use crate::ops::{self, InfixKind, PrefixKind, ARG_PRIORITY, MAX_PRIORITY};
use crate::symbols::SymbolTable;
use std::collections::HashMap;

/// The deepest nesting of brackets, parentheses, braces, argument lists
/// and prefix-operator applications a clause may have. The parser and
/// the stages after it recurse once per level; at this limit the whole
/// pipeline fits a 2 MiB thread stack with room to spare even
/// unoptimised (which overflows past about 530 levels of `f(`). A list's
/// length and a chain of infix operators do not count.
pub const MAX_NESTING: usize = 256;

/// A parsed clause before normalization: the whole clause term
/// (`:-/2` structure for rules, plain callable for facts), the source
/// names of its variables in index order, and where it starts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawClause {
    /// The clause term.
    pub term: Term,
    /// Variable names, indexed by `Term::Var` id.
    pub var_names: Vec<String>,
    /// 1-based line of the clause's first token.
    pub line: usize,
    /// 1-based column of the clause's first token.
    pub col: usize,
}

/// Parses all clauses in `src`.
///
/// # Errors
///
/// Returns the first tokenizer or parser error encountered.
pub fn parse_clauses(src: &str, symbols: &mut SymbolTable) -> Result<Vec<RawClause>, ParseError> {
    let toks = tokenize(src)?;
    let mut clauses = Vec::new();
    let mut pos = 0;
    while let Some(first) = toks.get(pos) {
        let (line, col) = (first.line, first.col);
        let mut parser = Parser {
            toks: &toks,
            pos,
            symbols,
            vars: HashMap::new(),
            var_names: Vec::new(),
            depth: 0,
        };
        let term = parser.parse(MAX_PRIORITY)?;
        parser.expect_end()?;
        pos = parser.pos;
        clauses.push(RawClause {
            term,
            var_names: parser.var_names,
            line,
            col,
        });
    }
    Ok(clauses)
}

/// Parses a single term (for tests and tools); trailing `.` optional.
///
/// # Errors
///
/// Returns the first tokenizer or parser error encountered.
pub fn parse_term(src: &str, symbols: &mut SymbolTable) -> Result<RawClause, ParseError> {
    let toks = tokenize(src)?;
    let mut parser = Parser {
        toks: &toks,
        pos: 0,
        symbols,
        vars: HashMap::new(),
        var_names: Vec::new(),
        depth: 0,
    };
    let term = parser.parse(MAX_PRIORITY)?;
    let (line, col) = toks.first().map_or((1, 1), |t| (t.line, t.col));
    Ok(RawClause {
        term,
        var_names: parser.var_names,
        line,
        col,
    })
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    symbols: &'a mut SymbolTable,
    vars: HashMap<String, usize>,
    var_names: Vec<String>,
    /// Constructs open around the current position (see
    /// [`MAX_NESTING`]).
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::new(t.line, t.col, msg),
            None => ParseError::new(0, 0, format!("{} (at end of input)", msg.into())),
        }
    }

    /// Runs `inner` one nesting level deeper, refusing to go past
    /// [`MAX_NESTING`]. `open` is the token that opened the level.
    fn nested<T>(
        &mut self,
        open: &Token,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::new(
                open.line,
                open.col,
                format!("term nested more than {MAX_NESTING} levels deep"),
            ));
        }
        self.depth += 1;
        let result = inner(self);
        self.depth -= 1;
        result
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        match self.bump() {
            Some(Token { kind: Tok::End, .. }) => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here("expected '.' at end of clause"))
            }
        }
    }

    fn fresh_var(&mut self, name: &str) -> Term {
        if name == "_" {
            let idx = self.var_names.len();
            self.var_names.push("_".into());
            return Term::Var(idx);
        }
        if let Some(&idx) = self.vars.get(name) {
            return Term::Var(idx);
        }
        let idx = self.var_names.len();
        self.var_names.push(name.to_owned());
        self.vars.insert(name.to_owned(), idx);
        Term::Var(idx)
    }

    /// Parses a term of priority at most `max_prec`.
    fn parse(&mut self, max_prec: u32) -> Result<Term, ParseError> {
        let (mut left, mut left_prec) = self.parse_primary(max_prec)?;
        loop {
            let (name, op_prec, kind) = match self.peek() {
                Some(Token {
                    kind: Tok::Comma, ..
                }) => match ops::infix(",") {
                    Some((p, k)) => (",".to_owned(), p, k),
                    None => break,
                },
                Some(Token {
                    kind: Tok::Atom(a), ..
                }) => match ops::infix(a) {
                    Some((p, k)) => (a.clone(), p, k),
                    None => break,
                },
                _ => break,
            };
            if op_prec > max_prec {
                break;
            }
            let left_max = match kind {
                InfixKind::Yfx => op_prec,
                InfixKind::Xfx | InfixKind::Xfy => op_prec - 1,
            };
            if left_prec > left_max {
                break;
            }
            self.bump();
            let right_max = match kind {
                InfixKind::Xfy => op_prec,
                InfixKind::Xfx | InfixKind::Yfx => op_prec - 1,
            };
            let right = self.parse(right_max)?;
            let f = self.symbols.intern(&name);
            left = Term::Struct(f, vec![left, right]);
            left_prec = op_prec;
        }
        Ok((left, left_prec).0)
    }

    /// Parses a primary term (possibly a prefix-operator application).
    /// Returns the term and its priority.
    fn parse_primary(&mut self, max_prec: u32) -> Result<(Term, u32), ParseError> {
        let tok = match self.bump() {
            Some(t) => t.clone(),
            None => return Err(self.err_here("unexpected end of input")),
        };
        match tok.kind {
            Tok::Int(i) => Ok((Term::Int(i), 0)),
            Tok::Var(v) => Ok((self.fresh_var(&v), 0)),
            Tok::Atom(ref a) => self.parse_atom_or_prefix(&tok, a, max_prec),
            Tok::LParen | Tok::FunctorParen => self.nested(&tok, |p| {
                let t = p.parse(MAX_PRIORITY)?;
                p.expect(Tok::RParen)?;
                Ok((t, 0))
            }),
            Tok::LBracket => self.nested(&tok, Self::parse_list),
            Tok::LBrace => self.nested(&tok, |p| {
                if matches!(
                    p.peek(),
                    Some(Token {
                        kind: Tok::RBrace,
                        ..
                    })
                ) {
                    p.bump();
                    let f = p.symbols.intern("{}");
                    return Ok((Term::Atom(f), 0));
                }
                let t = p.parse(MAX_PRIORITY)?;
                p.expect(Tok::RBrace)?;
                let f = p.symbols.intern("{}");
                Ok((Term::Struct(f, vec![t]), 0))
            }),
            other => Err(ParseError::new(
                tok.line,
                tok.col,
                format!("unexpected token '{other}'"),
            )),
        }
    }

    fn parse_atom_or_prefix(
        &mut self,
        tok: &Token,
        a: &str,
        max_prec: u32,
    ) -> Result<(Term, u32), ParseError> {
        // Functor application: f(...)
        if matches!(
            self.peek(),
            Some(Token {
                kind: Tok::FunctorParen,
                ..
            })
        ) {
            self.bump();
            return self.nested(tok, |p| {
                let mut args = vec![p.parse(ARG_PRIORITY)?];
                loop {
                    match p.bump() {
                        Some(Token {
                            kind: Tok::Comma, ..
                        }) => args.push(p.parse(ARG_PRIORITY)?),
                        Some(Token {
                            kind: Tok::RParen, ..
                        }) => break,
                        _ => {
                            p.pos = p.pos.saturating_sub(1);
                            return Err(p.err_here("expected ',' or ')' in argument list"));
                        }
                    }
                }
                let f = p.symbols.intern(a);
                Ok((Term::Struct(f, args), 0))
            });
        }
        // Prefix operator, if one fits and a term follows.
        if let Some((p, kind)) = ops::prefix(a) {
            if p <= max_prec && self.starts_term() {
                // `- 3` folds to a negative literal.
                if a == "-" {
                    if let Some(Token {
                        kind: Tok::Int(i), ..
                    }) = self.peek()
                    {
                        let i = *i;
                        self.bump();
                        return Ok((Term::Int(-i), 0));
                    }
                }
                let arg_max = match kind {
                    PrefixKind::Fy => p,
                    PrefixKind::Fx => p - 1,
                };
                let arg = self.nested(tok, |p| p.parse(arg_max))?;
                let f = self.symbols.intern(a);
                return Ok((Term::Struct(f, vec![arg]), p));
            }
        }
        let f = self.symbols.intern(a);
        Ok((Term::Atom(f), 0))
    }

    /// Whether the next token can begin a term (used to decide whether a
    /// prefix operator actually applies).
    fn starts_term(&self) -> bool {
        match self.peek() {
            Some(Token { kind, .. }) => {
                matches!(
                    kind,
                    Tok::Int(_)
                        | Tok::Var(_)
                        | Tok::LParen
                        | Tok::FunctorParen
                        | Tok::LBracket
                        | Tok::LBrace
                ) || matches!(kind, Tok::Atom(a) if ops::infix(a).is_none() || ops::prefix(a).is_some())
            }
            None => false,
        }
    }

    fn parse_list(&mut self) -> Result<(Term, u32), ParseError> {
        if matches!(
            self.peek(),
            Some(Token {
                kind: Tok::RBracket,
                ..
            })
        ) {
            self.bump();
            return Ok((Term::nil(), 0));
        }
        let mut items = vec![self.parse(ARG_PRIORITY)?];
        let mut tail = Term::nil();
        loop {
            match self.bump() {
                Some(Token {
                    kind: Tok::Comma, ..
                }) => items.push(self.parse(ARG_PRIORITY)?),
                Some(Token { kind: Tok::Bar, .. }) => {
                    tail = self.parse(ARG_PRIORITY)?;
                    self.expect(Tok::RBracket)?;
                    break;
                }
                Some(Token {
                    kind: Tok::RBracket,
                    ..
                }) => break,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err_here("expected ',', '|' or ']' in list"));
                }
            }
        }
        let list = items.into_iter().rev().fold(tail, |t, h| Term::cons(h, t));
        Ok((list, 0))
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if t.kind == want => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here(format!("expected '{want}'")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::wk;

    fn parse_one(src: &str) -> (Term, SymbolTable) {
        let mut s = SymbolTable::new();
        let t = parse_term(src, &mut s).unwrap().term;
        (t, s)
    }

    fn show(src: &str) -> String {
        let (t, s) = parse_one(src);
        format!("{}", t.display(&s))
    }

    #[test]
    fn parses_fact() {
        let (t, s) = parse_one("foo(a, B)");
        let foo = s.lookup("foo").unwrap();
        let a = s.lookup("a").unwrap();
        assert_eq!(t, Term::Struct(foo, vec![Term::Atom(a), Term::Var(0)]));
    }

    #[test]
    fn arithmetic_precedence() {
        // 1+2*3 = +(1, *(2,3))
        let (t, s) = parse_one("1+2*3");
        let plus = s.lookup("+").unwrap();
        let times = s.lookup("*").unwrap();
        assert_eq!(
            t,
            Term::Struct(
                plus,
                vec![
                    Term::Int(1),
                    Term::Struct(times, vec![Term::Int(2), Term::Int(3)])
                ]
            )
        );
    }

    #[test]
    fn left_associative_minus() {
        // 1-2-3 = -(-(1,2),3)
        assert_eq!(show("1-2-3"), "-(-(1,2),3)");
    }

    #[test]
    fn right_associative_conjunction() {
        // (a,b,c) = ','(a, ','(b,c))
        assert_eq!(show("(a , b , c)"), ",(a,,(b,c))");
    }

    #[test]
    fn clause_neck() {
        let (t, s) = parse_one("h(X) :- b(X)");
        let neck = s.lookup(":-").unwrap();
        assert_eq!(neck, wk::NECK);
        assert!(matches!(t, Term::Struct(f, _) if f == neck));
    }

    #[test]
    fn list_sugar() {
        assert_eq!(show("[1,2|T]"), "[1,2|_V0]");
        assert_eq!(show("[]"), "[]");
    }

    #[test]
    fn negative_literal() {
        assert_eq!(parse_one("-42").0, Term::Int(-42));
    }

    #[test]
    fn prefix_minus_on_var() {
        assert_eq!(show("-X"), "-(_V0)");
    }

    #[test]
    fn underscore_vars_are_distinct() {
        let (t, _) = parse_one("f(_, _)");
        match t {
            Term::Struct(_, args) => assert_ne!(args[0], args[1]),
            _ => panic!("expected struct"),
        }
    }

    #[test]
    fn named_vars_are_shared() {
        let (t, _) = parse_one("f(X, X)");
        match t {
            Term::Struct(_, args) => assert_eq!(args[0], args[1]),
            _ => panic!("expected struct"),
        }
    }

    #[test]
    fn multiple_clauses() {
        let mut s = SymbolTable::new();
        let cs = parse_clauses("a. b. c :- a, b.", &mut s).unwrap();
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn missing_end_is_error() {
        let mut s = SymbolTable::new();
        assert!(parse_clauses("a :- b", &mut s).is_err());
    }

    #[test]
    fn comma_in_args_is_separator() {
        let (t, _) = parse_one("f(a, b)");
        match t {
            Term::Struct(_, args) => assert_eq!(args.len(), 2),
            _ => panic!("expected struct"),
        }
    }

    #[test]
    fn xfx_rejects_chained_comparison() {
        let mut s = SymbolTable::new();
        assert!(parse_clauses("t :- 1 < 2 < 3.", &mut s).is_err());
    }

    #[test]
    fn if_then_else_shape() {
        // (c -> t ; e) = ;( ->(c,t), e)
        assert_eq!(show("(c -> t ; e)"), ";(->(c,t),e)");
    }

    #[test]
    fn negation_parses() {
        assert_eq!(show("\\+ foo(X)"), "\\+(foo(_V0))");
    }
}
