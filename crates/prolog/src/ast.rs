//! Abstract syntax: terms and clauses.

use crate::symbols::{wk, Atom, SymbolTable};
use std::fmt;

/// A Prolog term.
///
/// Variables are clause-local indices assigned by the parser in order of
/// first occurrence; their source names are kept in [`Clause::var_names`]
/// for diagnostics. Lists are ordinary structures built from the `.`/2
/// functor and the `[]` atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable, identified by its clause-local index.
    Var(usize),
    /// An integer constant.
    Int(i64),
    /// An atom (including `[]`).
    Atom(Atom),
    /// A compound term `f(t1, ..., tn)` with `n >= 1`.
    Struct(Atom, Vec<Term>),
}

impl Term {
    /// Builds a list cell `[head | tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::Struct(wk::DOT, vec![head, tail])
    }

    /// The empty list `[]`.
    pub fn nil() -> Term {
        Term::Atom(wk::NIL)
    }

    /// Builds a proper list from `items`.
    pub fn list(items: Vec<Term>) -> Term {
        items
            .into_iter()
            .rev()
            .fold(Term::nil(), |tail, head| Term::cons(head, tail))
    }

    /// Functor name and arity, treating atoms as arity-0 functors.
    /// Returns `None` for variables and integers.
    pub fn functor(&self) -> Option<(Atom, usize)> {
        match self {
            Term::Atom(a) => Some((*a, 0)),
            Term::Struct(f, args) => Some((*f, args.len())),
            _ => None,
        }
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Int(_) | Term::Atom(_) => true,
            Term::Struct(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// All variable indices occurring in the term, in first-occurrence
    /// order, appended to `out` (duplicates skipped).
    pub fn collect_vars(&self, out: &mut Vec<usize>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Int(_) | Term::Atom(_) => {}
            Term::Struct(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// The largest variable index occurring in the term, if any.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Int(_) | Term::Atom(_) => None,
            Term::Struct(_, args) => args.iter().filter_map(Term::max_var).max(),
        }
    }

    /// Renders the term for diagnostics using `symbols` for atom names.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> TermDisplay<'a> {
        TermDisplay {
            term: self,
            symbols,
        }
    }
}

/// Helper returned by [`Term::display`].
#[derive(Debug)]
pub struct TermDisplay<'a> {
    term: &'a Term,
    symbols: &'a SymbolTable,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(f, self.term, self.symbols)
    }
}

fn write_term(f: &mut fmt::Formatter<'_>, t: &Term, s: &SymbolTable) -> fmt::Result {
    match t {
        Term::Var(v) => write!(f, "_V{v}"),
        Term::Int(i) => write!(f, "{i}"),
        Term::Atom(a) => write!(f, "{}", s.name(*a)),
        Term::Struct(func, args) if *func == wk::DOT && args.len() == 2 => {
            // list syntax
            write!(f, "[")?;
            write_term(f, &args[0], s)?;
            let mut tail = &args[1];
            loop {
                match tail {
                    Term::Atom(a) if *a == wk::NIL => break,
                    Term::Struct(func, args) if *func == wk::DOT && args.len() == 2 => {
                        write!(f, ",")?;
                        write_term(f, &args[0], s)?;
                        tail = &args[1];
                    }
                    other => {
                        write!(f, "|")?;
                        write_term(f, other, s)?;
                        break;
                    }
                }
            }
            write!(f, "]")
        }
        Term::Struct(func, args) => {
            write!(f, "{}(", s.name(*func))?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write_term(f, a, s)?;
            }
            write!(f, ")")
        }
    }
}

/// A clause `Head :- Body.` in flattened form.
///
/// The body is a sequence of goals; facts have an empty body. Control
/// constructs have already been removed by the normalizer, so every goal
/// is a plain call, a builtin, or a cut.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Clause {
    /// Clause head (atom or structure; never a variable or integer).
    pub head: Term,
    /// Body goals in execution order.
    pub body: Vec<Term>,
    /// Source names of the clause-local variables, indexed by `Var` id.
    pub var_names: Vec<String>,
}

impl Clause {
    /// Creates a clause, validating that the head is callable.
    ///
    /// # Panics
    ///
    /// Panics if the head is a variable or integer (callers parse heads
    /// and can never produce one).
    pub fn new(head: Term, body: Vec<Term>, var_names: Vec<String>) -> Self {
        assert!(
            head.functor().is_some(),
            "clause head must be an atom or structure"
        );
        Clause {
            head,
            body,
            var_names,
        }
    }

    /// The number of distinct variables in the clause.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Name/arity of the predicate this clause belongs to.
    pub fn pred(&self) -> (Atom, usize) {
        self.head.functor().expect("validated in new")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_builder_round_trips() {
        let l = Term::list(vec![Term::Int(1), Term::Int(2)]);
        assert_eq!(
            l,
            Term::cons(Term::Int(1), Term::cons(Term::Int(2), Term::nil()))
        );
    }

    #[test]
    fn functor_of_atom_and_struct() {
        let mut s = SymbolTable::new();
        let foo = s.intern("foo");
        assert_eq!(Term::Atom(foo).functor(), Some((foo, 0)));
        assert_eq!(
            Term::Struct(foo, vec![Term::Int(1)]).functor(),
            Some((foo, 1))
        );
        assert_eq!(Term::Var(0).functor(), None);
        assert_eq!(Term::Int(3).functor(), None);
    }

    #[test]
    fn groundness() {
        let mut s = SymbolTable::new();
        let f = s.intern("f");
        assert!(Term::Struct(f, vec![Term::Int(1)]).is_ground());
        assert!(!Term::Struct(f, vec![Term::Var(0)]).is_ground());
    }

    #[test]
    fn collect_vars_dedups_in_order() {
        let mut s = SymbolTable::new();
        let f = s.intern("f");
        let t = Term::Struct(f, vec![Term::Var(2), Term::Var(0), Term::Var(2)]);
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars, vec![2, 0]);
    }

    #[test]
    fn display_list_syntax() {
        let s = SymbolTable::new();
        let l = Term::list(vec![Term::Int(1), Term::Int(2)]);
        assert_eq!(format!("{}", l.display(&s)), "[1,2]");
        let partial = Term::cons(Term::Int(1), Term::Var(0));
        assert_eq!(format!("{}", partial.display(&s)), "[1|_V0]");
    }

    #[test]
    #[should_panic(expected = "clause head")]
    fn clause_head_must_be_callable() {
        Clause::new(Term::Var(0), vec![], vec!["X".into()]);
    }
}
