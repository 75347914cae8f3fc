//! # symbol-prolog
//!
//! Prolog front end of the SYMBOL evaluation system: tokenizer,
//! operator-precedence parser, clause normalizer and program loader.
//!
//! This crate turns Prolog source text into a [`Program`]: predicates
//! grouped by name/arity, with clause bodies flattened into plain goal
//! sequences (control constructs `;`, `->` and `\+` are expanded into
//! auxiliary predicates by [`normalize`]), ready for compilation to the
//! Berkeley-Abstract-Machine-style code of `symbol-bam`.
//!
//! ```
//! use symbol_prolog::parse_program;
//!
//! # fn main() -> Result<(), symbol_prolog::ParseError> {
//! let program = parse_program("app([], L, L). app([X|T], L, [X|R]) :- app(T, L, R).")?;
//! assert_eq!(program.predicates().count(), 1);
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod normalize;
pub mod ops;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod symbols;

pub use ast::{Clause, Term};
pub use error::ParseError;
pub use pretty::{program_to_source, term_to_source};
pub use program::{PredId, Predicate, Program};
pub use symbols::{Atom, SymbolTable};

/// Parses Prolog source text into a fully normalized [`Program`].
///
/// This is the one-stop entry point: it tokenizes, parses every clause,
/// expands control constructs and groups clauses into predicates.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error found.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut symbols = SymbolTable::new();
    let clauses = parser::parse_clauses(src, &mut symbols)?;
    let clauses = normalize::normalize_clauses(clauses, &mut symbols)?;
    Ok(Program::from_clauses(clauses, symbols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_variable_goal_is_an_error_not_a_panic() {
        let e = parse_program("main :- X.").expect_err("meta-calls are unsupported");
        assert!(e.to_string().contains("variable goal X"), "{e}");
    }
}
