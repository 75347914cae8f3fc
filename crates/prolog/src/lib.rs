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
    parse_program_with_events(src, &symbol_obs::Events::silent())
}

/// [`parse_program`] with front-end diagnostics emitted to `events`
/// instead of any output stream — the library never prints; the caller
/// decides whether events are collected, echoed or dropped.
///
/// # Errors
///
/// See [`parse_program`].
pub fn parse_program_with_events(
    src: &str,
    events: &symbol_obs::Events,
) -> Result<Program, ParseError> {
    let mut symbols = SymbolTable::new();
    let clauses = match parser::parse_clauses(src, &mut symbols) {
        Ok(c) => c,
        Err(e) => {
            events.emit_with(symbol_obs::Level::Error, "prolog::parse", || {
                format!("syntax error: {e}")
            });
            return Err(e);
        }
    };
    let parsed = clauses.len();
    let clauses = match normalize::normalize_clauses(clauses, &mut symbols) {
        Ok(c) => c,
        Err(e) => {
            events.emit_with(symbol_obs::Level::Error, "prolog::normalize", || {
                format!("unsupported goal: {e}")
            });
            return Err(e);
        }
    };
    if clauses.len() != parsed {
        events.emit_with(symbol_obs::Level::Debug, "prolog::normalize", || {
            format!(
                "control expansion grew {parsed} clauses to {}",
                clauses.len()
            )
        });
    }
    let program = Program::from_clauses(clauses, symbols);
    events.emit_with(symbol_obs::Level::Info, "prolog::parse", || {
        format!(
            "parsed {parsed} clauses into {} predicates",
            program.predicates().count()
        )
    });
    Ok(program)
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
