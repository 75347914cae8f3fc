//! # symbol-bam
//!
//! The BAM-style abstract machine layer of the SYMBOL evaluation
//! system: a RISC-grain instruction set ([`instr::BamInstr`]) and a
//! Prolog → BAM compiler with first-argument indexing and specialized
//! (mode-split) head unification, in the spirit of the Berkeley
//! Abstract Machine the paper builds on.
//!
//! The output of [`compile()`](crate::compile()) is consumed by `symbol-intcode`, which
//! expands each BAM instruction into IntCode operations.
//!
//! ```
//! use symbol_prolog::parse_program;
//! use symbol_bam::compile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program("app([], L, L). app([X|T], L, [X|R]) :- app(T, L, R).")?;
//! let bam = compile(&program)?;
//! assert_eq!(bam.predicates().count(), 1);
//! # Ok(())
//! # }
//! ```

pub mod compile;
pub mod error;
pub mod instr;
pub mod pretty;
pub mod program;
pub mod vars;

pub use compile::index::CompiledPred;
pub use error::CompileError;
pub use instr::{
    ArithOp, BamInstr, BamLabel, Cmp, Const, Functor, Operand, Slot, TagClass, TypeTest,
};
pub use program::BamProgram;

/// Compiles a normalized Prolog program to BAM code.
///
/// # Errors
///
/// See [`compile::compile_program`].
pub fn compile(program: &symbol_prolog::Program) -> Result<BamProgram, CompileError> {
    compile::compile_program(program)
}
