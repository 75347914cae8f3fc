//! # symbol-fuzz
//!
//! Differential fuzzing of the SYMBOL evaluation pipeline.
//!
//! The evaluation system executes the same program on four engines
//! that must agree: the legacy op-at-a-time [`symbol_intcode::Emulator`],
//! the pre-decoded [`symbol_intcode::DecodedEmulator`], and — after
//! compaction — the validating [`symbol_vliw::VliwSim`] and the
//! pre-decoded [`symbol_vliw::DecodedVliwSim`]. This crate generates
//! deterministic random inputs at two levels and checks the whole
//! matrix:
//!
//! * [`gen_prolog`] — well-formed Prolog programs with a
//!   generator-computed expected outcome, driven through the full
//!   parse → BAM → IntCode pipeline;
//! * [`gen_intcode`] — raw IntCode fragments (register-typed,
//!   branch-target-closed) fed directly to the engines.
//!
//! A failing case is [`shrink`]-reduced to a minimal reproducer and
//! written in the [`corpus`] text format; checked-in reproducers under
//! `crates/fuzz/corpus/` replay as ordinary tests. The `fuzz_run`
//! binary drives the whole loop from the command line and from CI.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod driver;
pub mod gen_intcode;
pub mod gen_prolog;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use corpus::{CorpusCase, Expect};
pub use driver::{run_fuzz, FuzzOptions, FuzzReport, KindFilter};
pub use gen_intcode::IntFrag;
pub use gen_prolog::PrologCase;
pub use oracle::{run_case, Case, Failure, FailureKind, OracleConfig};
pub use rng::{parse_seed, Rng};
pub use shrink::shrink_case;
