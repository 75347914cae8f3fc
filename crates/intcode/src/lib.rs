//! # symbol-intcode
//!
//! The Intermediate Code (ICI) layer of the SYMBOL evaluation system:
//!
//! * a RISC-level [`op::Op`] set with tagged words and branch-on-tag
//!   (the paper's Prolog-specific architectural support),
//! * the BAM → ICI [`translate::translate`] pass (with per-clause
//!   register renaming and the shared runtime routines),
//! * the data memory [`layout::Layout`] of the BAM execution model
//!   (heap / environment stack / choice-point stack / trail / PDL), and
//! * the sequential [`emu::Emulator`] that validates programs and
//!   collects the Expect counts and branch probabilities driving trace
//!   selection, and
//! * the pre-decoded micro-op engine ([`decode::DecodedProgram`] +
//!   [`decode::DecodedEmulator`]) — the default execution path of the
//!   evaluation pipeline, bit-identical to the legacy interpreter but
//!   substantially faster per step — running on the recycled
//!   [`mem::DataMem`], which resets only the pages a run wrote, and
//! * the profile-guided [`fuse()`] pass — the second tier: hot
//!   straight-line pairs from a profiling run's Expect counts are
//!   re-decoded into fused superinstructions (tag-check-and-deref and
//!   load+move, the two pair shapes the translated programs contain)
//!   that halve dispatch on the covered dynamic ops while staying
//!   bit-identical to both unfused engines.
//!
//! ```
//! use symbol_prolog::parse_program;
//! use symbol_intcode::{emu::{Emulator, ExecConfig, Outcome}, layout::Layout, translate};
//! use symbol_prolog::PredId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "main :- app([1,2],[3],[1,2,3]).
//!            app([], L, L). app([X|T], L, [X|R]) :- app(T, L, R).";
//! let program = parse_program(src)?;
//! let bam = symbol_bam::compile(&program)?;
//! let main = PredId::new(program.symbols().lookup("main").unwrap(), 0);
//! let layout = Layout::default();
//! let ici = translate::translate(&bam, main, &layout)?;
//! let result = Emulator::new(&ici, &layout).run(&ExecConfig::default())?;
//! assert_eq!(result.outcome, Outcome::Success);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod asm;
pub mod batch;
pub mod decode;
pub mod emu;
pub mod fuse;
pub mod layout;
pub mod mem;
pub mod op;
pub mod program;
pub mod translate;
pub mod wire;
pub mod word;

pub use asm::Asm;
pub use batch::{run_batch, run_batch_parallel, ArenaPool, BatchOutcome};
pub use decode::{DecodedEmulator, DecodedProgram, ExecProfile};
pub use emu::{Emulator, ExecConfig, ExecError, ExecStats, Outcome, RunResult};
pub use fuse::{fuse, profile_hash, FuseConfig, FusionReport};
pub use layout::Layout;
pub use op::{AluOp, Cond, Label, Op, OpClass, Operand, Uses, R};
pub use program::{IciProgram, ProgramError};
pub use translate::{translate, TranslateError};
pub use wire::WireError;
pub use word::{Tag, Word};
