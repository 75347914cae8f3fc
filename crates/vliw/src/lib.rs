//! # symbol-vliw
//!
//! The VLIW target of the SYMBOL evaluation system: the parameterized
//! machine model of the paper's §4.5 ([`machine::MachineConfig`]), the
//! instruction-word program representation ([`program::VliwProgram`]),
//! and a validating cycle-accurate simulator ([`sim::VliwSim`]).
//!
//! The simulator both *times* compacted code (Table 3 / Figure 6) and
//! *checks* it: it re-runs the benchmark and must reproduce the
//! sequential answer, while verifying slot budgets, the shared-memory
//! port limit and result latencies on every word.

pub mod decode;
pub mod machine;
pub mod program;
pub mod sim;

pub use decode::{DecodedVliw, DecodedVliwSim, SimProfile};
pub use machine::{MachineConfig, Timing};
pub use program::{SlotOp, VliwProgram};
pub use sim::{check_word_resources, SimConfig, SimError, SimOutcome, SimResult, VliwSim};
