//! # symbol-vliw
//!
//! The VLIW target of the SYMBOL evaluation system: the parameterized
//! machine model of the paper's §4.5 ([`machine::MachineConfig`]), the
//! instruction-word program representation ([`program::VliwProgram`]),
//! and a validating cycle-accurate simulator ([`sim::VliwSim`]).
//!
//! The simulator both *times* compacted code (Table 3 / Figure 6) and
//! *checks* it: it re-runs the benchmark and must reproduce the
//! sequential answer, while verifying every word against the machine's
//! word rules ([`machine::MachineConfig::check_word`]) and result
//! latencies. The compactor builds its words with the same rules
//! ([`machine::WordUse`]) and checks them with the same check.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod decode;
pub mod machine;
pub mod program;
pub mod sim;

pub use decode::{DecodedVliw, DecodedVliwSim, SimProfile};
pub use machine::{MachineConfig, Timing, WordFault, WordUse};
pub use program::{SlotOp, VliwProgram};
pub use sim::{SimConfig, SimError, SimOutcome, SimResult, VliwSim};

/// Deterministic xorshift64* PRNG for the seeded tests.
#[cfg(test)]
pub(crate) struct Rng(pub(crate) u64);

#[cfg(test)]
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
