//! # symbol-compactor
//!
//! The back-end parallelizing compiler of the SYMBOL evaluation system
//! (paper §3.2): control-flow graph construction, liveness analysis,
//! trace selection driven by the sequential profile, a list scheduler
//! with speculation and compensation code, and the sequential/BAM cost
//! models the experiments compare against.
//!
//! The one-call entry point is [`try_compact`], which turns a profiled
//! IntCode program into a scheduled [`symbol_vliw::VliwProgram`] for a
//! given [`symbol_vliw::MachineConfig`], or reports the [`Violation`]
//! an illegal schedule would commit. A caller that compacts one profile
//! for several machines builds a [`Compactor`] once and calls
//! [`Compactor::compact`] per machine.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod copyprop;
pub mod emit;
pub mod liveness;
pub mod pressure;
pub mod regalloc;
pub mod schedule;
pub mod seqcost;
pub mod trace;
pub mod verify;

pub use cfg::{Block, Cfg, Edge};
pub use copyprop::try_copy_propagate;
pub use emit::{try_compact, CompactMode, CompactStats, Compacted, Compactor};
pub use pressure::{measure as measure_pressure, Pressure};
pub use regalloc::{allocate as allocate_registers, OutOfRegisters};
pub use schedule::ScheduleOptions;
pub use seqcost::{equal_duration_cycles, sequential_cycles, SeqDurations};
pub use trace::{Trace, TracePolicy};
pub use verify::{verify_program, Violation};

/// Test helper: a program of hand-built words, with `labels` as
/// `(label, word)` bindings and label 0 as the entry.
#[cfg(test)]
pub(crate) fn program_of(
    words: Vec<Vec<symbol_vliw::SlotOp>>,
    labels: &[(u32, usize)],
) -> symbol_vliw::VliwProgram {
    let word_end = words
        .iter()
        .scan(0, |end, w| {
            *end += w.len() as u32;
            Some(*end)
        })
        .collect();
    let num = labels
        .iter()
        .map(|&(l, _)| l as usize + 1)
        .max()
        .unwrap_or(1);
    let mut label_addr = vec![usize::MAX; num];
    for &(l, at) in labels {
        label_addr[l as usize] = at;
    }
    symbol_vliw::VliwProgram::new(
        words.concat(),
        word_end,
        label_addr,
        symbol_intcode::Label(0),
    )
}
