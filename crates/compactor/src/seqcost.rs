//! The sequential-machine cost model.
//!
//! The paper's baseline (§4.3): one operation per cycle in program
//! order, every op paying its full duration — 1 cycle for ALU and
//! moves, 2 for memory and control — with nothing overlapped.

use symbol_intcode::{ExecStats, IciProgram, OpClass};

/// Per-class durations of the sequential machine.
#[derive(Copy, Clone, Debug)]
pub struct SeqDurations {
    /// Memory ops (2 in the paper).
    pub memory: u64,
    /// Control ops (2 in the paper).
    pub control: u64,
    /// ALU ops.
    pub alu: u64,
    /// Moves.
    pub mv: u64,
}

impl Default for SeqDurations {
    fn default() -> Self {
        SeqDurations {
            memory: 2,
            control: 2,
            alu: 1,
            mv: 1,
        }
    }
}

/// Total sequential cycles for a profiled run.
pub fn sequential_cycles(program: &IciProgram, stats: &ExecStats, d: &SeqDurations) -> u64 {
    program
        .ops()
        .iter()
        .zip(&stats.expect)
        .map(|(op, &e)| {
            e * match op.class() {
                OpClass::Memory => d.memory,
                OpClass::Control => d.control,
                OpClass::Alu => d.alu,
                OpClass::Move => d.mv,
            }
        })
        .sum()
}

/// Sequential cycles under the equal-duration hypothesis used for the
/// instruction-mix measurement (Figure 2): every op takes one cycle.
pub fn equal_duration_cycles(stats: &ExecStats) -> u64 {
    stats.expect.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_intcode::{Asm, Op, Word, R};

    #[test]
    fn durations_weight_classes() {
        let mut a = Asm::new();
        let e = a.fresh_label();
        let base = a.fresh_reg();
        a.bind(e);
        a.emit(Op::MvI {
            d: base,
            w: Word::int(1),
        }); // move: 1
        a.emit(Op::Ld {
            d: R(40),
            base,
            off: 0,
        }); // memory: 2
        a.emit(Op::Halt { success: true }); // control: 2
        let p = a.finish(e).expect("assembles");
        let layout = symbol_intcode::Layout {
            heap_size: 16,
            env_size: 16,
            cp_size: 16,
            trail_size: 16,
            pdl_size: 16,
        };
        let stats = symbol_intcode::Emulator::new(&p, &layout)
            .run(&symbol_intcode::ExecConfig::default())
            .unwrap()
            .stats;
        assert_eq!(sequential_cycles(&p, &stats, &SeqDurations::default()), 5);
        assert_eq!(equal_duration_cycles(&stats), 3);
    }
}
