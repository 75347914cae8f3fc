//! Dynamic instruction-class mix (paper Figure 2).
//!
//! Computed under the paper's hypothesis that "all operations have the
//! same duration": the fraction of each class among executed ops.

use symbol_intcode::{ExecStats, IciProgram, OpClass};

/// Fractions of executed operations per class; they sum to 1.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ClassMix {
    /// Data memory accesses.
    pub memory: f64,
    /// ALU / tag operations.
    pub alu: f64,
    /// Register moves.
    pub mv: f64,
    /// Branches, jumps, calls, returns.
    pub control: f64,
}

impl ClassMix {
    /// Measures the mix of one profiled run.
    pub fn measure(program: &IciProgram, stats: &ExecStats) -> ClassMix {
        let counts = stats.class_counts(program);
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return ClassMix::default();
        }
        let f = |class: OpClass| {
            counts
                .iter()
                .find(|(c, _)| *c == class)
                .map(|(_, n)| *n as f64 / total as f64)
                .unwrap_or(0.0)
        };
        ClassMix {
            memory: f(OpClass::Memory),
            alu: f(OpClass::Alu),
            mv: f(OpClass::Move),
            control: f(OpClass::Control),
        }
    }

    /// Unweighted average over several mixes.
    pub fn average(mixes: &[ClassMix]) -> ClassMix {
        let n = mixes.len() as f64;
        if mixes.is_empty() {
            return ClassMix::default();
        }
        ClassMix {
            memory: mixes.iter().map(|m| m.memory).sum::<f64>() / n,
            alu: mixes.iter().map(|m| m.alu).sum::<f64>() / n,
            mv: mixes.iter().map(|m| m.mv).sum::<f64>() / n,
            control: mixes.iter().map(|m| m.control).sum::<f64>() / n,
        }
    }

    /// Sum of the fractions (1.0 for a measured mix).
    pub fn total(&self) -> f64 {
        self.memory + self.alu + self.mv + self.control
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_intcode::{Asm, Op, Word, R};

    #[test]
    fn fractions_sum_to_one() {
        let mut a = Asm::new();
        let e = a.fresh_label();
        let base = a.fresh_reg();
        a.bind(e);
        a.emit(Op::MvI {
            d: base,
            w: Word::int(1),
        });
        a.emit(Op::Ld {
            d: R(40),
            base,
            off: 0,
        });
        a.emit(Op::Halt { success: true });
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
        let mix = ClassMix::measure(&p, &stats);
        assert!((mix.total() - 1.0).abs() < 1e-12);
        assert!((mix.memory - 1.0 / 3.0).abs() < 1e-12);
        assert!((mix.control - 1.0 / 3.0).abs() < 1e-12);
        assert!((mix.mv - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn average_of_mixes() {
        let a = ClassMix {
            memory: 0.4,
            alu: 0.2,
            mv: 0.2,
            control: 0.2,
        };
        let b = ClassMix {
            memory: 0.2,
            alu: 0.4,
            mv: 0.2,
            control: 0.2,
        };
        let avg = ClassMix::average(&[a, b]);
        assert!((avg.memory - 0.3).abs() < 1e-12);
        assert!((avg.alu - 0.3).abs() < 1e-12);
    }
}
