//! Register-pressure analysis of scheduled code.
//!
//! The SYMBOL prototype has a 16-register bank per processor (paper
//! §5.2) while the compactor schedules over unbounded virtual
//! registers. This pass measures how many registers a schedule
//! actually needs — the maximum number of simultaneously live virtual
//! registers across the program — so the prototype's feasibility can
//! be judged (and a future register allocator sized).
//!
//! Liveness is computed at instruction-word granularity over the VLIW
//! program's own control-flow graph; fixed machine registers (ids
//! below `FIRST_TEMP`) are architectural state and counted separately.

use std::collections::HashSet;

use symbol_intcode::layout::reg;
use symbol_intcode::R;
use symbol_vliw::VliwProgram;

use crate::regalloc::temp_liveness;

/// Register pressure measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct Pressure {
    /// Maximum simultaneously live *temporary* registers at any word
    /// boundary.
    pub max_live_temps: usize,
    /// Number of fixed (architectural) registers the program touches.
    pub fixed_regs_used: usize,
    /// Number of distinct temporaries the program touches.
    pub temps_used: usize,
}

fn is_temp(r: R) -> bool {
    r.0 >= reg::FIRST_TEMP
}

/// Measures register pressure of a scheduled program, on the
/// word-granularity liveness [`crate::regalloc::temp_liveness`]
/// computes for the register allocator. Indirect transfers (calls
/// returning, backtracking) carry no live temporaries by construction:
/// the translator keeps every value that must survive a call or a retry
/// in an environment or choice-point slot, never in a renamed
/// temporary, so indirect words end all temp live ranges.
pub fn measure(program: &VliwProgram) -> Pressure {
    let mut fixed: HashSet<R> = HashSet::new();
    let mut temps: HashSet<R> = HashSet::new();
    for slot in program.slots() {
        for r in slot.op.uses().into_iter().chain(slot.op.def()) {
            if is_temp(r) {
                temps.insert(r);
            } else {
                fixed.insert(r);
            }
        }
    }
    let live_in = temp_liveness(program);
    let max_live_temps = live_in.iter().map(HashSet::len).max().unwrap_or(0);
    Pressure {
        max_live_temps,
        fixed_regs_used: fixed.len(),
        temps_used: temps.len(),
    }
}

/// Convenience: pressure per trace-scheduled benchmark at a machine
/// width (used by the report).
pub fn pressure_summary(pressures: &[(String, Pressure)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Register pressure of trace-scheduled code (prototype has a\n\
         16-register bank per unit plus the architectural registers):\n"
    );
    for (name, p) in pressures {
        let _ = writeln!(
            out,
            "  {name:<10} max live temps {:>3}   temps touched {:>5}   fixed regs {:>2}",
            p.max_live_temps, p.temps_used, p.fixed_regs_used
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program_of;
    use symbol_intcode::{Op, Word};
    use symbol_vliw::SlotOp;

    fn slot(op: Op) -> SlotOp {
        SlotOp {
            unit: 0,
            op,
            speculative: false,
        }
    }

    #[test]
    fn straight_line_pressure() {
        // t0 = 1; t1 = 2; t2 = t0+t1 (via moves); halt
        let t0 = R(reg::FIRST_TEMP);
        let t1 = R(reg::FIRST_TEMP + 1);
        let words = vec![
            vec![slot(Op::MvI {
                d: t0,
                w: Word::int(1),
            })],
            vec![slot(Op::MvI {
                d: t1,
                w: Word::int(2),
            })],
            vec![slot(Op::Alu {
                op: symbol_intcode::AluOp::Add,
                d: t0,
                a: t0,
                b: symbol_intcode::Operand::Reg(t1),
            })],
            vec![slot(Op::Halt { success: true })],
        ];
        let p = program_of(words, &[(0, 0)]);
        let pr = measure(&p);
        assert_eq!(pr.max_live_temps, 2);
        assert_eq!(pr.temps_used, 2);
    }

    #[test]
    fn dead_code_has_no_pressure() {
        let t0 = R(reg::FIRST_TEMP);
        let words = vec![
            vec![slot(Op::MvI {
                d: t0,
                w: Word::int(1),
            })],
            vec![slot(Op::Halt { success: true })],
        ];
        let p = program_of(words, &[(0, 0)]);
        let pr = measure(&p);
        assert_eq!(pr.max_live_temps, 0, "t0 is never read");
        assert_eq!(pr.temps_used, 1);
    }
}
