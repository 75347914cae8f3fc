//! Static schedule verification.
//!
//! The VLIW simulator validates every *executed* instruction word, but
//! profile-guided compaction also emits cold code the profile never
//! touches. This verifier checks the whole program statically: per-word
//! resource budgets (including the issue width and the shared memory
//! port), per-unit slot conflicts, the prototype's format restriction,
//! and the single-writer rule. [`crate::Compactor::compact`] runs it on
//! every schedule it produces.

use std::fmt;

use symbol_intcode::OpClass;
use symbol_vliw::{MachineConfig, VliwProgram};

/// A static violation of the machine model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A word issues more ops than the machine's issue width.
    IssueWidth {
        /// Instruction index.
        at: usize,
        /// Ops in the word.
        ops: usize,
    },
    /// A word exceeds a class's slot budget.
    ClassBudget {
        /// Instruction index.
        at: usize,
        /// The class.
        class: String,
        /// Ops of that class in the word.
        used: usize,
    },
    /// Two ops of the same class share a unit.
    UnitConflict {
        /// Instruction index.
        at: usize,
        /// The oversubscribed unit.
        unit: usize,
    },
    /// ALU/move and control ops share a unit under split formats.
    FormatConflict {
        /// Instruction index.
        at: usize,
        /// The conflicted unit.
        unit: usize,
    },
    /// Two ops write the same register in one word.
    DoubleWrite {
        /// Instruction index.
        at: usize,
        /// The register.
        reg: u32,
    },
    /// The machine has no slot for a resource, so no schedule exists.
    /// [`crate::Compactor::compact`] checks this before scheduling.
    NoSlot {
        /// `"issue"` or the name of the op class.
        resource: &'static str,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::IssueWidth { at, ops } => {
                write!(f, "word {at} issues {ops} ops past the issue width")
            }
            Violation::ClassBudget { at, class, used } => {
                write!(f, "word {at} uses {used} {class} slots")
            }
            Violation::UnitConflict { at, unit } => {
                write!(f, "word {at} oversubscribes unit {unit}")
            }
            Violation::FormatConflict { at, unit } => {
                write!(f, "word {at} mixes formats on unit {unit}")
            }
            Violation::DoubleWrite { at, reg } => {
                write!(f, "word {at} writes r{reg} twice")
            }
            Violation::NoSlot { resource } => {
                write!(f, "the machine has no {resource} slot")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// The resource `machine` offers no slot for, if any: an issue slot,
/// then each op class in [`OpClass::ALL`] order. A machine without one
/// cannot place every op — no units, an issue width of 0, no memory
/// port — and the scheduler would never finish, so
/// [`crate::Compactor::compact`] refuses it up front.
pub(crate) fn missing_slot(machine: &MachineConfig) -> Option<&'static str> {
    if machine.issue_width == 0 {
        return Some("issue");
    }
    OpClass::ALL
        .into_iter()
        .find(|&class| machine.slots(class) == 0)
        .map(OpClass::name)
}

/// Verifies every instruction word of `program` against `machine`.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn verify_program(program: &VliwProgram, machine: &MachineConfig) -> Result<(), Violation> {
    let mut unit_class: Vec<(usize, OpClass)> = Vec::new();
    let mut written: Vec<u32> = Vec::new();
    for (at, word) in program.words().enumerate() {
        if word.len() > machine.issue_width {
            return Err(Violation::IssueWidth {
                at,
                ops: word.len(),
            });
        }
        let mut class_used = [0usize; OpClass::COUNT];
        unit_class.clear();
        written.clear();
        for s in word {
            let class = s.op.class();
            let idx = class.index();
            class_used[idx] += 1;
            if class_used[idx] > machine.slots(class) {
                return Err(Violation::ClassBudget {
                    at,
                    class: format!("{class}"),
                    used: class_used[idx],
                });
            }
            if unit_class.contains(&(s.unit, class)) {
                return Err(Violation::UnitConflict { at, unit: s.unit });
            }
            if machine.split_formats {
                let conflicting = match class {
                    OpClass::Alu | OpClass::Move => Some(OpClass::Control),
                    OpClass::Control => None, // checked from the other side
                    OpClass::Memory => None,
                };
                if let Some(other) = conflicting {
                    if unit_class.contains(&(s.unit, other)) {
                        return Err(Violation::FormatConflict { at, unit: s.unit });
                    }
                }
                if class == OpClass::Control
                    && (unit_class.contains(&(s.unit, OpClass::Alu))
                        || unit_class.contains(&(s.unit, OpClass::Move)))
                {
                    return Err(Violation::FormatConflict { at, unit: s.unit });
                }
            }
            unit_class.push((s.unit, class));
            if let Some(d) = s.op.def() {
                if written.contains(&d.0) {
                    return Err(Violation::DoubleWrite { at, reg: d.0 });
                }
                written.push(d.0);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program_of;
    use symbol_intcode::{AluOp, Label, Layout, Op, Operand, Word, R};
    use symbol_vliw::{DecodedVliw, DecodedVliwSim, SimConfig, SimError, SlotOp, VliwSim};

    fn program(words: Vec<Vec<SlotOp>>) -> VliwProgram {
        program_of(words, &[(0, 0)])
    }

    fn slot(unit: usize, op: Op) -> SlotOp {
        SlotOp {
            unit,
            op,
            speculative: false,
        }
    }

    #[test]
    fn accepts_legal_word() {
        let p = program(vec![vec![
            slot(
                0,
                Op::MvI {
                    d: R(40),
                    w: Word::int(1),
                },
            ),
            slot(
                1,
                Op::MvI {
                    d: R(41),
                    w: Word::int(2),
                },
            ),
        ]]);
        assert!(verify_program(&p, &MachineConfig::units(2)).is_ok());
    }

    #[test]
    fn rejects_issue_width_overflow() {
        let p = program(vec![vec![
            slot(
                0,
                Op::MvI {
                    d: R(40),
                    w: Word::int(1),
                },
            ),
            slot(
                1,
                Op::MvI {
                    d: R(41),
                    w: Word::int(2),
                },
            ),
        ]]);
        let err = verify_program(&p, &MachineConfig::units(1)).unwrap_err();
        assert!(matches!(err, Violation::IssueWidth { .. }));
    }

    #[test]
    fn rejects_memory_port_overflow() {
        let p = program(vec![vec![
            slot(
                0,
                Op::Ld {
                    d: R(40),
                    base: R(50),
                    off: 0,
                },
            ),
            slot(
                1,
                Op::Ld {
                    d: R(41),
                    base: R(50),
                    off: 1,
                },
            ),
        ]]);
        let err = verify_program(&p, &MachineConfig::wide_units(2)).unwrap_err();
        assert!(matches!(err, Violation::ClassBudget { .. }));
    }

    #[test]
    fn rejects_double_write() {
        let p = program(vec![vec![
            slot(
                0,
                Op::MvI {
                    d: R(40),
                    w: Word::int(1),
                },
            ),
            slot(
                1,
                Op::MvI {
                    d: R(40),
                    w: Word::int(2),
                },
            ),
        ]]);
        let err = verify_program(&p, &MachineConfig::units(2)).unwrap_err();
        assert!(matches!(err, Violation::DoubleWrite { reg: 40, .. }));
    }

    #[test]
    fn rejects_format_mix_on_prototype() {
        // Under split formats a unit issues the ALU/move format or the
        // control format: a move or an ALU op beside a jump on one unit
        // conflicts whichever comes first, for the verifier and for both
        // simulators alike.
        let machine = MachineConfig::prototype();
        let layout = Layout {
            heap_size: 8,
            env_size: 8,
            cp_size: 8,
            trail_size: 8,
            pdl_size: 8,
        };
        let jmp = slot(0, Op::Jmp { t: Label(1) });
        let halt = vec![slot(0, Op::Halt { success: true })];
        let ops = [
            Op::Mv { d: R(40), s: R(41) },
            Op::MvI {
                d: R(40),
                w: Word::int(1),
            },
            Op::Alu {
                op: AluOp::Add,
                d: R(40),
                a: R(41),
                b: Operand::Imm(1),
            },
        ];
        for op in ops {
            let (op, jmp) = (slot(0, op), jmp.clone());
            for slots in [vec![op.clone(), jmp.clone()], vec![jmp, op]] {
                let p = program_of(vec![slots, halt.clone()], &[(0, 0), (1, 1)]);
                let word = p.word(0);
                assert_eq!(
                    verify_program(&p, &machine),
                    Err(Violation::FormatConflict { at: 0, unit: 0 }),
                    "{word:?}"
                );
                let conflict = Err(SimError::FormatConflict { at: 0, unit: 0 });
                let legacy = VliwSim::new(&p, machine, &layout).run(&SimConfig::default());
                assert_eq!(legacy, conflict, "legacy {word:?}");
                let decoded = DecodedVliw::new(&p, machine);
                let fast = DecodedVliwSim::new(&decoded, &layout).run(&SimConfig::default());
                assert_eq!(fast, conflict, "decoded {word:?}");
                // fine on a machine without the restriction
                assert!(verify_program(&p, &MachineConfig::units(3)).is_ok());
            }
        }
    }
}
