//! Static schedule verification.
//!
//! The VLIW simulator validates every *executed* instruction word, but
//! profile-guided compaction also emits cold code the profile never
//! touches. This verifier checks the whole program statically, every
//! word against the machine's word rules
//! ([`MachineConfig::check_word`]: issue width, per-unit slot and
//! format conflicts, per-class slot budgets including the shared memory
//! port, one writer per register) — the check the simulators run.
//! [`crate::Compactor::compact`] runs it on every schedule it produces.

use std::fmt;

use symbol_vliw::{MachineConfig, VliwProgram, WordFault};

/// A static violation of the machine model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A word breaks the machine's word rules.
    IllegalWord {
        /// Instruction index.
        at: usize,
        /// The broken rule.
        fault: WordFault,
    },
    /// The machine has no slot for a resource, so no schedule exists
    /// ([`MachineConfig::missing_slot`]).
    /// [`crate::Compactor::compact`] checks this before scheduling.
    NoSlot {
        /// `"issue"` or the name of the op class.
        resource: &'static str,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::IllegalWord { at, fault } => write!(f, "{fault} at word {at}"),
            Violation::NoSlot { resource } => {
                write!(f, "the machine has no {resource} slot")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Verifies every instruction word of `program` against `machine`.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn verify_program(program: &VliwProgram, machine: &MachineConfig) -> Result<(), Violation> {
    for (at, word) in program.words().enumerate() {
        machine
            .check_word(word)
            .map_err(|fault| Violation::IllegalWord { at, fault })?;
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
        assert!(matches!(
            err,
            Violation::IllegalWord {
                fault: WordFault::WidthOverflow,
                ..
            }
        ));
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
        assert!(matches!(
            err,
            Violation::IllegalWord {
                fault: WordFault::SlotOverflow { .. },
                ..
            }
        ));
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
        assert!(matches!(
            err,
            Violation::IllegalWord {
                fault: WordFault::DoubleWrite { reg: 40 },
                ..
            }
        ));
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
                let fault = WordFault::FormatConflict { unit: 0 };
                assert_eq!(
                    verify_program(&p, &machine),
                    Err(Violation::IllegalWord { at: 0, fault }),
                    "{word:?}"
                );
                let conflict = Err(SimError::IllegalWord { at: 0, fault });
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
