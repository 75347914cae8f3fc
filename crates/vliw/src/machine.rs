//! Machine configurations and the rules an instruction word must keep.
//!
//! The paper's target (§4.5, Figure 5) is a *parallel synchronous
//! non-homogeneous architecture*: N identical units, each able to start
//! one memory access, one ALU operation, one control operation and one
//! local move per cycle, sharing one data memory and one control flow.
//! The shared-memory model admits one memory access per cycle in total
//! — that is what makes Amdahl's ≈3× ceiling bind (§4.2).
//!
//! The per-word rules are written once, here. [`MachineConfig::check_word`]
//! is the static check that the compactor's verifier and both
//! simulators run; [`WordUse`] is the admission rule and unit numbering
//! the list scheduler builds words with, and a word it builds passes
//! the check.

use std::fmt;

use symbol_intcode::OpClass;

use crate::program::SlotOp;

/// Resource and timing description of one target configuration.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MachineConfig {
    /// Number of units. Each unit contributes one slot per class per
    /// cycle.
    pub units: usize,
    /// Total operations the machine can issue per cycle. The paper's
    /// Table 3 sweep behaves like one operation per unit per cycle
    /// (that is what makes the shared memory port bind at 3–4 units,
    /// as Amdahl's law predicts); the `wide_units` ablation lifts this
    /// to the four-slots-per-unit reading of Figure 5.
    pub issue_width: usize,
    /// Total memory accesses the shared data memory accepts per cycle
    /// (1 in the paper's shared-memory model).
    pub mem_ports: usize,
    /// Whether several branches may issue in one instruction as a
    /// prioritized multi-way branch.
    pub multiway_branch: bool,
    /// Result latency of a memory load, cycles (pipelined).
    pub mem_latency: u32,
    /// Taken-branch bubble, cycles (control ops are 2-cycle pipelined:
    /// fall-through is free, a taken transfer costs one extra cycle).
    pub taken_branch_penalty: u32,
    /// Result latency of ALU ops.
    pub alu_latency: u32,
    /// Prototype restriction (§5.1): an instruction has either the
    /// ALU/move format or the control/immediate format, so an ALU op
    /// and a control op cannot issue on the same unit in one cycle.
    pub split_formats: bool,
}

impl MachineConfig {
    /// The paper's evaluation machine with `n` units (Table 3).
    pub fn units(n: usize) -> Self {
        MachineConfig {
            units: n,
            issue_width: n,
            mem_ports: 1,
            multiway_branch: true,
            mem_latency: 2,
            taken_branch_penalty: 1,
            alu_latency: 1,
            split_formats: false,
        }
    }

    /// Ablation: `n` units each with a full memory/ALU/move/control
    /// slot set per cycle (the widest reading of Figure 5).
    pub fn wide_units(n: usize) -> Self {
        MachineConfig {
            issue_width: 4 * n,
            ..Self::units(n)
        }
    }

    /// The BAM-processor cost model: one horizontal (4-slot) unit,
    /// compaction barriers at BAM-instruction boundaries (supplied by
    /// the `BamGroups` compaction mode), and no taken-branch bubble —
    /// Holmer's BAM used 2-cycle pipelined control with a single delay
    /// slot that its compiler filled, which we model as a free taken
    /// transfer (see DESIGN.md).
    pub fn bam() -> Self {
        MachineConfig {
            taken_branch_penalty: 0,
            ..Self::wide_units(1)
        }
    }

    /// "Available concurrency" machine for Table 1: unbounded function
    /// units, shared single-ported memory.
    pub fn unbounded() -> Self {
        MachineConfig {
            units: 64,
            issue_width: 256,
            ..Self::units(1)
        }
    }

    /// The SYMBOL prototype (§5): three units with the two-format
    /// instruction restriction.
    pub fn prototype() -> Self {
        MachineConfig {
            split_formats: true,
            ..Self::units(3)
        }
    }

    /// Per-cycle slot budget for a class on the whole machine.
    pub fn slots(&self, class: OpClass) -> usize {
        use OpClass::*;
        match class {
            Memory => self.mem_ports.min(self.units),
            Alu => self.units,
            Move => self.units,
            Control => {
                if self.multiway_branch {
                    self.units
                } else {
                    1
                }
            }
        }
    }

    /// The resource this machine offers no slot for, if any: an issue
    /// slot, then each op class in [`OpClass::ALL`] order. A machine
    /// without one — no units, an issue width of 0, no memory port —
    /// cannot issue every op, so no schedule for it exists.
    pub fn missing_slot(&self) -> Option<&'static str> {
        if self.issue_width == 0 {
            return Some("issue");
        }
        OpClass::ALL
            .into_iter()
            .find(|&class| self.slots(class) == 0)
            .map(OpClass::name)
    }

    /// Checks one instruction word against the machine, in one order
    /// for every caller: the issue width; then, slot by slot, one op per
    /// unit and class and, under split formats, no control op on a unit
    /// with an ALU or move op; then each class's [`MachineConfig::slots`];
    /// then one writer per register.
    ///
    /// The verdict depends only on the word and the machine. Each slot
    /// is compared with the earlier slots of its word, so the check
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// The first [`WordFault`] in that order.
    pub fn check_word(&self, word: &[SlotOp]) -> Result<(), WordFault> {
        if word.len() > self.issue_width {
            return Err(WordFault::WidthOverflow);
        }
        let mut used = [0usize; OpClass::COUNT];
        for (i, s) in word.iter().enumerate() {
            let class = s.op.class();
            used[class.index()] += 1;
            let on_unit = || {
                word[..i]
                    .iter()
                    .filter(|e| e.unit == s.unit)
                    .map(|e| e.op.class())
            };
            let unit = || u32::try_from(s.unit).unwrap_or(u32::MAX);
            if on_unit().any(|c| c == class) {
                return Err(WordFault::UnitConflict { unit: unit() });
            }
            if self.split_formats && on_unit().any(|c| formats_clash(c, class)) {
                return Err(WordFault::FormatConflict { unit: unit() });
            }
        }
        for class in OpClass::ALL {
            if used[class.index()] > self.slots(class) {
                return Err(WordFault::SlotOverflow { class });
            }
        }
        for (i, s) in word.iter().enumerate() {
            if let Some(r) = s.op.def() {
                if word[..i].iter().any(|e| e.op.def() == Some(r)) {
                    return Err(WordFault::DoubleWrite { reg: r.0 });
                }
            }
        }
        Ok(())
    }

    /// Relative hardware cost of this configuration, the x-axis of the
    /// design-space sweep's Pareto frontier (cycles vs. cost).
    ///
    /// The model is a linear silicon-budget estimate in arbitrary
    /// "unit-equivalents"; the weights are documented in DESIGN.md and
    /// deliberately coarse — the frontier's *shape* is the result, not
    /// the absolute numbers:
    ///
    /// * `1.0` per unit (register ports, bypass, one ALU datapath),
    /// * `0.25` per issue slot (decode + dispatch width),
    /// * `2.0` per memory port — the shared data memory is the
    ///   expensive resource the paper's whole analysis revolves around,
    /// * `4.0 / (mem_latency + 1)`: faster memory costs more
    ///   (a 1-cycle port costs 2.0, the paper's 2-cycle port 1.33),
    /// * `2.0 / (taken_branch_penalty + 1)`: a zero-bubble front end
    ///   costs 2.0, the paper's 1-bubble front end 1.0,
    /// * `+0.5` per unit for prioritized multi-way branching (per-unit
    ///   branch resolution and the priority network),
    /// * `-0.25` per unit with the prototype's two-format restriction
    ///   (§5.1): the restriction exists precisely because it makes the
    ///   instruction fetch path cheaper.
    ///
    /// Deterministic: same configuration, same `f64`, bit for bit.
    pub fn hardware_cost(&self) -> f64 {
        let units = self.units as f64;
        let mut cost = units;
        cost += 0.25 * self.issue_width as f64;
        cost += 2.0 * self.mem_ports as f64;
        cost += 4.0 / (self.mem_latency as f64 + 1.0);
        cost += 2.0 / (self.taken_branch_penalty as f64 + 1.0);
        if self.multiway_branch {
            cost += 0.5 * units;
        }
        if self.split_formats {
            cost -= 0.25 * units;
        }
        cost
    }

    /// Compact, stable one-line description of the configuration, used
    /// as the row label of the sweep reports: e.g.
    /// `u3 w3 p1 ml2 bp1 mw` (units, issue width, memory ports, memory
    /// latency, branch penalty, then `mw`/`1w` for multi-way vs.
    /// single-branch issue and a trailing `sf` for split formats).
    pub fn describe(&self) -> String {
        format!(
            "u{} w{} p{} ml{} bp{} {}{}",
            self.units,
            self.issue_width,
            self.mem_ports,
            self.mem_latency,
            self.taken_branch_penalty,
            if self.multiway_branch { "mw" } else { "1w" },
            if self.split_formats { " sf" } else { "" },
        )
    }

    /// The machine's operation durations and control timing.
    pub fn timing(&self) -> Timing {
        Timing {
            mem_latency: self.mem_latency,
            alu_latency: self.alu_latency,
            taken_branch_penalty: self.taken_branch_penalty,
            multiway_branch: self.multiway_branch,
        }
    }

    /// Result latency for an op.
    pub fn latency(&self, op: &symbol_intcode::Op) -> u32 {
        self.timing().latency(op)
    }
}

/// Whether ops of classes `a` and `b` need different formats of the
/// prototype's two (§5.1): the ALU/move format and the control format.
/// A memory op fits either.
fn formats_clash(a: OpClass, b: OpClass) -> bool {
    use OpClass::*;
    matches!((a, b), (Alu | Move, Control) | (Control, Alu | Move))
}

/// Why an instruction word does not fit a machine
/// ([`MachineConfig::check_word`]).
///
/// It is eight bytes, so that [`crate::SimError`] stays three words
/// with a tag of its own. With a `usize` field here the compiler packs
/// that tag into this type's, and the decoded simulator's issue loop
/// ran 10–15% slower (measured on a 2-vCPU Xeon VM).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WordFault {
    /// More ops than the machine's issue width.
    WidthOverflow,
    /// Two ops of one class on one unit.
    UnitConflict {
        /// The unit (`u32::MAX` for a unit number beyond it).
        unit: u32,
    },
    /// A control op and an ALU or move op on one unit under split
    /// formats.
    FormatConflict {
        /// The unit (`u32::MAX` for a unit number beyond it).
        unit: u32,
    },
    /// More ops of a class than the machine has slots for it.
    SlotOverflow {
        /// The class.
        class: OpClass,
    },
    /// Two ops write one register.
    DoubleWrite {
        /// The register.
        reg: u32,
    },
}

impl fmt::Display for WordFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WordFault::WidthOverflow => write!(f, "issue width exceeded"),
            WordFault::UnitConflict { unit } => write!(f, "unit {unit} oversubscribed"),
            WordFault::FormatConflict { unit } => write!(f, "format conflict on unit {unit}"),
            WordFault::SlotOverflow { class } => write!(f, "slot overflow for class {class}"),
            WordFault::DoubleWrite { reg } => write!(f, "double write of r{reg}"),
        }
    }
}

impl std::error::Error for WordFault {}

/// The ops of each class placed in one instruction word so far: the
/// list scheduler's side of [`MachineConfig::check_word`]. It admits
/// ops by count and numbers each class's ops onto units, so that a word
/// built from the ops it admitted passes the check.
#[derive(Copy, Clone, Default, Debug)]
pub struct WordUse([usize; OpClass::COUNT]);

impl WordUse {
    /// Whether one more op of `class` fits the word on `machine`: within
    /// the issue width and the class's slots and, under split formats,
    /// with the control ops on units of their own beside the ALU and
    /// move ops, which share units (control + max(ALU, move) ≤ units).
    pub fn fits(&self, machine: &MachineConfig, class: OpClass) -> bool {
        let mut used = self.0;
        used[class.index()] += 1;
        let count = |c: OpClass| used[c.index()];
        used.iter().sum::<usize>() <= machine.issue_width
            && count(class) <= machine.slots(class)
            && (!machine.split_formats
                || count(OpClass::Control) + count(OpClass::Alu).max(count(OpClass::Move))
                    <= machine.units)
    }

    /// Counts one more op of `class` and returns the unit it issues on:
    /// the `k`-th op of a class takes unit `k` (modulo the unit count),
    /// except that under split formats control ops take the highest
    /// units, to keep the formats apart.
    ///
    /// # Panics
    ///
    /// Panics if `machine` has no units.
    pub fn add(&mut self, machine: &MachineConfig, class: OpClass) -> usize {
        let k = self.0[class.index()] % machine.units;
        self.0[class.index()] += 1;
        if machine.split_formats && class == OpClass::Control {
            machine.units - 1 - k
        } else {
            k
        }
    }
}

/// The part of a [`MachineConfig`] that fixes when an op's result and a
/// control transfer take effect: result latencies, the taken-branch
/// bubble, and whether branches may share a word. Machines with equal
/// timing differ only in resources — units, issue width, memory ports,
/// formats — so a trace's dependence graph, which reads nothing else,
/// is the same for all of them.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Timing {
    /// Result latency of a memory load, cycles.
    pub mem_latency: u32,
    /// Result latency of ALU ops.
    pub alu_latency: u32,
    /// Taken-branch bubble, cycles.
    pub taken_branch_penalty: u32,
    /// Whether several branches may issue in one instruction.
    pub multiway_branch: bool,
}

impl Timing {
    /// Result latency for an op.
    pub fn latency(&self, op: &symbol_intcode::Op) -> u32 {
        use symbol_intcode::OpClass::*;
        match op.class() {
            Memory => self.mem_latency,
            Alu => self.alu_latency,
            Move => 1,
            Control => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_memory_is_single_ported() {
        let m = MachineConfig::units(4);
        assert_eq!(m.slots(OpClass::Memory), 1);
        assert_eq!(m.slots(OpClass::Alu), 4);
    }

    #[test]
    fn unbounded_still_respects_memory() {
        let m = MachineConfig::unbounded();
        assert_eq!(m.slots(OpClass::Memory), 1);
        assert!(m.slots(OpClass::Alu) >= 64);
    }

    #[test]
    fn prototype_has_split_formats() {
        assert!(MachineConfig::prototype().split_formats);
        assert!(!MachineConfig::units(3).split_formats);
    }

    #[test]
    fn hardware_cost_orders_machines_sensibly() {
        // More units cost more, all else equal.
        assert!(MachineConfig::units(5).hardware_cost() > MachineConfig::units(1).hardware_cost());
        // A second memory port is a real expense.
        let base = MachineConfig::units(3);
        let two_ports = MachineConfig {
            mem_ports: 2,
            ..base
        };
        assert!(two_ports.hardware_cost() > base.hardware_cost());
        // Faster memory costs more than slower memory.
        let fast = MachineConfig {
            mem_latency: 1,
            ..base
        };
        let slow = MachineConfig {
            mem_latency: 4,
            ..base
        };
        assert!(fast.hardware_cost() > slow.hardware_cost());
        // The prototype's format restriction is a discount.
        assert!(MachineConfig::prototype().hardware_cost() < base.hardware_cost());
        // Deterministic, bit for bit.
        assert_eq!(
            base.hardware_cost().to_bits(),
            MachineConfig::units(3).hardware_cost().to_bits()
        );
    }

    #[test]
    fn admission_agrees_with_the_word_check() {
        // On random machines, `WordUse` admits a word's per-class op
        // counts exactly when `check_word` accepts the word laid out on
        // the units `WordUse` numbers it with, in any slot order.
        use symbol_intcode::{AluOp, Label, Op, Operand, R};
        let mut rng = crate::Rng(0x005e_ed0f_a9ee_3e17);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for case in 0..4000 {
            let units = 1 + rng.below(6) as usize;
            let machine = MachineConfig {
                units,
                issue_width: units * (1 + rng.below(4) as usize),
                mem_ports: 1 + rng.below(4) as usize,
                multiway_branch: rng.below(2) == 0,
                split_formats: rng.below(2) == 0,
                ..MachineConfig::units(units)
            };
            let mut classes: Vec<OpClass> = OpClass::ALL
                .into_iter()
                .flat_map(|c| std::iter::repeat_n(c, rng.below(units as u64 + 2) as usize))
                .collect();
            for i in (1..classes.len()).rev() {
                classes.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut word = WordUse::default();
            let mut admitted = true;
            let slots: Vec<SlotOp> = classes
                .iter()
                .zip(40..)
                .map(|(&class, d)| {
                    admitted &= word.fits(&machine, class);
                    let d = R(d);
                    let op = match class {
                        OpClass::Memory => Op::Ld {
                            d,
                            base: R(1),
                            off: 0,
                        },
                        OpClass::Alu => Op::Alu {
                            op: AluOp::Add,
                            d,
                            a: R(1),
                            b: Operand::Imm(1),
                        },
                        OpClass::Move => Op::Mv { d, s: R(1) },
                        OpClass::Control => Op::Jmp { t: Label(0) },
                    };
                    SlotOp {
                        unit: word.add(&machine, class),
                        op,
                        speculative: false,
                    }
                })
                .collect();
            let checked = machine.check_word(&slots);
            assert_eq!(
                admitted,
                checked.is_ok(),
                "case {case}, {}: {checked:?} {slots:?}",
                machine.describe()
            );
            if admitted {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted >= 400 && rejected >= 400,
            "{accepted} / {rejected}"
        );
    }

    #[test]
    fn describe_is_stable_and_distinct() {
        assert_eq!(MachineConfig::units(3).describe(), "u3 w3 p1 ml2 bp1 mw");
        assert_eq!(
            MachineConfig::prototype().describe(),
            "u3 w3 p1 ml2 bp1 mw sf"
        );
        let narrow = MachineConfig {
            multiway_branch: false,
            mem_ports: 2,
            ..MachineConfig::wide_units(2)
        };
        assert_eq!(narrow.describe(), "u2 w8 p2 ml2 bp1 1w");
    }
}
