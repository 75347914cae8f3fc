//! Cycle-accurate VLIW simulator.
//!
//! Executes a [`VliwProgram`] on a [`MachineConfig`], validating as it
//! goes that the schedule respects the machine: every issued word
//! against [`MachineConfig::check_word`] (slot budgets per class, the
//! shared-memory port limit, the two-format restriction of the
//! prototype, single-writer-per-register words), and result latencies.
//! A schedule produced by a buggy compactor fails loudly here instead
//! of silently computing wrong answers or impossible speed-ups.
//!
//! Timing model (paper §4.3): one instruction word issues per cycle;
//! fall-through costs nothing; every taken control transfer pays the
//! pipelined-control bubble; loads deliver their result
//! `mem_latency` cycles after issue.

use std::error::Error;
use std::fmt;

use symbol_intcode::layout::Layout;
use symbol_intcode::{Label, Op, OpClass, Operand, Tag, Word};

use crate::machine::{MachineConfig, WordFault};
use crate::program::VliwProgram;

/// Why the simulated query stopped.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SimOutcome {
    /// `Halt { success: true }`.
    Success,
    /// `Halt { success: false }`.
    Failure,
}

/// Simulation error: either a machine-model violation (a compactor
/// bug) or a run-time fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// A word that breaks the machine's word rules
    /// ([`MachineConfig::check_word`]).
    IllegalWord {
        /// Instruction index.
        at: usize,
        /// The broken rule.
        fault: WordFault,
    },
    /// A register is read before its producer's latency elapsed.
    LatencyViolation {
        /// Instruction index.
        at: usize,
        /// The register read too early.
        reg: u32,
    },
    /// Memory access out of range.
    BadAddress {
        /// Instruction index.
        at: usize,
        /// The offending address.
        addr: i64,
    },
    /// Division by zero.
    DivideByZero {
        /// Instruction index.
        at: usize,
    },
    /// Indirect jump through a non-code word.
    BadCodeWord {
        /// Instruction index.
        at: usize,
    },
    /// Jump to a label with no address in this program.
    UnmappedLabel {
        /// Instruction index.
        at: usize,
        /// The unresolvable label.
        label: Label,
    },
    /// Cycle limit exceeded.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// Fell off the end of the program.
    RanOffEnd,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IllegalWord { at, fault } => write!(f, "{fault} at word {at}"),
            SimError::LatencyViolation { at, reg } => {
                write!(f, "r{reg} read before ready at word {at}")
            }
            SimError::BadAddress { at, addr } => {
                write!(f, "bad address {addr} at word {at}")
            }
            SimError::DivideByZero { at } => write!(f, "division by zero at word {at}"),
            SimError::BadCodeWord { at } => write!(f, "bad code word at word {at}"),
            SimError::UnmappedLabel { at, label } => {
                write!(f, "unmapped label {label} at word {at}")
            }
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            SimError::RanOffEnd => write!(f, "ran off the end of the program"),
        }
    }
}

impl Error for SimError {}

/// Result of a completed simulation. `PartialEq` compares every
/// counter exactly — the differential suites require profiled and
/// plain runs to agree bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Success or failure of the query.
    pub outcome: SimOutcome,
    /// Total machine cycles, including taken-branch bubbles.
    pub cycles: u64,
    /// Instruction words executed.
    pub instructions: u64,
    /// Operations executed.
    pub ops: u64,
    /// Taken control transfers (each paid the bubble).
    pub taken_branches: u64,
    /// Executed operations per class: memory, ALU, move, control
    /// (the event-driven simulator's resource-utilization statistics,
    /// paper §3.2).
    pub class_ops: [u64; OpClass::COUNT],
}

impl SimResult {
    /// Average operations issued per cycle.
    pub fn issue_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 / self.cycles as f64
        }
    }

    /// Utilization of a resource class against its per-cycle budget
    /// (fraction of slot-cycles actually used).
    pub fn utilization(&self, machine: &MachineConfig, class: OpClass) -> f64 {
        let budget = machine.slots(class) as u64 * self.cycles;
        if budget == 0 {
            0.0
        } else {
            self.class_ops[class.index()] as f64 / budget as f64
        }
    }
}

/// Simulation limits.
#[derive(Copy, Clone, Debug)]
pub struct SimConfig {
    /// Abort after this many cycles.
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 2_000_000_000,
        }
    }
}

/// The VLIW machine state.
#[derive(Debug)]
pub struct VliwSim<'a> {
    program: &'a VliwProgram,
    machine: MachineConfig,
    regs: Vec<Word>,
    ready: Vec<u64>,
    mem: Vec<Word>,
    pc: usize,
}

impl<'a> VliwSim<'a> {
    /// Creates a simulator with zeroed state.
    pub fn new(program: &'a VliwProgram, machine: MachineConfig, layout: &Layout) -> Self {
        let max_reg = program
            .slots()
            .iter()
            .flat_map(|s| s.op.uses().into_iter().chain(s.op.def()))
            .map(|r| r.0)
            .max()
            .unwrap_or(0);
        VliwSim {
            program,
            machine,
            regs: vec![Word::int(0); max_reg as usize + 1],
            ready: vec![0; max_reg as usize + 1],
            mem: vec![Word::int(0); layout.total()],
            pc: program.label_addr(program.entry()),
        }
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on any machine-model violation or
    /// run-time fault; Prolog failure is a normal outcome.
    pub fn run(&mut self, cfg: &SimConfig) -> Result<SimResult, SimError> {
        let program = self.program;
        let mut cycle: u64 = 0;
        let mut executed: u64 = 0;
        let mut ops: u64 = 0;
        let mut taken: u64 = 0;
        let mut class_ops = [0u64; OpClass::COUNT];
        let mut reg_writes: Vec<(u32, Word, u64)> = Vec::new();
        let mut mem_writes: Vec<(i64, Word)> = Vec::new();

        loop {
            if cycle >= cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: cfg.max_cycles,
                });
            }
            let at = self.pc;
            if at >= program.len() {
                return Err(SimError::RanOffEnd);
            }
            let word = program.word(at);
            executed += 1;
            ops += word.len() as u64;
            for slot in word {
                class_ops[slot.op.class().index()] += 1;
            }

            self.machine
                .check_word(word)
                .map_err(|fault| SimError::IllegalWord { at, fault })?;

            // Phase 1: evaluate everything against the pre-state.
            reg_writes.clear();
            mem_writes.clear();
            let mut transfer: Option<Option<usize>> = None; // Some(None) = halt-success marker handled below
            let mut halt: Option<SimOutcome> = None;

            for s in word {
                // Latency check on every read.
                for r in s.op.uses() {
                    if self.ready[r.0 as usize] > cycle {
                        return Err(SimError::LatencyViolation { at, reg: r.0 });
                    }
                }
                match &s.op {
                    Op::Ld { d, base, off } => {
                        let addr = self.regs[base.0 as usize].val + *off as i64;
                        let w = match self.load(addr, at) {
                            Ok(w) => w,
                            // dismissable speculative load: the value is
                            // dead on the faulting path
                            Err(_) if s.speculative => Word::int(0),
                            Err(e) => return Err(e),
                        };
                        reg_writes.push((d.0, w, cycle + self.machine.mem_latency as u64));
                    }
                    Op::St { s: src, base, off } => {
                        let addr = self.regs[base.0 as usize].val + *off as i64;
                        self.check_addr(addr, at)?;
                        mem_writes.push((addr, self.regs[src.0 as usize]));
                    }
                    Op::Mv { d, s: src } => {
                        reg_writes.push((d.0, self.regs[src.0 as usize], cycle + 1));
                    }
                    Op::MvI { d, w } => reg_writes.push((d.0, *w, cycle + 1)),
                    Op::Alu { op, d, a, b } => {
                        let av = self.regs[a.0 as usize].val;
                        let bv = self.operand(b);
                        let v = match op.eval(av, bv) {
                            Some(v) => v,
                            None if s.speculative => 0,
                            None => return Err(SimError::DivideByZero { at }),
                        };
                        reg_writes.push((
                            d.0,
                            Word::int(v),
                            cycle + self.machine.alu_latency as u64,
                        ));
                    }
                    Op::AddA { d, a, b } => {
                        let aw = self.regs[a.0 as usize];
                        let bv = self.operand(b);
                        reg_writes.push((
                            d.0,
                            Word {
                                tag: aw.tag,
                                val: aw.val.wrapping_add(bv),
                            },
                            cycle + self.machine.alu_latency as u64,
                        ));
                    }
                    Op::MkTag { d, s: src, tag } => {
                        let v = self.regs[src.0 as usize].val;
                        reg_writes.push((
                            d.0,
                            Word { tag: *tag, val: v },
                            cycle + self.machine.alu_latency as u64,
                        ));
                    }
                    Op::Br { cond, a, b, t } => {
                        if transfer.is_none() && halt.is_none() {
                            let av = self.regs[a.0 as usize].val;
                            let bv = self.operand(b);
                            if cond.eval(av, bv) {
                                transfer = Some(Some(self.resolve(*t, at)?));
                            }
                        }
                    }
                    Op::BrTag { a, tag, eq, t } => {
                        if transfer.is_none() && halt.is_none() {
                            let c = (self.regs[a.0 as usize].tag == *tag) == *eq;
                            if c {
                                transfer = Some(Some(self.resolve(*t, at)?));
                            }
                        }
                    }
                    Op::BrWord { a, w, eq, t } => {
                        if transfer.is_none() && halt.is_none() {
                            let c = (self.regs[a.0 as usize] == *w) == *eq;
                            if c {
                                transfer = Some(Some(self.resolve(*t, at)?));
                            }
                        }
                    }
                    Op::BrWEq { a, b, eq, t } => {
                        if transfer.is_none() && halt.is_none() {
                            let c = (self.regs[a.0 as usize] == self.regs[b.0 as usize]) == *eq;
                            if c {
                                transfer = Some(Some(self.resolve(*t, at)?));
                            }
                        }
                    }
                    Op::Jmp { t } => {
                        if transfer.is_none() && halt.is_none() {
                            transfer = Some(Some(self.resolve(*t, at)?));
                        }
                    }
                    Op::JmpR { r } => {
                        if transfer.is_none() && halt.is_none() {
                            let w = self.regs[r.0 as usize];
                            if w.tag != Tag::Cod {
                                return Err(SimError::BadCodeWord { at });
                            }
                            transfer = Some(Some(self.resolve(Label(w.val as u32), at)?));
                        }
                    }
                    Op::Halt { success } => {
                        if transfer.is_none() && halt.is_none() {
                            halt = Some(if *success {
                                SimOutcome::Success
                            } else {
                                SimOutcome::Failure
                            });
                        }
                    }
                }
            }

            // Phase 2: commit.
            for &(r, w, rdy) in &reg_writes {
                self.regs[r as usize] = w;
                self.ready[r as usize] = rdy;
            }
            for &(addr, w) in &mem_writes {
                self.mem[addr as usize] = w;
            }

            if let Some(outcome) = halt {
                return Ok(SimResult {
                    outcome,
                    cycles: cycle + 1,
                    instructions: executed,
                    ops,
                    taken_branches: taken,
                    class_ops,
                });
            }
            match transfer {
                Some(Some(target)) => {
                    taken += 1;
                    cycle += 1 + self.machine.taken_branch_penalty as u64;
                    self.pc = target;
                }
                _ => {
                    cycle += 1;
                    self.pc = at + 1;
                }
            }
        }
    }

    /// Resolves the target of a taken control transfer, direct or read
    /// from a `Cod`-tagged register; a label with no address in this
    /// program is reported then, not at load time.
    fn resolve(&self, l: Label, at: usize) -> Result<usize, SimError> {
        let a = self.program.label_addr(l);
        if a == usize::MAX {
            Err(SimError::UnmappedLabel { at, label: l })
        } else {
            Ok(a)
        }
    }

    fn operand(&self, o: &Operand) -> i64 {
        match o {
            Operand::Reg(r) => self.regs[r.0 as usize].val,
            Operand::Imm(i) => *i,
        }
    }

    fn check_addr(&self, addr: i64, at: usize) -> Result<(), SimError> {
        if addr < 0 || addr as usize >= self.mem.len() {
            Err(SimError::BadAddress { at, addr })
        } else {
            Ok(())
        }
    }

    fn load(&self, addr: i64, at: usize) -> Result<Word, SimError> {
        self.check_addr(addr, at)?;
        Ok(self.mem[addr as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{from_words, SlotOp};
    use symbol_intcode::{AluOp, Cond, R};

    fn tiny_layout() -> Layout {
        Layout {
            heap_size: 64,
            env_size: 64,
            cp_size: 64,
            trail_size: 64,
            pdl_size: 64,
        }
    }

    fn word(ops: Vec<Op>) -> Vec<SlotOp> {
        ops.into_iter()
            .enumerate()
            .map(|(u, op)| SlotOp {
                unit: u,
                op,
                speculative: false,
            })
            .collect()
    }

    fn run_words(instrs: Vec<Vec<SlotOp>>, machine: MachineConfig) -> Result<SimResult, SimError> {
        let p = from_words(instrs, &[(0, 0)]);
        VliwSim::new(&p, machine, &tiny_layout()).run(&SimConfig::default())
    }

    #[test]
    fn word_resources_honor_extra_memory_ports() {
        // Two loads in one word: illegal on the paper's single-ported
        // machine, legal once the sweep grants a second port.
        let two_loads = word(vec![
            Op::Ld {
                d: R(40),
                base: R(41),
                off: 0,
            },
            Op::Ld {
                d: R(42),
                base: R(41),
                off: 1,
            },
        ]);
        let one_port = MachineConfig::units(2);
        assert_eq!(
            one_port.check_word(&two_loads),
            Err(WordFault::SlotOverflow {
                class: OpClass::Memory
            })
        );
        let two_ports = MachineConfig {
            mem_ports: 2,
            ..one_port
        };
        assert!(two_ports.check_word(&two_loads).is_ok());
        // The port budget is still clamped by the unit count: 4 ports
        // on 2 units cannot issue 3 memory ops. Laid out one per unit,
        // the third needs a unit the machine does not have.
        let three_loads = word(vec![
            Op::Ld {
                d: R(40),
                base: R(41),
                off: 0,
            },
            Op::Ld {
                d: R(42),
                base: R(41),
                off: 1,
            },
            Op::Ld {
                d: R(43),
                base: R(41),
                off: 2,
            },
        ]);
        let many_ports = MachineConfig {
            mem_ports: 4,
            issue_width: 4,
            ..MachineConfig::units(2)
        };
        assert_eq!(many_ports.slots(OpClass::Memory), 2);
        assert_eq!(
            many_ports.check_word(&three_loads),
            Err(WordFault::NoSuchUnit { unit: 2 })
        );
    }

    #[test]
    fn word_resources_honor_issue_width_below_units() {
        // A sweep corner: 4 units but only 2 issue slots per cycle.
        // Width binds before any per-class budget.
        let narrow = MachineConfig {
            issue_width: 2,
            ..MachineConfig::units(4)
        };
        let three_moves = word(vec![
            Op::Mv { d: R(40), s: R(41) },
            Op::Mv { d: R(42), s: R(41) },
            Op::Mv { d: R(43), s: R(41) },
        ]);
        assert_eq!(
            narrow.check_word(&three_moves),
            Err(WordFault::WidthOverflow)
        );
        let two_moves = word(vec![
            Op::Mv { d: R(40), s: R(41) },
            Op::Mv { d: R(42), s: R(41) },
        ]);
        assert!(narrow.check_word(&two_moves).is_ok());
    }

    #[test]
    fn zero_latency_machine_executes_correctly() {
        // The zero-latency corner of the grid: results are ready in
        // the next cycle and taken branches cost nothing extra. The
        // program must still produce the right answer and run in no
        // more cycles than the paper's timing.
        let zero = MachineConfig {
            mem_latency: 0,
            alu_latency: 0,
            taken_branch_penalty: 0,
            ..MachineConfig::units(2)
        };
        let instrs = vec![
            word(vec![Op::MvI {
                d: R(40),
                w: Word::int(20),
            }]),
            word(vec![Op::Alu {
                op: AluOp::Add,
                d: R(40),
                a: R(40),
                b: Operand::Imm(1),
            }]),
            word(vec![Op::Br {
                cond: Cond::Lt,
                a: R(40),
                b: Operand::Imm(30),
                t: Label(1),
            }]),
            word(vec![Op::Halt { success: true }]),
        ];
        let labels = [(0, 0), (1, 1)];
        let p = from_words(instrs, &labels);
        let fast = VliwSim::new(&p, zero, &tiny_layout())
            .run(&SimConfig::default())
            .expect("zero-latency machine runs");
        assert_eq!(fast.outcome, SimOutcome::Success);
        let paper = VliwSim::new(&p, MachineConfig::units(2), &tiny_layout())
            .run(&SimConfig::default())
            .expect("paper machine runs");
        assert_eq!(paper.outcome, SimOutcome::Success);
        assert!(fast.cycles <= paper.cycles);
        assert_eq!(fast.ops, paper.ops, "timing must not change the work");
    }

    #[test]
    fn cycle_limit_enforced() {
        // an unconditional self-loop must hit the configured limit
        let labels = [(0, 0)];
        let instrs = vec![word(vec![Op::Jmp { t: Label(0) }])];
        let p = from_words(instrs, &labels);
        let err = VliwSim::new(&p, MachineConfig::units(1), &tiny_layout())
            .run(&SimConfig { max_cycles: 1000 })
            .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 1000 }));
    }

    #[test]
    fn swap_semantics_success() {
        let instrs = vec![
            word(vec![
                Op::MvI {
                    d: R(40),
                    w: Word::int(1),
                },
                Op::MvI {
                    d: R(41),
                    w: Word::int(2),
                },
            ]),
            vec![],
            word(vec![
                Op::Mv { d: R(40), s: R(41) },
                Op::Mv { d: R(41), s: R(40) },
            ]),
            vec![],
            word(vec![Op::Br {
                cond: Cond::Ne,
                a: R(41),
                b: Operand::Imm(1),
                t: Label(1),
            }]),
            word(vec![Op::Halt { success: true }]),
            word(vec![Op::Halt { success: false }]), // label 1: r41 != 1
        ];
        let labels = [(0, 0), (1, 6)];
        let p = from_words(instrs, &labels);
        let r = VliwSim::new(&p, MachineConfig::units(4), &tiny_layout())
            .run(&SimConfig::default())
            .unwrap();
        assert_eq!(r.outcome, SimOutcome::Success, "swap must read pre-state");
    }

    #[test]
    fn latency_violation_detected() {
        let instrs = vec![
            word(vec![Op::MvI {
                d: R(50),
                w: Word::int(3),
            }]),
            vec![],
            word(vec![Op::Ld {
                d: R(40),
                base: R(50),
                off: 0,
            }]),
            // consumer one cycle later: too early for mem_latency 2
            word(vec![Op::Mv { d: R(41), s: R(40) }]),
            word(vec![Op::Halt { success: true }]),
        ];
        let err = run_words(instrs, MachineConfig::units(1)).unwrap_err();
        assert!(matches!(err, SimError::LatencyViolation { reg: 40, .. }));
    }

    #[test]
    fn memory_port_overflow_detected() {
        let instrs = vec![
            word(vec![Op::MvI {
                d: R(50),
                w: Word::int(3),
            }]),
            vec![],
            word(vec![
                Op::Ld {
                    d: R(40),
                    base: R(50),
                    off: 0,
                },
                Op::Ld {
                    d: R(41),
                    base: R(50),
                    off: 1,
                },
            ]),
            word(vec![Op::Halt { success: true }]),
        ];
        let err = run_words(instrs, MachineConfig::units(4)).unwrap_err();
        assert!(matches!(
            err,
            SimError::IllegalWord {
                fault: WordFault::SlotOverflow { .. },
                ..
            }
        ));
    }

    #[test]
    fn taken_branch_pays_bubble() {
        let labels = [(0, 0), (1, 1)];
        let instrs = vec![
            word(vec![Op::Jmp { t: Label(1) }]),
            word(vec![Op::Halt { success: true }]),
        ];
        let p = from_words(instrs, &labels);
        let r = VliwSim::new(&p, MachineConfig::units(1), &tiny_layout())
            .run(&SimConfig::default())
            .unwrap();
        // jump cycle (1) + bubble (1) + halt cycle (1)
        assert_eq!(r.cycles, 3);
        assert_eq!(r.taken_branches, 1);
    }

    #[test]
    fn double_write_detected() {
        let instrs = vec![
            word(vec![
                Op::MvI {
                    d: R(40),
                    w: Word::int(1),
                },
                Op::MvI {
                    d: R(40),
                    w: Word::int(2),
                },
            ]),
            word(vec![Op::Halt { success: true }]),
        ];
        let err = run_words(instrs, MachineConfig::units(4)).unwrap_err();
        assert!(matches!(
            err,
            SimError::IllegalWord {
                fault: WordFault::DoubleWrite { reg: 40 },
                ..
            }
        ));
    }

    #[test]
    fn format_conflict_detected_on_prototype() {
        let instrs = vec![
            vec![
                SlotOp {
                    unit: 0,
                    op: Op::Alu {
                        op: AluOp::Add,
                        d: R(40),
                        a: R(40),
                        b: Operand::Imm(1),
                    },
                    speculative: false,
                },
                SlotOp {
                    unit: 0,
                    op: Op::Jmp { t: Label(0) },
                    speculative: false,
                },
            ],
            word(vec![Op::Halt { success: true }]),
        ];
        let err = run_words(instrs, MachineConfig::prototype()).unwrap_err();
        assert!(matches!(
            err,
            SimError::IllegalWord {
                fault: WordFault::FormatConflict { .. },
                ..
            }
        ));
        // the same word is fine on the unrestricted machine if on one unit?
        // (unit conflict rules still apply across classes: alu+control on the
        // same unit is legal without split formats)
    }

    #[test]
    fn alu_mod_is_floored_and_rem_is_truncated() {
        // -7 mod 3 =:= 2 (floored, divisor's sign); -7 rem 3 =:= -1
        // (truncated, dividend's sign). Any other result branches to
        // the failure halt.
        let labels = [(0, 0), (1, 7)];
        let instrs = vec![
            word(vec![Op::MvI {
                d: R(40),
                w: Word::int(-7),
            }]),
            vec![],
            word(vec![Op::Alu {
                op: AluOp::Mod,
                d: R(41),
                a: R(40),
                b: Operand::Imm(3),
            }]),
            word(vec![Op::Alu {
                op: AluOp::Rem,
                d: R(42),
                a: R(40),
                b: Operand::Imm(3),
            }]),
            word(vec![Op::Br {
                cond: Cond::Ne,
                a: R(41),
                b: Operand::Imm(2),
                t: Label(1),
            }]),
            word(vec![Op::Br {
                cond: Cond::Ne,
                a: R(42),
                b: Operand::Imm(-1),
                t: Label(1),
            }]),
            word(vec![Op::Halt { success: true }]),
            word(vec![Op::Halt { success: false }]), // label 1
        ];
        let p = from_words(instrs, &labels);
        let r = VliwSim::new(&p, MachineConfig::units(1), &tiny_layout())
            .run(&SimConfig::default())
            .unwrap();
        assert_eq!(r.outcome, SimOutcome::Success);
    }

    #[test]
    fn multiway_branch_priority() {
        // two branches, both true: the first (priority) wins
        let labels = [(0, 0), (1, 1), (2, 2)];
        let instrs = vec![
            word(vec![Op::Jmp { t: Label(1) }, Op::Jmp { t: Label(2) }]),
            word(vec![Op::Halt { success: true }]),  // label 1
            word(vec![Op::Halt { success: false }]), // label 2
        ];
        let p = from_words(instrs, &labels);
        let r = VliwSim::new(&p, MachineConfig::units(2), &tiny_layout())
            .run(&SimConfig::default())
            .unwrap();
        assert_eq!(r.outcome, SimOutcome::Success);
    }
}
