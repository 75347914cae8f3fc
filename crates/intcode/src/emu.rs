//! The IntCode sequential emulator.
//!
//! Executes an [`IciProgram`] one op at a time, validating the program
//! and collecting the statistics the back-end compiler needs (paper
//! §3.1): the *Expect* of every op (execution count) and, for every
//! conditional branch, the probability of being taken.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use crate::layout::Layout;
use crate::op::{Label, Op, OpClass, Operand, R};
use crate::program::IciProgram;
use crate::word::{Tag, Word};

/// Execution limits.
#[derive(Copy, Clone, Debug)]
pub struct ExecConfig {
    /// Abort after this many executed ops.
    pub max_steps: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 2_000_000_000,
        }
    }
}

/// Why execution stopped.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// `Halt { success: true }` was reached: the query succeeded.
    Success,
    /// `Halt { success: false }`: the query exhausted all choices.
    Failure,
}

/// Run-time error (a malformed program or exhausted resources).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// Memory access outside the data space.
    BadAddress {
        /// The offending address.
        addr: i64,
        /// Op index.
        at: usize,
    },
    /// Division or remainder by zero.
    DivideByZero {
        /// Op index.
        at: usize,
    },
    /// Indirect jump through a non-code word.
    BadCodeWord {
        /// The word jumped through.
        word: Word,
        /// Op index.
        at: usize,
    },
    /// Indirect jump through a code word whose label id has no
    /// address in this program.
    UnmappedLabel {
        /// The unresolvable label.
        label: Label,
        /// Op index.
        at: usize,
    },
    /// The step limit was exceeded.
    StepLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// Execution ran off the end of the program.
    RanOffEnd,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadAddress { addr, at } => {
                write!(f, "bad memory address {addr} at op {at}")
            }
            ExecError::DivideByZero { at } => write!(f, "division by zero at op {at}"),
            ExecError::BadCodeWord { word, at } => {
                write!(f, "indirect jump through non-code word {word} at op {at}")
            }
            ExecError::UnmappedLabel { label, at } => {
                write!(f, "indirect jump to unmapped label {label} at op {at}")
            }
            ExecError::StepLimit { limit } => write!(f, "step limit {limit} exceeded"),
            ExecError::RanOffEnd => write!(f, "execution ran off the end of the program"),
        }
    }
}

impl Error for ExecError {}

/// Per-op execution statistics.
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Execution count of each op (the paper's *Expect*).
    pub expect: Vec<u64>,
    /// For conditional branches: times the branch was taken.
    pub taken: Vec<u64>,
}

impl ExecStats {
    /// Total executed ops.
    pub fn total(&self) -> u64 {
        self.expect.iter().sum()
    }

    /// Dynamic op count per class.
    pub fn class_counts(&self, program: &IciProgram) -> [(OpClass, u64); OpClass::COUNT] {
        let mut counts = OpClass::ALL.map(|c| (c, 0));
        for (i, op) in program.ops().iter().enumerate() {
            counts[op.class().index()].1 += self.expect[i];
        }
        counts
    }

    /// The `n` most-executed op indices with their counts, descending
    /// by count (ties broken by op index). Never-executed ops are
    /// omitted — the basis of the hot-block report.
    pub fn hot_pcs(&self, n: usize) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .expect
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        v.truncate(n);
        v
    }

    /// Probability that branch op `i` of `program` is taken.
    ///
    /// Returns `None` when `i` is out of range, when op `i` is not a
    /// conditional branch (unconditional jumps, indirect jumps and
    /// halts have no taken-probability), or when the op was never
    /// executed.
    pub fn taken_probability(&self, program: &IciProgram, i: usize) -> Option<f64> {
        let op = program.ops().get(i)?;
        if !op.is_conditional_branch() || i >= self.expect.len() || self.expect[i] == 0 {
            None
        } else {
            Some(self.taken[i] as f64 / self.expect[i] as f64)
        }
    }
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Success or failure of the query.
    pub outcome: Outcome,
    /// Total executed ops.
    pub steps: u64,
    /// Per-op statistics.
    pub stats: ExecStats,
}

/// The sequential machine state.
#[derive(Debug)]
pub struct Emulator<'a> {
    program: &'a IciProgram,
    /// Pre-decoded direct branch target of each op: every `Label`
    /// operand resolved to its instruction index at program-load time
    /// (`usize::MAX` for ops without an explicit target), so the step
    /// loop never consults the label table on a control transfer.
    target_pc: Vec<usize>,
    regs: Vec<Word>,
    mem: Vec<Word>,
    pc: usize,
    trace: VecDeque<usize>,
    trace_cap: usize,
}

impl<'a> Emulator<'a> {
    /// Creates an emulator with zeroed registers and memory.
    pub fn new(program: &'a IciProgram, layout: &Layout) -> Self {
        let max_reg = program
            .ops()
            .iter()
            .flat_map(|o| {
                o.uses()
                    .into_iter()
                    .chain(o.def())
                    .map(|R(r)| r)
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0);
        let target_pc = program
            .ops()
            .iter()
            .map(|o| o.target().map_or(usize::MAX, |t| program.label_addr(t)))
            .collect();
        Emulator {
            program,
            target_pc,
            regs: vec![Word::int(0); max_reg as usize + 1],
            mem: vec![Word::int(0); layout.total()],
            pc: program.label_addr(program.entry()),
            trace: VecDeque::new(),
            trace_cap: 0,
        }
    }

    /// Enables a circular trace of the last `cap` executed op indices
    /// (for diagnosing runaway programs).
    pub fn set_trace(&mut self, cap: usize) {
        self.trace_cap = cap;
        self.trace = VecDeque::with_capacity(cap.min(1 << 20));
    }

    /// The traced op indices, oldest first.
    pub fn trace(&self) -> Vec<usize> {
        self.trace.iter().copied().collect()
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on malformed programs or exhausted
    /// limits — never for ordinary Prolog failure (that is a normal
    /// [`Outcome::Failure`]).
    pub fn run(&mut self, cfg: &ExecConfig) -> Result<RunResult, ExecError> {
        let (outcome, stats, steps) = self.run_with_stats(cfg);
        outcome.map(|outcome| RunResult {
            outcome,
            steps,
            stats,
        })
    }

    /// Like [`Emulator::run`] but returns the statistics gathered so
    /// far even when execution ends in an error — useful for
    /// diagnosing runaway programs.
    pub fn run_with_stats(
        &mut self,
        cfg: &ExecConfig,
    ) -> (Result<Outcome, ExecError>, ExecStats, u64) {
        let n = self.program.ops().len();
        let mut expect = vec![0u64; n];
        let mut taken = vec![0u64; n];
        let mut steps: u64 = 0;
        let res = self.step_loop(cfg, &mut expect, &mut taken, &mut steps);
        (res, ExecStats { expect, taken }, steps)
    }

    fn step_loop(
        &mut self,
        cfg: &ExecConfig,
        expect: &mut [u64],
        taken: &mut [u64],
        steps: &mut u64,
    ) -> Result<Outcome, ExecError> {
        let ops = self.program.ops();
        let n = ops.len();
        loop {
            if self.pc >= n {
                return Err(ExecError::RanOffEnd);
            }
            if *steps >= cfg.max_steps {
                return Err(ExecError::StepLimit {
                    limit: cfg.max_steps,
                });
            }
            *steps += 1;
            let at = self.pc;
            expect[at] += 1;
            if self.trace_cap > 0 {
                if self.trace.len() == self.trace_cap {
                    self.trace.pop_front();
                }
                self.trace.push_back(at);
            }
            match &ops[at] {
                Op::Ld { d, base, off } => {
                    let addr = self.regs[base.0 as usize].val + *off as i64;
                    let w = self.load(addr, at)?;
                    self.regs[d.0 as usize] = w;
                    self.pc += 1;
                }
                Op::St { s, base, off } => {
                    let addr = self.regs[base.0 as usize].val + *off as i64;
                    let w = self.regs[s.0 as usize];
                    self.store(addr, w, at)?;
                    self.pc += 1;
                }
                Op::Mv { d, s } => {
                    self.regs[d.0 as usize] = self.regs[s.0 as usize];
                    self.pc += 1;
                }
                Op::MvI { d, w } => {
                    self.regs[d.0 as usize] = *w;
                    self.pc += 1;
                }
                Op::Alu { op, d, a, b } => {
                    let av = self.regs[a.0 as usize].val;
                    let bv = self.operand(b);
                    let v = op.eval(av, bv).ok_or(ExecError::DivideByZero { at })?;
                    self.regs[d.0 as usize] = Word::int(v);
                    self.pc += 1;
                }
                Op::AddA { d, a, b } => {
                    let aw = self.regs[a.0 as usize];
                    let bv = self.operand(b);
                    self.regs[d.0 as usize] = Word {
                        tag: aw.tag,
                        val: aw.val.wrapping_add(bv),
                    };
                    self.pc += 1;
                }
                Op::MkTag { d, s, tag } => {
                    let v = self.regs[s.0 as usize].val;
                    self.regs[d.0 as usize] = Word { tag: *tag, val: v };
                    self.pc += 1;
                }
                Op::Br { cond, a, b, .. } => {
                    let av = self.regs[a.0 as usize].val;
                    let bv = self.operand(b);
                    self.branch(cond.eval(av, bv), at, taken);
                }
                Op::BrTag { a, tag, eq, .. } => {
                    let cond = (self.regs[a.0 as usize].tag == *tag) == *eq;
                    self.branch(cond, at, taken);
                }
                Op::BrWord { a, w, eq, .. } => {
                    let cond = (self.regs[a.0 as usize] == *w) == *eq;
                    self.branch(cond, at, taken);
                }
                Op::BrWEq { a, b, eq, .. } => {
                    let cond = (self.regs[a.0 as usize] == self.regs[b.0 as usize]) == *eq;
                    self.branch(cond, at, taken);
                }
                Op::Jmp { .. } => {
                    self.pc = self.target_pc[at];
                }
                Op::JmpR { r } => {
                    let w = self.regs[r.0 as usize];
                    if w.tag != Tag::Cod {
                        return Err(ExecError::BadCodeWord { word: w, at });
                    }
                    // Dense label → pc table; an unmapped id is a
                    // run-time error, not a panic (code words can hold
                    // arbitrary values by the time they are jumped
                    // through).
                    let id = w.val as u32;
                    match self.program.label_table().get(id as usize) {
                        Some(&a) if a != usize::MAX => self.pc = a,
                        _ => {
                            return Err(ExecError::UnmappedLabel {
                                label: Label(id),
                                at,
                            })
                        }
                    }
                }
                Op::Halt { success } => {
                    return Ok(if *success {
                        Outcome::Success
                    } else {
                        Outcome::Failure
                    });
                }
            }
        }
    }

    fn branch(&mut self, cond: bool, at: usize, taken: &mut [u64]) {
        if cond {
            taken[at] += 1;
            self.pc = self.target_pc[at];
        } else {
            self.pc = at + 1;
        }
    }

    fn operand(&self, o: &Operand) -> i64 {
        match o {
            Operand::Reg(r) => self.regs[r.0 as usize].val,
            Operand::Imm(i) => *i,
        }
    }

    fn load(&self, addr: i64, at: usize) -> Result<Word, ExecError> {
        self.mem
            .get(usize::try_from(addr).map_err(|_| ExecError::BadAddress { addr, at })?)
            .copied()
            .ok_or(ExecError::BadAddress { addr, at })
    }

    fn store(&mut self, addr: i64, w: Word, at: usize) -> Result<(), ExecError> {
        let i = usize::try_from(addr).map_err(|_| ExecError::BadAddress { addr, at })?;
        match self.mem.get_mut(i) {
            Some(slot) => {
                *slot = w;
                Ok(())
            }
            None => Err(ExecError::BadAddress { addr, at }),
        }
    }

    /// Read access to a memory word (for tests and answer inspection).
    pub fn peek(&self, addr: i64) -> Option<Word> {
        usize::try_from(addr)
            .ok()
            .and_then(|i| self.mem.get(i))
            .copied()
    }

    /// Read access to a register (for tests and answer inspection).
    pub fn reg(&self, r: R) -> Word {
        self.regs[r.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::op::AluOp;

    fn run_program(build: impl FnOnce(&mut Asm) -> Label) -> (RunResult, IciProgram) {
        let mut a = Asm::new();
        let entry = build(&mut a);
        let p = a.finish(entry).expect("assembles");
        let layout = Layout {
            heap_size: 64,
            env_size: 64,
            cp_size: 64,
            trail_size: 64,
            pdl_size: 64,
        };
        let r = Emulator::new(&p, &layout)
            .run(&ExecConfig::default())
            .expect("clean run");
        (r, p)
    }

    fn run_ops(build: impl FnOnce(&mut Asm) -> Label) -> RunResult {
        run_program(build).0
    }

    #[test]
    fn hot_pcs_ordering_is_deterministic_with_tied_counts() {
        // Equal counts must tie-break on ascending pc, so a
        // profile-guided re-decode sees the same ranking every run.
        let stats = ExecStats {
            expect: vec![5, 0, 7, 5, 7, 1, 5],
            taken: vec![0; 7],
        };
        assert_eq!(
            stats.hot_pcs(7),
            vec![(2, 7), (4, 7), (0, 5), (3, 5), (6, 5), (5, 1)],
            "count descending, pc ascending on ties, zero counts omitted"
        );
        assert_eq!(stats.hot_pcs(3), vec![(2, 7), (4, 7), (0, 5)]);
        assert_eq!(stats.hot_pcs(0), vec![]);
    }

    #[test]
    fn halt_success() {
        let r = run_ops(|a| {
            let e = a.fresh_label();
            a.bind(e);
            a.emit(Op::Halt { success: true });
            e
        });
        assert_eq!(r.outcome, Outcome::Success);
        assert_eq!(r.steps, 1);
    }

    #[test]
    fn alu_and_branch() {
        let r = run_ops(|a| {
            let e = a.fresh_label();
            let yes = a.fresh_label();
            let t = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: t,
                w: Word::int(2),
            });
            a.emit(Op::Alu {
                op: AluOp::Add,
                d: t,
                a: t,
                b: Operand::Imm(3),
            });
            a.emit(Op::Br {
                cond: crate::op::Cond::Eq,
                a: t,
                b: Operand::Imm(5),
                t: yes,
            });
            a.emit(Op::Halt { success: false });
            a.bind(yes);
            a.emit(Op::Halt { success: true });
            e
        });
        assert_eq!(r.outcome, Outcome::Success);
    }

    #[test]
    fn memory_round_trip() {
        let r = run_ops(|a| {
            let e = a.fresh_label();
            let base = a.fresh_reg();
            let v = a.fresh_reg();
            let v2 = a.fresh_reg();
            let ok = a.fresh_label();
            a.bind(e);
            a.emit(Op::MvI {
                d: base,
                w: Word::int(10),
            });
            a.emit(Op::MvI {
                d: v,
                w: Word::atom(7),
            });
            a.emit(Op::St { s: v, base, off: 2 });
            a.emit(Op::Ld {
                d: v2,
                base,
                off: 2,
            });
            a.emit(Op::BrWEq {
                a: v,
                b: v2,
                eq: true,
                t: ok,
            });
            a.emit(Op::Halt { success: false });
            a.bind(ok);
            a.emit(Op::Halt { success: true });
            e
        });
        assert_eq!(r.outcome, Outcome::Success);
    }

    #[test]
    fn taken_statistics() {
        let (r, p) = run_program(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let i = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: i,
                w: Word::int(0),
            });
            a.bind(lp);
            a.emit(Op::Alu {
                op: AluOp::Add,
                d: i,
                a: i,
                b: Operand::Imm(1),
            });
            a.emit(Op::Br {
                cond: crate::op::Cond::Lt,
                a: i,
                b: Operand::Imm(10),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        // branch executed 10 times, taken 9
        let br_idx = 2;
        assert_eq!(r.stats.expect[br_idx], 10);
        assert_eq!(r.stats.taken[br_idx], 9);
        let prob = r.stats.taken_probability(&p, br_idx).unwrap();
        assert!((prob - 0.9).abs() < 1e-9);
        // non-branch ops and out-of-range indices have no probability
        assert_eq!(
            r.stats.taken_probability(&p, 0),
            None,
            "MvI is not a branch"
        );
        assert_eq!(
            r.stats.taken_probability(&p, 1),
            None,
            "Alu is not a branch"
        );
        assert_eq!(
            r.stats.taken_probability(&p, 3),
            None,
            "Halt is not a branch"
        );
        assert_eq!(r.stats.taken_probability(&p, 999), None, "out of range");
    }

    #[test]
    fn taken_probability_none_for_unexecuted_branch() {
        let (r, p) = run_program(|a| {
            let e = a.fresh_label();
            let dead = a.fresh_label();
            let end = a.fresh_label();
            let t = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: t,
                w: Word::int(1),
            });
            a.emit(Op::Jmp { t: end });
            a.bind(dead);
            a.emit(Op::Br {
                cond: crate::op::Cond::Eq,
                a: t,
                b: Operand::Imm(1),
                t: end,
            });
            a.bind(end);
            a.emit(Op::Halt { success: true });
            e
        });
        assert_eq!(r.stats.taken_probability(&p, 2), None, "never executed");
    }

    #[test]
    fn alu_mod_is_floored_and_rem_is_truncated() {
        // X = -7 mod 3 must be 2; Y = -7 rem 3 must be -1.
        let r = run_ops(|a| {
            let e = a.fresh_label();
            let ok1 = a.fresh_label();
            let ok2 = a.fresh_label();
            let x = a.fresh_reg();
            let y = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: x,
                w: Word::int(-7),
            });
            a.emit(Op::Mv { d: y, s: x });
            a.emit(Op::Alu {
                op: AluOp::Mod,
                d: x,
                a: x,
                b: Operand::Imm(3),
            });
            a.emit(Op::Br {
                cond: crate::op::Cond::Eq,
                a: x,
                b: Operand::Imm(2),
                t: ok1,
            });
            a.emit(Op::Halt { success: false });
            a.bind(ok1);
            a.emit(Op::Alu {
                op: AluOp::Rem,
                d: y,
                a: y,
                b: Operand::Imm(3),
            });
            a.emit(Op::Br {
                cond: crate::op::Cond::Eq,
                a: y,
                b: Operand::Imm(-1),
                t: ok2,
            });
            a.emit(Op::Halt { success: false });
            a.bind(ok2);
            a.emit(Op::Halt { success: true });
            e
        });
        assert_eq!(r.outcome, Outcome::Success);
    }

    #[test]
    fn traced_run_is_not_quadratic_in_the_trace_capacity() {
        // A long counted loop, traced with a large circular buffer: the
        // ring buffer must keep per-step cost O(1). The old
        // Vec::remove(0) implementation made this take minutes.
        let mut a = Asm::new();
        let e = a.fresh_label();
        let lp = a.fresh_label();
        let i = a.fresh_reg();
        a.bind(e);
        a.emit(Op::MvI {
            d: i,
            w: Word::int(0),
        });
        a.bind(lp);
        a.emit(Op::Alu {
            op: AluOp::Add,
            d: i,
            a: i,
            b: Operand::Imm(1),
        });
        a.emit(Op::Br {
            cond: crate::op::Cond::Lt,
            a: i,
            b: Operand::Imm(500_000),
            t: lp,
        });
        a.emit(Op::Halt { success: true });
        let p = a.finish(e).expect("assembles");
        let layout = Layout {
            heap_size: 16,
            env_size: 16,
            cp_size: 16,
            trail_size: 16,
            pdl_size: 16,
        };
        let cap = 1 << 16;
        let mut emu = Emulator::new(&p, &layout);
        emu.set_trace(cap);
        let started = std::time::Instant::now();
        let r = emu
            .run(&ExecConfig {
                max_steps: 2_000_000,
            })
            .expect("completes within the step budget");
        assert_eq!(r.outcome, Outcome::Success);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(20),
            "traced run took {:?} — trace bookkeeping is not O(1)",
            started.elapsed()
        );
        let trace = emu.trace();
        assert_eq!(trace.len(), cap, "trace keeps exactly the last cap ops");
        // Oldest-first: the final entry is the Halt, preceded by the
        // loop body ops in execution order.
        assert_eq!(*trace.last().unwrap(), 3, "last traced op is the halt");
        assert_eq!(trace[trace.len() - 2], 2, "preceded by the exit branch");
        assert_eq!(trace[trace.len() - 3], 1, "preceded by the add");
    }

    #[test]
    fn bad_address_is_reported() {
        let mut a = Asm::new();
        let e = a.fresh_label();
        let base = a.fresh_reg();
        a.bind(e);
        a.emit(Op::MvI {
            d: base,
            w: Word::int(-5),
        });
        a.emit(Op::Ld {
            d: base,
            base,
            off: 0,
        });
        a.emit(Op::Halt { success: true });
        let p = a.finish(e).expect("assembles");
        let layout = Layout {
            heap_size: 16,
            env_size: 16,
            cp_size: 16,
            trail_size: 16,
            pdl_size: 16,
        };
        let err = Emulator::new(&p, &layout)
            .run(&ExecConfig::default())
            .unwrap_err();
        assert!(matches!(err, ExecError::BadAddress { .. }));
    }

    #[test]
    fn step_limit_enforced() {
        let mut a = Asm::new();
        let e = a.fresh_label();
        a.bind(e);
        a.emit(Op::Jmp { t: e });
        let p = a.finish(e).expect("assembles");
        let layout = Layout {
            heap_size: 16,
            env_size: 16,
            cp_size: 16,
            trail_size: 16,
            pdl_size: 16,
        };
        let err = Emulator::new(&p, &layout)
            .run(&ExecConfig { max_steps: 100 })
            .unwrap_err();
        assert!(matches!(err, ExecError::StepLimit { .. }));
    }
}
