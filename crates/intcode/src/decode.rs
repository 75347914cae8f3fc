//! Pre-decoded micro-op execution engine for the sequential emulator.
//!
//! [`DecodedProgram`] lowers an [`IciProgram`] once, at load time, into
//! a flat vector of small `Copy` micro-op records with every operand
//! fully resolved:
//!
//! * register ids are plain `u32` indices (no `R` newtype unwrapping in
//!   the hot loop),
//! * the register/immediate second operand of ALU ops and branches is
//!   monomorphized into separate `..RR` / `..RI` record kinds, so the
//!   nested [`Operand`] dispatch disappears from the step loop,
//! * every direct branch target is a pre-resolved instruction index,
//!   and indirect jumps go through a dense label → pc table instead of
//!   [`IciProgram::label_addr`]'s assert-on-missing lookup.
//!
//! [`DecodedEmulator`] executes the decoded form through one
//! const-generic step loop whose `TRACE`, `PROFILE` and `STATS`
//! parameters compile the trace ring, the branch predictor and the
//! per-pc Expect/taken counters out of the paths that do not use them:
//! the serving loop has none of the three, the profiling run of the
//! experiments only the counters. The engine is **bit-identical** to
//! [`crate::emu::Emulator`] — same [`Outcome`], same step count, same
//! [`ExecStats`] and same [`ExecError`] values on every program — which
//! the workspace agreement suite asserts over the whole benchmark
//! suite.

use std::collections::VecDeque;

use crate::emu::{ExecConfig, ExecError, ExecStats, Outcome, RunResult};
use crate::layout::Layout;
use crate::mem::DataMem;
use crate::op::{AluOp, Cond, Label, Op, Operand};
use crate::program::IciProgram;
use crate::word::{Tag, Word};

/// One pre-decoded micro-op. `Copy` and at most 32 bytes, so the
/// records lie densely in one vector and the step loop never chases
/// references into the source [`Op`] vector. The loop matches each
/// record in place, so an arm loads only the fields it uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum MicroOp {
    /// `d = mem[base.val + off]`.
    Ld { d: u32, base: u32, off: i32 },
    /// `mem[base.val + off] = s`.
    St { s: u32, base: u32, off: i32 },
    /// `d = s`.
    Mv { d: u32, s: u32 },
    /// `d = w`.
    MvI { d: u32, w: Word },
    /// `d = a (op) b` with a register right operand.
    AluRR { op: AluOp, d: u32, a: u32, b: u32 },
    /// `d = a (op) imm`.
    AluRI { op: AluOp, d: u32, a: u32, imm: i64 },
    /// Address add with a register right operand.
    AddARR { d: u32, a: u32, b: u32 },
    /// Address add with an immediate right operand.
    AddARI { d: u32, a: u32, imm: i64 },
    /// `d = <tag, s.val>`.
    MkTag { d: u32, s: u32, tag: Tag },
    /// Value branch with a register right operand; `t` is the resolved
    /// target pc.
    BrRR { cond: Cond, a: u32, b: u32, t: u32 },
    /// Value branch against an immediate.
    BrRI {
        cond: Cond,
        a: u32,
        imm: i64,
        t: u32,
    },
    /// Branch on the tag field.
    BrTag { a: u32, tag: Tag, eq: bool, t: u32 },
    /// Branch comparing a full word against an immediate word.
    BrWord { a: u32, w: Word, eq: bool, t: u32 },
    /// Branch comparing two registers as full words.
    BrWEq { a: u32, b: u32, eq: bool, t: u32 },
    /// Unconditional jump to a resolved pc.
    Jmp { t: u32 },
    /// Indirect jump through a code word.
    JmpR { r: u32 },
    /// Stop the machine.
    Halt { success: bool },

    // -----------------------------------------------------------------
    // Fused superinstructions (the profile-guided second tier, built by
    // [`crate::fuse::fuse`]): the two pair shapes the translated
    // programs contain. Each record executes TWO source ops in one
    // dispatch; the head constituent runs at index `at` and the second
    // at `at + 1`, and every piece of architectural bookkeeping —
    // step-limit check, step count, Expect/taken statistics, trace
    // entries, error `at` fields, predictor state — is accounted under
    // the constituent's own index, so a fused program is bit-identical
    // to the unfused one. Legality (the interior pc is never a branch
    // target) is the fusion pass's responsibility; the wire decoder
    // re-validates the structural part (a fused record never sits at
    // the last index, so `at + 1` stays in bounds).
    // -----------------------------------------------------------------
    /// `BrTag` at `at` fused with `Ld` at `at + 1`: the tag check
    /// either branches away or falls through into the dereferencing
    /// load (the paper's tag-check + deref chain).
    TagDeref {
        a: u32,
        tag: Tag,
        eq: bool,
        t: u32,
        d: u32,
        base: u32,
        off: i32,
    },
    /// `Ld` at `at` fused with `Mv` at `at + 1`.
    LdMv {
        d: u32,
        base: u32,
        off: i32,
        d2: u32,
        s: u32,
    },
}

impl MicroOp {
    /// Whether this record is a fused superinstruction (executes two
    /// constituent ops; requires `at + 1` to be a valid index).
    pub(crate) fn is_fused(self) -> bool {
        matches!(self, MicroOp::TagDeref { .. } | MicroOp::LdMv { .. })
    }
}

/// Marks every pc that control flow can enter other than by falling
/// through from `pc - 1`: direct branch/jump targets, every bound
/// label (reachable through `JmpR`), and the entry pc. The fusion pass
/// refuses to bury one of these as the interior of a fused pair —
/// fusing it would make the incoming edge skip the head constituent.
pub(crate) fn compute_branch_targets(
    micro: &[MicroOp],
    label_pc: &[u32],
    entry_pc: usize,
) -> Vec<bool> {
    let n = micro.len();
    let mut bt = vec![false; n];
    let mut mark = |t: u32| {
        if let Some(slot) = bt.get_mut(t as usize) {
            *slot = true;
        }
    };
    for &m in micro {
        match m {
            MicroOp::BrRR { t, .. }
            | MicroOp::BrRI { t, .. }
            | MicroOp::BrTag { t, .. }
            | MicroOp::BrWord { t, .. }
            | MicroOp::BrWEq { t, .. }
            | MicroOp::Jmp { t }
            | MicroOp::TagDeref { t, .. } => mark(t),
            _ => {}
        }
    }
    for &pc in label_pc {
        if pc != u32::MAX {
            mark(pc);
        }
    }
    if let Some(slot) = bt.get_mut(entry_pc) {
        *slot = true;
    }
    bt
}

/// An [`IciProgram`] lowered to the flat micro-op form.
///
/// The micro-op vector is parallel to [`IciProgram::ops`] — record `i`
/// executes op `i` — so statistics indices, error `at` fields and the
/// label table all keep their sequential-layout meaning.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    pub(crate) micro: Vec<MicroOp>,
    /// Dense label id → instruction index (`u32::MAX` = unbound).
    pub(crate) label_pc: Vec<u32>,
    /// Entry instruction index.
    pub(crate) entry_pc: usize,
    /// Register file size (highest register id used, plus one).
    pub(crate) num_regs: usize,
    /// Per-pc "control flow can enter here other than by fall-through"
    /// bitmap (see [`compute_branch_targets`]), built at decode time
    /// and consumed by the fusion pass's legality check. Derived, never
    /// serialized: the wire codec recomputes it on decode.
    pub(crate) branch_targets: Vec<bool>,
}

impl DecodedProgram {
    /// Decodes a program. All direct branch targets were validated at
    /// [`IciProgram`] construction, so decoding cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if the entry label is unbound (as [`crate::emu::Emulator::new`]
    /// does) or the program has ≥ `u32::MAX` ops.
    pub fn new(program: &IciProgram) -> Self {
        let ops = program.ops();
        assert!(
            ops.len() < u32::MAX as usize,
            "program too large to pre-decode"
        );
        let t = |l: Label| program.label_addr(l) as u32;
        let micro = ops
            .iter()
            .map(|op| match *op {
                Op::Ld { d, base, off } => MicroOp::Ld {
                    d: d.0,
                    base: base.0,
                    off,
                },
                Op::St { s, base, off } => MicroOp::St {
                    s: s.0,
                    base: base.0,
                    off,
                },
                Op::Mv { d, s } => MicroOp::Mv { d: d.0, s: s.0 },
                Op::MvI { d, w } => MicroOp::MvI { d: d.0, w },
                Op::Alu { op, d, a, b } => match b {
                    Operand::Reg(b) => MicroOp::AluRR {
                        op,
                        d: d.0,
                        a: a.0,
                        b: b.0,
                    },
                    Operand::Imm(imm) => MicroOp::AluRI {
                        op,
                        d: d.0,
                        a: a.0,
                        imm,
                    },
                },
                Op::AddA { d, a, b } => match b {
                    Operand::Reg(b) => MicroOp::AddARR {
                        d: d.0,
                        a: a.0,
                        b: b.0,
                    },
                    Operand::Imm(imm) => MicroOp::AddARI {
                        d: d.0,
                        a: a.0,
                        imm,
                    },
                },
                Op::MkTag { d, s, tag } => MicroOp::MkTag {
                    d: d.0,
                    s: s.0,
                    tag,
                },
                Op::Br { cond, a, b, t: l } => match b {
                    Operand::Reg(b) => MicroOp::BrRR {
                        cond,
                        a: a.0,
                        b: b.0,
                        t: t(l),
                    },
                    Operand::Imm(imm) => MicroOp::BrRI {
                        cond,
                        a: a.0,
                        imm,
                        t: t(l),
                    },
                },
                Op::BrTag { a, tag, eq, t: l } => MicroOp::BrTag {
                    a: a.0,
                    tag,
                    eq,
                    t: t(l),
                },
                Op::BrWord { a, w, eq, t: l } => MicroOp::BrWord {
                    a: a.0,
                    w,
                    eq,
                    t: t(l),
                },
                Op::BrWEq { a, b, eq, t: l } => MicroOp::BrWEq {
                    a: a.0,
                    b: b.0,
                    eq,
                    t: t(l),
                },
                Op::Jmp { t: l } => MicroOp::Jmp { t: t(l) },
                Op::JmpR { r } => MicroOp::JmpR { r: r.0 },
                Op::Halt { success } => MicroOp::Halt { success },
            })
            .collect();
        let label_pc = program
            .label_table()
            .iter()
            .map(|&a| if a == usize::MAX { u32::MAX } else { a as u32 })
            .collect();
        let num_regs = ops
            .iter()
            .flat_map(|o| o.uses().into_iter().chain(o.def()))
            .map(|r| r.0 as usize + 1)
            .max()
            .unwrap_or(1);
        Self::from_parts(
            micro,
            label_pc,
            program.label_addr(program.entry()),
            num_regs,
        )
    }

    /// Assembles a program from already-validated parts, recomputing
    /// the derived branch-target bitmap. Shared by [`DecodedProgram::new`],
    /// the wire decoder and the fusion pass.
    pub(crate) fn from_parts(
        micro: Vec<MicroOp>,
        label_pc: Vec<u32>,
        entry_pc: usize,
        num_regs: usize,
    ) -> Self {
        let branch_targets = compute_branch_targets(&micro, &label_pc, entry_pc);
        DecodedProgram {
            micro,
            label_pc,
            entry_pc,
            num_regs,
            branch_targets,
        }
    }

    /// Number of micro-ops (equals the source program's op count).
    pub fn len(&self) -> usize {
        self.micro.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.micro.is_empty()
    }

    /// Whether control flow can reach `pc` other than by falling
    /// through from `pc - 1` (branch/jump target, bound label, or the
    /// entry point).
    pub fn is_branch_target(&self, pc: usize) -> bool {
        self.branch_targets.get(pc).copied().unwrap_or(false)
    }

    /// Whether the record at `pc` is the head of a fused pair, which
    /// also executes the op at `pc + 1` ([`crate::fuse::fuse`]).
    pub fn is_fused_head(&self, pc: usize) -> bool {
        self.micro.get(pc).is_some_and(|m| m.is_fused())
    }
}

/// Per-PC dynamic profile gathered by the profiled step loop
/// ([`DecodedEmulator::run_with_profile`]).
///
/// The execution counts themselves already live in
/// [`ExecStats::expect`] (the paper's *Expect*); this adds what a
/// hardware profile would: per-branch misprediction counts under a
/// 2-bit saturating counter predictor (one counter per conditional
/// branch, initialized to weakly-not-taken). Indices are op indices,
/// parallel to the program.
#[derive(Clone, Debug, Default)]
pub struct ExecProfile {
    /// Times the 2-bit predictor mispredicted the branch at op `i`
    /// (zero for non-branch ops).
    pub mispredict: Vec<u64>,
}

impl ExecProfile {
    /// Total mispredictions over the run.
    pub fn total_mispredicts(&self) -> u64 {
        self.mispredict.iter().sum()
    }

    /// Misprediction rate over the dynamically executed conditional
    /// branches, or `None` when no conditional branch ever executed.
    pub fn mispredict_rate(&self, program: &IciProgram, stats: &ExecStats) -> Option<f64> {
        let mut dynamic_branches = 0u64;
        for (i, op) in program.ops().iter().enumerate() {
            if op.is_conditional_branch() {
                dynamic_branches += stats.expect[i];
            }
        }
        if dynamic_branches == 0 {
            None
        } else {
            Some(self.total_mispredicts() as f64 / dynamic_branches as f64)
        }
    }
}

/// The sequential machine state, executing a [`DecodedProgram`].
///
/// Mirrors [`crate::emu::Emulator`]'s interface: `run`,
/// `run_with_stats`, the circular trace, and the `peek`/`reg`
/// inspection accessors.
#[derive(Debug)]
pub struct DecodedEmulator<'a> {
    program: &'a DecodedProgram,
    regs: Vec<Word>,
    mem: DataMem,
    pc: usize,
    trace: VecDeque<usize>,
    trace_cap: usize,
}

#[inline(always)]
fn load(mem: &DataMem, addr: i64, at: usize) -> Result<Word, ExecError> {
    usize::try_from(addr)
        .ok()
        .and_then(|i| mem.get(i))
        .ok_or(ExecError::BadAddress { addr, at })
}

#[inline(always)]
fn store(mem: &mut DataMem, addr: i64, w: Word, at: usize) -> Result<(), ExecError> {
    usize::try_from(addr)
        .ok()
        .and_then(|i| mem.set(i, w))
        .ok_or(ExecError::BadAddress { addr, at })
}

impl<'a> DecodedEmulator<'a> {
    /// Creates an emulator with zeroed registers and memory. The
    /// memory is a recycled [`DataMem`] when a dropped one of the same
    /// length is free (only the pages its last run wrote are
    /// re-zeroed), and fresh zero pages, resident once touched,
    /// otherwise: no construction fills the whole layout.
    pub fn new(program: &'a DecodedProgram, layout: &Layout) -> Self {
        Self::new_in(program, layout, Vec::new(), DataMem::default())
    }

    /// Creates an emulator on caller-owned state: the register file is
    /// re-zeroed in place, and a memory of the layout's length has only
    /// the pages its last run wrote zeroed (any other is swapped for a
    /// [`DataMem::new`]). This is the batch executor's
    /// ([`crate::batch`]) hot-path constructor.
    pub(crate) fn new_in(
        program: &'a DecodedProgram,
        layout: &Layout,
        mut regs: Vec<Word>,
        mut mem: DataMem,
    ) -> Self {
        regs.clear();
        regs.resize(program.num_regs, Word::int(0));
        if mem.len() == layout.total() {
            mem.reset();
        } else {
            drop(mem);
            mem = DataMem::new(layout.total());
        }
        DecodedEmulator {
            program,
            regs,
            mem,
            pc: program.entry_pc,
            trace: VecDeque::new(),
            trace_cap: 0,
        }
    }

    /// Releases the register file and memory for reuse by a later
    /// [`DecodedEmulator::new_in`].
    pub(crate) fn into_buffers(self) -> (Vec<Word>, DataMem) {
        (self.regs, self.mem)
    }

    /// The statistics-free monomorphization for throughput serving:
    /// returns only the outcome and step count, with the per-pc
    /// Expect/taken accounting compiled out of the loop entirely
    /// (`STATS = false`). Outcome, step count and errors are
    /// bit-identical to [`DecodedEmulator::run_with_stats`] — the
    /// workspace agreement suite asserts exactly that.
    pub(crate) fn run_pooled(&mut self, cfg: &ExecConfig) -> (Result<Outcome, ExecError>, u64) {
        self.step_loop::<false, false, false>(cfg, &mut [], &mut [], &mut [], &mut [])
    }

    /// Enables a circular trace of the last `cap` executed op indices.
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
    /// limits — never for ordinary Prolog failure.
    pub fn run(&mut self, cfg: &ExecConfig) -> Result<RunResult, ExecError> {
        let (outcome, stats, steps) = self.run_with_stats(cfg);
        outcome.map(|outcome| RunResult {
            outcome,
            steps,
            stats,
        })
    }

    /// Like [`DecodedEmulator::run`] but returns the statistics
    /// gathered so far even when execution ends in an error.
    pub fn run_with_stats(
        &mut self,
        cfg: &ExecConfig,
    ) -> (Result<Outcome, ExecError>, ExecStats, u64) {
        let n = self.program.micro.len();
        let mut expect = vec![0u64; n];
        let mut taken = vec![0u64; n];
        let (res, steps) = if self.trace_cap > 0 {
            self.step_loop::<true, false, true>(cfg, &mut expect, &mut taken, &mut [], &mut [])
        } else {
            self.step_loop::<false, false, true>(cfg, &mut expect, &mut taken, &mut [], &mut [])
        };
        (res, ExecStats { expect, taken }, steps)
    }

    /// Like [`DecodedEmulator::run_with_stats`] but additionally runs
    /// the per-PC profiling hooks: a 2-bit saturating branch predictor
    /// whose per-branch misprediction counts land in the returned
    /// [`ExecProfile`].
    ///
    /// This is a *separate monomorphization* of the same step loop —
    /// the default `run`/`run_with_stats` path compiles with
    /// `PROFILE = false` and contains none of this bookkeeping, which
    /// is how instrumentation stays free when off. Outcome, step count
    /// and [`ExecStats`] are bit-identical to the unprofiled run.
    pub fn run_with_profile(
        &mut self,
        cfg: &ExecConfig,
    ) -> (Result<Outcome, ExecError>, ExecStats, u64, ExecProfile) {
        let n = self.program.micro.len();
        let mut expect = vec![0u64; n];
        let mut taken = vec![0u64; n];
        let mut mispredict = vec![0u64; n];
        // One 2-bit counter per op, initialized to 01 (weakly not
        // taken); only conditional branches ever read or update theirs.
        let mut predictor = vec![1u8; n];
        let (res, steps) = if self.trace_cap > 0 {
            self.step_loop::<true, true, true>(
                cfg,
                &mut expect,
                &mut taken,
                &mut predictor,
                &mut mispredict,
            )
        } else {
            self.step_loop::<false, true, true>(
                cfg,
                &mut expect,
                &mut taken,
                &mut predictor,
                &mut mispredict,
            )
        };
        (
            res,
            ExecStats { expect, taken },
            steps,
            ExecProfile { mispredict },
        )
    }

    /// The monomorphized step loop; returns the outcome and the steps
    /// executed. With `TRACE = false` (the profile-only default) the
    /// trace bookkeeping — including its capacity test — compiles out
    /// entirely; with `PROFILE = false` the branch-predictor
    /// accounting compiles out the same way. `STATS = false` (the
    /// batch serving path, [`DecodedEmulator::run_pooled`])
    /// additionally compiles out the per-pc Expect/taken counters —
    /// outcome, step count and errors are unaffected.
    ///
    /// The step count is a local, not a reference, and each record is
    /// matched in place (`match *m`), so an arm loads only its own
    /// fields instead of copying the whole record first; both keep the
    /// loop head small enough that its state can stay in registers.
    /// The counter arrays are checked once against the program length,
    /// so indexing them at a pc that `micro.get` accepted needs no
    /// further bounds check.
    fn step_loop<const TRACE: bool, const PROFILE: bool, const STATS: bool>(
        &mut self,
        cfg: &ExecConfig,
        expect: &mut [u64],
        taken: &mut [u64],
        predictor: &mut [u8],
        mispredict: &mut [u64],
    ) -> (Result<Outcome, ExecError>, u64) {
        let micro = self.program.micro.as_slice();
        let label_pc = self.program.label_pc.as_slice();
        let n = micro.len();
        if STATS {
            assert!(expect.len() == n && taken.len() == n, "stats arrays");
        }
        if PROFILE {
            assert!(
                predictor.len() == n && mispredict.len() == n,
                "profile arrays"
            );
        }
        let Self {
            regs,
            mem,
            trace,
            trace_cap,
            ..
        } = self;
        let regs = regs.as_mut_slice();
        let mut pc = self.pc;
        let mut steps: u64 = 0;
        let max_steps = cfg.max_steps;
        let r = loop {
            let Some(m) = micro.get(pc) else {
                break Err(ExecError::RanOffEnd);
            };
            if steps >= max_steps {
                break Err(ExecError::StepLimit { limit: max_steps });
            }
            steps += 1;
            let at = pc;
            if STATS {
                expect[at] += 1;
            }
            if TRACE {
                if trace.len() == *trace_cap {
                    trace.pop_front();
                }
                trace.push_back(at);
            }
            macro_rules! fail {
                ($e:expr) => {{
                    break Err($e);
                }};
            }
            macro_rules! predict {
                ($taken:expr) => {
                    if PROFILE {
                        // 2-bit saturating counter: 00/01 predict not
                        // taken, 10/11 predict taken.
                        let state = predictor[at];
                        if (state >= 2) != $taken {
                            mispredict[at] += 1;
                        }
                        predictor[at] = if $taken {
                            (state + 1).min(3)
                        } else {
                            state.saturating_sub(1)
                        };
                    }
                };
            }
            macro_rules! branch {
                ($cond:expr, $t:expr) => {{
                    let taken_now = $cond;
                    predict!(taken_now);
                    if taken_now {
                        if STATS {
                            taken[at] += 1;
                        }
                        pc = $t as usize;
                    } else {
                        pc = at + 1;
                    }
                }};
            }
            // The second constituent of a fused pair: repeats, under
            // index `at + 1`, exactly the bookkeeping the loop header
            // did for the head — step-limit check first, then the step
            // count, Expect count and trace entry — so a fused run is
            // bit-identical to the unfused one even when the limit
            // lands between the two halves.
            macro_rules! second {
                () => {{
                    if steps >= max_steps {
                        fail!(ExecError::StepLimit { limit: max_steps });
                    }
                    steps += 1;
                    if STATS {
                        expect[at + 1] += 1;
                    }
                    if TRACE {
                        if trace.len() == *trace_cap {
                            trace.pop_front();
                        }
                        trace.push_back(at + 1);
                    }
                }};
            }
            match *m {
                MicroOp::Ld { d, base, off } => {
                    let addr = regs[base as usize].val + off as i64;
                    match load(mem, addr, at) {
                        Ok(w) => regs[d as usize] = w,
                        Err(e) => fail!(e),
                    }
                    pc = at + 1;
                }
                MicroOp::St { s, base, off } => {
                    let addr = regs[base as usize].val + off as i64;
                    let w = regs[s as usize];
                    if let Err(e) = store(mem, addr, w, at) {
                        fail!(e);
                    }
                    pc = at + 1;
                }
                MicroOp::Mv { d, s } => {
                    regs[d as usize] = regs[s as usize];
                    pc = at + 1;
                }
                MicroOp::MvI { d, w } => {
                    regs[d as usize] = w;
                    pc = at + 1;
                }
                MicroOp::AluRR { op, d, a, b } => {
                    let av = regs[a as usize].val;
                    let bv = regs[b as usize].val;
                    match op.eval(av, bv) {
                        Some(v) => regs[d as usize] = Word::int(v),
                        None => fail!(ExecError::DivideByZero { at }),
                    }
                    pc = at + 1;
                }
                MicroOp::AluRI { op, d, a, imm } => {
                    let av = regs[a as usize].val;
                    match op.eval(av, imm) {
                        Some(v) => regs[d as usize] = Word::int(v),
                        None => fail!(ExecError::DivideByZero { at }),
                    }
                    pc = at + 1;
                }
                MicroOp::AddARR { d, a, b } => {
                    let aw = regs[a as usize];
                    let bv = regs[b as usize].val;
                    regs[d as usize] = Word {
                        tag: aw.tag,
                        val: aw.val.wrapping_add(bv),
                    };
                    pc = at + 1;
                }
                MicroOp::AddARI { d, a, imm } => {
                    let aw = regs[a as usize];
                    regs[d as usize] = Word {
                        tag: aw.tag,
                        val: aw.val.wrapping_add(imm),
                    };
                    pc = at + 1;
                }
                MicroOp::MkTag { d, s, tag } => {
                    let v = regs[s as usize].val;
                    regs[d as usize] = Word { tag, val: v };
                    pc = at + 1;
                }
                MicroOp::BrRR { cond, a, b, t } => {
                    branch!(cond.eval(regs[a as usize].val, regs[b as usize].val), t);
                }
                MicroOp::BrRI { cond, a, imm, t } => {
                    branch!(cond.eval(regs[a as usize].val, imm), t);
                }
                MicroOp::BrTag { a, tag, eq, t } => {
                    branch!((regs[a as usize].tag == tag) == eq, t);
                }
                MicroOp::BrWord { a, w, eq, t } => {
                    branch!((regs[a as usize] == w) == eq, t);
                }
                MicroOp::BrWEq { a, b, eq, t } => {
                    branch!((regs[a as usize] == regs[b as usize]) == eq, t);
                }
                MicroOp::Jmp { t } => {
                    pc = t as usize;
                }
                MicroOp::JmpR { r } => {
                    let w = regs[r as usize];
                    if w.tag != Tag::Cod {
                        fail!(ExecError::BadCodeWord { word: w, at });
                    }
                    let id = w.val as u32;
                    match label_pc.get(id as usize) {
                        Some(&a) if a != u32::MAX => pc = a as usize,
                        _ => fail!(ExecError::UnmappedLabel {
                            label: Label(id),
                            at,
                        }),
                    }
                }
                MicroOp::Halt { success } => {
                    break Ok(if success {
                        Outcome::Success
                    } else {
                        Outcome::Failure
                    });
                }
                MicroOp::TagDeref {
                    a,
                    tag,
                    eq,
                    t,
                    d,
                    base,
                    off,
                } => {
                    let taken_now = (regs[a as usize].tag == tag) == eq;
                    predict!(taken_now);
                    if taken_now {
                        if STATS {
                            taken[at] += 1;
                        }
                        pc = t as usize;
                    } else {
                        second!();
                        let addr = regs[base as usize].val + off as i64;
                        match load(mem, addr, at + 1) {
                            Ok(w) => regs[d as usize] = w,
                            Err(e) => fail!(e),
                        }
                        pc = at + 2;
                    }
                }
                MicroOp::LdMv {
                    d,
                    base,
                    off,
                    d2,
                    s,
                } => {
                    let addr = regs[base as usize].val + off as i64;
                    match load(mem, addr, at) {
                        Ok(w) => regs[d as usize] = w,
                        Err(e) => fail!(e),
                    }
                    second!();
                    regs[d2 as usize] = regs[s as usize];
                    pc = at + 2;
                }
            }
        };
        self.pc = pc;
        (r, steps)
    }

    /// Read access to a memory word (for tests and answer inspection).
    pub fn peek(&self, addr: i64) -> Option<Word> {
        usize::try_from(addr).ok().and_then(|i| self.mem.get(i))
    }

    /// Read access to a register (for tests and answer inspection).
    pub fn reg(&self, r: crate::op::R) -> Word {
        self.regs[r.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::emu::Emulator;
    use crate::op::{AluOp, Cond, Op};

    fn tiny_layout() -> Layout {
        Layout {
            heap_size: 64,
            env_size: 64,
            cp_size: 64,
            trail_size: 64,
            pdl_size: 64,
        }
    }

    fn assemble(build: impl FnOnce(&mut Asm) -> Label) -> IciProgram {
        let mut a = Asm::new();
        let entry = build(&mut a);
        a.finish(entry)
    }

    /// Runs a program through both engines and asserts bit-identical
    /// results (success or error alike).
    fn differential(p: &IciProgram, cfg: &ExecConfig) {
        let layout = tiny_layout();
        let (lr, ls, ln) = Emulator::new(p, &layout).run_with_stats(cfg);
        let decoded = DecodedProgram::new(p);
        let (dr, ds, dn) = DecodedEmulator::new(&decoded, &layout).run_with_stats(cfg);
        assert_eq!(lr, dr, "outcome/error diverged");
        assert_eq!(ln, dn, "step count diverged");
        assert_eq!(ls.expect, ds.expect, "Expect counts diverged");
        assert_eq!(ls.taken, ds.taken, "taken counts diverged");
    }

    #[test]
    fn decoded_matches_legacy_on_a_counted_loop() {
        let p = assemble(|a| {
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
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(100),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        differential(&p, &ExecConfig::default());
    }

    #[test]
    fn decoded_matches_legacy_on_memory_and_tags() {
        let p = assemble(|a| {
            let e = a.fresh_label();
            let ok = a.fresh_label();
            let base = a.fresh_reg();
            let v = a.fresh_reg();
            let v2 = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: base,
                w: Word::int(8),
            });
            a.emit(Op::MvI {
                d: v,
                w: Word::atom(7),
            });
            a.emit(Op::MkTag {
                d: v,
                s: v,
                tag: Tag::Lst,
            });
            a.emit(Op::St { s: v, base, off: 3 });
            a.emit(Op::Ld {
                d: v2,
                base,
                off: 3,
            });
            a.emit(Op::AddA {
                d: base,
                a: base,
                b: Operand::Imm(1),
            });
            a.emit(Op::BrWEq {
                a: v,
                b: v2,
                eq: true,
                t: ok,
            });
            a.emit(Op::Halt { success: false });
            a.bind(ok);
            a.emit(Op::BrTag {
                a: v2,
                tag: Tag::Lst,
                eq: true,
                t: e, // loops forever if retaken — guarded by halt below
            });
            a.emit(Op::Halt { success: true });
            e
        });
        // The BrTag retakes the entry once; bound the run so both
        // engines hit the same step limit identically.
        differential(&p, &ExecConfig { max_steps: 50 });
    }

    #[test]
    fn decoded_matches_legacy_on_errors() {
        // Bad address.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let base = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: base,
                w: Word::int(-3),
            });
            a.emit(Op::Ld {
                d: base,
                base,
                off: 0,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        differential(&p, &ExecConfig::default());

        // Division by zero.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let x = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: x,
                w: Word::int(5),
            });
            a.emit(Op::Alu {
                op: AluOp::Div,
                d: x,
                a: x,
                b: Operand::Imm(0),
            });
            a.emit(Op::Halt { success: true });
            e
        });
        differential(&p, &ExecConfig::default());

        // Indirect jump through a non-code word.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let x = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: x,
                w: Word::int(1),
            });
            a.emit(Op::JmpR { r: x });
            a.emit(Op::Halt { success: true });
            e
        });
        differential(&p, &ExecConfig::default());
    }

    #[test]
    fn unmapped_indirect_label_is_an_error_in_both_engines() {
        // A `Word::code` immediate naming an unbound label would fail
        // program validation, so build the unmapped id at run time
        // instead: tag an integer as code.
        let p2 = assemble(|a| {
            let e = a.fresh_label();
            let x = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: x,
                w: Word::int(999),
            });
            a.emit(Op::MkTag {
                d: x,
                s: x,
                tag: Tag::Cod,
            });
            a.emit(Op::JmpR { r: x });
            a.emit(Op::Halt { success: true });
            e
        });
        let layout = tiny_layout();
        let err = Emulator::new(&p2, &layout)
            .run(&ExecConfig::default())
            .unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::UnmappedLabel {
                    label: Label(999),
                    at: 2
                }
            ),
            "legacy: {err:?}"
        );
        let decoded = DecodedProgram::new(&p2);
        let derr = DecodedEmulator::new(&decoded, &layout)
            .run(&ExecConfig::default())
            .unwrap_err();
        assert_eq!(err, derr);
    }

    #[test]
    fn traced_runs_match() {
        let p = assemble(|a| {
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
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(40),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let layout = tiny_layout();
        let mut legacy = Emulator::new(&p, &layout);
        legacy.set_trace(16);
        legacy.run(&ExecConfig::default()).unwrap();
        let decoded = DecodedProgram::new(&p);
        let mut fast = DecodedEmulator::new(&decoded, &layout);
        fast.set_trace(16);
        fast.run(&ExecConfig::default()).unwrap();
        assert_eq!(legacy.trace(), fast.trace());
    }

    #[test]
    fn profiled_run_is_bit_identical_and_predicts_loops_well() {
        // A 100-iteration counted loop: the backward branch is taken 99
        // times then falls through once. Starting from weakly-not-taken
        // (01) the counter mispredicts the first taken (moving to 10,
        // predict-taken) and the final fall-through — exactly 2
        // mispredictions.
        let p = assemble(|a| {
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
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(100),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let layout = tiny_layout();
        let cfg = ExecConfig::default();
        let decoded = DecodedProgram::new(&p);
        let (r1, s1, n1) = DecodedEmulator::new(&decoded, &layout).run_with_stats(&cfg);
        let (r2, s2, n2, prof) = DecodedEmulator::new(&decoded, &layout).run_with_profile(&cfg);
        assert_eq!(
            r1.unwrap(),
            r2.unwrap(),
            "profiling must not change results"
        );
        assert_eq!(n1, n2);
        assert_eq!(s1.expect, s2.expect);
        assert_eq!(s1.taken, s2.taken);
        let branch_at = 2; // MvI, Alu, Br, Halt
        assert_eq!(s2.expect[branch_at], 100);
        assert_eq!(s2.taken[branch_at], 99);
        assert_eq!(prof.mispredict[branch_at], 2);
        assert_eq!(prof.total_mispredicts(), 2);
        let rate = prof.mispredict_rate(&p, &s2).unwrap();
        assert!((rate - 0.02).abs() < 1e-12, "rate {rate}");
    }

    #[test]
    fn hot_pcs_rank_by_execution_count() {
        let p = assemble(|a| {
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
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(10),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let (_, stats, _) =
            DecodedEmulator::new(&decoded, &layout).run_with_stats(&ExecConfig::default());
        let hot = stats.hot_pcs(2);
        // Ops 1 and 2 each ran 10 times; ties break by index.
        assert_eq!(hot, vec![(1, 10), (2, 10)]);
        assert_eq!(stats.hot_pcs(100).len(), 4, "halt and init ran once");
    }

    #[test]
    fn a_recycled_memory_reads_zero_everywhere() {
        // A length no other test uses, and not a multiple of the page
        // size, so the free list holds only this test's buffer.
        let layout = Layout {
            heap_size: 9_000,
            env_size: 1_000,
            cp_size: 777,
            trail_size: 500,
            pdl_size: 33,
        };
        let total = layout.total() as i64;
        // Stores a non-zero word to every address, across every page.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let (addr, junk) = (a.fresh_reg(), a.fresh_reg());
            a.bind(e);
            a.emit(Op::MvI {
                d: addr,
                w: Word::int(0),
            });
            a.emit(Op::MvI {
                d: junk,
                w: Word {
                    tag: Tag::Str,
                    val: 0x5eed,
                },
            });
            a.bind(lp);
            a.emit(Op::St {
                s: junk,
                base: addr,
                off: 0,
            });
            a.emit(Op::Alu {
                op: AluOp::Add,
                d: addr,
                a: addr,
                b: Operand::Imm(1),
            });
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: addr,
                b: Operand::Imm(total),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let decoded = DecodedProgram::new(&p);
        for round in 0..4 {
            let mut emu = DecodedEmulator::new(&decoded, &layout);
            for addr in 0..total {
                assert_eq!(emu.peek(addr), Some(Word::int(0)), "round {round}, {addr}");
            }
            assert_eq!(emu.peek(total), None);
            let run = emu.run(&ExecConfig::default()).expect("runs");
            assert_eq!(run.outcome, Outcome::Success);
            assert_eq!(emu.peek(total - 1).map(|w| w.tag), Some(Tag::Str));
        }
    }

    #[test]
    fn micro_op_records_stay_compact() {
        // The whole point of the decoded form is cache density: one
        // record must not grow past 32 bytes.
        assert!(std::mem::size_of::<MicroOp>() <= 32);
    }
}
