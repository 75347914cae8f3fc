//! Pre-decoded micro-op execution engine for the VLIW simulator.
//!
//! [`DecodedVliw`] lowers a scheduled [`VliwProgram`] once, at load
//! time, for one specific [`MachineConfig`]:
//!
//! * every long-instruction word's slots become dense per-class issue
//!   records (`DecodedSlot`s) with register ids, immediates and the
//!   (at most two) source registers of the latency check pre-extracted,
//!   so the issue loop never matches on an `Op` or its operands,
//! * the static verdict of each word — issue width, per-class slot
//!   budgets, unit conflicts, the prototype's format restriction, one
//!   writer per register — is evaluated **once** per word by
//!   [`MachineConfig::check_word`] and stored, so the issue loop
//!   replays a precomputed `Option<WordFault>` instead of re-matching
//!   slots against classes every cycle,
//! * direct branch targets are pre-resolved instruction indices and the
//!   per-word class-operation counts are pre-summed,
//! * each word is marked when it is hazard-free — no slot reads a
//!   register an earlier slot of the word writes, no register is
//!   written twice, no load follows a store — so that its slots can
//!   commit as they issue, in one pass. Every other word keeps the
//!   buffered two-phase issue. Compiled code is hazard-free in all but
//!   a handful of words.
//!
//! [`DecodedVliwSim`] executes the decoded form and is **bit-identical**
//! to [`crate::sim::VliwSim`]: same [`SimResult`] (cycles, instruction
//! and op counts, taken branches, class ops) and same [`SimError`]
//! values, asserted by the workspace differential suite.

use symbol_intcode::layout::Layout;
use symbol_intcode::mem::DataMem;
use symbol_intcode::{AluOp, Cond, Label, Op, OpClass, Operand, Tag, Word, R};

use crate::machine::{MachineConfig, WordFault};
use crate::program::{SlotOp, VliwProgram};
use crate::sim::{SimConfig, SimError, SimOutcome, SimResult};

/// Sentinel for "no register" in a [`DecodedSlot`]'s use list and for
/// "no address" in a resolved target.
pub(crate) const NONE: u32 = u32::MAX;

/// The operation payload of one decoded slot: operands resolved to
/// plain indices, the register/immediate alternative monomorphized
/// into separate kinds, and branch targets resolved to instruction
/// indices (`NONE` = the label has no address in this program; taking
/// such a branch reports [`SimError::UnmappedLabel`] with the kept
/// label id, exactly like the legacy lazy resolution).
#[derive(Copy, Clone, Debug)]
pub(crate) enum SlotMicro {
    Ld {
        d: u32,
        base: u32,
        off: i32,
    },
    St {
        s: u32,
        base: u32,
        off: i32,
    },
    Mv {
        d: u32,
        s: u32,
    },
    MvI {
        d: u32,
        w: Word,
    },
    AluRR {
        op: AluOp,
        d: u32,
        a: u32,
        b: u32,
    },
    AluRI {
        op: AluOp,
        d: u32,
        a: u32,
        imm: i64,
    },
    AddARR {
        d: u32,
        a: u32,
        b: u32,
    },
    AddARI {
        d: u32,
        a: u32,
        imm: i64,
    },
    MkTag {
        d: u32,
        s: u32,
        tag: Tag,
    },
    BrRR {
        cond: Cond,
        a: u32,
        b: u32,
        t: u32,
        l: u32,
    },
    BrRI {
        cond: Cond,
        a: u32,
        imm: i64,
        t: u32,
        l: u32,
    },
    BrTag {
        a: u32,
        tag: Tag,
        eq: bool,
        t: u32,
        l: u32,
    },
    BrWord {
        a: u32,
        w: Word,
        eq: bool,
        t: u32,
        l: u32,
    },
    BrWEq {
        a: u32,
        b: u32,
        eq: bool,
        t: u32,
        l: u32,
    },
    Jmp {
        t: u32,
        l: u32,
    },
    JmpR {
        r: u32,
    },
    Halt {
        success: bool,
    },
}

/// One pre-decoded issue record.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DecodedSlot {
    /// Source registers read by the op (`NONE`-padded), extracted once
    /// so the per-cycle latency check never allocates.
    pub(crate) uses: [u32; 2],
    /// Whether faults of this op are dismissed (compactor speculation).
    pub(crate) speculative: bool,
    /// The operation.
    pub(crate) op: SlotMicro,
}

/// One pre-decoded instruction word: a dense slice into the flat slot
/// vector plus everything about the word that is static per machine.
#[derive(Clone, Debug)]
pub(crate) struct DecodedWord {
    /// First slot index in [`DecodedVliw::slots`].
    pub(crate) first: u32,
    /// Number of slots.
    pub(crate) len: u32,
    /// Pre-summed executed-op counts per class (memory, ALU, move,
    /// control).
    pub(crate) class_counts: [u16; OpClass::COUNT],
    /// Pre-evaluated static verdict: the fault the legacy simulator
    /// would raise on every issue of this word, or `None` when the word
    /// fits the machine.
    pub(crate) fault: Option<WordFault>,
    /// Whether the word is hazard-free ([`hazard_free`]), so that its
    /// slots may commit one by one as they issue.
    pub(crate) hazard_free: bool,
}

/// Whether committing `word`'s slots one by one, in slot order, has the
/// effect of committing them all after the last: no slot reads a
/// register that an earlier slot of the word writes, no register is
/// written twice, and no load follows a store. Every other word needs
/// the buffered two-phase issue, which evaluates all slots against the
/// state before the word.
fn hazard_free(word: &[SlotOp]) -> bool {
    word.iter().enumerate().all(|(i, s)| {
        let earlier = &word[..i];
        let written = |r: R| earlier.iter().any(|e| e.op.def() == Some(r));
        let load_after_store =
            matches!(s.op, Op::Ld { .. }) && earlier.iter().any(|e| matches!(e.op, Op::St { .. }));
        !s.op.uses().iter().any(|&r| written(r))
            && !s.op.def().is_some_and(written)
            && !load_after_store
    })
}

/// A [`VliwProgram`] lowered to the flat issue-record form for one
/// specific machine configuration.
#[derive(Clone, Debug)]
pub struct DecodedVliw {
    pub(crate) words: Vec<DecodedWord>,
    pub(crate) slots: Vec<DecodedSlot>,
    /// Dense label id → instruction index (`NONE` = unbound), for the
    /// indirect jumps that must still resolve at run time.
    pub(crate) label_pc: Vec<u32>,
    pub(crate) machine: MachineConfig,
    pub(crate) entry_pc: usize,
    pub(crate) num_regs: usize,
}

impl DecodedVliw {
    /// Decodes a scheduled program for `machine`. Decoding never fails:
    /// resource violations are recorded per word and reported (exactly
    /// like the legacy simulator) when the word is first issued.
    ///
    /// # Panics
    ///
    /// Panics if the program has ≥ `u32::MAX` slots or instruction
    /// words (far beyond any schedulable program).
    pub fn new(program: &VliwProgram, machine: MachineConfig) -> Self {
        assert!(program.len() < u32::MAX as usize, "program too large");
        let mut words = Vec::with_capacity(program.len());
        let mut slots = Vec::with_capacity(program.num_ops());
        let mut num_regs = 1usize;
        for w in program.words() {
            let first = u32::try_from(slots.len()).expect("slot count fits u32");
            let mut class_counts = [0u16; OpClass::COUNT];
            for s in w {
                class_counts[s.op.class().index()] += 1;
                let mut uses = [NONE; 2];
                for (k, r) in s.op.uses().into_iter().enumerate() {
                    uses[k] = r.0;
                    num_regs = num_regs.max(r.0 as usize + 1);
                }
                if let Some(r) = s.op.def() {
                    num_regs = num_regs.max(r.0 as usize + 1);
                }
                let t = |l: Label| {
                    let a = program.label_addr(l);
                    if a == usize::MAX {
                        NONE
                    } else {
                        a as u32
                    }
                };
                let op = match s.op {
                    Op::Ld { d, base, off } => SlotMicro::Ld {
                        d: d.0,
                        base: base.0,
                        off,
                    },
                    Op::St { s, base, off } => SlotMicro::St {
                        s: s.0,
                        base: base.0,
                        off,
                    },
                    Op::Mv { d, s } => SlotMicro::Mv { d: d.0, s: s.0 },
                    Op::MvI { d, w } => SlotMicro::MvI { d: d.0, w },
                    Op::Alu { op, d, a, b } => match b {
                        Operand::Reg(b) => SlotMicro::AluRR {
                            op,
                            d: d.0,
                            a: a.0,
                            b: b.0,
                        },
                        Operand::Imm(imm) => SlotMicro::AluRI {
                            op,
                            d: d.0,
                            a: a.0,
                            imm,
                        },
                    },
                    Op::AddA { d, a, b } => match b {
                        Operand::Reg(b) => SlotMicro::AddARR {
                            d: d.0,
                            a: a.0,
                            b: b.0,
                        },
                        Operand::Imm(imm) => SlotMicro::AddARI {
                            d: d.0,
                            a: a.0,
                            imm,
                        },
                    },
                    Op::MkTag { d, s, tag } => SlotMicro::MkTag {
                        d: d.0,
                        s: s.0,
                        tag,
                    },
                    Op::Br { cond, a, b, t: l } => match b {
                        Operand::Reg(b) => SlotMicro::BrRR {
                            cond,
                            a: a.0,
                            b: b.0,
                            t: t(l),
                            l: l.0,
                        },
                        Operand::Imm(imm) => SlotMicro::BrRI {
                            cond,
                            a: a.0,
                            imm,
                            t: t(l),
                            l: l.0,
                        },
                    },
                    Op::BrTag { a, tag, eq, t: l } => SlotMicro::BrTag {
                        a: a.0,
                        tag,
                        eq,
                        t: t(l),
                        l: l.0,
                    },
                    Op::BrWord { a, w, eq, t: l } => SlotMicro::BrWord {
                        a: a.0,
                        w,
                        eq,
                        t: t(l),
                        l: l.0,
                    },
                    Op::BrWEq { a, b, eq, t: l } => SlotMicro::BrWEq {
                        a: a.0,
                        b: b.0,
                        eq,
                        t: t(l),
                        l: l.0,
                    },
                    Op::Jmp { t: l } => SlotMicro::Jmp { t: t(l), l: l.0 },
                    Op::JmpR { r } => SlotMicro::JmpR { r: r.0 },
                    Op::Halt { success } => SlotMicro::Halt { success },
                };
                slots.push(DecodedSlot {
                    uses,
                    speculative: s.speculative,
                    op,
                });
            }
            words.push(DecodedWord {
                first,
                len: w.len() as u32,
                class_counts,
                fault: machine.check_word(w).err(),
                hazard_free: hazard_free(w),
            });
        }
        let label_pc = program
            .label_table()
            .iter()
            .map(|&a| if a == usize::MAX { NONE } else { a as u32 })
            .collect();
        DecodedVliw {
            words,
            slots,
            label_pc,
            machine,
            entry_pc: program.label_addr(program.entry()),
            num_regs,
        }
    }

    /// The machine configuration the program was decoded for.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Number of instruction words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Per-cycle machine profile gathered by
/// [`DecodedVliwSim::run_profiled`]: slot occupancy, per-class busy
/// slot-cycles, and stall causes. All counters describe *issued* words
/// — a taken branch's bubble cycles issue nothing and are accounted
/// separately in [`SimProfile::branch_bubble_cycles`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// `occupancy[k]` = number of issued words carrying exactly `k`
    /// ops (length `issue_width + 1`).
    pub occupancy: Vec<u64>,
    /// Busy slot-cycles per class, indexed by [`OpClass::index`].
    pub class_busy: [u64; OpClass::COUNT],
    /// Cycles lost to the pipelined-control bubble of taken branches —
    /// the machine's only stall source (paper §4.3 timing model).
    pub branch_bubble_cycles: u64,
    /// Issued words carrying zero ops (scheduler nops).
    pub empty_words: u64,
}

impl SimProfile {
    /// Mean ops per issued word (0 when nothing issued).
    pub fn mean_occupancy(&self) -> f64 {
        let words: u64 = self.occupancy.iter().sum();
        if words == 0 {
            return 0.0;
        }
        let ops: u64 = self
            .occupancy
            .iter()
            .enumerate()
            .map(|(k, &n)| k as u64 * n)
            .sum();
        ops as f64 / words as f64
    }

    /// Per-class utilization against the machine's slot budget over
    /// `cycles` total cycles, indexed by [`OpClass::index`].
    pub fn class_utilization(&self, machine: &MachineConfig, cycles: u64) -> [f64; OpClass::COUNT] {
        OpClass::ALL.map(|c| {
            let budget = machine.slots(c) as u64 * cycles;
            if budget == 0 {
                0.0
            } else {
                self.class_busy[c.index()] as f64 / budget as f64
            }
        })
    }
}

/// The VLIW machine state, executing a [`DecodedVliw`].
#[derive(Debug)]
pub struct DecodedVliwSim<'a> {
    program: &'a DecodedVliw,
    regs: Vec<Word>,
    ready: Vec<u64>,
    mem: DataMem,
    pc: usize,
    /// The buffered issue's write buffers (register writes carry the
    /// result-ready cycle); cleared every issue instead of reallocated.
    reg_writes: Vec<(u32, Word, u64)>,
    mem_writes: Vec<(i64, Word)>,
}

impl<'a> DecodedVliwSim<'a> {
    /// Creates a simulator with zeroed state. The memory is a recycled
    /// [`DataMem`] when a dropped one of the same length is free.
    pub fn new(program: &'a DecodedVliw, layout: &Layout) -> Self {
        DecodedVliwSim {
            program,
            regs: vec![Word::int(0); program.num_regs],
            ready: vec![0; program.num_regs],
            mem: DataMem::new(layout.total()),
            pc: program.entry_pc,
            reg_writes: Vec::new(),
            mem_writes: Vec::new(),
        }
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on any machine-model violation or
    /// run-time fault; Prolog failure is a normal outcome.
    pub fn run(&mut self, cfg: &SimConfig) -> Result<SimResult, SimError> {
        self.run_loop::<false>(cfg, &mut SimProfile::default())
    }

    /// Like [`DecodedVliwSim::run`] but also gathers the per-cycle
    /// [`SimProfile`] (slot occupancy, class busy slot-cycles, stall
    /// causes). A separate `PROFILE = true` monomorphization of the
    /// same issue loop — the plain `run` path contains none of the
    /// profiling bookkeeping. The [`SimResult`] is bit-identical to the
    /// unprofiled run's.
    ///
    /// The profile is returned even when the run errors, describing the
    /// cycles executed up to the fault.
    ///
    /// # Errors
    ///
    /// Exactly as [`DecodedVliwSim::run`].
    pub fn run_profiled(&mut self, cfg: &SimConfig) -> (Result<SimResult, SimError>, SimProfile) {
        let mut profile = SimProfile {
            occupancy: vec![0; self.program.machine.issue_width + 1],
            ..SimProfile::default()
        };
        let res = self.run_loop::<true>(cfg, &mut profile);
        (res, profile)
    }

    /// The monomorphized issue loop behind [`DecodedVliwSim::run`] and
    /// [`DecodedVliwSim::run_profiled`].
    fn run_loop<const PROFILE: bool>(
        &mut self,
        cfg: &SimConfig,
        profile: &mut SimProfile,
    ) -> Result<SimResult, SimError> {
        let program = self.program;
        let words = program.words.as_slice();
        let all_slots = program.slots.as_slice();
        let branch_penalty = program.machine.taken_branch_penalty as u64;
        let mut cycle: u64 = 0;
        let mut executed: u64 = 0;
        let mut ops: u64 = 0;
        let mut taken: u64 = 0;
        let mut class_ops = [0u64; OpClass::COUNT];

        loop {
            if cycle >= cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: cfg.max_cycles,
                });
            }
            let at = self.pc;
            let word = match words.get(at) {
                Some(w) => w,
                None => return Err(SimError::RanOffEnd),
            };
            executed += 1;
            ops += word.len as u64;
            for (acc, &c) in class_ops.iter_mut().zip(&word.class_counts) {
                *acc += c as u64;
            }
            if PROFILE {
                profile.occupancy[word.len as usize] += 1;
                if word.len == 0 {
                    profile.empty_words += 1;
                }
                for (acc, &c) in profile.class_busy.iter_mut().zip(&word.class_counts) {
                    *acc += c as u64;
                }
            }
            if let Some(fault) = word.fault {
                return Err(SimError::IllegalWord { at, fault });
            }
            let slots = &all_slots[word.first as usize..(word.first + word.len) as usize];
            let (transfer, halt) = if word.hazard_free {
                self.issue::<false>(slots, at, cycle)?
            } else {
                self.issue::<true>(slots, at, cycle)?
            };

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
                Some(target) => {
                    taken += 1;
                    cycle += 1 + branch_penalty;
                    if PROFILE {
                        profile.branch_bubble_cycles += branch_penalty;
                    }
                    self.pc = target;
                }
                None => {
                    cycle += 1;
                    self.pc = at + 1;
                }
            }
        }
    }

    /// Issues one word's slots at `cycle`: checks every read's latency
    /// and evaluates each slot, in slot order, returning the taken
    /// transfer and the halt outcome, if any.
    ///
    /// `BUFFERED` picks the commit step. A buffered issue evaluates
    /// every slot against the state before the word and commits the
    /// results afterwards; it runs any word. An unbuffered issue
    /// commits each slot's result at once, which is the same thing
    /// only for a [`hazard_free`] word. If a later slot of such a word
    /// faults, the earlier slots' results are already committed; the
    /// run then returns that error, and the simulator has no accessor
    /// for its state, so nothing can observe the difference.
    #[inline(always)]
    fn issue<const BUFFERED: bool>(
        &mut self,
        slots: &[DecodedSlot],
        at: usize,
        cycle: u64,
    ) -> Result<(Option<usize>, Option<SimOutcome>), SimError> {
        let mem_latency = self.program.machine.mem_latency as u64;
        let alu_latency = self.program.machine.alu_latency as u64;
        if BUFFERED {
            self.reg_writes.clear();
            self.mem_writes.clear();
        }
        let mut transfer: Option<usize> = None;
        let mut halt: Option<SimOutcome> = None;

        for s in slots {
            // Latency check on every read (use-list order matches the
            // legacy `Op::uses()` order).
            for &r in &s.uses {
                if r != NONE && self.ready[r as usize] > cycle {
                    return Err(SimError::LatencyViolation { at, reg: r });
                }
            }
            match s.op {
                SlotMicro::Ld { d, base, off } => {
                    let addr = self.regs[base as usize].val + off as i64;
                    let w = match self.load(addr, at) {
                        Ok(w) => w,
                        // dismissable speculative load: the value is
                        // dead on the faulting path
                        Err(_) if s.speculative => Word::int(0),
                        Err(e) => return Err(e),
                    };
                    self.write_reg::<BUFFERED>(d, w, cycle + mem_latency);
                }
                SlotMicro::St { s: src, base, off } => {
                    let addr = self.regs[base as usize].val + off as i64;
                    self.store::<BUFFERED>(addr, self.regs[src as usize], at)?;
                }
                SlotMicro::Mv { d, s: src } => {
                    self.write_reg::<BUFFERED>(d, self.regs[src as usize], cycle + 1);
                }
                SlotMicro::MvI { d, w } => self.write_reg::<BUFFERED>(d, w, cycle + 1),
                SlotMicro::AluRR { op, d, a, b } => {
                    let av = self.regs[a as usize].val;
                    let bv = self.regs[b as usize].val;
                    let v = match op.eval(av, bv) {
                        Some(v) => v,
                        None if s.speculative => 0,
                        None => return Err(SimError::DivideByZero { at }),
                    };
                    self.write_reg::<BUFFERED>(d, Word::int(v), cycle + alu_latency);
                }
                SlotMicro::AluRI { op, d, a, imm } => {
                    let av = self.regs[a as usize].val;
                    let v = match op.eval(av, imm) {
                        Some(v) => v,
                        None if s.speculative => 0,
                        None => return Err(SimError::DivideByZero { at }),
                    };
                    self.write_reg::<BUFFERED>(d, Word::int(v), cycle + alu_latency);
                }
                SlotMicro::AddARR { d, a, b } => {
                    let aw = self.regs[a as usize];
                    let bv = self.regs[b as usize].val;
                    let w = Word {
                        tag: aw.tag,
                        val: aw.val.wrapping_add(bv),
                    };
                    self.write_reg::<BUFFERED>(d, w, cycle + alu_latency);
                }
                SlotMicro::AddARI { d, a, imm } => {
                    let aw = self.regs[a as usize];
                    let w = Word {
                        tag: aw.tag,
                        val: aw.val.wrapping_add(imm),
                    };
                    self.write_reg::<BUFFERED>(d, w, cycle + alu_latency);
                }
                SlotMicro::MkTag { d, s: src, tag } => {
                    let v = self.regs[src as usize].val;
                    self.write_reg::<BUFFERED>(d, Word { tag, val: v }, cycle + alu_latency);
                }
                SlotMicro::BrRR { cond, a, b, t, l } => {
                    if transfer.is_none()
                        && halt.is_none()
                        && cond.eval(self.regs[a as usize].val, self.regs[b as usize].val)
                    {
                        transfer = Some(Self::direct(t, l, at)?);
                    }
                }
                SlotMicro::BrRI { cond, a, imm, t, l } => {
                    if transfer.is_none()
                        && halt.is_none()
                        && cond.eval(self.regs[a as usize].val, imm)
                    {
                        transfer = Some(Self::direct(t, l, at)?);
                    }
                }
                SlotMicro::BrTag { a, tag, eq, t, l } => {
                    if transfer.is_none()
                        && halt.is_none()
                        && (self.regs[a as usize].tag == tag) == eq
                    {
                        transfer = Some(Self::direct(t, l, at)?);
                    }
                }
                SlotMicro::BrWord { a, w, eq, t, l } => {
                    if transfer.is_none() && halt.is_none() && (self.regs[a as usize] == w) == eq {
                        transfer = Some(Self::direct(t, l, at)?);
                    }
                }
                SlotMicro::BrWEq { a, b, eq, t, l } => {
                    if transfer.is_none()
                        && halt.is_none()
                        && (self.regs[a as usize] == self.regs[b as usize]) == eq
                    {
                        transfer = Some(Self::direct(t, l, at)?);
                    }
                }
                SlotMicro::Jmp { t, l } => {
                    if transfer.is_none() && halt.is_none() {
                        transfer = Some(Self::direct(t, l, at)?);
                    }
                }
                SlotMicro::JmpR { r } => {
                    if transfer.is_none() && halt.is_none() {
                        let w = self.regs[r as usize];
                        if w.tag != Tag::Cod {
                            return Err(SimError::BadCodeWord { at });
                        }
                        transfer = Some(self.resolve(Label(w.val as u32), at)?);
                    }
                }
                SlotMicro::Halt { success } => {
                    if transfer.is_none() && halt.is_none() {
                        halt = Some(if success {
                            SimOutcome::Success
                        } else {
                            SimOutcome::Failure
                        });
                    }
                }
            }
        }

        if BUFFERED {
            // Commit: registers in slot order, then memory.
            for &(r, w, rdy) in &self.reg_writes {
                self.regs[r as usize] = w;
                self.ready[r as usize] = rdy;
            }
            // The evaluation checked every store address, so the error
            // is unreachable.
            for &(addr, w) in &self.mem_writes {
                self.mem
                    .set(addr as usize, w)
                    .ok_or(SimError::BadAddress { at, addr })?;
            }
        }
        Ok((transfer, halt))
    }

    /// Writes register `d`, ready at cycle `ready`: now, or at the
    /// buffered issue's commit.
    #[inline(always)]
    fn write_reg<const BUFFERED: bool>(&mut self, d: u32, w: Word, ready: u64) {
        if BUFFERED {
            self.reg_writes.push((d, w, ready));
        } else {
            self.regs[d as usize] = w;
            self.ready[d as usize] = ready;
        }
    }

    /// Stores `w` at `addr` after checking the address: now, or at the
    /// buffered issue's commit.
    #[inline(always)]
    fn store<const BUFFERED: bool>(
        &mut self,
        addr: i64,
        w: Word,
        at: usize,
    ) -> Result<(), SimError> {
        if BUFFERED {
            self.check_addr(addr, at)?;
            self.mem_writes.push((addr, w));
            Ok(())
        } else {
            usize::try_from(addr)
                .ok()
                .and_then(|i| self.mem.set(i, w))
                .ok_or(SimError::BadAddress { at, addr })
        }
    }

    /// Pre-resolved target of a direct control transfer; the kept label
    /// id is only used to report an unmapped target, deferred to first
    /// execution exactly like the legacy lazy resolution.
    #[inline(always)]
    fn direct(t: u32, l: u32, at: usize) -> Result<usize, SimError> {
        if t == NONE {
            Err(SimError::UnmappedLabel {
                at,
                label: Label(l),
            })
        } else {
            Ok(t as usize)
        }
    }

    /// Dynamic label resolution for indirect jumps whose target lives
    /// in a `Cod`-tagged register at run time.
    #[inline(always)]
    fn resolve(&self, l: Label, at: usize) -> Result<usize, SimError> {
        match self.program.label_pc.get(l.0 as usize) {
            Some(&a) if a != NONE => Ok(a as usize),
            _ => Err(SimError::UnmappedLabel { at, label: l }),
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
        usize::try_from(addr)
            .ok()
            .and_then(|i| self.mem.get(i))
            .ok_or(SimError::BadAddress { at, addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::from_words;
    use crate::sim::VliwSim;
    use crate::Rng;

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

    /// Runs a program through both engines and asserts bit-identical
    /// results (success or error alike).
    fn differential(p: &VliwProgram, machine: MachineConfig) {
        let layout = tiny_layout();
        let legacy = VliwSim::new(p, machine, &layout).run(&SimConfig::default());
        let decoded = DecodedVliw::new(p, machine);
        let fast = DecodedVliwSim::new(&decoded, &layout).run(&SimConfig::default());
        match (legacy, fast) {
            (Ok(l), Ok(d)) => {
                assert_eq!(l.outcome, d.outcome, "outcome diverged");
                assert_eq!(l.cycles, d.cycles, "cycles diverged");
                assert_eq!(l.instructions, d.instructions, "instructions diverged");
                assert_eq!(l.ops, d.ops, "ops diverged");
                assert_eq!(l.taken_branches, d.taken_branches, "taken diverged");
                assert_eq!(l.class_ops, d.class_ops, "class_ops diverged");
            }
            (l, d) => assert_eq!(l.err(), d.err(), "errors diverged"),
        }
    }

    #[test]
    fn decoded_matches_legacy_on_swap_and_branches() {
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
            word(vec![Op::Halt { success: false }]),
        ];
        let p = from_words(instrs, &[(0, 0), (1, 6)]);
        differential(&p, MachineConfig::units(4));
    }

    #[test]
    fn profiled_run_is_bit_identical_and_accounts_every_cycle() {
        // Same program as the swap test: two 2-op words, two nops, a
        // taken Ne-branch, and the success halt behind label 1.
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
            word(vec![Op::Halt { success: false }]),
        ];
        let p = from_words(instrs, &[(0, 0), (1, 6)]);
        let machine = MachineConfig::units(4);
        let layout = tiny_layout();
        let decoded = DecodedVliw::new(&p, machine);
        let plain = DecodedVliwSim::new(&decoded, &layout)
            .run(&SimConfig::default())
            .unwrap();
        let (profiled, prof) =
            DecodedVliwSim::new(&decoded, &layout).run_profiled(&SimConfig::default());
        let profiled = profiled.unwrap();
        assert_eq!(plain.outcome, profiled.outcome);
        assert_eq!(plain.cycles, profiled.cycles, "profiling must not retime");
        assert_eq!(plain.class_ops, profiled.class_ops);

        // Every issued word landed in exactly one occupancy bucket.
        let words_issued: u64 = prof.occupancy.iter().sum();
        assert_eq!(words_issued, profiled.instructions);
        assert_eq!(prof.occupancy.len(), machine.issue_width + 1);
        assert_eq!(prof.occupancy[2], 2, "the two swap words");
        assert_eq!(prof.occupancy[1], 2, "branch and halt");
        assert_eq!(prof.empty_words, 2, "the two scheduler nops");
        assert_eq!(prof.occupancy[0], prof.empty_words);

        // Busy slot-cycles per class agree with the class-op counts,
        // and the only stall source is the taken-branch bubble.
        assert_eq!(prof.class_busy, profiled.class_ops);
        assert_eq!(
            prof.branch_bubble_cycles,
            profiled.taken_branches * machine.taken_branch_penalty as u64
        );
        let mean = prof.mean_occupancy();
        assert!((mean - 6.0 / 6.0).abs() < 1e-12, "mean {mean}");
        let util = prof.class_utilization(&machine, profiled.cycles);
        let move_util = util[OpClass::Move.index()];
        // 4 move ops over cycles × 4 move slots.
        assert!(
            (move_util - 4.0 / (profiled.cycles as f64 * 4.0)).abs() < 1e-12,
            "move util {move_util}"
        );
    }

    #[test]
    fn decoded_matches_legacy_on_memory_and_latency() {
        // store + load round trip with the mem-latency gap respected
        let instrs = vec![
            word(vec![Op::MvI {
                d: R(50),
                w: Word::int(3),
            }]),
            vec![],
            word(vec![Op::St {
                s: R(50),
                base: R(50),
                off: 0,
            }]),
            word(vec![Op::Ld {
                d: R(40),
                base: R(50),
                off: 0,
            }]),
            vec![],
            vec![],
            word(vec![Op::BrWEq {
                a: R(40),
                b: R(50),
                eq: true,
                t: Label(1),
            }]),
            word(vec![Op::Halt { success: false }]),
            word(vec![Op::Halt { success: true }]),
        ];
        let p = from_words(instrs, &[(0, 0), (1, 8)]);
        differential(&p, MachineConfig::units(2));
    }

    #[test]
    fn a_recycled_memory_starts_zeroed() {
        // Loads address 1500 (on the second page), stores a non-zero
        // word there, and halts with success only if the load read zero.
        let instrs = vec![
            word(vec![Op::MvI {
                d: R(50),
                w: Word::int(1500),
            }]),
            word(vec![Op::MvI {
                d: R(51),
                w: Word::atom(9),
            }]),
            word(vec![Op::Ld {
                d: R(40),
                base: R(50),
                off: 0,
            }]),
            word(vec![Op::St {
                s: R(51),
                base: R(50),
                off: 0,
            }]),
            vec![],
            word(vec![Op::BrWord {
                a: R(40),
                w: Word::int(0),
                eq: true,
                t: Label(1),
            }]),
            word(vec![Op::Halt { success: false }]),
            word(vec![Op::Halt { success: true }]),
        ];
        let p = from_words(instrs, &[(0, 0), (1, 7)]);
        let decoded = DecodedVliw::new(&p, MachineConfig::units(2));
        // A length no other test uses: each simulator after the first
        // takes the buffer its predecessor dropped.
        let layout = Layout {
            heap_size: 2_000,
            env_size: 100,
            cp_size: 100,
            trail_size: 100,
            pdl_size: 7,
        };
        for round in 0..3 {
            let r = DecodedVliwSim::new(&decoded, &layout)
                .run(&SimConfig::default())
                .expect("runs");
            assert_eq!(r.outcome, SimOutcome::Success, "round {round}");
        }
    }

    #[test]
    fn decoded_matches_legacy_on_latency_violation() {
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
            word(vec![Op::Mv { d: R(41), s: R(40) }]),
            word(vec![Op::Halt { success: true }]),
        ];
        let p = from_words(instrs, &[(0, 0)]);
        differential(&p, MachineConfig::units(1));
    }

    #[test]
    fn decoded_matches_legacy_on_double_write_and_overflow() {
        // double write
        let p = from_words(
            vec![
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
            ],
            &[(0, 0)],
        );
        differential(&p, MachineConfig::units(4));

        // memory-port slot overflow
        let p = from_words(
            vec![
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
            ],
            &[(0, 0)],
        );
        differential(&p, MachineConfig::units(4));
    }

    #[test]
    fn precomputed_fault_carries_the_overflowing_class() {
        let p = from_words(
            vec![
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
            ],
            &[(0, 0)],
        );
        let decoded = DecodedVliw::new(&p, MachineConfig::units(4));
        let err = DecodedVliwSim::new(&decoded, &tiny_layout())
            .run(&SimConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::IllegalWord {
                at: 0,
                fault: WordFault::SlotOverflow {
                    class: OpClass::Memory
                }
            }
        );
    }

    #[test]
    fn width_overflow_is_its_own_error() {
        let p = from_words(
            vec![
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
                word(vec![Op::Halt { success: true }]),
            ],
            &[(0, 0)],
        );
        let machine = MachineConfig {
            issue_width: 1,
            ..MachineConfig::units(2)
        };
        let decoded = DecodedVliw::new(&p, machine);
        let err = DecodedVliwSim::new(&decoded, &tiny_layout())
            .run(&SimConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::IllegalWord {
                at: 0,
                fault: WordFault::WidthOverflow
            }
        );
        differential(&p, machine);
    }

    #[test]
    fn unexecuted_overfull_word_is_not_an_error() {
        // The fault is precomputed at decode but must only surface when
        // the word is actually issued — the legacy lazy semantics.
        let p = from_words(
            vec![
                word(vec![Op::Halt { success: true }]),
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
            ],
            &[(0, 0)],
        );
        differential(&p, MachineConfig::units(4));
        let decoded = DecodedVliw::new(&p, MachineConfig::units(4));
        let r = DecodedVliwSim::new(&decoded, &tiny_layout())
            .run(&SimConfig::default())
            .expect("halts before the bad word");
        assert_eq!(r.outcome, SimOutcome::Success);
    }

    /// A random hand-built program over registers r1–r4 and the 320
    /// words of [`tiny_layout`]: `body` words of zero to four slots (at
    /// most the issue width), then a success halt. Word `i` is bound to
    /// label `i`; label `body + 1` is left unbound for indirect jumps to
    /// miss. Slots read results of earlier slots, overwrite registers
    /// that earlier slots read, write registers twice, load before and
    /// after stores (half the time at the word's previous address),
    /// fault (bad addresses, division by zero), some of them
    /// speculatively, and branch several times per word.
    fn random_program(rng: &mut Rng, machine: &MachineConfig) -> VliwProgram {
        let body = 2 + rng.below(9) as u32;
        let labels = body as u64 + 2;
        let reg = |rng: &mut Rng| R(1 + rng.below(4) as u32);
        let operand = |rng: &mut Rng| {
            if rng.below(2) == 0 {
                Operand::Reg(reg(rng))
            } else {
                Operand::Imm(rng.below(3) as i64)
            }
        };
        let mut instrs = Vec::new();
        for _ in 0..body {
            if rng.below(4) == 0 {
                instrs.push(vec![]);
                continue;
            }
            let len = 1 + rng.below(machine.issue_width.min(4) as u64) as usize;
            let mut unit_next = [0usize; OpClass::COUNT];
            let mut last_addr = None;
            let slots = (0..len)
                .map(|_| {
                    let t = Label(rng.below(body as u64 + 1) as u32);
                    let op = match rng.below(20) {
                        0..=3 => Op::MvI {
                            d: reg(rng),
                            w: match rng.below(8) {
                                0 => Word::code(rng.below(labels) as u32),
                                1 => Word::int(400),
                                _ => Word::int(1 + rng.below(7) as i64),
                            },
                        },
                        4 | 5 => Op::Mv {
                            d: reg(rng),
                            s: reg(rng),
                        },
                        6 => Op::Alu {
                            op: [AluOp::Add, AluOp::Sub, AluOp::Div, AluOp::Mod]
                                [rng.below(4) as usize],
                            d: reg(rng),
                            a: reg(rng),
                            b: operand(rng),
                        },
                        7 => Op::AddA {
                            d: reg(rng),
                            a: reg(rng),
                            b: operand(rng),
                        },
                        8 => Op::MkTag {
                            d: reg(rng),
                            s: reg(rng),
                            tag: Tag::Atm,
                        },
                        k @ 9..=14 => {
                            let (base, off) = match last_addr {
                                Some(addr) if rng.below(2) == 0 => addr,
                                _ => (reg(rng), rng.below(3) as i32 - 1),
                            };
                            last_addr = Some((base, off));
                            if k < 12 {
                                Op::Ld {
                                    d: reg(rng),
                                    base,
                                    off,
                                }
                            } else {
                                Op::St {
                                    s: reg(rng),
                                    base,
                                    off,
                                }
                            }
                        }
                        15 => Op::Br {
                            cond: [Cond::Eq, Cond::Lt, Cond::Ge][rng.below(3) as usize],
                            a: reg(rng),
                            b: operand(rng),
                            t,
                        },
                        16 => Op::BrWEq {
                            a: reg(rng),
                            b: reg(rng),
                            eq: rng.below(2) == 0,
                            t,
                        },
                        17 => Op::Jmp { t },
                        18 => Op::JmpR { r: reg(rng) },
                        _ => Op::Halt {
                            success: rng.below(2) == 0,
                        },
                    };
                    // Units as the compactor assigns them, with an
                    // occasional clash.
                    let class = op.class();
                    let unit = if rng.below(10) == 0 {
                        rng.below(machine.units as u64) as usize
                    } else {
                        unit_next[class.index()] % machine.units
                    };
                    unit_next[class.index()] += 1;
                    SlotOp {
                        unit,
                        op,
                        speculative: rng.below(3) == 0,
                    }
                })
                .collect();
            instrs.push(slots);
        }
        instrs.push(word(vec![Op::Halt { success: true }]));
        let word_end = instrs
            .iter()
            .scan(0, |end, w: &Vec<SlotOp>| {
                *end += w.len() as u32;
                Some(*end)
            })
            .collect();
        let mut bound: Vec<usize> = (0..=body as usize).collect();
        bound.push(usize::MAX);
        VliwProgram::new(instrs.concat(), word_end, bound, Label(0))
    }

    #[test]
    fn both_issue_paths_match_the_legacy_simulator_on_random_programs() {
        let machines = [
            MachineConfig {
                mem_ports: 2,
                ..MachineConfig::units(4)
            },
            MachineConfig::prototype(),
            MachineConfig::unbounded(),
        ];
        let cfg = SimConfig { max_cycles: 200 };
        let layout = tiny_layout();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        // Clean issued words (no resource fault) of each kind.
        let (mut one_pass, mut buffered) = (0u32, 0u32);
        for machine in machines {
            for case in 0..400 {
                let p = random_program(&mut rng, &machine);
                let legacy = VliwSim::new(&p, machine, &layout).run(&cfg);
                let decoded = DecodedVliw::new(&p, machine);
                let mut sim = DecodedVliwSim::new(&decoded, &layout);
                let fast = sim.run(&cfg);
                let what = format!("{} case {case}:\n{p}", machine.describe());
                assert_eq!(legacy, fast, "{what}");
                // The same program with every word on the buffered
                // path: when the run ends between words, the registers,
                // their ready cycles and memory must agree too.
                let mut all_buffered = decoded.clone();
                for w in &mut all_buffered.words {
                    w.hazard_free = false;
                }
                let mut reference = DecodedVliwSim::new(&all_buffered, &layout);
                assert_eq!(reference.run(&cfg), fast, "{what}");
                let stopped_in =
                    !matches!(fast, Err(SimError::CycleLimit { .. } | SimError::RanOffEnd));
                if fast.is_ok() || !stopped_in {
                    assert_eq!(sim.regs, reference.regs, "{what}");
                    assert_eq!(sim.ready, reference.ready, "{what}");
                    let mem = |s: &DecodedVliwSim| {
                        (0..s.mem.len()).map(|i| s.mem.get(i)).collect::<Vec<_>>()
                    };
                    assert_eq!(mem(&sim), mem(&reference), "{what}");
                }
                // The entry word issued, and so did the word the run
                // stopped in, unless it stopped before issuing one.
                let issued = [Some(decoded.entry_pc), stopped_in.then_some(sim.pc)];
                for w in issued.into_iter().flatten().map(|at| &decoded.words[at]) {
                    if w.fault.is_none() && w.len > 0 {
                        if w.hazard_free {
                            one_pass += 1;
                        } else {
                            buffered += 1;
                        }
                    }
                }
            }
        }
        assert!(one_pass >= 50, "only {one_pass} hazard-free words issued");
        assert!(buffered >= 50, "only {buffered} buffered words issued");
    }

    #[test]
    fn the_three_hazards_are_recognised() {
        // Overwriting what an earlier slot reads, a load before a store
        // and two stores are fine; reading an earlier slot's result (a
        // swap does), a double write and a load after a store are not.
        let mv = |d: u32, s: u32| Op::Mv { d: R(d), s: R(s) };
        let ld = |d: u32| Op::Ld {
            d: R(d),
            base: R(50),
            off: 0,
        };
        let st = |s: u32| Op::St {
            s: R(s),
            base: R(50),
            off: 1,
        };
        for (ops, expect) in [
            (vec![mv(40, 41), mv(41, 42)], true),
            (vec![ld(40), st(41), st(42)], true),
            (vec![mv(40, 41), mv(41, 40)], false),
            (vec![mv(40, 41), mv(40, 42)], false),
            (vec![st(41), ld(40)], false),
        ] {
            let w = word(ops);
            assert_eq!(hazard_free(&w), expect, "{w:?}");
        }
    }

    #[test]
    fn decoded_slots_stay_compact() {
        // Cache density is the point: one issue record must not grow
        // past 48 bytes (32-byte op payload + uses + flags).
        assert!(std::mem::size_of::<DecodedSlot>() <= 48);
    }

    #[test]
    fn the_issue_loop_fault_types_stay_small() {
        // The issue loop builds these only on its fault paths, yet its
        // speed follows their layout: with a larger `SimError` (a
        // nested 16-byte fault enum) `DecodedVliwSim` ran 10-15% slower
        // per cycle and the `tables` workload about 10% slower, measured
        // on a 2-vCPU Xeon VM. Today they are 8 and 24 bytes.
        assert!(std::mem::size_of::<WordFault>() <= 8);
        assert!(std::mem::size_of::<SimError>() <= 24);
    }
}
