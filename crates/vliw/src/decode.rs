//! Pre-decoded issue stream for the VLIW simulator.
//!
//! [`DecodedVliw`] lowers a scheduled [`VliwProgram`] once, at load
//! time, for one specific [`MachineConfig`], into one flat stream of
//! `Copy` issue records:
//!
//! * each long-instruction word becomes a `Word` record followed by one
//!   record per slot, and one `End` record follows the last word;
//! * a slot record holds its op with register ids and immediates
//!   pre-extracted, the register/immediate alternative split into
//!   separate kinds, and each direct branch target resolved to the
//!   stream position of the target's `Word` record, so the issue loop
//!   never matches on an `Op` or its operands;
//! * a `Word` record holds the word's index, its slot count and its
//!   kind, decided once per machine: *illegal* when
//!   [`MachineConfig::check_word`] rejects it (issue width, per-class
//!   slot budgets, unit conflicts, the prototype's format restriction,
//!   one writer per register); *hazard-free* when no slot reads a
//!   register an earlier slot of the word writes, no register is written
//!   twice and no load follows a store, so that its slots may commit as
//!   they issue; *buffered* otherwise. Compiled code is hazard-free in
//!   all but a handful of words.
//!
//! [`DecodedVliwSim`] runs the stream with one loop and one `match` per
//! record. A `Word` record closes the word before it — a halt ends the
//! run, a taken transfer pays its bubble and moves to the target's
//! `Word` record — and opens its own: the cycle-limit check, its issue
//! count and its kind. A hazard-free word's slot records follow in the
//! same loop; a buffered word's run out of line, over the same records
//! and with the same per-record semantics. The loop counts issues per
//! word only: the [`SimResult`] counters and the [`SimProfile`] are
//! summed from those counts and each word's static per-class op counts
//! when the run stops.
//!
//! [`DecodedVliwSim`] is **bit-identical** to [`crate::sim::VliwSim`]:
//! same [`SimResult`] (cycles, instruction and op counts, taken branches,
//! class ops) and same [`SimError`] values, asserted by the workspace
//! agreement suite.

use symbol_intcode::layout::Layout;
use symbol_intcode::mem::DataMem;
use symbol_intcode::{AluOp, Cond, Label, Op, OpClass, Operand, Tag, Word, R};

use crate::machine::{MachineConfig, WordFault};
use crate::program::{SlotOp, VliwProgram};
use crate::sim::{SimConfig, SimError, SimOutcome, SimResult};

/// Sentinel for "no stream position": a label with no address, or no
/// control op of the open word has claimed the next word yet.
const NONE: u32 = u32::MAX;

/// The claim of a success halt.
const HALT_SUCCESS: u32 = u32::MAX - 1;

/// The claim of a failure halt. Every stream position lies below it.
const HALT_FAILURE: u32 = u32::MAX - 2;

/// How a word issues, decided at decode time.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum WordKind {
    /// Its slots commit one by one as they issue.
    HazardFree,
    /// Its slots all read the state before the word, and their results
    /// commit after the last.
    Buffered,
    /// It breaks a word rule: issuing it is that error.
    Illegal(WordFault),
    /// The record past the last word: reaching it runs off the end.
    End,
}

/// One record of the issue stream. Direct targets (`t`) are stream
/// positions of `Word` records, `NONE` when the label has no address
/// (taking such a branch reports [`SimError::UnmappedLabel`], exactly
/// like the legacy lazy resolution). `spec` marks an op the compactor
/// hoisted above a side exit: its fault is dismissed.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Rec {
    /// Opens word `at`, whose `len` slot records follow.
    Word {
        kind: WordKind,
        at: u32,
        len: u32,
    },
    Ld {
        d: u32,
        base: u32,
        off: i32,
        spec: bool,
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
        spec: bool,
    },
    AluRI {
        op: AluOp,
        d: u32,
        a: u32,
        imm: i64,
        spec: bool,
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
    },
    BrRI {
        cond: Cond,
        a: u32,
        imm: i64,
        t: u32,
    },
    BrTag {
        a: u32,
        tag: Tag,
        eq: bool,
        t: u32,
    },
    BrWord {
        a: u32,
        w: Word,
        eq: bool,
        t: u32,
    },
    BrWEq {
        a: u32,
        b: u32,
        eq: bool,
        t: u32,
    },
    Jmp {
        t: u32,
    },
    JmpR {
        r: u32,
    },
    Halt {
        success: bool,
    },
}

/// Lowers one slot to its record; `target` resolves a direct branch's
/// label to a stream position.
#[inline(always)]
fn lower(s: &SlotOp, mut target: impl FnMut(Label) -> u32) -> Rec {
    let spec = s.speculative;
    match s.op {
        Op::Ld { d, base, off } => Rec::Ld {
            d: d.0,
            base: base.0,
            off,
            spec,
        },
        Op::St { s, base, off } => Rec::St {
            s: s.0,
            base: base.0,
            off,
        },
        Op::Mv { d, s } => Rec::Mv { d: d.0, s: s.0 },
        Op::MvI { d, w } => Rec::MvI { d: d.0, w },
        Op::Alu { op, d, a, b } => match b {
            Operand::Reg(b) => Rec::AluRR {
                op,
                d: d.0,
                a: a.0,
                b: b.0,
                spec,
            },
            Operand::Imm(imm) => Rec::AluRI {
                op,
                d: d.0,
                a: a.0,
                imm,
                spec,
            },
        },
        Op::AddA { d, a, b } => match b {
            Operand::Reg(b) => Rec::AddARR {
                d: d.0,
                a: a.0,
                b: b.0,
            },
            Operand::Imm(imm) => Rec::AddARI {
                d: d.0,
                a: a.0,
                imm,
            },
        },
        Op::MkTag { d, s, tag } => Rec::MkTag {
            d: d.0,
            s: s.0,
            tag,
        },
        Op::Br { cond, a, b, t } => match b {
            Operand::Reg(b) => Rec::BrRR {
                cond,
                a: a.0,
                b: b.0,
                t: target(t),
            },
            Operand::Imm(imm) => Rec::BrRI {
                cond,
                a: a.0,
                imm,
                t: target(t),
            },
        },
        Op::BrTag { a, tag, eq, t } => Rec::BrTag {
            a: a.0,
            tag,
            eq,
            t: target(t),
        },
        Op::BrWord { a, w, eq, t } => Rec::BrWord {
            a: a.0,
            w,
            eq,
            t: target(t),
        },
        Op::BrWEq { a, b, eq, t } => Rec::BrWEq {
            a: a.0,
            b: b.0,
            eq,
            t: target(t),
        },
        Op::Jmp { t } => Rec::Jmp { t: target(t) },
        Op::JmpR { r } => Rec::JmpR { r: r.0 },
        Op::Halt { success } => Rec::Halt { success },
    }
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

/// A [`VliwProgram`] lowered to the flat issue stream for one specific
/// machine configuration.
#[derive(Clone, Debug)]
pub struct DecodedVliw {
    /// Each word's `Word` record and slot records, in address order,
    /// then the `End` record.
    pub(crate) stream: Vec<Rec>,
    /// Per word: its ops per class (memory, ALU, move, control).
    pub(crate) class_counts: Vec<[u16; OpClass::COUNT]>,
    /// Dense label id → stream position of the word it is bound to (the
    /// `End` record for a label bound past the last word, `NONE` when
    /// unbound), for the indirect jumps that resolve at run time.
    pub(crate) label_pos: Vec<u32>,
    /// `(stream position, label)` of each direct branch whose label has
    /// no address; only the error path reads it.
    pub(crate) unmapped: Vec<(u32, u32)>,
    pub(crate) machine: MachineConfig,
    /// Stream position of the entry word.
    pub(crate) entry: u32,
    pub(crate) num_regs: usize,
}

impl DecodedVliw {
    /// Decodes a scheduled program for `machine`. Decoding never fails:
    /// a word the machine rejects is recorded as illegal and reported
    /// (exactly like the legacy simulator) when it is first issued.
    ///
    /// # Panics
    ///
    /// Panics if the program has ≥ `u32::MAX - 2` slots and instruction
    /// words together (far beyond any schedulable program).
    pub fn new(program: &VliwProgram, machine: MachineConfig) -> Self {
        let words = program.len();
        let end = words + program.num_ops();
        assert!(end < HALT_FAILURE as usize, "program too large");
        let ends = program.word_ends();
        // Word `addr`'s record follows one record per earlier word and
        // one per earlier slot.
        let pos = |addr: usize| -> u32 {
            match addr {
                usize::MAX => NONE,
                0 => 0,
                a if a < words => (a + ends[a - 1] as usize) as u32,
                _ => end as u32,
            }
        };
        let label_pos: Vec<u32> = program.label_table().iter().map(|&a| pos(a)).collect();
        let mut stream = Vec::with_capacity(end + 1);
        let mut class_counts = Vec::with_capacity(words);
        let mut unmapped = Vec::new();
        let mut num_regs = 1usize;
        for (at, w) in program.words().enumerate() {
            // The word's record, whose kind is set after its slots.
            let head = stream.len();
            let (at, len) = (at as u32, w.len() as u32);
            stream.push(Rec::Word {
                kind: WordKind::End,
                at,
                len,
            });
            let mut counts = [0u16; OpClass::COUNT];
            for s in w {
                counts[s.op.class().index()] += 1;
                for r in s.op.uses() {
                    num_regs = num_regs.max(r.0 as usize + 1);
                }
                if let Some(r) = s.op.def() {
                    num_regs = num_regs.max(r.0 as usize + 1);
                }
                let here = stream.len() as u32;
                stream.push(lower(s, |l| {
                    let t = label_pos.get(l.0 as usize).copied().unwrap_or(NONE);
                    if t == NONE {
                        unmapped.push((here, l.0));
                    }
                    t
                }));
            }
            let kind = match machine.check_word(w) {
                Err(fault) => WordKind::Illegal(fault),
                Ok(()) if hazard_free(w) => WordKind::HazardFree,
                Ok(()) => WordKind::Buffered,
            };
            stream[head] = Rec::Word { kind, at, len };
            class_counts.push(counts);
        }
        stream.push(Rec::Word {
            kind: WordKind::End,
            at: words as u32,
            len: 0,
        });
        DecodedVliw {
            stream,
            class_counts,
            entry: pos(program.label_addr(program.entry())),
            label_pos,
            unmapped,
            machine,
            num_regs,
        }
    }

    /// The machine configuration the program was decoded for.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Number of instruction words.
    pub fn len(&self) -> usize {
        self.class_counts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.class_counts.is_empty()
    }

    /// The error of the slot record at stream position `pos`.
    #[cold]
    #[inline(never)]
    fn fault(&self, pos: usize, fault: Fault) -> SimError {
        let at = self.stream[..pos]
            .iter()
            .rev()
            .find_map(|r| match *r {
                Rec::Word { at, .. } => Some(at as usize),
                _ => None,
            })
            .unwrap_or(0);
        match fault {
            Fault::Latency(reg) => SimError::LatencyViolation { at, reg },
            Fault::BadAddress(addr) => SimError::BadAddress { at, addr },
            Fault::DivideByZero => SimError::DivideByZero { at },
            Fault::BadCodeWord => SimError::BadCodeWord { at },
            Fault::UnmappedLabel(l) => SimError::UnmappedLabel {
                at,
                label: Label(l),
            },
            Fault::UnmappedTarget => {
                let l = self
                    .unmapped
                    .iter()
                    .find(|&&(p, _)| p as usize == pos)
                    .map_or(NONE, |&(_, l)| l);
                SimError::UnmappedLabel {
                    at,
                    label: Label(l),
                }
            }
        }
    }

    /// Per-class executed ops, summed from each word's issue count.
    fn class_ops(&self, counts: &[u64]) -> [u64; OpClass::COUNT] {
        let mut class_ops = [0u64; OpClass::COUNT];
        for (&n, per_class) in counts.iter().zip(&self.class_counts) {
            for (acc, &c) in class_ops.iter_mut().zip(per_class) {
                *acc += n * c as u64;
            }
        }
        class_ops
    }

    /// The counters of a run that halted with `outcome` after `cycles`
    /// cycles and `taken` taken transfers, having issued word `w`
    /// `counts[w]` times.
    fn result(&self, outcome: SimOutcome, cycles: u64, taken: u64, counts: &[u64]) -> SimResult {
        let class_ops = self.class_ops(counts);
        SimResult {
            outcome,
            cycles,
            instructions: counts.iter().sum(),
            ops: class_ops.iter().sum(),
            taken_branches: taken,
            class_ops,
        }
    }

    /// The profile of a run that issued word `w` `counts[w]` times and
    /// took `taken` transfers.
    fn profile(&self, counts: &[u64], taken: u64) -> SimProfile {
        let mut occupancy = vec![0; self.machine.issue_width + 1];
        for (&n, per_class) in counts.iter().zip(&self.class_counts) {
            let len: usize = per_class.iter().map(|&c| c as usize).sum();
            // Only words that fit the machine issue, so `len` is at
            // most the issue width.
            if let Some(k) = occupancy.get_mut(len) {
                *k += n;
            }
        }
        SimProfile {
            empty_words: occupancy[0],
            occupancy,
            class_busy: self.class_ops(counts),
            branch_bubble_cycles: taken * self.machine.taken_branch_penalty as u64,
        }
    }
}

/// Per-cycle machine profile gathered by
/// [`DecodedVliwSim::run_profiled`]: slot occupancy, per-class busy
/// slot-cycles, and stall causes. All counters describe *issued* words:
/// a word the machine rejects ([`SimError::IllegalWord`]) never issues
/// and is not counted, while a word that faults as it issues is. A
/// taken branch's bubble cycles issue nothing and are accounted
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

/// A slot's fault, before the word it belongs to is looked up
/// ([`DecodedVliw::fault`]).
#[derive(Copy, Clone, Debug)]
enum Fault {
    Latency(u32),
    BadAddress(i64),
    DivideByZero,
    BadCodeWord,
    /// A taken direct branch whose label has no address.
    UnmappedTarget,
    /// An indirect jump to a label with no address.
    UnmappedLabel(u32),
}

/// Where a run stopped.
struct Stop {
    /// The outcome and the cycle count, or the error.
    end: Result<(SimOutcome, u64), SimError>,
    /// How often each word issued.
    counts: Vec<u64>,
    /// Taken control transfers.
    taken: u64,
}

/// The machine state a run works on, borrowed out of the simulator so
/// that the issue loop holds it in locals.
struct Machine<'s> {
    regs: &'s mut [Word],
    ready: &'s mut [u64],
    mem: &'s mut DataMem,
    /// The buffered issue's register writes, with their ready cycles.
    reg_writes: &'s mut Vec<(u32, Word, u64)>,
    /// The buffered issue's stores.
    mem_writes: &'s mut Vec<(i64, Word)>,
}

impl Machine<'_> {
    /// The same borrows, for the out-of-line buffered issue, so that
    /// the loop's own `Machine` never has its address taken and can
    /// stay in registers.
    fn reborrow(&mut self) -> Machine<'_> {
        Machine {
            regs: self.regs,
            ready: self.ready,
            mem: self.mem,
            reg_writes: self.reg_writes,
            mem_writes: self.mem_writes,
        }
    }

    /// Checks that register `r` is ready at `cycle`.
    #[inline(always)]
    fn read(&self, r: u32, cycle: u64) -> Result<(), Fault> {
        if self.ready[r as usize] > cycle {
            Err(Fault::Latency(r))
        } else {
            Ok(())
        }
    }

    /// Writes register `d`, ready at cycle `ready`: now, or at the
    /// buffered issue's commit.
    #[inline(always)]
    fn write<const BUFFERED: bool>(&mut self, d: u32, w: Word, ready: u64) {
        if BUFFERED {
            self.reg_writes.push((d, w, ready));
        } else {
            self.regs[d as usize] = w;
            self.ready[d as usize] = ready;
        }
    }

    #[inline(always)]
    fn load(&self, addr: i64) -> Option<Word> {
        usize::try_from(addr).ok().and_then(|i| self.mem.get(i))
    }

    /// Stores `w` at `addr` after checking the address: now, or at the
    /// buffered issue's commit.
    #[inline(always)]
    fn store<const BUFFERED: bool>(&mut self, addr: i64, w: Word) -> Result<(), Fault> {
        if BUFFERED {
            if addr < 0 || addr as usize >= self.mem.len() {
                return Err(Fault::BadAddress(addr));
            }
            self.mem_writes.push((addr, w));
            Ok(())
        } else {
            usize::try_from(addr)
                .ok()
                .and_then(|i| self.mem.set(i, w))
                .ok_or(Fault::BadAddress(addr))
        }
    }
}

/// A taken direct transfer's target.
#[inline(always)]
fn direct(t: u32) -> Result<u32, Fault> {
    if t == NONE {
        Err(Fault::UnmappedTarget)
    } else {
        Ok(t)
    }
}

/// Issues one slot record at `cycle`: checks the latency of each
/// register it reads, in `Op::uses()` order, then evaluates it. A taken
/// branch or a halt claims `next`, unless an earlier slot of the word
/// did.
///
/// `BUFFERED` picks the commit step. A buffered issue leaves every
/// result in the write buffers for [`issue_buffered`] to commit after
/// the word's last slot, so every slot reads the state before the word;
/// it runs any word. An unbuffered issue commits each result at once,
/// which is the same thing only for a hazard-free word. If a later slot
/// of such a word faults, the earlier slots' results are already
/// committed; the run then returns that error, and the simulator has no
/// accessor for its state, so nothing can observe the difference.
#[inline(always)]
fn exec<const BUFFERED: bool>(
    p: &DecodedVliw,
    rec: &Rec,
    m: &mut Machine<'_>,
    cycle: u64,
    next: &mut u32,
) -> Result<(), Fault> {
    let mem_latency = p.machine.mem_latency as u64;
    let alu_latency = p.machine.alu_latency as u64;
    match *rec {
        Rec::Ld { d, base, off, spec } => {
            m.read(base, cycle)?;
            let addr = m.regs[base as usize].val + off as i64;
            let w = match m.load(addr) {
                Some(w) => w,
                // dismissable speculative load: the value is dead on
                // the faulting path
                None if spec => Word::int(0),
                None => return Err(Fault::BadAddress(addr)),
            };
            m.write::<BUFFERED>(d, w, cycle + mem_latency);
        }
        Rec::St { s, base, off } => {
            m.read(s, cycle)?;
            m.read(base, cycle)?;
            let addr = m.regs[base as usize].val + off as i64;
            m.store::<BUFFERED>(addr, m.regs[s as usize])?;
        }
        Rec::Mv { d, s } => {
            m.read(s, cycle)?;
            m.write::<BUFFERED>(d, m.regs[s as usize], cycle + 1);
        }
        Rec::MvI { d, w } => m.write::<BUFFERED>(d, w, cycle + 1),
        Rec::AluRR { op, d, a, b, spec } => {
            m.read(a, cycle)?;
            m.read(b, cycle)?;
            let v = match op.eval(m.regs[a as usize].val, m.regs[b as usize].val) {
                Some(v) => v,
                None if spec => 0,
                None => return Err(Fault::DivideByZero),
            };
            m.write::<BUFFERED>(d, Word::int(v), cycle + alu_latency);
        }
        Rec::AluRI {
            op,
            d,
            a,
            imm,
            spec,
        } => {
            m.read(a, cycle)?;
            let v = match op.eval(m.regs[a as usize].val, imm) {
                Some(v) => v,
                None if spec => 0,
                None => return Err(Fault::DivideByZero),
            };
            m.write::<BUFFERED>(d, Word::int(v), cycle + alu_latency);
        }
        Rec::AddARR { d, a, b } => {
            m.read(a, cycle)?;
            m.read(b, cycle)?;
            let aw = m.regs[a as usize];
            let w = Word {
                tag: aw.tag,
                val: aw.val.wrapping_add(m.regs[b as usize].val),
            };
            m.write::<BUFFERED>(d, w, cycle + alu_latency);
        }
        Rec::AddARI { d, a, imm } => {
            m.read(a, cycle)?;
            let aw = m.regs[a as usize];
            let w = Word {
                tag: aw.tag,
                val: aw.val.wrapping_add(imm),
            };
            m.write::<BUFFERED>(d, w, cycle + alu_latency);
        }
        Rec::MkTag { d, s, tag } => {
            m.read(s, cycle)?;
            let val = m.regs[s as usize].val;
            m.write::<BUFFERED>(d, Word { tag, val }, cycle + alu_latency);
        }
        Rec::BrRR { cond, a, b, t } => {
            m.read(a, cycle)?;
            m.read(b, cycle)?;
            if *next == NONE && cond.eval(m.regs[a as usize].val, m.regs[b as usize].val) {
                *next = direct(t)?;
            }
        }
        Rec::BrRI { cond, a, imm, t } => {
            m.read(a, cycle)?;
            if *next == NONE && cond.eval(m.regs[a as usize].val, imm) {
                *next = direct(t)?;
            }
        }
        Rec::BrTag { a, tag, eq, t } => {
            m.read(a, cycle)?;
            if *next == NONE && (m.regs[a as usize].tag == tag) == eq {
                *next = direct(t)?;
            }
        }
        Rec::BrWord { a, w, eq, t } => {
            m.read(a, cycle)?;
            if *next == NONE && (m.regs[a as usize] == w) == eq {
                *next = direct(t)?;
            }
        }
        Rec::BrWEq { a, b, eq, t } => {
            m.read(a, cycle)?;
            m.read(b, cycle)?;
            if *next == NONE && (m.regs[a as usize] == m.regs[b as usize]) == eq {
                *next = direct(t)?;
            }
        }
        Rec::Jmp { t } => {
            if *next == NONE {
                *next = direct(t)?;
            }
        }
        Rec::JmpR { r } => {
            m.read(r, cycle)?;
            if *next == NONE {
                let w = m.regs[r as usize];
                if w.tag != Tag::Cod {
                    return Err(Fault::BadCodeWord);
                }
                let l = w.val as u32;
                *next = match p.label_pos.get(l as usize) {
                    Some(&t) if t != NONE => t,
                    _ => return Err(Fault::UnmappedLabel(l)),
                };
            }
        }
        Rec::Halt { success } => {
            if *next == NONE {
                *next = if success { HALT_SUCCESS } else { HALT_FAILURE };
            }
        }
        Rec::Word { .. } => unreachable!("the issue loop dispatches word records"),
    }
    Ok(())
}

/// Issues the buffered word whose `len` slot records start at stream
/// position `first`, at `cycle`: evaluates every slot against the state
/// before the word, then commits the register writes in slot order and
/// then the stores. Returns the word's claim on the next word.
#[inline(never)]
fn issue_buffered(
    p: &DecodedVliw,
    first: usize,
    len: u32,
    mut m: Machine<'_>,
    cycle: u64,
) -> Result<u32, SimError> {
    m.reg_writes.clear();
    m.mem_writes.clear();
    let mut next = NONE;
    let slots = p.stream[first..first + len as usize].iter();
    for (pos, rec) in (first..).zip(slots) {
        exec::<true>(p, rec, &mut m, cycle, &mut next).map_err(|f| p.fault(pos, f))?;
    }
    for &(r, w, rdy) in m.reg_writes.iter() {
        m.regs[r as usize] = w;
        m.ready[r as usize] = rdy;
    }
    // The evaluation checked every store address, so the error is
    // unreachable.
    for &(addr, w) in m.mem_writes.iter() {
        m.mem
            .set(addr as usize, w)
            .ok_or_else(|| p.fault(first, Fault::BadAddress(addr)))?;
    }
    Ok(next)
}

/// The VLIW machine state, executing a [`DecodedVliw`].
#[derive(Debug)]
pub struct DecodedVliwSim<'a> {
    program: &'a DecodedVliw,
    regs: Vec<Word>,
    ready: Vec<u64>,
    mem: DataMem,
    /// The buffered issue's write buffers; cleared every issue instead
    /// of reallocated.
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
            reg_writes: Vec::new(),
            mem_writes: Vec::new(),
        }
    }

    /// Runs from the entry word to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on any machine-model violation or
    /// run-time fault; Prolog failure is a normal outcome.
    pub fn run(&mut self, cfg: &SimConfig) -> Result<SimResult, SimError> {
        let stop = self.issue(cfg.max_cycles);
        let (outcome, cycles) = stop.end?;
        Ok(self
            .program
            .result(outcome, cycles, stop.taken, &stop.counts))
    }

    /// Like [`DecodedVliwSim::run`] but also returns the per-cycle
    /// [`SimProfile`] (slot occupancy, class busy slot-cycles, stall
    /// causes), summed from the same per-word issue counts as the
    /// [`SimResult`], which is bit-identical to the plain run's.
    ///
    /// The profile is returned even when the run errors, describing the
    /// words issued up to the fault.
    ///
    /// # Errors
    ///
    /// Exactly as [`DecodedVliwSim::run`].
    pub fn run_profiled(&mut self, cfg: &SimConfig) -> (Result<SimResult, SimError>, SimProfile) {
        let stop = self.issue(cfg.max_cycles);
        let p = self.program;
        let profile = p.profile(&stop.counts, stop.taken);
        let res = stop
            .end
            .map(|(outcome, cycles)| p.result(outcome, cycles, stop.taken, &stop.counts));
        (res, profile)
    }

    /// The issue loop: runs the stream from the entry word until a halt,
    /// an error or the cycle limit, counting each word's issues.
    fn issue(&mut self, max_cycles: u64) -> Stop {
        let Self {
            program: p,
            regs,
            ready,
            mem,
            reg_writes,
            mem_writes,
        } = self;
        let p: &DecodedVliw = p;
        let mut m = Machine {
            regs,
            ready,
            mem,
            reg_writes,
            mem_writes,
        };
        let stream = p.stream.as_slice();
        let penalty = p.machine.taken_branch_penalty as u64;
        let mut counts = vec![0u64; p.len()];
        let mut taken = 0u64;
        let mut pc = p.entry as usize;
        // The open word's issue cycle; opening the entry word wraps it
        // to 0.
        let mut cycle = u64::MAX;
        // The open word's claim on the next word: `NONE` (fall
        // through), a taken transfer's target or a halt.
        let mut next = NONE;
        let end = loop {
            match stream[pc] {
                Rec::Word { kind, at, len } => {
                    // Close the word before.
                    if next != NONE {
                        if next >= HALT_FAILURE {
                            let outcome = if next == HALT_SUCCESS {
                                SimOutcome::Success
                            } else {
                                SimOutcome::Failure
                            };
                            break Ok((outcome, cycle + 1));
                        }
                        // The bubble; the target's open adds the
                        // word's own cycle.
                        taken += 1;
                        cycle += penalty;
                        pc = next as usize;
                        next = NONE;
                        continue;
                    }
                    // Open this one.
                    cycle = cycle.wrapping_add(1);
                    if cycle >= max_cycles {
                        break Err(SimError::CycleLimit { limit: max_cycles });
                    }
                    match kind {
                        WordKind::HazardFree => {
                            counts[at as usize] += 1;
                            pc += 1;
                        }
                        WordKind::Buffered => {
                            counts[at as usize] += 1;
                            match issue_buffered(p, pc + 1, len, m.reborrow(), cycle) {
                                Ok(claim) => next = claim,
                                Err(e) => break Err(e),
                            }
                            pc += 1 + len as usize;
                        }
                        WordKind::Illegal(fault) => {
                            break Err(SimError::IllegalWord {
                                at: at as usize,
                                fault,
                            })
                        }
                        WordKind::End => break Err(SimError::RanOffEnd),
                    }
                }
                ref rec => {
                    if let Err(f) = exec::<false>(p, rec, &mut m, cycle, &mut next) {
                        break Err(p.fault(pc, f));
                    }
                    pc += 1;
                }
            }
        };
        Stop { end, counts, taken }
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

    #[test]
    fn a_profiled_run_reports_an_over_wide_word() {
        // The word `width_overflow_is_its_own_error` runs, profiled: the
        // error, and a profile in which the rejected word, which never
        // issued, is not counted.
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
        let (res, profile) =
            DecodedVliwSim::new(&decoded, &tiny_layout()).run_profiled(&SimConfig::default());
        assert_eq!(
            res,
            Err(SimError::IllegalWord {
                at: 0,
                fault: WordFault::WidthOverflow
            })
        );
        assert_eq!(
            profile,
            SimProfile {
                occupancy: vec![0, 0],
                ..SimProfile::default()
            }
        );
    }

    #[test]
    fn a_label_past_the_last_word_runs_off_the_end() {
        // `VliwProgram::new` accepts labels bound at or past the end of
        // the program: here label 1 one past the last of three words and
        // label 2 further on. Reaching either through an indirect jump,
        // a direct jump or the entry runs off the end, after the
        // cycle-limit check, as in the legacy simulator.
        let labels = [(0, 0), (1, 3), (2, 7)];
        let programs = [
            from_words(
                vec![
                    word(vec![Op::MvI {
                        d: R(1),
                        w: Word::code(1),
                    }]),
                    word(vec![Op::JmpR { r: R(1) }]),
                    vec![],
                ],
                &labels,
            ),
            from_words(
                vec![vec![], vec![], word(vec![Op::Jmp { t: Label(2) }])],
                &labels,
            ),
            from_words(vec![vec![]; 3], &[(0, 3)]),
        ];
        let layout = tiny_layout();
        let machine = MachineConfig::units(2);
        for p in programs {
            let decoded = DecodedVliw::new(&p, machine);
            for max_cycles in 0..6 {
                let cfg = SimConfig { max_cycles };
                let legacy = VliwSim::new(&p, machine, &layout).run(&cfg);
                let fast = DecodedVliwSim::new(&decoded, &layout).run(&cfg);
                assert_eq!(legacy, fast, "limit {max_cycles}:\n{p}");
            }
            assert_eq!(
                DecodedVliwSim::new(&decoded, &layout).run(&SimConfig::default()),
                Err(SimError::RanOffEnd)
            );
        }
    }

    #[test]
    fn an_unmapped_direct_target_reports_its_label() {
        // `VliwProgram::new` rejects an unbound direct target, so the
        // decoder meets one only through a label table it cannot check;
        // the record is patched here the way `new` lowers one.
        let p = from_words(
            vec![
                vec![],
                word(vec![
                    Op::MvI {
                        d: R(1),
                        w: Word::int(5),
                    },
                    Op::Jmp { t: Label(1) },
                    Op::Alu {
                        op: AluOp::Div,
                        d: R(2),
                        a: R(1),
                        b: Operand::Imm(0),
                    },
                ]),
                word(vec![Op::Halt { success: true }]),
            ],
            &[(0, 0), (1, 2)],
        );
        for hazard_free in [true, false] {
            let mut decoded = DecodedVliw::new(&p, MachineConfig::units(3));
            let jmp = 3;
            assert!(matches!(decoded.stream[jmp], Rec::Jmp { t: 5 }));
            decoded.stream[jmp] = Rec::Jmp { t: NONE };
            decoded.unmapped.push((jmp as u32, 9));
            if !hazard_free {
                decoded.stream[1] = Rec::Word {
                    kind: WordKind::Buffered,
                    at: 1,
                    len: 3,
                };
            }
            // The jump faults before the division after it.
            assert_eq!(
                DecodedVliwSim::new(&decoded, &tiny_layout()).run(&SimConfig::default()),
                Err(SimError::UnmappedLabel {
                    at: 1,
                    label: Label(9)
                })
            );
        }
    }

    /// A random hand-built program over registers r1–r4 and the 320
    /// words of [`tiny_layout`]: `body` words of zero to four slots (at
    /// most the issue width), then a success halt in half the programs
    /// and one more random word in the rest, after which a run may fall
    /// off the end. Word `i` is bound to label `i`, label `n` one past
    /// the last word `n - 1`, and label `n + 1` to nothing; code words
    /// name any of them, so indirect jumps reach every word, the end
    /// and a missing label, and direct branches reach every word and
    /// the end. Slots read results of earlier slots, overwrite
    /// registers that earlier slots read, write registers twice, load
    /// before and after stores (half the time at the word's previous
    /// address), fault (bad addresses, division by zero), some of them
    /// speculatively, and branch several times per word.
    fn random_program(rng: &mut Rng, machine: &MachineConfig) -> VliwProgram {
        let body = 2 + rng.below(9) as u32;
        let n = body + 1;
        let reg = |rng: &mut Rng| R(1 + rng.below(4) as u32);
        let operand = |rng: &mut Rng| {
            if rng.below(2) == 0 {
                Operand::Reg(reg(rng))
            } else {
                Operand::Imm(rng.below(3) as i64)
            }
        };
        let mut instrs = Vec::new();
        for i in 0..n {
            if i == body && rng.below(2) == 0 {
                instrs.push(word(vec![Op::Halt { success: true }]));
                continue;
            }
            if rng.below(4) == 0 {
                instrs.push(vec![]);
                continue;
            }
            let len = 1 + rng.below(machine.issue_width.min(4) as u64) as usize;
            let mut unit_next = [0usize; OpClass::COUNT];
            let mut last_addr = None;
            let slots = (0..len)
                .map(|_| {
                    let t = Label(rng.below(n as u64 + 1) as u32);
                    let op = match rng.below(20) {
                        0..=3 => Op::MvI {
                            d: reg(rng),
                            w: match rng.below(8) {
                                0 | 1 => Word::code(rng.below(n as u64 + 2) as u32),
                                2 => Word::int(400),
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
        let word_end = instrs
            .iter()
            .scan(0, |end, w: &Vec<SlotOp>| {
                *end += w.len() as u32;
                Some(*end)
            })
            .collect();
        let mut bound: Vec<usize> = (0..=n as usize).collect();
        bound.push(usize::MAX);
        VliwProgram::new(instrs.concat(), word_end, bound, Label(0))
    }

    /// The same program with every hazard-free word on the buffered
    /// path.
    fn all_buffered(decoded: &DecodedVliw) -> DecodedVliw {
        let mut all = decoded.clone();
        for r in &mut all.stream {
            if let Rec::Word { kind, .. } = r {
                if *kind == WordKind::HazardFree {
                    *kind = WordKind::Buffered;
                }
            }
        }
        all
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
        const MAX_CYCLES: u64 = 200;
        let layout = tiny_layout();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        // Clean issued words (no resource fault) of each kind, buffered
        // words issued as a direct target and as the last word, and
        // runs that end at the end record.
        let (mut one_pass, mut buffered) = (0u32, 0u32);
        let (mut buffered_targets, mut buffered_last, mut ran_off) = (0u32, 0u32, 0u32);
        for machine in machines {
            for case in 0..400 {
                let p = random_program(&mut rng, &machine);
                let decoded = DecodedVliw::new(&p, machine);
                let reference = all_buffered(&decoded);
                let what = format!("{} case {case}:\n{p}", machine.describe());
                let full = DecodedVliwSim::new(&decoded, &layout).issue(MAX_CYCLES);
                let cycles = match full.end {
                    Ok((_, cycles)) => cycles.min(MAX_CYCLES),
                    Err(_) => MAX_CYCLES,
                };
                ran_off += u32::from(full.end == Err(SimError::RanOffEnd));
                // Every cycle limit up to the run's length, and one past.
                for max_cycles in 0..=cycles + 1 {
                    let cfg = SimConfig { max_cycles };
                    let legacy = VliwSim::new(&p, machine, &layout).run(&cfg);
                    let mut sim = DecodedVliwSim::new(&decoded, &layout);
                    let fast = sim.run(&cfg);
                    assert_eq!(legacy, fast, "limit {max_cycles}, {what}");
                    // On the buffered path, when the run ends between
                    // words, the registers, their ready cycles and
                    // memory must agree too.
                    let mut slow = DecodedVliwSim::new(&reference, &layout);
                    assert_eq!(slow.run(&cfg), fast, "limit {max_cycles}, {what}");
                    let between_words = matches!(
                        fast,
                        Ok(_) | Err(SimError::CycleLimit { .. } | SimError::RanOffEnd)
                    );
                    if between_words {
                        assert_eq!(sim.regs, slow.regs, "{what}");
                        assert_eq!(sim.ready, slow.ready, "{what}");
                        let mem = |s: &DecodedVliwSim| {
                            (0..s.mem.len()).map(|i| s.mem.get(i)).collect::<Vec<_>>()
                        };
                        assert_eq!(mem(&sim), mem(&slow), "{what}");
                    }
                }
                let targets: Vec<u32> = decoded
                    .stream
                    .iter()
                    .filter_map(|r| match *r {
                        Rec::BrRR { t, .. }
                        | Rec::BrRI { t, .. }
                        | Rec::BrTag { t, .. }
                        | Rec::BrWord { t, .. }
                        | Rec::BrWEq { t, .. }
                        | Rec::Jmp { t } => Some(t),
                        _ => None,
                    })
                    .collect();
                for (pos, r) in decoded.stream.iter().enumerate() {
                    let Rec::Word { kind, at, len } = *r else {
                        continue;
                    };
                    if full.counts.get(at as usize).is_none_or(|&c| c == 0) || len == 0 {
                        continue;
                    }
                    match kind {
                        WordKind::HazardFree => one_pass += 1,
                        WordKind::Buffered => {
                            buffered += 1;
                            buffered_targets += u32::from(targets.contains(&(pos as u32)));
                            buffered_last += u32::from(at + 1 == p.len() as u32);
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(one_pass >= 50, "only {one_pass} hazard-free words issued");
        assert!(buffered >= 50, "only {buffered} buffered words issued");
        assert!(
            buffered_targets >= 20,
            "{buffered_targets} buffered targets"
        );
        assert!(buffered_last >= 5, "{buffered_last} buffered last words");
        assert!(ran_off >= 20, "only {ran_off} runs off the end");
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
        // Cache density is the point: a record is at most 32 bytes, the
        // widest slot (a branch on a whole word) with its target.
        assert!(std::mem::size_of::<Rec>() <= 32);
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
