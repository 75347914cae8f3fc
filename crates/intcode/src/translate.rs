//! BAM → IntCode translation.
//!
//! Expands every BAM instruction into a short sequence of ICIs
//! (tagged with a group id — the compaction barrier of the BAM cost
//! model), generates the top-level driver, and appends the three
//! runtime routines every program shares:
//!
//! * `fail` — trail unwinding and choice-point state restoration;
//! * `unify` — general unification with an explicit push-down list;
//! * `struct_eq` — structural equality for `==/2` / `\==/2`.
//!
//! Temporary BAM slots are renamed to fresh virtual registers per
//! predicate (the paper's "variable renaming procedure in order to
//! eliminate redundant data-dependencies", §3.1).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use symbol_bam::{BamInstr, BamLabel, BamProgram, Cmp, Const, Slot, TagClass, TypeTest};
use symbol_prolog::PredId;

use crate::asm::Asm;
use crate::layout::{cp_frame, env_frame, reg, Layout};
use crate::op::{AluOp, Cond, Label, Op, Operand, R};
use crate::program::IciProgram;
use crate::word::{Tag, Word};

/// Constant-switch tables up to this size use a linear compare chain;
/// larger ones binary-search (paper §2's hashing support).
const LINEAR_SWITCH_LIMIT: usize = 6;

/// Translation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TranslateError {
    /// The requested entry predicate has no code.
    MissingEntry {
        /// Rendered `name/arity`.
        pred: String,
    },
    /// A predicate's arity exceeds the 16 argument registers.
    ArityTooLarge {
        /// The offending arity.
        arity: usize,
    },
    /// The assembled program failed [`IciProgram::new`] validation.
    /// A defect here is a translator bug, but the serving tier must see
    /// it as an error value, never a panic.
    Program(crate::program::ProgramError),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::MissingEntry { pred } => {
                write!(f, "entry predicate {pred} is not defined")
            }
            TranslateError::ArityTooLarge { arity } => {
                write!(f, "arity {arity} exceeds the argument register file")
            }
            TranslateError::Program(e) => write!(f, "assembled program is malformed: {e}"),
        }
    }
}

impl From<crate::program::ProgramError> for TranslateError {
    fn from(e: crate::program::ProgramError) -> Self {
        TranslateError::Program(e)
    }
}

impl Error for TranslateError {}

/// Translates a compiled BAM program into an executable [`IciProgram`]
/// entered through a driver that calls `entry` and halts.
///
/// # Errors
///
/// Returns [`TranslateError`] if `entry` is undefined or a predicate's
/// arity does not fit the argument register file.
pub fn translate(
    bam: &BamProgram,
    entry: PredId,
    layout: &Layout,
) -> Result<IciProgram, TranslateError> {
    let mut tr = Tr::new(bam, layout);
    tr.check_arities()?;
    let entry_label = tr.emit_driver(entry)?;
    for pred in bam.predicates() {
        tr.emit_predicate(pred.id, &pred.code);
    }
    tr.emit_fail_routine();
    tr.emit_unify_routine();
    tr.emit_struct_eq_routine();
    Ok(tr.asm.finish(entry_label)?)
}

struct Tr<'a> {
    asm: Asm,
    layout: &'a Layout,
    bam: &'a BamProgram,
    pred_entry: HashMap<PredId, Label>,
    fail: Label,
    unify: Label,
    struct_eq: Label,
}

impl<'a> Tr<'a> {
    fn new(bam: &'a BamProgram, layout: &'a Layout) -> Self {
        let mut asm = Asm::new();
        let fail = asm.fresh_label();
        let unify = asm.fresh_label();
        let struct_eq = asm.fresh_label();
        let mut pred_entry = HashMap::new();
        for p in bam.predicates() {
            let l = asm.fresh_label();
            pred_entry.insert(p.id, l);
        }
        Tr {
            asm,
            layout,
            bam,
            pred_entry,
            fail,
            unify,
            struct_eq,
        }
    }

    fn check_arities(&self) -> Result<(), TranslateError> {
        for p in self.bam.predicates() {
            if p.id.arity > reg::NUM_ARGS as usize {
                return Err(TranslateError::ArityTooLarge { arity: p.id.arity });
            }
        }
        Ok(())
    }

    // ---------------- driver ----------------

    fn emit_driver(&mut self, entry: PredId) -> Result<Label, TranslateError> {
        let main = *self
            .pred_entry
            .get(&entry)
            .ok_or_else(|| TranslateError::MissingEntry {
                pred: format!("{:?}/{}", entry.name, entry.arity),
            })?;
        let start = self.asm.fresh_label();
        let done = self.asm.fresh_label();
        let halt_fail = self.asm.fresh_label();
        let l = *self.layout;

        self.asm.bind(start);
        self.asm.next_group();
        let a = &mut self.asm;
        a.emit(Op::MvI {
            d: reg::H,
            w: Word::int(l.heap_base()),
        });
        a.emit(Op::MvI {
            d: reg::HB,
            w: Word::int(l.heap_base()),
        });
        a.emit(Op::MvI {
            d: reg::E,
            w: Word::int(l.env_base()),
        });
        a.emit(Op::MvI {
            d: reg::ETOP,
            w: Word::int(l.env_base()),
        });
        a.emit(Op::MvI {
            d: reg::EB,
            w: Word::int(l.env_base()),
        });
        a.emit(Op::MvI {
            d: reg::TR,
            w: Word::int(l.trail_base()),
        });
        a.emit(Op::MvI {
            d: reg::PDL,
            w: Word::int(l.pdl_base()),
        });
        // Sentinel choice point (arity 0): failing past it halts.
        a.emit(Op::MvI {
            d: reg::B,
            w: Word::int(l.cp_base() + cp_frame::FIXED as i64),
        });
        a.emit(Op::St {
            s: reg::H,
            base: reg::B,
            off: -cp_frame::SAVED_H,
        });
        a.emit(Op::St {
            s: reg::TR,
            base: reg::B,
            off: -cp_frame::SAVED_TR,
        });
        store_word(a, Word::code(halt_fail.0), reg::B, -cp_frame::RETRY);
        a.emit(Op::St {
            s: reg::B,
            base: reg::B,
            off: -cp_frame::PREV_B,
        });
        a.emit(Op::St {
            s: reg::E,
            base: reg::B,
            off: -cp_frame::SAVED_E,
        });
        a.emit(Op::St {
            s: reg::ETOP,
            base: reg::B,
            off: -cp_frame::SAVED_ETOP,
        });
        store_word(a, Word::code(done.0), reg::B, -cp_frame::SAVED_CP);
        a.emit(Op::St {
            s: reg::B,
            base: reg::B,
            off: -cp_frame::SAVED_B0,
        });
        store_word(a, Word::int(0), reg::B, -cp_frame::ARITY);
        a.emit(Op::St {
            s: reg::EB,
            base: reg::B,
            off: -cp_frame::SAVED_EB,
        });
        a.emit(Op::Mv {
            d: reg::B0,
            s: reg::B,
        });
        a.emit(Op::MvI {
            d: reg::CP,
            w: Word::code(done.0),
        });
        a.emit(Op::Jmp { t: main });
        a.bind(done);
        a.emit(Op::Halt { success: true });
        a.bind(halt_fail);
        a.emit(Op::Halt { success: false });
        Ok(start)
    }

    // ---------------- predicates ----------------

    fn emit_predicate(&mut self, id: PredId, code: &[BamInstr]) {
        let entry = self.pred_entry[&id];
        self.asm.bind(entry);
        let mut ctx = PredCtx::default();
        for ins in code {
            self.emit_instr(ins, &mut ctx);
        }
    }

    fn lbl(&mut self, ctx: &mut PredCtx, l: BamLabel) -> Label {
        if l == symbol_bam::compile::clause::FAIL {
            return self.fail;
        }
        *ctx.labels
            .entry(l)
            .or_insert_with(|| self.asm.fresh_label())
    }

    fn temp(&mut self, ctx: &mut PredCtx, k: usize) -> R {
        *ctx.temps.entry(k).or_insert_with(|| self.asm.fresh_reg())
    }

    /// Reads a slot into a register (loads permanents from the frame).
    fn read_slot(&mut self, ctx: &mut PredCtx, s: Slot) -> R {
        match s {
            Slot::Arg(i) => reg::arg(i),
            Slot::Temp(k) => self.temp(ctx, k),
            Slot::Perm(k) => {
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::Ld {
                    d: t,
                    base: reg::E,
                    off: env_frame::SLOTS + k as i32,
                });
                t
            }
        }
    }

    /// Writes register `r` into a slot.
    fn write_slot(&mut self, ctx: &mut PredCtx, s: Slot, r: R) {
        let d = match s {
            Slot::Arg(i) => reg::arg(i),
            Slot::Temp(k) => self.temp(ctx, k),
            Slot::Perm(k) => {
                return self.asm.emit(Op::St {
                    s: r,
                    base: reg::E,
                    off: env_frame::SLOTS + k as i32,
                });
            }
        };
        if d != r {
            self.asm.emit(Op::Mv { d, s: r });
        }
    }

    /// Reads a slot into a fresh register and dereferences it there.
    fn deref_slot(&mut self, ctx: &mut PredCtx, s: Slot) -> R {
        let r = self.read_slot(ctx, s);
        let t = self.asm.fresh_reg();
        self.asm.emit(Op::Mv { d: t, s: r });
        self.asm.deref_in_place(t);
        t
    }

    /// If the dereferenced `t` is an unbound environment cell, binds it
    /// to a fresh heap variable and leaves that variable in `t`, so no
    /// heap cell or argument ever points into the environment stack.
    fn globalize(&mut self, t: R) {
        let env_base = self.layout.env_base();
        let done = self.asm.fresh_label();
        self.asm.emit(Op::BrTag {
            a: t,
            tag: Tag::Ref,
            eq: false,
            t: done,
        });
        self.asm.emit(Op::Br {
            cond: Cond::Lt,
            a: t,
            b: Operand::Imm(env_base),
            t: done,
        });
        let nv = self.asm.fresh_reg();
        self.asm.emit(Op::MkTag {
            d: nv,
            s: reg::H,
            tag: Tag::Ref,
        });
        self.heap_push(nv);
        self.asm.bind_cell(t, nv, env_base);
        self.asm.emit(Op::Mv { d: t, s: nv });
        self.asm.bind(done);
    }

    /// Calls the runtime routine at `routine` (`unify` or `struct_eq`)
    /// on the pair of slots `a` and `b`, returning through `RR`.
    fn call_routine(&mut self, ctx: &mut PredCtx, routine: Label, a: Slot, b: Slot) {
        let ra = self.read_slot(ctx, a);
        let rb = self.read_slot(ctx, b);
        self.asm.emit(Op::Mv { d: reg::U1, s: ra });
        self.asm.emit(Op::Mv { d: reg::U2, s: rb });
        let ret = self.asm.fresh_label();
        self.asm.emit(Op::MvI {
            d: reg::RR,
            w: Word::code(ret.0),
        });
        self.asm.emit(Op::Jmp { t: routine });
        self.asm.bind(ret);
    }

    /// Reloads the first `arity` argument registers from the newest
    /// choice point.
    fn reload_args(&mut self, arity: usize) {
        for i in 0..arity {
            self.asm.emit(Op::Ld {
                d: reg::arg(i),
                base: reg::B,
                off: -(cp_frame::ARGS_START + i as i32),
            });
        }
    }

    /// Restores the heap and environment boundaries `HB` and `EB` from
    /// the choice point `B` now names.
    fn restore_boundaries(&mut self) {
        self.asm.emit(Op::Ld {
            d: reg::HB,
            base: reg::B,
            off: -cp_frame::SAVED_H,
        });
        self.asm.emit(Op::Ld {
            d: reg::EB,
            base: reg::B,
            off: -cp_frame::SAVED_EB,
        });
    }

    fn const_word(c: Const) -> Word {
        match c {
            Const::Int(i) => Word::int(i),
            Const::Atom(a) => Word::atom(a.0),
        }
    }

    fn heap_push(&mut self, r: R) {
        self.asm.emit(Op::St {
            s: r,
            base: reg::H,
            off: 0,
        });
        self.asm.emit(Op::Alu {
            op: AluOp::Add,
            d: reg::H,
            a: reg::H,
            b: Operand::Imm(1),
        });
    }

    fn operand_to_reg(&mut self, ctx: &mut PredCtx, o: symbol_bam::Operand) -> R {
        match o {
            symbol_bam::Operand::Slot(s) => self.read_slot(ctx, s),
            symbol_bam::Operand::Const(c) => {
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::MvI {
                    d: t,
                    w: Self::const_word(c),
                });
                t
            }
        }
    }

    fn arith_operand(&mut self, ctx: &mut PredCtx, o: symbol_bam::Operand) -> Operand {
        match o {
            symbol_bam::Operand::Const(Const::Int(i)) => Operand::Imm(i),
            o => Operand::Reg(self.operand_to_reg(ctx, o)),
        }
    }

    // ---------------- instruction expansion ----------------

    #[allow(clippy::too_many_lines)]
    fn emit_instr(&mut self, ins: &BamInstr, ctx: &mut PredCtx) {
        let env_base = self.layout.env_base();
        match ins {
            BamInstr::Label(l) => {
                let l = self.lbl(ctx, *l);
                self.asm.bind(l);
            }
            BamInstr::Jump(l) => {
                self.asm.next_group();
                let l = self.lbl(ctx, *l);
                self.asm.emit(Op::Jmp { t: l });
            }
            BamInstr::Fail => {
                self.asm.next_group();
                let f = self.fail;
                self.asm.emit(Op::Jmp { t: f });
            }
            BamInstr::Call(p) => {
                self.asm.next_group();
                let ret = self.asm.fresh_label();
                let target = self.pred_entry[p];
                self.asm.emit(Op::MvI {
                    d: reg::CP,
                    w: Word::code(ret.0),
                });
                self.asm.emit(Op::Jmp { t: target });
                self.asm.bind(ret);
            }
            BamInstr::Execute(p) => {
                self.asm.next_group();
                let target = self.pred_entry[p];
                self.asm.emit(Op::Jmp { t: target });
            }
            BamInstr::Proceed => {
                self.asm.next_group();
                self.asm.emit(Op::JmpR { r: reg::CP });
            }
            BamInstr::Allocate(n) => {
                self.asm.next_group();
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::Alu {
                    op: AluOp::Max,
                    d: t,
                    a: reg::ETOP,
                    b: Operand::Reg(reg::EB),
                });
                self.asm.emit(Op::St {
                    s: reg::E,
                    base: t,
                    off: env_frame::PREV_E,
                });
                self.asm.emit(Op::St {
                    s: reg::CP,
                    base: t,
                    off: env_frame::SAVED_CP,
                });
                self.asm.emit(Op::Mv { d: reg::E, s: t });
                self.asm.emit(Op::Alu {
                    op: AluOp::Add,
                    d: reg::ETOP,
                    a: reg::E,
                    b: Operand::Imm(env_frame::SLOTS as i64 + *n as i64),
                });
            }
            BamInstr::Deallocate => {
                self.asm.next_group();
                self.asm.emit(Op::Ld {
                    d: reg::CP,
                    base: reg::E,
                    off: env_frame::SAVED_CP,
                });
                self.asm.emit(Op::Mv {
                    d: reg::ETOP,
                    s: reg::E,
                });
                self.asm.emit(Op::Ld {
                    d: reg::E,
                    base: reg::ETOP,
                    off: env_frame::PREV_E,
                });
            }
            BamInstr::Try {
                arity,
                first,
                retry,
            } => {
                self.asm.next_group();
                let first = self.lbl(ctx, *first);
                let retry = self.lbl(ctx, *retry);
                let nb = self.asm.fresh_reg();
                self.asm.emit(Op::AddA {
                    d: nb,
                    a: reg::B,
                    b: Operand::Imm(cp_frame::FIXED as i64 + *arity as i64),
                });
                self.asm.emit(Op::St {
                    s: reg::H,
                    base: nb,
                    off: -cp_frame::SAVED_H,
                });
                self.asm.emit(Op::St {
                    s: reg::TR,
                    base: nb,
                    off: -cp_frame::SAVED_TR,
                });
                store_word(&mut self.asm, Word::code(retry.0), nb, -cp_frame::RETRY);
                self.asm.emit(Op::St {
                    s: reg::B,
                    base: nb,
                    off: -cp_frame::PREV_B,
                });
                self.asm.emit(Op::St {
                    s: reg::E,
                    base: nb,
                    off: -cp_frame::SAVED_E,
                });
                self.asm.emit(Op::St {
                    s: reg::ETOP,
                    base: nb,
                    off: -cp_frame::SAVED_ETOP,
                });
                self.asm.emit(Op::St {
                    s: reg::CP,
                    base: nb,
                    off: -cp_frame::SAVED_CP,
                });
                self.asm.emit(Op::St {
                    s: reg::B0,
                    base: nb,
                    off: -cp_frame::SAVED_B0,
                });
                store_word(
                    &mut self.asm,
                    Word::int(*arity as i64),
                    nb,
                    -cp_frame::ARITY,
                );
                for i in 0..*arity {
                    self.asm.emit(Op::St {
                        s: reg::arg(i),
                        base: nb,
                        off: -(cp_frame::ARGS_START + i as i32),
                    });
                }
                // Protected boundary: monotone max (see layout::cp_frame).
                let teb = self.asm.fresh_reg();
                self.asm.emit(Op::Alu {
                    op: AluOp::Max,
                    d: teb,
                    a: reg::ETOP,
                    b: Operand::Reg(reg::EB),
                });
                self.asm.emit(Op::St {
                    s: teb,
                    base: nb,
                    off: -cp_frame::SAVED_EB,
                });
                self.asm.emit(Op::Mv { d: reg::EB, s: teb });
                self.asm.emit(Op::Mv { d: reg::B, s: nb });
                self.asm.emit(Op::Mv {
                    d: reg::HB,
                    s: reg::H,
                });
                self.asm.emit(Op::Jmp { t: first });
            }
            BamInstr::Retry { arity, alt, retry } => {
                self.asm.next_group();
                let alt = self.lbl(ctx, *alt);
                let retry = self.lbl(ctx, *retry);
                self.reload_args(*arity);
                store_word(&mut self.asm, Word::code(retry.0), reg::B, -cp_frame::RETRY);
                self.asm.emit(Op::Jmp { t: alt });
            }
            BamInstr::Trust { arity, alt } => {
                self.asm.next_group();
                let alt = self.lbl(ctx, *alt);
                self.reload_args(*arity);
                self.asm.emit(Op::Ld {
                    d: reg::B,
                    base: reg::B,
                    off: -cp_frame::PREV_B,
                });
                self.restore_boundaries();
                self.asm.emit(Op::Jmp { t: alt });
            }
            BamInstr::SwitchOnTerm {
                arg,
                scratch,
                var,
                cons,
                lst,
                strct,
            } => {
                self.asm.next_group();
                let var = self.lbl(ctx, *var);
                let cons = self.lbl(ctx, *cons);
                let lst = self.lbl(ctx, *lst);
                let strct = self.lbl(ctx, *strct);
                let t = match scratch {
                    Slot::Temp(k) => self.temp(ctx, *k),
                    _ => self.asm.fresh_reg(),
                };
                self.asm.emit(Op::Mv {
                    d: t,
                    s: reg::arg(*arg),
                });
                self.asm.deref_in_place(t);
                self.asm.emit(Op::BrTag {
                    a: t,
                    tag: Tag::Ref,
                    eq: true,
                    t: var,
                });
                self.asm.emit(Op::BrTag {
                    a: t,
                    tag: Tag::Lst,
                    eq: true,
                    t: lst,
                });
                self.asm.emit(Op::BrTag {
                    a: t,
                    tag: Tag::Str,
                    eq: true,
                    t: strct,
                });
                self.asm.emit(Op::Jmp { t: cons });
            }
            BamInstr::SwitchOnConst {
                slot,
                table,
                default,
            } => {
                self.asm.next_group();
                let r = self.read_slot(ctx, *slot);
                let d = self.lbl(ctx, *default);
                if table.len() <= LINEAR_SWITCH_LIMIT {
                    for (c, l) in table {
                        let l = self.lbl(ctx, *l);
                        self.asm.emit(Op::BrWord {
                            a: r,
                            w: Self::const_word(*c),
                            eq: true,
                            t: l,
                        });
                    }
                    self.asm.emit(Op::Jmp { t: d });
                } else {
                    // Large tables (database predicates): dispatch by
                    // tag, then binary-search the value field — the
                    // paper's "hashing" builtin for switch_on_constant.
                    let mut ints: Vec<(i64, Label)> = Vec::new();
                    let mut atoms: Vec<(i64, Label)> = Vec::new();
                    for (c, l) in table {
                        let l = self.lbl(ctx, *l);
                        match c {
                            Const::Int(i) => ints.push((*i, l)),
                            Const::Atom(a) => atoms.push((a.0 as i64, l)),
                        }
                    }
                    ints.sort_unstable_by_key(|&(v, _)| v);
                    atoms.sort_unstable_by_key(|&(v, _)| v);
                    let lint = self.asm.fresh_label();
                    let latm = self.asm.fresh_label();
                    if !ints.is_empty() {
                        self.asm.emit(Op::BrTag {
                            a: r,
                            tag: Tag::Int,
                            eq: true,
                            t: lint,
                        });
                    }
                    if !atoms.is_empty() {
                        self.asm.emit(Op::BrTag {
                            a: r,
                            tag: Tag::Atm,
                            eq: true,
                            t: latm,
                        });
                    }
                    self.asm.emit(Op::Jmp { t: d });
                    if !ints.is_empty() {
                        self.asm.bind(lint);
                        self.emit_value_search(r, &ints, d);
                    }
                    if !atoms.is_empty() {
                        self.asm.bind(latm);
                        self.emit_value_search(r, &atoms, d);
                    }
                }
            }
            BamInstr::SwitchOnStruct {
                slot,
                table,
                default,
            } => {
                self.asm.next_group();
                let r = self.read_slot(ctx, *slot);
                let f = self.asm.fresh_reg();
                self.asm.emit(Op::Ld {
                    d: f,
                    base: r,
                    off: 0,
                });
                for (fct, l) in table {
                    let l = self.lbl(ctx, *l);
                    self.asm.emit(Op::BrWord {
                        a: f,
                        w: Word {
                            tag: Tag::Fun,
                            val: fct.encode(),
                        },
                        eq: true,
                        t: l,
                    });
                }
                let d = self.lbl(ctx, *default);
                self.asm.emit(Op::Jmp { t: d });
            }
            BamInstr::SetCutBarrier => {
                self.asm.next_group();
                self.asm.emit(Op::Mv {
                    d: reg::B0,
                    s: reg::B,
                });
            }
            BamInstr::SaveCutBarrier(s) => {
                self.asm.next_group();
                self.write_slot(ctx, *s, reg::B0);
            }
            BamInstr::Cut(saved) => {
                self.asm.next_group();
                match saved {
                    None => self.asm.emit(Op::Mv {
                        d: reg::B,
                        s: reg::B0,
                    }),
                    Some(s) => {
                        let r = self.read_slot(ctx, *s);
                        self.asm.emit(Op::Mv { d: reg::B, s: r });
                    }
                }
                self.restore_boundaries();
            }
            BamInstr::Move { src, dst } => {
                self.asm.next_group();
                let r = self.operand_to_reg(ctx, *src);
                self.write_slot(ctx, *dst, r);
            }
            BamInstr::MoveUnsafe { src, dst } => {
                self.asm.next_group();
                let t = self.deref_slot(ctx, *src);
                self.globalize(t);
                self.write_slot(ctx, *dst, t);
            }
            BamInstr::Deref { src, dst } => {
                self.asm.next_group();
                let t = self.deref_slot(ctx, *src);
                self.write_slot(ctx, *dst, t);
            }
            BamInstr::LoadArg { base, idx, dst } => {
                self.asm.next_group();
                let b = self.read_slot(ctx, *base);
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::Ld {
                    d: t,
                    base: b,
                    off: *idx as i32,
                });
                self.write_slot(ctx, *dst, t);
            }
            BamInstr::BranchVar { slot, target } => {
                self.asm.next_group();
                let r = self.read_slot(ctx, *slot);
                let l = self.lbl(ctx, *target);
                self.asm.emit(Op::BrTag {
                    a: r,
                    tag: Tag::Ref,
                    eq: true,
                    t: l,
                });
            }
            BamInstr::BranchNotTag { slot, tag, target } => {
                self.asm.next_group();
                let r = self.read_slot(ctx, *slot);
                let l = self.lbl(ctx, *target);
                let tag = tag_of(*tag);
                self.asm.emit(Op::BrTag {
                    a: r,
                    tag,
                    eq: false,
                    t: l,
                });
            }
            BamInstr::BranchNotConst { slot, c, target } => {
                self.asm.next_group();
                let r = self.read_slot(ctx, *slot);
                let l = self.lbl(ctx, *target);
                self.asm.emit(Op::BrWord {
                    a: r,
                    w: Self::const_word(*c),
                    eq: false,
                    t: l,
                });
            }
            BamInstr::BranchNotFunctor { slot, f, target } => {
                self.asm.next_group();
                let r = self.read_slot(ctx, *slot);
                let l = self.lbl(ctx, *target);
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::Ld {
                    d: t,
                    base: r,
                    off: 0,
                });
                self.asm.emit(Op::BrWord {
                    a: t,
                    w: Word {
                        tag: Tag::Fun,
                        val: f.encode(),
                    },
                    eq: false,
                    t: l,
                });
            }
            BamInstr::BindConst { var, c } => {
                self.asm.next_group();
                let v = self.read_slot(ctx, *var);
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::MvI {
                    d: t,
                    w: Self::const_word(*c),
                });
                self.asm.bind_cell(v, t, env_base);
            }
            BamInstr::BindSlot { var, value } => {
                self.asm.next_group();
                let v = self.read_slot(ctx, *var);
                let w = self.read_slot(ctx, *value);
                self.asm.bind_cell(v, w, env_base);
            }
            BamInstr::NewList { dst } => {
                self.asm.next_group();
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::MkTag {
                    d: t,
                    s: reg::H,
                    tag: Tag::Lst,
                });
                self.write_slot(ctx, *dst, t);
            }
            BamInstr::NewStruct { dst, f } => {
                self.asm.next_group();
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::MkTag {
                    d: t,
                    s: reg::H,
                    tag: Tag::Str,
                });
                self.write_slot(ctx, *dst, t);
                let ft = self.asm.fresh_reg();
                self.asm.emit(Op::MvI {
                    d: ft,
                    w: Word {
                        tag: Tag::Fun,
                        val: f.encode(),
                    },
                });
                self.heap_push(ft);
            }
            BamInstr::PushConst { c } => {
                self.asm.next_group();
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::MvI {
                    d: t,
                    w: Self::const_word(*c),
                });
                self.heap_push(t);
            }
            BamInstr::PushValue { src } => {
                self.asm.next_group();
                let t = self.deref_slot(ctx, *src);
                self.globalize(t);
                self.heap_push(t);
            }
            BamInstr::PushFresh { dst } => {
                self.asm.next_group();
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::MkTag {
                    d: t,
                    s: reg::H,
                    tag: Tag::Ref,
                });
                self.heap_push(t);
                self.write_slot(ctx, *dst, t);
            }
            BamInstr::GeneralUnify { a, b } => {
                self.asm.next_group();
                self.call_routine(ctx, self.unify, *a, *b);
            }
            BamInstr::StructEqBranch {
                a,
                b,
                want_equal,
                target,
            } => {
                self.asm.next_group();
                self.call_routine(ctx, self.struct_eq, *a, *b);
                let l = self.lbl(ctx, *target);
                self.asm.emit(Op::Br {
                    cond: Cond::Eq,
                    a: reg::FLAG,
                    b: Operand::Imm(if *want_equal { 0 } else { 1 }),
                    t: l,
                });
            }
            BamInstr::DerefInt { src, dst } => {
                self.asm.next_group();
                let t = self.deref_slot(ctx, *src);
                let f = self.fail;
                self.asm.emit(Op::BrTag {
                    a: t,
                    tag: Tag::Int,
                    eq: false,
                    t: f,
                });
                self.write_slot(ctx, *dst, t);
            }
            BamInstr::Arith { op, a, b, dst } => {
                self.asm.next_group();
                let ra = self.operand_to_reg(ctx, *a);
                let ob = self.arith_operand(ctx, *b);
                let t = self.asm.fresh_reg();
                self.asm.emit(Op::Alu {
                    op: alu_of(*op),
                    d: t,
                    a: ra,
                    b: ob,
                });
                self.write_slot(ctx, *dst, t);
            }
            BamInstr::BranchCmpFalse { cmp, a, b, target } => {
                self.asm.next_group();
                let ra = self.operand_to_reg(ctx, *a);
                let ob = self.arith_operand(ctx, *b);
                let l = self.lbl(ctx, *target);
                self.asm.emit(Op::Br {
                    cond: cond_of(cmp.negate()),
                    a: ra,
                    b: ob,
                    t: l,
                });
            }
            BamInstr::TypeTestBranch { slot, test, target } => {
                self.asm.next_group();
                let r = self.read_slot(ctx, *slot);
                let l = self.lbl(ctx, *target);
                // `atomic` passes atoms over the integer test.
                let (tag, eq, atom_ok) = match test {
                    TypeTest::Var => (Tag::Ref, false, None),
                    TypeTest::NonVar => (Tag::Ref, true, None),
                    TypeTest::Atom => (Tag::Atm, false, None),
                    TypeTest::Integer => (Tag::Int, false, None),
                    TypeTest::Atomic => {
                        let ok = self.asm.fresh_label();
                        self.asm.emit(Op::BrTag {
                            a: r,
                            tag: Tag::Atm,
                            eq: true,
                            t: ok,
                        });
                        (Tag::Int, false, Some(ok))
                    }
                };
                self.asm.emit(Op::BrTag {
                    a: r,
                    tag,
                    eq,
                    t: l,
                });
                if let Some(ok) = atom_ok {
                    self.asm.bind(ok);
                }
            }
            BamInstr::Halt { success } => {
                self.asm.next_group();
                self.asm.emit(Op::Halt { success: *success });
            }
        }
    }

    /// Binary search over sorted `(value, target)` pairs on `r`'s value
    /// field; the tag has already been checked by the caller.
    fn emit_value_search(&mut self, r: R, entries: &[(i64, Label)], default: Label) {
        if entries.len() <= LINEAR_SWITCH_LIMIT {
            for &(v, l) in entries {
                self.asm.emit(Op::Br {
                    cond: Cond::Eq,
                    a: r,
                    b: Operand::Imm(v),
                    t: l,
                });
            }
            self.asm.emit(Op::Jmp { t: default });
            return;
        }
        let mid = entries.len() / 2;
        let (pivot, target) = entries[mid];
        self.asm.emit(Op::Br {
            cond: Cond::Eq,
            a: r,
            b: Operand::Imm(pivot),
            t: target,
        });
        let right = self.asm.fresh_label();
        self.asm.emit(Op::Br {
            cond: Cond::Gt,
            a: r,
            b: Operand::Imm(pivot),
            t: right,
        });
        self.emit_value_search(r, &entries[..mid], default);
        self.asm.bind(right);
        self.emit_value_search(r, &entries[mid + 1..], default);
    }

    // ---------------- runtime routines ----------------

    fn emit_fail_routine(&mut self) {
        let fail = self.fail;
        self.asm.next_group();
        self.asm.bind(fail);
        let a = &mut self.asm;
        let t0 = a.fresh_reg();
        a.emit(Op::Ld {
            d: t0,
            base: reg::B,
            off: -cp_frame::SAVED_TR,
        });
        let lp = a.fresh_label();
        let done = a.fresh_label();
        a.bind(lp);
        a.emit(Op::Br {
            cond: Cond::Le,
            a: reg::TR,
            b: Operand::Reg(t0),
            t: done,
        });
        a.emit(Op::Alu {
            op: AluOp::Sub,
            d: reg::TR,
            a: reg::TR,
            b: Operand::Imm(1),
        });
        let t1 = a.fresh_reg();
        a.emit(Op::Ld {
            d: t1,
            base: reg::TR,
            off: 0,
        });
        a.emit(Op::St {
            s: t1,
            base: t1,
            off: 0,
        });
        a.emit(Op::Jmp { t: lp });
        a.bind(done);
        a.emit(Op::Ld {
            d: reg::H,
            base: reg::B,
            off: -cp_frame::SAVED_H,
        });
        a.emit(Op::Mv {
            d: reg::HB,
            s: reg::H,
        });
        a.emit(Op::Ld {
            d: reg::CP,
            base: reg::B,
            off: -cp_frame::SAVED_CP,
        });
        a.emit(Op::Ld {
            d: reg::E,
            base: reg::B,
            off: -cp_frame::SAVED_E,
        });
        a.emit(Op::Ld {
            d: reg::ETOP,
            base: reg::B,
            off: -cp_frame::SAVED_ETOP,
        });
        a.emit(Op::Ld {
            d: reg::EB,
            base: reg::B,
            off: -cp_frame::SAVED_EB,
        });
        a.emit(Op::Ld {
            d: reg::B0,
            base: reg::B,
            off: -cp_frame::SAVED_B0,
        });
        let t2 = a.fresh_reg();
        a.emit(Op::Ld {
            d: t2,
            base: reg::B,
            off: -cp_frame::RETRY,
        });
        a.emit(Op::JmpR { r: t2 });
    }

    fn emit_unify_routine(&mut self) {
        let env_base = self.layout.env_base();
        let fail = self.fail;
        self.asm.next_group();
        self.asm.bind(self.unify);
        let (walk, [a_unb, bind_a_to_b, bind_b_to_a]) = PairWalk::new(&mut self.asm, self.layout);
        walk.head(&mut self.asm, a_unb, bind_b_to_a, fail);
        walk.descend(&mut self.asm, fail);

        // Binding cases.
        self.asm.bind(a_unb);
        self.asm.emit(Op::BrTag {
            a: reg::U2,
            tag: Tag::Ref,
            eq: false,
            t: bind_a_to_b,
        });
        // Both unbound: bind the higher (younger) address to the lower.
        self.asm.emit(Op::Br {
            cond: Cond::Lt,
            a: reg::U1,
            b: Operand::Reg(reg::U2),
            t: bind_b_to_a,
        });
        self.asm.bind(bind_a_to_b);
        self.asm.bind_cell(reg::U1, reg::U2, env_base);
        self.asm.emit(Op::Jmp { t: walk.next });
        self.asm.bind(bind_b_to_a);
        self.asm.bind_cell(reg::U2, reg::U1, env_base);
        walk.pop(&mut self.asm);
    }

    fn emit_struct_eq_routine(&mut self) {
        self.asm.next_group();
        self.asm.bind(self.struct_eq);
        let (walk, [lfalse]) = PairWalk::new(&mut self.asm, self.layout);
        // `FLAG` reads 1 unless the walk finds a difference.
        set_flag(&mut self.asm, 1);
        walk.head(&mut self.asm, lfalse, lfalse, lfalse);
        walk.descend(&mut self.asm, lfalse);
        self.asm.bind(lfalse);
        set_flag(&mut self.asm, 0);
        self.asm.emit(Op::JmpR { r: reg::RR });
        walk.pop(&mut self.asm);
    }
}

/// The walk over the PDL, the push-down list of term pairs still to
/// visit, that `unify` and `struct_eq` share. Each routine allocates
/// its own labels between the walk's `next` and `list` labels
/// ([`PairWalk::new`]) and emits its own bodies for the cases the walk
/// hands it; the walk emits the rest.
struct PairWalk {
    pdl_base: i64,
    /// Dereferences `U1` and `U2` and dispatches on them.
    pair: Label,
    /// Pops the next pair, or returns through `RR` when none is left.
    next: Label,
    list: Label,
    strct: Label,
    push: Label,
    first: Label,
    done: Label,
}

impl PairWalk {
    /// Allocates the walk's labels and, after `pair` and `next`, the
    /// calling routine's `N` own labels. Label ids are part of the
    /// program's bytes, so this order is fixed (`tests/golden/intcode.txt`
    /// pins it), as is the order of every register and label the
    /// emitters allocate.
    fn new<const N: usize>(a: &mut Asm, layout: &Layout) -> (Self, [Label; N]) {
        let pair = a.fresh_label();
        let next = a.fresh_label();
        let own = std::array::from_fn(|_| a.fresh_label());
        let list = a.fresh_label();
        let strct = a.fresh_label();
        let push = a.fresh_label();
        let first = a.fresh_label();
        let done = a.fresh_label();
        let walk = PairWalk {
            pdl_base: layout.pdl_base(),
            pair,
            next,
            list,
            strct,
            push,
            first,
            done,
        };
        (walk, own)
    }

    /// Empties the PDL, then dereferences the pair and dispatches: equal
    /// words go to `next`, an unbound `U1` to `u1_unbound`, an unbound
    /// `U2` to `u2_unbound`, lists and structures to the walk's descent,
    /// anything else to `other`.
    fn head(&self, a: &mut Asm, u1_unbound: Label, u2_unbound: Label, other: Label) {
        a.emit(Op::MvI {
            d: reg::PDL,
            w: Word::int(self.pdl_base),
        });
        a.bind(self.pair);
        a.deref_in_place(reg::U1);
        a.deref_in_place(reg::U2);
        a.emit(Op::BrWEq {
            a: reg::U1,
            b: reg::U2,
            eq: true,
            t: self.next,
        });
        for (r, tag, t) in [
            (reg::U1, Tag::Ref, u1_unbound),
            (reg::U2, Tag::Ref, u2_unbound),
            (reg::U1, Tag::Lst, self.list),
            (reg::U1, Tag::Str, self.strct),
        ] {
            a.emit(Op::BrTag {
                a: r,
                tag,
                eq: true,
                t,
            });
        }
        a.emit(Op::Jmp { t: other });
    }

    /// Descends into two lists (push the cdr pair, walk the car pair)
    /// or two structures (compare functors, push arguments n..2, walk
    /// argument 1); a shape or functor mismatch goes to `mismatch`.
    fn descend(&self, a: &mut Asm, mismatch: Label) {
        a.bind(self.list);
        a.emit(Op::BrTag {
            a: reg::U2,
            tag: Tag::Lst,
            eq: false,
            t: mismatch,
        });
        let (t1, t2) = load_pair(a, 1);
        self.push_pair(a, t1, t2);
        self.walk_pair_at(a, 0);

        a.bind(self.strct);
        a.emit(Op::BrTag {
            a: reg::U2,
            tag: Tag::Str,
            eq: false,
            t: mismatch,
        });
        let (f1, f2) = load_pair(a, 0);
        a.emit(Op::BrWEq {
            a: f1,
            b: f2,
            eq: false,
            t: mismatch,
        });
        let n = a.fresh_reg();
        a.emit(Op::Alu {
            op: AluOp::And,
            d: n,
            a: f1,
            b: Operand::Imm(0xff),
        });
        a.bind(self.push);
        a.emit(Op::Br {
            cond: Cond::Le,
            a: n,
            b: Operand::Imm(1),
            t: self.first,
        });
        let [p1, p2, v1, v2] = std::array::from_fn(|_| a.fresh_reg());
        for (p, u, v) in [(p1, reg::U1, v1), (p2, reg::U2, v2)] {
            a.emit(Op::AddA {
                d: p,
                a: u,
                b: Operand::Reg(n),
            });
            a.emit(Op::Ld {
                d: v,
                base: p,
                off: 0,
            });
        }
        self.push_pair(a, v1, v2);
        a.emit(Op::Alu {
            op: AluOp::Sub,
            d: n,
            a: n,
            b: Operand::Imm(1),
        });
        a.emit(Op::Jmp { t: self.push });
        a.bind(self.first);
        self.walk_pair_at(a, 1);
    }

    /// Pops the next pair and walks it, or returns through `RR`.
    fn pop(&self, a: &mut Asm) {
        a.bind(self.next);
        a.emit(Op::Br {
            cond: Cond::Le,
            a: reg::PDL,
            b: Operand::Imm(self.pdl_base),
            t: self.done,
        });
        a.emit(Op::Alu {
            op: AluOp::Sub,
            d: reg::PDL,
            a: reg::PDL,
            b: Operand::Imm(2),
        });
        for (d, off) in [(reg::U1, 0), (reg::U2, 1)] {
            a.emit(Op::Ld {
                d,
                base: reg::PDL,
                off,
            });
        }
        a.emit(Op::Jmp { t: self.pair });
        a.bind(self.done);
        a.emit(Op::JmpR { r: reg::RR });
    }

    /// Pushes the pair `(x, y)` onto the PDL.
    fn push_pair(&self, a: &mut Asm, x: R, y: R) {
        for (s, off) in [(x, 0), (y, 1)] {
            a.emit(Op::St {
                s,
                base: reg::PDL,
                off,
            });
        }
        a.emit(Op::Alu {
            op: AluOp::Add,
            d: reg::PDL,
            a: reg::PDL,
            b: Operand::Imm(2),
        });
    }

    /// Makes the pair of words at `off` in `U1`'s and `U2`'s cells the
    /// current pair and walks it.
    fn walk_pair_at(&self, a: &mut Asm, off: i32) {
        let (x, y) = load_pair(a, off);
        a.emit(Op::Mv { d: reg::U1, s: x });
        a.emit(Op::Mv { d: reg::U2, s: y });
        a.emit(Op::Jmp { t: self.pair });
    }
}

/// Loads the words at `off` in `U1`'s and `U2`'s cells into two fresh
/// registers.
fn load_pair(a: &mut Asm, off: i32) -> (R, R) {
    let (x, y) = (a.fresh_reg(), a.fresh_reg());
    for (d, base) in [(x, reg::U1), (y, reg::U2)] {
        a.emit(Op::Ld { d, base, off });
    }
    (x, y)
}

/// Sets `FLAG`, the result register of `struct_eq`, to `v`.
fn set_flag(a: &mut Asm, v: i64) {
    let t = a.fresh_reg();
    a.emit(Op::MvI {
        d: t,
        w: Word::int(v),
    });
    a.emit(Op::Mv { d: reg::FLAG, s: t });
}

/// Stores the word `w` at `base + off` through a fresh register.
fn store_word(a: &mut Asm, w: Word, base: R, off: i32) {
    let t = a.fresh_reg();
    a.emit(Op::MvI { d: t, w });
    a.emit(Op::St { s: t, base, off });
}

/// Per-predicate translation context.
#[derive(Default)]
struct PredCtx {
    labels: HashMap<BamLabel, Label>,
    temps: HashMap<usize, R>,
}

fn tag_of(t: TagClass) -> Tag {
    match t {
        TagClass::Var => Tag::Ref,
        TagClass::Int => Tag::Int,
        TagClass::Atm => Tag::Atm,
        TagClass::Lst => Tag::Lst,
        TagClass::Str => Tag::Str,
    }
}

fn alu_of(op: symbol_bam::ArithOp) -> AluOp {
    use symbol_bam::ArithOp as A;
    match op {
        A::Add => AluOp::Add,
        A::Sub => AluOp::Sub,
        A::Mul => AluOp::Mul,
        A::Div => AluOp::Div,
        A::Mod => AluOp::Mod,
        A::Rem => AluOp::Rem,
        A::And => AluOp::And,
        A::Or => AluOp::Or,
        A::Xor => AluOp::Xor,
        A::Shl => AluOp::Shl,
        A::Shr => AluOp::Shr,
        A::Max => AluOp::Max,
    }
}

fn cond_of(c: Cmp) -> Cond {
    match c {
        Cmp::Eq => Cond::Eq,
        Cmp::Ne => Cond::Ne,
        Cmp::Lt => Cond::Lt,
        Cmp::Le => Cond::Le,
        Cmp::Gt => Cond::Gt,
        Cmp::Ge => Cond::Ge,
    }
}
