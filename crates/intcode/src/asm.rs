//! A small assembler for building IntCode programs with symbolic
//! labels, fresh registers, and BAM-instruction group markers.
//! [`Asm::finish`] validates the result through [`IciProgram::new`]
//! and returns its [`ProgramError`] rather than panicking.

use std::collections::HashMap;

use crate::layout::reg;
use crate::op::{Label, Op, R};
use crate::program::{IciProgram, ProgramError};
use crate::word::Tag;

/// Incremental IntCode builder.
///
/// Labels are allocated with [`Asm::fresh_label`] and attached to the
/// next emitted op with [`Asm::bind`]; fresh virtual registers come
/// from [`Asm::fresh_reg`]; [`Asm::next_group`] tags
/// emitted ops with the BAM instruction they expand (the compaction
/// barrier of the BAM cost model).
#[derive(Debug, Default)]
pub struct Asm {
    ops: Vec<Op>,
    groups: Vec<u32>,
    label_at: HashMap<Label, usize>,
    next_label: u32,
    next_reg: u32,
    group: u32,
    next_group: u32,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Asm {
            ops: Vec::new(),
            groups: Vec::new(),
            label_at: HashMap::new(),
            next_label: 0,
            next_reg: reg::FIRST_TEMP,
            group: 0,
            next_group: 1,
        }
    }

    /// Allocates a fresh label (not yet bound to an address).
    pub fn fresh_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Allocates a fresh virtual register.
    pub fn fresh_reg(&mut self) -> R {
        let r = R(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Binds `label` to the address of the next emitted op.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let prev = self.label_at.insert(label, self.ops.len());
        assert!(prev.is_none(), "label {label} bound twice");
    }

    /// Starts a new BAM-instruction group for subsequently emitted ops.
    pub fn next_group(&mut self) {
        self.group = self.next_group;
        self.next_group += 1;
    }

    /// Emits one op.
    pub fn emit(&mut self, op: Op) {
        self.ops.push(op);
        self.groups.push(self.group);
    }

    /// Number of ops emitted so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Emits the canonical in-place dereference loop on `r`.
    ///
    /// ```text
    ///   btag r != Ref -> done
    /// loop:
    ///   t = mem[r]
    ///   if t == r (word) -> done      ; self-reference = unbound
    ///   r = t
    ///   btag r == Ref -> loop
    /// done:
    /// ```
    pub fn deref_in_place(&mut self, r: R) {
        let done = self.fresh_label();
        let lp = self.fresh_label();
        let t = self.fresh_reg();
        self.emit(Op::BrTag {
            a: r,
            tag: Tag::Ref,
            eq: false,
            t: done,
        });
        self.bind(lp);
        self.emit(Op::Ld {
            d: t,
            base: r,
            off: 0,
        });
        self.emit(Op::BrWEq {
            a: t,
            b: r,
            eq: true,
            t: done,
        });
        self.emit(Op::Mv { d: r, s: t });
        self.emit(Op::BrTag {
            a: r,
            tag: Tag::Ref,
            eq: true,
            t: lp,
        });
        self.bind(done);
    }

    /// Emits the conditional-trail binding sequence `mem[v] = w`.
    ///
    /// The store is trailed when the bound cell is older than the
    /// newest choice point (heap cells below `HB`, environment cells
    /// below `EB`).
    pub fn bind_cell(&mut self, v: R, w: R, env_base: i64) {
        use crate::op::{Cond, Operand};
        let ltrail = self.fresh_label();
        let ldone = self.fresh_label();
        self.emit(Op::St {
            s: w,
            base: v,
            off: 0,
        });
        self.emit(Op::Br {
            cond: Cond::Lt,
            a: v,
            b: Operand::Reg(reg::HB),
            t: ltrail,
        });
        self.emit(Op::Br {
            cond: Cond::Lt,
            a: v,
            b: Operand::Imm(env_base),
            t: ldone,
        });
        self.emit(Op::Br {
            cond: Cond::Ge,
            a: v,
            b: Operand::Reg(reg::EB),
            t: ldone,
        });
        self.bind(ltrail);
        self.emit(Op::St {
            s: v,
            base: reg::TR,
            off: 0,
        });
        self.emit(Op::Alu {
            op: crate::op::AluOp::Add,
            d: reg::TR,
            a: reg::TR,
            b: Operand::Imm(1),
        });
        self.bind(ldone);
    }

    /// Finalizes into an [`IciProgram`] entered at `entry`.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect [`IciProgram::new`] finds,
    /// such as a referenced label that is unbound or out of range.
    pub fn finish(self, entry: Label) -> Result<IciProgram, ProgramError> {
        IciProgram::new(self.ops, self.groups, self.label_at, self.next_label, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Cond, Operand};

    #[test]
    fn labels_bind_to_next_op() {
        let mut a = Asm::new();
        let l = a.fresh_label();
        a.emit(Op::Mv { d: R(40), s: R(41) });
        a.bind(l);
        a.emit(Op::Halt { success: true });
        let p = a.finish(l).expect("assembles");
        assert_eq!(p.label_addr(l), 1);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.fresh_label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn fresh_regs_are_distinct_and_above_fixed() {
        let mut a = Asm::new();
        let r1 = a.fresh_reg();
        let r2 = a.fresh_reg();
        assert_ne!(r1, r2);
        assert!(r1.0 >= reg::FIRST_TEMP);
    }

    #[test]
    fn groups_tag_ops() {
        let mut a = Asm::new();
        a.next_group();
        a.emit(Op::Mv { d: R(40), s: R(41) });
        a.next_group();
        a.emit(Op::Mv { d: R(42), s: R(41) });
        let entry = a.fresh_label();
        a.bind(entry);
        a.emit(Op::Halt { success: true });
        let p = a.finish(entry).expect("assembles");
        assert_ne!(p.groups()[0], p.groups()[1]);
    }

    #[test]
    fn deref_sequence_shape() {
        let mut a = Asm::new();
        let entry = a.fresh_label();
        a.bind(entry);
        a.deref_in_place(R(50));
        a.emit(Op::Halt { success: true });
        let p = a.finish(entry).expect("assembles");
        // 1 guard branch + 4-op loop + halt
        assert_eq!(p.ops().len(), 6);
    }

    #[test]
    fn bind_cell_sequence_has_one_store_plus_trail() {
        let mut a = Asm::new();
        let entry = a.fresh_label();
        a.bind(entry);
        a.bind_cell(R(50), R(51), 1000);
        a.emit(Op::Br {
            cond: Cond::Eq,
            a: R(50),
            b: Operand::Imm(0),
            t: entry,
        });
        a.emit(Op::Halt { success: true });
        let p = a.finish(entry).expect("assembles");
        let stores = p
            .ops()
            .iter()
            .filter(|o| matches!(o, Op::St { .. }))
            .count();
        assert_eq!(stores, 2);
    }
}
