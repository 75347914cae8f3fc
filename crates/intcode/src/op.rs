//! The Intermediate Code Instruction (ICI) set.
//!
//! ICIs are simple operations "directly expressing primitive hardware
//! functionalities" (paper §3.1): loads/stores with register+offset
//! addressing, register moves, value-field ALU operations, tag
//! insertion, and branches — including the Prolog-specific *branch on
//! tag field*, the key architectural support of the paper's machine.
//!
//! Every op belongs to one of four [`OpClass`]es, which drive both the
//! instruction-mix statistics (Figure 2) and the machine resource model
//! (one memory / ALU / move / control slot per unit per cycle).

use crate::word::{Tag, Word};
use std::fmt;

/// Virtual register id. Fixed machine registers occupy the low ids
/// (see [`crate::layout::reg`]); everything above is an unbounded
/// renamed temporary space.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct R(pub u32);

impl fmt::Display for R {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Program label id. Labels are stable identities: code words
/// (`Tag::Cod`) store label ids, and each machine resolves them to its
/// own instruction addresses, so the same data works for sequential,
/// BAM-cost and rescheduled VLIW execution.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Second source operand: register or value-field immediate.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Register.
    Reg(R),
    /// Immediate value (compared/combined with the value field).
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "#{i}"),
        }
    }
}

/// Value-field comparison conditions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed).
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl Cond {
    /// The condition that holds exactly when `self` does not.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// Evaluates the condition.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

/// ALU operations on value fields (result tag is `Int`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Truncating division.
    Div,
    /// Floored modulo (ISO `mod`: result takes the divisor's sign).
    Mod,
    /// Truncated remainder (ISO `rem`: result takes the dividend's
    /// sign).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Maximum (used by environment allocation).
    Max,
}

impl AluOp {
    /// Evaluates the operation on two value fields. `None` signals
    /// division (or modulo) by zero.
    ///
    /// This is the single definition of ALU semantics: the sequential
    /// emulator and the VLIW simulator both call it, so the two
    /// machines cannot drift apart.
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            AluOp::Mod => {
                if b == 0 {
                    return None;
                }
                let r = a.wrapping_rem(b);
                if r != 0 && (r < 0) != (b < 0) {
                    r + b
                } else {
                    r
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32),
            AluOp::Shr => a.wrapping_shr(b as u32),
            AluOp::Max => a.max(b),
        })
    }
}

/// Operation classes (paper Figure 2 categories).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Data memory access.
    Memory,
    /// ALU / tag manipulation.
    Alu,
    /// Register move / immediate load.
    Move,
    /// Branches, jumps, halts.
    Control,
}

impl OpClass {
    /// Number of classes — the width of every per-class counter array.
    pub const COUNT: usize = 4;

    /// Every class, in canonical accounting order. This order *is* the
    /// index space: `ALL[c.index()] == c`. All per-class arrays in the
    /// emulator, the VLIW machine model and the analysis layer are
    /// indexed through [`OpClass::index`], so the mapping lives in
    /// exactly one place.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Memory,
        OpClass::Alu,
        OpClass::Move,
        OpClass::Control,
    ];

    /// The class's canonical index into per-class counter arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            OpClass::Memory => 0,
            OpClass::Alu => 1,
            OpClass::Move => 2,
            OpClass::Control => 3,
        }
    }

    /// Lower-case display name (also used as a metric label value).
    pub const fn name(self) -> &'static str {
        match self {
            OpClass::Memory => "memory",
            OpClass::Alu => "alu",
            OpClass::Move => "move",
            OpClass::Control => "control",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One Intermediate Code Instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// `d = mem[base.val + off]`.
    Ld {
        /// Destination register.
        d: R,
        /// Base address register.
        base: R,
        /// Word offset.
        off: i32,
    },
    /// `mem[base.val + off] = s`.
    St {
        /// Stored register.
        s: R,
        /// Base address register.
        base: R,
        /// Word offset.
        off: i32,
    },
    /// `d = s`.
    Mv {
        /// Destination.
        d: R,
        /// Source.
        s: R,
    },
    /// `d = w` (tagged immediate).
    MvI {
        /// Destination.
        d: R,
        /// Immediate word.
        w: Word,
    },
    /// `d.val = a.val (op) b; d.tag = Int`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        d: R,
        /// Left source.
        a: R,
        /// Right source.
        b: Operand,
    },
    /// Address add: `d.val = a.val + b; d.tag = a.tag`.
    AddA {
        /// Destination.
        d: R,
        /// Left source (pointer).
        a: R,
        /// Right source.
        b: Operand,
    },
    /// Tag insertion: `d = <tag, s.val>`.
    MkTag {
        /// Destination.
        d: R,
        /// Source of the value field.
        s: R,
        /// Inserted tag.
        tag: Tag,
    },
    /// Conditional branch on value fields.
    Br {
        /// Condition.
        cond: Cond,
        /// Left source.
        a: R,
        /// Right source.
        b: Operand,
        /// Target label.
        t: Label,
    },
    /// Branch on the tag field: taken when `(a.tag == tag) == eq`.
    BrTag {
        /// Tested register.
        a: R,
        /// Tag compared against.
        tag: Tag,
        /// Branch on equality (`true`) or inequality (`false`).
        eq: bool,
        /// Target label.
        t: Label,
    },
    /// Branch comparing a full word against an immediate word.
    BrWord {
        /// Tested register.
        a: R,
        /// Immediate word.
        w: Word,
        /// Branch on equality (`true`) or inequality (`false`).
        eq: bool,
        /// Target label.
        t: Label,
    },
    /// Branch comparing two registers as full words.
    BrWEq {
        /// Left register.
        a: R,
        /// Right register.
        b: R,
        /// Branch on equality (`true`) or inequality (`false`).
        eq: bool,
        /// Target label.
        t: Label,
    },
    /// Unconditional jump.
    Jmp {
        /// Target label.
        t: Label,
    },
    /// Indirect jump through a `Cod` word in `r`.
    JmpR {
        /// Register holding the code word.
        r: R,
    },
    /// Stop the machine.
    Halt {
        /// Whether the program succeeded.
        success: bool,
    },
}

/// The registers an op reads ([`Op::uses`]): at most two, kept inline
/// so asking costs no allocation. Derefs to a slice.
#[derive(Copy, Clone, Debug)]
pub struct Uses {
    regs: [R; 2],
    len: u8,
}

impl Uses {
    const NONE: Uses = Uses {
        regs: [R(0); 2],
        len: 0,
    };

    fn push(&mut self, r: R) {
        self.regs[usize::from(self.len)] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for Uses {
    type Target = [R];

    fn deref(&self) -> &[R] {
        &self.regs[..usize::from(self.len)]
    }
}

impl IntoIterator for Uses {
    type Item = R;
    type IntoIter = std::iter::Take<std::array::IntoIter<R, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(usize::from(self.len))
    }
}

impl Op {
    /// The operation's class.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Ld { .. } | Op::St { .. } => OpClass::Memory,
            Op::Mv { .. } | Op::MvI { .. } => OpClass::Move,
            Op::Alu { .. } | Op::AddA { .. } | Op::MkTag { .. } => OpClass::Alu,
            Op::Br { .. }
            | Op::BrTag { .. }
            | Op::BrWord { .. }
            | Op::BrWEq { .. }
            | Op::Jmp { .. }
            | Op::JmpR { .. }
            | Op::Halt { .. } => OpClass::Control,
        }
    }

    /// Registers read by the op, in operand order (at most two).
    pub fn uses(&self) -> Uses {
        let mut u = Uses::NONE;
        match self {
            Op::Ld { base, .. } => u.push(*base),
            Op::St { s, base, .. } => {
                u.push(*s);
                u.push(*base);
            }
            Op::Mv { s, .. } => u.push(*s),
            Op::MvI { .. } => {}
            Op::Alu { a, b, .. } | Op::AddA { a, b, .. } | Op::Br { a, b, .. } => {
                u.push(*a);
                if let Operand::Reg(r) = b {
                    u.push(*r);
                }
            }
            Op::MkTag { s, .. } => u.push(*s),
            Op::BrTag { a, .. } | Op::BrWord { a, .. } => u.push(*a),
            Op::BrWEq { a, b, .. } => {
                u.push(*a);
                u.push(*b);
            }
            Op::Jmp { .. } | Op::Halt { .. } => {}
            Op::JmpR { r } => u.push(*r),
        }
        u
    }

    /// Register written by the op, if any.
    pub fn def(&self) -> Option<R> {
        match self {
            Op::Ld { d, .. }
            | Op::Mv { d, .. }
            | Op::MvI { d, .. }
            | Op::Alu { d, .. }
            | Op::AddA { d, .. }
            | Op::MkTag { d, .. } => Some(*d),
            _ => None,
        }
    }

    /// Explicit branch target, if the op has one.
    pub fn target(&self) -> Option<Label> {
        match self {
            Op::Br { t, .. }
            | Op::BrTag { t, .. }
            | Op::BrWord { t, .. }
            | Op::BrWEq { t, .. }
            | Op::Jmp { t } => Some(*t),
            _ => None,
        }
    }

    /// Retargets the explicit branch target (no-op for other ops).
    pub fn set_target(&mut self, new: Label) {
        match self {
            Op::Br { t, .. }
            | Op::BrTag { t, .. }
            | Op::BrWord { t, .. }
            | Op::BrWEq { t, .. }
            | Op::Jmp { t } => *t = new,
            _ => {}
        }
    }

    /// Whether the op is a control transfer (class Control).
    pub fn is_control(&self) -> bool {
        self.class() == OpClass::Control
    }

    /// Whether the op is a *conditional* branch — a control transfer
    /// that can either be taken or fall through, the only kind with a
    /// meaningful taken-probability.
    pub fn is_conditional_branch(&self) -> bool {
        matches!(
            self,
            Op::Br { .. } | Op::BrTag { .. } | Op::BrWord { .. } | Op::BrWEq { .. }
        )
    }

    /// Whether control can fall through to the following op.
    pub fn falls_through(&self) -> bool {
        !matches!(self, Op::Jmp { .. } | Op::JmpR { .. } | Op::Halt { .. })
    }

    /// Whether the op reads or writes data memory.
    pub fn touches_memory(&self) -> bool {
        matches!(self, Op::Ld { .. } | Op::St { .. })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Ld { d, base, off } => write!(f, "ld   {d}, [{base}{off:+}]"),
            Op::St { s, base, off } => write!(f, "st   [{base}{off:+}], {s}"),
            Op::Mv { d, s } => write!(f, "mv   {d}, {s}"),
            Op::MvI { d, w } => write!(f, "mvi  {d}, {w}"),
            Op::Alu { op, d, a, b } => {
                write!(f, "{:<4} {d}, {a}, {b}", format!("{op:?}").to_lowercase())
            }
            Op::AddA { d, a, b } => write!(f, "adda {d}, {a}, {b}"),
            Op::MkTag { d, s, tag } => write!(f, "mktg {d}, {s}, {tag}"),
            Op::Br { cond, a, b, t } => {
                write!(
                    f,
                    "b{:<3} {a}, {b}, {t}",
                    format!("{cond:?}").to_lowercase()
                )
            }
            Op::BrTag { a, tag, eq, t } => {
                write!(f, "btag {a} {}= {tag}, {t}", if *eq { "=" } else { "!" })
            }
            Op::BrWord { a, w, eq, t } => {
                write!(f, "bwrd {a} {}= {w}, {t}", if *eq { "=" } else { "!" })
            }
            Op::BrWEq { a, b, eq, t } => {
                write!(f, "bweq {a} {}= {b}, {t}", if *eq { "=" } else { "!" })
            }
            Op::Jmp { t } => write!(f, "jmp  {t}"),
            Op::JmpR { r } => write!(f, "jmpr {r}"),
            Op::Halt { success } => write!(f, "halt {success}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_all_ops() {
        assert_eq!(
            Op::Ld {
                d: R(1),
                base: R(2),
                off: 0
            }
            .class(),
            OpClass::Memory
        );
        assert_eq!(Op::Mv { d: R(1), s: R(2) }.class(), OpClass::Move);
        assert_eq!(
            Op::MkTag {
                d: R(1),
                s: R(2),
                tag: Tag::Lst
            }
            .class(),
            OpClass::Alu
        );
        assert_eq!(Op::Halt { success: true }.class(), OpClass::Control);
    }

    #[test]
    fn class_index_round_trips_and_covers_every_op_variant() {
        // ALL is the inverse of index().
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(OpClass::ALL[c.index()], *c);
        }
        // One value of every `Op` variant; `.class().index()` must be
        // in range for each, so every per-class array sized
        // `OpClass::COUNT` can hold every op. If a variant is added
        // without extending this list, the count check below fails.
        let every_variant: Vec<Op> = vec![
            Op::Ld {
                d: R(0),
                base: R(1),
                off: 0,
            },
            Op::St {
                s: R(0),
                base: R(1),
                off: 0,
            },
            Op::Mv { d: R(0), s: R(1) },
            Op::MvI {
                d: R(0),
                w: Word::int(0),
            },
            Op::Alu {
                op: AluOp::Add,
                d: R(0),
                a: R(1),
                b: Operand::Imm(1),
            },
            Op::AddA {
                d: R(0),
                a: R(1),
                b: Operand::Imm(1),
            },
            Op::MkTag {
                d: R(0),
                s: R(1),
                tag: Tag::Int,
            },
            Op::Br {
                cond: Cond::Eq,
                a: R(0),
                b: Operand::Imm(0),
                t: Label(0),
            },
            Op::BrTag {
                a: R(0),
                tag: Tag::Int,
                eq: true,
                t: Label(0),
            },
            Op::BrWord {
                a: R(0),
                w: Word::int(0),
                eq: true,
                t: Label(0),
            },
            Op::BrWEq {
                a: R(0),
                b: R(1),
                eq: true,
                t: Label(0),
            },
            Op::Jmp { t: Label(0) },
            Op::JmpR { r: R(0) },
            Op::Halt { success: true },
        ];
        assert_eq!(every_variant.len(), 14, "one entry per Op variant");
        let mut per_class = [0usize; OpClass::COUNT];
        for op in &every_variant {
            per_class[op.class().index()] += 1;
        }
        assert_eq!(per_class[OpClass::Memory.index()], 2, "Ld, St");
        assert_eq!(per_class[OpClass::Alu.index()], 3, "Alu, AddA, MkTag");
        assert_eq!(per_class[OpClass::Move.index()], 2, "Mv, MvI");
        assert_eq!(per_class[OpClass::Control.index()], 7, "branch family");
    }

    #[test]
    fn uses_and_defs() {
        let op = Op::Alu {
            op: AluOp::Add,
            d: R(3),
            a: R(1),
            b: Operand::Reg(R(2)),
        };
        assert_eq!(*op.uses(), [R(1), R(2)]);
        assert_eq!(op.def(), Some(R(3)));
        let st = Op::St {
            s: R(4),
            base: R(5),
            off: 1,
        };
        assert_eq!(st.def(), None);
        assert_eq!(*st.uses(), [R(4), R(5)]);
    }

    #[test]
    fn cond_eval_matrix() {
        assert!(Cond::Lt.eval(1, 2));
        assert!(!Cond::Lt.eval(2, 2));
        assert!(Cond::Le.eval(2, 2));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Ge.eval(2, 2));
        assert!(Cond::Gt.eval(3, 2));
    }

    #[test]
    fn fall_through_rules() {
        assert!(!Op::Jmp { t: Label(0) }.falls_through());
        assert!(!Op::JmpR { r: R(0) }.falls_through());
        assert!(Op::Br {
            cond: Cond::Eq,
            a: R(0),
            b: Operand::Imm(0),
            t: Label(0)
        }
        .falls_through());
    }

    #[test]
    fn retarget() {
        let mut op = Op::Jmp { t: Label(1) };
        op.set_target(Label(9));
        assert_eq!(op.target(), Some(Label(9)));
    }

    #[test]
    fn conditional_branch_classification() {
        assert!(Op::Br {
            cond: Cond::Eq,
            a: R(0),
            b: Operand::Imm(0),
            t: Label(0)
        }
        .is_conditional_branch());
        assert!(Op::BrTag {
            a: R(0),
            tag: Tag::Int,
            eq: true,
            t: Label(0)
        }
        .is_conditional_branch());
        assert!(!Op::Jmp { t: Label(0) }.is_conditional_branch());
        assert!(!Op::JmpR { r: R(0) }.is_conditional_branch());
        assert!(!Op::Halt { success: true }.is_conditional_branch());
    }

    #[test]
    fn floored_mod_follows_divisor_sign() {
        // ISO: -7 mod 3 =:= 2, 7 mod -3 =:= -2, -7 mod -3 =:= -1
        assert_eq!(AluOp::Mod.eval(-7, 3), Some(2));
        assert_eq!(AluOp::Mod.eval(7, -3), Some(-2));
        assert_eq!(AluOp::Mod.eval(-7, -3), Some(-1));
        assert_eq!(AluOp::Mod.eval(7, 3), Some(1));
        assert_eq!(AluOp::Mod.eval(-6, 3), Some(0));
        assert_eq!(AluOp::Mod.eval(0, 5), Some(0));
    }

    #[test]
    fn truncated_rem_follows_dividend_sign() {
        // ISO: -7 rem 3 =:= -1, 7 rem -3 =:= 1, -7 rem -3 =:= -1
        assert_eq!(AluOp::Rem.eval(-7, 3), Some(-1));
        assert_eq!(AluOp::Rem.eval(7, -3), Some(1));
        assert_eq!(AluOp::Rem.eval(-7, -3), Some(-1));
        assert_eq!(AluOp::Rem.eval(7, 3), Some(1));
    }

    #[test]
    fn zero_divisor_is_reported() {
        assert_eq!(AluOp::Div.eval(1, 0), None);
        assert_eq!(AluOp::Mod.eval(1, 0), None);
        assert_eq!(AluOp::Rem.eval(1, 0), None);
    }

    #[test]
    fn mod_and_rem_agree_with_division_identities() {
        for a in -20i64..=20 {
            for b in [-7i64, -3, -1, 1, 2, 5] {
                // floored mod satisfies a = b * floor(a/b) + mod
                let m = AluOp::Mod.eval(a, b).unwrap();
                let fdiv = if (a % b != 0) && ((a < 0) != (b < 0)) {
                    a / b - 1
                } else {
                    a / b
                };
                assert_eq!(a, b * fdiv + m, "a={a} b={b}");
                // floored mod has the divisor's sign (or is zero)
                assert!(m == 0 || (m < 0) == (b < 0), "a={a} b={b} m={m}");
                // truncated rem satisfies a = b * trunc(a/b) + rem
                let r = AluOp::Rem.eval(a, b).unwrap();
                assert_eq!(a, b * (a / b) + r, "a={a} b={b}");
            }
        }
    }
}
