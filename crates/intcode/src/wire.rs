//! Zero-dependency binary serialization for compiled artifacts.
//!
//! This module is the byte-level foundation of the `symbol-serve`
//! compiled-artifact layer: a little-endian [`Writer`]/[`Reader`] pair,
//! the shared [`WireError`] diagnosis type, and validated
//! encode/decode for the two program forms an artifact carries —
//! [`IciProgram`] (the portable sequential layout) and
//! [`DecodedProgram`] (the pre-decoded micro-op form the serving tier
//! executes directly).
//!
//! Design rules, in order:
//!
//! 1. **Never panic on malformed bytes.** Every read is bounds-checked
//!    and every decoded structure is re-validated before it is allowed
//!    to reach an execution engine, so a truncated, bit-flipped or
//!    adversarial artifact surfaces as a [`WireError`] — the caller
//!    recompiles — and can never index out of bounds at run time.
//! 2. **Byte-exact round trips.** `encode(decode(bytes)) == bytes` for
//!    every value this module accepts; the workspace agreement suite
//!    asserts it over the whole benchmark set.
//! 3. **No external dependencies.** Fixed-width little-endian fields
//!    and explicit tag bytes; nothing here depends on struct layout,
//!    `repr`, or host endianness.

use std::collections::HashMap;
use std::fmt;

use crate::decode::{DecodedProgram, MicroOp};
use crate::op::{AluOp, Cond, Label, Op, Operand, R};
use crate::program::{IciProgram, ProgramError};
use crate::word::{Tag, Word};

/// Upper bound accepted for a deserialized register-file size. Real
/// programs use a few thousand registers; anything near this limit is
/// a corrupt or hostile artifact and must not drive a giant
/// allocation in the emulator.
const MAX_REGS: usize = 1 << 24;

/// Any defect found while decoding serialized bytes.
///
/// The magic/version/checksum variants are produced by the artifact
/// container in `symbol-serve`; they live here so every layer of the
/// format shares one diagnosis type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The input ended before a field could be read.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// An enum tag byte holds no known variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag value.
        value: u32,
    },
    /// A structurally valid field holds a semantically invalid value
    /// (out-of-range register, impossible count, ...).
    BadValue {
        /// What was being validated.
        what: &'static str,
    },
    /// Decoding finished with unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The decoded program failed [`IciProgram::new`] validation.
    Program(ProgramError),
    /// The artifact container does not start with the format magic.
    BadMagic,
    /// The artifact container carries an unsupported format version.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// An integrity check failed (content checksum, key mismatch).
    Corrupt {
        /// Which check failed.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated input: needed {need} bytes, had {have}")
            }
            WireError::BadTag { what, value } => {
                write!(f, "unknown {what} tag {value}")
            }
            WireError::BadValue { what } => write!(f, "invalid {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the encoded value")
            }
            WireError::Program(e) => write!(f, "program validation: {e}"),
            WireError::BadMagic => write!(f, "bad artifact magic"),
            WireError::BadVersion { found, expected } => {
                write!(f, "artifact format version {found} (expected {expected})")
            }
            WireError::Corrupt { what } => write!(f, "corrupt artifact: {what} check failed"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ProgramError> for WireError {
    fn from(e: ProgramError) -> Self {
        WireError::Program(e)
    }
}

/// Little-endian byte sink for the wire format.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a raw byte slice (no length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`, little-endian.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection count as a `u64`.
    pub fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes the next `N` raw bytes as an array.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `N` bytes remain.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = self.take(N)?;
        <[u8; N]>::try_from(bytes).map_err(|_| WireError::Truncated {
            need: N,
            have: bytes.len(),
        })
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting anything but 0/1.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadTag {
                what: "bool",
                value: v as u32,
            }),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads a collection count written by [`Writer::count`], rejecting
    /// counts that could not possibly fit in the remaining input (each
    /// element needs at least `min_elem_bytes`). This keeps a corrupt
    /// length field from driving a giant allocation.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::BadValue`].
    pub fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, WireError> {
        let n = self.u64()?;
        let Ok(n) = usize::try_from(n) else {
            return Err(WireError::BadValue { what });
        };
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::BadValue { what });
        }
        Ok(n)
    }

    /// Asserts the input was fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] when bytes are left over.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Scalar ICI types.
// ---------------------------------------------------------------------

/// Encodes a word tag as one byte.
fn put_tag(w: &mut Writer, t: Tag) {
    w.u8(match t {
        Tag::Ref => 0,
        Tag::Int => 1,
        Tag::Atm => 2,
        Tag::Lst => 3,
        Tag::Str => 4,
        Tag::Fun => 5,
        Tag::Cod => 6,
    });
}

/// Decodes a word tag.
///
/// # Errors
///
/// [`WireError::BadTag`] on an unknown tag byte.
fn get_tag(r: &mut Reader<'_>) -> Result<Tag, WireError> {
    Ok(match r.u8()? {
        0 => Tag::Ref,
        1 => Tag::Int,
        2 => Tag::Atm,
        3 => Tag::Lst,
        4 => Tag::Str,
        5 => Tag::Fun,
        6 => Tag::Cod,
        v => {
            return Err(WireError::BadTag {
                what: "Tag",
                value: v as u32,
            })
        }
    })
}

/// Encodes a tagged word (tag byte + value field).
fn put_word(w: &mut Writer, word: Word) {
    put_tag(w, word.tag);
    w.i64(word.val);
}

/// Decodes a tagged word.
///
/// # Errors
///
/// See [`get_tag`].
fn get_word(r: &mut Reader<'_>) -> Result<Word, WireError> {
    let tag = get_tag(r)?;
    let val = r.i64()?;
    Ok(Word { tag, val })
}

/// Encodes an ALU opcode as one byte.
fn put_alu(w: &mut Writer, op: AluOp) {
    w.u8(match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Mod => 4,
        AluOp::Rem => 5,
        AluOp::And => 6,
        AluOp::Or => 7,
        AluOp::Xor => 8,
        AluOp::Shl => 9,
        AluOp::Shr => 10,
        AluOp::Max => 11,
    });
}

/// Decodes an ALU opcode.
///
/// # Errors
///
/// [`WireError::BadTag`] on an unknown opcode byte.
fn get_alu(r: &mut Reader<'_>) -> Result<AluOp, WireError> {
    Ok(match r.u8()? {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Mod,
        5 => AluOp::Rem,
        6 => AluOp::And,
        7 => AluOp::Or,
        8 => AluOp::Xor,
        9 => AluOp::Shl,
        10 => AluOp::Shr,
        11 => AluOp::Max,
        v => {
            return Err(WireError::BadTag {
                what: "AluOp",
                value: v as u32,
            })
        }
    })
}

/// Encodes a branch condition as one byte.
fn put_cond(w: &mut Writer, c: Cond) {
    w.u8(match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Lt => 2,
        Cond::Le => 3,
        Cond::Gt => 4,
        Cond::Ge => 5,
    });
}

/// Decodes a branch condition.
///
/// # Errors
///
/// [`WireError::BadTag`] on an unknown condition byte.
fn get_cond(r: &mut Reader<'_>) -> Result<Cond, WireError> {
    Ok(match r.u8()? {
        0 => Cond::Eq,
        1 => Cond::Ne,
        2 => Cond::Lt,
        3 => Cond::Le,
        4 => Cond::Gt,
        5 => Cond::Ge,
        v => {
            return Err(WireError::BadTag {
                what: "Cond",
                value: v as u32,
            })
        }
    })
}

fn put_operand(w: &mut Writer, o: Operand) {
    match o {
        Operand::Reg(r) => {
            w.u8(0);
            w.u32(r.0);
        }
        Operand::Imm(i) => {
            w.u8(1);
            w.i64(i);
        }
    }
}

fn get_operand(r: &mut Reader<'_>) -> Result<Operand, WireError> {
    Ok(match r.u8()? {
        0 => Operand::Reg(R(r.u32()?)),
        1 => Operand::Imm(r.i64()?),
        v => {
            return Err(WireError::BadTag {
                what: "Operand",
                value: v as u32,
            })
        }
    })
}

// ---------------------------------------------------------------------
// Op (source instruction form).
// ---------------------------------------------------------------------

fn put_op(w: &mut Writer, op: &Op) {
    match *op {
        Op::Ld { d, base, off } => {
            w.u8(0);
            w.u32(d.0);
            w.u32(base.0);
            w.i32(off);
        }
        Op::St { s, base, off } => {
            w.u8(1);
            w.u32(s.0);
            w.u32(base.0);
            w.i32(off);
        }
        Op::Mv { d, s } => {
            w.u8(2);
            w.u32(d.0);
            w.u32(s.0);
        }
        Op::MvI { d, w: word } => {
            w.u8(3);
            w.u32(d.0);
            put_word(w, word);
        }
        Op::Alu { op, d, a, b } => {
            w.u8(4);
            put_alu(w, op);
            w.u32(d.0);
            w.u32(a.0);
            put_operand(w, b);
        }
        Op::AddA { d, a, b } => {
            w.u8(5);
            w.u32(d.0);
            w.u32(a.0);
            put_operand(w, b);
        }
        Op::MkTag { d, s, tag } => {
            w.u8(6);
            w.u32(d.0);
            w.u32(s.0);
            put_tag(w, tag);
        }
        Op::Br { cond, a, b, t } => {
            w.u8(7);
            put_cond(w, cond);
            w.u32(a.0);
            put_operand(w, b);
            w.u32(t.0);
        }
        Op::BrTag { a, tag, eq, t } => {
            w.u8(8);
            w.u32(a.0);
            put_tag(w, tag);
            w.bool(eq);
            w.u32(t.0);
        }
        Op::BrWord { a, w: word, eq, t } => {
            w.u8(9);
            w.u32(a.0);
            put_word(w, word);
            w.bool(eq);
            w.u32(t.0);
        }
        Op::BrWEq { a, b, eq, t } => {
            w.u8(10);
            w.u32(a.0);
            w.u32(b.0);
            w.bool(eq);
            w.u32(t.0);
        }
        Op::Jmp { t } => {
            w.u8(11);
            w.u32(t.0);
        }
        Op::JmpR { r } => {
            w.u8(12);
            w.u32(r.0);
        }
        Op::Halt { success } => {
            w.u8(13);
            w.bool(success);
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> Result<Op, WireError> {
    Ok(match r.u8()? {
        0 => Op::Ld {
            d: R(r.u32()?),
            base: R(r.u32()?),
            off: r.i32()?,
        },
        1 => Op::St {
            s: R(r.u32()?),
            base: R(r.u32()?),
            off: r.i32()?,
        },
        2 => Op::Mv {
            d: R(r.u32()?),
            s: R(r.u32()?),
        },
        3 => Op::MvI {
            d: R(r.u32()?),
            w: get_word(r)?,
        },
        4 => Op::Alu {
            op: get_alu(r)?,
            d: R(r.u32()?),
            a: R(r.u32()?),
            b: get_operand(r)?,
        },
        5 => Op::AddA {
            d: R(r.u32()?),
            a: R(r.u32()?),
            b: get_operand(r)?,
        },
        6 => Op::MkTag {
            d: R(r.u32()?),
            s: R(r.u32()?),
            tag: get_tag(r)?,
        },
        7 => Op::Br {
            cond: get_cond(r)?,
            a: R(r.u32()?),
            b: get_operand(r)?,
            t: Label(r.u32()?),
        },
        8 => Op::BrTag {
            a: R(r.u32()?),
            tag: get_tag(r)?,
            eq: r.bool()?,
            t: Label(r.u32()?),
        },
        9 => Op::BrWord {
            a: R(r.u32()?),
            w: get_word(r)?,
            eq: r.bool()?,
            t: Label(r.u32()?),
        },
        10 => Op::BrWEq {
            a: R(r.u32()?),
            b: R(r.u32()?),
            eq: r.bool()?,
            t: Label(r.u32()?),
        },
        11 => Op::Jmp { t: Label(r.u32()?) },
        12 => Op::JmpR { r: R(r.u32()?) },
        13 => Op::Halt { success: r.bool()? },
        v => {
            return Err(WireError::BadTag {
                what: "Op",
                value: v as u32,
            })
        }
    })
}

// ---------------------------------------------------------------------
// IciProgram.
// ---------------------------------------------------------------------

impl IciProgram {
    /// Encodes the program (ops, group tags, label table, entry) into
    /// `w`. The encoding is position-independent: label ids keep their
    /// stable identities, so the decoded program resolves them exactly
    /// as the original did.
    pub fn encode_into(&self, w: &mut Writer) {
        w.count(self.ops().len());
        for op in self.ops() {
            put_op(w, op);
        }
        for &g in self.groups() {
            w.u32(g);
        }
        w.count(self.label_table().len());
        for &a in self.label_table() {
            w.u64(if a == usize::MAX { u64::MAX } else { a as u64 });
        }
        w.u32(self.entry().0);
    }

    /// The program as a standalone byte vector.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a program from `r`, re-running the full
    /// [`IciProgram::new`] structural validation — a malformed
    /// artifact is diagnosed, never executed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; structural defects surface as
    /// [`WireError::Program`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(2, "op count")?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(get_op(r)?);
        }
        let mut groups = Vec::with_capacity(n);
        for _ in 0..n {
            groups.push(r.u32()?);
        }
        let num_labels = r.count(8, "label count")?;
        let mut label_at = HashMap::new();
        for lid in 0..num_labels {
            let a = r.u64()?;
            if a != u64::MAX {
                let Ok(at) = usize::try_from(a) else {
                    return Err(WireError::BadValue {
                        what: "label address",
                    });
                };
                label_at.insert(Label(lid as u32), at);
            }
        }
        let Ok(num_labels) = u32::try_from(num_labels) else {
            return Err(WireError::BadValue {
                what: "label count",
            });
        };
        let entry = Label(r.u32()?);
        Ok(IciProgram::new(ops, groups, label_at, num_labels, entry)?)
    }

    /// Decodes a program from a standalone byte vector (the inverse of
    /// [`IciProgram::to_wire_bytes`]), requiring full consumption.
    ///
    /// # Errors
    ///
    /// See [`IciProgram::decode_from`].
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let p = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(p)
    }
}

// ---------------------------------------------------------------------
// DecodedProgram (micro-op form).
// ---------------------------------------------------------------------

fn put_micro(w: &mut Writer, m: MicroOp) {
    match m {
        MicroOp::Ld { d, base, off } => {
            w.u8(0);
            w.u32(d);
            w.u32(base);
            w.i32(off);
        }
        MicroOp::St { s, base, off } => {
            w.u8(1);
            w.u32(s);
            w.u32(base);
            w.i32(off);
        }
        MicroOp::Mv { d, s } => {
            w.u8(2);
            w.u32(d);
            w.u32(s);
        }
        MicroOp::MvI { d, w: word } => {
            w.u8(3);
            w.u32(d);
            put_word(w, word);
        }
        MicroOp::AluRR { op, d, a, b } => {
            w.u8(4);
            put_alu(w, op);
            w.u32(d);
            w.u32(a);
            w.u32(b);
        }
        MicroOp::AluRI { op, d, a, imm } => {
            w.u8(5);
            put_alu(w, op);
            w.u32(d);
            w.u32(a);
            w.i64(imm);
        }
        MicroOp::AddARR { d, a, b } => {
            w.u8(6);
            w.u32(d);
            w.u32(a);
            w.u32(b);
        }
        MicroOp::AddARI { d, a, imm } => {
            w.u8(7);
            w.u32(d);
            w.u32(a);
            w.i64(imm);
        }
        MicroOp::MkTag { d, s, tag } => {
            w.u8(8);
            w.u32(d);
            w.u32(s);
            put_tag(w, tag);
        }
        MicroOp::BrRR { cond, a, b, t } => {
            w.u8(9);
            put_cond(w, cond);
            w.u32(a);
            w.u32(b);
            w.u32(t);
        }
        MicroOp::BrRI { cond, a, imm, t } => {
            w.u8(10);
            put_cond(w, cond);
            w.u32(a);
            w.i64(imm);
            w.u32(t);
        }
        MicroOp::BrTag { a, tag, eq, t } => {
            w.u8(11);
            w.u32(a);
            put_tag(w, tag);
            w.bool(eq);
            w.u32(t);
        }
        MicroOp::BrWord { a, w: word, eq, t } => {
            w.u8(12);
            w.u32(a);
            put_word(w, word);
            w.bool(eq);
            w.u32(t);
        }
        MicroOp::BrWEq { a, b, eq, t } => {
            w.u8(13);
            w.u32(a);
            w.u32(b);
            w.bool(eq);
            w.u32(t);
        }
        MicroOp::Jmp { t } => {
            w.u8(14);
            w.u32(t);
        }
        MicroOp::JmpR { r } => {
            w.u8(15);
            w.u32(r);
        }
        MicroOp::Halt { success } => {
            w.u8(16);
            w.bool(success);
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
            w.u8(19);
            w.u32(a);
            put_tag(w, tag);
            w.bool(eq);
            w.u32(t);
            w.u32(d);
            w.u32(base);
            w.i32(off);
        }
        MicroOp::LdMv {
            d,
            base,
            off,
            d2,
            s,
        } => {
            w.u8(21);
            w.u32(d);
            w.u32(base);
            w.i32(off);
            w.u32(d2);
            w.u32(s);
        }
    }
}

fn get_micro(r: &mut Reader<'_>) -> Result<MicroOp, WireError> {
    Ok(match r.u8()? {
        0 => MicroOp::Ld {
            d: r.u32()?,
            base: r.u32()?,
            off: r.i32()?,
        },
        1 => MicroOp::St {
            s: r.u32()?,
            base: r.u32()?,
            off: r.i32()?,
        },
        2 => MicroOp::Mv {
            d: r.u32()?,
            s: r.u32()?,
        },
        3 => MicroOp::MvI {
            d: r.u32()?,
            w: get_word(r)?,
        },
        4 => MicroOp::AluRR {
            op: get_alu(r)?,
            d: r.u32()?,
            a: r.u32()?,
            b: r.u32()?,
        },
        5 => MicroOp::AluRI {
            op: get_alu(r)?,
            d: r.u32()?,
            a: r.u32()?,
            imm: r.i64()?,
        },
        6 => MicroOp::AddARR {
            d: r.u32()?,
            a: r.u32()?,
            b: r.u32()?,
        },
        7 => MicroOp::AddARI {
            d: r.u32()?,
            a: r.u32()?,
            imm: r.i64()?,
        },
        8 => MicroOp::MkTag {
            d: r.u32()?,
            s: r.u32()?,
            tag: get_tag(r)?,
        },
        9 => MicroOp::BrRR {
            cond: get_cond(r)?,
            a: r.u32()?,
            b: r.u32()?,
            t: r.u32()?,
        },
        10 => MicroOp::BrRI {
            cond: get_cond(r)?,
            a: r.u32()?,
            imm: r.i64()?,
            t: r.u32()?,
        },
        11 => MicroOp::BrTag {
            a: r.u32()?,
            tag: get_tag(r)?,
            eq: r.bool()?,
            t: r.u32()?,
        },
        12 => MicroOp::BrWord {
            a: r.u32()?,
            w: get_word(r)?,
            eq: r.bool()?,
            t: r.u32()?,
        },
        13 => MicroOp::BrWEq {
            a: r.u32()?,
            b: r.u32()?,
            eq: r.bool()?,
            t: r.u32()?,
        },
        14 => MicroOp::Jmp { t: r.u32()? },
        15 => MicroOp::JmpR { r: r.u32()? },
        16 => MicroOp::Halt { success: r.bool()? },
        19 => MicroOp::TagDeref {
            a: r.u32()?,
            tag: get_tag(r)?,
            eq: r.bool()?,
            t: r.u32()?,
            d: r.u32()?,
            base: r.u32()?,
            off: r.i32()?,
        },
        21 => MicroOp::LdMv {
            d: r.u32()?,
            base: r.u32()?,
            off: r.i32()?,
            d2: r.u32()?,
            s: r.u32()?,
        },
        v => {
            return Err(WireError::BadTag {
                what: "MicroOp",
                value: v as u32,
            })
        }
    })
}

/// The registers a micro-op indexes (def and uses alike) — everything
/// that must be below the register-file size for the step loop to be
/// in-bounds by construction.
fn micro_regs(m: MicroOp) -> [u32; 4] {
    const NO: u32 = 0;
    match m {
        MicroOp::Ld { d, base, .. } => [d, base, NO, NO],
        MicroOp::St { s, base, .. } => [s, base, NO, NO],
        MicroOp::Mv { d, s } => [d, s, NO, NO],
        MicroOp::MvI { d, .. } => [d, NO, NO, NO],
        MicroOp::AluRR { d, a, b, .. } => [d, a, b, NO],
        MicroOp::AluRI { d, a, .. } => [d, a, NO, NO],
        MicroOp::AddARR { d, a, b } => [d, a, b, NO],
        MicroOp::AddARI { d, a, .. } => [d, a, NO, NO],
        MicroOp::MkTag { d, s, .. } => [d, s, NO, NO],
        MicroOp::BrRR { a, b, .. } => [a, b, NO, NO],
        MicroOp::BrRI { a, .. } => [a, NO, NO, NO],
        MicroOp::BrTag { a, .. } => [a, NO, NO, NO],
        MicroOp::BrWord { a, .. } => [a, NO, NO, NO],
        MicroOp::BrWEq { a, b, .. } => [a, b, NO, NO],
        MicroOp::Jmp { .. } | MicroOp::Halt { .. } => [NO, NO, NO, NO],
        MicroOp::JmpR { r } => [r, NO, NO, NO],
        MicroOp::TagDeref { a, d, base, .. } => [a, d, base, NO],
        MicroOp::LdMv { d, base, d2, s, .. } => [d, base, d2, s],
    }
}

impl DecodedProgram {
    /// Encodes the micro-op form (records, label→pc table, entry pc,
    /// register-file size) into `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.count(self.micro.len());
        for &m in &self.micro {
            put_micro(w, m);
        }
        w.count(self.label_pc.len());
        for &pc in &self.label_pc {
            w.u32(pc);
        }
        w.u64(self.entry_pc as u64);
        w.u64(self.num_regs as u64);
    }

    /// The program as a standalone byte vector.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a micro-op program from `r` and validates every invariant
    /// the step loop's unchecked indexing relies on: all register ids
    /// below the register-file size, the register-file size positive and
    /// bounded by `MAX_REGS` (2^24), the entry pc and every pre-resolved
    /// branch target within (or one past) the program, and every bound
    /// label→pc entry likewise. A corrupt artifact therefore fails
    /// here — it can never make the emulator index out of bounds.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing the first defect found.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(2, "micro-op count")?;
        let mut micro = Vec::with_capacity(n);
        for _ in 0..n {
            micro.push(get_micro(r)?);
        }
        let labels = r.count(4, "label count")?;
        let mut label_pc = Vec::with_capacity(labels);
        for _ in 0..labels {
            label_pc.push(r.u32()?);
        }
        let entry_pc = r.u64()?;
        let num_regs = r.u64()?;

        let Ok(num_regs) = usize::try_from(num_regs) else {
            return Err(WireError::BadValue {
                what: "register-file size",
            });
        };
        if num_regs == 0 || num_regs > MAX_REGS {
            return Err(WireError::BadValue {
                what: "register-file size",
            });
        }
        let Ok(entry_pc) = usize::try_from(entry_pc) else {
            return Err(WireError::BadValue { what: "entry pc" });
        };
        if entry_pc > n {
            return Err(WireError::BadValue { what: "entry pc" });
        }
        let in_prog = |t: u32| (t as usize) <= n;
        for (i, &m) in micro.iter().enumerate() {
            for reg in micro_regs(m) {
                if reg as usize >= num_regs {
                    return Err(WireError::BadValue {
                        what: "register id",
                    });
                }
            }
            let target_ok = match m {
                MicroOp::BrRR { t, .. }
                | MicroOp::BrRI { t, .. }
                | MicroOp::BrTag { t, .. }
                | MicroOp::BrWord { t, .. }
                | MicroOp::BrWEq { t, .. }
                | MicroOp::Jmp { t }
                | MicroOp::TagDeref { t, .. } => in_prog(t),
                _ => true,
            };
            if !target_ok {
                return Err(WireError::BadValue {
                    what: "branch target",
                });
            }
            // A fused record accounts its second constituent at pc
            // `i + 1`; at the last index that slot does not exist and
            // the step loop would index its stats arrays out of
            // bounds. The fusion pass can never produce this (it needs
            // a real second op), so reject it as corrupt.
            if m.is_fused() && i + 1 >= n {
                return Err(WireError::BadValue {
                    what: "fused op position",
                });
            }
        }
        for &pc in &label_pc {
            if pc != u32::MAX && !in_prog(pc) {
                return Err(WireError::BadValue {
                    what: "label target",
                });
            }
        }
        // `from_parts` recomputes the branch-target bitmap — it is
        // derived state and deliberately not serialized, which keeps
        // round trips byte-exact across fused and unfused programs.
        Ok(DecodedProgram::from_parts(
            micro, label_pc, entry_pc, num_regs,
        ))
    }

    /// Decodes a standalone byte vector (the inverse of
    /// [`DecodedProgram::to_wire_bytes`]), requiring full consumption.
    ///
    /// # Errors
    ///
    /// See [`DecodedProgram::decode_from`].
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let p = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(p)
    }
}

/// 64-bit FNV-1a hash — the stable content hash used for artifact
/// cache keys and the container checksum. Not cryptographic; it only
/// needs to make accidental collisions and silent corruption
/// overwhelmingly unlikely.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    /// A counted loop that opens with a load+move pair, which the
    /// default fusion pass fuses.
    fn sample_program() -> IciProgram {
        let mut a = Asm::new();
        let e = a.fresh_label();
        let lp = a.fresh_label();
        let (i, w, v) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
        a.bind(e);
        a.emit(Op::MvI {
            d: i,
            w: Word::int(0),
        });
        a.bind(lp);
        a.emit(Op::Ld {
            d: w,
            base: i,
            off: 0,
        });
        a.emit(Op::Mv { d: v, s: w });
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
        a.finish(e).expect("assembles")
    }

    #[test]
    fn ici_round_trip_is_byte_exact() {
        let p = sample_program();
        let bytes = p.to_wire_bytes();
        let q = IciProgram::from_wire_bytes(&bytes).expect("decodes");
        assert_eq!(p.ops(), q.ops());
        assert_eq!(p.groups(), q.groups());
        assert_eq!(p.label_table(), q.label_table());
        assert_eq!(p.entry(), q.entry());
        assert_eq!(bytes, q.to_wire_bytes(), "re-encode must be byte-exact");
    }

    #[test]
    fn decoded_round_trip_is_byte_exact_and_runs_identically() {
        use crate::emu::ExecConfig;
        use crate::layout::Layout;

        let p = sample_program();
        let d = DecodedProgram::new(&p);
        let bytes = d.to_wire_bytes();
        let d2 = DecodedProgram::from_wire_bytes(&bytes).expect("decodes");
        assert_eq!(bytes, d2.to_wire_bytes(), "re-encode must be byte-exact");

        let layout = Layout {
            heap_size: 64,
            env_size: 64,
            cp_size: 64,
            trail_size: 64,
            pdl_size: 64,
        };
        let cfg = ExecConfig::default();
        let (r1, s1, n1) = crate::decode::DecodedEmulator::new(&d, &layout).run_with_stats(&cfg);
        let (r2, s2, n2) = crate::decode::DecodedEmulator::new(&d2, &layout).run_with_stats(&cfg);
        assert_eq!(r1, r2);
        assert_eq!(n1, n2);
        assert_eq!(s1.expect, s2.expect);
        assert_eq!(s1.taken, s2.taken);
    }

    #[test]
    fn fused_round_trip_is_byte_exact_and_runs_identically() {
        use crate::decode::DecodedEmulator;
        use crate::emu::ExecConfig;
        use crate::fuse::{fuse, FuseConfig};
        use crate::layout::Layout;

        let layout = Layout {
            heap_size: 64,
            env_size: 64,
            cp_size: 64,
            trail_size: 64,
            pdl_size: 64,
        };
        let cfg = ExecConfig::default();
        let d = DecodedProgram::new(&sample_program());
        let (_, stats, _, _) = DecodedEmulator::new(&d, &layout).run_with_profile(&cfg);
        let (fused, report) = fuse(&d, &stats, &FuseConfig::default());
        assert!(report.pairs > 0, "sample loop must fuse");
        let bytes = fused.to_wire_bytes();
        let back = DecodedProgram::from_wire_bytes(&bytes).expect("decodes");
        assert_eq!(bytes, back.to_wire_bytes(), "re-encode must be byte-exact");
        let (r1, s1, n1) = DecodedEmulator::new(&fused, &layout).run_with_stats(&cfg);
        let (r2, s2, n2) = DecodedEmulator::new(&back, &layout).run_with_stats(&cfg);
        assert_eq!(r1, r2);
        assert_eq!(n1, n2);
        assert_eq!(s1.expect, s2.expect);
        assert_eq!(s1.taken, s2.taken);
    }

    #[test]
    fn fused_op_at_last_index_is_rejected() {
        // A fused record accounts its interior at pc+1; a hand-crafted
        // artifact placing one at the end must be rejected, not allowed
        // to index the stats arrays out of bounds.
        let mut w = Writer::new();
        w.count(1);
        put_micro(
            &mut w,
            MicroOp::LdMv {
                d: 0,
                base: 0,
                off: 0,
                d2: 0,
                s: 0,
            },
        );
        w.count(0); // labels
        w.u64(0); // entry pc
        w.u64(1); // num_regs
        let err = DecodedProgram::from_wire_bytes(&w.into_bytes()).unwrap_err();
        assert!(
            matches!(err, WireError::BadValue { what } if what == "fused op position"),
            "{err}"
        );
    }

    #[test]
    fn each_word_tag_has_its_own_fixed_byte() {
        // The format's own map, not `Tag`'s discriminants (`Int` is 0
        // in memory so that zeroed pages read as `Word::int(0)`).
        let bytes = [
            (Tag::Ref, 0u8),
            (Tag::Int, 1),
            (Tag::Atm, 2),
            (Tag::Lst, 3),
            (Tag::Str, 4),
            (Tag::Fun, 5),
            (Tag::Cod, 6),
        ];
        for (tag, byte) in bytes {
            let mut w = Writer::new();
            put_tag(&mut w, tag);
            assert_eq!(w.into_bytes(), [byte], "{tag}");
            assert_eq!(get_tag(&mut Reader::new(&[byte])), Ok(tag), "{tag}");
        }
        assert_eq!(
            get_tag(&mut Reader::new(&[7])),
            Err(WireError::BadTag {
                what: "Tag",
                value: 7
            })
        );
    }

    #[test]
    fn retired_fused_tags_are_unknown_tags() {
        // 17, 18, 20 and 22 once named the compare-and-branch,
        // move+store and immediate-ALU superinstructions; a record
        // carrying one is malformed, like any unknown tag.
        for tag in [17u8, 18, 20, 22] {
            let mut w = Writer::new();
            w.count(1);
            w.u8(tag);
            w.bytes(&[0; 40]);
            assert_eq!(
                DecodedProgram::from_wire_bytes(&w.into_bytes()).unwrap_err(),
                WireError::BadTag {
                    what: "MicroOp",
                    value: tag.into()
                }
            );
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let bytes = DecodedProgram::new(&sample_program()).to_wire_bytes();
        for cut in 0..bytes.len() {
            let r = DecodedProgram::from_wire_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
        let ici = sample_program().to_wire_bytes();
        for cut in 0..ici.len() {
            assert!(IciProgram::from_wire_bytes(&ici[..cut]).is_err());
        }
    }

    #[test]
    fn out_of_range_register_is_rejected() {
        let d = DecodedProgram::new(&sample_program());
        let mut w = Writer::new();
        d.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        // The register-file size is the trailing u64; shrink it to 1 so
        // the loop counter register is out of range.
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&1u64.to_le_bytes());
        let err = DecodedProgram::from_wire_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, WireError::BadValue { what } if what == "register id"),
            "{err}"
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_program().to_wire_bytes();
        bytes.push(0);
        assert!(matches!(
            IciProgram::from_wire_bytes(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn absurd_counts_are_rejected_without_allocating() {
        // A u64::MAX op count must fail the count sanity check, not OOM.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        assert!(IciProgram::from_wire_bytes(&w.into_bytes()).is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"hello"), 0xa430d84680aabd0b);
    }
}
