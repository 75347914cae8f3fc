//! The checked-in reproducer format.
//!
//! A corpus file is plain text: a `#`-comment header followed by the
//! case payload. Prolog payloads are the source verbatim; IntCode
//! payloads list one op per line in a tiny assembler syntax (labels are
//! the identity mapping, so label *k* names the op on line *k*; only
//! the labels the fragment uses are bound).
//!
//! ```text
//! # kind: intcode
//! # seed: 0x2a
//! # failure: seq-divergence
//! # expect: fail seq-divergence
//! mvi r32 int:7
//! alu mod r33 r32 #-3
//! halt true
//! ```
//!
//! `expect:` is what the replay test asserts: `pass` means the oracle
//! must accept the case (a regression test for a fixed bug), `fail
//! <tag>` means the oracle must still report exactly that finding (a
//! known-open reproducer). Fixing a bug therefore flips a file from
//! `fail` to `pass` — deleting it would lose the regression.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use symbol_intcode::{AluOp, Cond, Label, Op, Operand, Outcome, Tag, Word, R};

use crate::gen_intcode::IntFrag;
use crate::gen_prolog::PrologCase;
use crate::oracle::{Case, FailureKind};

/// What the replay suite asserts about a corpus case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expect {
    /// The oracle must accept the case.
    Pass,
    /// The oracle must report exactly this finding.
    Fail(FailureKind),
}

/// A parsed corpus file.
#[derive(Clone, Debug)]
pub struct CorpusCase {
    /// File stem, for diagnostics.
    pub name: String,
    /// The case itself.
    pub case: Case,
    /// The replay assertion.
    pub expect: Expect,
    /// Provenance: the run seed that found it, if recorded.
    pub seed: Option<u64>,
    /// Provenance: the finding it originally reproduced, if recorded.
    pub failure: Option<String>,
}

/// The checked-in corpus directory of this crate.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Renders a corpus file.
pub fn render(case: &Case, expect: &Expect, seed: Option<u64>, failure: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# kind: {}", case.kind_name());
    if let Some(s) = seed {
        let _ = writeln!(out, "# seed: 0x{s:x}");
    }
    if let Some(f) = failure {
        let _ = writeln!(out, "# failure: {f}");
    }
    match expect {
        Expect::Pass => {
            let _ = writeln!(out, "# expect: pass");
        }
        Expect::Fail(k) => {
            let _ = writeln!(out, "# expect: fail {}", k.tag());
        }
    }
    match case {
        Case::Prolog(p) => {
            let _ = writeln!(
                out,
                "# expected-outcome: {}",
                match p.expected {
                    Outcome::Success => "success",
                    Outcome::Failure => "failure",
                }
            );
            out.push_str(&p.source);
            if !p.source.ends_with('\n') {
                out.push('\n');
            }
        }
        Case::IntCode(f) => {
            for op in &f.ops {
                let _ = writeln!(out, "{}", write_op(op));
            }
        }
    }
    out
}

/// Parses a corpus file.
///
/// # Errors
///
/// A description of the first malformed header line or op.
pub fn parse(name: &str, text: &str) -> Result<CorpusCase, String> {
    let mut kind = None;
    let mut seed = None;
    let mut failure = None;
    let mut expect = None;
    let mut expected_outcome = Outcome::Success;
    let mut payload = String::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(v) = rest.strip_prefix("kind:") {
                kind = Some(v.trim().to_string());
            } else if let Some(v) = rest.strip_prefix("seed:") {
                seed = Some(crate::rng::parse_seed(v.trim()));
            } else if let Some(v) = rest.strip_prefix("failure:") {
                failure = Some(v.trim().to_string());
            } else if let Some(v) = rest.strip_prefix("expected-outcome:") {
                expected_outcome = match v.trim() {
                    "success" => Outcome::Success,
                    "failure" => Outcome::Failure,
                    other => return Err(format!("{name}: bad expected-outcome {other:?}")),
                };
            } else if let Some(v) = rest.strip_prefix("expect:") {
                let v = v.trim();
                expect = Some(if v == "pass" {
                    Expect::Pass
                } else if let Some(tag) = v.strip_prefix("fail") {
                    let tag = tag.trim();
                    Expect::Fail(
                        FailureKind::from_tag(tag)
                            .ok_or_else(|| format!("{name}: unknown failure tag {tag:?}"))?,
                    )
                } else {
                    return Err(format!("{name}: bad expect line {v:?}"));
                });
            }
            // Unknown comment lines are allowed (notes for humans).
        } else {
            payload.push_str(line);
            payload.push('\n');
        }
    }
    let kind = kind.ok_or_else(|| format!("{name}: missing '# kind:' header"))?;
    let expect = expect.ok_or_else(|| format!("{name}: missing '# expect:' header"))?;
    let case = match kind.as_str() {
        "prolog" => Case::Prolog(PrologCase {
            source: payload,
            expected: expected_outcome,
        }),
        "intcode" => {
            let mut ops = Vec::new();
            for (i, line) in payload.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                ops.push(parse_op(line).map_err(|e| format!("{name}: op line {}: {e}", i + 1))?);
            }
            if ops.is_empty() {
                return Err(format!("{name}: empty intcode payload"));
            }
            Case::IntCode(IntFrag { ops })
        }
        other => return Err(format!("{name}: unknown kind {other:?}")),
    };
    Ok(CorpusCase {
        name: name.to_string(),
        case,
        expect,
        seed,
        failure,
    })
}

/// Loads every `.case` file in `dir`, sorted by name.
///
/// # Errors
///
/// The first unreadable or unparseable file.
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusCase>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|e| e == "case") {
            files.push(path);
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("corpus")
            .to_string();
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(parse(&name, &text)?);
    }
    Ok(out)
}

// ------------------------------------------------------ op serialization

fn tag_name(t: Tag) -> &'static str {
    match t {
        Tag::Ref => "ref",
        Tag::Int => "int",
        Tag::Atm => "atm",
        Tag::Lst => "lst",
        Tag::Str => "str",
        Tag::Fun => "fun",
        Tag::Cod => "cod",
    }
}

fn parse_tag(s: &str) -> Result<Tag, String> {
    Ok(match s {
        "ref" => Tag::Ref,
        "int" => Tag::Int,
        "atm" => Tag::Atm,
        "lst" => Tag::Lst,
        "str" => Tag::Str,
        "fun" => Tag::Fun,
        "cod" => Tag::Cod,
        _ => return Err(format!("unknown tag {s:?}")),
    })
}

fn write_word(w: &Word) -> String {
    format!("{}:{}", tag_name(w.tag), w.val)
}

fn parse_word(s: &str) -> Result<Word, String> {
    let (tag, val) = s.split_once(':').ok_or_else(|| format!("bad word {s:?}"))?;
    Ok(Word {
        tag: parse_tag(tag)?,
        val: val.parse().map_err(|_| format!("bad word value {val:?}"))?,
    })
}

fn write_operand(o: &Operand) -> String {
    match o {
        Operand::Reg(r) => format!("r{}", r.0),
        Operand::Imm(i) => format!("#{i}"),
    }
}

fn parse_reg(s: &str) -> Result<R, String> {
    s.strip_prefix('r')
        .and_then(|n| n.parse().ok())
        .map(R)
        .ok_or_else(|| format!("bad register {s:?}"))
}

fn parse_operand(s: &str) -> Result<Operand, String> {
    if let Some(i) = s.strip_prefix('#') {
        Ok(Operand::Imm(
            i.parse().map_err(|_| format!("bad immediate {s:?}"))?,
        ))
    } else {
        parse_reg(s).map(Operand::Reg)
    }
}

fn parse_label(s: &str) -> Result<Label, String> {
    s.strip_prefix('@')
        .and_then(|n| n.parse().ok())
        .map(Label)
        .ok_or_else(|| format!("bad label {s:?}"))
}

fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Mul => "mul",
        AluOp::Div => "div",
        AluOp::Mod => "mod",
        AluOp::Rem => "rem",
        AluOp::And => "and",
        AluOp::Or => "or",
        AluOp::Xor => "xor",
        AluOp::Shl => "shl",
        AluOp::Shr => "shr",
        AluOp::Max => "max",
    }
}

fn parse_alu(s: &str) -> Result<AluOp, String> {
    Ok(match s {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "mod" => AluOp::Mod,
        "rem" => AluOp::Rem,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "shl" => AluOp::Shl,
        "shr" => AluOp::Shr,
        "max" => AluOp::Max,
        _ => return Err(format!("unknown alu op {s:?}")),
    })
}

fn cond_name(c: Cond) -> &'static str {
    match c {
        Cond::Eq => "eq",
        Cond::Ne => "ne",
        Cond::Lt => "lt",
        Cond::Le => "le",
        Cond::Gt => "gt",
        Cond::Ge => "ge",
    }
}

fn parse_cond(s: &str) -> Result<Cond, String> {
    Ok(match s {
        "eq" => Cond::Eq,
        "ne" => Cond::Ne,
        "lt" => Cond::Lt,
        "le" => Cond::Le,
        "gt" => Cond::Gt,
        "ge" => Cond::Ge,
        _ => return Err(format!("unknown condition {s:?}")),
    })
}

fn eq_name(eq: bool) -> &'static str {
    if eq {
        "eq"
    } else {
        "ne"
    }
}

fn parse_eq(s: &str) -> Result<bool, String> {
    match s {
        "eq" => Ok(true),
        "ne" => Ok(false),
        _ => Err(format!("expected eq/ne, got {s:?}")),
    }
}

/// Serializes one op in the corpus assembler syntax.
pub fn write_op(op: &Op) -> String {
    match op {
        Op::Ld { d, base, off } => format!("ld r{} r{} {off}", d.0, base.0),
        Op::St { s, base, off } => format!("st r{} r{} {off}", s.0, base.0),
        Op::Mv { d, s } => format!("mv r{} r{}", d.0, s.0),
        Op::MvI { d, w } => format!("mvi r{} {}", d.0, write_word(w)),
        Op::Alu { op, d, a, b } => format!(
            "alu {} r{} r{} {}",
            alu_name(*op),
            d.0,
            a.0,
            write_operand(b)
        ),
        Op::AddA { d, a, b } => format!("adda r{} r{} {}", d.0, a.0, write_operand(b)),
        Op::MkTag { d, s, tag } => format!("mktag r{} r{} {}", d.0, s.0, tag_name(*tag)),
        Op::Br { cond, a, b, t } => format!(
            "br {} r{} {} @{}",
            cond_name(*cond),
            a.0,
            write_operand(b),
            t.0
        ),
        Op::BrTag { a, tag, eq, t } => format!(
            "brtag r{} {} {} @{}",
            a.0,
            tag_name(*tag),
            eq_name(*eq),
            t.0
        ),
        Op::BrWord { a, w, eq, t } => format!(
            "brword r{} {} {} @{}",
            a.0,
            write_word(w),
            eq_name(*eq),
            t.0
        ),
        Op::BrWEq { a, b, eq, t } => {
            format!("brweq r{} r{} {} @{}", a.0, b.0, eq_name(*eq), t.0)
        }
        Op::Jmp { t } => format!("jmp @{}", t.0),
        Op::JmpR { r } => format!("jmpr r{}", r.0),
        Op::Halt { success } => format!("halt {success}"),
    }
}

/// Parses one op in the corpus assembler syntax.
///
/// # Errors
///
/// A description of what is malformed.
pub fn parse_op(line: &str) -> Result<Op, String> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let arg = |i: usize| -> Result<&str, String> {
        parts
            .get(i)
            .copied()
            .ok_or_else(|| format!("missing operand {i} in {line:?}"))
    };
    match *parts.first().ok_or("empty op line")? {
        "ld" => Ok(Op::Ld {
            d: parse_reg(arg(1)?)?,
            base: parse_reg(arg(2)?)?,
            off: arg(3)?.parse().map_err(|_| "bad offset".to_string())?,
        }),
        "st" => Ok(Op::St {
            s: parse_reg(arg(1)?)?,
            base: parse_reg(arg(2)?)?,
            off: arg(3)?.parse().map_err(|_| "bad offset".to_string())?,
        }),
        "mv" => Ok(Op::Mv {
            d: parse_reg(arg(1)?)?,
            s: parse_reg(arg(2)?)?,
        }),
        "mvi" => Ok(Op::MvI {
            d: parse_reg(arg(1)?)?,
            w: parse_word(arg(2)?)?,
        }),
        "alu" => Ok(Op::Alu {
            op: parse_alu(arg(1)?)?,
            d: parse_reg(arg(2)?)?,
            a: parse_reg(arg(3)?)?,
            b: parse_operand(arg(4)?)?,
        }),
        "adda" => Ok(Op::AddA {
            d: parse_reg(arg(1)?)?,
            a: parse_reg(arg(2)?)?,
            b: parse_operand(arg(3)?)?,
        }),
        "mktag" => Ok(Op::MkTag {
            d: parse_reg(arg(1)?)?,
            s: parse_reg(arg(2)?)?,
            tag: parse_tag(arg(3)?)?,
        }),
        "br" => Ok(Op::Br {
            cond: parse_cond(arg(1)?)?,
            a: parse_reg(arg(2)?)?,
            b: parse_operand(arg(3)?)?,
            t: parse_label(arg(4)?)?,
        }),
        "brtag" => Ok(Op::BrTag {
            a: parse_reg(arg(1)?)?,
            tag: parse_tag(arg(2)?)?,
            eq: parse_eq(arg(3)?)?,
            t: parse_label(arg(4)?)?,
        }),
        "brword" => Ok(Op::BrWord {
            a: parse_reg(arg(1)?)?,
            w: parse_word(arg(2)?)?,
            eq: parse_eq(arg(3)?)?,
            t: parse_label(arg(4)?)?,
        }),
        "brweq" => Ok(Op::BrWEq {
            a: parse_reg(arg(1)?)?,
            b: parse_reg(arg(2)?)?,
            eq: parse_eq(arg(3)?)?,
            t: parse_label(arg(4)?)?,
        }),
        "jmp" => Ok(Op::Jmp {
            t: parse_label(arg(1)?)?,
        }),
        "jmpr" => Ok(Op::JmpR {
            r: parse_reg(arg(1)?)?,
        }),
        "halt" => Ok(Op::Halt {
            success: match arg(1)? {
                "true" => true,
                "false" => false,
                other => return Err(format!("bad halt flag {other:?}")),
            },
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn ops_round_trip_through_the_assembler_syntax() {
        for seed in 0..100u64 {
            let frag = crate::gen_intcode::generate(&mut Rng::new(seed));
            for op in &frag.ops {
                let text = write_op(op);
                let back = parse_op(&text).unwrap_or_else(|e| panic!("seed {seed}: {text:?}: {e}"));
                assert_eq!(&back, op, "{text:?}");
            }
        }
    }

    #[test]
    fn corpus_files_round_trip() {
        let frag = crate::gen_intcode::generate(&mut Rng::new(7));
        let case = Case::IntCode(frag);
        let text = render(&case, &Expect::Pass, Some(0x2a), Some("seq-divergence"));
        let parsed = parse("round-trip", &text).unwrap();
        assert_eq!(parsed.case, case);
        assert_eq!(parsed.expect, Expect::Pass);
        assert_eq!(parsed.seed, Some(0x2a));
        assert_eq!(parsed.failure.as_deref(), Some("seq-divergence"));
    }

    #[test]
    fn prolog_corpus_files_round_trip() {
        let case = Case::Prolog(crate::gen_prolog::generate(&mut Rng::new(3)));
        let text = render(
            &case,
            &Expect::Fail(crate::oracle::FailureKind::Expectation),
            None,
            None,
        );
        let parsed = parse("round-trip", &text).unwrap();
        assert_eq!(parsed.case, case);
        assert_eq!(
            parsed.expect,
            Expect::Fail(crate::oracle::FailureKind::Expectation)
        );
    }

    #[test]
    fn malformed_headers_are_rejected() {
        assert!(parse("x", "mvi r32 int:0\n").is_err(), "missing headers");
        assert!(parse("x", "# kind: intcode\n# expect: fail nonsense\nhalt true\n").is_err());
        assert!(
            parse("x", "# kind: intcode\n# expect: pass\n").is_err(),
            "empty payload"
        );
    }
}
