//! Seeded generator for raw IntCode fragments.
//!
//! Fragments exercise the engines below the compiler: every register is
//! a renamed temporary, every branch target is an in-range label, and
//! control flow is a forward DAG plus bounded counted loops, so every
//! fragment terminates (or halts on a machine fault — which is itself a
//! comparable outcome). Two deliberate exclusions keep the differential
//! oracle sound:
//!
//! * no `MkTag` to [`Tag::Cod`] — manufactured code words would let
//!   `JmpR` jump to data-dependent addresses the VLIW schedule has no
//!   obligation to preserve;
//! * code words enter registers only via `MvI` with a bound label, the
//!   same invariant the real translator maintains.

use std::collections::HashMap;

use symbol_intcode::layout::reg;
use symbol_intcode::{
    AluOp, Cond, IciProgram, Label, Layout, Op, Operand, ProgramError, Tag, Word, R,
};

use crate::rng::Rng;

/// The tiny memory layout fragments execute under. Loads and stores are
/// generated against the low heap addresses, so most are in bounds
/// while wild pointers still fault quickly in both machines.
pub fn frag_layout() -> Layout {
    Layout {
        heap_size: 64,
        env_size: 64,
        cp_size: 64,
        trail_size: 64,
        pdl_size: 32,
    }
}

/// A raw IntCode fragment with *identity labels*: label `i` names op
/// index `i`, so the ops vector alone determines the program and the
/// shrinker can delete ops by remapping indices. Only the labels the
/// fragment uses are bound — the entry, every branch and jump target
/// and every label an `MvI` code word names — so any other pc is no
/// branch target, and `fuse` may fuse a pair across it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IntFrag {
    /// The ops; entry is op 0.
    pub ops: Vec<Op>,
}

impl IntFrag {
    /// Assembles the fragment into an executable program.
    ///
    /// # Errors
    ///
    /// Whatever [`IciProgram::try_new`] diagnoses — for generated
    /// fragments this cannot happen by construction, but corpus files
    /// and shrink candidates go through the same validation.
    pub fn build(&self) -> Result<IciProgram, ProgramError> {
        let n = self.ops.len();
        // A label past the last op stays unbound, for `try_new` to
        // diagnose.
        let named = self.ops.iter().filter_map(|op| match op {
            Op::MvI { w, .. } if w.tag == Tag::Cod => Some(Label(w.val as u32)),
            op => op.target(),
        });
        let label_at: HashMap<Label, usize> = std::iter::once(Label(0))
            .chain(named)
            .filter(|l| (l.0 as usize) < n)
            .map(|l| (l, l.0 as usize))
            .collect();
        // Each op is its own BAM group: under the BAM cost model a
        // fragment degenerates to near-sequential issue, which is the
        // honest reading of code that never came from BAM.
        let groups = (0..n as u32).collect();
        IciProgram::try_new(
            self.ops.clone(),
            groups,
            label_at,
            n.max(1) as u32,
            Label(0),
        )
    }
}

/// Everything the generator needs to know mid-stream.
struct Gen<'a> {
    rng: &'a mut Rng,
    ops: Vec<Op>,
    regs: Vec<R>,
    /// Indices of branches whose forward target is fixed up at the end.
    fwd_fix: Vec<usize>,
    /// `(mvi index, jmpr index)` pairs: the `MvI` gets a code word for a
    /// label past the `JmpR`, chosen once the length is known.
    cod_fix: Vec<(usize, usize)>,
}

impl Gen<'_> {
    fn reg(&mut self) -> R {
        *self.rng.pick(&self.regs)
    }

    /// A register different from `avoid` (loop counters must survive
    /// their body).
    fn reg_not(&mut self, avoid: R) -> R {
        loop {
            let r = self.reg();
            if r != avoid {
                return r;
            }
        }
    }

    fn operand(&mut self) -> Operand {
        if self.rng.chance(1, 2) {
            Operand::Reg(self.reg())
        } else {
            Operand::Imm(self.rng.range_i64(-8, 8))
        }
    }

    fn data_word(&mut self) -> Word {
        match self.rng.below(5) {
            0 => Word {
                tag: Tag::Ref,
                val: self.rng.range_i64(0, 60),
            },
            1 => Word::atom(self.rng.below(6) as u32),
            2 => Word {
                tag: Tag::Lst,
                val: self.rng.range_i64(0, 60),
            },
            _ => Word::int(self.rng.range_i64(-8, 60)),
        }
    }

    fn cond(&mut self) -> Cond {
        *self
            .rng
            .pick(&[Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge])
    }

    fn alu_op(&mut self) -> AluOp {
        *self.rng.pick(&[
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Mod,
            AluOp::Rem,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Max,
        ])
    }

    fn data_tag(&mut self) -> Tag {
        // Never Cod: see the module doc.
        *self
            .rng
            .pick(&[Tag::Ref, Tag::Int, Tag::Atm, Tag::Lst, Tag::Str, Tag::Fun])
    }

    /// One straight-line data op (no control flow), with destinations
    /// restricted away from `avoid` when given.
    fn data_op(&mut self, avoid: Option<R>) {
        let d = match avoid {
            Some(a) => self.reg_not(a),
            None => self.reg(),
        };
        let op = match self.rng.below(7) {
            0 => Op::Mv { d, s: self.reg() },
            1 => {
                let w = self.data_word();
                Op::MvI { d, w }
            }
            2 => {
                let (a, b, op) = (self.reg(), self.operand(), self.alu_op());
                Op::Alu { op, d, a, b }
            }
            3 => {
                let (a, b) = (self.reg(), self.operand());
                Op::AddA { d, a, b }
            }
            4 => {
                let (s, tag) = (self.reg(), self.data_tag());
                Op::MkTag { d, s, tag }
            }
            5 => {
                let (base, off) = (self.reg(), self.rng.range_i64(-2, 2) as i32);
                Op::Ld { d, base, off }
            }
            _ => {
                let (s, base, off) = (self.reg(), self.reg(), self.rng.range_i64(-2, 2) as i32);
                Op::St { s, base, off }
            }
        };
        self.ops.push(op);
    }

    /// A conditional branch with a forward target fixed up later.
    fn fwd_branch(&mut self) {
        let op = match self.rng.below(4) {
            0 => Op::Br {
                cond: self.cond(),
                a: self.reg(),
                b: self.operand(),
                t: Label(0),
            },
            1 => Op::BrTag {
                a: self.reg(),
                tag: self.data_tag(),
                eq: self.rng.chance(1, 2),
                t: Label(0),
            },
            2 => Op::BrWord {
                a: self.reg(),
                w: self.data_word(),
                eq: self.rng.chance(1, 2),
                t: Label(0),
            },
            _ => Op::BrWEq {
                a: self.reg(),
                b: self.reg(),
                eq: self.rng.chance(1, 2),
                t: Label(0),
            },
        };
        self.fwd_fix.push(self.ops.len());
        self.ops.push(op);
    }

    /// A bounded counted loop: `c = k; { body; c -= 1 } while c > 0`.
    /// The backward branch is the only one in the grammar, and the
    /// counter guarantees it retires.
    fn counted_loop(&mut self) {
        let c = self.reg();
        let k = self.rng.range_i64(1, 4);
        self.ops.push(Op::MvI {
            d: c,
            w: Word::int(k),
        });
        let start = self.ops.len();
        let body = self.rng.below(3) + 1;
        for _ in 0..body {
            self.data_op(Some(c));
        }
        self.ops.push(Op::Alu {
            op: AluOp::Sub,
            d: c,
            a: c,
            b: Operand::Imm(1),
        });
        self.ops.push(Op::Br {
            cond: Cond::Gt,
            a: c,
            b: Operand::Imm(0),
            t: Label(start as u32),
        });
    }

    /// The translator's continuation idiom: a code word materialized by
    /// `MvI` and consumed by an indirect `JmpR`, with the label resolved
    /// to a point past the jump once the length is known.
    fn jmpr_pair(&mut self) {
        let r = self.reg();
        let mvi = self.ops.len();
        self.ops.push(Op::MvI {
            d: r,
            w: Word::code(0),
        });
        if self.rng.chance(1, 2) {
            self.data_op(Some(r));
        }
        let jmpr = self.ops.len();
        self.ops.push(Op::JmpR { r });
        self.cod_fix.push((mvi, jmpr));
    }
}

/// Generates one fragment from `rng`. Deterministic: the same stream
/// yields the same fragment.
pub fn generate(rng: &mut Rng) -> IntFrag {
    let nregs = rng.below(5) as usize + 4;
    let regs: Vec<R> = (0..nregs as u32).map(|j| R(reg::FIRST_TEMP + j)).collect();
    let mut g = Gen {
        rng,
        ops: Vec::new(),
        regs,
        fwd_fix: Vec::new(),
        cod_fix: Vec::new(),
    };

    // Initialize every register so reads are never of unconstrained
    // zero-state only.
    for i in 0..nregs {
        let w = g.data_word();
        g.ops.push(Op::MvI { d: g.regs[i], w });
    }

    let budget = g.rng.below(40) as usize + 8;
    while g.ops.len() < budget {
        match g.rng.below(16) {
            0..=6 => g.data_op(None),
            7..=10 => g.fwd_branch(),
            11 | 12 => g.counted_loop(),
            13 => g.jmpr_pair(),
            14 => g.ops.push(Op::Jmp { t: Label(0) }), // fixed up forward
            _ => g.ops.push(Op::Halt {
                success: g.rng.chance(1, 2),
            }),
        }
        if matches!(g.ops.last(), Some(Op::Jmp { .. })) {
            let at = g.ops.len() - 1;
            g.fwd_fix.push(at);
        }
    }
    g.ops.push(Op::Halt {
        success: g.rng.chance(1, 2),
    });

    // Resolve forward targets now that the length is known.
    let len = g.ops.len();
    for idx in g.fwd_fix.clone() {
        let t = g.rng.range_i64(idx as i64 + 1, len as i64 - 1) as u32;
        g.ops[idx].set_target(Label(t));
    }
    for (mvi, jmpr) in g.cod_fix.clone() {
        let t = g
            .rng
            .range_i64(jmpr as i64 + 1, len as i64 - 1)
            .min(len as i64 - 1);
        if let Op::MvI { w, .. } = &mut g.ops[mvi] {
            *w = Word::code(t as u32);
        }
    }

    IntFrag { ops: g.ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_fragments_always_assemble() {
        for seed in 0..300u64 {
            let mut rng = Rng::new(seed);
            let frag = generate(&mut rng);
            assert!(!frag.ops.is_empty());
            frag.build().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&mut Rng::new(99));
        let b = generate(&mut Rng::new(99));
        assert_eq!(a, b);
    }

    #[test]
    fn fragments_never_manufacture_code_tags() {
        for seed in 0..300u64 {
            let frag = generate(&mut Rng::new(seed));
            for op in &frag.ops {
                if let Op::MkTag { tag, .. } = op {
                    assert_ne!(*tag, Tag::Cod, "seed {seed}");
                }
            }
        }
    }

    /// A fragment binds only the labels it uses, so it can fuse: seed
    /// 26's fragment fuses a pair, and the oracle's fused stage passes
    /// on it.
    #[test]
    fn a_generated_fragment_fuses_a_pair_and_passes_the_oracle() {
        use crate::oracle::{run_case, Case, OracleConfig};
        use symbol_intcode::{fuse, DecodedEmulator, DecodedProgram, ExecConfig, FuseConfig};

        let frag = generate(&mut Rng::new(26));
        let decoded = DecodedProgram::new(&frag.build().expect("builds"));
        let cfg = OracleConfig::default();
        let exec = ExecConfig {
            max_steps: cfg.max_steps,
        };
        let (_, stats, _, _) =
            DecodedEmulator::new(&decoded, &frag_layout()).run_with_profile(&exec);
        let (_, report) = fuse(&decoded, &stats, &FuseConfig::default());
        assert!(report.pairs > 0, "{report:?}");
        run_case(&Case::IntCode(frag), &cfg).unwrap_or_else(|f| panic!("{f:?}"));
    }

    #[test]
    fn fragments_end_in_halt() {
        for seed in 0..100u64 {
            let frag = generate(&mut Rng::new(seed));
            assert!(matches!(frag.ops.last(), Some(Op::Halt { .. })));
        }
    }
}
