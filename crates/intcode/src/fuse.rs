//! Profile-guided superinstruction fusion: the second tier of the
//! decoded emulator.
//!
//! [`fuse`] consumes the execution profile of a
//! [`DecodedEmulator`](crate::decode::DecodedEmulator) run — the
//! per-pc Expect counts ([`ExecStats`], ranked through the
//! deterministic [`ExecStats::hot_pcs`] ordering) plus the 2-bit
//! branch-predictor misprediction counts ([`ExecProfile`]) — and
//! re-decodes hot straight-line pairs into fused micro-op
//! superinstructions, halving the dispatch count on the covered
//! dynamic ops.
//!
//! ## Legality
//!
//! A pair `(i, i + 1)` fuses only when
//!
//! 1. the interior pc `i + 1` is **not** a branch target (the
//!    [`DecodedProgram`] branch-target bitmap, built at decode time:
//!    direct branch/jump targets, every bound label reachable through
//!    `JmpR`, and the entry pc) — otherwise an incoming edge would
//!    skip the head constituent;
//! 2. both pcs are hot: their Expect counts reach
//!    [`FuseConfig::min_expect`] in the profile, so fusion never
//!    touches code the profiling run proved cold or unreachable;
//! 3. the opcode pair matches a fused record shape, with every folded
//!    immediate representable in the record's narrowed `i32` fields;
//! 4. the pair is *profitable*: its complete-pair execution count (the
//!    interior's Expect) reaches [`FuseConfig::min_pair_permille`]
//!    thousandths of the run's total dynamic ops, so a long tail of
//!    lukewarm sites cannot widen the step loop's dispatch footprint
//!    for sub-noise dispatch savings.
//!
//! Pairs are chosen greedily left to right and never overlap. The
//! interior slot keeps its original (now fall-through-unreachable)
//! record, so the fused program stays index-parallel to the source
//! ops: statistics vectors, error `at` fields, traces and the label
//! table keep their meaning unchanged, and the fused engine is
//! **bit-identical** to the unfused decoded engine and the legacy
//! interpreter — which the workspace differential suite and the fuzz
//! oracle's third engine pair both assert.
//!
//! ## Checking a stored tier
//!
//! A fused program read back from disk is served only if
//! [`is_fusion_of`] accepts it against the base program it is attached
//! to: every record equals the base's or is a head [`fuse`] could have
//! built under rules 1 and 3, with its interior kept. That is what
//! makes the tier behave exactly like its base, whatever profile chose
//! the pairs. A stale profile can only leave a different set of legal
//! pairs fused, which changes speed, never answers, so the profile is
//! not part of the artifact's cache key; [`profile_hash`] records which
//! profile a tier was fused from.

use crate::decode::{DecodedProgram, ExecProfile, MicroOp};
use crate::emu::ExecStats;
use crate::wire::{fnv1a64, Reader, WireError, Writer};
use crate::word::Tag;

/// Fusion-pass knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuseConfig {
    /// Minimum Expect count (per constituent pc) for a pair to fuse.
    /// The default of 1 fuses everything the profiling run actually
    /// executed and nothing it did not.
    pub min_expect: u64,
    /// Profitability threshold: the pair's dynamic contribution — its
    /// interior Expect count, i.e. complete pair executions — must
    /// reach this many thousandths of the profiled run's total dynamic
    /// ops. A pair below the threshold can recover at most ~0.1% × the
    /// threshold in dispatch cost, while every fused site widens the
    /// dispatch footprint of the step loop; on benchmarks dominated by
    /// a long tail of lukewarm pairs (`serialise`, `sendmore`, `tak`)
    /// that trade was a net regression. The default of 5‰ keeps only
    /// pairs whose savings are clearly above timing noise — on the
    /// benchmark suite it leaves tight recursive loops (`count`-style,
    /// `query`, `nreverse`) fused and prunes the fan-out-heavy
    /// programs (`tak`, `qsort`, `serialise`) down to zero pairs, where
    /// the fused program is bit-identical to the decoded one. 0
    /// disables the check.
    pub min_pair_permille: u64,
}

impl Default for FuseConfig {
    fn default() -> Self {
        FuseConfig {
            min_expect: 1,
            min_pair_permille: 5,
        }
    }
}

impl FuseConfig {
    /// Stable hash of the knob values, mixed into the fused artifact's
    /// cache key: a configuration change must invalidate cached fused
    /// programs (they are still bit-identical, but the serving tier
    /// should never silently keep serving a program fused under
    /// retired knobs).
    pub fn cache_salt(&self) -> u64 {
        let mut w = Writer::new();
        w.u64(self.min_expect);
        w.u64(self.min_pair_permille);
        fnv1a64(&w.into_bytes())
    }
}

/// What the fusion pass did, statically and — projected through the
/// profile it consumed — dynamically.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FusionReport {
    /// Fused pairs rewritten into the program.
    pub pairs: u64,
    /// Compare-and-branch pairs (`CmpBrRR` + `CmpBrRI`).
    pub cmp_br: u64,
    /// Tag-check + dereferencing-load pairs.
    pub tag_deref: u64,
    /// Move + store pairs.
    pub mv_st: u64,
    /// Load + move pairs.
    pub ld_mv: u64,
    /// Immediate-folded `MvI` + ALU pairs.
    pub mvi_alu: u64,
    /// Dynamic executions of a complete fused pair under the consumed
    /// profile — each one is a dispatch the fused engine no longer
    /// pays (the interior is only reachable through its head, so this
    /// is the interior's Expect count).
    pub dispatches_saved: u64,
    /// Dynamic ops covered by fused records under the consumed profile
    /// (head + interior Expect counts).
    pub ops_fused: u64,
    /// Total dynamic ops of the profiling run.
    pub total_ops: u64,
    /// Profiled 2-bit-predictor misses on the branch constituents of
    /// fused pairs — diagnostics for how predictable the fused
    /// compare-and-branch sites are.
    pub fused_branch_mispredicts: u64,
}

impl FusionReport {
    /// Fraction of the profiled dynamic ops covered by fused records.
    pub fn coverage(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.ops_fused as f64 / self.total_ops as f64
        }
    }

    /// Serializes the report (a fixed block of `u64`s) into `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        for v in [
            self.pairs,
            self.cmp_br,
            self.tag_deref,
            self.mv_st,
            self.ld_mv,
            self.mvi_alu,
            self.dispatches_saved,
            self.ops_fused,
            self.total_ops,
            self.fused_branch_mispredicts,
        ] {
            w.u64(v);
        }
    }

    /// Decodes a report written by [`FusionReport::encode_into`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on short input.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FusionReport {
            pairs: r.u64()?,
            cmp_br: r.u64()?,
            tag_deref: r.u64()?,
            mv_st: r.u64()?,
            ld_mv: r.u64()?,
            mvi_alu: r.u64()?,
            dispatches_saved: r.u64()?,
            ops_fused: r.u64()?,
            total_ops: r.u64()?,
            fused_branch_mispredicts: r.u64()?,
        })
    }
}

/// Stable content hash of an execution profile (Expect counts, taken
/// counts and per-pc mispredictions), stored with a fused tier as the
/// record of the profile it was fused from.
pub fn profile_hash(stats: &ExecStats, profile: &ExecProfile) -> u64 {
    let mut w = Writer::new();
    w.count(stats.expect.len());
    for &v in &stats.expect {
        w.u64(v);
    }
    for &v in &stats.taken {
        w.u64(v);
    }
    w.count(profile.mispredict.len());
    for &v in &profile.mispredict {
        w.u64(v);
    }
    fnv1a64(&w.into_bytes())
}

/// Which fused shape a pair matched (report bookkeeping).
enum PairKind {
    CmpBr,
    TagDeref,
    MvSt,
    LdMv,
    MvIAlu,
}

/// Matches one adjacent micro-op pair against the fused record shapes.
fn fuse_pair(head: MicroOp, next: MicroOp) -> Option<(MicroOp, PairKind)> {
    let imm32 = |v: i64| i32::try_from(v).ok();
    match (head, next) {
        (
            MicroOp::AluRR { op, d, a, b },
            MicroOp::BrRR {
                cond,
                a: ba,
                b: bb,
                t,
            },
        ) => Some((
            MicroOp::CmpBrRR {
                op,
                cond,
                d,
                a,
                b,
                ba,
                bb,
                t,
            },
            PairKind::CmpBr,
        )),
        (
            MicroOp::AluRI { op, d, a, imm },
            MicroOp::BrRI {
                cond,
                a: ba,
                imm: bimm,
                t,
            },
        ) => Some((
            MicroOp::CmpBrRI {
                op,
                cond,
                d,
                a,
                imm: imm32(imm)?,
                ba,
                bimm: imm32(bimm)?,
                t,
            },
            PairKind::CmpBr,
        )),
        (MicroOp::BrTag { a, tag, eq, t }, MicroOp::Ld { d, base, off }) => Some((
            MicroOp::TagDeref {
                a,
                tag,
                eq,
                t,
                d,
                base,
                off,
            },
            PairKind::TagDeref,
        )),
        (MicroOp::Mv { d, s }, MicroOp::St { s: s2, base, off }) => Some((
            MicroOp::MvSt {
                d,
                s,
                s2,
                base,
                off,
            },
            PairKind::MvSt,
        )),
        (MicroOp::Ld { d, base, off }, MicroOp::Mv { d: d2, s }) => Some((
            MicroOp::LdMv {
                d,
                base,
                off,
                d2,
                s,
            },
            PairKind::LdMv,
        )),
        (MicroOp::MvI { d, w }, MicroOp::AluRR { op, d: d2, a, b })
            if w.tag == Tag::Int && (a == d || b == d) =>
        {
            Some((
                MicroOp::MvIAlu {
                    d,
                    imm: imm32(w.val)?,
                    op,
                    d2,
                    a,
                    b,
                },
                PairKind::MvIAlu,
            ))
        }
        _ => None,
    }
}

/// Whether `fused` is a legal fusion of `base`: the same length, label
/// table, entry pc and register count, and at every pc either the base
/// record or a head that [`fuse`]'s pair matcher builds from the base
/// pair `(i, i + 1)`, where `i + 1` is not a branch target of `base`
/// and keeps its base record. Pairs cannot overlap, since an interior
/// keeps its record. Such a program behaves exactly like `base`.
///
/// One pass over the records, allocating nothing.
pub fn is_fusion_of(fused: &DecodedProgram, base: &DecodedProgram) -> bool {
    if fused.len() != base.len()
        || fused.label_pc != base.label_pc
        || fused.entry_pc != base.entry_pc
        || fused.num_regs != base.num_regs
    {
        return false;
    }
    let (f, b) = (&fused.micro, &base.micro);
    let mut i = 0;
    while i < b.len() {
        if f[i] == b[i] {
            i += 1;
            continue;
        }
        let interior = i + 1;
        let head = interior < b.len()
            && !base.is_branch_target(interior)
            && f[interior] == b[interior]
            && fuse_pair(b[i], b[interior]).is_some_and(|(head, _)| head == f[i]);
        if !head {
            return false;
        }
        i += 2;
    }
    true
}

/// Re-decodes `program` under the execution profile `(stats, profile)`
/// into its fused second-tier form, returning the specialized program
/// and a [`FusionReport`] of what was done.
///
/// The returned program has the same length, label table, entry pc and
/// register-file size as the input; only fused head slots differ. It
/// is bit-identical in behavior (outcome, step count, [`ExecStats`],
/// trace, errors) to the input on *every* input state, not just the
/// profiled one — the profile only decides *which* legal pairs are
/// worth rewriting.
pub fn fuse(
    program: &DecodedProgram,
    stats: &ExecStats,
    profile: &ExecProfile,
    cfg: &FuseConfig,
) -> (DecodedProgram, FusionReport) {
    let n = program.len();
    let mut report = FusionReport {
        total_ops: stats.expect.iter().sum(),
        ..FusionReport::default()
    };
    // The hot set, through the deterministic hot_pcs ranking (count
    // descending, pc ascending on ties) so the same profile always
    // yields the same fused program.
    let mut hot = vec![false; n];
    for (pc, count) in stats.hot_pcs(n) {
        if count >= cfg.min_expect.max(1) {
            hot[pc] = true;
        }
    }
    let mut micro = program.micro.clone();
    let mut i = 0;
    while i + 1 < n {
        let interior = i + 1;
        if !hot[i] || !hot[interior] || program.is_branch_target(interior) {
            i += 1;
            continue;
        }
        // Profitability: the interior's Expect count is exactly the
        // number of complete pair executions (legality rule 1), so it
        // is the pair's whole dynamic upside. Skip pairs whose upside
        // is below `min_pair_permille` thousandths of the run.
        if stats.expect[interior].saturating_mul(1000)
            < report.total_ops.saturating_mul(cfg.min_pair_permille)
        {
            i += 1;
            continue;
        }
        let Some((fused, kind)) = fuse_pair(micro[i], micro[interior]) else {
            i += 1;
            continue;
        };
        micro[i] = fused;
        report.pairs += 1;
        match kind {
            PairKind::CmpBr => {
                report.cmp_br += 1;
                report.fused_branch_mispredicts +=
                    profile.mispredict.get(interior).copied().unwrap_or(0);
            }
            PairKind::TagDeref => {
                report.tag_deref += 1;
                report.fused_branch_mispredicts += profile.mispredict.get(i).copied().unwrap_or(0);
            }
            PairKind::MvSt => report.mv_st += 1,
            PairKind::LdMv => report.ld_mv += 1,
            PairKind::MvIAlu => report.mvi_alu += 1,
        }
        // The interior is only reachable by falling through its head
        // (legality rule 1), so its Expect count is exactly the number
        // of complete pair executions — each one a saved dispatch.
        report.dispatches_saved += stats.expect[interior];
        report.ops_fused += stats.expect[i] + stats.expect[interior];
        i += 2;
    }
    let fused = DecodedProgram::from_parts(
        micro,
        program.label_pc.clone(),
        program.entry_pc,
        program.num_regs,
    );
    (fused, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::decode::DecodedEmulator;
    use crate::emu::{Emulator, ExecConfig, ExecError};
    use crate::layout::Layout;
    use crate::op::{AluOp, Cond, Label, Op, Operand};
    use crate::program::IciProgram;
    use crate::word::Word;

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

    /// Profiles `p`, fuses, and asserts the fused engine bit-identical
    /// to both the unfused decoded engine and the legacy interpreter —
    /// trace included. Returns the report.
    fn fused_differential(p: &IciProgram, cfg: &ExecConfig) -> FusionReport {
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(p);
        let (dr, dstats, dsteps, dprof) =
            DecodedEmulator::new(&decoded, &layout).run_with_profile(cfg);
        let (fused, report) = fuse(&decoded, &dstats, &dprof, &FuseConfig::default());
        assert_eq!(fused.len(), decoded.len(), "fusion must preserve length");

        let (lr, lstats, lsteps) = Emulator::new(p, &layout).run_with_stats(cfg);
        let (fr, fstats, fsteps) = DecodedEmulator::new(&fused, &layout).run_with_stats(cfg);
        assert_eq!(fr, lr, "outcome/error diverged (fused vs legacy)");
        assert_eq!(fr, dr, "outcome/error diverged (fused vs decoded)");
        assert_eq!(fsteps, lsteps, "step count diverged");
        assert_eq!(fsteps, dsteps);
        assert_eq!(fstats.expect, lstats.expect, "Expect counts diverged");
        assert_eq!(fstats.taken, lstats.taken, "taken counts diverged");
        assert_eq!(fstats.expect, dstats.expect);
        assert_eq!(fstats.taken, dstats.taken);

        // Trace parity: the fused engine must emit one trace entry per
        // constituent op, in the same order.
        let mut traced_dec = DecodedEmulator::new(&decoded, &layout);
        traced_dec.set_trace(32);
        let _ = traced_dec.run_with_stats(cfg);
        let mut traced_fused = DecodedEmulator::new(&fused, &layout);
        traced_fused.set_trace(32);
        let _ = traced_fused.run_with_stats(cfg);
        assert_eq!(traced_dec.trace(), traced_fused.trace(), "trace diverged");

        // And the profiled monomorphization of the fused engine agrees
        // with itself (predictor state is per-constituent-index).
        let (pr, pstats, psteps, _) = DecodedEmulator::new(&fused, &layout).run_with_profile(cfg);
        assert_eq!(pr, fr);
        assert_eq!(psteps, fsteps);
        assert_eq!(pstats.expect, fstats.expect);
        assert_eq!(pstats.taken, fstats.taken);
        report
    }

    fn counted_loop(bound: i64) -> IciProgram {
        assemble(|a| {
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
                b: Operand::Imm(bound),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        })
    }

    #[test]
    fn counted_loop_fuses_to_cmp_br_and_stays_bit_identical() {
        let p = counted_loop(100);
        let report = fused_differential(&p, &ExecConfig::default());
        assert_eq!(report.cmp_br, 1, "the add+branch pair must fuse");
        assert_eq!(report.dispatches_saved, 100);
        assert!(report.coverage() > 0.5, "coverage {}", report.coverage());
        assert_eq!(report.fused_branch_mispredicts, 2);
    }

    #[test]
    fn step_limit_between_constituents_is_bit_identical() {
        // Odd limits land the step boundary *inside* a fused pair; the
        // fused engine must stop at exactly the same step with exactly
        // the same partial statistics as the unfused engines.
        let p = counted_loop(1000);
        for limit in 0..30 {
            fused_differential(&p, &ExecConfig { max_steps: limit });
        }
    }

    #[test]
    fn errors_inside_fused_pairs_keep_their_constituent_index() {
        // Divide by zero in the *head* of a fused compare-and-branch.
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
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: x,
                b: Operand::Imm(10),
                t: e,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        // Run it twice so the divide site is hot on the profiling run:
        // with max_steps high the first execution already faults, which
        // is what the profile sees — the pair still fuses (expect >= 1).
        let layout = tiny_layout();
        let cfg = ExecConfig::default();
        let decoded = DecodedProgram::new(&p);
        let (dr, dstats, _, dprof) = DecodedEmulator::new(&decoded, &layout).run_with_profile(&cfg);
        assert_eq!(dr, Err(ExecError::DivideByZero { at: 1 }));
        let (fused, report) = fuse(&decoded, &dstats, &dprof, &FuseConfig::default());
        // The branch at pc 2 never executed, so the pair (1, 2) is not
        // hot and must NOT fuse — profile-guided means exactly that.
        assert_eq!(report.pairs, 0);
        let (fr, _, _) = DecodedEmulator::new(&fused, &layout).run_with_stats(&cfg);
        assert_eq!(fr, Err(ExecError::DivideByZero { at: 1 }));
    }

    #[test]
    fn bad_store_in_fused_mv_st_reports_the_interior_index() {
        let p = assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let i = a.fresh_reg();
            let v = a.fresh_reg();
            let base = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: i,
                w: Word::int(0),
            });
            a.emit(Op::MvI {
                d: base,
                w: Word::int(0),
            });
            a.bind(lp);
            // Mv + St pair: store through `base`, which walks off the
            // end of memory after enough iterations... but here `base`
            // goes negative immediately on the second lap.
            a.emit(Op::Mv { d: v, s: i });
            a.emit(Op::St {
                s: v,
                base,
                off: -1,
            });
            a.emit(Op::Alu {
                op: AluOp::Add,
                d: i,
                a: i,
                b: Operand::Imm(1),
            });
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(4),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let report = fused_differential(&p, &ExecConfig::default());
        // The store faults on its very first execution (addr -1), so
        // the profiling run never sees the pair complete — but both
        // halves have expect >= 1?  The Mv ran once, the St ran once
        // (and faulted): the pair is hot and fuses.
        assert_eq!(report.mv_st, 1);
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let (dr, dstats, _, dprof) =
            DecodedEmulator::new(&decoded, &layout).run_with_profile(&ExecConfig::default());
        let (fused, _) = fuse(&decoded, &dstats, &dprof, &FuseConfig::default());
        let (fr, _, _) =
            DecodedEmulator::new(&fused, &layout).run_with_stats(&ExecConfig::default());
        assert_eq!(fr, dr, "fault index must be the St constituent's own index");
        assert!(
            matches!(fr, Err(ExecError::BadAddress { at: 3, .. })),
            "{fr:?}"
        );
    }

    #[test]
    fn tag_deref_load_mviaiu_and_ld_mv_pairs_fuse_and_match() {
        let p = assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let done = a.fresh_label();
            let i = a.fresh_reg();
            let base = a.fresh_reg();
            let v = a.fresh_reg();
            let w = a.fresh_reg();
            a.bind(e);
            // MvI + AluRR immediate-folding pair.
            a.emit(Op::MvI {
                d: i,
                w: Word::int(3),
            });
            a.emit(Op::Alu {
                op: AluOp::Mul,
                d: i,
                a: i,
                b: Operand::Reg(i),
            });
            a.emit(Op::MvI {
                d: base,
                w: Word::int(8),
            });
            // Seed a Ref-tagged word into memory.
            a.emit(Op::MkTag {
                d: v,
                s: base,
                tag: Tag::Ref,
            });
            a.emit(Op::St { s: v, base, off: 0 });
            a.bind(lp);
            // Ld + Mv pair.
            a.emit(Op::Ld { d: w, base, off: 0 });
            a.emit(Op::Mv { d: v, s: w });
            // BrTag + Ld pair: fall through into the deref load once
            // (the loaded word is Ref-tagged the first time).
            a.emit(Op::BrTag {
                a: v,
                tag: Tag::Ref,
                eq: false,
                t: done,
            });
            a.emit(Op::Ld { d: v, base, off: 0 });
            // Overwrite the cell with an Int so the loop terminates.
            a.emit(Op::MkTag {
                d: w,
                s: base,
                tag: Tag::Int,
            });
            a.emit(Op::St { s: w, base, off: 0 });
            a.emit(Op::Jmp { t: lp });
            a.bind(done);
            a.emit(Op::Halt { success: true });
            e
        });
        let report = fused_differential(&p, &ExecConfig::default());
        assert!(report.mvi_alu >= 1, "MvI+Alu folded: {report:?}");
        assert!(report.ld_mv >= 1, "Ld+Mv fused: {report:?}");
        assert!(report.tag_deref >= 1, "BrTag+Ld fused: {report:?}");
    }

    #[test]
    fn branch_target_interiors_are_never_fused() {
        // The Alu at pc 1 is the loop target: a pair (0, 1) would bury
        // a branch target as an interior and must be rejected even
        // though MvI+Alu matches the immediate-folding shape.
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
                b: Operand::Reg(i),
            });
            a.emit(Op::Alu {
                op: AluOp::Add,
                d: i,
                a: i,
                b: Operand::Imm(1),
            });
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(50),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        assert!(decoded.is_branch_target(1), "loop head is a target");
        assert!(!decoded.is_branch_target(2));
        let (_, dstats, _, dprof) =
            DecodedEmulator::new(&decoded, &layout).run_with_profile(&ExecConfig::default());
        let (fused, report) = fuse(&decoded, &dstats, &dprof, &FuseConfig::default());
        assert_eq!(report.mvi_alu, 0, "pair (0,1) must not fuse");
        assert_eq!(report.cmp_br, 1, "pair (2,3) fuses fine");
        assert!(matches!(fused.micro[0], MicroOp::MvI { .. }));
        assert!(matches!(fused.micro[2], MicroOp::CmpBrRI { .. }));
        fused_differential(&p, &ExecConfig::default());
    }

    #[test]
    fn cold_code_is_left_alone() {
        // The add+branch pair behind the never-taken guard never runs;
        // with the default min_expect = 1 it must stay unfused.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let skip = a.fresh_label();
            let i = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: i,
                w: Word::int(0),
            });
            a.emit(Op::Br {
                cond: Cond::Eq,
                a: i,
                b: Operand::Imm(0),
                t: skip,
            });
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
                t: e,
            });
            a.bind(skip);
            a.emit(Op::Halt { success: true });
            e
        });
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let (_, dstats, _, dprof) =
            DecodedEmulator::new(&decoded, &layout).run_with_profile(&ExecConfig::default());
        let (_, report) = fuse(&decoded, &dstats, &dprof, &FuseConfig::default());
        assert_eq!(report.pairs, 0, "cold pair must not fuse: {report:?}");
    }

    #[test]
    fn low_coverage_pairs_are_skipped_by_the_profitability_threshold() {
        // A once-executed straight-line MvI+Alu prologue in front of a
        // hot counted loop: the prologue pair matches a fused shape and
        // is "hot" under min_expect = 1, but its single execution is
        // ~0.3‰ of the run — below the default 5‰ profitability
        // threshold it must stay unfused, while the loop pair (~333‰)
        // fuses as before.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let x = a.fresh_reg();
            let i = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: x,
                w: Word::int(3),
            });
            a.emit(Op::Alu {
                op: AluOp::Mul,
                d: x,
                a: x,
                b: Operand::Reg(x),
            });
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
                b: Operand::Imm(1000),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let (_, dstats, _, dprof) =
            DecodedEmulator::new(&decoded, &layout).run_with_profile(&ExecConfig::default());
        let (_, report) = fuse(&decoded, &dstats, &dprof, &FuseConfig::default());
        assert_eq!(report.mvi_alu, 0, "cold prologue pair skipped: {report:?}");
        assert_eq!(report.cmp_br, 1, "hot loop pair still fuses");
        // Disabling the threshold restores the old greedy behavior.
        let permissive = FuseConfig {
            min_pair_permille: 0,
            ..FuseConfig::default()
        };
        let (_, all) = fuse(&decoded, &dstats, &dprof, &permissive);
        assert_eq!(all.mvi_alu, 1);
        assert_eq!(all.cmp_br, 1);
        // The threshold is part of the cache salt: a knob change must
        // invalidate cached fused artifacts.
        assert_ne!(
            FuseConfig::default().cache_salt(),
            permissive.cache_salt(),
            "knob change must change the salt"
        );
        assert_eq!(
            FuseConfig::default().cache_salt(),
            FuseConfig::default().cache_salt()
        );
        // And the skipped pair changes nothing behaviorally.
        fused_differential(&p, &ExecConfig::default());
    }

    #[test]
    fn oversized_immediates_are_not_folded() {
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
                b: Operand::Imm(1 << 40),
            });
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(1 << 42),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let report = fused_differential(&p, &ExecConfig::default());
        assert_eq!(report.cmp_br, 0, "i64 immediates cannot narrow to i32");
    }

    #[test]
    fn fusion_is_deterministic_and_profile_hash_is_stable() {
        let p = counted_loop(64);
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let cfg = ExecConfig::default();
        let (_, s1, _, p1) = DecodedEmulator::new(&decoded, &layout).run_with_profile(&cfg);
        let (_, s2, _, p2) = DecodedEmulator::new(&decoded, &layout).run_with_profile(&cfg);
        assert_eq!(profile_hash(&s1, &p1), profile_hash(&s2, &p2));
        let (f1, r1) = fuse(&decoded, &s1, &p1, &FuseConfig::default());
        let (f2, r2) = fuse(&decoded, &s2, &p2, &FuseConfig::default());
        assert_eq!(r1, r2);
        assert_eq!(f1.to_wire_bytes(), f2.to_wire_bytes());
        // A different profile (shorter loop) hashes differently.
        let q = counted_loop(65);
        let dq = DecodedProgram::new(&q);
        let (_, s3, _, p3) = DecodedEmulator::new(&dq, &layout).run_with_profile(&cfg);
        assert_ne!(profile_hash(&s1, &p1), profile_hash(&s3, &p3));
    }

    /// `p` with its record at `pc` replaced by `m`.
    fn with_record(p: &DecodedProgram, pc: usize, m: MicroOp) -> DecodedProgram {
        let mut micro = p.micro.clone();
        micro[pc] = m;
        DecodedProgram::from_parts(micro, p.label_pc.clone(), p.entry_pc, p.num_regs)
    }

    /// The base program of `p` and its fusion under its own profile.
    fn base_and_fused(p: &IciProgram) -> (DecodedProgram, DecodedProgram) {
        let base = DecodedProgram::new(p);
        let (_, stats, _, profile) =
            DecodedEmulator::new(&base, &tiny_layout()).run_with_profile(&ExecConfig::default());
        let (fused, report) = fuse(&base, &stats, &profile, &FuseConfig::default());
        assert!(report.pairs > 0, "the test needs a fused pair");
        (base, fused)
    }

    #[test]
    fn fusions_are_recognised_and_the_base_is_its_own_fusion() {
        let (base, fused) = base_and_fused(&counted_loop(100));
        assert!(is_fusion_of(&fused, &base));
        assert!(is_fusion_of(&base, &base), "zero pairs is a fusion");
        assert!(
            !is_fusion_of(&base, &fused),
            "a fused head is no base record"
        );
    }

    #[test]
    fn a_head_over_a_branch_target_is_not_a_fusion() {
        // pc 1 is the loop target; MvI at 0 and the Alu at 1 match the
        // immediate-folding shape, but the loop would skip the head.
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
                b: Operand::Reg(i),
            });
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(50),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let base = DecodedProgram::new(&p);
        assert!(base.is_branch_target(1));
        let (head, _) = fuse_pair(base.micro[0], base.micro[1]).expect("a fused shape");
        assert!(!is_fusion_of(&with_record(&base, 0, head), &base));
    }

    #[test]
    fn a_changed_interior_is_not_a_fusion() {
        let (base, fused) = base_and_fused(&counted_loop(100));
        // The loop's add+branch pair: head at pc 1, interior at pc 2.
        assert!(matches!(fused.micro[1], MicroOp::CmpBrRI { .. }));
        let mut interior = fused.micro[2];
        let MicroOp::BrRI { imm, .. } = &mut interior else {
            panic!("interior kept: {interior:?}");
        };
        *imm += 1;
        assert!(!is_fusion_of(&with_record(&fused, 2, interior), &base));
    }

    #[test]
    fn a_head_the_matcher_would_not_build_is_not_a_fusion() {
        let (base, fused) = base_and_fused(&counted_loop(100));
        let mut head = fused.micro[1];
        let MicroOp::CmpBrRI { bimm, .. } = &mut head else {
            panic!("head at pc 1: {head:?}");
        };
        *bimm += 1;
        assert!(!is_fusion_of(&with_record(&fused, 1, head), &base));
        // Nor is a head over a base pair with no fused shape: the
        // branch at pc 2 and the halt behind it.
        assert!(!base.is_branch_target(3));
        assert!(!is_fusion_of(&with_record(&base, 2, head), &base));
    }

    #[test]
    fn overlapping_pairs_are_not_a_fusion() {
        // Ld, Mv, St: (1, 2) is a Ld+Mv pair and (2, 3) a Mv+St pair.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let base = a.fresh_reg();
            let w = a.fresh_reg();
            let v = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: base,
                w: Word::int(8),
            });
            a.emit(Op::Ld { d: w, base, off: 0 });
            a.emit(Op::Mv { d: v, s: w });
            a.emit(Op::St { s: v, base, off: 1 });
            a.emit(Op::Halt { success: true });
            e
        });
        let base = DecodedProgram::new(&p);
        let (ld_mv, _) = fuse_pair(base.micro[1], base.micro[2]).expect("Ld+Mv");
        let (mv_st, _) = fuse_pair(base.micro[2], base.micro[3]).expect("Mv+St");
        let first = with_record(&base, 1, ld_mv);
        assert!(is_fusion_of(&first, &base));
        assert!(is_fusion_of(&with_record(&base, 2, mv_st), &base));
        assert!(!is_fusion_of(&with_record(&first, 2, mv_st), &base));
    }

    #[test]
    fn a_different_label_table_entry_or_register_file_is_not_a_fusion() {
        let (base, fused) = base_and_fused(&counted_loop(100));
        let parts = |label_pc: Vec<u32>, entry_pc: usize, num_regs: usize| {
            DecodedProgram::from_parts(fused.micro.clone(), label_pc, entry_pc, num_regs)
        };
        let (labels, entry, regs) = (fused.label_pc.clone(), fused.entry_pc, fused.num_regs);
        assert!(is_fusion_of(&parts(labels.clone(), entry, regs), &base));
        let mut moved = labels.clone();
        moved[0] += 1;
        let mut extra = labels.clone();
        extra.push(u32::MAX);
        for (what, other) in [
            ("moved label", parts(moved, entry, regs)),
            ("extra label", parts(extra, entry, regs)),
            ("entry pc", parts(labels.clone(), entry + 1, regs)),
            ("register count", parts(labels.clone(), entry, regs + 1)),
        ] {
            assert!(!is_fusion_of(&other, &base), "{what}");
        }
        let mut shorter = fused.micro.clone();
        shorter.pop();
        let shorter = DecodedProgram::from_parts(shorter, labels, entry, regs);
        assert!(!is_fusion_of(&shorter, &base), "length");
    }

    #[test]
    fn fusion_report_round_trips_on_the_wire() {
        let r = FusionReport {
            pairs: 3,
            cmp_br: 1,
            tag_deref: 1,
            mv_st: 0,
            ld_mv: 1,
            mvi_alu: 0,
            dispatches_saved: 1234,
            ops_fused: 2500,
            total_ops: 9000,
            fused_branch_mispredicts: 7,
        };
        let mut w = Writer::new();
        r.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut rd = Reader::new(&bytes);
        let back = FusionReport::decode_from(&mut rd).expect("decodes");
        rd.finish().expect("fully consumed");
        assert_eq!(back, r);
    }
}
