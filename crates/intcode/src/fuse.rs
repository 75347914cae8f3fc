//! Profile-guided superinstruction fusion: the second tier of the
//! decoded emulator.
//!
//! [`fuse`] consumes the per-pc Expect counts ([`ExecStats`]) of a
//! [`DecodedEmulator`](crate::decode::DecodedEmulator) profiling run and
//! re-decodes hot straight-line pairs into fused micro-op
//! superinstructions, halving the dispatch count on the covered
//! dynamic ops. It fuses the two pair shapes the translated programs
//! contain: a tag check falling through into its dereferencing load
//! (`BrTag` → `Ld`) and a load feeding a move (`Ld` → `Mv`).
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
//! 2. both pcs are hot: the profiling run executed each at least once,
//!    so fusion never touches code it proved cold or unreachable;
//! 3. the opcode pair matches a fused record shape;
//! 4. the pair is *profitable*: its complete-pair execution count (the
//!    interior's Expect) reaches [`FuseConfig::min_pair_permille`]
//!    thousandths of the run's total dynamic ops, so a long tail of
//!    lukewarm sites cannot widen the step loop's dispatch footprint
//!    for sub-noise dispatch savings.
//!
//! Pairs are chosen greedily left to right and never overlap. The
//! interior slot keeps its original (now fall-through-unreachable)
//! record, so the fused program stays index-parallel to the source
//! ops: statistics vectors, error `at` fields and the label table keep
//! their meaning unchanged, and the fused engine is
//! **bit-identical** to the unfused decoded engine and the legacy
//! interpreter — which the workspace agreement suite and the fuzz
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

/// Fusion-pass knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuseConfig {
    /// Profitability threshold: the pair's dynamic contribution — its
    /// interior Expect count, i.e. complete pair executions — must
    /// reach this many thousandths of the profiled run's total dynamic
    /// ops. A pair below the threshold can recover at most ~0.1% × the
    /// threshold in dispatch cost, while every fused site widens the
    /// dispatch footprint of the step loop. At the default of 5‰ the
    /// benchmark suite fuses 1–9 pairs in each of twelve programs and
    /// none in `tak`, `qsort`, `serialise` and `zebra`, whose fused
    /// program is bit-identical to the decoded one. 0 disables the
    /// check.
    pub min_pair_permille: u64,
}

impl Default for FuseConfig {
    fn default() -> Self {
        FuseConfig {
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
    /// Tag-check + dereferencing-load pairs.
    pub tag_deref: u64,
    /// Load + move pairs.
    pub ld_mv: u64,
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
            self.tag_deref,
            self.ld_mv,
            self.dispatches_saved,
            self.ops_fused,
            self.total_ops,
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
            tag_deref: r.u64()?,
            ld_mv: r.u64()?,
            dispatches_saved: r.u64()?,
            ops_fused: r.u64()?,
            total_ops: r.u64()?,
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
    TagDeref,
    LdMv,
}

/// Matches one adjacent micro-op pair against the fused record shapes.
fn fuse_pair(head: MicroOp, next: MicroOp) -> Option<(MicroOp, PairKind)> {
    match (head, next) {
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

/// Re-decodes `program` under the Expect counts of a profiling run
/// (`stats`) into its fused second-tier form, returning the specialized
/// program and a [`FusionReport`] of what was done.
///
/// The returned program has the same length, label table, entry pc and
/// register-file size as the input; only fused head slots differ. It
/// is bit-identical in behavior (outcome, step count, [`ExecStats`],
/// errors) to the input on *every* input state, not just the
/// profiled one — the profile only decides *which* legal pairs are
/// worth rewriting.
pub fn fuse(
    program: &DecodedProgram,
    stats: &ExecStats,
    cfg: &FuseConfig,
) -> (DecodedProgram, FusionReport) {
    let n = program.len();
    let mut report = FusionReport {
        total_ops: stats.expect.iter().sum(),
        ..FusionReport::default()
    };
    // The hot set: every pc the profiling run executed.
    let hot = |pc: usize| stats.expect[pc] > 0;
    let mut micro = program.micro.clone();
    let mut i = 0;
    while i + 1 < n {
        let interior = i + 1;
        if !hot(i) || !hot(interior) || program.is_branch_target(interior) {
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
            PairKind::TagDeref => report.tag_deref += 1,
            PairKind::LdMv => report.ld_mv += 1,
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
    use crate::op::{AluOp, Cond, Label, Op, Operand, R};
    use crate::program::IciProgram;
    use crate::word::{Tag, Word};

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
        a.finish(entry).expect("assembles")
    }

    /// The Expect counts of one profiling run of `decoded`.
    fn profile_of(decoded: &DecodedProgram) -> ExecStats {
        let (_, stats, _, _) =
            DecodedEmulator::new(decoded, &tiny_layout()).run_with_profile(&ExecConfig::default());
        stats
    }

    /// Profiles `p`, fuses, and asserts the fused engine bit-identical
    /// to both the unfused decoded engine and the legacy interpreter.
    /// Returns the report.
    fn fused_differential(p: &IciProgram, cfg: &ExecConfig) -> FusionReport {
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(p);
        let (dr, dstats, dsteps, _) = DecodedEmulator::new(&decoded, &layout).run_with_profile(cfg);
        let (fused, report) = fuse(&decoded, &dstats, &FuseConfig::default());
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

        // And the profiled monomorphization of the fused engine agrees
        // with itself (predictor state is per-constituent-index).
        let (pr, pstats, psteps, _) = DecodedEmulator::new(&fused, &layout).run_with_profile(cfg);
        assert_eq!(pr, fr);
        assert_eq!(psteps, fsteps);
        assert_eq!(pstats.expect, fstats.expect);
        assert_eq!(pstats.taken, fstats.taken);
        report
    }

    /// `i = i + 1`.
    fn bump(a: &mut Asm, i: R) {
        a.emit(Op::Alu {
            op: AluOp::Add,
            d: i,
            a: i,
            b: Operand::Imm(1),
        });
    }

    /// `Ld w <- mem[base + off]; Mv v <- w`, the load+move pair.
    fn ld_mv(a: &mut Asm, w: R, v: R, base: R, off: i32) {
        a.emit(Op::Ld { d: w, base, off });
        a.emit(Op::Mv { d: v, s: w });
    }

    /// A counted loop whose body opens with a load+move pair: head at
    /// pc 2, interior at pc 3.
    fn ld_mv_loop(bound: i64) -> IciProgram {
        assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let (i, base, w, v) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
            a.bind(e);
            a.emit(Op::MvI {
                d: i,
                w: Word::int(0),
            });
            a.emit(Op::MvI {
                d: base,
                w: Word::int(8),
            });
            a.bind(lp);
            ld_mv(a, w, v, base, 0);
            bump(a, i);
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

    /// A counted loop that dereferences a self-referencing cell: the
    /// tag check at pc 4 falls through into its load at pc 5 on every
    /// lap.
    fn deref_loop(bound: i64) -> IciProgram {
        assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let done = a.fresh_label();
            let (i, p, r) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
            a.bind(e);
            a.emit(Op::MvI {
                d: i,
                w: Word::int(0),
            });
            a.emit(Op::MvI {
                d: p,
                w: Word::int(8),
            });
            a.emit(Op::MkTag {
                d: r,
                s: p,
                tag: Tag::Ref,
            });
            a.emit(Op::St {
                s: r,
                base: p,
                off: 0,
            });
            a.bind(lp);
            a.emit(Op::BrTag {
                a: r,
                tag: Tag::Ref,
                eq: false,
                t: done,
            });
            a.emit(Op::Ld {
                d: r,
                base: r,
                off: 0,
            });
            bump(a, i);
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(bound),
                t: lp,
            });
            a.bind(done);
            a.emit(Op::Halt { success: true });
            e
        })
    }

    #[test]
    fn a_hot_ld_mv_loop_fuses_and_stays_bit_identical() {
        let report = fused_differential(&ld_mv_loop(100), &ExecConfig::default());
        assert_eq!((report.pairs, report.ld_mv), (1, 1), "{report:?}");
        assert_eq!(report.dispatches_saved, 100);
        assert_eq!(report.ops_fused, 200);
        assert_eq!(report.total_ops, 4 * 100 + 3);
    }

    #[test]
    fn step_limit_between_constituents_is_bit_identical() {
        // Limits of every parity land the step boundary *inside* a
        // fused pair; the fused engine must stop at exactly the same
        // step with exactly the same partial statistics as the unfused
        // engines.
        for p in [ld_mv_loop(1000), deref_loop(1000)] {
            for limit in 0..30 {
                fused_differential(&p, &ExecConfig { max_steps: limit });
            }
        }
    }

    #[test]
    fn errors_inside_fused_pairs_keep_their_constituent_index() {
        // Each loop walks its load address down from 2 and faults on
        // the lap that reaches -1, so the profiling run executes the
        // whole pair three times and the pair fuses.
        let walk = |tag_check: bool| {
            assemble(|a| {
                let e = a.fresh_label();
                let lp = a.fresh_label();
                let done = a.fresh_label();
                let (p, x, y) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
                a.bind(e);
                a.emit(Op::MvI {
                    d: p,
                    w: Word {
                        tag: Tag::Ref,
                        val: 2,
                    },
                });
                a.bind(lp);
                if tag_check {
                    // BrTag + Ld: the load is the interior.
                    a.emit(Op::BrTag {
                        a: p,
                        tag: Tag::Int,
                        eq: true,
                        t: done,
                    });
                    a.emit(Op::Ld {
                        d: x,
                        base: p,
                        off: 0,
                    });
                } else {
                    // Ld + Mv: the load is the head.
                    ld_mv(a, x, y, p, 0);
                }
                a.emit(Op::AddA {
                    d: p,
                    a: p,
                    b: Operand::Imm(-1),
                });
                a.emit(Op::Jmp { t: lp });
                a.bind(done);
                a.emit(Op::Halt { success: true });
                e
            })
        };
        let cfg = ExecConfig::default();
        for (tag_check, load_at) in [(true, 2), (false, 1)] {
            let p = walk(tag_check);
            let report = fused_differential(&p, &cfg);
            assert_eq!(report.pairs, 1, "{report:?}");
            assert_eq!(report.tag_deref, u64::from(tag_check));
            let err = Emulator::new(&p, &tiny_layout()).run(&cfg).unwrap_err();
            assert_eq!(
                err,
                ExecError::BadAddress {
                    addr: -1,
                    at: load_at
                },
                "the load's own index, head or interior"
            );
        }
    }

    #[test]
    fn tag_deref_and_ld_mv_pairs_fuse_and_match() {
        let p = assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let done = a.fresh_label();
            let base = a.fresh_reg();
            let v = a.fresh_reg();
            let w = a.fresh_reg();
            a.bind(e);
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
            ld_mv(a, w, v, base, 0);
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
        assert_eq!(report.ld_mv, 1, "Ld+Mv fused: {report:?}");
        assert_eq!(report.tag_deref, 1, "BrTag+Ld fused: {report:?}");
        let report = fused_differential(&deref_loop(100), &ExecConfig::default());
        assert_eq!((report.pairs, report.tag_deref), (1, 1), "{report:?}");
        assert_eq!(report.dispatches_saved, 100);
    }

    /// A load+move pair whose move is the loop head (pc 3), then a
    /// second load+move pair inside the loop (pcs 4 and 5).
    fn ld_mv_into_a_loop_head() -> IciProgram {
        assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let (base, i, w, v) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
            a.bind(e);
            a.emit(Op::MvI {
                d: base,
                w: Word::int(8),
            });
            a.emit(Op::MvI {
                d: i,
                w: Word::int(0),
            });
            a.emit(Op::Ld { d: w, base, off: 0 });
            a.bind(lp);
            a.emit(Op::Mv { d: v, s: w });
            ld_mv(a, w, v, base, 1);
            bump(a, i);
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(50),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        })
    }

    #[test]
    fn branch_target_interiors_are_never_fused() {
        // The Mv at pc 3 is the loop target: a pair (2, 3) would bury
        // a branch target as an interior and must be rejected even
        // though Ld+Mv matches a fused shape.
        let p = ld_mv_into_a_loop_head();
        let decoded = DecodedProgram::new(&p);
        assert!(decoded.is_branch_target(3), "loop head is a target");
        assert!(!decoded.is_branch_target(5));
        let (fused, report) = fuse(&decoded, &profile_of(&decoded), &FuseConfig::default());
        assert_eq!(report.ld_mv, 1, "only pair (4, 5) fuses: {report:?}");
        assert!(matches!(fused.micro[2], MicroOp::Ld { .. }));
        assert!(matches!(fused.micro[4], MicroOp::LdMv { .. }));
        fused_differential(&p, &ExecConfig::default());
    }

    #[test]
    fn cold_code_is_left_alone() {
        // The load+move pair behind the always-taken guard never runs;
        // it must stay unfused even with the profitability threshold
        // off.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let skip = a.fresh_label();
            let (i, base, w, v) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
            a.bind(e);
            a.emit(Op::MvI {
                d: i,
                w: Word::int(0),
            });
            a.emit(Op::MvI {
                d: base,
                w: Word::int(8),
            });
            a.emit(Op::Br {
                cond: Cond::Eq,
                a: i,
                b: Operand::Imm(0),
                t: skip,
            });
            ld_mv(a, w, v, base, 0);
            a.bind(skip);
            a.emit(Op::Halt { success: true });
            e
        });
        let decoded = DecodedProgram::new(&p);
        let stats = profile_of(&decoded);
        for cfg in [
            FuseConfig::default(),
            FuseConfig {
                min_pair_permille: 0,
            },
        ] {
            let (_, report) = fuse(&decoded, &stats, &cfg);
            assert_eq!(report.pairs, 0, "cold pair must not fuse: {report:?}");
        }
    }

    #[test]
    fn low_coverage_pairs_are_skipped_by_the_profitability_threshold() {
        // A once-executed load+move prologue in front of a hot counted
        // loop that opens with another: the prologue pair is hot (it
        // ran), but its single execution is ~0.25‰ of the run — below
        // the default 5‰ profitability threshold it must stay unfused,
        // while the loop pair (~250‰) fuses.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let lp = a.fresh_label();
            let (base, i, w, v) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
            a.bind(e);
            a.emit(Op::MvI {
                d: base,
                w: Word::int(8),
            });
            a.emit(Op::MvI {
                d: i,
                w: Word::int(0),
            });
            ld_mv(a, w, v, base, 0);
            a.bind(lp);
            ld_mv(a, w, v, base, 1);
            bump(a, i);
            a.emit(Op::Br {
                cond: Cond::Lt,
                a: i,
                b: Operand::Imm(1000),
                t: lp,
            });
            a.emit(Op::Halt { success: true });
            e
        });
        let decoded = DecodedProgram::new(&p);
        let stats = profile_of(&decoded);
        let (fused, report) = fuse(&decoded, &stats, &FuseConfig::default());
        assert_eq!(report.ld_mv, 1, "cold prologue pair skipped: {report:?}");
        assert!(matches!(fused.micro[2], MicroOp::Ld { .. }));
        // Disabling the threshold fuses every hot legal pair.
        let permissive = FuseConfig {
            min_pair_permille: 0,
        };
        let (_, all) = fuse(&decoded, &stats, &permissive);
        assert_eq!(all.ld_mv, 2);
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
    fn fusion_is_deterministic_and_profile_hash_is_stable() {
        let p = ld_mv_loop(64);
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let cfg = ExecConfig::default();
        let (_, s1, _, p1) = DecodedEmulator::new(&decoded, &layout).run_with_profile(&cfg);
        let (_, s2, _, p2) = DecodedEmulator::new(&decoded, &layout).run_with_profile(&cfg);
        assert_eq!(profile_hash(&s1, &p1), profile_hash(&s2, &p2));
        let (f1, r1) = fuse(&decoded, &s1, &FuseConfig::default());
        let (f2, r2) = fuse(&decoded, &s2, &FuseConfig::default());
        assert_eq!(r1, r2);
        assert_eq!(f1.to_wire_bytes(), f2.to_wire_bytes());
        // A different profile (shorter loop) hashes differently.
        let q = ld_mv_loop(65);
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
        let (fused, report) = fuse(&base, &profile_of(&base), &FuseConfig::default());
        assert!(report.pairs > 0, "the test needs a fused pair");
        (base, fused)
    }

    #[test]
    fn fusions_are_recognised_and_the_base_is_its_own_fusion() {
        for p in [ld_mv_loop(100), deref_loop(100)] {
            let (base, fused) = base_and_fused(&p);
            assert!(is_fusion_of(&fused, &base));
            assert!(is_fusion_of(&base, &base), "zero pairs is a fusion");
            assert!(
                !is_fusion_of(&base, &fused),
                "a fused head is no base record"
            );
        }
    }

    #[test]
    fn a_head_over_a_branch_target_is_not_a_fusion() {
        // pc 3 is the loop target; the Ld at 2 and the Mv at 3 match
        // the load+move shape, but the loop would skip the head.
        let base = DecodedProgram::new(&ld_mv_into_a_loop_head());
        assert!(base.is_branch_target(3));
        let (head, _) = fuse_pair(base.micro[2], base.micro[3]).expect("a fused shape");
        assert!(!is_fusion_of(&with_record(&base, 2, head), &base));
    }

    #[test]
    fn a_changed_interior_is_not_a_fusion() {
        let (base, fused) = base_and_fused(&ld_mv_loop(100));
        // The loop's load+move pair: head at pc 2, interior at pc 3.
        assert!(matches!(fused.micro[2], MicroOp::LdMv { .. }));
        let mut interior = fused.micro[3];
        let MicroOp::Mv { s, .. } = &mut interior else {
            panic!("interior kept: {interior:?}");
        };
        *s += 1;
        assert!(!is_fusion_of(&with_record(&fused, 3, interior), &base));
    }

    #[test]
    fn a_head_the_matcher_would_not_build_is_not_a_fusion() {
        let (base, fused) = base_and_fused(&ld_mv_loop(100));
        let mut head = fused.micro[2];
        let MicroOp::LdMv { off, .. } = &mut head else {
            panic!("head at pc 2: {head:?}");
        };
        *off += 1;
        assert!(!is_fusion_of(&with_record(&fused, 2, head), &base));
        // Nor is a head over a base pair with no fused shape: the add
        // at pc 4 and the branch behind it.
        assert!(!base.is_branch_target(5));
        assert!(!is_fusion_of(&with_record(&base, 4, fused.micro[2]), &base));
    }

    #[test]
    fn overlapping_pairs_are_not_a_fusion() {
        // BrTag, Ld, Mv: (1, 2) is a BrTag+Ld pair and (2, 3) a Ld+Mv
        // pair.
        let p = assemble(|a| {
            let e = a.fresh_label();
            let done = a.fresh_label();
            let (base, w, v) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
            a.bind(e);
            a.emit(Op::MvI {
                d: base,
                w: Word::int(8),
            });
            a.emit(Op::BrTag {
                a: base,
                tag: Tag::Ref,
                eq: true,
                t: done,
            });
            ld_mv(a, w, v, base, 0);
            a.bind(done);
            a.emit(Op::Halt { success: true });
            e
        });
        let base = DecodedProgram::new(&p);
        let (tag_deref, _) = fuse_pair(base.micro[1], base.micro[2]).expect("BrTag+Ld");
        let (ld_mv, _) = fuse_pair(base.micro[2], base.micro[3]).expect("Ld+Mv");
        let first = with_record(&base, 1, tag_deref);
        assert!(is_fusion_of(&first, &base));
        assert!(is_fusion_of(&with_record(&base, 2, ld_mv), &base));
        assert!(!is_fusion_of(&with_record(&first, 2, ld_mv), &base));
    }

    #[test]
    fn a_different_label_table_entry_or_register_file_is_not_a_fusion() {
        let (base, fused) = base_and_fused(&ld_mv_loop(100));
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
            tag_deref: 1,
            ld_mv: 2,
            dispatches_saved: 1234,
            ops_fused: 2500,
            total_ops: 9000,
        };
        let mut w = Writer::new();
        r.encode_into(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 6 * 8, "six u64 fields");
        let mut rd = Reader::new(&bytes);
        let back = FusionReport::decode_from(&mut rd).expect("decodes");
        rd.finish().expect("fully consumed");
        assert_eq!(back, r);
    }
}
