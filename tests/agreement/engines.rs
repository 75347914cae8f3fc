//! The sequential engines: the decoded and fused emulators agree with
//! the legacy interpreter, the serving loop agrees with it at every
//! step limit where a run ends differently, and every program the
//! fusion pass builds is one the artifact cache's check accepts.

use symbol_intcode::fuse::{fuse, is_fusion_of, FuseConfig};
use symbol_intcode::{ArenaPool, DecodedEmulator, DecodedProgram, Emulator, ExecConfig, Layout};

use crate::{benches, fixture, par_map};

/// The fixture's two sequential runs of every program agree: same
/// outcome, step count and per-op Expect and taken counts.
#[test]
fn emulator_decoded_matches_legacy_on_every_program() {
    for p in fixture() {
        assert_eq!(p.run.outcome, p.legacy.outcome, "{}: outcome", p.name);
        assert_eq!(p.run.steps, p.legacy.steps, "{}: steps", p.name);
        assert_eq!(
            p.run.stats.expect, p.legacy.stats.expect,
            "{}: per-op expect counts",
            p.name
        );
        assert_eq!(
            p.run.stats.taken, p.legacy.stats.taken,
            "{}: per-op taken counts",
            p.name
        );
    }
}

/// Three-way check for the profile-guided superinstruction tier: the
/// fused program produced from each benchmark's own execution profile
/// must be bit-identical to *both* scalar engines — outcome, step
/// count, per-op Expect / taken statistics, and the per-constituent
/// execution trace. Fusion is a pure dispatch optimisation; any
/// architectural difference it introduces is a bug.
#[test]
fn emulator_fused_matches_decoded_and_legacy_on_every_benchmark() {
    let pairs = par_map(benches(), |p| {
        let (layout, cfg) = (&p.compiled.layout, ExecConfig::default());
        let (fused, report) = fuse(&p.compiled.decoded, &p.run.stats, &FuseConfig::default());
        let (fres, fstats, fsteps) = DecodedEmulator::new(&fused, layout).run_with_stats(&cfg);
        let foutcome = fres.expect("fused run");
        assert_eq!(foutcome, p.legacy.outcome, "{}: outcome vs legacy", p.name);
        assert_eq!(foutcome, p.run.outcome, "{}: outcome vs decoded", p.name);
        assert_eq!(fsteps, p.legacy.steps, "{}: steps vs legacy", p.name);
        assert_eq!(fsteps, p.run.steps, "{}: steps vs decoded", p.name);
        assert_eq!(
            fstats.expect, p.legacy.stats.expect,
            "{}: per-op expect counts",
            p.name
        );
        assert_eq!(
            fstats.taken, p.legacy.stats.taken,
            "{}: per-op taken counts",
            p.name
        );

        // Per-constituent trace parity: a fused pair must leave the
        // same footprint in the circular op trace as its two halves.
        let mut traced_decoded = DecodedEmulator::new(&p.compiled.decoded, layout);
        traced_decoded.set_trace(64);
        let _ = traced_decoded.run_with_stats(&cfg);
        let mut traced_fused = DecodedEmulator::new(&fused, layout);
        traced_fused.set_trace(64);
        let _ = traced_fused.run_with_stats(&cfg);
        assert_eq!(
            traced_fused.trace(),
            traced_decoded.trace(),
            "{}: execution trace",
            p.name
        );
        report.pairs
    });
    assert!(
        pairs.iter().sum::<u64>() > 0,
        "the fusion pass found no hot pairs across the whole suite — \
         the tier is not being exercised"
    );
}

/// The serving loop on the fused tier: on every benchmark, with the
/// fused tier attached, the stats-off loop (`Compiled::run_batch` on
/// the serving program, the loop every served query runs) and the
/// stats-on loop must give the legacy engine's outcome or error and
/// step count at the step limits where a run ends differently: zero
/// steps, one step, one step short of the end, exactly the end, and either
/// side of the second half of the first fused pair that runs whole.
#[test]
fn serving_loop_on_the_fused_tier_matches_legacy_at_every_step_limit() {
    let split_pairs = par_map(benches(), |p| {
        let compiled = p.fused_image();
        let (fused, layout) = (compiled.serving_program(), &compiled.layout);
        let full = p.legacy.steps;
        // A limit of exactly `full` runs the whole query, whose legacy
        // run is the fixture's; any other stops the legacy engine early,
        // on a run of its own.
        let legacy = |max_steps: u64| {
            if max_steps == full {
                (Ok(p.legacy.outcome), p.legacy.stats.clone(), full)
            } else {
                Emulator::new(&compiled.ici, layout).run_with_stats(&ExecConfig { max_steps })
            }
        };
        let mut limits = vec![0, 1, full - 1, full];
        let second = first_whole_pair(fused, layout, full);
        if let Some(second) = second {
            // `second` ops run before the second half: a limit of
            // `second` stops between the halves, one more runs both.
            limits.extend([second, second + 1]);
        }
        let mut pool = ArenaPool::new();
        for max_steps in limits {
            let cfg = ExecConfig { max_steps };
            let (lres, lstats, lsteps) = legacy(max_steps);
            let served = compiled.run_batch(&[cfg], &mut pool).remove(0);
            assert_eq!(served.result, lres, "{} at {max_steps}: served", p.name);
            assert_eq!(served.steps, lsteps, "{} at {max_steps}: served", p.name);
            let (fres, fstats, fsteps) = DecodedEmulator::new(fused, layout).run_with_stats(&cfg);
            assert_eq!(fres, lres, "{} at {max_steps}: stats on", p.name);
            assert_eq!(fsteps, lsteps, "{} at {max_steps}: stats on", p.name);
            assert_eq!(fstats.expect, lstats.expect, "{} at {max_steps}", p.name);
            assert_eq!(fstats.taken, lstats.taken, "{} at {max_steps}", p.name);
        }
        second.is_some()
    });
    assert!(
        split_pairs.contains(&true),
        "no benchmark ran a whole fused pair"
    );
}

/// The number of ops a run of `program` executes before the second half
/// of its first fused pair that runs whole (a taken tag check runs only
/// the head), or `None` when no pair runs whole in its `full` steps.
/// One traced run over the whole execution finds it; a program without
/// a fused pair is not run.
fn first_whole_pair(program: &DecodedProgram, layout: &Layout, full: u64) -> Option<u64> {
    if !(0..program.len()).any(|pc| program.is_fused_head(pc)) {
        return None;
    }
    let mut emu = DecodedEmulator::new(program, layout);
    emu.set_trace(full as usize);
    emu.run(&ExecConfig::default()).expect("fused run");
    emu.trace()
        .windows(2)
        .position(|w| program.is_fused_head(w[0]) && w[1] == w[0] + 1)
        .map(|i| i as u64 + 1)
}

/// The check the artifact cache runs on a stored fused tier accepts
/// every program the fusion pass builds: on every benchmark, at the
/// default thresholds and with the profitability threshold off, so that
/// every legal pair the profile reaches is fused.
#[test]
fn fused_programs_are_legal_fusions_of_their_base_on_every_benchmark() {
    let every_pair = FuseConfig {
        min_pair_permille: 0,
    };
    par_map(benches(), |p| {
        let base = &p.compiled.decoded;
        let pairs = [FuseConfig::default(), every_pair].map(|cfg| {
            let (fused, report) = fuse(base, &p.run.stats, &cfg);
            assert!(is_fusion_of(&fused, base), "{}: {cfg:?}", p.name);
            if report.pairs > 0 {
                assert!(!is_fusion_of(base, &fused), "{}", p.name);
            }
            report.pairs
        });
        assert!(pairs[1] >= pairs[0], "{}: {pairs:?}", p.name);
    });
}
