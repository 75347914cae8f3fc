//! Differential suite for the pre-decoded execution engines: every
//! built-in benchmark runs through both the legacy op-at-a-time
//! interpreters and the decoded micro-op engines, and the results must
//! be **bit-identical** — same `Outcome`, step counts and branch
//! statistics for the emulator; same `SimResult` down to every counter
//! for the VLIW simulator. The decoded engines are the default
//! production path (`Compiled::run_sequential`, the experiment
//! drivers), so any divergence here is a correctness bug, not a perf
//! regression.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use symbol_compactor::{try_compact, CompactMode, Compactor, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::experiments::{measure_cached, sim_jobs};
use symbol_core::pipeline::{Compiled, CompiledCache};
use symbol_intcode::fuse::{fuse, is_fusion_of, FuseConfig};
use symbol_intcode::{ArenaPool, DecodedEmulator, DecodedProgram, Emulator, ExecConfig, Layout};
use symbol_obs::Registry;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, VliwSim};

/// Runs `f` once per benchmark, in parallel, propagating panics with
/// the benchmark name attached.
fn for_each_benchmark(f: impl Fn(&benchmarks::Benchmark) + Sync) {
    thread::scope(|s| {
        let handles: Vec<_> = benchmarks::ALL
            .iter()
            .map(|b| (b.name, s.spawn(|| f(b))))
            .collect();
        for (name, h) in handles {
            if h.join().is_err() {
                panic!("differential check failed for benchmark `{name}`");
            }
        }
    });
}

#[test]
fn emulator_decoded_matches_legacy_on_every_benchmark() {
    for_each_benchmark(|b| {
        let compiled = Compiled::from_source(b.source).expect("compiles");
        let cfg = ExecConfig::default();
        let legacy = Emulator::new(&compiled.ici, &compiled.layout)
            .run(&cfg)
            .expect("legacy run");
        let decoded = DecodedEmulator::new(&compiled.decoded, &compiled.layout)
            .run(&cfg)
            .expect("decoded run");
        assert_eq!(decoded.outcome, legacy.outcome, "{}: outcome", b.name);
        assert_eq!(decoded.steps, legacy.steps, "{}: steps", b.name);
        assert_eq!(
            decoded.stats.expect, legacy.stats.expect,
            "{}: per-op expect counts",
            b.name
        );
        assert_eq!(
            decoded.stats.taken, legacy.stats.taken,
            "{}: per-op taken counts",
            b.name
        );
    });
}

/// Three-way check for the profile-guided superinstruction tier: the
/// fused program produced from each benchmark's own execution profile
/// must be bit-identical to *both* scalar engines — outcome, step
/// count, per-op Expect / taken statistics, and the per-constituent
/// execution trace. Fusion is a pure dispatch optimisation; any
/// architectural difference it introduces is a bug.
#[test]
fn emulator_fused_matches_decoded_and_legacy_on_every_benchmark() {
    let total_pairs = AtomicU64::new(0);
    for_each_benchmark(|b| {
        let compiled = Compiled::from_source(b.source).expect("compiles");
        let cfg = ExecConfig::default();
        let legacy = Emulator::new(&compiled.ici, &compiled.layout)
            .run(&cfg)
            .expect("legacy run");
        let (dres, dstats, dsteps, dprof) =
            DecodedEmulator::new(&compiled.decoded, &compiled.layout).run_with_profile(&cfg);
        let doutcome = dres.expect("decoded run");
        let (fused, report) = fuse(&compiled.decoded, &dstats, &dprof, &FuseConfig::default());
        total_pairs.fetch_add(report.pairs, Ordering::Relaxed);

        let (fres, fstats, fsteps) =
            DecodedEmulator::new(&fused, &compiled.layout).run_with_stats(&cfg);
        let foutcome = fres.expect("fused run");
        assert_eq!(foutcome, legacy.outcome, "{}: outcome vs legacy", b.name);
        assert_eq!(foutcome, doutcome, "{}: outcome vs decoded", b.name);
        assert_eq!(fsteps, legacy.steps, "{}: steps vs legacy", b.name);
        assert_eq!(fsteps, dsteps, "{}: steps vs decoded", b.name);
        assert_eq!(
            fstats.expect, legacy.stats.expect,
            "{}: per-op expect counts",
            b.name
        );
        assert_eq!(
            fstats.taken, legacy.stats.taken,
            "{}: per-op taken counts",
            b.name
        );

        // Per-constituent trace parity: a fused pair must leave the
        // same footprint in the circular op trace as its two halves.
        let mut traced_decoded = DecodedEmulator::new(&compiled.decoded, &compiled.layout);
        traced_decoded.set_trace(64);
        let _ = traced_decoded.run_with_stats(&cfg);
        let mut traced_fused = DecodedEmulator::new(&fused, &compiled.layout);
        traced_fused.set_trace(64);
        let _ = traced_fused.run_with_stats(&cfg);
        assert_eq!(
            traced_fused.trace(),
            traced_decoded.trace(),
            "{}: execution trace",
            b.name
        );
    });
    assert!(
        total_pairs.load(Ordering::Relaxed) > 0,
        "the fusion pass found no hot pairs across the whole suite — \
         the tier is not being exercised"
    );
}

/// The serving loop on the fused tier: on every benchmark, with the
/// fused tier attached, the stats-off loop (`Compiled::run_batch` on
/// the serving program, the loop every served query runs) and the
/// stats-on loop must give the legacy engine's outcome or error and
/// step count at the step limits where a run ends differently: none,
/// one step, one step short of the end, exactly the end, and either
/// side of the second half of the first fused pair that runs whole.
#[test]
fn serving_loop_on_the_fused_tier_matches_legacy_at_every_step_limit() {
    let split_pairs = AtomicU64::new(0);
    for_each_benchmark(|b| {
        let mut compiled = Compiled::from_source(b.source).expect("compiles");
        let full = Emulator::new(&compiled.ici, &compiled.layout)
            .run(&ExecConfig::default())
            .expect("legacy run")
            .steps;
        compiled.build_fused_tier().expect("fuses");
        let fused = compiled.serving_program();
        let mut limits = vec![0, 1, full - 1, full];
        if let Some(second) = first_whole_pair(fused, &compiled.layout, full) {
            // `second` ops run before the second half: a limit of
            // `second` stops between the halves, one more runs both.
            limits.extend([second, second + 1]);
            split_pairs.fetch_add(1, Ordering::Relaxed);
        }
        let mut pool = ArenaPool::new();
        for max_steps in limits {
            let cfg = ExecConfig { max_steps };
            let (lres, lstats, lsteps) =
                Emulator::new(&compiled.ici, &compiled.layout).run_with_stats(&cfg);
            let served = compiled.run_batch(&[cfg], &mut pool).remove(0);
            assert_eq!(served.result, lres, "{} at {max_steps}: served", b.name);
            assert_eq!(served.steps, lsteps, "{} at {max_steps}: served", b.name);
            let (fres, fstats, fsteps) =
                DecodedEmulator::new(fused, &compiled.layout).run_with_stats(&cfg);
            assert_eq!(fres, lres, "{} at {max_steps}: stats on", b.name);
            assert_eq!(fsteps, lsteps, "{} at {max_steps}: stats on", b.name);
            assert_eq!(fstats.expect, lstats.expect, "{} at {max_steps}", b.name);
            assert_eq!(fstats.taken, lstats.taken, "{} at {max_steps}", b.name);
        }
    });
    assert!(
        split_pairs.load(Ordering::Relaxed) > 0,
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
        ..FuseConfig::default()
    };
    for_each_benchmark(|b| {
        let compiled = Compiled::from_source(b.source).expect("compiles");
        let (stats, profile, _) = compiled.profile().expect("profiles");
        let pairs = [FuseConfig::default(), every_pair].map(|cfg| {
            let (fused, report) = fuse(&compiled.decoded, &stats, &profile, &cfg);
            assert!(
                is_fusion_of(&fused, &compiled.decoded),
                "{}: {cfg:?}",
                b.name
            );
            if report.pairs > 0 {
                assert!(!is_fusion_of(&compiled.decoded, &fused), "{}", b.name);
            }
            report.pairs
        });
        assert!(pairs[1] >= pairs[0], "{}: {pairs:?}", b.name);
    });
}

/// Observability must never change a result: the fully instrumented
/// pipeline (live registry, spans, counters, events) and the profiled
/// engine monomorphizations must produce bit-identical outcomes,
/// per-op statistics and simulation counters versus the plain path.
#[test]
fn instrumentation_on_and_off_are_bit_identical_on_every_benchmark() {
    for_each_benchmark(|b| {
        let obs = Registry::new();

        // Compilation + sequential run, plain vs observed.
        let plain = Compiled::from_source(b.source).expect("compiles");
        let observed = Compiled::from_source_obs(b.source, Default::default(), &obs, b.name)
            .expect("compiles");
        let plain_run = plain.run_sequential().expect("plain run");
        let observed_run = observed
            .run_sequential_obs(&obs, b.name)
            .expect("observed run");
        assert_eq!(
            observed_run.outcome, plain_run.outcome,
            "{}: outcome",
            b.name
        );
        assert_eq!(observed_run.steps, plain_run.steps, "{}: steps", b.name);
        assert_eq!(
            observed_run.stats.expect, plain_run.stats.expect,
            "{}: per-op expect counts",
            b.name
        );
        assert_eq!(
            observed_run.stats.taken, plain_run.stats.taken,
            "{}: per-op taken counts",
            b.name
        );

        // PROFILE = true emulator monomorphization vs the plain engine.
        let (outcome, stats, steps, _profile) = DecodedEmulator::new(&plain.decoded, &plain.layout)
            .run_with_profile(&ExecConfig::default());
        assert_eq!(outcome.expect("profiled run"), plain_run.outcome);
        assert_eq!(steps, plain_run.steps, "{}: profiled steps", b.name);
        assert_eq!(
            stats.expect, plain_run.stats.expect,
            "{}: profiled expect",
            b.name
        );

        // The profiled VLIW run vs the plain one.
        let machine = MachineConfig::units(3);
        let compacted = try_compact(
            &plain.ici,
            &plain_run.stats,
            &machine,
            CompactMode::TraceSchedule,
            &TracePolicy::default(),
        )
        .expect("compacts");
        let lowered = DecodedVliw::new(&compacted.program, machine);
        let cfg = SimConfig::default();
        let plain_sim = DecodedVliwSim::new(&lowered, &plain.layout)
            .run(&cfg)
            .expect("plain sim");
        let (profiled_sim, _) = DecodedVliwSim::new(&lowered, &plain.layout).run_profiled(&cfg);
        let profiled_sim = profiled_sim.expect("profiled sim");
        assert_eq!(profiled_sim, plain_sim, "{}: SimResult", b.name);

        // The whole experiment driver, observed vs not.
        let cache = CompiledCache::new(&plain).expect("cache");
        let silent =
            measure_cached(b.name, &cache, 1, &Registry::disabled()).expect("silent measure");
        let loud = measure_cached(b.name, &cache, 1, &obs).expect("observed measure");
        assert_eq!(loud, silent, "{}: BenchResult", b.name);
    });
}

#[test]
fn vliw_decoded_matches_legacy_on_every_benchmark() {
    let combos = [
        (CompactMode::TraceSchedule, MachineConfig::units(3)),
        (CompactMode::BasicBlock, MachineConfig::prototype()),
        (CompactMode::TraceSchedule, MachineConfig::unbounded()),
    ];
    for_each_benchmark(|b| {
        let compiled = Compiled::from_source(b.source).expect("compiles");
        let run = compiled.run_sequential().expect("profiling run");
        let compactor = Compactor::new(&compiled.ici, &run.stats, &TracePolicy::default());
        for (mode, machine) in combos {
            let compacted = compactor.compact(&machine, mode).expect("compacts");
            let cfg = SimConfig::default();
            let legacy = VliwSim::new(&compacted.program, machine, &compiled.layout)
                .run(&cfg)
                .unwrap_or_else(|e| panic!("{}: legacy {mode:?} sim: {e}", b.name));
            let lowered = DecodedVliw::new(&compacted.program, machine);
            let fast = DecodedVliwSim::new(&lowered, &compiled.layout)
                .run(&cfg)
                .unwrap_or_else(|e| panic!("{}: decoded {mode:?} sim: {e}", b.name));
            assert_eq!(fast.outcome, legacy.outcome, "{}/{mode:?}: outcome", b.name);
            assert_eq!(fast.cycles, legacy.cycles, "{}/{mode:?}: cycles", b.name);
            assert_eq!(
                fast.instructions, legacy.instructions,
                "{}/{mode:?}: instructions",
                b.name
            );
            assert_eq!(fast.ops, legacy.ops, "{}/{mode:?}: ops", b.name);
            assert_eq!(
                fast.taken_branches, legacy.taken_branches,
                "{}/{mode:?}: taken branches",
                b.name
            );
            assert_eq!(
                fast.class_ops, legacy.class_ops,
                "{}/{mode:?}: per-class op counts",
                b.name
            );
        }
    });
}

#[test]
fn vliw_profile_accounts_for_every_issued_word_on_every_tables_job() {
    for_each_benchmark(|b| {
        let compiled = Compiled::from_source(b.source).expect("compiles");
        let run = compiled.run_sequential().expect("profiling run");
        let compactor = Compactor::new(&compiled.ici, &run.stats, &TracePolicy::default());
        for (mode, machine) in sim_jobs() {
            let what = format!("{}/{mode:?}/{}", b.name, machine.describe());
            let compacted = compactor.compact(&machine, mode).expect("compacts");
            let lowered = DecodedVliw::new(&compacted.program, machine);
            let (result, profile) =
                DecodedVliwSim::new(&lowered, &compiled.layout).run_profiled(&SimConfig::default());
            let r = result.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                profile.occupancy.iter().sum::<u64>(),
                r.instructions,
                "{what}: occupancy"
            );
            let ops: u64 = (0..)
                .zip(&profile.occupancy)
                .map(|(k, &n): (u64, _)| k * n)
                .sum();
            assert_eq!(ops, r.ops, "{what}: ops by occupancy");
            assert_eq!(profile.empty_words, profile.occupancy[0], "{what}");
            assert_eq!(profile.class_busy, r.class_ops, "{what}: class busy");
            assert_eq!(
                profile.branch_bubble_cycles,
                r.taken_branches * machine.taken_branch_penalty as u64,
                "{what}: bubbles"
            );
        }
    });
}
