//! The experiment drivers: the parallel drivers must be *bit-identical*
//! to their sequential counterparts — every `f64` statistic, every
//! cycle count, every histogram bin — and the instrumented pipeline to
//! the plain one. Results are collected by work-list index, so thread
//! scheduling can reorder completion but never output.

use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::experiments::{measure, measure_cached};
use symbol_core::{Compiled, CompiledCache};
use symbol_intcode::{DecodedEmulator, ExecConfig};
use symbol_obs::Registry;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig};

use crate::{benches, par_map, program};

#[test]
fn parallel_simulations_are_bit_identical_to_sequential() {
    for name in ["conc30", "nreverse", "qsort", "serialise"] {
        let cache = CompiledCache::new(&program(name).compiled).expect("profiles");
        let sequential = measure_cached(name, &cache, 1, &Registry::disabled()).expect("measures");
        // Oversubscribe relative to the 8-entry work list so workers
        // genuinely contend for jobs.
        for threads in [2, 8, 32] {
            let parallel =
                measure_cached(name, &cache, threads, &Registry::disabled()).expect("measures");
            assert_eq!(
                sequential, parallel,
                "{name}: {threads}-thread driver diverged from sequential"
            );
        }
    }
}

#[test]
fn cached_profile_reproduces_the_standalone_driver() {
    // measure() compiles and profiles internally; going through an
    // explicitly shared CompiledCache must change nothing.
    let b = benchmarks::by_name("nreverse").expect("known benchmark");
    let standalone = measure(b).expect("measures");
    let cache = CompiledCache::new(&program(b.name).compiled).expect("profiles");
    let cached = measure_cached(b.name, &cache, 4, &Registry::disabled()).expect("measures");
    assert_eq!(standalone, cached);
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let cache = CompiledCache::new(&program("qsort").compiled).expect("profiles");
    let first = measure_cached("qsort", &cache, 8, &Registry::disabled()).expect("measures");
    let second = measure_cached("qsort", &cache, 8, &Registry::disabled()).expect("measures");
    assert_eq!(first, second);
}

/// Observability must never change a result: the fully instrumented
/// pipeline (live registry, spans, counters, events) and the profiled
/// engine monomorphizations must produce bit-identical outcomes,
/// per-op statistics and simulation counters versus the plain path.
#[test]
fn instrumentation_on_and_off_are_bit_identical_on_every_benchmark() {
    par_map(benches(), |p| {
        let obs = Registry::new();

        // Compilation + sequential run, plain vs observed.
        let (plain, plain_run) = (&p.compiled, &p.run);
        let observed = Compiled::from_source_obs(p.source, Default::default(), &obs, p.name)
            .expect("compiles");
        let observed_run = observed
            .run_sequential_obs(&obs, p.name)
            .expect("observed run");
        assert_eq!(
            observed_run.outcome, plain_run.outcome,
            "{}: outcome",
            p.name
        );
        assert_eq!(observed_run.steps, plain_run.steps, "{}: steps", p.name);
        assert_eq!(
            observed_run.stats.expect, plain_run.stats.expect,
            "{}: per-op expect counts",
            p.name
        );
        assert_eq!(
            observed_run.stats.taken, plain_run.stats.taken,
            "{}: per-op taken counts",
            p.name
        );

        // PROFILE = true emulator monomorphization vs the plain engine.
        let (outcome, stats, steps, _profile) = DecodedEmulator::new(&plain.decoded, &plain.layout)
            .run_with_profile(&ExecConfig::default());
        assert_eq!(outcome.expect("profiled run"), plain_run.outcome);
        assert_eq!(steps, plain_run.steps, "{}: profiled steps", p.name);
        assert_eq!(
            stats.expect, plain_run.stats.expect,
            "{}: profiled expect",
            p.name
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
        assert_eq!(profiled_sim, plain_sim, "{}: SimResult", p.name);

        // The whole experiment driver, observed vs not.
        let cache = CompiledCache::new(plain).expect("cache");
        let silent =
            measure_cached(p.name, &cache, 1, &Registry::disabled()).expect("silent measure");
        let loud = measure_cached(p.name, &cache, 1, &obs).expect("observed measure");
        assert_eq!(loud, silent, "{}: BenchResult", p.name);
    });
}
