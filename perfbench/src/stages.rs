//! The Figure 1 chain stage by stage, one span per layer call.
//!
//! A traced repetition repeats the untraced one's work through the same
//! public functions the library entry points call internally, so every
//! layer's time is attributed by spans recorded here, in the
//! benchmark's own code, without instrumenting the program.

use std::sync::atomic::{AtomicUsize, Ordering};

use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_core::pipeline::{Compiled, CompiledCache, FrontEnd, PipelineError};
use symbol_intcode::{DecodedEmulator, DecodedProgram, ExecConfig, Layout, Outcome};
use symbol_obs::Registry;
use symbol_prolog::PredId;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, SimOutcome, SimResult};

/// Span names: one per layer call the traced runs make.
pub const PARSE: &str = "prolog.parse";
pub const BAM: &str = "bam.compile";
pub const TRANSLATE: &str = "intcode.translate";
pub const DECODE: &str = "intcode.decode";
/// One whole query: engine construction plus execution.
pub const EMU_QUERY: &str = "intcode.emu.query";
pub const EMU_SETUP: &str = "intcode.emu.setup";
pub const EMU_RUN: &str = "intcode.emu.run";
pub const FUSED_RUN: &str = "intcode.fused.run";
pub const PROFILE: &str = "intcode.profile";
pub const FUSE: &str = "intcode.fuse";
pub const ANALYSIS: &str = "analysis";
pub const COMPACT: &str = "compactor";
pub const LOWER: &str = "vliw.lower";
pub const SIM_SETUP: &str = "vliw.sim.setup";
pub const SIM_RUN: &str = "vliw.sim.run";
pub const CACHE_READ: &str = "serve.cache.read";
pub const CACHE_STORE: &str = "serve.cache.store";
pub const SERVER: &str = "serve.server";
pub const ENGINE: &str = "serve.engine";

/// Counter names recorded next to the spans.
pub const RUN_STEPS: &str = "intcode.emu.run_steps";
pub const FUSED_STEPS: &str = "intcode.fused.run_steps";
pub const COMPACT_CALLS: &str = "compactor.calls";
pub const COMPACT_OPS_IN: &str = "compactor.ops_in";
pub const COMPACT_OPS_OUT: &str = "compactor.ops_out";
pub const SIM_CYCLES: &str = "vliw.sim.cycles";
pub const FUSE_PAIRS: &str = "intcode.fuse.pairs";
pub const CACHE_LOADS: &str = "serve.cache.loads";
pub const CACHE_HITS: &str = "serve.cache.hits";
pub const ENGINE_QUERIES: &str = "serve.engine.queries";

/// The front end of `Compiled::from_source`: parse, BAM compile,
/// translate and decode, one span each.
pub fn compile(src: &str, bench: &str, obs: &Registry) -> Result<Compiled, PipelineError> {
    let labels: &[(&str, &str)] = &[("bench", bench)];
    let program = {
        let _span = obs.span(PARSE, labels);
        symbol_prolog::parse_program(src)?
    };
    let bam = {
        let _span = obs.span(BAM, labels);
        symbol_bam::compile(&program)?
    };
    let main = program
        .symbols()
        .lookup("main")
        .map(|atom| PredId::new(atom, 0))
        .filter(|&main| program.predicate(main).is_some())
        .ok_or(PipelineError::NoMain)?;
    let layout = Layout::default();
    let ici = {
        let _span = obs.span(TRANSLATE, labels);
        symbol_intcode::translate(&bam, main, &layout)?
    };
    let decoded = {
        let _span = obs.span(DECODE, labels);
        DecodedProgram::new(&ici)
    };
    Ok(Compiled {
        front: Some(FrontEnd { program, bam }),
        ici,
        decoded,
        layout,
        fused: None,
    })
}

/// The sequential profiling run of `CompiledCache::new`, with engine
/// construction and execution as separate spans inside one query span.
pub fn profile<'a>(
    compiled: &'a Compiled,
    bench: &str,
    obs: &Registry,
) -> Result<CompiledCache<'a>, PipelineError> {
    let labels: &[(&str, &str)] = &[("bench", bench)];
    let _query = obs.span(EMU_QUERY, labels);
    let mut emu = {
        let _span = obs.span(EMU_SETUP, labels);
        DecodedEmulator::new(&compiled.decoded, &compiled.layout)
    };
    let run = {
        let _span = obs.span(EMU_RUN, labels);
        emu.run(&ExecConfig::default())?
    };
    obs.counter(RUN_STEPS, &[]).add(run.steps);
    if run.outcome != Outcome::Success {
        return Err(PipelineError::WrongAnswer);
    }
    Ok(CompiledCache { compiled, run })
}

/// One (mode, machine) cell: compaction, lowering, simulator set-up and
/// simulation, one span each — the per-cell work of
/// `measure_cached` and `run_sweep`.
pub fn simulate(
    cache: &CompiledCache<'_>,
    machine: MachineConfig,
    mode: CompactMode,
    bench: &str,
    obs: &Registry,
) -> Result<SimResult, PipelineError> {
    let labels: &[(&str, &str)] = &[("bench", bench)];
    let compiled = cache.compiled;
    let compacted = {
        let _span = obs.span(COMPACT, labels);
        try_compact(
            &compiled.ici,
            &cache.run.stats,
            &machine,
            mode,
            &TracePolicy::default(),
        )?
    };
    obs.counter(COMPACT_CALLS, &[]).inc();
    obs.counter(COMPACT_OPS_IN, &[])
        .add(compacted.stats.ops_in as u64);
    obs.counter(COMPACT_OPS_OUT, &[])
        .add(compacted.stats.ops_out as u64);
    let decoded = {
        let _span = obs.span(LOWER, labels);
        DecodedVliw::new(&compacted.program, machine)
    };
    let mut sim = {
        let _span = obs.span(SIM_SETUP, labels);
        DecodedVliwSim::new(&decoded, &compiled.layout)
    };
    let result = {
        let _span = obs.span(SIM_RUN, labels);
        sim.run(&SimConfig::default())?
    };
    obs.counter(SIM_CYCLES, &[]).add(result.cycles);
    if result.outcome != SimOutcome::Success {
        return Err(PipelineError::WrongAnswer);
    }
    Ok(result)
}

/// Runs `jobs` closures on up to `threads` scoped workers that take job
/// indices from a shared cursor, returning the results in job order.
/// This is the work distribution `measure_all_with` and `run_sweep`
/// use, so a traced repetition keeps the untraced one's thread count
/// and work order.
pub fn run_indexed<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(jobs);
    if workers <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(jobs).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("traced worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index produced a result"))
        .collect()
}
