//! Experiment drivers: everything needed to regenerate the paper's
//! tables and figures (see DESIGN.md's experiment index).
//!
//! [`measure`] runs one benchmark through the full evaluation system —
//! sequential emulation, the BAM cost model, basic-block and trace
//! compaction, and the 1–5 unit sweep — and returns every number the
//! reports consume. [`measure_suite_obs`] does it for a list of
//! benchmarks, usually [`crate::benchmarks::ALL`].

pub mod ablation;
pub mod reports;
pub mod sweep;

use std::sync::atomic::{AtomicUsize, Ordering};

use symbol_analysis::{ClassMix, PredictStats};
use symbol_compactor::{
    equal_duration_cycles, sequential_cycles, CompactMode, Compactor, SeqDurations, TracePolicy,
};
use symbol_intcode::Layout;
use symbol_obs::Registry;
use symbol_vliw::{MachineConfig, SimResult};

use crate::benchmarks::Benchmark;
use crate::pipeline::{self, Compiled, CompiledCache, PipelineError};

/// Unit counts of the Table 3 sweep.
pub const UNIT_SWEEP: [usize; 5] = [1, 2, 3, 4, 5];

/// Runs `jobs` independent closures on a bounded pool of scoped worker
/// threads, returning the results **in job-index order**.
///
/// A shared atomic cursor hands out job indices; each worker keeps its
/// `(index, result)` pairs locally and the results are scattered into
/// an index-addressed table after all workers join. Output order is
/// therefore a function of the job list alone — never of thread
/// scheduling — which is what makes the parallel experiment drivers
/// bit-identical to their sequential counterparts.
pub(crate) fn run_indexed<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
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
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("experiment worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index produced a result"))
        .collect()
}

/// Number of worker threads to use when the caller has no preference:
/// the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything measured for one benchmark.
///
/// `PartialEq` compares every field exactly (including the `f64`
/// statistics): the parallel drivers are required to reproduce the
/// sequential results bit for bit, so approximate comparison would
/// hide real nondeterminism.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Executed ops under the equal-duration hypothesis (Figure 2).
    pub ops: u64,
    /// Sequential-machine cycles (mem/ctrl = 2, rest 1).
    pub seq_cycles: u64,
    /// Dynamic instruction-class mix.
    pub mix: ClassMix,
    /// Execution-weighted average probability of faulty prediction.
    pub pfp_average: f64,
    /// Histogram of P_fp over [0, 0.5] (20 bins, Figure 4).
    pub pfp_histogram: Vec<f64>,
    /// BAM cost-model cycles.
    pub bam_cycles: u64,
    /// Trace-scheduled cycles for 1..=5 units.
    pub unit_cycles: Vec<u64>,
    /// Basic-block compaction on the unbounded machine (Table 1).
    pub bb_unbounded_cycles: u64,
    /// Trace scheduling on the unbounded machine (Table 1).
    pub trace_unbounded_cycles: u64,
    /// Execution-weighted average trace length in ops.
    pub trace_length: f64,
    /// Execution-weighted average basic-block length in ops.
    pub block_length: f64,
    /// Static code growth of trace scheduling (compensation +
    /// duplication copies).
    pub code_growth: f64,
    /// Resource utilization on the 3-unit machine: fraction of
    /// memory / ALU / move / control slot-cycles used (paper §3.2's
    /// simulator statistics).
    pub utilization3: [f64; symbol_intcode::OpClass::COUNT],
    /// Operations issued per cycle on the 3-unit machine.
    pub issue_rate3: f64,
}

impl BenchResult {
    /// Speed-up of the `units`-unit VLIW over the sequential machine.
    pub fn unit_speedup(&self, units: usize) -> f64 {
        self.seq_cycles as f64 / self.unit_cycles[units - 1] as f64
    }

    /// Speed-up of the BAM model over the sequential machine.
    pub fn bam_speedup(&self) -> f64 {
        self.seq_cycles as f64 / self.bam_cycles as f64
    }

    /// Table 1 speed-ups: (trace, basic-block) on the unbounded
    /// shared-memory machine.
    pub fn unbounded_speedups(&self) -> (f64, f64) {
        (
            self.seq_cycles as f64 / self.trace_unbounded_cycles as f64,
            self.seq_cycles as f64 / self.bb_unbounded_cycles as f64,
        )
    }

    /// SYMBOL-3 absolute time in milliseconds (3 units at 30 MHz).
    pub fn symbol3_ms(&self) -> f64 {
        self.unit_cycles[2] as f64 / crate::benchmarks::paper::SYMBOL3_CLOCK_HZ * 1e3
    }
}

/// Measures one benchmark through every machine configuration.
///
/// Each simulated configuration re-checks the program's answer; a
/// mismatch is reported as [`PipelineError::WrongAnswer`].
///
/// # Errors
///
/// Propagates compilation and execution errors.
pub fn measure(bench: &Benchmark) -> Result<BenchResult, PipelineError> {
    let compiled = Compiled::from_source(bench.source)?;
    let cache = CompiledCache::new(&compiled)?;
    measure_cached(bench.name, &cache, default_threads(), &Registry::disabled())
}

/// The fixed per-benchmark simulation work list: every (compaction
/// mode, machine configuration) pair one [`BenchResult`] consumes, in
/// the order the result fields are assembled from.
const SIM_JOBS: [(CompactMode, usize); 8] = [
    (CompactMode::BamGroups, 0),     // MachineConfig::bam()
    (CompactMode::BasicBlock, 6),    // MachineConfig::unbounded()
    (CompactMode::TraceSchedule, 6), // MachineConfig::unbounded()
    (CompactMode::TraceSchedule, 1),
    (CompactMode::TraceSchedule, 2),
    (CompactMode::TraceSchedule, 3),
    (CompactMode::TraceSchedule, 4),
    (CompactMode::TraceSchedule, 5),
];

/// Every (compaction mode, machine) pair one [`BenchResult`]
/// simulates, in work-list order.
pub fn sim_jobs() -> [(CompactMode, MachineConfig); 8] {
    SIM_JOBS.map(|(mode, code)| (mode, sim_machine(code)))
}

/// Decodes the machine column of [`SIM_JOBS`].
fn sim_machine(code: usize) -> MachineConfig {
    match code {
        0 => MachineConfig::bam(),
        6 => MachineConfig::unbounded(),
        n => MachineConfig::units(n),
    }
}

/// Stable metric-label name for the machine column of [`SIM_JOBS`].
fn machine_name(code: usize) -> &'static str {
    match code {
        0 => "bam",
        1 => "units1",
        2 => "units2",
        3 => "units3",
        4 => "units4",
        5 => "units5",
        _ => "unbounded",
    }
}

/// [`measure`] for a cached compilation + sequential profile, running
/// the per-(mode, machine) simulations on up to `threads` scoped
/// worker threads.
///
/// Every simulation consumes the cache's one shared [`CompiledCache::run`]
/// profile and one [`Compactor`] built from it immutably; results are
/// collected by work-list index, so the
/// returned [`BenchResult`] is bit-identical for every `threads`
/// value (asserted by the workspace determinism test).
///
/// Each simulation runs in a `simulate` span on `obs` — labelled with
/// the benchmark, the compaction mode and the machine — and adds
/// cycle/op counters per configuration. Spans carry the worker
/// thread's id, so the exported Chrome trace shows the simulation
/// fan-out across the pool. With [`Registry::disabled`] nothing is
/// recorded.
///
/// # Errors
///
/// Propagates execution errors; see [`measure`]. When several
/// simulations fail, the error of the lowest work-list index wins, so
/// errors are deterministic too.
pub fn measure_cached(
    name: &'static str,
    cache: &CompiledCache<'_>,
    threads: usize,
    obs: &Registry,
) -> Result<BenchResult, PipelineError> {
    let compiled = cache.compiled;
    let run = &cache.run;
    let seq_cycles = sequential_cycles(&compiled.ici, &run.stats, &SeqDurations::default());
    let mix = ClassMix::measure(&compiled.ici, &run.stats);
    let predict = PredictStats::measure(&compiled.ici, &run.stats);
    // One analysis of the profile, shared by all eight jobs.
    let compactor = Compactor::new(&compiled.ici, &run.stats, &TracePolicy::default());

    let simulate = |(mode, machine_code): (CompactMode, usize)| -> Result<
        (SimResult, f64, f64),
        PipelineError,
    > {
        let machine = sim_machine(machine_code);
        let mode_label = match mode {
            CompactMode::BamGroups => "bam",
            CompactMode::BasicBlock => "basic-block",
            CompactMode::TraceSchedule => "trace",
        };
        let machine_label = machine_name(machine_code);
        let labels: &[(&str, &str)] = &[
            ("bench", name),
            ("mode", mode_label),
            ("machine", machine_label),
        ];
        let _span = obs.span("simulate", labels);
        let compacted = {
            let _span = obs.span("compact", labels);
            compactor.compact(&machine, mode)?
        };
        let result = pipeline::simulate(&compacted.program, machine, &compiled.layout)?;
        obs.counter("sim.cycles", labels).add(result.cycles);
        obs.counter("sim.ops", labels).add(result.ops);
        obs.counter("sim.taken_branches", labels)
            .add(result.taken_branches);
        Ok((
            result,
            compacted.stats.avg_region_len,
            compacted.stats.code_growth(),
        ))
    };

    let mut sims = run_indexed(SIM_JOBS.len(), threads, |i| simulate(SIM_JOBS[i]))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();

    let (bam_result, block_length, _) = sims.next().expect("bam job");
    let (bb_unbounded, _, _) = sims.next().expect("basic-block job");
    let (trace_unbounded, trace_length, code_growth) = sims.next().expect("trace job");
    let mut unit_cycles = Vec::new();
    let mut utilization3 = [0.0; symbol_intcode::OpClass::COUNT];
    let mut issue_rate3 = 0.0;
    for (units, (r, _, _)) in UNIT_SWEEP.into_iter().zip(sims) {
        if units == 3 {
            let machine = MachineConfig::units(units);
            utilization3 = symbol_intcode::OpClass::ALL.map(|c| r.utilization(&machine, c));
            issue_rate3 = r.issue_rate();
        }
        unit_cycles.push(r.cycles);
    }

    Ok(BenchResult {
        name,
        ops: equal_duration_cycles(&run.stats),
        seq_cycles,
        mix,
        pfp_average: predict.average(),
        pfp_histogram: predict.histogram(20).counts,
        bam_cycles: bam_result.cycles,
        unit_cycles,
        bb_unbounded_cycles: bb_unbounded.cycles,
        trace_unbounded_cycles: trace_unbounded.cycles,
        trace_length,
        block_length,
        code_growth,
        utilization3,
        issue_rate3,
    })
}

/// Measures `benches` (the whole suite is [`crate::benchmarks::ALL`])
/// on a bounded pool of at most `threads` worker threads
/// ([`default_threads`] when the caller has no preference).
///
/// Benchmarks are handed to workers through a shared atomic cursor and
/// the results are collected **by benchmark index**, never by
/// completion order, so the output is always in input order and
/// bit-identical to a one-thread run. Each benchmark compiles and
/// profiles once ([`CompiledCache`]) and runs its simulations
/// sequentially within its worker — the suite fan-out is where the
/// parallelism budget goes.
///
/// The run is observed through `obs`: per-benchmark
/// compile/emulate/simulate spans (thread-aware — the exported Chrome
/// trace shows the suite fan-out across the worker pool) and
/// per-configuration counters. With [`Registry::disabled`] nothing is
/// recorded.
///
/// # Errors
///
/// Fails if any benchmark does not compile, run and re-verify under
/// every configuration; when several fail, the error of the earliest
/// benchmark (input order) is returned.
pub fn measure_suite_obs(
    benches: &[Benchmark],
    threads: usize,
    obs: &Registry,
) -> Result<Vec<BenchResult>, PipelineError> {
    run_indexed(benches.len(), threads, |i| {
        let b = &benches[i];
        let labels: &[(&str, &str)] = &[("bench", b.name)];
        let _span = obs.span("measure", labels);
        let compiled = Compiled::from_source_obs(b.source, Layout::default(), obs, b.name)?;
        let cache = CompiledCache {
            compiled: &compiled,
            run: compiled.run_sequential_obs(obs, b.name)?,
        };
        measure_cached(b.name, &cache, 1, obs)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_results_are_in_job_order() {
        // Job i sleeps inversely to its index, so completion order is
        // roughly the reverse of job order on real threads.
        let out = run_indexed(8, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_indexed_single_thread_runs_inline() {
        let out = run_indexed(3, 1, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn run_indexed_handles_empty_job_list() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn sim_job_list_covers_the_unit_sweep_in_order() {
        for (k, units) in UNIT_SWEEP.into_iter().enumerate() {
            assert_eq!(SIM_JOBS[3 + k], (CompactMode::TraceSchedule, units));
        }
    }
}
