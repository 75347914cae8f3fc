//! `tables`: the cost of reproducing the paper — every table and
//! figure from the sixteen benchmarks, as the `tables` binary runs it.

use std::hint::black_box;

use symbol_compactor::{sequential_cycles, CompactMode, SeqDurations};
use symbol_core::benchmarks::{self, Benchmark};
use symbol_core::experiments::{measure_suite_obs, BenchResult};
use symbol_core::pipeline::PipelineError;
use symbol_obs::Registry;
use symbol_vliw::MachineConfig;

use crate::stages;
use crate::{Digest, Facts, Tally, Workload};

/// The per-benchmark simulation work list of `measure_cached`, in the
/// order its result fields are assembled from.
fn sim_jobs() -> [(CompactMode, MachineConfig); 8] {
    let trace = CompactMode::TraceSchedule;
    [
        (CompactMode::BamGroups, MachineConfig::bam()),
        (CompactMode::BasicBlock, MachineConfig::unbounded()),
        (trace, MachineConfig::unbounded()),
        (trace, MachineConfig::units(1)),
        (trace, MachineConfig::units(2)),
        (trace, MachineConfig::units(3)),
        (trace, MachineConfig::units(4)),
        (trace, MachineConfig::units(5)),
    ]
}

/// The paper's fixed suite; the seed does not change it.
pub struct Tables {
    benches: Vec<Benchmark>,
    threads: usize,
    static_ops: u64,
}

impl Tables {
    /// All sixteen benchmarks, or conc30 alone for a smoke run.
    pub fn new(smoke: bool, threads: usize) -> Self {
        let benches = if smoke {
            vec![*benchmarks::by_name("conc30").expect("conc30 is in the suite")]
        } else {
            benchmarks::ALL.to_vec()
        };
        Tables {
            benches,
            threads,
            static_ops: 0,
        }
    }
}

/// Folds one benchmark's sequential and simulated cycle counts into
/// `digest`, in `sim_jobs` order.
fn push_cycles(digest: &mut Digest, seq: u64, sims: impl IntoIterator<Item = u64>) {
    digest.push(seq);
    for c in sims {
        digest.push(c);
    }
}

fn sims_of(r: &BenchResult) -> impl Iterator<Item = u64> + '_ {
    [
        r.bam_cycles,
        r.bb_unbounded_cycles,
        r.trace_unbounded_cycles,
    ]
    .into_iter()
    .chain(r.unit_cycles.iter().copied())
}

impl Workload for Tables {
    fn setup(&mut self) -> Tally {
        let (tally, static_ops) = crate::prepare(&self.benches);
        self.static_ops = static_ops;
        tally
    }

    fn rep(&mut self) -> Tally {
        let mut tally = Tally::default();
        match measure_suite_obs(&self.benches, self.threads, &Registry::disabled()) {
            Ok(results) => {
                for r in &results {
                    push_cycles(&mut tally.digest, r.seq_cycles, sims_of(r));
                    tally.record(Some(r.ops));
                }
            }
            Err(e) => {
                eprintln!("tables: {e}");
                for _ in &self.benches {
                    tally.record(None);
                }
            }
        }
        tally
    }

    fn traced_rep(&mut self, obs: &Registry) -> Tally {
        let measured = stages::run_indexed(self.benches.len(), self.threads, |i| {
            let b = &self.benches[i];
            let compiled = stages::compile(b.source, b.name, obs)?;
            let cache = stages::profile(&compiled, b.name, obs)?;
            let seq = {
                let _span = obs.span(stages::ANALYSIS, &[("bench", b.name)]);
                let stats = &cache.run.stats;
                let mix = symbol_analysis::ClassMix::measure(&compiled.ici, stats);
                let predict = symbol_analysis::PredictStats::measure(&compiled.ici, stats);
                black_box((mix, predict.average(), predict.histogram(20)));
                sequential_cycles(&compiled.ici, stats, &SeqDurations::default())
            };
            let sims = sim_jobs()
                .into_iter()
                .map(|(mode, machine)| {
                    stages::simulate(&cache, machine, mode, b.name, obs).map(|r| r.cycles)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, PipelineError>((seq, sims, cache.run.steps))
        });
        let mut tally = Tally::default();
        for m in measured {
            match m {
                Ok((seq, sims, steps)) => {
                    push_cycles(&mut tally.digest, seq, sims);
                    tally.record(Some(steps));
                }
                Err(e) => {
                    eprintln!("tables (traced): {e}");
                    tally.record(None);
                }
            }
        }
        tally
    }

    fn facts(&self) -> Facts {
        Facts {
            programs: self.benches.len(),
            static_ops: self.static_ops,
            ..Facts::default()
        }
    }
}
