//! `sweep`: the design-space explorer — the compactor and VLIW layers
//! at many configurations per profile, with the front end and emulator
//! nearly out of the picture.

use symbol_compactor::{sequential_cycles, SeqDurations};
use symbol_core::benchmarks::{self, Benchmark};
use symbol_core::experiments::sweep::{run_sweep, GridSpec, SweepOptions};
use symbol_core::pipeline::PipelineError;
use symbol_fuzz::Rng;
use symbol_obs::Registry;

use crate::stages;
use crate::{Facts, Tally, Workload};

/// The eleven mid-cost benchmarks: each sweeps the whole reduced grid
/// in 3–4 s on two threads.
const MID_COST: [&str; 11] = [
    "conc30", "crypt", "divide10", "log10", "mu", "nreverse", "ops8", "prover", "queens_8",
    "query", "times10",
];

/// One slice of `GridSpec::reduced()`: every unit count and both
/// compaction modes, with one value drawn for each of the four two-way
/// axes (issue width, memory ports, memory latency, branch penalty) —
/// ten of the reduced grid's 160 points.
fn slice(rng: &mut Rng) -> GridSpec {
    fn pick<T: Copy>(axis: &mut Vec<T>, rng: &mut Rng) {
        *axis = vec![axis[rng.index(axis.len())]];
    }
    let mut grid = GridSpec::reduced();
    pick(&mut grid.width_factors, rng);
    pick(&mut grid.mem_ports, rng);
    pick(&mut grid.mem_latencies, rng);
    pick(&mut grid.branch_penalties, rng);
    grid
}

/// Every mid-cost benchmark, each swept over its own seed-drawn slice
/// of the reduced grid.
pub struct Sweep {
    plan: Vec<(Benchmark, GridSpec)>,
    threads: usize,
    static_ops: u64,
}

impl Sweep {
    /// Draws one grid slice per benchmark from `seed`; a smoke run
    /// sweeps conc30 alone.
    pub fn new(seed: u64, smoke: bool, threads: usize) -> Self {
        let mut rng = Rng::new(seed);
        let names: &[&str] = if smoke { &MID_COST[..1] } else { &MID_COST };
        let plan = names
            .iter()
            .map(|n| {
                let b = *benchmarks::by_name(n).expect("benchmark is in the suite");
                (b, slice(&mut rng))
            })
            .collect();
        Sweep {
            plan,
            threads,
            static_ops: 0,
        }
    }
}

impl Workload for Sweep {
    fn setup(&mut self) -> Tally {
        let (tally, static_ops) = crate::prepare(self.plan.iter().map(|(b, _)| b));
        self.static_ops = static_ops;
        tally
    }

    fn rep(&mut self) -> Tally {
        let mut tally = Tally::default();
        let opts = SweepOptions {
            threads: self.threads,
            budget: None,
        };
        for (b, grid) in &self.plan {
            let cells = grid.len();
            let report = run_sweep(grid, std::slice::from_ref(b), &opts, &Registry::disabled());
            let row = match &report {
                Ok(r) => {
                    let violations = r.check_invariants();
                    if !violations.is_empty() {
                        eprintln!("sweep: {}: {}", b.name, violations.join("; "));
                    }
                    r.benches.first().filter(|_| violations.is_empty())
                }
                Err(e) => {
                    eprintln!("sweep: {e}");
                    None
                }
            };
            match row {
                Some(row) => {
                    tally.digest.push(row.seq_cycles);
                    for &c in &row.cycles {
                        tally.digest.push(c);
                        tally.record(Some(0));
                    }
                }
                None => (0..cells).for_each(|_| tally.record(None)),
            }
        }
        tally
    }

    fn traced_rep(&mut self, obs: &Registry) -> Tally {
        let mut tally = Tally::default();
        for (b, grid) in &self.plan {
            let points = grid.expand();
            let traced = (|| {
                let compiled = stages::compile(b.source, b.name, obs)?;
                let cache = stages::profile(&compiled, b.name, obs)?;
                let seq = {
                    let _span = obs.span(stages::ANALYSIS, &[("bench", b.name)]);
                    let stats = &cache.run.stats;
                    std::hint::black_box(stats.class_counts(&compiled.ici));
                    sequential_cycles(&compiled.ici, stats, &SeqDurations::default())
                };
                let cycles = stages::run_indexed(points.len(), self.threads, |i| {
                    let p = &points[i];
                    stages::simulate(&cache, p.machine, p.mode, b.name, obs).map(|r| r.cycles)
                });
                Ok::<_, PipelineError>((seq, cycles, cache.run.steps))
            })();
            match traced {
                Ok((seq, cycles, steps)) => {
                    tally.digest.push(seq);
                    tally.steps += steps;
                    for c in cycles {
                        match c {
                            Ok(c) => {
                                tally.digest.push(c);
                                tally.record(Some(0));
                            }
                            Err(e) => {
                                eprintln!("sweep (traced): {}: {e}", b.name);
                                tally.record(None);
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("sweep (traced): {}: {e}", b.name);
                    (0..points.len()).for_each(|_| tally.record(None));
                }
            }
        }
        tally
    }

    fn facts(&self) -> Facts {
        Facts {
            programs: self.plan.len(),
            static_ops: self.static_ops,
            ..Facts::default()
        }
    }
}
