//! Design-space exploration: the architecture sweep harness.
//!
//! The paper evaluates one family of machines — 1..5 paper units with a
//! single shared memory port (Table 3). This module generalizes that
//! experiment into a declarative *grid*: a cross product over units,
//! issue width, memory ports, memory latency, taken-branch penalty,
//! multi-way branching, the prototype's split instruction formats, and
//! the compaction mode. The grid expands into a flat list of
//! [`SweepPoint`]s, every (benchmark, point) pair is simulated through
//! the existing compile-once/simulate-many driver, and the results are
//! reduced into speedup curves, a Pareto frontier of hardware cost
//! vs. geometric-mean speedup, and best-machine reports.
//!
//! # Determinism
//!
//! The sweep is bit-identical for every thread count, by construction:
//!
//! * grid expansion is a pure function of the [`GridSpec`] (fixed loop
//!   nest, no hashing, no iteration-order dependence);
//! * each benchmark compiles and profiles exactly once
//!   ([`CompiledCache`]), and every simulation reads that one profile
//!   immutably;
//! * simulations are distributed through `run_indexed`, which
//!   collects results **by job index**, never by completion order, and
//!   each job's result is stored at its point's index;
//! * reductions (geomean, frontier, winners) iterate in fixed config /
//!   benchmark order with deterministic tie-breaks (lower hardware
//!   cost, then lower config index);
//! * the JSON report carries no timestamps, hostnames or durations.
//!
//! The `sweep` binary's `--check` mode re-runs the grid on one thread
//! and asserts the two JSON reports are byte-identical.
//!
//! # Invariant gates
//!
//! [`SweepReport::check_invariants`] asserts two paper-shape laws over
//! every (benchmark, config) cell, and [`check_paper_points`]
//! cross-checks the grid against the Table 3 driver:
//!
//! 1. **Unit monotonicity** — at fixed other axes, adding units never
//!    makes a benchmark slower (cycles are non-increasing in units),
//!    up to a 1% greedy-scheduling anomaly allowance
//!    ([`UNIT_MONOTONICITY_SLACK_PCT`]).
//! 2. **Memory-port floor** — no config beats the Amdahl ceiling
//!    implied by its memory-port budget: simulated cycles are at least
//!    [`port_cycle_floor`]`(executed memory ops, min(ports, units))`,
//!    because a machine that accepts `p` accesses per cycle needs at
//!    least `ceil(m / p)` cycles to issue `m` of them.
//! 3. **Paper-point reproduction** — the grid cells whose machine is
//!    exactly [`MachineConfig::units`]`(n)` under trace scheduling must
//!    reproduce the Table 3 cycle counts from [`crate::experiments::measure`]
//!    bit-exactly.

use std::time::{Duration, Instant};

use symbol_analysis::{port_cycle_floor, TextTable};
use symbol_compactor::{sequential_cycles, CompactMode, Compactor, SeqDurations, TracePolicy};
use symbol_intcode::OpClass;
use symbol_obs::Registry;
use symbol_vliw::{MachineConfig, Timing};

use crate::benchmarks::Benchmark;
use crate::pipeline::{self, Compiled, CompiledCache, PipelineError};

use super::{default_threads, run_indexed};

/// One point of the design space: a machine configuration plus the
/// compaction mode that schedules code for it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SweepPoint {
    /// The target machine.
    pub machine: MachineConfig,
    /// How code is compacted for it.
    pub mode: CompactMode,
}

impl SweepPoint {
    /// Stable human-readable label, e.g. `u3 w3 p1 ml2 bp1 mw trace`.
    pub fn label(&self) -> String {
        format!("{} {}", self.machine.describe(), mode_name(self.mode))
    }
}

/// Stable short name of a compaction mode (also the grid syntax).
pub fn mode_name(mode: CompactMode) -> &'static str {
    match mode {
        CompactMode::TraceSchedule => "trace",
        CompactMode::BasicBlock => "bb",
        CompactMode::BamGroups => "bam",
    }
}

/// Declarative description of a design-space grid: the cross product
/// of every axis. Numeric axes are kept sorted ascending and deduped
/// by [`GridSpec::normalize`]; `units` ascending is what lets the
/// monotonicity gate walk contiguous unit chunks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GridSpec {
    /// Unit counts (innermost expansion axis).
    pub units: Vec<usize>,
    /// Issue width as a multiple of the unit count (`1` = the paper's
    /// one-op-per-unit reading, `4` = the widest Figure 5 reading).
    pub width_factors: Vec<usize>,
    /// Shared data-memory ports per cycle.
    pub mem_ports: Vec<usize>,
    /// Memory load latencies, cycles.
    pub mem_latencies: Vec<u32>,
    /// Taken-branch bubbles, cycles.
    pub branch_penalties: Vec<u32>,
    /// Multi-way branching on/off.
    pub multiway: Vec<bool>,
    /// Prototype split instruction formats on/off.
    pub split_formats: Vec<bool>,
    /// Compaction modes.
    pub modes: Vec<CompactMode>,
}

impl GridSpec {
    /// The paper's own Table 3 axis: 1..5 units, everything else at
    /// the paper defaults, trace scheduling. Expands to exactly
    /// [`MachineConfig::units`]`(n)` for n = 1..5.
    pub fn paper() -> Self {
        GridSpec {
            units: vec![1, 2, 3, 4, 5],
            width_factors: vec![1],
            mem_ports: vec![1],
            mem_latencies: vec![2],
            branch_penalties: vec![1],
            multiway: vec![true],
            split_formats: vec![false],
            modes: vec![CompactMode::TraceSchedule],
        }
    }

    /// The CI smoke grid: 160 configurations spanning every axis the
    /// smoke gates need (contains the paper points), small enough to
    /// sweep a few benchmarks in seconds.
    pub fn reduced() -> Self {
        GridSpec {
            units: vec![1, 2, 3, 4, 5],
            width_factors: vec![1, 2],
            mem_ports: vec![1, 2],
            mem_latencies: vec![1, 2],
            branch_penalties: vec![0, 1],
            multiway: vec![true],
            split_formats: vec![false],
            modes: vec![CompactMode::TraceSchedule, CompactMode::BasicBlock],
        }
    }

    /// The nightly grid: 2592 configurations across all eight axes.
    pub fn full() -> Self {
        GridSpec {
            units: vec![1, 2, 3, 4, 5, 6],
            width_factors: vec![1, 2],
            mem_ports: vec![1, 2, 4],
            mem_latencies: vec![1, 2, 4],
            branch_penalties: vec![0, 1, 2],
            multiway: vec![true, false],
            split_formats: vec![false, true],
            modes: vec![CompactMode::TraceSchedule, CompactMode::BasicBlock],
        }
    }

    /// Parses the grid syntax:
    /// `units=1..5;width=1x,2x;ports=1,2;mlat=1,2;tbp=0,1;multiway=on,off;formats=unified,split;mode=trace,bb`.
    ///
    /// Keys may appear in any order; a missing key takes the paper
    /// default for that axis ([`GridSpec::paper`]). Numeric values are
    /// comma-separated integers or `lo..hi` inclusive ranges. The
    /// names `paper`, `reduced` and `full` select the presets.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key or value.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "paper" => return Ok(Self::paper()),
            "reduced" => return Ok(Self::reduced()),
            "full" => return Ok(Self::full()),
            _ => {}
        }
        let mut grid = Self::paper();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("grid: `{part}` is not a `key=value` clause"))?;
            match key.trim() {
                "units" => grid.units = parse_usizes(value)?,
                "width" => {
                    grid.width_factors = value
                        .split(',')
                        .map(|v| {
                            let v = v.trim();
                            let n = v.strip_suffix('x').unwrap_or(v);
                            n.parse::<usize>()
                                .map_err(|_| format!("grid: bad width factor `{v}`"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "ports" => grid.mem_ports = parse_usizes(value)?,
                "mlat" => grid.mem_latencies = parse_u32s(value)?,
                "tbp" => grid.branch_penalties = parse_u32s(value)?,
                "multiway" => grid.multiway = parse_switch(value, "multiway", "on", "off")?,
                "formats" => {
                    // `split` maps to true, `unified` to false.
                    grid.split_formats = parse_switch(value, "formats", "split", "unified")?;
                }
                "mode" => {
                    grid.modes = value
                        .split(',')
                        .map(|v| match v.trim() {
                            "trace" => Ok(CompactMode::TraceSchedule),
                            "bb" => Ok(CompactMode::BasicBlock),
                            "bam" => Ok(CompactMode::BamGroups),
                            other => Err(format!("grid: unknown mode `{other}`")),
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("grid: unknown axis `{other}`")),
            }
        }
        grid.normalize()?;
        Ok(grid)
    }

    /// Sorts and dedupes the numeric axes (ascending `units` is what
    /// the monotonicity gate relies on), dedupes the boolean/mode
    /// axes preserving order, and rejects empty or degenerate axes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the degenerate axis.
    pub fn normalize(&mut self) -> Result<(), String> {
        fn sort_dedup<T: Ord + Copy>(axis: &mut Vec<T>, name: &str) -> Result<(), String> {
            axis.sort_unstable();
            axis.dedup();
            if axis.is_empty() {
                return Err(format!("grid: axis `{name}` is empty"));
            }
            Ok(())
        }
        sort_dedup(&mut self.units, "units")?;
        sort_dedup(&mut self.width_factors, "width")?;
        sort_dedup(&mut self.mem_ports, "ports")?;
        sort_dedup(&mut self.mem_latencies, "mlat")?;
        sort_dedup(&mut self.branch_penalties, "tbp")?;
        if self.units[0] == 0 {
            return Err("grid: a machine needs at least one unit".into());
        }
        if self.width_factors[0] == 0 {
            return Err("grid: issue width factor must be at least 1".into());
        }
        if self.mem_ports[0] == 0 {
            return Err("grid: a machine needs at least one memory port".into());
        }
        dedup_preserving(&mut self.multiway);
        dedup_preserving(&mut self.split_formats);
        dedup_preserving(&mut self.modes);
        if self.multiway.is_empty() || self.split_formats.is_empty() || self.modes.is_empty() {
            return Err("grid: boolean/mode axes must be non-empty".into());
        }
        Ok(())
    }

    /// Number of points the grid expands to.
    pub fn len(&self) -> usize {
        self.units.len()
            * self.width_factors.len()
            * self.mem_ports.len()
            * self.mem_latencies.len()
            * self.branch_penalties.len()
            * self.multiway.len()
            * self.split_formats.len()
            * self.modes.len()
    }

    /// True when the grid expands to no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into its flat point list. The loop nest runs
    /// `units` **innermost**, so every contiguous chunk of
    /// `units.len()` points shares all other axes — that is the shape
    /// the monotonicity gate walks.
    pub fn expand(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        for &mode in &self.modes {
            for &split in &self.split_formats {
                for &multiway in &self.multiway {
                    for &tbp in &self.branch_penalties {
                        for &mlat in &self.mem_latencies {
                            for &ports in &self.mem_ports {
                                for &factor in &self.width_factors {
                                    for &units in &self.units {
                                        let machine = MachineConfig {
                                            units,
                                            issue_width: units * factor,
                                            mem_ports: ports,
                                            multiway_branch: multiway,
                                            mem_latency: mlat,
                                            taken_branch_penalty: tbp,
                                            alu_latency: 1,
                                            split_formats: split,
                                        };
                                        points.push(SweepPoint { machine, mode });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// The grid syntax string this spec corresponds to (parse
    /// round-trips it). Used as the report's `grid` field.
    pub fn describe(&self) -> String {
        fn join<T: std::fmt::Display>(v: &[T]) -> String {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
        format!(
            "units={};width={};ports={};mlat={};tbp={};multiway={};formats={};mode={}",
            join(&self.units),
            self.width_factors
                .iter()
                .map(|f| format!("{f}x"))
                .collect::<Vec<_>>()
                .join(","),
            join(&self.mem_ports),
            join(&self.mem_latencies),
            join(&self.branch_penalties),
            self.multiway
                .iter()
                .map(|&b| if b { "on" } else { "off" })
                .collect::<Vec<_>>()
                .join(","),
            self.split_formats
                .iter()
                .map(|&b| if b { "split" } else { "unified" })
                .collect::<Vec<_>>()
                .join(","),
            self.modes
                .iter()
                .map(|&m| mode_name(m))
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}

fn parse_usizes(value: &str) -> Result<Vec<usize>, String> {
    parse_numbers(value, |v| {
        v.parse::<usize>()
            .map_err(|_| format!("grid: bad number `{v}`"))
    })
}

fn parse_u32s(value: &str) -> Result<Vec<u32>, String> {
    parse_numbers(value, |v| {
        v.parse::<u32>()
            .map_err(|_| format!("grid: bad number `{v}`"))
    })
}

/// Parses `1,2,4` and `1..5` (inclusive) clauses for a numeric axis.
fn parse_numbers<T, F>(value: &str, parse_one: F) -> Result<Vec<T>, String>
where
    T: Copy + TryFrom<u64>,
    F: Fn(&str) -> Result<T, String>,
{
    let mut out = Vec::new();
    for clause in value.split(',') {
        let clause = clause.trim();
        if let Some((lo, hi)) = clause.split_once("..") {
            let lo: u64 = lo
                .trim()
                .parse()
                .map_err(|_| format!("grid: bad range `{clause}`"))?;
            let hi: u64 = hi
                .trim()
                .parse()
                .map_err(|_| format!("grid: bad range `{clause}`"))?;
            if lo > hi {
                return Err(format!("grid: empty range `{clause}`"));
            }
            for n in lo..=hi {
                out.push(
                    T::try_from(n).map_err(|_| format!("grid: value out of range `{clause}`"))?,
                );
            }
        } else {
            out.push(parse_one(clause)?);
        }
    }
    Ok(out)
}

/// Parses a boolean axis where `on_word` maps to true.
fn parse_switch(
    value: &str,
    axis: &str,
    on_word: &str,
    off_word: &str,
) -> Result<Vec<bool>, String> {
    value
        .split(',')
        .map(|v| {
            let v = v.trim();
            if v == on_word {
                Ok(true)
            } else if v == off_word {
                Ok(false)
            } else {
                Err(format!(
                    "grid: `{axis}` accepts `{on_word}`/`{off_word}`, got `{v}`"
                ))
            }
        })
        .collect()
}

fn dedup_preserving<T: PartialEq + Copy>(axis: &mut Vec<T>) {
    let mut seen = Vec::new();
    axis.retain(|&x| {
        if seen.contains(&x) {
            false
        } else {
            seen.push(x);
            true
        }
    });
}

/// How to run a sweep.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads for the per-benchmark simulation fan-out.
    pub threads: usize,
    /// Wall-clock budget; checked at benchmark boundaries — once
    /// exceeded the remaining benchmarks are skipped and listed in
    /// [`SweepReport::truncated`]. `None` = unbounded. A budgeted run
    /// is *not* deterministic across machines (the cut point depends
    /// on wall-clock speed), so the `sweep` binary refuses to combine
    /// it with `--check`.
    pub budget: Option<Duration>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: default_threads(),
            budget: None,
        }
    }
}

/// A sweep failure, carrying the benchmark and configuration that
/// caused it.
#[derive(Debug)]
pub enum SweepError {
    /// The grid was degenerate.
    Grid(String),
    /// A benchmark failed to compile, run or re-verify under some
    /// configuration.
    Pipeline {
        /// The benchmark that failed.
        bench: &'static str,
        /// The configuration it failed under (empty for compile-time
        /// failures that precede any configuration).
        config: String,
        /// The underlying pipeline error.
        source: PipelineError,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Grid(msg) => write!(f, "{msg}"),
            SweepError::Pipeline {
                bench,
                config,
                source,
            } => {
                if config.is_empty() {
                    write!(f, "{bench}: {source}")
                } else {
                    write!(f, "{bench} [{config}]: {source}")
                }
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Everything one benchmark contributed to the sweep: one cycle count
/// and one executed-memory-op count per grid point, plus the
/// sequential baseline the speedups divide by.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BenchSweep {
    /// Benchmark name.
    pub name: &'static str,
    /// Sequential-machine cycles (the speedup denominator).
    pub seq_cycles: u64,
    /// Dynamic memory ops of the sequential profile.
    pub seq_mem_ops: u64,
    /// Simulated cycles, one per grid point (grid order).
    pub cycles: Vec<u64>,
    /// Executed memory ops, one per grid point — trace scheduling may
    /// *add* speculative executions, never remove any, so each entry
    /// is at least `seq_mem_ops`. The memory-port floor gate divides
    /// this by the port budget.
    pub mem_ops: Vec<u64>,
}

impl BenchSweep {
    /// Speed-up of grid point `i` over the sequential machine.
    pub fn speedup(&self, i: usize) -> f64 {
        self.seq_cycles as f64 / self.cycles[i] as f64
    }
}

/// Allowance of the unit-monotonicity gate, percent.
///
/// Greedy list scheduling is not perfectly monotone in resources —
/// giving a machine one more unit can reshuffle a greedy schedule into
/// a slightly worse one (the classic Graham scheduling anomaly). The
/// observed anomalies are under 1% (e.g. `conc30` under basic-block
/// compaction: 3546 cycles on 3 units vs 3517 on 2), while a real
/// resource-model bug shifts cycle counts by far more, so the gate
/// tolerates a 1% regression per unit step and stays a hard gate for
/// everything larger. The check uses exact integer arithmetic.
pub const UNIT_MONOTONICITY_SLACK_PCT: u32 = 1;

/// The result of a sweep: the expanded grid plus per-benchmark cycle
/// tables, ready for reduction and serialization.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// The grid syntax string the report was produced from.
    pub grid: String,
    /// The expanded grid, in expansion order.
    pub points: Vec<SweepPoint>,
    /// Length of the innermost (units) axis — every contiguous chunk
    /// of this many points shares all axes except `units`.
    pub units_chunk: usize,
    /// One row per benchmark that ran, in request order.
    pub benches: Vec<BenchSweep>,
    /// Benchmarks skipped because the time budget ran out.
    pub truncated: Vec<&'static str>,
}

/// Expands `grid` and simulates every (benchmark, point) pair.
///
/// Per benchmark: one compile, one sequential profiling run
/// ([`CompiledCache`]) and one [`Compactor`], then the whole point list
/// fans out over `opts.threads` workers through `run_indexed`, sharing
/// the compactor's per-profile analysis and its dependence graphs per
/// (mode, timing) class. The points are handed out round-robin across
/// those classes, so that the workers start on different classes, and
/// collected by point index.
/// Per-benchmark spans (`sweep.bench`, and `compact` around each
/// compaction) and cycle/point counters are recorded on `obs`; labels
/// carry only the benchmark name, never the configuration, so the
/// metric cardinality stays bounded for thousand-point grids.
///
/// # Errors
///
/// [`SweepError::Grid`] for a degenerate grid; [`SweepError::Pipeline`]
/// when a benchmark fails to compile, run or re-verify under some
/// configuration (the lowest (benchmark, point) index wins, so errors
/// are deterministic too).
pub fn run_sweep(
    grid: &GridSpec,
    benches: &[Benchmark],
    opts: &SweepOptions,
    obs: &Registry,
) -> Result<SweepReport, SweepError> {
    let mut normalized = grid.clone();
    normalized.normalize().map_err(SweepError::Grid)?;
    let points = normalized.expand();
    let order = class_interleaved(&points);
    let start = Instant::now();

    let mut report = SweepReport {
        grid: normalized.describe(),
        points: points.clone(),
        units_chunk: normalized.units.len(),
        benches: Vec::with_capacity(benches.len()),
        truncated: Vec::new(),
    };

    for (k, bench) in benches.iter().enumerate() {
        if let Some(budget) = opts.budget {
            if start.elapsed() >= budget {
                report.truncated = benches[k..].iter().map(|b| b.name).collect();
                break;
            }
        }
        let labels: &[(&str, &str)] = &[("bench", bench.name)];
        let _span = obs.span("sweep.bench", labels);
        let wrap = |source: PipelineError, config: String| SweepError::Pipeline {
            bench: bench.name,
            config,
            source,
        };
        let compiled = Compiled::from_source(bench.source).map_err(|e| wrap(e, String::new()))?;
        let cache = CompiledCache::new(&compiled).map_err(|e| wrap(e, String::new()))?;
        let seq_cycles =
            sequential_cycles(&compiled.ici, &cache.run.stats, &SeqDurations::default());
        let seq_mem_ops = cache
            .run
            .stats
            .class_counts(&compiled.ici)
            .iter()
            .find(|(c, _)| *c == OpClass::Memory)
            .map_or(0, |(_, n)| *n);
        // One analysis of the profile, shared by every grid point.
        let compactor = Compactor::new(&compiled.ici, &cache.run.stats, &TracePolicy::default());

        let simulate = |i: usize| -> Result<(u64, u64), PipelineError> {
            let point = &points[i];
            let compacted = {
                let _span = obs.span("compact", labels);
                compactor.compact(&point.machine, point.mode)?
            };
            let result = pipeline::simulate(&compacted.program, point.machine, &compiled.layout)?;
            Ok((result.cycles, result.class_ops[OpClass::Memory.index()]))
        };

        let mut results: Vec<_> = run_indexed(order.len(), opts.threads, |k| simulate(order[k]))
            .into_iter()
            .zip(&order)
            .map(|(r, &i)| (i, r))
            .collect();
        results.sort_unstable_by_key(|&(i, _)| i);
        let mut cycles = Vec::with_capacity(points.len());
        let mut mem_ops = Vec::with_capacity(points.len());
        for (i, r) in results {
            let (c, m) = r.map_err(|e| wrap(e, points[i].label()))?;
            cycles.push(c);
            mem_ops.push(m);
        }
        obs.counter("sweep.points", labels).add(points.len() as u64);
        obs.counter("sweep.sim_cycles", labels)
            .add(cycles.iter().sum());

        report.benches.push(BenchSweep {
            name: bench.name,
            seq_cycles,
            seq_mem_ops,
            cycles,
            mem_ops,
        });
    }
    Ok(report)
}

/// The order `run_sweep` hands its points to the workers in: one point
/// of each (mode, [`Timing`]) class in turn, classes in order of first
/// appearance and each class's points in grid order. The machines of a
/// class share their dependence graphs, which the first of them builds;
/// taking the points class by class in grid order would have the
/// workers start on one class, and all but one wait for its graphs.
fn class_interleaved(points: &[SweepPoint]) -> Vec<usize> {
    let mut classes: Vec<((CompactMode, Timing), Vec<usize>)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let key = (p.mode, p.machine.timing());
        match classes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => classes.push((key, vec![i])),
        }
    }
    let rounds = classes.iter().map(|(_, m)| m.len()).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|r| classes.iter().filter_map(move |(_, m)| m.get(r).copied()))
        .collect()
}

impl SweepReport {
    /// Geometric-mean speedup of grid point `i` across the swept
    /// benchmarks, computed as `exp(mean(ln(speedup)))` in fixed
    /// benchmark order — deterministic bit for bit.
    pub fn geomean_speedup(&self, i: usize) -> f64 {
        if self.benches.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.benches.iter().map(|b| b.speedup(i).ln()).sum();
        (sum / self.benches.len() as f64).exp()
    }

    /// All geomean speedups, in grid order.
    pub fn geomean_speedups(&self) -> Vec<f64> {
        (0..self.points.len())
            .map(|i| self.geomean_speedup(i))
            .collect()
    }

    /// The Pareto frontier of hardware cost vs. geomean speedup:
    /// indices of the grid points not dominated by any cheaper-or-equal
    /// point, sorted by ascending cost. Ties break deterministically —
    /// at equal cost and speedup the lower grid index survives.
    pub fn pareto_frontier(&self) -> Vec<usize> {
        let speedups = self.geomean_speedups();
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        order.sort_by(|&a, &b| {
            self.points[a]
                .machine
                .hardware_cost()
                .total_cmp(&self.points[b].machine.hardware_cost())
                .then(a.cmp(&b))
        });
        let mut frontier = Vec::new();
        let mut best = f64::NEG_INFINITY;
        for i in order {
            if speedups[i] > best {
                best = speedups[i];
                frontier.push(i);
            }
        }
        frontier
    }

    /// The fastest grid point for each benchmark: `(bench index, grid
    /// index)`. Ties break toward lower hardware cost, then lower grid
    /// index.
    pub fn best_per_bench(&self) -> Vec<(usize, usize)> {
        self.benches
            .iter()
            .enumerate()
            .map(|(k, b)| {
                let mut best = 0usize;
                for i in 1..self.points.len() {
                    let better = b.cycles[i] < b.cycles[best]
                        || (b.cycles[i] == b.cycles[best]
                            && self.points[i]
                                .machine
                                .hardware_cost()
                                .total_cmp(&self.points[best].machine.hardware_cost())
                                .is_lt());
                    if better {
                        best = i;
                    }
                }
                (k, best)
            })
            .collect()
    }

    /// The best single machine overall: the grid index with the
    /// highest geomean speedup (ties toward lower cost, then lower
    /// index). `None` for an empty grid or benchmark list.
    pub fn best_overall(&self) -> Option<usize> {
        if self.points.is_empty() || self.benches.is_empty() {
            return None;
        }
        let speedups = self.geomean_speedups();
        let mut best = 0usize;
        for i in 1..self.points.len() {
            let better = speedups[i] > speedups[best]
                || (speedups[i] == speedups[best]
                    && self.points[i]
                        .machine
                        .hardware_cost()
                        .total_cmp(&self.points[best].machine.hardware_cost())
                        .is_lt());
            if better {
                best = i;
            }
        }
        Some(best)
    }

    /// Checks the paper-shape invariant gates over every (benchmark,
    /// point) cell; returns a list of human-readable violations (empty
    /// = all gates hold).
    ///
    /// * **Unit monotonicity**: within each contiguous chunk of
    ///   `units_chunk` points (same axes except `units`, ascending),
    ///   cycles never increase with more units — beyond the
    ///   [`UNIT_MONOTONICITY_SLACK_PCT`] anomaly allowance.
    /// * **Memory-port floor**: `cycles >= ceil(executed mem ops /
    ///   min(ports, units))` — the exact integer form of the Amdahl
    ///   memory ceiling ([`port_cycle_floor`]).
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for b in &self.benches {
            for (i, point) in self.points.iter().enumerate() {
                let m = &point.machine;
                let ports = m.mem_ports.min(m.units);
                let floor = port_cycle_floor(b.mem_ops[i], ports);
                if b.cycles[i] < floor {
                    violations.push(format!(
                        "{}: [{}] {} cycles beat the {}-port floor of {} \
                         ({} executed memory ops)",
                        b.name,
                        point.label(),
                        b.cycles[i],
                        ports,
                        floor,
                        b.mem_ops[i],
                    ));
                }
                if i % self.units_chunk != 0 {
                    let prev = &self.points[i - 1];
                    // Exact integer form of
                    // `cycles[i] > cycles[i-1] * (1 + slack%)`.
                    let slack = 100 + UNIT_MONOTONICITY_SLACK_PCT as u128;
                    if b.cycles[i] as u128 * 100 > b.cycles[i - 1] as u128 * slack {
                        violations.push(format!(
                            "{}: [{}] {} cycles is slower than [{}] {} cycles \
                             with fewer units",
                            b.name,
                            point.label(),
                            b.cycles[i],
                            prev.label(),
                            b.cycles[i - 1],
                        ));
                    }
                }
            }
        }
        violations
    }

    /// Serializes the report as deterministic JSON (`sweep-v1`): fixed
    /// key order, `{:.4}` floats, `{:.2}` costs, no timestamps. Two
    /// runs of the same grid over the same benchmarks produce
    /// byte-identical output whatever the thread count.
    pub fn to_json(&self) -> String {
        let speedups = self.geomean_speedups();
        let mut out = String::with_capacity(1 << 16);
        out.push_str("{\n  \"schema\": \"sweep-v1\",\n");
        out.push_str(&format!("  \"grid\": \"{}\",\n", self.grid));
        out.push_str(&format!("  \"units_chunk\": {},\n", self.units_chunk));
        out.push_str("  \"configs\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let m = &p.machine;
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"units\": {}, \"issue_width\": {}, \
                 \"mem_ports\": {}, \"mem_latency\": {}, \"taken_branch_penalty\": {}, \
                 \"multiway\": {}, \"split_formats\": {}, \"mode\": \"{}\", \
                 \"cost\": {:.2}, \"geomean_speedup\": {:.4}}}{}\n",
                p.label(),
                m.units,
                m.issue_width,
                m.mem_ports,
                m.mem_latency,
                m.taken_branch_penalty,
                m.multiway_branch,
                m.split_formats,
                mode_name(p.mode),
                m.hardware_cost(),
                speedups[i],
                if i + 1 < self.points.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"benches\": [\n");
        for (k, b) in self.benches.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"seq_cycles\": {}, \"seq_mem_ops\": {}, \
                 \"cycles\": {:?}, \"mem_ops\": {:?}}}{}\n",
                b.name,
                b.seq_cycles,
                b.seq_mem_ops,
                b.cycles,
                b.mem_ops,
                if k + 1 < self.benches.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"truncated\": [{}],\n",
            self.truncated
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", "),
        ));
        out.push_str(&format!("  \"frontier\": {:?},\n", self.pareto_frontier()));
        out.push_str("  \"best_per_bench\": [\n");
        let winners = self.best_per_bench();
        for (j, (k, i)) in winners.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"bench\": \"{}\", \"config\": {}, \"speedup\": {:.4}}}{}\n",
                self.benches[*k].name,
                i,
                self.benches[*k].speedup(*i),
                if j + 1 < winners.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        match self.best_overall() {
            Some(i) => out.push_str(&format!("  \"best_overall\": {i}\n")),
            None => out.push_str("  \"best_overall\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Renders the human-readable report: the Pareto frontier, the
    /// per-benchmark winners, and the paper-axis speedup curves.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let speedups = self.geomean_speedups();

        out.push_str(&format!(
            "Design-space sweep: {} configs x {} benchmarks (grid {})\n",
            self.points.len(),
            self.benches.len(),
            self.grid,
        ));
        if !self.truncated.is_empty() {
            out.push_str(&format!(
                "TRUNCATED by time budget; skipped: {}\n",
                self.truncated.join(", "),
            ));
        }
        out.push('\n');

        out.push_str("Pareto frontier (hardware cost vs geomean speedup):\n");
        let mut frontier = TextTable::new(&["config", "cost", "geomean speedup"]);
        let best = self.best_overall();
        for &i in &self.pareto_frontier() {
            let marker = if Some(i) == best { " *best" } else { "" };
            frontier.row(vec![
                format!("{}{}", self.points[i].label(), marker),
                format!("{:.2}", self.points[i].machine.hardware_cost()),
                format!("{:.2}", speedups[i]),
            ]);
        }
        out.push_str(&frontier.to_string());

        out.push_str("\nBest machine per benchmark:\n");
        let mut winners = TextTable::new(&["benchmark", "config", "speedup", "cycles"]);
        for (k, i) in self.best_per_bench() {
            winners.row(vec![
                self.benches[k].name.to_string(),
                self.points[i].label(),
                format!("{:.2}", self.benches[k].speedup(i)),
                self.benches[k].cycles[i].to_string(),
            ]);
        }
        out.push_str(&winners.to_string());

        // Speedup curves over the units axis at paper defaults, when
        // the grid contains those points.
        let paper_points: Vec<(usize, usize)> = self
            .points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.mode == CompactMode::TraceSchedule
                    && p.machine == MachineConfig::units(p.machine.units)
            })
            .map(|(i, p)| (p.machine.units, i))
            .collect();
        if !paper_points.is_empty() {
            out.push_str("\nSpeedup over sequential at paper defaults:\n");
            let mut headers = vec!["benchmark".to_string()];
            headers.extend(paper_points.iter().map(|(u, _)| format!("{u}u")));
            let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut curves = TextTable::new(&headers);
            for b in &self.benches {
                let mut row = vec![b.name.to_string()];
                row.extend(
                    paper_points
                        .iter()
                        .map(|&(_, i)| format!("{:.2}", b.speedup(i))),
                );
                curves.row(row);
            }
            out.push_str(&curves.to_string());
        }
        out
    }
}

/// Cross-checks the sweep against the Table 3 driver: for every
/// benchmark and every `n` where the grid contains the exact paper
/// machine [`MachineConfig::units`]`(n)` under trace scheduling, the
/// sweep's cycle count must equal [`crate::experiments::measure`]'s bit for bit.
///
/// # Errors
///
/// Returns the list of mismatches, or a message when the grid contains
/// no paper point at all (the cross-check would be vacuous).
pub fn check_paper_points(
    report: &SweepReport,
    benches: &[Benchmark],
    threads: usize,
) -> Result<(), Vec<String>> {
    let paper_points: Vec<(usize, usize)> = report
        .points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let units = p.machine.units;
            (p.mode == CompactMode::TraceSchedule
                && (1..=5).contains(&units)
                && p.machine == MachineConfig::units(units))
            .then_some((units, i))
        })
        .collect();
    if paper_points.is_empty() {
        return Err(vec![
            "grid contains no paper point (units(n), trace) to cross-check".into(),
        ]);
    }
    let mut violations = Vec::new();
    for b in &report.benches {
        let Some(bench) = benches.iter().find(|x| x.name == b.name) else {
            violations.push(format!("{}: benchmark not found for cross-check", b.name));
            continue;
        };
        let measured = match crate::experiments::measure(bench) {
            Ok(m) => m,
            Err(e) => {
                violations.push(format!("{}: Table 3 driver failed: {e}", b.name));
                continue;
            }
        };
        let _ = threads;
        for &(units, i) in &paper_points {
            let expect = measured.unit_cycles[units - 1];
            if b.cycles[i] != expect {
                violations.push(format!(
                    "{}: paper point units({units}) sweeps to {} cycles but \
                     Table 3 measures {expect}",
                    b.name, b.cycles[i],
                ));
            }
        }
        if b.seq_cycles != measured.seq_cycles {
            violations.push(format!(
                "{}: sweep sequential baseline {} != Table 3 baseline {}",
                b.name, b.seq_cycles, measured.seq_cycles,
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn paper_grid_expands_to_the_exact_table3_machines() {
        let points = GridSpec::paper().expand();
        assert_eq!(points.len(), 5);
        for (k, p) in points.iter().enumerate() {
            assert_eq!(p.machine, MachineConfig::units(k + 1));
            assert_eq!(p.mode, CompactMode::TraceSchedule);
        }
    }

    #[test]
    fn reduced_grid_has_the_advertised_size_and_contains_paper_points() {
        let grid = GridSpec::reduced();
        assert_eq!(grid.len(), 160);
        let points = grid.expand();
        assert_eq!(points.len(), 160);
        for n in 1..=5 {
            assert!(
                points.iter().any(|p| p.machine == MachineConfig::units(n)
                    && p.mode == CompactMode::TraceSchedule),
                "reduced grid lost the paper point units({n})"
            );
        }
    }

    #[test]
    fn units_is_the_innermost_expansion_axis() {
        let grid = GridSpec::reduced();
        let points = grid.expand();
        let chunk = grid.units.len();
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.machine.units, grid.units[i % chunk]);
            if i % chunk != 0 {
                // Same chunk: every axis except units (and the
                // width that scales with it) matches.
                let prev = &points[i - 1].machine;
                assert_eq!(p.machine.mem_ports, prev.mem_ports);
                assert_eq!(p.machine.mem_latency, prev.mem_latency);
                assert_eq!(
                    p.machine.issue_width * prev.units,
                    prev.issue_width * p.machine.units,
                );
            }
        }
    }

    #[test]
    fn grid_syntax_parses_and_round_trips() {
        let grid = GridSpec::parse("units=1..3;ports=2,1;mode=trace,bb;width=2x;tbp=0").unwrap();
        assert_eq!(grid.units, vec![1, 2, 3]);
        assert_eq!(grid.mem_ports, vec![1, 2], "numeric axes are sorted");
        assert_eq!(grid.width_factors, vec![2]);
        assert_eq!(grid.branch_penalties, vec![0]);
        // Missing keys take the paper defaults.
        assert_eq!(grid.mem_latencies, vec![2]);
        assert_eq!(grid.multiway, vec![true]);
        assert_eq!(
            grid.modes,
            vec![CompactMode::TraceSchedule, CompactMode::BasicBlock]
        );
        // describe() emits the very syntax parse() accepts.
        let again = GridSpec::parse(&grid.describe()).unwrap();
        assert_eq!(again, grid);
    }

    #[test]
    fn grid_parse_rejects_nonsense() {
        assert!(GridSpec::parse("units=0").is_err());
        assert!(GridSpec::parse("ports=0").is_err());
        assert!(GridSpec::parse("mode=voodoo").is_err());
        assert!(GridSpec::parse("turbo=on").is_err());
        assert!(GridSpec::parse("units=5..1").is_err());
        assert!(GridSpec::parse("units").is_err());
        assert!(GridSpec::parse("multiway=yes").is_err());
    }

    #[test]
    fn preset_names_resolve() {
        assert_eq!(GridSpec::parse("paper").unwrap(), GridSpec::paper());
        assert_eq!(GridSpec::parse("reduced").unwrap(), GridSpec::reduced());
        assert_eq!(GridSpec::parse("full").unwrap(), GridSpec::full());
        assert_eq!(GridSpec::full().len(), 2592);
    }

    /// A tiny synthetic report for exercising the reductions without
    /// running simulations.
    fn synthetic() -> SweepReport {
        let grid = GridSpec {
            units: vec![1, 2],
            ..GridSpec::paper()
        };
        let points = grid.expand();
        SweepReport {
            grid: grid.describe(),
            units_chunk: 2,
            benches: vec![
                BenchSweep {
                    name: "a",
                    seq_cycles: 1000,
                    seq_mem_ops: 100,
                    cycles: vec![500, 250],
                    mem_ops: vec![100, 110],
                },
                BenchSweep {
                    name: "b",
                    seq_cycles: 2000,
                    seq_mem_ops: 300,
                    cycles: vec![1000, 800],
                    mem_ops: vec![300, 300],
                },
            ],
            truncated: Vec::new(),
            points,
        }
    }

    #[test]
    fn reductions_pick_the_documented_winners() {
        let r = synthetic();
        // Geomean of (2.0, 2.0) = 2.0; of (4.0, 2.5) = sqrt(10).
        assert!((r.geomean_speedup(0) - 2.0).abs() < 1e-12);
        assert!((r.geomean_speedup(1) - 10f64.sqrt()).abs() < 1e-12);
        // Both points are on the frontier: the 2-unit machine costs
        // more and speeds up more.
        assert_eq!(r.pareto_frontier(), vec![0, 1]);
        assert_eq!(r.best_overall(), Some(1));
        assert_eq!(r.best_per_bench(), vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn invariant_gates_catch_planted_violations() {
        let clean = synthetic();
        assert!(clean.check_invariants().is_empty());

        // Plant a monotonicity violation: 2 units slower than 1.
        let mut mono = synthetic();
        mono.benches[0].cycles = vec![500, 600];
        let violations = mono.check_invariants();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("fewer units"), "{violations:?}");

        // Plant a port-floor violation: fewer cycles than memory ops
        // on a single-ported machine. The planted slow 2-unit point
        // also trips the monotonicity gate, so both fire.
        let mut floor = synthetic();
        floor.benches[1].cycles = vec![299, 800];
        let violations = floor.check_invariants();
        assert_eq!(violations.len(), 2);
        assert!(
            violations.iter().any(|v| v.contains("floor")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("fewer units")),
            "{violations:?}"
        );
    }

    #[test]
    fn json_report_is_wellformed_and_complete() {
        let r = synthetic();
        let json = r.to_json();
        let doc = symbol_obs::json::parse(&json).expect("sweep JSON parses");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("sweep-v1"));
        assert_eq!(
            doc.get("configs").and_then(|v| v.as_arr()).unwrap().len(),
            2
        );
        assert_eq!(
            doc.get("benches").and_then(|v| v.as_arr()).unwrap().len(),
            2
        );
        assert_eq!(doc.get("best_overall").and_then(|v| v.as_u64()), Some(1));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(json, r.to_json());
        // The human rendering mentions the winner and the frontier.
        let text = r.render();
        assert!(text.contains("Pareto frontier"));
        assert!(text.contains("*best"));
    }

    #[test]
    fn sweep_runs_a_tiny_grid_and_matches_the_table3_driver() {
        let grid = GridSpec {
            units: vec![1, 3],
            ..GridSpec::paper()
        };
        let bench = *benchmarks::by_name("nreverse").expect("nreverse exists");
        let opts = SweepOptions {
            threads: 2,
            budget: None,
        };
        let report = run_sweep(&grid, &[bench], &opts, &Registry::disabled()).expect("sweep runs");
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.benches.len(), 1);
        assert!(report.truncated.is_empty());
        assert!(report.check_invariants().is_empty());

        // Bit-identical across thread counts.
        let seq = run_sweep(
            &grid,
            &[bench],
            &SweepOptions {
                threads: 1,
                budget: None,
            },
            &Registry::disabled(),
        )
        .expect("sequential sweep runs");
        assert_eq!(report, seq);
        assert_eq!(report.to_json(), seq.to_json());

        // And the paper points agree with the Table 3 driver.
        check_paper_points(&report, &[bench], 1).expect("paper points reproduce");
    }

    #[test]
    fn zero_budget_truncates_at_a_benchmark_boundary() {
        let grid = GridSpec::paper();
        let benches: Vec<Benchmark> = ["nreverse", "qsort"]
            .iter()
            .map(|n| *benchmarks::by_name(n).unwrap())
            .collect();
        let opts = SweepOptions {
            threads: 1,
            budget: Some(Duration::ZERO),
        };
        let report = run_sweep(&grid, &benches, &opts, &Registry::disabled()).expect("sweep runs");
        assert!(report.benches.is_empty());
        assert_eq!(report.truncated, vec!["nreverse", "qsort"]);
        let json = report.to_json();
        assert!(json.contains("\"truncated\": [\"nreverse\", \"qsort\"]"));
    }
}
