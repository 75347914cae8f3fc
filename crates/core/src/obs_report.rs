//! The observability run report behind the `obs_report` binary.
//!
//! [`collect`] runs the benchmark suite through the fully instrumented
//! experiment driver ([`experiments::measure_suite_obs`]) plus a
//! profiled pass per benchmark (the `PROFILE = true` monomorphizations
//! of both execution engines), and packages every export the report
//! consumes: the human summary table, the per-PC hot-block report, the
//! stable `metrics.json` document, its schema descriptor, and the
//! Chrome Trace Format JSON for Perfetto.
//!
//! The metric schema is pinned by the checked-in `OBS_SCHEMA.json` at
//! the workspace root ([`PINNED_SCHEMA`]); CI fails when a code change
//! adds, removes or relabels a metric without updating the snapshot.
//! [`validate_dump`] goes further than the line diff: it parses an
//! actual `metrics.json` document and checks the version-2 fields
//! (per-histogram quantiles) are really present and finite.

use std::fmt::Write as _;

use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_intcode::decode::DecodedEmulator;
use symbol_intcode::emu::{ExecConfig, Outcome};
use symbol_intcode::OpClass;
use symbol_obs::export::{HISTOGRAM_FIELDS, SCHEMA_VERSION};
use symbol_obs::json;
use symbol_obs::{Registry, Snapshot};
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, SimOutcome};

use crate::benchmarks::{self, Benchmark};
use crate::experiments::{self, BenchResult};
use crate::pipeline::{Compiled, PipelineError};

/// The checked-in metric schema snapshot (workspace root
/// `OBS_SCHEMA.json`). Regenerate with `obs_report --print-schema`
/// after intentionally changing the metric set.
pub const PINNED_SCHEMA: &str = include_str!("../../../OBS_SCHEMA.json");

/// How many hot PCs the report keeps per benchmark by default.
pub const DEFAULT_HOT_PCS: usize = 10;

/// Options of one [`collect`] run.
#[derive(Copy, Clone, Debug)]
pub struct ReportOptions {
    /// Benchmarks to run (defaults to the whole suite).
    pub benches: &'static [Benchmark],
    /// Worker threads for the suite fan-out; `0` means
    /// `available_parallelism`.
    pub threads: usize,
    /// Hot PCs kept per benchmark.
    pub hot_pcs: usize,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            benches: benchmarks::ALL,
            threads: 0,
            hot_pcs: DEFAULT_HOT_PCS,
        }
    }
}

/// One hot program counter of a benchmark's profiled run.
#[derive(Clone, Debug)]
pub struct HotPc {
    /// IntCode op index.
    pub pc: usize,
    /// Times the op was executed.
    pub count: u64,
    /// Instruction class of the op (shared [`OpClass`] table).
    pub class: &'static str,
    /// Times the 2-bit predictor missed this op (conditional branches
    /// only; `0` elsewhere).
    pub mispredicts: u64,
}

/// The profiled-engine measurements of one benchmark: per-PC execution
/// profile with branch-predictor misses from the sequential engine,
/// and slot-level occupancy from the 3-unit trace-scheduled VLIW run.
#[derive(Clone, Debug)]
pub struct BenchProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Total executed ops of the sequential run.
    pub steps: u64,
    /// Total 2-bit-predictor misses.
    pub mispredicts: u64,
    /// Misses over dynamically executed conditional branches.
    pub mispredict_rate: Option<f64>,
    /// The hottest PCs, by execution count.
    pub hot: Vec<HotPc>,
    /// Fraction of all executed ops covered by [`BenchProfile::hot`].
    pub hot_coverage: f64,
    /// Cycles of the 3-unit trace-scheduled run.
    pub sim_cycles: u64,
    /// Mean ops per non-bubble cycle on the 3-unit machine.
    pub mean_occupancy: f64,
    /// Per-class slot utilization on the 3-unit machine.
    pub utilization: [f64; OpClass::COUNT],
    /// Fraction of cycles lost to taken-branch bubbles.
    pub bubble_fraction: f64,
}

/// Everything [`collect`] produces.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// Full experiment results, in table order.
    pub results: Vec<BenchResult>,
    /// Profiled-engine measurements, in the same order.
    pub profiles: Vec<BenchProfile>,
    /// The structured metric snapshot.
    pub snapshot: Snapshot,
    /// `metrics.json` (stable schema, diffable).
    pub metrics_json: String,
    /// The value-elided schema descriptor of `metrics_json`.
    pub schema_json: String,
    /// Chrome Trace Format JSON (load in Perfetto / `chrome://tracing`).
    pub trace_json: String,
}

/// Runs the instrumented suite and the profiled passes.
///
/// # Errors
///
/// Fails if any benchmark does not compile, run and self-check under
/// every configuration; see [`experiments::measure_suite_obs`].
pub fn collect(opts: &ReportOptions) -> Result<ObsReport, PipelineError> {
    let obs = Registry::new();
    let threads = if opts.threads == 0 {
        experiments::default_threads()
    } else {
        opts.threads
    };
    let results = experiments::measure_suite_obs(opts.benches, threads, &obs)?;
    let mut profiles = Vec::with_capacity(opts.benches.len());
    for b in opts.benches {
        profiles.push(profile_bench(b, opts.hot_pcs, &obs)?);
    }
    let snapshot = obs.snapshot();
    Ok(ObsReport {
        results,
        profiles,
        metrics_json: snapshot.to_json(),
        schema_json: snapshot.schema_json(),
        trace_json: obs.chrome_trace_json(),
        snapshot,
    })
}

/// The `PROFILE = true` pass for one benchmark: sequential engine with
/// the per-PC branch predictor, then the 3-unit trace schedule on the
/// profiled VLIW engine. Its image compiles off the registry: the
/// suite run already recorded each front-end stage of the benchmark.
fn profile_bench(
    bench: &Benchmark,
    hot_pcs: usize,
    obs: &Registry,
) -> Result<BenchProfile, PipelineError> {
    let labels: &[(&str, &str)] = &[("bench", bench.name)];
    let compiled = Compiled::from_source(bench.source)?;
    let _span = obs.span("profile", labels);

    let (outcome, stats, steps, prof) = DecodedEmulator::new(&compiled.decoded, &compiled.layout)
        .run_with_profile(&ExecConfig::default());
    if outcome? != Outcome::Success {
        return Err(PipelineError::WrongAnswer);
    }
    let mispredicts = prof.total_mispredicts();
    obs.counter("emulator.mispredicts", labels).add(mispredicts);

    let hot = stats
        .hot_pcs(hot_pcs)
        .into_iter()
        .map(|(pc, count)| HotPc {
            pc,
            count,
            class: compiled.ici.ops()[pc].class().name(),
            mispredicts: prof.mispredict[pc],
        })
        .collect::<Vec<_>>();
    let hot_ops: u64 = hot.iter().map(|h| h.count).sum();
    let hot_coverage = if steps == 0 {
        0.0
    } else {
        hot_ops as f64 / steps as f64
    };

    let machine = MachineConfig::units(3);
    let compacted = try_compact(
        &compiled.ici,
        &stats,
        &machine,
        CompactMode::TraceSchedule,
        &TracePolicy::default(),
    )?;
    let decoded = DecodedVliw::new(&compacted.program, machine);
    let (sim, sim_profile) =
        DecodedVliwSim::new(&decoded, &compiled.layout).run_profiled(&SimConfig::default());
    let sim = sim?;
    if sim.outcome != SimOutcome::Success {
        return Err(PipelineError::WrongAnswer);
    }
    obs.counter("sim.bubble_cycles", labels)
        .add(sim_profile.branch_bubble_cycles);

    Ok(BenchProfile {
        name: bench.name,
        steps,
        mispredicts,
        mispredict_rate: prof.mispredict_rate(&compiled.ici, &stats),
        hot,
        hot_coverage,
        sim_cycles: sim.cycles,
        mean_occupancy: sim_profile.mean_occupancy(),
        utilization: sim_profile.class_utilization(&machine, sim.cycles),
        bubble_fraction: if sim.cycles == 0 {
            0.0
        } else {
            sim_profile.branch_bubble_cycles as f64 / sim.cycles as f64
        },
    })
}

impl ObsReport {
    /// The human summary table: one line per benchmark combining the
    /// experiment results with the profiled-engine measurements.
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>8} {:>7} {:>6} {:>7} {:>22} {:>8}",
            "bench", "steps", "mispr%", "hot%", "x3", "occ3", "util3 m/a/v/c", "bubble%"
        );
        for (r, p) in self.results.iter().zip(&self.profiles) {
            let util = p
                .utilization
                .iter()
                .map(|u| format!("{:.0}", u * 100.0))
                .collect::<Vec<_>>()
                .join("/");
            let _ = writeln!(
                out,
                "{:<10} {:>12} {:>8.2} {:>7.1} {:>6.2} {:>7.2} {:>22} {:>8.1}",
                p.name,
                p.steps,
                p.mispredict_rate.unwrap_or(0.0) * 100.0,
                p.hot_coverage * 100.0,
                r.unit_speedup(3),
                p.mean_occupancy,
                util,
                p.bubble_fraction * 100.0,
            );
        }
        out
    }

    /// The hot-block report: the hottest PCs of every benchmark with
    /// their instruction class and predictor misses — the dynamic mix
    /// of these lines is what reconstructs the paper's Figure 2 from
    /// individual ops.
    pub fn hot_block_report(&self) -> String {
        let mut out = String::new();
        for p in &self.profiles {
            let _ = writeln!(
                out,
                "{}: {} ops, {} mispredicts ({} hot PCs cover {:.1}%)",
                p.name,
                p.steps,
                p.mispredicts,
                p.hot.len(),
                p.hot_coverage * 100.0
            );
            for h in &p.hot {
                let _ = writeln!(
                    out,
                    "  pc {:>5}  {:<8} {:>12} execs {:>8} mispredicts",
                    h.pc, h.class, h.count, h.mispredicts
                );
            }
        }
        out
    }

    /// `Some(message)` when the run's metric schema differs from
    /// [`PINNED_SCHEMA`], `None` when they match.
    pub fn schema_drift(&self) -> Option<String> {
        schema_drift_against(&self.schema_json, PINNED_SCHEMA)
    }
}

/// Compares two schema documents line by line and renders the first
/// divergence as a human-readable message.
pub fn schema_drift_against(actual: &str, pinned: &str) -> Option<String> {
    if actual == pinned {
        return None;
    }
    let mut msg = String::from(
        "metrics.json schema drifted from the checked-in OBS_SCHEMA.json \
         (regenerate with `obs_report --print-schema` if intentional):\n",
    );
    let mut actual_lines = actual.lines();
    let mut pinned_lines = pinned.lines();
    loop {
        match (actual_lines.next(), pinned_lines.next()) {
            (Some(a), Some(p)) if a == p => continue,
            (Some(a), Some(p)) => {
                let _ = writeln!(msg, "  expected: {p}");
                let _ = writeln!(msg, "  actual:   {a}");
                break;
            }
            (Some(a), None) => {
                let _ = writeln!(msg, "  extra line: {a}");
                break;
            }
            (None, Some(p)) => {
                let _ = writeln!(msg, "  missing line: {p}");
                break;
            }
            (None, None) => break,
        }
    }
    Some(msg)
}

/// Validates a `metrics.json` document beyond the line-level schema
/// diff: it must parse, carry the current [`SCHEMA_VERSION`], and
/// every histogram entry must hold all [`HISTOGRAM_FIELDS`] including
/// a `quantiles` object with finite p50/p90/p99.
///
/// # Errors
///
/// Returns the first violation as a human-readable message.
pub fn validate_dump(metrics_json: &str) -> Result<(), String> {
    let doc = json::parse(metrics_json).map_err(|e| format!("metrics.json does not parse: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(json::Value::as_u64)
        .ok_or("metrics.json: missing schema_version")?;
    if version != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "metrics.json: schema_version {version}, expected {SCHEMA_VERSION}"
        ));
    }
    let hists = doc
        .get("histograms")
        .and_then(json::Value::as_arr)
        .ok_or("metrics.json: missing histograms array")?;
    for h in hists {
        let name = h
            .get("name")
            .and_then(json::Value::as_str)
            .unwrap_or("<unnamed>");
        for field in HISTOGRAM_FIELDS {
            if h.get(field).is_none() {
                return Err(format!("histogram {name}: missing field {field:?}"));
            }
        }
        let q = h.get("quantiles").expect("checked above");
        for p in ["p50", "p90", "p99"] {
            let v = q
                .get(p)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("histogram {name}: quantiles missing {p}"))?;
            if !v.is_finite() {
                return Err(format!("histogram {name}: {p} is not finite"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_bench_report() -> ObsReport {
        let opts = ReportOptions {
            benches: &benchmarks::ALL[..1],
            threads: 1,
            hot_pcs: 5,
        };
        collect(&opts).unwrap()
    }

    #[test]
    fn schema_matches_the_checked_in_snapshot() {
        // The schema is value-elided and deduplicated, so a single
        // benchmark exercises the exact metric set of the full suite.
        let r = one_bench_report();
        if let Some(drift) = r.schema_drift() {
            panic!("{drift}");
        }
    }

    #[test]
    fn report_exports_are_populated_and_consistent() {
        let r = one_bench_report();
        assert_eq!(r.results.len(), 1);
        assert_eq!(r.profiles.len(), 1);
        let p = &r.profiles[0];
        assert_eq!(p.name, r.results[0].name);
        assert!(p.steps > 0);
        assert!(!p.hot.is_empty() && p.hot_coverage > 0.0 && p.hot_coverage <= 1.0);
        assert!(p.sim_cycles > 0 && p.mean_occupancy > 0.0);
        assert!(r.metrics_json.contains("\"schema_version\""));
        assert!(r.trace_json.contains("\"traceEvents\""));
        assert!(r.human_table().contains(p.name));
        assert!(r.hot_block_report().contains("execs"));
        // The v2 dump checks are not vacuous: the freshly collected
        // report passes them.
        validate_dump(&r.metrics_json).expect("metrics.json validates");
    }

    #[test]
    fn each_front_end_stage_is_recorded_once_per_benchmark() {
        let r = one_bench_report();
        let bench = r.profiles[0].name;
        for stage in ["parse", "compile", "translate", "decode"] {
            let name = format!("span.{stage}.ns");
            let counts: Vec<u64> = r
                .snapshot
                .histograms
                .iter()
                .filter(|h| h.name == name)
                .filter(|h| h.labels.iter().any(|(k, v)| k == "bench" && v == bench))
                .map(|h| h.count)
                .collect();
            assert_eq!(counts, [1], "{name}{{bench={bench}}}");
        }
    }

    #[test]
    fn validate_dump_rejects_broken_documents() {
        assert!(validate_dump("not json").is_err());
        assert!(validate_dump("{\"schema_version\": 1, \"histograms\": []}")
            .unwrap_err()
            .contains("schema_version"));
        let no_quantiles = format!(
            "{{\"schema_version\": {SCHEMA_VERSION}, \"histograms\": \
             [{{\"name\": \"h\", \"labels\": {{}}, \"count\": 1, \"sum\": 1, \
             \"buckets\": []}}]}}"
        );
        assert!(validate_dump(&no_quantiles)
            .unwrap_err()
            .contains("quantiles"));
    }

    #[test]
    fn schema_drift_reports_first_divergence() {
        assert!(schema_drift_against("a\nb\n", "a\nb\n").is_none());
        let msg = schema_drift_against("a\nx\n", "a\nb\n").unwrap();
        assert!(msg.contains("expected: b") && msg.contains("actual:   x"));
        assert!(schema_drift_against("a\n", "a\nb\n")
            .unwrap()
            .contains("missing line"));
    }
}
