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
//! (per-histogram quantiles) are really present and finite, and
//! [`validate_timeline`] does the same for a timeline ndjson series.
//!
//! The report also renders the serving tier's incident artifacts:
//! [`render_flight_dump`] turns a flight-recorder ndjson dump into a
//! readable table, and [`render_timeline`] summarizes a timeline
//! series tick by tick.

use std::fmt::Write as _;

use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_intcode::decode::DecodedEmulator;
use symbol_intcode::emu::{ExecConfig, Outcome};
use symbol_intcode::OpClass;
use symbol_obs::export::{HISTOGRAM_FIELDS, SCHEMA_VERSION};
use symbol_obs::json;
use symbol_obs::timeline::TIMELINE_FIELDS;
use symbol_obs::{Registry, Snapshot, Timeline};
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
    /// Timeline ndjson: one tick after the suite run and one after
    /// each profiled benchmark, so the series shows when the work
    /// happened (counter deltas per phase).
    pub timeline_ndjson: String,
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
    let mut timeline = Timeline::new();
    let mut timeline_ndjson = String::new();
    let results = experiments::measure_suite_obs(opts.benches, threads, &obs)?;
    timeline_ndjson.push_str(&timeline.tick(&obs.snapshot(), obs.now_ns()));
    timeline_ndjson.push('\n');
    let mut profiles = Vec::with_capacity(opts.benches.len());
    for b in opts.benches {
        profiles.push(profile_bench(b, opts.hot_pcs, &obs)?);
        timeline_ndjson.push_str(&timeline.tick(&obs.snapshot(), obs.now_ns()));
        timeline_ndjson.push('\n');
    }
    let snapshot = obs.snapshot();
    Ok(ObsReport {
        results,
        profiles,
        metrics_json: snapshot.to_json(),
        schema_json: snapshot.schema_json(),
        trace_json: obs.chrome_trace_json(),
        timeline_ndjson,
        snapshot,
    })
}

/// The `PROFILE = true` pass for one benchmark: sequential engine with
/// the per-PC branch predictor, then the 3-unit trace schedule on the
/// profiled VLIW engine.
fn profile_bench(
    bench: &Benchmark,
    hot_pcs: usize,
    obs: &Registry,
) -> Result<BenchProfile, PipelineError> {
    let labels: &[(&str, &str)] = &[("bench", bench.name)];
    let compiled = Compiled::from_source_obs(bench.source, Default::default(), obs, bench.name)?;
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

/// Validates a timeline ndjson series: every line must parse and hold
/// all [`TIMELINE_FIELDS`], and the tick timestamps must not go
/// backwards.
///
/// # Errors
///
/// Returns the first violation as a human-readable message.
pub fn validate_timeline(ndjson: &str) -> Result<(), String> {
    let mut prev_t = 0u64;
    let mut lines = 0usize;
    for (i, line) in ndjson.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("timeline line {}: {e}", i + 1))?;
        for field in TIMELINE_FIELDS {
            if v.get(field).is_none() {
                return Err(format!("timeline line {}: missing field {field:?}", i + 1));
            }
        }
        let t = v
            .get("t_ns")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("timeline line {}: t_ns is not a u64", i + 1))?;
        if t < prev_t {
            return Err(format!("timeline line {}: t_ns went backwards", i + 1));
        }
        prev_t = t;
        lines += 1;
    }
    if lines == 0 {
        return Err("timeline is empty".into());
    }
    Ok(())
}

/// Renders a flight-recorder ndjson dump (as written by the serving
/// tier's `--flight-dir` triggers, or by `FlightRecorder::to_ndjson`)
/// as a human-readable table. A leading header line (`request_id`,
/// `reason`, `elapsed_ns`, `dropped`) is summarized above the table
/// when present.
///
/// # Errors
///
/// Fails on the first malformed line.
pub fn render_flight_dump(dump: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut rows: Vec<(u64, u64, u64, String, u64, u64)> = Vec::new();
    let mut seen_any = false;
    for (i, line) in dump.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("flight line {}: {e}", i + 1))?;
        if !seen_any && v.get("seq").is_none() {
            // The incident header the serving tier writes first.
            let req = v
                .get("request_id")
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("flight line {}: neither record nor header", i + 1))?;
            let reason = v.get("reason").and_then(json::Value::as_str).unwrap_or("?");
            let elapsed = v
                .get("elapsed_ns")
                .and_then(json::Value::as_u64)
                .unwrap_or(0);
            let dropped = v.get("dropped").and_then(json::Value::as_u64).unwrap_or(0);
            let _ = writeln!(
                out,
                "incident: request {req} ({reason}), execute {:.3} ms, {dropped} records dropped",
                elapsed as f64 / 1e6
            );
            seen_any = true;
            continue;
        }
        seen_any = true;
        let num = |key: &str| {
            v.get(key)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("flight line {}: missing {key}", i + 1))
        };
        let kind = v
            .get("kind")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("flight line {}: missing kind", i + 1))?;
        rows.push((
            num("seq")?,
            num("ts_ns")?,
            num("tid")?,
            kind.to_string(),
            num("a")?,
            num("b")?,
        ));
    }
    if rows.is_empty() {
        let _ = writeln!(out, "(no flight records)");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>5} {:<14} {:>20} {:>20}",
        "seq", "ts_ns", "tid", "kind", "a", "b"
    );
    for (seq, ts, tid, kind, a, b) in &rows {
        let _ = writeln!(out, "{seq:>8} {ts:>14} {tid:>5} {kind:<14} {a:>20} {b:>20}");
    }
    let _ = writeln!(out, "{} records", rows.len());
    Ok(out)
}

/// Renders a timeline ndjson series as one human-readable line per
/// tick: the timestamp plus the tick's counter deltas, changed gauges
/// and histogram activity.
///
/// # Errors
///
/// Fails on the first malformed line (via [`validate_timeline`]).
pub fn render_timeline(ndjson: &str) -> Result<String, String> {
    validate_timeline(ndjson)?;
    let mut out = String::new();
    for line in ndjson.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).expect("validated above");
        let t = v.get("t_ns").and_then(json::Value::as_u64).unwrap_or(0);
        let _ = write!(out, "t={:>12.3} ms", t as f64 / 1e6);
        let arr = |key: &str| {
            v.get(key)
                .and_then(json::Value::as_arr)
                .cloned()
                .unwrap_or_default()
        };
        let counters = arr("counters");
        let gauges = arr("gauges");
        let hists = arr("histograms");
        let total_delta: u64 = counters
            .iter()
            .filter_map(|c| c.get("delta").and_then(json::Value::as_u64))
            .sum();
        let _ = write!(
            out,
            "  {:>3} counters (+{total_delta})  {:>2} gauges  {:>2} histograms",
            counters.len(),
            gauges.len(),
            hists.len()
        );
        // The busiest counter of the tick anchors the eye.
        let top = counters
            .iter()
            .max_by_key(|c| c.get("delta").and_then(json::Value::as_u64).unwrap_or(0));
        if let Some(top) = top {
            let name = top.get("name").and_then(json::Value::as_str).unwrap_or("?");
            let delta = top.get("delta").and_then(json::Value::as_u64).unwrap_or(0);
            let _ = write!(out, "  top {name} +{delta}");
        }
        out.push('\n');
    }
    Ok(out)
}

/// Renders a `BENCH_sweep.json` document (the `sweep` binary's
/// `sweep-v1` schema) as the human frontier report: the Pareto
/// frontier of hardware cost vs. geomean speedup, and the fastest
/// machine per benchmark — without re-running anything.
///
/// # Errors
///
/// Fails on malformed JSON, a wrong schema tag, or indices that point
/// outside the config table.
pub fn render_sweep_report(doc: &str) -> Result<String, String> {
    let v = json::parse(doc)?;
    if v.get("schema").and_then(json::Value::as_str) != Some("sweep-v1") {
        return Err("not a sweep-v1 report (missing or wrong `schema`)".into());
    }
    let configs = v
        .get("configs")
        .and_then(json::Value::as_arr)
        .ok_or("sweep report: missing `configs`")?;
    let config = |i: u64| -> Result<&json::Value, String> {
        configs
            .get(i as usize)
            .ok_or_else(|| format!("sweep report: config index {i} out of range"))
    };
    let cfg_str = |c: &json::Value, key: &str| -> String {
        c.get(key)
            .and_then(json::Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let cfg_num = |c: &json::Value, key: &str| -> f64 {
        c.get(key).and_then(json::Value::as_f64).unwrap_or(f64::NAN)
    };

    let mut out = String::new();
    let grid = v.get("grid").and_then(json::Value::as_str).unwrap_or("?");
    let benches = v
        .get("benches")
        .and_then(json::Value::as_arr)
        .ok_or("sweep report: missing `benches`")?;
    let _ = writeln!(
        out,
        "Design-space sweep: {} configs x {} benchmarks (grid {grid})",
        configs.len(),
        benches.len()
    );
    if let Some(truncated) = v.get("truncated").and_then(json::Value::as_arr) {
        if !truncated.is_empty() {
            let names: Vec<&str> = truncated.iter().filter_map(json::Value::as_str).collect();
            let _ = writeln!(
                out,
                "TRUNCATED by time budget; skipped: {}",
                names.join(", ")
            );
        }
    }
    out.push('\n');

    let best_overall = v.get("best_overall").and_then(json::Value::as_u64);
    out.push_str("Pareto frontier (hardware cost vs geomean speedup):\n");
    let mut frontier = symbol_analysis::TextTable::new(&["config", "cost", "geomean speedup"]);
    for i in v
        .get("frontier")
        .and_then(json::Value::as_arr)
        .ok_or("sweep report: missing `frontier`")?
        .iter()
        .filter_map(json::Value::as_u64)
    {
        let c = config(i)?;
        let marker = if Some(i) == best_overall {
            " *best"
        } else {
            ""
        };
        frontier.row(vec![
            format!("{}{marker}", cfg_str(c, "label")),
            format!("{:.2}", cfg_num(c, "cost")),
            format!("{:.2}", cfg_num(c, "geomean_speedup")),
        ]);
    }
    out.push_str(&frontier.to_string());

    out.push_str("\nBest machine per benchmark:\n");
    let mut winners = symbol_analysis::TextTable::new(&["benchmark", "config", "speedup"]);
    for w in v
        .get("best_per_bench")
        .and_then(json::Value::as_arr)
        .ok_or("sweep report: missing `best_per_bench`")?
    {
        let i = w
            .get("config")
            .and_then(json::Value::as_u64)
            .ok_or("sweep report: winner without a config index")?;
        let c = config(i)?;
        winners.row(vec![
            cfg_str(w, "bench"),
            cfg_str(c, "label"),
            format!("{:.2}", cfg_num(w, "speedup")),
        ]);
    }
    out.push_str(&winners.to_string());
    Ok(out)
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
        // report passes them, and its timeline renders.
        validate_dump(&r.metrics_json).expect("metrics.json validates");
        validate_timeline(&r.timeline_ndjson).expect("timeline validates");
        // One tick after the suite plus one per profiled benchmark.
        assert_eq!(r.timeline_ndjson.lines().count(), 1 + r.profiles.len());
        assert!(render_timeline(&r.timeline_ndjson)
            .expect("timeline renders")
            .contains("counters"));
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
    fn validate_timeline_rejects_broken_series() {
        assert!(validate_timeline("").unwrap_err().contains("empty"));
        assert!(validate_timeline("{\"t_ns\": 1}\n")
            .unwrap_err()
            .contains("missing field"));
        let backwards = "{\"t_ns\": 5, \"counters\": [], \"gauges\": [], \"histograms\": []}\n\
                         {\"t_ns\": 4, \"counters\": [], \"gauges\": [], \"histograms\": []}\n";
        assert!(validate_timeline(backwards)
            .unwrap_err()
            .contains("backwards"));
    }

    #[test]
    fn flight_dump_renders_header_and_records() {
        let dump = "{\"request_id\": 42, \"reason\": \"slow\", \"elapsed_ns\": 2500000, \
                    \"dropped\": 0}\n\
                    {\"seq\": 1, \"ts_ns\": 10, \"tid\": 3, \"kind\": \"query_start\", \
                    \"a\": 42, \"b\": 0}\n\
                    {\"seq\": 2, \"ts_ns\": 20, \"tid\": 3, \"kind\": \"query_ok\", \
                    \"a\": 42, \"b\": 99}\n";
        let rendered = render_flight_dump(dump).expect("renders");
        assert!(rendered.contains("request 42 (slow)"));
        assert!(rendered.contains("query_start"));
        assert!(rendered.contains("2 records"));
        // A headerless dump (raw FlightRecorder::to_ndjson) also renders.
        let raw = "{\"seq\": 7, \"ts_ns\": 1, \"tid\": 0, \"kind\": \"mark\", \
                   \"a\": 0, \"b\": 0}\n";
        assert!(render_flight_dump(raw).expect("renders").contains("mark"));
        assert!(render_flight_dump("{\"bogus\": true}").is_err());
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

    #[test]
    fn sweep_report_renders_from_its_json() {
        use crate::experiments::sweep::{BenchSweep, GridSpec, SweepReport};
        let grid = GridSpec {
            units: vec![1, 2],
            ..GridSpec::paper()
        };
        let report = SweepReport {
            grid: grid.describe(),
            points: grid.expand(),
            units_chunk: 2,
            benches: vec![BenchSweep {
                name: "nreverse",
                seq_cycles: 1000,
                seq_mem_ops: 100,
                cycles: vec![500, 250],
                mem_ops: vec![100, 110],
            }],
            truncated: vec!["qsort"],
        };
        let rendered = render_sweep_report(&report.to_json()).expect("renders");
        assert!(rendered.contains("Pareto frontier"));
        assert!(rendered.contains("*best"));
        assert!(rendered.contains("nreverse"));
        assert!(rendered.contains("skipped: qsort"));
        // The winner row shows the 2-unit machine's 4.00x speedup.
        assert!(rendered.contains("4.00"), "{rendered}");

        assert!(render_sweep_report("{\"schema\": \"nope\"}").is_err());
        assert!(render_sweep_report("not json").is_err());
    }
}
