//! Legacy vs pre-decoded vs profile-guided-fused engine timing: runs
//! the **full** benchmark suite through the op-at-a-time
//! [`symbol_intcode::Emulator`], the micro-op
//! [`symbol_intcode::DecodedEmulator`], and the same decoded engine on
//! the fused superinstruction tier built from each benchmark's own
//! execution profile. The two VLIW simulators are timed as a sidecar
//! on the smaller `TIMING_SUBSET`. Writes the per-benchmark numbers to
//! `BENCH_emulator.json` at the workspace root.
//!
//! With `--check`, exits nonzero if:
//!
//! * the decoded emulator's geometric mean speedup over the suite
//!   drops below 1.0× against legacy, or
//! * the fused tier's geometric mean speedup over the decoded engine
//!   drops below [`MIN_FUSED_SPEEDUP`] — the CI `timing-smoke` gate
//!   that keeps the second tier from regressing behind the engine it
//!   is built on (slightly under 1.0 to absorb shared-runner timing
//!   noise; the tier must at minimum break even, not pay for itself),
//!   or
//! * any **single** benchmark's fused speedup drops below
//!   [`MIN_FUSED_PER_BENCH`] — a geomean can hide one benchmark the
//!   profitability threshold mis-tiered behind fifteen that fused
//!   well; the per-benchmark floor cannot (a benchmark that lands
//!   under the floor is confirmed by paired back-to-back re-measures
//!   before failing — see [`remeasure_fused`] — so scheduler hiccups
//!   on a shared runner do not fail the gate), or
//! * running through the observability layer with a
//!   [`Registry::disabled`] costs more than [`MAX_OBS_OVERHEAD`] over
//!   the plain engine (the zero-cost-when-off guarantee of
//!   `symbol-obs`, measured on the same machine in the same process
//!   rather than against a stale cross-machine baseline), or
//! * the same path with an **enabled** flight recorder taking the
//!   serving tier's per-query records costs more than
//!   [`MAX_FLIGHT_OVERHEAD`] — the always-on incident recorder must
//!   stay cheap enough to leave enabled in production.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use symbol_bench::timing::Harness;
use symbol_bench::TIMING_SUBSET;
use symbol_compactor::{compact, CompactMode, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::pipeline::Compiled;
use symbol_intcode::{DecodedEmulator, Emulator, ExecConfig, Layout};
use symbol_obs::{FlightKind, FlightRecorder, Registry};
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, VliwSim};

/// Largest tolerated geomean slowdown of the disabled-observability
/// path over the plain engine (2%).
const MAX_OBS_OVERHEAD: f64 = 0.02;

/// Largest tolerated geomean slowdown with an enabled flight recorder
/// taking the serving tier's per-query records (5%).
const MAX_FLIGHT_OVERHEAD: f64 = 0.05;

/// Smallest tolerated geomean speedup of the fused tier over the
/// decoded engine it rewrites. 1.0 would be the true break-even line;
/// the 2% allowance absorbs wall-clock jitter on shared CI runners.
const MIN_FUSED_SPEEDUP: f64 = 0.98;

/// Smallest tolerated fused speedup on any **individual** benchmark.
/// Looser than the geomean floor (single measurements are noisier
/// than a 16-benchmark mean), but strict enough that a benchmark the
/// profitability threshold should have left un-fused — fusing
/// once-executed pairs whose superinstruction dispatch costs more
/// than it saves — fails the gate instead of hiding in the mean.
const MIN_FUSED_PER_BENCH: f64 = 0.95;

/// One benchmark's legacy/decoded/fused emulator comparison.
struct Row {
    name: &'static str,
    steps: u64,
    legacy: Duration,
    decoded: Duration,
    /// The same decoded run through `run_sequential_obs` with a
    /// disabled registry — the instrumented-but-off product path.
    obs_off: Duration,
    /// The obs-off path with an enabled [`FlightRecorder`] taking the
    /// serving tier's per-query start/end records.
    flight: Duration,
    /// The decoded engine on the fused superinstruction program.
    fused: Duration,
    /// Hot pairs the fusion pass rewrote for this benchmark.
    fused_pairs: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.legacy.as_secs_f64() / self.decoded.as_secs_f64()
    }

    /// Fused-tier speedup over the decoded engine it was built from.
    fn fused_speedup(&self) -> f64 {
        self.decoded.as_secs_f64() / self.fused.as_secs_f64()
    }

    /// Fractional cost of the disabled observability layer (0.01 = 1%
    /// slower than the plain engine; negative = within noise).
    fn obs_overhead(&self) -> f64 {
        self.obs_off.as_secs_f64() / self.decoded.as_secs_f64() - 1.0
    }

    /// Fractional cost of the flight-recorder-enabled path over the
    /// plain engine.
    fn flight_overhead(&self) -> f64 {
        self.flight.as_secs_f64() / self.decoded.as_secs_f64() - 1.0
    }

    fn steps_per_sec(&self, mean: Duration) -> f64 {
        self.steps as f64 / mean.as_secs_f64()
    }
}

/// Arenas just big enough for the benchmark suite. Every
/// `Emulator::new` zeroes the whole data memory; with the default
/// ~3.6M-word layout that allocation dominates the per-iteration time
/// for *all* engines and hides the step-loop difference this bench
/// exists to measure.
fn small_layout() -> Layout {
    Layout {
        heap_size: 1 << 16,
        env_size: 1 << 14,
        cp_size: 1 << 14,
        trail_size: 1 << 14,
        pdl_size: 1 << 10,
    }
}

/// `tak` recurses ~64k calls deep and blows through the small arenas;
/// it gets deeper env/cp/trail stacks. Its 5.4M-step run amortises the
/// larger zeroing cost, so the measurement stays a step-loop one.
fn layout_for(name: &str) -> Layout {
    if name == "tak" {
        Layout {
            heap_size: 1 << 17,
            env_size: 1 << 19,
            cp_size: 1 << 18,
            trail_size: 1 << 19,
            pdl_size: 1 << 14,
        }
    } else {
        small_layout()
    }
}

fn measure(h: &mut Harness) -> Vec<Row> {
    let mut rows = Vec::new();
    for b in benchmarks::ALL {
        let name = b.name;
        let mut c =
            Compiled::from_source_obs(b.source, layout_for(name), &Registry::disabled(), "")
                .expect("compiles");
        let run = c.run_sequential().expect("profiling run");
        let cfg = ExecConfig::default();

        h.bench_function(&format!("emulator/legacy/{name}"), |bch| {
            bch.iter(|| Emulator::new(&c.ici, &c.layout).run(&cfg).expect("runs"))
        });
        h.bench_function(&format!("emulator/decoded/{name}"), |bch| {
            bch.iter(|| {
                DecodedEmulator::new(&c.decoded, &c.layout)
                    .run(&cfg)
                    .expect("runs")
            })
        });
        let off = Registry::disabled();
        h.bench_function(&format!("emulator/obs-off/{name}"), |bch| {
            bch.iter(|| c.run_sequential_obs(&off, name).expect("runs"))
        });
        // The serving hot path with the incident recorder live: the
        // same run bracketed by the per-query flight records the
        // query server takes.
        let flight = FlightRecorder::new(1024);
        let mut req = 0u64;
        h.bench_function(&format!("emulator/flight/{name}"), |bch| {
            bch.iter(|| {
                flight.record(FlightKind::QueryStart, req, 0);
                let r = c.run_sequential_obs(&off, name).expect("runs");
                flight.record(FlightKind::QueryOk, req, r.steps);
                req += 1;
                r
            })
        });

        // Second tier: build the fused program from this benchmark's
        // own profile, then time the same engine on it.
        c.build_fused_tier().expect("fuses");
        let tier = c.fused.as_ref().expect("tier installed");
        h.bench_function(&format!("emulator/fused/{name}"), |bch| {
            bch.iter(|| {
                DecodedEmulator::new(&tier.program, &c.layout)
                    .run(&cfg)
                    .expect("runs")
            })
        });

        let n = h.samples().len();
        rows.push(Row {
            name,
            steps: run.steps,
            legacy: h.samples()[n - 5].mean,
            decoded: h.samples()[n - 4].mean,
            obs_off: h.samples()[n - 3].mean,
            flight: h.samples()[n - 2].mean,
            fused: h.samples()[n - 1].mean,
            fused_pairs: tier.report.pairs,
        });

        // VLIW sidecar on the timing subset only: same comparison on
        // the scheduled code (timed, reported in the JSON's sidecar
        // section, but not part of the --check gate — the emulator
        // dominates runtime).
        if !TIMING_SUBSET.contains(&name) {
            continue;
        }
        let machine = MachineConfig::units(3);
        let compacted = compact(
            &c.ici,
            &run.stats,
            &machine,
            CompactMode::TraceSchedule,
            &TracePolicy::default(),
        );
        let sim_cfg = SimConfig::default();
        h.bench_function(&format!("vliw/legacy/{name}"), |bch| {
            bch.iter(|| {
                VliwSim::new(&compacted.program, machine, &c.layout)
                    .run(&sim_cfg)
                    .expect("simulates")
            })
        });
        let lowered = DecodedVliw::new(&compacted.program, machine);
        h.bench_function(&format!("vliw/decoded/{name}"), |bch| {
            bch.iter(|| {
                DecodedVliwSim::new(&lowered, &c.layout)
                    .run(&sim_cfg)
                    .expect("simulates")
            })
        });
    }
    rows
}

/// A fresh decoded-vs-fused confirmation of `name`, used before
/// failing the per-benchmark floor gate. The first pass times every
/// engine of every benchmark minutes apart, so a descheduling blip or
/// a frequency step can dent one ratio; on shared runners identical
/// programs measured one-sidedly read 15% apart. Two defences:
///
/// * if the fusion pass selected zero pairs, the fused program is
///   bit-identical to the decoded one and the ratio is 1.0 by
///   construction — no measurement, no noise;
/// * otherwise up to three *paired* rounds, each timing decoded then
///   fused immediately back-to-back, keeping the **best** ratio seen:
///   noise can fake a slow round but never a fast one, so a violation
///   that survives every round is a real regression.
fn remeasure_fused(name: &str) -> f64 {
    let b = benchmarks::ALL
        .iter()
        .find(|b| b.name == name)
        .expect("known benchmark");
    let mut c = Compiled::from_source_obs(b.source, layout_for(name), &Registry::disabled(), "")
        .expect("compiles");
    c.build_fused_tier().expect("fuses");
    let tier = c.fused.as_ref().expect("tier installed");
    if tier.report.pairs == 0 {
        println!("recheck/{name}: 0 pairs fused, program unchanged");
        return 1.0;
    }
    let cfg = ExecConfig::default();
    let mut best = 0.0f64;
    for round in 0..3 {
        let mut h = Harness::new();
        h.bench_function(&format!("recheck{round}/decoded/{name}"), |bch| {
            bch.iter(|| {
                DecodedEmulator::new(&c.decoded, &c.layout)
                    .run(&cfg)
                    .expect("runs")
            })
        });
        h.bench_function(&format!("recheck{round}/fused/{name}"), |bch| {
            bch.iter(|| {
                DecodedEmulator::new(&tier.program, &c.layout)
                    .run(&cfg)
                    .expect("runs")
            })
        });
        let n = h.samples().len();
        best =
            best.max(h.samples()[n - 2].mean.as_secs_f64() / h.samples()[n - 1].mean.as_secs_f64());
        if best >= MIN_FUSED_PER_BENCH {
            break;
        }
    }
    best
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (log_sum, n) = ratios.fold((0.0f64, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    (log_sum / n.max(1) as f64).exp()
}

/// Geomean of the obs-off/plain time ratios, expressed as an overhead
/// fraction.
fn geomean_obs_overhead(rows: &[Row]) -> f64 {
    geomean(rows.iter().map(|r| 1.0 + r.obs_overhead())) - 1.0
}

/// Geomean of the flight-enabled/plain time ratios, expressed as an
/// overhead fraction.
fn geomean_flight_overhead(rows: &[Row]) -> f64 {
    geomean(rows.iter().map(|r| 1.0 + r.flight_overhead())) - 1.0
}

fn write_report(rows: &[Row], h: &Harness, summary: &Summary) {
    let mut out = String::from("{\n  \"emulator\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"steps\": {}, \"legacy_ns\": {}, \"decoded_ns\": {}, \
             \"obs_off_ns\": {}, \"flight_ns\": {}, \"fused_ns\": {}, \
             \"legacy_steps_per_sec\": {:.0}, \
             \"decoded_steps_per_sec\": {:.0}, \"fused_steps_per_sec\": {:.0}, \
             \"speedup\": {:.3}, \"fused_speedup\": {:.3}, \"fused_pairs\": {}, \
             \"obs_overhead\": {:.4}, \"flight_overhead\": {:.4}}}{sep}",
            r.name,
            r.steps,
            r.legacy.as_nanos(),
            r.decoded.as_nanos(),
            r.obs_off.as_nanos(),
            r.flight.as_nanos(),
            r.fused.as_nanos(),
            r.steps_per_sec(r.legacy),
            r.steps_per_sec(r.decoded),
            r.steps_per_sec(r.fused),
            r.speedup(),
            r.fused_speedup(),
            r.fused_pairs,
            r.obs_overhead(),
            r.flight_overhead(),
        );
    }
    let _ = write!(out, "  ],\n  \"vliw\": [\n");
    let vliw: Vec<_> = h
        .samples()
        .iter()
        .filter(|s| s.name.starts_with("vliw/"))
        .collect();
    for (i, s) in vliw.iter().enumerate() {
        let sep = if i + 1 == vliw.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"mean_ns\": {}}}{sep}",
            s.name,
            s.mean.as_nanos()
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"emulator_geomean_speedup\": {:.3},\n  \
         \"fused_geomean_speedup\": {:.3},\n  \
         \"obs_off_geomean_overhead\": {:.4},\n  \
         \"flight_geomean_overhead\": {:.4}\n}}\n",
        summary.geomean, summary.fused_geomean, summary.obs_overhead, summary.flight_overhead
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_emulator.json");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

struct Summary {
    geomean: f64,
    fused_geomean: f64,
    obs_overhead: f64,
    flight_overhead: f64,
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let mut h = Harness::new();
    let rows = measure(&mut h);
    let summary = Summary {
        geomean: geomean(rows.iter().map(Row::speedup)),
        fused_geomean: geomean(rows.iter().map(Row::fused_speedup)),
        obs_overhead: geomean_obs_overhead(&rows),
        flight_overhead: geomean_flight_overhead(&rows),
    };
    write_report(&rows, &h, &summary);
    for r in &rows {
        println!(
            "{:<10} {:>12} steps  legacy {:>9.2} Msteps/s  decoded {:>9.2} Msteps/s  {:>5.2}x  \
             fused {:>9.2} Msteps/s  {:>5.2}x ({} pairs)  obs-off {:>+6.2}%  flight {:>+6.2}%",
            r.name,
            r.steps,
            r.steps_per_sec(r.legacy) / 1e6,
            r.steps_per_sec(r.decoded) / 1e6,
            r.speedup(),
            r.steps_per_sec(r.fused) / 1e6,
            r.fused_speedup(),
            r.fused_pairs,
            r.obs_overhead() * 100.0,
            r.flight_overhead() * 100.0
        );
    }
    println!("emulator geomean speedup: {:.3}x", summary.geomean);
    println!(
        "fused tier geomean speedup over decoded: {:.3}x (floor {MIN_FUSED_SPEEDUP:.2}x)",
        summary.fused_geomean
    );
    println!(
        "disabled-observability geomean overhead: {:+.2}% (limit {:.0}%)",
        summary.obs_overhead * 100.0,
        MAX_OBS_OVERHEAD * 100.0
    );
    println!(
        "flight-recorder-enabled geomean overhead: {:+.2}% (limit {:.0}%)",
        summary.flight_overhead * 100.0,
        MAX_FLIGHT_OVERHEAD * 100.0
    );
    h.final_summary();
    if check && summary.geomean < 1.0 {
        eprintln!(
            "FAIL: decoded emulator is slower than legacy (geomean {:.3}x < 1.0x)",
            summary.geomean
        );
        std::process::exit(1);
    }
    if check && summary.fused_geomean < MIN_FUSED_SPEEDUP {
        eprintln!(
            "FAIL: fused tier is slower than the decoded engine (geomean {:.3}x < \
             {MIN_FUSED_SPEEDUP:.2}x)",
            summary.fused_geomean
        );
        std::process::exit(1);
    }
    if check {
        for r in &rows {
            let first = r.fused_speedup();
            if first >= MIN_FUSED_PER_BENCH {
                continue;
            }
            let confirmed = remeasure_fused(r.name);
            println!(
                "re-measured {}: fused {confirmed:.3}x (first pass {first:.3}x)",
                r.name
            );
            if confirmed < MIN_FUSED_PER_BENCH {
                eprintln!(
                    "FAIL: fused tier regresses {} ({confirmed:.3}x < \
                     {MIN_FUSED_PER_BENCH:.2}x per-benchmark floor)",
                    r.name
                );
                std::process::exit(1);
            }
        }
    }
    if check && summary.obs_overhead > MAX_OBS_OVERHEAD {
        eprintln!(
            "FAIL: disabled observability costs {:.2}% over the plain engine (limit {:.0}%)",
            summary.obs_overhead * 100.0,
            MAX_OBS_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    if check && summary.flight_overhead > MAX_FLIGHT_OVERHEAD {
        eprintln!(
            "FAIL: the enabled flight recorder costs {:.2}% over the plain engine (limit {:.0}%)",
            summary.flight_overhead * 100.0,
            MAX_FLIGHT_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
}
