//! Emulator and simulator engine timing over the **full** benchmark
//! suite. Writes the per-benchmark numbers to `BENCH_emulator.json` at
//! the workspace root. Two kinds of rows:
//!
//! * **Step-loop rows**, at `Layout::default()`: the legacy
//!   [`symbol_intcode::Emulator`] and [`symbol_intcode::DecodedEmulator::run`]
//!   with statistics on (the profiling loop), and
//!   [`symbol_intcode::run_batch`] on the decoded and on the fused
//!   program with statistics off (the serving loop). Every engine is
//!   built before its timer starts, so a sample is its step loop alone,
//!   and the four are timed in [`ROUNDS`] rounds of [`PASSES`]
//!   back-to-back passes ([`symbol_bench::timing::interleave`]); each
//!   reports the median and IQR of its rounds' fastest passes, and each
//!   benchmark reports how many rounds decoded (stats on) won against
//!   legacy, with the one-sided sign-test p-value.
//! * **Simulator rows**, on every benchmark's trace-scheduled code for
//!   `units(3)` at `Layout::default()`: the legacy [`VliwSim`] and the
//!   production [`DecodedVliwSim`], each built before its timer starts,
//!   timed the same way in [`ROUNDS`] rounds. Each reports the median
//!   and IQR of its rounds' fastest passes, and each benchmark how many
//!   rounds decoded won, with the sign-test p-value. These rows are
//!   printed and recorded, not gated.
//! * **Set-up-inclusive rows** ([`Harness`] means at small layouts):
//!   the legacy and decoded engines, the decoded run through a disabled
//!   registry, and the fused tier.
//!
//! Every run prints the step-loop verdict: whether decoded (stats on)
//! beat legacy at p < [`SIGN_P`] (10 of 11 rounds) on every benchmark
//! of over [`SIGN_STEPS`] steps. The verdict is not a `--check` gate:
//! on a 2-vCPU VM it holds in only some processes, because the stats-on
//! loop is only 5–15% ahead of legacy, so noise takes a benchmark down
//! to 9 of 11, and in some processes the loop loses a whole benchmark
//! (ROADMAP item 3).
//!
//! With `--check`, exits nonzero if:
//!
//! * the decoded emulator's geometric mean speedup over legacy in the
//!   set-up-inclusive rows drops below 1.0×, or
//! * the fused tier's geometric mean speedup over the decoded engine
//!   drops below [`MIN_FUSED_SPEEDUP`] (slightly under 1.0 to absorb
//!   shared-runner timing noise; the tier must at minimum break even,
//!   not pay for itself), or
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
//!   rather than against a stale cross-machine baseline).

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use symbol_bench::timing::{interleave, sign_test, Harness, Interleaved, SignTest};
use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_core::benchmarks::{self, Benchmark};
use symbol_core::pipeline::Compiled;
use symbol_intcode::{
    run_batch, ArenaPool, DecodedEmulator, DecodedProgram, Emulator, ExecConfig, Layout,
};
use symbol_obs::Registry;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, SimResult, VliwSim};

/// Interleaved rounds per step-loop row.
const ROUNDS: usize = 11;

/// Passes per round, even so that each engine of a pair runs first in
/// half of them. A round reports each engine's fastest pass.
const PASSES: usize = 4;

/// The step-loop verdict covers benchmarks of more steps than this;
/// shorter runs take microseconds, where timer and scheduler noise
/// rival the loop.
const SIGN_STEPS: u64 = 50_000;

/// The step-loop verdict's significance level.
const SIGN_P: f64 = 0.01;

/// The step-loop engines, in [`interleave`] order.
const ENGINES: [&str; 4] = ["legacy", "decoded", "batch", "batch_fused"];

/// The simulator rows' engines, in [`interleave`] order.
const SIM_ENGINES: [&str; 2] = ["legacy", "decoded"];

/// Largest tolerated geomean slowdown of the disabled-observability
/// path over the plain engine (2%).
const MAX_OBS_OVERHEAD: f64 = 0.02;

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

/// One benchmark's step-loop samples, one [`Interleaved`] per entry
/// of [`ENGINES`].
struct LoopRow {
    name: &'static str,
    steps: u64,
    engines: Vec<Interleaved>,
}

impl LoopRow {
    fn engine(&self, name: &str) -> &Interleaved {
        self.engines
            .iter()
            .find(|e| e.name == name)
            .expect("known engine")
    }

    /// Rounds in which decoded (stats on) beat legacy.
    fn decoded_vs_legacy(&self) -> SignTest {
        sign_test(self.engine("decoded"), self.engine("legacy"))
    }

    /// Whether the benchmark counts toward the step-loop verdict.
    fn counted(&self) -> bool {
        self.steps > SIGN_STEPS
    }
}

/// A step-loop engine built and ready to run.
enum Ready<'a> {
    Legacy(Emulator<'a>),
    Decoded(DecodedEmulator<'a>),
    /// A program and a pool whose arena already holds zeroed memory.
    Batch(&'a DecodedProgram, ArenaPool),
}

/// Times the four step loops of one benchmark at `Layout::default()`.
/// Each engine is built before the timed runs of its pass — legacy
/// fills its whole memory, decoded takes a recycled
/// [`symbol_intcode::mem::DataMem`], and a batch engine runs a
/// zero-step query on a new pool, whose arena takes and zeroes a
/// recycled memory the same way — so a sample is the run alone. Every
/// run must give legacy's outcome and step count.
fn step_loop_row(b: &Benchmark) -> LoopRow {
    let mut c = Compiled::from_source(b.source).expect("compiles");
    c.build_fused_tier().expect("fuses");
    let fused = &c.fused.as_ref().expect("tier installed").program;
    let cfg = ExecConfig::default();
    let reference = Emulator::new(&c.ici, &c.layout)
        .run(&cfg)
        .expect("legacy run");
    let expected = Ok((reference.outcome, reference.steps));
    let mut setup = |e: usize| match e {
        0 => Ready::Legacy(Emulator::new(&c.ici, &c.layout)),
        1 => Ready::Decoded(DecodedEmulator::new(&c.decoded, &c.layout)),
        _ => {
            let program = if e == 2 { &c.decoded } else { fused };
            let mut pool = ArenaPool::new();
            run_batch(
                program,
                &c.layout,
                &[ExecConfig { max_steps: 0 }],
                &mut pool,
            );
            Ready::Batch(program, pool)
        }
    };
    let mut time = |mut ready: Ready| -> Duration {
        let t = Instant::now();
        let got = match &mut ready {
            Ready::Legacy(emu) => emu.run(&cfg).map(|r| (r.outcome, r.steps)),
            Ready::Decoded(emu) => emu.run(&cfg).map(|r| (r.outcome, r.steps)),
            Ready::Batch(program, pool) => {
                let out = run_batch(program, &c.layout, &[cfg], pool).remove(0);
                out.result.map(|o| (o, out.steps))
            }
        };
        let elapsed = t.elapsed();
        // Freeing the engine (legacy unmaps its whole memory) is not
        // part of the run.
        drop(ready);
        assert_eq!(got, expected, "{}", b.name);
        elapsed
    };
    // One unrecorded round warms every engine's code and memory.
    interleave(&ENGINES, 1, 1, &mut setup, &mut time);
    LoopRow {
        name: b.name,
        steps: reference.steps,
        engines: interleave(&ENGINES, ROUNDS, PASSES, setup, time),
    }
}

/// One benchmark's simulator samples, one [`Interleaved`] per entry
/// of [`SIM_ENGINES`].
struct SimRow {
    name: &'static str,
    cycles: u64,
    engines: Vec<Interleaved>,
}

impl SimRow {
    /// Rounds in which decoded beat legacy.
    fn decoded_vs_legacy(&self) -> SignTest {
        sign_test(&self.engines[1], &self.engines[0])
    }
}

/// A simulator built and ready to run.
enum ReadySim<'a> {
    Legacy(VliwSim<'a>),
    Decoded(DecodedVliwSim<'a>),
}

/// Times both simulators on one benchmark's trace-scheduled code for
/// `units(3)`. Each is built before the timed runs of its pass —
/// legacy fills its whole memory, decoded takes a recycled
/// [`symbol_intcode::mem::DataMem`] — so a sample is the run alone.
/// Every run must give legacy's [`SimResult`].
fn sim_row(b: &Benchmark) -> SimRow {
    let c = Compiled::from_source(b.source).expect("compiles");
    let run = c.run_sequential().expect("profiling run");
    let machine = MachineConfig::units(3);
    let program = try_compact(
        &c.ici,
        &run.stats,
        &machine,
        CompactMode::TraceSchedule,
        &TracePolicy::default(),
    )
    .expect("compacts")
    .program;
    let lowered = DecodedVliw::new(&program, machine);
    let cfg = SimConfig::default();
    let expected: SimResult = VliwSim::new(&program, machine, &c.layout)
        .run(&cfg)
        .expect("simulates");
    let mut setup = |e: usize| match e {
        0 => ReadySim::Legacy(VliwSim::new(&program, machine, &c.layout)),
        _ => ReadySim::Decoded(DecodedVliwSim::new(&lowered, &c.layout)),
    };
    let mut time = |mut ready: ReadySim| -> Duration {
        let t = Instant::now();
        let got = match &mut ready {
            ReadySim::Legacy(sim) => sim.run(&cfg),
            ReadySim::Decoded(sim) => sim.run(&cfg),
        };
        let elapsed = t.elapsed();
        // Freeing the simulator is not part of the run.
        drop(ready);
        assert_eq!(got.as_ref(), Ok(&expected), "{}", b.name);
        elapsed
    };
    // One unrecorded round warms both simulators' code and memory.
    interleave(&SIM_ENGINES, 1, 1, &mut setup, &mut time);
    SimRow {
        name: b.name,
        cycles: expected.cycles,
        engines: interleave(&SIM_ENGINES, ROUNDS, PASSES, setup, time),
    }
}

/// One benchmark's set-up-inclusive legacy/decoded/fused emulator
/// comparison.
struct Row {
    name: &'static str,
    steps: u64,
    legacy: Duration,
    decoded: Duration,
    /// The same decoded run through `run_sequential_obs` with a
    /// disabled registry — the instrumented-but-off product path.
    obs_off: Duration,
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

    fn steps_per_sec(&self, mean: Duration) -> f64 {
        self.steps as f64 / mean.as_secs_f64()
    }
}

/// Arenas just big enough for the benchmark suite, for the
/// set-up-inclusive rows. The legacy `Emulator` fills its whole data
/// memory on every `new`; at the default ~3.6M-word layout that fill
/// would dominate its rows. The decoded engines reset only the pages a
/// run wrote, so for them the layout matters little.
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
/// it gets deeper env/cp/trail stacks.
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
            legacy: h.samples()[n - 4].mean,
            decoded: h.samples()[n - 3].mean,
            obs_off: h.samples()[n - 2].mean,
            fused: h.samples()[n - 1].mean,
            fused_pairs: tier.report.pairs,
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

fn write_report(loops: &[LoopRow], sims: &[SimRow], rows: &[Row], summary: &Summary) {
    let mut out = format!("{{\n  \"rounds\": {ROUNDS},\n  \"step_loop\": [\n");
    for (i, r) in loops.iter().enumerate() {
        let sep = if i + 1 == loops.len() { "" } else { "," };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"steps\": {}",
            r.name, r.steps
        );
        for e in &r.engines {
            let s = e.spread_ns();
            let _ = write!(
                out,
                ", \"{}\": {{\"median_ns\": {:.0}, \"q1_ns\": {:.0}, \"q3_ns\": {:.0}, \
                 \"ns_per_step\": {:.3}}}",
                e.name,
                s.median,
                s.q1,
                s.q3,
                s.median / r.steps as f64
            );
        }
        let t = r.decoded_vs_legacy();
        let _ = writeln!(
            out,
            ", \"decoded_wins\": {}, \"sign_p\": {:.5}, \"counted\": {}}}{sep}",
            t.wins,
            t.p,
            r.counted()
        );
    }
    let _ = write!(out, "  ],\n  \"emulator\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"steps\": {}, \"legacy_ns\": {}, \"decoded_ns\": {}, \
             \"obs_off_ns\": {}, \"fused_ns\": {}, \
             \"legacy_steps_per_sec\": {:.0}, \
             \"decoded_steps_per_sec\": {:.0}, \"fused_steps_per_sec\": {:.0}, \
             \"speedup\": {:.3}, \"fused_speedup\": {:.3}, \"fused_pairs\": {}, \
             \"obs_overhead\": {:.4}}}{sep}",
            r.name,
            r.steps,
            r.legacy.as_nanos(),
            r.decoded.as_nanos(),
            r.obs_off.as_nanos(),
            r.fused.as_nanos(),
            r.steps_per_sec(r.legacy),
            r.steps_per_sec(r.decoded),
            r.steps_per_sec(r.fused),
            r.speedup(),
            r.fused_speedup(),
            r.fused_pairs,
            r.obs_overhead(),
        );
    }
    let _ = write!(out, "  ],\n  \"vliw\": [\n");
    for (i, r) in sims.iter().enumerate() {
        let sep = if i + 1 == sims.len() { "" } else { "," };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"cycles\": {}",
            r.name, r.cycles
        );
        for e in &r.engines {
            let s = e.spread_ns();
            let _ = write!(
                out,
                ", \"{}\": {{\"median_ns\": {:.0}, \"q1_ns\": {:.0}, \"q3_ns\": {:.0}, \
                 \"ns_per_cycle\": {:.3}}}",
                e.name,
                s.median,
                s.q1,
                s.q3,
                s.median / r.cycles as f64
            );
        }
        let t = r.decoded_vs_legacy();
        let _ = writeln!(
            out,
            ", \"decoded_wins\": {}, \"sign_p\": {:.5}}}{sep}",
            t.wins, t.p
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"step_loop_verdict\": {},\n  \"emulator_geomean_speedup\": {:.3},\n  \
         \"fused_geomean_speedup\": {:.3},\n  \"obs_off_geomean_overhead\": {:.4}\n}}\n",
        summary.step_loop_verdict, summary.geomean, summary.fused_geomean, summary.obs_overhead
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_emulator.json");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

struct Summary {
    /// Whether decoded (stats on) beat legacy at p < [`SIGN_P`] on
    /// every benchmark the step-loop verdict counts.
    step_loop_verdict: bool,
    geomean: f64,
    fused_geomean: f64,
    obs_overhead: f64,
}

fn print_loop_row(r: &LoopRow) {
    let mut line = format!(
        "{:<10} {:>9} steps  ns/step median (q1-q3):",
        r.name, r.steps
    );
    for e in &r.engines {
        let s = e.spread_ns();
        let per = |v: f64| v / r.steps as f64;
        let _ = write!(
            line,
            "  {} {:.2} ({:.2}-{:.2})",
            e.name,
            per(s.median),
            per(s.q1),
            per(s.q3)
        );
    }
    let t = r.decoded_vs_legacy();
    let _ = write!(
        line,
        "  decoded<legacy {}/{} (p={:.4}){}",
        t.wins,
        t.rounds,
        t.p,
        if r.counted() { "" } else { ", not counted" }
    );
    println!("{line}");
}

fn print_sim_row(r: &SimRow) {
    let mut line = format!(
        "vliw/{:<10} {:>9} cycles  ns/cycle median (q1-q3):",
        r.name, r.cycles
    );
    for e in &r.engines {
        let s = e.spread_ns();
        let per = |v: f64| v / r.cycles as f64;
        let _ = write!(
            line,
            "  {} {:.2} ({:.2}-{:.2})",
            e.name,
            per(s.median),
            per(s.q1),
            per(s.q3)
        );
    }
    let t = r.decoded_vs_legacy();
    let _ = write!(
        line,
        "  decoded<legacy {}/{} (p={:.4}), not gated",
        t.wins, t.rounds, t.p
    );
    println!("{line}");
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let loops: Vec<LoopRow> = benchmarks::ALL
        .iter()
        .map(|b| {
            let row = step_loop_row(b);
            print_loop_row(&row);
            row
        })
        .collect();
    let sims: Vec<SimRow> = benchmarks::ALL
        .iter()
        .map(|b| {
            let row = sim_row(b);
            print_sim_row(&row);
            row
        })
        .collect();
    let mut h = Harness::new();
    let rows = measure(&mut h);
    let unresolved: Vec<String> = loops
        .iter()
        .filter(|r| r.counted() && r.decoded_vs_legacy().p >= SIGN_P)
        .map(|r| {
            let t = r.decoded_vs_legacy();
            format!("{} ({}/{}, p={:.4})", r.name, t.wins, t.rounds, t.p)
        })
        .collect();
    let summary = Summary {
        step_loop_verdict: unresolved.is_empty(),
        geomean: geomean(rows.iter().map(Row::speedup)),
        fused_geomean: geomean(rows.iter().map(Row::fused_speedup)),
        obs_overhead: geomean_obs_overhead(&rows),
    };
    write_report(&loops, &sims, &rows, &summary);
    for r in &rows {
        println!(
            "{:<10} {:>12} steps  legacy {:>9.2} Msteps/s  decoded {:>9.2} Msteps/s  {:>5.2}x  \
             fused {:>9.2} Msteps/s  {:>5.2}x ({} pairs)  obs-off {:>+6.2}%",
            r.name,
            r.steps,
            r.steps_per_sec(r.legacy) / 1e6,
            r.steps_per_sec(r.decoded) / 1e6,
            r.speedup(),
            r.steps_per_sec(r.fused) / 1e6,
            r.fused_speedup(),
            r.fused_pairs,
            r.obs_overhead() * 100.0
        );
    }
    if unresolved.is_empty() {
        println!(
            "step-loop verdict: decoded (stats on) beats legacy at p < {SIGN_P} on every \
             benchmark over {SIGN_STEPS} steps"
        );
    } else {
        println!(
            "step-loop verdict: decoded (stats on) does not beat legacy at p < {SIGN_P} on: {} \
             (reported, not gated)",
            unresolved.join(", ")
        );
    }
    println!(
        "emulator geomean speedup (set-up-inclusive): {:.3}x",
        summary.geomean
    );
    println!(
        "fused tier geomean speedup over decoded: {:.3}x (floor {MIN_FUSED_SPEEDUP:.2}x)",
        summary.fused_geomean
    );
    println!(
        "disabled-observability geomean overhead: {:+.2}% (limit {:.0}%)",
        summary.obs_overhead * 100.0,
        MAX_OBS_OVERHEAD * 100.0
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
}
