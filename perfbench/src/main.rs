//! `perfbench` — the repository benchmark: end-to-end metrics from
//! untraced repetitions, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload tables|sweep|serve_short|serve_long --seed N
//!           --seconds S --trace 0|1 [--smoke] [--out DIR]
//! ```
//!
//! `--trace 0` times each workload through the library's public entry
//! points with observability off. `--trace 1` repeats the same work
//! stage by stage with spans and writes `trace.json` and `layers.json`
//! under `--out` (default `.bench_out`). Every line but the last is for
//! people; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! when every operation succeeded, 1 when some failed, 2 on bad usage.
//! See README.md for the workloads and metrics.

mod layers;
mod serve;
mod stages;
mod stats;
mod sweep;
mod tables;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use symbol_core::benchmarks::Benchmark;
use symbol_core::pipeline::{Compiled, CompiledCache};
use symbol_obs::{json, Registry};

use stats::{Fingerprint, Summary};

/// Fewest measured repetitions per run, however long they take.
const MIN_REPS: usize = 3;
/// Fewest untraced/traced repetition pairs per traced run.
const MIN_TRACED_PAIRS: usize = 2;

/// FNV-1a over a sequence of counts: the `sim_digest` of a pass, over
/// every simulated cycle count and served step count in work order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `v` into the digest.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one pass of a workload did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations attempted: benchmarks measured, sweep cells, queries,
    /// image loads.
    pub attempted: u64,
    /// Attempted operations that failed their self-check.
    pub failed: u64,
    /// Emulated steps of the successful operations.
    pub steps: u64,
    /// Digest over the pass's simulated cycles or served steps.
    pub digest: Digest,
}

impl Tally {
    /// Counts one operation: `Some(steps emulated)` on success, `None`
    /// on failure.
    pub fn record(&mut self, outcome: Option<u64>) {
        self.attempted += 1;
        match outcome {
            Some(steps) => self.steps += steps,
            None => self.failed += 1,
        }
    }

    fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Static facts about a workload's inputs, for the per-layer report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Facts {
    /// Programs one pass compiles or serves.
    pub programs: usize,
    /// Static IntCode ops over those programs.
    pub static_ops: u64,
    /// Bytes of the warm artifact cache (serving workloads).
    pub cache_bytes: u64,
}

/// One benchmark workload. Each pass returns a [`Tally`].
pub trait Workload {
    /// Makes every program ready to run, with caches warm.
    fn setup(&mut self) -> Tally;
    /// One repetition through the library's public entry points.
    fn rep(&mut self) -> Tally;
    /// A start with nothing cached, stage by stage, where it runs
    /// layers the set-up and repetitions do not.
    fn traced_cold_start(&mut self, _obs: &Registry) -> Tally {
        Tally::default()
    }
    /// The set-up stage by stage, where it runs layers the repetitions
    /// do not.
    fn traced_setup(&mut self, _obs: &Registry) -> Tally {
        Tally::default()
    }
    /// One repetition stage by stage, with a span around every layer
    /// call: the same work, thread count and order as [`Workload::rep`].
    fn traced_rep(&mut self, obs: &Registry) -> Tally;
    /// Probes of layers a traced repetition cannot see into (the query
    /// engine inside a server), recorded on their own registry.
    fn probe(&mut self, _obs: &Registry) -> Tally {
        Tally::default()
    }
    /// Static facts about the inputs.
    fn facts(&self) -> Facts;
}

/// Compiles each benchmark from source and runs its profiling
/// emulation — the set-up of the compile-and-simulate workloads.
/// Returns the tally and the programs' static IntCode size.
pub fn prepare<'a>(benches: impl IntoIterator<Item = &'a Benchmark>) -> (Tally, u64) {
    let mut tally = Tally::default();
    let mut static_ops = 0;
    for b in benches {
        let ready = Compiled::from_source(b.source).and_then(|c| {
            let steps = CompiledCache::new(&c)?.run.steps;
            Ok((c.ici.len() as u64, steps))
        });
        if let Err(e) = &ready {
            eprintln!("{}: {e}", b.name);
        }
        tally.record(ready.ok().map(|(ops, steps)| {
            static_ops += ops;
            steps
        }));
    }
    (tally, static_ops)
}

/// Renders a metric value: shortest round-trip form, every digit kept.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next()?,
            "--seed" => args.seed = symbol_fuzz::parse_seed(&it.next()?),
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(it.next()?),
            _ => return None,
        }
    }
    Some(args)
}

/// How much one run measures.
struct Plan {
    /// Seconds of repetitions.
    seconds: f64,
    /// Fewest repetitions (untraced) or repetition pairs (traced).
    min_reps: usize,
}

/// One reported metric: its samples summarised.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            samples,
        }
    }

    fn summary(&self) -> Option<Summary> {
        Summary::of(&self.samples)
    }
}

/// The outcome of a run: totals and metrics.
struct Run {
    total: Tally,
    metrics: Vec<Metric>,
    /// Layer figures printed but not part of the result line.
    details: Vec<Metric>,
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Tracks each repetition's digest against the first one's: a
/// repetition that computes different cycles or steps counts as failed.
#[derive(Default)]
struct DigestCheck(Option<Digest>);

impl DigestCheck {
    fn check(&mut self, tally: &Tally, total: &mut Tally) {
        match self.0 {
            None => self.0 = Some(tally.digest),
            Some(d) if d != tally.digest => {
                eprintln!("sim_digest changed between repetitions");
                total.failed += 1;
            }
            Some(_) => {}
        }
    }
}

fn median(v: &[f64]) -> f64 {
    Summary::of(v).map_or(0.0, |s| s.median)
}

/// The untraced run: rounds of one set-up and one repetition until
/// `seconds` are spent. Interleaving puts the set-up samples in the
/// same stretch of time as the repetitions, so a slow drift of the
/// machine's speed shifts both alike instead of biasing one of them.
fn untraced(w: &mut dyn Workload, plan: &Plan) -> Run {
    let mut total = Tally::default();
    let mut digests = DigestCheck::default();
    let start = Instant::now();
    let (mut setup, mut rep_secs, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    while rates.len() < plan.min_reps
        || start.elapsed().as_secs_f64() + median(&setup) + median(&rep_secs) <= plan.seconds
    {
        let t = Instant::now();
        let tally = w.setup();
        setup.push(t.elapsed().as_secs_f64());
        total.absorb(&tally);
        let t = Instant::now();
        let tally = w.rep();
        let secs = t.elapsed().as_secs_f64();
        total.absorb(&tally);
        digests.check(&tally, &mut total);
        rep_secs.push(secs);
        rates.push((tally.attempted - tally.failed) as f64 / secs);
    }
    let mut metrics = vec![
        Metric::new("ops_per_s", "1/s", rates),
        Metric::new("setup_s", "s", setup),
    ];
    match peak_rss_mib() {
        Some(mib) => metrics.push(Metric::new("peak_rss_mb", "MiB", vec![mib])),
        None => total.failed += 1,
    }
    Run {
        total,
        metrics,
        details: vec![Metric::new("rep_s", "s", rep_secs)],
    }
}

/// The traced run: the set-up, the cold start and set-up again stage
/// by stage, then untraced and traced repetitions in turn until
/// `seconds` are spent, then the layer probes. Writes `trace.json` and
/// `layers.json` to `dir`.
fn traced(
    w: &mut dyn Workload,
    plan: &Plan,
    workload: &str,
    fingerprint: &Fingerprint,
    dir: &Path,
) -> Run {
    let obs = Registry::new();
    let probe = Registry::new();
    let mut total = w.setup();
    {
        let _phase = obs.span("phase.cold", &[]);
        total.absorb(&w.traced_cold_start(&obs));
    }
    {
        let _phase = obs.span("phase.setup", &[]);
        total.absorb(&w.traced_setup(&obs));
    }
    let mut digests = DigestCheck::default();
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut rep_steps = 0;
    while plain.len() < plan.min_reps
        || start.elapsed().as_secs_f64() + median(&plain) + median(&traced) <= plan.seconds
    {
        let t = Instant::now();
        let tally = w.rep();
        plain.push(t.elapsed().as_secs_f64());
        total.absorb(&tally);
        digests.check(&tally, &mut total);
        let t = Instant::now();
        let tally = {
            let _phase = obs.span("phase.rep", &[]);
            w.traced_rep(&obs)
        };
        traced.push(t.elapsed().as_secs_f64());
        total.absorb(&tally);
        digests.check(&tally, &mut total);
        rep_steps = tally.steps;
    }
    total.absorb(&w.probe(&probe));
    let overhead = median(&traced) / median(&plain) - 1.0;
    let layers = layers::Layers::new(
        &obs,
        &probe,
        traced.len(),
        rep_steps,
        stats::nproc(),
        w.facts(),
        overhead,
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("trace.json"), obs.chrome_trace_json()))
        .and_then(|()| {
            std::fs::write(
                dir.join("layers.json"),
                layers.to_json(workload, fingerprint),
            )
        });
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", dir.display());
        total.failed += 1;
    }
    let single = |(name, unit, v): layers::Figure| Metric::new(name, unit, vec![v]);
    let mut details: Vec<Metric> = layers.details().into_iter().map(single).collect();
    details.push(Metric::new("rep_s", "s", plain));
    details.push(Metric::new("traced_rep_s", "s", traced));
    Run {
        total,
        metrics: layers.metrics().into_iter().map(single).collect(),
        details,
    }
}

/// One metric's summary as a JSON object, with the tail rule applied.
fn summary_json(m: &Metric) -> String {
    let s = m.summary();
    let field = |f: fn(&Summary) -> f64| s.as_ref().map_or("null".into(), |s| number(f(s)));
    let tail = stats::tail(&m.samples).map_or("null".into(), |(p, v)| {
        format!("{{\"percentile\": {p}, \"value\": {}}}", number(v))
    });
    format!(
        "{{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail\": {tail}, \"samples\": [{}]}}",
        json::string(m.unit),
        m.samples.len(),
        field(|s| s.median),
        field(|s| s.q1),
        field(|s| s.q3),
        m.samples.iter().map(|v| number(*v)).collect::<Vec<_>>().join(", ")
    )
}

fn main() -> ExitCode {
    let Some(args) = parse_args().filter(|a| !a.workload.is_empty()) else {
        eprintln!(
            "usage: perfbench --workload tables|sweep|serve_short|serve_long --seed N \
             --seconds S --trace 0|1 [--smoke] [--out DIR]"
        );
        return ExitCode::from(2);
    };
    let nproc = stats::nproc();
    let scratch = args
        .out
        .join(format!("{}-{}", args.workload, std::process::id()));
    let workload: Result<Box<dyn Workload>, String> = match args.workload.as_str() {
        "tables" => Ok(Box::new(tables::Tables::new(args.smoke, nproc))),
        "sweep" => Ok(Box::new(sweep::Sweep::new(args.seed, args.smoke, nproc))),
        "serve_short" | "serve_long" => serve::Serve::new(
            args.workload == "serve_long",
            args.seed,
            args.smoke,
            nproc,
            &scratch,
        )
        .map(|s| Box::new(s) as Box<dyn Workload>),
        other => Err(format!("unknown workload {other}")),
    };
    let mut workload = match workload {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::collect(args.seed);
    let plan = Plan {
        seconds: args.seconds,
        min_reps: match (args.smoke, args.trace) {
            (true, _) => 1,
            (false, false) => MIN_REPS,
            (false, true) => MIN_TRACED_PAIRS,
        },
    };
    let run = if args.trace {
        let dir = args
            .out
            .join(format!("{}-seed{}-trace", args.workload, args.seed));
        traced(&mut *workload, &plan, &args.workload, &fingerprint, &dir)
    } else {
        untraced(&mut *workload, &plan)
    };
    drop(workload);

    println!("# fingerprint {}", fingerprint.to_json());
    for m in run.metrics.iter().chain(&run.details) {
        if let Some(s) = m.summary() {
            println!(
                "{} {} {} {} (n={}, q1={}, q3={})",
                args.workload,
                m.name,
                number(s.median),
                m.unit,
                s.n,
                number(s.q1),
                number(s.q3)
            );
        }
    }
    let correct = run.total.failed == 0
        && run
            .metrics
            .iter()
            .all(|m| m.summary().is_some_and(|s| s.median.is_finite()));
    let record = format!(
        "{{\"workload\": {}, \"trace\": {}, \"fingerprint\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        json::string(&args.workload),
        args.trace,
        fingerprint.to_json(),
        run.total.attempted,
        run.total.failed,
        run.metrics
            .iter()
            .chain(&run.details)
            .map(|m| format!("{}: {}", json::string(m.name), summary_json(m)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .filter_map(|m| {
            let s = m.summary()?;
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(m.name),
                number(s.median),
                json::string(m.unit)
            ))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.total.attempted,
        run.total.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
