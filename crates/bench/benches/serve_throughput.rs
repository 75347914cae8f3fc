//! Batched serving throughput: queries/sec through the sharded
//! [`symbol_serve::server::QueryServer`] versus worker count, over the
//! full benchmark suite on the fused serving tier. Writes the
//! per-benchmark numbers to `BENCH_serve.json` at the workspace root.
//!
//! Two things are measured and gated:
//!
//! * **Scaling** — each benchmark is served twice, with 1 worker and
//!   with `min(4, cores)` workers, as batched run requests executed
//!   back-to-back on pooled engine state. With `--check`, the run
//!   exits nonzero if the geomean multi-worker speedup falls below
//!   [`required_scaling`]: `0.625 × workers` (2.5× at the 4 workers CI
//!   provides). With fewer than 2 usable cores there is no
//!   multi-worker run to compare, so the gate is recorded as
//!   `"skipped"` — never as a pass. The JSON records `cores`, the
//!   applied requirement and the gate's verdict, so a number from a
//!   small machine is never misread as a scaling claim.
//! * **Determinism** — for every benchmark of
//!   [`symbol_bench::TIMING_SUBSET`], every (worker count ∈ {1,2,4,8})
//!   × (batch size ∈ {1,3,8}) serving combination must answer every
//!   sub-query with exactly the sequential engine's step count, in
//!   index order. This always runs (it is cheap) and any divergence
//!   aborts the bench, `--check` or not: a fast scheduler that
//!   reorders answers or perturbs execution is wrong, not fast.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use symbol_bench::TIMING_SUBSET;
use symbol_core::benchmarks;
use symbol_core::pipeline::Compiled;
use symbol_intcode::Layout;
use symbol_obs::Registry;
use symbol_serve::server::{QueryServer, ServerConfig};

/// Sub-queries per batched run request on the measured path.
const BATCH: usize = 8;

/// Per-benchmark work target: enough total steps that a measurement
/// is queue-scheduling-dominated rather than startup-dominated.
const TARGET_STEPS: u64 = 20_000_000;

/// Batch sizes the determinism stage crosses with worker counts.
const DET_BATCHES: [usize; 3] = [1, 3, 8];

/// Worker counts the determinism stage exercises (deliberately past
/// the physical core count: oversubscription shuffles steal order).
const DET_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The scaling the `--check` gate demands of `workers` workers:
/// 62.5% parallel efficiency (2.5× at 4 workers).
fn required_scaling(workers: usize) -> f64 {
    workers as f64 * 0.625
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Same small layouts as the `emulator_decode` bench, chosen when a
/// pooled query still re-zeroed its whole memory; kept so the numbers
/// stay comparable with the committed `BENCH_serve.json`.
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
        Layout {
            heap_size: 1 << 16,
            env_size: 1 << 14,
            cp_size: 1 << 14,
            trail_size: 1 << 14,
            pdl_size: 1 << 10,
        }
    }
}

struct Row {
    name: &'static str,
    steps: u64,
    queries: usize,
    qps_one: f64,
    /// `None` when fewer than 2 cores are usable.
    qps_many: Option<f64>,
}

impl Row {
    fn scaling(&self) -> Option<f64> {
        self.qps_many.map(|q| q / self.qps_one)
    }
}

fn compile(b: &benchmarks::Benchmark) -> Arc<Compiled> {
    let mut c = Compiled::from_source_obs(b.source, layout_for(b.name), &Registry::disabled(), "")
        .expect("compiles");
    c.build_fused_tier().expect("fuses");
    Arc::new(c)
}

/// Serves `queries` executions of `compiled` as size-[`BATCH`] batch
/// requests through a `workers`-worker server and returns (queries
/// per second, per-query steps of the first answer) after verifying
/// every answer arrived and none erred.
fn throughput(compiled: &Arc<Compiled>, workers: usize, queries: usize) -> (f64, u64) {
    let obs = Registry::disabled();
    let server = QueryServer::start(
        Arc::clone(compiled),
        &ServerConfig {
            workers,
            queue_capacity: 1024,
            max_batch: 4,
            flight_capacity: 0,
            ..ServerConfig::default()
        },
        &obs,
    );
    let t = Instant::now();
    let mut id = 0u64;
    let mut remaining = queries;
    while remaining > 0 {
        let n = remaining.min(BATCH);
        server.submit_batch(id, n);
        id += 1;
        remaining -= n;
    }
    let results = server.finish();
    let secs = t.elapsed().as_secs_f64();
    let mut answered = 0usize;
    let mut steps = 0u64;
    for r in &results {
        let batch = r
            .outcome
            .as_ref()
            .expect("batch request succeeds")
            .batch()
            .expect("batch answer");
        if steps == 0 {
            steps = batch[0];
        }
        assert!(
            batch.iter().all(|&s| s == steps),
            "batched answers diverged on the measured path"
        );
        answered += batch.len();
    }
    assert_eq!(answered, queries, "every submitted query was answered");
    (queries as f64 / secs, steps)
}

/// The concurrent-determinism sweep: serve each subset benchmark
/// under every worker-count × batch-size combination and demand
/// bit-identical, index-ordered answers against the sequential
/// reference. Returns the number of (bench, workers, batch) cells
/// checked.
fn determinism_sweep() -> usize {
    let mut cells = 0;
    for name in TIMING_SUBSET {
        let b = benchmarks::ALL
            .iter()
            .find(|b| b.name == *name)
            .expect("subset benchmark exists");
        let compiled = compile(b);
        let reference = compiled
            .run_sequential()
            .expect("sequential reference")
            .steps;
        for &workers in &DET_WORKERS {
            for &batch in &DET_BATCHES {
                let obs = Registry::disabled();
                let server = QueryServer::start(
                    Arc::clone(&compiled),
                    &ServerConfig {
                        workers,
                        queue_capacity: 16,
                        max_batch: 2,
                        flight_capacity: 0,
                        ..ServerConfig::default()
                    },
                    &obs,
                );
                let requests = 12usize.div_ceil(batch);
                for id in 0..requests {
                    server.submit_batch(id as u64, batch.min(12 - id * batch));
                }
                let results = server.finish();
                assert_eq!(results.len(), requests);
                let mut total = 0;
                for (i, r) in results.iter().enumerate() {
                    assert_eq!(r.id, i as u64, "answers are index-ordered");
                    let answers = r
                        .outcome
                        .as_ref()
                        .expect("request succeeds")
                        .batch()
                        .expect("batch answer");
                    assert!(
                        answers.iter().all(|&s| s == reference),
                        "{name}: workers={workers} batch={batch}: served steps \
                         {answers:?} != sequential {reference}"
                    );
                    total += answers.len();
                }
                assert_eq!(total, 12, "{name}: every sub-query answered exactly once");
                cells += 1;
            }
        }
    }
    cells
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (log_sum, n) = ratios.fold((0.0f64, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    (log_sum / n.max(1) as f64).exp()
}

/// A ratio with three decimals, or `null` when it was not measured.
fn json_ratio(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v:.3}"))
}

fn write_report(
    rows: &[Row],
    workers_many: usize,
    scaling_geomean: Option<f64>,
    required: f64,
    gate: &str,
) {
    let mut out = String::from("{\n  \"serve\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let many = match r.qps_many {
            Some(q) => format!("\"qps_{workers_many}_workers\": {q:.1}, "),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"steps\": {}, \"queries\": {}, \
             \"qps_1_worker\": {:.1}, {many}\"scaling\": {}}}{sep}",
            r.name,
            r.steps,
            r.queries,
            r.qps_one,
            json_ratio(r.scaling()),
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"cores\": {},\n  \"workers_measured\": [1, {workers_many}],\n  \
         \"batch_size\": {BATCH},\n  \"scaling_geomean\": {},\n  \
         \"required_scaling\": {required:.3},\n  \"scaling_gate\": \"{gate}\",\n  \
         \"determinism_checked\": true\n}}\n",
        cores(),
        json_ratio(scaling_geomean),
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    let cells = determinism_sweep();
    println!(
        "determinism: {cells} (bench x workers x batch) cells served bit-identically \
         to the sequential engine"
    );

    let workers_many = cores().clamp(1, 4);
    let mut rows = Vec::new();
    for b in benchmarks::ALL {
        let compiled = compile(b);
        let steps = compiled
            .run_sequential()
            .expect("reference run")
            .steps
            .max(1);
        let queries = (TARGET_STEPS / steps).clamp(32, 512) as usize;
        let (qps_one, steps_one) = throughput(&compiled, 1, queries);
        assert_eq!(steps_one, steps, "{}: served != sequential steps", b.name);
        let qps_many = (workers_many > 1).then(|| {
            let (qps, steps_many) = throughput(&compiled, workers_many, queries);
            assert_eq!(
                steps_one, steps_many,
                "{}: step counts must not depend on worker count",
                b.name
            );
            qps
        });
        let row = Row {
            name: b.name,
            steps,
            queries,
            qps_one,
            qps_many,
        };
        let many = match (row.qps_many, row.scaling()) {
            (Some(q), Some(x)) => format!("{workers_many} workers {q:>9.1} q/s   {x:>5.2}x"),
            _ => "(no multi-worker run)".to_string(),
        };
        println!(
            "{:<10} {:>9} steps x {:>3} queries   1 worker {:>9.1} q/s   {many}",
            row.name, row.steps, row.queries, row.qps_one,
        );
        rows.push(row);
    }

    let scaling_geomean = (workers_many > 1).then(|| geomean(rows.iter().filter_map(Row::scaling)));
    let required = required_scaling(workers_many);
    let gate = match scaling_geomean {
        None => "skipped",
        Some(g) if g < required => "fail",
        Some(_) => "pass",
    };
    write_report(&rows, workers_many, scaling_geomean, required, gate);
    match scaling_geomean {
        None => println!(
            "scaling gate skipped: {} usable core(s), and a scaling measurement needs \
             at least 2",
            cores()
        ),
        Some(g) => {
            println!(
                "scaling geomean over {} benchmarks: {g:.3}x with {workers_many} workers on \
                 {} core(s) (required {required:.3}x): {gate}",
                rows.len(),
                cores()
            );
            if check && g < required {
                eprintln!(
                    "FAIL: batched serving scales {g:.3}x with {workers_many} workers \
                     (required {required:.3}x)"
                );
                std::process::exit(1);
            }
        }
    }
}
