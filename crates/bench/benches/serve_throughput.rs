//! Batched serving throughput: queries/sec through the
//! [`symbol_serve::server::QueryServer`] at 1 worker and at
//! `min(4, cores)` workers, over the full benchmark suite on the fused
//! serving tier. Writes the per-benchmark numbers to `BENCH_serve.json`
//! at the workspace root.
//!
//! Each benchmark is one [`Pair`]: a 1-worker and a many-worker server,
//! each started before its timer, serve the same batch requests in
//! [`ROUNDS`] rounds of [`PASSES`] passes whose order alternates. A pass
//! gives every worker at least two requests of at most [`BATCH`]
//! sub-queries, and covers at least [`PASS_STEPS`] steps. The
//! benchmark's scaling is the
//! median over rounds of the ratio of the two servers' fastest passes
//! (1 worker's time over many workers'). With `--check`, the run exits
//! nonzero if the geomean of those medians falls below
//! [`required_scaling`]: `0.625 × workers` (2.5× at the 4 workers CI
//! provides). With fewer than 2 usable cores there is no multi-worker
//! run to compare, so nothing is timed and the gate is recorded as
//! `"skipped"`, never as a pass. The JSON records `cores`, the applied
//! requirement and the gate's verdict, so a number from a small machine
//! is never misread as a scaling claim.
//!
//! Every answer must carry the sequential engine's step count. That
//! answers are bit-identical for every worker count, batch size and
//! tier is the agreement suite's (`tests/agreement/`) to check.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use symbol_bench::timing::{geomean, Pair, PASSES, ROUNDS};
use symbol_core::benchmarks;
use symbol_core::pipeline::Compiled;
use symbol_obs::Registry;
use symbol_serve::server::{QueryServer, ServerConfig};

/// Most sub-queries per batched run request.
const BATCH: usize = 8;

/// Fewest steps a pass covers, so that a pass is dominated by the
/// queries and not by waking the workers and joining them.
const PASS_STEPS: u64 = 5_000_000;

/// The scaling the `--check` gate demands of `workers` workers:
/// 62.5% parallel efficiency (2.5× at 4 workers).
fn required_scaling(workers: usize) -> f64 {
    workers as f64 * 0.625
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One benchmark's pair.
struct Row {
    name: &'static str,
    steps: u64,
    /// Batch requests per pass.
    requests: usize,
    /// Sub-queries per request.
    batch: usize,
    pair: Pair,
}

impl Row {
    fn queries(&self) -> usize {
        self.requests * self.batch
    }
}

/// Times a 1-worker against a `workers`-worker server on `requests`
/// batch requests of `batch` queries of `compiled`, checking every
/// answer.
fn time_servers(
    name: &str,
    compiled: &Arc<Compiled>,
    workers: usize,
    requests: usize,
    batch: usize,
    steps: u64,
) -> Pair {
    let obs = Registry::disabled();
    let many = format!("{workers}_workers");
    let counts = [1, workers];
    Pair::time(
        ["1_worker", &many],
        |e| {
            QueryServer::start(
                Arc::clone(compiled),
                &ServerConfig {
                    workers: counts[e],
                    queue_capacity: requests,
                },
                &obs,
            )
        },
        |server| {
            let t = Instant::now();
            for id in 0..requests {
                server.submit_batch(id as u64, batch);
            }
            let results = server.finish();
            let elapsed = t.elapsed();
            assert_eq!(results.len(), requests, "{name}: every request answered");
            for r in &results {
                let answers = r
                    .outcome
                    .as_ref()
                    .expect("batch request succeeds")
                    .batch()
                    .expect("batch answer");
                assert!(
                    answers.len() == batch && answers.iter().all(|&s| s == steps),
                    "{name}: served {answers:?}, sequential {steps} steps"
                );
            }
            elapsed
        },
    )
}

fn write_report(rows: &[Row], workers: usize, scaling_geomean: Option<f64>, gate: &str) {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let queries = r.queries() as f64;
            format!(
                "    {{\"name\": \"{}\", \"steps\": {}, \"requests\": {}, \"batch\": {}, {}}}",
                r.name,
                r.steps,
                r.requests,
                r.batch,
                r.pair.json_fields("qps", |ns| queries * 1e9 / ns)
            )
        })
        .collect();
    let mut out = format!("{{\n  \"serve\": [\n{}\n  ],\n", lines.join(",\n"));
    // With the gate skipped nothing was timed.
    let measured = if rows.is_empty() {
        String::new()
    } else {
        format!("1, {workers}")
    };
    let _ = write!(
        out,
        "  \"cores\": {},\n  \"workers_measured\": [{measured}],\n  \
         \"max_batch_size\": {BATCH},\n  \"rounds\": {ROUNDS},\n  \"passes\": {PASSES},\n  \
         \"scaling_geomean\": {},\n  \"required_scaling\": {:.3},\n  \
         \"scaling_gate\": \"{gate}\"\n}}\n",
        cores(),
        scaling_geomean.map_or_else(|| "null".to_string(), |g| format!("{g:.3}")),
        required_scaling(workers),
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
    let workers = cores().clamp(1, 4);
    if workers < 2 {
        write_report(&[], workers, None, "skipped");
        println!(
            "scaling gate skipped: {} usable core(s), and a scaling measurement needs \
             at least 2",
            cores()
        );
        return;
    }
    let mut rows = Vec::new();
    for b in benchmarks::ALL {
        let mut c = Compiled::from_source(b.source).expect("compiles");
        c.build_fused_tier().expect("fuses");
        let compiled = Arc::new(c);
        let steps = compiled.run_sequential().expect("reference run").steps;
        let queries = PASS_STEPS.div_ceil(steps.max(1)) as usize;
        let requests = queries.div_ceil(BATCH).max(2 * workers);
        let batch = queries.div_ceil(requests);
        let pair = time_servers(b.name, &compiled, workers, requests, batch, steps);
        let row = Row {
            name: b.name,
            steps,
            requests,
            batch,
            pair,
        };
        let queries = row.queries() as f64;
        println!(
            "{:<10} {:>9} steps x {:>3} requests of {}: {}",
            row.name,
            row.steps,
            row.requests,
            row.batch,
            row.pair.line("q/s", |ns| queries * 1e9 / ns)
        );
        rows.push(row);
    }
    let g = geomean(rows.iter().map(|r| r.pair.ratio().median));
    let required = required_scaling(workers);
    let gate = if g < required { "fail" } else { "pass" };
    write_report(&rows, workers, Some(g), gate);
    println!(
        "scaling geomean over {} benchmarks: {g:.3}x with {workers} workers on {} core(s) \
         (required {required:.3}x): {gate}",
        rows.len(),
        cores()
    );
    if check && g < required {
        eprintln!(
            "FAIL: batched serving scales {g:.3}x with {workers} workers (required {required:.3}x)"
        );
        std::process::exit(1);
    }
}
