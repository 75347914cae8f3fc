//! # symbol-bench
//!
//! The benchmark harness of the SYMBOL reproduction.
//!
//! * The `tables` binary regenerates every table and figure of the
//!   paper in one run, or one of them with `tables <name>` (`fig2`,
//!   `table3`, …):
//!   `cargo run --release -p symbol-bench --bin tables`.
//! * The benches under `benches/` time the pipeline stages
//!   (`pipeline_stages`), the emulator and simulator engines
//!   (`emulator_decode`) and the serving tier (`serve_throughput`) with
//!   the self-contained [`timing`] harness.
//! * The E9 ablation table is
//!   `cargo run --release -p symbol-core --example ablation_demo`; the
//!   design-space sweep's paper grid is
//!   `cargo run --release -p symbol-core --bin sweep -- --grid paper`.

use symbol_core::benchmarks;
use symbol_core::pipeline::Compiled;

pub mod timing;

/// Small benchmarks used inside timed loops.
pub const TIMING_SUBSET: &[&str] = &["conc30", "nreverse", "ops8", "qsort"];

/// Compiles and profiles one named benchmark.
///
/// # Panics
///
/// Panics if the benchmark is unknown or fails to compile/run — the
/// harness cannot proceed without it.
pub fn compiled(name: &str) -> (Compiled, symbol_intcode::RunResult) {
    let b = benchmarks::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let c = Compiled::from_source(b.source).expect("benchmark compiles");
    let run = c.run_sequential().expect("benchmark runs");
    (c, run)
}
