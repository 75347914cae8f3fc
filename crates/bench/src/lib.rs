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
//!   (`emulator_decode`), the serving tier (`serve_throughput`) and the
//!   design-space sweep (`sweep_grid`) with the self-contained
//!   [`timing`] harness; `ablation` prints the E9 ablation table.

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
