//! # symbol-bench
//!
//! The benchmark harness of the SYMBOL reproduction.
//!
//! * The `tables` binary regenerates every table and figure of the
//!   paper in one run, or one of them with `tables <name>` (`fig2`,
//!   `table3`, …):
//!   `cargo run --release -p symbol-bench --bin tables`.
//! * The benches under `benches/` time engines against each other:
//!   `emulator_decode` the emulator and simulator engines, and
//!   `serve_throughput` the query server at 1 and at several workers.
//!   Each comparison is a [`timing::Pair`], two engines timed in
//!   interleaved rounds, and each `--check` gate reads the median of
//!   its pair's per-round ratios. Per-stage times of the whole pipeline
//!   come from the `perfbench/` workspace's traced runs.
//! * The E9 ablation table is
//!   `cargo run --release -p symbol-core --example ablation_demo`; the
//!   design-space sweep's paper grid is
//!   `cargo run --release -p symbol-core --bin sweep -- --grid paper`.

pub mod timing;
