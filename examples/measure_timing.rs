//! Times the suite measurement sequentially and on the parallel
//! driver, verifying the results are bit-identical (the determinism
//! guarantee of `experiments::measure_suite_obs`).
//!
//! ```sh
//! cargo run --release -p symbol-core --example measure_timing
//! cargo run --release -p symbol-core --example measure_timing -- --json
//! ```

use std::time::Instant;

use symbol_core::benchmarks;
use symbol_core::experiments::{default_threads, measure_suite_obs};
use symbol_obs::Registry;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let threads = default_threads();
    let measure = |threads| measure_suite_obs(benchmarks::ALL, threads, &Registry::disabled());

    let t0 = Instant::now();
    let sequential = measure(1).expect("suite measures");
    let seq_time = t0.elapsed();

    let t1 = Instant::now();
    let parallel = measure(threads).expect("suite measures");
    let par_time = t1.elapsed();

    assert_eq!(
        sequential, parallel,
        "parallel driver must be bit-identical"
    );
    let speedup = seq_time.as_secs_f64() / par_time.as_secs_f64();

    if json {
        println!(
            "{{\"threads\": {threads}, \"benchmarks\": {}, \
             \"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}, \
             \"speedup\": {speedup:.3}, \"bit_identical\": true}}",
            parallel.len(),
            seq_time.as_secs_f64() * 1e3,
            par_time.as_secs_f64() * 1e3
        );
        return;
    }

    println!("sequential (1 thread):   {seq_time:?}");
    println!("parallel ({threads} threads):  {par_time:?}");
    println!(
        "speed-up: {:.2}x (bit-identical results over {} benchmarks)",
        speedup,
        parallel.len()
    );
}
