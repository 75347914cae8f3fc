//! Figure 3 — Amdahl speed-up ceilings of the shared-memory model.
//! Times the curve computation, then prints the figure from the
//! measured suite-average memory fraction.

use std::hint::black_box;

use symbol_analysis::amdahl::{amdahl_overlapped, amdahl_separate, AmdahlCurve};
use symbol_bench::timing::Harness;
use symbol_core::benchmarks;
use symbol_core::experiments::{default_threads, measure_suite_obs, reports};
use symbol_obs::Registry;

fn bench(h: &mut Harness) {
    h.bench_function("fig3_amdahl/curves", |b| {
        b.iter(|| {
            let ks: Vec<f64> = (1..=64).map(f64::from).collect();
            let a = AmdahlCurve::sample(black_box(0.32), &ks, amdahl_separate);
            let o = AmdahlCurve::sample(black_box(0.32), &ks, amdahl_overlapped);
            (a.limit(), o.limit())
        })
    });
}

fn print_report() {
    let results = measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
        .expect("suite measures");
    println!("\n{}", reports::fig3_amdahl(&results));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
