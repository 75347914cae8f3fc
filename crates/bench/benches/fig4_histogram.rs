//! Figure 4 — distribution of the probability of faulty prediction.
//! Times histogram construction, then regenerates the figure.

use std::hint::black_box;

use symbol_analysis::PredictStats;
use symbol_bench::timing::Harness;
use symbol_bench::{compiled, TIMING_SUBSET};
use symbol_core::benchmarks;
use symbol_core::experiments::{default_threads, measure_suite_obs, reports};
use symbol_obs::Registry;

fn bench(h: &mut Harness) {
    for name in TIMING_SUBSET {
        let (cc, run) = compiled(name);
        let stats = PredictStats::measure(&cc.ici, &run.stats);
        h.bench_function(&format!("fig4_histogram/{name}"), |b| {
            b.iter(|| black_box(&stats).histogram(20))
        });
    }
}

fn print_report() {
    let results = measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
        .expect("suite measures");
    println!("\n{}", reports::fig4_histogram(&results));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
