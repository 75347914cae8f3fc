//! Table 2 — probability of faulty branch prediction. Times the
//! predictability measurement, then regenerates the table.

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
        h.bench_function(&format!("table2_pfp/{name}"), |b| {
            b.iter(|| PredictStats::measure(black_box(&cc.ici), black_box(&run.stats)).average())
        });
    }
}

fn print_report() {
    let results = measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
        .expect("suite measures");
    println!("\n{}", reports::table2_predictability(&results));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
