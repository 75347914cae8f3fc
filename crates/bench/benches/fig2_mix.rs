//! Figure 2 — dynamic instruction mix. Times the mix measurement on
//! profiled runs, then regenerates the figure for the full suite.

use std::hint::black_box;

use symbol_analysis::ClassMix;
use symbol_bench::timing::Harness;
use symbol_bench::{compiled, TIMING_SUBSET};
use symbol_core::benchmarks;
use symbol_core::experiments::{default_threads, measure_suite_obs, reports};
use symbol_obs::Registry;

fn bench(h: &mut Harness) {
    for name in TIMING_SUBSET {
        let (cc, run) = compiled(name);
        h.bench_function(&format!("fig2_mix/{name}"), |b| {
            b.iter(|| ClassMix::measure(black_box(&cc.ici), black_box(&run.stats)))
        });
    }
}

fn print_report() {
    let results = measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
        .expect("suite measures");
    println!("\n{}", reports::fig2_mix(&results));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
