//! Table 4 — absolute execution times against the paper's published
//! machine measurements. Times the SYMBOL-3 simulation, then
//! regenerates the table.

use std::hint::black_box;

use symbol_bench::compiled;
use symbol_bench::timing::Harness;
use symbol_compactor::{compact, CompactMode, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::experiments::{default_threads, measure_suite_obs, reports};
use symbol_obs::Registry;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig};

fn bench(h: &mut Harness) {
    let (cc, run) = compiled("serialise");
    let machine = MachineConfig::units(3);
    let compacted = compact(
        &cc.ici,
        &run.stats,
        &machine,
        CompactMode::TraceSchedule,
        &TracePolicy::default(),
    );
    let decoded = DecodedVliw::new(&compacted.program, machine);
    h.bench_function("table4/symbol3_simulation/serialise", |b| {
        b.iter(|| {
            DecodedVliwSim::new(black_box(&decoded), &cc.layout)
                .run(&SimConfig::default())
                .expect("simulates")
                .cycles
        })
    });
}

fn print_report() {
    let results = measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
        .expect("suite measures");
    println!("\n{}", reports::table4_absolute(&results));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
