//! Table 3 / Figure 6 — the unit sweep: compaction plus validated
//! VLIW simulation per machine width. Times the full
//! compact-and-simulate kernel, then regenerates the table and chart.

use std::hint::black_box;

use symbol_bench::compiled;
use symbol_bench::timing::Harness;
use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::experiments::{default_threads, measure_suite_obs, reports};
use symbol_obs::Registry;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig};

fn bench(h: &mut Harness) {
    let (cc, run) = compiled("nreverse");
    for units in [1usize, 3, 5] {
        let machine = MachineConfig::units(units);
        h.bench_function(&format!("table3/compact_and_simulate/{units}u"), |b| {
            b.iter(|| {
                let compacted = try_compact(
                    black_box(&cc.ici),
                    &run.stats,
                    &machine,
                    CompactMode::TraceSchedule,
                    &TracePolicy::default(),
                )
                .expect("compacts");
                let decoded = DecodedVliw::new(&compacted.program, machine);
                DecodedVliwSim::new(&decoded, &cc.layout)
                    .run(&SimConfig::default())
                    .expect("simulates")
                    .cycles
            })
        });
    }
}

fn print_report() {
    let results = measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
        .expect("suite measures");
    println!("\n{}", reports::table3_units(&results));
    println!("\n{}", reports::fig6_chart(&results));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
