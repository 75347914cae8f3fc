//! Table 5 — SYMBOL-3 and BAM speed-up over the sequential machine.
//! Times the BAM-model kernel, then regenerates the table.

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
    let machine = MachineConfig::bam();
    h.bench_function("table5/bam_model/serialise", |b| {
        b.iter(|| {
            let compacted = compact(
                black_box(&cc.ici),
                &run.stats,
                &machine,
                CompactMode::BamGroups,
                &TracePolicy::default(),
            );
            let decoded = DecodedVliw::new(&compacted.program, machine);
            DecodedVliwSim::new(&decoded, &cc.layout)
                .run(&SimConfig::default())
                .expect("simulates")
                .cycles
        })
    });
}

fn print_report() {
    let results = measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
        .expect("suite measures");
    println!("\n{}", reports::table5_speedups(&results));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
