//! Table 1 — trace scheduling vs basic-block compaction on the
//! unbounded shared-memory machine. Times both compactions, then
//! regenerates the table for the full suite.

use std::hint::black_box;

use symbol_bench::timing::Harness;
use symbol_bench::{compiled, TIMING_SUBSET};
use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::experiments::{default_threads, measure_suite_obs, reports};
use symbol_obs::Registry;
use symbol_vliw::MachineConfig;

fn bench(h: &mut Harness) {
    let machine = MachineConfig::unbounded();
    for name in TIMING_SUBSET {
        let (cc, run) = compiled(name);
        h.bench_function(&format!("table1/trace/{name}"), |b| {
            b.iter(|| {
                try_compact(
                    black_box(&cc.ici),
                    &run.stats,
                    &machine,
                    CompactMode::TraceSchedule,
                    &TracePolicy::default(),
                )
                .expect("compacts")
            })
        });
        h.bench_function(&format!("table1/basic_block/{name}"), |b| {
            b.iter(|| {
                try_compact(
                    black_box(&cc.ici),
                    &run.stats,
                    &machine,
                    CompactMode::BasicBlock,
                    &TracePolicy::default(),
                )
                .expect("compacts")
            })
        });
    }
}

fn print_report() {
    let results = measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
        .expect("suite measures");
    println!("\n{}", reports::table1_compaction(&results));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
