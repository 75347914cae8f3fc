//! Ablation study (experiment E9): times one ablation variant's
//! kernel, then prints the full ablation table over a benchmark
//! subset.

use std::hint::black_box;

use symbol_bench::compiled;
use symbol_bench::timing::Harness;
use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_core::experiments::ablation;
use symbol_vliw::MachineConfig;

fn bench(h: &mut Harness) {
    let (cc, run) = compiled("qsort");
    let machine = MachineConfig::units(3);
    let no_spec = TracePolicy {
        speculate: false,
        ..TracePolicy::default()
    };
    h.bench_function("ablation/compact_no_speculation/qsort", |b| {
        b.iter(|| {
            try_compact(
                black_box(&cc.ici),
                &run.stats,
                &machine,
                CompactMode::TraceSchedule,
                &no_spec,
            )
            .expect("compacts")
        })
    });
}

fn print_report() {
    let rows = ablation::run(&[
        "conc30",
        "nreverse",
        "qsort",
        "serialise",
        "times10",
        "queens_8",
    ])
    .expect("ablation runs");
    println!("\n{}", ablation::render(&rows));
}

fn main() {
    let mut h = Harness::new();
    bench(&mut h);
    h.final_summary();
    print_report();
}
