//! Times every stage of the evaluation system (paper Figure 1) in
//! isolation: parsing, BAM compilation, IntCode translation, sequential
//! emulation, compaction (its per-profile and per-machine halves) and
//! VLIW simulation. Emulation and simulation
//! run the production engines (`DecodedEmulator`, `DecodedVliwSim`) on
//! programs decoded outside the timed loop, the way the pipeline
//! decodes once per image.

use std::hint::black_box;

use symbol_bench::compiled;
use symbol_bench::timing::Harness;
use symbol_compactor::{CompactMode, Compactor, TracePolicy};
use symbol_core::benchmarks;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig};

fn stages(h: &mut Harness) {
    let src = benchmarks::by_name("qsort").expect("qsort exists").source;

    h.bench_function("stage/parse", |b| {
        b.iter(|| symbol_prolog::parse_program(black_box(src)).expect("parses"))
    });

    let program = symbol_prolog::parse_program(src).expect("parses");
    h.bench_function("stage/compile_bam", |b| {
        b.iter(|| symbol_bam::compile(black_box(&program)).expect("compiles"))
    });

    let bam = symbol_bam::compile(&program).expect("compiles");
    let main = symbol_prolog::PredId::new(program.symbols().lookup("main").expect("main"), 0);
    let layout = symbol_intcode::Layout::default();
    h.bench_function("stage/translate_ici", |b| {
        b.iter(|| symbol_intcode::translate(black_box(&bam), main, &layout).expect("translates"))
    });

    let (compiled_qsort, run) = compiled("qsort");
    h.bench_function("stage/emulate_sequential", |b| {
        b.iter(|| {
            symbol_intcode::DecodedEmulator::new(&compiled_qsort.decoded, &compiled_qsort.layout)
                .run(&symbol_intcode::ExecConfig::default())
                .expect("runs")
        })
    });

    // Compaction in its two halves: the per-profile analysis, built
    // once per profile, and the per-machine schedule on top of it.
    let policy = TracePolicy::default();
    h.bench_function("stage/compact_prepare", |b| {
        b.iter(|| Compactor::new(black_box(&compiled_qsort.ici), &run.stats, &policy))
    });

    let machine = MachineConfig::units(3);
    let compactor = Compactor::new(&compiled_qsort.ici, &run.stats, &policy);
    h.bench_function("stage/compact_schedule", |b| {
        b.iter(|| {
            compactor
                .compact(black_box(&machine), CompactMode::TraceSchedule)
                .expect("compacts")
        })
    });

    let compacted = compactor
        .compact(&machine, CompactMode::TraceSchedule)
        .expect("compacts");
    let lowered = DecodedVliw::new(&compacted.program, machine);
    h.bench_function("stage/simulate_vliw", |b| {
        b.iter(|| {
            DecodedVliwSim::new(&lowered, &compiled_qsort.layout)
                .run(&SimConfig::default())
                .expect("simulates")
        })
    });
}

fn main() {
    let mut h = Harness::new();
    stages(&mut h);
    h.final_summary();
}
