//! Quickstart: compile a Prolog program through the whole SYMBOL
//! evaluation system and compare sequential and VLIW execution.
//!
//! ```sh
//! cargo run --release -p symbol-core --example quickstart
//! ```

use symbol_compactor::{sequential_cycles, try_compact, CompactMode, SeqDurations, TracePolicy};
use symbol_core::pipeline::{simulate, Compiled};
use symbol_vliw::MachineConfig;

const PROGRAM: &str = "
    main :- nrev([1,2,3,4,5,6,7,8,9,10], R),
            R = [10,9,8,7,6,5,4,3,2,1].

    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).

    app([], L, L).
    app([X|T], L, [X|R]) :- app(T, L, R).
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Prolog -> BAM -> IntCode.
    let compiled = Compiled::from_source(PROGRAM)?;
    let front = compiled.front.as_ref().expect("compiled from source");
    println!(
        "compiled: {} predicates, {} BAM instructions, {} IntCode ops",
        front.program.predicates().count(),
        front.bam.num_instructions(),
        compiled.ici.len()
    );

    // 2. Sequential emulation: correctness + profile.
    let run = compiled.run_sequential()?;
    let seq = sequential_cycles(&compiled.ici, &run.stats, &SeqDurations::default());
    println!("sequential: {} ops executed, {seq} cycles", run.steps);

    // 3. Trace-schedule for a 3-unit shared-memory VLIW and re-run.
    let machine = MachineConfig::units(3);
    let compacted = try_compact(
        &compiled.ici,
        &run.stats,
        &machine,
        CompactMode::TraceSchedule,
        &TracePolicy::default(),
    )?;
    let result = simulate(&compacted.program, machine, &compiled.layout)?;
    println!(
        "3-unit VLIW: {} cycles ({} words, {} taken transfers) -> {:?}",
        result.cycles, result.instructions, result.taken_branches, result.outcome
    );
    println!(
        "speed-up over sequential: {:.2}x (trace length {:.1} ops, code growth {:.2}x)",
        seq as f64 / result.cycles as f64,
        compacted.stats.avg_region_len,
        compacted.stats.code_growth()
    );
    Ok(())
}
