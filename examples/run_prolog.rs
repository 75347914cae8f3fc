//! Run an arbitrary Prolog file on the SYMBOL evaluation system.
//!
//! The file must define `main/0`; the query's success/failure is
//! reported together with cycle counts for the sequential machine and
//! a chosen VLIW width.
//!
//! ```sh
//! cargo run --release -p symbol-core --example run_prolog -- path/to/file.pl 3
//! ```

use symbol_compactor::{sequential_cycles, try_compact, CompactMode, SeqDurations, TracePolicy};
use symbol_core::pipeline::{simulate, Compiled, PipelineError};
use symbol_vliw::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let path = args.next().ok_or("usage: run_prolog <file.pl> [units]")?;
    let units: usize = args.next().map(|u| u.parse()).transpose()?.unwrap_or(3);

    let src = std::fs::read_to_string(&path)?;
    let compiled = Compiled::from_source(&src)?;

    match compiled.run_sequential() {
        Ok(run) => {
            let seq = sequential_cycles(&compiled.ici, &run.stats, &SeqDurations::default());
            println!("main/0 succeeded; sequential: {seq} cycles");

            let machine = MachineConfig::units(units);
            let compacted = try_compact(
                &compiled.ici,
                &run.stats,
                &machine,
                CompactMode::TraceSchedule,
                &TracePolicy::default(),
            )?;
            let result = simulate(&compacted.program, machine, &compiled.layout)?;
            println!(
                "{units}-unit VLIW: {} cycles, speed-up {:.2}",
                result.cycles,
                seq as f64 / result.cycles as f64
            );
        }
        Err(PipelineError::WrongAnswer) => {
            println!("main/0 failed (no solution)");
        }
        Err(e) => return Err(e.into()),
    }
    Ok(())
}
