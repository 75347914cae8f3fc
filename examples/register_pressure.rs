//! Register pressure of trace-scheduled code — how feasible is the
//! prototype's 16-register bank (paper §5.2)?
//!
//! ```sh
//! cargo run --release -p symbol-core --example register_pressure
//! ```

use symbol_compactor::{pressure, regalloc, try_compact, CompactMode, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::pipeline::Compiled;
use symbol_vliw::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::units(3);
    let mut rows = Vec::new();
    for b in benchmarks::ALL {
        let compiled = Compiled::from_source(b.source)?;
        let run = compiled.run_sequential()?;
        let compacted = try_compact(
            &compiled.ici,
            &run.stats,
            &machine,
            CompactMode::TraceSchedule,
            &TracePolicy::default(),
        )?;
        let (_, phys) =
            regalloc::allocate(&compacted.program, 64).expect("benchmarks allocate comfortably");
        let p = pressure::measure(&compacted.program);
        rows.push((format!("{} (alloc {phys} regs)", b.name), p));
    }
    print!("{}", pressure::pressure_summary(&rows));
    let worst = rows
        .iter()
        .map(|(_, p)| p.max_live_temps)
        .max()
        .unwrap_or(0);
    println!(
        "\nworst-case simultaneous temporaries: {worst} — the virtual\n\
         register space a register allocator would have to fold into the\n\
         prototype's 16-entry banks (values above ~12 per unit would\n\
         force spilling)."
    );
    Ok(())
}
