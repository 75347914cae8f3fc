//! Register pressure of scheduled benchmarks stays within the range a
//! 16-register-per-unit prototype could allocate.

use symbol_compactor::{pressure, try_compact, CompactMode, TracePolicy};
use symbol_intcode::{Emulator, ExecConfig, Layout};
use symbol_prolog::PredId;
use symbol_vliw::MachineConfig;

fn pressure_of(src: &str) -> pressure::Pressure {
    let program = symbol_prolog::parse_program(src).expect("parse");
    let bam = symbol_bam::compile(&program).expect("compile");
    let main = PredId::new(program.symbols().lookup("main").expect("main"), 0);
    let layout = Layout {
        heap_size: 1 << 16,
        env_size: 1 << 14,
        cp_size: 1 << 14,
        trail_size: 1 << 14,
        pdl_size: 1 << 12,
    };
    let ici = symbol_intcode::translate(&bam, main, &layout).expect("translate");
    let run = Emulator::new(&ici, &layout)
        .run(&ExecConfig::default())
        .expect("run");
    let machine = MachineConfig::units(3);
    let compacted = try_compact(
        &ici,
        &run.stats,
        &machine,
        CompactMode::TraceSchedule,
        &TracePolicy::default(),
    )
    .expect("compacts");
    pressure::measure(&compacted.program)
}

#[test]
fn recursive_list_code_pressure_is_modest() {
    let p = pressure_of(
        "main :- nrev([1,2,3,4,5,6,7,8], R), R = [8,7,6,5,4,3,2,1].
         nrev([], []).
         nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
         app([], L, L).
         app([X|T], L, [X|R]) :- app(T, L, R).",
    );
    assert!(
        p.max_live_temps <= 24,
        "pressure {} would be unallocatable on the prototype",
        p.max_live_temps
    );
    assert!(p.temps_used > p.max_live_temps, "renaming spreads temps");
}

#[test]
fn fixed_registers_stay_architectural() {
    let p = pressure_of("main :- X is 1 + 1, X = 2.");
    // H/HB/E/ETOP/EB/B/TR/CP/B0/RR/U1/U2/FLAG/PDL + a few A registers
    assert!(p.fixed_regs_used <= 24, "{}", p.fixed_regs_used);
}
