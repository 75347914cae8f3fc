//! Register allocation round-trip: allocated code must compute the
//! same answers in the same cycles, within the physical budget.

use symbol_compactor::{pressure, regalloc, try_compact, CompactMode, TracePolicy};
use symbol_intcode::{Emulator, ExecConfig, Layout, Outcome};
use symbol_prolog::PredId;
use symbol_vliw::{MachineConfig, SimConfig, SimOutcome, VliwSim};

fn check(src: &str, budget: usize) {
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
        .expect("sequential");
    let want = match run.outcome {
        Outcome::Success => SimOutcome::Success,
        Outcome::Failure => SimOutcome::Failure,
    };

    let machine = MachineConfig::units(3);
    let compacted = try_compact(
        &ici,
        &run.stats,
        &machine,
        CompactMode::TraceSchedule,
        &TracePolicy::default(),
    )
    .expect("compacts");
    let before = VliwSim::new(&compacted.program, machine, &layout)
        .run(&SimConfig::default())
        .expect("pre-allocation run");

    let (allocated, used) =
        regalloc::allocate(&compacted.program, budget).expect("allocates within budget");
    assert!(used <= budget);

    // allocated code: same answer, same cycle count (renaming cannot
    // change the schedule), and pressure within the physical pool
    let after = VliwSim::new(&allocated, machine, &layout)
        .run(&SimConfig::default())
        .expect("post-allocation run");
    assert_eq!(after.outcome, want);
    assert_eq!(after.cycles, before.cycles, "allocation must not retime");

    let p = pressure::measure(&allocated);
    assert!(
        p.temps_used <= budget,
        "allocated program touches {} temps",
        p.temps_used
    );
}

#[test]
fn nreverse_allocates_into_32_registers() {
    check(
        "main :- nrev([1,2,3,4,5,6,7,8], R), R = [8,7,6,5,4,3,2,1].
         nrev([], []).
         nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
         app([], L, L).
         app([X|T], L, [X|R]) :- app(T, L, R).",
        32,
    );
}

#[test]
fn backtracking_search_allocates() {
    check(
        "main :- perm([1,2,3], P), P = [3,2,1].
         perm([], []).
         perm(L, [X|P]) :- sel(X, L, R), perm(R, P).
         sel(X, [X|T], T).
         sel(X, [Y|T], [Y|R]) :- sel(X, T, R).",
        32,
    );
}

#[test]
fn arithmetic_allocates() {
    check(
        "main :- fib(10, F), F = 55.
         fib(0, 0). fib(1, 1).
         fib(N, F) :- N > 1, A is N - 1, B is N - 2,
                      fib(A, FA), fib(B, FB), F is FA + FB.",
        32,
    );
}

#[test]
fn impossible_budget_reports_requirement() {
    let program = symbol_prolog::parse_program(
        "main :- nrev([1,2,3,4], R), R = [4,3,2,1].
         nrev([], []).
         nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
         app([], L, L).
         app([X|T], L, [X|R]) :- app(T, L, R).",
    )
    .unwrap();
    let bam = symbol_bam::compile(&program).unwrap();
    let main = PredId::new(program.symbols().lookup("main").unwrap(), 0);
    let layout = Layout {
        heap_size: 1 << 14,
        env_size: 1 << 12,
        cp_size: 1 << 12,
        trail_size: 1 << 12,
        pdl_size: 1 << 10,
    };
    let ici = symbol_intcode::translate(&bam, main, &layout).unwrap();
    let run = Emulator::new(&ici, &layout)
        .run(&ExecConfig::default())
        .unwrap();
    let machine = MachineConfig::units(3);
    let compacted = try_compact(
        &ici,
        &run.stats,
        &machine,
        CompactMode::TraceSchedule,
        &TracePolicy::default(),
    )
    .expect("compacts");
    let err = regalloc::allocate(&compacted.program, 2).unwrap_err();
    assert!(err.required > 2);
    assert_eq!(err.budget, 2);
}
