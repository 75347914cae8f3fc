//! Copy propagation must preserve semantics end to end: optimized
//! IntCode computes the same answers sequentially AND after trace
//! scheduling, while removing a measurable share of the moves.

use symbol_compactor::{try_compact, try_copy_propagate, CompactMode, TracePolicy};
use symbol_intcode::{Emulator, ExecConfig, Layout};
use symbol_prolog::PredId;
use symbol_vliw::{MachineConfig, SimConfig, SimOutcome, VliwSim};

fn layout() -> Layout {
    Layout {
        heap_size: 1 << 16,
        env_size: 1 << 14,
        cp_size: 1 << 14,
        trail_size: 1 << 14,
        pdl_size: 1 << 12,
    }
}

fn check(src: &str) -> (u64, u64) {
    let program = symbol_prolog::parse_program(src).expect("parse");
    let bam = symbol_bam::compile(&program).expect("compile");
    let main = PredId::new(program.symbols().lookup("main").expect("main"), 0);
    let layout = layout();
    let ici = symbol_intcode::translate(&bam, main, &layout).expect("translate");
    let before = Emulator::new(&ici, &layout)
        .run(&ExecConfig::default())
        .expect("original runs");

    let opt = try_copy_propagate(&ici, &before.stats).expect("rewritten program validates");
    let after = Emulator::new(&opt.program, &layout)
        .run(&ExecConfig::default())
        .expect("optimized runs");
    assert_eq!(before.outcome, after.outcome, "sequential semantics");
    assert!(after.steps <= before.steps);

    // the optimized profile drives trace scheduling; the scheduled code
    // must still agree
    let machine = MachineConfig::units(3);
    let compacted = try_compact(
        &opt.program,
        &opt.stats,
        &machine,
        CompactMode::TraceSchedule,
        &TracePolicy::default(),
    )
    .expect("compacts");
    let sim = VliwSim::new(&compacted.program, machine, &layout)
        .run(&SimConfig::default())
        .expect("scheduled optimized code runs");
    let want = match before.outcome {
        symbol_intcode::Outcome::Success => SimOutcome::Success,
        symbol_intcode::Outcome::Failure => SimOutcome::Failure,
    };
    assert_eq!(sim.outcome, want);
    (before.steps, after.steps)
}

#[test]
fn nreverse_keeps_its_answer_and_sheds_moves() {
    let (before, after) = check(
        "main :- nrev([1,2,3,4,5,6,7,8], R), R = [8,7,6,5,4,3,2,1].
         nrev([], []).
         nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
         app([], L, L).
         app([X|T], L, [X|R]) :- app(T, L, R).",
    );
    let saved = before - after;
    // Most moves are calling convention (argument registers, routine
    // linkage) or dereference-loop state and cannot be removed; the
    // local pass reliably sheds the remaining pure copies (~2-4%).
    assert!(
        saved as f64 >= before as f64 * 0.02,
        "expected >=2% dynamic op reduction, got {saved} of {before}"
    );
}

#[test]
fn backtracking_search_is_preserved() {
    check(
        "main :- perm([1,2,3,4], P), P = [4,3,2,1].
         perm([], []).
         perm(L, [X|P]) :- sel(X, L, R), perm(R, P).
         sel(X, [X|T], T).
         sel(X, [Y|T], [Y|R]) :- sel(X, T, R).",
    );
}

#[test]
fn cut_and_arithmetic_are_preserved() {
    check(
        "main :- gcd(252, 105, G), G = 21.
         gcd(A, 0, A) :- !.
         gcd(A, B, G) :- B > 0, R is A mod B, gcd(B, R, G).",
    );
}

#[test]
fn failing_query_stays_failing() {
    check("main :- a(1), a(2). a(1).");
}

#[test]
fn structures_survive_optimization() {
    check(
        "main :- d(x * x + x, x, D), size(D, N), N = 9.
         d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).
         d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).
         d(X, X, 1) :- !.
         d(_, _, 0).
         size(X + Y, S) :- !, size(X, A), size(Y, B), S is A + B + 1.
         size(X * Y, S) :- !, size(X, A), size(Y, B), S is A + B + 1.
         size(_, 1).",
    );
}
