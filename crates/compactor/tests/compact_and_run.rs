//! The end-to-end proof of the compactor: compile Prolog programs,
//! trace-schedule them, execute the scheduled code on the validating
//! VLIW simulator and require the same answer as sequential execution —
//! for every compaction mode and several machine widths.

use symbol_compactor::{sequential_cycles, CompactMode, Compactor, SeqDurations, TracePolicy};
use symbol_intcode::{Emulator, ExecConfig, Layout, Outcome};
use symbol_prolog::PredId;
use symbol_vliw::{MachineConfig, SimConfig, SimOutcome, VliwSim};

fn small_layout() -> Layout {
    Layout {
        heap_size: 1 << 16,
        env_size: 1 << 14,
        cp_size: 1 << 14,
        trail_size: 1 << 14,
        pdl_size: 1 << 12,
    }
}

struct Case {
    ici: symbol_intcode::IciProgram,
    stats: symbol_intcode::ExecStats,
    layout: Layout,
    seq_outcome: Outcome,
}

fn prepare(src: &str) -> Case {
    let program = symbol_prolog::parse_program(src).expect("parse");
    let bam = symbol_bam::compile(&program).expect("compile");
    let main = PredId::new(program.symbols().lookup("main").expect("main"), 0);
    let layout = small_layout();
    let ici = symbol_intcode::translate(&bam, main, &layout).expect("translate");
    let run = Emulator::new(&ici, &layout)
        .run(&ExecConfig {
            max_steps: 50_000_000,
        })
        .expect("sequential run");
    Case {
        ici,
        stats: run.stats,
        layout,
        seq_outcome: run.outcome,
    }
}

fn check_all_modes(src: &str) {
    let case = prepare(src);
    let want = match case.seq_outcome {
        Outcome::Success => SimOutcome::Success,
        Outcome::Failure => SimOutcome::Failure,
    };
    let seq = sequential_cycles(&case.ici, &case.stats, &SeqDurations::default());

    let compactor = Compactor::new(&case.ici, &case.stats, &TracePolicy::default());
    for mode in [
        CompactMode::TraceSchedule,
        CompactMode::BasicBlock,
        CompactMode::BamGroups,
    ] {
        for units in [1usize, 2, 3, 5] {
            if mode == CompactMode::BamGroups && units != 1 {
                continue;
            }
            let machine = MachineConfig::units(units);
            let compacted = compactor.compact(&machine, mode).expect("compacts");
            let result = VliwSim::new(&compacted.program, machine, &case.layout)
                .run(&SimConfig::default())
                .unwrap_or_else(|e| panic!("{mode:?} x {units} units failed: {e}\nsrc: {src}"));
            assert_eq!(
                result.outcome, want,
                "{mode:?} x {units} units: wrong answer"
            );
            // Multi-unit trace/basic-block schedules must never lose
            // to the sequential machine. Single-issue configurations
            // (1 unit, and the BAM model with its group barriers) are
            // nearly sequential themselves and may overshoot slightly
            // on tiny programs where taken-branch bubbles dominate.
            let bound = if mode == CompactMode::BamGroups || units == 1 {
                seq + seq / 8
            } else {
                seq
            };
            assert!(
                result.cycles <= bound,
                "{mode:?} x {units} units slower than sequential: {} > {seq}",
                result.cycles
            );
        }
    }
}

#[test]
fn append_compacts_correctly() {
    check_all_modes(
        "main :- app([1,2,3,4,5], [6,7], R), R = [1,2,3,4,5,6,7].
         app([], L, L).
         app([X|T], L, [X|R]) :- app(T, L, R).",
    );
}

#[test]
fn naive_reverse_compacts_correctly() {
    check_all_modes(
        "main :- nrev([1,2,3,4,5,6,7,8], R), R = [8,7,6,5,4,3,2,1].
         nrev([], []).
         nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
         app([], L, L).
         app([X|T], L, [X|R]) :- app(T, L, R).",
    );
}

#[test]
fn backtracking_search_compacts_correctly() {
    check_all_modes(
        "main :- q(X), r(X).
         q(1). q(2). q(3).
         r(3).",
    );
}

#[test]
fn cut_compacts_correctly() {
    check_all_modes(
        "main :- p(X), X = 1.
         p(X) :- q(X), !, r(X).
         p(99).
         q(1). q(2).
         r(1).",
    );
}

#[test]
fn arithmetic_compacts_correctly() {
    check_all_modes(
        "main :- fib(12, R), R = 144.
         fib(0, 0).
         fib(1, 1).
         fib(N, R) :- N > 1, A is N - 1, B is N - 2,
                      fib(A, RA), fib(B, RB), R is RA + RB.",
    );
}

#[test]
fn structures_compact_correctly() {
    check_all_modes(
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

#[test]
fn failure_answer_is_preserved() {
    check_all_modes("main :- a(1), a(9). a(1). a(2).");
}

#[test]
fn negation_and_ite_compact_correctly() {
    check_all_modes(
        "main :- \\+ bad(2), (ok(1) -> X = yes ; X = no), X = yes.
         bad(1).
         ok(1).",
    );
}

#[test]
fn trace_beats_or_matches_basic_block_on_recursion() {
    let case = prepare(
        "main :- len(L, 40), app(L, [x], _).
         len([], 0).
         len([a|T], N) :- N > 0, N1 is N - 1, len(T, N1).
         app([], L, L).
         app([X|T], L, [X|R]) :- app(T, L, R).",
    );
    let machine = MachineConfig::units(3);
    let compactor = Compactor::new(&case.ici, &case.stats, &TracePolicy::default());
    let run = |mode| {
        let c = compactor.compact(&machine, mode).expect("compacts");
        VliwSim::new(&c.program, machine, &case.layout)
            .run(&SimConfig::default())
            .expect("run")
            .cycles
    };
    let trace = run(CompactMode::TraceSchedule);
    let bb = run(CompactMode::BasicBlock);
    assert!(
        trace as f64 <= bb as f64 * 1.05,
        "trace scheduling much slower than basic blocks: {trace} vs {bb}"
    );
}

#[test]
fn wider_machines_never_hurt() {
    let case = prepare(
        "main :- nrev([1,2,3,4,5,6,7,8,9,10], R), R = [10,9,8,7,6,5,4,3,2,1].
         nrev([], []).
         nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
         app([], L, L).
         app([X|T], L, [X|R]) :- app(T, L, R).",
    );
    let compactor = Compactor::new(&case.ici, &case.stats, &TracePolicy::default());
    let mut prev = u64::MAX;
    for units in 1..=5 {
        let machine = MachineConfig::units(units);
        let c = compactor
            .compact(&machine, CompactMode::TraceSchedule)
            .expect("compacts");
        let cycles = VliwSim::new(&c.program, machine, &case.layout)
            .run(&SimConfig::default())
            .expect("run")
            .cycles;
        if prev != u64::MAX {
            assert!(
                cycles <= prev + prev / 50,
                "{units} units noticeably slower than {} units",
                units - 1
            );
        }
        prev = cycles;
    }
}
