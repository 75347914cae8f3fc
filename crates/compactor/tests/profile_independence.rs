//! Trace scheduling is *guided* by the profile but must be *correct*
//! for any execution — compensation code and cold-path scheduling keep
//! the semantics even when the profile is empty or misleading.

use symbol_compactor::{try_compact, CompactMode, Compactor, TracePolicy};
use symbol_intcode::{Emulator, ExecConfig, ExecStats, Layout, Outcome};
use symbol_prolog::PredId;
use symbol_vliw::{MachineConfig, SimConfig, SimOutcome, VliwSim};

fn prepare(src: &str) -> (symbol_intcode::IciProgram, ExecStats, Layout, Outcome) {
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
    (ici, run.stats, layout, run.outcome)
}

fn check_with_stats(src: &str, mangle: impl Fn(&ExecStats) -> ExecStats) {
    let (ici, stats, layout, outcome) = prepare(src);
    let want = match outcome {
        Outcome::Success => SimOutcome::Success,
        Outcome::Failure => SimOutcome::Failure,
    };
    let fake = mangle(&stats);
    let compactor = Compactor::new(&ici, &fake, &TracePolicy::default());
    for units in [1usize, 3] {
        let machine = MachineConfig::units(units);
        let compacted = compactor
            .compact(&machine, CompactMode::TraceSchedule)
            .expect("compacts");
        let sim = VliwSim::new(&compacted.program, machine, &layout)
            .run(&SimConfig::default())
            .expect("schedule runs");
        assert_eq!(sim.outcome, want, "{units} units with mangled profile");
    }
}

const PROGRAM: &str = "
    main :- qs([3,1,4,1,5,9,2,6], S, []), S = [1,1,2,3,4,5,6,9].
    qs([X|L], R, R0) :- part(L, X, L1, L2), qs(L2, R1, R0), qs(L1, R, [X|R1]).
    qs([], R, R).
    part([X|L], Y, [X|L1], L2) :- X =< Y, !, part(L, Y, L1, L2).
    part([X|L], Y, L1, [X|L2]) :- part(L, Y, L1, L2).
    part([], _, [], []).
";

#[test]
fn empty_profile_is_still_correct() {
    // All Expect counts zero: every block is "cold", trace picking has
    // nothing to go on, and the layout degenerates — but the answer
    // must survive.
    check_with_stats(PROGRAM, |s| ExecStats {
        expect: vec![0; s.expect.len()],
        taken: vec![0; s.taken.len()],
    });
}

#[test]
fn inverted_profile_is_still_correct() {
    // Branch probabilities flipped: the picker follows the *unlikely*
    // path everywhere — slower, never wrong.
    check_with_stats(PROGRAM, |s| ExecStats {
        expect: s.expect.clone(),
        taken: s
            .expect
            .iter()
            .zip(&s.taken)
            .map(|(&e, &t)| e - t)
            .collect(),
    });
}

#[test]
fn uniform_profile_is_still_correct() {
    // Every op claimed to execute exactly once, every branch 50/50.
    check_with_stats(PROGRAM, |s| ExecStats {
        expect: vec![1; s.expect.len()],
        taken: s.taken.iter().map(|_| 0).collect(),
    });
}

#[test]
fn misleading_profile_costs_cycles_but_not_answers() {
    let (ici, stats, layout, _) = prepare(PROGRAM);
    let machine = MachineConfig::units(3);
    let run = |st: &ExecStats| {
        let compacted = try_compact(
            &ici,
            st,
            &machine,
            CompactMode::TraceSchedule,
            &TracePolicy::default(),
        )
        .expect("compacts");
        VliwSim::new(&compacted.program, machine, &layout)
            .run(&SimConfig::default())
            .expect("runs")
            .cycles
    };
    let good = run(&stats);
    let inverted = ExecStats {
        expect: stats.expect.clone(),
        taken: stats
            .expect
            .iter()
            .zip(&stats.taken)
            .map(|(&e, &t)| e - t)
            .collect(),
    };
    let bad = run(&inverted);
    assert!(
        bad >= good,
        "a misleading profile should not beat the true one ({bad} < {good})"
    );
}
