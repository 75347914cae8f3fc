//! Workspace-level integration: the scheduled VLIW code must be
//! semantically equivalent to sequential execution for every
//! compaction mode, machine shape and scheduling policy — exercised
//! over programs that stress each part of the Prolog machinery.

use symbol_compactor::{CompactMode, Compactor, TracePolicy};
use symbol_core::pipeline::Compiled;
use symbol_intcode::{Emulator, ExecConfig, Outcome};
use symbol_vliw::{MachineConfig, SimConfig, SimOutcome, VliwSim};

fn outcomes_agree(src: &str) {
    let compiled = Compiled::from_source(src).expect("compiles");
    let run = Emulator::new(&compiled.ici, &compiled.layout)
        .run(&ExecConfig::default())
        .expect("sequential run");
    let want = match run.outcome {
        Outcome::Success => SimOutcome::Success,
        Outcome::Failure => SimOutcome::Failure,
    };

    let machines = [
        MachineConfig::units(1),
        MachineConfig::units(2),
        MachineConfig::units(4),
        MachineConfig::wide_units(2),
        MachineConfig::prototype(),
        MachineConfig::unbounded(),
        MachineConfig::bam(),
        MachineConfig {
            mem_ports: 2,
            ..MachineConfig::units(3)
        },
        MachineConfig {
            multiway_branch: false,
            ..MachineConfig::units(3)
        },
    ];
    let policies = [
        TracePolicy::default(),
        TracePolicy {
            tail_dup_ops: 0,
            ..TracePolicy::default()
        },
        TracePolicy {
            speculate: false,
            max_blocks: 4,
            ..TracePolicy::default()
        },
    ];
    // One compactor per policy serves every (machine, mode) job.
    let compactors = policies.map(|policy| Compactor::new(&compiled.ici, &run.stats, &policy));
    for machine in machines {
        for compactor in &compactors {
            for mode in [
                CompactMode::TraceSchedule,
                CompactMode::BasicBlock,
                CompactMode::BamGroups,
            ] {
                let compacted = compactor
                    .compact(&machine, mode)
                    .unwrap_or_else(|e| panic!("{mode:?}/{machine:?}: {e}"));
                let result = VliwSim::new(&compacted.program, machine, &compiled.layout)
                    .run(&SimConfig::default())
                    .unwrap_or_else(|e| panic!("{mode:?}/{machine:?}: {e}"));
                assert_eq!(result.outcome, want, "{mode:?} on {machine:?} diverged");
            }
        }
    }
}

#[test]
fn deterministic_recursion() {
    outcomes_agree(
        "main :- sum(25, S), S = 325.
         sum(0, 0).
         sum(N, S) :- N > 0, M is N - 1, sum(M, T), S is T + N.",
    );
}

#[test]
fn shallow_backtracking() {
    outcomes_agree(
        "main :- pick(X), sq(X, 16).
         pick(2). pick(3). pick(4). pick(5).
         sq(X, Y) :- Y is X * X.",
    );
}

#[test]
fn deep_backtracking_with_trail() {
    outcomes_agree(
        "main :- perm([1,2,3,4], P), P = [4,3,2,1].
         perm([], []).
         perm(L, [X|P]) :- sel(X, L, R), perm(R, P).
         sel(X, [X|T], T).
         sel(X, [Y|T], [Y|R]) :- sel(X, T, R).",
    );
}

#[test]
fn cut_and_negation() {
    outcomes_agree(
        "main :- best(7, B), B = small, \\+ best(20, small).
         best(X, small) :- X < 10, !.
         best(_, large).",
    );
}

#[test]
fn structure_building_and_matching() {
    outcomes_agree(
        "main :- tree(3, T), count(T, N), N = 7.
         tree(0, leaf).
         tree(D, node(L, R)) :- D > 0, D1 is D - 1, tree(D1, L), tree(D1, R).
         count(leaf, 1).
         count(node(L, R), N) :-
             count(L, NL), count(R, NR), N is NL + NR + 1.",
    );
}

#[test]
fn failure_propagates_identically() {
    outcomes_agree(
        "main :- perm([1,2,3], P), sorted_desc(P), P = [1,2,3].
         perm([], []).
         perm(L, [X|P]) :- sel(X, L, R), perm(R, P).
         sel(X, [X|T], T).
         sel(X, [Y|T], [Y|R]) :- sel(X, T, R).
         sorted_desc([]).
         sorted_desc([_]).
         sorted_desc([A,B|T]) :- A >= B, sorted_desc([B|T]).",
    );
}

#[test]
fn arithmetic_heavy() {
    outcomes_agree(
        "main :- gcd(252, 105, G), G = 21,
                 pow(3, 5, P), P = 243.
         gcd(A, 0, A) :- !.
         gcd(A, B, G) :- B > 0, R is A mod B, gcd(B, R, G).
         pow(_, 0, 1) :- !.
         pow(B, E, R) :- E > 0, E1 is E - 1, pow(B, E1, R1), R is R1 * B.",
    );
}

#[test]
fn aquarius_conc30_everywhere() {
    outcomes_agree(symbol_core::benchmarks::by_name("conc30").unwrap().source);
}

#[test]
fn aquarius_serialise_everywhere() {
    outcomes_agree(
        symbol_core::benchmarks::by_name("serialise")
            .unwrap()
            .source,
    );
}

#[test]
fn aquarius_ops8_everywhere() {
    outcomes_agree(symbol_core::benchmarks::by_name("ops8").unwrap().source);
}

#[test]
fn extra_programs_compact_correctly() {
    for b in symbol_core::extras::EXTRAS {
        outcomes_agree(b.source);
    }
}
