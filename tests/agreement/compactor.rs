//! The compactor: the scheduled VLIW code must be semantically
//! equivalent to sequential execution for every compaction mode,
//! machine shape and scheduling policy — exercised over programs that
//! stress each part of the Prolog machinery. The legacy VLIW simulator
//! agrees with the decoded one, and the decoded one's profile accounts
//! for every word it issues.

use symbol_compactor::{CompactMode, Compacted, Compactor, TracePolicy};
use symbol_core::experiments::sim_jobs;
use symbol_intcode::{Layout, Outcome};
use symbol_vliw::{
    DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig, SimError, SimOutcome, SimResult, VliwSim,
};

use crate::{benches, par_map, program, Program};

/// `f` on every (machine, policy, mode) case of the matrix on `p`,
/// compacted against its production run's profile, spread over the
/// machine's cores; the results in case order. One compactor per policy
/// serves every (machine, mode) job.
fn matrix<T: Send>(
    p: &Program,
    f: impl Fn(MachineConfig, CompactMode, &Compacted) -> T + Sync,
) -> Vec<T> {
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
    let compactors = policies.map(|policy| Compactor::new(&p.compiled.ici, &p.run.stats, &policy));
    let modes = [
        CompactMode::TraceSchedule,
        CompactMode::BasicBlock,
        CompactMode::BamGroups,
    ];
    let cases: Vec<_> = machines
        .iter()
        .flat_map(|&machine| {
            compactors
                .iter()
                .flat_map(move |compactor| modes.map(|mode| (machine, compactor, mode)))
        })
        .collect();
    par_map(&cases, |&(machine, compactor, mode)| {
        let compacted = compactor
            .compact(&machine, mode)
            .unwrap_or_else(|e| panic!("{}: {mode:?}/{machine:?}: {e}", p.name));
        f(machine, mode, &compacted)
    })
}

/// `compacted` run on the production VLIW simulator.
fn simulate(
    compacted: &Compacted,
    machine: MachineConfig,
    layout: &Layout,
) -> Result<SimResult, SimError> {
    let lowered = DecodedVliw::new(&compacted.program, machine);
    DecodedVliwSim::new(&lowered, layout).run(&SimConfig::default())
}

/// The VLIW run of every case of the matrix ends as the sequential run
/// of the program it was compacted from did.
fn outcomes_agree(name: &str) {
    let p = program(name);
    let want = match p.run.outcome {
        Outcome::Success => SimOutcome::Success,
        Outcome::Failure => SimOutcome::Failure,
    };
    matrix(p, |machine, mode, compacted| {
        let result = simulate(compacted, machine, &p.compiled.layout)
            .unwrap_or_else(|e| panic!("{name}: {mode:?}/{machine:?}: {e}"));
        assert_eq!(
            result.outcome, want,
            "{name}: {mode:?} on {machine:?} diverged"
        );
    });
}

#[test]
fn deterministic_recursion() {
    outcomes_agree("recursion");
}

#[test]
fn shallow_backtracking() {
    outcomes_agree("backtracking");
}

#[test]
fn deep_backtracking_with_trail() {
    outcomes_agree("trail");
}

#[test]
fn cut_and_negation() {
    outcomes_agree("cut");
}

#[test]
fn structure_building_and_matching() {
    outcomes_agree("structures");
}

#[test]
fn failure_propagates_identically() {
    outcomes_agree("failure");
}

#[test]
fn arithmetic_heavy() {
    outcomes_agree("arithmetic");
}

#[test]
fn aquarius_conc30_everywhere() {
    outcomes_agree("conc30");
}

#[test]
fn aquarius_serialise_everywhere() {
    outcomes_agree("serialise");
}

#[test]
fn aquarius_ops8_everywhere() {
    outcomes_agree("ops8");
}

#[test]
fn extra_programs_compact_correctly() {
    for b in symbol_core::extras::EXTRAS {
        outcomes_agree(b.name);
    }
}

/// The legacy VLIW simulator, as the oracle of the decoded one, on every
/// case of the matrix: the same `SimResult`, every counter, or the same
/// error.
#[test]
fn vliw_legacy_matches_decoded_on_every_conc30_case() {
    let p = program("conc30");
    let layout = &p.compiled.layout;
    let cases = matrix(p, |machine, mode, compacted| {
        let legacy = VliwSim::new(&compacted.program, machine, layout).run(&SimConfig::default());
        let decoded = simulate(compacted, machine, layout);
        assert_eq!(decoded, legacy, "conc30: {mode:?} on {machine:?}");
    });
    assert_eq!(cases.len(), 81, "9 machines × 3 trace policies × 3 modes");
}

#[test]
fn vliw_decoded_matches_legacy_on_every_benchmark() {
    let combos = [
        (CompactMode::TraceSchedule, MachineConfig::units(3)),
        (CompactMode::BasicBlock, MachineConfig::prototype()),
        (CompactMode::TraceSchedule, MachineConfig::unbounded()),
    ];
    par_map(benches(), |p| {
        let layout = &p.compiled.layout;
        let compactor = Compactor::new(&p.compiled.ici, &p.run.stats, &TracePolicy::default());
        for (mode, machine) in combos {
            let compacted = compactor.compact(&machine, mode).expect("compacts");
            let legacy = VliwSim::new(&compacted.program, machine, layout)
                .run(&SimConfig::default())
                .unwrap_or_else(|e| panic!("{}: legacy {mode:?} sim: {e}", p.name));
            let fast = simulate(&compacted, machine, layout)
                .unwrap_or_else(|e| panic!("{}: decoded {mode:?} sim: {e}", p.name));
            // Every counter: outcome, cycles, instructions, ops, taken
            // branches and per-class op counts.
            assert_eq!(fast, legacy, "{}/{mode:?}", p.name);
        }
    });
}

#[test]
fn vliw_profile_accounts_for_every_issued_word_on_every_tables_job() {
    par_map(benches(), |p| {
        let compactor = Compactor::new(&p.compiled.ici, &p.run.stats, &TracePolicy::default());
        for (mode, machine) in sim_jobs() {
            let what = format!("{}/{mode:?}/{}", p.name, machine.describe());
            let compacted = compactor.compact(&machine, mode).expect("compacts");
            let lowered = DecodedVliw::new(&compacted.program, machine);
            let (result, profile) = DecodedVliwSim::new(&lowered, &p.compiled.layout)
                .run_profiled(&SimConfig::default());
            let r = result.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                profile.occupancy.iter().sum::<u64>(),
                r.instructions,
                "{what}: occupancy"
            );
            let ops: u64 = (0..)
                .zip(&profile.occupancy)
                .map(|(k, &n): (u64, _)| k * n)
                .sum();
            assert_eq!(ops, r.ops, "{what}: ops by occupancy");
            assert_eq!(profile.empty_words, profile.occupancy[0], "{what}");
            assert_eq!(profile.class_busy, r.class_ops, "{what}: class busy");
            assert_eq!(
                profile.branch_bubble_cycles,
                r.taken_branches * machine.taken_branch_penalty as u64,
                "{what}: bubbles"
            );
        }
    });
}
