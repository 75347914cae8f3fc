//! Property test: for *any* trace policy and machine configuration the
//! compactor produces code that the validating simulator accepts and
//! that computes the same answer as sequential execution.
//!
//! Policies are drawn from a seeded xorshift PRNG (no external
//! crates), so every run exercises the same deterministic case set.

use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_intcode::{Emulator, ExecConfig, Layout, Outcome};
use symbol_prolog::PredId;
use symbol_vliw::{MachineConfig, SimConfig, SimOutcome, VliwSim};

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const PROGRAM: &str = "
    main :- perm([1,2,3,4], P), check(P), fail. main.
    perm([], []).
    perm(L, [X|P]) :- sel(X, L, R), perm(R, P).
    sel(X, [X|T], T).
    sel(X, [Y|T], [Y|R]) :- sel(X, T, R).
    check([A,B|T]) :- A < B, check([B|T]).
    check([_]).
";

fn prepared() -> (
    symbol_intcode::IciProgram,
    symbol_intcode::ExecStats,
    Layout,
    Outcome,
) {
    let program = symbol_prolog::parse_program(PROGRAM).expect("parse");
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

#[test]
fn any_policy_and_machine_preserve_semantics() {
    let (ici, stats, layout, seq_outcome) = prepared();
    let mut rng = Rng(0x0123_4567_89ab_cdef);
    for _ in 0..40 {
        let units = 1 + rng.below(5) as usize;
        let machine = MachineConfig {
            mem_ports: 1 + rng.below(3) as usize,
            multiway_branch: rng.below(2) == 0,
            taken_branch_penalty: rng.below(3) as u32,
            ..MachineConfig::units(units)
        };
        let policy = TracePolicy {
            tail_dup_ops: rng.below(64) as usize,
            max_blocks: 2 + rng.below(46) as usize,
            speculate: rng.below(2) == 0,
        };
        let mode = [
            CompactMode::TraceSchedule,
            CompactMode::BasicBlock,
            CompactMode::BamGroups,
        ][rng.below(3) as usize];
        let compacted = try_compact(&ici, &stats, &machine, mode, &policy).expect("compacts");
        let result = VliwSim::new(&compacted.program, machine, &layout)
            .run(&SimConfig::default())
            .expect("simulator accepts the schedule");
        let want = match seq_outcome {
            Outcome::Success => SimOutcome::Success,
            Outcome::Failure => SimOutcome::Failure,
        };
        assert_eq!(result.outcome, want, "{machine:?} {policy:?} {mode:?}");
        // more resources never slow things past a 1-unit machine by
        // construction, but at minimum the schedule terminates with a
        // plausible cycle count
        assert!(result.cycles > 0);
    }
}
