//! Differential fuzzing with randomly generated (terminating) logic
//! programs: a small Datalog-like generator produces fact bases and
//! non-recursive conjunctive rules; a reference evaluator in Rust
//! computes the query answer; the whole pipeline — including
//! trace-scheduled VLIW execution — must agree.
//!
//! Generation uses a seeded xorshift PRNG (no external crates), so
//! every run exercises the same deterministic case set.

use std::collections::HashSet;

use symbol_compactor::{try_compact, CompactMode, TracePolicy};
use symbol_core::pipeline::Compiled;
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

/// A generated program: facts for `e/2`, one rule layer, and a query.
#[derive(Clone, Debug)]
struct Gen {
    /// Directed edges over a small constant universe.
    edges: Vec<(u8, u8)>,
    /// Query endpoints for the two-step-path relation.
    query: (u8, u8),
}

impl Gen {
    fn random(rng: &mut Rng) -> Gen {
        let n = 1 + rng.below(13) as usize;
        let edges = (0..n)
            .map(|_| (rng.below(6) as u8, rng.below(6) as u8))
            .collect();
        let query = (rng.below(6) as u8, rng.below(6) as u8);
        Gen { edges, query }
    }

    /// Reference answer: is there a path of exactly two edges (or one
    /// edge) from query.0 to query.1?
    fn oracle(&self) -> bool {
        let set: HashSet<(u8, u8)> = self.edges.iter().copied().collect();
        let (a, b) = self.query;
        if set.contains(&(a, b)) {
            return true;
        }
        (0u8..6).any(|m| set.contains(&(a, m)) && set.contains(&(m, b)))
    }

    fn source(&self) -> String {
        let mut src = String::new();
        for (a, b) in &self.edges {
            src.push_str(&format!("e(n{a}, n{b}).\n"));
        }
        let (a, b) = self.query;
        src.push_str("reach(X, Y) :- e(X, Y).\n");
        src.push_str("reach(X, Y) :- e(X, M), e(M, Y).\n");
        src.push_str(&format!("main :- reach(n{a}, n{b}).\n"));
        src
    }
}

#[test]
fn pipeline_agrees_with_the_datalog_oracle() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for _ in 0..32 {
        let g = Gen::random(&mut rng);
        let src = g.source();
        let compiled = Compiled::from_source(&src).expect("compiles");
        let want = g.oracle();

        // sequential
        let seq_ok = compiled.run_sequential().is_ok();
        assert_eq!(seq_ok, want, "sequential diverged on:\n{src}");

        // trace-scheduled VLIW (only meaningful when we have a profile,
        // i.e. when the query succeeds or fails — both produce stats)
        let run = symbol_intcode::Emulator::new(&compiled.ici, &compiled.layout)
            .run(&symbol_intcode::ExecConfig::default())
            .expect("emulates");
        let machine = MachineConfig::units(3);
        let compacted = try_compact(
            &compiled.ici,
            &run.stats,
            &machine,
            CompactMode::TraceSchedule,
            &TracePolicy::default(),
        )
        .expect("compacts");
        let sim = VliwSim::new(&compacted.program, machine, &compiled.layout)
            .run(&SimConfig::default())
            .expect("simulates");
        assert_eq!(
            sim.outcome == SimOutcome::Success,
            want,
            "scheduled code diverged on:\n{src}"
        );
    }
}
