//! The compactor on the whole benchmark suite: its output is a function
//! of its input alone, a [`Compactor`] shared by many (mode, machine)
//! jobs gives what one-shot [`try_compact`] calls give, and liveness
//! agrees with an independent oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use symbol_compactor::cfg::Cfg;
use symbol_compactor::liveness::Liveness;
use symbol_compactor::{try_compact, CompactMode, Compacted, Compactor, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::pipeline::Compiled;
use symbol_fuzz::{gen_intcode, Rng};
use symbol_intcode::layout::reg;
use symbol_intcode::{Emulator, ExecConfig, ExecStats, IciProgram, Op, R};
use symbol_vliw::MachineConfig;

/// Every benchmark compiled and profiled once, shared by the tests.
fn suite() -> &'static [(&'static str, IciProgram, ExecStats)] {
    static SUITE: OnceLock<Vec<(&'static str, IciProgram, ExecStats)>> = OnceLock::new();
    SUITE.get_or_init(|| {
        benchmarks::ALL
            .iter()
            .map(|b| {
                let compiled = Compiled::from_source(b.source).expect("compiles");
                let run = compiled.run_sequential().expect("runs");
                (b.name, compiled.ici, run.stats)
            })
            .collect()
    })
}

/// The (mode, machine) jobs a shared compactor serves: every mode, and
/// machines from one unit to unbounded, split formats included.
fn jobs() -> Vec<(CompactMode, MachineConfig)> {
    vec![
        (CompactMode::BamGroups, MachineConfig::bam()),
        (CompactMode::BasicBlock, MachineConfig::unbounded()),
        (CompactMode::TraceSchedule, MachineConfig::units(1)),
        (CompactMode::TraceSchedule, MachineConfig::unbounded()),
        (CompactMode::TraceSchedule, MachineConfig::prototype()),
    ]
}

fn assert_same(name: &str, what: &str, a: &Compacted, b: &Compacted) {
    assert_eq!(
        a.program.instrs(),
        b.program.instrs(),
        "{name} {what}: words"
    );
    assert_eq!(
        a.program.label_table(),
        b.program.label_table(),
        "{name} {what}: labels"
    );
    assert_eq!(a.stats.regions, b.stats.regions, "{name} {what}: regions");
    assert_eq!(a.stats.ops_out, b.stats.ops_out, "{name} {what}: ops");
    assert_eq!(
        a.stats.avg_region_len.to_bits(),
        b.stats.avg_region_len.to_bits(),
        "{name} {what}: region length"
    );
}

#[test]
fn compacting_twice_gives_the_same_program_on_every_benchmark() {
    let machine = MachineConfig::units(3);
    let policy = TracePolicy::default();
    for (name, ici, stats) in suite() {
        let first = try_compact(ici, stats, &machine, CompactMode::TraceSchedule, &policy)
            .expect("compacts");
        let second = try_compact(ici, stats, &machine, CompactMode::TraceSchedule, &policy)
            .expect("compacts");
        assert_same(name, "second call", &first, &second);
    }
}

#[test]
fn a_shared_compactor_matches_one_shot_compactions() {
    let policy = TracePolicy::default();
    let jobs = jobs();
    for (name, ici, stats) in suite() {
        let shared = Compactor::new(ici, stats, &policy);
        // Two workers take alternate jobs from the one compactor.
        let results: Vec<Vec<(usize, Compacted)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let (shared, jobs) = (&shared, &jobs);
                    s.spawn(move || {
                        (w..jobs.len())
                            .step_by(2)
                            .map(|i| (i, shared.compact(&jobs[i].1, jobs[i].0).expect("compacts")))
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        for (i, got) in results.into_iter().flatten() {
            let (mode, machine) = &jobs[i];
            let fresh = try_compact(ici, stats, machine, *mode, &policy).expect("compacts");
            assert_same(name, &format!("job {i}"), &got, &fresh);
        }
    }
}

/// Checks `live` against the definition of liveness, independently of
/// how [`Liveness::compute`] iterates:
///
/// - every block satisfies `in = use ∪ (out − def)`, where `out` is the
///   union of the successors' live-ins plus, after an indirect jump,
///   the live-ins of every address-taken block;
/// - every live temp is justified: a backward search from the blocks
///   that read it before writing it, through predecessors that do not
///   write it, reaches the block. So the sets are the least solution.
fn check_liveness(what: &str, program: &IciProgram, cfg: &Cfg, live: &Liveness) {
    let ops = program.ops();
    let nb = cfg.blocks.len();
    let is_temp = |r: R| r.0 >= reg::FIRST_TEMP;
    let indirect = |b: usize| matches!(ops[cfg.blocks[b].end - 1], Op::JmpR { .. });
    let entries: BTreeSet<usize> = program
        .address_taken()
        .iter()
        .filter_map(|&l| cfg.block_of_label(l))
        .collect();
    let live_in = |b: usize| -> BTreeSet<R> {
        let set = live.live_in(b);
        assert!(
            set.windows(2).all(|w| w[0] < w[1]),
            "{what}: block {b} unsorted"
        );
        set.iter().copied().collect()
    };

    let mut uses = vec![BTreeSet::new(); nb];
    let mut defs = vec![BTreeSet::new(); nb];
    for (b, block) in cfg.blocks.iter().enumerate() {
        for op in &ops[block.start..block.end] {
            for u in op.uses() {
                if is_temp(u) && !defs[b].contains(&u) {
                    uses[b].insert(u);
                }
            }
            defs[b].extend(op.def().filter(|&d| is_temp(d)));
        }
    }

    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut out: BTreeSet<R> = BTreeSet::new();
        for e in &block.succs {
            out.extend(live_in(e.dest()));
        }
        if indirect(b) {
            for &e in &entries {
                out.extend(live_in(e));
            }
        }
        let want: BTreeSet<R> = uses[b]
            .union(&out.difference(&defs[b]).copied().collect())
            .copied()
            .collect();
        assert_eq!(
            live_in(b),
            want,
            "{what}: block {b} breaks in = use ∪ (out − def)"
        );
    }

    let mut readers: BTreeMap<R, Vec<usize>> = BTreeMap::new();
    for (b, u) in uses.iter().enumerate() {
        for &t in u {
            readers.entry(t).or_default().push(b);
        }
    }
    let indirect_blocks: Vec<usize> = (0..nb).filter(|&b| indirect(b)).collect();
    let mut justified = vec![BTreeSet::new(); nb];
    let mut reached = vec![false; nb];
    for (t, mut stack) in readers {
        reached.iter_mut().for_each(|r| *r = false);
        for &b in &stack {
            reached[b] = true;
        }
        while let Some(b) = stack.pop() {
            justified[b].insert(t);
            let indirect_preds = if entries.contains(&b) {
                &indirect_blocks[..]
            } else {
                &[]
            };
            for &p in cfg.blocks[b].preds.iter().chain(indirect_preds) {
                if !reached[p] && !defs[p].contains(&t) {
                    reached[p] = true;
                    stack.push(p);
                }
            }
        }
    }
    for (b, justified) in justified.iter().enumerate() {
        for t in live_in(b) {
            assert!(
                justified.contains(&t),
                "{what}: {t} live at block {b} but never read"
            );
        }
    }
}

#[test]
fn liveness_is_the_least_solution_on_every_benchmark() {
    for (name, ici, stats) in suite() {
        let cfg = Cfg::build(ici, stats);
        check_liveness(name, ici, &cfg, &Liveness::compute(ici, &cfg));
    }
}

#[test]
fn liveness_is_the_least_solution_on_fuzzed_intcode() {
    let layout = gen_intcode::frag_layout();
    let config = ExecConfig { max_steps: 10_000 };
    for seed in 0..500u64 {
        let frag = gen_intcode::generate(&mut Rng::new(seed));
        let program = frag.build().expect("generated fragments build");
        let (_, stats, _) = Emulator::new(&program, &layout).run_with_stats(&config);
        let cfg = Cfg::build(&program, &stats);
        check_liveness(
            &format!("seed {seed}"),
            &program,
            &cfg,
            &Liveness::compute(&program, &cfg),
        );
    }
}
