//! Ablation study (experiment E9 of DESIGN.md): how much each design
//! choice of the compactor and machine contributes.
//!
//! Variants, each measured as average speed-up over the sequential
//! machine on a benchmark subset at 3 units:
//!
//! * full trace scheduling (the default),
//! * no speculation (no hoisting above side exits),
//! * no multi-way branches (one control transfer per word),
//! * no tail duplication / larger duplication budgets,
//! * 2 and 4 memory ports (relaxing the shared-memory constraint),
//! * the four-slot-per-unit "wide" reading of Figure 5,
//! * the prototype's two-format issue restriction (§5.1).

use symbol_compactor::{sequential_cycles, try_compact, CompactMode, SeqDurations, TracePolicy};
use symbol_vliw::MachineConfig;

use crate::benchmarks;
use crate::pipeline::{simulate, Compiled, PipelineError};

/// One ablation variant.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Display name.
    pub name: &'static str,
    /// Machine configuration.
    pub machine: MachineConfig,
    /// Trace policy.
    pub policy: TracePolicy,
    /// Compaction mode.
    pub mode: CompactMode,
    /// Run IR copy propagation before compaction (the sequential
    /// baseline is recomputed on the optimized code, so the speed-up
    /// isolates the *scheduling* gain).
    pub copyprop: bool,
}

/// The standard variant list.
pub fn variants() -> Vec<Variant> {
    let base = MachineConfig::units(3);
    let policy = TracePolicy::default();
    let mut v = vec![
        Variant {
            name: "full (3 units)",
            machine: base,
            policy,
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "with copy propagation",
            machine: base,
            policy,
            mode: CompactMode::TraceSchedule,
            copyprop: true,
        },
        Variant {
            name: "no speculation",
            machine: base,
            policy: TracePolicy {
                speculate: false,
                ..policy
            },
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "no multiway branch",
            machine: MachineConfig {
                multiway_branch: false,
                ..base
            },
            policy,
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "no tail duplication",
            machine: base,
            policy: TracePolicy {
                tail_dup_ops: 0,
                ..policy
            },
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "tail dup budget 64",
            machine: base,
            policy: TracePolicy {
                tail_dup_ops: 64,
                ..policy
            },
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "2 memory ports",
            machine: MachineConfig {
                mem_ports: 2,
                ..base
            },
            policy,
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "4 memory ports",
            machine: MachineConfig {
                mem_ports: 4,
                ..base
            },
            policy,
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "wide units (4 slots)",
            machine: MachineConfig::wide_units(3),
            policy,
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "prototype formats",
            machine: MachineConfig::prototype(),
            policy,
            mode: CompactMode::TraceSchedule,
            copyprop: false,
        },
        Variant {
            name: "basic blocks only",
            machine: base,
            policy,
            mode: CompactMode::BasicBlock,
            copyprop: false,
        },
    ];
    v.shrink_to_fit();
    v
}

/// One measured row of the ablation table.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant name.
    pub name: &'static str,
    /// Average speed-up over the subset.
    pub avg_speedup: f64,
    /// Average static code growth.
    pub avg_growth: f64,
}

/// Runs the ablation over `subset` benchmark names.
///
/// # Errors
///
/// Propagates compilation/simulation errors; every variant re-checks
/// every benchmark's answer.
pub fn run(subset: &[&str]) -> Result<Vec<AblationRow>, PipelineError> {
    let mut prepared = Vec::new();
    for name in subset {
        let b = benchmarks::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let c = Compiled::from_source(b.source)?;
        let run = c.run_sequential()?;
        let seq = sequential_cycles(&c.ici, &run.stats, &SeqDurations::default());
        prepared.push((c, run, seq));
    }

    let mut rows = Vec::new();
    for v in variants() {
        let mut speedups = 0.0;
        let mut growth = 0.0;
        for (c, run, seq) in &prepared {
            let (compacted, baseline) = if v.copyprop {
                let opt = symbol_compactor::try_copy_propagate(&c.ici, &run.stats)?;
                let seq_opt = sequential_cycles(&opt.program, &opt.stats, &SeqDurations::default());
                (
                    try_compact(&opt.program, &opt.stats, &v.machine, v.mode, &v.policy)?,
                    seq_opt,
                )
            } else {
                (
                    try_compact(&c.ici, &run.stats, &v.machine, v.mode, &v.policy)?,
                    *seq,
                )
            };
            let result = simulate(&compacted.program, v.machine, &c.layout)?;
            speedups += baseline as f64 / result.cycles as f64;
            growth += compacted.stats.code_growth();
        }
        let n = prepared.len() as f64;
        rows.push(AblationRow {
            name: v.name,
            avg_speedup: speedups / n,
            avg_growth: growth / n,
        });
    }
    Ok(rows)
}

/// Renders the ablation rows.
pub fn render(rows: &[AblationRow]) -> String {
    use symbol_analysis::table::{f, TextTable};
    let mut t = TextTable::new(&["variant", "avg speed-up", "code growth"]);
    for r in rows {
        t.row(vec![r.name.into(), f(r.avg_speedup, 2), f(r.avg_growth, 2)]);
    }
    format!(
        "Ablation — contribution of each design choice (3-unit machine,\n\
         average over a benchmark subset)\n\n{t}"
    )
}
