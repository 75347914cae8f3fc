//! Whole-program compaction: traces → schedules → a laid-out
//! [`VliwProgram`].

use std::collections::HashMap;
use std::sync::OnceLock;

use symbol_intcode::{ExecStats, IciProgram, Label};
use symbol_vliw::{MachineConfig, VliwInstr, VliwProgram};

use crate::cfg::Cfg;
use crate::liveness::{LiveAtLabel, Liveness};
use crate::schedule::{LabelAlloc, ScheduleOptions, Scheduler};
use crate::trace::{average_trace_length, pick_traces, single_block_traces, Trace, TracePolicy};
use crate::verify::{missing_slot, verify_program, Violation};

/// Which compaction strategy to apply.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CompactMode {
    /// Global compaction: trace scheduling with compensation code.
    TraceSchedule,
    /// Baseline: compaction within basic blocks only.
    BasicBlock,
    /// The BAM cost model: basic blocks with compaction barriers at
    /// BAM-instruction boundaries (run on a 1-unit machine).
    BamGroups,
}

/// Statistics about one compaction run.
#[derive(Clone, Debug)]
pub struct CompactStats {
    /// Number of scheduling regions (traces or blocks).
    pub regions: usize,
    /// Execution-weighted average region length in ops (Table 1's
    /// "Average Length").
    pub avg_region_len: f64,
    /// Number of compensation blocks emitted.
    pub comp_blocks: usize,
    /// Static op count before compaction.
    pub ops_in: usize,
    /// Static op count after (compensation copies included).
    pub ops_out: usize,
}

impl CompactStats {
    /// Static code growth factor due to compensation copies.
    pub fn code_growth(&self) -> f64 {
        if self.ops_in == 0 {
            1.0
        } else {
            self.ops_out as f64 / self.ops_in as f64
        }
    }
}

/// The result of compaction.
#[derive(Clone, Debug)]
pub struct Compacted {
    /// The scheduled program.
    pub program: VliwProgram,
    /// Compaction statistics.
    pub stats: CompactStats,
}

/// Compacts `program` for `machine` according to `mode`, guided by the
/// sequential-execution statistics: a one-shot [`Compactor`]. An
/// illegal schedule is a [`Violation`], not a panic, so fuzzing can
/// report it as a finding.
///
/// # Errors
///
/// The first [`Violation`] found in the emitted schedule.
pub fn try_compact(
    program: &IciProgram,
    exec: &ExecStats,
    machine: &MachineConfig,
    mode: CompactMode,
    policy: &TracePolicy,
) -> Result<Compacted, Violation> {
    Compactor::new(program, exec, policy).compact(machine, mode)
}

/// The per-profile half of compaction: the CFG, liveness, the label
/// each block is entered by, and each mode's traces. None of it depends
/// on the machine, so one `Compactor` serves every (mode, machine)
/// compaction of a profile, shared by reference across threads.
#[derive(Debug)]
pub struct Compactor<'a> {
    program: &'a IciProgram,
    policy: TracePolicy,
    cfg: Cfg,
    live: Liveness,
    /// The lowest-numbered label bound at each block, if any: the label
    /// rewritten branches jump to.
    block_label: Vec<Option<Label>>,
    /// Traces per [`CompactMode`], picked on first use.
    traces: [OnceLock<Vec<Trace>>; 3],
}

impl<'a> Compactor<'a> {
    /// Analyses `program` under its profile `exec`: builds the CFG and
    /// liveness. Traces are picked lazily, per mode.
    pub fn new(program: &'a IciProgram, exec: &ExecStats, policy: &TracePolicy) -> Self {
        let cfg = Cfg::build(program, exec);
        let live = Liveness::compute(program, &cfg);
        let mut block_label = vec![None; cfg.blocks.len()];
        for (l, &b) in cfg.label_block.iter().enumerate() {
            if let Some(b) = b {
                block_label[b].get_or_insert(Label(l as u32));
            }
        }
        Compactor {
            program,
            policy: *policy,
            cfg,
            live,
            block_label,
            traces: Default::default(),
        }
    }

    /// The scheduling regions of `mode`. Basic-block compaction still
    /// benefits from a hot-path-first layout (the paper's code
    /// generator laid clauses out that way): blocks are placed along
    /// traces (without tail duplication), but barriers keep all code
    /// motion inside each block.
    fn traces(&self, mode: CompactMode) -> &[Trace] {
        self.traces[mode as usize].get_or_init(|| match mode {
            CompactMode::TraceSchedule => pick_traces(&self.cfg, &self.policy),
            CompactMode::BasicBlock => {
                let bb_policy = TracePolicy {
                    tail_dup_ops: 0,
                    ..self.policy
                };
                pick_traces(&self.cfg, &bb_policy)
            }
            CompactMode::BamGroups => single_block_traces(&self.cfg),
        })
    }

    /// Compacts the program for `machine` according to `mode`.
    ///
    /// Every schedule — including cold code the profile never executes —
    /// is checked against the machine by [`crate::verify::verify_program`]
    /// before it is returned, so a buggy scheduling pass cannot hand the
    /// simulator an impossible program.
    ///
    /// # Errors
    ///
    /// [`Violation::NoSlot`] for a machine with no slot for some
    /// resource; otherwise the first [`Violation`] found in the emitted
    /// schedule.
    pub fn compact(
        &self,
        machine: &MachineConfig,
        mode: CompactMode,
    ) -> Result<Compacted, Violation> {
        if let Some(resource) = missing_slot(machine) {
            return Err(Violation::NoSlot { resource });
        }
        let (program, cfg) = (self.program, &self.cfg);
        let traces = self.traces(mode);
        let live_at = LiveAtLabel::new(cfg, &self.live);
        let mut labels = LabelAlloc::new(program.label_table().len());
        let opts = ScheduleOptions {
            speculate: self.policy.speculate && mode == CompactMode::TraceSchedule,
            group_barriers: mode == CompactMode::BamGroups,
            block_barriers: mode == CompactMode::BasicBlock,
        };

        // Labels for blocks that need one but have none in the source
        // program (fall-through targets).
        let mut extra_label: Vec<Option<Label>> = vec![None; cfg.blocks.len()];

        // Schedule every trace straight into the program, in pick
        // order. A block's labels are bound where it heads a trace.
        let mut sched = Scheduler::default();
        let mut instrs: Vec<VliwInstr> = Vec::new();
        let mut head_at = vec![None; cfg.blocks.len()];
        for t in traces {
            sched.rewrite(program, cfg, t, |block| {
                self.block_label[block]
                    .unwrap_or_else(|| *extra_label[block].get_or_insert_with(|| labels.fresh()))
            });
            head_at[t.blocks[0]] = Some(instrs.len());
            sched.schedule(machine, &live_at, &mut labels, &opts, &mut instrs);
        }
        let bound = cfg
            .label_block
            .iter()
            .enumerate()
            .filter_map(|(l, b)| b.map(|b| (Label(l as u32), b)));
        let extra = extra_label
            .iter()
            .enumerate()
            .filter_map(|(b, l)| l.map(|l| (l, b)));
        let mut label_at: HashMap<Label, usize> = bound
            .chain(extra)
            .filter_map(|(l, b)| head_at[b].map(|at| (l, at)))
            .collect();
        sched.emit_comp_blocks(machine, &live_at, &mut labels, &mut label_at, &mut instrs);

        let ops_in = program.ops().len();
        let ops_out: usize = instrs.iter().map(VliwInstr::len).sum();
        let avg_region_len = match mode {
            CompactMode::TraceSchedule => average_trace_length(cfg, traces),
            _ => cfg.average_block_length(),
        };
        let stats = CompactStats {
            regions: traces.len(),
            avg_region_len,
            comp_blocks: sched.comp_blocks(),
            ops_in,
            ops_out,
        };

        let program = VliwProgram::new(instrs, label_at, labels.total(), program.entry());
        // Every schedule — including cold code the profile never
        // executes — must satisfy the machine statically.
        verify_program(&program, machine)?;
        Ok(Compacted { program, stats })
    }
}
