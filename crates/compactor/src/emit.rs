//! Whole-program compaction: traces → schedules → a laid-out
//! [`VliwProgram`].

use std::collections::HashMap;
use std::sync::OnceLock;

use symbol_intcode::{ExecStats, IciProgram, Label};
use symbol_vliw::{MachineConfig, VliwInstr, VliwProgram};

use crate::cfg::Cfg;
use crate::liveness::{LiveAtLabel, Liveness};
use crate::schedule::{
    rewrite_trace, schedule_comp_block, schedule_trace, LabelAlloc, ScheduleOptions,
};
use crate::trace::{average_trace_length, pick_traces, single_block_traces, Trace, TracePolicy};
use crate::verify::{verify_program, Violation};

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
/// sequential-execution statistics.
///
/// # Panics
///
/// Panics if the produced schedule fails static verification — on the
/// compiler pipeline that is an internal bug. Fuzzing drives
/// [`try_compact`] instead, where an illegal schedule is a reportable
/// finding rather than a crash.
pub fn compact(
    program: &IciProgram,
    exec: &ExecStats,
    machine: &MachineConfig,
    mode: CompactMode,
    policy: &TracePolicy,
) -> Compacted {
    match try_compact(program, exec, machine, mode, policy) {
        Ok(c) => c,
        Err(v) => panic!("compactor produced an illegal schedule: {v}"),
    }
}

/// [`compact`] returning the static-verification [`Violation`] instead
/// of panicking when the produced schedule is illegal: a one-shot
/// [`Compactor`].
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
    /// The first [`Violation`] found in the emitted schedule.
    pub fn compact(
        &self,
        machine: &MachineConfig,
        mode: CompactMode,
    ) -> Result<Compacted, Violation> {
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

        // Schedule every trace.
        let mut scheduled = Vec::with_capacity(traces.len());
        let mut all_comps = Vec::new();
        for t in traces {
            let t_ops = rewrite_trace(program, cfg, t, |block| {
                self.block_label[block]
                    .unwrap_or_else(|| *extra_label[block].get_or_insert_with(|| labels.fresh()))
            });
            let mut st = schedule_trace(&t_ops, machine, &live_at, &mut labels, &opts);
            all_comps.append(&mut st.comps);
            scheduled.push(st.words);
        }

        // Layout: traces in pick order, then compensation blocks. A
        // block's labels are bound where it heads a trace.
        let mut instrs: Vec<VliwInstr> = Vec::new();
        let mut head_at = vec![None; cfg.blocks.len()];
        for (t, words) in traces.iter().zip(scheduled) {
            head_at[t.blocks[0]] = Some(instrs.len());
            instrs.extend(words);
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
        for comp in &all_comps {
            let words = schedule_comp_block(comp, machine, &live_at, &mut labels);
            label_at.insert(comp.label, instrs.len());
            instrs.extend(words);
        }

        let ops_in = program.ops().len();
        let ops_out: usize = instrs.iter().map(VliwInstr::len).sum();
        let avg_region_len = match mode {
            CompactMode::TraceSchedule => average_trace_length(cfg, traces),
            _ => cfg.average_block_length(),
        };
        let stats = CompactStats {
            regions: traces.len(),
            avg_region_len,
            comp_blocks: all_comps.len(),
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
