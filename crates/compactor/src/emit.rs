//! Whole-program compaction: traces → schedules → a laid-out
//! [`VliwProgram`].

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use symbol_intcode::{ExecStats, IciProgram, Label};
use symbol_vliw::{MachineConfig, Timing, VliwProgram};

use crate::cfg::Cfg;
use crate::liveness::{LiveAtLabel, Liveness};
use crate::schedule::{
    rewrite, DependencePass, Graphs, LabelAlloc, ScheduleOptions, Scheduler, Words,
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
/// each block is entered by, each mode's traces, and each trace's
/// dependence graph per (mode, [`Timing`]) class. None of it depends on
/// the machine's resources, so one `Compactor` serves every (mode,
/// machine) compaction of a profile, shared by reference across
/// threads.
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
    /// The trace graphs of each (mode, timing) class compacted so far.
    /// The lock covers only finding or adding a class's cell; the
    /// graphs are built outside it, on the class's first use.
    graphs: Mutex<Vec<GraphClass>>,
}

/// A (mode, timing) class and the cell its trace graphs are built in.
type GraphClass = (CompactMode, Timing, Arc<OnceLock<Graphs>>);

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
            graphs: Mutex::default(),
        }
    }

    /// The scheduling options of `mode`.
    fn options(&self, mode: CompactMode) -> ScheduleOptions {
        ScheduleOptions {
            speculate: self.policy.speculate && mode == CompactMode::TraceSchedule,
            group_barriers: mode == CompactMode::BamGroups,
            block_barriers: mode == CompactMode::BasicBlock,
        }
    }

    /// The cell holding the trace graphs of the (`mode`, `timing`)
    /// class, added empty on the class's first use.
    fn class(&self, mode: CompactMode, timing: Timing) -> Arc<OnceLock<Graphs>> {
        // The only update pushes a whole entry, so the list is valid
        // even if a thread panicked while holding the lock.
        let mut classes = self.graphs.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, cell)) = classes.iter().find(|c| c.0 == mode && c.1 == timing) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(OnceLock::new());
        classes.push((mode, timing, Arc::clone(&cell)));
        cell
    }

    /// Builds the dependence graph of every trace of `mode` for
    /// `timing`. The traces are rewritten as [`Compactor::compact`]
    /// rewrites them, except that a block with no label of its own is
    /// given `Label(u32::MAX)` instead of a fresh label: the graph reads
    /// both as labels the program does not bind.
    fn build_graphs(&self, mode: CompactMode, timing: &Timing) -> Graphs {
        let live_at = LiveAtLabel::new(&self.cfg, &self.live);
        let opts = self.options(mode);
        let mut ops = Vec::new();
        let mut deps = DependencePass::default();
        let mut graphs = Graphs::new();
        for t in self.traces(mode) {
            let unbound = |block: usize| self.block_label[block].unwrap_or(Label(u32::MAX));
            rewrite(self.program, &self.cfg, t, unbound, &mut ops);
            deps.run(&ops, timing, &live_at, &opts, &mut graphs);
        }
        graphs.shrink_to_fit();
        graphs
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
        if let Some(resource) = machine.missing_slot() {
            return Err(Violation::NoSlot { resource });
        }
        let (program, cfg) = (self.program, &self.cfg);
        let traces = self.traces(mode);
        let timing = machine.timing();
        let class = self.class(mode, timing);
        let graphs = class.get_or_init(|| self.build_graphs(mode, &timing));
        let live_at = LiveAtLabel::new(cfg, &self.live);
        let mut labels = LabelAlloc::new(program.label_table().len());

        // Labels for blocks that need one but have none in the source
        // program (fall-through targets).
        let mut extra_label: Vec<Option<Label>> = vec![None; cfg.blocks.len()];

        // Schedule every trace straight into the program, in pick
        // order, on its stored graph. A block's labels are bound where
        // it heads a trace. The rewrite allocates the fresh labels in
        // trace order, interleaved with the compensation labels.
        let ops_in = program.ops().len();
        let mut sched = Scheduler::with_capacity(graphs.max_len());
        let mut words = Words::with_capacity(ops_in);
        let mut head_at = vec![None; cfg.blocks.len()];
        for (k, t) in traces.iter().enumerate() {
            let block_label = |block: usize| {
                self.block_label[block]
                    .unwrap_or_else(|| *extra_label[block].get_or_insert_with(|| labels.fresh()))
            };
            rewrite(program, cfg, t, block_label, &mut sched.ops);
            head_at[t.blocks[0]] = Some(words.len());
            sched.place(machine, graphs.trace(k), &mut labels, &mut words);
        }
        // Compensation blocks are straight-line, so every label exists
        // by now.
        let mut label_addr = vec![usize::MAX; labels.total() as usize];
        for (l, b) in cfg.label_block.iter().enumerate() {
            if let Some(at) = b.and_then(|b| head_at[b]) {
                label_addr[l] = at;
            }
        }
        for (l, at) in extra_label.iter().zip(&head_at) {
            if let (Some(l), Some(at)) = (l, at) {
                label_addr[l.0 as usize] = *at;
            }
        }
        sched.emit_comp_blocks(machine, &live_at, &mut labels, &mut label_addr, &mut words);

        let ops_out = words.slots.len();
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

        let program = VliwProgram::new(words.slots, words.word_end, label_addr, program.entry());
        // Every schedule — including cold code the profile never
        // executes — must satisfy the machine statically.
        verify_program(&program, machine)?;
        Ok(Compacted { program, stats })
    }
}
