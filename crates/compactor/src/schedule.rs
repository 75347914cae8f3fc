#![allow(clippy::needless_range_loop)] // index loops mirror the DAG math

//! Trace rewriting, dependence analysis, list scheduling and
//! compensation-code generation.
//!
//! This is the back end's core (paper §3.2): an in-house arrangement of
//! Trace Scheduling. A trace's ops are rewritten so the on-trace path
//! falls through (off-trace transfers are the taken edges), a
//! dependence DAG is built over registers, memory and control, and a
//! greedy list scheduler packs the ops into instruction words of the
//! target [`MachineConfig`]. Ops delayed below a side exit are copied
//! onto the exit edge (compensation code); ops hoisted above a side
//! exit are speculated only when provably safe and are marked so the
//! simulator treats their faults as benign.
//!
//! The work splits along what it reads of the machine. A trace's
//! dependence graph reads only the machine's [`Timing`], so the
//! dependence pass runs once per (mode, timing) class and stores every
//! trace's graph; every machine of the class then places the trace on
//! the stored graph. Placement — list scheduling, compensation code,
//! emission and unit assignment — is the per-machine scheduler.
//!
//! Traces are short (a handful of ops on average), so per-trace set-up
//! rather than the size of the dependence graph sets the cost. One
//! scheduler therefore serves a whole compaction: it keeps its buffers
//! from trace to trace and clears them instead of allocating new ones.

use std::ops::Range;

use symbol_intcode::{IciProgram, Label, Op, R};
use symbol_vliw::{MachineConfig, SlotOp, Timing, WordUse};

use crate::cfg::{Cfg, Edge};
use crate::liveness::LiveAtLabel;
use crate::trace::Trace;

/// One op of a rewritten trace.
#[derive(Clone, Debug)]
pub(crate) struct TraceOp {
    /// The (possibly sense-inverted) operation.
    op: Op,
    /// BAM group id (for the BAM-machine barrier mode).
    group: u32,
    /// Index of the containing block within the trace (for the
    /// basic-block barrier mode).
    block: u32,
}

/// A compensation block generated for one side exit.
#[derive(Clone, Debug)]
struct CompBlock {
    /// Fresh label the exit branch was retargeted to.
    label: Label,
    /// The delayed ops, in original order, as a range of the
    /// scheduler's `comp_ops`.
    ops: Range<usize>,
    /// Where the off-trace path continues.
    target: Label,
}

/// Allocates labels beyond the IntCode program's namespace.
#[derive(Debug)]
pub struct LabelAlloc {
    next: u32,
}

impl LabelAlloc {
    /// Starts allocating after `existing` labels.
    pub fn new(existing: usize) -> Self {
        LabelAlloc {
            next: existing as u32,
        }
    }

    /// A fresh label.
    pub fn fresh(&mut self) -> Label {
        let l = Label(self.next);
        self.next += 1;
        l
    }

    /// Total labels allocated (existing + fresh).
    pub fn total(&self) -> u32 {
        self.next
    }
}

fn invert(op: Op) -> Op {
    match op {
        Op::Br { cond, a, b, t } => Op::Br {
            cond: cond.negate(),
            a,
            b,
            t,
        },
        Op::BrTag { a, tag, eq, t } => Op::BrTag { a, tag, eq: !eq, t },
        Op::BrWord { a, w, eq, t } => Op::BrWord { a, w, eq: !eq, t },
        Op::BrWEq { a, b, eq, t } => Op::BrWEq { a, b, eq: !eq, t },
        other => other,
    }
}

/// Scheduling options beyond the machine description.
#[derive(Copy, Clone, Debug)]
pub struct ScheduleOptions {
    /// Allow hoisting safe ops above side exits (speculation).
    pub speculate: bool,
    /// Insert BAM-instruction group barriers (the BAM cost model).
    pub group_barriers: bool,
    /// Insert basic-block barriers: code motion stays inside blocks,
    /// but blocks of a trace are laid out hot-path-first (the paper's
    /// basic-block compaction baseline).
    pub block_barriers: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            speculate: true,
            group_barriers: false,
            block_barriers: false,
        }
    }
}

/// Rewrites a trace's ops for scheduling into `out`: inverts branches
/// the trace follows through their taken edge (so the trace is the
/// fall-through path), deletes internal unconditional jumps, and
/// appends a terminal jump when the last block falls through to
/// off-trace code.
///
/// `block_label` must yield a label bound at any block's start (it may
/// allocate one).
pub(crate) fn rewrite(
    program: &IciProgram,
    cfg: &Cfg,
    trace: &Trace,
    mut block_label: impl FnMut(usize) -> Label,
    out: &mut Vec<TraceOp>,
) {
    let ops = program.ops();
    let groups = program.groups();
    out.clear();
    for (k, &b) in trace.blocks.iter().enumerate() {
        let block = &cfg.blocks[b];
        let last = block.end - 1;
        let kb = k as u32;
        let next_in_trace = trace.blocks.get(k + 1).copied();
        for i in block.start..block.end {
            let op = &ops[i];
            let is_terminator = i == last;
            if !is_terminator {
                out.push(TraceOp {
                    op: op.clone(),
                    group: groups[i],
                    block: kb,
                });
                continue;
            }
            match (op, next_in_trace) {
                // Internal unconditional jump: the trace continues
                // at its target; drop it.
                (Op::Jmp { .. }, Some(_)) => {}
                // Conditional branch followed in-trace.
                (o, Some(next)) if o.is_control() => {
                    let taken_dest = o
                        .target()
                        .and_then(|t| cfg.block_of_label(t))
                        .expect("conditional branches have bound targets");
                    if taken_dest == next {
                        // Trace follows the taken edge: invert so
                        // the trace falls through; off-trace = old
                        // fall-through block.
                        let fall = block
                            .succs
                            .iter()
                            .find_map(|e| match e {
                                Edge::Fall(d) => Some(*d),
                                Edge::Taken(_) => None,
                            })
                            .expect("conditional branch has a fall-through");
                        let mut inv = invert(o.clone());
                        inv.set_target(block_label(fall));
                        out.push(TraceOp {
                            op: inv,
                            group: groups[i],
                            block: kb,
                        });
                    } else {
                        // Trace follows the fall-through: keep as-is.
                        out.push(TraceOp {
                            op: op.clone(),
                            group: groups[i],
                            block: kb,
                        });
                    }
                }
                (o, Some(_)) => {
                    // Plain fall-through into the next trace block.
                    out.push(TraceOp {
                        op: o.clone(),
                        group: groups[i],
                        block: kb,
                    });
                }
                // Last block of the trace.
                (o, None) => {
                    out.push(TraceOp {
                        op: o.clone(),
                        group: groups[i],
                        block: kb,
                    });
                    if o.falls_through() {
                        // Execution continues at the original
                        // fall-through block: make it explicit.
                        let fall = block.succs.iter().find_map(|e| match e {
                            Edge::Fall(d) => Some(*d),
                            Edge::Taken(_) if !o.is_control() => Some(e.dest()),
                            _ => None,
                        });
                        if let Some(f) = fall {
                            out.push(TraceOp {
                                op: Op::Jmp { t: block_label(f) },
                                group: groups[i],
                                block: kb,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// No op / no register: the empty entry of the scheduler's index
/// tables.
const NONE: u32 = u32::MAX;

/// Per-register state of the dependence pass, indexed by the trace's
/// dense register ids.
#[derive(Clone, Copy)]
struct RegState {
    /// The op that last wrote the register.
    last_def: u32,
    /// Head of the list (through `use_link`) of ops that read it since.
    uses: u32,
    /// Number of writes so far: a base register's version, for memory
    /// disambiguation.
    version: u32,
}

/// A memory access of the trace, for disambiguation.
#[derive(Clone, Copy)]
struct MemRef {
    /// Dense id of the base register.
    base: usize,
    /// The base register's version at the access.
    version: u32,
    off: i32,
    store: bool,
    /// Position in the trace.
    pos: usize,
}

/// The dependence graphs of a run of traces, back to back in a few flat
/// arrays (one `Vec` per trace would cost an allocation and its slack
/// per trace, for the life of the graphs). A node is one op of a
/// rewritten trace; its successors are numbered within its trace.
#[derive(Debug)]
pub(crate) struct Graphs {
    /// Trace `t`'s nodes are `first[t]..first[t + 1]`.
    first: Vec<u32>,
    /// Per node: the number of incoming edges.
    indeg: Vec<u32>,
    /// Per node: the critical-path height, the scheduling priority.
    height: Vec<u32>,
    /// CSR offsets over all nodes: node `v`'s `(successor, latency)`
    /// pairs are `succ[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    succ: Vec<(u32, u32)>,
}

impl Graphs {
    /// No graphs.
    pub(crate) fn new() -> Self {
        Graphs {
            first: vec![0],
            indeg: Vec::new(),
            height: Vec::new(),
            start: vec![0],
            succ: Vec::new(),
        }
    }

    /// Drops every graph, keeping the buffers.
    fn clear(&mut self) {
        self.first.truncate(1);
        self.indeg.clear();
        self.height.clear();
        self.start.truncate(1);
        self.succ.clear();
    }

    /// Releases the slack the arrays grew while the graphs were built.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.first.shrink_to_fit();
        self.indeg.shrink_to_fit();
        self.height.shrink_to_fit();
        self.start.shrink_to_fit();
        self.succ.shrink_to_fit();
    }

    /// The longest trace, in nodes.
    pub(crate) fn max_len(&self) -> usize {
        let lens = self.first.windows(2).map(|w| (w[1] - w[0]) as usize);
        lens.max().unwrap_or(0)
    }

    /// Trace `t`'s graph.
    pub(crate) fn trace(&self, t: usize) -> Graph<'_> {
        let (a, b) = (self.first[t] as usize, self.first[t + 1] as usize);
        Graph {
            indeg: &self.indeg[a..b],
            height: &self.height[a..b],
            start: &self.start[a..=b],
            succ: &self.succ,
        }
    }

    /// Appends a trace of `n` nodes with the dependence `edges`
    /// `(from, to, latency)`: packs them into CSR form and computes the
    /// in-degrees and heights.
    fn push(&mut self, n: usize, edges: &[(u32, u32, u32)]) {
        let base = self.indeg.len();
        self.first.push((base + n) as u32);
        if n == 0 {
            return;
        }
        self.indeg.resize(base + n, 0);
        self.height.resize(base + n, 0);
        let e0 = self.succ.len() as u32;
        self.start.resize(base + n + 1, 0);
        let start = &mut self.start[base..];
        start.fill(0);
        let indeg = &mut self.indeg[base..];
        // A counting sort by source: prefix sums of the out-degrees
        // give each node's end offset, and filling each list from its
        // end leaves `start[i]` at its first entry.
        for &(from, to, _) in edges {
            start[from as usize] += 1;
            indeg[to as usize] += 1;
        }
        start[0] += e0;
        for i in 1..n {
            start[i] += start[i - 1];
        }
        start[n] = start[n - 1];
        self.succ.resize(e0 as usize + edges.len(), (0, 0));
        for &(from, to, lat) in edges {
            start[from as usize] -= 1;
            self.succ[start[from as usize] as usize] = (to, lat);
        }
        // Priorities: critical-path heights.
        let height = &mut self.height[base..];
        for i in (0..n).rev() {
            for &(to, lat) in &self.succ[start[i] as usize..start[i + 1] as usize] {
                height[i] = height[i].max(height[to as usize] + lat.max(1));
            }
        }
    }
}

/// One trace's dependence graph, as [`Graphs::trace`] hands it out.
#[derive(Clone, Copy)]
pub(crate) struct Graph<'a> {
    indeg: &'a [u32],
    height: &'a [u32],
    /// The trace's CSR offsets into `succ`, one past each node.
    start: &'a [u32],
    succ: &'a [(u32, u32)],
}

impl Graph<'_> {
    /// Node `i`'s `(successor, latency)` pairs.
    fn succs(&self, i: usize) -> &[(u32, u32)] {
        &self.succ[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// The dependence pass: builds dependence graphs over registers,
/// memory and control, with the working storage kept from trace to
/// trace.
#[derive(Default)]
pub(crate) struct DependencePass {
    /// Dependence edges `(from, to, latency)`, in discovery order.
    /// Duplicates are harmless: heights and earliest cycles take
    /// maxima, and in-degrees count each copy once per release.
    edges: Vec<(u32, u32, u32)>,
    /// The trace's registers, sorted: a register's dense id is its
    /// index here.
    regs: Vec<R>,
    /// Per-register state, by dense id.
    reg: Vec<RegState>,
    /// The per-register use lists' links, `(op, next)`.
    use_link: Vec<(u32, u32)>,
    /// The memory accesses seen so far.
    mem_refs: Vec<MemRef>,
    /// Positions of the control ops.
    branches: Vec<usize>,
}

impl DependencePass {
    /// Appends the dependence graph of the rewritten trace `trace_ops`
    /// to `graphs`.
    ///
    /// Only `timing` is read of the machine, and labels only through
    /// `live`, which reads every label the program does not bind as
    /// live. So every machine of one timing gets the same graph, however
    /// the fresh labels of its rewrite are numbered.
    pub(crate) fn run(
        &mut self,
        trace_ops: &[TraceOp],
        timing: &Timing,
        live: &LiveAtLabel<'_>,
        opts: &ScheduleOptions,
        graphs: &mut Graphs,
    ) {
        let DependencePass {
            edges,
            regs,
            reg,
            use_link,
            mem_refs,
            branches: branch_positions,
        } = self;
        let n = trace_ops.len();
        edges.clear();
        if n == 0 {
            graphs.push(0, edges);
            return;
        }
        let mut add_edge =
            |from: usize, to: usize, lat: u32| edges.push((from as u32, to as u32, lat));

        // The trace's registers get dense local ids, so the
        // per-register state is an array.
        regs.clear();
        regs.extend(
            trace_ops
                .iter()
                .flat_map(|t| t.op.uses().into_iter().chain(t.op.def())),
        );
        regs.sort_unstable();
        regs.dedup();
        let regs: &[R] = regs;
        let local = |r: R| {
            regs.binary_search(&r)
                .expect("register occurs in the trace")
        };
        reg.clear();
        reg.resize(
            regs.len(),
            RegState {
                last_def: NONE,
                uses: NONE,
                version: 0,
            },
        );

        // Register dependences.
        use_link.clear();
        for (j, top) in trace_ops.iter().enumerate() {
            for u in top.op.uses() {
                let r = &mut reg[local(u)];
                if r.last_def != NONE {
                    let d = r.last_def as usize;
                    add_edge(d, j, timing.latency(&trace_ops[d].op));
                }
                use_link.push((j as u32, r.uses));
                r.uses = (use_link.len() - 1) as u32;
            }
            if let Some(d) = top.op.def() {
                let r = &mut reg[local(d)];
                if r.last_def != NONE {
                    add_edge(r.last_def as usize, j, 1); // WAW
                }
                let mut at = r.uses;
                while at != NONE {
                    let (u, next) = use_link[at as usize];
                    if u as usize != j {
                        add_edge(u as usize, j, 0); // WAR
                    }
                    at = next;
                }
                r.last_def = j as u32;
                r.uses = NONE;
            }
        }

        // Memory dependences: conservative, with same-base/different-
        // offset disambiguation (the base register version must match).
        mem_refs.clear();
        for (j, top) in trace_ops.iter().enumerate() {
            let mr = match top.op {
                Op::Ld { base, off, .. } => Some((base, off, false)),
                Op::St { base, off, .. } => Some((base, off, true)),
                _ => None,
            };
            if let Some((base, off, store)) = mr {
                let base = local(base);
                let m = MemRef {
                    base,
                    version: reg[base].version,
                    off,
                    store,
                    pos: j,
                };
                for p in mem_refs.iter() {
                    if !p.store && !m.store {
                        continue; // load-load independent
                    }
                    let disambiguated =
                        p.base == m.base && p.version == m.version && p.off != m.off;
                    if disambiguated {
                        continue;
                    }
                    // store→load / store→store need a full cycle;
                    // load→store may share a cycle (load reads the
                    // pre-state).
                    add_edge(p.pos, m.pos, u32::from(p.store));
                }
                mem_refs.push(m);
            }
            if let Some(d) = top.op.def() {
                reg[local(d)].version += 1;
            }
        }

        // Control dependences.
        branch_positions.clear();
        branch_positions.extend((0..n).filter(|&i| trace_ops[i].op.is_control()));
        let branch_positions: &[usize] = branch_positions;
        {
            // Branch-order chain.
            for w in branch_positions.windows(2) {
                add_edge(w[0], w[1], u32::from(!timing.multiway_branch));
            }
            // Ops after a side exit: hoisting rules.
            for &b in branch_positions {
                let off_target = trace_ops[b].op.target();
                for j in (b + 1)..n {
                    let top = &trace_ops[j];
                    if top.op.is_control() {
                        continue; // covered by the chain
                    }
                    let safe = opts.speculate
                        && !matches!(top.op, Op::St { .. })
                        && match (top.op.def(), off_target) {
                            (Some(d), Some(t)) => !live.live(t, d),
                            (Some(_), None) => false,
                            (None, _) => true,
                        };
                    if !safe {
                        add_edge(b, j, 1);
                    }
                }
            }
            // Values visible at a control transfer must be *ready* when
            // the successor code resumes, `1 + taken_branch_penalty`
            // cycles after the transfer word. On machines with a branch
            // bubble the bubble itself covers a 2-cycle load; without
            // one (the BAM model) producers must retire a cycle before
            // the transfer. An op that instead sinks fully below the
            // exit ends up in the compensation block and needs no edge
            // — but a nonzero drain edge pins it above, which is the
            // conservative choice.
            let resume = 1 + timing.taken_branch_penalty;
            for &b in branch_positions {
                for i in 0..b {
                    if trace_ops[i].op.is_control() {
                        continue;
                    }
                    let drain = timing.latency(&trace_ops[i].op).saturating_sub(resume);
                    if drain > 0 {
                        add_edge(i, b, drain);
                    }
                }
            }
            // Everything must issue no later than the terminal transfer
            // (with the same drain requirement).
            let term = n - 1;
            if trace_ops[term].op.is_control() {
                for i in 0..term {
                    let drain = timing.latency(&trace_ops[i].op).saturating_sub(resume);
                    add_edge(i, term, drain);
                }
            }
        }

        // BAM-instruction group / basic-block barriers.
        if opts.group_barriers || opts.block_barriers {
            let seg_id = |i: usize| {
                if opts.group_barriers {
                    trace_ops[i].group as u64 | ((trace_ops[i].block as u64) << 32)
                } else {
                    trace_ops[i].block as u64
                }
            };
            let mut seg_start = 0usize;
            for j in 1..n {
                if seg_id(j) != seg_id(j - 1) {
                    // next segment: find its extent
                    let mut k = j;
                    while k < n && seg_id(k) == seg_id(j) {
                        k += 1;
                    }
                    for a in seg_start..j {
                        for b in j..k {
                            add_edge(a, b, 0);
                        }
                    }
                    seg_start = j;
                }
            }
        }

        graphs.push(n, edges);
    }
}

/// Per-op state of the list scheduler.
#[derive(Clone, Copy)]
struct Node {
    /// Predecessors not yet placed.
    indeg: u32,
    /// First cycle the placed predecessors allow.
    earliest: u32,
    /// The cycle it was placed in (`NONE` until then).
    cycle: u32,
}

/// The words being laid out: every word's slots back to back, and the
/// end offset of each word, as [`symbol_vliw::VliwProgram::new`] takes
/// them.
#[derive(Default)]
pub(crate) struct Words {
    pub(crate) slots: Vec<SlotOp>,
    pub(crate) word_end: Vec<u32>,
}

impl Words {
    /// Room for about `ops` slots and words.
    pub(crate) fn with_capacity(ops: usize) -> Self {
        Words {
            slots: Vec::with_capacity(ops),
            word_end: Vec::with_capacity(ops),
        }
    }

    /// Number of words so far.
    pub(crate) fn len(&self) -> usize {
        self.word_end.len()
    }
}

/// The placement pass and its working storage. One
/// [`crate::Compactor::compact`] call owns one and runs every trace and
/// every compensation block through it; each pass clears the buffers
/// it uses instead of allocating new ones.
#[derive(Default)]
pub(crate) struct Scheduler {
    /// The rewritten trace (or compensation block) being scheduled.
    pub(crate) ops: Vec<TraceOp>,
    /// Per-op scheduler state.
    nodes: Vec<Node>,
    /// Unplaced ops whose predecessors are all placed.
    pending: Vec<usize>,
    /// The pending ops that may issue in the current cycle.
    ready: Vec<usize>,
    /// The compensation label each side exit is retargeted to.
    retarget: Vec<Option<Label>>,
    /// Per emitted word of the current trace: its first slot, then, as
    /// the ops are given their slots, one past its last.
    word_at: Vec<u32>,
    /// The ops in slot order, each with its speculative flag.
    order: Vec<(u32, bool)>,
    /// The compensation blocks of every trace scheduled so far.
    comps: Vec<CompBlock>,
    /// Their delayed ops, back to back.
    comp_ops: Vec<Op>,
}

impl Scheduler {
    /// A scheduler with room for traces of `len` ops.
    pub(crate) fn with_capacity(len: usize) -> Self {
        Scheduler {
            ops: Vec::with_capacity(len),
            nodes: Vec::with_capacity(len),
            pending: Vec::with_capacity(len),
            ready: Vec::with_capacity(len),
            retarget: Vec::with_capacity(len),
            word_at: Vec::with_capacity(len),
            order: Vec::with_capacity(len),
            ..Scheduler::default()
        }
    }

    /// Schedules the rewritten trace in `self.ops` onto `machine`,
    /// given its dependence graph, and appends its instruction words
    /// (with explicit empty words for latency stalls) to `out`.
    /// Compensation blocks for its side exits are kept for
    /// [`Scheduler::emit_comp_blocks`].
    pub(crate) fn place(
        &mut self,
        machine: &MachineConfig,
        graph: Graph<'_>,
        labels: &mut LabelAlloc,
        out: &mut Words,
    ) {
        let Scheduler {
            ops: trace_ops,
            nodes,
            pending,
            ready,
            retarget,
            word_at,
            order,
            comps,
            comp_ops,
        } = self;
        let trace_ops: &[TraceOp] = trace_ops;
        let n = trace_ops.len();
        if n == 0 {
            return;
        }
        nodes.clear();
        nodes.extend(graph.indeg.iter().map(|&indeg| Node {
            indeg,
            earliest: 0,
            cycle: NONE,
        }));
        let height = graph.height;

        // ---------------- list scheduling ----------------
        pending.clear();
        pending.extend((0..n).filter(|&i| nodes[i].indeg == 0));
        let mut remaining = n;
        let mut cycle: u32 = 0;
        // Guard against scheduler deadlock (a DAG bug would loop forever).
        let max_cycles = (n as u32 + 4) * 8 + 64;

        while remaining > 0 {
            assert!(
                cycle < max_cycles,
                "scheduler failed to place all ops (dependence cycle?)"
            );
            // Ready ops at this cycle, by priority.
            ready.clear();
            ready.extend(
                pending
                    .iter()
                    .copied()
                    .filter(|&i| nodes[i].earliest <= cycle),
            );
            ready.sort_unstable_by_key(|&i| (std::cmp::Reverse(height[i]), i));

            let mut word = WordUse::default();
            for &i in ready.iter() {
                let class = trace_ops[i].op.class();
                if word.fits(machine, class) {
                    word.add(machine, class);
                    nodes[i].cycle = cycle;
                    remaining -= 1;
                }
            }
            pending.retain(|&i| nodes[i].cycle == NONE);
            for &i in ready.iter() {
                if nodes[i].cycle != cycle {
                    continue;
                }
                for &(to, lat) in graph.succs(i) {
                    let node = &mut nodes[to as usize];
                    node.indeg -= 1;
                    node.earliest = node.earliest.max(cycle + lat);
                    if node.indeg == 0 {
                        pending.push(to as usize);
                    }
                }
            }
            cycle += 1;
        }
        let num_words = cycle as usize;

        // ---------------- compensation code ----------------
        retarget.clear();
        retarget.resize(n, None);
        // Side exits only: the terminal transfer, op `n - 1`, has no
        // delayed ops below it.
        for b in 0..n - 1 {
            if !trace_ops[b].op.is_control() {
                continue;
            }
            let target = match trace_ops[b].op.target() {
                Some(t) => t,
                None => continue,
            };
            let first = comp_ops.len();
            comp_ops.extend(
                (0..b)
                    .filter(|&i| nodes[i].cycle > nodes[b].cycle)
                    .map(|i| trace_ops[i].op.clone()),
            );
            if comp_ops.len() == first {
                continue;
            }
            let label = labels.fresh();
            comps.push(CompBlock {
                label,
                ops: first..comp_ops.len(),
                target,
            });
            retarget[b] = Some(label);
        }

        // ---------------- emit words ----------------
        // Each word's ops, in original order (the branch priority), are
        // one run of slots: a counting sort of the ops by cycle. An op
        // is speculative when it issues no later than some earlier
        // branch of the trace: a running maximum of those cycles.
        word_at.clear();
        word_at.resize(num_words, 0);
        for node in nodes.iter() {
            word_at[node.cycle as usize] += 1;
        }
        let mut at = 0;
        for w in word_at.iter_mut() {
            (*w, at) = (at, at + *w);
        }
        order.clear();
        order.resize(n, (0, false));
        let mut branch_cycle: Option<u32> = None;
        for (i, top) in trace_ops.iter().enumerate() {
            let c = nodes[i].cycle;
            let slot = &mut word_at[c as usize];
            order[*slot as usize] = (i as u32, branch_cycle.is_some_and(|b| c <= b));
            *slot += 1;
            if top.op.is_control() {
                branch_cycle = branch_cycle.max(Some(c));
            }
        }
        let base = out.slots.len();
        let mut from = 0;
        for &end in word_at.iter() {
            let mut word = WordUse::default();
            for &(i, speculative) in &order[from..end as usize] {
                let i = i as usize;
                let mut op = trace_ops[i].op.clone();
                if let Some(l) = retarget[i] {
                    op.set_target(l);
                }
                let unit = word.add(machine, op.class());
                out.slots.push(SlotOp {
                    unit,
                    op,
                    speculative,
                });
            }
            from = end as usize;
            out.word_end.push((base + from) as u32);
        }
    }

    /// Number of compensation blocks generated so far.
    pub(crate) fn comp_blocks(&self) -> usize {
        self.comps.len()
    }

    /// Schedules every compensation block generated so far — the
    /// delayed ops plus the final jump, straight-line, so no further
    /// compensation arises — and appends their words to `out` in the
    /// order the blocks were made, binding each block's label to its
    /// first word in `label_addr`.
    pub(crate) fn emit_comp_blocks(
        &mut self,
        machine: &MachineConfig,
        live: &LiveAtLabel<'_>,
        labels: &mut LabelAlloc,
        label_addr: &mut [usize],
        out: &mut Words,
    ) {
        let straight = ScheduleOptions {
            speculate: false,
            group_barriers: false,
            block_barriers: false,
        };
        let timing = machine.timing();
        let mut deps = DependencePass::default();
        let mut graph = Graphs::new();
        let count = self.comps.len();
        for k in 0..count {
            let CompBlock { label, ops, target } = self.comps[k].clone();
            self.ops.clear();
            self.ops.extend(self.comp_ops[ops].iter().map(|o| TraceOp {
                op: o.clone(),
                group: 0,
                block: 0,
            }));
            self.ops.push(TraceOp {
                op: Op::Jmp { t: target },
                group: 0,
                block: 0,
            });
            graph.clear();
            deps.run(&self.ops, &timing, live, &straight, &mut graph);
            label_addr[label.0 as usize] = out.len();
            self.place(machine, graph.trace(0), labels, out);
        }
        assert_eq!(
            self.comps.len(),
            count,
            "compensation blocks are straight-line"
        );
    }
}
