//! Trace selection.
//!
//! Traces are picked greedily by execution frequency (the Expect
//! gathered by the sequential emulator), extended forward along the
//! most probable successor edge, and stopped at side entrances (blocks
//! with several predecessors), back edges, indirect transfers, and
//! already-placed blocks — the superblock arrangement of Trace
//! Scheduling described in DESIGN.md.

use crate::cfg::{Cfg, Edge};

/// Tail duplication copies a join block only when it ran at least this
/// often, so joins that are cold in the profile do not bloat the code.
const TAIL_DUP_MIN_EXPECT: u64 = 2;

/// One trace: block ids in execution order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    /// Block ids.
    pub blocks: Vec<usize>,
}

/// Trace-picking policy knobs (for the ablation experiments).
#[derive(Copy, Clone, Debug)]
pub struct TracePolicy {
    /// Upper bound on blocks per trace.
    pub max_blocks: usize,
    /// Op budget for tail duplication per trace (0 disables it).
    /// Duplicating the blocks behind a side entrance is what lets
    /// traces grow past the frequent read/write-mode joins of Prolog
    /// code, at the cost of compensation copies (paper §4.4).
    pub tail_dup_ops: usize,
    /// Allow hoisting safe ops above side exits (speculation); only
    /// meaningful for trace scheduling.
    pub speculate: bool,
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy {
            max_blocks: 64,
            tail_dup_ops: 32,
            speculate: true,
        }
    }
}

/// Picks traces covering every block at least once. Blocks may appear
/// additionally as tail-duplicated copies inside hot traces.
pub fn pick_traces(cfg: &Cfg, policy: &TracePolicy) -> Vec<Trace> {
    let mut traces = grow_traces(cfg, policy);
    resolve_interior_references(cfg, &mut traces);
    traces
}

/// The traces as picked, before any is split at a block referenced
/// from off-trace.
fn grow_traces(cfg: &Cfg, policy: &TracePolicy) -> Vec<Trace> {
    let nb = cfg.blocks.len();
    let mut visited = vec![false; nb];
    let mut traces = Vec::new();

    // Seeds in descending execution frequency; never-executed blocks
    // come last in layout order (still need code for correctness).
    let mut seeds: Vec<usize> = (0..nb).collect();
    seeds.sort_by_key(|&b| (std::cmp::Reverse(cfg.blocks[b].expect), b));

    for seed in seeds {
        if visited[seed] {
            continue;
        }
        let mut blocks = vec![seed];
        visited[seed] = true;

        // Backward extension: grow through a unique, un-placed
        // predecessor whose most probable successor is the head.
        loop {
            let head = blocks[0];
            if cfg.blocks[head].preds.len() != 1 || cfg.blocks[head].address_taken {
                break;
            }
            let pred = cfg.blocks[head].preds[0];
            if visited[pred] || blocks.contains(&pred) || blocks.len() >= policy.max_blocks {
                break;
            }
            let best = best_succ(cfg, pred);
            if best != Some(head) {
                break;
            }
            blocks.insert(0, pred);
            visited[pred] = true;
        }

        // Forward extension with tail duplication at side entrances.
        let mut dup_budget = policy.tail_dup_ops;
        let mut cur = *blocks.last().expect("nonempty");
        while blocks.len() < policy.max_blocks {
            let mut best: Option<(f64, usize)> = None;
            for &e in &cfg.blocks[cur].succs {
                let p = cfg.edge_prob(cur, e);
                let better = match best {
                    None => true,
                    Some((bp, _)) => p > bp,
                };
                if better {
                    best = Some((p, e.dest()));
                }
            }
            let next = match best {
                Some((_, next)) => next,
                None => break, // indirect transfer or halt
            };
            if blocks.contains(&next) {
                break;
            }
            let is_join =
                visited[next] || cfg.blocks[next].preds.len() > 1 || cfg.blocks[next].address_taken;
            if is_join {
                // Tail duplication: copy the join block into the trace
                // (the original remains reachable for the other
                // predecessors), within the growth budget. Only worth
                // it while the continuation is still about as hot as
                // the trace head — duplicating cold joins bloats the
                // code for nothing.
                let len = cfg.blocks[next].len();
                let head_expect = cfg.blocks[blocks[0]].expect;
                let hot = cfg.blocks[next].expect >= TAIL_DUP_MIN_EXPECT
                    && cfg.blocks[next].expect * 2 >= head_expect;
                if hot && len <= dup_budget {
                    dup_budget -= len;
                    blocks.push(next);
                    cur = next;
                    continue;
                }
                break;
            }
            blocks.push(next);
            visited[next] = true;
            cur = next;
        }
        traces.push(Trace { blocks });
    }
    traces
}

/// The off-trace blocks a trace will reference once rewritten
/// (mirrors the decisions of `schedule::rewrite`).
fn referenced_blocks(cfg: &Cfg, trace: &Trace, out: &mut Vec<usize>) {
    let blocks = &trace.blocks;
    for (k, &b) in blocks.iter().enumerate() {
        let block = &cfg.blocks[b];
        let taken = block.succs.iter().find_map(|e| match e {
            Edge::Taken(d) => Some(*d),
            Edge::Fall(_) => None,
        });
        let fall = block.succs.iter().find_map(|e| match e {
            Edge::Fall(d) => Some(*d),
            Edge::Taken(_) => None,
        });
        let is_cond = block.taken_prob.is_some() || (taken.is_some() && fall.is_some());
        match blocks.get(k + 1) {
            Some(&n) => {
                if is_cond {
                    if taken == Some(n) {
                        out.extend(fall); // inverted branch
                    } else {
                        out.extend(taken); // kept branch
                    }
                }
                // unconditional jump followed in-trace: deleted, no ref
            }
            None => {
                // last block: whatever is off-trace gets referenced
                // (JmpR and Halt reference nothing)
                if is_cond {
                    out.extend(taken);
                    out.extend(fall); // appended jump
                } else if let Some(t) = taken {
                    out.push(t); // trailing unconditional jump
                } else if matches!(block.succs.as_slice(), [Edge::Fall(_)]) {
                    out.extend(fall); // appended jump after fall-through
                }
            }
        }
    }
}

/// Splits traces so every block referenced from off-trace is a trace
/// head (whose label can be bound).
///
/// One pass suffices. Splitting a trace before block `b` makes `b` a
/// head, and the only reference it adds is the one to `b` from the
/// block before it, which now ends its trace. So the referenced blocks
/// that are not heads are known up front, and each split removes
/// exactly the one it is made for. They are split in ascending block
/// order, each at its first occurrence in the lowest-numbered trace
/// that holds it — a suffix an earlier split appended included — which
/// is what picking the lowest such block again after every split
/// would do.
fn resolve_interior_references(cfg: &Cfg, traces: &mut Vec<Trace>) {
    let mut referenced: Vec<usize> = Vec::new();
    for t in traces.iter() {
        referenced_blocks(cfg, t, &mut referenced);
    }
    referenced.sort_unstable();
    referenced.dedup();
    let mut head = vec![false; cfg.blocks.len()];
    for t in traces.iter() {
        head[t.blocks[0]] = true;
    }
    for b in referenced {
        if head[b] {
            continue;
        }
        let found = traces
            .iter()
            .enumerate()
            .find_map(|(ti, t)| t.blocks.iter().position(|&x| x == b).map(|pos| (ti, pos)));
        if let Some((ti, pos)) = found {
            let suffix = traces[ti].blocks.split_off(pos);
            traces.push(Trace { blocks: suffix });
            head[b] = true;
        }
    }
}

fn best_succ(cfg: &Cfg, block: usize) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for &e in &cfg.blocks[block].succs {
        let p = cfg.edge_prob(block, e);
        if best.is_none_or(|(bp, _)| p > bp) {
            best = Some((p, e.dest()));
        }
    }
    best.map(|(_, d)| d)
}

/// Execution-weighted average trace length, in ops (paper Table 1's
/// "Average Length").
pub fn average_trace_length(cfg: &Cfg, traces: &[Trace]) -> f64 {
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for t in traces {
        let head = t.blocks[0];
        let w = cfg.blocks[head].expect as f64;
        let len: usize = t.blocks.iter().map(|&b| cfg.blocks[b].len()).sum();
        weighted += w * len as f64;
        weight += w;
    }
    if weight == 0.0 {
        0.0
    } else {
        weighted / weight
    }
}

/// Decomposes the CFG into single-block traces (basic-block
/// compaction baseline).
pub fn single_block_traces(cfg: &Cfg) -> Vec<Trace> {
    (0..cfg.blocks.len())
        .map(|b| Trace { blocks: vec![b] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Block, Cfg};
    use symbol_intcode::{Asm, Cond, Op, Operand, Word};

    fn diamond() -> (symbol_intcode::IciProgram, symbol_intcode::ExecStats) {
        // entry -> (likely) A -> join ; entry -> (rare) B -> join
        let mut a = Asm::new();
        let entry = a.fresh_label();
        let rare = a.fresh_label();
        let join = a.fresh_label();
        let lp = a.fresh_label();
        let i = a.fresh_reg();
        let t = a.fresh_reg();
        a.bind(entry);
        a.emit(Op::MvI {
            d: i,
            w: Word::int(0),
        });
        a.bind(lp);
        a.emit(Op::Alu {
            op: symbol_intcode::AluOp::Add,
            d: i,
            a: i,
            b: Operand::Imm(1),
        });
        // every 5th iteration take the rare path
        a.emit(Op::Alu {
            op: symbol_intcode::AluOp::Mod,
            d: t,
            a: i,
            b: Operand::Imm(5),
        });
        a.emit(Op::Br {
            cond: Cond::Eq,
            a: t,
            b: Operand::Imm(0),
            t: rare,
        });
        // likely path
        a.emit(Op::Mv { d: t, s: i });
        a.emit(Op::Jmp { t: join });
        a.bind(rare);
        a.emit(Op::Mv { d: t, s: i });
        a.bind(join);
        a.emit(Op::Br {
            cond: Cond::Lt,
            a: i,
            b: Operand::Imm(20),
            t: lp,
        });
        a.emit(Op::Halt { success: true });
        let p = a.finish(entry).expect("assembles");
        let layout = symbol_intcode::Layout {
            heap_size: 16,
            env_size: 16,
            cp_size: 16,
            trail_size: 16,
            pdl_size: 16,
        };
        let stats = symbol_intcode::Emulator::new(&p, &layout)
            .run(&symbol_intcode::ExecConfig::default())
            .unwrap()
            .stats;
        (p, stats)
    }

    #[test]
    fn traces_cover_every_block() {
        let (p, stats) = diamond();
        let cfg = Cfg::build(&p, &stats);
        let traces = pick_traces(&cfg, &TracePolicy::default());
        let mut seen = vec![false; cfg.blocks.len()];
        for t in &traces {
            for &b in &t.blocks {
                seen[b] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn no_duplication_when_budget_is_zero() {
        let (p, stats) = diamond();
        let cfg = Cfg::build(&p, &stats);
        let policy = TracePolicy {
            tail_dup_ops: 0,
            ..TracePolicy::default()
        };
        let traces = pick_traces(&cfg, &policy);
        let mut seen = vec![false; cfg.blocks.len()];
        for t in &traces {
            for &b in &t.blocks {
                assert!(!seen[b], "block {b} placed twice without duplication");
                seen[b] = true;
            }
        }
    }

    #[test]
    fn hot_trace_follows_likely_path() {
        let (p, stats) = diamond();
        let cfg = Cfg::build(&p, &stats);
        let traces = pick_traces(&cfg, &TracePolicy::default());
        // some hot trace extends through the likely branch direction
        let extended = traces
            .iter()
            .any(|t| t.blocks.len() >= 2 && cfg.blocks[t.blocks[0]].expect > 1);
        assert!(extended, "no hot trace extended: {traces:?}");
    }

    #[test]
    fn joins_inside_traces_are_duplicates() {
        let (p, stats) = diamond();
        let cfg = Cfg::build(&p, &stats);
        let traces = pick_traces(&cfg, &TracePolicy::default());
        // every join block that appears inside some trace must also be
        // placed as an original (the head of its own trace), so the
        // other predecessors still have a target
        for t in &traces {
            for &b in &t.blocks[1..] {
                if cfg.blocks[b].preds.len() > 1 {
                    assert!(
                        traces.iter().any(|o| o.blocks[0] == b),
                        "duplicated join {b} has no original"
                    );
                }
            }
        }
    }

    /// The splitting rule as first written: after every split,
    /// recompute the referenced blocks and the heads, and split the
    /// lowest referenced block that is not a head, until none is left.
    fn split_to_fixpoint(cfg: &Cfg, traces: &mut Vec<Trace>) {
        loop {
            let mut referenced = Vec::new();
            for t in traces.iter() {
                referenced_blocks(cfg, t, &mut referenced);
            }
            referenced.sort_unstable();
            referenced.dedup();
            let split = referenced
                .into_iter()
                .filter(|b| traces.iter().all(|t| t.blocks[0] != *b))
                .find_map(|b| {
                    traces
                        .iter()
                        .enumerate()
                        .find_map(|(ti, t)| t.blocks.iter().position(|&x| x == b).map(|p| (ti, p)))
                });
            let Some((ti, pos)) = split else { break };
            let suffix = traces[ti].blocks.split_off(pos);
            traces.push(Trace { blocks: suffix });
        }
    }

    /// A block of `len` ops with the given successors.
    fn block(start: usize, len: usize, succs: Vec<Edge>, expect: u64) -> Block {
        let taken_prob = (succs.len() == 2).then_some(0.5);
        Block {
            start,
            end: start + len,
            succs,
            preds: Vec::new(),
            expect,
            taken_prob,
            address_taken: false,
        }
    }

    /// A CFG over `blocks`, with predecessors filled in.
    fn cfg_of(mut blocks: Vec<Block>) -> Cfg {
        for b in 0..blocks.len() {
            for e in blocks[b].succs.clone() {
                blocks[e.dest()].preds.push(b);
            }
        }
        Cfg {
            blocks,
            block_of_op: Vec::new(),
            label_block: Vec::new(),
        }
    }

    #[test]
    fn one_pass_splits_inside_a_suffix_an_earlier_split_made() {
        use Edge::{Fall, Taken};
        // Trace 0 runs 0-1-2-3. Block 4 jumps to 2 and block 5 to 3, so
        // the trace is split before 2, and the suffix 2-3 that split
        // appends is split again before 3.
        let cfg = cfg_of(vec![
            block(0, 1, vec![Fall(1)], 9),
            block(1, 1, vec![Fall(2)], 9),
            block(2, 1, vec![Fall(3)], 9),
            block(3, 1, vec![], 9),
            block(4, 1, vec![Taken(2)], 1),
            block(5, 1, vec![Taken(3)], 1),
        ]);
        let trace = |b: &[usize]| Trace { blocks: b.to_vec() };
        let mut traces = vec![trace(&[0, 1, 2, 3]), trace(&[4]), trace(&[5])];
        resolve_interior_references(&cfg, &mut traces);
        assert_eq!(
            traces,
            [
                trace(&[0, 1]),
                trace(&[4]),
                trace(&[5]),
                trace(&[2]),
                trace(&[3])
            ]
        );
    }

    #[test]
    fn one_pass_splits_as_the_fixpoint_did_on_random_cfgs() {
        use Edge::{Fall, Taken};
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let mut splits = 0;
        for _ in 0..300 {
            let n = 3 + below(30);
            let mut start = 0;
            let blocks = (0..n)
                .map(|b| {
                    let last = b + 1 == n;
                    let succs = match below(4) {
                        0 if !last => vec![Fall(b + 1)],
                        1 => vec![Taken(below(n))],
                        2 if !last => vec![Taken(below(n)), Fall(b + 1)],
                        _ => vec![],
                    };
                    let len = 1 + below(4);
                    start += len;
                    block(start - len, len, succs, below(20) as u64)
                })
                .collect();
            let cfg = cfg_of(blocks);
            for tail_dup_ops in [0, 8] {
                let policy = TracePolicy {
                    tail_dup_ops,
                    ..TracePolicy::default()
                };
                let grown = grow_traces(&cfg, &policy);
                let mut expected = grown.clone();
                split_to_fixpoint(&cfg, &mut expected);
                splits += expected.len() - grown.len();
                let mut got = grown;
                resolve_interior_references(&cfg, &mut got);
                assert_eq!(got, expected, "{cfg:?}");
            }
        }
        assert!(splits >= 100, "only {splits} splits");
    }

    #[test]
    fn single_block_mode_is_identity() {
        let (p, stats) = diamond();
        let cfg = Cfg::build(&p, &stats);
        let traces = single_block_traces(&cfg);
        assert_eq!(traces.len(), cfg.blocks.len());
    }
}
