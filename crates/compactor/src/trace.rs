//! Trace selection.
//!
//! Traces are picked greedily by execution frequency (the Expect
//! gathered by the sequential emulator), extended forward along the
//! most probable successor edge, and stopped at side entrances (blocks
//! with several predecessors), back edges, indirect transfers, and
//! already-placed blocks — the superblock arrangement of Trace
//! Scheduling described in DESIGN.md.

use crate::cfg::{Cfg, Edge};

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
    /// Minimum probability an edge needs to extend the trace.
    pub min_prob: f64,
    /// Op budget for tail duplication per trace (0 disables it).
    /// Duplicating the blocks behind a side entrance is what lets
    /// traces grow past the frequent read/write-mode joins of Prolog
    /// code, at the cost of compensation copies (paper §4.4).
    pub tail_dup_ops: usize,
    /// Only duplicate through blocks at least this hot (execution
    /// count), so cold joins do not bloat the code.
    pub tail_dup_min_expect: u64,
    /// Allow hoisting safe ops above side exits (speculation); only
    /// meaningful for trace scheduling.
    pub speculate: bool,
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy {
            max_blocks: 64,
            min_prob: 0.0,
            tail_dup_ops: 32,
            tail_dup_min_expect: 2,
            speculate: true,
        }
    }
}

/// Picks traces covering every block at least once. Blocks may appear
/// additionally as tail-duplicated copies inside hot traces.
pub fn pick_traces(cfg: &Cfg, policy: &TracePolicy) -> Vec<Trace> {
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
            let (prob, next) = match best {
                Some(x) => x,
                None => break, // indirect transfer or halt
            };
            if prob < policy.min_prob || blocks.contains(&next) {
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
                let hot = cfg.blocks[next].expect >= policy.tail_dup_min_expect
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
    resolve_interior_references(cfg, &mut traces);
    traces
}

/// The off-trace blocks a trace will reference once rewritten
/// (mirrors the decisions of `schedule::rewrite`).
fn referenced_blocks(cfg: &Cfg, trace: &Trace, out: &mut Vec<usize>) {
    use symbol_intcode::Op;
    let blocks = &trace.blocks;
    for (k, &b) in blocks.iter().enumerate() {
        let block = &cfg.blocks[b];
        let next = blocks.get(k + 1).copied();
        let taken = block.succs.iter().find_map(|e| match e {
            Edge::Taken(d) => Some(*d),
            Edge::Fall(_) => None,
        });
        let fall = block.succs.iter().find_map(|e| match e {
            Edge::Fall(d) => Some(*d),
            Edge::Taken(_) => None,
        });
        let is_cond = block.taken_prob.is_some() || (taken.is_some() && fall.is_some());
        let is_jmp = taken.is_some() && fall.is_none();
        let _ = is_jmp;
        match next {
            Some(n) => {
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
                if is_cond {
                    out.extend(taken);
                    out.extend(fall); // appended jump
                } else if let Some(t) = taken {
                    out.push(t); // trailing unconditional jump
                } else if matches!(cfg.blocks[b].succs.as_slice(), [Edge::Fall(_)]) {
                    out.extend(fall); // appended jump after fall-through
                }
                let _ = Op::Halt { success: true }; // (JmpR/Halt: no refs)
            }
        }
    }
}

/// Splits traces so every block referenced from off-trace is a trace
/// head (whose label can be bound), iterating to a fixpoint.
fn resolve_interior_references(cfg: &Cfg, traces: &mut Vec<Trace>) {
    loop {
        let mut referenced: Vec<usize> = Vec::new();
        for t in traces.iter() {
            referenced_blocks(cfg, t, &mut referenced);
        }
        referenced.sort_unstable();
        referenced.dedup();

        let heads: std::collections::HashSet<usize> = traces.iter().map(|t| t.blocks[0]).collect();

        // Find a referenced block that is not a head: split the first
        // trace containing it so it becomes one.
        let mut split_at: Option<(usize, usize)> = None;
        'search: for &b in &referenced {
            if heads.contains(&b) {
                continue;
            }
            for (ti, t) in traces.iter().enumerate() {
                if let Some(pos) = t.blocks.iter().position(|&x| x == b) {
                    split_at = Some((ti, pos));
                    break 'search;
                }
            }
        }
        match split_at {
            None => break,
            Some((ti, pos)) => {
                let suffix: Vec<usize> = traces[ti].blocks.split_off(pos);
                traces.push(Trace { blocks: suffix });
            }
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
    use crate::cfg::Cfg;
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
        let p = a.finish(entry);
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

    #[test]
    fn single_block_mode_is_identity() {
        let (p, stats) = diamond();
        let cfg = Cfg::build(&p, &stats);
        let traces = single_block_traces(&cfg);
        assert_eq!(traces.len(), cfg.blocks.len());
    }
}
