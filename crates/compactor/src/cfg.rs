#![allow(clippy::needless_range_loop)] // index loops mirror the DAG math

//! Control-flow graph over IntCode programs.

use std::collections::HashSet;

use symbol_intcode::{ExecStats, IciProgram, Label, Op};

/// Outgoing edge of a basic block.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Edge {
    /// Fall-through to the next block.
    Fall(usize),
    /// Taken branch/jump to a labelled block.
    Taken(usize),
}

impl Edge {
    /// The destination block.
    pub fn dest(self) -> usize {
        match self {
            Edge::Fall(b) | Edge::Taken(b) => b,
        }
    }
}

/// One basic block: the op range `[start, end)`.
#[derive(Clone, Debug)]
pub struct Block {
    /// First op index.
    pub start: usize,
    /// One past the last op index.
    pub end: usize,
    /// Successor edges (at most a fall-through and a taken edge).
    pub succs: Vec<Edge>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
    /// Execution count (the Expect of the first op).
    pub expect: u64,
    /// Probability that the terminating conditional branch is taken
    /// (`None` for non-branch terminators or never-executed blocks).
    pub taken_prob: Option<f64>,
    /// Whether some label bound at `start` is address-taken (the block
    /// can be entered by an indirect jump).
    pub address_taken: bool,
}

impl Block {
    /// Number of ops in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The control-flow graph.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Blocks in layout order.
    pub blocks: Vec<Block>,
    /// Block id containing each op.
    pub block_of_op: Vec<usize>,
    /// Block whose first op each label points at, indexed by label id
    /// (`None` for labels bound past the last op or not at all).
    pub label_block: Vec<Option<usize>>,
}

impl Cfg {
    /// Builds the CFG of `program`, annotated with `stats`.
    pub fn build(program: &IciProgram, stats: &ExecStats) -> Cfg {
        let ops = program.ops();
        let n = ops.len();

        // Leaders: entry, every bound label, every op after a control op.
        let mut leader = vec![false; n + 1];
        leader[program.label_addr(program.entry())] = true;
        for (lid, &addr) in program.label_table().iter().enumerate() {
            let _ = lid;
            if addr != usize::MAX && addr < n {
                leader[addr] = true;
            }
        }
        for (i, op) in ops.iter().enumerate() {
            if op.is_control() && i + 1 < n {
                leader[i + 1] = true;
            }
        }
        leader[0] = true;

        // Block ranges.
        let mut starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
        starts.push(n);
        let address_taken: HashSet<usize> = program
            .address_taken()
            .iter()
            .map(|&l| program.label_addr(l))
            .collect();

        let mut blocks = Vec::with_capacity(starts.len() - 1);
        let mut block_of_op = vec![0usize; n];
        for w in starts.windows(2) {
            let (s, e) = (w[0], w[1]);
            let id = blocks.len();
            for i in s..e {
                block_of_op[i] = id;
            }
            blocks.push(Block {
                start: s,
                end: e,
                succs: Vec::new(),
                preds: Vec::new(),
                expect: stats.expect[s],
                taken_prob: None,
                address_taken: address_taken.contains(&s),
            });
        }

        // Successors.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); blocks.len()];
        for id in 0..blocks.len() {
            let last = blocks[id].end - 1;
            let op = &ops[last];
            let mut succs = Vec::new();
            match op {
                Op::Jmp { t } => {
                    succs.push(Edge::Taken(block_of_op[program.label_addr(*t)]));
                }
                Op::JmpR { .. } | Op::Halt { .. } => {}
                o if o.is_control() => {
                    // conditional branch
                    let t = o.target().expect("conditional branches have targets");
                    succs.push(Edge::Taken(block_of_op[program.label_addr(t)]));
                    if last + 1 < n {
                        succs.push(Edge::Fall(block_of_op[last + 1]));
                    }
                    blocks[id].taken_prob = stats.taken_probability(program, last);
                }
                _ => {
                    if last + 1 < n {
                        succs.push(Edge::Fall(block_of_op[last + 1]));
                    }
                }
            }
            for e in &succs {
                preds[e.dest()].push(id);
            }
            blocks[id].succs = succs;
        }
        for (id, p) in preds.into_iter().enumerate() {
            blocks[id].preds = p;
        }

        // Label → block (every bound label's address is a leader).
        let label_block = program
            .label_table()
            .iter()
            .map(|&addr| (addr < n).then(|| block_of_op[addr]))
            .collect();

        Cfg {
            blocks,
            block_of_op,
            label_block,
        }
    }

    /// The block `label` is bound at, if any.
    pub fn block_of_label(&self, label: Label) -> Option<usize> {
        self.label_block.get(label.0 as usize).copied().flatten()
    }

    /// Probability of following `edge` out of `block`.
    pub fn edge_prob(&self, block: usize, edge: Edge) -> f64 {
        let b = &self.blocks[block];
        match (edge, b.taken_prob) {
            (Edge::Taken(_), Some(p)) => p,
            (Edge::Fall(_), Some(p)) => 1.0 - p,
            // unconditional or never-executed: single edges carry it all
            _ => {
                if b.succs.len() == 1 {
                    1.0
                } else {
                    0.5
                }
            }
        }
    }

    /// Dynamic average basic-block length (ops per executed block).
    pub fn average_block_length(&self) -> f64 {
        let mut ops = 0u64;
        let mut entries = 0u64;
        for b in &self.blocks {
            ops += b.expect * b.len() as u64;
            entries += b.expect;
        }
        if entries == 0 {
            0.0
        } else {
            ops as f64 / entries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_intcode::{Asm, Cond, Op, Operand, Word};

    fn sample() -> (IciProgram, ExecStats) {
        // entry: r = 0; loop: r += 1; if r < 3 goto loop; halt
        let mut a = Asm::new();
        let entry = a.fresh_label();
        let lp = a.fresh_label();
        let r = a.fresh_reg();
        a.bind(entry);
        a.emit(Op::MvI {
            d: r,
            w: Word::int(0),
        });
        a.bind(lp);
        a.emit(Op::Alu {
            op: symbol_intcode::AluOp::Add,
            d: r,
            a: r,
            b: Operand::Imm(1),
        });
        a.emit(Op::Br {
            cond: Cond::Lt,
            a: r,
            b: Operand::Imm(3),
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
    fn builds_loop_cfg() {
        let (p, stats) = sample();
        let cfg = Cfg::build(&p, &stats);
        // blocks: [mvi], [add, br], [halt]
        assert_eq!(cfg.blocks.len(), 3);
        assert_eq!(cfg.blocks[0].len(), 1);
        assert_eq!(cfg.blocks[1].len(), 2);
        // loop block has a back edge to itself and a fall edge
        let succs = &cfg.blocks[1].succs;
        assert!(succs.contains(&Edge::Taken(1)));
        assert!(succs.contains(&Edge::Fall(2)));
        // executed 3 times, taken twice
        assert_eq!(cfg.blocks[1].expect, 3);
        let p_taken = cfg.blocks[1].taken_prob.unwrap();
        assert!((p_taken - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn preds_are_recorded() {
        let (p, stats) = sample();
        let cfg = Cfg::build(&p, &stats);
        assert_eq!(cfg.blocks[1].preds.len(), 2); // entry + itself
        assert_eq!(cfg.blocks[2].preds, vec![1]);
    }

    #[test]
    fn edge_probabilities_sum_to_one() {
        let (p, stats) = sample();
        let cfg = Cfg::build(&p, &stats);
        let b = 1;
        let total: f64 = cfg.blocks[b]
            .succs
            .iter()
            .map(|&e| cfg.edge_prob(b, e))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
