//! Local copy propagation and dead-move elimination on IntCode.
//!
//! Register moves make up roughly a quarter of the dynamic mix, so a
//! cleanup pass — standard in any real back end, and surely part of
//! the paper's "Parallelizing Compiler" — is worth having: each basic
//! block is rewritten so later uses read a move's source directly,
//! then moves whose destination is no longer needed (not used later in
//! the block and not live out) are deleted. In practice most moves
//! turn out to be calling convention (argument registers, routine
//! linkage) or dereference-loop state and must stay; the pass removes
//! the residual pure copies, a 2–4% dynamic reduction.
//!
//! The profile is carried along: retained ops keep their Expect and
//! taken counts, so the optimized program can feed the compactor and
//! the analytic cost models directly.

use std::collections::HashMap;

use symbol_intcode::{ExecStats, IciProgram, Label, Op, Operand, ProgramError, R};

use crate::cfg::Cfg;
use crate::liveness::Liveness;

/// Result of the optimization.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The rewritten program.
    pub program: IciProgram,
    /// Remapped execution statistics.
    pub stats: ExecStats,
    /// Ops removed.
    pub removed: usize,
}

/// Runs copy propagation + dead-move elimination.
///
/// # Errors
///
/// The first structural defect [`IciProgram::try_new`] finds in the
/// rewritten program — an internal bug of this pass, returned rather
/// than panicked.
pub fn try_copy_propagate(
    program: &IciProgram,
    stats: &ExecStats,
) -> Result<Optimized, ProgramError> {
    let cfg = Cfg::build(program, stats);
    let live = Liveness::compute(program, &cfg);
    let ops = program.ops();
    let groups = program.groups();

    let mut new_ops: Vec<Op> = Vec::with_capacity(ops.len());
    let mut new_groups: Vec<u32> = Vec::with_capacity(ops.len());
    let mut new_expect: Vec<u64> = Vec::with_capacity(ops.len());
    let mut new_taken: Vec<u64> = Vec::with_capacity(ops.len());
    // old op index -> new op index (for label rebinding); deleted ops
    // map to the next retained op.
    let mut index_map: Vec<usize> = vec![0; ops.len() + 1];

    for (bid, block) in cfg.blocks.iter().enumerate() {
        // live-out of the block = union of successors' live-ins;
        // conservatively everything for indirect/halt terminators.
        let mut live_out: Option<std::collections::HashSet<R>> = Some(
            block
                .succs
                .iter()
                .flat_map(|e| live.live_in(e.dest()).iter().copied())
                .collect(),
        );
        let last = &ops[block.end - 1];
        if matches!(last, Op::JmpR { .. } | Op::Halt { .. }) {
            live_out = None; // unknown: keep everything
        }
        let _ = bid;

        // Forward pass: propagate copies.
        let mut copy_of: HashMap<R, R> = HashMap::new();
        let mut rewritten: Vec<Op> = Vec::with_capacity(block.len());
        for src_op in &ops[block.start..block.end] {
            let mut op = src_op.clone();
            substitute_uses(&mut op, &copy_of);
            // definitions invalidate copies involving the dest
            if let Some(d) = op.def() {
                copy_of.remove(&d);
                copy_of.retain(|_, src| *src != d);
                if let Op::Mv { d, s } = op {
                    if d != s {
                        copy_of.insert(d, s);
                    }
                }
            }
            rewritten.push(op);
        }

        // Backward pass: delete moves whose dest is dead.
        let mut keep = vec![true; rewritten.len()];
        for (k, op) in rewritten.iter().enumerate() {
            let Op::Mv { d, s } = op else { continue };
            if d == s {
                keep[k] = false;
                continue;
            }
            // fixed registers are architectural state: never delete
            if d.0 < symbol_intcode::layout::reg::FIRST_TEMP {
                continue;
            }
            // scan forward, stopping at a redefinition: uses beyond it
            // read the new value
            let mut needed = false;
            for later in &rewritten[k + 1..] {
                if later.uses().contains(d) {
                    needed = true;
                    break;
                }
                if later.def() == Some(*d) {
                    break;
                }
            }
            if needed {
                continue;
            }
            // dead within the block: also dead across it?
            let live_after = match &live_out {
                None => true,
                Some(set) => {
                    // if d is redefined later in the block the live-out
                    // does not apply to THIS def
                    let redefined_later = rewritten[k + 1..]
                        .iter()
                        .any(|later| later.def() == Some(*d));
                    !redefined_later && set.contains(d)
                }
            };
            if !live_after {
                keep[k] = false;
            }
        }

        for (k, op) in rewritten.into_iter().enumerate() {
            let old = block.start + k;
            index_map[old] = new_ops.len();
            if keep[k] {
                new_ops.push(op);
                new_groups.push(groups[old]);
                new_expect.push(stats.expect[old]);
                new_taken.push(stats.taken[old]);
            }
        }
    }
    index_map[ops.len()] = new_ops.len();
    // deleted ops must map to the next retained op: fix up backwards
    for i in (0..ops.len()).rev() {
        if index_map[i] > index_map[i + 1] {
            index_map[i] = index_map[i + 1];
        }
    }

    // Rebind labels.
    let mut label_at: HashMap<Label, usize> = HashMap::new();
    for (lid, &addr) in program.label_table().iter().enumerate() {
        if addr != usize::MAX {
            label_at.insert(Label(lid as u32), index_map[addr]);
        }
    }
    let removed = ops.len() - new_ops.len();
    let num_labels = program.label_table().len() as u32;
    let optimized =
        IciProgram::try_new(new_ops, new_groups, label_at, num_labels, program.entry())?;
    Ok(Optimized {
        program: optimized,
        stats: ExecStats {
            expect: new_expect,
            taken: new_taken,
        },
        removed,
    })
}

fn substitute_uses(op: &mut Op, copy_of: &HashMap<R, R>) {
    let sub = |r: &mut R| {
        if let Some(&s) = copy_of.get(r) {
            *r = s;
        }
    };
    let sub_operand = |o: &mut Operand| {
        if let Operand::Reg(r) = o {
            if let Some(&s) = copy_of.get(r) {
                *r = s;
            }
        }
    };
    match op {
        Op::Ld { base, .. } => sub(base),
        Op::St { s, base, .. } => {
            sub(s);
            sub(base);
        }
        Op::Mv { s, .. } => sub(s),
        Op::MvI { .. } | Op::Jmp { .. } | Op::Halt { .. } => {}
        Op::Alu { a, b, .. } | Op::AddA { a, b, .. } => {
            sub(a);
            sub_operand(b);
        }
        Op::MkTag { s, .. } => sub(s),
        Op::Br { a, b, .. } => {
            sub(a);
            sub_operand(b);
        }
        Op::BrTag { a, .. } | Op::BrWord { a, .. } => sub(a),
        Op::BrWEq { a, b, .. } => {
            sub(a);
            sub(b);
        }
        Op::JmpR { r } => sub(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_intcode::{Asm, Cond, Emulator, ExecConfig, Word};

    fn run_both(build: impl FnOnce(&mut Asm) -> Label) -> (u64, u64, usize) {
        let mut a = Asm::new();
        let entry = build(&mut a);
        let p = a.finish(entry);
        let layout = symbol_intcode::Layout {
            heap_size: 64,
            env_size: 64,
            cp_size: 64,
            trail_size: 64,
            pdl_size: 64,
        };
        let before = Emulator::new(&p, &layout)
            .run(&ExecConfig::default())
            .expect("original runs");
        let opt = try_copy_propagate(&p, &before.stats).expect("rewritten program validates");
        let after = Emulator::new(&opt.program, &layout)
            .run(&ExecConfig::default())
            .expect("optimized runs");
        assert_eq!(before.outcome, after.outcome);
        (before.steps, after.steps, opt.removed)
    }

    #[test]
    fn dead_move_chain_is_removed() {
        let (before, after, removed) = run_both(|a| {
            let e = a.fresh_label();
            let ok = a.fresh_label();
            let t0 = a.fresh_reg();
            let t1 = a.fresh_reg();
            let t2 = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: t0,
                w: Word::int(7),
            });
            a.emit(Op::Mv { d: t1, s: t0 });
            a.emit(Op::Mv { d: t2, s: t1 });
            a.emit(Op::Br {
                cond: Cond::Eq,
                a: t2,
                b: Operand::Imm(7),
                t: ok,
            });
            a.emit(Op::Halt { success: false });
            a.bind(ok);
            a.emit(Op::Halt { success: true });
            e
        });
        assert_eq!(removed, 2, "both moves become dead after propagation");
        assert_eq!(after, before - 2);
    }

    #[test]
    fn moves_live_across_blocks_are_kept() {
        let (_, _, removed) = run_both(|a| {
            let e = a.fresh_label();
            let next = a.fresh_label();
            let bad = a.fresh_label();
            let t0 = a.fresh_reg();
            let t1 = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: t0,
                w: Word::int(7),
            });
            a.emit(Op::Mv { d: t1, s: t0 });
            a.emit(Op::Jmp { t: next });
            a.bind(next);
            // t1 used in another block: the move must survive
            a.emit(Op::Br {
                cond: Cond::Eq,
                a: t1,
                b: Operand::Imm(8),
                t: bad,
            });
            a.emit(Op::Halt { success: true });
            a.bind(bad);
            a.emit(Op::Halt { success: false });
            e
        });
        assert_eq!(removed, 0, "the move is live across the jump");
    }

    #[test]
    fn copy_into_branch_operand_is_propagated() {
        let (_, after, _) = run_both(|a| {
            let e = a.fresh_label();
            let ok = a.fresh_label();
            let t0 = a.fresh_reg();
            let t1 = a.fresh_reg();
            a.bind(e);
            a.emit(Op::MvI {
                d: t0,
                w: Word::int(1),
            });
            a.emit(Op::Mv { d: t1, s: t0 });
            a.emit(Op::BrTag {
                a: t1,
                tag: symbol_intcode::Tag::Int,
                eq: true,
                t: ok,
            });
            a.emit(Op::Halt { success: false });
            a.bind(ok);
            a.emit(Op::Halt { success: true });
            e
        });
        assert_eq!(after, 3, "mvi + branch + halt");
    }
}
