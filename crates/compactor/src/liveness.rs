//! Temporary-register liveness.
//!
//! The speculation safety rules only ever ask about *renamed
//! temporaries* (fixed machine registers are always live, so writes to
//! them are never speculated). This keeps the dataflow sets small: a
//! program has thousands of temps, but only about a dozen are live at
//! any block entry, so each set is a sorted `Vec` merged in linear time
//! rather than a hash set or a bitset over every temp.

use std::cmp::Ordering;

use symbol_intcode::layout::reg;
use symbol_intcode::{IciProgram, Label, Op, R};

use crate::cfg::Cfg;

fn is_temp(r: R) -> bool {
    r.0 >= reg::FIRST_TEMP
}

/// `dst = a ∪ b` for sorted, duplicate-free `a` and `b`.
fn union_into(a: &[R], b: &[R], dst: &mut Vec<R>) {
    dst.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                dst.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                dst.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                dst.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    dst.extend_from_slice(&a[i..]);
    dst.extend_from_slice(&b[j..]);
}

/// `dst = a − b` for sorted, duplicate-free `a` and `b`.
fn difference_into(a: &[R], b: &[R], dst: &mut Vec<R>) {
    dst.clear();
    let mut j = 0;
    for &r in a {
        while j < b.len() && b[j] < r {
            j += 1;
        }
        if b.get(j) != Some(&r) {
            dst.push(r);
        }
    }
}

/// `acc ∪= add`, with `tmp` as scratch space.
fn union_assign(acc: &mut Vec<R>, add: &[R], tmp: &mut Vec<R>) {
    if add.is_empty() {
        return;
    }
    union_into(acc, add, tmp);
    std::mem::swap(acc, tmp);
}

/// Per-block live-in sets of temporary registers.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Sorted, duplicate-free live-in temps of each block.
    live_in: Vec<Vec<R>>,
}

impl Liveness {
    /// Computes liveness over `cfg` by backward round-robin iteration
    /// to the least fixpoint. Indirect control transfers conservatively
    /// make the live-ins of every address-taken block live.
    pub fn compute(program: &IciProgram, cfg: &Cfg) -> Liveness {
        let ops = program.ops();
        let nb = cfg.blocks.len();

        // Per-block use (read before any write in the block) and def
        // sets, temps only. `defined_in[t]` is the last block that
        // wrote temp `t`, so "written earlier in this block" is O(1).
        let num_temps = ops
            .iter()
            .flat_map(|op| op.uses().into_iter().chain(op.def()))
            .filter(|&r| is_temp(r))
            .map(|r| (r.0 - reg::FIRST_TEMP) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut defined_in = vec![usize::MAX; num_temps];
        let mut use_b: Vec<Vec<R>> = Vec::with_capacity(nb);
        let mut def_b: Vec<Vec<R>> = Vec::with_capacity(nb);
        let mut has_indirect: Vec<bool> = Vec::with_capacity(nb);
        for (id, b) in cfg.blocks.iter().enumerate() {
            let mut uses = Vec::new();
            let mut defs = Vec::new();
            for op in &ops[b.start..b.end] {
                for u in op.uses() {
                    if is_temp(u) && defined_in[(u.0 - reg::FIRST_TEMP) as usize] != id {
                        uses.push(u);
                    }
                }
                if let Some(d) = op.def().filter(|&d| is_temp(d)) {
                    defined_in[(d.0 - reg::FIRST_TEMP) as usize] = id;
                    defs.push(d);
                }
            }
            uses.sort_unstable();
            uses.dedup();
            defs.sort_unstable();
            defs.dedup();
            has_indirect.push(matches!(ops[b.end - 1], Op::JmpR { .. }));
            use_b.push(uses);
            def_b.push(defs);
        }

        let entry_blocks: Vec<usize> = program
            .address_taken()
            .iter()
            .filter_map(|&l| cfg.block_of_label(l))
            .collect();

        let mut live_in: Vec<Vec<R>> = vec![Vec::new(); nb];
        let (mut indirect_out, mut out, mut inn, mut tmp) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut changed = true;
        while changed {
            changed = false;
            // The conservative "indirect" out-set: union of live-ins of
            // all address-taken blocks (recomputed per pass).
            indirect_out.clear();
            for &e in &entry_blocks {
                union_assign(&mut indirect_out, &live_in[e], &mut tmp);
            }
            for id in (0..nb).rev() {
                out.clear();
                for e in &cfg.blocks[id].succs {
                    union_assign(&mut out, &live_in[e.dest()], &mut tmp);
                }
                if has_indirect[id] {
                    union_assign(&mut out, &indirect_out, &mut tmp);
                }
                // in = use ∪ (out − def)
                difference_into(&out, &def_b[id], &mut tmp);
                union_into(&use_b[id], &tmp, &mut inn);
                if inn != live_in[id] {
                    std::mem::swap(&mut live_in[id], &mut inn);
                    changed = true;
                }
            }
        }
        Liveness { live_in }
    }

    /// Whether temp `r` is live at the entry of `block`. Fixed machine
    /// registers are reported live unconditionally.
    pub fn live_at_entry(&self, block: usize, r: R) -> bool {
        !is_temp(r) || self.live_in[block].binary_search(&r).is_ok()
    }

    /// The live-in temps of `block`, sorted by register id.
    pub fn live_in(&self, block: usize) -> &[R] {
        &self.live_in[block]
    }
}

/// Liveness asked by branch-target label, as the scheduler's
/// speculation rule needs it.
#[derive(Clone, Copy, Debug)]
pub struct LiveAtLabel<'a> {
    cfg: &'a Cfg,
    live: &'a Liveness,
}

impl<'a> LiveAtLabel<'a> {
    /// The label-indexed view of `live` over `cfg`.
    pub fn new(cfg: &'a Cfg, live: &'a Liveness) -> Self {
        LiveAtLabel { cfg, live }
    }

    /// Whether `r` must be treated as live at `label`'s target.
    pub fn live(&self, label: Label, r: R) -> bool {
        match self.cfg.block_of_label(label) {
            Some(b) => self.live.live_at_entry(b, r),
            None => true, // unknown label: be conservative
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_intcode::{Asm, Cond, Op, Operand, Word};

    #[test]
    fn temp_live_across_branch_edge() {
        // t written, branch to L (uses t there), fall-through halt.
        let mut a = Asm::new();
        let entry = a.fresh_label();
        let l = a.fresh_label();
        let t = a.fresh_reg();
        let u = a.fresh_reg();
        a.bind(entry);
        a.emit(Op::MvI {
            d: t,
            w: Word::int(1),
        });
        a.emit(Op::MvI {
            d: u,
            w: Word::int(2),
        });
        a.emit(Op::Br {
            cond: Cond::Eq,
            a: t,
            b: Operand::Imm(1),
            t: l,
        });
        a.emit(Op::Halt { success: false });
        a.bind(l);
        a.emit(Op::Br {
            cond: Cond::Eq,
            a: u,
            b: Operand::Imm(3),
            t: entry,
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
        let cfg = Cfg::build(&p, &stats);
        let live = Liveness::compute(&p, &cfg);
        let lbl = LiveAtLabel::new(&cfg, &live);
        // u is live at the branch target, t is not (dead after branch)
        assert!(lbl.live(l, u));
        assert!(!lbl.live(l, t));
        // fixed registers always live
        assert!(lbl.live(l, symbol_intcode::layout::reg::H));
    }
}
