//! Register allocation for scheduled code.
//!
//! The compactor schedules over an unbounded virtual register space
//! (the paper's renaming, §3.1); real hardware has the prototype's
//! 16-entry banks (§5.2). This pass folds the temporaries of a
//! scheduled [`VliwProgram`] into a fixed physical pool by graph
//! coloring over word-granularity liveness — no spilling is attempted:
//! if the program needs more registers than the budget, allocation
//! fails with the measured requirement (our benchmarks need at most
//! 16, see the `register_pressure` example).
//!
//! Fixed machine registers (heap/stack pointers, argument registers,
//! ...) are architectural and keep their identities.

use std::collections::{HashMap, HashSet};

use symbol_intcode::layout::reg;
use symbol_intcode::{Op, R};
use symbol_vliw::{SlotOp, VliwProgram};

/// Allocation failure: the program's pressure exceeds the budget.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutOfRegisters {
    /// Registers the program would need.
    pub required: usize,
    /// The physical budget given.
    pub budget: usize,
}

impl std::fmt::Display for OutOfRegisters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "register allocation needs {} temporaries but the budget is {}",
            self.required, self.budget
        )
    }
}

impl std::error::Error for OutOfRegisters {}

fn is_temp(r: R) -> bool {
    r.0 >= reg::FIRST_TEMP
}

/// Word-granularity liveness of temporaries (shared with the pressure
/// analysis): `live_in[i]` is the set of temps live when word `i`
/// issues. Temps never survive indirect transfers by construction.
pub fn temp_liveness(program: &VliwProgram) -> Vec<HashSet<R>> {
    let n = program.len();
    let mut uses: Vec<HashSet<R>> = Vec::with_capacity(n);
    let mut defs: Vec<HashSet<R>> = Vec::with_capacity(n);
    let mut succs: Vec<Vec<usize>> = Vec::with_capacity(n);

    for (i, w) in program.words().enumerate() {
        let mut u = HashSet::new();
        let mut d = HashSet::new();
        let mut s = Vec::new();
        let mut falls = true;
        for slot in w {
            for r in slot.op.uses() {
                if is_temp(r) {
                    u.insert(r);
                }
            }
            if let Some(r) = slot.op.def() {
                if is_temp(r) {
                    d.insert(r);
                }
            }
            match &slot.op {
                Op::Jmp { t } => {
                    s.push(program.label_addr(*t));
                    falls = false;
                }
                Op::JmpR { .. } | Op::Halt { .. } => falls = false,
                o if o.is_control() => {
                    if let Some(t) = o.target() {
                        s.push(program.label_addr(t));
                    }
                }
                _ => {}
            }
        }
        if falls && i + 1 < n {
            s.push(i + 1);
        }
        s.retain(|&x| x < n);
        uses.push(u);
        defs.push(d);
        succs.push(s);
    }

    let mut live_in: Vec<HashSet<R>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out: HashSet<R> = HashSet::new();
            for &s in &succs[i] {
                out.extend(live_in[s].iter().copied());
            }
            let mut inn = uses[i].clone();
            for r in out {
                if !defs[i].contains(&r) {
                    inn.insert(r);
                }
            }
            if inn != live_in[i] {
                live_in[i] = inn;
                changed = true;
            }
        }
    }
    live_in
}

/// Allocates the temporaries of `program` into at most `budget`
/// physical registers (`FIRST_TEMP .. FIRST_TEMP + budget`).
///
/// Returns the rewritten program and the number of physical registers
/// actually used.
///
/// # Errors
///
/// [`OutOfRegisters`] when the interference graph cannot be colored
/// within the budget (no spill code is generated).
pub fn allocate(
    program: &VliwProgram,
    budget: usize,
) -> Result<(VliwProgram, usize), OutOfRegisters> {
    let n = program.len();
    let live_in = temp_liveness(program);

    // live-out per word = union of successors' live-ins; recompute the
    // successor lists cheaply by reusing liveness rules.
    // Interference: (a) temps co-live at a word interfere;
    // (b) a def interferes with everything live right after the word.
    let mut interf: HashMap<R, HashSet<R>> = HashMap::new();
    let touch = |a: R, b: R, interf: &mut HashMap<R, HashSet<R>>| {
        if a != b {
            interf.entry(a).or_default().insert(b);
            interf.entry(b).or_default().insert(a);
        }
    };
    for i in 0..n {
        let live: Vec<R> = live_in[i].iter().copied().collect();
        for (x, &a) in live.iter().enumerate() {
            for &b in &live[x + 1..] {
                touch(a, b, &mut interf);
            }
        }
        // defs of word i interfere with live-in of word i+1 and of the
        // branch targets; approximate with live_in[i+1..] via the
        // next-word set plus branch-target sets
        let mut after: HashSet<R> = HashSet::new();
        let mut falls = true;
        for slot in program.word(i) {
            match &slot.op {
                Op::Jmp { t } => {
                    let a = program.label_addr(*t);
                    if a < n {
                        after.extend(live_in[a].iter().copied());
                    }
                    falls = false;
                }
                Op::JmpR { .. } | Op::Halt { .. } => falls = false,
                o if o.is_control() => {
                    if let Some(t) = o.target() {
                        let a = program.label_addr(t);
                        if a < n {
                            after.extend(live_in[a].iter().copied());
                        }
                    }
                }
                _ => {}
            }
        }
        if falls && i + 1 < n {
            after.extend(live_in[i + 1].iter().copied());
        }
        for slot in program.word(i) {
            if let Some(d) = slot.op.def() {
                if is_temp(d) {
                    interf.entry(d).or_default();
                    for &b in &after {
                        touch(d, b, &mut interf);
                    }
                }
            }
        }
    }

    // Greedy coloring in first-appearance order.
    let mut order: Vec<R> = Vec::new();
    let mut seen: HashSet<R> = HashSet::new();
    for slot in program.slots() {
        for r in slot.op.uses().into_iter().chain(slot.op.def()) {
            if is_temp(r) && seen.insert(r) {
                order.push(r);
            }
        }
    }
    let mut color: HashMap<R, u32> = HashMap::new();
    let mut used = 0usize;
    for r in order {
        let mut taken: HashSet<u32> = HashSet::new();
        if let Some(ns) = interf.get(&r) {
            for nb in ns {
                if let Some(&c) = color.get(nb) {
                    taken.insert(c);
                }
            }
        }
        let c = (0..)
            .find(|c| !taken.contains(c))
            .expect("unbounded search");
        if c as usize >= budget {
            // count the true requirement for the error message
            let required = color.values().copied().max().unwrap_or(0) as usize + 2;
            return Err(OutOfRegisters {
                required: required.max(c as usize + 1),
                budget,
            });
        }
        used = used.max(c as usize + 1);
        color.insert(r, c);
    }

    // Rewrite.
    let map = |r: R| -> R {
        if is_temp(r) {
            R(reg::FIRST_TEMP + color[&r])
        } else {
            r
        }
    };
    let slots = program
        .slots()
        .iter()
        .map(|s| SlotOp {
            unit: s.unit,
            op: rewrite(&s.op, &map),
            speculative: s.speculative,
        })
        .collect();
    // The label table, up to the last bound label.
    let num_labels = program
        .bound_labels()
        .map(|(l, _)| l.0 as usize + 1)
        .max()
        .unwrap_or(1);
    let label_addr = program.label_table()[..num_labels].to_vec();
    let word_end = program.word_ends().to_vec();
    Ok((
        VliwProgram::new(slots, word_end, label_addr, program.entry()),
        used,
    ))
}

fn rewrite(op: &Op, map: &impl Fn(R) -> R) -> Op {
    use symbol_intcode::Operand;
    let mo = |o: &Operand| match o {
        Operand::Reg(r) => Operand::Reg(map(*r)),
        Operand::Imm(i) => Operand::Imm(*i),
    };
    match op {
        Op::Ld { d, base, off } => Op::Ld {
            d: map(*d),
            base: map(*base),
            off: *off,
        },
        Op::St { s, base, off } => Op::St {
            s: map(*s),
            base: map(*base),
            off: *off,
        },
        Op::Mv { d, s } => Op::Mv {
            d: map(*d),
            s: map(*s),
        },
        Op::MvI { d, w } => Op::MvI { d: map(*d), w: *w },
        Op::Alu { op: o, d, a, b } => Op::Alu {
            op: *o,
            d: map(*d),
            a: map(*a),
            b: mo(b),
        },
        Op::AddA { d, a, b } => Op::AddA {
            d: map(*d),
            a: map(*a),
            b: mo(b),
        },
        Op::MkTag { d, s, tag } => Op::MkTag {
            d: map(*d),
            s: map(*s),
            tag: *tag,
        },
        Op::Br { cond, a, b, t } => Op::Br {
            cond: *cond,
            a: map(*a),
            b: mo(b),
            t: *t,
        },
        Op::BrTag { a, tag, eq, t } => Op::BrTag {
            a: map(*a),
            tag: *tag,
            eq: *eq,
            t: *t,
        },
        Op::BrWord { a, w, eq, t } => Op::BrWord {
            a: map(*a),
            w: *w,
            eq: *eq,
            t: *t,
        },
        Op::BrWEq { a, b, eq, t } => Op::BrWEq {
            a: map(*a),
            b: map(*b),
            eq: *eq,
            t: *t,
        },
        Op::Jmp { t } => Op::Jmp { t: *t },
        Op::JmpR { r } => Op::JmpR { r: map(*r) },
        Op::Halt { success } => Op::Halt { success: *success },
    }
}
