//! Very long instruction words and scheduled programs.

use std::collections::HashMap;
use std::fmt;

use symbol_intcode::{Label, Op};

/// One operation placed in a unit slot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SlotOp {
    /// Unit index the op issues on.
    pub unit: usize,
    /// The operation.
    pub op: Op,
    /// Whether the compactor hoisted this op above a side exit. A
    /// speculative op's faults (bad address, division by zero) are
    /// dismissed — it produces a garbage value that is provably dead on
    /// the path where the fault can occur.
    pub speculative: bool,
}

/// A scheduled VLIW program: its instruction words plus the label map
/// (labels resolve to instruction indices; label ids are shared with
/// the original IntCode program, so code words in data memory remain
/// valid).
///
/// A word is the set of operations issued in a single cycle, branches
/// in the order they are evaluated (multi-way branch priority). Every
/// word's slots sit back to back in one vector, and the words are its
/// consecutive slices, so a program of any length is two allocations.
#[derive(Clone, Debug)]
pub struct VliwProgram {
    /// Every word's slots, word after word.
    slots: Vec<SlotOp>,
    /// `word_end[i]` is one past word `i`'s last slot.
    word_end: Vec<u32>,
    label_addr: Vec<usize>,
    entry: Label,
}

impl VliwProgram {
    /// Builds a program from its slots, the end offset of each word
    /// (word `i` is `slots[word_end[i - 1]..word_end[i]]`, the first
    /// word starting at 0), and its label table (`label_addr[l]` is the
    /// word label `l` is bound to, `usize::MAX` when unbound).
    ///
    /// # Panics
    ///
    /// Panics if the word ends decrease or do not end at `slots.len()`,
    /// if a branch target is unbound, or if the entry label is unbound.
    pub fn new(
        slots: Vec<SlotOp>,
        word_end: Vec<u32>,
        label_addr: Vec<usize>,
        entry: Label,
    ) -> Self {
        assert!(
            word_end.windows(2).all(|w| w[0] <= w[1])
                && word_end.last().map_or(0, |&e| e as usize) == slots.len(),
            "word ends do not partition the slots"
        );
        for s in &slots {
            if let Some(t) = s.op.target() {
                assert!(
                    label_addr
                        .get(t.0 as usize)
                        .is_some_and(|&a| a != usize::MAX),
                    "branch target {t} unbound in VLIW program"
                );
            }
        }
        assert!(
            label_addr
                .get(entry.0 as usize)
                .is_some_and(|&a| a != usize::MAX),
            "entry label unbound"
        );
        VliwProgram {
            slots,
            word_end,
            label_addr,
            entry,
        }
    }

    /// Word `i`'s slots.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`VliwProgram::len`].
    pub fn word(&self, i: usize) -> &[SlotOp] {
        let start = match i {
            0 => 0,
            _ => self.word_end[i - 1] as usize,
        };
        &self.slots[start..self.word_end[i] as usize]
    }

    /// The instruction words, in address order.
    pub fn words(&self) -> impl ExactSizeIterator<Item = &[SlotOp]> + '_ {
        (0..self.len()).map(|i| self.word(i))
    }

    /// Every word's slots, word after word.
    pub fn slots(&self) -> &[SlotOp] {
        &self.slots
    }

    /// One past each word's last slot in [`VliwProgram::slots`].
    pub fn word_ends(&self) -> &[u32] {
        &self.word_end
    }

    /// Resolves a label to an instruction index (`usize::MAX` when the
    /// label does not exist in this program).
    pub fn label_addr(&self, l: Label) -> usize {
        self.label_addr
            .get(l.0 as usize)
            .copied()
            .unwrap_or(usize::MAX)
    }

    /// The raw label→address table (`usize::MAX` = unbound).
    pub fn label_table(&self) -> &[usize] {
        &self.label_addr
    }

    /// Entry label.
    pub fn entry(&self) -> Label {
        self.entry
    }

    /// Every bound label with its instruction index.
    pub fn bound_labels(&self) -> impl Iterator<Item = (Label, usize)> + '_ {
        self.label_addr
            .iter()
            .enumerate()
            .filter(|(_, &a)| a != usize::MAX)
            .map(|(lid, &a)| (Label(lid as u32), a))
    }

    /// Total number of operations across all words.
    pub fn num_ops(&self) -> usize {
        self.slots.len()
    }

    /// Number of instruction words.
    pub fn len(&self) -> usize {
        self.word_end.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.word_end.is_empty()
    }
}

/// Writes one word as `[u0:op || u1:op]`.
fn fmt_word(word: &[SlotOp], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "[")?;
    for (i, s) in word.iter().enumerate() {
        if i > 0 {
            write!(f, " || ")?;
        }
        write!(f, "u{}:{}", s.unit, s.op)?;
    }
    write!(f, "]")
}

impl fmt::Display for VliwProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut at_labels: HashMap<usize, Vec<usize>> = HashMap::new();
        for (lid, &addr) in self.label_addr.iter().enumerate() {
            if addr != usize::MAX {
                at_labels.entry(addr).or_default().push(lid);
            }
        }
        for (i, w) in self.words().enumerate() {
            if let Some(ls) = at_labels.get(&i) {
                for l in ls {
                    writeln!(f, "L{l}:")?;
                }
            }
            write!(f, "  {i:6}  ")?;
            fmt_word(w, f)?;
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Test helper: a program from explicit words and `(label, word)`
/// bindings, label 0 being the entry.
#[cfg(test)]
pub(crate) fn from_words(words: Vec<Vec<SlotOp>>, labels: &[(u32, usize)]) -> VliwProgram {
    let mut word_end = Vec::new();
    let slots: Vec<SlotOp> = words
        .into_iter()
        .flat_map(|w| {
            let end = word_end.last().copied().unwrap_or(0) + w.len() as u32;
            word_end.push(end);
            w
        })
        .collect();
    let num = labels.iter().map(|&(l, _)| l + 1).max().unwrap_or(1);
    let mut label_addr = vec![usize::MAX; num as usize];
    for &(l, at) in labels {
        label_addr[l as usize] = at;
    }
    VliwProgram::new(slots, word_end, label_addr, Label(0))
}
