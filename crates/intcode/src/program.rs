//! The assembled IntCode program. [`IciProgram::new`] is its one
//! constructor: it resolves and validates every label and returns a
//! [`ProgramError`] for a defect, whatever built the ops.

use std::collections::HashMap;
use std::fmt;

use crate::op::{Label, Op};
use crate::word::Tag;

/// A structural defect found while assembling an [`IciProgram`].
///
/// On the translate path one is a compiler bug, and on generated
/// inputs (fuzz fragments, corpus files, stored artifacts) an expected
/// condition; either way [`IciProgram::new`] returns it as a value, so
/// a malformed program is diagnosed instead of panicking or executing
/// garbage.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// A label is bound past the end of the op vector.
    LabelPastEnd {
        /// The label.
        label: Label,
        /// Where it was bound.
        at: usize,
    },
    /// A label id is outside the declared `num_labels` space.
    LabelOutOfRange {
        /// The label.
        label: Label,
    },
    /// A branch references a label that is never bound.
    UnboundBranchTarget {
        /// The unbound target.
        label: Label,
    },
    /// A code-word immediate references a label that is never bound.
    UnboundCodeWord {
        /// The unbound label.
        label: Label,
    },
    /// The entry label is unbound.
    UnboundEntry {
        /// The entry label.
        label: Label,
    },
    /// The `groups` vector is not parallel to the ops.
    GroupsLengthMismatch {
        /// Number of ops.
        ops: usize,
        /// Number of group tags.
        groups: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::LabelPastEnd { label, at } => {
                write!(f, "label {label} bound past the end (at {at})")
            }
            ProgramError::LabelOutOfRange { label } => {
                write!(f, "label {label} is outside the declared label space")
            }
            ProgramError::UnboundBranchTarget { label } => {
                write!(f, "branch target {label} is unbound")
            }
            ProgramError::UnboundCodeWord { label } => {
                write!(f, "code word label {label} is unbound")
            }
            ProgramError::UnboundEntry { label } => {
                write!(f, "entry label {label} is unbound")
            }
            ProgramError::GroupsLengthMismatch { ops, groups } => {
                write!(f, "{groups} group tags for {ops} ops")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete IntCode program: a flat op vector plus the label map and
/// the entry point.
///
/// Label ids are the stable identities used by code words in data
/// memory; [`IciProgram::label_addr`] resolves them to instruction
/// indices for this particular (sequential) layout. A rescheduled VLIW
/// program keeps the same label ids but resolves them differently.
#[derive(Clone, Debug)]
pub struct IciProgram {
    ops: Vec<Op>,
    groups: Vec<u32>,
    label_addr: Vec<usize>,
    entry: Label,
    entries: Vec<Label>,
}

impl IciProgram {
    /// Builds a program, resolving and validating all labels.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found: labels bound past the
    /// end or outside the declared label space, unbound branch targets,
    /// unbound code-word labels, an unbound entry, or a `groups` vector
    /// that is not parallel to the ops.
    pub fn new(
        ops: Vec<Op>,
        groups: Vec<u32>,
        label_at: HashMap<Label, usize>,
        num_labels: u32,
        entry: Label,
    ) -> Result<Self, ProgramError> {
        if groups.len() != ops.len() {
            return Err(ProgramError::GroupsLengthMismatch {
                ops: ops.len(),
                groups: groups.len(),
            });
        }
        let mut label_addr = vec![usize::MAX; num_labels as usize];
        for (l, at) in &label_at {
            if l.0 >= num_labels {
                return Err(ProgramError::LabelOutOfRange { label: *l });
            }
            if *at > ops.len() {
                return Err(ProgramError::LabelPastEnd { label: *l, at: *at });
            }
            label_addr[l.0 as usize] = *at;
        }
        let bound =
            |l: Label| (l.0 as usize) < label_addr.len() && label_addr[l.0 as usize] != usize::MAX;
        if !bound(entry) {
            return Err(ProgramError::UnboundEntry { label: entry });
        }
        // Every label referenced by a branch or a code word must be bound.
        let mut entries = vec![entry];
        for op in &ops {
            if let Some(t) = op.target() {
                if !bound(t) {
                    return Err(ProgramError::UnboundBranchTarget { label: t });
                }
            }
            if let Op::MvI { w, .. } = op {
                if w.tag == Tag::Cod {
                    let l = Label(w.val as u32);
                    if !bound(l) {
                        return Err(ProgramError::UnboundCodeWord { label: l });
                    }
                    entries.push(l);
                }
            }
        }
        entries.sort_unstable();
        entries.dedup();
        Ok(IciProgram {
            ops,
            groups,
            label_addr,
            entry,
            entries,
        })
    }

    /// The ops in sequential layout order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// BAM-instruction group id of each op (parallel to [`Self::ops`]).
    pub fn groups(&self) -> &[u32] {
        &self.groups
    }

    /// Resolves a label to its instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the label is unbound (cannot happen for labels that
    /// passed construction validation).
    pub fn label_addr(&self, l: Label) -> usize {
        let a = self.label_addr[l.0 as usize];
        assert!(a != usize::MAX, "label {l} is unbound");
        a
    }

    /// The raw label→address table (`usize::MAX` = unbound).
    pub fn label_table(&self) -> &[usize] {
        &self.label_addr
    }

    /// Program entry label.
    pub fn entry(&self) -> Label {
        self.entry
    }

    /// All *address-taken* labels: the entry plus every label stored in
    /// a code word (continuations, retry addresses, routine returns).
    /// These are the places indirect jumps can land.
    pub fn address_taken(&self) -> &[Label] {
        &self.entries
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl fmt::Display for IciProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Invert the label map for listing.
        let mut at_labels: HashMap<usize, Vec<usize>> = HashMap::new();
        for (lid, &addr) in self.label_addr.iter().enumerate() {
            if addr != usize::MAX {
                at_labels.entry(addr).or_default().push(lid);
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            if let Some(ls) = at_labels.get(&i) {
                for l in ls {
                    writeln!(f, "L{l}:")?;
                }
            }
            writeln!(f, "  {i:6}  {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::R;

    #[test]
    fn new_reports_each_defect() {
        // Unbound branch target (entry bound, target not).
        let mut labels = HashMap::new();
        labels.insert(Label(0), 0);
        let e = IciProgram::new(
            vec![Op::Jmp { t: Label(1) }],
            vec![0],
            labels.clone(),
            2,
            Label(0),
        )
        .unwrap_err();
        assert_eq!(e, ProgramError::UnboundBranchTarget { label: Label(1) });

        // Label id outside the declared space.
        let mut oob = HashMap::new();
        oob.insert(Label(7), 0);
        let e = IciProgram::new(vec![Op::Halt { success: true }], vec![0], oob, 1, Label(0))
            .unwrap_err();
        assert_eq!(e, ProgramError::LabelOutOfRange { label: Label(7) });

        // Label bound past the end.
        let mut past = HashMap::new();
        past.insert(Label(0), 5);
        let e = IciProgram::new(vec![Op::Halt { success: true }], vec![0], past, 1, Label(0))
            .unwrap_err();
        assert_eq!(
            e,
            ProgramError::LabelPastEnd {
                label: Label(0),
                at: 5
            }
        );

        // Unbound entry.
        let e = IciProgram::new(
            vec![Op::Halt { success: true }],
            vec![0],
            HashMap::new(),
            1,
            Label(0),
        )
        .unwrap_err();
        assert_eq!(e, ProgramError::UnboundEntry { label: Label(0) });

        // Groups not parallel to ops.
        let e = IciProgram::new(
            vec![Op::Halt { success: true }],
            vec![],
            labels.clone(),
            2,
            Label(0),
        )
        .unwrap_err();
        assert_eq!(e, ProgramError::GroupsLengthMismatch { ops: 1, groups: 0 });

        // Unbound code word.
        let e = IciProgram::new(
            vec![Op::MvI {
                d: R(40),
                w: crate::word::Word::code(1),
            }],
            vec![0],
            labels,
            2,
            Label(0),
        )
        .unwrap_err();
        assert_eq!(e, ProgramError::UnboundCodeWord { label: Label(1) });
    }

    #[test]
    fn new_accepts_a_well_formed_program() {
        let mut labels = HashMap::new();
        labels.insert(Label(0), 0);
        let p = IciProgram::new(
            vec![Op::Halt { success: true }],
            vec![0],
            labels,
            1,
            Label(0),
        )
        .expect("valid");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn entries_include_code_words() {
        let mut labels = HashMap::new();
        labels.insert(Label(0), 0);
        labels.insert(Label(1), 1);
        let ops = vec![
            Op::MvI {
                d: R(40),
                w: crate::word::Word::code(1),
            },
            Op::Halt { success: true },
        ];
        let p = IciProgram::new(ops, vec![0, 0], labels, 2, Label(0)).expect("valid");
        assert!(p.address_taken().contains(&Label(1)));
        assert!(p.address_taken().contains(&Label(0)));
    }
}
