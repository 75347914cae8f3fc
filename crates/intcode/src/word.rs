//! Tagged machine words.
//!
//! The SYMBOL datapath (paper §5.2) keeps registers and memory words
//! split into independently addressable fields: a small *tag* and a
//! *value*. We model the tag as an enum and the value as an `i64`
//! (addresses, integers, atom ids, packed functors or code labels,
//! depending on the tag).

use std::fmt;

/// Word tags.
///
/// `Int` is discriminant 0, so a [`Word`] of all-zero bytes is
/// `Word::int(0)`, the value every data memory starts from, and
/// [`crate::mem::DataMem`] can take its words from zeroed pages. The
/// artifact format does not see these discriminants: `wire` maps each
/// tag to its own byte.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Tag {
    /// Integer: `val` is the number.
    Int = 0,
    /// Reference: `val` is the address of a cell. An unbound variable
    /// is a `Ref` cell pointing at itself.
    Ref,
    /// Atom: `val` is the interned atom id.
    Atm,
    /// List: `val` is the heap address of a two-word cons cell.
    Lst,
    /// Structure: `val` is the heap address of a functor word followed
    /// by the arguments.
    Str,
    /// Functor word: `val` packs `name << 8 | arity`.
    Fun,
    /// Code label: `val` is a program label id (stable across
    /// rescheduling, resolved to an address by each machine).
    Cod,
}

// The precondition of `mem`'s zeroed allocation.
const _: () = assert!(Tag::Int as u8 == 0);

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tag::Ref => "ref",
            Tag::Int => "int",
            Tag::Atm => "atm",
            Tag::Lst => "lst",
            Tag::Str => "str",
            Tag::Fun => "fun",
            Tag::Cod => "cod",
        };
        f.write_str(s)
    }
}

/// A tagged word: the unit of registers and data memory.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Word {
    /// Tag field.
    pub tag: Tag,
    /// Value field.
    pub val: i64,
}

impl Word {
    /// An integer word.
    pub fn int(v: i64) -> Word {
        Word {
            tag: Tag::Int,
            val: v,
        }
    }

    /// An atom word.
    pub fn atom(id: u32) -> Word {
        Word {
            tag: Tag::Atm,
            val: id as i64,
        }
    }

    /// A self-reference (unbound variable) cell for address `addr`.
    pub fn unbound(addr: i64) -> Word {
        Word {
            tag: Tag::Ref,
            val: addr,
        }
    }

    /// A reference to `addr`.
    pub fn reference(addr: i64) -> Word {
        Word {
            tag: Tag::Ref,
            val: addr,
        }
    }

    /// A code-label word.
    pub fn code(label: u32) -> Word {
        Word {
            tag: Tag::Cod,
            val: label as i64,
        }
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}:{}>", self.tag, self.val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_tags() {
        assert_eq!(Word::int(5).tag, Tag::Int);
        assert_eq!(Word::atom(3).tag, Tag::Atm);
        assert_eq!(Word::unbound(10).tag, Tag::Ref);
        assert_eq!(Word::code(2).tag, Tag::Cod);
    }

    #[test]
    fn unbound_points_at_itself_by_construction() {
        let w = Word::unbound(42);
        assert_eq!(w.val, 42);
    }

    #[test]
    fn display_round_trip_shape() {
        assert_eq!(Word::int(-3).to_string(), "<int:-3>");
    }
}
