//! The data memory the decoded engines run on.
//!
//! The BAM keeps its five data areas in one flat word memory (paper
//! §4.1, [`crate::layout`]), and every run must start on zeroed memory.
//! [`DataMem`] keeps that memory as one flat `Vec<Word>`, so a load
//! stays one bounds-checked index. A store also sets one bit for its
//! [`PAGE_WORDS`]-word page, and [`DataMem::reset`] zeroes only the
//! pages written since the last reset: starting a run costs what the
//! previous run wrote, not the size of the layout.
//!
//! A new buffer is never filled. `Word::int(0)` is the all-zero word
//! ([`crate::word::Tag`] is `repr(u8)` with `Int = 0`), so
//! [`DataMem::new`] takes its words from one zeroed allocation, which
//! the system allocator serves with fresh pages that the kernel maps
//! only when a run first touches them: a new memory costs, in time and
//! resident memory, only the pages its runs touch.
//!
//! Buffers are recycled instead of reallocated. Dropping a `DataMem`
//! hands its buffer to a process-wide free list of at most
//! [`FREE_CAP`] buffers, and the next [`DataMem::new`] of the same
//! length takes it back and resets it, re-zeroing only the pages the
//! last run wrote where a new buffer would fault in every page its run
//! touches. The list is shared by every thread because the serving tier
//! and the parallel experiment runs start new threads on every call. A
//! miss empties the list before allocating, so no idle buffer is ever
//! held while a new one is allocated.
//!
//! The legacy [`crate::emu::Emulator`] does not use this type: it keeps
//! a plain filled `Vec` as the independent oracle of the agreement
//! suite and the fuzz oracle.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::word::Word;

const PAGE_SHIFT: u32 = 10;

/// Words per page: stores are tracked, and resets zero, in pages of
/// this many words.
pub const PAGE_WORDS: usize = 1 << PAGE_SHIFT;

/// The most dropped buffers the process-wide free list keeps.
pub const FREE_CAP: usize = 8;

/// A dropped buffer and its written-page bitmap.
type Spare = (Vec<Word>, Vec<u64>);

static FREE: Mutex<Vec<Spare>> = Mutex::new(Vec::new());

fn free_list() -> MutexGuard<'static, Vec<Spare>> {
    // Entries are pushed and popped whole, so a thread that panicked
    // while holding the lock cannot have left a torn one behind.
    FREE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a spare buffer of `len` words off `free`. On a miss the whole
/// list is returned for the caller to drop outside the lock.
fn take_spare(free: &mut Vec<Spare>, len: usize) -> Result<Spare, Vec<Spare>> {
    match free.iter().position(|(words, _)| words.len() == len) {
        Some(i) => Ok(free.swap_remove(i)),
        None => Err(std::mem::take(free)),
    }
}

/// `len` words of `Word::int(0)` from one zeroed allocation. The
/// system allocator serves a large zeroed request with fresh anonymous
/// pages, which the kernel maps only when a run first touches them.
#[allow(unsafe_code)]
fn zeroed_words(len: usize) -> Vec<Word> {
    let words = Box::<[Word]>::new_zeroed_slice(len);
    // SAFETY: every byte is zero, and a `Word` of zero bytes is valid:
    // its `Tag` is `repr(u8)` with `Int = 0` (asserted beside `Tag`)
    // and its `val` is an `i64`, so each word reads as `Word::int(0)`.
    // Padding bytes may hold anything.
    unsafe { words.assume_init() }.into_vec()
}

/// A zero-initialised flat word memory that resets only the pages
/// written since the last reset.
#[derive(Debug, Default)]
pub struct DataMem {
    words: Vec<Word>,
    /// One bit per page, set by the page's first store since the last
    /// reset.
    written: Vec<u64>,
}

impl DataMem {
    /// Zeroed memory of `len` words, reusing a dropped buffer of the
    /// same length when the free list has one, and otherwise taking
    /// fresh zero pages that become resident only when touched.
    pub fn new(len: usize) -> Self {
        if len == 0 {
            return DataMem::default();
        }
        let taken = take_spare(&mut free_list(), len);
        match taken {
            Ok((words, written)) => {
                let mut mem = DataMem { words, written };
                mem.reset();
                mem
            }
            Err(evicted) => {
                drop(evicted);
                DataMem {
                    words: zeroed_words(len),
                    written: vec![0; len.div_ceil(PAGE_WORDS).div_ceil(64)],
                }
            }
        }
    }

    /// Length in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The word at `i`, or `None` when `i` is out of range.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<Word> {
        self.words.get(i).copied()
    }

    /// Stores `w` at `i` and marks its page written; `None` when `i` is
    /// out of range (nothing is stored).
    #[inline(always)]
    pub fn set(&mut self, i: usize, w: Word) -> Option<()> {
        *self.words.get_mut(i)? = w;
        let page = i >> PAGE_SHIFT;
        let (bits, bit) = (&mut self.written[page / 64], 1 << (page % 64));
        // Write the bitmap only on the page's first store: bitmaps of
        // engines on other threads may share its cache line, and a
        // write on every store made two serving workers run no faster
        // than one.
        if *bits & bit == 0 {
            *bits |= bit;
        }
        Some(())
    }

    /// Zeroes every page written since the last reset.
    pub fn reset(&mut self) {
        for (chunk, bits) in self.written.iter_mut().enumerate() {
            if *bits == 0 {
                continue;
            }
            let mut pending = std::mem::take(bits);
            while pending != 0 {
                let page = chunk * 64 + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let start = page << PAGE_SHIFT;
                let end = (start + PAGE_WORDS).min(self.words.len());
                self.words[start..end].fill(Word::int(0));
            }
        }
    }
}

impl Drop for DataMem {
    fn drop(&mut self) {
        if self.words.is_empty() {
            return;
        }
        let mut free = free_list();
        if free.len() < FREE_CAP {
            free.push((
                std::mem::take(&mut self.words),
                std::mem::take(&mut self.written),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::Tag;

    /// SplitMix64: a seeded stream for the model test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn garbage(v: u64) -> Word {
        Word {
            tag: Tag::Str,
            val: v as i64 | 1,
        }
    }

    #[test]
    fn random_stores_loads_and_resets_match_a_plain_vec() {
        // Not a multiple of the page size: the last page is partial.
        let len = 5 * PAGE_WORDS + 123;
        for seed in 0..8u64 {
            let mut rng = Rng(seed);
            let mut mem = DataMem::new(len);
            let mut model = vec![Word::int(0); len];
            for _ in 0..4_000 {
                match rng.below(100) {
                    0..=44 => {
                        // Bias towards the edges of pages and of memory.
                        let i = match rng.below(4) {
                            0 => len - 1,
                            1 => (rng.below(len / PAGE_WORDS + 1) * PAGE_WORDS).min(len - 1),
                            2 => (rng.below(len / PAGE_WORDS) + 1) * PAGE_WORDS - 1,
                            _ => rng.below(len),
                        };
                        let w = garbage(rng.next());
                        assert_eq!(mem.set(i, w), Some(()));
                        model[i] = w;
                    }
                    45..=94 => {
                        let i = rng.below(len);
                        assert_eq!(mem.get(i), Some(model[i]), "word {i}, seed {seed}");
                    }
                    95..=97 => {
                        let i = len + rng.below(3 * PAGE_WORDS);
                        assert_eq!(mem.get(i), None);
                        assert_eq!(mem.set(i, garbage(1)), None);
                    }
                    _ => {
                        mem.reset();
                        model.fill(Word::int(0));
                    }
                }
            }
            for (i, &w) in model.iter().enumerate() {
                assert_eq!(mem.get(i), Some(w), "word {i}, seed {seed}");
            }
            mem.reset();
            assert!((0..len).all(|i| mem.get(i) == Some(Word::int(0))));
        }
    }

    #[test]
    fn boundary_words_round_trip() {
        let len = 3 * PAGE_WORDS + 7;
        let mut mem = DataMem::new(len);
        let edges = [
            0,
            PAGE_WORDS - 1,
            PAGE_WORDS,
            2 * PAGE_WORDS - 1,
            3 * PAGE_WORDS,
            len - 1,
        ];
        for (k, &i) in edges.iter().enumerate() {
            mem.set(i, garbage(k as u64)).expect("in range");
        }
        for (k, &i) in edges.iter().enumerate() {
            assert_eq!(mem.get(i), Some(garbage(k as u64)));
        }
        assert_eq!(mem.get(len), None);
        assert_eq!(mem.set(len, garbage(9)), None);
        assert_eq!(mem.get(usize::MAX), None);
        mem.reset();
        for &i in &edges {
            assert_eq!(mem.get(i), Some(Word::int(0)));
        }
    }

    #[test]
    fn free_list_hands_back_only_matching_lengths() {
        let spare = |len: usize| (vec![Word::int(0); len], vec![0u64; 1]);
        let mut free = vec![spare(10), spare(20), spare(30)];
        let (words, _) = take_spare(&mut free, 20).expect("hit");
        assert_eq!(words.len(), 20);
        assert_eq!(free.len(), 2);
        // A miss empties the list rather than holding idle buffers
        // while a new one is allocated.
        let evicted = take_spare(&mut free, 40).expect_err("miss");
        assert_eq!(evicted.len(), 2);
        assert!(free.is_empty());
    }

    #[test]
    fn empty_memory_has_no_words() {
        let mut mem = DataMem::new(0);
        assert!(mem.is_empty());
        assert_eq!(mem.get(0), None);
        assert_eq!(mem.set(0, Word::int(1)), None);
        mem.reset();
    }
}
