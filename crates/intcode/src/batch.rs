//! Batched multi-query execution against one shared [`DecodedProgram`].
//!
//! The serving tier answers many independent queries against the same
//! compiled image. This module keeps per-query engine state in a
//! reusable pool, so a query pays neither an allocation nor a fill of
//! the whole data memory:
//!
//! * [`ArenaPool`] owns the register file and [`DataMem`] a batch runs
//!   on. Between queries the register file is re-zeroed in place and
//!   the memory zeroes only the pages the previous query wrote. A new
//!   pool's first memory comes from [`DataMem::new`], which recycles a
//!   buffer dropped by an earlier engine of the same length, or else
//!   takes fresh zero pages, so a new worker's first query pays only
//!   for the pages it touches.
//! * [`run_batch`] executes a slice of queries back-to-back on one
//!   pool (the decode tables stay hot in cache);
//!   [`run_batch_parallel`] fans contiguous chunks out across scoped
//!   threads, each with its own pool.
//!
//! ## Determinism
//!
//! Every query is an independent, deterministic execution of the same
//! image: results depend only on the program, layout and the query's
//! own [`ExecConfig`]. Both entry points return answers **in query
//! index order**, so the output is bit-identical to running each query
//! alone with [`DecodedEmulator::new`] + `run_with_stats` — regardless
//! of worker count, batch size, or which worker ran which chunk. The
//! workspace agreement suite and the fuzz oracle's concurrent stage
//! assert this against the sequential engines.

use crate::decode::{DecodedEmulator, DecodedProgram};
use crate::emu::{ExecConfig, ExecError, Outcome};
use crate::layout::Layout;
use crate::mem::DataMem;
use crate::word::Word;

/// The reusable engine state a batch runs on: one register file and
/// one [`DataMem`], shaped by the image on first use and reused in
/// place afterwards. Not thread-safe by design: each worker or caller
/// owns its pool, so the hot path has no synchronization.
#[derive(Debug, Default)]
pub struct ArenaPool {
    regs: Vec<Word>,
    mem: DataMem,
}

impl ArenaPool {
    /// An empty pool.
    pub fn new() -> Self {
        ArenaPool::default()
    }
}

/// The answer to one query of a batch: what `run` would have returned,
/// plus the exact step count — bit-identical to a standalone
/// sequential execution of the same query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchOutcome {
    /// `Ok(outcome)` on a completed run, the engine error otherwise
    /// (step limit, bad address, ... — exactly the sequential error).
    pub result: Result<Outcome, ExecError>,
    /// Steps executed (also exact on the error paths).
    pub steps: u64,
}

/// Runs `queries` back-to-back against `program`, every query's engine
/// on the pool's state. Returns one [`BatchOutcome`] per query, in
/// query index order.
///
/// The hot path performs no per-query allocation once the pool has
/// taken the image's shape: each query re-zeroes the same register
/// file and only the memory pages the previous query wrote.
pub fn run_batch(
    program: &DecodedProgram,
    layout: &Layout,
    queries: &[ExecConfig],
    pool: &mut ArenaPool,
) -> Vec<BatchOutcome> {
    let mut out = Vec::with_capacity(queries.len());
    for cfg in queries {
        let (regs, mem) = (
            std::mem::take(&mut pool.regs),
            std::mem::take(&mut pool.mem),
        );
        let mut emu = DecodedEmulator::new_in(program, layout, regs, mem);
        let (result, steps) = emu.run_pooled(cfg);
        (pool.regs, pool.mem) = emu.into_buffers();
        out.push(BatchOutcome { result, steps });
    }
    out
}

/// [`run_batch`] fanned out over `workers` scoped threads: the query
/// slice is split into contiguous chunks, each worker runs its chunk
/// back-to-back on its own pool, and the answers are reassembled in
/// query index order — bit-identical to [`run_batch`] with any worker
/// count.
///
/// # Panics
///
/// Propagates a worker thread's panic with its payload (the emulator
/// itself never panics on any program; the serving tier additionally
/// wraps batch execution in `catch_unwind`).
pub fn run_batch_parallel(
    program: &DecodedProgram,
    layout: &Layout,
    queries: &[ExecConfig],
    workers: usize,
) -> Vec<BatchOutcome> {
    let workers = workers.max(1).min(queries.len().max(1));
    if workers == 1 {
        return run_batch(program, layout, queries, &mut ArenaPool::new());
    }
    let chunk = queries.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|q| s.spawn(move || run_batch(program, layout, q, &mut ArenaPool::new())))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::op::{AluOp, Cond, Op, Operand};
    use crate::program::IciProgram;

    fn tiny_layout() -> Layout {
        Layout {
            heap_size: 64,
            env_size: 64,
            cp_size: 64,
            trail_size: 64,
            pdl_size: 64,
        }
    }

    fn counted_loop(bound: i64) -> IciProgram {
        let mut a = Asm::new();
        let e = a.fresh_label();
        let lp = a.fresh_label();
        let i = a.fresh_reg();
        a.bind(e);
        a.emit(Op::MvI {
            d: i,
            w: Word::int(0),
        });
        a.bind(lp);
        a.emit(Op::Alu {
            op: AluOp::Add,
            d: i,
            a: i,
            b: Operand::Imm(1),
        });
        a.emit(Op::Br {
            cond: Cond::Lt,
            a: i,
            b: Operand::Imm(bound),
            t: lp,
        });
        a.emit(Op::Halt { success: true });
        a.finish(e)
    }

    fn sequential_reference(
        program: &DecodedProgram,
        layout: &Layout,
        cfg: &ExecConfig,
    ) -> BatchOutcome {
        let (result, _stats, steps) = DecodedEmulator::new(program, layout).run_with_stats(cfg);
        BatchOutcome { result, steps }
    }

    fn mixed_queries() -> Vec<ExecConfig> {
        // Successful runs interleaved with step-limited ones, including
        // limits landing mid-loop — the batch path must reproduce each
        // sequential result exactly, in order.
        vec![
            ExecConfig::default(),
            ExecConfig { max_steps: 7 },
            ExecConfig::default(),
            ExecConfig { max_steps: 0 },
            ExecConfig { max_steps: 100 },
            ExecConfig::default(),
            ExecConfig { max_steps: 13 },
        ]
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_per_query() {
        let p = counted_loop(500);
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let queries = mixed_queries();
        let want: Vec<BatchOutcome> = queries
            .iter()
            .map(|cfg| sequential_reference(&decoded, &layout, cfg))
            .collect();
        let mut pool = ArenaPool::new();
        let got = run_batch(&decoded, &layout, &queries, &mut pool);
        assert_eq!(got, want);
        assert_eq!(
            pool.mem.len(),
            layout.total(),
            "the batch's memory is back in the pool"
        );
        // A second batch on the same pool reuses the buffers and stays
        // bit-identical (no state leaks between queries or batches).
        let again = run_batch(&decoded, &layout, &queries, &mut pool);
        assert_eq!(again, want);
        assert_eq!(pool.mem.len(), layout.total());
    }

    #[test]
    fn parallel_batches_are_independent_of_worker_count() {
        let p = counted_loop(300);
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let queries: Vec<ExecConfig> = (0..17)
            .map(|i| match i % 3 {
                0 => ExecConfig::default(),
                1 => ExecConfig { max_steps: i },
                _ => ExecConfig { max_steps: 50 },
            })
            .collect();
        let want = run_batch(&decoded, &layout, &queries, &mut ArenaPool::new());
        for workers in [1, 2, 4, 8, 32] {
            let got = run_batch_parallel(&decoded, &layout, &queries, workers);
            assert_eq!(got, want, "{workers}-worker batch diverged");
        }
    }

    #[test]
    fn empty_and_oversubscribed_batches_are_fine() {
        let p = counted_loop(10);
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        assert!(run_batch_parallel(&decoded, &layout, &[], 4).is_empty());
        let one = [ExecConfig::default()];
        let got = run_batch_parallel(&decoded, &layout, &one, 16);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].result, Ok(Outcome::Success));
    }

    /// Loads address `at`, then stores a non-zero word there; halts
    /// with success only if the load read zero.
    fn load_then_scribble(at: i64) -> IciProgram {
        let mut a = Asm::new();
        let e = a.fresh_label();
        let clean = a.fresh_label();
        let (base, seen, junk) = (a.fresh_reg(), a.fresh_reg(), a.fresh_reg());
        a.bind(e);
        a.emit(Op::MvI {
            d: base,
            w: Word::int(at),
        });
        a.emit(Op::MvI {
            d: junk,
            w: Word::atom(7),
        });
        a.emit(Op::Ld {
            d: seen,
            base,
            off: 0,
        });
        a.emit(Op::St {
            s: junk,
            base,
            off: 0,
        });
        a.emit(Op::BrWord {
            a: seen,
            w: Word::int(0),
            eq: true,
            t: clean,
        });
        a.emit(Op::Halt { success: false });
        a.bind(clean);
        a.emit(Op::Halt { success: true });
        a.finish(e)
    }

    #[test]
    fn each_query_starts_on_zeroed_memory() {
        let layout = tiny_layout();
        let mut pool = ArenaPool::new();
        // The last word, a page-interior word and the first word.
        for at in [layout.total() as i64 - 1, 200, 0] {
            let decoded = DecodedProgram::new(&load_then_scribble(at));
            let two = [ExecConfig::default(), ExecConfig::default()];
            for _ in 0..2 {
                let got = run_batch(&decoded, &layout, &two, &mut pool);
                assert!(
                    got.iter().all(|o| o.result == Ok(Outcome::Success)),
                    "address {at}: a query saw the previous query's store: {got:?}"
                );
            }
        }
    }

    #[test]
    fn arena_buffers_are_recycled_not_reallocated() {
        let p = counted_loop(10);
        let layout = tiny_layout();
        let decoded = DecodedProgram::new(&p);
        let mut pool = ArenaPool::new();
        run_batch(&decoded, &layout, &[ExecConfig::default()], &mut pool);
        assert_eq!(
            pool.mem.len(),
            layout.total(),
            "memory took the image shape"
        );
        assert!(pool.regs.len() >= decoded.num_regs, "so did the registers");
        let regs = (pool.regs.as_ptr(), pool.regs.capacity());
        run_batch(&decoded, &layout, &mixed_queries(), &mut pool);
        assert_eq!(
            (pool.regs.as_ptr(), pool.regs.capacity()),
            regs,
            "later batches reuse the same register file"
        );
        assert_eq!(pool.mem.len(), layout.total());
    }
}
