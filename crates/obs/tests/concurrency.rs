//! Concurrency correctness of the atomic metric cells: many scoped
//! threads hammering shared handles must lose no updates, and
//! registration races must resolve to a single shared cell per
//! identity.

use std::thread;

use symbol_obs::{bucket_bounds, bucket_index, Registry};

#[test]
fn concurrent_counter_updates_are_lossless() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let obs = Registry::new();
    let c = obs.counter("hammered", &[]);
    thread::scope(|s| {
        for _ in 0..THREADS {
            let c = c.clone();
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(
        obs.snapshot().counters[0].value,
        THREADS as u64 * PER_THREAD
    );
}

#[test]
fn concurrent_registration_resolves_to_one_cell() {
    const THREADS: usize = 8;
    let obs = Registry::new();
    thread::scope(|s| {
        for _ in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                // Every thread find-or-creates the same identity and
                // bumps it once.
                obs.counter("raced", &[("k", "v")]).inc();
            });
        }
    });
    let snap = obs.snapshot();
    assert_eq!(snap.counters.len(), 1, "one cell per identity");
    assert_eq!(snap.counters[0].value, THREADS as u64);
}

#[test]
fn concurrent_histogram_records_preserve_count_and_sum() {
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 5_000;
    let obs = Registry::new();
    let h = obs.histogram("samples", &[]);
    thread::scope(|s| {
        for t in 0..THREADS {
            let h = h.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            });
        }
    });
    let total = THREADS * PER_THREAD;
    assert_eq!(h.count(), total);
    assert_eq!(h.sum(), total * (total - 1) / 2);
    let snap = obs.snapshot();
    let bucket_total: u64 = snap.histograms[0].buckets.iter().map(|b| b.count).sum();
    assert_eq!(bucket_total, total, "every sample landed in some bucket");
}

#[test]
fn concurrent_spans_from_worker_threads_all_surface() {
    const THREADS: usize = 4;
    let obs = Registry::new();
    thread::scope(|s| {
        for i in 0..THREADS {
            let obs = obs.clone();
            s.spawn(move || {
                let _span = obs.span("work", &[("job", &i.to_string())]);
            });
        }
    });
    let events = obs.trace_events();
    assert_eq!(events.len(), THREADS);
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort();
    tids.dedup();
    assert_eq!(tids.len(), THREADS, "each worker thread got its own tid");
}

#[test]
fn bucket_boundaries_cover_u64_without_gaps() {
    // Exhaustive walk of all 65 buckets plus spot checks at the edges
    // of each power of two.
    let mut next_expected = 0u64;
    for i in 0..symbol_obs::metrics::HISTOGRAM_BUCKETS {
        let (lo, hi) = bucket_bounds(i);
        assert_eq!(lo, next_expected, "bucket {i} starts where {} ended", i - 1);
        assert!(lo <= hi);
        if hi == u64::MAX {
            assert_eq!(i, symbol_obs::metrics::HISTOGRAM_BUCKETS - 1);
            break;
        }
        next_expected = hi + 1;
    }
    for shift in 1..64u32 {
        let v = 1u64 << shift;
        assert_eq!(bucket_index(v - 1), shift as usize, "below 2^{shift}");
        assert_eq!(bucket_index(v), shift as usize + 1, "at 2^{shift}");
    }
}
