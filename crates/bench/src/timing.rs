//! A small, dependency-free timing harness for the `benches/` targets.
//!
//! Two ways to time:
//!
//! * [`Harness`]: each kernel is warmed up, calibrated to a fixed
//!   wall-clock budget, then timed over a batch of iterations, and the
//!   harness reports the mean time per iteration. A best-effort number
//!   for spotting regressions, not a comparison: two kernels timed
//!   minutes apart see different machines.
//! * [`interleave`]: several engines timed back to back, in rounds of
//!   a few passes whose order alternates, so that every engine sees the
//!   same machine. Each engine reports the median and quartiles
//!   ([`Spread`]) of its rounds' fastest passes, and [`sign_test`] says
//!   how often one engine beat another round by round. A gate built on
//!   it passes only when the count is too high for chance.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget for one timed kernel (after warm-up).
const MEASURE_BUDGET: Duration = Duration::from_millis(200);
/// Wall-clock budget for the calibration warm-up.
const WARMUP_BUDGET: Duration = Duration::from_millis(50);
/// Iteration-count clamp, so pathological kernels neither spin
/// forever nor report a single noisy sample.
const MAX_ITERS: u64 = 100_000;

/// One recorded kernel timing.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Kernel name as passed to [`Harness::bench_function`].
    pub name: String,
    /// Mean wall-clock time per iteration.
    pub mean: Duration,
    /// Iterations in the measured batch.
    pub iters: u64,
}

/// Collects and prints kernel timings; the drop-in stand-in for the
/// previous external benchmarking dependency.
#[derive(Default, Debug)]
pub struct Harness {
    samples: Vec<Sample>,
}

/// Passed to the kernel closure; [`Bencher::iter`] runs and times the
/// measured batch.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over the calibrated batch, preventing the optimizer
    /// from discarding its result.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

impl Harness {
    /// An empty harness.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Warm-up, calibrate, and time one kernel, printing its mean
    /// time per iteration immediately.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        // Warm-up: run single iterations until the budget elapses,
        // which also yields the per-iteration estimate.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_BUDGET && warm_iters < MAX_ITERS {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let iters =
            ((MEASURE_BUDGET.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, MAX_ITERS);

        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let mean = b.elapsed.div_f64(iters.max(1) as f64);
        println!(
            "{name:<40} {:>12} /iter  ({iters} iters)",
            fmt_duration(mean)
        );
        self.samples.push(Sample {
            name: name.to_owned(),
            mean,
            iters,
        });
    }

    /// All samples recorded so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Prints the closing one-line summary.
    pub fn final_summary(&self) {
        println!("timed {} kernel(s)", self.samples.len());
    }
}

/// Median and quartiles of a set of samples, as Python's
/// `statistics.quantiles(samples, n=4)` (its default "exclusive"
/// method) computes them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples`; all zero when there are none.
    pub fn of(samples: &[f64]) -> Spread {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n < 2 {
            let v = s.first().copied().unwrap_or(0.0);
            return Spread {
                q1: v,
                median: v,
                q3: v,
            };
        }
        // Cut point i/4 falls at position i(n+1)/4 of the sorted
        // samples, clamped to interpolate between s[0] and s[n-1].
        let cut = |i: usize| {
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 / 4.0 - j as f64;
            s[j - 1] + (s[j] - s[j - 1]) * delta
        };
        Spread {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }
}

/// One engine's samples from [`interleave`].
#[derive(Clone, Debug)]
pub struct Interleaved {
    /// Engine name.
    pub name: String,
    /// Per round, one sample per pass, in pass order.
    pub rounds: Vec<Vec<Duration>>,
}

impl Interleaved {
    /// Each round's fastest pass: on a shared machine noise only ever
    /// adds time, so the fastest of a few back-to-back runs is the
    /// least disturbed one.
    pub fn best(&self) -> Vec<Duration> {
        self.rounds
            .iter()
            .map(|passes| passes.iter().copied().min().unwrap_or_default())
            .collect()
    }

    /// Median and quartiles of the rounds' fastest passes, in
    /// nanoseconds.
    pub fn spread_ns(&self) -> Spread {
        let ns: Vec<f64> = self.best().iter().map(|d| d.as_nanos() as f64).collect();
        Spread::of(&ns)
    }
}

/// Times `names.len()` engines in `rounds` rounds of `passes` passes.
/// A pass first calls `setup(e)` for every engine `e`, then `time` on
/// each prepared engine, which runs it and returns the time the run
/// took; so no set-up runs between two timed runs, and the engines of
/// one pass run back to back. Even passes take the engines in order
/// and odd passes in reverse, so each end of the list goes first
/// equally often and neighbours in the list always run next to each
/// other.
pub fn interleave<P>(
    names: &[&str],
    rounds: usize,
    passes: usize,
    mut setup: impl FnMut(usize) -> P,
    mut time: impl FnMut(P) -> Duration,
) -> Vec<Interleaved> {
    let k = names.len();
    let mut out: Vec<Interleaved> = names
        .iter()
        .map(|n| Interleaved {
            name: (*n).to_owned(),
            rounds: vec![Vec::with_capacity(passes); rounds],
        })
        .collect();
    let mut forward = true;
    for round in 0..rounds {
        for _ in 0..passes {
            let order: Vec<usize> = if forward {
                (0..k).collect()
            } else {
                (0..k).rev().collect()
            };
            forward = !forward;
            let ready: Vec<P> = order.iter().map(|&e| setup(e)).collect();
            for (e, p) in order.into_iter().zip(ready) {
                let d = time(p);
                out[e].rounds[round].push(d);
            }
        }
    }
    out
}

/// How often one engine beat another in the rounds of an
/// [`interleave`] run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SignTest {
    /// Rounds the first engine won.
    pub wins: usize,
    /// Rounds compared.
    pub rounds: usize,
    /// One-sided sign-test p-value: the chance of at least `wins`
    /// wins in `rounds` fair coin flips. A tie counts as a loss.
    pub p: f64,
}

/// Sign test of "`a` is faster than `b`": a round is a win for `a`
/// when `a`'s fastest pass took strictly less time than `b`'s. With an
/// even number of passes per round, each engine ran first in half of
/// them, so neither gains from running first.
pub fn sign_test(a: &Interleaved, b: &Interleaved) -> SignTest {
    let wins = a
        .best()
        .iter()
        .zip(b.best())
        .filter(|(x, y)| **x < *y)
        .count();
    let rounds = a.rounds.len().min(b.rounds.len());
    // P(X >= wins) for X ~ Binomial(rounds, 1/2), summed exactly.
    let mut choose = 1.0f64;
    let mut tail = 0.0f64;
    for k in 0..=rounds {
        if k >= wins {
            tail += choose;
        }
        choose = choose * (rounds - k) as f64 / (k + 1) as f64;
    }
    SignTest {
        wins,
        rounds,
        p: tail / 2f64.powi(rounds as i32),
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_one_sample_per_kernel() {
        let mut h = Harness::new();
        h.bench_function("noop", |b| b.iter(|| 0u64));
        h.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        assert_eq!(h.samples().len(), 2);
        assert_eq!(h.samples()[0].name, "noop");
        assert!(h.samples().iter().all(|s| s.iters >= 1));
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], n=4)
        // == [3.0, 6.0, 9.0]; for range(1, 11): [2.75, 5.5, 8.25].
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(
            Spread::of(&s),
            Spread {
                q1: 3.0,
                median: 6.0,
                q3: 9.0
            }
        );
        let s: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(
            Spread::of(&s),
            Spread {
                q1: 2.75,
                median: 5.5,
                q3: 8.25
            }
        );
        assert_eq!(Spread::of(&[4.0]).q3, 4.0);
        assert_eq!(Spread::of(&[]).median, 0.0);
    }

    #[test]
    fn interleave_sets_up_a_pass_before_timing_it_and_alternates_order() {
        let log = std::cell::RefCell::new(Vec::new());
        let runs = interleave(
            &["a", "b", "c"],
            2,
            2,
            |e| {
                log.borrow_mut().push(format!("s{e}"));
                e
            },
            |e| {
                log.borrow_mut().push(format!("t{e}"));
                Duration::from_nanos(e as u64)
            },
        );
        assert_eq!(
            log.into_inner().join(" "),
            "s0 s1 s2 t0 t1 t2 s2 s1 s0 t2 t1 t0 s0 s1 s2 t0 t1 t2 s2 s1 s0 t2 t1 t0"
        );
        assert!(runs.iter().all(|r| r.rounds.len() == 2));
        assert!(runs.iter().all(|r| r.rounds.iter().all(|p| p.len() == 2)));
        assert_eq!(runs[2].spread_ns().median, 2.0);
    }

    #[test]
    fn a_round_reports_its_fastest_pass() {
        let run = Interleaved {
            name: String::new(),
            rounds: vec![ns(&[30, 10, 20]), ns(&[5, 50, 7])],
        };
        assert_eq!(run.best(), ns(&[10, 5]));
        assert_eq!(run.spread_ns().median, 7.5);
    }

    fn ns(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&n| Duration::from_nanos(n)).collect()
    }

    #[test]
    fn sign_test_compares_each_rounds_fastest_passes() {
        let rounds = |per_round: &[[u64; 2]]| Interleaved {
            name: String::new(),
            rounds: per_round.iter().map(|r| ns(r)).collect(),
        };
        let slow = rounds(&[[10, 12]; 11]);
        // A slow pass does not lose a round that has a fast one.
        let mut fast = [[50, 5]; 11];
        fast[3] = [10, 50]; // a tie counts as a loss
        let t = sign_test(&rounds(&fast), &slow);
        assert_eq!((t.wins, t.rounds), (10, 11));
        // (C(11,10) + C(11,11)) / 2^11 = 12 / 2048.
        assert!((t.p - 12.0 / 2048.0).abs() < 1e-12, "{}", t.p);
        assert!(t.p < 0.01);
        fast[4] = [11, 11];
        let t = sign_test(&rounds(&fast), &slow);
        assert_eq!(t.wins, 9);
        assert!(t.p > 0.01, "9 of 11 is p = 67/2048");
        assert_eq!(sign_test(&slow, &slow).p, 1.0);
    }
}
