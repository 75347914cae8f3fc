//! The one way the `benches/` targets time an engine: two engines,
//! a [`Pair`], timed back to back in rounds of a few passes whose order
//! alternates ([`interleave`]), so that both see the same machine. Each
//! round keeps each engine's fastest pass; a gate reads, per
//! benchmark, the median over rounds of the ratio of the two engines'
//! fastest passes ([`Pair::ratio`]), and across benchmarks the
//! [`geomean`] of those medians. [`Spread`] gives the ratio's median
//! and quartiles and [`sign_test`] how often one engine beat the other
//! round by round.

use std::hint::black_box;
use std::time::Duration;

/// Interleaved rounds per [`Pair`].
pub const ROUNDS: usize = 11;

/// Passes per round, even so that each engine of a pair runs first in
/// half of them. A round reports each engine's fastest pass.
pub const PASSES: usize = 4;

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

/// Stack bytes between the depths at which successive passes of a
/// round run: a quarter of a 4 KiB page.
const STACK_STEP: usize = 1024;

/// Runs `f` `levels` frames of at least [`STACK_STEP`] bytes further
/// down the stack.
fn deeper<R>(levels: usize, f: impl FnOnce() -> R) -> R {
    if levels == 0 {
        return f();
    }
    let pad = black_box([0u8; STACK_STEP]);
    let r = deeper(levels - 1, f);
    black_box(&pad);
    r
}

/// Times `names.len()` engines in `rounds` rounds of `passes` passes.
/// A pass first calls `setup(e)` for every engine `e`, then `time` on
/// each prepared engine, which runs it and returns the time the run
/// took; so no set-up runs between two timed runs, and the engines of
/// one pass run back to back. Even passes take the engines in order
/// and odd passes in reverse, so each end of the list goes first
/// equally often and neighbours in the list always run next to each
/// other.
///
/// Pass `i` of a round runs its engines `i` × `STACK_STEP` (1 KiB)
/// bytes further down the stack. An engine loop's speed can depend on where
/// its stack frame falls within a page (a spilled local whose low 12
/// address bits match a hot store's stalls on 4K aliasing), and the
/// operating system picks the stack's start at random per process; so
/// a round samples one frame position per pass, and its fastest pass
/// is the one least disturbed by placement as well as by noise.
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
        for pass in 0..passes {
            let order: Vec<usize> = if forward {
                (0..k).collect()
            } else {
                (0..k).rev().collect()
            };
            forward = !forward;
            let ready: Vec<P> = order.iter().map(|&e| setup(e)).collect();
            for (e, p) in order.into_iter().zip(ready) {
                let d = deeper(pass, || time(p));
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

/// Two engines timed in one [`interleave`] run: `first` is the
/// baseline and `second` the engine measured against it. No third
/// engine shares their passes, so neither reading depends on its place
/// in a longer list or on a neighbour's memory.
#[derive(Clone, Debug)]
pub struct Pair {
    /// The baseline engine's samples.
    pub first: Interleaved,
    /// The measured engine's samples.
    pub second: Interleaved,
}

impl Pair {
    /// Times two engines as [`interleave`] does, in [`ROUNDS`] rounds
    /// of [`PASSES`] passes, after one unrecorded pass that warms both
    /// engines' code and memory.
    pub fn time<P>(
        names: [&str; 2],
        mut setup: impl FnMut(usize) -> P,
        mut time: impl FnMut(P) -> Duration,
    ) -> Pair {
        interleave(&names, 1, 1, &mut setup, &mut time);
        let [first, second]: [Interleaved; 2] = interleave(&names, ROUNDS, PASSES, setup, time)
            .try_into()
            .expect("two engines");
        Pair { first, second }
    }

    /// Per round, `first`'s fastest pass over `second`'s: above 1.0
    /// when `second` was the faster.
    pub fn ratios(&self) -> Vec<f64> {
        self.first
            .best()
            .iter()
            .zip(self.second.best())
            .map(|(a, b)| a.as_secs_f64() / b.as_secs_f64())
            .collect()
    }

    /// Median and quartiles of [`Pair::ratios`]. A gate reads the
    /// median: one disturbed round moves it no further than to its
    /// neighbour's value.
    pub fn ratio(&self) -> Spread {
        Spread::of(&self.ratios())
    }

    /// Rounds in which `second` beat `first`.
    pub fn sign_test(&self) -> SignTest {
        sign_test(&self.second, &self.first)
    }

    /// One printed line: each engine's median in `unit` (`per` converts
    /// a pass's nanoseconds), the ratio's median and quartiles, and the
    /// rounds `second` won.
    pub fn line(&self, unit: &str, per: impl Fn(f64) -> f64) -> String {
        let r = self.ratio();
        let t = self.sign_test();
        format!(
            "{} {:.2} {unit}, {} {:.2} {unit}, {}/{} {:.3} ({:.3}-{:.3}), {} won {}/{} (p={:.4})",
            self.first.name,
            per(self.first.spread_ns().median),
            self.second.name,
            per(self.second.spread_ns().median),
            self.first.name,
            self.second.name,
            r.median,
            r.q1,
            r.q3,
            self.second.name,
            t.wins,
            t.rounds,
            t.p
        )
    }

    /// The same figures as JSON object fields: each engine, under its
    /// name, with the median and quartiles of its rounds' fastest
    /// passes and its median in `unit`; the ratio's median and
    /// quartiles; and `second`'s rounds won with the sign-test p-value.
    pub fn json_fields(&self, unit: &str, per: impl Fn(f64) -> f64) -> String {
        let mut out = String::new();
        for e in [&self.first, &self.second] {
            let s = e.spread_ns();
            out += &format!(
                "\"{}\": {{\"median_ns\": {:.0}, \"q1_ns\": {:.0}, \"q3_ns\": {:.0}, \
                 \"{unit}\": {:.3}}}, ",
                e.name,
                s.median,
                s.q1,
                s.q3,
                per(s.median)
            );
        }
        let r = self.ratio();
        let t = self.sign_test();
        out + &format!(
            "\"ratio\": {{\"q1\": {:.4}, \"median\": {:.4}, \"q3\": {:.4}}}, \
             \"{}_wins\": {}, \"sign_p\": {:.5}",
            r.q1, r.median, r.q3, self.second.name, t.wins, t.p
        )
    }
}

/// Geometric mean of `values`; 1.0 when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (log_sum, n) = values
        .into_iter()
        .fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (log_sum / n.max(1) as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn each_pass_of_a_round_runs_at_its_own_stack_depth() {
        let depths = std::cell::RefCell::new(Vec::new());
        interleave(
            &["a", "b"],
            2,
            4,
            |e| e,
            |_| {
                let local = 0u8;
                depths
                    .borrow_mut()
                    .push(black_box(&local) as *const u8 as usize);
                Duration::ZERO
            },
        );
        let depths = depths.into_inner();
        for round in depths.chunks(8) {
            let passes: Vec<usize> = round.chunks(2).map(|pass| pass[0]).collect();
            // Both engines of a pass run at one depth...
            assert!(round.chunks(2).all(|pass| pass[0] == pass[1]));
            // ...and each pass a step deeper than the one before.
            assert!(passes.windows(2).all(|w| w[0] >= w[1] + STACK_STEP));
        }
        assert_eq!(depths[..8], depths[8..]);
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

    /// A pair of one pass per round, from each engine's nanoseconds.
    fn pair(first: &[u64], second: &[u64]) -> Pair {
        let run = |v: &[u64]| Interleaved {
            name: String::new(),
            rounds: v.iter().map(|&n| ns(&[n])).collect(),
        };
        Pair {
            first: run(first),
            second: run(second),
        }
    }

    #[test]
    fn a_pairs_ratio_divides_each_rounds_fastest_passes() {
        let p = Pair {
            first: Interleaved {
                name: "legacy".into(),
                rounds: vec![ns(&[30, 20]), ns(&[10, 12]), ns(&[40, 90])],
            },
            second: Interleaved {
                name: "decoded".into(),
                rounds: vec![ns(&[10, 15]), ns(&[11, 10]), ns(&[80, 20])],
            },
        };
        // 20/10, a tie at 10/10, 40/20: the slow pass of a round never
        // counts, whichever pass it was.
        assert_eq!(p.ratios(), vec![2.0, 1.0, 2.0]);
        // The tie is not a round `second` won.
        assert_eq!(p.sign_test().wins, 2);
    }

    #[test]
    fn a_benchmark_reads_the_median_round_ratio() {
        // Ratios 1.2, 0.8, 1.0, 3.0, 0.9: one disturbed round (3.0)
        // drags the mean to 1.38 but leaves the median at 1.0.
        let p = pair(&[12, 8, 10, 30, 9], &[10, 10, 10, 10, 10]);
        let r = p.ratio();
        assert!((r.median - 1.0).abs() < 1e-12, "{r:?}");
        assert!((r.q1 - 0.85).abs() < 1e-12, "{r:?}");
        assert!((r.q3 - 2.1).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn a_geomean_gate_reads_the_geomean_of_medians() {
        let bound = 0.98;
        // Medians 0.96, 1.02 and 1.00: one benchmark under the bound,
        // the geomean (0.9930) over it.
        let pairs = [
            pair(&[96, 96, 50], &[100, 100, 100]),
            pair(&[102, 200, 102], &[100, 100, 100]),
            pair(&[100, 100, 100], &[100, 100, 100]),
        ];
        let g = geomean(pairs.iter().map(|p| p.ratio().median));
        assert!((g - (0.96f64 * 1.02).cbrt()).abs() < 1e-12, "{g}");
        assert!(g >= bound);
        // 0.90 in place of 1.00 takes the geomean (0.9587) under.
        let slow = pair(&[90, 90, 90], &[100, 100, 100]);
        let g = geomean([&pairs[0], &pairs[1], &slow].map(|p| p.ratio().median));
        assert!(g < bound, "{g}");
        assert!((geomean([2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean([]), 1.0);
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
