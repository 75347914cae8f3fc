//! The fuzz loop: generate → oracle → shrink → report.

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use symbol_obs::json;

use crate::corpus::{render, Expect};
use crate::oracle::{run_case, Case, Failure, FailureKind, OracleConfig};
use crate::rng::Rng;
use crate::shrink::shrink_case;
use crate::{gen_intcode, gen_prolog};

/// Which generation levels to exercise.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum KindFilter {
    /// Alternate Prolog and IntCode cases.
    Both,
    /// Prolog programs only.
    Prolog,
    /// IntCode fragments only.
    IntCode,
}

/// A fuzz run's parameters.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Base seed; case `i` runs on the independent stream
    /// [`Rng::for_case`]`(seed, i)`.
    pub seed: u64,
    /// Number of cases to attempt.
    pub cases: u64,
    /// Sequential step limit per case.
    pub max_steps: u64,
    /// Wall-clock budget; the loop stops cleanly when exceeded.
    pub budget: Option<Duration>,
    /// Which generators to run.
    pub kind: KindFilter,
    /// Whether to run the compaction + VLIW stage.
    pub check_vliw: bool,
    /// Stop after this many findings (each one is shrunk, which costs
    /// many oracle evaluations).
    pub max_failures: usize,
    /// Candidate-evaluation bound per shrink.
    pub shrink_evals: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            cases: 100,
            max_steps: 200_000,
            budget: None,
            kind: KindFilter::Both,
            check_vliw: true,
            max_failures: 5,
            shrink_evals: 3_000,
        }
    }
}

/// One shrunk finding.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// Case index within the run.
    pub index: u64,
    /// Stable failure tag.
    pub kind_tag: String,
    /// Diagnosis from the oracle (for the original, un-shrunk case).
    pub detail: String,
    /// Generation level of the case.
    pub case_kind: &'static str,
    /// The shrunk reproducer, rendered in the corpus format with
    /// `expect: fail <tag>`.
    pub reproducer: String,
}

/// The outcome of a fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Base seed of the run.
    pub seed: u64,
    /// Cases requested.
    pub requested: u64,
    /// Cases actually executed.
    pub executed: u64,
    /// How many were Prolog programs.
    pub prolog_cases: u64,
    /// How many were IntCode fragments.
    pub intcode_cases: u64,
    /// Whether the wall-clock budget cut the run short.
    pub budget_exhausted: bool,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Shrunk findings, in discovery order.
    pub failures: Vec<FailureRecord>,
}

impl FuzzReport {
    /// True when every executed case passed the oracle.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report as JSON (hand-rolled; the workspace has no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"seed\":{},\"requested\":{},\"executed\":{},\"prolog_cases\":{},\
             \"intcode_cases\":{},\"budget_exhausted\":{},\"elapsed_secs\":{:.3},\"failures\":[",
            self.seed,
            self.requested,
            self.executed,
            self.prolog_cases,
            self.intcode_cases,
            self.budget_exhausted,
            self.elapsed.as_secs_f64()
        );
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"index\":{},\"kind\":{},\"case_kind\":{},\"detail\":{},\"reproducer\":{}}}",
                f.index,
                json::string(&f.kind_tag),
                json::string(f.case_kind),
                json::string(&f.detail),
                json::string(&f.reproducer)
            );
        }
        s.push_str("]}");
        s
    }
}

/// Runs the oracle with panics converted into [`FailureKind::Panic`]
/// findings instead of aborting the loop.
fn run_guarded(case: &Case, cfg: &OracleConfig) -> Option<Failure> {
    match panic::catch_unwind(AssertUnwindSafe(|| run_case(case, cfg))) {
        Ok(Ok(())) => None,
        Ok(Err(f)) => Some(f),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Some(Failure {
                kind: FailureKind::Panic,
                detail: msg,
            })
        }
    }
}

/// Runs the fuzz loop to completion (or budget / failure-cap exit).
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let start = Instant::now();
    let cfg = OracleConfig {
        max_steps: opts.max_steps,
        check_vliw: opts.check_vliw,
    };

    // Findings are shrunk, and every failing shrink candidate would
    // print a panic message for Panic-kind findings; keep the loop
    // quiet and restore the hook afterwards.
    let saved_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let mut report = FuzzReport {
        seed: opts.seed,
        requested: opts.cases,
        executed: 0,
        prolog_cases: 0,
        intcode_cases: 0,
        budget_exhausted: false,
        elapsed: Duration::ZERO,
        failures: Vec::new(),
    };

    for i in 0..opts.cases {
        if let Some(budget) = opts.budget {
            if start.elapsed() >= budget {
                report.budget_exhausted = true;
                break;
            }
        }
        if report.failures.len() >= opts.max_failures {
            break;
        }
        let mut rng = Rng::for_case(opts.seed, i);
        let prolog = match opts.kind {
            KindFilter::Both => i % 2 == 0,
            KindFilter::Prolog => true,
            KindFilter::IntCode => false,
        };
        let case = if prolog {
            report.prolog_cases += 1;
            Case::Prolog(gen_prolog::generate(&mut rng))
        } else {
            report.intcode_cases += 1;
            Case::IntCode(gen_intcode::generate(&mut rng))
        };
        report.executed += 1;

        if let Some(failure) = run_guarded(&case, &cfg) {
            let key = failure.kind.clone();
            let mut check = |c: &Case| run_guarded(c, &cfg).map(|f| f.kind);
            let shrunk = shrink_case(case, &key, &mut check, opts.shrink_evals);
            report.failures.push(FailureRecord {
                index: i,
                kind_tag: key.tag(),
                detail: failure.detail,
                case_kind: shrunk.kind_name(),
                reproducer: render(
                    &shrunk,
                    &Expect::Fail(key),
                    Some(opts.seed),
                    Some(&failure.kind.tag()),
                ),
            });
        }
    }

    panic::set_hook(saved_hook);
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_is_clean_and_deterministic() {
        let opts = FuzzOptions {
            seed: 1,
            cases: 20,
            ..FuzzOptions::default()
        };
        let a = run_fuzz(&opts);
        let b = run_fuzz(&opts);
        assert!(a.clean(), "findings: {:?}", a.failures);
        assert_eq!(a.executed, 20);
        assert_eq!(a.prolog_cases, 10);
        assert_eq!(a.intcode_cases, 10);
        assert_eq!(b.executed, a.executed);
    }

    #[test]
    fn the_budget_stops_the_loop() {
        let opts = FuzzOptions {
            seed: 2,
            cases: 1_000_000,
            budget: Some(Duration::from_millis(200)),
            ..FuzzOptions::default()
        };
        let r = run_fuzz(&opts);
        assert!(r.budget_exhausted);
        assert!(r.executed < 1_000_000);
    }

    #[test]
    fn json_report_escapes_and_balances() {
        let mut r = FuzzReport {
            seed: 3,
            requested: 1,
            executed: 1,
            prolog_cases: 1,
            intcode_cases: 0,
            budget_exhausted: false,
            elapsed: Duration::from_millis(1500),
            failures: Vec::new(),
        };
        r.failures.push(FailureRecord {
            index: 0,
            kind_tag: "expectation".into(),
            detail: "line\n\"quoted\"".into(),
            case_kind: "prolog",
            reproducer: "# kind: prolog\n".into(),
        });
        let j = r.to_json();
        assert!(j.contains("\\n"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
