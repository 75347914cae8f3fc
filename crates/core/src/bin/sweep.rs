//! Design-space exploration driver: expand a grid spec, sweep it over
//! the benchmark suite, and emit the Pareto/winner reports.
//!
//! ```sh
//! cargo run --release -p symbol-core --bin sweep -- --grid reduced --check
//! cargo run --release -p symbol-core --bin sweep -- --grid 'units=1..5;ports=1,2' \
//!     --benches nreverse,qsort --json BENCH_sweep.json --table sweep.txt
//! cargo run --release -p symbol-core --bin sweep -- --grid full --budget-secs 3600
//! ```
//!
//! `--check` is the CI gate: it runs the invariant gates (unit
//! monotonicity, memory-port floor), cross-checks the paper points
//! against the Table 3 driver, re-runs the sweep single-threaded and
//! asserts the JSON report is byte-identical — then exits non-zero on
//! any violation. `--check-invariants` runs only the in-report gates
//! (no re-run), which is what the budgeted nightly sweep uses; a
//! budgeted run cannot combine with `--check` because its truncation
//! point is wall-clock dependent.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use symbol_core::benchmarks::{self, Benchmark};
use symbol_core::experiments::sweep::{
    check_paper_points, run_sweep, GridSpec, SweepOptions, SweepReport,
};
use symbol_obs::Registry;

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--grid SPEC|paper|reduced|full] [--benches a,b,c] \
         [--jobs N] [--json FILE] [--table FILE] [--metrics FILE] \
         [--budget-secs N] [--check | --check-invariants]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("sweep: {msg}");
    ExitCode::FAILURE
}

/// Prints gate violations and reports whether any fired.
fn report_violations(gate: &str, violations: &[String]) -> bool {
    for v in violations {
        eprintln!("sweep: {gate}: {v}");
    }
    !violations.is_empty()
}

fn main() -> ExitCode {
    let mut grid_spec = String::from("paper");
    let mut bench_names: Option<String> = None;
    let mut opts = SweepOptions::default();
    let mut json_path: Option<PathBuf> = None;
    let mut table_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut check = false;
    let mut check_invariants = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--grid" => grid_spec = args.next().unwrap_or_else(|| usage()),
            "--benches" => bench_names = Some(args.next().unwrap_or_else(|| usage())),
            "--jobs" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--json" => json_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--table" => table_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--metrics" => {
                metrics_path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--budget-secs" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.budget = Some(Duration::from_secs(secs));
            }
            "--check" => check = true,
            "--check-invariants" => check_invariants = true,
            _ => usage(),
        }
    }

    if check && opts.budget.is_some() {
        return fail(
            "--check cannot combine with --budget-secs: a budgeted run \
             truncates at a wall-clock-dependent point, so its report is \
             not reproducible",
        );
    }

    let grid = match GridSpec::parse(&grid_spec) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };

    let benches: Vec<Benchmark> = match &bench_names {
        None => benchmarks::ALL.to_vec(),
        Some(names) => {
            let mut list = Vec::new();
            for name in names.split(',') {
                let name = name.trim();
                match benchmarks::by_name(name) {
                    Some(b) => list.push(*b),
                    None => return fail(&format!("unknown benchmark `{name}`")),
                }
            }
            list
        }
    };

    eprintln!(
        "sweep: {} configs x {} benchmarks on {} threads",
        grid.len(),
        benches.len(),
        opts.threads
    );

    let obs = Registry::new();
    let report = match run_sweep(&grid, &benches, &opts, &obs) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };

    let json = report.to_json();
    let table = report.render();
    println!("{table}");

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &json) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        eprintln!("sweep: wrote {}", path.display());
    }
    if let Some(path) = &table_path {
        if let Err(e) = std::fs::write(path, &table) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        eprintln!("sweep: wrote {}", path.display());
    }
    if let Some(path) = &metrics_path {
        if let Err(e) = std::fs::write(path, obs.snapshot().to_json()) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        eprintln!("sweep: wrote {}", path.display());
    }

    let mut failed = false;
    if check || check_invariants {
        failed |= report_violations("invariant", &report.check_invariants());
    }
    if check {
        if let Err(violations) = check_paper_points(&report, &benches) {
            failed |= report_violations("paper-point", &violations);
        }
        // Jobs-independence: the whole sweep again on one thread must
        // serialize byte-identically.
        let seq_opts = SweepOptions {
            threads: 1,
            budget: None,
        };
        match run_sweep(&grid, &benches, &seq_opts, &Registry::disabled()) {
            Ok(seq) => {
                if seq.to_json() != json {
                    eprintln!(
                        "sweep: determinism: single-threaded re-run produced a \
                         different report than --jobs {}",
                        opts.threads
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("sweep: determinism re-run failed: {e}");
                failed = true;
            }
        }
    }

    if failed {
        return fail("checks failed");
    }
    if check || check_invariants {
        let gates = if check {
            "invariants, paper points and jobs-independence"
        } else {
            "invariants"
        };
        summary_line(&report, &format!("all gates hold ({gates})"));
    } else {
        summary_line(&report, "done");
    }
    ExitCode::SUCCESS
}

/// One stable stdout summary line for CI logs.
fn summary_line(report: &SweepReport, tail: &str) {
    println!(
        "sweep: {} configs x {} benchmarks: {tail}",
        report.points.len(),
        report.benches.len(),
    );
}
