//! Run the benchmark suite under full observability and emit the run
//! report: a human summary table, the per-PC hot-block report, the
//! stable `metrics.json`, and a Chrome Trace Format JSON for Perfetto.
//!
//! ```sh
//! cargo run --release -p symbol-core --bin obs_report -- --out report/
//! cargo run --release -p symbol-core --bin obs_report -- --check-schema
//! cargo run --release -p symbol-core --bin obs_report -- --print-schema
//! ```
//!
//! `--check-schema` exits non-zero when the metric schema drifted from
//! the checked-in `OBS_SCHEMA.json` — or when the freshly produced
//! `metrics.json` fails deep validation (missing or non-finite
//! quantiles). `--print-schema` prints the current schema (redirect it
//! over `OBS_SCHEMA.json` to re-pin).

use std::path::PathBuf;
use std::process::ExitCode;

use symbol_core::obs_report::{collect, validate_dump, ReportOptions};

fn usage() -> ! {
    eprintln!(
        "usage: obs_report [--out DIR] [--threads N] [--hot N] \
         [--quick] [--check-schema] [--print-schema]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut opts = ReportOptions::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut check_schema = false;
    let mut print_schema = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--hot" => {
                opts.hot_pcs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--quick" => opts.benches = &symbol_core::benchmarks::ALL[..1],
            "--check-schema" => check_schema = true,
            "--print-schema" => print_schema = true,
            _ => usage(),
        }
    }

    let report = match collect(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("obs_report: {e}");
            return ExitCode::FAILURE;
        }
    };

    if print_schema {
        print!("{}", report.schema_json);
        return ExitCode::SUCCESS;
    }

    println!("{}", report.human_table());
    println!("{}", report.hot_block_report());
    println!(
        "{} counters, {} gauges, {} histograms in the metric snapshot",
        report.snapshot.counters.len(),
        report.snapshot.gauges.len(),
        report.snapshot.histograms.len()
    );

    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("metrics.json"), &report.metrics_json))
            .and_then(|()| std::fs::write(dir.join("trace.json"), &report.trace_json))
        {
            eprintln!("obs_report: writing report: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} and {} (load trace.json in Perfetto)",
            dir.join("metrics.json").display(),
            dir.join("trace.json").display()
        );
    }

    if check_schema {
        if let Some(drift) = report.schema_drift() {
            eprintln!("{drift}");
            return ExitCode::FAILURE;
        }
        // The line diff proves the shape; the deep check proves the
        // v2 payload (per-histogram quantiles) is really there.
        if let Err(e) = validate_dump(&report.metrics_json) {
            eprintln!("obs_report: dump validation failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics.json schema matches OBS_SCHEMA.json; the dump validates");
    }
    ExitCode::SUCCESS
}
