//! Regenerates every table and figure of the paper from scratch:
//! compiles the sixteen Aquarius benchmarks, profiles them on the
//! sequential emulator, compacts them for every machine configuration,
//! re-runs them on the validating VLIW simulator, and prints the
//! reports with the paper's published numbers alongside.
//!
//! Usage:
//!   tables                 # everything
//!   tables fig2|fig3|fig4|fig6|table1|table2|table3|table4|table5|growth|util|csv

use symbol_core::benchmarks;
use symbol_core::experiments::{default_threads, measure_suite_obs, reports};
use symbol_obs::Registry;

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    eprintln!("measuring 16 benchmarks across 9 machine configurations...");
    let results = match measure_suite_obs(benchmarks::ALL, default_threads(), &Registry::disabled())
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("measurement failed: {e}");
            std::process::exit(1);
        }
    };
    if which.is_empty() {
        println!("{}", reports::full_report(&results));
        return;
    }
    for w in which {
        let out = match w.as_str() {
            "fig2" => reports::fig2_mix(&results),
            "fig3" => reports::fig3_amdahl(&results),
            "fig4" => reports::fig4_histogram(&results),
            "fig6" => reports::fig6_chart(&results),
            "table1" => reports::table1_compaction(&results),
            "table2" => reports::table2_predictability(&results),
            "table3" => reports::table3_units(&results),
            "table4" => reports::table4_absolute(&results),
            "table5" => reports::table5_speedups(&results),
            "growth" => reports::code_growth(&results),
            "util" => reports::utilization(&results),
            "csv" => reports::csv(&results),
            other => format!("unknown report: {other}"),
        };
        println!("{out}\n");
    }
}
