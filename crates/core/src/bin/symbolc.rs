//! `symbolc` — command-line front end for the SYMBOL evaluation system.
//!
//! ```text
//! symbolc run <file.pl> [units]     execute main/0 sequentially and on a VLIW
//! symbolc bam <file.pl>             print the BAM code listing
//! symbolc ici <file.pl>             print the IntCode listing
//! symbolc schedule <file.pl> [units] print the scheduled VLIW words
//! symbolc profile <file.pl>         instruction mix + branch predictability
//! symbolc sweep <file.pl>           BAM + 1..5-unit cycle counts
//! ```
//!
//! Files must define `main/0`; every simulated configuration re-checks
//! the sequential answer.

use std::process::ExitCode;

use symbol_analysis::{ClassMix, PredictStats};
use symbol_compactor::{sequential_cycles, try_compact, CompactMode, SeqDurations, TracePolicy};
use symbol_core::pipeline::{simulate, Compiled, PipelineError};
use symbol_vliw::MachineConfig;

fn usage() -> ExitCode {
    eprintln!("usage: symbolc <run|bam|ici|schedule|profile|sweep> <file.pl> [units]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path, units) = match args.as_slice() {
        [cmd, path] => (cmd.as_str(), path.as_str(), 3usize),
        [cmd, path, units] => match units.parse() {
            Ok(u) => (cmd.as_str(), path.as_str(), u),
            Err(_) => return usage(),
        },
        _ => return usage(),
    };

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("symbolc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match Compiled::from_source(&src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("symbolc: {e}");
            return ExitCode::FAILURE;
        }
    };

    match dispatch(cmd, &compiled, units) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("symbolc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(cmd: &str, compiled: &Compiled, units: usize) -> Result<ExitCode, PipelineError> {
    match cmd {
        "bam" => {
            let front = compiled
                .front
                .as_ref()
                .expect("compiled from source, front end is present");
            print!(
                "{}",
                symbol_bam::pretty::program(&front.bam, front.program.symbols())
            );
            Ok(ExitCode::SUCCESS)
        }
        "ici" => {
            print!("{}", compiled.ici);
            Ok(ExitCode::SUCCESS)
        }
        "run" => match compiled.run_sequential() {
            Ok(run) => {
                let seq = sequential_cycles(&compiled.ici, &run.stats, &SeqDurations::default());
                println!(
                    "main/0: success ({} ops, {} sequential cycles)",
                    run.steps, seq
                );
                let machine = MachineConfig::units(units);
                let compacted = try_compact(
                    &compiled.ici,
                    &run.stats,
                    &machine,
                    CompactMode::TraceSchedule,
                    &TracePolicy::default(),
                )?;
                let sim = match simulate(&compacted.program, machine, &compiled.layout) {
                    Ok(sim) => sim,
                    Err(PipelineError::WrongAnswer) => {
                        eprintln!("symbolc: scheduled code diverged from sequential execution");
                        return Ok(ExitCode::FAILURE);
                    }
                    Err(e) => return Err(e),
                };
                println!(
                    "{units}-unit VLIW: {} cycles (speed-up {:.2})",
                    sim.cycles,
                    seq as f64 / sim.cycles as f64
                );
                Ok(ExitCode::SUCCESS)
            }
            Err(PipelineError::WrongAnswer) => {
                println!("main/0: failure (no solution)");
                Ok(ExitCode::from(1))
            }
            Err(e) => Err(e),
        },
        "schedule" => {
            let run = compiled.run_sequential()?;
            let machine = MachineConfig::units(units);
            let compacted = try_compact(
                &compiled.ici,
                &run.stats,
                &machine,
                CompactMode::TraceSchedule,
                &TracePolicy::default(),
            )?;
            print!("{}", compacted.program);
            eprintln!(
                "{} regions, {} compensation blocks, growth {:.2}x",
                compacted.stats.regions,
                compacted.stats.comp_blocks,
                compacted.stats.code_growth()
            );
            Ok(ExitCode::SUCCESS)
        }
        "profile" => {
            let run = compiled.run_sequential()?;
            let mix = ClassMix::measure(&compiled.ici, &run.stats);
            println!(
                "instruction mix: memory {:.1}%  alu {:.1}%  move {:.1}%  control {:.1}%",
                mix.memory * 100.0,
                mix.alu * 100.0,
                mix.mv * 100.0,
                mix.control * 100.0
            );
            let predict = PredictStats::measure(&compiled.ici, &run.stats);
            println!(
                "branches: {} executed, average P_fp {:.4}",
                predict.branches.len(),
                predict.average()
            );
            Ok(ExitCode::SUCCESS)
        }
        "sweep" => {
            let run = compiled.run_sequential()?;
            let seq = sequential_cycles(&compiled.ici, &run.stats, &SeqDurations::default());
            println!("sequential: {seq} cycles");
            let mut configs = vec![("bam".into(), MachineConfig::bam(), CompactMode::BamGroups)];
            for u in 1..=5 {
                configs.push((
                    format!("{u} unit(s)"),
                    MachineConfig::units(u),
                    CompactMode::TraceSchedule,
                ));
            }
            for (name, machine, mode) in configs {
                let compacted = try_compact(
                    &compiled.ici,
                    &run.stats,
                    &machine,
                    mode,
                    &TracePolicy::default(),
                )?;
                let sim = simulate(&compacted.program, machine, &compiled.layout)?;
                println!(
                    "{name:<10} {:>10} cycles   speed-up {:.2}",
                    sim.cycles,
                    seq as f64 / sim.cycles as f64
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let _ = usage();
            Ok(ExitCode::FAILURE)
        }
    }
}
