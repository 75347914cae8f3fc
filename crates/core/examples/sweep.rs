//! Quick calibration sweep: per-benchmark cycles for the sequential
//! model, the BAM model and 1–5 unit trace-scheduled VLIWs.

use symbol_compactor::{sequential_cycles, try_compact, CompactMode, SeqDurations, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::pipeline::{simulate, Compiled};
use symbol_vliw::MachineConfig;

fn main() {
    println!(
        "{:<10} {:>10} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  {:>5} {:>5}",
        "bench", "seq", "bam", "bbU", "trU", "u1", "u2", "u3", "u5", "tlen", "grow"
    );
    for b in benchmarks::ALL {
        let c = Compiled::from_source(b.source).expect("compile");
        let run = c.run_sequential().expect("run");
        let seq = sequential_cycles(&c.ici, &run.stats, &SeqDurations::default());

        let sim = |mode, machine: MachineConfig| {
            let comp = try_compact(&c.ici, &run.stats, &machine, mode, &TracePolicy::default())
                .expect("schedule verifies");
            let r = simulate(&comp.program, machine, &c.layout)
                .expect("the scheduled code reproduces the answer");
            (
                r.cycles,
                comp.stats.avg_region_len,
                comp.stats.code_growth(),
            )
        };
        let (bam, _, _) = sim(CompactMode::BamGroups, MachineConfig::bam());
        let (bbu, _, _) = sim(CompactMode::BasicBlock, MachineConfig::unbounded());
        let (tru, _, _) = sim(CompactMode::TraceSchedule, MachineConfig::unbounded());
        let mut tr = Vec::new();
        let mut tlen = 0.0;
        let mut grow = 0.0;
        for u in [1usize, 2, 3, 5] {
            let (cyc, l, g) = sim(CompactMode::TraceSchedule, MachineConfig::units(u));
            tr.push(cyc);
            tlen = l;
            grow = g;
        }
        println!(
            "{:<10} {:>10} {:>7.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}  {:>5.1} {:>5.2}",
            b.name,
            seq,
            seq as f64 / bam as f64,
            seq as f64 / bbu as f64,
            seq as f64 / tru as f64,
            seq as f64 / tr[0] as f64,
            seq as f64 / tr[1] as f64,
            seq as f64 / tr[2] as f64,
            seq as f64 / tr[3] as f64,
            tlen,
            grow
        );
    }
}
