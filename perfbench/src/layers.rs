//! Per-layer figures of a traced run: self times from the span tree,
//! span totals and counters, reduced to the per-layer metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use symbol_obs::{json, Registry, TraceEvent};

use crate::stages::*;
use crate::stats::Fingerprint;
use crate::Facts;

/// Layers for the time-share metrics, by the spans that make them up.
const SHARES: [(&str, &[&str]); 8] = [
    ("frontend.share", &[PARSE, BAM, TRANSLATE, DECODE]),
    (
        "intcode.emu.share",
        &[EMU_QUERY, EMU_SETUP, EMU_RUN, FUSED_RUN, PROFILE],
    ),
    ("intcode.fuse.share", &[FUSE]),
    ("analysis.share", &[ANALYSIS]),
    ("compactor.share", &[COMPACT]),
    ("vliw.share", &[LOWER, SIM_SETUP, SIM_RUN]),
    ("serve.cache.share", &[CACHE_READ, CACHE_STORE]),
    ("serve.server.share", &[SERVER]),
];

/// A metric as reported: name, unit, value.
pub type Figure = (&'static str, &'static str, f64);

/// Everything a traced run recorded, ready to reduce.
pub struct Layers {
    /// Self time per span name: the span minus the spans nested in it
    /// on the same thread, in microseconds.
    self_us: BTreeMap<String, u64>,
    /// (calls, total ns) per span name.
    spans: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
    /// Traced repetitions the totals cover.
    reps: f64,
    /// Emulated steps in one traced repetition.
    rep_steps: u64,
    workers: usize,
    facts: Facts,
    trace_overhead: f64,
}

/// Self time of every event: its duration minus the durations of the
/// events directly nested in it on the same thread.
fn self_times(events: &[TraceEvent]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.ts_us, std::cmp::Reverse(e.dur_us))
    });
    let mut own: Vec<u64> = events.iter().map(|e| e.dur_us).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        // Spans are RAII scopes, so they nest: a span that starts
        // inside an open one on the same thread is its descendant.
        while let Some(&top) = open.last() {
            let t = &events[top];
            if t.tid == e.tid && e.ts_us >= t.ts_us && e.ts_us < t.ts_us + t.dur_us {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            own[parent] = own[parent].saturating_sub(e.dur_us);
        }
        open.push(i);
    }
    own
}

impl Layers {
    /// Reduces the main traced registry `obs` and the layer-probe
    /// registry `probe`.
    pub fn new(
        obs: &Registry,
        probe: &Registry,
        reps: usize,
        rep_steps: u64,
        workers: usize,
        facts: Facts,
        trace_overhead: f64,
    ) -> Self {
        let events = obs.trace_events();
        let mut self_us = BTreeMap::new();
        for (e, own) in events.iter().zip(self_times(&events)) {
            *self_us.entry(e.name.clone()).or_insert(0) += own;
        }
        let mut spans = BTreeMap::new();
        let mut counters = BTreeMap::new();
        for snap in [obs.snapshot(), probe.snapshot()] {
            for h in snap.histograms {
                if let Some(name) = h
                    .name
                    .strip_prefix("span.")
                    .and_then(|n| n.strip_suffix(".ns"))
                {
                    let entry: &mut (u64, u64) = spans.entry(name.to_string()).or_default();
                    entry.0 += h.count;
                    entry.1 += h.sum;
                }
            }
            for c in snap.counters {
                *counters.entry(c.name).or_insert(0) += c.value;
            }
        }
        Layers {
            self_us,
            spans,
            counters,
            reps: reps.max(1) as f64,
            rep_steps,
            workers,
            facts,
            trace_overhead,
        }
    }

    fn calls(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |s| s.0 as f64)
    }

    fn total_ns(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |s| s.1 as f64)
    }

    fn mean_ns(&self, span: &str) -> f64 {
        ratio(self.total_ns(span), self.calls(span))
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn self_ms(&self, span: &str) -> f64 {
        self.self_us.get(span).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Milliseconds per pass over the workload's programs of a stage
    /// that runs once per program per pass.
    fn per_pass_ms(&self, span: &str) -> f64 {
        let passes = self.calls(span) / self.facts.programs.max(1) as f64;
        ratio(self.total_ns(span), passes) / 1e6
    }

    /// Time of one query on the engine: the serving probe's batches
    /// when there are any, else the profiling runs.
    fn query_us(&self) -> f64 {
        let served = self.counter(ENGINE_QUERIES);
        if served > 0.0 {
            self.total_ns(ENGINE) / served / 1e3
        } else {
            self.mean_ns(EMU_QUERY) / 1e3
        }
    }

    /// The per-layer metrics `BENCHMARK.json` names, in its order.
    pub fn metrics(&self) -> Vec<Figure> {
        let attributed: u64 = SHARES
            .iter()
            .flat_map(|(_, spans)| spans.iter())
            .filter_map(|s| self.self_us.get(*s))
            .sum();
        let mut m: Vec<Figure> = vec![
            ("prolog.parse.ms", "ms", self.per_pass_ms(PARSE)),
            ("bam.compile.ms", "ms", self.per_pass_ms(BAM)),
            ("intcode.translate.ms", "ms", self.per_pass_ms(TRANSLATE)),
            ("intcode.decode.ms", "ms", self.per_pass_ms(DECODE)),
            ("intcode.emu.setup.us", "us", self.mean_ns(EMU_SETUP) / 1e3),
            ("intcode.emu.query.us", "us", self.query_us()),
            (
                "intcode.emu.ns_per_step",
                "ns",
                ratio(self.total_ns(EMU_RUN), self.counter(RUN_STEPS)),
            ),
        ];
        for (name, spans) in SHARES {
            let own: u64 = spans.iter().filter_map(|s| self.self_us.get(*s)).sum();
            m.push((name, "%", 100.0 * ratio(own as f64, attributed as f64)));
        }
        let server_ns_per_rep = self.total_ns(SERVER) / self.reps;
        let overhead = if server_ns_per_rep > 0.0 {
            1.0 - self.total_ns(ENGINE) / (server_ns_per_rep * self.workers as f64)
        } else {
            0.0
        };
        m.extend([
            ("intcode.ops", "count", self.facts.static_ops as f64),
            ("intcode.emu.steps", "count", self.rep_steps as f64),
            ("intcode.fuse.pairs", "count", self.counter(FUSE_PAIRS)),
            (
                "compactor.calls",
                "count",
                self.counter(COMPACT_CALLS) / self.reps,
            ),
            (
                "compactor.code_growth",
                "ratio",
                ratio(self.counter(COMPACT_OPS_OUT), self.counter(COMPACT_OPS_IN)),
            ),
            (
                "vliw.sim.cycles",
                "count",
                self.counter(SIM_CYCLES) / self.reps,
            ),
            ("serve.cache.bytes", "B", self.facts.cache_bytes as f64),
            (
                "serve.cache.hit_ratio",
                "ratio",
                ratio(self.counter(CACHE_HITS), self.counter(CACHE_LOADS)),
            ),
            ("serve.server.overhead_ratio", "ratio", overhead),
            ("trace_overhead", "ratio", self.trace_overhead),
        ]);
        m
    }

    /// Times of the layers only some workloads run, for `layers.json`
    /// and the printed report; a layer the workload does not run is
    /// left out.
    pub fn details(&self) -> Vec<Figure> {
        let mut d = Vec::new();
        let mut per_rep = |name, span: &str| {
            if self.calls(span) > 0.0 {
                d.push((name, "ms", self.self_ms(span) / self.reps));
            }
        };
        per_rep("analysis.ms", ANALYSIS);
        per_rep("compactor.ms", COMPACT);
        per_rep("vliw.lower.ms", LOWER);
        per_rep("vliw.sim.setup.ms", SIM_SETUP);
        if self.calls(SIM_RUN) > 0.0 {
            d.push((
                "vliw.sim.ns_per_cycle",
                "ns",
                ratio(self.total_ns(SIM_RUN), self.counter(SIM_CYCLES)),
            ));
        }
        if self.calls(PROFILE) > 0.0 {
            d.push(("intcode.profile.ms", "ms", self.per_pass_ms(PROFILE)));
        }
        if self.calls(FUSE) > 0.0 {
            d.push(("intcode.fuse.ms", "ms", self.total_ns(FUSE) / 1e6));
        }
        if self.calls(FUSED_RUN) > 0.0 {
            d.push((
                "intcode.fused.ns_per_step",
                "ns",
                ratio(self.total_ns(FUSED_RUN), self.counter(FUSED_STEPS)),
            ));
        }
        if self.calls(CACHE_READ) > 0.0 {
            d.push((
                "serve.cache.cold_load.ms",
                "ms",
                self.total_ns("phase.cold") / 1e6,
            ));
            d.push((
                "serve.cache.warm_load.ms",
                "ms",
                self.total_ns("phase.setup") / 1e6,
            ));
        }
        if self.counter(ENGINE_QUERIES) > 0.0 {
            d.push(("serve.engine.query.us", "us", self.query_us()));
        }
        d
    }

    /// `layers.json`: every span's self time and call count, every
    /// counter, and the reduced metrics.
    pub fn to_json(&self, workload: &str, fingerprint: &Fingerprint) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"workload\": {},", json::string(workload));
        let _ = writeln!(out, "  \"fingerprint\": {},", fingerprint.to_json());
        let _ = writeln!(out, "  \"traced_reps\": {},", self.reps);
        let layers: Vec<String> = self
            .spans
            .iter()
            .map(|(name, &(calls, total))| {
                format!(
                    "    {}: {{\"self_ms\": {}, \"total_ms\": {}, \"calls\": {calls}}}",
                    json::string(name),
                    self.self_ms(name),
                    total as f64 / 1e6
                )
            })
            .collect();
        let _ = writeln!(out, "  \"layers\": {{\n{}\n  }},", layers.join(",\n"));
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("    {}: {v}", json::string(name)))
            .collect();
        let _ = writeln!(out, "  \"counters\": {{\n{}\n  }},", counters.join(",\n"));
        let figures = |figs: Vec<Figure>| {
            figs.iter()
                .map(|(name, unit, v)| {
                    format!(
                        "    {}: {{\"value\": {}, \"unit\": {}}}",
                        json::string(name),
                        crate::number(*v),
                        json::string(unit)
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let _ = writeln!(out, "  \"metrics\": {{\n{}\n  }},", figures(self.metrics()));
        let _ = writeln!(out, "  \"details\": {{\n{}\n  }}", figures(self.details()));
        out.push_str("}\n");
        out
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, tid: u64, ts_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            ts_us,
            dur_us,
            tid,
            labels: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let events = [
            event("rep", 1, 0, 100),
            event("compile", 1, 10, 30),
            event("parse", 1, 12, 10),
            event("sim", 1, 50, 40),
            // Another thread's span inside rep's interval is not its child.
            event("worker", 2, 20, 50),
        ];
        assert_eq!(self_times(&events), vec![30, 20, 10, 40, 50]);
    }

    #[test]
    fn back_to_back_siblings_are_not_nested() {
        let events = [event("a", 1, 0, 10), event("b", 1, 10, 5)];
        assert_eq!(self_times(&events), vec![10, 5]);
    }
}
