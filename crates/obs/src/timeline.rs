//! The timeline: periodic [`Snapshot`] diffs as a compact
//! ndjson time series.
//!
//! A single `metrics.json` tells you where a run *ended up*; the
//! timeline tells you *when* the work happened. [`Timeline::tick`]
//! diffs the current snapshot against the previous tick and renders
//! one ndjson line holding only what changed: counter deltas, gauge
//! values, histogram count deltas with their current p50/p99. Ticks
//! with no changes still produce a (nearly empty) line so the series
//! has a regular heartbeat. The caller decides when to tick:
//! `obs_report` ticks after the suite run and after each profiled
//! benchmark.

use std::fmt::Write as _;

use crate::export::Snapshot;
use crate::json;
use crate::quantile::QuantileView;

/// Top-level keys of every timeline ndjson line, in output order
/// (pinned by `OBS_SCHEMA.json`).
pub const TIMELINE_FIELDS: [&str; 4] = ["t_ns", "counters", "gauges", "histograms"];

/// Diffs successive snapshots into ndjson lines.
#[derive(Debug, Default)]
pub struct Timeline {
    prev: Snapshot,
}

impl Timeline {
    /// A timeline whose first tick reports everything as new.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Diffs `snap` against the previous tick and renders one ndjson
    /// line stamped `t_ns` (nanoseconds on whatever clock the caller
    /// uses consistently, e.g. [`crate::Registry::now_ns`]).
    pub fn tick(&mut self, snap: &Snapshot, t_ns: u64) -> String {
        let mut line = String::new();
        let _ = write!(line, "{{\"t_ns\": {t_ns}, \"counters\": [");
        let mut first = true;
        for c in &snap.counters {
            let prev = self
                .prev
                .counters
                .iter()
                .find(|p| p.name == c.name && p.labels == c.labels)
                .map_or(0, |p| p.value);
            let delta = c.value.saturating_sub(prev);
            if delta == 0 {
                continue;
            }
            if !first {
                line.push_str(", ");
            }
            first = false;
            let _ = write!(
                line,
                "{{\"name\": {}, \"labels\": {}, \"delta\": {delta}}}",
                json::string(&c.name),
                json::label_object(&c.labels)
            );
        }
        line.push_str("], \"gauges\": [");
        let mut first = true;
        for g in &snap.gauges {
            let prev = self
                .prev
                .gauges
                .iter()
                .find(|p| p.name == g.name && p.labels == g.labels);
            if prev.is_some_and(|p| p.value == g.value) {
                continue;
            }
            if !first {
                line.push_str(", ");
            }
            first = false;
            let _ = write!(
                line,
                "{{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                json::string(&g.name),
                json::label_object(&g.labels),
                g.value
            );
        }
        line.push_str("], \"histograms\": [");
        let mut first = true;
        for h in &snap.histograms {
            let prev = self
                .prev
                .histograms
                .iter()
                .find(|p| p.name == h.name && p.labels == h.labels)
                .map_or(0, |p| p.count);
            let delta = h.count.saturating_sub(prev);
            if delta == 0 {
                continue;
            }
            if !first {
                line.push_str(", ");
            }
            first = false;
            let q = QuantileView::from_sample(h).unwrap_or_default();
            let _ = write!(
                line,
                "{{\"name\": {}, \"labels\": {}, \"delta_count\": {delta}, \
                 \"p50\": {:.1}, \"p99\": {:.1}}}",
                json::string(&h.name),
                json::label_object(&h.labels),
                q.p50,
                q.p99
            );
        }
        line.push_str("]}");
        self.prev = snap.clone();
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn first_tick_reports_everything_changes_only_after() {
        let obs = Registry::new();
        obs.counter("steps", &[("bench", "t")]).add(10);
        obs.gauge("depth", &[]).set(3);
        obs.histogram("lat", &[]).record(100);
        let mut tl = Timeline::new();
        let l1 = tl.tick(&obs.snapshot(), 1000);
        let v1 = json::parse(&l1).expect("line 1 parses");
        assert_eq!(v1.get("t_ns").and_then(|t| t.as_u64()), Some(1000));
        assert_eq!(v1.get("counters").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v1.get("gauges").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v1.get("histograms").unwrap().as_arr().unwrap().len(), 1);

        // Nothing changed: the next tick is an empty heartbeat.
        let l2 = tl.tick(&obs.snapshot(), 2000);
        let v2 = json::parse(&l2).expect("line 2 parses");
        assert!(v2.get("counters").unwrap().as_arr().unwrap().is_empty());
        assert!(v2.get("gauges").unwrap().as_arr().unwrap().is_empty());
        assert!(v2.get("histograms").unwrap().as_arr().unwrap().is_empty());

        // A delta shows up as exactly the delta.
        obs.counter("steps", &[("bench", "t")]).add(5);
        let l3 = tl.tick(&obs.snapshot(), 3000);
        let v3 = json::parse(&l3).expect("line 3 parses");
        let counters = v3.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("delta").and_then(|d| d.as_u64()), Some(5));
    }

    #[test]
    fn histogram_entries_carry_quantiles() {
        let obs = Registry::new();
        for _ in 0..50 {
            obs.histogram("lat", &[]).record(1000);
        }
        let mut tl = Timeline::new();
        let v = json::parse(&tl.tick(&obs.snapshot(), 0)).expect("parses");
        let h = &v.get("histograms").unwrap().as_arr().unwrap()[0];
        assert_eq!(h.get("delta_count").and_then(|d| d.as_u64()), Some(50));
        let p50 = h.get("p50").and_then(|p| p.as_f64()).expect("p50");
        assert!((512.0..=1023.0).contains(&p50), "{p50}");
    }
}
