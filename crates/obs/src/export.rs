//! The `metrics.json` snapshot exporter and its schema descriptor.
//!
//! A [`Snapshot`] is a point-in-time copy of every registered metric,
//! sorted by name and label set so two snapshots of equivalent runs
//! are textually diffable. [`Snapshot::to_json`] renders the stable
//! `metrics.json` document (schema version [`SCHEMA_VERSION`]);
//! [`Snapshot::schema_json`] renders just the *shape* — metric kinds,
//! names and label keys with all values elided — which CI pins with a
//! checked-in snapshot to catch accidental schema drift.

use std::fmt::Write as _;

use crate::json;
use crate::metrics::{bucket_bounds, HISTOGRAM_BUCKETS};

/// Version stamp written into every `metrics.json`. Bump when the
/// document structure changes (and update the checked-in schema
/// snapshot). Version 2 added per-histogram `quantiles`.
pub const SCHEMA_VERSION: u32 = 2;

/// Keys of every histogram entry in `metrics.json`, in output order
/// (pinned by the schema snapshot).
pub const HISTOGRAM_FIELDS: [&str; 6] = ["name", "labels", "count", "sum", "buckets", "quantiles"];

/// A counter's snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: u64,
}

/// A gauge's snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: i64,
}

/// One non-empty histogram bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketSample {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Samples in the bucket.
    pub count: u64,
}

/// A histogram's snapshot (only non-empty buckets are kept).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Non-empty buckets, in value order.
    pub buckets: Vec<BucketSample>,
}

impl HistogramSample {
    pub(crate) fn from_cell(cell: &crate::metrics::HistogramCell) -> Self {
        use std::sync::atomic::Ordering;
        let buckets = (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let count = cell.buckets[i].load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let (lo, hi) = bucket_bounds(i);
                Some(BucketSample { lo, hi, count })
            })
            .collect();
        HistogramSample {
            name: cell.id.name.clone(),
            labels: cell.id.labels.clone(),
            count: cell.count.load(Ordering::Relaxed),
            sum: cell.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of every metric in a registry, canonically
/// sorted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms (including the `span.*.ns` timing histograms).
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Renders the stable `metrics.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"labels\": {}, \"value\": {}}}{sep}",
                json::string(&c.name),
                json::label_object(&c.labels),
                c.value
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"gauges\": [");
        for (i, g) in self.gauges.iter().enumerate() {
            let sep = if i + 1 == self.gauges.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"labels\": {}, \"value\": {}}}{sep}",
                json::string(&g.name),
                json::label_object(&g.labels),
                g.value
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i + 1 == self.histograms.len() {
                ""
            } else {
                ","
            };
            let mut buckets = String::from("[");
            for (k, b) in h.buckets.iter().enumerate() {
                if k > 0 {
                    buckets.push_str(", ");
                }
                let _ = write!(
                    buckets,
                    "{{\"lo\": {}, \"hi\": {}, \"count\": {}}}",
                    b.lo, b.hi, b.count
                );
            }
            buckets.push(']');
            let q = crate::quantile::QuantileView::from_sample(h).unwrap_or_default();
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"labels\": {}, \"count\": {}, \"sum\": {}, \
                 \"buckets\": {buckets}, \"quantiles\": {{\"p50\": {:.1}, \"p90\": {:.1}, \
                 \"p99\": {:.1}, \"max\": {}}}}}{sep}",
                json::string(&h.name),
                json::label_object(&h.labels),
                h.count,
                h.sum,
                q.p50,
                q.p90,
                q.p99,
                q.max
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Renders the snapshot's *schema*: the sorted, deduplicated set of
    /// (kind, name, label keys) triples with every value elided. Two
    /// runs over the same code emit the same schema even though their
    /// metric values differ, so CI can pin it.
    pub fn schema_json(&self) -> String {
        let mut entries: Vec<(String, String, Vec<String>)> = Vec::new();
        let mut push = |kind: &str, name: &str, labels: &[(String, String)]| {
            let keys: Vec<String> = labels.iter().map(|(k, _)| k.clone()).collect();
            let e = (kind.to_string(), name.to_string(), keys);
            if !entries.contains(&e) {
                entries.push(e);
            }
        };
        for c in &self.counters {
            push("counter", &c.name, &c.labels);
        }
        for g in &self.gauges {
            push("gauge", &g.name, &g.labels);
        }
        for h in &self.histograms {
            push("histogram", &h.name, &h.labels);
        }
        entries.sort();
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"metrics\": [");
        for (i, (kind, name, keys)) in entries.iter().enumerate() {
            let sep = if i + 1 == entries.len() { "" } else { "," };
            let keys_json = keys
                .iter()
                .map(|k| json::string(k))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "    {{\"kind\": {}, \"name\": {}, \"label_keys\": [{keys_json}]}}{sep}",
                json::string(kind),
                json::string(name)
            );
        }
        let _ = writeln!(out, "  ],");
        let fields = HISTOGRAM_FIELDS
            .iter()
            .map(|f| json::string(f))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  \"histogram_fields\": [{fields}]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("steps", &[("bench", "qsort")]).add(42);
        r.gauge("threads", &[]).set(4);
        r.histogram("lat.ns", &[("stage", "parse")]).record(1000);
        r
    }

    #[test]
    fn snapshot_json_is_stable_and_contains_values() {
        let s = sample_registry().snapshot();
        let j = s.to_json();
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"name\": \"steps\""));
        assert!(j.contains("\"value\": 42"));
        assert!(j.contains("\"bench\": \"qsort\""));
        assert!(j.contains("\"count\": 1"));
        // value 1000 lands in bucket [512, 1023]? no — 1000 < 1024, so
        // [512, 1023]; assert the bucket bounds are present.
        assert!(j.contains("\"lo\": 512, \"hi\": 1023, \"count\": 1"));
        // The single-sample quantiles all sit inside that bucket.
        assert!(j.contains("\"quantiles\": {\"p50\": "), "{j}");
        assert!(j.contains("\"max\": 1023"));
    }

    #[test]
    fn metrics_json_parses_and_schema_lists_field_shapes() {
        let s = sample_registry().snapshot();
        let doc = crate::json::parse(&s.to_json()).expect("metrics.json parses");
        let hists = doc.get("histograms").unwrap().as_arr().unwrap();
        let q = hists[0].get("quantiles").expect("quantiles present");
        assert!(q.get("p99").and_then(|v| v.as_f64()).is_some());
        let schema = crate::json::parse(&s.schema_json()).expect("schema parses");
        let hf = schema.get("histogram_fields").unwrap().as_arr().unwrap();
        assert!(hf.iter().any(|f| f.as_str() == Some("quantiles")));
    }

    #[test]
    fn schema_elides_values_and_is_value_independent() {
        let a = sample_registry();
        let b = Registry::new();
        b.counter("steps", &[("bench", "zebra")]).add(7);
        b.gauge("threads", &[]).set(99);
        b.histogram("lat.ns", &[("stage", "parse")]).record(5);
        let sa = a.snapshot().schema_json();
        let sb = b.snapshot().schema_json();
        assert_eq!(sa, sb, "schema must not depend on label values");
        assert!(sa.contains("\"kind\": \"counter\""));
        assert!(sa.contains("\"label_keys\": [\"bench\"]"));
        assert!(!sa.contains("qsort"));
    }

    #[test]
    fn snapshots_are_sorted_for_diffing() {
        let r = Registry::new();
        r.counter("z.last", &[]).inc();
        r.counter("a.first", &[]).inc();
        r.counter("m.mid", &[("b", "2")]).inc();
        r.counter("m.mid", &[("b", "1")]).inc();
        let s = r.snapshot();
        let names: Vec<_> = s
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.labels.clone()))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
