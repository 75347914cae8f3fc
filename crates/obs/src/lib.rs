//! # symbol-obs
//!
//! The zero-dependency observability layer of the SYMBOL reproduction:
//! counters, gauges, log2-bucketed histograms, RAII span timers and a
//! lock-free flight recorder, with exporters for a stable, diffable
//! `metrics.json` snapshot, a Chrome Trace Format (`trace_event`)
//! document that opens in Perfetto or `chrome://tracing`, and an
//! ndjson timeline of snapshot diffs.
//!
//! ## Design
//!
//! * **Global-free.** There is no process-wide singleton: everything
//!   hangs off a [`Registry`] handle the application creates and passes
//!   down. Handles are `Arc`-backed clones, cheap to share across the
//!   scoped worker threads of the experiment drivers.
//! * **Atomics-only hot path.** Metric updates are single relaxed
//!   atomic operations; locks are only taken at registration and
//!   export time.
//! * **Free when off.** [`Registry::disabled`] hands out inert handles
//!   whose updates are a null check. The execution engines go further:
//!   their profiling hooks are monomorphized out behind const generics
//!   (see `symbol-intcode`'s and `symbol-vliw`'s decoded engines), so
//!   the disabled path is the same machine code as before the hooks
//!   existed — the `emulator_decode` bench enforces a <2% ceiling on
//!   any residual drift.
//!
//! ```
//! use symbol_obs::Registry;
//!
//! let obs = Registry::new();
//! let steps = obs.counter("emulator.steps", &[("bench", "qsort")]);
//! {
//!     let _span = obs.span("emulate", &[("bench", "qsort")]);
//!     steps.add(1000);
//! }
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.counters[0].value, 1000);
//! let metrics_json = snapshot.to_json();
//! let trace_json = obs.chrome_trace_json();
//! # assert!(metrics_json.contains("emulator.steps"));
//! # assert!(trace_json.contains("emulate"));
//! ```

pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod quantile;
pub mod timeline;
pub mod trace;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use export::{BucketSample, CounterSample, GaugeSample, HistogramSample, Snapshot};
pub use flight::{FlightKind, FlightRecord, FlightRecorder};
pub use metrics::{bucket_bounds, bucket_index, Counter, Gauge, Histogram};
pub use quantile::QuantileView;
pub use timeline::Timeline;
pub use trace::{chrome_trace_json, thread_id, Span, TraceEvent};

use metrics::{CounterCell, GaugeCell, HistogramCell, MetricId};

#[derive(Debug)]
struct RegistryInner {
    /// Zero point of all trace timestamps.
    epoch: Instant,
    counters: Mutex<Vec<Arc<CounterCell>>>,
    gauges: Mutex<Vec<Arc<GaugeCell>>>,
    histograms: Mutex<Vec<Arc<HistogramCell>>>,
    trace: Mutex<Vec<TraceEvent>>,
}

/// The root observability handle. Clone freely; all clones share the
/// same metric cells and trace buffer.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner {
                epoch: Instant::now(),
                counters: Mutex::new(Vec::new()),
                gauges: Mutex::new(Vec::new()),
                histograms: Mutex::new(Vec::new()),
                trace: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The disabled registry: every handle it produces is inert, every
    /// span a no-op. This is the default threaded through the library
    /// APIs, so un-instrumented callers pay only null checks.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Finds or creates the counter `name` with `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::noop();
        };
        let id = MetricId::new(name, labels);
        let mut counters = inner.counters.lock().expect("counter table poisoned");
        if let Some(c) = counters.iter().find(|c| c.id == id) {
            return Counter(Some(c.clone()));
        }
        let cell = Arc::new(CounterCell {
            id,
            value: Default::default(),
        });
        counters.push(cell.clone());
        Counter(Some(cell))
    }

    /// Finds or creates the gauge `name` with `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::noop();
        };
        let id = MetricId::new(name, labels);
        let mut gauges = inner.gauges.lock().expect("gauge table poisoned");
        if let Some(g) = gauges.iter().find(|g| g.id == id) {
            return Gauge(Some(g.clone()));
        }
        let cell = Arc::new(GaugeCell {
            id,
            value: Default::default(),
        });
        gauges.push(cell.clone());
        Gauge(Some(cell))
    }

    /// Finds or creates the histogram `name` with `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::noop();
        };
        let id = MetricId::new(name, labels);
        let mut histograms = inner.histograms.lock().expect("histogram table poisoned");
        if let Some(h) = histograms.iter().find(|h| h.id == id) {
            return Histogram(Some(h.clone()));
        }
        let cell = Arc::new(HistogramCell::new(id));
        histograms.push(cell.clone());
        Histogram(Some(cell))
    }

    /// Opens an RAII span named `name`. On drop it appends a Chrome
    /// Trace event and records the duration into the histogram
    /// `span.<name>.ns` with the same labels.
    pub fn span(&self, name: &str, labels: &[(&str, &str)]) -> Span {
        if self.inner.is_none() {
            return Span::noop();
        }
        let histogram = self.histogram(&format!("span.{name}.ns"), labels);
        Span {
            state: Some(trace::SpanState {
                registry: self.clone(),
                name: name.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                start: Instant::now(),
                histogram,
            }),
        }
    }

    /// Opens an RAII span that records only a Chrome Trace event —
    /// no `span.<name>.ns` histogram. Use this for labels with
    /// unbounded cardinality (request ids): a regular [`Registry::span`]
    /// would mint one histogram cell per distinct label set and the
    /// registry would grow without bound.
    pub fn event_span(&self, name: &str, labels: &[(&str, &str)]) -> Span {
        if self.inner.is_none() {
            return Span::noop();
        }
        Span {
            state: Some(trace::SpanState {
                registry: self.clone(),
                name: name.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                start: Instant::now(),
                histogram: Histogram::noop(),
            }),
        }
    }

    /// Nanoseconds elapsed since this registry was created (0 when
    /// disabled) — the clock timeline ticks and flight-dump stamps
    /// share so they can be correlated.
    pub fn now_ns(&self) -> u64 {
        self.elapsed_since_epoch(Instant::now()).as_nanos() as u64
    }

    /// Takes a point-in-time, canonically sorted copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let mut counters: Vec<CounterSample> = inner
            .counters
            .lock()
            .expect("counter table poisoned")
            .iter()
            .map(|c| CounterSample {
                name: c.id.name.clone(),
                labels: c.id.labels.clone(),
                value: c.value.load(std::sync::atomic::Ordering::Relaxed),
            })
            .collect();
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut gauges: Vec<GaugeSample> = inner
            .gauges
            .lock()
            .expect("gauge table poisoned")
            .iter()
            .map(|g| GaugeSample {
                name: g.id.name.clone(),
                labels: g.id.labels.clone(),
                value: g.value.load(std::sync::atomic::Ordering::Relaxed),
            })
            .collect();
        gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut histograms: Vec<HistogramSample> = inner
            .histograms
            .lock()
            .expect("histogram table poisoned")
            .iter()
            .map(|h| HistogramSample::from_cell(h))
            .collect();
        histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Copies out the completed trace events recorded so far.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.trace.lock().expect("trace buffer poisoned").clone()
        })
    }

    /// Renders the recorded spans as a Chrome Trace Format document.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.trace_events())
    }

    pub(crate) fn push_trace_event(&self, e: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.trace.lock().expect("trace buffer poisoned").push(e);
        }
    }

    pub(crate) fn elapsed_since_epoch(&self, t: Instant) -> Duration {
        self.inner.as_ref().map_or(Duration::ZERO, |i| {
            t.checked_duration_since(i.epoch).unwrap_or_default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_hands_out_inert_handles() {
        let r = Registry::disabled();
        assert!(!r.enabled());
        r.counter("c", &[]).add(1);
        r.gauge("g", &[]).set(1);
        r.histogram("h", &[]).record(1);
        drop(r.span("s", &[]));
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.histograms.is_empty());
        assert!(r.trace_events().is_empty());
    }

    #[test]
    fn handles_are_find_or_create() {
        let r = Registry::new();
        let a = r.counter("steps", &[("b", "x")]);
        let b = r.counter("steps", &[("b", "x")]);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5, "same identity shares one cell");
        let other = r.counter("steps", &[("b", "y")]);
        assert_eq!(other.get(), 0, "different labels are a different cell");
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.counter("m", &[("a", "1"), ("z", "2")]).inc();
        r.counter("m", &[("z", "2"), ("a", "1")]).inc();
        assert_eq!(r.snapshot().counters.len(), 1);
        assert_eq!(r.snapshot().counters[0].value, 2);
    }

    #[test]
    fn spans_record_trace_events_and_histograms() {
        let r = Registry::new();
        {
            let _s = r.span("compile", &[("bench", "tak")]);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let events = r.trace_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "compile");
        assert!(events[0].dur_us >= 1000);
        let snap = r.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].name, "span.compile.ns");
        assert_eq!(snap.histograms[0].count, 1);
    }

    #[test]
    fn event_spans_trace_without_minting_histograms() {
        let r = Registry::new();
        for req in 0..10u64 {
            let id = req.to_string();
            drop(r.event_span("serve.query", &[("req", &id)]));
        }
        assert_eq!(r.trace_events().len(), 10);
        assert!(
            r.snapshot().histograms.is_empty(),
            "per-request spans must not create histogram cells"
        );
        drop(Registry::disabled().event_span("s", &[]));
    }

    #[test]
    fn now_ns_is_monotone_and_zero_when_disabled() {
        let r = Registry::new();
        let a = r.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(r.now_ns() > a);
        assert_eq!(Registry::disabled().now_ns(), 0);
    }

    #[test]
    fn clones_share_state() {
        let r = Registry::new();
        let c = r.clone().counter("shared", &[]);
        c.inc();
        assert_eq!(r.snapshot().counters[0].value, 1);
    }
}
