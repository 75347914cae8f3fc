//! Exporter determinism: two registries fed identical updates must
//! render byte-identical documents, whatever order the updates (and
//! registrations) arrived in — that is the property that makes
//! `metrics.json` diffable across runs and lets CI pin the schema.
//! Also proves the string escaper round-trips through the strict
//! parser, including astral-plane and control characters.

use symbol_obs::{json, Registry, Timeline};

type Update = Box<dyn Fn(&Registry)>;

/// Applies the same logical updates to `r`, registering metrics in
/// the given order.
fn populate(r: &Registry, reversed: bool) {
    let mut updates: Vec<Update> = vec![
        Box::new(|r: &Registry| r.counter("serve.queries.ok", &[("tier", "fused")]).add(5)),
        Box::new(|r: &Registry| r.counter("serve.queries.ok", &[("tier", "decoded")]).add(2)),
        Box::new(|r: &Registry| r.counter("cache.hit", &[]).add(9)),
        Box::new(|r: &Registry| r.gauge("serve.queue.depth", &[]).set(0)),
        Box::new(|r: &Registry| r.gauge("workers", &[]).set(4)),
        Box::new(|r: &Registry| {
            let h = r.histogram("serve.execute.ns", &[("tier", "fused")]);
            for v in [100, 1000, 10_000, 100_000] {
                h.record(v);
            }
        }),
        Box::new(|r: &Registry| {
            r.histogram("serve.queue_wait.ns", &[]).record(777);
        }),
    ];
    if reversed {
        updates.reverse();
    }
    for u in &updates {
        u(r);
    }
}

#[test]
fn identical_registries_render_byte_identical_metrics_json() {
    let a = Registry::new();
    let b = Registry::new();
    populate(&a, false);
    populate(&b, true);
    assert_eq!(
        a.snapshot().to_json(),
        b.snapshot().to_json(),
        "registration order must not leak into metrics.json"
    );
    assert_eq!(a.snapshot().schema_json(), b.snapshot().schema_json());
}

#[test]
fn repeated_snapshots_of_a_quiescent_registry_are_stable() {
    let r = Registry::new();
    populate(&r, false);
    let first = r.snapshot().to_json();
    for _ in 0..3 {
        assert_eq!(r.snapshot().to_json(), first);
    }
}

#[test]
fn chrome_trace_render_is_deterministic_for_identical_spans() {
    // Spans on one thread with identical names/labels: the only
    // nondeterminism is wall-clock timing, so compare structure via
    // the parser rather than bytes.
    let make = || {
        let r = Registry::new();
        drop(r.span("compile", &[("bench", "tak")]));
        drop(r.span("emulate", &[("bench", "tak")]));
        r.chrome_trace_json()
    };
    let (ta, tb) = (make(), make());
    let va = json::parse(&ta).expect("trace a parses");
    let vb = json::parse(&tb).expect("trace b parses");
    let names = |v: &json::Value| -> Vec<String> {
        v.get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()).map(String::from))
            .collect()
    };
    assert_eq!(names(&va), names(&vb));
}

#[test]
fn snapshot_label_keys_are_sorted() {
    let r = Registry::new();
    r.counter("m", &[("zebra", "1"), ("alpha", "2"), ("mid", "3")])
        .inc();
    let snap = r.snapshot();
    let keys: Vec<&str> = snap.counters[0]
        .labels
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["alpha", "mid", "zebra"]);
    // And the rendered form preserves that canonical order.
    assert!(snap
        .to_json()
        .contains("{\"alpha\": \"2\", \"mid\": \"3\", \"zebra\": \"1\"}"));
}

#[test]
fn escape_round_trips_astral_and_control_characters() {
    let nasty = "emoji \u{1F600} astral \u{10FFFF} quote \" slash \\ nl \n tab \t bell \u{7} nul \u{0} done";
    let encoded = json::string(nasty);
    let v = json::parse(&encoded).expect("escaped string parses");
    assert_eq!(v.as_str(), Some(nasty), "escape → parse is the identity");

    // The parser also accepts the \uXXXX surrogate-pair spelling of
    // the same astral characters.
    let v = json::parse("\"\\ud83d\\ude00\"").expect("surrogate pair");
    assert_eq!(v.as_str(), Some("\u{1F600}"));
    // And rejects the malformed variants.
    assert!(json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    assert!(json::parse("\"\\ude00\"").is_err(), "lone low surrogate");
    assert!(json::parse("\"raw \u{1} control\"").is_err());
}

#[test]
fn strict_parser_rejects_trailing_garbage() {
    assert!(json::parse("{\"a\": 1} trailing").is_err());
    assert!(json::parse("[1, 2,]").is_err(), "trailing comma");
    assert!(json::parse("").is_err());
    assert!(json::parse("  {\"a\": [1, 2.5, -3e2, true, null]}  ").is_ok());
}

#[test]
fn timeline_render_is_deterministic_for_equal_snapshots() {
    let make = || {
        let r = Registry::new();
        populate(&r, false);
        let mut tl = Timeline::new();
        tl.tick(&r.snapshot(), 42)
    };
    assert_eq!(make(), make());
}
