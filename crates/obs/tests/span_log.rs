//! Span-log exports pinned byte for byte, and span merging under
//! differing name-recording orders.

use cudele_obs::{Registry, Span};
use cudele_sim::Nanos;

/// A registry mixing every span shape the exporters handle: a legacy
/// `span_id == 0` span with JSON-escaped name, category and args,
/// identified roots and children with args, standalone spans, drops past
/// the capacity, metrics with escaped names, and timeline windows (which
/// the Chrome trace carries as counter events).
fn mixed_registry() -> Registry {
    let reg = Registry::with_span_capacity(7);
    reg.record_span(Span {
        name: "create \"a\\b\"\n".into(),
        cat: "rpc\t1".into(),
        tid: 3,
        start: Nanos(1_234_567),
        dur: Nanos(890),
        span_id: 0,
        parent_id: 0,
        trace_id: 0,
        args: vec![("ev\"ents".into(), "7\u{1}".into())],
    });
    let root = reg.trace_root(1);
    let child = reg.trace_child(root);
    reg.end_span_args(
        child,
        "stripe_append",
        "rados",
        Nanos(10),
        Nanos(5),
        vec![
            ("bytes".into(), "4096".into()),
            ("obj".into(), "j/0".into()),
        ],
    );
    reg.child_span(child, "osd.write", "rados", Nanos(11), Nanos(3));
    reg.end_span(root, "create", "client_op", Nanos(0), Nanos(20));
    reg.span("ünïcode ☃", "mechanism", 2, Nanos(30), Nanos(1));
    reg.span("create", "client_op", 0, Nanos(40), Nanos(2));
    // Capacity 7: the last two `late` spans are dropped.
    for i in 0..3u64 {
        reg.span("late", "client_op", 0, Nanos(50 + i), Nanos(1));
    }
    reg.counter("a.\"quoted\"").add(3);
    reg.counter("z.last").inc();
    reg.gauge("util\\x").set(0.25);
    reg.histogram("lat.ns").record(1000);
    reg.histogram("lat.ns").record(3);
    let tl = reg.timeline();
    tl.add("bench.ops", Nanos(0), 2);
    tl.sample_traced("bench.op_latency.ns", Nanos(10), 700, root.trace_id);
    reg
}

/// The Chrome trace of [`mixed_registry`], byte for byte; one event per
/// line.
const GOLDEN_TRACE: &str = concat!(
    r#"{"traceEvents":[{"name":"bench.op_latency.ns","ph":"C","ts":0.000,"pid":1,"tid":0,"args":{"value":700.0}},"#,
    r#"{"name":"bench.ops","ph":"C","ts":0.000,"pid":1,"tid":0,"args":{"value":400.0}},"#,
    r#"{"name":"create \"a\\b\"\n","cat":"rpc\t1","ph":"X","ts":1234.567,"dur":0.890,"pid":1,"tid":3,"args":{"ev\"ents":"7\u0001"}},"#,
    r#"{"name":"stripe_append","cat":"rados","ph":"X","ts":0.010,"dur":0.005,"pid":1,"tid":1,"args":{"span_id":"2","parent_id":"1","trace_id":"1","bytes":"4096","obj":"j/0"}},"#,
    r#"{"name":"osd.write","cat":"rados","ph":"X","ts":0.011,"dur":0.003,"pid":1,"tid":1,"args":{"span_id":"3","parent_id":"2","trace_id":"1"}},"#,
    r#"{"name":"create","cat":"client_op","ph":"X","ts":0.000,"dur":0.020,"pid":1,"tid":1,"args":{"span_id":"1","parent_id":"0","trace_id":"1"}},"#,
    r#"{"name":"ünïcode ☃","cat":"mechanism","ph":"X","ts":0.030,"dur":0.001,"pid":1,"tid":2,"args":{"span_id":"4","parent_id":"0","trace_id":"4"}},"#,
    r#"{"name":"create","cat":"client_op","ph":"X","ts":0.040,"dur":0.002,"pid":1,"tid":0,"args":{"span_id":"5","parent_id":"0","trace_id":"5"}},"#,
    r#"{"name":"late","cat":"client_op","ph":"X","ts":0.050,"dur":0.001,"pid":1,"tid":0,"args":{"span_id":"6","parent_id":"0","trace_id":"6"}}],"displayTimeUnit":"ns"}"#,
);

/// The metrics snapshot of [`mixed_registry`], captured alongside
/// [`GOLDEN_TRACE`].
const GOLDEN_METRICS: &str = r#"{
  "counters": {
    "a.\"quoted\"": 3,
    "obs.spans_dropped": 2,
    "obs.spans_recorded": 7,
    "obs.timeline.windows_dropped": 0,
    "obs.timeline.windows_recorded": 2,
    "z.last": 1
  },
  "gauges": {
    "util\\x": 0.25
  },
  "histograms": {
    "lat.ns": {"count": 2, "sum": 1003, "min": 3, "max": 1000, "p50": 756.0, "p95": 756.0, "p99": 756.0}
  },
  "spans": {"recorded": 7, "dropped": 2}
}
"#;

#[test]
fn exports_match_golden_bytes() {
    let reg = mixed_registry();
    assert_eq!(reg.chrome_trace_json(), GOLDEN_TRACE);
    assert_eq!(reg.metrics_json(), GOLDEN_METRICS);
    assert_eq!((reg.span_count(), reg.spans_dropped()), (7, 2));
    assert!(reg.has_span("create \"a\\b\"\n") && reg.has_span("late"));
    assert!(!reg.has_span("never"));
}

/// Records one task's spans, naming them in `names` order, with a trace
/// root and one child per name.
fn record_task(reg: &Registry, tid: u32, names: &[&str]) {
    let root = reg.trace_root(tid);
    for (i, name) in names.iter().enumerate() {
        let ctx = reg.trace_child(root);
        let args = vec![("i".to_string(), i.to_string())];
        reg.end_span_args(ctx, name, "cat", Nanos(i as u64), Nanos(1), args);
    }
    reg.end_span(root, names[0], "client_op", Nanos(0), Nanos(9));
    reg.span("standalone", names[1], tid, Nanos(9), Nanos(1));
}

/// Per-task registries that named the same spans and categories in
/// opposite orders merge into exactly what one registry recording the
/// tasks serially holds: the merge maps the source's names onto the
/// destination's, whatever order either learned them in.
#[test]
fn merge_of_oppositely_named_registries_equals_serial() {
    let tasks: [(u32, &[&str]); 3] = [
        (0, &["lookup", "create", "flush"]),
        (1, &["flush", "create", "lookup"]),
        (2, &["create", "lookup", "new.name"]),
    ];
    let serial = Registry::new();
    for (tid, names) in tasks {
        record_task(&serial, tid, names);
    }

    // The destination records the first task itself, then merges the
    // other two from private registries.
    let merged = Registry::new();
    record_task(&merged, tasks[0].0, tasks[0].1);
    for (tid, names) in &tasks[1..] {
        let task = Registry::new();
        record_task(&task, *tid, names);
        merged.merge_from(&task);
    }

    assert_eq!(merged.spans(), serial.spans());
    assert_eq!(merged.chrome_trace_json(), serial.chrome_trace_json());
    assert_eq!(merged.metrics_json(), serial.metrics_json());
    assert!(merged.has_span("new.name"));
}

/// A merge into a destination with little room keeps the first spans in
/// merge order and counts the rest, like serial recording into it.
#[test]
fn merge_into_full_log_counts_drops_like_serial() {
    let serial = Registry::with_span_capacity(5);
    record_task(&serial, 0, &["a", "b"]);
    record_task(&serial, 1, &["b", "c"]);

    let merged = Registry::with_span_capacity(5);
    record_task(&merged, 0, &["a", "b"]);
    let task = Registry::new();
    record_task(&task, 1, &["b", "c"]);
    merged.merge_from(&task);

    assert_eq!(merged.spans(), serial.spans());
    assert_eq!(merged.spans_dropped(), serial.spans_dropped());
    assert_eq!(merged.spans_dropped(), 3);
    assert!(!merged.has_span("c"));
}
