//! `History::parse` edge cases: exact 64-bit integers, rejected
//! non-integers, and the document rules (key order, unknown and
//! duplicate keys, error precedence) of the history reader.

use cudele_obs::history::{History, HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_sim::Nanos;

/// Values that do not survive a round trip through `f64`.
const WIDE: [u64; 3] = [(1 << 53) + 1, (1 << 60) + 3, u64::MAX];

/// One event of each op kind, every integer field set to `v`.
fn events_with(v: u64) -> Vec<HistoryEvent> {
    let ev = |op: HistoryOp| HistoryEvent {
        client: v,
        scope: HistoryScope::Global,
        op,
        result: HistoryResult::Ok,
        ino: v,
        invoke: Nanos(v),
        ack: Nanos(v),
        epoch: v,
        trace_id: v,
    };
    vec![
        ev(HistoryOp::Create {
            dir: v,
            name: "c".into(),
        }),
        ev(HistoryOp::Mkdir {
            dir: v,
            name: "m".into(),
        }),
        ev(HistoryOp::Unlink {
            dir: v,
            name: "u".into(),
        }),
        ev(HistoryOp::Rename {
            src_dir: v,
            src_name: "a".into(),
            dst_dir: v,
            dst_name: "b".into(),
        }),
        ev(HistoryOp::Lookup {
            dir: v,
            name: "l".into(),
            found: Some(v),
        }),
        ev(HistoryOp::Readdir { dir: v, entries: v }),
        ev(HistoryOp::Merge { events: v }),
    ]
}

#[test]
fn wide_integers_round_trip_exactly_in_every_field() {
    for v in WIDE {
        let h = History {
            mode: "rpc".into(),
            events: events_with(v),
            dropped: v,
        };
        let back = History::parse(&h.to_json()).unwrap();
        assert_eq!(back, h, "value {v}");
    }
}

/// A one-event history whose `field` holds the raw JSON `value`.
fn doc_with(field: &str, value: &str) -> String {
    let mut fields = vec![
        ("client", "1"),
        ("scope", "\"global\""),
        ("op", "\"rename\""),
        ("dir", "2"),
        ("name", "\"a\""),
        ("dir2", "3"),
        ("name2", "\"b\""),
        ("ino", "0"),
        ("result", "\"ok\""),
        ("invoke", "5"),
        ("ack", "6"),
        ("epoch", "1"),
        ("trace_id", "0"),
    ];
    let mut dropped = "0";
    match field {
        "dropped" => dropped = value,
        _ => {
            let slot = fields.iter_mut().find(|(k, _)| *k == field).unwrap();
            slot.1 = value;
        }
    }
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!(
        "{{\"schema\":\"cudele-history/v1\",\"mode\":\"rpc\",\"dropped\":{dropped},\"events\":[{{{}}}]}}",
        body.join(",")
    )
}

#[test]
fn non_integer_values_are_rejected_in_every_integer_field() {
    History::parse(&doc_with("client", "1")).expect("the template parses");
    for field in [
        "client", "dir", "dir2", "ino", "invoke", "ack", "epoch", "trace_id", "dropped",
    ] {
        for bad in [
            "1.5",
            "-1",
            "18446744073709551616",
            "1e30",
            "\"7\"",
            "true",
            "[1]",
        ] {
            let doc = doc_with(field, bad);
            let err = History::parse(&doc).expect_err(&format!("{field}={bad} accepted"));
            assert!(err.contains(field), "{field}={bad}: {err}");
        }
    }
}

#[test]
fn integral_number_spellings_still_read_as_integers() {
    for (text, want) in [("2.0", 2), ("1e3", 1000), ("-0", 0), ("0", 0)] {
        let h = History::parse(&doc_with("ino", text)).unwrap();
        assert_eq!(h.events[0].ino, want, "{text}");
    }
}

#[test]
fn lookup_found_accepts_null_and_rejects_non_integers() {
    let lookup = |found: &str| {
        format!(
            "{{\"schema\":\"cudele-history/v1\",\"mode\":\"rpc\",\"events\":[{{\"client\":1,\"scope\":\"global\",\"op\":\"lookup\",\"dir\":1,\"name\":\"x\",\"found\":{found},\"result\":\"noent\",\"invoke\":1,\"ack\":2}}]}}"
        )
    };
    let h = History::parse(&lookup("null")).unwrap();
    assert!(matches!(
        h.events[0].op,
        HistoryOp::Lookup { found: None, .. }
    ));
    assert!(History::parse(&lookup("2.5"))
        .unwrap_err()
        .contains("found"));
}

#[test]
fn keys_may_come_in_any_order_and_unknown_keys_are_skipped() {
    let doc = r#"{"events": [{"ack": 9, "note": {"x": [1, "y", null]}, "op": "create",
        "name": "fé\"", "dir": 4, "invoke": 3, "result": "ok", "scope": "local",
        "client": 2}], "extra": [true, false], "mode": "decoupled",
        "schema": "cudele-history/v1"}"#;
    let h = History::parse(doc).unwrap();
    assert_eq!(h.mode, "decoupled");
    assert_eq!(h.dropped, 0);
    let ev = &h.events[0];
    assert_eq!(
        ev.op,
        HistoryOp::Create {
            dir: 4,
            name: "fé\"".into()
        }
    );
    assert_eq!(
        (ev.client, ev.invoke, ev.ack, ev.ino, ev.epoch),
        (2, Nanos(3), Nanos(9), 0, 0)
    );
    assert_eq!(ev.scope, HistoryScope::Local);
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    let doc = r#"{"schema": "cudele-history/v1", "mode": "rpc", "mode": "decoupled",
        "events": [{"client": 1, "client": 2, "scope": "global", "op": "readdir",
        "dir": 1, "entries": 3, "result": "ok", "invoke": 1, "ack": 2}],
        "events": "ignored"}"#;
    let h = History::parse(doc).unwrap();
    assert_eq!(h.mode, "rpc");
    assert_eq!(h.events.len(), 1);
    assert_eq!(h.events[0].client, 1);
}

#[test]
fn errors_keep_their_precedence() {
    // Malformed JSON anywhere outranks every schema error.
    let err = History::parse(r#"{"schema": "other/v9", "events": [1,]}"#).unwrap_err();
    assert!(err.contains("byte"), "{err}");
    // Schema, then mode, then the events array, then the first bad event.
    let err = History::parse(r#"{"events": [{}], "mode": "rpc"}"#).unwrap_err();
    assert_eq!(err, "history: missing schema");
    let err = History::parse(r#"["not", "an", "object"]"#).unwrap_err();
    assert_eq!(err, "history: missing schema");
    let err = History::parse(r#"{"schema": 1, "mode": "rpc", "events": []}"#).unwrap_err();
    assert_eq!(err, "history: missing schema");
    let err = History::parse(r#"{"events": [{}], "schema": "cudele-history/v1"}"#).unwrap_err();
    assert_eq!(err, "history: missing mode");
    let err = History::parse(r#"{"schema": "cudele-history/v1", "mode": "rpc", "events": {}}"#)
        .unwrap_err();
    assert_eq!(err, "history: missing events array");
    let err = History::parse(
        r#"{"schema": "cudele-history/v1", "mode": "rpc", "events": [7, {"op": "bogus"}]}"#,
    )
    .unwrap_err();
    assert_eq!(err, "history event 0: missing op");
    let err = History::parse(
        r#"{"schema": "cudele-history/v1", "mode": "rpc", "events": [{"op": "bogus"}, 7]}"#,
    )
    .unwrap_err();
    assert_eq!(err, "history event 0: unknown op \"bogus\"");
    let err = History::parse(
        r#"{"schema": "cudele-history/v1", "mode": "rpc", "events": [{"op": "create", "dir": 1}]}"#,
    )
    .unwrap_err();
    assert_eq!(err, "history event 0: missing name");
}
