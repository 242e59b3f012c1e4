//! The JSON wire codec decodes in time linear in its input, and still
//! rejects every malformed string it rejected before.
//!
//! Every TAXII, STIX and federation frame is decoded by the one parser
//! in the vendored `serde_json`. The wall bounds below are generous for
//! a debug build of a linear decoder; a decoder that re-scans the rest
//! of the input per character needs minutes for the first test.

use std::time::{Duration, Instant};

use cais::common::{Timestamp, Uuid};
use cais::stix::prelude::*;
use cais::taxii::Request;
use serde_json::Value;

const WALL_BOUND: Duration = Duration::from_secs(2);

#[test]
fn a_mebibyte_string_value_decodes_in_linear_time() {
    // Mostly plain ASCII, with multi-byte characters and escapes mixed
    // in so that every arm of the string decoder runs many times.
    let mut text = String::new();
    let mut i = 0u32;
    while text.len() < (1 << 20) {
        match i % 64 {
            0 => text.push('"'),
            1 => text.push('\\'),
            2 => text.push('\n'),
            3 => text.push('é'),
            4 => text.push('€'),
            5 => text.push('😀'),
            _ => text.push(char::from(b'a' + (i % 26) as u8)),
        }
        i += 1;
    }
    let wire = serde_json::to_string(&Value::String(text.clone())).unwrap();
    assert!(wire.len() >= 1 << 20);

    let started = Instant::now();
    let decoded: Value = serde_json::from_str(&wire).unwrap();
    let took = started.elapsed();
    assert_eq!(decoded, Value::String(text));
    assert!(took < WALL_BOUND, "{} B decoded in {took:?}", wire.len());
}

#[test]
fn an_add_objects_frame_of_5000_stix_objects_decodes_in_linear_time() {
    let stamp = Timestamp::from_ymd_hms(2018, 5, 30, 0, 0, 0);
    let objects: Vec<Value> = (0..5_000u32)
        .map(|i| {
            let pattern = format!("[ipv4-addr:value = '10.0.{}.{}']", i / 256, i % 256);
            let mut indicator = Indicator::builder(pattern, stamp);
            indicator
                .name(format!("c2-{i}"))
                .description("command-and-control endpoint seen in an OSINT feed")
                .label("malicious-activity")
                .created(stamp)
                .modified(stamp);
            serde_json::to_value(StixObject::from(indicator.build())).unwrap()
        })
        .collect();
    let request = Request::AddObjects {
        collection: Uuid::NIL,
        objects,
    };
    let frame = serde_json::to_vec(&request).unwrap();

    let started = Instant::now();
    let decoded: Request = serde_json::from_slice(&frame).unwrap();
    let took = started.elapsed();
    assert_eq!(decoded, request);
    assert!(
        took < WALL_BOUND,
        "{} B frame decoded in {took:?}",
        frame.len()
    );
}

#[test]
fn malformed_strings_fail_with_their_errors() {
    for (input, expected) in [
        (r#""no closing quote"#, "unterminated string"),
        (r#"{"key": "no closing quote}"#, "unterminated string"),
        (r#""bad \q escape""#, "invalid escape sequence"),
        (r#""\ud83d alone""#, "unpaired surrogate"),
        (r#""\ud83d\u0041""#, "invalid low surrogate"),
        (r#""\u+041""#, "invalid \\u escape"),
        (r#""\u00"#, "truncated \\u escape"),
    ] {
        let err = serde_json::from_str::<Value>(input)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(expected),
            "{input}: got `{err}`, want `{expected}`"
        );
    }
}
