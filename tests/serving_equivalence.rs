//! Proof that the multiplexed serving core answers **byte-identically**
//! to the thread-per-connection reference runner in `cais_bench`.
//!
//! Each suite serves the *same* state (one `TaxiiServer`, one frozen
//! `Registry`, one `Broker`) through one service on both runners at
//! once and compares raw response frames for the same request sequence —
//! including the `TRACE_FLAG` tagged-frame path, error responses and
//! the bus handshake/stream. Any divergence in framing, ordering or
//! serialization fails the diff, not a lossy JSON comparison.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cais::bus::tcp::{BusServer, BusServerOptions};
use cais::bus::{Broker, Topic};
use cais::common::frame::{read_frame, write_frame, write_frame_traced, TraceHeader};
use cais::common::serve::{NoServeMetrics, ServeConfig};
use cais::taxii::{Collection, TaxiiServer};
use cais::telemetry::{labeled, Registry, TelemetryServer, Tracer};
use cais_bench::reference::serve_blocking;

/// One request/response exchange against `addr`; returns the raw
/// response frame.
fn roundtrip(addr: SocketAddr, request: &[u8], header: Option<TraceHeader>) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write_frame_traced(&mut stream, header, request).expect("write");
    read_frame(&mut stream).expect("read")
}

/// Sends `request` to both servers and asserts the raw response frames
/// match byte for byte.
fn assert_equivalent(
    baseline: SocketAddr,
    core: SocketAddr,
    request: &[u8],
    header: Option<TraceHeader>,
    what: &str,
) {
    let expected = roundtrip(baseline, request, header);
    let actual = roundtrip(core, request, header);
    assert_eq!(expected, actual, "{what}: core response diverged");
}

#[test]
fn taxii_responses_match_thread_per_conn_baseline() {
    let mut server = TaxiiServer::new("equivalence fixture");
    let readable = server.add_collection(Collection::new("iocs", "indicators"));
    let readonly = server.add_collection(Collection::new("ro", "read only").read_only());
    let baseline = serve_blocking("127.0.0.1:0", server.clone()).expect("baseline");
    let core = server
        .serve_on_core("127.0.0.1:0", ServeConfig::default(), NoServeMetrics)
        .expect("core");

    let add = serde_json::to_vec(&serde_json::json!({
        "op": "add-objects",
        "collection": readable,
        "objects": [{"type": "indicator", "value": "203.0.113.7"}],
    }))
    .unwrap();
    // The same AddObjects against shared state returns the same
    // deterministic `Accepted { stored }` from either endpoint.
    assert_equivalent(baseline, core.local_addr(), &add, None, "add_objects");

    let requests: Vec<(&str, Vec<u8>)> = vec![
        (
            "discovery",
            serde_json::to_vec(&serde_json::json!({"op": "discovery"})).unwrap(),
        ),
        (
            "collections",
            serde_json::to_vec(&serde_json::json!({"op": "collections"})).unwrap(),
        ),
        (
            "get_objects",
            serde_json::to_vec(&serde_json::json!({
                "op": "get-objects", "collection": readable, "limit": 10,
            }))
            .unwrap(),
        ),
        (
            "get_objects other collection",
            serde_json::to_vec(&serde_json::json!({
                "op": "get-objects", "collection": readonly, "limit": 10,
            }))
            .unwrap(),
        ),
        (
            "get_objects unknown collection",
            serde_json::to_vec(&serde_json::json!({
                "op": "get-objects",
                "collection": "99999999-9999-4999-8999-999999999999",
                "limit": 10,
            }))
            .unwrap(),
        ),
        ("malformed request", b"{not json".to_vec()),
    ];
    for (what, request) in &requests {
        assert_equivalent(baseline, core.local_addr(), request, None, what);
    }

    // The PR 7 trace path: a TRACE_FLAG-tagged request frame gets the
    // same (untagged) response bytes from both implementations.
    let header = TraceHeader {
        trace_id: 0xabad_cafe_d00d_f00d,
        span_id: 0x0123_4567_89ab_cdef,
    };
    let get = serde_json::to_vec(&serde_json::json!({
        "op": "get-objects", "collection": readable, "limit": 10,
    }))
    .unwrap();
    assert_equivalent(
        baseline,
        core.local_addr(),
        &get,
        Some(header),
        "traced get_objects",
    );
    core.shutdown();
}

#[test]
fn telemetry_scrapes_match_thread_per_conn_baseline() {
    // A frozen registry + tracer: neither server self-instruments, so
    // every scrape must serialize exactly this state.
    let registry = Registry::new();
    registry.counter("hits_total").add(5);
    registry.gauge("queue_depth").set(-3);
    registry
        .histogram(&labeled("stage_nanos", &[("stage", "dedup")]))
        .record(12_345);
    let tracer = Tracer::new();
    {
        let root = tracer.root("ingress", "feed_poll");
        let _child = tracer.child(root.context(), "pipeline", "ingest_round");
    }
    let baseline = serve_blocking(
        "127.0.0.1:0",
        TelemetryServer::service(registry.clone(), Some(tracer.clone())),
    )
    .expect("baseline");
    let core = TelemetryServer::bind_on_core(
        registry,
        Some(tracer),
        "127.0.0.1:0",
        ServeConfig::default(),
        NoServeMetrics,
    )
    .expect("core");

    for command in ["prometheus", "json", "trace", "trace_chrome", "trace_jsonl"] {
        let request = serde_json::to_vec(command).unwrap();
        assert_equivalent(baseline, core.local_addr(), &request, None, command);
    }
    // Unknown commands answer a JSON error frame on both.
    let bogus = serde_json::to_vec("bogus").unwrap();
    assert_equivalent(baseline, core.local_addr(), &bogus, None, "unknown command");
    // A non-JSON command frame closes both connections without a reply.
    for addr in [baseline, core.local_addr()] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, b"{not a json string").unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "{addr}: bad command frame must close");
    }
    core.shutdown();
}

/// Reads frames from a raw bus-client stream until `count`
/// non-keepalive frames arrive (keepalive cadence is an internal
/// liveness detail, not protocol content).
fn read_messages(stream: &mut TcpStream, count: usize) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while frames.len() < count {
        let frame = read_frame(stream).expect("stream frame");
        if !frame.is_empty() {
            frames.push(frame);
        }
    }
    frames
}

#[test]
fn bus_stream_matches_thread_per_conn_baseline() {
    let broker = Broker::new();
    let baseline = serve_blocking(
        "127.0.0.1:0",
        BusServer::service(broker.clone(), BusServerOptions::default()),
    )
    .expect("baseline");
    let (_core_server, core) = BusServer::bind_on_core(
        broker.clone(),
        "127.0.0.1:0",
        BusServerOptions::default(),
        ServeConfig::default(),
        NoServeMetrics,
    )
    .expect("core");

    let connect = |addr: SocketAddr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write_frame(&mut stream, &serde_json::to_vec("misp.#").unwrap()).expect("pattern");
        let ack = read_frame(&mut stream).expect("ack");
        assert!(ack.is_empty(), "handshake ack must be an empty frame");
        stream
    };
    let mut baseline_client = connect(baseline);
    let mut core_client = connect(core.local_addr());
    // Both subscriptions are registered (ack received), so both see
    // every publish from here on.
    for i in 0..5 {
        broker.publish(
            Topic::new("misp.event.created"),
            serde_json::json!({"seq": i}),
        );
    }
    broker.publish(Topic::new("other.topic"), serde_json::json!("filtered out"));
    let expected = read_messages(&mut baseline_client, 5);
    let actual = read_messages(&mut core_client, 5);
    assert_eq!(expected, actual, "bus stream diverged");
    core.shutdown();
}
