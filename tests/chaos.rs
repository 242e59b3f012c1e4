//! Chaos integration tests: the sharing channels (TAXII, MISP sync)
//! against servers that drop, corrupt and replay frames on a seeded
//! schedule.
//!
//! Every test derives its fault schedule from `CAIS_CHAOS_SEED`
//! (default 42) and prints the seed up front, so a CI failure is
//! reproducible with `CAIS_CHAOS_SEED=<seed> cargo test --test chaos`.

use std::io;
use std::sync::Arc;

use cais::common::resilience::{
    BreakerConfig, Clock, FaultKind, FaultPlan, FaultService, RecordingSleeper, RetryPolicy,
    ThreadSleeper, VirtualClock,
};
use cais::common::serve::{self, NoServeMetrics, ServeConfig};
use cais::common::time::MILLIS_PER_DAY;
use cais::common::Timestamp;
use cais::decay::{BaseScorer, DecayEngine, DecayModel, RescoredEvent, SweepSummary};
use cais::misp::event::Distribution;
use cais::misp::sync::push_resilient;
use cais::misp::{MispApi, MispEvent, MispStore, Tag};
use cais::taxii::{Collection, Request, ResilientTaxiiClient, TaxiiServer};
use cais::telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn chaos_seed() -> u64 {
    let seed = std::env::var("CAIS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    eprintln!("chaos seed: {seed} (set CAIS_CHAOS_SEED to reproduce)");
    seed
}

/// The TAXII client converges to the full object set even when the
/// server kills the connection on every third request frame.
#[test]
fn taxii_client_converges_against_a_frame_dropping_server() {
    let seed = chaos_seed();
    let mut server = TaxiiServer::new("chaos point");
    let id = server.add_collection(Collection::new("iocs", "chaos collection"));
    // 250 objects force three pages at the client's limit of 100, so
    // the walk spans enough frames for the schedule to fire mid-fetch.
    // Batched with distinct timestamps to keep pagination watermarks
    // meaningful.
    for batch in 0..5 {
        server.handle(Request::AddObjects {
            collection: id,
            objects: (0..50)
                .map(|i| serde_json::json!({ "type": "indicator", "b": batch, "i": i }))
                .collect(),
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let plan = FaultPlan::new(seed).every_nth("taxii.frame", 3, FaultKind::Error);
    let handle = serve::serve(
        "127.0.0.1:0",
        ServeConfig::default(),
        FaultService::new(server.clone(), plan.clone(), "taxii.frame"),
        NoServeMetrics,
    )
    .expect("bind chaos server");
    let addr = handle.local_addr();

    let registry = Registry::new();
    let mut client =
        ResilientTaxiiClient::new(addr, RetryPolicy::fast(6), BreakerConfig::disabled(), seed);
    client.instrument(&registry);

    assert_eq!(
        client.discovery(&ThreadSleeper).expect("discovery"),
        "chaos point",
        "seed {seed}"
    );
    let objects = client
        .all_objects(&id, &ThreadSleeper)
        .expect("all_objects");
    assert_eq!(objects.len(), 250, "seed {seed}");
    assert!(client.retries() > 0, "seed {seed}: no fault ever fired");
    let counters = registry.snapshot().counters;
    assert!(counters["taxii_retries_total"] > 0, "seed {seed}");
    assert!(plan.total_injected() > 0, "seed {seed}");
    handle.shutdown();
}

/// Resilient MISP push against scheduled ack loss: the transfer
/// converges, re-deliveries are confirmed rather than re-inserted, and
/// the target ends with zero duplicate events.
#[test]
fn misp_sync_survives_ack_loss_without_duplicates() {
    let seed = chaos_seed();
    let source = MispApi::new("chaos-src");
    for i in 0..30 {
        let mut event = MispEvent::new(format!("chaos intel {i}"));
        event.distribution = Distribution::AllCommunities;
        let id = source.add_event(event).expect("add");
        source.publish_event(id).expect("publish");
    }
    let target = MispApi::new("chaos-dst");
    // Every second delivery attempt is applied but un-acked.
    let plan = FaultPlan::new(seed).every_nth("misp.push", 2, FaultKind::AckLost);
    let policy = RetryPolicy::fast(4);
    let sleeper = RecordingSleeper::default();

    let mut redelivered = 0;
    let mut passes = 0;
    loop {
        let report = push_resilient(
            &source,
            &target,
            &plan,
            "misp.push",
            &policy,
            &sleeper,
            seed,
        );
        redelivered += report.redelivered;
        passes += 1;
        if report.failed == 0 {
            break;
        }
        assert!(
            passes < 10,
            "seed {seed}: no convergence after {passes} passes"
        );
    }
    assert_eq!(target.store().len(), 30, "seed {seed}");
    assert!(redelivered > 0, "seed {seed}: ack loss never exercised");
    // Zero duplicates: every UUID appears exactly once on the target.
    let mut uuids: Vec<_> = target
        .store()
        .snapshot()
        .iter()
        .map(|v| v.event.uuid)
        .collect();
    let total = uuids.len();
    uuids.sort_unstable();
    uuids.dedup();
    assert_eq!(
        uuids.len(),
        total,
        "seed {seed}: duplicate events on target"
    );
    // A follow-up pass is a no-op: everything is already present.
    let healthy = FaultPlan::healthy();
    let again = push_resilient(
        &source,
        &target,
        &healthy,
        "misp.push",
        &policy,
        &sleeper,
        seed,
    );
    assert_eq!(again.base.already_present, 30, "seed {seed}");
    assert_eq!(again.base.transferred, 0, "seed {seed}");
}

/// Decay sweeps under a seeded random schedule of churn, sightings,
/// clock advances and sweeps are fully deterministic: two runs with
/// the same seed produce identical scores, flips and store state, and
/// at every step the incremental rescore matches the from-scratch
/// oracle.
#[test]
fn decay_sweep_is_deterministic_under_seeded_schedule() {
    let seed = chaos_seed();

    // Event uuids are random v4s, not part of the deterministic
    // surface: compare everything else.
    fn shape(scores: &[RescoredEvent]) -> Vec<(u64, f64, f64, bool)> {
        scores
            .iter()
            .map(|s| (s.event_id, s.base, s.score, s.expired))
            .collect()
    }

    /// Final scores, sweep summaries, and per-event store state
    /// `(id, published, tag count)`.
    type RunOutcome = (
        Vec<RescoredEvent>,
        Vec<SweepSummary>,
        Vec<(u64, bool, usize)>,
    );

    fn run(seed: u64) -> RunOutcome {
        let clock = VirtualClock::starting_at(Timestamp::from_unix_millis(40 * MILLIS_PER_DAY));
        let engine = DecayEngine::new(
            DecayModel::new(20.0, 1.0).with_threshold(1.0),
            BaseScorer::cais_default(),
            Arc::new(clock.clone()),
        );
        let store = MispStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let count = 12u64;
        for i in 0..count {
            let mut event = MispEvent::new(format!("chaos indicator {i}"));
            event.date = clock.now().add_days(-rng.gen_range(0i64..10));
            for predicate in ["reliability", "freshness", "corroboration"] {
                event.add_tag(Tag::machine(
                    "cais-conf",
                    predicate,
                    &rng.gen_range(1u8..6).to_string(),
                ));
            }
            let id = store.insert(event).expect("insert");
            store.publish(id).expect("publish");
        }

        let mut sweeps = Vec::new();
        for _ in 0..30 {
            let id = rng.gen_range(0..count) + 1;
            match rng.gen_range(0u8..4) {
                0 => store
                    .update(id, |event| event.info.push('!'))
                    .expect("churn"),
                1 => {
                    let uuid = store.get(id).expect("event").uuid;
                    let backdate = rng.gen_range(0i64..5);
                    engine.record_sighting(uuid, clock.now().add_days(-backdate));
                }
                2 => clock.advance_days(rng.gen_range(1i64..7)),
                _ => sweeps.push(engine.sweep(&store).expect("sweep")),
            }
            let (incremental, _) = engine.rescore(&store);
            assert_eq!(
                incremental,
                engine.score_from_scratch(&store),
                "seed {seed}: incremental diverged from the oracle"
            );
        }

        let (scores, _) = engine.rescore(&store);
        let state: Vec<(u64, bool, usize)> = store
            .snapshot()
            .iter()
            .map(|v| (v.event.id, v.event.published, v.event.tags.len()))
            .collect();
        (scores, sweeps, state)
    }

    let first = run(seed);
    let second = run(seed);
    assert_eq!(
        shape(&first.0),
        shape(&second.0),
        "seed {seed}: scores diverged"
    );
    assert_eq!(first.1, second.1, "seed {seed}: sweep summaries diverged");
    assert_eq!(first.2, second.2, "seed {seed}: store state diverged");
    assert!(!first.1.is_empty(), "seed {seed}: schedule never swept");
}

/// A dead TAXII peer trips the circuit breaker; the transition is
/// visible in the telemetry registry and further calls are denied
/// without touching the network.
#[test]
fn dead_peer_breaker_transitions_surface_in_telemetry() {
    let seed = chaos_seed();
    // Bind-then-drop leaves a port that refuses connections.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let registry = Registry::new();
    let mut client = ResilientTaxiiClient::new(
        addr,
        RetryPolicy::fast(2),
        BreakerConfig {
            trip_after: 2,
            cooldown_probes: 2,
            half_open_successes: 1,
        },
        seed,
    );
    client.instrument(&registry);

    assert!(client.discovery(&ThreadSleeper).is_err(), "seed {seed}");
    assert!(client.discovery(&ThreadSleeper).is_err(), "seed {seed}");
    assert!(client.is_quarantined(), "seed {seed}");
    let denied = client.discovery(&ThreadSleeper).unwrap_err();
    assert_eq!(
        denied.kind(),
        io::ErrorKind::ConnectionRefused,
        "seed {seed}"
    );
    let counters = registry.snapshot().counters;
    assert_eq!(counters["taxii_breaker_opened_total"], 1, "seed {seed}");
    assert!(counters["taxii_retries_total"] >= 2, "seed {seed}");
    assert_eq!(client.breaker_transitions().opened, 1, "seed {seed}");
}

/// A dead feed tripping its circuit breaker fires the flight recorder:
/// exactly one `breaker_trip` dump, naming the failing feed and
/// carrying the ingress spans of the rounds that led to the trip.
#[test]
fn breaker_trip_dumps_the_flight_recorder() {
    use cais::core::Platform;
    use cais::feeds::{FeedFormat, FlakySource, MemorySource, ResilienceConfig, ResilientSource};
    use cais::telemetry::FlightRecorder;

    let seed = chaos_seed();
    let dir = std::env::temp_dir().join(format!("cais-chaos-flight-{seed}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut platform = Platform::paper_use_case();
    let recorder = FlightRecorder::new(platform.tracer().clone(), &dir);
    platform.set_flight_recorder(&recorder);

    // One healthy feed and one that fails every fetch on the seeded
    // schedule; the default breaker trips after three failed rounds.
    let plan = FaultPlan::new(seed).always("feeds.dead", FaultKind::Error);
    let healthy = MemorySource::new(
        "healthy",
        FeedFormat::Csv,
        cais::feeds::ThreatCategory::CommandAndControl,
        "value,date\nalpha.evil.example,2018-06-01T00:00:00Z\n",
    );
    let dead = MemorySource::new(
        "dead-feed",
        FeedFormat::Csv,
        cais::feeds::ThreatCategory::CommandAndControl,
        "value,date\nnever-seen.evil.example,2018-06-01T00:00:00Z\n",
    );
    let config = ResilienceConfig::default();
    let mut sources = vec![
        ResilientSource::new(Box::new(healthy), &config, seed),
        ResilientSource::new(
            Box::new(FlakySource::scripted(dead, plan, "feeds.dead")),
            &config,
            seed,
        ),
    ];

    let mut rounds = 0;
    while recorder.dumps() == 0 {
        platform.ingest_from_sources(&mut sources, 1).unwrap();
        rounds += 1;
        assert!(rounds < 10, "seed {seed}: breaker never tripped");
    }
    assert!(sources[1].is_quarantined(), "seed {seed}");
    assert_eq!(recorder.dumps(), 1, "seed {seed}: one trip, one dump");

    // The dump path is deterministic (sequence-numbered, not
    // timestamped) and the document names the failing feed.
    let path = dir.join("flight-0000-breaker_trip.json");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("dump written"))
            .expect("dump is JSON");
    assert_eq!(doc["reason"].as_str(), Some("breaker_trip"), "seed {seed}");
    assert_eq!(doc["detail"].as_str(), Some("dead-feed"), "seed {seed}");
    let ingress = doc["subsystems"]["ingress"]
        .as_array()
        .expect("ingress ring dumped");
    assert_eq!(
        ingress.len(),
        rounds - 1,
        "seed {seed}: the trip fires mid-poll, before the round's own span records"
    );
    for span in ingress {
        assert_eq!(span["name"].as_str(), Some("feed_poll"), "seed {seed}");
    }
    // The healthy feed's pipeline activity is captured alongside.
    assert!(
        doc["subsystems"]["pipeline"]
            .as_array()
            .is_some_and(|spans| !spans.is_empty()),
        "seed {seed}"
    );

    // Further quarantined rounds deny without re-tripping: no new dump.
    platform.ingest_from_sources(&mut sources, 1).unwrap();
    assert_eq!(recorder.dumps(), 1, "seed {seed}");
    std::fs::remove_dir_all(&dir).ok();
}
