//! Scale tests: the platform under volumes well past the paper's
//! worked example. These are correctness-under-load tests, not
//! benchmarks — they assert totals and bounded behaviour, with a loose
//! wall-clock ceiling so a pathological regression fails loudly.

use std::time::{Duration, Instant};

use cais::core::Platform;
use cais::dashboard::{render, DashboardState, DashboardStream};
use cais::feeds::synth::{SyntheticConfig, SyntheticFeedSet};
use cais::infra::inventory::Inventory;

#[test]
fn twenty_thousand_records_flow_through() {
    let mut platform = Platform::paper_use_case();
    let started = Instant::now();
    let mut total_in = 0;
    let mut total_dropped = 0;
    let mut total_eiocs = 0;
    // Four rounds of five feeds × 1000 records; seeds overlap so later
    // rounds are largely duplicates, as real re-fetches are.
    for round in 0..4u64 {
        let set = SyntheticFeedSet::generate(&SyntheticConfig {
            seed: round / 2, // rounds 0/1 and 2/3 share seeds
            feeds: 5,
            records_per_feed: 1_000,
            duplicate_rate: 0.3,
            overlap_rate: 0.3,
            base_time: platform.context().now.add_days(-20),
            ..SyntheticConfig::default()
        });
        let records = set.all_records();
        total_in += records.len();
        let report = platform.ingest_feed_records(records).expect("ingestion");
        total_dropped += report.duplicates_dropped;
        total_eiocs += report.eiocs;
    }
    assert_eq!(total_in, 20_000);
    // Re-fetched rounds must be recognized as duplicates.
    assert!(
        total_dropped > total_in / 3,
        "only {total_dropped} of {total_in} deduplicated"
    );
    assert_eq!(platform.eiocs().len(), total_eiocs);
    assert_eq!(platform.misp().store().len(), total_eiocs);
    // Every stored event is scored within bounds.
    for eioc in platform.eiocs() {
        let score = eioc.score();
        assert!((0.0..=5.0).contains(&score));
    }
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "pipeline took {:?}",
        started.elapsed()
    );
}

#[test]
fn parallel_ingestion_matches_sequential_at_fifty_thousand_records() {
    let workload = || {
        let set = SyntheticFeedSet::generate(&SyntheticConfig {
            seed: 99,
            feeds: 10,
            records_per_feed: 5_000,
            duplicate_rate: 0.4,
            overlap_rate: 0.3,
            base_time: Platform::paper_use_case().context().now.add_days(-20),
            ..SyntheticConfig::default()
        });
        set.all_records()
    };

    let mut sequential = Platform::paper_use_case();
    let records = workload();
    assert_eq!(records.len(), 50_000);
    let started = Instant::now();
    let seq_report = sequential.ingest_feed_records(records).expect("sequential");
    let seq_elapsed = started.elapsed();

    let mut parallel = Platform::paper_use_case();
    let started = Instant::now();
    let par_report = parallel
        .ingest_feed_records_parallel(workload(), 4)
        .expect("parallel");
    let par_elapsed = started.elapsed();

    // The determinism contract: identical counters at every stage and
    // identical eIoC/rIoC sets, in order.
    assert!(
        seq_report.same_counters(&par_report),
        "counter mismatch:\n{seq_report:?}\nvs\n{par_report:?}"
    );
    assert_eq!(sequential.eiocs(), parallel.eiocs());
    assert_eq!(sequential.riocs(), parallel.riocs());
    assert_eq!(
        sequential.misp().store().len(),
        parallel.misp().store().len()
    );
    // The per-stage ledger accounts for the whole batch.
    let stages = par_report.stages;
    assert_eq!(stages.dedup.records_in, 50_000);
    assert_eq!(stages.dedup.dropped, par_report.duplicates_dropped);
    assert_eq!(stages.enrich.records_out, par_report.eiocs);

    let speedup = seq_elapsed.as_secs_f64() / par_elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "50k-record ingest: sequential {seq_elapsed:?}, parallel(4) {par_elapsed:?}, speedup {speedup:.2}x"
    );
}

#[test]
fn indexed_reduction_keeps_serial_and_parallel_identical() {
    use cais::core::{EvaluationContext, PlatformConfig};
    use cais::cvss::CveDatabase;
    use cais::infra::inventory::NodeType;
    use cais::infra::SightingStore;
    use std::sync::Arc;

    // A fleet big enough that the match index does real work, sharing
    // a product pool with the record descriptions below.
    const POOL: &[&str] = &[
        "apache struts",
        "gitlab",
        "owncloud",
        "nginx",
        "redis",
        "postgresql",
        "jenkins",
        "tomcat",
        "elasticsearch",
        "suricata",
        "openssl",
        "docker engine",
    ];
    let mut builder = Inventory::builder();
    for i in 0..300usize {
        let mut node = builder.node(format!("fleet-{i}"), NodeType::Server, "ubuntu");
        for k in 0..5 {
            node.application(POOL[(i * 5 + k * 7) % POOL.len()]);
        }
    }
    builder.common_keyword("linux");
    let inventory = Arc::new(builder.build());

    let now = cais::common::Timestamp::from_ymd_hms(2018, 6, 1, 0, 0, 0);
    let ctx = EvaluationContext::new(
        inventory,
        Arc::new(CveDatabase::synthetic(0, 50)),
        Arc::new(SightingStore::new()),
        now,
    );
    let platform = || Platform::new(PlatformConfig::default(), ctx.clone());

    // Every record names a pool product (so reduction fires against
    // the index), with a unique leading token to avoid family
    // clustering; a slice mentions only the common keyword.
    let records: Vec<cais::feeds::FeedRecord> = (0..4_000usize)
        .map(|i| {
            let description = if i % 17 == 0 {
                format!("advisory{i} privilege escalation in linux hosts")
            } else {
                format!(
                    "advisory{i} exploitation of {} observed",
                    POOL[i % POOL.len()]
                )
            };
            cais::feeds::FeedRecord::new(
                cais::common::Observable::new(
                    cais::common::ObservableKind::Url,
                    // Unique apex per record: a shared apex (or family
                    // word) would correlate the whole burst into one
                    // cluster.
                    format!("https://osint{i}.example/adv"),
                ),
                cais::feeds::ThreatCategory::VulnerabilityExploitation,
                "scale-feed",
                now.add_days(-3),
            )
            .with_description(description)
        })
        .collect();

    let mut serial = platform();
    let serial_report = serial.ingest_feed_records(records.clone()).expect("serial");
    let mut parallel = platform();
    let parallel_report = parallel
        .ingest_feed_records_parallel(records, 4)
        .expect("parallel");

    assert!(
        serial_report.same_counters(&parallel_report),
        "counter mismatch:\n{serial_report:?}\nvs\n{parallel_report:?}"
    );
    assert!(serial_report.riocs > 0, "workload never reduced");
    // rIoC output — node sets, common-keyword flags, ordering — is
    // identical with the match index and memos active on both paths.
    assert_eq!(serial.riocs(), parallel.riocs());
    assert!(serial.riocs().iter().any(|r| r.via_common_keyword));
    assert!(serial.riocs().iter().any(|r| !r.via_common_keyword));

    // Both paths built the index exactly once and leaned on the memo.
    for p in [&serial, &parallel] {
        let stats = p.reduce_cache_stats();
        assert_eq!(stats.index_rebuilds, 1);
        assert!(
            stats.match_memo_hits > stats.match_memo_misses,
            "memo ineffective: {stats:?}"
        );
    }
}

#[test]
fn faulted_feeds_recover_and_match_fault_free_ingestion() {
    use cais::common::resilience::{FaultKind, FaultPlan};
    use cais::feeds::synth::SyntheticFeed;
    use cais::feeds::{FeedFormat, FlakySource, MemorySource, ResilienceConfig, ResilientSource};

    // CSV only: timestamps ride the payload, so every fetch parses
    // into byte-identical records and output equality is exact.
    let set = SyntheticFeedSet::generate(&SyntheticConfig {
        seed: 7,
        feeds: 6,
        records_per_feed: 400,
        duplicate_rate: 0.2,
        overlap_rate: 0.3,
        formats: vec![FeedFormat::Csv],
        base_time: Platform::paper_use_case().context().now.add_days(-20),
        ..SyntheticConfig::default()
    });
    let memory = |feed: &SyntheticFeed| {
        MemorySource::new(&feed.name, feed.format, feed.category, &feed.payload)
    };
    let site = |feed: &SyntheticFeed| format!("feeds.{}", feed.name);
    let config = ResilienceConfig::default();

    // Fault-free baseline: all six feeds healthy.
    let mut healthy: Vec<ResilientSource> = set
        .feeds
        .iter()
        .map(|feed| ResilientSource::new(Box::new(memory(feed)), &config, 7))
        .collect();
    let mut baseline = Platform::paper_use_case();
    let expected = baseline
        .ingest_from_sources(&mut healthy, 1)
        .expect("baseline");
    assert_eq!(expected.delivered, 6);
    assert!(!baseline.riocs().is_empty() || !baseline.eiocs().is_empty());

    // Three of six feeds fail transiently (twice each, within the
    // default budget of 4 attempts): full recovery, identical output,
    // with one worker or four.
    for workers in [1usize, 4] {
        let mut plan = FaultPlan::new(7);
        for feed in [0, 2, 4] {
            plan = plan.fail_first(&site(&set.feeds[feed]), 2, FaultKind::Error);
        }
        let mut sources: Vec<ResilientSource> = set
            .feeds
            .iter()
            .map(|feed| {
                ResilientSource::new(
                    Box::new(FlakySource::scripted(
                        memory(feed),
                        plan.clone(),
                        site(feed),
                    )),
                    &config,
                    7,
                )
            })
            .collect();
        let mut platform = Platform::paper_use_case();
        let outcome = platform
            .ingest_from_sources(&mut sources, workers)
            .expect("faulted round");
        assert_eq!(outcome.delivered, 6, "{workers} workers");
        assert_eq!(outcome.failed, 0, "{workers} workers");
        assert_eq!(outcome.retries, 6, "{workers} workers"); // 2 × 3 feeds
        assert!(
            outcome.report.same_counters(&expected.report),
            "{workers} workers:\n{:?}\nvs\n{:?}",
            outcome.report,
            expected.report
        );
        assert_eq!(platform.eiocs(), baseline.eiocs(), "{workers} workers");
        assert_eq!(platform.riocs(), baseline.riocs(), "{workers} workers");
    }
}

#[test]
fn dead_feed_trips_the_breaker_and_healthy_feeds_still_deliver() {
    use cais::common::resilience::{FaultKind, FaultPlan};
    use cais::feeds::synth::SyntheticFeed;
    use cais::feeds::{FeedFormat, FlakySource, MemorySource, ResilienceConfig, ResilientSource};

    let set = SyntheticFeedSet::generate(&SyntheticConfig {
        seed: 11,
        feeds: 6,
        records_per_feed: 200,
        formats: vec![FeedFormat::Csv],
        base_time: Platform::paper_use_case().context().now.add_days(-20),
        ..SyntheticConfig::default()
    });
    let memory = |feed: &SyntheticFeed| {
        MemorySource::new(&feed.name, feed.format, feed.category, &feed.payload)
    };
    let config = ResilienceConfig::default();

    // Baseline: the five surviving feeds, fault-free.
    let mut healthy: Vec<ResilientSource> = set.feeds[..5]
        .iter()
        .map(|feed| ResilientSource::new(Box::new(memory(feed)), &config, 11))
        .collect();
    let mut baseline = Platform::paper_use_case();
    let expected = baseline
        .ingest_from_sources(&mut healthy, 1)
        .expect("baseline");

    // Feed 5 is permanently dead.
    let dead_site = format!("feeds.{}", set.feeds[5].name);
    let plan = FaultPlan::new(11).always(&dead_site, FaultKind::Error);
    let mut sources: Vec<ResilientSource> = set
        .feeds
        .iter()
        .enumerate()
        .map(|(i, feed)| {
            let source: Box<dyn cais::feeds::FeedSource> = if i == 5 {
                Box::new(FlakySource::scripted(
                    memory(feed),
                    plan.clone(),
                    &dead_site,
                ))
            } else {
                Box::new(memory(feed))
            };
            ResilientSource::new(source, &config, 11)
        })
        .collect();

    let mut platform = Platform::paper_use_case();
    let outcome = platform
        .ingest_from_sources(&mut sources, 4)
        .expect("first round");
    assert_eq!(outcome.delivered, 5);
    assert_eq!(outcome.failed, 1);
    // The healthy feeds' output is exactly the fault-free baseline.
    assert!(
        outcome.report.same_counters(&expected.report),
        "{:?}\nvs\n{:?}",
        outcome.report,
        expected.report
    );
    assert_eq!(platform.riocs(), baseline.riocs());
    assert_eq!(platform.eiocs(), baseline.eiocs());

    // Two more all-duplicate rounds: the third consecutive failure
    // trips the breaker…
    for _ in 0..2 {
        let outcome = platform
            .ingest_from_sources(&mut sources, 4)
            .expect("repeat round");
        assert_eq!(outcome.failed, 1);
    }
    assert!(sources[5].is_quarantined());
    assert_eq!(sources[5].breaker_transitions().opened, 1);
    // …and the next round skips the dead feed without spending retries
    // on it, while output stays exactly the baseline's.
    let outcome = platform
        .ingest_from_sources(&mut sources, 4)
        .expect("quarantined round");
    assert_eq!(outcome.quarantined, 1);
    assert_eq!(outcome.delivered, 5);
    assert_eq!(platform.riocs(), baseline.riocs());
}

#[test]
fn dashboard_renders_thousands_of_updates() {
    let mut platform = Platform::paper_use_case();
    let mut stream = DashboardStream::attach(
        DashboardState::new(Inventory::paper_table3()),
        platform.broker(),
    );
    // A burst of advisories that all reduce onto the inventory.
    let now = platform.context().now;
    let records: Vec<cais::feeds::FeedRecord> = (0..2_000)
        .map(|i| {
            cais::feeds::FeedRecord::new(
                cais::common::Observable::new(
                    cais::common::ObservableKind::Domain,
                    format!("c2.evil{i}.example"),
                ),
                cais::feeds::ThreatCategory::CommandAndControl,
                "feed",
                now.add_days(-1),
            )
            // Each description names an inventory app so reduction
            // fires; the leading word is unique per record so the
            // family-correlation handle does not collapse the burst
            // into one cluster.
            .with_description(format!("campaign{i} beacon targeting gitlab instance"))
        })
        .collect();
    let report = platform.ingest_feed_records(records).expect("ingestion");
    assert!(report.riocs > 0);
    let applied = stream.pump();
    assert_eq!(applied, report.riocs);

    let started = Instant::now();
    let ascii = render::ascii(stream.state());
    let html = render::html(stream.state());
    let json = render::json(stream.state());
    assert!(ascii.len() > 1_000);
    assert!(html.len() > 1_000);
    assert!(json["rioc_total"].as_u64().unwrap() as usize == report.riocs);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "rendering took {:?}",
        started.elapsed()
    );
}

#[test]
fn bus_sustains_wide_fanout() {
    let broker = cais::bus::Broker::new();
    let subscriptions: Vec<_> = (0..64).map(|_| broker.subscribe("load.#")).collect();
    for i in 0..1_000 {
        broker.publish(
            cais::bus::Topic::new(format!("load.item.{}", i % 10)),
            serde_json::json!({ "i": i }),
        );
    }
    for subscription in &subscriptions {
        assert_eq!(subscription.queued(), 1_000);
    }
    // Drain one fully; the others are unaffected.
    assert_eq!(subscriptions[0].drain().len(), 1_000);
    assert_eq!(subscriptions[1].queued(), 1_000);
}

#[test]
fn misp_store_handles_bulk_search() {
    use cais::misp::{AttributeCategory, MispApi, MispAttribute, MispEvent};
    let api = MispApi::new("scale");
    for i in 0..3_000 {
        let mut event = MispEvent::new(format!("event {i}"));
        event.add_attribute(MispAttribute::new(
            "domain",
            AttributeCategory::NetworkActivity,
            format!("host-{i}.example"),
        ));
        if i % 10 == 0 {
            event.add_attribute(MispAttribute::new(
                "domain",
                AttributeCategory::NetworkActivity,
                "shared-c2.example",
            ));
        }
        api.add_event(event).expect("insert");
    }
    assert_eq!(api.store().len(), 3_000);
    // Value-index lookups stay exact at volume.
    assert_eq!(api.search_value("shared-c2.example").len(), 300);
    // Correlation across 300 events sharing one value.
    let any_shared = api.search_value("shared-c2.example")[0].event.id;
    assert_eq!(api.correlations(any_shared).len(), 299);
}
