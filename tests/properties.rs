//! Property-based tests over the core invariants.

use cais::common::{Timestamp, Uuid};
use cais::core::heuristics::{score, CriteriaPoints, FeatureValue, WeightScheme};
use proptest::prelude::*;

fn feature_values(max_len: usize) -> impl Strategy<Value = Vec<FeatureValue>> {
    prop::collection::vec(0u8..=5, 1..=max_len)
        .prop_map(|raw| raw.into_iter().map(FeatureValue::scored).collect())
}

proptest! {
    /// Eq. 1 with normalized weights always lands in 0 ≤ TS ≤ 5.
    #[test]
    fn threat_score_stays_in_range(values in feature_values(12)) {
        let n = values.len();
        let weights = WeightScheme::fixed(vec![1.0 / n as f64; n]);
        let ts = score::threat_score(&values, &weights);
        prop_assert!(ts.total() >= 0.0);
        prop_assert!(ts.total() <= 5.0 + 1e-9);
        prop_assert!(ts.completeness() >= 0.0 && ts.completeness() <= 1.0);
    }

    /// Criteria-derived weights always resolve to a distribution over
    /// the evaluated features (sum 1, or all-zero when nothing is
    /// evaluated).
    #[test]
    fn criteria_weights_form_distribution(
        raw in prop::collection::vec((0u8..=5, 1u32..20, 1u32..20, 1u32..20, 1u32..20), 1..10)
    ) {
        let values: Vec<FeatureValue> =
            raw.iter().map(|(x, ..)| FeatureValue::scored(*x)).collect();
        let points: Vec<CriteriaPoints> = raw
            .iter()
            .map(|(_, r, a, t, v)| CriteriaPoints::new(*r, *a, *t, *v))
            .collect();
        let scheme = WeightScheme::from_criteria(points);
        let weights = scheme.resolve(&values);
        let sum: f64 = weights.iter().sum();
        let any_evaluated = values.iter().any(|v| v.is_evaluated());
        if any_evaluated {
            prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        } else {
            prop_assert_eq!(sum, 0.0);
        }
        // Empty features never carry weight.
        for (w, v) in weights.iter().zip(&values) {
            if !v.is_evaluated() {
                prop_assert_eq!(*w, 0.0);
            }
        }
    }

    /// Raising any single feature value never lowers the score
    /// (monotonicity of Eq. 1 under fixed weights).
    #[test]
    fn threat_score_is_monotone(
        values in feature_values(8),
        index in 0usize..8,
    ) {
        let n = values.len();
        let index = index % n;
        let weights = WeightScheme::fixed(vec![1.0 / n as f64; n]);
        let base = score::threat_score(&values, &weights).total();
        let mut raised = values.clone();
        raised[index] = FeatureValue::Scored(5);
        let after = score::threat_score(&raised, &weights).total();
        prop_assert!(after + 1e-9 >= base, "raising x{index} lowered TS: {base} -> {after}");
    }

    /// Timestamps round-trip through RFC 3339 for four decades around
    /// the epoch of interest.
    #[test]
    fn timestamp_rfc3339_roundtrip(millis in -500_000_000_000i64..2_500_000_000_000i64) {
        let ts = Timestamp::from_unix_millis(millis);
        let text = ts.to_rfc3339();
        let back = Timestamp::parse_rfc3339(&text).unwrap();
        prop_assert_eq!(back, ts, "{}", text);
    }

    /// UUID parse/format round-trips for arbitrary random bytes.
    #[test]
    fn uuid_roundtrip(bytes in prop::array::uniform16(any::<u8>())) {
        let id = Uuid::from_random_bytes(bytes);
        let back: Uuid = id.to_string().parse().unwrap();
        prop_assert_eq!(back, id);
        prop_assert_eq!(id.version(), 4);
    }

    /// The deduplicator is idempotent: a second pass over the same data
    /// drops everything, and kept + dropped = seen.
    #[test]
    fn dedup_accounting(values in prop::collection::vec("[a-z]{3,8}", 1..50)) {
        use cais::core::collector::Deduplicator;
        use cais::common::{Observable, ObservableKind};
        use cais::feeds::{FeedRecord, ThreatCategory};

        let records: Vec<FeedRecord> = values
            .iter()
            .map(|v| {
                FeedRecord::new(
                    Observable::new(ObservableKind::Domain, format!("{v}.example")),
                    ThreatCategory::MalwareDomain,
                    "feed",
                    Timestamp::EPOCH,
                )
            })
            .collect();
        let mut dedup = Deduplicator::new();
        let kept = dedup.filter_batch(records.clone());
        let again = dedup.filter_batch(records.clone());
        prop_assert!(again.is_empty());
        let stats = dedup.stats();
        prop_assert_eq!(stats.kept + stats.dropped, stats.seen);
        prop_assert_eq!(stats.kept, kept.len());
        prop_assert_eq!(kept.len(), dedup.distinct());
    }

    /// The sharded deduplicator is observationally equal to the
    /// sequential one at any shard count, serially and in parallel:
    /// identical kept records (same order) and identical aggregated
    /// stats. Short random alphabets force heavy key collisions.
    #[test]
    fn sharded_dedup_matches_sequential(values in prop::collection::vec("[a-c]{1,3}", 1..60)) {
        use cais::core::collector::{Deduplicator, ShardedDeduplicator};
        use cais::common::{Observable, ObservableKind};
        use cais::feeds::{FeedRecord, ThreatCategory};

        let records: Vec<FeedRecord> = values
            .iter()
            .map(|v| {
                FeedRecord::new(
                    Observable::new(ObservableKind::Domain, format!("{v}.example")),
                    ThreatCategory::MalwareDomain,
                    "feed",
                    Timestamp::EPOCH,
                )
            })
            .collect();
        let mut sequential = Deduplicator::new();
        let expected = sequential.filter_batch(records.clone());
        for shards in [1usize, 2, 8] {
            let mut serial = ShardedDeduplicator::new(shards);
            let kept = serial.filter_batch(records.clone());
            prop_assert_eq!(&kept, &expected, "serial, {} shards", shards);
            prop_assert_eq!(serial.stats(), sequential.stats());
            prop_assert_eq!(serial.distinct(), sequential.distinct());

            let mut parallel = ShardedDeduplicator::new(shards);
            let kept = parallel.filter_batch_parallel(records.clone(), 4);
            prop_assert_eq!(&kept, &expected, "parallel, {} shards", shards);
            prop_assert_eq!(parallel.stats(), sequential.stats());
        }
    }

    /// Aggregation conserves records: every input record lands in
    /// exactly one cIoC of its own category.
    #[test]
    fn aggregation_conserves_records(
        domains in prop::collection::vec("[a-z]{3,8}", 1..40),
    ) {
        use cais::core::collector::aggregate_into_ciocs;
        use cais::common::{Observable, ObservableKind};
        use cais::feeds::{FeedRecord, ThreatCategory};

        let mut records: Vec<FeedRecord> = domains
            .iter()
            .map(|v| {
                FeedRecord::new(
                    Observable::new(ObservableKind::Domain, format!("{v}.example")),
                    ThreatCategory::MalwareDomain,
                    "feed",
                    Timestamp::EPOCH,
                )
            })
            .collect();
        records.dedup_by_key(|r| r.dedup_key());
        let total: usize = records.len();
        let ciocs = aggregate_into_ciocs(records, Timestamp::EPOCH);
        let clustered: usize = ciocs.iter().map(|c| c.records.len()).sum();
        prop_assert_eq!(clustered, total);
        for cioc in &ciocs {
            prop_assert!(cioc.records.iter().all(|r| r.category == cioc.category));
        }
    }

    /// CVSS v3 base scores stay within [0, 10] and severity bands agree
    /// with the score.
    #[test]
    fn cvss_score_and_severity_agree(
        av in 0usize..4, ac in 0usize..2, pr in 0usize..3,
        ui in 0usize..2, s in 0usize..2, c in 0usize..3,
        i in 0usize..3, a in 0usize..3,
    ) {
        use cais::cvss::v3::*;
        let vector = CvssV3 {
            attack_vector: [AttackVector::Network, AttackVector::Adjacent, AttackVector::Local, AttackVector::Physical][av],
            attack_complexity: [AttackComplexity::Low, AttackComplexity::High][ac],
            privileges_required: [PrivilegesRequired::None, PrivilegesRequired::Low, PrivilegesRequired::High][pr],
            user_interaction: [UserInteraction::None, UserInteraction::Required][ui],
            scope: [Scope::Unchanged, Scope::Changed][s],
            confidentiality: [Impact::None, Impact::Low, Impact::High][c],
            integrity: [Impact::None, Impact::Low, Impact::High][i],
            availability: [Impact::None, Impact::Low, Impact::High][a],
            exploit_maturity: ExploitMaturity::NotDefined,
            remediation_level: RemediationLevel::NotDefined,
            report_confidence: ReportConfidence::NotDefined,
        };
        let score = vector.base_score();
        prop_assert!((0.0..=10.0).contains(&score));
        prop_assert_eq!(vector.severity(), Severity::from_score(score));
        // Display → parse round-trip.
        let reparsed: CvssV3 = vector.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, vector);
    }

    /// Topic pattern `#` matches everything; a topic always matches its
    /// own literal pattern.
    #[test]
    fn topic_matching_laws(segments in prop::collection::vec("[a-z]{1,6}", 1..5)) {
        use cais::bus::{Topic, TopicPattern};
        let name = segments.join(".");
        let topic = Topic::new(&name);
        prop_assert!(TopicPattern::new("#").matches(&topic));
        prop_assert!(TopicPattern::new(&name).matches(&topic));
        let wild = segments
            .iter()
            .enumerate()
            .map(|(i, s)| if i == 0 { "*" } else { s.as_str() })
            .collect::<Vec<_>>()
            .join(".");
        prop_assert!(TopicPattern::new(&wild).matches(&topic));
    }
}

proptest! {
    /// The STIX pattern parser never panics, whatever bytes arrive —
    /// it either parses or returns a structured error.
    #[test]
    fn pattern_parser_never_panics(input in "\\PC{0,80}") {
        let _ = cais::stix::pattern::Pattern::parse(&input);
    }

    /// Structured random patterns parse and evaluate without panicking.
    #[test]
    fn generated_patterns_parse_and_evaluate(
        ty in "[a-z]{2,8}",
        path in "[a-z_]{2,8}",
        value in "[a-zA-Z0-9.]{1,12}",
        op in prop::sample::select(vec!["=", "!=", "<", ">", "<=", ">=", "LIKE"]),
    ) {
        use cais::stix::pattern::{Observation, Pattern};
        use cais::stix::sdo::CyberObservable;
        use cais::common::Timestamp;

        let source = format!("[{ty}-x:{path} {op} '{value}']");
        let pattern = Pattern::parse(&source).expect("generated pattern is valid");
        let hit = Observation::at(Timestamp::EPOCH).with_object(
            CyberObservable::new(format!("{ty}-x"), "v").with_property(&path, &value),
        );
        let miss = Observation::at(Timestamp::EPOCH)
            .with_object(CyberObservable::new("other-type", "v"));
        // Evaluation must be total; outcomes depend on the operator.
        let _ = pattern.matches(&[hit]);
        prop_assert!(!pattern.matches(&[miss]) || op == "!=");
    }

    /// The MISP JSON export/import round-trip preserves events, for
    /// arbitrary attribute content.
    #[test]
    fn misp_json_roundtrip(values in prop::collection::vec("[a-z0-9.]{4,20}", 1..8)) {
        use cais::misp::{export::misp_json, AttributeCategory, MispAttribute, MispEvent};
        let mut event = MispEvent::new("property event");
        for v in &values {
            event.add_attribute(MispAttribute::new(
                "text",
                AttributeCategory::Other,
                v.clone(),
            ));
        }
        let doc = misp_json::to_document(&event).unwrap();
        let back = misp_json::from_document(&doc).unwrap();
        prop_assert_eq!(back, event);
    }

    /// The feed plaintext parser never panics and only produces
    /// normalized observables.
    #[test]
    fn plaintext_parser_is_total(payload in "\\PC{0,200}") {
        use cais::feeds::{parse::plaintext, ThreatCategory};
        if let Ok(records) = plaintext::parse(&payload, "fuzz", ThreatCategory::Spam) {
            for record in records {
                prop_assert!(!record.observable.value().is_empty());
            }
        }
    }

    /// CSV record splitting is total and consistent with quoting.
    #[test]
    fn csv_parser_is_total(payload in "\\PC{0,200}") {
        use cais::feeds::{parse::csv, ThreatCategory};
        let _ = csv::parse(&payload, "fuzz", ThreatCategory::Spam);
    }

    /// Tuning profiles keep scores within bounds whatever the expert
    /// points are.
    #[test]
    fn tuning_preserves_score_bounds(
        points in prop::collection::vec((1u32..50, 1u32..50, 1u32..50, 1u32..50), 9),
        raw in prop::collection::vec(0u8..=5, 9),
    ) {
        use cais::core::heuristics::{
            feature_names, score::threat_score_named, tuning::TuningProfile, CriteriaPoints,
            FeatureValue, HeuristicKind,
        };
        let mut profile = TuningProfile::builtin();
        let names = feature_names(HeuristicKind::Vulnerability);
        for (name, (r, a, t, v)) in names.iter().zip(&points) {
            profile = profile.with_points(
                HeuristicKind::Vulnerability,
                name,
                CriteriaPoints::new(*r, *a, *t, *v),
            );
        }
        let values: Vec<FeatureValue> = raw.into_iter().map(FeatureValue::scored).collect();
        let ts = threat_score_named(
            &names,
            &values,
            &profile.weight_scheme(HeuristicKind::Vulnerability),
        );
        prop_assert!(ts.total() >= 0.0 && ts.total() <= 5.0 + 1e-9);
    }

    /// Telemetry histogram merge is associative and commutative, and a
    /// merged snapshot equals recording the concatenated samples — the
    /// property that lets parallel shard recorders fold into exact
    /// serial totals.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        a in prop::collection::vec(any::<u64>(), 0..20),
        b in prop::collection::vec(any::<u64>(), 0..20),
        c in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        use cais::telemetry::HistogramSnapshot;

        let fold = |samples: &[u64]| {
            let mut h = HistogramSnapshot::default();
            for &s in samples {
                h.record(s);
            }
            h
        };
        let (ha, hb, hc) = (fold(&a), fold(&b), fold(&c));

        // Commutative: a ⊕ b == b ⊕ a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        // Associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merging equals recording the concatenation.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&ab_c, &fold(&all));
        prop_assert_eq!(ab_c.count as usize, all.len());
        prop_assert_eq!(ab_c.sum, all.iter().fold(0u64, |acc, &s| acc.wrapping_add(s)));
    }
}

proptest! {
    /// Graceful degradation under seeded fault injection: whatever
    /// subset of feeds is permanently dead and however many transient
    /// failures the rest throw (within the retry budget), ingestion
    /// through retries and breakers yields exactly the rIoC/eIoC output
    /// of a fault-free run over the healthy subset — serial and
    /// parallel alike.
    #[test]
    fn faulted_ingestion_matches_fault_free_healthy_subset(
        seed in 0u64..1_000,
        dead in prop::collection::vec(any::<bool>(), 4),
        transient in prop::collection::vec(0u64..=3, 4),
        workers in 1usize..5,
    ) {
        use cais::common::resilience::{FaultKind, FaultPlan};
        use cais::core::Platform;
        use cais::feeds::{
            FeedFormat, FlakySource, MemorySource, ResilienceConfig, ResilientSource,
            ThreatCategory,
        };

        // CSV with explicit timestamps: re-fetches parse into
        // byte-identical records, so output equality is exact.
        let csv = |feed: usize| {
            let mut payload = String::from("value,date\n");
            for i in 0..8 {
                payload.push_str(&format!(
                    "feed{feed}-{i}.evil.example,2018-05-{:02}T00:00:00Z\n",
                    i + 1
                ));
            }
            payload
        };
        let memory = |feed: usize| {
            MemorySource::new(
                format!("feed-{feed}"),
                FeedFormat::Csv,
                ThreatCategory::CommandAndControl,
                csv(feed),
            )
        };
        let site = |feed: usize| format!("feeds.feed-{feed}");

        let mut plan = FaultPlan::new(seed);
        for feed in 0..4 {
            if dead[feed] {
                plan = plan.always(&site(feed), FaultKind::Error);
            } else if transient[feed] > 0 {
                // Within the default budget of 4 attempts: recovers.
                plan = plan.fail_first(&site(feed), transient[feed], FaultKind::Error);
            }
        }
        let config = ResilienceConfig::default();
        let mut faulted: Vec<ResilientSource> = (0..4)
            .map(|feed| {
                ResilientSource::new(
                    Box::new(FlakySource::scripted(memory(feed), plan.clone(), site(feed))),
                    &config,
                    seed,
                )
            })
            .collect();
        let mut healthy: Vec<ResilientSource> = (0..4)
            .filter(|feed| !dead[*feed])
            .map(|feed| ResilientSource::new(Box::new(memory(feed)), &config, seed))
            .collect();

        let mut baseline = Platform::paper_use_case();
        let expected = baseline.ingest_from_sources(&mut healthy, 1).unwrap();
        let mut platform = Platform::paper_use_case();
        let outcome = platform.ingest_from_sources(&mut faulted, workers).unwrap();

        let dead_count = dead.iter().filter(|d| **d).count();
        prop_assert_eq!(outcome.delivered, 4 - dead_count, "seed={} workers={}", seed, workers);
        prop_assert_eq!(outcome.failed, dead_count, "seed={} workers={}", seed, workers);
        prop_assert!(
            outcome.report.same_counters(&expected.report),
            "seed={} workers={}:\n{:?}\nvs\n{:?}",
            seed, workers, outcome.report, expected.report
        );
        prop_assert_eq!(platform.eiocs(), baseline.eiocs(), "seed={} workers={}", seed, workers);
        prop_assert_eq!(platform.riocs(), baseline.riocs(), "seed={} workers={}", seed, workers);
    }

    /// A one-worker round and an N-worker round over the same workload
    /// are indistinguishable apart from wall time: the same telemetry
    /// counters (the observational-equivalence guarantee of the sharded
    /// pipeline, see `sharded_dedup_matches_sequential`), the same store
    /// generation and per-event versions, the same number of messages
    /// on every bus topic, and the same eIoCs and rIoCs. Wall times and
    /// queue-depth gauges are sampled, so only counters are compared.
    #[test]
    fn one_worker_and_n_worker_rounds_agree(
        values in prop::collection::vec("[a-d]{1,3}", 1..30),
        workers in 2usize..5,
    ) {
        use std::collections::BTreeMap;

        use cais::common::{Observable, ObservableKind};
        use cais::core::Platform;
        use cais::feeds::{FeedRecord, ThreatCategory};

        let run = |workers: usize| {
            let mut platform = Platform::paper_use_case();
            let all = platform.broker().subscribe("#");
            let now = platform.context().now;
            let records: Vec<FeedRecord> = values
                .iter()
                .map(|v| {
                    FeedRecord::new(
                        Observable::new(ObservableKind::Domain, format!("{v}.example")),
                        ThreatCategory::MalwareDomain,
                        "feed",
                        now.add_days(-1),
                    )
                })
                .collect();
            let report = platform
                .ingest_feed_records_parallel(records, workers)
                .unwrap();
            let mut per_topic = BTreeMap::new();
            for message in all.drain() {
                *per_topic.entry(message.topic.as_str().to_owned()).or_insert(0usize) += 1;
            }
            let store = platform.misp().store();
            let versions: Vec<(u64, Option<u64>)> = platform
                .eiocs()
                .iter()
                .map(|e| e.misp_event_id.unwrap())
                .map(|id| (id, store.event_version(id)))
                .collect();
            let generation = store.generation();
            (report, per_topic, versions, generation, platform)
        };

        let (one_report, one_topics, one_versions, one_generation, one) = run(1);
        let (n_report, n_topics, n_versions, n_generation, n) = run(workers);

        prop_assert!(one_report.same_counters(&n_report), "workers={}", workers);
        prop_assert_eq!(
            one.telemetry().snapshot().counters,
            n.telemetry().snapshot().counters,
            "workers={}", workers
        );
        prop_assert_eq!(one_generation, n_generation, "workers={}", workers);
        prop_assert_eq!(one_versions, n_versions, "workers={}", workers);
        prop_assert_eq!(one_topics, n_topics, "workers={}", workers);
        prop_assert_eq!(one.eiocs(), n.eiocs(), "workers={}", workers);
        prop_assert_eq!(one.riocs(), n.riocs(), "workers={}", workers);
    }
}

/// Maps one raw draw to a char of one of the classes the JSON string
/// decoder treats differently: printable ASCII, `"` and `\`, control
/// characters, and 2-, 3- and 4-byte (astral) UTF-8. Draws that land on
/// a surrogate code point yield `None`.
fn wire_char(raw: u32) -> Option<char> {
    let pick = raw / 6;
    char::from_u32(match raw % 6 {
        0 => 0x20 + pick % 0x60,
        1 => [u32::from('"'), u32::from('\\')][(pick % 2) as usize],
        2 => pick % 0x20,
        3 => 0x80 + pick % 0x780,
        4 => 0x800 + pick % 0xF800,
        _ => 0x1_0000 + pick % 0x10_0000,
    })
}

/// `text` as a JSON string literal in which every char is a `\uXXXX`
/// escape, astral chars as surrogate pairs; hex case alternates.
fn all_escaped(text: &str) -> String {
    let mut out = String::from("\"");
    for (i, c) in text.chars().enumerate() {
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            if i % 2 == 0 {
                out.push_str(&format!("\\u{unit:04x}"));
            } else {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        }
    }
    out.push('"');
    out
}

proptest! {
    /// The JSON codec round-trips any string, alone and nested in an
    /// object (as key and value) and an array, and hand-written
    /// `\uXXXX` escapes of the same text decode to the same value.
    #[test]
    fn json_strings_round_trip(raw in prop::collection::vec(any::<u32>(), 0..48)) {
        use serde_json::{Map, Value};

        let text: String = raw.into_iter().filter_map(wire_char).collect();
        let string = Value::String(text.clone());
        let mut map = Map::new();
        map.insert(text.clone(), string.clone());
        map.insert("k", Value::Array(vec![string.clone(), Value::Null, string.clone()]));
        let object = Value::Object(map);
        let array = Value::Array(vec![object.clone(), string.clone()]);

        for value in [&string, &object, &array] {
            let wire = serde_json::to_string(value).unwrap();
            let back: Value = serde_json::from_str(&wire).unwrap();
            prop_assert_eq!(&back, value, "wire {}", wire);
        }
        let escaped: Value = serde_json::from_str(&all_escaped(&text)).unwrap();
        prop_assert_eq!(&escaped, &string);
    }
}
