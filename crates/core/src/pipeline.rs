//! The end-to-end platform of Fig. 1: Input Module → Operational Module
//! (MISP + Heuristic Component) → Output Module.
//!
//! Data flow, exactly as Section IV-A narrates it: collectors push IoCs
//! into the MISP instance; OSINT events trigger the real-time sharing
//! mechanism (the message bus standing in for zeroMQ); the Heuristic
//! Component scores them against infrastructure data; the eIoC is
//! written back to MISP; and when the inventory matches, the rIoC goes
//! out to the dashboard topic (socket.io in the paper).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cais_bus::{topics, Broker, Topic};

use cais_feeds::FeedRecord;
use cais_infra::sensors::{hids, nids};
use cais_misp::MispApi;
use cais_telemetry::{FlightRecorder, Registry, TraceContext, Tracer};
use serde::{Deserialize, Serialize};

use crate::collector::{aggregate_into_ciocs, InfrastructureCollector, OsintCollector};
use crate::context::EvaluationContext;
use crate::enrich::Enricher;
use crate::error::CoreError;
use crate::ioc::{ComposedIoc, EnrichedIoc, ReducedIoc};
use crate::metrics::{StageMetrics, StageRecord};
use crate::reduce::Reducer;
use crate::telemetry::PipelineInstruments;

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Maps `f(index, item)` over `items` in up to `workers` contiguous
/// chunks on scoped threads, returning the results in input order. Runs
/// inline, spawning no thread, when `workers <= 1` or there are fewer
/// than two items.
fn chunked_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if workers <= 1 || items.len() < 2 {
        return items
            .into_iter()
            .enumerate()
            .map(|(k, item)| f(k, item))
            .collect();
    }
    let chunk_size = items.len().div_ceil(workers);
    let mut items = items.into_iter().enumerate();
    let mut chunks: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    loop {
        let chunk: Vec<(usize, T)> = items.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|(k, item)| f(k, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("ingest worker panicked"))
            .collect()
    })
}

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// The operating organization (stamped on MISP events).
    pub org: String,
    /// Whether eIoCs are published on the MISP instance after
    /// enrichment (enables onward sharing).
    pub publish_enriched: bool,
    /// Whether the NLP classifier of Section II-A drops feed records
    /// whose descriptions carry no threat language ("tag OSINT data as
    /// relevant or irrelevant"). Records without descriptions pass
    /// untouched.
    pub nlp_relevance_filter: bool,
    /// Whether MISP-style warninglists drop feed records whose values
    /// are known-benign (private/reserved addresses, public resolvers,
    /// reserved domains, empty-input hashes).
    pub warninglist_filter: bool,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            org: "CAIS".to_owned(),
            publish_enriched: true,
            nlp_relevance_filter: false,
            warninglist_filter: false,
        }
    }
}

/// Counters of one ingestion round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlatformReport {
    /// Feed records offered.
    pub records_in: usize,
    /// Records the NLP relevance filter dropped (0 unless enabled).
    #[serde(default)]
    pub nlp_filtered: usize,
    /// Records the warninglist filter dropped as known-benign.
    #[serde(default)]
    pub benign_filtered: usize,
    /// Records dropped by deduplication.
    pub duplicates_dropped: usize,
    /// Composed IoCs created.
    pub ciocs: usize,
    /// Enriched IoCs produced (always equals `ciocs`).
    pub eiocs: usize,
    /// Reduced IoCs that matched the infrastructure.
    pub riocs: usize,
    /// Per-stage record counters and wall times for this round.
    #[serde(default)]
    pub stages: StageMetrics,
}

impl PlatformReport {
    /// Whether two rounds produced identical record counters at every
    /// level — top-line and per-stage — ignoring wall times. Rounds over
    /// the same input and state agree on these for every worker count
    /// of [`Platform::ingest_feed_records_parallel`].
    pub fn same_counters(&self, other: &PlatformReport) -> bool {
        self.records_in == other.records_in
            && self.nlp_filtered == other.nlp_filtered
            && self.benign_filtered == other.benign_filtered
            && self.duplicates_dropped == other.duplicates_dropped
            && self.ciocs == other.ciocs
            && self.eiocs == other.eiocs
            && self.riocs == other.riocs
            && self.stages.same_counts(&other.stages)
    }
}

/// Why the per-record filter stage rejected a record.
enum FilterDrop {
    /// The NLP classifier judged the description irrelevant.
    Irrelevant,
    /// A warninglist flagged the value as known-benign.
    Benign,
}

/// Everything the enrich stage computes for one cIoC: the scored eIoC,
/// the validated MISP event in its final stored form (score attribute,
/// `cais:*` tags, published flag), the reduction outcome, and every
/// serialized bus payload, each taken at the event state its topic
/// announces. The round's tail only inserts the event and flushes the
/// payloads in per-topic batches. A payload is `None` only when
/// serialization fails, and that announcement is then skipped.
struct PreparedIoc {
    eioc: EnrichedIoc,
    event: cais_misp::MispEvent,
    cioc_payload: Option<serde_json::Value>,
    created_payload: Option<serde_json::Value>,
    updated_payload: Option<serde_json::Value>,
    published_payload: Option<serde_json::Value>,
    eioc_payload: Option<serde_json::Value>,
    rioc: Option<ReducedIoc>,
    rioc_payload: Option<serde_json::Value>,
}

/// The assembled Context-Aware OSINT Platform.
pub struct Platform {
    config: PlatformConfig,
    broker: Broker,
    misp: MispApi,
    ctx: EvaluationContext,
    enricher: Enricher,
    reducer: Reducer,
    osint: OsintCollector,
    infra: InfrastructureCollector,
    classifier: cais_nlp::ThreatClassifier,
    quality: cais_feeds::QualityTracker,
    detection: crate::detection::DetectionEngine,
    detections: Vec<crate::detection::Detection>,
    alarms_forwarded: usize,
    riocs: Vec<ReducedIoc>,
    eiocs: Vec<EnrichedIoc>,
    telemetry: Registry,
    tracer: Tracer,
    flight: Option<FlightRecorder>,
    instruments: PipelineInstruments,
}

impl Platform {
    /// Assembles the platform around an evaluation context, with a
    /// private telemetry registry.
    pub fn new(config: PlatformConfig, ctx: EvaluationContext) -> Self {
        Platform::with_telemetry(config, ctx, Registry::new())
    }

    /// Assembles the platform recording into a caller-supplied
    /// telemetry registry: the broker and the MISP store are
    /// instrumented against it, and every ingestion round feeds its
    /// [`StageMetrics`] into per-stage counters and histograms. Share
    /// the registry with a
    /// [`TelemetryServer`](cais_telemetry::TelemetryServer) to make the
    /// platform scrapeable.
    pub fn with_telemetry(
        config: PlatformConfig,
        ctx: EvaluationContext,
        telemetry: Registry,
    ) -> Self {
        let broker = Broker::new();
        broker.instrument(&telemetry);
        let misp = MispApi::new(config.org.clone()).with_broker(broker.clone());
        misp.instrument(&telemetry);
        let instruments = PipelineInstruments::new(&telemetry);
        let tracer = Tracer::new();
        // One tracer spans the whole platform: the broker stamps bus
        // envelopes with it and the MISP store/share layers chain their
        // mutation spans onto the ingestion round that caused them.
        broker.set_tracer(&tracer);
        misp.set_tracer(&tracer);
        let enricher = Enricher::new(ctx.clone());
        let reducer = Reducer::new(Arc::clone(&ctx.inventory));
        let infra =
            InfrastructureCollector::new(Arc::clone(&ctx.inventory), Arc::clone(&ctx.sightings));
        Platform {
            config,
            broker,
            misp,
            ctx,
            enricher,
            reducer,
            osint: OsintCollector::new(),
            classifier: cais_nlp::ThreatClassifier::new(),
            quality: cais_feeds::QualityTracker::new(),
            infra,
            alarms_forwarded: 0,
            detection: crate::detection::DetectionEngine::new(4_096),
            detections: Vec::new(),
            riocs: Vec::new(),
            eiocs: Vec::new(),
            telemetry,
            tracer,
            flight: None,
            instruments,
        }
    }

    /// A platform over the paper's Table III context.
    pub fn paper_use_case() -> Self {
        Platform::new(
            PlatformConfig::default(),
            EvaluationContext::paper_use_case(),
        )
    }

    /// The message bus (subscribe to [`topics::RIOC_PUBLISHED`] for the
    /// dashboard feed).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The MISP instance.
    pub fn misp(&self) -> &MispApi {
        &self.misp
    }

    /// The evaluation context.
    pub fn context(&self) -> &EvaluationContext {
        &self.ctx
    }

    /// The telemetry registry every component records into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The causal span tracer shared by every component: feed polls
    /// root `ingress` spans, ingestion rounds record `pipeline` spans
    /// beneath them, and the MISP store, share cache and bus chain
    /// their own spans onto the same traces.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Arms the flight recorder: when a source's circuit breaker trips
    /// during [`Platform::ingest_from_sources`], the recorder snapshots
    /// the tail of every subsystem's span ring to disk (reason
    /// `breaker_trip`, detail = the feed's name).
    pub fn set_flight_recorder(&mut self, recorder: &FlightRecorder) {
        self.flight = Some(recorder.clone());
    }

    /// Every rIoC produced so far.
    pub fn riocs(&self) -> &[ReducedIoc] {
        &self.riocs
    }

    /// Every eIoC produced so far.
    pub fn eiocs(&self) -> &[EnrichedIoc] {
        &self.eiocs
    }

    /// The reducer's cache-effectiveness snapshot (also published as
    /// `reduce_*` gauges after every ingest round).
    pub fn reduce_cache_stats(&self) -> crate::reduce::ReduceCacheStats {
        self.reducer.stats()
    }

    /// Applies decayed scores (from a `cais-decay` rescore pass) to the
    /// reduced IoCs already on the dashboard: each rIoC whose MISP
    /// event appears in `scores` takes the decayed value as its threat
    /// score. The reducer's memos are invalidated so nothing assembled
    /// before the rescore is served afterwards. Returns how many rIoCs
    /// changed.
    pub fn apply_rescored(&mut self, scores: &HashMap<u64, f64>) -> usize {
        let mut updated = 0;
        for rioc in &mut self.riocs {
            let Some(event_id) = rioc.misp_event_id else {
                continue;
            };
            if let Some(&score) = scores.get(&event_id) {
                if (rioc.threat_score - score).abs() > f64::EPSILON {
                    rioc.threat_score = score;
                    updated += 1;
                }
            }
        }
        if updated > 0 {
            self.reducer.invalidate_memos();
        }
        updated
    }

    /// Runs one OSINT ingestion round inline, on the calling thread:
    /// [`Platform::ingest_feed_records_parallel`] with one worker.
    ///
    /// # Errors
    ///
    /// Returns MISP validation errors, leaving the store and the bus
    /// untouched (see [`Platform::ingest_feed_records_parallel`]).
    pub fn ingest_feed_records(
        &mut self,
        records: Vec<FeedRecord>,
    ) -> Result<PlatformReport, CoreError> {
        self.ingest_round(records, 1, None)
    }

    /// Runs one OSINT ingestion round — filter → dedup → compose →
    /// enrich → store in MISP → reduce → publish — with the per-record
    /// work fanned out over up to `workers` scoped threads. With
    /// `workers <= 1` (or fewer than two items in a stage) the stage
    /// runs inline and no thread is spawned.
    ///
    /// * **filter** — records split into contiguous chunks, each chunk
    ///   classified by one worker, results merged in input order;
    /// * **dedup** — records hash-partitioned on
    ///   [`FeedRecord::dedup_key`] across the collector's shards, one
    ///   worker per shard group (no cross-shard locking), kept records
    ///   merged back into input order;
    /// * **compose** — inherently global (correlation crosses records),
    ///   so it runs on the calling thread;
    /// * **enrich** — cIoCs split into contiguous chunks; each worker
    ///   scores its chunk, builds each MISP event in its final stored
    ///   form under an id pre-assigned from the store's counter,
    ///   validates its attributes, reduces against the inventory, and
    ///   serializes every bus payload (all pure or read-only over
    ///   shared context);
    /// * **store + publish** — on the calling thread: events are
    ///   inserted once each, in composed order (so the store assigns
    ///   exactly the pre-assigned ids), and each topic's announcements
    ///   flush as one [`Broker::publish_batch`], grouped by stage.
    ///
    /// Every stage merges deterministically, so the worker count changes
    /// only wall time: over the same input and state, every `workers`
    /// yields the same eIoCs and rIoCs in order, the same MISP event
    /// ids, versions and contents (apart from each event's fresh UUID
    /// and wall-clock timestamps), the same store generation, the same
    /// [`PlatformReport`] counters, and the same number of messages on
    /// each bus topic, in the same per-topic order.
    ///
    /// # Errors
    ///
    /// Returns the first MISP validation error in composed order. Every
    /// event is validated in the enrich stage, before the round's first
    /// store insert or bus publish, so a failed round stores, announces
    /// and records no eIoC or rIoC.
    pub fn ingest_feed_records_parallel(
        &mut self,
        records: Vec<FeedRecord>,
        workers: usize,
    ) -> Result<PlatformReport, CoreError> {
        self.ingest_round(records, workers, None)
    }

    /// The one ingestion round behind every entry point (see
    /// [`Platform::ingest_feed_records_parallel`]). The round's
    /// `ingest_round` span becomes a child of `parent` (typically an
    /// `ingress`/`feed_poll` span) instead of rooting a fresh trace, and
    /// every store insert and bus publish of the round chains beneath
    /// it.
    ///
    /// A round that fails leaves the store, the bus and the
    /// eIoC/rIoC lists as they were, but the dedup and feed-quality
    /// state have already taken in the round's records: offered again,
    /// they are dropped as duplicates.
    fn ingest_round(
        &mut self,
        records: Vec<FeedRecord>,
        workers: usize,
        parent: Option<TraceContext>,
    ) -> Result<PlatformReport, CoreError> {
        let workers = workers.max(1);
        let mut span = self.tracer.child_of(parent, "pipeline", "ingest_round");
        span.field("workers", workers);
        span.field("records_in", records.len());
        let round = span.sampled().then(|| span.context());
        let mut report = PlatformReport {
            records_in: records.len(),
            ..PlatformReport::default()
        };
        let mut stages = StageMetrics::default();

        // Filter stage: NLP relevance, then warninglists.
        let started = Instant::now();
        let before = records.len();
        let records = if self.config.nlp_relevance_filter || self.config.warninglist_filter {
            let verdicts = chunked_map(records, workers, |_, record| {
                match self.filter_verdict(&record) {
                    None => Ok(record),
                    Some(drop) => Err(drop),
                }
            });
            let mut kept = Vec::with_capacity(verdicts.len());
            for verdict in verdicts {
                match verdict {
                    Ok(record) => kept.push(record),
                    Err(FilterDrop::Irrelevant) => report.nlp_filtered += 1,
                    Err(FilterDrop::Benign) => report.benign_filtered += 1,
                }
            }
            kept
        } else {
            records
        };
        stages.filter = StageRecord::timed(before, records.len(), nanos_since(started));

        self.quality.record_batch(&records, self.ctx.now);

        // Dedup stage, one worker per shard group.
        let started = Instant::now();
        let before = records.len();
        let dropped_before = self.osint.dedup_stats().dropped;
        let fresh = self.osint.dedup_batch(records, workers);
        report.duplicates_dropped = self.osint.dedup_stats().dropped - dropped_before;
        stages.dedup = StageRecord::timed(before, fresh.len(), nanos_since(started));

        // Compose stage, on this thread: correlation links arbitrary
        // record pairs, so it cannot be partitioned without changing
        // clusters.
        let started = Instant::now();
        let before = fresh.len();
        let ciocs = if fresh.is_empty() {
            Vec::new()
        } else {
            aggregate_into_ciocs(fresh, self.ctx.now)
        };
        report.ciocs = ciocs.len();
        stages.compose = StageRecord::timed(before, ciocs.len(), nanos_since(started));

        // Enrich stage, chunked across workers, merged in composed
        // order. Event ids are pre-assigned from the store's counter,
        // which is exact because the inserts below are this round's
        // only ones and run in the same order. The first invalid event
        // fails the round before anything is stored or announced.
        let started = Instant::now();
        let before = ciocs.len();
        let base_id = self.misp.store().peek_next_id();
        let prepared = chunked_map(ciocs, workers, |k, cioc| {
            self.prepare_one(cioc, base_id + k as u64)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let eioc_count = prepared.len();
        stages.enrich = StageRecord::timed(before, eioc_count, nanos_since(started));

        let mut cioc_payloads = Vec::with_capacity(eioc_count);
        let mut created_payloads = Vec::with_capacity(eioc_count);
        let mut updated_payloads = Vec::with_capacity(eioc_count);
        let mut published_payloads = Vec::with_capacity(eioc_count);
        let mut eioc_payloads = Vec::with_capacity(eioc_count);
        let mut events = Vec::with_capacity(eioc_count);
        let mut outcomes = Vec::with_capacity(eioc_count);
        for p in prepared {
            cioc_payloads.extend(p.cioc_payload);
            created_payloads.extend(p.created_payload);
            updated_payloads.extend(p.updated_payload);
            published_payloads.extend(p.published_payload);
            eioc_payloads.extend(p.eioc_payload);
            events.push(p.event);
            outcomes.push((p.eioc, p.rioc, p.rioc_payload));
        }

        // One batched announcement of the round's cIoCs.
        let started = Instant::now();
        self.broker
            .publish_batch_traced(Topic::new(topics::CIOC_RECEIVED), cioc_payloads, round);
        stages.publish.records_in += eioc_count;
        stages.publish.records_out += eioc_count;
        stages.publish.wall_nanos += nanos_since(started);

        // Store: each event is inserted once, in its final form; the
        // created/updated/published announcements then flush as
        // per-topic batches.
        let started = Instant::now();
        for event in events {
            let expected = event.id;
            let id = self.misp.store().insert_with_trace(event, round)?;
            debug_assert_eq!(id, expected, "pre-assigned event id diverged");
        }
        self.broker
            .publish_batch_traced(Topic::new(topics::MISP_EVENT), created_payloads, round);
        self.broker.publish_batch_traced(
            Topic::new(topics::MISP_EVENT_UPDATED),
            updated_payloads,
            round,
        );
        if self.config.publish_enriched {
            self.broker.publish_batch_traced(
                Topic::new(topics::MISP_EVENT_PUBLISHED),
                published_payloads,
                round,
            );
        }
        self.broker
            .publish_batch_traced(Topic::new(topics::EIOC_READY), eioc_payloads, round);
        stages.publish.records_in += eioc_count;
        stages.publish.records_out += eioc_count;
        stages.publish.wall_nanos += nanos_since(started);
        report.eiocs = eioc_count;

        // Reduce bookkeeping: the reductions themselves ran in the
        // enrich stage; this just tallies them and keeps eIoC/rIoC
        // order.
        let started = Instant::now();
        let mut rioc_payloads = Vec::new();
        for (eioc, rioc, rioc_payload) in outcomes {
            stages.reduce.records_in += 1;
            match rioc {
                Some(rioc) => {
                    stages.reduce.records_out += 1;
                    rioc_payloads.extend(rioc_payload);
                    self.riocs.push(rioc);
                    report.riocs += 1;
                }
                None => stages.reduce.dropped += 1,
            }
            self.eiocs.push(eioc);
        }
        stages.reduce.wall_nanos += nanos_since(started);

        let started = Instant::now();
        self.broker
            .publish_batch_traced(Topic::new(topics::RIOC_PUBLISHED), rioc_payloads, round);
        stages.publish.records_in += report.riocs;
        stages.publish.records_out += report.riocs;
        stages.publish.wall_nanos += nanos_since(started);

        report.stages = stages;
        span.field("riocs", report.riocs);
        self.instruments.record_round(&report);
        self.instruments.record_reduce_caches(&self.reducer.stats());
        self.broker.sample_queue_depths();
        Ok(report)
    }

    /// Per-record filter decision: NLP relevance first, warninglists
    /// second.
    fn filter_verdict(&self, record: &FeedRecord) -> Option<FilterDrop> {
        if self.config.nlp_relevance_filter {
            if let Some(description) = &record.description {
                if !self.classifier.classify(description).is_relevant() {
                    return Some(FilterDrop::Irrelevant);
                }
            }
        }
        if self.config.warninglist_filter
            && cais_misp::warninglist::check_observable(&record.observable).is_some()
        {
            return Some(FilterDrop::Benign);
        }
        None
    }

    /// The per-cIoC work that needs no store access, fused so a worker
    /// can run it end to end: enrich, build the MISP event under its
    /// pre-assigned id, validate its attributes as the store will,
    /// reduce against the inventory, and serialize every bus payload
    /// the round's tail will flush.
    ///
    /// # Errors
    ///
    /// Returns the first attribute the store would reject.
    fn prepare_one(&self, cioc: ComposedIoc, event_id: u64) -> Result<PreparedIoc, CoreError> {
        let mut eioc = self.enricher.enrich(cioc);
        let cioc_payload = serde_json::to_value(&eioc.composed).ok();
        let mut event =
            cais_misp::import::event_from_records(eioc.composed.summary(), &eioc.composed.records);
        event.org = self.misp.org().to_owned();
        event.id = event_id;
        let created_payload = serde_json::to_value(&event).ok();
        event.add_attribute(crate::enrich::score_attribute(
            eioc.heuristic,
            &eioc.threat_score,
        ));
        for tag in crate::enrich::score_tags(eioc.heuristic, &eioc.threat_score) {
            event.add_tag(tag);
        }
        for attribute in &event.attributes {
            attribute.validate()?;
        }
        let updated_payload = serde_json::to_value(&event).ok();
        let published_payload = if self.config.publish_enriched {
            event.published = true;
            serde_json::to_value(&event).ok()
        } else {
            None
        };
        eioc.misp_event_id = Some(event_id);
        let eioc_payload = serde_json::to_value(&eioc).ok();
        let rioc = self.reducer.reduce(&eioc);
        let rioc_payload = rioc.as_ref().and_then(|r| serde_json::to_value(r).ok());
        Ok(PreparedIoc {
            eioc,
            event,
            cioc_payload,
            created_payload,
            updated_payload,
            published_payload,
            eioc_payload,
            rioc,
            rioc_payload,
        })
    }

    /// Ingests a STIX 2.0 bundle from a sharing partner: every object a
    /// heuristic supports is scored against the context, stored in MISP
    /// with its threat score, and published. Returns how many objects
    /// were scored.
    ///
    /// # Errors
    ///
    /// Returns MISP persistence errors.
    pub fn ingest_stix_bundle(&mut self, bundle: &cais_stix::Bundle) -> Result<usize, CoreError> {
        use crate::heuristics::generic;
        // Arm every carried indicator for live detection replay.
        self.detection.arm_bundle(bundle);
        let mut scored = 0;
        for object in bundle.objects() {
            let Some((heuristic, threat_score)) = generic::evaluate_object(object, &self.ctx)
            else {
                continue;
            };
            // Reuse the importer for the types it maps; build a minimal
            // event for the rest.
            let single = cais_stix::Bundle::new(vec![object.clone()]);
            let event = cais_misp::import::events_from_stix(&single)
                .into_iter()
                .next()
                .unwrap_or_else(|| {
                    let mut event = cais_misp::MispEvent::new(format!(
                        "STIX {}: {}",
                        object.object_type(),
                        object.name().unwrap_or("unnamed"),
                    ));
                    event.date = object.created();
                    event
                });
            let event_id = self.misp.add_event(event)?;
            crate::enrich::attach_score(&self.misp, event_id, heuristic, &threat_score)?;
            if self.config.publish_enriched {
                self.misp.publish_event(event_id)?;
            }
            scored += 1;
        }
        Ok(scored)
    }

    /// Feeds network packets through the infrastructure collector,
    /// forwarding fresh alarms to the context and the bus, and replays
    /// armed indicator patterns over the traffic.
    pub fn ingest_packets(&mut self, packets: &[nids::Packet]) {
        self.infra.ingest_packets(packets);
        self.forward_alarms();
        let observations: Vec<cais_stix::pattern::Observation> = packets
            .iter()
            .map(|p| {
                cais_stix::pattern::Observation::at(p.at)
                    .with_object(cais_stix::sdo::CyberObservable::new(
                        "ipv4-addr",
                        p.src_ip.clone(),
                    ))
                    .with_object(cais_stix::sdo::CyberObservable::new(
                        "ipv4-addr",
                        p.dst_ip.clone(),
                    ))
            })
            .collect();
        let detections = self
            .detection
            .ingest(observations, self.ctx.now, &self.ctx.sightings);
        for detection in detections {
            let _ = self
                .broker
                .publish_value(Topic::new(topics::DETECTION_FIRED), &detection);
            self.detections.push(detection);
        }
    }

    /// Feeds host logs through the infrastructure collector.
    pub fn ingest_logs(&mut self, logs: &[hids::LogLine]) {
        self.infra.ingest_logs(logs);
        self.forward_alarms();
    }

    /// Every indicator-pattern detection fired so far.
    pub fn detections(&self) -> &[crate::detection::Detection] {
        &self.detections
    }

    /// Per-feed quality grades (0–5), best feed first — volume-unique
    /// contribution, freshness and reliability combined.
    pub fn feed_scoreboard(&self) -> Vec<(String, f64)> {
        self.quality
            .scoreboard()
            .into_iter()
            .map(|(source, grade)| (source.to_owned(), grade))
            .collect()
    }

    /// Number of indicators armed for detection replay.
    pub fn armed_indicators(&self) -> usize {
        self.detection.armed()
    }

    fn forward_alarms(&mut self) {
        let alarms = self.infra.alarms();
        for alarm in &alarms[self.alarms_forwarded.min(alarms.len())..] {
            self.ctx.push_alarm(alarm.clone());
            let _ = self
                .broker
                .publish_value(Topic::new(topics::ALARM_RAISED), alarm);
        }
        self.alarms_forwarded = alarms.len();
    }

    /// Shares every published eIoC event to another MISP instance
    /// (trusted-organization sharing), returning how many transferred.
    pub fn share_with(&self, partner: &MispApi) -> usize {
        cais_misp::sync::push(&self.misp, partner).transferred
    }

    /// Polls every resilient source once (in slice order, retry backoff
    /// on virtual time) and ingests whatever the healthy subset
    /// delivered — the graceful-degradation entry point.
    ///
    /// Collection is strictly ordered and ingestion happens in a single
    /// round, so with the same sources in the same states the produced
    /// rIoCs are identical for every `workers` (see
    /// [`Platform::ingest_feed_records_parallel`]) and identical to a
    /// fault-free run of the surviving sources: a faulted source
    /// degrades the round's *inputs* (its batch is absent) but never
    /// the determinism of the outputs.
    ///
    /// # Errors
    ///
    /// Returns MISP validation errors from the ingestion round; source
    /// failures are *not* errors — they are counted in the report and
    /// the round proceeds with the records that did arrive.
    pub fn ingest_from_sources(
        &mut self,
        sources: &mut [cais_feeds::ResilientSource],
        workers: usize,
    ) -> Result<SourceIngestReport, CoreError> {
        // Backoffs run on virtual time: determinism does not depend on
        // the wall clock and a faulted source cannot stall the round.
        let sleeper = cais_common::resilience::RecordingSleeper::default();
        // The poll is the trace ingress: everything the round does
        // downstream — pipeline stages, store inserts, bus publishes —
        // hangs off this root span (or is dropped with it when the
        // sampling decision says no).
        let mut span = self.tracer.root("ingress", "feed_poll");
        span.field("sources", sources.len());
        let ingress = span.sampled().then(|| span.context());
        let mut records = Vec::new();
        let mut outcome = SourceIngestReport {
            sources_polled: sources.len(),
            ..SourceIngestReport::default()
        };
        for source in sources.iter_mut() {
            let retries_before = source.total_retries();
            let opened_before = source.breaker_transitions().opened;
            match source.poll(&sleeper) {
                cais_feeds::RoundOutcome::Delivered(batch) => {
                    outcome.delivered += 1;
                    records.extend(batch);
                }
                cais_feeds::RoundOutcome::Quarantined => outcome.quarantined += 1,
                cais_feeds::RoundOutcome::Failed(_) | cais_feeds::RoundOutcome::Interrupted => {
                    outcome.failed += 1;
                }
            }
            outcome.retries += source.total_retries() - retries_before;
            if source.breaker_transitions().opened > opened_before {
                // A breaker trip is the anomaly the flight recorder
                // exists for: capture the span tails before they age
                // out of the rings.
                if let Some(flight) = &self.flight {
                    let _ = flight.trigger("breaker_trip", source.name());
                }
            }
        }
        span.field("delivered", outcome.delivered);
        span.field("failed", outcome.failed);
        span.field("quarantined", outcome.quarantined);
        outcome.report = self.ingest_round(records, workers, ingress)?;
        Ok(outcome)
    }
}

/// The outcome of one [`Platform::ingest_from_sources`] round.
#[derive(Debug, Clone, Default)]
pub struct SourceIngestReport {
    /// The ingestion round over the delivered records.
    pub report: PlatformReport,
    /// Sources polled this round.
    pub sources_polled: usize,
    /// Sources that delivered a batch (possibly after retries).
    pub delivered: usize,
    /// Sources that exhausted their retry budget this round.
    pub failed: usize,
    /// Sources denied by an open circuit breaker.
    pub quarantined: usize,
    /// Retries spent across all sources this round.
    pub retries: u64,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("org", &self.config.org)
            .field("eiocs", &self.eiocs.len())
            .field("riocs", &self.riocs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::vulnerability::paper_rce_ioc;
    use cais_common::{Observable, ObservableKind, Timestamp};
    use cais_feeds::ThreatCategory;

    fn struts_record(now: Timestamp) -> FeedRecord {
        FeedRecord::new(
            Observable::new(ObservableKind::Cve, "CVE-2017-9805"),
            ThreatCategory::VulnerabilityExploitation,
            "nvd-feed",
            now.add_days(-100),
        )
        .with_cve("CVE-2017-9805")
        .with_description("remote code execution in apache struts")
    }

    #[test]
    fn end_to_end_use_case_flow() {
        let mut platform = Platform::paper_use_case();
        let rioc_feed = platform.broker().subscribe("cais.rioc.published");
        let now = platform.context().now;

        let report = platform
            .ingest_feed_records(vec![struts_record(now), struts_record(now)])
            .unwrap();
        assert_eq!(report.records_in, 2);
        assert_eq!(report.duplicates_dropped, 1);
        assert_eq!(report.ciocs, 1);
        assert_eq!(report.eiocs, 1);
        assert_eq!(report.riocs, 1);

        // The dashboard topic carried the rIoC.
        let messages = rioc_feed.drain();
        assert_eq!(messages.len(), 1);
        let rioc: ReducedIoc = messages[0].decode().unwrap();
        assert_eq!(rioc.cve.as_deref(), Some("CVE-2017-9805"));
        assert_eq!(rioc.nodes, vec![cais_infra::NodeId(4)]);

        // The eIoC landed in MISP with its score.
        let event = platform
            .misp()
            .get_event(rioc.misp_event_id.unwrap())
            .unwrap();
        assert!(event.published);
        assert!(event.threat_score().is_some());
    }

    #[test]
    fn rescored_events_update_dashboard_riocs_and_drop_memos() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        platform
            .ingest_feed_records(vec![struts_record(now)])
            .unwrap();
        let rioc = platform.riocs()[0].clone();
        let event_id = rioc.misp_event_id.unwrap();
        let evictions_before = platform.reduce_cache_stats().match_memo_evictions;

        // A decay rescore halved the event's score.
        let decayed = rioc.threat_score / 2.0;
        let scores: HashMap<u64, f64> = [(event_id, decayed)].into_iter().collect();
        assert_eq!(platform.apply_rescored(&scores), 1);
        assert_eq!(platform.riocs()[0].threat_score, decayed);
        assert!(
            platform.reduce_cache_stats().match_memo_evictions > evictions_before,
            "rescore must invalidate the reducer memos"
        );

        // Same scores again: nothing changes, memos stay warm.
        assert_eq!(platform.apply_rescored(&scores), 0);
    }

    #[test]
    fn irrelevant_iocs_do_not_reach_the_dashboard() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Domain, "unrelated.example"),
            ThreatCategory::MalwareDomain,
            "feed",
            now,
        );
        let report = platform.ingest_feed_records(vec![record]).unwrap();
        assert_eq!(report.eiocs, 1);
        assert_eq!(report.riocs, 0);
        assert!(platform.riocs().is_empty());
        // …but the eIoC is still stored for future correlation.
        assert_eq!(platform.misp().store().len(), 1);
    }

    #[test]
    fn alarms_feed_the_heuristics() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        // Struts exploitation traffic against node 4 raises an alarm
        // tagged apache-struts…
        let packet = nids::Packet {
            at: now,
            src_ip: "203.0.113.9".into(),
            dst_ip: "192.168.1.14".into(),
            dst_port: 8080,
            payload: "XStreamHandler xstream exploit".into(),
        };
        platform.ingest_packets(&[packet]);
        assert_eq!(platform.context().alarms.read().len(), 1);

        // …so the use-case IoC now scores above its alarm-free 2.7407.
        let score_with_alarm =
            crate::heuristics::vulnerability::evaluate(&paper_rce_ioc(), platform.context());
        assert!(score_with_alarm.total() > 2.7407);
    }

    #[test]
    fn sharing_transfers_published_events() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        platform
            .ingest_feed_records(vec![struts_record(now)])
            .unwrap();
        let partner = MispApi::new("partner-org");
        let transferred = platform.share_with(&partner);
        assert_eq!(transferred, 1);
        assert_eq!(partner.store().len(), 1);
    }

    #[test]
    fn report_counters_accumulate_per_round() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        platform
            .ingest_feed_records(vec![struts_record(now)])
            .unwrap();
        // Second round: the same record is a pure duplicate.
        let report = platform
            .ingest_feed_records(vec![struts_record(now)])
            .unwrap();
        assert_eq!(report.duplicates_dropped, 1);
        assert_eq!(report.ciocs, 0);
        assert_eq!(platform.eiocs().len(), 1);
    }

    #[test]
    fn nlp_filter_drops_irrelevant_descriptions() {
        let mut platform = Platform::new(
            PlatformConfig {
                nlp_relevance_filter: true,
                ..PlatformConfig::default()
            },
            crate::context::EvaluationContext::paper_use_case(),
        );
        let now = platform.context().now;
        let threat = struts_record(now); // "remote code execution" fires
        let noise = FeedRecord::new(
            Observable::new(ObservableKind::Domain, "pr.example.com"),
            ThreatCategory::MalwareDomain,
            "feed",
            now,
        )
        .with_description("company announces record quarterly earnings");
        let undescribed = FeedRecord::new(
            Observable::new(ObservableKind::Domain, "bare.example.com"),
            ThreatCategory::MalwareDomain,
            "feed",
            now,
        );
        let report = platform
            .ingest_feed_records(vec![threat, noise, undescribed])
            .unwrap();
        assert_eq!(report.records_in, 3);
        assert_eq!(report.nlp_filtered, 1);
        assert_eq!(report.ciocs, 2);
    }

    #[test]
    fn stix_bundle_ingestion_scores_supported_objects() {
        use cais_stix::prelude::*;
        let mut platform = Platform::paper_use_case();
        let stamp = platform.context().now.add_days(-3);
        let bundle = Bundle::new(vec![
            Malware::builder("emotet")
                .label("trojan")
                .status("active")
                .created(stamp)
                .modified(stamp)
                .build()
                .into(),
            Tool::builder("snort")
                .label("network-capture")
                .created(stamp)
                .modified(stamp)
                .build()
                .into(),
            // Unsupported: contributes nothing.
            Campaign::builder("op-x")
                .created(stamp)
                .modified(stamp)
                .build()
                .into(),
        ]);
        let scored = platform.ingest_stix_bundle(&bundle).unwrap();
        assert_eq!(scored, 2);
        assert_eq!(platform.misp().store().len(), 2);
        platform.misp().store().for_each(|event| {
            assert!(event.threat_score().is_some());
            assert!(event.published);
        });
    }

    #[test]
    fn partner_indicators_detect_live_traffic() {
        use cais_stix::prelude::*;
        let mut platform = Platform::paper_use_case();
        let detections_feed = platform.broker().subscribe("cais.detection.fired");
        let stamp = platform.context().now.add_days(-1);

        // A partner shares an indicator for a known C2 address.
        let mut builder = Indicator::builder("[ipv4-addr:value = '203.0.113.77']", stamp);
        builder
            .name("partner-c2")
            .label("malicious-activity")
            .created(stamp)
            .modified(stamp);
        let bundle = Bundle::new(vec![builder.build().into()]);
        platform.ingest_stix_bundle(&bundle).unwrap();
        assert_eq!(platform.armed_indicators(), 1);

        // Traffic from that address arrives.
        let packet = nids::Packet {
            at: platform.context().now,
            src_ip: "203.0.113.77".into(),
            dst_ip: "192.168.1.11".into(),
            dst_port: 443,
            payload: "tls".into(),
        };
        platform.ingest_packets(&[packet]);
        assert_eq!(platform.detections().len(), 1);
        assert_eq!(platform.detections()[0].indicator_name, "partner-c2");
        assert_eq!(detections_feed.drain().len(), 1);
        // The detection registered a sighting, so future scoring sees
        // infrastructure-confirmed evidence.
        assert!(platform
            .context()
            .sightings
            .has_seen(&cais_common::Observable::parse("203.0.113.77").unwrap()));
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use cais_common::{Observable, ObservableKind};
    use cais_feeds::ThreatCategory;

    fn mixed_workload(platform: &Platform, count: usize) -> Vec<FeedRecord> {
        let now = platform.context().now;
        (0..count)
            .map(|i| {
                let mut record = match i % 4 {
                    0 => FeedRecord::new(
                        Observable::new(
                            ObservableKind::Cve,
                            format!("CVE-2017-{:04}", 9000 + i % 40),
                        ),
                        ThreatCategory::VulnerabilityExploitation,
                        format!("feed-{}", i % 3),
                        now.add_days(-((i % 300) as i64)),
                    ),
                    1 => FeedRecord::new(
                        Observable::new(
                            ObservableKind::Domain,
                            format!("c2-{}.evil.example", i % 25),
                        ),
                        ThreatCategory::CommandAndControl,
                        format!("feed-{}", i % 3),
                        now.add_days(-((i % 30) as i64)),
                    ),
                    2 => FeedRecord::new(
                        Observable::new(
                            ObservableKind::Ipv4,
                            format!("203.0.{}.{}", i % 6, i % 200),
                        ),
                        ThreatCategory::Scanner,
                        format!("feed-{}", i % 3),
                        now.add_days(-((i % 10) as i64)),
                    ),
                    _ => FeedRecord::new(
                        Observable::new(
                            ObservableKind::Domain,
                            format!("phish-{}.example", i % 15),
                        ),
                        ThreatCategory::Phishing,
                        format!("feed-{}", i % 3),
                        now,
                    ),
                };
                if i % 4 == 0 {
                    record = record
                        .with_cve(format!("CVE-2017-{:04}", 9000 + i % 40))
                        .with_description("remote code execution advisory");
                }
                record
            })
            .collect()
    }

    fn config_with_filters() -> PlatformConfig {
        PlatformConfig {
            nlp_relevance_filter: true,
            warninglist_filter: true,
            ..PlatformConfig::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        for workers in [2, 4, 8] {
            let mut sequential =
                Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
            let mut parallel =
                Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
            let records = mixed_workload(&sequential, 600);
            let seq_report = sequential.ingest_feed_records(records.clone()).unwrap();
            let par_report = parallel
                .ingest_feed_records_parallel(records, workers)
                .unwrap();
            assert!(
                seq_report.same_counters(&par_report),
                "{workers} workers:\n{seq_report:?}\nvs\n{par_report:?}"
            );
            assert_eq!(sequential.eiocs(), parallel.eiocs(), "{workers} workers");
            assert_eq!(sequential.riocs(), parallel.riocs(), "{workers} workers");
            assert_eq!(
                sequential.misp().store().len(),
                parallel.misp().store().len()
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_across_duplicate_rates() {
        for unique in [5usize, 50, 200] {
            let mut sequential = Platform::paper_use_case();
            let mut parallel = Platform::paper_use_case();
            let now = sequential.context().now;
            let records: Vec<FeedRecord> = (0..400)
                .map(|i| {
                    FeedRecord::new(
                        Observable::new(
                            ObservableKind::Domain,
                            format!("dup-{}.example", i % unique),
                        ),
                        ThreatCategory::MalwareDomain,
                        format!("feed-{}", i % 4),
                        now.add_days(-((i % 20) as i64)),
                    )
                })
                .collect();
            let seq_report = sequential.ingest_feed_records(records.clone()).unwrap();
            let par_report = parallel.ingest_feed_records_parallel(records, 4).unwrap();
            assert!(
                seq_report.same_counters(&par_report),
                "unique={unique}:\n{seq_report:?}\nvs\n{par_report:?}"
            );
            assert_eq!(par_report.duplicates_dropped, 400 - unique);
            assert_eq!(sequential.riocs(), parallel.riocs());
        }
    }

    #[test]
    fn parallel_shares_dedup_state_with_sequential() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        let record = || {
            FeedRecord::new(
                Observable::new(ObservableKind::Domain, "seen-once.example"),
                ThreatCategory::MalwareDomain,
                "feed",
                now,
            )
        };
        platform.ingest_feed_records(vec![record()]).unwrap();
        // The same record in a four-worker round is a duplicate.
        let report = platform
            .ingest_feed_records_parallel(vec![record(), record()], 4)
            .unwrap();
        assert_eq!(report.duplicates_dropped, 2);
        assert_eq!(report.ciocs, 0);
    }

    #[test]
    fn stage_metrics_account_for_every_record() {
        let mut platform =
            Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
        let records = mixed_workload(&platform, 200);
        let report = platform.ingest_feed_records(records).unwrap();
        let stages = report.stages;
        assert_eq!(stages.filter.records_in, report.records_in);
        assert_eq!(
            stages.filter.dropped,
            report.nlp_filtered + report.benign_filtered
        );
        assert_eq!(stages.dedup.records_in, stages.filter.records_out);
        assert_eq!(stages.dedup.dropped, report.duplicates_dropped);
        assert_eq!(stages.compose.records_in, stages.dedup.records_out);
        assert_eq!(stages.compose.records_out, report.ciocs);
        assert_eq!(stages.enrich.records_in, report.ciocs);
        assert_eq!(stages.enrich.records_out, report.eiocs);
        assert_eq!(stages.reduce.records_in, report.eiocs);
        assert_eq!(stages.reduce.records_out, report.riocs);
        // One bus message per cIoC, eIoC and rIoC.
        assert_eq!(
            stages.publish.records_in,
            report.ciocs + report.eiocs + report.riocs
        );
        assert!(stages.total_nanos() > 0);
    }

    #[test]
    fn parallel_publishes_the_same_bus_traffic() {
        let mut platform = Platform::paper_use_case();
        let ciocs = platform.broker().subscribe(topics::CIOC_RECEIVED);
        let eiocs = platform.broker().subscribe(topics::EIOC_READY);
        let riocs = platform.broker().subscribe(topics::RIOC_PUBLISHED);
        let records = mixed_workload(&platform, 120);
        let report = platform.ingest_feed_records_parallel(records, 4).unwrap();
        assert_eq!(ciocs.drain().len(), report.ciocs);
        assert_eq!(eiocs.drain().len(), report.eiocs);
        assert_eq!(riocs.drain().len(), report.riocs);
    }

    #[test]
    fn serial_and_parallel_yield_identical_telemetry_counters() {
        let mut sequential =
            Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
        let mut parallel =
            Platform::new(config_with_filters(), EvaluationContext::paper_use_case());
        let records = mixed_workload(&sequential, 400);
        sequential.ingest_feed_records(records.clone()).unwrap();
        parallel.ingest_feed_records_parallel(records, 4).unwrap();
        // Counters (pipeline stages, bus messages, MISP mutations) are
        // deterministic outcomes and must match exactly; gauges and
        // histograms carry wall times and sampling moments, which
        // legitimately differ.
        let serial = sequential.telemetry().snapshot();
        let par = parallel.telemetry().snapshot();
        assert_eq!(serial.counters, par.counters);
        assert_ne!(serial.counters["pipeline_ciocs_total"], 0);
        assert_ne!(serial.counters["pipeline_eiocs_total"], 0);
        assert_ne!(serial.counters["bus_published_total"], 0);
        assert_ne!(serial.counters["misp_events_inserted_total"], 0);
    }

    #[test]
    fn round_records_an_ingest_span() {
        let mut platform = Platform::paper_use_case();
        let records = mixed_workload(&platform, 40);
        platform.ingest_feed_records_parallel(records, 4).unwrap();
        let spans = platform.tracer().snapshot_subsystem("pipeline");
        assert_eq!(spans.len(), 1);
        let round = &spans[0];
        assert_eq!(round.name, "ingest_round");
        assert!(round.duration_nanos.is_some());
        assert!(round.fields.iter().any(|(k, v)| k == "workers" && v == "4"));
        // The round's store inserts and bus publishes chain beneath it.
        let stores = platform.tracer().snapshot_subsystem("store");
        assert!(!stores.is_empty());
        assert!(stores
            .iter()
            .filter(|s| s.name == "store_insert")
            .all(|s| s.trace_id == round.trace_id && s.parent_id == round.span_id));
        let buses = platform.tracer().snapshot_subsystem("bus");
        assert!(buses
            .iter()
            .any(|s| s.name == "bus_publish" && s.trace_id == round.trace_id));
    }

    #[test]
    fn source_poll_roots_the_trace_above_the_round() {
        use cais_feeds::{FeedFormat, MemorySource, ResilienceConfig, ResilientSource};
        let mut platform = Platform::paper_use_case();
        let source = MemorySource::new(
            "osint-a",
            FeedFormat::Csv,
            cais_feeds::ThreatCategory::CommandAndControl,
            "value,date\nalpha.evil.example,2018-06-01T00:00:00Z\n",
        );
        let mut sources = vec![ResilientSource::new(
            Box::new(source),
            &ResilienceConfig::default(),
            7,
        )];
        platform.ingest_from_sources(&mut sources, 1).unwrap();
        let ingress = platform.tracer().snapshot_subsystem("ingress");
        assert_eq!(ingress.len(), 1);
        assert_eq!(ingress[0].name, "feed_poll");
        assert_eq!(ingress[0].parent_id, 0, "the poll is the trace root");
        let rounds = platform.tracer().snapshot_subsystem("pipeline");
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].trace_id, ingress[0].trace_id);
        assert_eq!(rounds[0].parent_id, ingress[0].span_id);
    }

    #[test]
    fn single_worker_round_writes_each_event_once() {
        for workers in [0, 1] {
            let mut platform = Platform::paper_use_case();
            let records = mixed_workload(&platform, 40);
            let report = platform
                .ingest_feed_records_parallel(records, workers)
                .unwrap();
            assert_eq!(report.records_in, 40);
            assert!(report.ciocs > 0);
            let store = platform.misp().store();
            assert_eq!(store.len(), report.eiocs);
            assert_eq!(store.generation(), report.eiocs as u64, "{workers} workers");
            for eioc in platform.eiocs() {
                let id = eioc.misp_event_id.unwrap();
                assert_eq!(store.event_version(id), Some(0), "{workers} workers");
            }
        }
    }

    #[test]
    fn stored_event_carries_score_and_criterion_tags() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Cve, "CVE-2017-9805"),
            ThreatCategory::VulnerabilityExploitation,
            "nvd-feed",
            now.add_days(-200),
        )
        .with_cve("CVE-2017-9805")
        .with_description("struts RCE observed");
        platform.ingest_feed_records(vec![record]).unwrap();
        let eioc = &platform.eiocs()[0];
        let event = platform
            .misp()
            .get_event(eioc.misp_event_id.unwrap())
            .unwrap();
        let stored_score = event.threat_score().expect("score attribute");
        assert!((stored_score - eioc.score()).abs() < 1e-3);
        // Per-criterion machine tags are present (future-work feature).
        for predicate in ["relevance", "accuracy", "timeliness", "variety", "priority"] {
            assert!(
                event
                    .tags
                    .iter()
                    .any(|t| t.namespace() == Some("cais") && t.predicate() == Some(predicate)),
                "missing cais:{predicate} tag"
            );
        }
    }

    #[test]
    fn failed_round_leaves_no_partial_state() {
        for workers in [1, 4] {
            let mut platform = Platform::paper_use_case();
            let all = platform.broker().subscribe("#");
            platform
                .ingest_feed_records_parallel(mixed_workload(&platform, 40), workers)
                .unwrap();
            assert!(!all.drain().is_empty());
            let store = platform.misp().store();
            let (len, generation) = (store.len(), store.generation());
            let eiocs = platform.eiocs().to_vec();
            let riocs = platform.riocs().to_vec();

            let now = platform.context().now;
            let mut records: Vec<FeedRecord> = (0..6)
                .map(|i| {
                    FeedRecord::new(
                        Observable::new(ObservableKind::Domain, format!("bad-{i}.example")),
                        ThreatCategory::MalwareDomain,
                        format!("feed-{i}"),
                        now,
                    )
                })
                .collect();
            records[3] = records[3].clone().with_cve("NOT-A-CVE");
            assert!(platform
                .ingest_feed_records_parallel(records, workers)
                .is_err());

            let store = platform.misp().store();
            assert_eq!(store.len(), len, "{workers} workers");
            assert_eq!(store.generation(), generation, "{workers} workers");
            assert_eq!(platform.eiocs(), &eiocs[..], "{workers} workers");
            assert_eq!(platform.riocs(), &riocs[..], "{workers} workers");
            // No message on any topic.
            assert!(all.drain().is_empty(), "{workers} workers");
        }
    }
}

#[cfg(test)]
mod source_ingest_tests {
    use super::*;
    use cais_common::resilience::{FaultKind, FaultPlan};
    use cais_feeds::{
        FeedFormat, FeedSource, FlakySource, MemorySource, ResilienceConfig, ResilientSource,
        ThreatCategory,
    };

    /// CSV with an explicit timestamp column: records carry no
    /// fetch-time stamp, so two independent fetches parse into
    /// byte-identical batches.
    fn memory(name: &str, values: &[&str]) -> MemorySource {
        let mut payload = String::from("value,date\n");
        for value in values {
            payload.push_str(value);
            payload.push_str(",2018-06-01T00:00:00Z\n");
        }
        MemorySource::new(
            name,
            FeedFormat::Csv,
            ThreatCategory::CommandAndControl,
            payload,
        )
    }

    fn resilient(source: impl FeedSource + 'static) -> ResilientSource {
        ResilientSource::new(Box::new(source), &ResilienceConfig::default(), 42)
    }

    #[test]
    fn faulted_sources_degrade_gracefully_and_deterministically() {
        let payload_a: &[&str] = &["alpha.evil.example", "beta.evil.example"];
        let payload_b: &[&str] = &["gamma.evil.example"];
        let payload_dead: &[&str] = &["never-seen.evil.example"];

        let build_sources = || {
            let plan = FaultPlan::new(9)
                .fail_first("feeds.transient", 2, FaultKind::Error)
                .always("feeds.dead", FaultKind::Error);
            vec![
                resilient(memory("healthy", payload_a)),
                resilient(FlakySource::scripted(
                    memory("transient", payload_b),
                    plan.clone(),
                    "feeds.transient",
                )),
                resilient(FlakySource::scripted(
                    memory("dead", payload_dead),
                    plan,
                    "feeds.dead",
                )),
            ]
        };

        // Fault-free baseline over the sources that survive: the dead
        // feed's records never existed as far as outputs are concerned.
        let mut baseline = Platform::paper_use_case();
        let mut healthy_only = vec![
            resilient(memory("healthy", payload_a)),
            resilient(memory("transient", payload_b)),
        ];
        let expected = baseline.ingest_from_sources(&mut healthy_only, 1).unwrap();
        assert_eq!(expected.delivered, 2);
        assert_eq!(expected.retries, 0);

        for workers in [1, 4] {
            let mut platform = Platform::paper_use_case();
            let mut sources = build_sources();
            let outcome = platform.ingest_from_sources(&mut sources, workers).unwrap();
            assert_eq!(outcome.delivered, 2, "{workers} workers");
            assert_eq!(outcome.failed, 1, "{workers} workers");
            assert!(outcome.retries >= 2, "{workers} workers");
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
    fn repeated_rounds_quarantine_a_dead_source() {
        let plan = FaultPlan::new(3).always("feeds.dead", FaultKind::Error);
        let config = ResilienceConfig::default();
        let mut sources = vec![ResilientSource::new(
            Box::new(FlakySource::scripted(
                memory("dead", &["x.example"]),
                plan,
                "feeds.dead",
            )),
            &config,
            42,
        )];
        let mut platform = Platform::paper_use_case();
        // Default breaker trips after 3 consecutive failed rounds.
        for _ in 0..3 {
            let outcome = platform.ingest_from_sources(&mut sources, 1).unwrap();
            assert_eq!(outcome.failed, 1);
        }
        let outcome = platform.ingest_from_sources(&mut sources, 1).unwrap();
        assert_eq!(outcome.quarantined, 1);
        assert!(sources[0].is_quarantined());
    }
}

#[cfg(test)]
mod warninglist_tests {
    use super::*;
    use cais_common::{Observable, ObservableKind};
    use cais_feeds::ThreatCategory;

    #[test]
    fn warninglist_filter_drops_known_benign_values() {
        let mut platform = Platform::new(
            PlatformConfig {
                warninglist_filter: true,
                ..PlatformConfig::default()
            },
            crate::context::EvaluationContext::paper_use_case(),
        );
        let now = platform.context().now;
        let make = |kind, value: &str| {
            FeedRecord::new(
                Observable::new(kind, value),
                ThreatCategory::CommandAndControl,
                "feed",
                now,
            )
        };
        let report = platform
            .ingest_feed_records(vec![
                make(ObservableKind::Ipv4, "10.0.0.7"),         // private
                make(ObservableKind::Ipv4, "8.8.8.8"),          // resolver
                make(ObservableKind::Domain, "foo.test"),       // reserved TLD
                make(ObservableKind::Ipv4, "45.33.12.7"),       // genuine
                make(ObservableKind::Domain, "real-threat.ru"), // genuine
            ])
            .unwrap();
        assert_eq!(report.records_in, 5);
        assert_eq!(report.benign_filtered, 3);
        assert_eq!(report.ciocs, 2);
    }

    #[test]
    fn filter_off_passes_everything() {
        let mut platform = Platform::paper_use_case();
        let now = platform.context().now;
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Ipv4, "10.0.0.7"),
            ThreatCategory::CommandAndControl,
            "feed",
            now,
        );
        let report = platform.ingest_feed_records(vec![record]).unwrap();
        assert_eq!(report.benign_filtered, 0);
        assert_eq!(report.ciocs, 1);
    }
}
