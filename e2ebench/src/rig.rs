//! The system under test, assembled from the workspace crates, and the
//! benchmark's two kinds of work on it: a feed round that follows records
//! from `Platform` to a TAXII consumer and a federated peer, and a
//! consumer cycle of reads against the serving core.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cais_bus::topics;
use cais_common::resilience::VirtualClock;
use cais_common::serve::{NoServeMetrics, ServeConfig, ServeHandle, ServeStats};
use cais_common::{Timestamp, Uuid};
use cais_core::{EvaluationContext, Platform, PlatformConfig, PlatformReport};
use cais_cvss::CveDatabase;
use cais_dashboard::{DashboardState, DashboardStream};
use cais_decay::{BaseScorer, DecayEngine, DecayModel};
use cais_federation::{FedRequest, FedResponse, FederationClient, FederationPeer};
use cais_federation::{SharingPolicy, Tenant};
use cais_feeds::FeedRecord;
use cais_infra::SightingStore;
use cais_misp::store::{MispStore, SearchBackend, SearchQuery};
use cais_misp::MispEvent;
use cais_search::{Field, Query, SearchIndex};
use cais_taxii::{Collection, Envelope, TaxiiClient, TaxiiServer};
use cais_telemetry::registry::labeled;
use parking_lot::{Mutex, RwLock};
use serde_json::Value;

use crate::gen::{self, Digest, FeedGen, Mix, Rng};
use crate::ledger::{Layer, Ledger};

/// Events per federation push frame (the protocol's chunk size).
const PUSH_CHUNK: usize = cais_federation::wire::MAX_BATCH;
/// Pipeline worker threads.
const WORKERS: usize = 2;
/// Virtual time that passes per feed round, so indicators age between
/// decay sweeps.
const ROUND_ADVANCE: Duration = Duration::from_secs(15 * 60);
/// Measured rounds generated at set-up and covered by the input digest.
const DIGEST_ROUNDS: usize = 4;
const ORG: &str = "CAIS";
const PEER_ORG: &str = "partner-csirt";
const STIX_TYPES: &[&str] = &["indicator", "vulnerability", "report"];
/// Search terms the consumers draw from.
const SEARCH_TERMS: usize = 32;
/// Records in the context's CVE database.
const CVES: usize = 4_000;

/// A preload round: 200 records, of which 30% are filtered, 20% are
/// duplicates and 17.5% are fleet advisories.
const PRELOAD_MIX: Mix = Mix {
    network: 55,
    fleet_advisories: 35,
    foreign_advisories: 10,
    chatter: 30,
    benign: 30,
    repeats: 20,
    overlap: 20,
};

/// Where every shared TAXII object came from: its add batch and the
/// indicator (MISP event) it belongs to. Objects, batches and
/// indicators are numbered in the order they were shared.
///
/// Objects are told apart by their whole content, not by their id:
/// ids derive from MISP UUIDs, and two UUIDs drawn at the same instant
/// on two pipeline workers can be equal (see `duplicate_ids`).
#[derive(Debug, Default)]
struct Catalog {
    slots: HashMap<u64, u32>,
    ids: HashSet<u64>,
    /// Shared objects whose id an earlier shared object already had.
    duplicate_ids: u64,
    object_batch: Vec<u32>,
    object_indicator: Vec<u32>,
    batch_objects: Vec<u32>,
    batch_indicators: Vec<Vec<u32>>,
    indicator_objects: Vec<u32>,
}

impl Catalog {
    /// Registers one add batch: per indicator, its objects. Returns the
    /// indicator numbers assigned.
    fn register(&mut self, indicators: &[Vec<Value>]) -> Vec<u32> {
        let batch = self.batch_objects.len() as u32;
        let mut numbers = Vec::with_capacity(indicators.len());
        let mut objects = 0;
        for shared in indicators {
            let indicator = self.indicator_objects.len() as u32;
            self.indicator_objects.push(shared.len() as u32);
            numbers.push(indicator);
            for object in shared {
                let slot = self.object_batch.len() as u32;
                self.slots.insert(content_key(object), slot);
                let id = object.get("id").and_then(Value::as_str).unwrap_or_default();
                if !self.ids.insert(hash_of(id)) {
                    self.duplicate_ids += 1;
                }
                self.object_batch.push(batch);
                self.object_indicator.push(indicator);
                objects += 1;
            }
        }
        self.batch_objects.push(objects);
        self.batch_indicators.push(numbers.clone());
        numbers
    }

    fn slot(&self, object: &Value) -> Option<u32> {
        self.slots.get(&content_key(object)).copied()
    }

    fn objects(&self) -> usize {
        self.object_batch.len()
    }
}

/// One paginated `added_after` walk from the start of the collection.
/// A correct walk returns every object of every batch it reaches; what
/// it misses inside a batch it reached is lost. Objects come back in
/// batch order, so a batch is settled once an object of a later batch
/// arrives, or the walk ends.
#[derive(Debug, Default)]
struct Walk {
    watermark: Option<Timestamp>,
    /// Objects pulled per batch not yet settled.
    open: std::collections::BTreeMap<u32, u32>,
    indicators: HashMap<u32, u32>,
}

/// What a walk missed in the batches it settled.
#[derive(Debug, Default, Clone, Copy)]
struct WalkLoss {
    lost_objects: u64,
    expected_indicators: u64,
    unseen_indicators: u64,
}

impl Walk {
    fn absorb(&mut self, catalog: &Catalog, objects: &[Value], loss: &mut WalkLoss) -> u64 {
        let mut unknown = 0;
        for object in objects {
            let Some(slot) = catalog.slot(object) else {
                unknown += 1;
                continue;
            };
            let s = slot as usize;
            let batch = catalog.object_batch[s];
            while let Some((&first, _)) = self.open.first_key_value() {
                if first >= batch {
                    break;
                }
                self.settle(catalog, first, loss);
            }
            *self.open.entry(batch).or_insert(0) += 1;
            *self
                .indicators
                .entry(catalog.object_indicator[s])
                .or_insert(0) += 1;
        }
        unknown
    }

    fn settle(&mut self, catalog: &Catalog, batch: u32, loss: &mut WalkLoss) {
        let pulled = self.open.remove(&batch).unwrap_or(0);
        let b = batch as usize;
        loss.lost_objects += u64::from(catalog.batch_objects[b].saturating_sub(pulled));
        for indicator in &catalog.batch_indicators[b] {
            loss.expected_indicators += 1;
            let got = self.indicators.remove(indicator).unwrap_or(0);
            if got < catalog.indicator_objects[*indicator as usize] {
                loss.unseen_indicators += 1;
            }
        }
    }

    fn finish(mut self, catalog: &Catalog, loss: &mut WalkLoss) {
        while let Some((&first, _)) = self.open.first_key_value() {
            self.settle(catalog, first, loss);
        }
    }
}

/// Everything one thread counted. Layer counters advance only in
/// traced rounds; end-to-end samples and checks advance in every round.
#[derive(Debug, Default)]
pub struct Tally {
    // End to end.
    pub feed_records: u64,
    pub feed_wall_nanos: u64,
    /// Latency samples, each with the instant its operation started.
    pub servable_ms: Vec<(Instant, f64)>,
    pub pull_ms: Vec<(Instant, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// High-water RSS at the fixed work point, when the run reached it.
    pub peak_rss_mb: f64,
    /// `PlatformReport` sums over every feed round, for the
    /// determinism check.
    pub core_all: CoreCounts,
    // Checks.
    pub request_errors: u64,
    pub unseen_indicators: u64,
    pub search_misses: u64,
    pub unacked_indicators: u64,
    pub repulled_objects: u64,
    pub lost_objects: u64,
    pub expired_before_share: u64,
    // Layers (traced rounds).
    pub core: CoreCounts,
    pub search_synced: u64,
    pub search_queries: u64,
    pub search_hits: u64,
    pub decay_rescored: u64,
    pub decay_reused: u64,
    pub decay_flipped: u64,
    pub dashboard_applied: u64,
    pub bus_queued: u64,
    pub share_bytes: u64,
    pub add_bytes: u64,
    pub add_calls: u64,
    pub pull_calls: u64,
    pub pulled_objects: u64,
    pub push_bytes: u64,
    pub fed_inserted: u64,
}

/// The `PlatformReport` counters the benchmark sums.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreCounts {
    pub records_in: u64,
    pub filtered: u64,
    pub duplicates: u64,
    pub ciocs: u64,
    pub riocs: u64,
}

impl CoreCounts {
    fn add(&mut self, report: &PlatformReport) {
        self.records_in += report.records_in as u64;
        self.filtered += (report.nlp_filtered + report.benign_filtered) as u64;
        self.duplicates += report.duplicates_dropped as u64;
        self.ciocs += report.ciocs as u64;
        self.riocs += report.riocs as u64;
    }

    fn merge(&mut self, other: CoreCounts) {
        self.records_in += other.records_in;
        self.filtered += other.filtered;
        self.duplicates += other.duplicates;
        self.ciocs += other.ciocs;
        self.riocs += other.riocs;
    }
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.feed_records += other.feed_records;
        self.feed_wall_nanos += other.feed_wall_nanos;
        self.servable_ms.extend(other.servable_ms);
        self.pull_ms.extend(other.pull_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
        self.core_all.merge(other.core_all);
        self.core.merge(other.core);
        self.request_errors += other.request_errors;
        self.unseen_indicators += other.unseen_indicators;
        self.search_misses += other.search_misses;
        self.unacked_indicators += other.unacked_indicators;
        self.repulled_objects += other.repulled_objects;
        self.lost_objects += other.lost_objects;
        self.expired_before_share += other.expired_before_share;
        self.search_synced += other.search_synced;
        self.search_queries += other.search_queries;
        self.search_hits += other.search_hits;
        self.decay_rescored += other.decay_rescored;
        self.decay_reused += other.decay_reused;
        self.decay_flipped += other.decay_flipped;
        self.dashboard_applied += other.dashboard_applied;
        self.bus_queued += other.bus_queued;
        self.share_bytes += other.share_bytes;
        self.add_bytes += other.add_bytes;
        self.add_calls += other.add_calls;
        self.pull_calls += other.pull_calls;
        self.pulled_objects += other.pulled_objects;
        self.push_bytes += other.push_bytes;
        self.fed_inserted += other.fed_inserted;
    }

    /// Counts one request, and a failure when it errored.
    fn request<T>(&mut self, result: &io::Result<T>) {
        self.attempted += 1;
        if result.is_err() {
            self.request_errors += 1;
            self.failed += 1;
        }
    }

    fn walk_loss(&mut self, loss: WalkLoss) {
        self.lost_objects += loss.lost_objects;
        self.attempted += loss.expected_indicators;
        self.unseen_indicators += loss.unseen_indicators;
        self.failed += loss.unseen_indicators;
    }
}

/// The system under test.
pub struct Rig {
    pub platform: RwLock<Platform>,
    index: Arc<SearchIndex>,
    decay: DecayEngine,
    /// The platform's MISP store, shared with the consumers.
    store: Arc<MispStore>,
    clock: VirtualClock,
    dashboard: Mutex<DashboardStream>,
    pub taxii: TaxiiServer,
    taxii_serve: Option<ServeHandle>,
    collection: Uuid,
    peer_serve: Option<ServeHandle>,
    catalog: RwLock<Catalog>,
    /// Registered-domain labels of shared indicators: the consumers'
    /// search terms.
    labels: Vec<String>,
    pub digest: Digest,
}

/// The feed poller: owns the generator, the writer's TAXII connection
/// (which also walks the new pages) and the push link to the peer.
pub struct Writer {
    feed: FeedGen,
    pending: VecDeque<Vec<FeedRecord>>,
    mix: Mix,
    taxii: TaxiiClient,
    fed: FederationClient,
    watermark: Option<Timestamp>,
    pulled: Vec<bool>,
    /// Whether the walk of the new pages is the workload's consumer
    /// pull (the feed workloads), or only the servability check beside
    /// dedicated consumers (`pull_under_churn`).
    pub walk_is_pull: bool,
}

/// One closed-loop consumer connection.
pub struct Reader {
    taxii: TaxiiClient,
    rng: Rng,
    walk: Walk,
}

/// What a workload's set-up needs to know.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: usize,
    /// Feed rounds of `PRELOAD_MIX` ingested and shared before the
    /// timed window.
    pub preload_rounds: usize,
    /// Composition of each measured feed round.
    pub mix: Mix,
}

impl Rig {
    /// Builds inputs, inventory, the platform and its subscribers,
    /// preloads `shape.preload_rounds` rounds, and starts the TAXII and
    /// federation listeners. Returns the rig and its writer.
    pub fn setup(seed: u64, shape: &Shape) -> io::Result<(Rig, Writer)> {
        let mut digest = Digest::default();
        let inventory = gen::fleet(seed, shape.nodes);
        for node in inventory.nodes() {
            digest.update(format!("{node:?}\n").as_bytes());
        }
        let cve_db = CveDatabase::synthetic(seed, CVES);
        let cves = gen::cve_pool(&cve_db);
        digest.update(cves.join(",").as_bytes());
        let now = Timestamp::from_ymd_hms(2019, 6, 1, 0, 0, 0);
        let ctx = EvaluationContext::new(
            Arc::new(inventory.clone()),
            Arc::new(cve_db),
            Arc::new(SightingStore::new()),
            now,
        );
        let config = PlatformConfig {
            org: ORG.to_owned(),
            nlp_relevance_filter: true,
            warninglist_filter: true,
            ..PlatformConfig::default()
        };
        let mut platform = Platform::new(config, ctx);
        let index = Arc::new(SearchIndex::new());
        platform.misp().set_search_backend(index.clone());
        let clock = VirtualClock::starting_at(now);
        let decay = DecayEngine::new(
            DecayModel::default(),
            BaseScorer::cais_default(),
            Arc::new(clock.clone()),
        );
        let mut dashboard =
            DashboardStream::attach(DashboardState::new(inventory), platform.broker());

        let mut policy = SharingPolicy::new();
        policy.admit(Tenant::new(PEER_ORG, Vec::<String>::new()));
        let peer = FederationPeer::new(PEER_ORG, Arc::new(RwLock::new(policy)));

        // Preload: the same path as a measured round, minus the wire.
        // Objects go into the collection with one added_at per round.
        let mut feed = FeedGen::new(seed, now, cves);
        let mut collection = Collection::new("cais-iocs", "indicators shared by the platform");
        let mut catalog = Catalog::default();
        let base = Timestamp::now().add_millis(-(shape.preload_rounds as i64) - 1);
        for round in 0..shape.preload_rounds {
            let records = feed.round(&PRELOAD_MIX);
            digest.records(&records);
            let before = platform.eiocs().len();
            platform
                .ingest_feed_records_parallel(records, WORKERS)
                .map_err(io::Error::other)?;
            let ids = new_event_ids(&platform, before);
            let store = platform.misp().store();
            let share = platform.misp().share();
            let mut events = Vec::new();
            let mut indicators = Vec::new();
            for id in ids {
                let Some(versioned) = store.versioned(id) else {
                    continue;
                };
                let bytes = share
                    .versioned_document("stix2", &versioned)
                    .map_err(io::Error::other)?
                    .expect("stix2 is a builtin format");
                indicators.push(bundle_objects(&bytes)?);
                events.push((*versioned.event).clone());
            }
            catalog.register(&indicators);
            let objects = indicators.into_iter().flatten().collect();
            collection.add_objects(objects, base.add_millis(round as i64));
            if !events.is_empty() {
                let request = FedRequest::Push {
                    from_org: ORG.to_owned(),
                    events,
                };
                if let FedResponse::Error { message } = peer.handle(&request, None) {
                    return Err(io::Error::other(message));
                }
            }
            clock.advance(ROUND_ADVANCE);
        }
        index.sync(platform.misp().store());
        decay
            .sweep(platform.misp().store())
            .map_err(io::Error::other)?;
        dashboard.pump();
        // A small pool of search terms, so repeated match pages can hit
        // the page cache between writes.
        let labels: Vec<String> = feed.labels().iter().take(SEARCH_TERMS).cloned().collect();
        let store = Arc::clone(platform.misp().store());

        // The first measured rounds are generated here, so the digest
        // covers them whatever the run's length.
        let mut pending = VecDeque::new();
        for _ in 0..DIGEST_ROUNDS {
            let records = feed.round(&shape.mix);
            digest.records(&records);
            pending.push_back(records);
        }

        let mut taxii = TaxiiServer::new("cais");
        let collection_id = taxii.add_collection(collection);
        let config = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        let taxii_serve = taxii.serve_on_core("127.0.0.1:0", config.clone(), NoServeMetrics)?;
        let peer_serve = peer.serve_on_core("127.0.0.1:0", config, NoServeMetrics)?;
        let writer = Writer {
            feed,
            pending,
            mix: shape.mix,
            taxii: TaxiiClient::connect(taxii_serve.local_addr())?,
            fed: FederationClient::new(peer_serve.local_addr(), ORG),
            // The consumer has already seen the preload.
            watermark: (shape.preload_rounds > 0)
                .then(|| base.add_millis(shape.preload_rounds as i64 - 1)),
            pulled: vec![true; catalog.objects()],
            walk_is_pull: true,
        };
        let rig = Rig {
            platform: RwLock::new(platform),
            index,
            decay,
            store,
            clock,
            dashboard: Mutex::new(dashboard),
            taxii,
            taxii_serve: Some(taxii_serve),
            collection: collection_id,
            peer_serve: Some(peer_serve),
            catalog: RwLock::new(catalog),
            labels,
            digest,
        };
        Ok((rig, writer))
    }

    pub fn reader(&self, seed: u64, connection: u64) -> io::Result<Reader> {
        let addr = self.taxii_serve.as_ref().expect("serving").local_addr();
        Ok(Reader {
            taxii: TaxiiClient::connect(addr)?,
            rng: Rng::stream(seed, 100 + connection),
            walk: Walk::default(),
        })
    }

    /// Shared objects so far whose id an earlier one already had.
    pub fn duplicate_ids(&self) -> u64 {
        self.catalog.read().duplicate_ids
    }

    pub fn taxii_stats(&self) -> ServeStats {
        self.taxii_serve
            .as_ref()
            .map(ServeHandle::stats)
            .unwrap_or_default()
    }

    fn peer_stats(&self) -> ServeStats {
        self.peer_serve
            .as_ref()
            .map(ServeHandle::stats)
            .unwrap_or_default()
    }

    /// Stops both listeners and joins their threads.
    fn shutdown(&mut self) {
        if let Some(handle) = self.taxii_serve.take() {
            handle.shutdown();
        }
        if let Some(handle) = self.peer_serve.take() {
            handle.shutdown();
        }
    }

    /// One feed round: ingest → search sync → decay sweep → dashboard
    /// pump → share export → TAXII add → consumer walk of the new pages
    /// → push to the peer. Then, outside the round's wall time, checks
    /// that every shared indicator is found by `MispApi::search`.
    pub fn feed_round(&self, w: &mut Writer, ledger: &mut Ledger, tally: &mut Tally) {
        let records = w
            .pending
            .pop_front()
            .unwrap_or_else(|| w.feed.round(&w.mix));
        let offered = records.len() as u64;
        ledger.begin("feed");
        let traced = ledger.traced();
        let started = Instant::now();
        let peer_before = traced.then(|| self.peer_stats());

        // core: only ingest takes the platform exclusively, so
        // consumers' reads wait for nothing else the round does.
        let mut platform = self.platform.write();
        let before = platform.eiocs().len();
        let report = ledger.time(Layer::Core, "ingest", || {
            platform.ingest_feed_records_parallel(records, WORKERS)
        });
        tally.attempted += 1;
        let report = match report {
            Ok(report) => report,
            Err(error) => {
                tally.request_errors += 1;
                tally.failed += 1;
                tally.violations.push(format!("ingest failed: {error}"));
                drop(platform);
                ledger.end();
                return;
            }
        };
        let ids = new_event_ids(&platform, before);
        let bus_queued: i64 = [topics::RIOC_PUBLISHED, topics::ALARM_RAISED]
            .iter()
            .map(|pattern| {
                platform
                    .telemetry()
                    .gauge(&labeled("bus_queue_depth", &[("pattern", pattern)]))
                    .get()
            })
            .sum();
        let store = Arc::clone(platform.misp().store());
        drop(platform);
        tally.core_all.add(&report);
        if report.records_in as u64 != offered {
            tally.violations.push(format!(
                "platform saw {} records of {offered}",
                report.records_in
            ));
        }

        // search, decay, dashboard
        let sync = ledger.time(Layer::Search, "sync", || self.index.sync(&store));
        let sweep = ledger.time(Layer::Decay, "sweep", || self.decay.sweep(&store));
        self.clock.advance(ROUND_ADVANCE);
        let applied = ledger.time(Layer::Dashboard, "pump", || self.dashboard.lock().pump());

        // misp: share export of the round's new, still-published events
        let platform = self.platform.read();
        let exported = ledger.time(Layer::Misp, "share_export", || {
            let mut out = Vec::with_capacity(ids.len());
            for &id in &ids {
                if let Some(versioned) = store.versioned(id) {
                    let doc = platform
                        .misp()
                        .share()
                        .versioned_document("stix2", &versioned);
                    out.push((versioned, doc));
                }
            }
            out
        });
        drop(platform);
        let mut shared = Vec::new();
        let mut indicators = Vec::new();
        let mut share_bytes = 0;
        for (versioned, doc) in exported {
            if !versioned.event.published {
                tally.expired_before_share += 1;
                continue;
            }
            let parsed = match doc {
                Ok(Some(bytes)) => {
                    share_bytes += bytes.len() as u64;
                    bundle_objects(&bytes)
                }
                Ok(None) => Err(io::Error::other("stix2 export missing")),
                Err(error) => Err(io::Error::other(error)),
            };
            match parsed {
                Ok(objects) => {
                    indicators.push(objects);
                    shared.push(versioned);
                }
                Err(error) => tally.violations.push(format!("share export: {error}")),
            }
        }
        let numbers = self.catalog.write().register(&indicators);
        let objects: Vec<Value> = indicators.into_iter().flatten().collect();
        let object_count = objects.len() as u64;

        // taxii: add, then walk the new pages
        let taxii_before = traced.then(|| self.taxii_stats());
        let added = ledger.time(Layer::Taxii, "add", || {
            w.taxii.add_objects(&self.collection, objects)
        });
        if let Some(before) = taxii_before {
            tally.add_bytes += self.taxii_stats().bytes_in.saturating_sub(before.bytes_in);
        }
        tally.request(&added);
        if let Ok(stored) = &added {
            if *stored as u64 != object_count {
                tally
                    .violations
                    .push(format!("TAXII stored {stored} of {object_count} objects"));
            }
        }
        let pulled_at = self.walk_new_pages(w, ledger, tally, &numbers);

        // federation: push the shared events to the peer
        let events: Vec<MispEvent> = ledger.time(Layer::Misp, "store_read", || {
            shared.iter().map(|v| (*v.event).clone()).collect()
        });
        let mut acked_at: Vec<Option<Instant>> = vec![None; shared.len()];
        let mut inserted = 0;
        let mut offset = 0;
        let mut events = events.into_iter().peekable();
        while events.peek().is_some() {
            let chunk: Vec<MispEvent> = events.by_ref().take(PUSH_CHUNK).collect();
            let sent = chunk.len();
            let request = FedRequest::Push {
                from_org: ORG.to_owned(),
                events: chunk,
            };
            let response = ledger.time(Layer::Federation, "push", || w.fed.request(None, &request));
            let now = Instant::now();
            tally.request(&response);
            let acked = match response {
                Ok(FedResponse::Ack {
                    inserted: i,
                    merged,
                    unchanged,
                    ..
                }) => {
                    inserted += i;
                    (i + merged + unchanged).min(sent)
                }
                Ok(_) => 0,
                Err(_) => 0,
            };
            // The ack tallies are counts; the first `acked` of the
            // chunk are credited, the rest count as unacked.
            for slot in acked_at.iter_mut().skip(offset).take(acked) {
                *slot = Some(now);
            }
            offset += sent;
        }
        let wall = started.elapsed();
        ledger.end();

        tally.feed_records += offered;
        tally.feed_wall_nanos += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        // Two delivery checks per shared indicator: pulled, and acked.
        tally.attempted += 2 * shared.len() as u64;
        for (i, number) in numbers.iter().enumerate() {
            let pulled = pulled_at.get(number).copied();
            if pulled.is_none() {
                tally.unseen_indicators += 1;
                tally.failed += 1;
            }
            if acked_at[i].is_none() {
                tally.unacked_indicators += 1;
                tally.failed += 1;
            }
            if let (Some(p), Some(a)) = (pulled, acked_at[i]) {
                let ms = p.max(a).duration_since(started).as_secs_f64() * 1e3;
                tally.servable_ms.push((started, ms));
            }
        }
        if traced {
            tally.core.add(&report);
            tally.search_synced += (sync.appended + sync.reindexed) as u64;
            match &sweep {
                Ok(s) => {
                    tally.decay_rescored += s.rescore.scored as u64;
                    tally.decay_reused += s.rescore.reused as u64;
                    tally.decay_flipped += (s.flipped_expired + s.flipped_active) as u64;
                }
                Err(error) => tally.violations.push(format!("decay sweep: {error}")),
            }
            tally.dashboard_applied += applied as u64;
            tally.bus_queued += bus_queued.max(0) as u64;
            tally.share_bytes += share_bytes;
            tally.add_calls += 1;
            tally.fed_inserted += inserted as u64;
            if let Some(before) = peer_before {
                tally.push_bytes += self.peer_stats().bytes_in.saturating_sub(before.bytes_in);
            }
        } else if let Err(error) = &sweep {
            tally.violations.push(format!("decay sweep: {error}"));
        }

        self.check_search(ledger, tally, &shared);
    }

    /// The writer's consumer: pages from its watermark until the
    /// envelope says no more, noting when each indicator of this round
    /// was complete.
    fn walk_new_pages(
        &self,
        w: &mut Writer,
        ledger: &mut Ledger,
        tally: &mut Tally,
        numbers: &[u32],
    ) -> HashMap<u32, Instant> {
        let catalog = self.catalog.read();
        if w.pulled.len() < catalog.objects() {
            w.pulled.resize(catalog.objects(), false);
        }
        let mut remaining: HashMap<u32, u32> = numbers
            .iter()
            .map(|&n| (n, catalog.indicator_objects[n as usize]))
            .collect();
        let mut done = HashMap::with_capacity(numbers.len());
        let walk_started = Instant::now();
        loop {
            let page = ledger.time(Layer::Taxii, "pull", || {
                w.taxii.objects(&self.collection, w.watermark)
            });
            let decoded = Instant::now();
            tally.request(&page);
            let Ok(Envelope {
                objects,
                more,
                next,
            }) = page
            else {
                break;
            };
            if ledger.traced() {
                tally.pull_calls += 1;
                tally.pulled_objects += objects.len() as u64;
            }
            for object in &objects {
                let Some(slot) = catalog.slot(object) else {
                    tally
                        .violations
                        .push("pulled an object nobody shared".into());
                    continue;
                };
                let s = slot as usize;
                if w.pulled[s] {
                    tally.repulled_objects += 1;
                    continue;
                }
                w.pulled[s] = true;
                let indicator = catalog.object_indicator[s];
                if let Some(left) = remaining.get_mut(&indicator) {
                    *left -= 1;
                    if *left == 0 {
                        done.insert(indicator, decoded);
                    }
                }
            }
            if !more {
                break;
            }
            w.watermark = next;
        }
        if w.walk_is_pull {
            let ms = walk_started.elapsed().as_secs_f64() * 1e3;
            tally.pull_ms.push((walk_started, ms));
        }
        // Whatever this round's batch still holds unpulled sits behind
        // the watermark now: lost for good.
        tally.lost_objects += remaining.values().map(|&n| u64::from(n)).sum::<u64>();
        done
    }

    /// Every indicator shared in the round must be found by a value
    /// query of the search index behind `MispApi::search`. The exact
    /// `value:` term is answered from postings; the facade's
    /// `value_contains` filter scans every stored attribute, which
    /// would make the checks, not the loop, fill the run. Timed as its
    /// own ledger round, outside the feed round's wall time.
    fn check_search(
        &self,
        ledger: &mut Ledger,
        tally: &mut Tally,
        shared: &[cais_misp::store::VersionedEvent],
    ) {
        if shared.is_empty() {
            return;
        }
        ledger.begin("check");
        let traced = ledger.traced();
        for versioned in shared {
            let Some(value) = versioned.event.attributes.first().map(|a| a.value.clone()) else {
                continue;
            };
            let query = Query::Term {
                field: Field::Value,
                value,
            };
            let hits = ledger.time(Layer::Search, "query", || self.index.search(&query));
            // One request and one check.
            tally.attempted += 2;
            if !hits.iter().any(|h| h.event.uuid == versioned.event.uuid) {
                tally.search_misses += 1;
                tally.failed += 1;
            }
            if traced {
                tally.search_queries += 1;
                tally.search_hits += hits.len() as u64;
            }
        }
        ledger.end();
    }

    /// One consumer cycle: a page of the reader's `added_after` walk, a
    /// page of one STIX type, a page matching a search term, and a
    /// `MispApi::search` query.
    pub fn consume(&self, r: &mut Reader, ledger: &mut Ledger, tally: &mut Tally) {
        ledger.begin("consume");
        let traced = ledger.traced();

        let page = self.timed_pull(r, ledger, tally, |c, coll, wm| c.objects(coll, wm), true);
        if let Ok(page) = page {
            let catalog = self.catalog.read();
            let mut loss = WalkLoss::default();
            if r.walk.absorb(&catalog, &page.objects, &mut loss) > 0 {
                tally
                    .violations
                    .push("pulled an object nobody shared".into());
            }
            if page.more {
                r.walk.watermark = page.next;
            } else {
                std::mem::take(&mut r.walk).finish(&catalog, &mut loss);
            }
            tally.walk_loss(loss);
        }

        let ty = *r.rng.pick(STIX_TYPES);
        let page = self.timed_pull(
            r,
            ledger,
            tally,
            |c, coll, _| c.objects_of_type(coll, ty, None),
            false,
        );
        if let Ok(page) = page {
            let wrong = page
                .objects
                .iter()
                .filter(|o| o.get("type").and_then(Value::as_str) != Some(ty))
                .count();
            if wrong > 0 {
                tally
                    .violations
                    .push(format!("{wrong} objects not of type {ty}"));
            }
        }

        let label = r.rng.pick(&self.labels).clone();
        let expr = format!("value:{label}");
        let page = self.timed_pull(
            r,
            ledger,
            tally,
            |c, coll, _| c.objects_matching(coll, &expr, None),
            false,
        );
        if let Ok(page) = page {
            tally.attempted += 1;
            if page.objects.is_empty() {
                tally.search_misses += 1;
                tally.failed += 1;
            }
        }

        let query = SearchQuery {
            value_contains: Some(label),
            ..SearchQuery::default()
        };
        // `MispApi::search` answers through its backend, the search
        // index, over the shared store. The consumers call that backend
        // directly: reaching the facade needs the platform, which ingest
        // holds exclusively, and an API server would not wait for it.
        let sent = Instant::now();
        let hits = ledger.time(Layer::Search, "query", || {
            self.index.search_query(&self.store, &query)
        });
        tally
            .pull_ms
            .push((sent, sent.elapsed().as_secs_f64() * 1e3));
        // One request and one check.
        tally.attempted += 2;
        if hits.is_empty() {
            tally.search_misses += 1;
            tally.failed += 1;
        }
        if traced {
            tally.search_queries += 1;
            tally.search_hits += hits.len() as u64;
        }
        ledger.end();
    }

    fn timed_pull(
        &self,
        r: &mut Reader,
        ledger: &mut Ledger,
        tally: &mut Tally,
        request: impl FnOnce(&TaxiiClient, &Uuid, Option<Timestamp>) -> io::Result<Envelope>,
        walk: bool,
    ) -> io::Result<Envelope> {
        let watermark = if walk { r.walk.watermark } else { None };
        let sent = Instant::now();
        let page = ledger.time(Layer::Taxii, "pull", || {
            request(&r.taxii, &self.collection, watermark)
        });
        tally
            .pull_ms
            .push((sent, sent.elapsed().as_secs_f64() * 1e3));
        tally.request(&page);
        if ledger.traced() {
            if let Ok(page) = &page {
                tally.pull_calls += 1;
                tally.pulled_objects += page.objects.len() as u64;
            }
        }
        page
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Store ids of the events an ingest round created.
fn new_event_ids(platform: &Platform, before: usize) -> Vec<u64> {
    platform.eiocs()[before..]
        .iter()
        .filter_map(|e| e.misp_event_id)
        .collect()
}

/// The objects of one event's STIX bundle.
fn bundle_objects(bytes: &[u8]) -> io::Result<Vec<Value>> {
    let doc: Value =
        serde_json::from_slice(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let Some(Value::Array(objects)) = doc.get("objects").cloned() else {
        return Err(io::Error::other("bundle without objects"));
    };
    Ok(objects)
}

/// A hash of an object's whole JSON text, the same on both sides of
/// the TAXII wire.
fn content_key(object: &Value) -> u64 {
    hash_of(&object.to_string())
}

fn hash_of(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn objects_sharing_an_id_keep_their_own_slots() {
        let id = "indicator--00000000-0000-4000-8000-000000000000";
        let first = json!({"id": id, "pattern": "[domain-name:value = 'a.example']"});
        let second = json!({"id": id, "pattern": "[domain-name:value = 'b.example']"});
        let mut catalog = Catalog::default();
        let numbers = catalog.register(&[vec![first.clone()], vec![second.clone()]]);
        assert_eq!(numbers, vec![0, 1]);
        assert_eq!(catalog.duplicate_ids, 1);
        assert_eq!(catalog.slot(&first), Some(0));
        assert_eq!(catalog.slot(&second), Some(1));
        let wire: Value = serde_json::from_str(&second.to_string()).unwrap();
        assert_eq!(catalog.slot(&wire), Some(1));
    }
}
