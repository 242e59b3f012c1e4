//! The TAXII server: collection storage served over framed TCP.
//!
//! Pull-heavy federations re-request the same pages over and over; the
//! server therefore keeps a bounded byte cache of serialized
//! `GetObjects` responses, keyed by the collection's write-version, so
//! repeated pulls of an unchanged collection replay stored bytes
//! instead of re-filtering and re-serializing the page (see DESIGN.md
//! §12).

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cais_common::frame::TraceHeader;
use cais_common::serve::{
    self, FrameService, NoServeMetrics, Outbox, ServeConfig, ServeHandle, ServeMetrics,
};
use cais_common::{Timestamp, Uuid};
use cais_telemetry::{Counter, Registry, TraceContext, Tracer};
use parking_lot::{Mutex, RwLock};

use crate::collection::{Collection, Envelope};
use crate::protocol::{Request, Response};

/// Maximum page size the server will return.
const MAX_PAGE: usize = 1_000;

/// Maximum number of cached page responses; the cache is cleared
/// wholesale when full (entries are version-keyed, so a full cache is
/// mostly superseded garbage anyway).
const PAGE_CACHE_CAP: usize = 512;

#[derive(Debug, Default)]
struct State {
    collections: Vec<Collection>,
    /// Per-collection write version: bumped on every successful
    /// `AddObjects`, so cached pages of older versions can never be
    /// served for newer content.
    versions: HashMap<Uuid, u64>,
}

/// The identity of one cacheable page response.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PageKey {
    collection: Uuid,
    version: u64,
    added_after: Option<Timestamp>,
    object_type: Option<String>,
    /// The raw `match` expression string. Keyed on the text, not the
    /// parsed query: distinct spellings of the same query cache
    /// separately, which is harmless, while equal strings always
    /// filter identically.
    match_expr: Option<String>,
    limit: usize,
}

#[derive(Clone)]
struct PageMetrics {
    hits: Counter,
    misses: Counter,
}

#[derive(Default)]
struct PageCache {
    entries: Mutex<HashMap<PageKey, Arc<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: RwLock<Option<PageMetrics>>,
}

/// A TAXII-like server over framed TCP.
#[derive(Clone)]
pub struct TaxiiServer {
    title: String,
    state: Arc<RwLock<State>>,
    cache: Arc<PageCache>,
    tracer: Arc<RwLock<Option<Tracer>>>,
}

impl std::fmt::Debug for TaxiiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaxiiServer")
            .field("title", &self.title)
            .field("collections", &self.state.read().collections.len())
            .finish()
    }
}

impl TaxiiServer {
    /// Creates a server with no collections.
    pub fn new(title: impl Into<String>) -> Self {
        TaxiiServer {
            title: title.into(),
            state: Arc::new(RwLock::new(State::default())),
            cache: Arc::new(PageCache::default()),
            tracer: Arc::new(RwLock::new(None)),
        }
    }

    /// Attaches a causal tracer: every request records a `taxii` span.
    /// `GetObjects` pages chain onto the trace linked to the first
    /// served object's event UUID (set by the store/share seam), so a
    /// pull of a freshly ingested event joins its ingress span tree;
    /// requests arriving with a frame trace header become children of
    /// the sender's span instead.
    pub fn set_tracer(&self, tracer: &Tracer) {
        *self.tracer.write() = Some(tracer.clone());
    }

    fn trace_handle(&self) -> Option<Tracer> {
        self.tracer.read().clone()
    }

    /// Registers a collection, returning its id.
    pub fn add_collection(&mut self, collection: Collection) -> Uuid {
        let id = collection.id;
        let mut state = self.state.write();
        state.versions.insert(id, 0);
        state.collections.push(collection);
        id
    }

    /// Publishes `taxii_page_cache_{hits,misses}_total` counters on the
    /// registry, pre-loaded with whatever the cache has already served.
    pub fn instrument(&self, registry: &Registry) {
        let metrics = PageMetrics {
            hits: registry.counter("taxii_page_cache_hits_total"),
            misses: registry.counter("taxii_page_cache_misses_total"),
        };
        metrics.hits.add(self.cache.hits.load(Ordering::Relaxed));
        metrics
            .misses
            .add(self.cache.misses.load(Ordering::Relaxed));
        *self.cache.metrics.write() = Some(metrics);
    }

    /// Page-cache accounting so far, as `(hits, misses)`.
    pub fn page_cache_stats(&self) -> (u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.misses.load(Ordering::Relaxed),
        )
    }

    /// Handles one request against the in-memory state. This is the
    /// whole service logic; the TCP loop just frames it.
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Discovery => Response::Discovery {
                title: self.title.clone(),
                api_version: "cais-taxii/1".into(),
            },
            Request::Collections => {
                let collections = self
                    .state
                    .read()
                    .collections
                    .iter()
                    .map(|c| Collection {
                        objects: Vec::new(),
                        ..c.clone()
                    })
                    .collect();
                Response::Collections { collections }
            }
            Request::GetObjects {
                collection,
                added_after,
                object_type,
                match_expr,
                limit,
            } => {
                let query = match parse_match(match_expr.as_deref()) {
                    Ok(query) => query,
                    Err(response) => return response,
                };
                let state = self.state.read();
                let Some(found) = state.collections.iter().find(|c| c.id == collection) else {
                    return Response::Error {
                        message: format!("no such collection {collection}"),
                    };
                };
                if !found.can_read {
                    return Response::Error {
                        message: "collection is not readable".into(),
                    };
                }
                let envelope: Envelope = found.page_matching(
                    added_after,
                    limit.clamp(1, MAX_PAGE),
                    object_type.as_deref(),
                    query.as_ref(),
                );
                Response::Objects { envelope }
            }
            Request::AddObjects {
                collection,
                objects,
            } => {
                let mut state = self.state.write();
                let Some(index) = state.collections.iter().position(|c| c.id == collection) else {
                    return Response::Error {
                        message: format!("no such collection {collection}"),
                    };
                };
                if !state.collections[index].can_write {
                    return Response::Error {
                        message: "collection is not writable".into(),
                    };
                }
                let stored = objects.len();
                state.collections[index].add_objects(objects, Timestamp::now());
                *state.versions.entry(collection).or_insert(0) += 1;
                Response::Accepted { stored }
            }
        }
    }

    /// The serialized response for one `GetObjects` request, served
    /// from the page cache when the collection's version still matches.
    /// Error responses (unknown collection, unreadable collection) are
    /// never cached.
    fn get_objects_bytes(
        &self,
        collection: Uuid,
        added_after: Option<Timestamp>,
        object_type: Option<String>,
        match_expr: Option<String>,
        limit: usize,
        wire: Option<TraceContext>,
    ) -> io::Result<Arc<Vec<u8>>> {
        let limit = limit.clamp(1, MAX_PAGE);
        // Malformed match expressions answer uncached, like the other
        // error responses.
        let query = match parse_match(match_expr.as_deref()) {
            Ok(query) => query,
            Err(response) => return encode(&response).map(Arc::new),
        };
        let tracer = self.trace_handle();
        // Version lookup, cache probe, and (on a miss) envelope build
        // all happen under one read guard so a concurrent AddObjects
        // cannot slip a newer page under an older version key.
        let response = {
            let state = self.state.read();
            let Some(found) = state.collections.iter().find(|c| c.id == collection) else {
                return encode(&Response::Error {
                    message: format!("no such collection {collection}"),
                })
                .map(Arc::new);
            };
            if !found.can_read {
                return encode(&Response::Error {
                    message: "collection is not readable".into(),
                })
                .map(Arc::new);
            }
            let version = state.versions.get(&collection).copied().unwrap_or(0);
            let key = PageKey {
                collection,
                version,
                added_after,
                object_type: object_type.clone(),
                match_expr,
                limit,
            };
            if let Some(bytes) = self.cache.entries.lock().get(&key) {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(metrics) = self.cache.metrics.read().as_ref() {
                    metrics.hits.inc();
                }
                if let Some(t) = tracer.as_ref() {
                    let mut span = t.child_of(wire, "taxii", "taxii_get_objects");
                    span.field("cache", "hit");
                }
                return Ok(bytes.clone());
            }
            let envelope =
                found.page_matching(added_after, limit, object_type.as_deref(), query.as_ref());
            // Chain onto the ingress trace of the first served event
            // (linked under its UUID by the store/share seam); fall
            // back to the request's wire context.
            let parent = tracer
                .as_ref()
                .and_then(|t| {
                    envelope.objects.iter().find_map(|object| {
                        object
                            .get("uuid")
                            .and_then(|v| v.as_str())
                            .and_then(|uuid| t.linked(uuid))
                    })
                })
                .or(wire);
            (key, parent, Response::Objects { envelope })
        };
        let (key, parent, response) = response;
        let mut span = tracer
            .as_ref()
            .map(|t| t.child_of(parent, "taxii", "taxii_get_objects"));
        if let Some(span) = span.as_mut() {
            span.field("cache", "miss");
        }
        let bytes = Arc::new(encode(&response)?);
        if let Some(span) = span.as_mut() {
            span.field("bytes", bytes.len());
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = self.cache.metrics.read().as_ref() {
            metrics.misses.inc();
        }
        let mut entries = self.cache.entries.lock();
        if entries.len() >= PAGE_CACHE_CAP {
            entries.clear();
        }
        entries.insert(key, bytes.clone());
        Ok(bytes)
    }

    /// Parses one request frame and produces the serialized response,
    /// routing `GetObjects` through the page cache. `wire` is the trace
    /// context carried in the request's frame header, if any.
    fn response_bytes(&self, frame: &[u8], wire: Option<TraceContext>) -> io::Result<Arc<Vec<u8>>> {
        match serde_json::from_slice::<Request>(frame) {
            Ok(Request::GetObjects {
                collection,
                added_after,
                object_type,
                match_expr,
                limit,
            }) => self.get_objects_bytes(
                collection,
                added_after,
                object_type,
                match_expr,
                limit,
                wire,
            ),
            Ok(request) => {
                let mut span = self
                    .trace_handle()
                    .map(|t| t.child_of(wire, "taxii", "taxii_request"));
                if let Some(span) = span.as_mut() {
                    span.field("verb", request.verb());
                }
                encode(&self.handle(request)).map(Arc::new)
            }
            Err(err) => encode(&Response::Error {
                message: format!("malformed request: {err}"),
            })
            .map(Arc::new),
        }
    }

    /// Binds a listener and serves requests on the multiplexed core
    /// ([`cais_common::serve`]) for the life of the process, returning
    /// the bound address. Use [`TaxiiServer::serve_on_core`] for
    /// explicit core configuration, `serve_*` metrics and graceful
    /// shutdown.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve(&self, addr: &str) -> io::Result<SocketAddr> {
        let handle = self.serve_on_core(addr, ServeConfig::default(), NoServeMetrics)?;
        let local_addr = handle.local_addr();
        // Dropping the handle leaves the core's threads detached, which
        // preserves this method's historical serve-forever contract.
        drop(handle);
        Ok(local_addr)
    }

    /// [`TaxiiServer::serve`] on an explicitly configured serving core,
    /// returning the [`ServeHandle`] for counters and graceful
    /// shutdown. Pair with
    /// `cais_telemetry::RegistryServeMetrics::new(&registry, "taxii")`
    /// to surface the `serve_*` metric family.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve_on_core<M: ServeMetrics>(
        &self,
        addr: &str,
        config: ServeConfig,
        metrics: M,
    ) -> io::Result<ServeHandle> {
        serve::serve(addr, config, self.clone(), metrics)
    }
}

/// The TAXII request/response protocol: each inbound frame is one
/// request, each reply is the (possibly page-cached) serialized
/// response, written untagged. A clone of the server is the service,
/// so it can also be served wrapped — e.g. in
/// [`cais_common::resilience::FaultService`] for chaos runs — or on
/// another runner.
impl FrameService for TaxiiServer {
    type Conn = ();

    fn on_connect(&self, _peer: SocketAddr) -> Self::Conn {}

    fn on_frame(
        &self,
        _conn: &mut Self::Conn,
        header: Option<TraceHeader>,
        payload: Vec<u8>,
        out: &mut Outbox,
    ) {
        let wire = header.map(TraceContext::from_header);
        match self.response_bytes(&payload, wire) {
            // Cached pages are an `Arc` already — queue them zero-copy.
            Ok(bytes) => out.push_shared(bytes),
            Err(_) => out.close(),
        }
    }
}

fn encode(response: &Response) -> io::Result<Vec<u8>> {
    serde_json::to_vec(response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Parses a request's optional `match` expression; malformed input
/// becomes the error response to return instead of a page.
fn parse_match(expr: Option<&str>) -> Result<Option<cais_search::Query>, Response> {
    match expr {
        None => Ok(None),
        Some(text) => match cais_search::Query::parse(text) {
            Ok(query) => Ok(Some(query)),
            Err(err) => Err(Response::Error {
                message: format!("malformed match expression: {err}"),
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with_collection() -> (TaxiiServer, Uuid) {
        let mut server = TaxiiServer::new("test server");
        let id = server.add_collection(Collection::new("iocs", "indicators"));
        (server, id)
    }

    #[test]
    fn discovery_and_collections() {
        let (server, _) = server_with_collection();
        match server.handle(Request::Discovery) {
            Response::Discovery { title, .. } => assert_eq!(title, "test server"),
            other => panic!("unexpected {other:?}"),
        }
        match server.handle(Request::Collections) {
            Response::Collections { collections } => {
                assert_eq!(collections.len(), 1);
                assert!(collections[0].objects.is_empty()); // omitted
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn add_then_get() {
        let (server, id) = server_with_collection();
        let response = server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({"type": "vulnerability"})],
        });
        assert_eq!(response, Response::Accepted { stored: 1 });
        match server.handle(Request::GetObjects {
            collection: id,
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 10,
        }) {
            Response::Objects { envelope } => assert_eq!(envelope.objects.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_collection_errors() {
        let (server, _) = server_with_collection();
        let response = server.handle(Request::GetObjects {
            collection: Uuid::new_v4(),
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 10,
        });
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn write_protection() {
        let mut server = TaxiiServer::new("s");
        let id = server.add_collection(Collection::new("ro", "read only").read_only());
        let response = server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({})],
        });
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn limit_is_clamped() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: (0..5).map(|i| serde_json::json!({ "i": i })).collect(),
        });
        match server.handle(Request::GetObjects {
            collection: id,
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 0, // clamped up to 1
        }) {
            Response::Objects { envelope } => assert_eq!(envelope.objects.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn page_cache_replays_bytes_until_the_collection_changes() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: (0..3).map(|i| serde_json::json!({ "i": i })).collect(),
        });
        let first = server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        let second = server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(server.page_cache_stats(), (1, 1));

        // A write bumps the collection version: fresh bytes.
        server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({ "i": 99 })],
        });
        let third = server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(server.page_cache_stats(), (1, 2));
    }

    #[test]
    fn cached_bytes_match_direct_handling() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: (0..4).map(|i| serde_json::json!({ "i": i })).collect(),
        });
        let direct = serde_json::to_vec(&server.handle(Request::GetObjects {
            collection: id,
            added_after: None,
            object_type: None,
            match_expr: None,
            limit: 2,
        }))
        .unwrap();
        // Miss, then hit: both must equal the uncached serialization.
        for _ in 0..2 {
            let cached = server
                .get_objects_bytes(id, None, None, None, 2, None)
                .unwrap();
            assert_eq!(*cached, direct);
        }
    }

    #[test]
    fn error_responses_are_not_cached() {
        let (server, _) = server_with_collection();
        let missing = Uuid::new_v4();
        server
            .get_objects_bytes(missing, None, None, None, 10, None)
            .unwrap();
        server
            .get_objects_bytes(missing, None, None, None, 10, None)
            .unwrap();
        assert_eq!(server.page_cache_stats(), (0, 0));
    }

    #[test]
    fn match_filtered_pages_are_byte_identical_to_direct_filtering() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: vec![
                serde_json::json!({"type": "indicator", "name": "evil.example"}),
                serde_json::json!({"type": "indicator", "name": "benign.example"}),
                serde_json::json!({"type": "malware", "name": "evil.example"}),
            ],
        });
        let expr = "type:indicator AND value:evil";
        // The unindexed reference: filter by hand with the same oracle.
        let query = cais_search::Query::parse(expr).unwrap();
        let reference = {
            let state = server.state.read();
            let found = state.collections.iter().find(|c| c.id == id).unwrap();
            let objects: Vec<serde_json::Value> = found
                .objects
                .iter()
                .filter(|o| cais_search::stix_matches(&query, &o.object))
                .map(|o| o.object.clone())
                .collect();
            assert_eq!(objects.len(), 1);
            serde_json::to_vec(&Response::Objects {
                envelope: Envelope {
                    objects,
                    more: false,
                    next: None,
                },
            })
            .unwrap()
        };
        // Cache miss, then hit: byte-identical to the reference both
        // times.
        for _ in 0..2 {
            let served = server
                .get_objects_bytes(id, None, None, Some(expr.to_owned()), 10, None)
                .unwrap();
            assert_eq!(*served, reference);
        }
        assert_eq!(server.page_cache_stats(), (1, 1));
    }

    #[test]
    fn malformed_match_expressions_error_uncached() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({"type": "indicator"})],
        });
        for _ in 0..2 {
            let bytes = server
                .get_objects_bytes(id, None, None, Some("(((".to_owned()), 10, None)
                .unwrap();
            let response: Response = serde_json::from_slice(&bytes).unwrap();
            assert!(matches!(response, Response::Error { .. }));
        }
        assert_eq!(server.page_cache_stats(), (0, 0));
        // handle() rejects the same way.
        let response = server.handle(Request::GetObjects {
            collection: id,
            added_after: None,
            object_type: None,
            match_expr: Some("(((".into()),
            limit: 10,
        });
        assert!(matches!(response, Response::Error { .. }));
    }

    #[test]
    fn instrument_surfaces_page_cache_counters() {
        let (server, id) = server_with_collection();
        server.handle(Request::AddObjects {
            collection: id,
            objects: vec![serde_json::json!({ "i": 0 })],
        });
        server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        let registry = Registry::new();
        server.instrument(&registry); // pre-loads the earlier miss
        server
            .get_objects_bytes(id, None, None, None, 10, None)
            .unwrap();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["taxii_page_cache_hits_total"], 1);
        assert_eq!(snapshot.counters["taxii_page_cache_misses_total"], 1);
    }
}
