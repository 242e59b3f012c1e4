//! Reduction: eIoC × inventory → rIoC.
//!
//! Section IV: "Every eIoC is checked against this information
//! [the inventory] and, if there is a match, the rIoC is generated,
//! associated to a specific node, and, finally, sent to the Output
//! Module. If there is no match, the rIoC is not generated, while, if
//! the match is with a common keyword (e.g., Linux), the new rIoC is
//! associated with all nodes."
//!
//! This is the pipeline's hot path: every eIoC — thousands per round —
//! is matched against the whole inventory. Matching goes through the
//! inventory's tokenized [`MatchIndex`](cais_infra::MatchIndex), and
//! the reducer adds two memos on top, because real feeds repeat the
//! same products relentlessly: a CVE-record cache (when a database is
//! attached) and a bounded candidate-list → [`ApplicationMatch`] memo.
//! Both are invalidated by the inventory's generation counter, so a
//! mutated inventory is never served stale matches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cais_cvss::{CveDatabase, CveId, CveRecord};
use cais_infra::{ApplicationMatch, Inventory};
use parking_lot::Mutex;

use crate::heuristics::HeuristicKind;
use crate::ioc::{EnrichedIoc, ReducedIoc};

/// Bound on the candidate-list → match memo. When full, the memo is
/// cleared wholesale (epoch eviction) rather than tracking per-entry
/// recency: candidate lists are tiny strings, the map never exceeds a
/// few hundred kilobytes, and feeds cycle through far fewer distinct
/// product combinations than this.
const MATCH_MEMO_CAP: usize = 8192;

/// Separator for memo keys; never appears in normalized names.
const MEMO_KEY_SEP: char = '\u{1F}';

/// Candidate-list → match memo, valid for one inventory generation.
#[derive(Debug, Default)]
struct MatchMemo {
    generation: u64,
    map: HashMap<String, ApplicationMatch>,
}

/// Shared memo state. Lives behind an [`Arc`] so cloned reducers (the
/// parallel ingest path clones per worker scope) share one cache.
#[derive(Debug, Default)]
struct ReduceCache {
    cve: Mutex<HashMap<CveId, Option<Arc<CveRecord>>>>,
    matches: Mutex<MatchMemo>,
    cve_memo_hits: AtomicU64,
    cve_memo_misses: AtomicU64,
    match_memo_hits: AtomicU64,
    match_memo_misses: AtomicU64,
    match_memo_evictions: AtomicU64,
}

/// A point-in-time snapshot of the reducer's cache effectiveness,
/// surfaced as telemetry gauges (not counters: memo hit/miss splits
/// depend on thread interleaving when a round has several workers, so
/// they are deliberately outside the determinism contract across
/// worker counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceCacheStats {
    /// CVE-record lookups answered from the memo.
    pub cve_memo_hits: u64,
    /// CVE-record lookups that went to the database.
    pub cve_memo_misses: u64,
    /// Candidate lists whose match came from the memo.
    pub match_memo_hits: u64,
    /// Candidate lists that were matched against the index.
    pub match_memo_misses: u64,
    /// Times the match memo hit [`MATCH_MEMO_CAP`] and was cleared.
    pub match_memo_evictions: u64,
    /// Times the inventory's match index has been (re)built.
    pub index_rebuilds: u64,
}

/// The Output Module's reduction step.
#[derive(Clone)]
pub struct Reducer {
    inventory: Arc<Inventory>,
    /// Optional CVE database for resolving a vulnerability eIoC's
    /// affected products. Deployments attach one with
    /// [`Reducer::with_cve_database`]; by default enrichment is
    /// trusted to have merged database knowledge into descriptions.
    cve_db: Option<Arc<CveDatabase>>,
    /// `false` only in the retained linear baseline used by the
    /// equivalence tests and the `reduce_scale` benchmark.
    use_index: bool,
    cache: Arc<ReduceCache>,
}

impl Reducer {
    /// Creates a reducer over the inventory.
    pub fn new(inventory: Arc<Inventory>) -> Self {
        Reducer {
            inventory,
            cve_db: None,
            use_index: true,
            cache: Arc::new(ReduceCache::default()),
        }
    }

    /// Attaches a CVE database: vulnerability eIoCs then resolve their
    /// affected products/OSes from the record (memoized) in addition
    /// to description matching.
    pub fn with_cve_database(mut self, cve_db: Arc<CveDatabase>) -> Self {
        self.cve_db = Some(cve_db);
        self
    }

    /// The pre-index reference reducer: identical candidate semantics,
    /// but matching runs through the linear nodes × applications scan
    /// with no memoization. Exists for the equivalence tests and the
    /// `reduce_scale` benchmark baseline.
    pub fn linear_baseline(inventory: Arc<Inventory>) -> Self {
        Reducer {
            inventory,
            cve_db: None,
            use_index: false,
            cache: Arc::new(ReduceCache::default()),
        }
    }

    /// Drops the memoized CVE records and candidate-list matches.
    /// Called when scores are rewritten out-of-band (a decay rescore):
    /// the memos key on inputs that did not change, but downstream
    /// consumers must not be handed results assembled before the
    /// rescore, so the cheap, safe move is to start cold. Counts as
    /// one match-memo eviction in [`ReduceCacheStats`].
    pub fn invalidate_memos(&self) {
        self.cache.cve.lock().clear();
        let mut memo = self.cache.matches.lock();
        memo.map.clear();
        memo.generation = 0;
        drop(memo);
        self.cache
            .match_memo_evictions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of cache-effectiveness counters for telemetry.
    pub fn stats(&self) -> ReduceCacheStats {
        ReduceCacheStats {
            cve_memo_hits: self.cache.cve_memo_hits.load(Ordering::Relaxed),
            cve_memo_misses: self.cache.cve_memo_misses.load(Ordering::Relaxed),
            match_memo_hits: self.cache.match_memo_hits.load(Ordering::Relaxed),
            match_memo_misses: self.cache.match_memo_misses.load(Ordering::Relaxed),
            match_memo_evictions: self.cache.match_memo_evictions.load(Ordering::Relaxed),
            index_rebuilds: self.inventory.index_rebuilds(),
        }
    }

    /// Applies the paper's three-way rule. Returns `None` when nothing
    /// in the infrastructure is affected — the eIoC stays stored for
    /// future correlation, but nothing reaches the dashboard.
    pub fn reduce(&self, eioc: &EnrichedIoc) -> Option<ReducedIoc> {
        let record = self.cve_record(eioc);
        let candidates = self.candidate_names(eioc, record.as_deref());
        if candidates.is_empty() {
            return None;
        }
        let matched = self.match_candidates(&candidates);
        if !matched.is_match() {
            return None;
        }
        let affected_application = candidates
            .iter()
            .find(|c| {
                let m = if self.use_index {
                    self.inventory.match_application(c)
                } else {
                    self.inventory.match_application_linear(c)
                };
                m.is_match() && !m.is_common_keyword()
            })
            .map(|c| (*c).to_owned());
        let description = eioc
            .composed
            .records
            .iter()
            .find_map(|r| r.description.clone())
            .unwrap_or_else(|| eioc.composed.summary());
        Some(ReducedIoc {
            id: eioc.id,
            cve: eioc.composed.cve().map(str::to_owned),
            description,
            affected_application,
            threat_score: eioc.score(),
            criteria: eioc.threat_score.breakdown().criteria_totals,
            nodes: matched.node_ids().to_vec(),
            via_common_keyword: matched.is_common_keyword(),
            misp_event_id: eioc.misp_event_id,
        })
    }

    /// The names the eIoC can be matched on: affected applications and
    /// operating systems for vulnerability IoCs (from the attached CVE
    /// database, when present), plus any product words appearing in
    /// member descriptions. Deduplicated case-insensitively preserving
    /// first-seen order, and borrowed — nothing is cloned on the hot
    /// path.
    fn candidate_names<'a>(
        &'a self,
        eioc: &'a EnrichedIoc,
        record: Option<&'a CveRecord>,
    ) -> Vec<&'a str> {
        let mut names: Vec<&'a str> = Vec::new();
        if let Some(record) = record {
            for product in &record.affected_products {
                push_unique(&mut names, product);
            }
            for os in &record.affected_os {
                push_unique(&mut names, os);
            }
        }
        // Inventory application names mentioned in descriptions also
        // count (e.g. "exploitation of gitlab instances"). The
        // application list comes pre-sorted and deduplicated from the
        // match index.
        for feed_record in &eioc.composed.records {
            if let Some(description) = &feed_record.description {
                let lower = description.to_ascii_lowercase();
                for app in self.inventory.all_applications() {
                    if lower.contains(app) {
                        push_unique(&mut names, app);
                    }
                }
                for keyword in self.inventory.common_keywords() {
                    if lower.contains(keyword.as_str()) {
                        push_unique(&mut names, keyword);
                    }
                }
            }
        }
        names
    }

    /// Resolves the eIoC's CVE record through the memo. `None` when no
    /// database is attached, the eIoC is not a vulnerability, or the
    /// record is unknown — negative results are memoized too.
    fn cve_record(&self, eioc: &EnrichedIoc) -> Option<Arc<CveRecord>> {
        let db = self.cve_db.as_ref()?;
        if eioc.heuristic != HeuristicKind::Vulnerability {
            return None;
        }
        let id: CveId = eioc.composed.cve()?.parse().ok()?;
        {
            let memo = self.cache.cve.lock();
            if let Some(cached) = memo.get(&id) {
                self.cache.cve_memo_hits.fetch_add(1, Ordering::Relaxed);
                return cached.clone();
            }
        }
        self.cache.cve_memo_misses.fetch_add(1, Ordering::Relaxed);
        let record = db.get(&id).map(|r| Arc::new(r.clone()));
        self.cache.cve.lock().insert(id, record.clone());
        record
    }

    /// Matches a candidate list, answering from the memo when the same
    /// list was seen before under the current inventory generation.
    fn match_candidates(&self, candidates: &[&str]) -> ApplicationMatch {
        if !self.use_index {
            // The baseline replicates the pre-index cost model: no
            // memo, linear scan per candidate.
            return self.inventory.match_any_linear(candidates);
        }
        let key = memo_key(candidates);
        let generation = self.inventory.generation();
        {
            let mut memo = self.cache.matches.lock();
            if memo.generation != generation {
                memo.map.clear();
                memo.generation = generation;
            }
            if let Some(matched) = memo.map.get(&key) {
                self.cache.match_memo_hits.fetch_add(1, Ordering::Relaxed);
                return matched.clone();
            }
        }
        self.cache.match_memo_misses.fetch_add(1, Ordering::Relaxed);
        // Matching runs outside the lock so parallel workers memoize
        // concurrently instead of serializing on index lookups.
        let matched = self.inventory.match_any(candidates);
        let mut memo = self.cache.matches.lock();
        if memo.generation == generation {
            if memo.map.len() >= MATCH_MEMO_CAP {
                memo.map.clear();
                self.cache
                    .match_memo_evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
            memo.map.insert(key, matched.clone());
        }
        matched
    }
}

impl std::fmt::Debug for Reducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reducer")
            .field("nodes", &self.inventory.len())
            .field("has_cve_db", &self.cve_db.is_some())
            .field("use_index", &self.use_index)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Appends a candidate if no case-insensitive equal name is present,
/// preserving first-seen order. Whitespace-only names are dropped —
/// they can never match anything the empty-candidate rule would not.
fn push_unique<'a>(names: &mut Vec<&'a str>, candidate: &'a str) {
    let candidate = candidate.trim();
    if candidate.is_empty() {
        return;
    }
    if !names.iter().any(|n| n.eq_ignore_ascii_case(candidate)) {
        names.push(candidate);
    }
}

fn memo_key(candidates: &[&str]) -> String {
    let mut key = String::with_capacity(candidates.iter().map(|c| c.len() + 1).sum());
    for (i, c) in candidates.iter().enumerate() {
        if i > 0 {
            key.push(MEMO_KEY_SEP);
        }
        key.push_str(c);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvaluationContext;
    use crate::enrich::Enricher;
    use crate::ioc::ComposedIoc;
    use cais_common::{Observable, ObservableKind};
    use cais_feeds::{FeedRecord, ThreatCategory};
    use cais_infra::NodeId;

    fn eioc_with_description(description: &str) -> EnrichedIoc {
        let ctx = EvaluationContext::paper_use_case();
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Cve, "CVE-2017-9805"),
            ThreatCategory::VulnerabilityExploitation,
            "nvd-feed",
            ctx.now.add_days(-100),
        )
        .with_cve("CVE-2017-9805")
        .with_description(description);
        let cioc = ComposedIoc::new(
            ThreatCategory::VulnerabilityExploitation,
            vec![record],
            ctx.now,
        );
        Enricher::new(ctx).enrich(cioc)
    }

    fn reducer() -> Reducer {
        Reducer::new(Arc::new(Inventory::paper_table3()))
    }

    #[test]
    fn apache_match_associates_node4() {
        let eioc = eioc_with_description("remote code execution in apache struts");
        let rioc = reducer().reduce(&eioc).expect("match");
        assert_eq!(rioc.nodes, vec![NodeId(4)]);
        assert!(!rioc.via_common_keyword);
        assert_eq!(rioc.cve.as_deref(), Some("CVE-2017-9805"));
        assert_eq!(rioc.affected_application.as_deref(), Some("apache"));
        assert!((rioc.threat_score - eioc.score()).abs() < 1e-12);
    }

    #[test]
    fn no_match_generates_nothing() {
        let eioc = eioc_with_description("vulnerability in some appliance nobody runs");
        assert!(reducer().reduce(&eioc).is_none());
    }

    #[test]
    fn common_keyword_matches_all_nodes() {
        let eioc = eioc_with_description("privilege escalation affecting all linux kernels");
        let rioc = reducer().reduce(&eioc).expect("common keyword match");
        assert!(rioc.via_common_keyword);
        assert_eq!(rioc.nodes.len(), 4);
        // No single concrete application: the keyword did the matching.
        assert_eq!(rioc.affected_application, None);
    }

    #[test]
    fn gitlab_match_from_description() {
        let eioc = eioc_with_description("mass exploitation of gitlab instances observed");
        let rioc = reducer().reduce(&eioc).expect("match");
        assert_eq!(rioc.nodes, vec![NodeId(2)]);
        assert_eq!(rioc.affected_application.as_deref(), Some("gitlab"));
    }

    #[test]
    fn rioc_is_smaller_than_its_eioc() {
        // The whole point of reduction: the dashboard payload is a
        // fraction of the stored enriched IoC.
        let eioc = eioc_with_description("remote code execution in apache struts");
        let rioc = reducer().reduce(&eioc).expect("match");
        let eioc_size = serde_json::to_string(&eioc).unwrap().len();
        let rioc_size = serde_json::to_string(&rioc).unwrap().len();
        assert!(
            rioc_size * 2 < eioc_size,
            "rIoC ({rioc_size} B) should be well under half the eIoC ({eioc_size} B)"
        );
    }

    #[test]
    fn linear_baseline_agrees_with_indexed() {
        let inventory = Arc::new(Inventory::paper_table3());
        let indexed = Reducer::new(inventory.clone());
        let baseline = Reducer::linear_baseline(inventory);
        for desc in [
            "remote code execution in apache struts",
            "mass exploitation of gitlab instances observed",
            "privilege escalation affecting all linux kernels",
            "vulnerability in some appliance nobody runs",
        ] {
            let eioc = eioc_with_description(desc);
            assert_eq!(indexed.reduce(&eioc), baseline.reduce(&eioc), "{desc}");
        }
    }

    #[test]
    fn repeated_candidates_hit_the_match_memo() {
        let r = reducer();
        let eioc = eioc_with_description("remote code execution in apache struts");
        assert!(r.reduce(&eioc).is_some());
        assert!(r.reduce(&eioc).is_some());
        assert!(r.reduce(&eioc).is_some());
        let stats = r.stats();
        assert_eq!(stats.match_memo_misses, 1);
        assert_eq!(stats.match_memo_hits, 2);
        assert_eq!(stats.index_rebuilds, 1);
        assert_eq!(stats.match_memo_evictions, 0);
        // No database attached: the CVE memo never engages.
        assert_eq!(stats.cve_memo_hits + stats.cve_memo_misses, 0);
    }

    #[test]
    fn cve_database_supplies_candidates_and_is_memoized() {
        // A record naming a product that never appears in the
        // description text: only the database path can match it.
        let mut db = CveDatabase::new();
        db.insert(CveRecord {
            id: "CVE-2020-0001".parse().unwrap(),
            description: "file-sharing platform flaw".to_owned(),
            cvss: None,
            published: cais_common::Timestamp::from_ymd_hms(2020, 1, 1, 0, 0, 0),
            affected_products: vec!["owncloud".to_owned()],
            affected_os: vec![],
        });
        let inventory = Arc::new(Inventory::paper_table3());
        let r = Reducer::new(inventory).with_cve_database(Arc::new(db));

        let ctx = EvaluationContext::paper_use_case();
        let record = FeedRecord::new(
            Observable::new(ObservableKind::Cve, "CVE-2020-0001"),
            ThreatCategory::VulnerabilityExploitation,
            "nvd-feed",
            ctx.now.add_days(-10),
        )
        .with_cve("CVE-2020-0001")
        .with_description("exploit kit targets unnamed file-sharing platforms");
        let cioc = ComposedIoc::new(
            ThreatCategory::VulnerabilityExploitation,
            vec![record],
            ctx.now,
        );
        let eioc = Enricher::new(ctx).enrich(cioc);

        let rioc = r.reduce(&eioc).expect("database product matches owncloud");
        assert_eq!(rioc.nodes, vec![NodeId(1)]);
        assert_eq!(rioc.affected_application.as_deref(), Some("owncloud"));

        let _ = r.reduce(&eioc);
        let stats = r.stats();
        assert_eq!(stats.cve_memo_misses, 1);
        assert_eq!(stats.cve_memo_hits, 1);
    }

    #[test]
    fn candidate_names_dedup_record_and_description() {
        // "apache struts" arrives via both the CVE record (mixed case)
        // and the description scan; the candidate list keeps one copy,
        // first-seen (record) order.
        let mut db = CveDatabase::new();
        db.insert(CveRecord {
            id: "CVE-2017-9805".parse().unwrap(),
            description: "struts rce".to_owned(),
            cvss: None,
            published: cais_common::Timestamp::from_ymd_hms(2017, 9, 13, 0, 0, 0),
            affected_products: vec!["Apache Struts".to_owned(), "apache".to_owned()],
            affected_os: vec![],
        });
        let inventory = Arc::new(Inventory::paper_table3());
        let r = Reducer::new(inventory).with_cve_database(Arc::new(db));
        let eioc = eioc_with_description("remote code execution in apache struts");
        let record = r.cve_record(&eioc);
        let names = r.candidate_names(&eioc, record.as_deref());
        let lowered: Vec<String> = names.iter().map(|n| n.to_ascii_lowercase()).collect();
        let mut deduped = lowered.clone();
        deduped.dedup();
        let mut sorted = lowered.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(lowered.len(), sorted.len(), "duplicates in {lowered:?}");
        // First-seen order: record products lead.
        assert_eq!(names[0], "Apache Struts");
        assert!(lowered.contains(&"apache".to_owned()));
    }

    #[test]
    fn memo_invalidates_on_inventory_mutation() {
        let mut inventory = Inventory::paper_table3();
        let eioc = eioc_with_description("mass exploitation of gitlab instances observed");

        let r = Reducer::new(Arc::new(inventory.clone()));
        let before = r.reduce(&eioc).expect("gitlab matches node 2");
        assert_eq!(before.nodes, vec![NodeId(2)]);

        // Same inventory, mutated: a second node now runs gitlab.
        assert!(inventory.install_application(NodeId(3), "gitlab"));
        let r = Reducer::new(Arc::new(inventory));
        let after = r.reduce(&eioc).expect("gitlab matches nodes 2 and 3");
        assert_eq!(after.nodes, vec![NodeId(2), NodeId(3)]);
    }
}
