//! The OSINT Data Collector: deduplication → aggregation by threat
//! category → pairwise correlation → composed IoCs.
//!
//! Section III-A1: "the component aggregates the security events by
//! threat category, resulting in sets of events regarding a same
//! category. In addition, within each set it looks for interconnections
//! between events, correlating them by the establishment of connections
//! of pair of events. The result of this correlation is sub-sets of
//! events. Lastly, from these subsets are generated cIoCs, in which a
//! single (composed) IoC is created from the correlated events."

use std::collections::HashMap;

use cais_common::{ObservableKind, Timestamp};
use cais_feeds::{FeedRecord, ThreatCategory};

use super::dedup::{DedupStats, ShardedDeduplicator};
use crate::ioc::ComposedIoc;

/// Default shard count of the collector's deduplicator: enough
/// partitions to keep 4–8 ingest workers busy without cross-shard
/// contention.
pub const DEFAULT_DEDUP_SHARDS: usize = 8;

/// A minimal union-find over record indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// The correlation handles of one record: two records sharing any
/// handle are considered interconnected.
fn correlation_handles(record: &FeedRecord) -> Vec<String> {
    let mut handles = Vec::new();
    if let Some(cve) = &record.cve {
        handles.push(format!("cve:{}", cve.to_ascii_uppercase()));
    }
    // The registered (apex) domain connects a domain, the host of a URL
    // and the domain of an e-mail address.
    if let Some(apex) = apex_domain(record) {
        handles.push(format!("apex:{apex}"));
    }
    // A shared malware-family word in the description connects records
    // describing the same campaign.
    if let Some(description) = &record.description {
        if let Some(family) = description.split_whitespace().next() {
            let family = family.to_ascii_lowercase();
            if family.len() >= 4 && family.chars().all(char::is_alphanumeric) {
                handles.push(format!("family:{family}"));
            }
        }
    }
    handles
}

/// Extracts the apex (registered) domain of domain/URL/e-mail values:
/// the last two DNS labels.
fn apex_domain(record: &FeedRecord) -> Option<String> {
    let host = match record.observable.kind() {
        ObservableKind::Domain => record.observable.value().to_owned(),
        ObservableKind::Email => record.observable.value().split_once('@')?.1.to_owned(),
        ObservableKind::Url => {
            let value = record.observable.value();
            let rest = value.split_once("://")?.1;
            let host = rest.split(['/', ':', '?']).next()?;
            host.to_owned()
        }
        _ => return None,
    };
    let labels: Vec<&str> = host.split('.').collect();
    if labels.len() < 2 {
        return None;
    }
    Some(labels[labels.len() - 2..].join("."))
}

/// Aggregates already-deduplicated records into composed IoCs: one cIoC
/// per correlated sub-set within each threat category.
pub fn aggregate_into_ciocs(records: Vec<FeedRecord>, now: Timestamp) -> Vec<ComposedIoc> {
    // Aggregation by threat category.
    let mut by_category: HashMap<ThreatCategory, Vec<FeedRecord>> = HashMap::new();
    for record in records {
        by_category.entry(record.category).or_default().push(record);
    }

    let mut ciocs = Vec::new();
    let mut categories: Vec<ThreatCategory> = by_category.keys().copied().collect();
    categories.sort_unstable();
    for category in categories {
        let set = by_category.remove(&category).expect("key present");
        // Pairwise correlation via shared handles.
        let mut uf = UnionFind::new(set.len());
        let mut by_handle: HashMap<String, usize> = HashMap::new();
        for (index, record) in set.iter().enumerate() {
            for handle in correlation_handles(record) {
                match by_handle.get(&handle) {
                    Some(&first) => uf.union(first, index),
                    None => {
                        by_handle.insert(handle, index);
                    }
                }
            }
        }
        // Sub-sets → cIoCs.
        let mut clusters: HashMap<usize, Vec<FeedRecord>> = HashMap::new();
        for (index, record) in set.into_iter().enumerate() {
            clusters.entry(uf.find(index)).or_default().push(record);
        }
        let mut roots: Vec<usize> = clusters.keys().copied().collect();
        roots.sort_unstable();
        for root in roots {
            let members = clusters.remove(&root).expect("key present");
            ciocs.push(ComposedIoc::new(category, members, now));
        }
    }
    ciocs
}

/// The stateful OSINT collector: a persistent sharded deduplicator in
/// front of the aggregator. Rounds of any worker count share the same
/// dedup state, so mixing them never re-admits a duplicate.
#[derive(Debug)]
pub struct OsintCollector {
    dedup: ShardedDeduplicator,
}

impl Default for OsintCollector {
    fn default() -> Self {
        OsintCollector::new()
    }
}

impl OsintCollector {
    /// Creates a collector with empty dedup state over
    /// [`DEFAULT_DEDUP_SHARDS`] shards.
    pub fn new() -> Self {
        OsintCollector::with_shards(DEFAULT_DEDUP_SHARDS)
    }

    /// Creates a collector whose deduplicator has `shards` partitions.
    pub fn with_shards(shards: usize) -> Self {
        OsintCollector {
            dedup: ShardedDeduplicator::new(shards),
        }
    }

    /// Ingests a batch of normalized feed records, returning the
    /// composed IoCs of the *new* (non-duplicate) ones.
    pub fn ingest(&mut self, records: Vec<FeedRecord>, now: Timestamp) -> Vec<ComposedIoc> {
        let fresh = self.dedup_batch(records, 1);
        if fresh.is_empty() {
            return Vec::new();
        }
        aggregate_into_ciocs(fresh, now)
    }

    /// Runs only the deduplication stage, keeping first occurrences in
    /// input order. Up to `workers` scoped threads split the shards
    /// between them; with `workers <= 1` it runs inline. The output is
    /// the same for every worker count.
    pub fn dedup_batch(&mut self, records: Vec<FeedRecord>, workers: usize) -> Vec<FeedRecord> {
        self.dedup.filter_batch_parallel(records, workers)
    }

    /// Deduplication counters since construction, aggregated across
    /// shards.
    pub fn dedup_stats(&self) -> DedupStats {
        self.dedup.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_common::Observable;

    fn rec(kind: ObservableKind, value: &str, category: ThreatCategory) -> FeedRecord {
        FeedRecord::new(
            Observable::new(kind, value),
            category,
            "feed",
            Timestamp::EPOCH,
        )
    }

    #[test]
    fn categories_do_not_mix() {
        let ciocs = aggregate_into_ciocs(
            vec![
                rec(
                    ObservableKind::Domain,
                    "a.example",
                    ThreatCategory::MalwareDomain,
                ),
                rec(
                    ObservableKind::Domain,
                    "b.example",
                    ThreatCategory::Phishing,
                ),
            ],
            Timestamp::EPOCH,
        );
        assert_eq!(ciocs.len(), 2);
        assert_ne!(ciocs[0].category, ciocs[1].category);
    }

    #[test]
    fn shared_apex_domain_correlates() {
        let ciocs = aggregate_into_ciocs(
            vec![
                rec(
                    ObservableKind::Domain,
                    "c2.evil.example",
                    ThreatCategory::MalwareDomain,
                ),
                rec(
                    ObservableKind::Domain,
                    "drop.evil.example",
                    ThreatCategory::MalwareDomain,
                ),
                rec(
                    ObservableKind::Domain,
                    "unrelated.test",
                    ThreatCategory::MalwareDomain,
                ),
            ],
            Timestamp::EPOCH,
        );
        assert_eq!(ciocs.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = ciocs.iter().map(|c| c.records.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 2]);
    }

    #[test]
    fn url_and_domain_share_apex() {
        let ciocs = aggregate_into_ciocs(
            vec![
                rec(
                    ObservableKind::Url,
                    "http://pay.evil.example/login",
                    ThreatCategory::Phishing,
                ),
                rec(
                    ObservableKind::Domain,
                    "evil.example",
                    ThreatCategory::Phishing,
                ),
            ],
            Timestamp::EPOCH,
        );
        assert_eq!(ciocs.len(), 1);
        assert_eq!(ciocs[0].records.len(), 2);
    }

    #[test]
    fn shared_cve_correlates_disjoint_kinds() {
        let mut ip = rec(
            ObservableKind::Ipv4,
            "203.0.113.9",
            ThreatCategory::VulnerabilityExploitation,
        );
        ip.cve = Some("CVE-2017-9805".into());
        let mut cve = rec(
            ObservableKind::Cve,
            "CVE-2017-9805",
            ThreatCategory::VulnerabilityExploitation,
        );
        cve.cve = Some("CVE-2017-9805".into());
        let ciocs = aggregate_into_ciocs(vec![ip, cve], Timestamp::EPOCH);
        assert_eq!(ciocs.len(), 1);
        assert_eq!(ciocs[0].cve(), Some("CVE-2017-9805"));
    }

    #[test]
    fn family_description_correlates_ips() {
        let mut a = rec(
            ObservableKind::Ipv4,
            "203.0.113.9",
            ThreatCategory::CommandAndControl,
        );
        a.description = Some("emotet tier-1 node".into());
        let mut b = rec(
            ObservableKind::Ipv4,
            "198.51.100.7",
            ThreatCategory::CommandAndControl,
        );
        b.description = Some("emotet tier-2 node".into());
        let c = rec(
            ObservableKind::Ipv4,
            "192.0.2.55",
            ThreatCategory::CommandAndControl,
        );
        let ciocs = aggregate_into_ciocs(vec![a, b, c], Timestamp::EPOCH);
        assert_eq!(ciocs.len(), 2);
    }

    #[test]
    fn collector_suppresses_refetch() {
        let mut collector = OsintCollector::new();
        let batch = vec![rec(
            ObservableKind::Domain,
            "evil.example",
            ThreatCategory::MalwareDomain,
        )];
        let first = collector.ingest(batch.clone(), Timestamp::EPOCH);
        assert_eq!(first.len(), 1);
        let second = collector.ingest(batch, Timestamp::EPOCH);
        assert!(second.is_empty());
        assert_eq!(collector.dedup_stats().dropped, 1);
    }

    #[test]
    fn aggregation_is_deterministic() {
        let records = || {
            vec![
                rec(
                    ObservableKind::Domain,
                    "a.evil.example",
                    ThreatCategory::MalwareDomain,
                ),
                rec(
                    ObservableKind::Domain,
                    "b.evil.example",
                    ThreatCategory::MalwareDomain,
                ),
                rec(
                    ObservableKind::Domain,
                    "solo.test",
                    ThreatCategory::MalwareDomain,
                ),
            ]
        };
        let a = aggregate_into_ciocs(records(), Timestamp::EPOCH);
        let b = aggregate_into_ciocs(records(), Timestamp::EPOCH);
        let ids_a: Vec<_> = a.iter().map(|c| c.id).collect();
        let ids_b: Vec<_> = b.iter().map(|c| c.id).collect();
        assert_eq!(ids_a, ids_b);
    }
}
