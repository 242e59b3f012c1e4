//! The deduplicator of Section III-A1: "compares the data received with
//! the data already stored …, looking for security events equal to the
//! received ones, and erases the duplicated ones".

use std::collections::HashSet;

use cais_feeds::FeedRecord;
use serde::{Deserialize, Serialize};

/// Counters describing a deduplication run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DedupStats {
    /// Records examined.
    pub seen: usize,
    /// Records passed through (first occurrences).
    pub kept: usize,
    /// Records dropped as duplicates.
    pub dropped: usize,
}

impl DedupStats {
    /// The fraction of input that was duplicated, in `[0, 1]`.
    pub fn duplicate_ratio(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.dropped as f64 / self.seen as f64
        }
    }
}

/// A stateful, streaming deduplicator keyed on
/// [`FeedRecord::dedup_key`] (threat category + normalized observable),
/// so the same value reported by two feeds — or twice by one feed —
/// passes only once.
#[derive(Debug, Default)]
pub struct Deduplicator {
    seen: HashSet<String>,
    stats: DedupStats,
}

impl Deduplicator {
    /// Creates an empty deduplicator.
    pub fn new() -> Self {
        Deduplicator::default()
    }

    /// Offers one record; returns `true` when it is new (kept).
    pub fn offer(&mut self, record: &FeedRecord) -> bool {
        self.stats.seen += 1;
        if self.seen.insert(record.dedup_key()) {
            self.stats.kept += 1;
            true
        } else {
            self.stats.dropped += 1;
            false
        }
    }

    /// Filters a batch, keeping first occurrences in order.
    pub fn filter_batch(&mut self, records: Vec<FeedRecord>) -> Vec<FeedRecord> {
        records
            .into_iter()
            .filter(|record| self.offer(record))
            .collect()
    }

    /// The running counters.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Number of distinct keys on record.
    pub fn distinct(&self) -> usize {
        self.seen.len()
    }
}

/// A stable FNV-1a hash of the dedup key, so a key always lands on the
/// same shard regardless of process, run or `RandomState` seeding.
fn shard_hash(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A [`Deduplicator`] partitioned into independent shards keyed on the
/// hash of [`FeedRecord::dedup_key`].
///
/// Because a given key always hashes to the same shard, per-shard
/// first-occurrence semantics equal global first-occurrence semantics:
/// filtering a batch through the shards — serially or with one worker
/// per shard group, no cross-shard locking — keeps exactly the records
/// a single [`Deduplicator`] would keep. [`filter_batch`] preserves
/// input order; [`filter_batch_parallel`] restores it by tagging each
/// record with its input index before fanning out.
///
/// [`filter_batch`]: ShardedDeduplicator::filter_batch
/// [`filter_batch_parallel`]: ShardedDeduplicator::filter_batch_parallel
#[derive(Debug)]
pub struct ShardedDeduplicator {
    shards: Vec<Deduplicator>,
}

impl ShardedDeduplicator {
    /// Creates a deduplicator with `shards` independent partitions
    /// (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        ShardedDeduplicator {
            shards: (0..shards.max(1)).map(|_| Deduplicator::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a record partitions to.
    pub fn shard_of(&self, record: &FeedRecord) -> usize {
        (shard_hash(&record.dedup_key()) % self.shards.len() as u64) as usize
    }

    /// Offers one record to its shard; returns `true` when it is new.
    pub fn offer(&mut self, record: &FeedRecord) -> bool {
        let shard = self.shard_of(record);
        self.shards[shard].offer(record)
    }

    /// Filters a batch serially, keeping first occurrences in order —
    /// byte-identical output to [`Deduplicator::filter_batch`] over the
    /// same state.
    pub fn filter_batch(&mut self, records: Vec<FeedRecord>) -> Vec<FeedRecord> {
        records
            .into_iter()
            .filter(|record| self.offer(record))
            .collect()
    }

    /// Filters a batch with up to `workers` scoped threads, each owning
    /// a disjoint group of shards. Output order, kept set and
    /// aggregated [`DedupStats`] are identical to
    /// [`filter_batch`](ShardedDeduplicator::filter_batch), which it
    /// runs inline when `workers <= 1`.
    pub fn filter_batch_parallel(
        &mut self,
        records: Vec<FeedRecord>,
        workers: usize,
    ) -> Vec<FeedRecord> {
        let workers = workers.max(1);
        if workers == 1 || self.shards.len() == 1 {
            return self.filter_batch(records);
        }
        let shard_count = self.shards.len();
        let mut buckets: Vec<Vec<(usize, FeedRecord)>> = Vec::new();
        buckets.resize_with(shard_count, Vec::new);
        for (index, record) in records.into_iter().enumerate() {
            let shard = (shard_hash(&record.dedup_key()) % shard_count as u64) as usize;
            buckets[shard].push((index, record));
        }
        let group = shard_count.div_ceil(workers);
        let mut kept: Vec<Vec<(usize, FeedRecord)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .chunks_mut(group)
                .zip(buckets.chunks_mut(group))
                .map(|(shards, buckets)| {
                    scope.spawn(move || {
                        let mut kept = Vec::new();
                        for (shard, bucket) in shards.iter_mut().zip(buckets.iter_mut()) {
                            kept.extend(bucket.drain(..).filter(|(_, record)| shard.offer(record)));
                        }
                        kept
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("dedup worker panicked"))
                .collect()
        });
        let mut merged: Vec<(usize, FeedRecord)> =
            kept.iter_mut().flat_map(std::mem::take).collect();
        merged.sort_unstable_by_key(|(index, _)| *index);
        merged.into_iter().map(|(_, record)| record).collect()
    }

    /// The aggregated counters across every shard.
    pub fn stats(&self) -> DedupStats {
        self.shards
            .iter()
            .map(Deduplicator::stats)
            .fold(DedupStats::default(), |acc, s| DedupStats {
                seen: acc.seen + s.seen,
                kept: acc.kept + s.kept,
                dropped: acc.dropped + s.dropped,
            })
    }

    /// Number of distinct keys on record across every shard.
    pub fn distinct(&self) -> usize {
        self.shards.iter().map(Deduplicator::distinct).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_common::{Observable, ObservableKind, Timestamp};
    use cais_feeds::ThreatCategory;

    fn record(value: &str, source: &str, category: ThreatCategory) -> FeedRecord {
        FeedRecord::new(
            Observable::new(ObservableKind::Domain, value),
            category,
            source,
            Timestamp::EPOCH,
        )
    }

    #[test]
    fn cross_feed_duplicates_dropped() {
        let mut dedup = Deduplicator::new();
        assert!(dedup.offer(&record(
            "evil.example",
            "feed-a",
            ThreatCategory::MalwareDomain
        )));
        assert!(!dedup.offer(&record(
            "evil.example",
            "feed-b",
            ThreatCategory::MalwareDomain
        )));
        assert_eq!(dedup.stats().dropped, 1);
        assert_eq!(dedup.distinct(), 1);
    }

    #[test]
    fn same_value_different_category_is_distinct() {
        let mut dedup = Deduplicator::new();
        assert!(dedup.offer(&record("evil.example", "f", ThreatCategory::MalwareDomain)));
        assert!(dedup.offer(&record("evil.example", "f", ThreatCategory::Phishing)));
    }

    #[test]
    fn batch_preserves_order_of_first_occurrences() {
        let mut dedup = Deduplicator::new();
        let batch = vec![
            record("a.example", "f", ThreatCategory::Spam),
            record("b.example", "f", ThreatCategory::Spam),
            record("a.example", "g", ThreatCategory::Spam),
            record("c.example", "f", ThreatCategory::Spam),
        ];
        let kept = dedup.filter_batch(batch);
        let values: Vec<&str> = kept.iter().map(|r| r.observable.value()).collect();
        assert_eq!(values, vec!["a.example", "b.example", "c.example"]);
        assert!((dedup.stats().duplicate_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn state_persists_across_batches() {
        let mut dedup = Deduplicator::new();
        let first = dedup.filter_batch(vec![record("a.example", "f", ThreatCategory::Spam)]);
        assert_eq!(first.len(), 1);
        // Re-fetch of the same feed content later: everything dropped.
        let second = dedup.filter_batch(vec![record("a.example", "f", ThreatCategory::Spam)]);
        assert!(second.is_empty());
    }

    #[test]
    fn empty_input_ratio_is_zero() {
        assert_eq!(Deduplicator::new().stats().duplicate_ratio(), 0.0);
    }

    fn duplicate_heavy_batch() -> Vec<FeedRecord> {
        (0..200)
            .map(|i| {
                record(
                    &format!("host-{}.example", i % 60),
                    "feed",
                    ThreatCategory::MalwareDomain,
                )
            })
            .collect()
    }

    #[test]
    fn sharded_matches_sequential_serially() {
        for shards in [1, 3, 8] {
            let mut sequential = Deduplicator::new();
            let mut sharded = ShardedDeduplicator::new(shards);
            let expected = sequential.filter_batch(duplicate_heavy_batch());
            let got = sharded.filter_batch(duplicate_heavy_batch());
            assert_eq!(got, expected, "{shards} shards");
            assert_eq!(sharded.stats(), sequential.stats());
            assert_eq!(sharded.distinct(), sequential.distinct());
        }
    }

    #[test]
    fn sharded_matches_sequential_in_parallel() {
        for (shards, workers) in [(2, 2), (8, 4), (8, 16)] {
            let mut sequential = Deduplicator::new();
            let mut sharded = ShardedDeduplicator::new(shards);
            let expected = sequential.filter_batch(duplicate_heavy_batch());
            let got = sharded.filter_batch_parallel(duplicate_heavy_batch(), workers);
            assert_eq!(got, expected, "{shards} shards / {workers} workers");
            assert_eq!(sharded.stats(), sequential.stats());
        }
    }

    #[test]
    fn sharded_state_persists_across_batches() {
        let mut sharded = ShardedDeduplicator::new(4);
        assert_eq!(
            sharded
                .filter_batch_parallel(duplicate_heavy_batch(), 4)
                .len(),
            60
        );
        assert!(sharded
            .filter_batch_parallel(duplicate_heavy_batch(), 4)
            .is_empty());
        assert_eq!(sharded.distinct(), 60);
    }

    #[test]
    fn same_key_always_lands_on_the_same_shard() {
        let sharded = ShardedDeduplicator::new(8);
        let a = record("evil.example", "feed-a", ThreatCategory::MalwareDomain);
        let b = record("evil.example", "feed-b", ThreatCategory::MalwareDomain);
        assert_eq!(sharded.shard_of(&a), sharded.shard_of(&b));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(ShardedDeduplicator::new(0).shard_count(), 1);
    }
}
