//! Per-stage ingestion metrics.
//!
//! Every ingestion round reports how many records entered and left each
//! pipeline stage and how long the stage took. The record counters are
//! deterministic (every worker count merges to the same outcome); the
//! wall times are not, which is why [`StageMetrics::same_counts`]
//! compares everything *except* time.
//!
//! The stages time what the round does, not the paper's boxes one to
//! one: `enrich` is the whole worker stage (scoring, MISP event build
//! and validation, reduction, payload serialization), `reduce` only
//! tallies the reductions already made, and `publish` covers the MISP
//! inserts as well as the bus batches.

use serde::{Deserialize, Serialize};

/// Counters and wall time of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageRecord {
    /// Items offered to the stage.
    pub records_in: usize,
    /// Items the stage passed on.
    pub records_out: usize,
    /// Items the stage dropped (`records_in - records_out` for
    /// filtering stages, 0 for transforming ones).
    pub dropped: usize,
    /// Wall-clock time spent in the stage, in nanoseconds.
    pub wall_nanos: u64,
}

impl StageRecord {
    /// A stage record measured by the caller.
    pub fn timed(records_in: usize, records_out: usize, wall_nanos: u64) -> Self {
        StageRecord {
            records_in,
            records_out,
            dropped: records_in.saturating_sub(records_out),
            wall_nanos,
        }
    }

    /// The deterministic part: counters without the wall time.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.records_in, self.records_out, self.dropped)
    }

    /// *Input* throughput: items **offered** to the stage per second
    /// (0 for an untimed stage). For filtering stages this counts
    /// dropped records too — it answers "how fast does this stage
    /// consume work", not "how fast does it produce output"; use
    /// [`StageRecord::output_throughput`] for the latter.
    pub fn throughput(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.records_in as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }

    /// *Output* throughput: items the stage **passed on** per second
    /// (0 for an untimed stage). Unlike [`StageRecord::throughput`],
    /// dropped records don't inflate this rate, so it's the honest
    /// number for stages like publish whose input was pre-filtered.
    pub fn output_throughput(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.records_out as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }
}

/// The per-stage breakdown of one ingestion round, following the
/// pipeline order: filter → dedup → compose → enrich → reduce →
/// publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageMetrics {
    /// NLP-relevance plus warninglist filtering.
    pub filter: StageRecord,
    /// Duplicate suppression.
    pub dedup: StageRecord,
    /// Aggregation/correlation into cIoCs.
    pub compose: StageRecord,
    /// The worker stage, cIoC → eIoC: heuristic scoring, building and
    /// validating the MISP event, inventory reduction, and serializing
    /// every bus payload.
    pub enrich: StageRecord,
    /// Reduction bookkeeping (eIoC → rIoC): tallies the reductions the
    /// enrich stage made and records the rIoCs, in order.
    pub reduce: StageRecord,
    /// MISP inserts and bus publication. Counts one message per cIoC,
    /// eIoC and rIoC.
    pub publish: StageRecord,
}

impl StageMetrics {
    /// Whether two rounds processed identical record counts at every
    /// stage (wall times, which legitimately differ between runs and
    /// worker counts, are ignored).
    pub fn same_counts(&self, other: &StageMetrics) -> bool {
        self.filter.counts() == other.filter.counts()
            && self.dedup.counts() == other.dedup.counts()
            && self.compose.counts() == other.compose.counts()
            && self.enrich.counts() == other.enrich.counts()
            && self.reduce.counts() == other.reduce.counts()
            && self.publish.counts() == other.publish.counts()
    }

    /// Total wall time across all stages, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.filter.wall_nanos
            + self.dedup.wall_nanos
            + self.compose.wall_nanos
            + self.enrich.wall_nanos
            + self.reduce.wall_nanos
            + self.publish.wall_nanos
    }

    /// `(name, record)` pairs in pipeline order, for tabular display.
    pub fn stages(&self) -> [(&'static str, StageRecord); 6] {
        [
            ("filter", self.filter),
            ("dedup", self.dedup),
            ("compose", self.compose),
            ("enrich", self.enrich),
            ("reduce", self.reduce),
            ("publish", self.publish),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_derives_dropped() {
        let stage = StageRecord::timed(10, 7, 1_000);
        assert_eq!(stage.counts(), (10, 7, 3));
        assert_eq!(stage.wall_nanos, 1_000);
    }

    #[test]
    fn throughput_is_per_second() {
        let stage = StageRecord::timed(500, 500, 1_000_000_000);
        assert!((stage.throughput() - 500.0).abs() < 1e-9);
        assert_eq!(StageRecord::default().throughput(), 0.0);
    }

    #[test]
    fn output_throughput_excludes_dropped() {
        let stage = StageRecord::timed(500, 200, 1_000_000_000);
        assert!((stage.throughput() - 500.0).abs() < 1e-9);
        assert!((stage.output_throughput() - 200.0).abs() < 1e-9);
        assert_eq!(StageRecord::default().output_throughput(), 0.0);
    }

    #[test]
    fn same_counts_ignores_wall_time() {
        let a = StageMetrics {
            filter: StageRecord::timed(4, 4, 10),
            ..StageMetrics::default()
        };
        let mut b = a;
        b.filter.wall_nanos = 99_999;
        assert!(a.same_counts(&b));
        b.filter.records_out = 3;
        assert!(!a.same_counts(&b));
    }

    #[test]
    fn total_and_table() {
        let mut m = StageMetrics::default();
        m.dedup.wall_nanos = 5;
        m.publish.wall_nanos = 7;
        assert_eq!(m.total_nanos(), 12);
        assert_eq!(m.stages()[1].0, "dedup");
        assert_eq!(m.stages()[1].1.wall_nanos, 5);
    }

    #[test]
    fn serde_roundtrip() {
        let m = StageMetrics {
            enrich: StageRecord::timed(3, 3, 42),
            ..StageMetrics::default()
        };
        let value = serde_json::to_value(m).unwrap();
        let back: StageMetrics = serde_json::from_value(value).unwrap();
        assert_eq!(back, m);
    }
}
