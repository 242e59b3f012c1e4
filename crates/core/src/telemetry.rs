//! Pipeline telemetry: cached registry handles for the ingestion
//! rounds.
//!
//! The pipeline's timing source stays [`StageMetrics`] — each stage is
//! measured exactly once, by the ingest paths themselves — and
//! [`PipelineInstruments::record_round`] feeds the finished report
//! into the registry. Nothing is timed twice, so the dashboard (which
//! reads `PlatformReport`) and the scrape endpoint (which reads the
//! registry) can never disagree.
//!
//! Counters carry only the deterministic part of a report (record
//! counts); wall times go into per-stage histograms. That split is
//! what lets rounds of any worker count — whose reports satisfy
//! [`PlatformReport::same_counters`] — produce *identical* registry
//! counters for the same input, a property the workspace tests
//! enforce.

use cais_telemetry::{labeled, Counter, Gauge, Histogram, Registry};

use crate::metrics::{StageMetrics, StageRecord};
use crate::pipeline::PlatformReport;
use crate::reduce::ReduceCacheStats;

/// Cached handles for one stage's counters and latency histogram.
struct StageInstruments {
    records_in: Counter,
    records_out: Counter,
    dropped: Counter,
    nanos: Histogram,
}

impl StageInstruments {
    fn new(registry: &Registry, stage: &str) -> Self {
        let l = |name| labeled(name, &[("stage", stage)]);
        StageInstruments {
            records_in: registry.counter(&l("pipeline_stage_records_in_total")),
            records_out: registry.counter(&l("pipeline_stage_records_out_total")),
            dropped: registry.counter(&l("pipeline_stage_dropped_total")),
            nanos: registry.histogram(&l("pipeline_stage_nanos")),
        }
    }

    fn record(&self, stage: &StageRecord) {
        self.records_in.add(stage.records_in as u64);
        self.records_out.add(stage.records_out as u64);
        self.dropped.add(stage.dropped as u64);
        self.nanos.record(stage.wall_nanos);
    }
}

/// Cached registry handles for the whole pipeline; built once per
/// [`Platform`](crate::Platform) so the per-round hot path never
/// touches the registry's locks.
pub struct PipelineInstruments {
    rounds: Counter,
    records_in: Counter,
    nlp_filtered: Counter,
    benign_filtered: Counter,
    duplicates_dropped: Counter,
    ciocs: Counter,
    eiocs: Counter,
    riocs: Counter,
    round_nanos: Histogram,
    stages: Vec<(&'static str, StageInstruments)>,
    reduce_caches: ReduceCacheInstruments,
}

/// Gauges mirroring the reducer's cache-effectiveness snapshot.
///
/// Gauges, not counters, on purpose: memo hit/miss splits depend on
/// thread interleaving when a round has several workers (two can race
/// to the same uncached candidate list), so they sit outside the
/// counter-determinism contract across worker counts that the
/// workspace tests enforce. Each round overwrites them with the latest snapshot.
struct ReduceCacheInstruments {
    index_rebuilds: Gauge,
    cve_memo_hits: Gauge,
    cve_memo_misses: Gauge,
    match_memo_hits: Gauge,
    match_memo_misses: Gauge,
    match_memo_evictions: Gauge,
}

impl ReduceCacheInstruments {
    fn new(registry: &Registry) -> Self {
        ReduceCacheInstruments {
            index_rebuilds: registry.gauge("reduce_index_rebuilds"),
            cve_memo_hits: registry.gauge("reduce_cve_memo_hits"),
            cve_memo_misses: registry.gauge("reduce_cve_memo_misses"),
            match_memo_hits: registry.gauge("reduce_match_memo_hits"),
            match_memo_misses: registry.gauge("reduce_match_memo_misses"),
            match_memo_evictions: registry.gauge("reduce_match_memo_evictions"),
        }
    }

    fn record(&self, stats: &ReduceCacheStats) {
        self.index_rebuilds.set(stats.index_rebuilds as i64);
        self.cve_memo_hits.set(stats.cve_memo_hits as i64);
        self.cve_memo_misses.set(stats.cve_memo_misses as i64);
        self.match_memo_hits.set(stats.match_memo_hits as i64);
        self.match_memo_misses.set(stats.match_memo_misses as i64);
        self.match_memo_evictions
            .set(stats.match_memo_evictions as i64);
    }
}

impl PipelineInstruments {
    /// Registers (or re-attaches to) the pipeline metrics in a
    /// registry.
    pub fn new(registry: &Registry) -> Self {
        let stages = StageMetrics::default()
            .stages()
            .into_iter()
            .map(|(name, _)| (name, StageInstruments::new(registry, name)))
            .collect();
        PipelineInstruments {
            rounds: registry.counter("pipeline_rounds_total"),
            records_in: registry.counter("pipeline_records_in_total"),
            nlp_filtered: registry.counter("pipeline_nlp_filtered_total"),
            benign_filtered: registry.counter("pipeline_benign_filtered_total"),
            duplicates_dropped: registry.counter("pipeline_duplicates_dropped_total"),
            ciocs: registry.counter("pipeline_ciocs_total"),
            eiocs: registry.counter("pipeline_eiocs_total"),
            riocs: registry.counter("pipeline_riocs_total"),
            round_nanos: registry.histogram("pipeline_round_nanos"),
            stages,
            reduce_caches: ReduceCacheInstruments::new(registry),
        }
    }

    /// Publishes the reducer's cache snapshot as gauges; called by both
    /// ingest paths after [`PipelineInstruments::record_round`].
    pub fn record_reduce_caches(&self, stats: &ReduceCacheStats) {
        self.reduce_caches.record(stats);
    }

    /// Folds one finished round into the registry. Counter values
    /// depend only on the report's deterministic record counts; the
    /// wall times land in histograms, which the determinism contract
    /// deliberately excludes.
    pub fn record_round(&self, report: &PlatformReport) {
        self.rounds.inc();
        self.records_in.add(report.records_in as u64);
        self.nlp_filtered.add(report.nlp_filtered as u64);
        self.benign_filtered.add(report.benign_filtered as u64);
        self.duplicates_dropped
            .add(report.duplicates_dropped as u64);
        self.ciocs.add(report.ciocs as u64);
        self.eiocs.add(report.eiocs as u64);
        self.riocs.add(report.riocs as u64);
        self.round_nanos.record(report.stages.total_nanos());
        for (name, instruments) in &self.stages {
            let stage = report
                .stages
                .stages()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, record)| record)
                .unwrap_or_default();
            instruments.record(&stage);
        }
    }
}

impl std::fmt::Debug for PipelineInstruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineInstruments")
            .field("rounds", &self.rounds.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_folds_report_into_counters() {
        let registry = Registry::new();
        let instruments = PipelineInstruments::new(&registry);
        let mut report = PlatformReport {
            records_in: 10,
            duplicates_dropped: 4,
            ciocs: 6,
            eiocs: 6,
            riocs: 2,
            ..PlatformReport::default()
        };
        report.stages.dedup = StageRecord::timed(10, 6, 1_500);
        instruments.record_round(&report);
        instruments.record_round(&report);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["pipeline_rounds_total"], 2);
        assert_eq!(snapshot.counters["pipeline_records_in_total"], 20);
        assert_eq!(snapshot.counters["pipeline_riocs_total"], 4);
        let dedup_in = labeled("pipeline_stage_records_in_total", &[("stage", "dedup")]);
        assert_eq!(snapshot.counters[&dedup_in], 20);
        let dedup_nanos = labeled("pipeline_stage_nanos", &[("stage", "dedup")]);
        assert_eq!(snapshot.histograms[&dedup_nanos].count, 2);
        assert_eq!(snapshot.histograms[&dedup_nanos].sum, 3_000);
    }

    #[test]
    fn reduce_cache_stats_land_as_gauges() {
        let registry = Registry::new();
        let instruments = PipelineInstruments::new(&registry);
        let stats = ReduceCacheStats {
            cve_memo_hits: 5,
            cve_memo_misses: 2,
            match_memo_hits: 40,
            match_memo_misses: 8,
            match_memo_evictions: 1,
            index_rebuilds: 3,
        };
        instruments.record_reduce_caches(&stats);
        // Gauges overwrite, not accumulate: a second snapshot wins.
        instruments.record_reduce_caches(&stats);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauges["reduce_match_memo_hits"], 40);
        assert_eq!(snapshot.gauges["reduce_index_rebuilds"], 3);
        assert_eq!(snapshot.gauges["reduce_cve_memo_misses"], 2);
        assert_eq!(snapshot.gauges["reduce_match_memo_evictions"], 1);
    }
}
