//! # cais-decay — indicator lifecycle engine
//!
//! Shared indicators rot: an IP seen in one campaign is near-worthless
//! a month later unless someone sights it again. This crate gives the
//! platform's stored eIoCs a lifecycle, following the CIRCL decaying-
//! indicators model the paper's MISP deployment enables:
//!
//! 1. **Base score** — per-taxonomy weight vectors over the event's
//!    machine tags, computed through the same `heuristics` engine that
//!    scores ingest ([`taxonomy`]).
//! 2. **Decay curve** — `score(t) = base · (1 − (t/τ)^(1/δ))`, with a
//!    sighting resetting `t` ([`model`], [`ledger`]).
//! 3. **Incremental rescoring** — the engine consumes the store's
//!    per-event version counters, so a rescore pass re-derives bases
//!    only for churned events and is a lookup-plus-multiply for the
//!    rest ([`engine`]).
//! 4. **Expiry sweeps** — events decayed below the threshold are
//!    tagged and unpublished; the resulting version bump invalidates
//!    every downstream byte cache (share exporter, TAXII pages), so a
//!    stale decayed score is never served.
//!
//! Time is injected via [`cais_common::resilience::Clock`]: virtual in
//! tests and benches, wall-clock in production.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod ledger;
pub mod model;
pub mod taxonomy;

pub use engine::{
    is_marked_expired, DecayEngine, RescoreSummary, RescoredEvent, SweepSummary,
    DECAY_SCORE_PREDICATE, DECAY_STATE_PREDICATE, DECAY_TAG_NAMESPACE,
};
pub use ledger::{SightingLedger, SightingRecord};
pub use model::DecayModel;
pub use taxonomy::{BaseScorer, TaxonomyProfile};
