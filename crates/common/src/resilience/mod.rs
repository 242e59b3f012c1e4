//! Deterministic resilience primitives shared by every I/O seam.
//!
//! Three pieces compose into the platform's failure-handling story:
//!
//! - [`FaultPlan`] — a seeded, per-call-site fault-injection script.
//!   Each site draws its faults from its own RNG stream (seeded from
//!   the plan seed and the site name), so cross-site call order never
//!   changes what a site observes — chaos runs replay exactly from a
//!   seed, with no wall clock involved.
//! - [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   seeded jitter. Waiting is delegated to a [`Sleeper`], so tests use
//!   virtual time ([`RecordingSleeper`]) and production threads wait on
//!   an interruptible [`StopToken`].
//! - [`CircuitBreaker`] — per-source/per-peer closed → open → half-open
//!   isolation with a probe-count cooldown, deterministic per call
//!   sequence.
//! - [`FaultService`] — a [`FaultPlan`] applied per inbound frame to
//!   any service on the serving core ([`crate::serve`]), so chaos
//!   tests fault the server code that ships.
//! - [`Clock`] — an injectable time *reader* next to the [`Sleeper`]
//!   time *waiter*: time-dependent logic (indicator decay, expiry
//!   sweeps) reads a [`SystemClock`] in production and a manually
//!   advanced [`VirtualClock`] in tests.
//!
//! The determinism contract extends here: with any seeded plan, the
//! set of faults a call site sees — and therefore retry and breaker
//! counters — is a pure function of the plan seed and that site's call
//! sequence.

mod breaker;
mod clock;
mod fault;
mod fault_service;
mod retry;

pub use breaker::{BreakerConfig, BreakerState, BreakerTransitions, CircuitBreaker};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use fault::{mangle_payload, site_hash, FaultKind, FaultPlan};
pub use fault_service::FaultService;
pub use retry::{RecordingSleeper, RetryOutcome, RetryPolicy, Sleeper, StopToken, ThreadSleeper};
