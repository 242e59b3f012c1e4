//! # cais-bench
//!
//! Shared workloads for the benchmark harness, the generators the
//! `report` binary uses to regenerate every table and figure of the
//! paper (see `EXPERIMENTS.md` at the repository root), and the
//! blocking reference runner the serving core is compared against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod reference;
pub mod report;
pub mod workloads;
