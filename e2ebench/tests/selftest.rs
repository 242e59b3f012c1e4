//! Self-tests of the benchmark: every workload at tiny scale, run as a
//! separate process the way the benchmark is run for real.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const WORKLOADS: &[&str] = &["feed_to_share", "feed_repoll", "pull_under_churn"];

struct Run {
    result: Value,
    stderr: String,
}

impl Run {
    fn line(&self, marker: &str) -> String {
        self.stderr
            .lines()
            .find_map(|l| l.split_once(marker).map(|(_, rest)| rest.trim().to_owned()))
            .unwrap_or_else(|| panic!("no `{marker}` line in:\n{}", self.stderr))
    }

    fn digest(&self) -> String {
        self.line("input digest")
    }

    fn core_counts(&self) -> String {
        self.line("core counts")
    }

    fn metric(&self, name: &str) -> f64 {
        self.result["metrics"][name]["value"]
            .as_f64()
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    run_rounds(workload, seed, trace, &["--rounds", "2"])
}

/// A tiny run of one second; `rounds` may fix its feed rounds.
fn run_rounds(workload: &str, seed: u64, trace: bool, rounds: &[&str]) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&dir).unwrap();
    let seed = seed.to_string();
    let output = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed, "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(rounds)
        .args(["--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(output.status.success(), "{workload} failed:\n{stderr}");
    let last = stdout.lines().last().expect("a result line");
    Run {
        result: serde_json::from_str(last).expect("the result line is JSON"),
        stderr,
    }
}

/// `(name, unit)` of every metric BENCHMARK.json names in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).unwrap();
    doc[section]
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_owned(),
                m["unit"].as_str().unwrap().to_owned(),
            )
        })
        .collect()
}

fn emitted(run: &Run) -> Vec<(String, String)> {
    let Value::Object(metrics) = &run.result["metrics"] else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), m["unit"].as_str().unwrap().to_owned()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_and_nothing_else() {
    let mut end_to_end = declared("end_to_end");
    let mut per_layer = declared("per_layer");
    end_to_end.sort();
    per_layer.sort();
    for workload in WORKLOADS {
        let mut untraced = emitted(&run(workload, 3, false));
        let mut traced = emitted(&run(workload, 3, true));
        untraced.sort();
        traced.sort();
        assert_eq!(untraced, end_to_end, "{workload} --trace 0");
        assert_eq!(traced, per_layer, "{workload} --trace 1");
    }
}

#[test]
fn one_seed_gives_one_input_and_one_set_of_core_counts() {
    for workload in WORKLOADS {
        let (a, b) = (run(workload, 5, false), run(workload, 5, false));
        assert_eq!(a.digest(), b.digest(), "{workload}");
        assert_eq!(a.core_counts(), b.core_counts(), "{workload}");
        let other = run(workload, 6, false);
        assert_ne!(a.digest(), other.digest(), "{workload}: seeds must matter");
    }
}

#[test]
fn a_feed_run_counts_the_same_attempts_and_failures_for_every_seed() {
    for workload in ["feed_to_share", "feed_repoll"] {
        let counts = |seed| {
            let run = run_rounds(workload, seed, false, &[]);
            (
                run.result["attempted"].clone(),
                run.result["failed"].clone(),
            )
        };
        let (a, b) = (counts(11), counts(12));
        assert_eq!(a, b, "{workload}");
        assert!(a.0.as_u64().unwrap() > 0, "{workload}");
    }
}

#[test]
fn error_rate_is_failures_over_attempts() {
    for workload in WORKLOADS {
        let run = run(workload, 7, true);
        let attempted = run.result["attempted"].as_u64().unwrap();
        let failed = run.result["failed"].as_u64().unwrap();
        assert_eq!(run.result["correct"], Value::Bool(true), "{}", run.stderr);
        assert!(attempted >= 1);
        assert!(failed <= attempted);
        let rate = run.metric("check.error_rate");
        assert!((rate - failed as f64 / attempted as f64).abs() < 1e-12);
        // Failures are exactly the counted misses, none hidden.
        let misses = run.metric("check.request_errors")
            + run.metric("check.unseen_indicators")
            + run.metric("check.search_misses")
            + run.metric("check.unacked_indicators");
        assert_eq!(misses, failed as f64, "{}", run.stderr);
    }
}

#[test]
fn the_ledger_closes_and_accounts_for_the_wall_time() {
    let run = run("feed_to_share", 9, true);
    let layers: f64 = [
        "core.ingest_ms",
        "search.sync_ms",
        "search.query_ms",
        "decay.sweep_ms",
        "dashboard.pump_ms",
        "misp.share_export_ms",
        "misp.store_read_ms",
        "taxii.add_ms",
        "taxii.pull_ms",
        "federation.push_ms",
        "other.ms",
    ]
    .iter()
    .map(|name| run.metric(name))
    .sum();
    let wall = run.metric("ledger.wall_ms");
    assert!(
        (layers - wall).abs() < 1e-3 * wall.max(1.0),
        "{layers} vs {wall}"
    );
}
