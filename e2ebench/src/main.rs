//! `e2ebench`: one feed-to-share benchmark of the CAIS workspace.
//!
//! Records are handed to `cais_core::Platform` and followed until the
//! same indicators come back from a TAXII pull over the serving core
//! and a push to a federated peer is acked. See `FIELDS.md` for every
//! workload, metric and exit code.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload feed_to_share --seed 1 --seconds 30 --trace 0
//! ```

mod gen;
mod ledger;
mod rig;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gen::Mix;
use ledger::{Layer, Ledger, Table};
use rig::{Rig, Shape, Tally};
use serde_json::{json, Value};

/// Set-ups per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more, up to `MAX_SETUPS`, while they have taken
/// less than `SETUP_BUDGET` in all, so that a set-up of milliseconds is
/// sampled as often as its noise needs.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// How often `pull_under_churn` ingests and shares a feed round.
const WRITE_PERIOD: Duration = Duration::from_millis(400);
/// Largest disagreement, in nanoseconds, allowed between a traced
/// round's wall time and its layer times plus the gaps between them.
const CLOSE_TOLERANCE_NS: u64 = 1_000;
/// `peak_rss_mb` is read after this many feed rounds (half as many
/// write rounds in `pull_under_churn`), so it measures a fixed amount
/// of work however fast the rounds run.
const RSS_ROUNDS: usize = 20;
/// The tail latencies are taken over windows of about this length.
const TAIL_WINDOW: Duration = Duration::from_secs(5);
/// A feed workload's window stops here even when its rounds are not
/// done, so that a run on a much slower host still ends.
const MAX_WINDOW: Duration = Duration::from_secs(120);
/// Where results and span dumps go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// A measured round of `feed_to_share`: 120 records, of which 30% are
/// filtered, 19% are duplicates and 17.5% are fleet advisories. Its
/// new indicators, about 125 STIX objects, fill more than one
/// 100-object TAXII page.
const FEED_MIX: Mix = Mix {
    network: 34,
    fleet_advisories: 21,
    foreign_advisories: 6,
    chatter: 18,
    benign: 18,
    repeats: 12,
    overlap: 11,
};

/// A re-poll: 200 records, 85% of them already known.
const REPOLL_MIX: Mix = Mix {
    network: 10,
    fleet_advisories: 6,
    foreign_advisories: 2,
    chatter: 6,
    benign: 6,
    repeats: 160,
    overlap: 10,
};

/// The small write round of `pull_under_churn`: 50 records in about
/// the feed round's proportions.
const CHURN_MIX: Mix = Mix {
    network: 14,
    fleet_advisories: 9,
    foreign_advisories: 2,
    chatter: 8,
    benign: 7,
    repeats: 5,
    overlap: 5,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FeedToShare,
    FeedRepoll,
    PullUnderChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "feed_to_share" => Some(Workload::FeedToShare),
            "feed_repoll" => Some(Workload::FeedRepoll),
            "pull_under_churn" => Some(Workload::PullUnderChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FeedToShare => "feed_to_share",
            Workload::FeedRepoll => "feed_repoll",
            Workload::PullUnderChurn => "pull_under_churn",
        }
    }

    /// Feed rounds per second of `--seconds`: about the rate the round
    /// loop keeps on a 2-vCPU host. A feed run does this fixed amount of
    /// work, so the same rounds, attempts and failures for every seed
    /// and on every host, in about `--seconds` on that one. The
    /// `pull_under_churn` readers run for `--seconds` instead.
    fn rounds_per_second(self) -> Option<usize> {
        match self {
            Workload::FeedToShare => Some(6),
            Workload::FeedRepoll => Some(15),
            Workload::PullUnderChurn => None,
        }
    }

    fn shape(self, tiny: bool) -> Shape {
        let (nodes, preload) = match self {
            Workload::FeedToShare => (1_000, 0),
            Workload::FeedRepoll => (1_000, 100),
            Workload::PullUnderChurn => (1_000, 150),
        };
        let (nodes, preload_rounds) = if tiny {
            (60, preload.min(6))
        } else {
            (nodes, preload)
        };
        Shape {
            nodes,
            preload_rounds,
            mix: match self {
                Workload::FeedToShare => FEED_MIX,
                Workload::FeedRepoll => REPOLL_MIX,
                Workload::PullUnderChurn => CHURN_MIX,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run exactly this many feed rounds instead of the workload's
    /// `rounds_per_second` times `seconds`.
    rounds: Option<usize>,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rounds = None;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rounds" => rounds = Some(value()?.parse().map_err(|e| format!("--rounds: {e}"))?),
            "--scale" => {
                tiny = match value()?.as_str() {
                    "tiny" => true,
                    "full" => false,
                    other => return Err(format!("--scale takes tiny or full, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        rounds,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            eprintln!(
                "usage: e2ebench --workload <feed_to_share|feed_repoll|pull_under_churn> \
                 --seed <n> --seconds <n> --trace <0|1> [--rounds <n>] [--scale <tiny|full>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("e2ebench: {error}");
            ExitCode::from(3)
        }
    }
}

/// Sets up, runs the timed window, sets up again for the set-up
/// median, and prints the result. Returns whether the outputs were
/// correct.
fn run(args: &Args) -> std::io::Result<bool> {
    let shape = args.workload.shape(args.tiny);
    let started = Instant::now();
    let (rig, mut writer) = Rig::setup(args.seed, &shape)?;
    let mut setup_secs = vec![started.elapsed().as_secs_f64()];
    let digest = rig.digest.hex();
    eprintln!(
        "e2ebench: workload {} seed {} input digest {digest}",
        args.workload.name(),
        args.seed
    );

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs(args.seconds);
    let taxii_before = rig.taxii_stats();
    let share_before = rig.platform.read().misp().share().stats();
    let page_before = rig.taxii.page_cache_stats();
    let duplicates_before = rig.duplicate_ids();
    let (ledger, mut tally) = match args.workload {
        Workload::FeedToShare | Workload::FeedRepoll => {
            let mut ledger = Ledger::new(epoch, 0, args.trace);
            let mut tally = Tally::default();
            let rounds = args.rounds.unwrap_or_else(|| {
                args.workload.rounds_per_second().unwrap_or(0) * args.seconds as usize
            });
            let mut done = 0;
            while done < rounds && epoch.elapsed() < MAX_WINDOW {
                rig.feed_round(&mut writer, &mut ledger, &mut tally);
                done += 1;
                if done == RSS_ROUNDS {
                    tally.peak_rss_mb = peak_rss_mb();
                }
            }
            if done < rounds {
                eprintln!(
                    "e2ebench: window stopped after {}s with {done} of {rounds} rounds done",
                    MAX_WINDOW.as_secs()
                );
            }
            (ledger, tally)
        }
        Workload::PullUnderChurn => churn(&rig, &mut writer, args, epoch, deadline)?,
    };
    let window = epoch.elapsed();
    let taxii_after = rig.taxii_stats();
    let share_after = rig.platform.read().misp().share().stats();
    let page_after = rig.taxii.page_cache_stats();
    let duplicate_ids = rig.duplicate_ids() - duplicates_before;
    let store_events = rig.platform.read().misp().store().len();
    let reduce = rig.platform.read().reduce_cache_stats();
    drop(writer);
    drop(rig);

    // The remaining set-ups run after the window, so the RSS reading
    // inside it covers one set-up only. Each must rebuild the same
    // inputs.
    while setup_secs.len() < MIN_SETUPS
        || (setup_secs.len() < MAX_SETUPS
            && setup_secs.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        let started = Instant::now();
        let (again, _) = Rig::setup(args.seed, &shape)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        if again.digest.hex() != digest {
            tally.violations.push(format!(
                "set-ups disagree on the input digest: {digest} then {}",
                again.digest.hex()
            ));
        }
    }
    let table = Table::from_rounds(&ledger.rounds);
    if args.trace && table.max_close_error > CLOSE_TOLERANCE_NS {
        tally.violations.push(format!(
            "ledger does not close: a round misses its wall time by {} ns",
            table.max_close_error
        ));
    }
    if tally.servable_ms.is_empty() {
        tally.violations.push("no indicator became servable".into());
    }
    if tally.pull_ms.is_empty() {
        tally
            .violations
            .push("no consumer request completed".into());
    }

    let core = tally.core_all;
    eprintln!(
        "e2ebench: core counts records_in={} filtered={} duplicates={} ciocs={} riocs={}",
        core.records_in, core.filtered, core.duplicates, core.ciocs, core.riocs
    );
    eprintln!(
        "e2ebench: mix targets filtered={:.3} duplicates={:.3} fleet_advisories={:.3}; \
         achieved filtered={:.3} duplicates={:.3} rioc_share={:.3}",
        shape.mix.filter_share(),
        shape.mix.duplicate_share(),
        shape.mix.fleet_share(),
        ratio(core.filtered, core.records_in),
        ratio(core.duplicates, core.records_in),
        ratio(core.riocs, core.ciocs),
    );

    let mut metrics: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    if args.trace {
        let layer = |t: &Table, l: Layer, op: &str| t.op_ms(l, op);
        let t = &tally;
        let add_ms = layer(&table, Layer::Taxii, "add");
        let share_hits = share_after.hits - share_before.hits;
        let share_misses = share_after.misses - share_before.misses;
        let page_hits = page_after.0 - page_before.0;
        let page_misses = page_after.1 - page_before.1;
        let entries: [(&'static str, f64, &'static str); 54] = [
            ("core.ingest_ms", layer(&table, Layer::Core, "ingest"), "ms"),
            ("core.records_in", t.core.records_in as f64, "count"),
            ("core.filtered", t.core.filtered as f64, "count"),
            ("core.duplicates", t.core.duplicates as f64, "count"),
            ("core.ciocs", t.core.ciocs as f64, "count"),
            ("core.riocs", t.core.riocs as f64, "count"),
            (
                "core.filter_drop_share",
                ratio(t.core.filtered, t.core.records_in),
                "ratio",
            ),
            (
                "core.duplicate_share",
                ratio(t.core.duplicates, t.core.records_in),
                "ratio",
            ),
            (
                "core.rioc_share",
                ratio(t.core.riocs, t.core.ciocs),
                "ratio",
            ),
            (
                "core.reduce_memo_hit_ratio",
                ratio(
                    reduce.match_memo_hits,
                    reduce.match_memo_hits + reduce.match_memo_misses,
                ),
                "ratio",
            ),
            ("search.sync_ms", layer(&table, Layer::Search, "sync"), "ms"),
            ("search.synced", t.search_synced as f64, "count"),
            (
                "search.query_ms",
                layer(&table, Layer::Search, "query"),
                "ms",
            ),
            ("search.queries", t.search_queries as f64, "count"),
            ("search.hits", t.search_hits as f64, "count"),
            ("decay.sweep_ms", layer(&table, Layer::Decay, "sweep"), "ms"),
            ("decay.rescored", t.decay_rescored as f64, "count"),
            ("decay.reused", t.decay_reused as f64, "count"),
            ("decay.flipped", t.decay_flipped as f64, "count"),
            (
                "dashboard.pump_ms",
                layer(&table, Layer::Dashboard, "pump"),
                "ms",
            ),
            (
                "dashboard.applied_riocs",
                t.dashboard_applied as f64,
                "count",
            ),
            ("bus.queued", t.bus_queued as f64, "count"),
            (
                "misp.share_export_ms",
                layer(&table, Layer::Misp, "share_export"),
                "ms",
            ),
            (
                "misp.store_read_ms",
                layer(&table, Layer::Misp, "store_read"),
                "ms",
            ),
            ("misp.share_bytes", t.share_bytes as f64, "B"),
            (
                "misp.share_cache_hit_ratio",
                ratio(share_hits, share_hits + share_misses),
                "ratio",
            ),
            ("misp.store_events", store_events as f64, "count"),
            ("taxii.add_ms", add_ms, "ms"),
            ("taxii.add_bytes", t.add_bytes as f64, "B"),
            ("taxii.add_calls", t.add_calls as f64, "count"),
            (
                "taxii.add_ns_per_byte",
                if t.add_bytes == 0 {
                    0.0
                } else {
                    add_ms * 1e6 / t.add_bytes as f64
                },
                "ns/B",
            ),
            ("taxii.pull_ms", layer(&table, Layer::Taxii, "pull"), "ms"),
            ("taxii.pull_calls", t.pull_calls as f64, "count"),
            ("taxii.pulled_objects", t.pulled_objects as f64, "count"),
            (
                "taxii.page_cache_hit_ratio",
                ratio(page_hits, page_hits + page_misses),
                "ratio",
            ),
            ("taxii.lost_objects", t.lost_objects as f64, "count"),
            (
                "serve.frames_in",
                (taxii_after.frames_in - taxii_before.frames_in) as f64,
                "count",
            ),
            (
                "serve.frames_out",
                (taxii_after.frames_out - taxii_before.frames_out) as f64,
                "count",
            ),
            (
                "serve.bytes_in",
                (taxii_after.bytes_in - taxii_before.bytes_in) as f64,
                "B",
            ),
            (
                "serve.bytes_out",
                (taxii_after.bytes_out - taxii_before.bytes_out) as f64,
                "B",
            ),
            (
                "serve.rejected",
                (taxii_after.rejected - taxii_before.rejected) as f64,
                "count",
            ),
            (
                "federation.push_ms",
                layer(&table, Layer::Federation, "push"),
                "ms",
            ),
            ("federation.push_bytes", t.push_bytes as f64, "B"),
            ("federation.inserted", t.fed_inserted as f64, "count"),
            ("other.ms", table.other as f64 / 1e6, "ms"),
            ("other.share", ratio(table.other, table.wall), "ratio"),
            ("check.request_errors", t.request_errors as f64, "count"),
            (
                "check.unseen_indicators",
                t.unseen_indicators as f64,
                "count",
            ),
            ("check.search_misses", t.search_misses as f64, "count"),
            (
                "check.unacked_indicators",
                t.unacked_indicators as f64,
                "count",
            ),
            ("check.repulled_objects", t.repulled_objects as f64, "count"),
            ("check.duplicate_ids", duplicate_ids as f64, "count"),
            ("check.error_rate", ratio(t.failed, t.attempted), "ratio"),
            ("trace.overhead_pct", overhead_pct(&ledger), "%"),
        ];
        for (name, value, unit) in entries {
            metrics.insert(name, (value, unit));
        }
        metrics.insert("ledger.rounds", (table.rounds as f64, "count"));
        metrics.insert("ledger.wall_ms", (table.wall as f64 / 1e6, "ms"));
        eprint!("{}", table.render());
        eprintln!(
            "e2ebench: tracing overhead {:.2}% (traced vs untraced rounds of this run)",
            overhead_pct(&ledger)
        );
    }

    let windows = (args.seconds / TAIL_WINDOW.as_secs()).max(1) as u32;
    let servable = latencies(&tally.servable_ms, epoch, window / windows, windows);
    let pulls = latencies(&tally.pull_ms, epoch, window / windows, windows);
    let end_to_end: [(&'static str, f64, &'static str); 8] = [
        ("setup_s", median(&mut setup_secs), "s"),
        (
            "records_per_s",
            tally.feed_records as f64 / (tally.feed_wall_nanos.max(1) as f64 / 1e9),
            "1/s",
        ),
        ("servable_ms_mean", servable.mean, "ms"),
        ("servable_ms_p90", servable.p90, "ms"),
        (
            "pulls_per_s",
            tally.pull_ms.len() as f64 / window.as_secs_f64(),
            "1/s",
        ),
        ("pull_ms_mean", pulls.mean, "ms"),
        ("pull_ms_p90", pulls.p90, "ms"),
        (
            "peak_rss_mb",
            if tally.peak_rss_mb > 0.0 {
                tally.peak_rss_mb
            } else {
                peak_rss_mb()
            },
            "MiB",
        ),
    ];
    for (name, value, unit) in end_to_end {
        eprintln!("e2ebench: {name:<16} {value:>12.4} {unit}");
    }
    // Printed, not compared. A run's p99 is its two to four slowest
    // rounds, since every indicator of a round shares the round's
    // latency. The p50 falls in whichever of the host's two speeds held
    // more of the run (see FIELDS.md).
    for (name, value) in [
        ("servable_ms_p50", servable.p50),
        ("servable_ms_p99", servable.p99),
        ("pull_ms_p50", pulls.p50),
        ("pull_ms_p99", pulls.p99),
    ] {
        eprintln!("e2ebench: {name:<16} {value:>12.4} ms");
    }
    eprintln!(
        "e2ebench: samples servable={} pull={}; error_rate={:.4} ({} failed of {} attempted: \
         {} request errors, {} unseen, {} search misses, {} unacked; {} objects lost, {} re-pulled, {} expired before share; {} shared objects with a duplicate id)",
        tally.servable_ms.len(),
        tally.pull_ms.len(),
        ratio(tally.failed, tally.attempted),
        tally.failed,
        tally.attempted,
        tally.request_errors,
        tally.unseen_indicators,
        tally.search_misses,
        tally.unacked_indicators,
        tally.lost_objects,
        tally.repulled_objects,
        tally.expired_before_share,
        duplicate_ids,
    );
    if !args.trace {
        for (name, value, unit) in end_to_end {
            metrics.insert(name, (value, unit));
        }
    }
    for violation in &tally.violations {
        eprintln!("e2ebench: CHECK FAILED: {violation}");
    }
    let correct = tally.violations.is_empty() && tally.attempted > 0;

    let metrics_json: serde_json::Map = metrics
        .iter()
        .map(|(name, (value, unit))| ((*name).to_owned(), json!({ "value": value, "unit": unit })))
        .collect();
    write_outputs(args, &digest, &tally, &ledger, &metrics_json);
    let result = json!({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": Value::Object(metrics_json),
    });
    println!("{result}");
    Ok(correct)
}

/// `pull_under_churn`: two consumer connections read in closed loops,
/// one per benchmark thread; the first thread also ingests and shares a
/// feed round every `WRITE_PERIOD`.
fn churn(
    rig: &Rig,
    writer: &mut rig::Writer,
    args: &Args,
    epoch: Instant,
    deadline: Instant,
) -> std::io::Result<(Ledger, Tally)> {
    writer.walk_is_pull = false;
    let mut first = rig.reader(args.seed, 0)?;
    let mut second = rig.reader(args.seed, 1)?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            let mut ledger = Ledger::new(epoch, 1, args.trace);
            let mut tally = Tally::default();
            while !stop.load(Ordering::Relaxed) {
                rig.consume(&mut second, &mut ledger, &mut tally);
            }
            (ledger, tally)
        });
        let mut ledger = Ledger::new(epoch, 0, args.trace);
        let mut tally = Tally::default();
        let mut next_write = Instant::now();
        let mut writes = 0;
        while args
            .rounds
            .map_or(Instant::now() < deadline, |n| writes < n)
        {
            // With a fixed round count, write after every consumer cycle.
            let due = args.rounds.is_some() || Instant::now() >= next_write;
            if due {
                rig.feed_round(writer, &mut ledger, &mut tally);
                next_write += WRITE_PERIOD;
                writes += 1;
                if writes == RSS_ROUNDS / 2 {
                    tally.peak_rss_mb = peak_rss_mb();
                }
            }
            rig.consume(&mut first, &mut ledger, &mut tally);
        }
        stop.store(true, Ordering::Relaxed);
        let (other_ledger, other_tally) = other.join().expect("consumer thread panicked");
        ledger.merge(other_ledger);
        tally.merge(other_tally);
        Ok((ledger, tally))
    })
}

fn write_outputs(
    args: &Args,
    digest: &str,
    tally: &Tally,
    ledger: &Ledger,
    metrics: &serde_json::Map,
) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let core = tally.core_all;
    let doc = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest,
        "core_counts": {
            "records_in": core.records_in,
            "filtered": core.filtered,
            "duplicates": core.duplicates,
            "ciocs": core.ciocs,
            "riocs": core.riocs,
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": ratio(tally.failed, tally.attempted),
        "violations": tally.violations,
        "metrics": Value::Object(metrics.clone()),
    });
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), format!("{doc:#}\n")))
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    format!("{stem}-spans.jsonl"),
                    ledger::spans_jsonl(&ledger.rounds),
                )
            } else {
                Ok(())
            }
        });
    if let Err(error) = written {
        eprintln!("e2ebench: could not write {stem}.*: {error}");
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (sorted in place).
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Summary of a run's latency samples, in ms.
struct Latency {
    mean: f64,
    p50: f64,
    /// The median over the run's windows of each window's p90, so a
    /// burst of host noise in one window does not move it.
    p90: f64,
    p99: f64,
}

/// Summarises `samples`, taking the p90 over `windows` equal windows,
/// each `length` long.
fn latencies(
    samples: &[(Instant, f64)],
    epoch: Instant,
    length: Duration,
    windows: u32,
) -> Latency {
    let mut all: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    let mut by_window = vec![Vec::new(); windows as usize];
    let length = length.as_secs_f64().max(f64::MIN_POSITIVE);
    let last = windows as usize - 1;
    for &(at, ms) in samples {
        let window = at.saturating_duration_since(epoch).as_secs_f64() / length;
        by_window[(window as usize).min(last)].push(ms);
    }
    let mut tails: Vec<f64> = by_window
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, 0.9))
        .collect();
    Latency {
        mean: all.iter().sum::<f64>() / all.len().max(1) as f64,
        p50: percentile(&mut all, 0.5),
        p90: median(&mut tails),
        p99: percentile(&mut all, 0.99),
    }
}

/// Mean wall time of traced rounds over untraced rounds of the same
/// kind, as a percentage: what recording spans costs.
fn overhead_pct(ledger: &Ledger) -> f64 {
    let kind = if ledger.untraced.contains_key("consume") {
        "consume"
    } else {
        "feed"
    };
    let traced: Vec<u64> = ledger
        .rounds
        .iter()
        .filter(|r| r.kind == kind)
        .map(ledger::Round::wall)
        .collect();
    let untraced = ledger.untraced.get(kind).cloned().unwrap_or_default();
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    100.0 * (mean(&traced) / mean(&untraced) - 1.0)
}

/// The process's high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
