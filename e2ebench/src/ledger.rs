//! The per-layer ledger: spans recorded from outside, around the calls
//! into each crate's public functions.
//!
//! A traced round keeps every span in memory; untraced rounds only keep
//! their wall time, so the traced run can report its own overhead by
//! comparing the two kinds of round. Spans are written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers of the loop, one per crate whose public functions the
/// benchmark calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Core,
    Search,
    Decay,
    Dashboard,
    Misp,
    Taxii,
    Federation,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Core,
        Layer::Search,
        Layer::Decay,
        Layer::Dashboard,
        Layer::Misp,
        Layer::Taxii,
        Layer::Federation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Search => "search",
            Layer::Decay => "decay",
            Layer::Dashboard => "dashboard",
            Layer::Misp => "misp",
            Layer::Taxii => "taxii",
            Layer::Federation => "federation",
        }
    }
}

/// One call into a layer, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub op: &'static str,
    pub start: u64,
    pub end: u64,
}

/// One traced round: its bounds and the spans inside it.
#[derive(Debug, Clone)]
pub struct Round {
    pub kind: &'static str,
    pub thread: usize,
    pub start: u64,
    pub end: u64,
    pub spans: Vec<Span>,
}

impl Round {
    pub fn wall(&self) -> u64 {
        self.end - self.start
    }

    pub fn layer_nanos(&self) -> u64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// The unattributed time as the gaps between spans, computed
    /// independently of `wall - layers`. The two agree only when the
    /// spans are disjoint and inside the round.
    pub fn gap_nanos(&self) -> u64 {
        let mut cursor = self.start;
        let mut gaps = 0;
        for span in &self.spans {
            gaps += span.start.saturating_sub(cursor);
            cursor = cursor.max(span.end);
        }
        gaps + self.end.saturating_sub(cursor)
    }

    /// How far `layers + other` misses the wall time, in nanoseconds.
    pub fn close_error(&self) -> u64 {
        let other = self.wall() as i128 - self.layer_nanos() as i128;
        (other - self.gap_nanos() as i128).unsigned_abs() as u64
    }
}

/// A per-thread recorder. Threads merge their ledgers at the end.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    thread: usize,
    /// Whether the run traces at all; when it does, every other round
    /// of each kind is traced.
    tracing: bool,
    current: Option<Round>,
    tracing_round: bool,
    pub rounds: Vec<Round>,
    /// Wall nanoseconds of untraced rounds, by kind.
    pub untraced: BTreeMap<&'static str, Vec<u64>>,
    /// Rounds begun so far, by kind.
    begun: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn new(epoch: Instant, thread: usize, tracing: bool) -> Self {
        Ledger {
            epoch,
            thread,
            tracing,
            current: None,
            tracing_round: false,
            rounds: Vec::new(),
            untraced: BTreeMap::new(),
            begun: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether the round in progress records spans (its counters are
    /// the ones the per-layer table reports).
    pub fn traced(&self) -> bool {
        self.tracing_round
    }

    pub fn begin(&mut self, kind: &'static str) {
        let begun = self.begun.entry(kind).or_insert(0);
        self.tracing_round = self.tracing && begun.is_multiple_of(2);
        *begun += 1;
        self.current = Some(Round {
            kind,
            thread: self.thread,
            start: self.now(),
            end: 0,
            spans: Vec::new(),
        });
    }

    pub fn end(&mut self) {
        let end = self.now();
        let mut round = self.current.take().expect("end() follows begin()");
        round.end = end;
        if self.tracing_round {
            self.rounds.push(round);
        } else {
            self.untraced
                .entry(round.kind)
                .or_default()
                .push(round.wall());
        }
        self.tracing_round = false;
    }

    /// Runs `f` as a call into `layer`, recording a span when the round
    /// is traced.
    pub fn time<T>(&mut self, layer: Layer, op: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracing_round {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.current
            .as_mut()
            .expect("spans are recorded inside a round")
            .spans
            .push(Span {
                layer,
                op,
                start,
                end,
            });
        out
    }

    pub fn merge(&mut self, other: Ledger) {
        self.rounds.extend(other.rounds);
        for (kind, walls) in other.untraced {
            self.untraced.entry(kind).or_default().extend(walls);
        }
    }
}

/// Totals over every traced round.
#[derive(Debug, Default)]
pub struct Table {
    /// Busy nanoseconds per (layer, op).
    pub ops: BTreeMap<(Layer, &'static str), u64>,
    pub layers: BTreeMap<Layer, u64>,
    pub wall: u64,
    pub other: u64,
    pub rounds: usize,
    pub max_close_error: u64,
}

impl Table {
    pub fn from_rounds(rounds: &[Round]) -> Self {
        let mut table = Table::default();
        for round in rounds {
            table.rounds += 1;
            table.wall += round.wall();
            table.other += round.wall().saturating_sub(round.layer_nanos());
            table.max_close_error = table.max_close_error.max(round.close_error());
            for span in &round.spans {
                let nanos = span.end - span.start;
                *table.ops.entry((span.layer, span.op)).or_insert(0) += nanos;
                *table.layers.entry(span.layer).or_insert(0) += nanos;
            }
        }
        table
    }

    pub fn op_ms(&self, layer: Layer, op: &str) -> f64 {
        let nanos: u64 = self
            .ops
            .iter()
            .filter(|((l, o), _)| *l == layer && *o == op)
            .map(|(_, n)| *n)
            .sum();
        nanos as f64 / 1e6
    }

    /// The human-readable table: every layer with its share of the
    /// traced rounds' wall time, `other` last.
    pub fn render(&self) -> String {
        let wall = self.wall.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(out, "{:<12} {:>12} {:>8}", "layer", "busy_ms", "share");
        for layer in Layer::ALL {
            let nanos = self.layers.get(&layer).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<12} {:>12.3} {:>7.2}%",
                layer.name(),
                nanos as f64 / 1e6,
                100.0 * nanos as f64 / wall
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>12.3} {:>7.2}%",
            "other",
            self.other as f64 / 1e6,
            100.0 * self.other as f64 / wall
        );
        let _ = writeln!(
            out,
            "{:<12} {:>12.3} {:>7.2}%  ({} traced rounds, worst close error {} ns)",
            "wall",
            self.wall as f64 / 1e6,
            100.0,
            self.rounds,
            self.max_close_error
        );
        out
    }
}

/// The spans as JSON lines, one round per line.
pub fn spans_jsonl(rounds: &[Round]) -> String {
    let mut out = String::new();
    for round in rounds {
        let spans: Vec<serde_json::Value> = round
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "layer": s.layer.name(),
                    "op": s.op,
                    "start_ns": s.start,
                    "end_ns": s.end,
                })
            })
            .collect();
        let line = serde_json::json!({
            "kind": round.kind,
            "thread": round.thread,
            "start_ns": round.start,
            "end_ns": round.end,
            "spans": spans,
        });
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            layer: Layer::Core,
            op: "ingest",
            start,
            end,
        }
    }

    #[test]
    fn disjoint_spans_close_the_round() {
        let round = Round {
            kind: "feed",
            thread: 0,
            start: 100,
            end: 200,
            spans: vec![span(110, 130), span(130, 170), span(180, 190)],
        };
        assert_eq!(round.layer_nanos(), 70);
        assert_eq!(round.gap_nanos(), 30);
        assert_eq!(round.close_error(), 0);
    }

    #[test]
    fn overlapping_spans_do_not_close() {
        let round = Round {
            kind: "feed",
            thread: 0,
            start: 0,
            end: 100,
            spans: vec![span(10, 60), span(40, 80)],
        };
        // The 20 ns the spans share are counted twice.
        assert_eq!(round.close_error(), 20);
    }

    #[test]
    fn tracing_alternates_rounds_of_each_kind() {
        let mut ledger = Ledger::new(Instant::now(), 0, true);
        for _ in 0..4 {
            for kind in ["feed", "check"] {
                ledger.begin(kind);
                ledger.time(Layer::Core, "ingest", || ());
                ledger.end();
            }
        }
        assert_eq!(ledger.rounds.len(), 4);
        assert_eq!(ledger.untraced["feed"].len(), 2);
        assert_eq!(ledger.untraced["check"].len(), 2);
        assert!(ledger.rounds.iter().all(|r| r.spans.len() == 1));

        let mut quiet = Ledger::new(Instant::now(), 0, false);
        quiet.begin("feed");
        quiet.time(Layer::Core, "ingest", || ());
        quiet.end();
        assert!(quiet.rounds.is_empty());
    }
}
