//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] scripts what goes wrong at named call sites ("feed:
//! abuse-ch", "taxii.frame", "misp.push"). Each site carries its own
//! mode — an explicit per-call script, a transient outage, a permanent
//! failure, a periodic drop, or a seeded failure rate — and its own
//! RNG stream derived from the plan seed and the site name, so the
//! fault sequence at one site never depends on how often other sites
//! are called. No wall clock is involved anywhere: the same plan over
//! the same call sequence injects byte-identical faults.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an injected fault does to one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The call fails outright: a fetch error, a dropped frame, a
    /// failed delivery.
    Error,
    /// The payload is replaced with garbage bytes, so the call succeeds
    /// at the transport level but fails to parse downstream.
    Garbage,
    /// The payload is cut short mid-stream.
    Truncate,
    /// The previous payload is replayed verbatim — a duplicate
    /// delivery the consumer's dedup must absorb.
    Replay,
    /// The operation is applied but its acknowledgement is lost: the
    /// caller observes an error even though the effect landed.
    /// Exercises idempotent re-delivery.
    AckLost,
    /// The call is delayed by this many *virtual* milliseconds;
    /// consumers route the delay to their injected sleeper.
    Delay(u32),
}

/// How one site decides whether a call faults.
#[derive(Debug)]
enum SiteMode {
    /// Explicit per-call script; `None` entries succeed. After the
    /// script is exhausted the site is healthy.
    Script(VecDeque<Option<FaultKind>>),
    /// The first `remaining` calls fault, then the site is healthy —
    /// a transient outage sized to (or past) a retry budget.
    FailFirst { remaining: u64, kind: FaultKind },
    /// Every call faults: a permanently dead peer.
    Always(FaultKind),
    /// Calls numbered `period`, `2·period`, … fault (1-based), like
    /// the classic flaky-source wrapper.
    EveryNth { period: u64, kind: FaultKind },
    /// Each call faults independently with probability `p`, drawn from
    /// the site's seeded RNG stream.
    Rate {
        p: f64,
        kind: FaultKind,
        rng: StdRng,
    },
}

#[derive(Debug, Default)]
struct SiteState {
    mode: Option<SiteMode>,
    calls: u64,
    injected: u64,
}

#[derive(Debug, Default)]
struct PlanInner {
    sites: HashMap<String, SiteState>,
}

/// A shareable, seeded fault-injection plan.
///
/// Cloning shares the underlying state: every component holding a
/// clone consumes from the same per-site scripts and counters.
///
/// # Examples
///
/// ```
/// use cais_common::resilience::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(42)
///     .fail_first("feed:a", 2, FaultKind::Error) // transient outage
///     .always("feed:dead", FaultKind::Error);    // permanently down
///
/// assert_eq!(plan.next("feed:a"), Some(FaultKind::Error));
/// assert_eq!(plan.next("feed:a"), Some(FaultKind::Error));
/// assert_eq!(plan.next("feed:a"), None); // recovered
/// assert_eq!(plan.next("feed:dead"), Some(FaultKind::Error));
/// assert_eq!(plan.injected("feed:a"), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    inner: Arc<Mutex<PlanInner>>,
}

impl FaultPlan {
    /// Creates an empty plan: every site is healthy until scripted.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            inner: Arc::new(Mutex::new(PlanInner::default())),
        }
    }

    /// A plan injecting nothing anywhere (still counts calls).
    pub fn healthy() -> Self {
        FaultPlan::new(0)
    }

    /// The seed the plan (and every per-site RNG stream) derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn set_mode(self, site: &str, mode: SiteMode) -> Self {
        {
            let mut inner = self.inner.lock().expect("fault plan poisoned");
            inner.sites.entry(site.to_owned()).or_default().mode = Some(mode);
        }
        self
    }

    /// Scripts the site call by call; `None` entries succeed, and the
    /// site is healthy once the script runs out.
    pub fn script(self, site: &str, faults: Vec<Option<FaultKind>>) -> Self {
        self.set_mode(site, SiteMode::Script(faults.into()))
    }

    /// The site's first `n` calls fault with `kind`, then it recovers.
    pub fn fail_first(self, site: &str, n: u64, kind: FaultKind) -> Self {
        self.set_mode(site, SiteMode::FailFirst { remaining: n, kind })
    }

    /// Every call at the site faults with `kind`.
    pub fn always(self, site: &str, kind: FaultKind) -> Self {
        self.set_mode(site, SiteMode::Always(kind))
    }

    /// Calls numbered `period`, `2·period`, … (1-based) fault.
    ///
    /// # Panics
    ///
    /// Panics when `period` is zero.
    pub fn every_nth(self, site: &str, period: u64, kind: FaultKind) -> Self {
        assert!(period > 0, "period must be positive");
        self.set_mode(site, SiteMode::EveryNth { period, kind })
    }

    /// Each call at the site faults independently with probability `p`,
    /// from an RNG stream seeded by the plan seed and the site name.
    pub fn rate(self, site: &str, p: f64, kind: FaultKind) -> Self {
        let rng = StdRng::seed_from_u64(self.seed ^ site_hash(site));
        self.set_mode(site, SiteMode::Rate { p, kind, rng })
    }

    /// Decides the next call at `site`: `None` means the call proceeds
    /// healthily. Unscripted sites always proceed (but are counted).
    pub fn next(&self, site: &str) -> Option<FaultKind> {
        let mut inner = self.inner.lock().expect("fault plan poisoned");
        let state = inner.sites.entry(site.to_owned()).or_default();
        state.calls += 1;
        let fault = match &mut state.mode {
            None => None,
            Some(SiteMode::Script(script)) => script.pop_front().flatten(),
            Some(SiteMode::FailFirst { remaining, kind }) => {
                if *remaining > 0 {
                    *remaining -= 1;
                    Some(*kind)
                } else {
                    None
                }
            }
            Some(SiteMode::Always(kind)) => Some(*kind),
            Some(SiteMode::EveryNth { period, kind }) => {
                if state.calls.is_multiple_of(*period) {
                    Some(*kind)
                } else {
                    None
                }
            }
            Some(SiteMode::Rate { p, kind, rng }) => {
                if rng.gen_bool(*p) {
                    Some(*kind)
                } else {
                    None
                }
            }
        };
        if fault.is_some() {
            state.injected += 1;
        }
        fault
    }

    /// How many calls the site has seen.
    pub fn calls(&self, site: &str) -> u64 {
        self.inner
            .lock()
            .expect("fault plan poisoned")
            .sites
            .get(site)
            .map_or(0, |s| s.calls)
    }

    /// How many faults the site has injected.
    pub fn injected(&self, site: &str) -> u64 {
        self.inner
            .lock()
            .expect("fault plan poisoned")
            .sites
            .get(site)
            .map_or(0, |s| s.injected)
    }

    /// Total faults injected across every site.
    pub fn total_injected(&self) -> u64 {
        self.inner
            .lock()
            .expect("fault plan poisoned")
            .sites
            .values()
            .map(|s| s.injected)
            .sum()
    }

    /// Every site the plan has scripted or seen, sorted by name.
    pub fn sites(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .lock()
            .expect("fault plan poisoned")
            .sites
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }
}

/// FNV-1a over the site name: stable, dependency-free, and good enough
/// to decorrelate per-site RNG streams. XOR it with a plan or run seed
/// to derive the per-site stream seed.
pub fn site_hash(site: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in site.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Applies a payload-shaped fault to a fetched payload. `previous` is
/// the last successfully served payload (for [`FaultKind::Replay`]).
/// Transport-shaped kinds (`Error`, `AckLost`, `Delay`) pass the
/// payload through unchanged — callers handle those before fetching.
pub fn mangle_payload(kind: FaultKind, payload: String, previous: Option<&str>) -> String {
    match kind {
        FaultKind::Garbage => "\u{1}\u{2}%%% injected garbage %%%\u{3}".to_owned(),
        FaultKind::Truncate => {
            let cut = payload
                .char_indices()
                .nth(payload.chars().count() / 2)
                .map_or(0, |(i, _)| i);
            payload[..cut].to_owned()
        }
        FaultKind::Replay => previous.map_or(payload, str::to_owned),
        FaultKind::Error | FaultKind::AckLost | FaultKind::Delay(_) => payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_consume_in_order_then_heal() {
        let plan = FaultPlan::new(1).script(
            "s",
            vec![Some(FaultKind::Garbage), None, Some(FaultKind::Error)],
        );
        assert_eq!(plan.next("s"), Some(FaultKind::Garbage));
        assert_eq!(plan.next("s"), None);
        assert_eq!(plan.next("s"), Some(FaultKind::Error));
        assert_eq!(plan.next("s"), None);
        assert_eq!(plan.calls("s"), 4);
        assert_eq!(plan.injected("s"), 2);
    }

    #[test]
    fn every_nth_matches_period_semantics() {
        let plan = FaultPlan::new(0).every_nth("s", 3, FaultKind::Error);
        let pattern: Vec<bool> = (0..6).map(|_| plan.next("s").is_some()).collect();
        assert_eq!(pattern, [false, false, true, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn every_nth_rejects_a_zero_period() {
        let _ = FaultPlan::new(0).every_nth("s", 0, FaultKind::Error);
    }

    #[test]
    fn rate_streams_are_deterministic_per_seed_and_site() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).rate("s", 0.5, FaultKind::Error);
            (0..32).map(|_| plan.next("s").is_some()).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        // Different sites under the same seed draw distinct streams.
        let plan =
            FaultPlan::new(9)
                .rate("a", 0.5, FaultKind::Error)
                .rate("b", 0.5, FaultKind::Error);
        let a: Vec<bool> = (0..32).map(|_| plan.next("a").is_some()).collect();
        let b: Vec<bool> = (0..32).map(|_| plan.next("b").is_some()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn rate_is_independent_of_other_sites_call_order() {
        let solo = FaultPlan::new(3).rate("x", 0.4, FaultKind::Error);
        let solo_seq: Vec<bool> = (0..16).map(|_| solo.next("x").is_some()).collect();
        let interleaved =
            FaultPlan::new(3)
                .rate("x", 0.4, FaultKind::Error)
                .rate("noise", 0.9, FaultKind::Error);
        let mut seq = Vec::new();
        for _ in 0..16 {
            let _ = interleaved.next("noise");
            seq.push(interleaved.next("x").is_some());
            let _ = interleaved.next("noise");
        }
        assert_eq!(solo_seq, seq);
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::new(0).fail_first("s", 1, FaultKind::Error);
        let other = plan.clone();
        assert_eq!(other.next("s"), Some(FaultKind::Error));
        assert_eq!(plan.next("s"), None);
        assert_eq!(plan.injected("s"), 1);
    }

    #[test]
    fn unscripted_sites_are_healthy_but_counted() {
        let plan = FaultPlan::healthy();
        assert_eq!(plan.next("anything"), None);
        assert_eq!(plan.calls("anything"), 1);
        assert_eq!(plan.total_injected(), 0);
        assert_eq!(plan.sites(), vec!["anything".to_owned()]);
    }

    #[test]
    fn mangle_covers_payload_kinds() {
        let truncated = mangle_payload(FaultKind::Truncate, "abcdef".into(), None);
        assert_eq!(truncated, "abc");
        let replayed = mangle_payload(FaultKind::Replay, "new".into(), Some("old"));
        assert_eq!(replayed, "old");
        // Replay with no history degrades to the fresh payload.
        assert_eq!(mangle_payload(FaultKind::Replay, "new".into(), None), "new");
        assert!(mangle_payload(FaultKind::Garbage, "x".into(), None).contains("garbage"));
        // Truncation respects multi-byte boundaries.
        let utf8 = mangle_payload(FaultKind::Truncate, "héllö wörld".into(), None);
        assert!(utf8.len() < "héllö wörld".len());
    }
}
