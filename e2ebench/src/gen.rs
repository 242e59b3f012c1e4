//! Seeded inputs: the fleet inventory, the CVE pool and the feed mix.
//!
//! Every input is a pure function of the seed. The generator keeps its
//! own SplitMix64 stream and never iterates a `HashMap`: CVE ids are
//! taken from the context database and sorted by id first, so two
//! processes given one seed produce byte-identical records.

use cais_common::{Observable, ObservableKind, Timestamp};
use cais_cvss::CveDatabase;
use cais_feeds::{FeedRecord, ThreatCategory};
use cais_infra::inventory::{Inventory, NodeType};

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose, so adding draws to one
    /// stream never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut root = Rng::new(seed);
        for _ in 0..=purpose % 7 {
            root.next_u64();
        }
        Rng(root.next_u64() ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over everything the platform is handed, printed per run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn records(&mut self, records: &[FeedRecord]) {
        for record in records {
            self.update(format!("{record:?}\n").as_bytes());
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Software installed across the fleet. Advisories naming one of these
/// reduce to rIoCs.
pub const FLEET_PRODUCTS: &[&str] = &[
    "apache struts",
    "apache kafka",
    "apache zookeeper",
    "gitlab",
    "nextcloud",
    "suricata",
    "wazuh agent",
    "nginx",
    "haproxy",
    "postgresql",
    "mysql server",
    "redis",
    "memcached",
    "rabbitmq",
    "elasticsearch",
    "kibana",
    "grafana",
    "docker engine",
    "kubernetes kubelet",
    "openssh server",
    "openssl",
    "tomcat",
    "jenkins",
    "wordpress",
    "drupal core",
    "samba",
    "postfix",
    "squid proxy",
];

/// Software nobody in the fleet runs: advisories naming it stay eIoCs.
pub const FOREIGN_PRODUCTS: &[&str] = &[
    "acme widgetserver",
    "contoso intranet",
    "globex erp",
    "initech tps",
    "umbrella lims",
    "hooli chat",
    "vandelay importer",
    "wonka conveyor",
];

const OS_POOL: &[&str] = &["ubuntu", "debian", "centos", "alpine", "freebsd"];

/// A fleet of `nodes` machines with 4–9 applications each, on network
/// segments of eight. Node `i` installs product `i` of the pool first,
/// so every fleet product is installed somewhere.
pub fn fleet(seed: u64, nodes: usize) -> Inventory {
    let mut rng = Rng::stream(seed, 1);
    let mut builder = Inventory::builder();
    for i in 0..nodes {
        let node_type = if i % 4 == 0 {
            NodeType::Workstation
        } else {
            NodeType::Server
        };
        let mut node = builder.node(format!("fleet-{i}"), node_type, *rng.pick(OS_POOL));
        node.ip(format!("10.{}.{}.{}", i / 65_536, (i / 256) % 256, i % 256));
        // Segments of eight: the dashboard derives a link per pair of
        // nodes sharing a network, so one flat LAN would mean ~500k links.
        node.network(format!("lan-{}", i / 8));
        node.application(FLEET_PRODUCTS[i % FLEET_PRODUCTS.len()]);
        for _ in 0..3 + rng.below(6) {
            node.application(*rng.pick(FLEET_PRODUCTS));
        }
    }
    builder.build()
}

/// CVE ids for fresh advisories: the database's ids sorted, then
/// synthetic ids past its end once those run out.
pub fn cve_pool(db: &CveDatabase) -> Vec<String> {
    let mut ids: Vec<String> = db.iter().map(|r| r.id.to_string()).collect();
    ids.sort();
    ids
}

/// How one feed round is composed: a count per record class, so every
/// round of a workload has the same shape and only the values vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// New network indicators with threat language.
    pub network: usize,
    /// New advisories naming fleet software (they reduce to rIoCs).
    pub fleet_advisories: usize,
    /// New advisories naming software nobody runs.
    pub foreign_advisories: usize,
    /// Records whose description carries no threat language (the NLP
    /// filter drops them).
    pub chatter: usize,
    /// Records whose value is on a warninglist (reserved domains,
    /// private and documentation addresses, public resolvers).
    pub benign: usize,
    /// Re-reports of indicators from earlier rounds (duplicates).
    pub repeats: usize,
    /// Cross-feed copies of this round's new records (duplicates).
    pub overlap: usize,
}

impl Mix {
    pub fn records(&self) -> usize {
        self.fresh() + self.chatter + self.benign + self.repeats + self.overlap
    }

    pub fn fresh(&self) -> usize {
        self.network + self.fleet_advisories + self.foreign_advisories
    }

    /// Target share of records the filters drop.
    pub fn filter_share(&self) -> f64 {
        (self.chatter + self.benign) as f64 / self.records() as f64
    }

    /// Target share of records dropped as duplicates.
    pub fn duplicate_share(&self) -> f64 {
        (self.repeats + self.overlap) as f64 / self.records() as f64
    }

    /// Target share of records that are fleet-matching advisories.
    pub fn fleet_share(&self) -> f64 {
        self.fleet_advisories as f64 / self.records() as f64
    }
}

const TLDS: &[&str] = &["com", "net", "org", "ru", "info", "xyz", "io", "top"];
const SYLLABLES: &[&str] = &[
    "ka", "zu", "mo", "rei", "tan", "vo", "lex", "qui", "dar", "nim", "sol", "pek", "ur", "yon",
];
const HOSTS: &[&str] = &[
    "cdn", "login", "mail", "update", "static", "api", "secure", "files",
];
const FEEDS: &[&str] = &["abuse-feed", "osint-c2", "phish-watch", "hash-share"];
const ADVISORY_FEEDS: &[&str] = &["nvd-mirror", "vendor-advisories"];
const WEAKNESSES: &[&str] = &[
    "remote code execution",
    "privilege escalation",
    "sql injection",
    "code execution",
];
const CHATTER: &[&str] = &[
    "weekly roundup of hosting news mentions",
    "conference schedule published at",
    "new office opening announced on",
    "quarterly newsletter archive moved to",
];
const RESERVED: &[&str] = &[
    "portal.example",
    "intranet.test",
    "mail.invalid",
    "192.168.1.20",
    "10.0.0.5",
    "8.8.8.8",
    "1.1.1.1",
    "198.51.100.7",
];

/// The feed stream: every round is a pure function of the seed and the
/// rounds before it.
#[derive(Debug)]
pub struct FeedGen {
    rng: Rng,
    now: Timestamp,
    cves: Vec<String>,
    next_cve: usize,
    serial: u64,
    /// Every new record handed out so far, for re-reports.
    history: Vec<FeedRecord>,
    /// Registered-domain labels of the network indicators handed out,
    /// for the consumers' search terms.
    labels: Vec<String>,
}

impl FeedGen {
    pub fn new(seed: u64, now: Timestamp, cves: Vec<String>) -> Self {
        FeedGen {
            rng: Rng::stream(seed, 2),
            now,
            cves,
            next_cve: 0,
            serial: 0,
            history: Vec::new(),
            labels: Vec::new(),
        }
    }

    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    fn first_seen(&mut self) -> Timestamp {
        // Up to five days old: young enough that only low-scoring
        // indicators arrive expired.
        self.now
            .add_millis(-(self.rng.below(5 * 86_400_000) as i64) - 60_000)
    }

    fn label(&mut self) -> String {
        self.serial += 1;
        let a = *self.rng.pick(SYLLABLES);
        let b = *self.rng.pick(SYLLABLES);
        // Fixed-width serials: no label is a substring of another, so
        // a substring search for one finds only its own indicators.
        format!("{a}{b}{:06}", self.serial)
    }

    fn apex(&mut self) -> (String, String) {
        let label = self.label();
        let tld = *self.rng.pick(TLDS);
        let apex = format!("{label}.{tld}");
        (label, apex)
    }

    fn public_ip(&mut self) -> String {
        // First octets 11–99 avoid every private, reserved and
        // documentation range the warninglists know.
        format!(
            "{}.{}.{}.{}",
            11 + self.rng.below(89),
            self.rng.below(256),
            self.rng.below(256),
            1 + self.rng.below(254)
        )
    }

    fn sha256(&mut self) -> String {
        let mut out = String::with_capacity(64);
        // A leading letter keeps all-digit hex out of the pool.
        out.push((b'a' + self.rng.below(6) as u8) as char);
        while out.len() < 64 {
            out.push_str(&format!("{:016x}", self.rng.next_u64()));
        }
        out.truncate(64);
        out
    }

    /// A new network indicator of shape `shape` (0–4); domains and URLs
    /// hang off `apex`.
    fn network(&mut self, shape: usize, apex: &str) -> FeedRecord {
        self.serial += 1;
        let serial = self.serial;
        let (kind, value, category, what) = match shape {
            0 => (
                ObservableKind::Domain,
                format!("{}{serial}.{apex}", self.rng.pick(HOSTS)),
                ThreatCategory::MalwareDomain,
                "malware distribution host",
            ),
            1 => (
                ObservableKind::Url,
                format!(
                    "http://{}.{apex}/{}/{serial}",
                    self.rng.pick(HOSTS),
                    self.rng.pick(HOSTS)
                ),
                ThreatCategory::Phishing,
                "phishing page harvesting credentials",
            ),
            2 => (
                ObservableKind::Ipv4,
                self.public_ip(),
                ThreatCategory::CommandAndControl,
                "botnet command server",
            ),
            3 => (
                ObservableKind::Sha256,
                self.sha256(),
                ThreatCategory::MalwareSample,
                "trojan dropper sample",
            ),
            _ => (
                ObservableKind::Domain,
                format!("pay{serial}.{apex}"),
                ThreatCategory::Ransomware,
                "ransomware payment portal",
            ),
        };
        let source = *self.rng.pick(FEEDS);
        let first_seen = self.first_seen();
        // The bracketed lead token is not a bare word, so records are
        // never correlated by description alone.
        FeedRecord::new(Observable::new(kind, &value), category, source, first_seen)
            .with_description(format!("[{source}] {what} {value}"))
    }

    fn advisory(&mut self, product: &str) -> FeedRecord {
        let cve = match self.cves.get(self.next_cve) {
            Some(id) => id.clone(),
            None => format!("CVE-2031-{}", 100_000 + self.next_cve),
        };
        self.next_cve += 1;
        let weakness = *self.rng.pick(WEAKNESSES);
        let source = *self.rng.pick(ADVISORY_FEEDS);
        let first_seen = self.first_seen();
        FeedRecord::new(
            Observable::new(ObservableKind::Cve, &cve),
            ThreatCategory::VulnerabilityExploitation,
            source,
            first_seen,
        )
        .with_cve(&cve)
        .with_description(format!(
            "[{cve}] {weakness} in {product} exploited in the wild"
        ))
    }

    fn chatter(&mut self) -> FeedRecord {
        let (_, apex) = self.apex();
        let value = format!("news.{apex}");
        let first_seen = self.first_seen();
        FeedRecord::new(
            Observable::new(ObservableKind::Domain, &value),
            ThreatCategory::MalwareDomain,
            "blog-digest",
            first_seen,
        )
        .with_description(format!("[blog-digest] {} {value}", self.rng.pick(CHATTER)))
    }

    fn benign(&mut self) -> FeedRecord {
        let value = *self.rng.pick(RESERVED);
        let kind = ObservableKind::detect(value).expect("reserved values are observables");
        let category = if kind == ObservableKind::Domain {
            ThreatCategory::MalwareDomain
        } else {
            ThreatCategory::Scanner
        };
        let first_seen = self.first_seen();
        FeedRecord::new(
            Observable::new(kind, value),
            category,
            "osint-c2",
            first_seen,
        )
        .with_description(format!("[osint-c2] botnet scanner seen at {value}"))
    }

    fn copy_from(&mut self, record: &FeedRecord, feeds: &[&str]) -> FeedRecord {
        let mut copy = record.clone();
        copy.source = (*self.rng.pick(feeds)).to_owned();
        copy
    }

    /// One feed round of exactly `mix.records()` records, shuffled.
    pub fn round(&mut self, mix: &Mix) -> Vec<FeedRecord> {
        let mut fresh = Vec::with_capacity(mix.fresh());
        let mut apexes: Vec<String> = Vec::new();
        for i in 0..mix.network {
            // Shapes take turns, so every round carries the same number
            // of each. Domains and URLs hang off a registered domain;
            // every fourth of those reuses the one before it, and the
            // two correlate into one cIoC.
            let shape = i % 5;
            let apex = if matches!(shape, 2 | 3) {
                String::new()
            } else if i % 4 == 3 && !apexes.is_empty() {
                apexes.last().cloned().unwrap_or_default()
            } else {
                let (label, apex) = self.apex();
                self.labels.push(label);
                apexes.push(apex.clone());
                apex
            };
            let record = self.network(shape, &apex);
            fresh.push(record);
        }
        for _ in 0..mix.fleet_advisories {
            let product = *self.rng.pick(FLEET_PRODUCTS);
            let record = self.advisory(product);
            fresh.push(record);
        }
        for _ in 0..mix.foreign_advisories {
            let product = *self.rng.pick(FOREIGN_PRODUCTS);
            let record = self.advisory(product);
            fresh.push(record);
        }
        let mut round = fresh.clone();
        for _ in 0..mix.chatter {
            let record = self.chatter();
            round.push(record);
        }
        for _ in 0..mix.benign {
            let record = self.benign();
            round.push(record);
        }
        for _ in 0..mix.repeats {
            // Before any history exists, repeat this round's records.
            let source = if self.history.is_empty() {
                self.rng.pick(&fresh).clone()
            } else {
                self.rng.pick(&self.history).clone()
            };
            let record = self.copy_from(&source, FEEDS);
            round.push(record);
        }
        for _ in 0..mix.overlap {
            let source = self.rng.pick(&fresh).clone();
            let record = self.copy_from(&source, ADVISORY_FEEDS);
            round.push(record);
        }
        self.history.extend(fresh);
        self.rng.shuffle(&mut round);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> FeedGen {
        let now = Timestamp::from_ymd_hms(2019, 6, 1, 0, 0, 0);
        FeedGen::new(
            seed,
            now,
            vec!["CVE-2019-0001".into(), "CVE-2019-0002".into()],
        )
    }

    const MIX: Mix = Mix {
        network: 20,
        fleet_advisories: 10,
        foreign_advisories: 4,
        chatter: 6,
        benign: 6,
        repeats: 5,
        overlap: 5,
    };

    #[test]
    fn rounds_are_pure_functions_of_the_seed() {
        let (mut a, mut b) = (gen(9), gen(9));
        for _ in 0..3 {
            assert_eq!(a.round(&MIX), b.round(&MIX));
        }
        assert_ne!(gen(9).round(&MIX), gen(10).round(&MIX));
        assert_eq!(gen(9).round(&MIX).len(), MIX.records());
    }

    #[test]
    fn only_advisories_name_fleet_software() {
        let inventory = fleet(3, 60);
        let apps = inventory.all_applications();
        assert_eq!(apps.len(), FLEET_PRODUCTS.len());
        let mut g = gen(4);
        for record in g.round(&MIX) {
            let text = record.description.clone().unwrap_or_default();
            let names_fleet = apps.iter().any(|app| text.contains(app));
            let fleet_advisory = record.cve.is_some()
                && FLEET_PRODUCTS.iter().any(|p| text.contains(p))
                && !FOREIGN_PRODUCTS.iter().any(|p| text.contains(p));
            assert_eq!(names_fleet, fleet_advisory, "{text}");
        }
    }

    #[test]
    fn filters_drop_exactly_the_chatter_and_benign_classes() {
        let classifier = cais_nlp::ThreatClassifier::new();
        let mut g = gen(5);
        let round = g.round(&MIX);
        let irrelevant = round
            .iter()
            .filter(|r| {
                !classifier
                    .classify(r.description.as_deref().unwrap())
                    .is_relevant()
            })
            .count();
        let benign = round
            .iter()
            .filter(|r| cais_misp::warninglist::check_observable(&r.observable).is_some())
            .count();
        assert_eq!(irrelevant, MIX.chatter);
        assert_eq!(benign, MIX.benign);
    }
}
