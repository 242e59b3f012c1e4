//! Minimal UUID implementation (random v4 and name-derived v5-style).
//!
//! STIX 2.0 object identifiers have the form `<type>--<uuid>` and MISP
//! events and attributes are keyed by UUIDs. This module provides exactly
//! what the workspace needs: random version-4 UUIDs, deterministic
//! name-derived UUIDs (for stable deduplication keys), parsing and
//! canonical hyphenated formatting.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A 128-bit universally unique identifier.
///
/// # Examples
///
/// ```
/// use cais_common::Uuid;
///
/// let a = Uuid::new_v4();
/// let b = Uuid::new_v4();
/// assert_ne!(a, b);
///
/// let parsed: Uuid = a.to_string().parse()?;
/// assert_eq!(parsed, a);
/// # Ok::<(), cais_common::UuidParseError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Uuid([u8; 16]);

impl Uuid {
    /// The nil UUID, `00000000-0000-0000-0000-000000000000`.
    pub const NIL: Uuid = Uuid([0; 16]);

    /// Creates a random version-4 UUID using the thread-local RNG.
    pub fn new_v4() -> Self {
        let mut bytes = [0u8; 16];
        rand::Rng::fill(&mut rand::thread_rng(), &mut bytes);
        Uuid::from_random_bytes(bytes)
    }

    /// Creates a version-4 UUID from caller-supplied random bytes.
    ///
    /// The version and variant bits are overwritten as RFC 4122 requires,
    /// so any byte source (including a seeded RNG, for reproducible
    /// simulations) yields a well-formed UUID.
    pub fn from_random_bytes(mut bytes: [u8; 16]) -> Self {
        bytes[6] = (bytes[6] & 0x0f) | 0x40; // version 4
        bytes[8] = (bytes[8] & 0x3f) | 0x80; // RFC 4122 variant
        Uuid(bytes)
    }

    /// Creates a deterministic UUID derived from a name.
    ///
    /// This plays the role of RFC 4122 version-5 UUIDs: equal names always
    /// produce equal UUIDs, so it is suitable for content-addressed
    /// identifiers (for example, deduplication keys for identical feed
    /// records). The digest is a 128-bit FNV-1a variant rather than SHA-1;
    /// the workspace only relies on determinism and dispersion, not on
    /// cryptographic strength.
    ///
    /// # Examples
    ///
    /// ```
    /// use cais_common::Uuid;
    /// let a = Uuid::new_v5("indicator:198.51.100.7");
    /// let b = Uuid::new_v5("indicator:198.51.100.7");
    /// assert_eq!(a, b);
    /// assert_ne!(a, Uuid::new_v5("indicator:198.51.100.8"));
    /// ```
    pub fn new_v5(name: &str) -> Self {
        // Two independent 64-bit FNV-1a streams with distinct offsets give
        // a well-dispersed 128-bit digest.
        const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
        const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut a = OFFSET_A;
        let mut b = OFFSET_B;
        for &byte in name.as_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
            b = (b ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
            b = b.rotate_left(17);
        }
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&a.to_be_bytes());
        bytes[8..].copy_from_slice(&b.to_be_bytes());
        bytes[6] = (bytes[6] & 0x0f) | 0x50; // version 5
        bytes[8] = (bytes[8] & 0x3f) | 0x80;
        Uuid(bytes)
    }

    /// Returns the raw big-endian bytes.
    pub const fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Returns the RFC 4122 version number encoded in this UUID.
    pub const fn version(&self) -> u8 {
        self.0[6] >> 4
    }

    /// Returns `true` if this is the nil UUID.
    pub fn is_nil(&self) -> bool {
        self.0 == [0; 16]
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 36];
        let mut pos = 0;
        for (i, &byte) in self.0.iter().enumerate() {
            if matches!(i, 4 | 6 | 8 | 10) {
                out[pos] = b'-';
                pos += 1;
            }
            out[pos] = HEX[usize::from(byte >> 4)];
            out[pos + 1] = HEX[usize::from(byte & 0x0f)];
            pos += 2;
        }
        // All bytes written are ASCII.
        f.write_str(std::str::from_utf8(&out).expect("ascii"))
    }
}

impl FromStr for Uuid {
    type Err = UuidParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || UuidParseError::new(s);
        let bytes = s.as_bytes();
        if bytes.len() != 36 {
            return Err(err());
        }
        let mut out = [0u8; 16];
        let mut oi = 0;
        let mut i = 0;
        while i < 36 {
            if matches!(i, 8 | 13 | 18 | 23) {
                if bytes[i] != b'-' {
                    return Err(err());
                }
                i += 1;
                continue;
            }
            let hi = hex_val(bytes[i]).ok_or_else(err)?;
            let lo = hex_val(bytes[i + 1]).ok_or_else(err)?;
            out[oi] = (hi << 4) | lo;
            oi += 1;
            i += 2;
        }
        Ok(Uuid(out))
    }
}

impl Serialize for Uuid {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for Uuid {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Error returned when a UUID string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UuidParseError {
    input: String,
}

impl UuidParseError {
    fn new(input: &str) -> Self {
        UuidParseError {
            input: input.to_owned(),
        }
    }

    /// The input that failed to parse.
    pub fn input(&self) -> &str {
        &self.input
    }
}

impl fmt::Display for UuidParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid UUID: {:?}", self.input)
    }
}

impl std::error::Error for UuidParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn v4_has_version_and_variant_bits() {
        for _ in 0..64 {
            let u = Uuid::new_v4();
            assert_eq!(u.version(), 4);
            assert_eq!(u.as_bytes()[8] & 0xc0, 0x80);
        }
    }

    #[test]
    fn v4_uuids_are_distinct() {
        let set: HashSet<Uuid> = (0..1_000).map(|_| Uuid::new_v4()).collect();
        assert_eq!(set.len(), 1_000);
    }

    #[test]
    fn v4_uuids_drawn_concurrently_are_distinct() {
        let start = std::sync::Barrier::new(4);
        let distinct: HashSet<Uuid> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..100_000).map(|_| Uuid::new_v4()).collect::<Vec<_>>()
                    })
                })
                .collect();
            let drawn = workers.into_iter();
            drawn
                .flat_map(|w| w.join().expect("uuid worker panicked"))
                .collect()
        });
        assert_eq!(distinct.len(), 400_000);
    }

    #[test]
    fn display_format_is_canonical() {
        let u = Uuid([
            0x55, 0x0e, 0x84, 0x00, 0xe2, 0x9b, 0x41, 0xd4, 0xa7, 0x16, 0x44, 0x66, 0x55, 0x44,
            0x00, 0x00,
        ]);
        assert_eq!(u.to_string(), "550e8400-e29b-41d4-a716-446655440000");
    }

    #[test]
    fn parse_roundtrip() {
        let u = Uuid::new_v4();
        let parsed: Uuid = u.to_string().parse().unwrap();
        assert_eq!(parsed, u);
        // Uppercase input is accepted.
        let upper: Uuid = u.to_string().to_uppercase().parse().unwrap();
        assert_eq!(upper, u);
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in [
            "",
            "550e8400e29b41d4a716446655440000",
            "550e8400-e29b-41d4-a716-44665544000",
            "550e8400-e29b-41d4-a716-4466554400000",
            "550e8400_e29b_41d4_a716_446655440000",
            "zzze8400-e29b-41d4-a716-446655440000",
        ] {
            assert!(Uuid::from_str(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn v5_is_deterministic_and_disperses() {
        let a = Uuid::new_v5("misp-event:1");
        assert_eq!(a, Uuid::new_v5("misp-event:1"));
        assert_eq!(a.version(), 5);
        let set: HashSet<Uuid> = (0..1_000).map(|i| Uuid::new_v5(&format!("n{i}"))).collect();
        assert_eq!(set.len(), 1_000);
    }

    #[test]
    fn nil_is_nil() {
        assert!(Uuid::NIL.is_nil());
        assert!(!Uuid::new_v4().is_nil());
        assert_eq!(
            Uuid::NIL.to_string(),
            "00000000-0000-0000-0000-000000000000"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let u = Uuid::new_v4();
        let json = serde_json::to_string(&u).unwrap();
        let back: Uuid = serde_json::from_str(&json).unwrap();
        assert_eq!(back, u);
    }

    #[test]
    fn seeded_random_bytes_are_reproducible() {
        use rand::{Rng, SeedableRng};
        let mut r1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        r1.fill(&mut b1);
        r2.fill(&mut b2);
        assert_eq!(Uuid::from_random_bytes(b1), Uuid::from_random_bytes(b2));
    }
}
