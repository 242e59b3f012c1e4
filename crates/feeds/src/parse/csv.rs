//! CSV feed parsing, including a small RFC 4180 reader.
//!
//! Many OSINT feeds (abuse.ch trackers, phishing databases) publish CSV
//! with a header row. The reader implemented here handles quoted fields,
//! embedded commas, doubled-quote escapes and CRLF line endings — the
//! parts of RFC 4180 that occur in practice.

use cais_common::{Observable, ObservableKind, Timestamp};

use crate::{FeedError, FeedRecord, ThreatCategory};

/// Splits one CSV record (line) into fields, honoring quotes.
///
/// Returns `None` when the line has unbalanced quotes.
fn split_record(line: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        field.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' if field.is_empty() => in_quotes = true,
                ',' => {
                    fields.push(std::mem::take(&mut field));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return None;
    }
    fields.push(field);
    Some(fields)
}

/// Column roles recognized in a CSV header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Value,
    Timestamp,
    Description,
    Cve,
    Tag,
    Ignore,
}

fn header_role(name: &str) -> Role {
    match name.trim().to_ascii_lowercase().as_str() {
        "value" | "indicator" | "ioc" | "domain" | "ip" | "url" | "host" | "md5" | "sha1"
        | "sha256" | "hash" | "address" | "dst_ip" => Role::Value,
        "timestamp" | "date" | "firstseen" | "first_seen" | "dateadded" | "seen" => Role::Timestamp,
        "description" | "comment" | "malware" | "threat" | "notes" => Role::Description,
        "cve" | "cve_id" => Role::Cve,
        "tag" | "tags" | "type" | "status" => Role::Tag,
        _ => Role::Ignore,
    }
}

/// Parses a CSV feed with a header row into records.
///
/// The header determines column roles by name (`value`/`indicator`/
/// `domain`/… → indicator value; `date`/`firstseen` → timestamp;
/// `description`/`malware` → description; `cve` → CVE; `tags`/`type` →
/// tags). Rows whose value column does not parse as an observable are
/// skipped.
///
/// # Errors
///
/// Returns [`FeedError::Parse`] when the header has no value column or a
/// row has unbalanced quotes.
///
/// # Examples
///
/// ```
/// use cais_feeds::{parse::csv, ThreatCategory};
///
/// let payload = "\
/// firstseen,indicator,malware\n\
/// 2019-04-02,c2.evil.example,\"emotet, epoch 1\"\n";
/// let records = csv::parse(payload, "tracker", ThreatCategory::CommandAndControl)?;
/// assert_eq!(records[0].description.as_deref(), Some("emotet, epoch 1"));
/// # Ok::<(), cais_feeds::FeedError>(())
/// ```
pub fn parse(
    payload: &str,
    source: &str,
    category: ThreatCategory,
) -> Result<Vec<FeedRecord>, FeedError> {
    let now = Timestamp::now();
    let mut lines = payload
        .lines()
        .map(str::trim_end)
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'));
    let Some((header_idx, header_line)) = lines.next() else {
        return Ok(Vec::new());
    };
    let header = split_record(header_line)
        .ok_or_else(|| FeedError::parse(source, Some(header_idx + 1), "unbalanced quotes"))?;
    let roles: Vec<Role> = header.iter().map(|h| header_role(h)).collect();
    let value_col = roles
        .iter()
        .position(|r| *r == Role::Value)
        .ok_or_else(|| FeedError::parse(source, Some(header_idx + 1), "no value column"))?;

    let mut records = Vec::new();
    for (idx, line) in lines {
        let fields = split_record(line)
            .ok_or_else(|| FeedError::parse(source, Some(idx + 1), "unbalanced quotes"))?;
        let Some(raw_value) = fields.get(value_col) else {
            continue;
        };
        let Some(observable) = Observable::parse(raw_value) else {
            continue;
        };
        let mut record = FeedRecord::new(observable, category, source, now);
        for (field, role) in fields.iter().zip(&roles) {
            match role {
                Role::Timestamp => {
                    if let Ok(ts) = Timestamp::parse_rfc3339(field.trim()) {
                        record.seen_at = ts;
                    }
                }
                Role::Description if !field.trim().is_empty() => {
                    record.description = Some(field.trim().to_owned());
                }
                // A malformed CVE would fail the whole round at MISP
                // insert time, so only well-formed ids are kept.
                Role::Cve if ObservableKind::detect(field) == Some(ObservableKind::Cve) => {
                    record.cve = Some(field.trim().to_ascii_uppercase());
                }
                Role::Tag if !field.trim().is_empty() => {
                    record.tags.push(field.trim().to_owned());
                }
                _ => {}
            }
        }
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_handles_quotes_and_escapes() {
        assert_eq!(
            split_record(r#"a,"b,c","d""e",f"#).unwrap(),
            vec!["a", "b,c", "d\"e", "f"]
        );
        assert_eq!(
            split_record("plain,fields").unwrap(),
            vec!["plain", "fields"]
        );
        assert_eq!(split_record("").unwrap(), vec![""]);
        assert!(split_record(r#"a,"unbalanced"#).is_none());
    }

    #[test]
    fn parses_abuse_ch_style() {
        let payload = "\
# comment header kept by some trackers
firstseen,indicator,malware,status
2019-04-02T06:30:00Z,c2.evil.example,emotet,online
2019-04-03T10:00:00Z,203.0.113.9,trickbot,offline
";
        let records = parse(payload, "tracker", ThreatCategory::CommandAndControl).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].seen_at,
            Timestamp::parse_rfc3339("2019-04-02T06:30:00Z").unwrap()
        );
        assert_eq!(records[0].description.as_deref(), Some("emotet"));
        assert_eq!(records[1].tags, vec!["offline"]);
    }

    #[test]
    fn cve_column_is_captured() {
        let payload = "indicator,cve\nevil.example,cve-2017-9805\nbad.example,NOT-A-CVE\n";
        let records = parse(payload, "f", ThreatCategory::VulnerabilityExploitation).unwrap();
        assert_eq!(records[0].cve.as_deref(), Some("CVE-2017-9805"));
        // A malformed id is dropped; the row itself is kept.
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].cve, None);
    }

    #[test]
    fn missing_value_column_is_error() {
        let payload = "date,notes\n2019-01-01,hello\n";
        assert!(parse(payload, "f", ThreatCategory::Spam).is_err());
    }

    #[test]
    fn unparsable_rows_are_skipped() {
        let payload = "indicator\nnot-an-indicator\nevil.example\n";
        let records = parse(payload, "f", ThreatCategory::MalwareDomain).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn empty_payload_is_empty() {
        assert!(parse("", "f", ThreatCategory::Spam).unwrap().is_empty());
    }
}
