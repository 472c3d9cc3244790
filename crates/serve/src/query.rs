//! Strict query-string parsing for the projection endpoints.
//!
//! The cost models silently clamp or panic on out-of-range inputs (see
//! the pinned tests in `twocs-core::overlapped`), so the service layer
//! validates aggressively instead: percent-decoding errors, duplicate
//! keys, unparsable numbers, and **unknown parameter names** are all
//! rejected with a message suitable for a `400` body — a typo like
//! `?hs=4096` fails loudly rather than silently sweeping the default
//! grid. Values are only parsed here; range rules belong to each
//! endpoint's validator, and the sweep endpoints read their lists
//! through `GridSweep::parse_request`, the parser `twocs sweep` uses.

/// Parsed `key=value` pairs of one query string.
#[derive(Debug, Clone, Default)]
pub struct Query {
    pairs: Vec<(String, String)>,
}

impl Query {
    /// Parse a raw query string (without the leading `?`).
    ///
    /// Splits on `&`, percent-decodes keys and values, treats `+` as a
    /// space, and rejects duplicate keys.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for part in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = part.split_once('=').unwrap_or((part, ""));
            let k = percent_decode(k)?;
            let v = percent_decode(v)?;
            if pairs.iter().any(|(existing, _)| *existing == k) {
                return Err(format!("duplicate parameter `{k}`"));
            }
            pairs.push((k, v));
        }
        Ok(Self { pairs })
    }

    /// The raw string value of `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Fail on any parameter name outside `allowed` — typos must not
    /// silently fall back to defaults.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "unknown query parameter `{k}` (expected one of: {})",
                    allowed.join(", ")
                ));
            }
        }
        Ok(())
    }

    /// `name` as a `u64`, if present.
    pub fn u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value `{v}` for `{name}` (expected an integer)"))
            })
            .transpose()
    }

    /// `name` as an `f64`, if present. Only parses: `nan` and `inf` come
    /// through, for the endpoint's validator to reject with its own
    /// message.
    pub fn f64(&self, name: &str) -> Result<Option<f64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value `{v}` for `{name}` (expected a number)"))
            })
            .transpose()
    }
}

/// Decode `%XX` escapes and `+` (space) per the HTML form convention.
fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated percent-escape in `{s}`"))?;
                let hi = hex_val(hex[0]).ok_or_else(|| format!("bad percent-escape in `{s}`"))?;
                let lo = hex_val(hex[1]).ok_or_else(|| format!("bad percent-escape in `{s}`"))?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent-escapes in `{s}` are not UTF-8"))
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typed_values() {
        let q = Query::parse("h=4096,16384&tp=16&flop_vs_bw=1.5&method=proj").unwrap();
        assert_eq!(q.get("h"), Some("4096,16384"));
        assert_eq!(q.u64("tp").unwrap(), Some(16));
        assert_eq!(q.f64("flop_vs_bw").unwrap(), Some(1.5));
        assert_eq!(q.get("method"), Some("proj"));
        assert_eq!(q.u64("absent").unwrap(), None);
    }

    #[test]
    fn percent_decoding_roundtrips() {
        let q = Query::parse("h=4096%2C8192&name=a+b%21").unwrap();
        assert_eq!(q.get("h"), Some("4096,8192"));
        assert_eq!(q.get("name"), Some("a b!"));
    }

    #[test]
    fn rejects_duplicates_bad_numbers_and_escapes() {
        assert!(Query::parse("h=1&h=2").unwrap_err().contains("duplicate"));
        assert!(Query::parse("h=%zz").is_err());
        assert!(Query::parse("h=%4").is_err());
        let q = Query::parse("h=abc&r=x").unwrap();
        assert!(q.u64("h").is_err());
        assert!(q.f64("r").is_err());
        // Numbers only parse: each endpoint's validator owns the
        // finiteness rule.
        let q = Query::parse("r=nan&s=inf").unwrap();
        assert!(q.f64("r").unwrap().unwrap().is_nan());
        assert!(q.f64("s").unwrap().unwrap().is_infinite());
    }

    #[test]
    fn unknown_parameters_fail_loudly() {
        let q = Query::parse("hs=4096").unwrap();
        let err = q.reject_unknown(&["h", "sl", "tp"]).unwrap_err();
        assert!(err.contains("unknown query parameter `hs`"), "{err}");
        assert!(err.contains("h, sl, tp"), "{err}");
        assert!(Query::parse("h=1").unwrap().reject_unknown(&["h"]).is_ok());
    }
}
