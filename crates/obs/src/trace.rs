//! Dependency-free JSON machinery for the structured trace journal.
//!
//! The trace journal is JSONL: one self-contained JSON object per line,
//! one line per commit (`blast stream --trace out.jsonl`). This module
//! owns the encoding primitives — [`JsonObject`] builds a flat object
//! field by field, [`escape_json`] handles string escaping, and
//! [`is_valid_json`] is the validating scanner the tests (and the CI
//! schema check) lean on. No serde: the rest of the workspace hand-rolls
//! its JSON too, and the journal schema is flat enough that a builder is
//! clearer than a derive.

use std::fmt::Write as _;

/// Escapes `s` for placement inside a JSON string literal (quotes not
/// included).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Builder for one flat JSON object — a trace-journal event line.
///
/// Fields are emitted in insertion order. Values are rendered eagerly, so
/// the builder is a thin `String` wrapper with no intermediate tree.
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object (`{}` until fields are added).
    pub fn new() -> Self {
        Self::default()
    }

    fn push_key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{}\": ", escape_json(key));
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        self.push_key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a signed integer field.
    pub fn field_i64(mut self, key: &str, value: i64) -> Self {
        self.push_key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a float field with six decimal places (the journal's timing
    /// precision: microsecond resolution on second-scale values). Non-finite
    /// values are encoded as `null` — JSON has no Inf/NaN.
    pub fn field_f64(mut self, key: &str, value: f64) -> Self {
        self.push_key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value:.6}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds a string field (escaped).
    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        self.push_key(key);
        let _ = write!(self.body, "\"{}\"", escape_json(value));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(mut self, key: &str, value: bool) -> Self {
        self.push_key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim (nested object/array built
    /// elsewhere, e.g. [`crate::CommitPhases::to_json`]). The caller
    /// vouches that `raw` is valid JSON.
    pub fn field_raw(mut self, key: &str, raw: &str) -> Self {
        self.push_key(key);
        self.body.push_str(raw);
        self
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A small validating JSON scanner: returns whether `s` is exactly one
/// well-formed JSON value. Used by the journal tests; CI re-validates the
/// emitted files with a real parser. Accepts the full grammar (objects,
/// arrays, strings with escapes, numbers, literals); rejects trailing
/// garbage, trailing commas, unterminated strings, and bad escapes.
pub fn is_valid_json(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    if !parse_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, b"true"),
        Some(b'f') => parse_literal(b, pos, b"false"),
        Some(b'n') => parse_literal(b, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => parse_number(b, pos),
        _ => false,
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') || !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    if *pos + 6 > b.len()
                        || !b[*pos + 2..*pos + 6].iter().all(u8::is_ascii_hexdigit)
                    {
                        return false;
                    }
                    *pos += 6;
                }
                _ => return false,
            },
            0x00..=0x1f => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: "0" or [1-9][0-9]*.
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return false,
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    *pos > start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_json() {
        let line = JsonObject::new()
            .field_u64("seq", 3)
            .field_str("tier", "dirty")
            .field_f64("decision_secs", 0.000123456789)
            .field_i64("delta", -4)
            .field_bool("degraded", false)
            .field_raw("phases", "{\"index_maintenance_secs\": 0.000001}")
            .finish();
        assert!(is_valid_json(&line), "{line}");
        assert!(line.starts_with("{\"seq\": 3"));
        assert!(line.contains("\"tier\": \"dirty\""));
        assert!(line.contains("\"decision_secs\": 0.000123"));
        assert!(line.contains("\"degraded\": false"));
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert!(is_valid_json("{}"));
    }

    #[test]
    fn escaping_covers_control_and_quote_chars() {
        let s = escape_json("a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
        let line = JsonObject::new().field_str("k", "a\"b\\c\nd").finish();
        assert!(is_valid_json(&line), "{line}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = JsonObject::new()
            .field_f64("inf", f64::INFINITY)
            .field_f64("nan", f64::NAN)
            .finish();
        assert_eq!(line, "{\"inf\": null, \"nan\": null}");
        assert!(is_valid_json(&line));
    }

    #[test]
    fn scanner_accepts_the_grammar() {
        for good in [
            "{}",
            "[]",
            "[1, 2.5, -3e-4, \"x\", true, false, null]",
            "{\"a\": {\"b\": [1]}, \"c\": \"\\u0041\"}",
            "  42  ",
            "\"\"",
            "0.5",
            "-0",
        ] {
            assert!(is_valid_json(good), "rejected {good}");
        }
    }

    #[test]
    fn scanner_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2,]",
            "{\"a\" 1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "01",
            "1.",
            "1e",
            "--1",
            "{} trailing",
            "nul",
            "{'a': 1}",
        ] {
            assert!(!is_valid_json(bad), "accepted {bad}");
        }
    }
}
