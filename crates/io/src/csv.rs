//! A minimal RFC-4180 CSV reader/writer.
//!
//! Supports quoted fields containing separators, newlines and escaped
//! quotes (`""`). Kept dependency-free on purpose: the workspace builds
//! offline, and its only external dependencies are the stand-ins vendored
//! under `vendor/` (see `README.md`, "Workspace layout").

use std::io::{self, BufRead, Write};

/// Parses one CSV record from `input` starting at `pos`, appending fields
/// to `fields`. Returns the position after the record (past the newline),
/// or `None` when `pos` is at end of input.
fn parse_record(input: &str, mut pos: usize, fields: &mut Vec<String>) -> Option<usize> {
    let bytes = input.as_bytes();
    if pos >= bytes.len() {
        return None;
    }
    fields.clear();
    let mut field = String::new();
    let mut in_quotes = false;
    while pos < bytes.len() {
        let c = bytes[pos];
        if in_quotes {
            match c {
                b'"' => {
                    if bytes.get(pos + 1) == Some(&b'"') {
                        field.push('"');
                        pos += 2;
                    } else {
                        in_quotes = false;
                        pos += 1;
                    }
                }
                _ => {
                    // Copy the full UTF-8 character.
                    let ch_len = utf8_len(c);
                    field.push_str(&input[pos..pos + ch_len]);
                    pos += ch_len;
                }
            }
        } else {
            match c {
                b'"' if field.is_empty() => {
                    in_quotes = true;
                    pos += 1;
                }
                b',' => {
                    fields.push(std::mem::take(&mut field));
                    pos += 1;
                }
                b'\r' => {
                    pos += 1; // swallow; \n handled next
                }
                b'\n' => {
                    pos += 1;
                    fields.push(std::mem::take(&mut field));
                    return Some(pos);
                }
                _ => {
                    let ch_len = utf8_len(c);
                    field.push_str(&input[pos..pos + ch_len]);
                    pos += ch_len;
                }
            }
        }
    }
    fields.push(field);
    Some(pos)
}

#[inline]
fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parses a whole CSV document into records.
pub fn parse(input: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut pos = 0;
    let mut fields = Vec::new();
    while let Some(next) = parse_record(input, pos, &mut fields) {
        // Skip completely empty trailing lines.
        if !(fields.len() == 1 && fields[0].is_empty()) {
            records.push(fields.clone());
        }
        pos = next;
    }
    records
}

/// Reads and parses a CSV document from a buffered reader.
pub fn read(reader: &mut impl BufRead) -> io::Result<Vec<Vec<String>>> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    Ok(parse(&buf))
}

/// Quotes a field if needed.
pub fn escape(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes one record.
pub fn write_record(out: &mut impl Write, fields: &[&str]) -> io::Result<()> {
    let mut first = true;
    for f in fields {
        if !first {
            out.write_all(b",")?;
        }
        out.write_all(escape(f).as_bytes())?;
        first = false;
    }
    out.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_simple_records() {
        let rows = parse("a,b,c\n1,2,3\n");
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parses_quoted_fields() {
        let rows = parse("id,title\n1,\"Entity, Resolution\"\n2,\"say \"\"hi\"\"\"\n");
        assert_eq!(rows[1][1], "Entity, Resolution");
        assert_eq!(rows[2][1], "say \"hi\"");
    }

    #[test]
    fn parses_embedded_newlines() {
        let rows = parse("a\n\"line1\nline2\"\n");
        assert_eq!(rows[1][0], "line1\nline2");
    }

    #[test]
    fn handles_crlf_and_missing_trailing_newline() {
        let rows = parse("a,b\r\n1,2");
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn skips_blank_lines() {
        let rows = parse("a\n\n\nb\n");
        assert_eq!(rows, vec![vec!["a"], vec!["b"]]);
    }

    #[test]
    fn unicode_fields_survive() {
        let rows = parse("név,ville\nModène,\"émilie, romagne\"\n");
        assert_eq!(rows[1][0], "Modène");
        assert_eq!(rows[1][1], "émilie, romagne");
    }

    #[test]
    fn escape_rules() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("q\"q"), "\"q\"\"q\"");
    }

    proptest! {
        /// Round trip: write then parse returns the original fields.
        #[test]
        fn prop_roundtrip(rows in proptest::collection::vec(
            proptest::collection::vec("[ -~éü\n\"]{0,12}", 1..5), 1..8)
        ) {
            // All rows must have the same width for a fair comparison.
            let width = rows[0].len();
            let rows: Vec<Vec<String>> = rows.into_iter().map(|mut r| {
                r.resize(width, String::new());
                r
            }).collect();
            // Skip rows that are entirely empty (parser drops blank lines).
            prop_assume!(rows.iter().all(|r| !(r.len() == 1 && r[0].is_empty())));

            let mut buf = Vec::new();
            for row in &rows {
                let fields: Vec<&str> = row.iter().map(|s| s.as_str()).collect();
                write_record(&mut buf, &fields).unwrap();
            }
            let text = String::from_utf8(buf).unwrap();
            let parsed = parse(&text);
            prop_assert_eq!(parsed, rows);
        }
    }
}
