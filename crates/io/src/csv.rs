//! A minimal RFC-4180 CSV reader/writer.
//!
//! Supports quoted fields containing separators, newlines and escaped
//! quotes (`""`). Kept dependency-free on purpose: the workspace builds
//! offline, and its only external dependencies are the stand-ins vendored
//! under `vendor/` (see `README.md`, "Workspace layout").
//!
//! Reading is one pass over a buffer the caller owns: [`Records`] is a
//! cursor over that buffer and [`Records::next_record`] lends one
//! [`Record`] at a time. A record's fields are `&str` slices of the input
//! (or, for the rare field that needs unescaping, of one scratch `String`
//! the cursor reuses), valid until the next call to `next_record` — a
//! caller keeps what it needs by copying it out. Nothing is allocated per
//! field, and an empty field costs the byte of its separator: only the
//! non-empty fields of a record are stored, so a wide, sparse row costs its
//! data, not its width.
//!
//! Dialect: a quote opens a quoted section only as a field's first byte
//! (elsewhere it is data, as is anything between a closing quote and the
//! separator); an unbalanced quote runs to the end of the input; a record
//! ends at `\n`, `\r\n` or the end of the input, and a `\r` anywhere else is
//! data; a physically empty line is not a record, every other line is.

use std::borrow::Cow;
use std::io::{self, Write};

/// Where a non-empty field's text lives.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// In the cursor's scratch buffer (the field had to be unescaped)
    /// rather than in the input.
    unescaped: bool,
    start: usize,
    end: usize,
}

/// A cursor over the records of one CSV document.
#[derive(Debug)]
pub struct Records<'a> {
    input: &'a str,
    pos: usize,
    /// Physical (1-based) line of `pos`.
    line: usize,
    /// The current record's non-empty fields by column, ascending.
    cells: Vec<(usize, Span)>,
    /// Text of the current record's unescaped fields.
    scratch: String,
}

/// One record, lent by [`Records::next_record`] until the next call.
#[derive(Debug, Clone, Copy)]
pub struct Record<'r> {
    input: &'r str,
    scratch: &'r str,
    cells: &'r [(usize, Span)],
    len: usize,
    line: usize,
}

/// Index of the separator or line feed that ends the unquoted text starting
/// at `from` (the input's length when nothing does).
fn plain_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == b',' || b == b'\n')
        .map_or(bytes.len(), |i| from + i)
}

/// `stop` without the `\r` of a `\r\n` terminator, for unquoted text that
/// starts at `from` and is ended by `bytes[stop]`.
fn strip_cr(bytes: &[u8], from: usize, stop: usize) -> usize {
    if bytes.get(stop) == Some(&b'\n') && stop > from && bytes[stop - 1] == b'\r' {
        stop - 1
    } else {
        stop
    }
}

impl<'a> Records<'a> {
    /// A cursor at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            line: 1,
            cells: Vec::new(),
            scratch: String::new(),
        }
    }

    /// Parses the next record, or returns `None` at the end of the input.
    pub fn next_record(&mut self) -> Option<Record<'_>> {
        let bytes = self.input.as_bytes();
        loop {
            match &bytes[self.pos..] {
                [] => return None,
                [b'\n', ..] => self.pos += 1,
                [b'\r', b'\n', ..] => self.pos += 2,
                _ => break,
            }
            self.line += 1;
        }
        self.cells.clear();
        self.scratch.clear();
        let line = self.line;
        let mut len = 0;
        loop {
            let start = self.pos;
            let (span, stop) = if bytes.get(start) == Some(&b'"') {
                self.quoted_field(start)
            } else {
                let stop = plain_end(bytes, start);
                let span = Span {
                    unescaped: false,
                    start,
                    end: strip_cr(bytes, start, stop),
                };
                (span, stop)
            };
            if span.start < span.end {
                self.cells.push((len, span));
            }
            len += 1;
            self.pos = (stop + 1).min(bytes.len());
            match bytes.get(stop) {
                Some(b',') => {}
                Some(_) => {
                    self.line += 1;
                    break;
                }
                None => break,
            }
        }
        Some(Record {
            input: self.input,
            scratch: &self.scratch,
            cells: &self.cells,
            len,
            line,
        })
    }

    /// Parses the field whose first byte, at `open`, is a quote: the quoted
    /// section plus whatever follows it up to the separator. Returns the
    /// field and the index of the byte that ends it.
    fn quoted_field(&mut self, open: usize) -> (Span, usize) {
        let input = self.input;
        let bytes = input.as_bytes();
        let mark = self.scratch.len();
        // `run` starts the stretch of the section not yet copied to scratch.
        let (mut run, mut p) = (open + 1, open + 1);
        let close = loop {
            match bytes.get(p) {
                Some(b'"') if bytes.get(p + 1) == Some(&b'"') => {
                    self.scratch.push_str(&input[run..=p]);
                    p += 2;
                    run = p;
                }
                Some(b'"') | None => break p,
                Some(b'\n') => {
                    self.line += 1;
                    p += 1;
                }
                Some(_) => p += 1,
            }
        };
        let tail = (close + 1).min(bytes.len());
        let stop = plain_end(bytes, tail);
        let tail_end = strip_cr(bytes, tail, stop);
        if self.scratch.len() == mark && tail_end == tail {
            let span = Span {
                unescaped: false,
                start: open + 1,
                end: close,
            };
            return (span, stop);
        }
        self.scratch.push_str(&input[run..close]);
        self.scratch.push_str(&input[tail..tail_end]);
        let span = Span {
            unescaped: true,
            start: mark,
            end: self.scratch.len(),
        };
        (span, stop)
    }
}

impl<'r> Record<'r> {
    /// The physical (1-based) line of the input this record starts on.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Number of fields, empty ones included (at least one).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    fn text(&self, span: Span) -> &'r str {
        let buffer = if span.unescaped {
            self.scratch
        } else {
            self.input
        };
        &buffer[span.start..span.end]
    }

    /// The field in column `col`, or `None` past the record's last field.
    pub fn get(&self, col: usize) -> Option<&'r str> {
        (col < self.len).then(
            || match self.cells.binary_search_by_key(&col, |&(c, _)| c) {
                Ok(i) => self.text(self.cells[i].1),
                Err(_) => "",
            },
        )
    }

    /// The non-empty fields with their columns, in column order.
    pub fn non_empty(&self) -> impl Iterator<Item = (usize, &'r str)> + '_ {
        self.cells.iter().map(|&(col, span)| (col, self.text(span)))
    }

    /// Every field in column order, empty ones included.
    pub fn iter(&self) -> impl Iterator<Item = &'r str> + '_ {
        let mut cells = self.non_empty().peekable();
        (0..self.len).map(move |col| cells.next_if(|&(c, _)| c == col).map_or("", |(_, s)| s))
    }
}

/// The error every reader in this crate returns for malformed input.
pub(crate) fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads all of `reader` as text. Bytes that are not UTF-8 are an
/// [`invalid_data`] error naming the physical line of the first bad byte.
pub(crate) fn read_text(reader: &mut impl io::Read) -> io::Result<String> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    String::from_utf8(bytes).map_err(|e| {
        let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
        let line = 1 + valid.iter().filter(|&&b| b == b'\n').count();
        invalid_data(format!("line {line}: invalid UTF-8"))
    })
}

/// Quotes a field if needed.
pub fn escape(field: &str) -> Cow<'_, str> {
    if field.contains(['"', ',', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
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

/// The materialising character-by-character parser [`Records`] replaced,
/// kept as the reference the cursor must agree with.
#[cfg(test)]
mod reference {
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

    /// Parses a whole CSV document into records. The one line changed from
    /// the replaced `parse`: a line is blank when it is physically empty,
    /// not when it parses to one empty field (`""` is a record).
    pub fn parse(input: &str) -> Vec<Vec<String>> {
        let mut records = Vec::new();
        let mut pos = 0;
        let mut fields = Vec::new();
        loop {
            let rest = &input[pos..];
            if rest.starts_with('\n') {
                pos += 1;
            } else if rest.starts_with("\r\n") {
                pos += 2;
            } else if let Some(next) = parse_record(input, pos, &mut fields) {
                records.push(fields.clone());
                pos = next;
            } else {
                return records;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every record of `input`, collected through the cursor.
    fn parse(input: &str) -> Vec<Vec<String>> {
        let mut records = Records::new(input);
        let mut rows = Vec::new();
        while let Some(record) = records.next_record() {
            let row: Vec<String> = record.iter().map(str::to_string).collect();
            assert_eq!(row.len(), record.len());
            for (col, field) in row.iter().enumerate() {
                assert_eq!(record.get(col), Some(field.as_str()));
            }
            assert_eq!(record.get(row.len()), None);
            rows.push(row);
        }
        rows
    }

    /// The physical line each record of `input` starts on.
    fn lines(input: &str) -> Vec<usize> {
        let mut records = Records::new(input);
        let mut lines = Vec::new();
        while let Some(record) = records.next_record() {
            lines.push(record.line());
        }
        lines
    }

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
        assert_eq!(parse("\r\n\n"), Vec::<Vec<String>>::new());
    }

    #[test]
    fn unicode_fields_survive() {
        let rows = parse("név,ville\nModène,\"émilie, romagne\"\n");
        assert_eq!(rows[1][0], "Modène");
        assert_eq!(rows[1][1], "émilie, romagne");
    }

    #[test]
    fn several_unescaped_fields_share_the_scratch() {
        let rows = parse("\"a\"\"b\",\"c\"d,\"\"\"\",plain,\"e\"\"\"\n\"x\"\"y\"\n");
        assert_eq!(rows[0], vec!["a\"b", "cd", "\"", "plain", "e\""]);
        assert_eq!(rows[1], vec!["x\"y"]);
    }

    #[test]
    fn sparse_rows_keep_their_width_and_columns() {
        let mut records = Records::new(",,x,,\"\",y,\n,\n");
        let row = records.next_record().unwrap();
        assert_eq!(row.len(), 7);
        assert_eq!(row.non_empty().collect::<Vec<_>>(), [(2, "x"), (5, "y")]);
        assert_eq!(row.get(4), Some(""));
        assert_eq!(row.get(7), None);
        let row = records.next_record().unwrap();
        assert_eq!((row.len(), row.non_empty().count()), (2, 0));
        assert!(records.next_record().is_none());
    }

    #[test]
    fn lone_carriage_return_is_data() {
        assert_eq!(parse("a\rb,c\r\nd\r"), [vec!["a\rb", "c"], vec!["d\r"]]);
        // Only the `\r` immediately before the `\n` belongs to the terminator.
        assert_eq!(parse("a\r\r\n\"b\"\r\n"), [vec!["a\r"], vec!["b"]]);
    }

    #[test]
    fn quoted_empty_single_column_is_a_record() {
        assert_eq!(parse("a\n\"\"\nb\n"), [vec!["a"], vec![""], vec!["b"]]);
        assert_eq!(parse("\"\"\r\n\""), [vec![""], vec![""]]);
    }

    #[test]
    fn records_carry_the_physical_line_they_start_on() {
        assert_eq!(lines("h\n\n\r\n\"two\nlines\"\nlast"), [1, 4, 6]);
        // Escaped quotes and an unbalanced quote do not lose count.
        assert_eq!(lines("\"a\"\"\n\"\"b\"\nc\n\"open\nto\nthe end"), [1, 3, 4]);
    }

    #[test]
    fn escape_rules() {
        assert_eq!(escape("plain"), "plain");
        assert!(matches!(escape("plain"), Cow::Borrowed(_)));
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("q\"q"), "\"q\"\"q\"");
    }

    proptest! {
        /// Round trip: write then parse returns the original fields.
        #[test]
        fn prop_roundtrip(rows in proptest::collection::vec(
            proptest::collection::vec("[ -~éü\n\r\"]{0,12}", 1..5), 1..8)
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

    proptest! {
        // Inputs are a few dozen bytes: many cases cost little.
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The cursor yields exactly the records of the reference parser on
        /// arbitrary text: unbalanced quotes, quotes after data, `\r\n`
        /// inside and outside quotes, blank lines, no trailing newline. A
        /// `\r` appears only as `\r\n` — the reference deletes a lone one,
        /// which `lone_carriage_return_is_data` pins as fixed.
        #[test]
        fn prop_cursor_matches_reference(
            pieces in proptest::collection::vec(
                // The second alphabet makes the structural bytes frequent.
                (prop_oneof!["[ -~éü,\"\n]{0,6}", "[aé,\"\n]{0,6}"], 0..3u8),
                0..12,
            )
        ) {
            let mut text = String::new();
            for (piece, crlf) in &pieces {
                text.push_str(piece);
                if *crlf == 0 {
                    text.push_str("\r\n");
                }
            }
            prop_assert_eq!(parse(&text), reference::parse(&text));
        }
    }
}
