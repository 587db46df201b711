//! Hostile CSV input: arbitrary bytes (not UTF-8 included) and valid CSV
//! cut at arbitrary points never panic a reader, and every error the
//! readers return is `InvalidData` naming a physical line of the input.

use blast_datamodel::collection::EntityCollection;
use blast_datamodel::entity::{EntityProfile, SourceId};
use blast_datamodel::input::ErInput;
use blast_io::collection::{read_collection, write_collection, CollectionReadOptions};
use blast_io::ground_truth::read_ground_truth;
use proptest::prelude::*;
use std::io;

/// The ids the generated CSV uses; the ground-truth reader resolves
/// against a collection holding all of them.
const IDS: [&str; 6] = ["a", "b", "c", "ab", "é", "a,b"];

/// Bytes that steer the CSV cursor: separators, quotes, line ends, and the
/// lead and continuation bytes of a two-byte UTF-8 sequence.
const STRUCTURAL: [u8; 8] = [b'a', b',', b'"', b'\n', b'\r', 0xc3, 0xa9, 0xff];

fn known_input() -> ErInput {
    let mut d = EntityCollection::new(SourceId(0));
    for id in IDS {
        d.push_pairs(id, [("x", "1")]);
    }
    ErInput::dirty(d)
}

/// Panics unless `err` is `InvalidData` starting `line N:` with N a line of
/// `bytes`.
fn assert_names_a_line(err: &io::Error, bytes: &[u8]) {
    let message = err.to_string();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{message}");
    let line: usize = message
        .strip_prefix("line ")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no line in {message:?}"));
    let lines = 1 + bytes.iter().filter(|&&b| b == b'\n').count();
    assert!((1..=lines).contains(&line), "{message:?}: {lines} lines");
}

/// Runs every reader over `bytes`: the collection reader with the default
/// and a named id column, and the ground-truth reader.
fn read_all(bytes: &[u8]) {
    let named = CollectionReadOptions {
        id_column: Some("b".to_string()),
    };
    for options in [CollectionReadOptions::default(), named] {
        if let Err(e) = read_collection(&mut &bytes[..], SourceId(0), &options) {
            assert_names_a_line(&e, bytes);
        }
    }
    if let Err(e) = read_ground_truth(&mut &bytes[..], &known_input()) {
        assert_names_a_line(&e, bytes);
    }
}

/// A headered collection CSV over columns `a`, `b`, `c`.
fn collection_csv(rows: &[(usize, Vec<(usize, String)>)]) -> Vec<u8> {
    let mut c = EntityCollection::new(SourceId(0));
    let attrs: Vec<_> = ["a", "b", "c"].iter().map(|n| c.attribute(n)).collect();
    for (id, values) in rows {
        let mut profile = EntityProfile::new(IDS[*id]);
        for (a, value) in values {
            profile.push(attrs[*a], value.as_str());
        }
        c.push(profile);
    }
    let mut out = Vec::new();
    write_collection(&mut out, &c).unwrap();
    out
}

#[test]
fn invalid_utf8_names_the_line_of_the_first_bad_byte() {
    let bytes = b"id,a\np1,x\n\np2,\"caf\xc3\nq\xff\"\n";
    for options in [
        CollectionReadOptions::default(),
        CollectionReadOptions {
            id_column: Some("a".to_string()),
        },
    ] {
        let err = read_collection(&mut &bytes[..], SourceId(0), &options).unwrap_err();
        assert_eq!(err.to_string(), "line 4: invalid UTF-8");
    }
    let err = read_ground_truth(&mut &b"a,b\n\xe9,a\n"[..], &known_input()).unwrap_err();
    assert_eq!(err.to_string(), "line 2: invalid UTF-8");
}

#[test]
fn unknown_ground_truth_id_names_its_line() {
    let text = "a,b\n\n\"a,b\",c\nab,zz\n";
    let err = read_ground_truth(&mut text.as_bytes(), &known_input()).unwrap_err();
    assert_eq!(err.to_string(), "line 4: unknown id \"zz\"");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Uniform bytes: almost always not UTF-8 within the first few bytes.
    #[test]
    fn prop_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        read_all(&bytes);
    }

    /// Bytes drawn mostly from the structural alphabet, so quoting, line
    /// ends and split UTF-8 sequences meet in every combination.
    #[test]
    fn prop_structural_bytes_never_panic(
        picks in proptest::collection::vec(0usize..STRUCTURAL.len(), 0..64)
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| STRUCTURAL[i]).collect();
        read_all(&bytes);
    }

    /// Valid collection CSV and ground truth, cut at an arbitrary byte —
    /// inside a quoted field, a `\r\n` or a multi-byte character.
    #[test]
    fn prop_truncated_csv_never_panics(
        rows in proptest::collection::vec(
            (0..IDS.len(), proptest::collection::vec((0..3usize, "[ -~é\n\r\"]{0,5}"), 0..4)),
            0..6,
        ),
        pairs in proptest::collection::vec((0..IDS.len(), 0..IDS.len()), 0..6),
        cut in 0.0..1.0f64,
    ) {
        let collection = collection_csv(&rows);
        let mut truth = Vec::new();
        for (a, b) in &pairs {
            blast_io::csv::write_record(&mut truth, &[IDS[*a], IDS[*b]]).unwrap();
        }
        for text in [collection, truth] {
            let at = (text.len() as f64 * cut) as usize;
            read_all(&text[..at]);
            read_all(&text);
        }
    }
}
