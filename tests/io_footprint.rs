//! Ingest memory is O(file + name–value pairs), not O(rows × columns).
//!
//! One test in a binary of its own: the process's RSS high-water mark is the
//! measurement, so nothing else may run in this process.

use blast::datamodel::SourceId;
use blast::io::{read_collection, CollectionReadOptions};
use blast::metrics::peak_rss_bytes;
use std::fmt::Write;
use std::io::BufReader;

#[test]
fn wide_sparse_csv_costs_its_data_not_its_matrix() {
    const ROWS: usize = 2_000;
    const COLS: usize = 2_000;
    let mut text = String::with_capacity(ROWS * COLS + (1 << 20));
    text.push_str("id");
    for col in 1..COLS {
        write!(text, ",attr{col}").unwrap();
    }
    text.push('\n');
    let mut values = 0;
    for row in 0..ROWS {
        write!(text, "p{row}").unwrap();
        for col in 1..COLS {
            text.push(',');
            // About 1 % of the cells hold a value.
            if (row * 31 + col * 17) % 100 == 0 {
                write!(text, "value {row} {col}").unwrap();
                values += 1;
            }
        }
        text.push('\n');
    }

    let Some(before) = peak_rss_bytes() else {
        return; // no procfs on this platform: nothing to measure
    };
    let collection = read_collection(
        &mut BufReader::new(text.as_bytes()),
        SourceId(0),
        &CollectionReadOptions::default(),
    )
    .unwrap();
    let after = peak_rss_bytes().expect("VmHWM was readable a moment ago");

    assert_eq!(collection.len(), ROWS);
    assert_eq!(collection.attribute_count(), COLS);
    assert_eq!(collection.nvp(), values);
    // A `String` per cell is 4 M × 24 B = 96 MB before any text; the reader's
    // own copy of the file plus ~40 000 small values is a few times the file.
    let growth = after.saturating_sub(before);
    assert!(
        growth < 8 * text.len() as u64,
        "reading a {} B file grew peak RSS by {growth} B",
        text.len()
    );
}
