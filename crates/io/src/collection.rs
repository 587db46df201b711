//! Reading/writing entity collections as headered CSV.
//!
//! Layout: the header row names the attributes; each following row is one
//! profile. One column (by default the first, or any column named by the
//! caller) carries the external id. Empty cells produce no name–value pair
//! (missing values).
//!
//! [`read_collection`] holds the file's text and walks it once with a
//! [`csv::Records`] cursor: each row is lent as borrowed fields and only its
//! non-empty cells are copied, straight into the row's [`EntityProfile`] —
//! memory is O(file + name–value pairs), whatever the header's width.

use crate::csv::{self, invalid_data};
use blast_datamodel::collection::EntityCollection;
use blast_datamodel::entity::{AttributeId, EntityProfile, SourceId};
use std::io::{self, BufRead, Write};

/// Options for [`read_collection`].
#[derive(Debug, Clone, Default)]
pub struct CollectionReadOptions {
    /// Name of the id column (default: the first column).
    pub id_column: Option<String>,
}

/// Reads a collection from headered CSV.
///
/// Every header name is interned in column order (the id column's too), so
/// attribute ids follow the header. A row with an empty id cell gets the
/// synthetic id `row{n}`, `n` being its ordinal among the records with the
/// header as 1. Every error on malformed input names a physical line: the
/// line a faulty row starts on, or the line of the first byte that is not
/// UTF-8.
pub fn read_collection(
    reader: &mut impl BufRead,
    source: SourceId,
    options: &CollectionReadOptions,
) -> io::Result<EntityCollection> {
    let text = csv::read_text(reader)?;
    let mut records = csv::Records::new(&text);
    let mut collection = EntityCollection::new(source);
    let Some(header) = records.next_record() else {
        return Ok(collection);
    };
    let id_idx = match &options.id_column {
        None => 0,
        Some(name) => header.iter().position(|h| h == name).ok_or_else(|| {
            invalid_data(format!("line {}: no column named {name:?}", header.line()))
        })?,
    };
    let attrs: Vec<AttributeId> = header
        .iter()
        .map(|name| collection.attribute(name))
        .collect();

    while let Some(row) = records.next_record() {
        if row.len() > attrs.len() {
            return Err(invalid_data(format!(
                "line {}: row has {} fields, header has {}",
                row.line(),
                row.len(),
                attrs.len()
            )));
        }
        let mut profile = match row.get(id_idx) {
            Some(id) if !id.is_empty() => EntityProfile::new(id),
            _ => EntityProfile::new(format!("row{}", collection.len() + 2)),
        };
        for (col, value) in row.non_empty() {
            if col != id_idx {
                profile.push(attrs[col], value);
            }
        }
        collection.push(profile);
    }
    Ok(collection)
}

/// Writes a collection as headered CSV (multi-valued attributes joined with
/// `"; "`; the id column is written first as `_id`).
pub fn write_collection(out: &mut impl Write, collection: &EntityCollection) -> io::Result<()> {
    // Ascending ids: the interner hands them out sequentially.
    let attrs: Vec<_> = collection.attribute_ids().collect();
    let mut header = vec!["_id"];
    for &a in &attrs {
        header.push(collection.attribute_name(a));
    }
    csv::write_record(out, &header)?;
    // Reused per row: the profile's value positions bucketed by attribute,
    // and the text of the cell being written.
    let mut order: Vec<usize> = Vec::new();
    let mut joined = String::new();
    for profile in collection.profiles() {
        let values = &profile.values;
        order.clear();
        order.extend(0..values.len());
        // Stable: an attribute's values keep their order in the profile.
        order.sort_by_key(|&i| values[i].0);
        out.write_all(csv::escape(&profile.external_id).as_bytes())?;
        let mut next = 0;
        for &a in &attrs {
            out.write_all(b",")?;
            let from = next;
            joined.clear();
            while next < order.len() && values[order[next]].0 == a {
                if next > from {
                    joined.push_str("; ");
                }
                joined.push_str(&values[order[next]].1);
                next += 1;
            }
            if next > from {
                out.write_all(csv::escape(&joined).as_bytes())?;
            }
        }
        out.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    /// `write_collection` before it bucketed a row's values once: a
    /// `values_of` rescan and a `String` per cell. The reference the writer's
    /// output must equal byte for byte.
    fn reference_write_collection(
        out: &mut impl Write,
        collection: &EntityCollection,
    ) -> io::Result<()> {
        let attrs: Vec<_> = collection.attribute_ids().collect();
        let mut header = vec!["_id"];
        for &a in &attrs {
            header.push(collection.attribute_name(a));
        }
        csv::write_record(out, &header)?;
        for profile in collection.profiles() {
            let mut fields: Vec<String> = vec![profile.external_id.to_string()];
            for &a in &attrs {
                let values: Vec<&str> = profile.values_of(a).collect();
                fields.push(values.join("; "));
            }
            let refs: Vec<&str> = fields.iter().map(|s| s.as_str()).collect();
            csv::write_record(out, &refs)?;
        }
        Ok(())
    }

    const SAMPLE: &str = "\
id,title,year\n\
p1,\"Entity Resolution, a survey\",2016\n\
p2,Schema Matching,\n\
p3,,2014\n";

    fn read(text: &str, options: &CollectionReadOptions) -> EntityCollection {
        read_collection(&mut BufReader::new(text.as_bytes()), SourceId(0), options).unwrap()
    }

    #[test]
    fn reads_profiles_and_attributes() {
        let c = read(SAMPLE, &CollectionReadOptions::default());
        assert_eq!(c.len(), 3);
        // id column is not an attribute value; title+year only.
        assert_eq!(c.profiles()[0].nvp(), 2);
        assert_eq!(c.profiles()[0].external_id.as_ref(), "p1");
        // Empty cells are missing values.
        assert_eq!(c.profiles()[1].nvp(), 1);
        assert_eq!(c.profiles()[2].nvp(), 1);
    }

    #[test]
    fn named_id_column() {
        let text = "title,key\nFoo,k1\n";
        let c = read(
            text,
            &CollectionReadOptions {
                id_column: Some("key".to_string()),
            },
        );
        assert_eq!(c.profiles()[0].external_id.as_ref(), "k1");
        assert_eq!(c.profiles()[0].nvp(), 1);
    }

    #[test]
    fn missing_id_column_errors() {
        let text = "a,b\n1,2\n";
        let err = read_collection(
            &mut BufReader::new(text.as_bytes()),
            SourceId(0),
            &CollectionReadOptions {
                id_column: Some("nope".to_string()),
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 1: no column named \"nope\"");
    }

    #[test]
    fn oversized_row_errors() {
        let text = "a,b\n1,2,3\n";
        let err = read_collection(
            &mut BufReader::new(text.as_bytes()),
            SourceId(0),
            &CollectionReadOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_row_error_names_its_physical_line() {
        // A blank line and a two-line quoted field sit above the fault: it
        // is the fourth record, and it starts on line 6.
        let text = "a,b\n\n1,\"x\ny\"\n3,4\n5,6,7\n";
        let err = read_collection(
            &mut BufReader::new(text.as_bytes()),
            SourceId(0),
            &CollectionReadOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 6: row has 3 fields, header has 2");
    }

    #[test]
    fn synthetic_ids_count_records_not_lines() {
        // Ids are data: the blank line above the row does not move `row3`.
        let c = read("id,a\np1,1\n\n,2\n", &CollectionReadOptions::default());
        assert_eq!(c.profiles()[1].external_id.as_ref(), "row3");
    }

    #[test]
    fn quoted_empty_single_column_row_is_a_profile() {
        let c = read("id\np1\n\"\"\np3\n", &CollectionReadOptions::default());
        assert_eq!(c.len(), 3);
        assert_eq!(c.profiles()[1].external_id.as_ref(), "row3");
    }

    #[test]
    fn duplicate_and_empty_header_names_share_an_attribute() {
        let c = read("id,a,,a,\np1,1,2,3,4\n", &CollectionReadOptions::default());
        assert_eq!(c.attribute_count(), 3); // id, a, ""
        let a = c.attribute_id("a").unwrap();
        let values: Vec<_> = c.profiles()[0].values_of(a).collect();
        assert_eq!(values, ["1", "3"]);
        assert_eq!(c.profiles()[0].nvp(), 4);
    }

    #[test]
    fn roundtrip_write_read() {
        let c = read(SAMPLE, &CollectionReadOptions::default());
        let mut buf = Vec::new();
        write_collection(&mut buf, &c).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let c2 = read(
            &text,
            &CollectionReadOptions {
                id_column: Some("_id".to_string()),
            },
        );
        assert_eq!(c2.len(), c.len());
        assert_eq!(c2.nvp(), c.nvp());
        assert_eq!(c2.profiles()[0].external_id, c.profiles()[0].external_id);
    }

    #[test]
    fn empty_input_gives_empty_collection() {
        let c = read("", &CollectionReadOptions::default());
        assert!(c.is_empty());
    }

    proptest! {
        /// The writer's output is byte-identical to the replaced
        /// implementation's: multi-valued attributes interleaved with
        /// others, unused attributes, values that need quoting.
        #[test]
        fn prop_write_matches_reference(
            rows in proptest::collection::vec(
                ("[ -~é\n\"]{0,6}", proptest::collection::vec(
                    (0..5usize, "[ -~é;\n\r\"]{0,6}"), 0..9)),
                0..8)
        ) {
            let mut c = EntityCollection::new(SourceId(0));
            let attrs: Vec<_> = (0..5).map(|i| c.attribute(&format!("a,{i}"))).collect();
            for (id, values) in &rows {
                let mut profile = EntityProfile::new(id.as_str());
                for (a, value) in values {
                    profile.push(attrs[*a], value.as_str());
                }
                c.push(profile);
            }
            let (mut new, mut old) = (Vec::new(), Vec::new());
            write_collection(&mut new, &c).unwrap();
            reference_write_collection(&mut old, &c).unwrap();
            prop_assert_eq!(String::from_utf8(new).unwrap(), String::from_utf8(old).unwrap());
        }
    }
}
