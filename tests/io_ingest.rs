//! The one-pass CSV ingest against the reader and writer it replaced, on a
//! wide, sparse generated dataset (dbp: ~1 000 attribute names per source,
//! almost all missing on any one profile).
//!
//! `blast-io` keeps its own reference parser under `#[cfg(test)]`, which an
//! integration test cannot see, so this file carries a verbatim copy of the
//! replaced `parse_record` / `parse` / `read_collection` / `write_collection`
//! / `escape`: a `Vec<Vec<String>>` of every cell, then a copy of the
//! non-empty ones. Attribute ids, profile order, ids and values of the new
//! reader must equal that reference exactly — schema extraction, blocks and
//! pairs all hang off them.

use blast::datagen::{clean_clean_preset, generate_clean_clean, CleanCleanPreset};
use blast::datamodel::{EntityCollection, EntityProfile, ErInput, SourceId};
use blast::io::{read_collection, write_collection, CollectionReadOptions};
use std::io::{self, BufReader, Write};

mod reference {
    use super::*;

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
                        pos += 1;
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

    fn utf8_len(first_byte: u8) -> usize {
        match first_byte {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn parse(input: &str) -> Vec<Vec<String>> {
        let mut records = Vec::new();
        let mut pos = 0;
        let mut fields = Vec::new();
        while let Some(next) = parse_record(input, pos, &mut fields) {
            if !(fields.len() == 1 && fields[0].is_empty()) {
                records.push(fields.clone());
            }
            pos = next;
        }
        records
    }

    pub fn read_collection(
        text: &str,
        source: SourceId,
        options: &CollectionReadOptions,
    ) -> io::Result<EntityCollection> {
        let rows = parse(text);
        let mut collection = EntityCollection::new(source);
        let Some((header, body)) = rows.split_first() else {
            return Ok(collection);
        };
        let id_idx = match &options.id_column {
            None => 0,
            Some(name) => header.iter().position(|h| h == name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("no column named {name:?}"),
                )
            })?,
        };
        let attrs: Vec<_> = header
            .iter()
            .enumerate()
            .map(|(i, name)| (i, collection.attribute(name)))
            .collect();

        for (line, row) in body.iter().enumerate() {
            if row.len() > header.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "row {} has {} fields, header has {}",
                        line + 2,
                        row.len(),
                        header.len()
                    ),
                ));
            }
            let external_id = row
                .get(id_idx)
                .map(|s| s.as_str())
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .unwrap_or_else(|| format!("row{}", line + 2));
            let mut profile = EntityProfile::new(external_id);
            for &(col, attr) in &attrs {
                if col == id_idx {
                    continue;
                }
                if let Some(value) = row.get(col) {
                    if !value.is_empty() {
                        profile.push(attr, value.as_str());
                    }
                }
            }
            collection.push(profile);
        }
        Ok(collection)
    }

    fn escape(field: &str) -> String {
        if field.contains(['"', ',', '\n', '\r']) {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    fn write_record(out: &mut impl Write, fields: &[&str]) -> io::Result<()> {
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

    pub fn write_collection(out: &mut impl Write, collection: &EntityCollection) -> io::Result<()> {
        let attrs: Vec<_> = collection.attribute_ids().collect();
        let mut header = vec!["_id"];
        for &a in &attrs {
            header.push(collection.attribute_name(a));
        }
        write_record(out, &header)?;
        for profile in collection.profiles() {
            let mut fields: Vec<String> = vec![profile.external_id.to_string()];
            for &a in &attrs {
                let values: Vec<&str> = profile.values_of(a).collect();
                fields.push(values.join("; "));
            }
            let refs: Vec<&str> = fields.iter().map(|s| s.as_str()).collect();
            write_record(out, &refs)?;
        }
        Ok(())
    }
}

fn assert_same_collection(new: &EntityCollection, old: &EntityCollection) {
    assert_eq!(new.len(), old.len());
    assert_eq!(new.attribute_count(), old.attribute_count());
    for (a, b) in new.attribute_ids().zip(old.attribute_ids()) {
        assert_eq!(a, b);
        assert_eq!(new.attribute_name(a), old.attribute_name(b));
    }
    assert_eq!(new.profiles(), old.profiles());
}

#[test]
fn dbp_ingest_equals_the_materialising_reference() {
    let spec = clean_clean_preset(CleanCleanPreset::DbpScaled).scaled(0.03);
    let (input, _) = generate_clean_clean(&spec);
    let ErInput::CleanClean { d1, d2 } = &input else {
        unreachable!("clean-clean presets generate two sources")
    };
    for collection in [d1, d2] {
        assert!(collection.attribute_count() > 100 && collection.nvp() > 0);
        let mut bytes = Vec::new();
        write_collection(&mut bytes, collection).unwrap();
        let mut old_bytes = Vec::new();
        reference::write_collection(&mut old_bytes, collection).unwrap();
        assert!(bytes == old_bytes, "written CSV differs from the reference");

        let text = String::from_utf8(bytes).unwrap();
        // Column 0 (`_id`) by default, then an id column in the middle of
        // the header: every row without a value there gets a synthetic id.
        let third = collection.attribute_ids().nth(2).unwrap();
        for id_column in [None, Some(collection.attribute_name(third).to_string())] {
            let options = CollectionReadOptions { id_column };
            let new = read_collection(
                &mut BufReader::new(text.as_bytes()),
                collection.source(),
                &options,
            )
            .unwrap();
            let old = reference::read_collection(&text, collection.source(), &options).unwrap();
            assert_same_collection(&new, &old);
            assert_eq!(new.len(), collection.len());
        }
    }
}
