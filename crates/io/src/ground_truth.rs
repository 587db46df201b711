//! Ground truth as a two-column CSV of external ids.

use crate::csv::{self, invalid_data};
use blast_datamodel::entity::ProfileId;
use blast_datamodel::ground_truth::GroundTruth;
use blast_datamodel::hash::FastMap;
use blast_datamodel::input::ErInput;
use std::io::{self, BufRead, Write};

/// Builds the external-id → global-ProfileId map of an input.
///
/// Clean-clean ids are resolved per side (a duplicate external id across
/// the two sources is fine); duplicated ids *within* a source resolve to
/// their first occurrence.
pub fn external_id_index(input: &ErInput) -> FastMap<(u8, Box<str>), ProfileId> {
    let mut map: FastMap<(u8, Box<str>), ProfileId> = FastMap::default();
    for (pid, source, profile) in input.iter_profiles() {
        map.entry((source.0, profile.external_id.clone()))
            .or_insert(pid);
    }
    map
}

/// Reads ground truth from a headerless two-column CSV: first column =
/// external id in source 0, second = external id in source 1 (same source
/// for dirty inputs). Unknown ids, short rows and bytes that are not UTF-8
/// are errors naming their physical line.
pub fn read_ground_truth(reader: &mut impl BufRead, input: &ErInput) -> io::Result<GroundTruth> {
    let index = external_id_index(input);
    let second_source = if input.is_clean_clean() { 1u8 } else { 0u8 };
    let text = csv::read_text(reader)?;
    let mut records = csv::Records::new(&text);
    let mut gt = GroundTruth::new();
    while let Some(row) = records.next_record() {
        let line = row.line();
        let (Some(first), Some(second)) = (row.get(0), row.get(1)) else {
            return Err(invalid_data(format!(
                "line {line}: ground-truth row needs two columns"
            )));
        };
        let unknown = |id: &str| invalid_data(format!("line {line}: unknown id {id:?}"));
        let a = index
            .get(&(0, first.into()))
            .ok_or_else(|| unknown(first))?;
        let b = index
            .get(&(second_source, second.into()))
            .ok_or_else(|| unknown(second))?;
        gt.insert(*a, *b);
    }
    Ok(gt)
}

/// Writes ground truth as external-id pairs (sorted for determinism).
pub fn write_ground_truth(
    out: &mut impl Write,
    gt: &GroundTruth,
    input: &ErInput,
) -> io::Result<()> {
    let mut pairs: Vec<_> = gt.iter().collect();
    pairs.sort_unstable();
    for (a, b) in pairs {
        csv::write_record(
            out,
            &[&input.profile(a).external_id, &input.profile(b).external_id],
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_datamodel::collection::EntityCollection;
    use blast_datamodel::entity::SourceId;
    use std::io::BufReader;

    fn input() -> ErInput {
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs("a1", [("x", "1")]);
        d1.push_pairs("a2", [("x", "2")]);
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs("b1", [("y", "1")]);
        ErInput::clean_clean(d1, d2)
    }

    #[test]
    fn reads_pairs_by_external_id() {
        let input = input();
        let gt = read_ground_truth(&mut BufReader::new("a1,b1\n".as_bytes()), &input).unwrap();
        assert_eq!(gt.len(), 1);
        assert!(gt.is_match(ProfileId(0), ProfileId(2)));
    }

    #[test]
    fn unknown_id_is_an_error() {
        let input = input();
        let err =
            read_ground_truth(&mut BufReader::new("a1,nope\n".as_bytes()), &input).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 1: unknown id \"nope\"");
    }

    #[test]
    fn short_row_error_names_its_physical_line() {
        // A blank line and a pair whose quoted id spans two lines sit above
        // the fault: it is the third record, and it starts on line 5.
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs("a1", [("x", "1")]);
        d1.push_pairs("a\n2", [("x", "2")]);
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs("b1", [("y", "1")]);
        let input = ErInput::clean_clean(d1, d2);
        let text = "a1,b1\n\n\"a\n2\",b1\na1\n";
        let err = read_ground_truth(&mut BufReader::new(text.as_bytes()), &input).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "line 5: ground-truth row needs two columns"
        );
    }

    #[test]
    fn same_external_id_resolves_per_source() {
        let mut d1 = EntityCollection::new(SourceId(0));
        d1.push_pairs("x", [("a", "1")]);
        let mut d2 = EntityCollection::new(SourceId(1));
        d2.push_pairs("x", [("b", "1")]);
        let input = ErInput::clean_clean(d1, d2);
        let gt = read_ground_truth(&mut BufReader::new("x,x\n".as_bytes()), &input).unwrap();
        assert!(gt.is_match(ProfileId(0), ProfileId(1)));
    }

    #[test]
    fn roundtrip() {
        let input = input();
        let gt =
            read_ground_truth(&mut BufReader::new("a1,b1\na2,b1\n".as_bytes()), &input).unwrap();
        let mut buf = Vec::new();
        write_ground_truth(&mut buf, &gt, &input).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let gt2 = read_ground_truth(&mut BufReader::new(text.as_bytes()), &input).unwrap();
        assert_eq!(gt.len(), gt2.len());
    }
}
