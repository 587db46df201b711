//! The paper's tables, pinned: `blast paper --scale 0.01` must print
//! `tests/golden/paper_tables.txt` byte for byte, so every PC/PQ/F1/|B|
//! the repo reports about the paper is a regression gate, not text.
//!
//! On a mismatch the test prints the first differing line and the whole
//! fresh report. When the change to the numbers is intended, that report
//! is the new golden file.

const GOLDEN: &str = include_str!("golden/paper_tables.txt");

#[test]
fn paper_report_matches_the_golden_file() {
    let argv: Vec<String> = ["paper", "--scale", "0.01"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let fresh = blast_cli::run(&argv).expect("blast paper runs");
    if fresh == GOLDEN {
        return;
    }
    let (mut golden, mut report) = (GOLDEN.lines(), fresh.lines());
    let mut line = 1;
    let (want, got) = loop {
        match (golden.next(), report.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => break (a, b),
        }
    };
    panic!(
        "blast paper --scale 0.01 differs from tests/golden/paper_tables.txt \
         at line {line}:\n  golden: {want:?}\n  fresh:  {got:?}\n\n\
         The fresh report:\n{fresh}"
    );
}
