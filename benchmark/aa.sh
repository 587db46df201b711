#!/usr/bin/env bash
# A/A: two sets of runs of the same build must agree within the benchmark's
# own bounds. Runs every workload 10 times (seeds 1..10) per set, as the
# driver does, and writes the table to out/aa_report.txt. Fails unless every
# end-to-end metric's spread and median shift — setup_s included — is within
# its bound and every checksum, pair_completeness and pair_quality agrees
# exactly.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
mkdir -p benchmark/out
python3 benchmark/suite.py --bin "$target/release/blast-benchmark" --aa |
    tee benchmark/out/aa_report.txt
