#!/usr/bin/env bash
# Batch determinism on the CLI path: the pairs `blast block` (clean-clean)
# and `blast dedup` (dirty) write, and the report `blast paper` prints,
# must be byte-identical whatever the number of worker threads.
#
# Generates the ar1 preset, runs `blast block` on its two sources and
# `blast dedup` on its first source, each under BLAST_THREADS=1 and
# BLAST_THREADS=4, and `cmp`s the pair files: any difference fails. Then
# does the same for `blast block --lsh-threshold 0.5` on the dbp preset at
# scale 0.05 (thousands of attributes: the band-major MinHash LSH index
# builds its bands in parallel). Then
# runs `blast paper --scale 0.02` (every pruning × weigher the paper
# reports, on all eight datasets; id spaces wide enough that the loader
# orders rows both by sort and by bitmap) at 1 and 4 threads and `cmp`s
# the two reports.
#
# Then the incremental pipeline: `blast stream --verify` on 3 000
# census100k rows in micro-batches of 64, for every edge- and
# list-centric pruning (wep, cep, cnp1, cnp2) under CBS — whose streams
# stay on the dirty repair tier — and ECBS, whose |B| drift puts them on
# the reweigh tier; then for the node-centric variants, every one decided
# off the edge cache's rows and retention bits: BLAST pruning (χ² reads
# |B_u|, so its artefacts reach the co-members read off the snapshot's
# slot memberships), WNP1 under CBS (the streaming benchmark's
# configuration), WNP2 under CBS (the reciprocal rule) and WNP1 under
# ECBS (on the reweigh tier); and once with cleaning off (raw token
# blocks). Then the edge-delta repair's two sides: WEP under ARCS (a
# weigher reading block sizes, which keeps the wide dirty set), and WEP
# and WNP1 under EJS (degree events, with only the list-changed rows
# re-accumulated); then CEP and CNP1 under EJS, the two other readers of
# the births and deaths a row splice reports: CEP's rank frontier and
# CNP's top-k lists. Then the node-centric variants under the weighers no
# stream above pairs them with: WNP2 under JS (|B_u| with no drifting
# global: the co-member artefacts on the dirty tier), WNP1 under ARCS (the
# wide dirty set) and BLAST under CBS. Each run (21 configurations) must
# print its `verify: incremental == batch` line, and its 1- and 4-thread
# outputs must be byte-identical.
#
# Usage: scripts/block_determinism.sh [SCALE]
set -euo pipefail

SCALE="${1:-0.1}"

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -q -p blast-cli
blast=target/release/blast

echo "== block determinism: ar1 scale $SCALE, 1 vs 4 threads =="
"$blast" generate --preset ar1 --scale "$SCALE" --out-dir "$tmp/data" > /dev/null
for t in 1 4; do
    BLAST_THREADS=$t "$blast" block --d1 "$tmp/data/d1.csv" --d2 "$tmp/data/d2.csv" \
        --out "$tmp/block-$t.csv" > /dev/null
    BLAST_THREADS=$t "$blast" dedup --input "$tmp/data/d1.csv" \
        --out "$tmp/dedup-$t.csv" > /dev/null
done
for kind in block dedup; do
    # A missing or empty pair file would compare equal to another one.
    test -s "$tmp/$kind-1.csv"
    cmp "$tmp/$kind-1.csv" "$tmp/$kind-4.csv"
    echo "$kind: $(wc -l < "$tmp/$kind-1.csv") lines, identical at 1 and 4 threads"
done

echo "== LSH block determinism: dbp scale 0.05, --lsh-threshold 0.5, 1 vs 4 threads =="
"$blast" generate --preset dbp --scale 0.05 --out-dir "$tmp/dbp" > /dev/null
for t in 1 4; do
    BLAST_THREADS=$t "$blast" block --d1 "$tmp/dbp/d1.csv" --d2 "$tmp/dbp/d2.csv" \
        --lsh-threshold 0.5 --out "$tmp/lsh-$t.csv" > /dev/null
done
test -s "$tmp/lsh-1.csv"
cmp "$tmp/lsh-1.csv" "$tmp/lsh-4.csv"
echo "lsh block: $(wc -l < "$tmp/lsh-1.csv") lines, identical at 1 and 4 threads"

echo "== paper determinism: scale 0.02, 1 vs 4 threads =="
for t in 1 4; do
    BLAST_THREADS=$t "$blast" paper --scale 0.02 > "$tmp/paper-$t.txt"
done
test -s "$tmp/paper-1.txt"
cmp "$tmp/paper-1.txt" "$tmp/paper-4.txt"
echo "paper: $(wc -l < "$tmp/paper-1.txt") lines, identical at 1 and 4 threads"

echo "== stream determinism + verify: census100k scale 0.03, 1 vs 4 threads =="
"$blast" generate --preset census100k --scale 0.03 --out-dir "$tmp/stream" > /dev/null
# stream_check NAME ARGS...: one `blast stream --verify` run per thread
# count, gated on the verify line and on byte-identical outputs.
stream_check() {
    local run="$tmp/stream-$1"
    shift
    for t in 1 4; do
        BLAST_THREADS=$t "$blast" stream --input "$tmp/stream/data.csv" --batch-size 64 \
            "$@" --verify > "$run-$t.txt"
        grep -q '^verify: incremental == batch' "$run-$t.txt"
    done
    cmp "$run-1.txt" "$run-4.txt"
    echo "stream $*: $(grep '^verify:' "$run-1.txt"), identical at 1 and 4 threads"
}
for pruning in wep cep cnp1 cnp2; do
    for scheme in cbs ecbs; do
        stream_check "$pruning-$scheme" --pruning "$pruning" --scheme "$scheme"
    done
done
stream_check blast --pruning blast
stream_check wnp1-cbs --pruning wnp1 --scheme cbs
stream_check wnp2-cbs --pruning wnp2 --scheme cbs
stream_check wnp1-ecbs --pruning wnp1 --scheme ecbs
stream_check wnp1-cbs-raw --pruning wnp1 --scheme cbs --no-cleaning
stream_check wep-arcs --pruning wep --scheme arcs
stream_check wep-ejs --pruning wep --scheme ejs
stream_check wnp1-ejs --pruning wnp1 --scheme ejs
stream_check cep-ejs --pruning cep --scheme ejs
stream_check cnp1-ejs --pruning cnp1 --scheme ejs
stream_check wnp2-js --pruning wnp2 --scheme js
stream_check wnp1-arcs --pruning wnp1 --scheme arcs
stream_check blast-cbs --pruning blast --scheme cbs
