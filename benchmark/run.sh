#!/usr/bin/env bash
# The one command of the repo benchmark. Builds the benchmark package
# (offline, release), then either
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
#       runs that one workload in this process and prints its result as the
#       last line of stdout (what BENCHMARK.json's `command` invokes), or
#
#   run.sh [--seed <n>] [--smoke]
#       runs all five workloads, each repetition in a fresh process, checks
#       every gate and prints every metric by name (see suite.py).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/blast-benchmark"
mkdir -p benchmark/out

case " $* " in
*" --workload "*) exec "$bin" --out benchmark/out "$@" ;;
*) exec python3 benchmark/suite.py --bin "$bin" "$@" ;;
esac
