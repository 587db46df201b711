#!/usr/bin/env bash
# Panic budget: the number of `panic!` / `unreachable!` / `unwrap()` /
# `expect(` sites in the non-test code of the crates that face outside input
# (serve, incremental, io, cli), run on every `/stats` and `/metrics`
# request (obs), or hold the cold tier's read-or-panic sites that
# incremental runs on every budgeted commit (graph) may only go down.
#
# Non-test code is each `src/**/*.rs` file up to its first `#[cfg(test)]`
# that gates a module (the next line opens a `mod`): an item-level
# `#[cfg(test)]` on a function or an `impl` does not end the scan.
# The counts are compared with scripts/panic_budget.txt (`<crate> <count>`
# per line): a count above its recorded value fails; a count below it also
# fails, asking for the file to be lowered, so the ratchet never slackens.
#
# Usage: scripts/panic_budget.sh
set -euo pipefail

cd "$(dirname "$0")/.."
budget=scripts/panic_budget.txt
status=0
while read -r crate allowed; do
    count=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0; gate = 0 }
            gate && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { test = 1 }
            { gate = /#\[cfg\(test\)\]/ }
            !test { n += gsub(/panic!|unreachable!|unwrap\(\)|expect\(/, "") }
            END { print n + 0 }')
    if [ "$count" -gt "$allowed" ]; then
        echo "panic budget: crates/$crate/src has $count sites, budget is $allowed — return an error instead" >&2
        status=1
    elif [ "$count" -lt "$allowed" ]; then
        echo "panic budget: crates/$crate/src is down to $count sites — lower its line in $budget from $allowed" >&2
        status=1
    else
        echo "panic budget: $crate $count"
    fi
done <"$budget"
exit "$status"
