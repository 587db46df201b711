#!/usr/bin/env bash
# Serve smoke: boot `blast serve` on an ephemeral port, query it while it
# lingers, and gate on the read-your-writes equivalence line.
#
# The server streams a generated dirty preset through the incremental
# pipeline on the writer thread in micro-batches of 16 (several commits
# even at smoke scale), epoch-publishing a snapshot per commit;
# this script scrapes the `serving on http://...` line from stdout, hits
# /stats, /candidates, /topk and /metrics while the server is live,
# checks the JSON shapes and counters — every published weight strictly
# positive, one publish timing per snapshot swap, rows copied — then waits
# for the process to exit and asserts the `--verify` gate reported
# `verify: serve == incremental == batch`.
#
# BLAST_THREADS (if set) flows through to the server's reader-pool sizing
# — the CI matrix re-runs this script under BLAST_THREADS=4. Arguments
# after SCALE and LINGER_SECS are passed to `blast serve` as they are
# (CI adds `--memory-budget 0 --spill` for a run under the cold tier).
#
# Usage: scripts/serve_smoke.sh [SCALE] [LINGER_SECS] [SERVE_ARGS...]
set -euo pipefail

SCALE="${1:-0.05}"
LINGER="${2:-8}"
shift $(( $# < 2 ? $# : 2 ))

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

cargo build --release -q -p blast-cli

echo "== serve smoke: census scale $SCALE, linger ${LINGER}s, BLAST_THREADS=${BLAST_THREADS:-unset}, extra args: ${*:-none} =="
target/release/blast serve \
    --preset census --scale "$SCALE" --batch-size 16 \
    --port 0 --linger "$LINGER" --verify "$@" \
    > "$tmp/serve.out" 2> "$tmp/serve.err" &
pid=$!

# Scrape the bound address (printed and flushed before the ingest starts).
url=""
for _ in $(seq 1 100); do
    url="$(grep -o 'http://[0-9.]*:[0-9]*' "$tmp/serve.out" | head -1 || true)"
    [ -n "$url" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "server exited before announcing its address" >&2
        cat "$tmp/serve.out" "$tmp/serve.err" >&2
        exit 1
    fi
    sleep 0.1
done
[ -n "$url" ] || { echo "no 'serving on' line within 10s" >&2; exit 1; }
echo "scraped $url"

# Query the live server and validate shapes + counters.
python3 - "$url" <<'EOF'
import json
import sys
import time
import urllib.error
import urllib.request

base = sys.argv[1]

def get(path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()

# /stats: corpus + serving counters at one published seq.
status, body = get("/stats")
assert status == 200, body
stats = json.loads(body)
for key in ("seq", "nodes", "live", "pairs", "blocks", "queries",
            "snapshot_swaps", "stale_epochs", "ingest_done"):
    assert key in stats, f"/stats missing {key}: {stats}"
assert stats["snapshot_swaps"] >= 1, stats

# /candidates and /topk answer from one pinned snapshot each.
status, body = get("/candidates?id=0")
assert status == 200, body
cands = json.loads(body)
for key in ("seq", "id", "live", "count", "candidates"):
    assert key in cands, f"/candidates missing {key}: {cands}"
assert cands["count"] == len(cands["candidates"])

status, body = get("/topk?id=0&k=3")
assert status == 200, body
top = json.loads(body)
assert top["count"] <= 3, top
weights = [c["weight"] for c in top["candidates"]]
assert weights == sorted(weights, reverse=True), top

# Unknown ids and paths are clean 404s, not crashes.
status, body = get("/candidates?id=99999999")
assert status == 404, (status, body)
status, body = get("/nope")
assert status == 404, (status, body)

# /metrics: the Prometheus page carries both the serve and the commit
# families, and the query counter moved (we just issued several).
status, body = get("/metrics")
assert status == 200
assert "blast_serve_queries" in body
assert "blast_serve_snapshot_swaps" in body
assert "blast_commit_count" in body
def series(page, name):
    return next(int(line.split()[1]) for line in page.splitlines()
                if line.startswith(name + " "))

queries = series(body, "blast_serve_queries")
assert queries >= 3, f"query counter did not move: {queries}"

# Once the ingest is done the writer is quiet, so the page is one
# consistent cut: every snapshot swap recorded one publish timing, and
# publishing copied rows.
for _ in range(600):
    if json.loads(get("/stats")[1])["ingest_done"]:
        break
    time.sleep(0.1)
else:
    raise AssertionError("ingest did not finish while the server lingered")
status, body = get("/metrics")
assert status == 200
swaps = series(body, "blast_serve_snapshot_swaps")
publishes = series(body, "blast_serve_publish_secs_count")
assert publishes == swaps, f"{publishes} publish timings for {swaps} swaps"
rows_copied = series(body, "blast_serve_rows_copied")
assert rows_copied > 0, "no snapshot rows copied"
assert series(body, "blast_serve_chunks_copied") > 0

# Published weights are the decision stage's own. BLAST pruning (the
# server's default) retains a pair only at w > 0, as CBS would (a retained
# pair shares a block), so a 0 on the page can only be a placeholder.
# Checked on the final view, for every partner of the first few hundred
# ids.
listed = 0
for node in range(300):
    status, body = get(f"/candidates?id={node}")
    if status == 404:
        break
    assert status == 200, body
    for c in json.loads(body)["candidates"]:
        assert c["weight"] > 0, f"node {node} publishes {c}"
        listed += 1
assert listed > 0, "no candidate listed on the final view"

print(f"queried {base}: seq {stats['seq']}, {stats['pairs']} pairs, "
      f"{queries} queries recorded; {swaps} publishes copied "
      f"{rows_copied} rows, {listed} listed weights all positive")
EOF

# The server exits on its own after the linger window; --verify makes a
# divergence a non-zero exit, and the report must carry the equivalence
# line.
if ! wait "$pid"; then
    echo "blast serve exited non-zero" >&2
    cat "$tmp/serve.out" "$tmp/serve.err" >&2
    exit 1
fi
pid=""

grep -q "serve: census" "$tmp/serve.out" || {
    echo "missing serve report" >&2; cat "$tmp/serve.out" >&2; exit 1; }
grep -q "verify: serve == incremental == batch" "$tmp/serve.out" || {
    echo "missing equivalence line" >&2; cat "$tmp/serve.out" >&2; exit 1; }
sed -n '/^serve:/,$p' "$tmp/serve.out"
echo "== ok: serve smoke passed =="
