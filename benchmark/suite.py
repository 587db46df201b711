#!/usr/bin/env python3
"""Runs the whole benchmark and prints every metric; or runs it twice (A/A).

Called by run.sh (all workloads) and aa.sh (two sets of runs of one build).
Every run is a fresh process of the benchmark binary. Standard library only.

  suite.py --bin BIN [--seed N] [--smoke]
      Per workload: 3 untraced repetitions (1 at the smoke size; end-to-end
      metrics; value = median, all repetitions kept) and one traced repetition
      (per-layer metrics and out/trace_<workload>.jsonl). Checks the gates
      that span processes, prints every metric by name with its unit and
      writes out/results.json.

  suite.py --bin BIN --aa
      Two sets of 10 runs per workload, seeds 1..10 in both, as the driver
      does. For every end-to-end metric and workload: the spread of each set
      (distance between the quartiles as a share of the median) and how much
      worse the second median is than the first, against the metric's bound
      in BENCHMARK.json. Exits non-zero unless everything is within bound and
      every checksum and quality figure of the second set equals the first's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Deterministic: these must repeat exactly.
EXACT = ("pair_completeness", "pair_quality")
# Untraced repetitions per workload (the smoke size does one) and runs per
# A/A set. Constants, like the workload sizes: numbers from another count
# would not be this benchmark's.
REPS = 3
AA_RUNS = 10
# The read side of serve_mixed. Per-layer metrics (the driver wants every
# end-to-end metric from every workload), but every run measures them, so
# they are kept per repetition and A/A shows how far they move — and holds
# the ones layers.json lists under `bounded` to their bound.
READ_SIDE = ("serve.read_service_us", "serve.read_p50_us", "serve.read_p90_us",
             "serve.read_p99_us", "serve.read_rps_max")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_bounded():
    """Per-layer metric -> bound, for the ones A/A gates (layers.json)."""
    with open(os.path.join(HERE, "layers.json")) as f:
        return {n: b["bound"] for n, b in json.load(f)["bounded"].items()}


def run_once(binary, workload, seed, seconds, trace, smoke):
    """One process. Returns (result object, info dict); exits on failure."""
    cmd = [binary, "--out", OUT, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"FAILED {workload} seed {seed} trace {int(trace)}: "
                 f"{done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        parts = line.split(" ", 2)
        if parts[0] == "info" and parts[1] != "span":
            info[parts[1]] = parts[2]
    if not result["correct"] or result["failed"]:
        sys.exit(f"FAILED {workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    return result, info


def check_names(result, declared, what, workload):
    """The run printed exactly the declared metrics, each in its declared unit."""
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    want = {(m["name"], m["unit"]) for m in declared}
    if got != want:
        sys.exit(f"FAILED {workload}: {what} metrics differ from BENCHMARK.json: "
                 f"missing {sorted(want - got)}, undeclared {sorted(got - want)}")


def worse_by(first, second, better):
    """Share of `first` by which `second` is worse (negative when better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def suite(args, spec):
    seconds = spec["run_seconds"]
    reps_wanted = 1 if args.smoke else REPS
    results = {"seed": args.seed, "reps": reps_wanted, "run_seconds": seconds,
               "host": {}, "workloads": {}}
    checksums = {}
    for w in [w["name"] for w in spec["workloads"]]:
        reps, rep_infos, sums = [], [], set()
        for _ in range(reps_wanted):
            result, info = run_once(args.bin, w, args.seed, seconds, False, args.smoke)
            check_names(result, spec["end_to_end"], "end-to-end", w)
            reps.append(result)
            rep_infos.append(info)
            sums.add(info["checksum"])
        traced, info = run_once(args.bin, w, args.seed, seconds, True, args.smoke)
        check_names(traced, spec["per_layer"], "per-layer", w)
        sums.add(info["checksum"])
        if len(sums) != 1:
            sys.exit(f"FAILED {w}: candidate-set checksum differs between "
                     f"repetitions or the traced run: {sorted(sums)}")
        checksums[w] = sums.pop()
        results["host"] = {k: info[k] for k in ("nproc", "rustc")}

        print(f"\n== {w}  (seed {args.seed}, {reps_wanted} repetitions + 1 traced, "
              f"checksum {checksums[w]}, {info['blast_threads']} worker threads)")
        entry = {"checksum": checksums[w], "blast_threads": int(info["blast_threads"]),
                 "attempted": [r["attempted"] for r in reps],
                 "failed": [r["failed"] for r in reps],
                 "end_to_end": {}, "per_layer": {}}
        print(f"   ops_attempted {entry['attempted']}  ops_failed {entry['failed']}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in reps]
            if m["name"] in EXACT and len(set(values)) != 1:
                sys.exit(f"FAILED {w}: {m['name']} differs between repetitions: {values}")
            med = statistics.median(values)
            entry["end_to_end"][m["name"]] = {"median": med, "unit": m["unit"], "reps": values}
            print(f"   {m['name']:<40} {med:>16.6g} {m['unit']:<8} reps {values}")
        if w == "serve_mixed":
            entry["read_side"] = {n: [float(i[n]) for i in rep_infos] for n in READ_SIDE}
            for n, values in entry["read_side"].items():
                print(f"   {n:<40} {statistics.median(values):>16.6g} {'':<8} reps {values}"
                      "  (untraced)")
        for m in spec["per_layer"]:
            value = traced["metrics"][m["name"]]["value"]
            entry["per_layer"][m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"   {m['name']:<40} {value:>16.6g} {m['unit']}")
        untraced = entry["end_to_end"]["op_p50_ms"]["median"]
        overhead = traced["metrics"]["trace.op_p50_ms"]["value"] / untraced
        entry["trace_overhead_ratio"] = overhead
        print(f"   {'trace_overhead_ratio':<40} {overhead:>16.6g} ratio    "
              f"(traced op_p50_ms / untraced)")
        results["workloads"][w] = entry

    if checksums["stream_budget"] != checksums["stream_insert"]:
        sys.exit("FAILED stream_budget: its final candidate set differs from "
                 "stream_insert's")
    print("\nall gates passed: every run correct, checksums repetition-stable, "
          "traced == untraced, stream_budget == stream_insert")
    if not args.smoke:
        check_predictions(results["workloads"])
        path = os.path.join(OUT, "results.json")
        with open(path, "w") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
        print(f"results written to {os.path.relpath(path, ROOT)}")


def check_predictions(workloads):
    """What README.md predicts of the per-layer numbers, at full size."""
    def layer(w, name):
        return workloads[w]["per_layer"][name]["value"]

    broken = []
    for w, entry in workloads.items():
        for name in entry["per_layer"]:
            if name.startswith("serve.") and w != "serve_mixed" and layer(w, name) != 0:
                broken.append(f"{name} on {w} is not 0")
            if name.startswith("cold.") and name != "cold.residency_s" \
                    and w != "stream_budget" and layer(w, name) != 0:
                broken.append(f"{name} on {w} is not 0")
    insert_total = sum(layer("stream_insert", f"incremental.{p}_s")
                       for p in ("index", "cleaning", "repair", "reweigh", "decision"))
    if layer("stream_insert", "incremental.reweigh_s") > 0.01 * insert_total:
        broken.append("incremental.reweigh_s on stream_insert is not ~ 0")
    if layer("stream_insert", "incremental.commits_tier2") != 0:
        broken.append("stream_insert has tier-2 commits")
    churn = [layer("stream_churn", f"incremental.commits_tier{t}") for t in (1, 2, 3)]
    if churn[1] < 0.9 * sum(churn):
        broken.append(f"stream_churn: tier 2 is {churn[1]:.0f} of {sum(churn):.0f} commits, < 90 %")
    late = layer("serve_mixed", "serve.generator_late_p50_us")
    p99 = layer("serve_mixed", "serve.read_p99_us")
    if late > 0.01 * p99:
        broken.append(f"the open-loop generator ran {late:.1f} us late at the median, "
                      f"> 1 % of read p99 ({p99:.0f} us)")
    if broken:
        sys.exit("FAILED predictions:\n  " + "\n  ".join(broken))
    print("per-layer predictions hold: serve.* and cold.* are 0 where bypassed, "
          "stream_insert never reweighs, stream_churn is >= 90 % tier 2, "
          "generator lateness < 1 % of read p99")


def aa(args, spec):
    seconds = spec["run_seconds"]
    seeds = list(range(1, AA_RUNS + 1))
    sets = []
    for label in "AB":
        runs = {}
        for w in [w["name"] for w in spec["workloads"]]:
            runs[w] = []
            for seed in seeds:
                result, info = run_once(args.bin, w, seed, seconds, False, False)
                check_names(result, spec["end_to_end"], "end-to-end", w)
                runs[w].append((result["metrics"], info["checksum"], info))
                print(f"set {label} {w} seed {seed} done", file=sys.stderr)
        sets.append(runs)

    failures = 0
    print(f"A/A: two sets of {AA_RUNS} runs per workload (seeds 1..{AA_RUNS}), "
          f"{seconds} s each, one build")
    print(f"{'workload':<14} {'metric':<18} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>8}  verdict")
    for w in sets[0]:
        for i, seed in enumerate(seeds):
            (ma, ca, _), (mb, cb, _) = sets[0][w][i], sets[1][w][i]
            same = ca == cb and all(ma[k]["value"] == mb[k]["value"] for k in EXACT)
            if not same:
                failures += 1
                print(f"{w} seed {seed}: checksum or quality differs between the sets")
        for m in spec["end_to_end"]:
            a = [r[0][m["name"]]["value"] for r in sets[0][w]]
            b = [r[0][m["name"]]["value"] for r in sets[1][w]]
            sa, sb = spread(a), spread(b)
            worse = worse_by(statistics.median(a), statistics.median(b), m["better"])
            ok = worse <= m["bound"] and max(sa, sb) <= m["bound"]
            failures += not ok
            print(f"{w:<14} {m['name']:<18} {statistics.median(a):>12.5g} "
                  f"{statistics.median(b):>12.5g} {sa:>9.4f} {sb:>9.4f} "
                  f"{worse:>+8.4f} {m['bound']:>8.2g}  {'ok' if ok else 'OUT OF BOUND'}")
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    bounded = load_bounded()
    for n in READ_SIDE:
        a = [float(r[2][n]) for r in sets[0]["serve_mixed"]]
        b = [float(r[2][n]) for r in sets[1]["serve_mixed"]]
        sa, sb = spread(a), spread(b)
        worse = worse_by(statistics.median(a), statistics.median(b), better[n])
        bound, verdict = "-", "per-layer, not bounded"
        if n in bounded:
            ok = worse <= bounded[n] and max(sa, sb) <= bounded[n]
            failures += not ok
            bound, verdict = f"{bounded[n]:.2g}", "ok" if ok else "OUT OF BOUND"
        print(f"{'serve_mixed':<14} {n:<21} {statistics.median(a):>9.5g} "
              f"{statistics.median(b):>12.5g} {sa:>9.4f} {sb:>9.4f} "
              f"{worse:>+8.4f} {bound:>8}  {verdict}")
    if failures:
        sys.exit(f"A/A FAILED: {failures} checks out of bound")
    print("A/A passed: every spread and every median shift is within its bound; "
          "checksums and quality figures agree exactly")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bin", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args()
    args.bin = os.path.abspath(args.bin)
    os.makedirs(OUT, exist_ok=True)
    spec = load_spec()
    aa(args, spec) if args.aa else suite(args, spec)


if __name__ == "__main__":
    main()
