#!/usr/bin/env python3
"""Validates BENCHMARK.json and benchmark/layers.json. Standard library only.

BENCHMARK.json must have exactly the keys the benchmark contract names, five
workloads each with a one-line reason, at most 16 end-to-end metrics (each
with unit, direction and a bound of at most 0.25, one of them `setup_s`) and
at most 128 per-layer metrics. layers.json must say, for every per-layer
metric, what it measures and which existing end-to-end metric it should move
on which existing workload, and carry the host block (nproc, rustc,
BLAST_THREADS per workload).

Exit code 0 and "ok" when both files hold; otherwise one line per problem.
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
WORKLOADS = ["batch_dbp", "stream_insert", "stream_churn", "stream_budget", "serve_mixed"]


def check(spec, layers):
    problems = []
    bad = problems.append

    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        bad(f"top-level keys are {sorted(spec)}, expected {sorted(keys)}")
        return problems

    command, paths = spec["command"], spec["paths"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        bad("command must be a list of 1..32 strings of at most 200 characters")
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH.match(p) for p in paths)):
        bad("paths must be 1..16 relative directory names")
    for part in list(command) + list(paths):
        if isinstance(part, str) and (part.startswith("/") or ".." in part.split("/")):
            bad(f"{part!r} is absolute or leads out of the repo")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        bad("run_seconds must be a whole number from 1 to 60")

    names = []
    workloads = spec["workloads"]
    if [w.get("name") for w in workloads] != WORKLOADS:
        bad(f"workloads must be exactly {WORKLOADS}, in that order")
    for w in workloads:
        if set(w) != {"name", "why"}:
            bad(f"workload {w.get('name')!r} must have exactly name and why")
            continue
        names.append(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            bad(f"workload {w['name']}: why must be one line of at most 200 characters")

    e2e = spec["end_to_end"]
    if not 1 <= len(e2e) <= 16:
        bad("end_to_end must hold 1..16 metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            bad(f"end-to-end metric {m.get('name')!r} must have exactly name, unit, better, bound")
            continue
        names.append(m["name"])
        bound = m["bound"]
        if not (isinstance(bound, (int, float)) and not isinstance(bound, bool)
                and 0 <= bound <= 0.25):
            bad(f"{m['name']}: bound must be a number in 0..0.25")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not (setup and setup[0].get("unit") == "s" and setup[0].get("better") == "lower"):
        bad("end_to_end must include setup_s with unit s and better lower")

    per_layer = spec["per_layer"]
    if not 1 <= len(per_layer) <= 128:
        bad("per_layer must hold 1..128 metrics")
    for m in per_layer:
        if set(m) != {"name", "unit", "better"}:
            bad(f"per-layer metric {m.get('name')!r} must have exactly name, unit, better")
            continue
        names.append(m["name"])

    for m in list(e2e) + list(per_layer):
        if not UNIT.match(str(m.get("unit", ""))):
            bad(f"{m.get('name')}: unit {m.get('unit')!r} is not 1..16 of letters, digits, _ / % . -")
        if m.get("better") not in ("lower", "higher"):
            bad(f"{m.get('name')}: better must be lower or higher")
    for n in names:
        if not (isinstance(n, str) and NAME.match(n)):
            bad(f"name {n!r} must start with a letter or digit and use only letters, digits, _ . -")
    for n in sorted({n for n in names if names.count(n) > 1}):
        bad(f"name {n!r} is used more than once")

    # layers.json: the prediction map and the host block.
    e2e_names = {m.get("name") for m in e2e}
    mapped = layers.get("per_layer", {})
    for m in per_layer:
        entry = mapped.get(m.get("name"))
        if entry is None:
            bad(f"layers.json says nothing about {m.get('name')}")
        elif not (isinstance(entry.get("what"), str) and entry["what"]):
            bad(f"layers.json: {m['name']} does not say what it measures")
        elif entry.get("moves") not in e2e_names:
            bad(f"layers.json: {m['name']} moves {entry.get('moves')!r}, not an end-to-end metric")
        elif entry.get("workload") not in WORKLOADS:
            bad(f"layers.json: {m['name']} names workload {entry.get('workload')!r}")
    for n in sorted(set(mapped) - {m.get("name") for m in per_layer}):
        bad(f"layers.json maps {n}, which BENCHMARK.json does not declare")
    for n, b in layers.get("bounded", {}).items():
        if n not in mapped or mapped[n].get("workload") != b.get("workload"):
            bad(f"layers.json bounded: {n} is not a per-layer metric of workload {b.get('workload')!r}")
        if not (isinstance(b.get("bound"), (int, float)) and 0 < b["bound"] <= 0.25):
            bad(f"layers.json bounded: {n} needs a bound in (0, 0.25]")
    host = layers.get("host", {})
    layer_names = {m.get("name") for m in per_layer}
    for key in ("nproc", "rustc", "blast_threads_metric"):
        if host.get(key) not in layer_names:
            bad(f"layers.json host.{key} must name a per-layer metric")
    if sorted(host.get("BLAST_THREADS", {})) != sorted(WORKLOADS):
        bad("layers.json host.BLAST_THREADS must give the thread count of every workload")
    return problems


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "rb") as f:
        raw = f.read()
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    problems = check(json.loads(raw), layers)
    if len(raw) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    for p in problems:
        print(p)
    if problems:
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
