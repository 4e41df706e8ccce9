#!/usr/bin/env python3
"""Run the benchmark over many seeds, summarise, compare, keep a trajectory.

    python3 perfbench/record.py run --seeds 1-10 --out perfbench/results/new.jsonl
    python3 perfbench/record.py run --seeds 1 --trace 1 --out perfbench/results/new.jsonl
    python3 perfbench/record.py summary perfbench/results/new.jsonl
    python3 perfbench/record.py compare perfbench/results/base.jsonl perfbench/results/new.jsonl
    python3 perfbench/record.py trajectory perfbench/results/new.jsonl --label <commit>

`run` calls run.py once per workload and seed, each in fresh processes,
prints every metric of every run with its unit, and appends every
record to the JSON-lines file.  `summary` prints, per
workload and end-to-end metric, the median over seeds and the spread
(interquartile range over median) next to the metric's bound.
`compare` prints the change of each median against its bound; it
refuses result sets whose kernel backend differs.  `trajectory` appends
a point with every metric of every workload, and the tracing overhead,
to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TRAJECTORY = HERE / "trajectory.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cmd_run(args) -> int:
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in SPEC["workloads"]]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", args.out]
            done = subprocess.run(argv, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines() or ["(no output)"]
            print("\n".join(lines[:-1]), flush=True)  # every metric, with unit
            if done.returncode != 0 or '"correct": true' not in lines[-1]:
                print(done.stdout + done.stderr, file=sys.stderr)
                status = 1
    return status


def stats(values) -> tuple:
    """(median, first quartile, third quartile, count)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3, len(values)


def end_to_end(records) -> dict:
    """workload -> metric -> stats over the untraced records."""
    by = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["trace"] == 0:
            for name, m in r["metrics"].items():
                by[r["workload"]][name].append(m["value"])
    return {w: {name: stats(v) for name, v in ms.items()} for w, ms in by.items()}


def cmd_summary(args) -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    status = 0
    for workload, ms in end_to_end(load(args.file)).items():
        print(workload)
        for name, (med, q1, q3, n) in ms.items():
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else \
                "  <-- spread over a third of the bound"
            status |= bool(flag)
            print(f"  {name:14s} median {med:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds[name]:.0%}  n={n}{flag}")
    return status


def backends(records) -> set:
    return {r["env"]["backend"] for r in records}


def cmd_compare(args) -> int:
    base, new = load(args.base), load(args.new)
    if backends(base) != backends(new) or len(backends(base)) != 1:
        print(f"refusing to compare: kernel backends {sorted(backends(base))} "
              f"vs {sorted(backends(new))}", file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    a, b = end_to_end(base), end_to_end(new)
    status = 0
    for workload in a:
        for name, (med_a, *_) in a[workload].items():
            if name not in b.get(workload, {}):
                continue
            med_b = b[workload][name][0]
            change = (med_b - med_a) / med_a
            worse = change if spec[name]["better"] == "lower" else -change
            verdict = "WORSE" if worse > spec[name]["bound"] else "ok"
            status |= verdict == "WORSE"
            print(f"{workload:12s} {name:14s} {med_a:12.6g} -> {med_b:12.6g}"
                  f"  {change:+7.2%}  bound {spec[name]['bound']:.0%}  {verdict}")
    return status


def cmd_trajectory(args) -> int:
    records = load(args.file)
    if len(backends(records)) != 1:
        print("refusing: records mix kernel backends", file=sys.stderr)
        return 2
    point = {"label": args.label, "env": {k: v for k, v in records[0]["env"].items()
                                          if k != "seed"},
             "workloads": {}}
    for workload, ms in end_to_end(records).items():
        point["workloads"][workload] = {"end_to_end": {
            name: {"median": med, "q1": q1, "q3": q3, "runs": n}
            for name, (med, q1, q3, n) in ms.items()}}
    for r in records:
        if r["trace"] != 1:
            continue
        entry = point["workloads"].setdefault(r["workload"], {})
        entry["per_layer"] = {k: m["value"] for k, m in r["metrics"].items()}
        same = [u for u in records if u["trace"] == 0 and u["seed"] == r["seed"]
                and u["workload"] == r["workload"]]
        if same:
            bare, traced = same[0]["extra"], r["extra"]
            entry["tracing_overhead"] = {  # in reference seconds, see speed.py
                "seed": r["seed"],
                "untraced_body_s": bare["body_ref_s"],
                "traced_body_s": traced["body_ref_s"],
                "traced_minus_untraced_s": traced["body_ref_s"] - bare["body_ref_s"],
                "per_case_ms": 1e3 * (traced["body_ref_s"] / traced["body_cases"]
                                      - bare["body_ref_s"] / bare["body_cases"]),
            }
    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    points.append(point)
    TRAJECTORY.write_text(json.dumps(points, indent=1, ensure_ascii=False) + "\n")
    print(f"appended point {args.label!r} to {TRAJECTORY.name}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", help="comma-separated; default all")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    t = sub.add_parser("trajectory")
    t.add_argument("file")
    t.add_argument("--label", required=True)
    args = p.parse_args(argv)
    return {"run": cmd_run, "summary": cmd_summary, "compare": cmd_compare,
            "trajectory": cmd_trajectory}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
