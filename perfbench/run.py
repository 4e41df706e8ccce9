#!/usr/bin/env python3
"""flagample pipeline benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs to be installed.
Each run times set-up in fresh processes, then runs the workload in one
more fresh process (perfbench/workload.py), a closed loop that sends the
next case only when the previous one has returned, and checks every
output.  It prints each metric as `name value unit`, then, as its last
line, one JSON object with the keys correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(self time of each module's calls, then call and work counts from a
separate count-only pass).  --out FILE appends the whole record, with
its environment stamp, to FILE as one JSON line; record.py reads those.

Workloads: large-cases, sweep, oracle (see cases.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # the whole run, including set-up

END_TO_END = ("setup_s", "cases_per_s", "case_p50_ms", "case_tail_ms", "peak_rss_mb")

SETUP_RUNS = 7
SETUP_CODE = (
    "import sys\n"
    "from flagample import pipeline\n"
    "for t in sys.argv[1:]:\n"
    "    pipeline._root_system(t[0], int(t[1:]))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def measure_setup(w: cases.Workload, env: dict) -> float:
    """Median wall time of a fresh process that imports flagample and
    builds the workload's root systems; one unmeasured warm-up first.
    Wall time, not reference time: start-up does not follow the host
    speed that speed.py measures.  No timeout: with one, subprocess polls
    for the exit in steps of up to 50 ms, which would quantize the time."""
    argv = [sys.executable, "-c", SETUP_CODE, *w.types]
    times = []
    for _ in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def run_workload(args, env: dict, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.limit:
        argv += ["--limit", str(args.limit)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} did not finish in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=0,
                   help="smoke tests only: first N units of the cycle")
    p.add_argument("--out", help="append the full record to this JSON-lines file")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "flagample" / "__init__.py").is_file():
        print(f"perfbench: no flagample sources at {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    w = cases.WORKLOADS[args.workload]
    env = child_env()
    setup_s = None if args.trace else measure_setup(w, env)
    result = run_workload(args, env, deadline)
    metrics = result["metrics"]
    if not args.trace:
        # the largest peak among finished descendants: the workload process
        # or a process it started (set-up processes are smaller); KiB here
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        metrics = {k: metrics[k] for k in END_TO_END}
    env_stamp = result["env"]
    attempted, failed = result["attempted"], result["failed"]
    extra = result["extra"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env_stamp, sort_keys=True))
    for name, m in metrics.items():
        note = ""
        if name == "case_tail_ms":
            note = f"  (p{extra['tail_percentile']} of {extra['samples']} cases)"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"error_rate {failed / max(attempted, 1):.6g} ratio"
          f"  ({failed} of {attempted} cases failed)")
    for reason in result["reasons"]:
        print(f"failure: {reason}")

    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "env": env_stamp, "attempted": attempted,
                  "failed": failed, "extra": extra, "metrics": metrics}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
