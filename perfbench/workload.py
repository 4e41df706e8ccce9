"""One workload in a fresh process: set-up, the timed closed loop, checks.

Started by run.py as `python3 perfbench/workload.py --workload W --seed N
--seconds S --trace 0|1` with flagample importable; prints one JSON
object on its last stdout line.  With --trace 0 the loop runs bare and
reports per-case times.  With --trace 1 the same loop runs under the
span tracer, then a count-only pass runs the workload's count units.

The loop runs whole cycles of the workload's units (see cases.py) until
the time left is under half a cycle and there are enough samples for
the tail percentile, so every run covers the cycle's mix evenly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import sys
import time

import cases
import spans
import speed

import flagample
from flagample import cli, pipeline
from flagample.dynkin import DynkinType, root_count, weyl_order

KIND_PRODUCT = "ProductOverHSS"


class Tally:
    """Attempted and failed cases, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def case(self, problem: str | None):
        self.attempted += 1
        if problem:
            self.fail(problem)

    def fail(self, problem: str, n: int = 1):
        self.failed += n
        if len(self.reasons) < 5:
            self.reasons.append(problem)


def report_problem(rep: dict) -> str | None:
    """Output checks every case must pass; None when it passes."""
    dim_c = rep["dims"]["dim_C"]
    a = rep["snow"]["ampleness"]
    cls = rep["classification"]
    if not 0 <= a <= dim_c:
        return f"a(E)={a} outside 0..dim_C={dim_c}"
    if cls["concavity_degree"] != dim_c - a:
        return "degree != dim_C - a(E)"
    if (cls["kind"] == KIND_PRODUCT) != (a == dim_c):
        return f"kind {cls['kind']} with a(E)={a}, dim_C={dim_c}"
    if cls["cross_check"] != "passed":
        return f"cross_check {cls['cross_check']!r}"
    return None


def spec_of(case, verify: bool) -> pipeline.CaseSpec:
    label, marking, levi = case
    return pipeline.CaseSpec(
        DynkinType(label[0], cases.rank_of(label)), marking, levi, verify=verify
    )


def digest(rep: dict) -> str:
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()


def run_one_case(case, verify: bool, tally: Tally, work: dict | None = None):
    try:
        rep = pipeline.run_case(spec_of(case, verify)).to_json_dict()
    except Exception as exc:  # drawn cases are never degenerate: any error fails
        tally.case(f"{case}: {type(exc).__name__}: {exc}")
        return
    problem = report_problem(rep)
    want = cases.ANCHOR_DIGESTS.get(case)
    if problem is None and want and digest(rep) != want:
        problem = f"{case}: report differs from the recorded one"
    tally.case(problem and f"{case}: {problem}")
    if work is not None:
        add_work(work, case[0], rep)


def run_table(label: str, tally: Tally, jobs: int = 1, work: dict | None = None):
    """One `table --format json` through cli.main; checks every row and the
    digest of the bytes."""
    argv = ["table", "--type", label, "--format", "json"]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:
        code, out = f"{type(exc).__name__}: {exc}", io.StringIO()
    text = out.getvalue()
    if code != 0 or (hashlib.sha256(text.encode()).hexdigest()
                     != cases.TABLE_DIGESTS.get(label)):
        n = cases.table_cases(label)
        tally.attempted += n
        tally.fail(f"table {label}: exit {code}, or output bytes differ from "
                   "the recorded digest", n)
        return
    for row in json.loads(text)["rows"]:
        if row["status"] == "ok":
            tally.case(report_problem(row["report"]))
            if work is not None:
                add_work(work, label, row["report"])
        else:
            tally.case(None if row["status"] in cases.EXPECTED_STATUSES
                       else f"table {label}: row status {row['status']}")


def add_work(work: dict, label: str, rep: dict):
    """Work counts read off a case's output."""
    k_order = 1
    k_type = rep["realform"]["k_type"]
    if k_type != "0":
        for comp in k_type.split("×"):
            k_order *= weyl_order(comp[0], int(comp[1:]))
    work["rootsystem.roots"] += root_count(DynkinType(label[0], cases.rank_of(label)))
    work["weyl.k_order"] += k_order
    work["cycle.fiber_weights"] += rep["dims"]["rank_E"]
    work["snow.max_weights"] += len(rep["weights"]["lambda_max"])


WORK = ("rootsystem.roots", "weyl.k_order", "cycle.fiber_weights", "snow.max_weights")

# What --trace 1 reports, in order.  Times are self seconds per case,
# except rootsystem.build_s (the whole set-up); counts are totals of the
# count-only pass; parallel_efficiency is measured on sweep only.
PER_LAYER = (spans.SPAN_METRICS + ("pipeline.parallel_efficiency",)
             + spans.COUNTS + WORK)


def check_acceptance(tally: Tally):
    """The four worked A2/B2 cases of the acceptance suite, criteria 1-4."""
    want = {
        ("A2", (1,), (1,)): dict(dim_z=2, dim_c=1, rank_e=1, e0_weights=((1, 1),),
                                 ampleness=0, kind="Pseudoconcave",
                                 concavity_degree=1),
        ("A2", (1,), (2,)): dict(dim_c=0, ampleness=0, kind=KIND_PRODUCT),
        ("A2", (1,), ()): dict(ampleness=1, dim_c=1, kind=KIND_PRODUCT,
                               cross_check="passed",
                               notes="q cap s contained in s_minus"),
        ("B2", (2,), (1,)): dict(dim_z=3, dim_c=1, rank_e=2, ampleness=0,
                                 kind="Pseudoconcave", concavity_degree=1),
    }
    for case, fields in want.items():
        try:
            rep = pipeline.run_case(spec_of(case, verify=True))
        except Exception as exc:
            tally.case(f"acceptance {case}: {type(exc).__name__}: {exc}")
            continue
        wrong = [f"{k}={getattr(rep, k)!r}" for k, v in fields.items()
                 if getattr(rep, k) != v]
        tally.case(wrong and f"acceptance {case}: {', '.join(wrong)}")


class CaseTimer:
    """Wall-clock interval of each run_case call, also inside a table
    sweep, whose rows are otherwise only seen together."""

    def __init__(self):
        self.intervals = []

    def install(self, patches: spans.Patches):
        intervals = self.intervals

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    intervals.append((t0, time.perf_counter()))
            return wrapper

        patches.wrap("pipeline", "run_case", make)


def closed_loop(w: cases.Workload, units, seconds: float, min_cases: int,
                tally: Tally):
    """Whole cycles of units, one at a time, until less than half a cycle
    of the time is left and min_cases are done.  Returns (start, end,
    cycles, cases attempted)."""
    before = tally.attempted
    start = time.perf_counter()
    cycles = 0
    while True:
        for unit in units:
            if w.kind == "tables":
                run_table(unit, tally)
            else:
                run_one_case(unit, w.verify, tally)
        cycles += 1
        end = time.perf_counter()
        elapsed = end - start
        done = tally.attempted - before
        if elapsed + elapsed / cycles / 2 >= seconds and done >= min_cases:
            return start, end, cycles, done


def quantile(sorted_values, pct):
    """Nearest-rank percentile."""
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def tail_percentile(n: int, cap: int) -> int:
    ok = [p for p in cases.PERCENTILES
          if p <= cap and n * (100 - p) >= cases.TAIL_BEYOND * 100]
    return max(ok, default=50)


def setup(w: cases.Workload):
    for label in w.types:
        pipeline._root_system(label[0], cases.rank_of(label))


def untraced(w, units, args, tally):
    """End-to-end metrics in reference time (see speed.py); the raw wall
    clock figures go into the record beside them."""
    patches = spans.Patches()
    timer = CaseTimer()
    timer.install(patches)
    oracle = spans.Counter()
    if w.verify:  # one call per case: cheap enough to guard every run
        oracle.install_oracle(patches)
    try:
        with speed.Probe() as probe:
            start, end, cycles, done = closed_loop(
                w, units, args.seconds, args.min_cases, tally)
    finally:
        patches.remove()
    runs = oracle.counts["snow.oracle_runs"]
    if w.verify and runs != done:
        tally.fail(f"oracle ran {runs} times for {done} cases", max(done - runs, 1))
    body_ref = probe.duration(start, end)
    ref = sorted(probe.duration(a, b) for a, b in timer.intervals)
    raw = sorted(b - a for a, b in timer.intervals)
    pct = tail_percentile(len(ref), w.tail_pct)
    metrics = {
        "cases_per_s": (done / body_ref, "1/s"),
        "case_p50_ms": (1e3 * quantile(ref, 50), "ms"),
        "case_tail_ms": (1e3 * quantile(ref, pct), "ms"),
    }
    extra = {"tail_percentile": pct, "samples": len(ref), "body_s": end - start,
             "body_ref_s": body_ref, "cycles": cycles, "body_cases": done,
             "probe_ms": 1e3 * probe.mean_cost(),
             "raw_cases_per_s": done / (end - start),
             "raw_case_p50_ms": 1e3 * quantile(raw, 50),
             "raw_case_tail_ms": 1e3 * quantile(raw, pct)}
    return metrics, extra


def traced(w, units, args, tally):
    tracer = spans.SpanTracer()
    patches = spans.Patches()
    tracer.install(patches)
    try:
        setup(w)
        with speed.Probe() as probe:  # only to read the tracing overhead
            start, end, cycles, done = closed_loop(w, units, args.seconds,
                                                   args.min_cases, tally)
    finally:
        patches.remove()
    n = max(done, 1)
    metrics = {m: (tracer.self_s[m] / n, "s") for m in spans.SPAN_METRICS}
    metrics["rootsystem.build_s"] = (tracer.self_s["rootsystem.build_s"], "s")

    efficiency = 0.0
    if w.kind == "tables":
        label = units[0]
        t0 = time.perf_counter()
        run_table(label, tally)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_table(label, tally, jobs=2)
        efficiency = serial / (2 * (time.perf_counter() - t0))
    metrics["pipeline.parallel_efficiency"] = (efficiency, "ratio")

    counts = count_pass(
        w, cases.count_units(w.name, args.seed)[: args.limit or None], tally)
    for name, value in counts.items():
        metrics[name] = (value, "count")
    extra = {"body_s": end - start, "body_ref_s": probe.duration(start, end),
             "cycles": cycles, "body_cases": done}
    return {k: metrics[k] for k in PER_LAYER}, extra


def count_pass(w: cases.Workload, units, tally: Tally) -> dict:
    """Call and work counts over a fixed list of units; every count must
    repeat exactly for the same units."""
    counter = spans.Counter()
    work = dict.fromkeys(WORK, 0)
    patches = spans.Patches()
    counter.install(patches)
    checked = Tally()
    try:
        for unit in units:
            if w.kind == "tables":
                run_table(unit, checked, work=work)
            else:
                run_one_case(unit, w.verify, checked, work)
    finally:
        patches.remove()
    tally.attempted += checked.attempted
    if checked.failed:
        tally.fail("; ".join(checked.reasons), checked.failed)
    counts = dict(counter.counts)
    counts.update(work)
    if w.verify:
        runs, skipped = counts["snow.oracle_runs"], counts["snow.oracle_skipped"]
        if runs != len(units) or skipped:
            tally.fail(f"oracle ran {runs} times for {len(units)} cases, "
                       f"skipped {skipped}", max(len(units) - runs, skipped, 1))
    return counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=0,
                   help="smoke tests only: keep the first N units of the "
                        "cycle and drop the minimum sample count")
    args = p.parse_args(argv)
    w = cases.WORKLOADS[args.workload]
    units = cases.cycle(w.name, args.seed)
    if args.limit:
        units = units[: args.limit]
    args.min_cases = 0 if args.limit else w.min_cases

    tally = Tally()
    if not args.trace:
        setup(w)
    check_acceptance(tally)
    if args.trace:
        metrics, extra = traced(w, units, args, tally)
    else:
        metrics, extra = untraced(w, units, args, tally)
    env = {
        "python": platform.python_version(),
        "backend": flagample.backend_name(),
        "FLAGAMPLE_PURE": os.environ.get("FLAGAMPLE_PURE"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
    }
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "env": env,
        "extra": extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
