"""Tests of the benchmark itself: exact counts, printed metrics, output
checks, the backend guard and the case tables.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cases  # noqa: E402
import record  # noqa: E402
import workload  # noqa: E402
from flagample import pipeline  # noqa: E402
from flagample.dynkin import weyl_order  # noqa: E402
from flagample.realform import grade_roots, hermitian_data  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small slices of the real cycles: a few seconds each.
SMALL = {
    "large-cases": lambda seed: [cases.ANCHORS[0], cases.cycle("large-cases", seed)[3]],
    "oracle": lambda seed: cases.cycle("oracle", seed)[:2],
    "sweep": lambda seed: ["A4"],
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
def test_count_pass_repeats_exactly(name):
    w = cases.WORKLOADS[name]
    units = SMALL[name](7)
    workload.setup(w)
    runs = []
    for _ in range(2):
        tally = workload.Tally()
        runs.append(workload.count_pass(w, units, tally))
        assert tally.failed == 0, tally.reasons
    assert runs[0] == runs[1]
    counts = runs[0]
    assert set(counts) == set(workload.spans.COUNTS) | set(workload.WORK)
    assert all(isinstance(v, int) for v in counts.values())
    assert counts["rootsystem.pair_calls"] > 0
    if w.verify:
        assert counts["snow.oracle_runs"] == len(units)
        assert counts["snow.oracle_skipped"] == 0
        assert counts["kernels.elements"] == counts["weyl.k_order"]
    else:
        assert counts["kernels.elements"] == counts["snow.oracle_runs"] == 0


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(name):
    done = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--limit", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for metric, unit in want.items():
        assert any(line.startswith(f"{metric} ") and line.split()[2] == unit
                   for line in lines[:-1]), metric
    assert any(line.startswith("env ") for line in lines)


def test_per_layer_metrics_printed_with_units():
    done = run_bench("--workload", "oracle", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--limit", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_output_checks_catch_a_failed_cross_check():
    rep = {"dims": {"dim_C": 2}, "snow": {"ampleness": 1},
           "classification": {"kind": "Pseudoconcave", "concavity_degree": 1,
                              "cross_check": "passed"}}
    assert workload.report_problem(rep) is None
    rep["classification"]["cross_check"] = "failed"
    assert "cross_check" in workload.report_problem(rep)
    rep["classification"].update(cross_check="passed", kind="ProductOverHSS")
    assert "kind" in workload.report_problem(rep)


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    def write(path, backend):
        rec = {"workload": "sweep", "seed": 1, "trace": 0, "extra": {},
               "env": {"backend": backend},
               "metrics": {"setup_s": {"value": 0.2, "unit": "s"}}}
        path.write_text(json.dumps(rec) + "\n")
        return str(path)

    a, b = write(tmp_path / "a.jsonl", "python"), write(tmp_path / "b.jsonl", "c")
    assert record.main(["compare", a, b]) == 2
    assert "refusing" in capsys.readouterr().err
    assert record.main(["compare", a, a]) == 0


def test_oracle_strata_cover_every_small_marking():
    for label, by_k in cases.ORACLE_STRATA.items():
        rs = pipeline._root_system(label[0], cases.rank_of(label))
        listed = sorted(m for markings in by_k.values() for m in markings)
        nodes = range(1, cases.rank_of(label) + 1)
        assert listed == sorted(itertools.chain(
            itertools.combinations(nodes, 1), itertools.combinations(nodes, 2)))
        for k_type, markings in by_k.items():
            order = 1
            for comp in k_type.split("×"):
                order *= weyl_order(comp[0], int(comp[1:]))
            assert order <= 5 * 10**4
            for m in markings:
                assert hermitian_data(rs, grade_roots(rs, m)).k_type == k_type


def test_cycles_come_from_the_seed():
    for name in cases.WORKLOADS:
        assert cases.cycle(name, 11) == cases.cycle(name, 11)
    assert cases.cycle("large-cases", 1) != cases.cycle("large-cases", 2)
    assert len(cases.cycle("large-cases", 1)) == cases.WORKLOADS["large-cases"].min_cases
    assert len(cases.cycle("oracle", 1)) >= cases.WORKLOADS["oracle"].min_cases
    assert sorted(cases.cycle("sweep", 1)) == sorted(cases.TABLE_DIGESTS)


def test_benchmark_json_lists_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(cases.WORKLOADS)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(workload.PER_LAYER)
