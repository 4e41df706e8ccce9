"""Acceptance suite: the exit criteria of the build, one test per
criterion, each printing a PASS/FAIL line.  All arithmetic is exact
integer, so every comparison is at tolerance zero.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import subprocess
import sys
import time

import pytest

from flagample.dynkin import DynkinType, all_types_up_to_rank
from flagample.pipeline import CaseSpec, run_case, sweep_cases
from flagample.realform import grade_roots
from flagample.rootsystem import build_root_system
from flagample.snow import closed_form_maximal_weights
from flagample.weyl import SubsystemContext
from reference import (
    enumerate_weyl,
    length_of_perm,
    simple_system,
    subsystem_components,
)
from test_realform import compact_positive_roots, roots_of

SWEEP_TYPES = all_types_up_to_rank(3) + [DynkinType("D", 4), DynkinType("F", 4)]


def _line(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _timed_case(series, rank, noncompact, levi):
    t0 = time.perf_counter()
    rep = run_case(
        CaseSpec(DynkinType(series, rank), noncompact, levi, verify=True)
    )
    return rep, time.perf_counter() - t0


def test_criterion_1_su21_line_in_p2():
    rep, dt = _timed_case("A", 2, (1,), (1,))
    ok = (
        rep.dim_z == 2
        and rep.dim_c == 1
        and rep.rank_e == 1
        and rep.e0_weights == ((1, 1),)
        and rep.ampleness == 0
        and rep.kind == "Pseudoconcave"
        and rep.concavity_degree == 1
        and dt < 1.0
    )
    _line(1, ok, f"su(2,1) line in P2: a=0, degree 1, {dt:.3f}s")


def test_criterion_2_ball():
    rep, dt = _timed_case("A", 2, (1,), (2,))
    ok = (
        rep.dim_c == 0
        and rep.ampleness == 0
        and rep.kind == "ProductOverHSS"
        and dt < 1.0
    )
    _line(2, ok, f"ball in P2: a=0=dim_C, product, {dt:.3f}s")


def test_criterion_3_full_flag_su21():
    rep, dt = _timed_case("A", 2, (1,), ())
    ok = (
        rep.ampleness == 1
        and rep.dim_c == 1
        and rep.kind == "ProductOverHSS"
        and rep.cross_check == "passed"
        and rep.notes == "q cap s contained in s_minus"
        and dt < 1.0
    )
    _line(3, ok, f"full-flag su(2,1): a=1=dim_C, q cap s = s_minus, {dt:.3f}s")


def test_criterion_4_so41_quadric():
    rep, dt = _timed_case("B", 2, (2,), (1,))
    ok = (
        rep.dim_z == 3
        and rep.dim_c == 1
        and rep.rank_e == 2
        and rep.ampleness == 0
        and rep.kind == "Pseudoconcave"
        and rep.concavity_degree == 1
        and dt < 1.0
    )
    _line(4, ok, f"so(4,1) quadric domain: a=0, degree 1, {dt:.3f}s")


@pytest.fixture(scope="module")
def sweep():
    """Exhaustive sweep: rank <= 3 plus D4 and F4, every nonempty marking
    times every proper Levi subset, both search routes verified."""
    t0 = time.perf_counter()
    rows = []
    for dt in SWEEP_TYPES:
        rs = build_root_system(dt)
        for marking, levi in sweep_cases(dt):
            rep = run_case(CaseSpec(dt, marking, levi, verify=True))
            rows.append((dt, rs, marking, levi, rep))
    return rows, time.perf_counter() - t0


def test_criterion_5_exhaustive_sweep(sweep):
    rows, elapsed = sweep
    failures = []
    for dt, rs, marking, levi, rep in rows:
        tag = f"{dt} m={marking} l={levi}"
        if not 0 <= rep.ampleness <= rep.dim_c:
            failures.append(f"{tag}: ampleness range")
        if (rep.ampleness == rep.dim_c) != (rep.kind == "ProductOverHSS"):
            failures.append(f"{tag}: verdict mismatch")
        if rep.cross_check != "passed":
            failures.append(f"{tag}: containment biconditional")
        if rep.dim_z != rep.dim_c + rep.rank_e:
            failures.append(f"{tag}: dimension bookkeeping")
        # |lambda_max(s)| = 1 + center_dim
        g = grade_roots(rs, marking)
        from flagample.realform import hermitian_data

        h = hermitian_data(rs, g)
        if len(h.lambda_max_s) != 1 + h.center_dim:
            failures.append(f"{tag}: lambda_max(s) count")
        # closed-form case analysis equals the combinatorial maxima
        from flagample.cycle import parabolic_data

        pd = parabolic_data(rs, g, levi)
        if rep.max_weights != roots_of(rs, closed_form_maximal_weights(h, pd)):
            failures.append(f"{tag}: closed-form lambda_max")
        # run_case(verify=True) already forced brute == fast per case
    ok = not failures and elapsed < 60.0
    _line(
        5,
        ok,
        f"sweep of {len(rows)} cases over "
        f"{','.join(str(t) for t in SWEEP_TYPES)}: "
        f"{len(failures)} violations, {elapsed:.1f}s",
    )


def test_criterion_6_weyl_infrastructure(sweep):
    rows, _ = sweep
    seen = set()
    checked = 0
    bad = []
    for dt, rs, marking, levi, rep in rows:
        key = (dt, marking)
        if key in seen:
            continue
        seen.add(key)
        g = grade_roots(rs, marking)
        k_pos = compact_positive_roots(rs, g)
        if not k_pos:
            continue
        simples = simple_system(rs, k_pos)
        expected = 1
        for comp in subsystem_components(rs, k_pos):
            expected *= comp.order
        elements = enumerate_weyl(rs, simples)
        ctx = SubsystemContext(rs, [rs.root_index[v] for v in simples])
        if len(elements) != expected:
            bad.append(f"{dt} m={marking}: order {len(elements)} != {expected}")
        if any(length_of_perm(ctx, e.action) != e.length for e in elements):
            bad.append(f"{dt} m={marking}: inversion length mismatch")
        checked += 1
    _line(
        6,
        not bad,
        f"{checked} compact subsystems: orders match classical formulas, "
        f"inversion counts equal word lengths",
    )


def test_criterion_7_determinism_serial_vs_parallel():
    cmd = [sys.executable, "-m", "flagample", "table", "--type", "B3", "--format", "json"]
    serial = subprocess.run(cmd, capture_output=True, timeout=600)
    parallel = subprocess.run(cmd + ["--jobs", "4"], capture_output=True, timeout=600)
    ok = (
        serial.returncode == 0
        and parallel.returncode == 0
        and serial.stdout == parallel.stdout
        and len(json.loads(serial.stdout)["rows"]) == 49
    )
    _line(7, ok, "table --type B3 --format json byte-identical, serial vs 4 jobs")
