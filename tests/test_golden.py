"""Byte-identity of the CLI output.

Every pinned digest lives in `golden/digests.json`, with the commit it
was recorded at; `golden/check.py` is the one routine that runs a
command, hashes its stdout and compares.  These tests run the registry's
`tier1` group in process through `flagample.cli.main`: `table --format
json` of every rank ≤ 4 type, with and without --verify (the JSON does
not say which search routes ran, so a verified table has the same
digest); three heavy `compute --format json` reports, E7 also with each
route forced and verified by the other; the text and TSV output of four
tables and of `compute`, where the text report names the xi-half
holding q ∩ s and so pins the sign of xi, which the JSON does not show;
and an all-capped `table`, whose rows print their status and dashes.
The other groups are run by CI through the checker.
"""

import io
import re
from pathlib import Path

import pytest

from golden import check

REGISTRY = check.load()
TIER1 = check.runs(REGISTRY, "tier1")
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def _option(run, flag):
    argv = run.argv
    return argv[argv.index(flag) + 1] if flag in argv else None


def _shape(run):
    """(command, format, capped): which test below runs `run`."""
    return run.argv[0], _option(run, "--format") or "text", "--max-weyl" in run.argv


def _pick(command, *formats, capped=False):
    return [run for run in TIER1 if _shape(run) in {(command, f, capped) for f in formats}]


def _case_name(run):
    """`E7 {7}`, `A14 {1,8} levi {2,3}`, `E7 {7} bruteforce --verify`."""
    name = f"{_option(run, '--type')} {{{_option(run, '--noncompact')}}}"
    if "--levi" in run.argv:
        name += f" levi {{{_option(run, '--levi')}}}"
    if "--method" in run.argv:
        name += f" {_option(run, '--method')}"
    return name + " --verify" * ("--verify" in run.argv)


def _table_name(run, variant):
    return f"{_option(run, '--type')}-{variant}"


def _assert_pinned(run):
    assert check.check([run], check.run_in_process, io.StringIO()) is None


_TESTS = {
    "test_table_json_bytes": _pick("table", "json"),
    "test_compute_json_bytes": _pick("compute", "json"),
    "test_compute_text_bytes": _pick("compute", "text"),
    "test_table_text_and_tsv_bytes": _pick("table", "text", "tsv"),
    "test_compute_tsv_bytes": _pick("compute", "tsv"),
    "test_capped_table_bytes": _pick("table", "json", "tsv", capped=True),
}


@pytest.mark.parametrize(
    "run",
    _TESTS["test_table_json_bytes"],
    ids=lambda run: _table_name(run, "verify" if "--verify" in run.argv else "plain"),
)
def test_table_json_bytes(run):
    _assert_pinned(run)


@pytest.mark.parametrize("run", _TESTS["test_compute_json_bytes"], ids=_case_name)
def test_compute_json_bytes(run):
    _assert_pinned(run)


@pytest.mark.parametrize("run", _TESTS["test_compute_text_bytes"], ids=_case_name)
def test_compute_text_bytes(run):
    _assert_pinned(run)


@pytest.mark.parametrize(
    "run",
    _TESTS["test_table_text_and_tsv_bytes"],
    ids=lambda run: _table_name(run, _option(run, "--format")),
)
def test_table_text_and_tsv_bytes(run):
    _assert_pinned(run)


@pytest.mark.parametrize("run", _TESTS["test_compute_tsv_bytes"], ids=_case_name)
def test_compute_tsv_bytes(run):
    _assert_pinned(run)


# every case of A2 has |W(K)| > 1, so every row is an EnumerationCap row
@pytest.mark.parametrize(
    "run", _TESTS["test_capped_table_bytes"], ids=lambda run: _option(run, "--format")
)
def test_capped_table_bytes(run):
    _assert_pinned(run)


def test_checker_names_a_doctored_digest():
    """The checker's routine, in the child process CI uses, fails on an
    entry whose digest is off by one hex digit and names the entry; with
    the true digest it passes."""
    key = "table --type A1 --format json"
    true = REGISTRY[key]["sha256"]
    doctored = {key: {**REGISTRY[key], "sha256": "%x" % (int(true[0], 16) ^ 1) + true[1:]}}
    run = check.runs(doctored, "tier1")[0]
    message = check.check([run], out=io.StringIO())
    assert message == f"not byte-identical: {key}"
    assert check.check([run._replace(sha256=true)], out=io.StringIO()) is None


def test_every_registry_entry_is_checked():
    """Each entry has a run; each tier-1 run belongs to exactly one test
    above; every other group is one that CI runs through the checker,
    and every group CI names has runs."""
    calls = re.findall(r"python tests/golden/check\.py (.*)", WORKFLOW.read_text())
    ci_groups = {group for call in calls for group in call.split()}
    for key, entry in REGISTRY.items():
        assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"]), key
        assert any(entry["runs"].values()), key
        assert set(entry["runs"]) <= ci_groups | {"tier1"}, key
    assert sorted(run for runs in _TESTS.values() for run in runs) == sorted(TIER1)
    for group in ci_groups:
        assert check.runs(REGISTRY, group), group
