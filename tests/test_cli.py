import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagample
from flagample import cli
from flagample.cli import EXIT_BROKEN_PIPE, main
from flagample.dynkin import MAX_CLASSICAL_RANK, parse_type


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text(capsys):
    code, out, err = run(
        capsys, "compute", "--type", "A2", "--noncompact", "1", "--levi", "1"
    )
    assert code == 0
    assert "su(2,1)" in out
    assert "Pseudoconcave" in out
    assert "degree = 1" in out


def test_compute_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "--type",
        "B2",
        "--noncompact",
        "2",
        "--levi",
        "1",
        "--format",
        "json",
        "--verify",
    )
    assert code == 0
    data = json.loads(out)
    assert data["input"] == {"series": "B", "rank": 2, "noncompact": [2], "levi": [1]}
    assert data["realform"]["name"] == "so(4,1)"
    assert data["realform"]["hermitian"] is False
    assert data["dims"] == {"dim_Z": 3, "dim_C": 1, "rank_E": 2}
    assert data["weights"]["E0"] == [[0, 1], [1, 1]]
    assert data["weights"]["lambda_max"] == [[1, 1]]
    assert data["snow"] == {
        "w0_max_length": 1,
        "witness_word": [1],
        "levi_correction": 1,
        "ampleness": 0,
    }
    assert data["classification"] == {
        "kind": "Pseudoconcave",
        "concavity_degree": 1,
        "cross_check": "passed",
    }


def test_compute_full_flag_defaults_levi_empty(capsys):
    code, out, _ = run(
        capsys, "compute", "--type", "A2", "--noncompact", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["input"]["levi"] == []
    assert data["snow"]["ampleness"] == 1
    assert data["classification"]["kind"] == "ProductOverHSS"


def test_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "compute", "--type", "A1", "--noncompact", "1", "--format", "json"
    )
    assert code == 0
    reparsed = json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
    assert reparsed == out


def test_compute_a1_upper_half_plane(capsys):
    code, out, _ = run(
        capsys, "compute", "--type", "A1", "--noncompact", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == {"dim_Z": 1, "dim_C": 0, "rank_E": 1}
    assert data["snow"]["ampleness"] == 0
    assert data["classification"]["kind"] == "ProductOverHSS"
    assert data["realform"]["name"] == "su(1,1)"


def test_exit_code_bad_type(capsys):
    assert run(capsys, "compute", "--type", "Q7", "--noncompact", "1")[0] == 1
    assert run(capsys, "compute", "--type", "B1", "--noncompact", "1")[0] == 1


@pytest.mark.parametrize("label", ["A65", "B65", "C65", "D65", "A99999"])
@pytest.mark.parametrize("command", ["compute", "table"])
def test_classical_rank_above_bound_exits_1(capsys, command, label):
    """A classical rank above the fixed bound is refused before any root
    system is built."""
    argv = [command, "--type", label]
    if command == "compute":
        argv += ["--noncompact", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "out of bounds" in err and f"..{MAX_CLASSICAL_RANK})" in err


def test_classical_rank_bound():
    # A25 is a measured workload size; the bound itself is accepted
    assert MAX_CLASSICAL_RANK >= 25
    for series in "ABCD":
        assert parse_type(f"{series}{MAX_CLASSICAL_RANK}").rank == MAX_CLASSICAL_RANK


def _must_not_run(*args, **kwargs):
    raise AssertionError("a table above the rank bound built or ran cases")


@pytest.mark.parametrize("label", ["A9", "A64"])
def test_table_rank_above_bound_exits_1(capsys, monkeypatch, label):
    """A table of rank 9 or more is refused before any case list is
    built: A9 has 261,121 cases and A64 would have (2^64 - 1)^2."""
    from flagample import pipeline

    monkeypatch.setattr(pipeline, "sweep_cases", _must_not_run)
    monkeypatch.setattr(pipeline, "run_case", _must_not_run)
    code, out, err = run(capsys, "table", "--type", label, "--format", "json")
    assert code == 1
    assert out == ""
    assert "out of bounds" in err


def test_exit_code_bad_nodes(capsys):
    code, _, err = run(capsys, "compute", "--type", "A2", "--noncompact", "x")
    assert code == 1
    code, _, err = run(capsys, "compute", "--type", "A2", "--noncompact", "5")
    assert code == 1


def test_exit_code_degenerate(capsys):
    # compact marking
    code, _, _ = run(capsys, "compute", "--type", "A2", "--noncompact", "")
    assert code == 2
    # non-proper levi
    code, _, _ = run(
        capsys, "compute", "--type", "A2", "--noncompact", "1", "--levi", "1,2"
    )
    assert code == 2


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--format", "yaml"])
    assert exc.value.code == 1


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    cfg.write_text(
        json.dumps(
            {"series": "A", "rank": 2, "noncompact": [1], "levi": [1], "verify": True}
        )
    )
    code, out, _ = run(capsys, "compute", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert json.loads(out)["input"]["levi"] == [1]

    # flags win over the config
    code, out, _ = run(
        capsys, "compute", "--config", str(cfg), "--levi", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["input"]["levi"] == [2]
    assert data["classification"]["kind"] == "ProductOverHSS"


def test_table_a2(capsys):
    code, out, _ = run(capsys, "table", "--type", "A2", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 9  # header + 3 markings x 3 levi subsets
    assert all("\tok\t" in line for line in lines[1:])


def test_table_dedupe(capsys):
    code, out, _ = run(capsys, "table", "--type", "A2", "--format", "tsv", "--dedupe")
    assert code == 0
    lines = out.strip().splitlines()
    # orbits of the A2 diagram flip on 9 cases: 5 representatives
    assert len(lines) == 1 + 5


def test_table_json_statuses(capsys):
    code, out, _ = run(capsys, "table", "--type", "B2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["series"] == "B" and data["rank"] == 2
    assert len(data["rows"]) == 9
    assert all(r["status"] == "ok" for r in data["rows"])
    assert all(r["report"]["classification"]["cross_check"] == "passed" for r in data["rows"])
    # the so(4,1) quadric row appears with its known verdict
    quadric = next(
        r
        for r in data["rows"]
        if r["input"]["noncompact"] == [2] and r["input"]["levi"] == [1]
    )
    assert quadric["report"]["snow"]["ampleness"] == 0
    assert quadric["report"]["classification"] == {
        "kind": "Pseudoconcave",
        "concavity_degree": 1,
        "cross_check": "passed",
    }


def test_table_text_aligned(capsys):
    code, out, _ = run(capsys, "table", "--type", "A1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("type")


def _flip_verdict(classify):
    return lambda *args: dataclasses.replace(classify(*args), cross_check="failed")


def _lengthen(route):
    def longer(*args):
        length, witness, pair = route(*args)
        return length + 1, witness, pair

    return longer


@pytest.mark.parametrize(
    "module,name,breaker",
    [
        ("pipeline", "classify", _flip_verdict),
        ("snow", "max_weyl_length_fast", _lengthen),
        ("snow", "max_weyl_length_bruteforce", _lengthen),
    ],
)
def test_route_disagreement_exits_3(capsys, monkeypatch, module, name, breaker):
    mod = importlib.import_module(f"flagample.{module}")
    monkeypatch.setattr(mod, name, breaker(getattr(mod, name)))
    for argv in (
        ["compute", "--type", "A2", "--noncompact", "1", "--verify"],
        ["table", "--type", "A2", "--verify", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("internal inconsistency: ")



@pytest.mark.parametrize(
    "label,noncompact,xi",
    [
        # k has a center, but the functional misses K's simple root a2
        ("A2", "1", (1, 1)),
        # k has no center, but the zero vector kills all of K's simples
        ("C3", "1", (0, 0, 0)),
    ],
)
def test_central_functional_disagreement_exits_3(
    capsys, monkeypatch, label, noncompact, xi
):
    realform = importlib.import_module("flagample.realform")
    monkeypatch.setattr(realform, "_central_functional", lambda rs, marked: xi)
    code, out, err = run(
        capsys, "compute", "--type", label, "--noncompact", noncompact
    )
    assert (code, out) == (3, "")
    assert err.startswith("internal inconsistency: ")
    assert "diagram functional" in err


@pytest.mark.parametrize(
    "label,noncompact", [("A2", "1"), ("B3", "2"), ("E6", "1")]
)
def test_w0_walk_from_a_wrong_start_exits_3(capsys, monkeypatch, label, noncompact):
    """K's first simple root counted as negative: the sum of the
    positive roots is then not 2 rho, and the walk for w0 refuses to
    start from it."""
    weyl = importlib.import_module("flagample.weyl")
    init = weyl.SubsystemContext.__init__

    def init_with_a_sign_flipped(self, *args):
        init(self, *args)
        if self.simples:
            self.sub_sign[self.simples[0]] = -1

    monkeypatch.setattr(weyl.SubsystemContext, "__init__", init_with_a_sign_flipped)
    code, out, err = run(
        capsys, "compute", "--type", label, "--noncompact", noncompact
    )
    assert (code, out) == (3, "")
    assert err.startswith("internal inconsistency: ")
    assert "simple coroot" in err


@pytest.mark.parametrize(
    "cfg",
    [
        {"series": "A", "rank": 2, "noncompact": ["x"]},
        {"series": "A", "rank": 2, "noncompact": 1},
        {"series": "A", "rank": 2, "noncompact": [True]},
        {"series": "A", "rank": 2, "noncompact": [1], "levi": "1"},
        {"series": "A", "rank": 2, "noncompact": [1], "verify": "false"},
        {"series": "A", "rank": 2, "noncompact": [1], "bogus": 1},
        {"series": "A", "rank": "2", "noncompact": [1]},
        {"series": 1, "rank": 2, "noncompact": [1]},
        {"series": "A", "rank": 2, "noncompact": [1], "method": 3},
        ["A", 2],
    ],
)
def test_bad_config_exits_1(tmp_path, capsys, cfg):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "compute", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe",  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # deeper than the parser follows
    ],
    ids=["not-utf8", "deeply-nested"],
)
def test_unreadable_config_exits_1(tmp_path, capsys, content):
    path = tmp_path / "case.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "compute", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read config {path}")


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--type", "B2", "--noncompact", "2", "--verify", "--max-weyl", "0"],
        ["compute", "--type", "B2", "--noncompact", "2", "--max-weyl", "-5"],
        ["compute", "--type", "B2", "--noncompact", "2", "--max-weyl", "x"],
        ["table", "--type", "A2", "--max-weyl", "0"],
        ["table", "--type", "A2", "--jobs", "0"],
    ],
)
def test_resource_flags_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "at least 1" in err or "invalid integer" in err


@pytest.mark.parametrize("value", ["10000001", "1000000000000"])
@pytest.mark.parametrize("command", ["compute", "table"])
def test_max_weyl_is_bounded_above(capsys, command, value):
    # parsing only: an accepted cap of 10^12 would let --verify enumerate
    # the 14! elements of K on an A14 case
    argv = [command, "--type", "A14", "--verify", "--max-weyl", value]
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument --max-weyl: must be at most 10000000, got {value}" in err


@pytest.mark.parametrize("value", ["1", "10000000"])
def test_max_weyl_accepts_one_to_the_default_cap(value):
    argv = ["table", "--type", "A14", "--max-weyl", value]
    assert cli._build_parser().parse_args(argv).max_weyl == int(value)
    assert cli.DEFAULT_CAP == 10_000_000


@pytest.mark.parametrize("cpus,expected", [(4, 4), (64, 9), (None, 1)])
def test_table_jobs_clamped(monkeypatch, cpus, expected):
    import concurrent.futures

    from flagample import pipeline
    from flagample.dynkin import parse_type

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_table imports the pool class on demand
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
    rows = pipeline.run_table(parse_type("A2"), jobs=1000)
    assert len(rows) == 9
    assert pools == ([expected] if expected > 1 else [])


def test_verify_says_when_the_oracle_was_skipped(capsys):
    case = ["compute", "--type", "E7", "--noncompact", "7", "--format", "json"]
    code, plain, err = run(capsys, *case)
    assert code == 0 and err == ""
    code, out, err = run(capsys, *case, "--verify", "--max-weyl", "10")
    assert code == 0
    assert out == plain
    assert err == (
        "note: brute-force oracle skipped (|W(K)|=46080 > --max-weyl 10)\n"
    )
    # under the cap the oracle runs, and nothing is said
    code, out, err = run(
        capsys, "compute", "--type", "A2", "--noncompact", "1", "--verify"
    )
    assert code == 0 and err == ""


def test_table_counts_skipped_oracles(capsys):
    _, plain, _ = run(capsys, "table", "--type", "A2", "--format", "json")
    code, out, err = run(
        capsys, "table", "--type", "A2", "--format", "json", "--verify",
        "--max-weyl", "1",
    )
    assert code == 0
    assert out == plain
    # all nine A2 cases have K = A1, |W(K)| = 2
    assert err == (
        "note: brute-force oracle skipped in 9 cases (|W(K)| > --max-weyl 1)\n"
    )


def _child(*args, **kwargs):
    """Run a fresh interpreter that imports this flagample."""
    src = str(Path(flagample.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--type", "D4", "--format", "json"],
        ["compute", "--type", "E7", "--noncompact", "7", "--format", "json"],
    ],
)
def test_closed_stdout_exits_quietly(argv):
    """A reader that is gone before the output is written (`| head -c 10`
    that has already exited): no traceback, the SIGPIPE exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child(
            "-m", "flagample", *argv, stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")


def test_invariant_check_survives_python_O():
    """The closure count of build_root_system is a raised error, not an
    assert, so `python -O` keeps it: a miscounted closure exits 3."""
    script = (
        "import sys\n"
        "assert False, 'asserts are on'\n"
        "from flagample import cli, dynkin\n"
        "dynkin.root_count = lambda dt: 0\n"
        "sys.exit(cli.main(['compute', '--type', 'A2', '--noncompact', '1']))\n"
    )
    proc = _child("-O", "-c", script, capture_output=True)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr == b"internal inconsistency: root closure miscounted\n"
