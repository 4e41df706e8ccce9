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
from flagample.errors import InternalInconsistencyError


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
    """The verdict read from an a(E) one below the one the search found."""

    def flipped(amp, *args):
        return classify(dataclasses.replace(amp, ampleness=amp.ampleness - 1), *args)

    return flipped


def _lengthen(route):
    def longer(*args):
        length, witness, pair = route(*args)
        return length + 1, witness, pair

    return longer


def _reword(route):
    """Another word of the same length: each letter one generator on."""

    def reworded(*args):
        length, witness, pair = route(*args)
        return length, tuple(i + 1 for i in witness), pair

    return reworded


def _swap_pair(route):
    def swapped(*args):
        length, witness, (mu, nu) = route(*args)
        return length, witness, (nu, mu)

    return swapped


def _shorten(route):
    """The witness one letter shorter than the length it is reported at."""

    def shortened(*args):
        length, witness, pair = route(*args)
        return length, witness[:-1], pair

    return shortened


# what each breaker must make the run report, by the function it breaks;
# on the A2 {1} full flag the witness is (0,) and the pair (5, 4)
_DISAGREEMENT = {
    ("classify", _flip_verdict): "verdict Pseudoconcave disagrees with the "
    "structural test (q cap s contained in s_minus)",
    ("max_weyl_length_fast", _lengthen): "search methods disagree on the "
    "length: fast 2 vs brute force 1",
    ("max_weyl_length_bruteforce", _lengthen): "search methods disagree on "
    "the length: fast 1 vs brute force 2",
    ("max_weyl_length_fast", _reword): "search methods disagree on the "
    "witness word: fast (1,) vs brute force (0,)",
    ("max_weyl_length_fast", _swap_pair): "search methods disagree on the "
    "(mu, nu) pair: fast (4, 5) vs brute force (5, 4)",
}


@pytest.mark.parametrize(
    "module,name,breaker",
    [
        ("pipeline", "classify", _flip_verdict),
        ("snow", "max_weyl_length_fast", _lengthen),
        ("snow", "max_weyl_length_bruteforce", _lengthen),
        ("snow", "max_weyl_length_fast", _reword),
        ("snow", "max_weyl_length_fast", _swap_pair),
    ],
)
def test_route_disagreement_exits_3(capsys, monkeypatch, module, name, breaker):
    """A route whose length, word or pair differs from the other's, or a
    verdict the structural test refutes, ends a verified run with exit 3
    and no output.  The A2 {1} full flag has witness s1 and a pair of two
    distinct roots, so every breaker changes its answer."""
    mod = importlib.import_module(f"flagample.{module}")
    monkeypatch.setattr(mod, name, breaker(getattr(mod, name)))
    for argv in (
        ["compute", "--type", "A2", "--noncompact", "1", "--verify"],
        ["table", "--type", "A2", "--verify", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"internal inconsistency: {_DISAGREEMENT[name, breaker]}\n"


def _ignore_parabolic(closed_form):
    """The case analysis's maximal weights with no half swallowed by the
    parabolic: both xi-halves' highest weights whenever k has a center."""
    return lambda hermitian, parabolic: hermitian.lambda_max_s


@pytest.mark.parametrize(
    "name,breaker,message",
    [
        (
            "closed_form_maximal_weights",
            _ignore_parabolic,
            "maximal weights disagree: combinatorial (5,) vs case analysis "
            "(1, 5) (root indices)",
        ),
        ("max_weyl_length_fast", _lengthen, "ampleness 2 outside 0..dim_C=1"),
    ],
    ids=["maximal-weights", "ampleness-range"],
)
def test_unverified_check_exits_3(capsys, monkeypatch, name, breaker, message):
    """Checks that need no second search route: on the A2 {1} full flag
    (dim C = 1, Levi correction 0) a case analysis that keeps the
    xi-half q swallows, of highest weight -a1, or a fast route one
    longer stops the run before the witness-length check."""
    snow = importlib.import_module("flagample.snow")
    monkeypatch.setattr(snow, name, breaker(getattr(snow, name)))
    for argv in (
        ["compute", "--type", "A2", "--noncompact", "1"],
        ["table", "--type", "A2", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"internal inconsistency: {message}\n", argv


def test_short_witness_exits_3(capsys, monkeypatch):
    """The fast route alone, its witness one letter short of its length:
    no second route runs to compare it with, and the length check stops
    the run."""
    snow = importlib.import_module("flagample.snow")
    route = snow.max_weyl_length_fast
    monkeypatch.setattr(snow, "max_weyl_length_fast", _shorten(route))
    for argv in (
        ["compute", "--type", "A2", "--noncompact", "1"],
        ["table", "--type", "A2", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == "internal inconsistency: witness length mismatch\n", argv


@pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
def test_failure_in_the_last_row_leaves_stdout_empty(capsys, monkeypatch, fmt):
    """Rows are written only after every case has run: a fault in the
    last case of the sweep, after eight good rows, still exits 3 with
    nothing on stdout."""
    pipeline = importlib.import_module("flagample.pipeline")
    last = pipeline.sweep_cases(parse_type("A2"))[-1]
    real_run_case = pipeline.run_case
    seen = []

    def failing_last(spec):
        seen.append((spec.noncompact, spec.levi))
        if seen[-1] == last:
            raise InternalInconsistencyError("planted fault in the last row")
        return real_run_case(spec)

    monkeypatch.setattr(pipeline, "run_case", failing_last)
    code, out, err = run(capsys, "table", "--type", "A2", "--format", fmt)
    assert (code, out) == (3, "")
    assert err == "internal inconsistency: planted fault in the last row\n"
    assert len(seen) == 9 and seen[-1] == last


def _corrupt_inverse_images(snow, monkeypatch):
    """w^{-1} of K's first simple root, read off the winner's factors,
    moved on to the next root index."""
    images = snow.inverse_images

    def corrupt(*args):
        out = images(*args)
        return (out[0] + 1,) + out[1:]

    monkeypatch.setattr(snow, "inverse_images", corrupt)


def _rewrite_columns(snow, monkeypatch, rewrite):
    """The oracle scans rewrite(inp, col) for each column of images the
    enumeration carries, inp being the case's AmplenessInput."""
    scan, enumerate_ = snow.max_weyl_length_bruteforce, snow._enumerate
    case = []

    def scan_of_case(inp, *args):
        case[:] = [inp]
        return scan(inp, *args)

    def rewritten(*args):
        images, lengths, factors = enumerate_(*args)
        return [rewrite(case[0], col) for col in images], lengths, factors

    monkeypatch.setattr(snow, "max_weyl_length_bruteforce", scan_of_case)
    monkeypatch.setattr(snow, "_enumerate", rewritten)


def _corrupt_columns(snow, monkeypatch):
    """Every scanned image that is a fiber weight moved on to the next
    fiber weight: which elements hit the fiber, and so the winner, stay
    the same, but the winner's images are not those its word spells."""

    def shift(inp, col):
        fiber = inp.fiber
        table = bytearray(range(256))
        for v, w in zip(fiber, fiber[1:] + fiber[:1]):
            table[v] = w
        return bytearray(col.translate(table))

    _rewrite_columns(snow, monkeypatch, shift)


@pytest.mark.parametrize("corrupt", [_corrupt_inverse_images, _corrupt_columns])
def test_enumeration_disagreeing_with_the_word_exits_3(capsys, monkeypatch, corrupt):
    """The oracle checks its winner's word against the images the
    enumeration carries for it: a wrong entry in either stops the run."""
    corrupt(importlib.import_module("flagample.snow"), monkeypatch)
    for argv in (
        ["compute", "--type", "A2", "--noncompact", "1", "--verify"],
        ["table", "--type", "A2", "--verify", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == (
            "internal inconsistency: enumerated inverse images disagree with "
            "the witness's action\n"
        ), argv


def test_identity_off_the_fiber_exits_3(capsys, monkeypatch):
    """The identity's byte of every scanned column moved to a root outside
    the fiber: the identity, which maps each maximal weight to itself,
    has left the search set, and the oracle refuses the scan."""

    def identity_off(inp, col):
        fiber = set(inp.fiber)
        col = bytearray(col)
        col[0] = next(v for v in range(256) if v not in fiber)
        return col

    snow = importlib.import_module("flagample.snow")
    _rewrite_columns(snow, monkeypatch, identity_off)
    for argv in (
        ["compute", "--type", "A2", "--noncompact", "1", "--verify"],
        ["table", "--type", "A2", "--verify", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == (
            "internal inconsistency: identity not in the search set: maximal "
            "weights escape the fiber\n"
        ), argv



@pytest.mark.parametrize(
    "label,noncompact,xi,message",
    [
        # k has a center, but the functional misses K's simple root a2
        (
            "A2",
            "1",
            (1, 1),
            "compact span has rank deficiency 1, but the diagram functional "
            "misses K's simple roots",
        ),
        # k has no center, but the zero vector kills all of K's simples
        (
            "C3",
            "1",
            (0, 0, 0),
            "compact span has rank deficiency 0, but the diagram functional "
            "kills K's simple roots",
        ),
    ],
    ids=["A2-1-xi0", "C3-1-xi1"],
)
def test_central_functional_disagreement_exits_3(
    capsys, monkeypatch, label, noncompact, xi, message
):
    realform = importlib.import_module("flagample.realform")
    monkeypatch.setattr(realform, "_central_functional", lambda rs, marked: xi)
    code, out, err = run(
        capsys, "compute", "--type", label, "--noncompact", noncompact
    )
    assert (code, out) == (3, "")
    assert err == f"internal inconsistency: {message}\n"


def _xi_zero(monkeypatch):
    """The diagram functional read as zero: it kills K's simple roots, as
    the central functional of k = u(1) + su(2) must, so the center check
    passes, but it kills every noncompact root too."""
    realform = importlib.import_module("flagample.realform")
    monkeypatch.setattr(
        realform, "_central_functional", lambda rs, marked: (0,) * rs.rank
    )


def _grading_not_closed_under_negation(monkeypatch):
    """A2 whose roots with an odd coefficient at node 1 lack -alpha_1, so
    the noncompact roots of the marking {1} are not closed under
    negation.  K's roots, which are compact, and the center check are
    unchanged, but alpha_1 is in the xi-positive half while its negative
    is in neither."""
    from flagample import pipeline
    from flagample.rootsystem import build_root_system

    rs = build_root_system(parse_type("A2"))
    odd = list(rs.odd_roots)
    odd[0] = odd[0].difference([rs.root_index[(-1, 0)]])
    vars(rs)["odd_roots"] = tuple(odd)
    monkeypatch.setattr(pipeline, "_root_system", lambda series, rank: rs)


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_xi_zero, "central functional kills a noncompact root"),
        (_grading_not_closed_under_negation, "xi-halves are not opposite"),
    ],
)
def test_xi_split_faults_exit_3(capsys, monkeypatch, corrupt, message):
    """The two checks on the split of the noncompact roots into xi-halves
    stop the run: `compute` and `table` exit 3 with no output and the
    check's own message (the table's first case has the marking {1})."""
    corrupt(monkeypatch)
    for argv in (
        ["compute", "--type", "A2", "--noncompact", "1"],
        ["table", "--type", "A2", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"internal inconsistency: {message}\n", argv


def test_grading_of_rank_deficiency_two_exits_3(capsys, monkeypatch):
    """The noncompact roots read as those odd at some marked node, not at
    an odd number of them.  With two marked nodes of A3 the compact roots
    are then those even at both, whose span misses two dimensions: no
    real form grades the roots so, and `compute` and `table` exit 3 with
    no output and the check's own message (the table reaches it at its
    first two-node marking)."""
    from flagample import pipeline
    from flagample.realform import CompactnessGrading

    def union(rs, marked):
        marked = frozenset(marked)
        odd = frozenset().union(*(rs.odd_roots[i - 1] for i in marked))
        return CompactnessGrading(marked_simples=marked, noncompact_roots=odd)

    monkeypatch.setattr(pipeline, "grade_roots", union)
    _run_exits_3(
        capsys,
        (
            ["compute", "--type", "A3", "--noncompact", "1,3"],
            ["table", "--type", "A3", "--format", "json"],
        ),
        "compact span has rank deficiency 2",
    )


@pytest.mark.parametrize(
    "label,change,message",
    [
        # C3 {1}: k = sp(1) + sp(2) has no center
        (
            "C3",
            lambda h, g: {"lambda_max_s": tuple(sorted(g.noncompact_roots))[:2]},
            "semisimple k but several maximal noncompact weights",
        ),
        # A2 {1}: k = u(1) + su(2) has a center
        (
            "A2",
            lambda h, g: {"lambda_max_s": h.lambda_max_s[:1]},
            "k has a center but the noncompact module does not split in two",
        ),
        # both maximal weights in s_plus
        (
            "A2",
            lambda h, g: {"lambda_max_s": h.s_plus},
            "xi-half without a unique highest weight",
        ),
    ],
)
def test_closed_form_faults_exit_3(capsys, monkeypatch, label, change, message):
    """Hermitian data whose maximal noncompact weights do not fit k's
    center stop the closed form of the maximal fiber weights: `compute`
    and `table` exit 3 with no output and the check's own message (the
    table's first case has the marking {1})."""
    pipeline = importlib.import_module("flagample.pipeline")
    build = pipeline.hermitian_data

    def changed(rs, grading):
        h = build(rs, grading)
        return dataclasses.replace(h, **change(h, grading))

    monkeypatch.setattr(pipeline, "hermitian_data", changed)
    for argv in (
        ["compute", "--type", label, "--noncompact", "1"],
        ["table", "--type", label, "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"internal inconsistency: {message}\n", argv


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
    assert err == (
        "internal inconsistency: sum of the positive subsystem roots is not "
        "2 on every simple coroot\n"
    )


def _run_exits_3(capsys, argvs, message):
    """Each command line exits 3, prints nothing and names the fault."""
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"internal inconsistency: {message}\n", argv


def _change_k_contexts(monkeypatch, change):
    """Every context built afterwards is passed to change(ctx) once its
    data is read."""
    weyl = importlib.import_module("flagample.weyl")
    init = weyl.SubsystemContext.__init__

    def changed(self, *args):
        init(self, *args)
        change(self)

    monkeypatch.setattr(weyl.SubsystemContext, "__init__", changed)


def _affine(ctx):
    """Every Dynkin edge of K doubled: K = A2's Cartan matrix becomes that
    of affine A1, whose group is infinite."""
    ctx.neighbours = tuple(tuple((j, 2 * a) for j, a in n) for n in ctx.neighbours)


def _first_simple_cut_off(ctx):
    """s_1 no longer moves the coordinates of its Dynkin neighbours."""
    ctx.neighbours = ((),) + ctx.neighbours[1:]


@pytest.mark.parametrize(
    "change,message",
    [
        (_affine, "weight walk did not terminate"),
        (_first_simple_cut_off, "longest-element walk has wrong length"),
    ],
)
def test_w0_walk_faults_exit_3(capsys, monkeypatch, change, message):
    """On A3 {1} (K = A2, 3 positive roots) the walk for w0 runs on K's
    Dynkin edges: with an infinite group it is stopped after one step
    more than K has positive roots, and with an edge lost it ends short,
    after 2 steps."""
    _change_k_contexts(monkeypatch, change)
    _run_exits_3(
        capsys,
        (
            ["compute", "--type", "A3", "--noncompact", "1"],
            ["table", "--type", "A3", "--format", "json"],
        ),
        message,
    )


def _distances_one_on(snow, monkeypatch):
    """The coset search reads every distance one more than the BFS found:
    nu's walk to w0(mu) is then one step shorter than the distance."""
    orbit = snow.coset_orbit

    def farther(ctx, mu, stop=frozenset()):
        return {v: d + 1 for v, d in orbit(ctx, mu, stop).items()}

    monkeypatch.setattr(snow, "coset_orbit", farther)


def _last_letter_dropped(snow, monkeypatch):
    """Each weight-coordinate reflection skips its last letter: the
    witness is spelled from an element one letter off w0 o u."""
    weyl = importlib.import_module("flagample.weyl")
    reflect_weight = weyl.SubsystemContext.reflect_weight

    def dropped(self, p, letters):
        reflect_weight(self, p, list(letters)[:-1])

    monkeypatch.setattr(weyl.SubsystemContext, "reflect_weight", dropped)


def _weights_doubled(snow, monkeypatch):
    """Each weight-coordinate reflection first doubles its weight: the
    chambers, and so the letters of every walk, stay the same."""
    weyl = importlib.import_module("flagample.weyl")
    reflect_weight = weyl.SubsystemContext.reflect_weight

    def doubled(self, p, letters):
        p[:] = [2 * x for x in p]
        reflect_weight(self, p, letters)

    monkeypatch.setattr(weyl.SubsystemContext, "reflect_weight", doubled)


def _words_applied_backwards(snow, monkeypatch):
    """apply_word applies the first letter of a word first."""
    weyl = importlib.import_module("flagample.weyl")
    apply_word = weyl.SubsystemContext.apply_word
    monkeypatch.setattr(
        weyl.SubsystemContext,
        "apply_word",
        lambda self, word, v: apply_word(self, word[::-1], v),
    )


def _opposite_fiber(snow, monkeypatch):
    """The coset search is handed the negated fiber.  K keeps the two
    xi-halves of a Hermitian k apart, so no orbit of a maximal weight
    meets it, and each search runs its whole orbit."""
    route = snow.max_weyl_length_fast

    def opposite(inp):
        last = len(inp.hermitian.k_context.rs.roots) - 1
        fiber = tuple(sorted(last - v for v in inp.fiber))
        return route(dataclasses.replace(inp, fiber=fiber))

    monkeypatch.setattr(snow, "max_weyl_length_fast", opposite)


def _maximal_weights_lowered(snow, monkeypatch):
    """The coset search is handed, for each maximal weight mu, s_i(mu)
    for the first simple root gamma_i of K with (mu, gamma_i) > 0: a root
    of mu's orbit that is not K-dominant.  Its search meets the fiber,
    and nu's walk then ends at the antidominant root w0(mu), which is
    not w0(s_i mu)."""
    route = snow.max_weyl_length_fast

    def lowered(inp):
        ctx = inp.hermitian.k_context
        lam = tuple(
            next((row[mu] for row in ctx.gen_perms if row[mu] < mu), mu)
            for mu in inp.max_weights
        )
        return route(dataclasses.replace(inp, max_weights=lam))

    monkeypatch.setattr(snow, "max_weyl_length_fast", lowered)


def _maximal_weights_negated(snow, monkeypatch):
    """Assembly reads the negatives of the maximal fiber weights."""
    highest = snow.highest_weights

    def negated(rs, weights, k_roots):
        last = len(rs.roots) - 1
        return tuple(sorted(last - a for a in highest(rs, weights, k_roots)))

    monkeypatch.setattr(snow, "highest_weights", negated)


@pytest.mark.parametrize(
    "corrupt,argv,message",
    [
        (
            _distances_one_on,
            ["--type", "A2", "--noncompact", "1"],
            "coset maximum disagrees with the count of K's positive roots that "
            "pair nonpositively with nu",
        ),
        (
            _last_letter_dropped,
            ["--type", "A2", "--noncompact", "1"],
            "coset maximum length mismatch between routes",
        ),
        (
            _maximal_weights_lowered,
            ["--type", "A3", "--noncompact", "1"],
            "coset maximum disagrees with the count of K's positive roots that "
            "pair nonpositively with nu",
        ),
        (
            _weights_doubled,
            ["--type", "A2", "--noncompact", "1"],
            "canonical word does not reduce to rho",
        ),
        # the A3 {1} full flag's witness (0, 1, 0) reads the same
        # backwards; with the Levi node 1 it is (1, 0), and the table
        # reaches that case second
        (
            _words_applied_backwards,
            ["--type", "A3", "--noncompact", "1", "--levi", "1"],
            "witness does not map nu to mu",
        ),
        (
            _opposite_fiber,
            ["--type", "A2", "--noncompact", "1"],
            "no pair admits any group element: maximal weights escape the fiber",
        ),
        (
            _maximal_weights_negated,
            ["--type", "A2", "--noncompact", "1"],
            "maximal weights escape the fiber",
        ),
    ],
    ids=[
        "distance",
        "dropped-letter",
        "non-dominant-mu",
        "scaled-weight",
        "word-order",
        "no-pair",
        "escaped-maxima",
    ],
)
def test_coset_search_faults_exit_3(capsys, monkeypatch, corrupt, argv, message):
    """Each check of the coset search and its input stops `compute` and
    `table` with exit 3, no output and its own message, on the smallest
    fault that reaches it.  The opposite fiber reaches "no pair" through
    searches that stop at the fiber but never meet it."""
    corrupt(importlib.import_module("flagample.snow"), monkeypatch)
    _run_exits_3(
        capsys,
        (["compute", *argv], ["table", *argv[:2], "--format", "json"]),
        message,
    )


def test_coset_maximum_off_the_closed_form_exits_3(capsys, monkeypatch):
    """On A3 {1} with the Levi node 1 the winning pair's nu is a1 + a2,
    which the fast route's stopped search reaches last and does not
    expand.  K's row of its simple root a2 read as fixing nu leaves the
    search as it is, but gives nu the weight coordinate 0 there instead
    of 1: the walk of nu into the antidominant chamber then counts the
    coset maximum wrong.  The table reaches the same check, which runs
    on every tied pair."""
    from flagample import pipeline
    from flagample.rootsystem import build_root_system

    rs = build_root_system(parse_type("A3"))
    gamma, nu = rs.root_index[(0, 1, 0)], rs.root_index[(1, 1, 0)]

    def fixes_nu(ctx):
        if ctx.rs is rs and gamma in ctx.simples:
            j = ctx.simples.index(gamma)
            row = list(ctx.gen_perms[j])
            row[nu] = nu
            ctx.gen_perms = ctx.gen_perms[:j] + (tuple(row),) + ctx.gen_perms[j + 1 :]

    monkeypatch.setattr(pipeline, "_root_system", lambda series, rank: rs)
    _change_k_contexts(monkeypatch, fixes_nu)
    _run_exits_3(
        capsys,
        (
            ["compute", "--type", "A3", "--noncompact", "1", "--levi", "1"],
            ["table", "--type", "A3", "--format", "json"],
        ),
        "coset maximum disagrees with the count of K's positive roots that "
        "pair nonpositively with nu",
    )


def _corrupt_k_row(monkeypatch, label, gamma, v, wrong):
    """A fresh root system of the type whose reflection row of the root
    gamma has one wrong entry when it is built, before it is proven:
    s_gamma(v) points to the root `wrong`.  Every case runs on it."""
    from flagample import pipeline, rootsystem
    from flagample.rootsystem import build_root_system

    rs = build_root_system(parse_type(label))
    index = rs.root_index
    build = rootsystem._reflection_row

    def corrupt(rs_, g):
        row = build(rs_, g)
        if rs_ is rs and g == index[gamma]:
            assert row[index[v]] != index[wrong]
            row[index[v]] = index[wrong]
        return row

    monkeypatch.setattr(rootsystem, "_reflection_row", corrupt)
    monkeypatch.setattr(pipeline, "_root_system", lambda series, rank: rs)
    return rs


@pytest.mark.parametrize(
    "label,noncompact,gamma,v,wrong",
    [
        # the wrong root agrees with the true image at gamma's first
        # nonzero coordinate: a check of that coordinate alone passes it
        ("A4", "1", (0, 0, 0, 1), (0, -1, -1, 0), (0, 0, 0, -1)),
        ("B3", "1", (0, 1, 0), (0, 0, 1), (1, 1, 1)),
        (
            "E6",
            "1",
            (0, 0, 0, 0, 0, 1),
            (0, 0, -1, -1, -1, 0),
            (0, -1, -1, -2, -2, -1),
        ),
        # at a negative root of K that its simple root fixes
        ("A4", "1", (0, 0, 0, 1), (0, -1, 0, 0), (0, -1, -1, 0)),
        # at a root of the other component of K = A1 x A2
        ("A4", "2", (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)),
    ],
)
def test_orbit_pass_refuses_a_corrupt_reflection_row(
    capsys, monkeypatch, label, noncompact, gamma, v, wrong
):
    """Every entry of a reflection row is proven when the row is built,
    whichever roots a case later reads: a row of K with one wrong entry
    stops K's context, and `compute` and `table` exit 3 with no output
    (the table reaches the marking too).  A refused row is not kept, and
    a built row is read-only."""
    from flagample.realform import grade_roots
    from flagample.weyl import SubsystemContext

    rs = _corrupt_k_row(monkeypatch, label, gamma, v, wrong)
    grading = grade_roots(rs, map(int, noncompact.split(",")))
    compact = frozenset(rs.positive_indices).difference(grading.noncompact_roots)
    message = "subsystem root outside simple span"
    with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
        SubsystemContext(rs, compact)
    row = rs.reflection_row(rs.root_index[v])
    with pytest.raises(TypeError):
        row[0] = row[1]

    for argv in (
        ["compute", "--type", label, "--noncompact", noncompact],
        ["table", "--type", label, "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"internal inconsistency: {message}\n"


def _identity_rows(monkeypatch):
    """Every reflection row the identity, past the proof of its entries:
    no row lowers a root, so each positive root of K is taken for a
    simple one, and the closure check refuses the first, whose row does
    not send it to its negative.  A library caller gets the same refusal
    as NotClosedError."""
    from flagample.errors import NotClosedError
    from flagample.rootsystem import RootSystem, build_root_system
    from flagample.weyl import SubsystemContext

    def identity(rs, g):
        return tuple(range(len(rs.roots)))

    monkeypatch.setattr(RootSystem, "reflection_row", identity)
    rs = build_root_system(parse_type("A2"))
    with pytest.raises(NotClosedError, match="^the orbit is not its positive"):
        SubsystemContext(rs, [rs.positive_indices.start])


def _run_on(monkeypatch, rs, **changes):
    """Every case runs on the fresh root system rs with some of its
    tables replaced."""
    from flagample import pipeline

    rs = dataclasses.replace(rs, **changes)
    monkeypatch.setattr(pipeline, "_root_system", lambda series, rank: rs)


def _long_root_in_a2(monkeypatch):
    """A3 with alpha_2 + alpha_3 of norm 4: K of the marking {1} has the
    six roots of A2, but of two lengths, and no label fits."""
    from flagample.rootsystem import build_root_system

    rs = build_root_system(parse_type("A3"))
    norms = list(rs.norms)
    norms[rs.root_index[(0, 1, 1)]] = 4
    _run_on(monkeypatch, rs, norms=tuple(norms))


def _coefficient_seven(monkeypatch):
    """A1 with its roots read as -7 and 7, of the same parity: K's pass
    builds the packed keys first, and they refuse them, although K of
    A1 {1} has no roots and the pass builds no row."""
    from flagample.rootsystem import build_root_system

    _run_on(monkeypatch, build_root_system(parse_type("A1")), roots=((-7,), (7,)))


@pytest.mark.parametrize(
    "corrupt,label,noncompact,message",
    [
        (
            _identity_rows,
            "A3",
            "2",
            "the orbit is not its positive roots and their negatives",
        ),
        (_long_root_in_a2, "A3", "1", "unrecognized subsystem of rank 2 with 6 roots"),
        (_coefficient_seven, "A1", "1", "root coefficient above 6"),
    ],
)
def test_orbit_pass_faults_exit_3(
    capsys, monkeypatch, corrupt, label, noncompact, message
):
    """K's compact roots are always closed, so a refusal of them is a
    fault of the program: `compute` and `table` exit 3 with no output
    and the site's own message (the table's first case has the marking
    {1}), not exit 1 as for a caller's arbitrary subset."""
    corrupt(monkeypatch)
    for argv in (
        ["compute", "--type", label, "--noncompact", noncompact],
        ["table", "--type", label, "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"internal inconsistency: {message}\n", argv


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


def test_config_series_is_one_letter(tmp_path, capsys):
    """The series and the rank were joined into one label, so series
    "A1" with rank 2 ran A12."""
    path = tmp_path / "case.json"
    path.write_text('{"series": "A1", "rank": 2, "noncompact": [1]}')
    code, out, err = run(capsys, "compute", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == "error: config key 'series' must be one letter of ABCDEFG\n"


@pytest.mark.parametrize("command", ["compute", "table"])
def test_rank_too_long_for_int_exits_1(capsys, command):
    """A rank of more digits than int() converts (4,300 by default) is
    refused like any rank out of bounds, not with a traceback."""
    argv = [command, "--type", "A" + "1" * 5000]
    if command == "compute":
        argv += ["--noncompact", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: rank of 5000 digits out of bounds for series A\n"


def test_repeated_config_key_exits_1(tmp_path, capsys):
    """json.load keeps the last of two equal keys, which would run A3."""
    path = tmp_path / "case.json"
    path.write_text('{"series":"A","rank":2,"noncompact":[1],"rank":3}')
    code, out, err = run(capsys, "compute", "--config", str(path))
    assert (code, out, err) == (1, "", "error: config key 'rank' given twice\n")


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

        def map(self, fn, items, chunksize=1):
            pools.append(chunksize)
            return map(fn, items)

    # run_table imports the pool class on demand; without an affinity
    # mask it falls back to the host's CPU count
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
    rows = pipeline.run_table(parse_type("A2"), jobs=1000)
    assert len(rows) == 9
    # a task is one marking's three Levi subsets
    assert pools == ([expected, 3] if expected > 1 else [])


def test_table_jobs_give_the_serial_rows():
    """A pool of two runs the deduplicated D4 table in tasks of one
    marking each, and its rows are the serial run's, in order."""
    from flagample import pipeline
    from flagample.dynkin import parse_type

    d4 = parse_type("D4")
    serial = pipeline.run_table(d4, dedupe=True)
    assert pipeline.run_table(d4, dedupe=True, jobs=2) == serial


def test_table_jobs_bounded_by_affinity(monkeypatch):
    """A process pinned to one CPU runs the table serially, whatever the
    host's CPU count: no pool is imported, and the rows are the serial
    run's."""
    from flagample import pipeline
    from flagample.dynkin import parse_type

    serial = pipeline.run_table(parse_type("A3"))
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
    # an import of the pool module now fails
    monkeypatch.setitem(sys.modules, "concurrent.futures", None)
    assert pipeline.run_table(parse_type("A3"), jobs=4) == serial


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
