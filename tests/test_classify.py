import dataclasses

import pytest

from flagample.classify import KIND_PRODUCT, KIND_PSEUDOCONCAVE, classify
from flagample.cycle import neutral_fiber, parabolic_data
from flagample.dynkin import parse_type
from flagample.errors import InternalInconsistencyError
from flagample.pipeline import sweep_cases
from flagample.realform import grade_roots, hermitian_data
from flagample.rootsystem import build_root_system
from flagample.snow import (
    AmplenessResult,
    ampleness,
    assemble_input,
    closed_form_maximal_weights,
)
from reference import all_types_up_to_rank, classify_by_q, closed_form_by_q, q_roots


def _search(label, marked, levi):
    """A verified search's result and the data classify reads."""
    rs = build_root_system(parse_type(label))
    g = grade_roots(rs, set(marked))
    h = hermitian_data(rs, g)
    pd = parabolic_data(rs, g, set(levi))
    fiber = neutral_fiber(pd, g)
    amp = ampleness(assemble_input(rs, h, pd, fiber), verify=True)
    return amp, pd, g, h


def _classified(label, marked, levi):
    amp, pd, g, h = _search(label, marked, levi)
    return amp, pd, classify(amp, pd, h)


def test_full_flag_su21_is_product():
    amp, pd, cls = _classified("A2", {1}, set())
    assert amp.ampleness == 1 == pd.dim_c
    assert cls.kind == KIND_PRODUCT
    assert cls.concavity_degree == 0
    assert cls.notes == "q cap s contained in s_minus"


def test_quadric_so41_is_pseudoconcave():
    amp, pd, cls = _classified("B2", {2}, {1})
    assert cls.kind == KIND_PSEUDOCONCAVE
    assert cls.concavity_degree == 1
    assert cls.notes == "k has no center"


def test_ball_is_product_over_point():
    amp, pd, cls = _classified("A2", {1}, {2})
    assert pd.dim_c == 0 and amp.ampleness == 0
    assert cls.kind == KIND_PRODUCT
    assert cls.concavity_degree == 0
    assert cls.notes == "q cap s contained in s_minus"


def test_line_in_p2_is_pseudoconcave():
    amp, pd, cls = _classified("A2", {1}, {1})
    assert cls.kind == KIND_PSEUDOCONCAVE
    assert cls.concavity_degree == 1
    assert cls.notes == "q cap s meets both xi-halves"


@pytest.mark.parametrize(
    "label,marked,levi,shift,message",
    [
        ("A2", {1}, set(), -1, "verdict Pseudoconcave disagrees with the "
         "structural test (q cap s contained in s_minus)"),
        ("A2", {1}, {1}, 1, "verdict ProductOverHSS disagrees with the "
         "structural test (q cap s meets both xi-halves)"),
        ("B2", {2}, {1}, 1, "verdict ProductOverHSS disagrees with the "
         "structural test (k has no center)"),
    ],
)
def test_verdict_refuted_by_the_structural_test_raises(
    label, marked, levi, shift, message
):
    """a(E) moved by one flips the verdict; the structural test, which
    does not read a(E), refutes it and classify raises."""
    amp, pd, g, h = _search(label, marked, levi)
    moved = dataclasses.replace(amp, ampleness=amp.ampleness + shift)
    with pytest.raises(InternalInconsistencyError) as exc:
        classify(moved, pd, h)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "label,marked,levi",
    [
        ("A2", {1}, {1}),
        ("A2", {1, 2}, {2}),
        ("B2", {1}, set()),
        ("B3", {3}, {2}),
        ("G2", {1}, {1}),
        ("G2", {2}, set()),
    ],
)
def test_degree_complements_ampleness(label, marked, levi):
    amp, pd, cls = _classified(label, marked, levi)
    assert cls.concavity_degree + amp.ampleness == pd.dim_c
    assert (cls.kind == KIND_PRODUCT) == (amp.ampleness == pd.dim_c)
    if cls.kind == KIND_PSEUDOCONCAVE:
        assert cls.concavity_degree >= 1


def _outcome(run):
    """What a classification returns, or the message it raises."""
    try:
        return run()
    except InternalInconsistencyError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "dt", list(all_types_up_to_rank(5)) + [parse_type("E6")], ids=str
)
def test_tangent_forms_match_the_q_reference(dt):
    """On every case of the type, the structural test and the closed-form
    maximal weights read on the tangent weights agree with the reference
    forms read on the roots of q.  Both verdicts are tried, a(E) = dim C
    and a(E) = dim C - 1: under each, the two classifications return the
    same value or raise the same message, so no search needs to run."""
    rs = build_root_system(dt)
    gradings = {}
    for marking, levi in sweep_cases(dt):
        if marking not in gradings:
            g = grade_roots(rs, marking)
            gradings[marking] = g, hermitian_data(rs, g)
        g, h = gradings[marking]
        pd = parabolic_data(rs, g, levi)
        q = q_roots(rs, levi)
        for a in (pd.dim_c, pd.dim_c - 1):
            amp = AmplenessResult(
                ampleness=a, max_length=0, witness=(), witness_pair=(0, 0), routes=()
            )
            assert _outcome(lambda: classify(amp, pd, h)) == _outcome(
                lambda: classify_by_q(amp, pd, q, g, h)
            ), (marking, levi, a)
        assert closed_form_maximal_weights(h, pd) == closed_form_by_q(h, q), (
            marking,
            levi,
        )
