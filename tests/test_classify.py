import dataclasses

import pytest

from flagample.classify import KIND_PRODUCT, KIND_PSEUDOCONCAVE, classify
from flagample.cycle import neutral_fiber, parabolic_data
from flagample.dynkin import parse_type
from flagample.errors import InternalInconsistencyError
from flagample.realform import grade_roots, hermitian_data
from flagample.rootsystem import build_root_system
from flagample.snow import ampleness, assemble_input


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
    return amp, pd, classify(amp, pd, g, h)


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
        classify(moved, pd, g, h)
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
