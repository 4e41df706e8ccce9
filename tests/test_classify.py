import pytest

from flagample.classify import (
    CHECK_PASSED,
    KIND_PRODUCT,
    KIND_PSEUDOCONCAVE,
    classify,
)
from flagample.cycle import neutral_fiber, parabolic_data
from flagample.dynkin import parse_type
from flagample.realform import grade_roots, hermitian_data
from flagample.rootsystem import build_root_system
from flagample.snow import ampleness, assemble_input


def _classified(label, marked, levi):
    rs = build_root_system(parse_type(label))
    g = grade_roots(rs, set(marked))
    h = hermitian_data(rs, g)
    pd = parabolic_data(rs, g, set(levi))
    fiber = neutral_fiber(pd, g)
    amp = ampleness(assemble_input(rs, h, pd, fiber), verify=True)
    return amp, pd, classify(amp, pd, g, h)


def test_full_flag_su21_is_product():
    amp, pd, cls = _classified("A2", {1}, set())
    assert amp.ampleness == 1 == pd.dim_c
    assert cls.kind == KIND_PRODUCT
    assert cls.concavity_degree == 0
    assert cls.cross_check == CHECK_PASSED
    assert cls.notes == "q cap s contained in s_minus"


def test_quadric_so41_is_pseudoconcave():
    amp, pd, cls = _classified("B2", {2}, {1})
    assert cls.kind == KIND_PSEUDOCONCAVE
    assert cls.concavity_degree == 1
    assert cls.cross_check == CHECK_PASSED
    assert cls.notes == "k has no center"


def test_ball_is_product_over_point():
    amp, pd, cls = _classified("A2", {1}, {2})
    assert pd.dim_c == 0 and amp.ampleness == 0
    assert cls.kind == KIND_PRODUCT
    assert cls.concavity_degree == 0
    assert cls.cross_check == CHECK_PASSED


def test_line_in_p2_is_pseudoconcave():
    amp, pd, cls = _classified("A2", {1}, {1})
    assert cls.kind == KIND_PSEUDOCONCAVE
    assert cls.concavity_degree == 1
    assert cls.cross_check == CHECK_PASSED


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
