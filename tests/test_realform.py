import math
from fractions import Fraction

import pytest

from flagample.dynkin import all_types_up_to_rank, parse_type
from flagample.errors import BadNodeError, CompactFormError
from flagample.realform import (
    _central_functional,
    compact_positive_roots,
    grade_roots,
    hermitian_data,
)
from flagample.rootsystem import (
    build_root_system,
    pair,
    simple_system,
    subsystem_components,
)
from flagample.weyl import group_order_from_simples
from test_rootsystem import reference_components, reference_simple_system


def _rref(rows):
    """Reference: reduced row echelon form over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    cols = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(cols)
        src = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if src is None:
            continue
        mat[r], mat[src] = mat[src], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        cols.append(col)
    return list(zip(cols, mat))


def _reference_kernel(rows, n):
    """The kernel vector with 1 at the one free column, or None when
    the kernel is not one-dimensional."""
    pivots = _rref(rows)
    free = sorted(set(range(n)) - {c for c, _ in pivots})
    if len(free) != 1:
        return None
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for c, row in pivots:
        x[c] = -row[free[0]]
    return x


@pytest.fixture(scope="module")
def a2():
    return build_root_system(parse_type("A2"))


@pytest.fixture(scope="module")
def b2():
    return build_root_system(parse_type("B2"))


def test_grade_a2_marked_1(a2):
    g = grade_roots(a2, {1})
    assert g.noncompact_roots == {(1, 0), (1, 1), (-1, 0), (-1, -1)}
    assert g.compact_roots == {(0, 1), (0, -1)}


def test_grade_b2_marked_2(b2):
    g = grade_roots(b2, {2})
    assert g.noncompact_roots == {(0, 1), (1, 1), (0, -1), (-1, -1)}
    assert g.compact_roots == {(1, 0), (1, 2), (-1, 0), (-1, -2)}


def test_grade_g2_marked_1():
    g2 = build_root_system(parse_type("G2"))
    g = grade_roots(g2, {1})
    assert len(g.noncompact_roots) == 8
    assert len(g.compact_roots) == 4
    comps = subsystem_components(g2, compact_positive_roots(g2, g))
    assert [c.label for c in comps] == ["A1", "A1"]


def test_grade_errors(a2):
    with pytest.raises(CompactFormError):
        grade_roots(a2, set())
    with pytest.raises(BadNodeError):
        grade_roots(a2, {3})
    with pytest.raises(BadNodeError):
        grade_roots(a2, {0})


def test_hermitian_a2_marked_1(a2):
    g = grade_roots(a2, {1})
    h = hermitian_data(a2, g)
    assert h.center_dim == 1
    assert h.hermitian
    assert set(h.s_plus) == {(1, 0), (1, 1)}
    assert set(h.s_minus) == {(-1, 0), (-1, -1)}
    # highest weights of the two halves: a1+a2 and -a1
    assert set(h.lambda_max_s) == {(1, 1), (-1, 0)}
    assert h.kname == "su(2,1)"


def test_hermitian_b2_marked_2(b2):
    g = grade_roots(b2, {2})
    h = hermitian_data(b2, g)
    assert h.center_dim == 0
    assert not h.hermitian
    assert h.lambda_max_s == ((1, 1),)
    assert h.s_plus == () and h.s_minus == ()
    assert h.kname == "so(4,1)"


def test_hermitian_b2_marked_1(b2):
    g = grade_roots(b2, {1})
    h = hermitian_data(b2, g)
    assert h.center_dim == 1
    assert h.kname == "so(2,3)"


def test_names():
    cases = [
        ("A2", {1}, "su(2,1)"),
        ("A3", {2}, "su(2,2)"),
        ("A3", {1}, "su(3,1)"),
        ("B2", {2}, "so(4,1)"),
        ("B3", {1}, "so(2,5)"),
        ("B3", {2}, "so(4,3)"),
        ("C2", {2}, "sp(2,ℝ)"),
        ("C2", {1}, "sp(1,1)"),
        ("C3", {3}, "sp(3,ℝ)"),
        ("D4", {1}, "so(2,6)"),
        ("D4", {2}, "so(4,4)"),
        ("G2", {1}, "g2(2) (split)"),
        ("G2", {2}, "g2(2) (split)"),
        ("A1", {1}, "su(1,1)"),
    ]
    for label, marked, expected in cases:
        rs = build_root_system(parse_type(label))
        g = grade_roots(rs, marked)
        assert hermitian_data(rs, g).kname == expected, (label, marked)


def test_f4_single_markings_are_the_two_forms():
    f4 = build_root_system(parse_type("F4"))
    names = set()
    for i in range(1, 5):
        g = grade_roots(f4, {i})
        names.add(hermitian_data(f4, g).kname)
    assert names == {"f4(4) (split)", "f4(-20)"}


def _all_markings(rank):
    import itertools

    nodes = range(1, rank + 1)
    for k in range(1, rank + 1):
        yield from itertools.combinations(nodes, k)


@pytest.mark.parametrize("dt", all_types_up_to_rank(4))
def test_parity_additivity_exhaustive(dt):
    rs = build_root_system(dt)
    summable = [
        (a, b, c)
        for a in rs.roots
        for b in rs.roots
        if (c := tuple(a[i] + b[i] for i in range(rs.rank))) in rs.root_index
    ]
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        for a in rs.roots:
            assert g.parity(tuple(-x for x in a)) == g.parity(a)
        for a, b, c in summable:
            assert g.parity(c) == (g.parity(a) + g.parity(b)) % 2


@pytest.mark.parametrize("dt", all_types_up_to_rank(4))
def test_lambda_max_count_and_s_plus_abelian(dt):
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        h = hermitian_data(rs, g)
        assert len(h.lambda_max_s) == 1 + h.center_dim, (dt, marked)
        if h.hermitian:
            assert set(h.s_minus) == {tuple(-x for x in a) for a in h.s_plus}
            for a in h.s_plus:
                for b in h.s_plus:
                    c = tuple(a[i] + b[i] for i in range(rs.rank))
                    assert c not in rs.root_index, (dt, marked, a, b)


@pytest.mark.parametrize("dt", all_types_up_to_rank(3))
def test_compact_roots_reflection_closed(dt):
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        from flagample.rootsystem import reflect

        for gamma in g.compact_roots:
            for v in g.compact_roots:
                assert reflect(rs, v, gamma) in g.compact_roots


def test_xi_separates_marked_simple(a2):
    # the normalization pins s_plus: the first marked simple pairs > 0
    g = grade_roots(a2, {1, 2})
    h = hermitian_data(a2, g)
    assert h.center_dim == 1
    assert (1, 0) in h.s_plus
    assert (0, -1) in h.s_plus  # (xi, a2) < 0 since xi kills a1+a2


@pytest.mark.parametrize(
    "dt",
    list(all_types_up_to_rank(4)) + [parse_type(t) for t in ("E6", "E7", "E8")],
    ids=str,
)
def test_shared_k_data_matches_direct_route(dt):
    """hermitian_data's K simple system, components and |W(K)|, read off
    its one orbit pass, equal the direct computations and the all-pairs
    reference."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        h = hermitian_data(rs, g)
        k_pos = compact_positive_roots(rs, g)
        comps = reference_components(rs, k_pos)
        assert h.k_simples == reference_simple_system(rs, k_pos) == simple_system(
            rs, k_pos
        )
        assert h.k_type == ("×".join(c[0] for c in comps) or "0")
        assert h.k_order == math.prod(c[3] for c in comps)
        assert h.k_order == group_order_from_simples(rs, h.k_simples)
        assert h.k_context.simples == h.k_simples
        assert h.k_context.pos_count == len(k_pos)


@pytest.mark.parametrize(
    "dt",
    list(all_types_up_to_rank(4)) + [parse_type(t) for t in ("E6", "E7", "E8")],
    ids=str,
)
def test_center_dim_is_the_rank_deficiency(dt):
    """center_dim, read off the number of K's simple roots, equals the
    rank deficiency of the compact roots by rational elimination."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        k_pos = compact_positive_roots(rs, g)
        deficiency = rs.rank - len(_rref(k_pos))
        assert hermitian_data(rs, g).center_dim == deficiency, (dt, marked)


@pytest.mark.parametrize(
    "dt",
    list(all_types_up_to_rank(4)) + [parse_type("E6"), parse_type("E7")],
    ids=str,
)
def test_central_functional_kills_compact_roots(dt):
    """For every Hermitian marking, s_plus is the half of the noncompact
    roots on the side of the first marked simple root of the rational
    kernel vector orthogonal to every compact root."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        h = hermitian_data(rs, g)
        if not h.hermitian:
            continue
        # (x, gamma) = sum_k x_k (B gamma)_k, B symmetric
        rows = [
            [pair(rs, e, gamma) for e in rs.simple_roots]
            for gamma in compact_positive_roots(rs, g)
        ]
        x = _reference_kernel(rows, rs.rank)
        assert x is not None, (dt, marked)
        assert all(pair(rs, x, gamma) == 0 for gamma in g.compact_roots)
        first = rs.simple_roots[min(marked) - 1]
        sign = 1 if pair(rs, x, first) > 0 else -1
        assert set(h.s_plus) == {
            a for a in g.noncompact_roots if sign * pair(rs, x, a) > 0
        }, (dt, marked)


def _xi_value(xi, v):
    return sum(a * b for a, b in zip(xi, v))


@pytest.mark.parametrize("dt", all_types_up_to_rank(8), ids=str)
def test_center_has_two_routes(dt):
    """The diagram functional is 0 exactly on the unmarked nodes, +-1 on
    the marked ones and +1 on the lowest marked node.  It kills K's
    simple roots exactly when the compact roots have rank deficiency 1;
    then it is +1 on s_plus and -1 on s_minus, the scalars by which the
    center acts on p+ and p-."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        xi = _central_functional(rs, frozenset(marked))
        assert len(xi) == rs.rank
        for i, x in enumerate(xi, 1):
            assert x in ((1, -1) if i in marked else (0,)), (dt, marked)
        assert xi[min(marked) - 1] == 1

        h = hermitian_data(rs, grade_roots(rs, marked))
        kills = all(_xi_value(xi, gamma) == 0 for gamma in h.k_simples)
        assert kills == (h.center_dim == 1), (dt, marked)
        if h.hermitian:
            assert {_xi_value(xi, a) for a in h.s_plus} == {1}, (dt, marked)
            assert {_xi_value(xi, a) for a in h.s_minus} == {-1}, (dt, marked)
