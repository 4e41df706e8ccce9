import math
from fractions import Fraction
from operator import add

import pytest

from flagample.dynkin import parse_type
from flagample.errors import BadNodeError, CompactFormError
from flagample.realform import (
    _central_functional,
    grade_roots,
    hermitian_data,
    highest_weights,
)
from flagample.rootsystem import build_root_system, pair
from flagample.weyl import group_order_from_simples
from reference import (
    all_types_up_to_rank,
    components,
    coords,
    enumerate_weyl,
    simple_roots,
    simple_system,
    subsystem_components,
)
from test_rootsystem import reference_components, reference_simple_system


def roots_of(rs, indices):
    """The coordinates of the roots of the given indices, in order."""
    return tuple(rs.roots[i] for i in indices)


def compact_roots(rs, g):
    """The coordinates of the compact roots of a grading."""
    return {v for i, v in enumerate(rs.roots) if i not in g.noncompact_roots}


def compact_positive_roots(rs, g):
    """The coordinates of the compact positive roots, sorted."""
    return tuple(
        v for v in rs.positive_roots if rs.root_index[v] not in g.noncompact_roots
    )


def reference_grade_roots(rs, marked):
    """The coordinate grading: (compact, noncompact) as sets of
    coordinate tuples, by the mod-2 sum of the marked coefficients."""
    compact, noncompact = set(), set()
    for v in rs.roots:
        (noncompact if sum(v[i - 1] for i in marked) % 2 else compact).add(v)
    return compact, noncompact


def reference_highest_weights(weights, k_roots):
    """The coordinate highest weights: the weights of the set to which no
    root of k_roots can be added inside the set, by tuple sums, sorted."""
    return tuple(
        sorted(
            a
            for a in weights
            if all(tuple(map(add, a, g)) not in weights for g in k_roots)
        )
    )


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
    assert set(roots_of(a2, g.noncompact_roots)) == {(1, 0), (1, 1), (-1, 0), (-1, -1)}
    assert compact_roots(a2, g) == {(0, 1), (0, -1)}


def test_grade_b2_marked_2(b2):
    g = grade_roots(b2, {2})
    assert set(roots_of(b2, g.noncompact_roots)) == {(0, 1), (1, 1), (0, -1), (-1, -1)}
    assert compact_roots(b2, g) == {(1, 0), (1, 2), (-1, 0), (-1, -2)}


def test_grade_g2_marked_1():
    g2 = build_root_system(parse_type("G2"))
    g = grade_roots(g2, {1})
    assert len(g.noncompact_roots) == 8
    assert len(compact_roots(g2, g)) == 4
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
    assert set(roots_of(a2, h.s_plus)) == {(1, 0), (1, 1)}
    assert set(roots_of(a2, h.s_minus)) == {(-1, 0), (-1, -1)}
    # highest weights of the two halves: a1+a2 and -a1
    assert set(roots_of(a2, h.lambda_max_s)) == {(1, 1), (-1, 0)}
    assert h.kname == "su(2,1)"


def test_hermitian_b2_marked_2(b2):
    g = grade_roots(b2, {2})
    h = hermitian_data(b2, g)
    assert h.center_dim == 0
    assert not h.hermitian
    assert roots_of(b2, h.lambda_max_s) == ((1, 1),)
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

        def parity(v):
            return int(rs.root_index[v] in g.noncompact_roots)

        for a in rs.roots:
            assert parity(tuple(-x for x in a)) == parity(a)
        for a, b, c in summable:
            assert parity(c) == (parity(a) + parity(b)) % 2


@pytest.mark.parametrize("dt", all_types_up_to_rank(4))
def test_lambda_max_count_and_s_plus_abelian(dt):
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        h = hermitian_data(rs, g)
        assert len(h.lambda_max_s) == 1 + h.center_dim, (dt, marked)
        if h.hermitian:
            s_plus = roots_of(rs, h.s_plus)
            assert set(roots_of(rs, h.s_minus)) == {
                tuple(-x for x in a) for a in s_plus
            }
            for a in s_plus:
                for b in s_plus:
                    c = tuple(a[i] + b[i] for i in range(rs.rank))
                    assert c not in rs.root_index, (dt, marked, a, b)


@pytest.mark.parametrize("dt", all_types_up_to_rank(3))
def test_compact_roots_reflection_closed(dt):
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        compact = compact_roots(rs, grade_roots(rs, marked))
        from flagample.rootsystem import reflect

        for gamma in compact:
            for v in compact:
                assert reflect(rs, v, gamma) in compact


@pytest.mark.parametrize(
    "dt", list(all_types_up_to_rank(4)) + [parse_type("E6")], ids=str
)
def test_index_grading_matches_coordinate_reference(dt):
    """On every marking, grade_roots gives the coordinate reference's
    compact and noncompact roots, and highest_weights, through K's simple
    roots and through all of K's positive roots, gives the coordinate
    reference's highest weights, which are hermitian_data's lambda_max_s."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        compact, noncompact = reference_grade_roots(rs, marked)
        assert set(roots_of(rs, g.noncompact_roots)) == noncompact, (dt, marked)
        assert compact_roots(rs, g) == compact, (dt, marked)

        h = hermitian_data(rs, g)
        k_simples = h.k_context.simples
        k_pos = compact_positive_roots(rs, g)
        want = reference_highest_weights(noncompact, roots_of(rs, k_simples))
        assert want == reference_highest_weights(noncompact, k_pos), (dt, marked)
        for k_roots in (k_simples, [rs.root_index[v] for v in k_pos]):
            got = highest_weights(rs, g.noncompact_roots, k_roots)
            assert roots_of(rs, got) == want, (dt, marked)
        assert roots_of(rs, h.lambda_max_s) == want, (dt, marked)


def test_xi_separates_marked_simple(a2):
    # the normalization pins s_plus: the first marked simple pairs > 0
    g = grade_roots(a2, {1, 2})
    h = hermitian_data(a2, g)
    assert h.center_dim == 1
    assert (1, 0) in roots_of(a2, h.s_plus)
    assert (0, -1) in roots_of(a2, h.s_plus)  # (xi, a2) < 0 since xi kills a1+a2


@pytest.mark.parametrize(
    "dt",
    list(all_types_up_to_rank(4)) + [parse_type(t) for t in ("E6", "E7", "E8")],
    ids=str,
)
def test_shared_k_data_matches_direct_route(dt):
    """hermitian_data's K simple system, components and |W(K)|, read off
    its one pass, equal the direct computations and the all-pairs
    reference.  The signs of K's roots are the signs of their
    coordinates in K's simple basis (from the reference orbit search),
    which are also the ambient signs, and the positive count is the
    number of compact positive roots."""
    rs = build_root_system(dt)
    first = rs.positive_indices.start
    for marked in _all_markings(dt.rank):
        g = grade_roots(rs, marked)
        h = hermitian_data(rs, g)
        ctx = h.k_context
        k_pos = compact_positive_roots(rs, g)
        comps = reference_components(rs, k_pos)
        k_simples = roots_of(rs, ctx.simples)
        assert k_simples == reference_simple_system(rs, k_pos) == simple_system(
            rs, k_pos
        )
        assert h.k_type == ("×".join(c[0] for c in comps) or "0")
        assert h.k_order == math.prod(c[3] for c in comps)
        assert h.k_order == group_order_from_simples(rs, k_simples)
        assert ctx.pos_count == len(k_pos)
        k_coords = coords(ctx)
        assert ctx.sub_sign.keys() == k_coords.keys()
        for v, c in k_coords.items():
            want = 1 if min(c) >= 0 else -1
            assert ctx.sub_sign[v] == want == (1 if v >= first else -1), (marked, v)
        assert components(ctx) == comps, (dt, marked)
        assert ctx.labels() == tuple(c[0] for c in comps)


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
            [pair(rs, e, gamma) for e in simple_roots(rs)]
            for gamma in compact_positive_roots(rs, g)
        ]
        x = _reference_kernel(rows, rs.rank)
        assert x is not None, (dt, marked)
        assert all(pair(rs, x, gamma) == 0 for gamma in compact_roots(rs, g))
        first = simple_roots(rs)[min(marked) - 1]
        sign = 1 if pair(rs, x, first) > 0 else -1
        assert set(roots_of(rs, h.s_plus)) == {
            a for a in roots_of(rs, g.noncompact_roots) if sign * pair(rs, x, a) > 0
        }, (dt, marked)


def _xi_value(xi, v):
    return sum(a * b for a, b in zip(xi, v))


@pytest.mark.parametrize("dt", all_types_up_to_rank(8), ids=str)
def test_center_has_two_routes(dt):
    """The diagram functional is 0 exactly on the unmarked nodes, +-1 on
    the marked ones and +1 on the lowest marked node.  It kills K's
    simple roots exactly when the compact roots have rank deficiency 1;
    then it is +1 on s_plus and -1 on s_minus, the scalars by which the
    center acts on p+ and p-.  So -a_m, a_m the lowest marked simple
    root, is in s_minus: every parabolic holds it, which is why the
    verdict's structural test never finds q cap s inside s_plus."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        xi = _central_functional(rs, frozenset(marked))
        assert len(xi) == rs.rank
        for i, x in enumerate(xi, 1):
            assert x in ((1, -1) if i in marked else (0,)), (dt, marked)
        assert xi[min(marked) - 1] == 1

        h = hermitian_data(rs, grade_roots(rs, marked))
        kills = all(
            _xi_value(xi, gamma) == 0 for gamma in roots_of(rs, h.k_context.simples)
        )
        assert kills == (h.center_dim == 1), (dt, marked)
        if h.hermitian:
            plus, minus = roots_of(rs, h.s_plus), roots_of(rs, h.s_minus)
            assert {_xi_value(xi, a) for a in plus} == {1}, (dt, marked)
            assert {_xi_value(xi, a) for a in minus} == {-1}, (dt, marked)
            m = min(marked)
            low = rs.root_index[tuple(-1 if i == m else 0 for i in range(1, rs.rank + 1))]
            assert low in h.s_minus and low not in h.s_plus, (dt, marked)


# The E7 markings whose K is E6 x T.  The label route names that K "C6"
# and reads |W(K)| = 46,080 where the Weyl group of E6 has 51,840
# elements: the wrong answer of ROADMAP.md item 2, pinned here unfixed.
E7_MARKINGS_WITH_K_E6 = (
    (7,), (1, 2), (1, 7), (2, 3), (2, 6), (3, 5), (4, 5), (5, 6), (6, 7),
    (1, 2, 3), (1, 2, 4), (1, 3, 7), (1, 4, 5), (1, 5, 6), (1, 6, 7),
    (2, 3, 4), (2, 4, 6), (2, 5, 7), (3, 4, 7),
    (1, 2, 3, 4), (1, 3, 4, 5), (1, 3, 5, 6), (1, 3, 6, 7), (2, 4, 5, 7),
    (2, 5, 6, 7), (3, 4, 5, 6), (3, 4, 6, 7),
    (2, 4, 5, 6, 7),
)


def _height_product(ctx):
    """|W(K)| by Kostant's height partition: the product over K's
    positive roots of (ht + 1) / ht, heights in K's simple coordinates
    (Humphreys, *Reflection Groups and Coxeter Groups*, 3.20), read
    off the reference orbit search."""
    num = den = 1
    for c in coords(ctx).values():
        ht = sum(c)
        if ht > 0:
            num *= ht + 1
            den *= ht
    order, rest = divmod(num, den)
    assert rest == 0
    return order


@pytest.mark.parametrize("dt", all_types_up_to_rank(8), ids=str)
def test_k_order_is_the_height_product(dt):
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        if str(dt) == "E7" and marked in E7_MARKINGS_WITH_K_E6:
            continue
        h = hermitian_data(rs, grade_roots(rs, marked))
        assert h.k_order == _height_product(h.k_context), (dt, marked)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 2: K = E6 x T is labelled C6 and its |W(K)| "
    "read as 46,080",
)
@pytest.mark.parametrize("marked", E7_MARKINGS_WITH_K_E6, ids=str)
def test_k_order_is_the_height_product_k_e6(marked):
    rs = build_root_system(parse_type("E7"))
    h = hermitian_data(rs, grade_roots(rs, marked))
    assert h.k_order == _height_product(h.k_context)


def test_weyl_group_of_k_e6_has_51840_elements():
    rs = build_root_system(parse_type("E7"))
    for marked in E7_MARKINGS_WITH_K_E6:
        h = hermitian_data(rs, grade_roots(rs, marked))
        assert _height_product(h.k_context) == 51_840, marked
    h = hermitian_data(rs, grade_roots(rs, (7,)))
    assert len(enumerate_weyl(rs, roots_of(rs, h.k_context.simples))) == 51_840
