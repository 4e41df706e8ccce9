import itertools

import pytest

from flagample.cycle import NeutralFiber, ParabolicData, neutral_fiber, parabolic_data
from flagample.dynkin import all_types_up_to_rank, parse_type
from flagample.errors import BadNodeError, EmptyFiberError, NotProperError
from flagample.realform import grade_roots
from flagample.rootsystem import build_root_system
from test_realform import compact_roots, roots_of
from test_rootsystem import negate


@pytest.fixture(scope="module")
def a2():
    return build_root_system(parse_type("A2"))


@pytest.fixture(scope="module")
def b2():
    return build_root_system(parse_type("B2"))


def test_parabolic_a2_levi2(a2):
    g = grade_roots(a2, {1})
    pd = parabolic_data(a2, g, {2})
    assert pd.dim_z == 2
    assert pd.dim_c == 0
    assert pd.levi_correction == 1
    assert set(roots_of(a2, pd.tangent_weights)) == {(1, 0), (1, 1)}


def test_parabolic_a2_levi1(a2):
    g = grade_roots(a2, {1})
    pd = parabolic_data(a2, g, {1})
    assert pd.dim_z == 2
    assert pd.dim_c == 1
    assert pd.levi_correction == 0


def test_parabolic_a2_borel(a2):
    g = grade_roots(a2, {1})
    pd = parabolic_data(a2, g, set())
    assert pd.dim_z == 3
    assert pd.dim_c == 1
    assert pd.levi_correction == 0
    assert set(roots_of(a2, pd.tangent_weights)) == set(a2.positive_roots)


def test_parabolic_errors(a2):
    g = grade_roots(a2, {1})
    with pytest.raises(NotProperError):
        parabolic_data(a2, g, {1, 2})
    with pytest.raises(BadNodeError):
        parabolic_data(a2, g, {7})


def test_fiber_examples(a2, b2):
    g = grade_roots(a2, {1})
    f = neutral_fiber(parabolic_data(a2, g, {2}), g)
    assert set(roots_of(a2, f.weights)) == {(1, 0), (1, 1)} and f.rank == 2
    f = neutral_fiber(parabolic_data(a2, g, {1}), g)
    assert roots_of(a2, f.weights) == ((1, 1),) and f.rank == 1

    gb = grade_roots(b2, {2})
    pd = parabolic_data(b2, gb, {1})
    f = neutral_fiber(pd, gb)
    assert set(roots_of(b2, f.weights)) == {(0, 1), (1, 1)} and f.rank == 2
    assert pd.dim_c == 1  # via the compact root a1+2a2


def test_empty_fiber_guard(a2):
    # unreachable through the public pipeline for connected diagrams
    # (a path from a non-Levi node to its first marked node always gives
    # a noncompact tangent root), so exercise the guard directly
    g = grade_roots(a2, {1})
    doctored = ParabolicData(
        levi_nodes=frozenset({2}),
        q_roots=(),
        tangent_weights=(a2.root_index[(0, 1)],),  # compact for this grading
        dim_z=1,
        dim_c=1,
        levi_correction=0,
    )
    with pytest.raises(EmptyFiberError):
        neutral_fiber(doctored, g)


def test_fiber_nonempty_across_sweep():
    # the EmptyFiber degeneracy never occurs for simple types
    import itertools

    for dt in all_types_up_to_rank(3):
        rs = build_root_system(dt)
        nodes = range(1, dt.rank + 1)
        markings = [
            s
            for k in range(1, dt.rank + 1)
            for s in itertools.combinations(nodes, k)
        ]
        levis = [
            s
            for k in range(dt.rank)
            for s in itertools.combinations(nodes, k)
        ]
        for m in markings:
            g = grade_roots(rs, m)
            for l in levis:
                pd = parabolic_data(rs, g, l)
                f = neutral_fiber(pd, g)
                assert f.rank >= 1


@pytest.mark.parametrize("dt", all_types_up_to_rank(3))
def test_structural_invariants(dt):
    import itertools

    rs = build_root_system(dt)
    n = dt.rank
    nodes = range(1, n + 1)
    for m in itertools.chain.from_iterable(
        itertools.combinations(nodes, k) for k in range(1, n + 1)
    ):
        g = grade_roots(rs, m)
        for l in itertools.chain.from_iterable(
            itertools.combinations(nodes, k) for k in range(n)
        ):
            pd = parabolic_data(rs, g, l)
            fiber = neutral_fiber(pd, g)
            q_roots = roots_of(rs, pd.q_roots)

            # q covers the roots together with its opposite
            qset = set(q_roots)
            assert qset | {tuple(-x for x in v) for v in qset} == set(rs.roots)

            # q is closed under root addition
            for a in q_roots:
                for b in q_roots:
                    c = tuple(a[i] + b[i] for i in range(n))
                    if c in rs.root_index:
                        assert c in qset

            # theta-stability of q in the inner case: every root of q has
            # a well-defined parity (tautology guard)
            assert all(
                sum(v[i - 1] for i in m) % 2 == (rs.root_index[v] in g.noncompact_roots)
                for v in q_roots
            )

            # dimension bookkeeping
            assert pd.dim_z == pd.dim_c + fiber.rank
            assert pd.dim_z == len(rs.positive_roots) - len(
                [v for v in rs.positive_roots if v in qset]
            )

            # fiber weights form an upper ideal under adding positive
            # compact roots (the parabolic absorbs downward only)
            fset = set(roots_of(rs, fiber.weights))
            compact = compact_roots(rs, g)
            noncompact = set(roots_of(rs, g.noncompact_roots))
            for a in fset:
                for gam in rs.positive_roots:
                    if gam in compact:
                        c = tuple(a[i] + gam[i] for i in range(n))
                        if c in noncompact:
                            assert c in fset


def test_fiber_disjoint_from_compact_complement(b2):
    g = grade_roots(b2, {2})
    pd = parabolic_data(b2, g, {1})
    fiber = neutral_fiber(pd, g)
    compact_part = [v for v in pd.tangent_weights if v not in g.noncompact_roots]
    assert set(fiber.weights).isdisjoint(compact_part)
    assert len(fiber.weights) + len(compact_part) == pd.dim_z
    assert isinstance(fiber, NeutralFiber)


def _reference_parabolic(rs, g, levi):
    """Levi roots as the positive roots whose support set lies in the
    Levi nodes, all in coordinates."""
    def support(v):
        return frozenset(i + 1 for i, c in enumerate(v) if c != 0)

    compact = compact_roots(rs, g)
    in_levi = [v for v in rs.positive_roots if support(v) <= levi]
    tangent = tuple(v for v in rs.positive_roots if not support(v) <= levi)
    return (
        tuple(sorted([negate(v) for v in rs.positive_roots] + in_levi)),
        tangent,
        sum(1 for v in tangent if v in compact),
        sum(1 for v in in_levi if v in compact),
    )


@pytest.mark.parametrize(
    "dt", list(all_types_up_to_rank(4)) + [parse_type("E6")], ids=str
)
def test_parabolic_matches_support_reference(dt):
    """The bitmask split gives the support-set reference's q roots, tangent
    weights, dim C and Levi correction for every marking and Levi set."""
    rs = build_root_system(dt)
    nodes = range(1, dt.rank + 1)
    subsets = [
        frozenset(s)
        for k in range(dt.rank + 1)
        for s in itertools.combinations(nodes, k)
    ]
    for m in subsets[1:]:
        g = grade_roots(rs, m)
        for levi in subsets[:-1]:
            pd = parabolic_data(rs, g, levi)
            got = (
                roots_of(rs, pd.q_roots),
                roots_of(rs, pd.tangent_weights),
                pd.dim_c,
                pd.levi_correction,
            )
            assert got == _reference_parabolic(rs, g, levi), (m, levi)
