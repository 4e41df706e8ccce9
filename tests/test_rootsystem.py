"""Root generation checked against independent classical coordinate models."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagample.dynkin import parse_type
from flagample.errors import InternalInconsistencyError, NotARootError, NotClosedError
from flagample.realform import grade_roots
from flagample.rootsystem import _component_label, build_root_system, pair, reflect
from flagample import dynkin, weyl
from flagample.weyl import SubsystemContext
from reference import (
    all_types_up_to_rank,
    components,
    label_order,
    orbit_pass,
    simple_roots,
    simple_system,
    subsystem_components,
)


def _model(label):
    """Simple roots and full root set of a classical model in an
    orthonormal e-basis; an oracle independent of reflection closure."""
    dt = parse_type(label)
    s, n = dt.series, dt.rank

    def e(i, dim, c=1):
        v = [Fraction(0)] * dim
        v[i] = Fraction(c)
        return v

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    def neg(a):
        return [-x for x in a]

    if s == "A":
        dim = n + 1
        simples = [add(e(i, dim), neg(e(i + 1, dim))) for i in range(n)]
        roots = [
            add(e(i, dim), neg(e(j, dim)))
            for i in range(dim)
            for j in range(dim)
            if i != j
        ]
    elif s == "B":
        dim = n
        simples = [add(e(i, dim), neg(e(i + 1, dim))) for i in range(n - 1)]
        simples.append(e(n - 1, dim))
        roots = []
        for i in range(n):
            roots += [e(i, dim), neg(e(i, dim))]
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(add(e(i, dim, si), e(j, dim, sj)))
    elif s == "C":
        dim = n
        simples = [add(e(i, dim), neg(e(i + 1, dim))) for i in range(n - 1)]
        simples.append(e(n - 1, dim, 2))
        roots = []
        for i in range(n):
            roots += [e(i, dim, 2), e(i, dim, -2)]
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(add(e(i, dim, si), e(j, dim, sj)))
    elif s == "D":
        dim = n
        simples = [add(e(i, dim), neg(e(i + 1, dim))) for i in range(n - 1)]
        simples.append(add(e(n - 2, dim), e(n - 1, dim)))
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(add(e(i, dim, si), e(j, dim, sj)))
    elif s == "G":
        dim = 3
        simples = [
            add(e(0, dim), neg(e(1, dim))),
            [Fraction(-2), Fraction(1), Fraction(1)],
        ]
        roots = []
        for i in range(3):
            for j in range(3):
                if i != j:
                    roots.append(add(e(i, dim), neg(e(j, dim))))
            j, k = sorted({0, 1, 2} - {i})
            v = add(add(e(i, dim, 2), neg(e(j, dim))), neg(e(k, dim)))
            roots += [v, neg(v)]
    elif s == "F":
        dim = 4
        half = Fraction(1, 2)
        simples = [
            add(e(1, dim), neg(e(2, dim))),
            add(e(2, dim), neg(e(3, dim))),
            e(3, dim),
            [half, -half, -half, -half],
        ]
        roots = []
        for i in range(4):
            roots += [e(i, dim), neg(e(i, dim))]
            for j in range(i + 1, 4):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(add(e(i, dim, si), e(j, dim, sj)))
        for s0 in (half, -half):
            for s1 in (half, -half):
                for s2 in (half, -half):
                    for s3 in (half, -half):
                        roots.append([s0, s1, s2, s3])
    else:
        raise ValueError(label)
    uniq = {tuple(v) for v in roots}
    return simples, uniq


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4"])
def test_roots_match_classical_model(label):
    rs = build_root_system(parse_type(label))
    simples, expected = _model(label)
    dim = len(simples[0])
    got = set()
    for v in rs.roots:
        coords = [sum(Fraction(v[k]) * simples[k][d] for k in range(rs.rank)) for d in range(dim)]
        got.add(tuple(coords))
    assert got == expected


def test_a1_roots_trivial():
    rs = build_root_system(parse_type("A1"))
    assert set(rs.roots) == {(1,), (-1,)}


def test_a2_roots_enumerated():
    rs = build_root_system(parse_type("A2"))
    pos = {(1, 0), (0, 1), (1, 1)}
    assert set(rs.positive_roots) == pos
    assert set(rs.roots) == pos | {(-1, 0), (0, -1), (-1, -1)}


def test_b2_roots_enumerated():
    rs = build_root_system(parse_type("B2"))
    pos = {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert set(rs.positive_roots) == pos


@pytest.mark.parametrize("dt", all_types_up_to_rank(4))
def test_counts_and_symmetry(dt):
    rs = build_root_system(dt)
    assert len(rs.roots) == len(set(rs.roots))
    assert set(rs.roots) == {tuple(-x for x in v) for v in rs.roots}
    assert 2 * len(rs.positive_roots) == len(rs.roots)
    # closed under all simple reflections
    for g in simple_roots(rs):
        for v in rs.roots:
            assert reflect(rs, v, g) in rs.root_index


def test_reflect_examples():
    rs = build_root_system(parse_type("A2"))
    # pairing <a1+a2, a2^vee> = 1, read off the Cartan matrix
    assert reflect(rs, (1, 1), (0, 1)) == (1, 0)
    assert all(type(x) is int for x in reflect(rs, (1, 1), (0, 1)))
    # off the root lattice the pairing <a1/2, a2^vee> = -1/2 is a Fraction
    half = Fraction(1, 2)
    assert reflect(rs, (half, 0), (0, 1)) == (half, half)
    assert isinstance(reflect(rs, (half, 0), (0, 1))[1], Fraction)
    b2 = build_root_system(parse_type("B2"))
    # a1 = e1-e2 (long), a2 = e2 (short): s_{a1} swaps e1, e2
    assert reflect(b2, (1, 1), (1, 0)) == (0, 1)
    # orthogonal vectors are fixed: (a1, a1+2a2) = 0 in B2
    assert pair(b2, (1, 0), (1, 2)) == 0
    assert reflect(b2, (1, 0), (1, 2)) == (1, 0)


def test_reflect_involution():
    rs = build_root_system(parse_type("B3"))
    for g in rs.roots:
        for v in rs.roots:
            assert reflect(rs, reflect(rs, v, g), g) == v


def test_reflect_not_a_root():
    rs = build_root_system(parse_type("A2"))
    with pytest.raises(NotARootError):
        reflect(rs, (1, 0), (2, 0))


def test_simple_system_standard():
    rs = build_root_system(parse_type("A2"))
    assert simple_system(rs, rs.positive_roots) == ((0, 1), (1, 0))


def test_simple_system_orthogonal_pair():
    rs = build_root_system(parse_type("B2"))
    assert simple_system(rs, [(1, 0), (1, 2)]) == ((1, 0), (1, 2))


def test_simple_system_singleton():
    rs = build_root_system(parse_type("A2"))
    assert simple_system(rs, [(0, 1)]) == ((0, 1),)


def test_simple_system_not_closed():
    rs = build_root_system(parse_type("A2"))
    with pytest.raises(NotClosedError):
        simple_system(rs, [(1, 0), (1, 1)])  # reflection escapes to a2
    with pytest.raises(NotClosedError):
        simple_system(rs, [(2, 0)])  # not even a root


def test_orbit_of_a_non_simple_pair_is_refused():
    """alpha_1 and alpha_1 + alpha_2 pair positively, so they are no
    simple system: their reflections generate W(A2), whose simple roots
    are alpha_1 and alpha_2.  As positive roots they are no closed
    subsystem either: s_1(alpha_1 + alpha_2) = alpha_2."""
    rs = build_root_system(parse_type("A2"))
    pair_ = [rs.root_index[(1, 0)], rs.root_index[(1, 1)]]
    with pytest.raises(
        NotClosedError,
        match="^the roots are not the simple roots of the group they generate$",
    ):
        SubsystemContext.from_simples(rs, pair_)
    with pytest.raises(
        NotClosedError,
        match="^the orbit is not its positive roots and their negatives$",
    ):
        SubsystemContext(rs, pair_)


def negate(v):
    return tuple(-x for x in v)


def reference_simple_system(rs, pos):
    """The all-pairs route: closure checked on every pair of roots, and a
    positive root is simple iff its reflection has length one, sending no
    other positive root to a negative one."""
    pos_set = frozenset(pos)
    full = pos_set | {negate(v) for v in pos_set}
    for v in full:
        if v not in rs.root_index:
            raise NotClosedError(f"{v} is not a root")
    idx = {rs.root_index[v] for v in full}
    for g in idx:
        row = rs.reflection_row(g)
        for v in idx:
            if row[v] not in idx:
                raise NotClosedError("subset not reflection-closed")
    pos_idx = {rs.root_index[v] for v in pos_set}
    simples = []
    for g in pos_idx:
        row = rs.reflection_row(g)
        if all(row[v] in pos_idx for v in pos_idx if v != g):
            simples.append(rs.roots[g])
    return tuple(sorted(simples))


def reference_components(rs, pos):
    """(label, rank, number of roots, Weyl group order, simples) of each
    component, which is the orbit of a connected set of simple roots under
    their reflections, connected meaning non-orthogonal."""
    pos = frozenset(pos)
    simples = reference_simple_system(rs, pos)
    idx = [rs.root_index[g] for g in simples]
    rows = [rs.reflection_row(i) for i in idx]
    groups = []
    for i in range(len(simples)):
        linked = [
            grp for grp in groups if any(rows[i][idx[j]] != idx[j] for j in grp)
        ]
        for grp in linked:
            groups.remove(grp)
        groups.append(sorted({i}.union(*linked)))
    groups.sort()
    out = []
    for members in groups:
        orbit = {idx[i] for i in members}
        queue = list(orbit)
        while queue:
            v = queue.pop()
            for i in members:
                if rows[i][v] not in orbit:
                    orbit.add(rows[i][v])
                    queue.append(rows[i][v])
        comp_pos = [v for v in orbit if rs.roots[v] in pos]
        comp_simples = tuple(simples[i] for i in members)
        label = _component_label(rs, comp_simples, comp_pos)
        order = label_order(label)
        out.append((label, len(members), 2 * len(comp_pos), order, comp_simples))
    assert sum(c[2] for c in out) == 2 * len(pos)
    return tuple(sorted(out, key=lambda c: (-c[1], c[0])))


_SUBSET_SYSTEMS = [build_root_system(dt) for dt in all_types_up_to_rank(4)] + [
    build_root_system(parse_type(label)) for label in ("E6", "E7")
]


@st.composite
def _positive_subsets(draw):
    """A set of positive roots: the compact ones of a marking, the ones
    supported on a node set, both (all closed), or any; then a few roots
    toggled, which mostly breaks closure."""
    rs = draw(st.sampled_from(_SUBSET_SYSTEMS))
    n = rs.rank
    nodes = st.frozensets(st.integers(0, n - 1))
    marked, levi = draw(nodes), draw(nodes)
    kind = draw(st.sampled_from(("compact", "levi", "both", "any")))
    compact = {v for v in rs.positive_roots if sum(v[i] for i in marked) % 2 == 0}
    inside = {
        v
        for v in rs.positive_roots
        if all(v[i] == 0 for i in range(n) if i not in levi)
    }
    if kind == "any":
        pos = set(draw(st.lists(st.sampled_from(rs.positive_roots), max_size=12)))
    else:
        pos = {"compact": compact, "levi": inside, "both": compact & inside}[kind]
    toggles = draw(st.lists(st.sampled_from(rs.positive_roots), max_size=2))
    return rs, pos.symmetric_difference(toggles)


@given(_positive_subsets())
@settings(max_examples=400, deadline=None)
def test_simple_system_matches_all_pairs_reference(args):
    """The height pass and closure checks give the reference's simple roots
    and components, through each entry point, and raise NotClosedError
    exactly when the all-pairs check does."""
    rs, pos = args
    routes = (
        lambda: simple_system(rs, pos),
        lambda: subsystem_components(rs, pos),
        lambda: SubsystemContext(rs, [rs.root_index[v] for v in pos]),
    )
    try:
        expected = reference_simple_system(rs, pos)
    except NotClosedError:
        for route in routes:
            with pytest.raises(NotClosedError):
                route()
        return
    simples, comps, ctx = (route() for route in routes)
    assert simples == tuple(rs.roots[g] for g in ctx.simples) == expected
    assert comps == components(ctx) == reference_components(rs, pos)
    assert ctx.labels == tuple(c.label for c in comps)
    assert ctx.order() == math.prod(c.order for c in comps)


def test_simple_system_refuses_negative_roots():
    rs = build_root_system(parse_type("A2"))
    with pytest.raises(NotClosedError):
        simple_system(rs, [(-1, 0)])


@pytest.mark.parametrize(
    "where", ["below", "past the end", "past the end after the highest root"]
)
def test_context_refuses_indices_outside_the_positive_roots(where):
    """An index below the first positive root's, or not below the number
    of roots, is refused with the pass's own message before any row is
    read at it."""
    rs = build_root_system(parse_type("A2"))
    first = rs.positive_indices
    positives = {
        "below": [first.start - 1, first.start],
        "past the end": [first.stop],
        "past the end after the highest root": [first.stop - 1, first.stop],
    }[where]
    with pytest.raises(NotClosedError, match="^not a set of positive roots of A2$"):
        SubsystemContext(rs, positives)


def test_subsystem_components():
    b2 = build_root_system(parse_type("B2"))
    comps = subsystem_components(b2, [(1, 0), (1, 2)])
    assert [c.label for c in comps] == ["A1", "A1"]
    assert all(c.order == 2 for c in comps)

    a3 = build_root_system(parse_type("A3"))
    comps = subsystem_components(a3, a3.positive_roots)
    assert [c.label for c in comps] == ["A3"]
    assert comps[0].order == 24

    f4 = build_root_system(parse_type("F4"))
    comps = subsystem_components(f4, f4.positive_roots)
    assert [c.label for c in comps] == ["F4"]
    assert comps[0].order == 1152


def _check_rows(rs, pairs):
    """Each reflection row agrees with coordinate reflect and is an
    involution."""
    for g, v in pairs:
        row = rs.reflection_row(g)
        assert rs.roots[row[v]] == reflect(rs, rs.roots[v], rs.roots[g])
        assert row[row[v]] == v


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_reflection_rows_match_reflect(dt):
    rs = build_root_system(dt)
    m = len(rs.roots)
    _check_rows(rs, ((g, v) for g in range(m) for v in range(m)))
    assert len(rs._rows) == m


_EXCEPTIONAL = {
    label: build_root_system(parse_type(label)) for label in ("E6", "E7", "E8")
}


@given(st.sampled_from(sorted(_EXCEPTIONAL)), st.data())
@settings(max_examples=30, deadline=None)
def test_reflection_rows_match_reflect_exceptional(label, data):
    rs = _EXCEPTIONAL[label]
    index = st.integers(0, len(rs.roots) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=20))
    _check_rows(rs, pairs)


def test_reflection_rows_are_lazy():
    # a fresh root system has built no row: set-up stays O(|roots|)
    rs = build_root_system(parse_type("E8"))
    assert rs._rows == {}
    row = rs.reflection_row(5)
    assert rs._rows == {5: row}
    assert rs.reflection_row(5) is row


def test_rows_are_shared_tuples():
    """Reflection rows and sum rows are kept as tuples, so a row cannot
    be written into, and a subsystem's context holds its simple roots'
    rows themselves, not copies of them."""
    rs = build_root_system(parse_type("E6"))
    assert type(rs.reflection_row(0)) is type(rs.sum_row(0)) is tuple
    noncompact = grade_roots(rs, {1}).noncompact_roots
    ctx = SubsystemContext(rs, frozenset(rs.positive_indices) - noncompact)
    for g, row in zip(ctx.simples, ctx.gen_perms):
        assert row is rs.reflection_row(g)


def test_sum_rows_and_odd_masks_are_lazy():
    """The sum rows and the per-root tables (odd roots per node, packed
    keys) are built on first use: set-up stays as it was."""
    rs = build_root_system(parse_type("E8"))
    assert rs._sums == {}
    lazy = ("odd_roots", "root_keys")
    assert not any(name in vars(rs) for name in lazy)
    row = rs.sum_row(7)
    assert rs._sums == {7: row}
    assert rs.sum_row(7) is row
    for name in lazy:
        assert getattr(rs, name) is getattr(rs, name)


def _check_sum_rows(rs, pairs):
    """Each sum row holds the index of the coordinate sum, or the
    sentinel len(roots) where the sum is no root; where it is a root,
    its packed key is the sum of the two keys."""
    keys = rs.root_keys
    for a, b in pairs:
        c = tuple(x + y for x, y in zip(rs.roots[a], rs.roots[b]))
        s = rs.sum_row(a)[b]
        assert s == rs.root_index.get(c, len(rs.roots)), (a, b)
        if s < len(rs.roots):
            assert keys[s] == keys[a] + keys[b], (a, b)


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_sum_rows_match_coordinate_addition(dt):
    rs = build_root_system(dt)
    m = len(rs.roots)
    _check_sum_rows(rs, ((a, b) for a in range(m) for b in range(m)))
    assert len(rs._sums) == m


_WIDE = {
    label: build_root_system(parse_type(label))
    for label in ("A64", "B64", "C64", "D64")
}


@given(st.sampled_from(sorted(_EXCEPTIONAL) + sorted(_WIDE)), st.data())
@settings(max_examples=30, deadline=None)
def test_sum_rows_match_coordinate_addition_exceptional(label, data):
    rs = _EXCEPTIONAL.get(label) or _WIDE[label]
    index = st.integers(0, len(rs.roots) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=20))
    _check_sum_rows(rs, pairs)


@pytest.mark.parametrize(
    "rs", [*_EXCEPTIONAL.values(), *_WIDE.values()], ids=lambda rs: str(rs.dynkin)
)
def test_root_keys_tell_roots_apart(rs):
    """Every root has its own packed key, the key of a negative root is
    the negated key, and every root coefficient is within the bound that
    makes the keys injective on differences."""
    keys = rs.root_keys
    assert len(set(keys)) == len(keys)
    last = len(keys) - 1
    assert all(keys[last - a] == -keys[a] for a in range(len(keys)))
    assert max(max(map(abs, v)) for v in rs.roots) <= 6


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_odd_mask_parity_is_the_coordinate_parity(dt):
    """For every root and every marking, the root lies in the symmetric
    difference of the marked nodes' odd roots exactly when the mod-2 sum
    of its marked coefficients is 1."""
    rs = build_root_system(dt)
    for mask in range(1, 2**dt.rank):
        marked = [i for i in range(dt.rank) if mask >> i & 1]
        odd = frozenset()
        for i in marked:
            odd = odd.symmetric_difference(rs.odd_roots[i])
        for a, v in enumerate(rs.roots):
            want = sum(v[i] for i in marked) % 2
            assert (a in odd) == (want == 1), (v, marked)


@pytest.mark.parametrize("dt", all_types_up_to_rank(8), ids=str)
def test_negation_reverses_the_index(dt):
    """rs.roots is sorted, so -roots[i] is roots[len - 1 - i], and the
    positive roots are its second half."""
    rs = build_root_system(dt)
    assert tuple(rs.roots[i] for i in rs.positive_indices) == rs.positive_roots
    last = len(rs.roots) - 1
    for i, v in enumerate(rs.roots):
        assert rs.roots[last - i] == negate(v)


def test_norms_match_pairing():
    for dt in all_types_up_to_rank(4):
        rs = build_root_system(dt)
        assert rs.norms == tuple(pair(rs, v, v) for v in rs.roots)


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_simple_system_is_indecomposables(dt):
    """The simple roots of every compact positive subsystem are its
    indecomposable elements."""
    rs = build_root_system(dt)
    for mask in range(1, 2**dt.rank):
        pos = [
            v
            for v in rs.positive_roots
            if sum(v[i] for i in range(dt.rank) if mask >> i & 1) % 2 == 0
        ]
        sums = {tuple(x + y for x, y in zip(a, b)) for a in pos for b in pos}
        assert simple_system(rs, pos) == tuple(sorted(set(pos) - sums))


def _markings(label):
    """Every marking of the type, as sets of 1-based nodes, or a fixed
    sample of 12 for the largest types."""
    rank = parse_type(label).rank
    masks = range(1, 2**rank)
    if label in ("E8", "D8", "A12", "A14"):
        masks = sorted(random.Random(label).sample(masks, 12))
    return [[i + 1 for i in range(rank) if mask >> i & 1] for mask in masks]


@pytest.mark.parametrize(
    "label",
    [str(dt) for dt in all_types_up_to_rank(6)] + ["E7", "E8", "D8", "A12", "A14"],
)
def test_context_matches_the_orbit_pass(monkeypatch, label):
    """For K of each marking, the context read off K's positive roots
    holds what the former orbit search from K's simple roots gives: the
    simple roots and their rows, the Cartan matrix, the Dynkin neighbour
    lists, the positive roots, those of nonnegative coordinates in the
    simple basis, and their count, each component's simples and positive
    roots, and the labels, the group order, the word of w0 and its
    opposition involution of a context built on that search."""
    rs = build_root_system(parse_type(label))
    for marked in _markings(label):
        noncompact = grade_roots(rs, marked).noncompact_roots
        pos = frozenset(rs.positive_indices).difference(noncompact)
        ctx = SubsystemContext(rs, pos)
        data, coords = orbit_pass(rs, pos)
        with monkeypatch.context() as m:
            m.setattr(weyl, "closed_subsystem", lambda rs, pos: data)
            ref = SubsystemContext(rs, pos)
        simples, rows, cartan, neighbours, parts = data
        assert (ctx.simples, ctx.gen_perms, ctx.cartan) == (simples, rows, cartan)
        assert ctx.neighbours == neighbours, marked
        found = tuple(sorted(v for v, c in coords.items() if min(c) >= 0))
        assert ctx.positives == ref.positives == found, marked
        assert ctx.pos_count == ref.pos_count == len(pos)
        assert ctx.parts == tuple((members, frozenset(p)) for members, p in parts)
        assert ctx.labels == ref.labels, marked
        assert ctx.order() == ref.order(), marked
        assert ctx.w0_word == ref.w0_word, marked
        assert ctx.opposition == ref.opposition, marked


_PAIR_SYSTEMS = [
    build_root_system(parse_type(label))
    for label in ("A1", "A3", "B3", "C4", "D4", "G2", "F4")
] + list(_EXCEPTIONAL.values())


@st.composite
def _pair_args(draw):
    rs = draw(st.sampled_from(_PAIR_SYSTEMS))
    entry = st.one_of(
        st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)
    )
    vec = st.lists(entry, min_size=rs.rank, max_size=rs.rank)
    return rs, draw(vec), draw(vec)


@given(_pair_args())
@settings(max_examples=100, deadline=None)
def test_pair_matches_double_sum(args):
    """pair against the textbook double sum, on integer and rational
    vectors."""
    rs, v, w = args
    b, n = rs.pairing_matrix, rs.rank
    expected = sum(v[i] * b[i][j] * w[j] for i in range(n) for j in range(n))
    assert pair(rs, v, w) == expected


@pytest.mark.parametrize(
    "cartan,message",
    [
        # G2's Cartan matrix for A2: the closure finds 12 roots, not 6
        (((2, -3), (-1, 2)), "root closure miscounted"),
        # the bonds of A2 with a positive sign: s_1 sends a_2 to a_2 - a_1,
        # and the six roots of the closure include +-(a_1 - a_2), which
        # count as positive both ways
        (((2, 1), (1, 2)), "positive roots are not half the roots"),
    ],
    ids=["closure", "half"],
)
def test_build_refuses_a_corrupt_cartan_matrix(monkeypatch, cartan, message):
    """Each check on the closure's root set stops the build of A2 from a
    wrong Cartan matrix."""
    monkeypatch.setattr(dynkin, "cartan_matrix", lambda dt: cartan)
    with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
        build_root_system(parse_type("A2"))


def test_reflection_row_refuses_a_non_integral_pairing():
    """A2 with a_1 read as of norm 4: 2 (v, a_1) / (a_1, a_1) is then a
    half-integer for the roots v next to a_1, and the row of a_1 is
    refused when it is built."""
    rs = build_root_system(parse_type("A2"))
    a1 = rs.root_index[(1, 0)]
    norms = list(rs.norms)
    norms[a1] = 4
    rs = dataclasses.replace(rs, norms=tuple(norms), _rows={}, _sums={})
    message = "non-integral coroot pairing between roots"
    with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
        rs.reflection_row(a1)
