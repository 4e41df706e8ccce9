"""Weyl enumeration and coset length maxima, with exhaustive oracles."""

import itertools
from operator import itemgetter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flagample import kernels
from flagample.cycle import neutral_fiber, parabolic_data
from flagample.dynkin import all_types_up_to_rank, parse_type
from flagample.errors import EnumerationCapError, NotARootError, NotClosedError
from flagample.realform import grade_roots, hermitian_data
from flagample.rootsystem import build_root_system
from flagample.snow import assemble_input, max_weyl_length_bruteforce
from flagample.weyl import (
    SubsystemContext,
    WeylElement,
    compose,
    enumerate_weyl,
    group_order_from_simples,
    invert,
    max_length_mapping,
)


@pytest.fixture(scope="module")
def a2():
    return build_root_system(parse_type("A2"))


@pytest.fixture(scope="module")
def b2():
    return build_root_system(parse_type("B2"))


def test_enumerate_a1xa1(b2):
    # {a1, a1+2a2} is an orthogonal pair inside B2
    els = enumerate_weyl(b2, [(1, 0), (1, 2)])
    assert len(els) == 4
    assert sorted(e.length for e in els) == [0, 1, 1, 2]


def test_enumerate_a2_full(a2):
    els = enumerate_weyl(a2, a2.simple_roots)
    assert len(els) == 6
    lengths = [e.length for e in els]
    assert sorted(lengths) == [0, 1, 1, 2, 2, 3]
    longest = [e for e in els if e.length == 3]
    assert len(longest) == 1
    # the longest element sends every positive root negative; on A2 it is
    # minus the diagram flip, so it fixes the highest root up to sign
    w0 = longest[0]
    neg = {tuple(-x for x in v) for v in a2.positive_roots}
    assert {a2.roots[w0.action[a2.root_index[v]]] for v in a2.positive_roots} == neg
    assert a2.roots[w0.action[a2.root_index[(1, 1)]]] == (-1, -1)
    assert a2.roots[w0.action[a2.root_index[(1, 0)]]] == (0, -1)


def test_enumerate_b2_full(b2):
    els = enumerate_weyl(b2, b2.simple_roots)
    assert len(els) == 8
    assert max(e.length for e in els) == 4


def test_enumeration_order_is_canonical(a2):
    els = enumerate_weyl(a2, a2.simple_roots)
    keys = [(e.length, e.word) for e in els]
    assert keys == sorted(keys)
    assert els[0].word == ()


@pytest.mark.parametrize("label,order", [("A2", 6), ("A3", 24), ("B3", 48), ("C3", 48), ("D4", 192), ("G2", 12)])
def test_orders_match_classical(label, order):
    rs = build_root_system(parse_type(label))
    els = enumerate_weyl(rs, rs.simple_roots)
    assert len(els) == order
    assert group_order_from_simples(rs, rs.simple_roots) == order


@pytest.mark.parametrize("simples", [[(1, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)]])
def test_group_order_refuses_a_non_simple_system(simples):
    # a1 and a1 + a2 meet at 60 degrees; three roots of A2 are dependent
    rs = build_root_system(parse_type("A2"))
    with pytest.raises(NotClosedError):
        group_order_from_simples(rs, simples)


def test_inversion_count_equals_word_length():
    rs = build_root_system(parse_type("B3"))
    ctx = SubsystemContext(rs, rs.simple_roots)
    for el in enumerate_weyl(rs, rs.simple_roots):
        assert ctx.length_of_perm(el.action) == len(el.word)


def test_element_equality_by_action(a2):
    els = enumerate_weyl(a2, a2.simple_roots)
    s1, s2 = els[1], els[2]
    assert s1 != s2
    # s1*s2*s1 == s2*s1*s2 (the braid relation) as actions
    a = compose(s1.action, compose(s2.action, s1.action))
    b = compose(s2.action, compose(s1.action, s2.action))
    assert WeylElement((0, 1, 0), a) == WeylElement((1, 0, 1), b)
    assert len({WeylElement((), e.action) for e in els}) == 6


def _perm_pair(n):
    perm = st.permutations(range(n))
    return st.tuples(perm, perm)


@given(st.integers(0, 7).flatmap(_perm_pair))
@example(((), ()))
@example(((0,), (0,)))
@example(((1, 0), (0, 1)))
@example(((0, 1), (1, 0)))
@example(((1, 0), (1, 0)))
def test_compose_and_invert(perms):
    a, b = (tuple(p) for p in perms)
    ab = compose(a, b)
    assert type(ab) is tuple
    assert ab == tuple(a[x] for x in b)
    assert compose(a, invert(a)) == tuple(range(len(a)))


def test_identity_element(a2):
    els = enumerate_weyl(a2, [])
    assert len(els) == 1
    assert els[0].word == ()
    assert els[0].action == tuple(range(len(a2.roots)))


def test_enumeration_cap(a2):
    with pytest.raises(EnumerationCapError):
        enumerate_weyl(a2, a2.simple_roots, cap=3)


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4"])
def test_enumeration_cap_boundary(label):
    rs = build_root_system(parse_type(label))
    order = group_order_from_simples(rs, rs.simple_roots)
    assert len(enumerate_weyl(rs, rs.simple_roots, cap=order)) == order
    with pytest.raises(EnumerationCapError):
        enumerate_weyl(rs, rs.simple_roots, cap=order - 1)


@pytest.mark.parametrize(
    "label,marked", [("B3", (1,)), ("C4", (2,)), ("D4", (1, 3)), ("E6", (1,))]
)
def test_bruteforce_cap_boundary(label, marked, monkeypatch):
    rs = build_root_system(parse_type(label))
    g = grade_roots(rs, marked)
    h = hermitian_data(rs, g)
    pd = parabolic_data(rs, g, ())
    inp = assemble_input(rs, g, h, pd, neutral_fiber(pd, g))
    assert h.k_order > 1
    max_weyl_length_bruteforce(inp, cap=h.k_order)
    with pytest.raises(EnumerationCapError):
        max_weyl_length_bruteforce(inp, cap=h.k_order - 1)

    # a group over the cap is refused from |W(K)| alone, before any
    # element is enumerated
    def no_enumeration(*args):
        raise AssertionError("enumerated a group known to exceed the cap")

    monkeypatch.setattr(kernels, "enumerate_group", no_enumeration)
    with pytest.raises(EnumerationCapError):
        max_weyl_length_bruteforce(inp, cap=h.k_order - 1)


def _enumerate_by_actions(ctx):
    """Reference enumeration: the same breadth-first order, but each
    element's full action is its parent's action composed with the
    generator, and elements are told apart by that action."""
    actions, words = [ctx.identity], [()]
    seen = {ctx.identity}
    # itemgetter(*g)(base) is compose(base, g), in C
    right = [itemgetter(*g) for g in ctx.gen_perms]
    for idx, base in enumerate(actions):  # grows while iterating
        for j, g in enumerate(right):
            child = g(base)
            if child not in seen:
                seen.add(child)
                actions.append(child)
                words.append(words[idx] + (j,))
    return words, actions


def _all_markings(rank):
    nodes = range(1, rank + 1)
    for k in range(1, rank + 1):
        yield from itertools.combinations(nodes, k)


@pytest.mark.parametrize(
    "dt", list(all_types_up_to_rank(4)) + [parse_type("E6")], ids=str
)
def test_kernel_matches_action_enumeration(dt):
    """For K of every marking: enumerate_weyl gives the reference's order,
    words and actions, and the kernel's carried images are the inverse
    actions at the simple roots of K and at the tracked roots."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        h = hermitian_data(rs, grade_roots(rs, marked))
        ctx = SubsystemContext(rs, h.k_simples)
        words, actions = _enumerate_by_actions(ctx)
        els = enumerate_weyl(rs, h.k_simples)
        assert [e.word for e in els] == words, marked
        assert [e.action for e in els] == actions, marked
        tracked = tuple(rs.root_index[a] for a in h.lambda_max_s)
        images, parents, genids = kernels.enumerate_group(
            ctx.gen_perms, ctx.simple_indices, tracked, len(actions)
        )
        assert len(images) == len(parents) == len(genids) == len(actions)
        positions = ctx.simple_indices + tracked
        for row, action in zip(images, actions):
            # row holds w^{-1}(p), so w(row) gives the positions back
            assert tuple(action[v] for v in row) == positions, marked


def _all_reduced_words(ctx, perm):
    """Every reduced word of an element, by recursion on left descents."""
    if perm == ctx.identity:
        return {()}
    inv = invert(perm)
    out = set()
    for i, gi in enumerate(ctx.simple_indices):
        if ctx.sub_sign[inv[gi]] < 0:
            rest = _all_reduced_words(ctx, compose(ctx.gen_perms[i], perm))
            out |= {(i,) + r for r in rest}
    return out


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_words_are_lex_least_reduced(label):
    rs = build_root_system(parse_type(label))
    ctx = SubsystemContext(rs, rs.simple_roots)
    for el in enumerate_weyl(rs, rs.simple_roots):
        words = _all_reduced_words(ctx, el.action)
        assert el.word == min(words)
        assert all(len(w) == el.length for w in words)
        assert ctx.canonical_word(el.action) == el.word


def _oracle_max_length(rs, simples, mu, nu):
    """Scan of the whole group; independent of the orbit-BFS route."""
    best = None
    for el in enumerate_weyl(rs, simples):
        img = rs.roots[el.action[rs.root_index[nu]]] if nu in rs.root_index else None
        if img == mu and (best is None or el.length > best):
            best = el.length
    return best


def test_max_length_mapping_a1_flip(a2):
    # only the reflection itself maps gamma to -gamma in an A1 subsystem
    assert max_length_mapping(a2, [(1, 0)], (-1, 0), (1, 0)) == 1


def test_max_length_mapping_orthogonal_pair(b2):
    simples = [(1, 0), (1, 2)]
    assert max_length_mapping(b2, simples, (1, 1), (0, 1)) == 1
    assert _oracle_max_length(b2, simples, (1, 1), (0, 1)) == 1


def test_max_length_mapping_trivial_stabilizer(a2):
    # roots of A2 have trivial stabilizer in W(A2)
    assert max_length_mapping(a2, a2.simple_roots, (1, 0), (1, 0)) == 0


def test_max_length_mapping_not_in_orbit(a2):
    assert max_length_mapping(a2, [(0, 1)], (0, 1), (1, 0)) is None


def test_max_length_mapping_mu_not_a_root(a2):
    # a non-root lies in no root orbit
    assert max_length_mapping(a2, a2.simple_roots, (2, 0), (1, 0)) is None
    assert max_length_mapping(a2, [], (2, 0), (1, 0)) is None


def test_max_length_mapping_nu_not_a_root(a2):
    with pytest.raises(NotARootError):
        max_length_mapping(a2, a2.simple_roots, (1, 0), (2, 0))
    with pytest.raises(NotARootError):
        max_length_mapping(a2, [], (0, 0), (0, 0))


def test_max_length_mapping_nontrivial_stabilizer(b2):
    # the stabilizer of the short root a2 = e2 in W(B2) is {e, s_{e1}},
    # and s_{e1} has length 3: the coset {w : w(a2) = a2} peaks at 3
    assert max_length_mapping(b2, b2.simple_roots, (0, 1), (0, 1)) == 3
    assert _oracle_max_length(b2, b2.simple_roots, (0, 1), (0, 1)) == 3
    # while {w : w(e2) = e1} = {swap, rotation} peaks at 2
    assert max_length_mapping(b2, b2.simple_roots, (1, 1), (0, 1)) == 2
    assert _oracle_max_length(b2, b2.simple_roots, (1, 1), (0, 1)) == 2


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "B3", "G2"])
def test_max_length_mapping_matches_oracle_everywhere(label):
    """Exhaustive equality of the fast route and the brute scan over all
    (mu, nu) root pairs for the full Weyl group."""
    rs = build_root_system(parse_type(label))
    for nu in rs.roots:
        for mu in rs.roots:
            fast = max_length_mapping(rs, rs.simple_roots, mu, nu)
            brute = _oracle_max_length(rs, rs.simple_roots, mu, nu)
            assert fast == brute


def test_orbit_stays_in_roots(b2):
    ctx = SubsystemContext(b2, [(1, 0), (1, 2)])
    for start in b2.roots:
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            i = b2.root_index[v]
            for gp in ctx.gen_perms:
                w = b2.roots[gp[i]]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen <= set(b2.roots)
