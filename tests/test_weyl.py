"""Weyl enumeration and coset length maxima, with exhaustive oracles."""

import functools
import itertools
import math
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagample import kernels, snow, weyl
from flagample.cycle import neutral_fiber, parabolic_data
from flagample.dynkin import parse_type
from flagample.errors import (
    DegenerateGeometryError,
    EnumerationCapError,
    InternalInconsistencyError,
    NotARootError,
    NotClosedError,
)
from flagample.pipeline import CaseSpec, run_case, sweep_cases
from flagample.realform import grade_roots, hermitian_data
from flagample.rootsystem import build_root_system, pair, reflect
from flagample.snow import (
    assemble_input,
    max_weyl_length_bruteforce,
    max_weyl_length_fast,
)
from flagample.weyl import (
    DEFAULT_CAP,
    SubsystemContext,
    _max_length_with_witness,
    coset_orbit,
    group_order_from_simples,
)
from reference import (
    Element,
    all_types_up_to_rank,
    canonical_word,
    compose,
    context,
    enumerate_weyl,
    identity,
    invert,
    is_dominant,
    length_of_perm,
    max_length_mapping,
    perm_of_word,
    simple_roots,
)
from test_snow import _exceptional_case


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
    els = enumerate_weyl(a2, simple_roots(a2))
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
    els = enumerate_weyl(b2, simple_roots(b2))
    assert len(els) == 8
    assert max(e.length for e in els) == 4


def test_enumeration_order_is_canonical(a2):
    els = enumerate_weyl(a2, simple_roots(a2))
    keys = [(e.length, e.word) for e in els]
    assert keys == sorted(keys)
    assert els[0].word == ()


@pytest.mark.parametrize("label,order", [("A2", 6), ("A3", 24), ("B3", 48), ("C3", 48), ("D4", 192), ("G2", 12)])
def test_orders_match_classical(label, order):
    rs = build_root_system(parse_type(label))
    els = enumerate_weyl(rs, simple_roots(rs))
    assert len(els) == order
    assert group_order_from_simples(rs, simple_roots(rs)) == order


@pytest.mark.parametrize("simples", [[(1, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)]])
def test_group_order_refuses_a_non_simple_system(simples):
    # a1 and a1 + a2 meet at 60 degrees; three roots of A2 are dependent
    rs = build_root_system(parse_type("A2"))
    with pytest.raises(NotClosedError):
        group_order_from_simples(rs, simples)


def test_inversion_count_equals_word_length():
    rs = build_root_system(parse_type("B3"))
    ctx = context(rs, simple_roots(rs))
    for el in enumerate_weyl(rs, simple_roots(rs)):
        assert length_of_perm(ctx, el.action) == len(el.word)


def test_element_equality_by_action(a2):
    els = enumerate_weyl(a2, simple_roots(a2))
    s1, s2 = els[1], els[2]
    assert s1.action != s2.action
    # s1*s2*s1 == s2*s1*s2 (the braid relation) as actions, and the
    # action of a word is the composition of its letters' actions
    a = compose(s1.action, compose(s2.action, s1.action))
    b = compose(s2.action, compose(s1.action, s2.action))
    ctx = context(a2, simple_roots(a2))
    assert perm_of_word(ctx, (0, 1, 0)) == a == b == perm_of_word(ctx, (1, 0, 1))
    # the two words name one element, whose canonical word is the least
    assert canonical_word(ctx, a) == (0, 1, 0)
    assert len({e.action for e in els}) == 6


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
        enumerate_weyl(a2, simple_roots(a2), cap=3)


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4"])
def test_enumeration_cap_boundary(label):
    rs = build_root_system(parse_type(label))
    order = group_order_from_simples(rs, simple_roots(rs))
    assert len(enumerate_weyl(rs, simple_roots(rs), cap=order)) == order
    with pytest.raises(EnumerationCapError):
        enumerate_weyl(rs, simple_roots(rs), cap=order - 1)
    # the same boundary in the kernel itself
    ctx = context(rs, simple_roots(rs))
    args = (ctx.gen_perms, ctx.simples, ctx.simples, ctx.sub_sign)
    _, lengths, _ = kernels.enumerate_group(*args, order)
    assert len(lengths) == order
    with pytest.raises(OverflowError):
        kernels.enumerate_group(*args, order - 1)


def test_kernel_refuses_more_than_256_positions(monkeypatch):
    """Root indices are bytes: a reflection of 257 positions is refused
    before any element, coset representative included, is built, and
    one of 256 positions is enumerated."""
    swap = (1, 0) + tuple(range(2, 256))
    args = ([0], [0], {0: 1, 1: -1}, DEFAULT_CAP)
    _, lengths, _ = kernels.enumerate_group([swap], *args)
    assert lengths == bytearray((0, 1))

    def no_element(*args):
        raise AssertionError("built an element of a refused group")

    monkeypatch.setattr(kernels, "_coset_representatives", no_element)
    with pytest.raises(OverflowError, match="256 positions"):
        kernels.enumerate_group([swap + (256,)], *args)


@pytest.mark.parametrize("label", ["A16", "B12", "C12", "D12"])
def test_no_type_beyond_256_roots_reaches_the_oracle(label):
    """The smallest type of each classical series with more than 256
    roots: every one- and two-node marking gives |W(K)| over the
    enumeration cap, so the oracle is refused from k_order before the
    kernel could meet the byte bound."""
    rs = build_root_system(parse_type(label))
    assert len(rs.roots) > 256
    nodes = range(1, rs.rank + 1)
    for marked in itertools.chain(
        itertools.combinations(nodes, 1), itertools.combinations(nodes, 2)
    ):
        g = grade_roots(rs, marked)
        h = hermitian_data(rs, g)
        assert h.k_order > DEFAULT_CAP, marked
    pd = parabolic_data(rs, g, ())
    inp = assemble_input(rs, h, pd, neutral_fiber(pd, g))
    with pytest.raises(EnumerationCapError, match=r"^\|W\(K\)\|="):
        max_weyl_length_bruteforce(inp)


@pytest.mark.parametrize(
    "label,marked", [("B3", (1,)), ("C4", (2,)), ("D4", (1, 3)), ("E6", (1,))]
)
def test_bruteforce_cap_boundary(label, marked, monkeypatch):
    rs = build_root_system(parse_type(label))
    g = grade_roots(rs, marked)
    h = hermitian_data(rs, g)
    pd = parabolic_data(rs, g, ())
    inp = assemble_input(rs, h, pd, neutral_fiber(pd, g))
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
    actions, words = [identity(ctx)], [()]
    seen = {identity(ctx)}
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
    words and actions; the kernel gives the reference's words, each once,
    and for each element, keyed by that word, its length and its carried
    images: the inverse action at the simple roots of K and at the
    tracked roots, read from the columns and from the factors."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        h = hermitian_data(rs, grade_roots(rs, marked))
        ctx = SubsystemContext.from_simples(rs, h.k_context.simples)
        words, actions = _enumerate_by_actions(ctx)
        els = enumerate_weyl(rs, [rs.roots[g] for g in ctx.simples])
        assert [e.word for e in els] == words, marked
        assert [e.action for e in els] == actions, marked
        reference = dict(zip(words, actions))
        assert len(reference) == len(actions)

        positions = ctx.simples + h.lambda_max_s
        images, lengths, factors = kernels.enumerate_group(
            ctx.gen_perms, ctx.simples, positions, ctx.sub_sign, len(actions)
        )
        assert len(lengths) == len(actions), marked
        assert all(len(col) == len(actions) for col in images), marked
        kernel_words = [kernels.word_of(factors, i) for i in range(len(lengths))]
        assert sorted(kernel_words) == sorted(words), marked
        for i, (word, row) in enumerate(zip(kernel_words, zip(*images))):
            action = reference[word]
            # row holds w^{-1}(p), so w(row) gives the positions back
            assert tuple(action[v] for v in row) == positions, (marked, word)
            assert kernels.inverse_images(factors, i, positions) == row
            assert lengths[i] == len(word)


# E7 is left out: its K of type E6 x T is labelled C6, so its k_order is
# wrong (a known open bug, pinned by strict xfails in test_realform)
@pytest.mark.parametrize("dt", all_types_up_to_rank(6), ids=str)
def test_kernel_count_is_the_product_of_the_levels(dt):
    """|W(K)| from K's classification = the number of elements the
    kernel builds = the product of its representative counts, for K of
    every marking."""
    rs = build_root_system(dt)
    for marked in _all_markings(dt.rank):
        h = hermitian_data(rs, grade_roots(rs, marked))
        ctx = h.k_context
        _, lengths, factors = kernels.enumerate_group(
            ctx.gen_perms, ctx.simples, (), ctx.sub_sign, DEFAULT_CAP
        )
        assert len(lengths) == math.prod(map(len, factors)) == h.k_order, marked


@pytest.mark.parametrize("marked", [(1,), (2,), (1, 6), (3,)])
def test_kernel_words_are_canonical_e6(marked):
    """Tracking every root gives each element's whole action; its
    canonical word, by greedy least left descent, is the kernel's word."""
    rs = build_root_system(parse_type("E6"))
    h = hermitian_data(rs, grade_roots(rs, marked))
    ctx = SubsystemContext.from_simples(rs, h.k_context.simples)
    images, lengths, factors = kernels.enumerate_group(
        ctx.gen_perms, ctx.simples, identity(ctx), ctx.sub_sign, h.k_order
    )
    assert len(lengths) == h.k_order
    for i, row in enumerate(zip(*images)):
        word = kernels.word_of(factors, i)
        assert canonical_word(ctx, invert(row)) == word
        assert lengths[i] == len(word)


def _all_reduced_words(ctx, perm):
    """Every reduced word of an element, by recursion on left descents."""
    if perm == identity(ctx):
        return {()}
    inv = invert(perm)
    out = set()
    for i, gi in enumerate(ctx.simples):
        if ctx.sub_sign[inv[gi]] < 0:
            rest = _all_reduced_words(ctx, compose(ctx.gen_perms[i], perm))
            out |= {(i,) + r for r in rest}
    return out


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_words_are_lex_least_reduced(label):
    rs = build_root_system(parse_type(label))
    ctx = context(rs, simple_roots(rs))
    for el in enumerate_weyl(rs, simple_roots(rs)):
        words = _all_reduced_words(ctx, el.action)
        assert el.word == min(words)
        assert all(len(w) == el.length for w in words)
        assert canonical_word(ctx, el.action) == el.word


def _oracle_max_length(rs, simples, mu, nu):
    """Scan of the whole group; independent of the orbit-BFS route."""
    best = None
    for el in enumerate_weyl(rs, simples):
        img = rs.roots[el.action[rs.root_index[nu]]] if nu in rs.root_index else None
        if img == mu and (best is None or el.length > best):
            best = el.length
    return best


def test_max_length_mapping_a1_flip(a2):
    # only the reflection itself maps -gamma to gamma in an A1 subsystem
    assert max_length_mapping(a2, [(1, 0)], (1, 0), (-1, 0)) == 1


def test_max_length_mapping_orthogonal_pair(b2):
    simples = [(1, 0), (1, 2)]
    assert max_length_mapping(b2, simples, (1, 1), (0, 1)) == 1
    assert _oracle_max_length(b2, simples, (1, 1), (0, 1)) == 1


def test_max_length_mapping_trivial_stabilizer(a2):
    # roots of A2 have trivial stabilizer in W(A2); the highest root is
    # the dominant one
    assert max_length_mapping(a2, simple_roots(a2), (1, 1), (1, 1)) == 0


def test_max_length_mapping_not_in_orbit(a2):
    assert max_length_mapping(a2, [(0, 1)], (0, 1), (1, 0)) is None


def test_max_length_mapping_mu_not_a_root(a2):
    # a non-root lies in no root orbit
    assert max_length_mapping(a2, simple_roots(a2), (2, 0), (1, 0)) is None
    assert max_length_mapping(a2, [], (2, 0), (1, 0)) is None


def test_max_length_mapping_nu_not_a_root(a2):
    with pytest.raises(NotARootError):
        max_length_mapping(a2, simple_roots(a2), (1, 0), (2, 0))
    with pytest.raises(NotARootError):
        max_length_mapping(a2, [], (0, 0), (0, 0))


def test_max_length_mapping_trivial_group(a2):
    # with no simples the group is {e}: only nu = mu is matched, at length 0
    for mu in a2.roots:
        assert max_length_mapping(a2, [], mu, mu) == 0
        for nu in a2.roots:
            if nu != mu:
                assert max_length_mapping(a2, [], mu, nu) is None


def test_max_length_mapping_nontrivial_stabilizer(b2):
    # the stabilizer of the dominant short root a1 + a2 = e1 in W(B2) is
    # {e, s_{e2}}, and s_{e2} = s_{a2}: the coset {w : w(e1) = e1} peaks
    # at 1
    assert max_length_mapping(b2, simple_roots(b2), (1, 1), (1, 1)) == 1
    assert _oracle_max_length(b2, simple_roots(b2), (1, 1), (1, 1)) == 1
    # while {w : w(e2) = e1} = {swap, rotation} peaks at 2
    assert max_length_mapping(b2, simple_roots(b2), (1, 1), (0, 1)) == 2
    assert _oracle_max_length(b2, simple_roots(b2), (1, 1), (0, 1)) == 2


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "B3", "G2"])
def test_max_length_mapping_matches_oracle_everywhere(label):
    """Over all (mu, nu) root pairs for the full Weyl group: the fast
    route equals the brute scan for every dominant mu, and refuses every
    other mu whose orbit holds nu."""
    rs = build_root_system(parse_type(label))
    ctx = context(rs, simple_roots(rs))
    for nu in rs.roots:
        for mu in rs.roots:
            brute = _oracle_max_length(rs, simple_roots(rs), mu, nu)
            if brute is None or is_dominant(ctx, rs.root_index[mu]):
                assert max_length_mapping(rs, simple_roots(rs), mu, nu) == brute
            else:
                with pytest.raises(InternalInconsistencyError):
                    max_length_mapping(rs, simple_roots(rs), mu, nu)


def test_orbit_stays_in_roots(b2):
    ctx = context(b2, [(1, 0), (1, 2)])
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


def _k_context(rs, marked):
    return hermitian_data(rs, grade_roots(rs, marked)).k_context


def _check_coset_maxima_by_enumeration(ctx, nus):
    """Group the elements of the group by (nu, w(nu)), for each root
    index nu of nus: each group has exactly one element of maximal
    length (Dyer), whatever mu = w(nu) is, and coset_orbit's keys are
    nu's orbit.  For a dominant mu that element is the witness; any
    other mu is refused."""
    rs = ctx.rs
    elements = enumerate_weyl(rs, [rs.roots[g] for g in ctx.simples])
    orbits = {}
    for nu in nus:
        groups = {}
        for el in elements:
            groups.setdefault(el.action[nu], []).append(el)
        for mu, group in groups.items():
            if mu not in orbits:
                orbits[mu] = coset_orbit(ctx, mu)
            assert orbits[mu].keys() == groups.keys(), (mu, nu)
            top = max(el.length for el in group)
            (longest,) = [el for el in group if el.length == top]
            if not is_dominant(ctx, mu):
                with pytest.raises(InternalInconsistencyError):
                    _max_length_with_witness(ctx, mu, nu, orbits[mu])
                continue
            length, word = _max_length_with_witness(ctx, mu, nu, orbits[mu])
            assert (length, word, perm_of_word(ctx, word)) == (
                top,
                longest.word,
                longest.action,
            ), (mu, nu)


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_coset_maximum_is_unique_and_is_the_witness(dt):
    """For K of every marking, and for the whole Weyl group: every coset
    {w : w(nu) = mu} has a unique longest element (Dyer), and the coset
    search returns it."""
    rs = build_root_system(dt)
    contexts = [_k_context(rs, marked) for marked in _all_markings(dt.rank)]
    contexts.append(context(rs, simple_roots(rs)))
    for ctx in contexts:
        _check_coset_maxima_by_enumeration(ctx, range(len(rs.roots)))
        # a root outside nu's orbit gives None
        orbit = coset_orbit(ctx, 0)
        for nu in range(len(rs.roots)):
            if nu not in orbit:
                assert _max_length_with_witness(ctx, 0, nu, orbit) is None


def _reference_w0_word(ctx):
    """The coordinate walk for w0: the sum of K's positive roots, in
    ambient coordinates, reflected in the first simple root it pairs
    positively with until there is none."""
    rs = ctx.rs
    v = tuple(
        sum(rs.roots[i][j] for i, s in ctx.sub_sign.items() if s > 0)
        for j in range(rs.rank)
    )
    simples = [rs.roots[g] for g in ctx.simples]
    steps = []
    while True:
        i = next((k for k, g in enumerate(simples) if pair(rs, v, g) > 0), None)
        if i is None:
            return tuple(reversed(steps))
        v = reflect(rs, v, simples[i])
        steps.append(i)


def _check_w0_word(ctx):
    """w0_word is the reference walk's word, has length |Phi_K^+|, and
    its action is an involution sending every K-positive root to a
    K-negative one."""
    word = ctx.w0_word
    assert word == _reference_w0_word(ctx)
    assert len(word) == ctx.pos_count
    p = perm_of_word(ctx, word)
    for v, s in ctx.sub_sign.items():
        assert ctx.sub_sign[p[v]] == -s
    assert compose(p, p) == identity(ctx)


@pytest.mark.parametrize(
    "dt", list(all_types_up_to_rank(4)) + [parse_type("E6")], ids=str
)
def test_w0_word_matches_coordinate_walk(dt):
    """For K of every marking, and for the whole Weyl group."""
    rs = build_root_system(dt)
    contexts = [_k_context(rs, marked) for marked in _all_markings(dt.rank)]
    contexts.append(context(rs, simple_roots(rs)))
    for ctx in contexts:
        _check_w0_word(ctx)


@functools.cache
def _cached_root_system(label):
    return build_root_system(parse_type(label))


@functools.cache
def _cached_k_context(label, marked):
    return _k_context(_cached_root_system(label), marked)


@st.composite
def _marked_root(draw, labels):
    label = draw(st.sampled_from(labels))
    rank = int(label[1:])
    marked = tuple(sorted(draw(st.sets(st.integers(1, rank), min_size=1))))
    rs = _cached_root_system(label)
    return label, marked, draw(st.sampled_from(rs.roots))


@given(_marked_root(["E6"]))
@settings(max_examples=30, deadline=None)
def test_coset_maximum_is_unique_e6(case):
    label, marked, nu = case
    ctx = _cached_k_context(label, marked)
    _check_coset_maxima_by_enumeration(ctx, [ctx.rs.root_index[nu]])


def _reference_max_length_with_witness(ctx, mu, nu):
    """The coset maximum and its witness by a search of nu's orbit (root
    indices): BFS from nu until it has the whole orbit, then the tree
    path back from w0(mu), with w0 in front."""
    tree = {nu: (0, -1, -1)}
    frontier = [nu]
    while frontier:
        nxt = []
        for v in frontier:
            for i, gp in enumerate(ctx.gen_perms):
                w = gp[v]
                if w not in tree:
                    tree[w] = (tree[v][0] + 1, v, i)
                    nxt.append(w)
        frontier = nxt
    target = ctx.apply_word(ctx.w0_word, mu)
    if target not in tree:
        return None
    path = []
    v = target
    while tree[v][1] >= 0:
        path.append(tree[v][2])
        v = tree[v][1]
    p = perm_of_word(ctx, ctx.w0_word + tuple(path))
    return ctx.pos_count - tree[target][0], Element(canonical_word(ctx, p), p)


@given(_marked_root(["E6", "E7", "E8"]), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_witness_matches_search_from_nu(case, in_orbit, data):
    """On E6, E7 and E8, for a dominant mu, the witness spelled from nu's
    walk is the one the BFS from nu builds, and a mu outside nu's orbit
    gives None on both routes."""
    label, marked, nu = case
    ctx = _cached_k_context(label, marked)
    rs = ctx.rs
    nu = rs.root_index[nu]
    if in_orbit:
        # nu's orbit is w0(mu)'s orbit for every mu in it, and holds one
        # dominant root
        (mu,) = filter(functools.partial(is_dominant, ctx), coset_orbit(ctx, nu))
    else:
        dominant = [v for v in range(len(rs.roots)) if is_dominant(ctx, v)]
        mu = data.draw(st.sampled_from(dominant))
    res = _max_length_with_witness(ctx, mu, nu, coset_orbit(ctx, mu))
    ref = _reference_max_length_with_witness(ctx, mu, nu)
    if ref is None:
        assert res is None
    else:
        assert (res[0], res[1], perm_of_word(ctx, res[1])) == (
            ref[0],
            ref[1].word,
            ref[1].action,
        )


@given(_marked_root(["E7", "E8"]))
@settings(max_examples=40, deadline=None)
def test_w0_word_matches_coordinate_walk_e7_e8(case):
    label, marked, _ = case
    # a fresh context, so that the word is walked here and not cached
    ctx = _cached_k_context(label, marked)
    _check_w0_word(SubsystemContext.from_simples(ctx.rs, ctx.simples))


def _case_inputs(rs, cases):
    """The search input of each (marking, levi) of cases whose geometry is
    not degenerate, with K's data built once per marking."""
    for marking in sorted({m for m, _ in cases}):
        g = grade_roots(rs, set(marking))
        h = hermitian_data(rs, g)
        for levi in (l for m, l in cases if m == marking):
            try:
                pd = parabolic_data(rs, g, set(levi))
                fiber = neutral_fiber(pd, g)
            except DegenerateGeometryError:
                continue
            yield assemble_input(rs, h, pd, fiber)


def _cut_at_first_hit(orbit, stop):
    """The BFS orbit with every level after the first that holds a root
    of stop removed; the whole orbit when no level does."""
    hits = [dist for v, dist in orbit.items() if v in stop]
    if not hits:
        return list(orbit.items())
    return [(v, dist) for v, dist in orbit.items() if dist <= min(hits)]


@pytest.mark.parametrize(
    "dt", list(all_types_up_to_rank(4)) + [parse_type("E6")], ids=str
)
def test_search_stopped_at_the_fiber_keeps_the_answer(dt, monkeypatch):
    """Every case of the type: the orbit stopped at the fiber is the whole
    orbit cut after its first level that meets the fiber, in the same
    order, and the fast route gives the same length, witness and pair
    from the stopped searches as from whole orbits."""
    inputs = list(_case_inputs(build_root_system(dt), sweep_cases(dt)))
    cut = 0
    for inp in inputs:
        ctx, fiber = inp.hermitian.k_context, frozenset(inp.fiber)
        for mu in inp.max_weights:
            whole = coset_orbit(ctx, mu)
            stopped = coset_orbit(ctx, mu, fiber)
            assert list(stopped.items()) == _cut_at_first_hit(whole, fiber)
            cut += len(stopped) < len(whole)
    # A1's K is a torus, whose orbits are single points
    assert cut > 0 or dt.rank == 1
    stopped = [max_weyl_length_fast(inp) for inp in inputs]
    monkeypatch.setattr(
        snow, "coset_orbit", lambda ctx, mu, stop=frozenset(): coset_orbit(ctx, mu)
    )
    assert [max_weyl_length_fast(inp) for inp in inputs] == stopped


def _check_closed_form_coset_maxima(ctx, mus, nus):
    """For every mu of mus and every nu of nus in the BFS orbit of w0(mu):
    dist(nu, w0(mu)) is the number of positive roots alpha of K with
    (nu, alpha) > 0, so the coset maximum pos_count - dist is the number
    with (nu, alpha) <= 0.  Each mu is a highest weight of a K-module, so
    w0(mu) is the antidominant weight of the orbit, and the shortest u
    with u(nu) = w0(mu) is nu's minimal coset representative (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.10; Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, 2.4).  The sign is an index
    comparison: s_alpha(nu) = nu - <nu, alpha^vee> alpha sorts below nu
    iff (nu, alpha) > 0, the roots being sorted by their coordinates and
    alpha positive.  Returns the number of pairs checked."""
    rs = ctx.rs
    rows = [rs.reflection_row(a) for a, s in ctx.sub_sign.items() if s > 0]
    checked = 0
    for mu in mus:
        orbit = coset_orbit(ctx, mu)
        for nu in nus:
            if nu in orbit:
                count = sum(1 for row in rows if row[nu] < nu)
                assert orbit[nu] == count, (rs.dynkin, mu, nu)
                checked += 1
    return checked


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_coset_maximum_closed_form_every_case(dt):
    """Every pair the fast route's BFS finds, in every (marking, levi)."""
    rs = build_root_system(dt)
    checked = sum(
        _check_closed_form_coset_maxima(
            inp.hermitian.k_context, inp.max_weights, inp.fiber
        )
        for inp in _case_inputs(rs, sweep_cases(dt))
    )
    assert checked > 0


def test_coset_maximum_closed_form_e6():
    """Every marking of E6, for every highest weight of the noncompact
    module and every root in its orbit: the fiber weights and maximal
    weights of any Levi set are among these."""
    rs = build_root_system(parse_type("E6"))
    for marking in _all_markings(6):
        h = hermitian_data(rs, grade_roots(rs, marking))
        nus = range(len(rs.roots))
        assert _check_closed_form_coset_maxima(h.k_context, h.lambda_max_s, nus)


@given(_exceptional_case(["E7", "E8"]))
@settings(max_examples=30, deadline=None)
def test_coset_maximum_closed_form_e7_e8(case):
    label, marking, levi = case
    for inp in _case_inputs(_cached_root_system(label), [(marking, levi)]):
        _check_closed_form_coset_maxima(
            inp.hermitian.k_context, inp.max_weights, inp.fiber
        )


def _check_witnesses_against_reference(inp):
    """For every pair (mu maximal, nu fiber weight), the witness read off
    w(rho) has the length, word and action of the permutation reference;
    a nu outside w0(mu)'s orbit gives None on both routes."""
    ctx = inp.hermitian.k_context
    for mu in inp.max_weights:
        orbit = coset_orbit(ctx, mu)
        for nu in inp.fiber:
            res = _max_length_with_witness(ctx, mu, nu, orbit)
            ref = _reference_max_length_with_witness(ctx, mu, nu)
            if ref is None:
                assert res is None
                continue
            assert (res[0], res[1], perm_of_word(ctx, res[1])) == (
                ref[0],
                ref[1].word,
                ref[1].action,
            ), (ctx.rs.dynkin, mu, nu)


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_witness_matches_permutation_reference_every_case(dt):
    rs = build_root_system(dt)
    for inp in _case_inputs(rs, sweep_cases(dt)):
        _check_witnesses_against_reference(inp)


@pytest.mark.parametrize(
    "label,marking,levi", [("E7", (7,), ()), ("E8", (1,), ()), ("A14", (1, 8), (2, 3))]
)
def test_fast_route_composes_no_permutation(label, marking, levi):
    """The library builds no root permutation: a Weyl element is its
    canonical word, and the w0 walk and every witness run in K's weight
    coordinates.  The fast route's report is the same on a second run."""
    for name in ("compose", "invert", "perm_of_word"):
        assert not hasattr(weyl, name), name
    assert not hasattr(SubsystemContext, "perm_of_word")
    spec = CaseSpec(parse_type(label), marking, levi)
    got = run_case(spec)
    assert got.routes == ("fast",)
    assert got == run_case(spec)
