import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagample import rootsystem, snow, weyl
from flagample.cycle import neutral_fiber, parabolic_data
from flagample.dynkin import all_types_up_to_rank, parse_type
from flagample.errors import DegenerateGeometryError
from flagample.kernels import word_of
from flagample.pipeline import CaseSpec, run_case, sweep_cases
from flagample.realform import grade_roots, hermitian_data, highest_weights
from flagample.rootsystem import build_root_system
from flagample.snow import (
    ampleness,
    assemble_input,
    closed_form_maximal_weights,
    max_weyl_length_bruteforce,
    max_weyl_length_fast,
)
from flagample.weyl import SubsystemContext
from reference import enumerate_weyl, invert, list_scan, perm_of_word
from test_realform import compact_positive_roots, roots_of


def _k_pos(rs, g):
    """K's positive roots, by index."""
    return tuple(rs.root_index[v] for v in compact_positive_roots(rs, g))


def _maximal_over_k_pos(rs, g, fiber):
    """The fiber weights to which no positive root of K can be added
    inside the fiber."""
    return highest_weights(rs, frozenset(fiber), _k_pos(rs, g))


def _setup(label, marked, levi):
    rs = build_root_system(parse_type(label))
    g = grade_roots(rs, set(marked))
    h = hermitian_data(rs, g)
    pd = parabolic_data(rs, g, set(levi))
    fiber = neutral_fiber(pd, g)
    return rs, g, h, pd, fiber, assemble_input(rs, h, pd, fiber)


def test_maximal_weights_a2_ball():
    rs, g, h, pd, fiber, inp = _setup("A2", {1}, {2})
    assert roots_of(rs, _maximal_over_k_pos(rs, g, fiber)) == ((1, 1),)


def test_maximal_weights_singleton_fiber():
    rs, g, h, pd, fiber, inp = _setup("A2", {1}, {1})
    assert roots_of(rs, fiber) == ((1, 1),)
    assert roots_of(rs, _maximal_over_k_pos(rs, g, fiber)) == ((1, 1),)


def test_maximal_weights_b2_quadric():
    rs, g, h, pd, fiber, inp = _setup("B2", {2}, {1})
    assert set(roots_of(rs, fiber)) == {(0, 1), (1, 1)}
    assert roots_of(rs, _maximal_over_k_pos(rs, g, fiber)) == ((1, 1),)


def test_bruteforce_a2_ball():
    rs, *_, inp = _setup("A2", {1}, {2})
    length, witness, (mu, nu) = max_weyl_length_bruteforce(inp)
    assert length == 1
    assert witness == (0,)
    assert rs.roots[mu] == (1, 1) and rs.roots[nu] == (1, 0)


def test_bruteforce_a2_line():
    rs, *_, inp = _setup("A2", {1}, {1})
    length, witness, (mu, nu) = max_weyl_length_bruteforce(inp)
    assert length == 0
    assert witness == ()
    assert rs.roots[mu] == (1, 1) and rs.roots[nu] == (1, 1)


def test_bruteforce_b2_quadric():
    rs, *_, inp = _setup("B2", {2}, {1})
    length, witness, _ = max_weyl_length_bruteforce(inp)
    assert length == 1
    # witness is the reflection in a1 = the first sorted k-simple
    assert roots_of(rs, inp.hermitian.k_context.simples) == ((1, 0), (1, 2))
    assert witness == (0,)


@pytest.mark.parametrize(
    "label,marked,levi",
    [
        ("A2", {1}, {2}),
        ("A2", {1}, {1}),
        ("A2", {1}, set()),
        ("B2", {2}, {1}),
        ("B2", {1}, {2}),
        ("G2", {1}, {1}),
        ("B3", {2}, {1, 3}),
    ],
)
def test_fast_equals_bruteforce(label, marked, levi):
    *_, inp = _setup(label, marked, levi)
    bl, bw, bp = max_weyl_length_bruteforce(inp)
    fl, fw, fp = max_weyl_length_fast(inp)
    assert type(bw) is type(fw) is tuple
    assert (bl, bw, bp) == (fl, fw, fp)


def test_ampleness_worked_cases():
    *_, inp = _setup("A2", {1}, {2})
    res = ampleness(inp, verify=True)
    assert res.max_length == 1 and res.ampleness == 0

    *_, inp = _setup("A2", {1}, {1})
    res = ampleness(inp, verify=True)
    assert res.max_length == 0 and res.ampleness == 0

    *_, inp = _setup("A2", {1}, set())
    res = ampleness(inp, verify=True)
    assert res.max_length == 1 and res.ampleness == 1

    *_, inp = _setup("B2", {2}, {1})
    res = ampleness(inp, verify=True)
    assert res.max_length == 1 and res.ampleness == 0


def test_ampleness_methods_agree():
    *_, inp = _setup("B2", {2}, {1})
    for method in ("auto", "bruteforce", "fast"):
        res = ampleness(inp, method=method, verify=True)
        assert res.ampleness == 0


def test_routes_that_ran():
    *_, inp = _setup("B2", {2}, {1})
    assert inp.hermitian.k_order == 4
    for method, verify, cap, routes in [
        ("auto", False, 10, ("fast",)),
        ("auto", True, 10, ("fast", "bruteforce")),
        ("auto", True, 4, ("fast", "bruteforce")),  # |W(K)| at the cap
        ("auto", True, 3, ("fast",)),  # |W(K)| over the cap: oracle skipped
        ("fast", True, 10, ("fast", "bruteforce")),
        ("bruteforce", False, 10, ("bruteforce",)),
        ("bruteforce", True, 10, ("bruteforce", "fast")),
    ]:
        res = ampleness(inp, method=method, verify=verify, cap=cap)
        assert res.routes == routes, (method, verify, cap)


@pytest.mark.parametrize(
    "label,marked,levi", [("E8", (1,), ()), ("A14", (1, 8), (2, 3))]
)
def test_run_case_builds_one_k_context(monkeypatch, label, marked, levi):
    """hermitian_data builds K's context; assembly and both routes reuse
    it, and no other pass over K's positive roots runs."""
    built, passes = [], []
    init = SubsystemContext.__init__
    closed_subsystem = weyl.closed_subsystem

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_pass(*args):
        passes.append(args)
        return closed_subsystem(*args)

    monkeypatch.setattr(SubsystemContext, "__init__", counting_init)
    for mod in (rootsystem, weyl):
        monkeypatch.setattr(mod, "closed_subsystem", counting_pass)
    run_case(CaseSpec(parse_type(label), marked, levi, verify=True, max_weyl=1))
    assert len(built) == len(passes) == 1


@pytest.mark.parametrize(
    "label,marked,levi", [("E8", (1,), ()), ("A14", (1, 8), (2, 3))]
)
def test_fast_route_runs_one_orbit_search_per_maximal_weight(
    monkeypatch, label, marked, levi
):
    """The coset search reads every pair's length and every witness off
    one BFS per maximal weight, stopped at the fiber."""
    searched = []
    orbit = weyl.coset_orbit

    def counting_orbit(ctx, mu, stop=frozenset()):
        searched.append(ctx.rs.roots[mu])
        return orbit(ctx, mu, stop)

    for mod in (snow, weyl):
        monkeypatch.setattr(mod, "coset_orbit", counting_orbit)
    report = run_case(CaseSpec(parse_type(label), marked, levi))
    assert report.routes == ("fast",)
    assert tuple(searched) == report.max_weights


def test_witness_invariant():
    rs, g, h, pd, fiber, inp = _setup("A2", {1}, set())
    res = ampleness(inp)
    mu, nu = res.witness_pair
    assert mu in inp.max_weights
    assert nu in fiber
    assert type(res.witness) is tuple
    assert all(type(i) is int for i in res.witness)
    assert len(res.witness) == res.max_length
    # the witness really maps nu to mu
    assert perm_of_word(inp.hermitian.k_context, res.witness)[nu] == mu


def test_identity_always_qualifies():
    *_, inp = _setup("G2", {2}, {2})
    length, _, _ = max_weyl_length_bruteforce(inp)
    assert length >= 0


def test_closed_form_drops_a_swallowed_half():
    # A2 marked {1,2}, levi {1}: s_plus = {a1, -a2} lies inside q, as
    # it misses the tangent weights, so only the other half's highest
    # weight survives
    rs, g, h, pd, fiber, inp = _setup("A2", {1, 2}, {1})
    assert set(roots_of(rs, h.s_plus)) == {(1, 0), (0, -1)}
    assert set(pd.tangent_weights).isdisjoint(h.s_plus)
    assert roots_of(rs, closed_form_maximal_weights(h, pd)) == ((0, 1),)
    assert roots_of(rs, _maximal_over_k_pos(rs, g, fiber)) == ((0, 1),)
    assert roots_of(rs, inp.max_weights) == ((0, 1),)
    ampleness(inp, verify=True)


def test_closed_form_keeps_both_halves():
    rs, g, h, pd, fiber, inp = _setup("A2", {1, 2}, set())
    assert roots_of(rs, closed_form_maximal_weights(h, pd)) == ((0, 1), (1, 0))
    assert roots_of(rs, inp.max_weights) == ((0, 1), (1, 0))
    ampleness(inp, verify=True)


def test_rank_four_sweep_routes_and_verdicts():
    """Completes the rank <= 4 coverage beyond the acceptance set (which
    adds D4 and F4): both search routes agree, the ampleness stays in
    range, and the product verdict is equivalent to the containment test
    on every A4, B4, C4 case."""
    from flagample.classify import KIND_PRODUCT, classify
    from flagample.pipeline import CaseSpec, run_case, sweep_cases

    for label in ("A4", "B4", "C4"):
        rs = build_root_system(parse_type(label))
        dt = rs.dynkin
        for marking, levi in sweep_cases(dt):
            g = grade_roots(rs, set(marking))
            h = hermitian_data(rs, g)
            pd = parabolic_data(rs, g, set(levi))
            fiber = neutral_fiber(pd, g)
            inp = assemble_input(rs, h, pd, fiber)
            res = ampleness(inp, verify=True)  # fast vs brute force
            assert 0 <= res.ampleness <= pd.dim_c
            cls = classify(res, pd, h)  # raises on a disagreement
            contained = cls.notes == "q cap s contained in s_minus"
            assert (cls.kind == KIND_PRODUCT) == contained, (label, marking, levi)
            if cls.kind == KIND_PRODUCT:
                assert h.center_dim == 1, (label, marking, levi)


def test_pullback_correction_route():
    """Applying the Levi correction as a subtraction agrees with running
    the search on the pulled-back bundle over the full flag manifold of K
    (same fiber, correction zero, cycle enlarged by the correction)."""
    import dataclasses

    rs, g, h, pd, fiber, inp = _setup("B2", {2}, {1})
    res = ampleness(inp, verify=True)

    pulled_pd = dataclasses.replace(
        pd, levi_correction=0, dim_c=pd.dim_c + pd.levi_correction
    )
    pulled = dataclasses.replace(inp, parabolic=pulled_pd)
    pulled_res = ampleness(pulled, verify=True)
    assert pulled_res.ampleness == res.ampleness + pd.levi_correction
    assert pulled_res.max_length == res.max_length


def _check_highest_weights_on_k_simples(rs, marking, levis):
    """hermitian_data's lambda_max_s and assemble_input's maximal
    weights, which try only K's simple roots, agree with the definition
    over all of K's positive roots."""
    g = grade_roots(rs, set(marking))
    h = hermitian_data(rs, g)
    k_pos = compact_positive_roots(rs, g)
    noncompact = set(roots_of(rs, g.noncompact_roots))
    reference = tuple(
        sorted(
            a
            for a in noncompact
            if not any(
                tuple(x + y for x, y in zip(a, gamma)) in noncompact
                for gamma in k_pos
            )
        )
    )
    assert roots_of(rs, h.lambda_max_s) == reference, (rs.dynkin, marking)
    for levi in levis:
        try:
            pd = parabolic_data(rs, g, set(levi))
            fiber = neutral_fiber(pd, g)
        except DegenerateGeometryError:
            continue
        inp = assemble_input(rs, h, pd, fiber)
        assert inp.max_weights == _maximal_over_k_pos(rs, g, fiber), (
            rs.dynkin,
            marking,
            levi,
        )


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_highest_weights_on_k_simples_every_case(dt):
    rs = build_root_system(dt)
    cases = sweep_cases(dt)
    for marking in sorted({m for m, _ in cases}):
        _check_highest_weights_on_k_simples(
            rs, marking, [l for m, l in cases if m == marking]
        )


def test_highest_weights_on_k_simples_e6():
    """Every marking of E6, with the full flag and with the Levi set of
    all unmarked nodes (the smallest fiber that keeps the marked
    simples)."""
    rs = build_root_system(parse_type("E6"))
    for marking in sorted({m for m, _ in sweep_cases(rs.dynkin)}):
        complement = tuple(i for i in range(1, 7) if i not in marking)
        _check_highest_weights_on_k_simples(rs, marking, [(), complement])


@functools.cache
def _root_system(label):
    return build_root_system(parse_type(label))


@st.composite
def _exceptional_case(draw, labels):
    label = draw(st.sampled_from(labels))
    nodes = st.integers(1, int(label[1]))
    marking = draw(st.sets(nodes, min_size=1))
    levi = draw(st.sets(nodes))
    return label, tuple(sorted(marking)), tuple(sorted(levi))


@given(_exceptional_case(["E7", "E8"]))
@settings(max_examples=40, deadline=None)
def test_highest_weights_on_k_simples_e7_e8(case):
    label, marking, levi = case
    _check_highest_weights_on_k_simples(_root_system(label), marking, [levi])


def _reference_witness_pair(ctx, word, lam, fiber_set):
    """The pair as it was once re-derived from the winner's action: the
    first mu in sorted order with w(nu) = mu for a fiber weight nu."""
    inv = invert(perm_of_word(ctx, word))
    for mu in lam:
        nu = inv[mu]
        if nu in fiber_set:
            return mu, nu
    raise AssertionError("witness element matches no weight pair")


def _check_route_pairs(inp, oracle_cap=None):
    """Each route's own (mu, nu) is the reference pair of its witness;
    the brute-force route runs when |W(K)| is at most oracle_cap."""
    routes = [max_weyl_length_fast]
    if oracle_cap is None or inp.hermitian.k_order <= oracle_cap:
        routes.append(max_weyl_length_bruteforce)
    fiber_set = frozenset(inp.fiber)
    for route in routes:
        _, witness, pair_ = route(inp)
        want = _reference_witness_pair(
            inp.hermitian.k_context, witness, inp.max_weights, fiber_set
        )
        assert pair_ == want, (route.__name__, inp.hermitian.k_context.rs.dynkin, pair_, want)


def _check_route_pairs_of_marking(rs, marking, levis, oracle_cap=None):
    g = grade_roots(rs, set(marking))
    h = hermitian_data(rs, g)
    for levi in levis:
        try:
            pd = parabolic_data(rs, g, set(levi))
            fiber = neutral_fiber(pd, g)
        except DegenerateGeometryError:
            continue
        _check_route_pairs(assemble_input(rs, h, pd, fiber), oracle_cap)


def test_route_pairs_when_the_witness_maps_onto_both_maximal_weights():
    """A3 {1,3}, full flag: the witness s1 maps a fiber weight onto each
    of the two maximal weights, so each of them is a tied pair with the
    witness's word, and both routes must report the first."""
    rs, g, h, pd, fiber, inp = _setup("A3", {1, 3}, set())
    assert roots_of(rs, inp.max_weights) == ((0, 1, 1), (1, 1, 0))
    for route in (max_weyl_length_fast, max_weyl_length_bruteforce):
        _, witness, pair_ = route(inp)
        assert witness == (0,)
        action = perm_of_word(h.k_context, witness)
        images = {action[nu] for nu in fiber}
        assert set(inp.max_weights) <= images
        assert roots_of(rs, pair_) == ((0, 1, 1), (0, 0, 1))


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_route_pairs_every_case(dt):
    rs = build_root_system(dt)
    cases = sweep_cases(dt)
    for marking in sorted({m for m, _ in cases}):
        _check_route_pairs_of_marking(
            rs, marking, [l for m, l in cases if m == marking]
        )


@given(_exceptional_case(["E6"]))
@settings(max_examples=40, deadline=None)
def test_route_pairs_e6(case):
    label, marking, levi = case
    _check_route_pairs_of_marking(_root_system(label), marking, [levi])


@given(_exceptional_case(["E7", "E8"]))
@settings(max_examples=30, deadline=None)
def test_route_pairs_e7_e8(case):
    """The oracle runs only where |W(K)| is at most that of E7 {7}'s K."""
    label, marking, levi = case
    _check_route_pairs_of_marking(
        _root_system(label), marking, [levi], oracle_cap=51_840
    )


def _reference_scan(inp):
    """The oracle's answer by a scan of enumerate_weyl's elements, which
    come in (length, word) order: the first element of the greatest
    length in the searched set, the number of elements tied with it, and
    its pair (the first mu whose w^{-1}(mu) is a fiber weight)."""
    rs = inp.hermitian.k_context.rs
    fiber = set(inp.fiber)
    found = []
    for el in enumerate_weyl(rs, roots_of(rs, inp.hermitian.k_context.simples)):
        inv = invert(el.action)
        images = [(mu, inv[mu]) for mu in inp.max_weights]
        pair_ = next(((mu, v) for mu, v in images if v in fiber), None)
        if pair_ is not None:
            found.append((el, pair_))
    top = max(el.length for el, _ in found)
    tied = [(el, pair_) for el, pair_ in found if el.length == top]
    return top, len({el.word for el, _ in tied}), tied[0]


@pytest.mark.parametrize(
    "label,marked,levi",
    [
        ("A3", (1, 2, 3), ()),
        ("A4", (1, 3), (3,)),
        ("B3", (1, 2, 3), ()),
        ("C4", (1, 3), ()),
        ("D4", (2,), (2,)),
        ("F4", (2,), (2,)),
        # in these E6 cases the oracle's block order does not reach the
        # least tied word first
        ("E6", (2, 4), (3, 4, 5)),
        ("E6", (1, 2, 6), ()),
        ("E6", (3, 4, 5), (3, 5)),
        ("E6", (3, 5, 6), (2, 3, 5)),
        ("E6", (1, 2, 3, 5), (2, 3, 5, 6)),
    ],
)
def test_bruteforce_breaks_ties_by_the_least_word(label, marked, levi):
    """Several maximizers of different words tie: the oracle returns the
    one with the lexicographically least word, and that one's pair."""
    inp = _setup(label, marked, levi)[-1]
    top, n_tied, (want, want_pair) = _reference_scan(inp)
    assert n_tied >= 2
    length, witness, pair_ = max_weyl_length_bruteforce(inp)
    action = perm_of_word(inp.hermitian.k_context, witness)
    assert (length, witness, action, pair_) == (
        top, want.word, want.action, want_pair
    )


def test_bruteforce_collects_adjacent_ties(monkeypatch):
    """The scan collects every element at the top length, the element
    right after a tied one included: with the lengths rewritten so that
    only two adjacent elements of the search set, the later one of the
    lesser word, are at length 1, it returns the later one's word."""
    inp = _setup("A3", {1}, set())[-1]
    ctx = inp.hermitian.k_context
    images, lengths, factors = weyl._enumerate(ctx, inp.max_weights, 100)
    fiber = set(inp.fiber)
    in_set = [any(col[e] in fiber for col in images) for e in range(len(lengths))]
    words = [word_of(factors, e) for e in range(len(lengths))]
    i = next(
        e
        for e in range(1, len(lengths) - 1)
        if in_set[e] and in_set[e + 1] and words[e] > words[e + 1]
    )
    tied = bytearray(len(lengths))
    tied[i] = tied[i + 1] = 1
    monkeypatch.setattr(snow, "_enumerate", lambda *args: (images, tied, factors))
    length, witness, _ = max_weyl_length_bruteforce(inp)
    assert (length, witness) == (1, words[i + 1])


def test_unknown_method_is_refused():
    inp = _setup("A2", {1}, set())[-1]
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        ampleness(inp, method="bogus")


def _check_byte_scan_of_marking(rs, marking, levis):
    """The oracle's byte scan gives the list scan's (length, word, pair)."""
    g = grade_roots(rs, set(marking))
    h = hermitian_data(rs, g)
    for levi in levis:
        try:
            pd = parabolic_data(rs, g, set(levi))
            fiber = neutral_fiber(pd, g)
        except DegenerateGeometryError:
            continue
        inp = assemble_input(rs, h, pd, fiber)
        assert max_weyl_length_bruteforce(inp) == list_scan(inp), (
            rs.dynkin, marking, levi
        )


@pytest.mark.parametrize("dt", all_types_up_to_rank(4), ids=str)
def test_byte_scan_matches_list_scan_every_case(dt):
    rs = build_root_system(dt)
    cases = sweep_cases(dt)
    for marking in sorted({m for m, _ in cases}):
        _check_byte_scan_of_marking(
            rs, marking, [l for m, l in cases if m == marking]
        )


def test_byte_scan_matches_list_scan_e6():
    """Every marking of E6, full flag."""
    rs = build_root_system(parse_type("E6"))
    for marking in sorted({m for m, _ in sweep_cases(rs.dynkin)}):
        _check_byte_scan_of_marking(rs, marking, [()])
