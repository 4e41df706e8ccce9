import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagample import rootsystem, snow, weyl
from flagample.cycle import neutral_fiber, parabolic_data
from flagample.dynkin import all_types_up_to_rank, parse_type
from flagample.errors import DegenerateGeometryError
from flagample.pipeline import CaseSpec, run_case, sweep_cases
from flagample.realform import compact_positive_roots, grade_roots, hermitian_data
from flagample.rootsystem import build_root_system
from flagample.snow import (
    ampleness,
    assemble_input,
    closed_form_maximal_weights,
    max_weyl_length_bruteforce,
    max_weyl_length_fast,
    maximal_weights,
)
from flagample.weyl import SubsystemContext


def _setup(label, marked, levi):
    rs = build_root_system(parse_type(label))
    g = grade_roots(rs, set(marked))
    h = hermitian_data(rs, g)
    pd = parabolic_data(rs, g, set(levi))
    fiber = neutral_fiber(pd, g)
    return rs, g, h, pd, fiber, assemble_input(rs, g, h, pd, fiber)


def test_maximal_weights_a2_ball():
    rs, g, h, pd, fiber, inp = _setup("A2", {1}, {2})
    k_pos = compact_positive_roots(rs, g)
    assert maximal_weights(fiber, k_pos) == ((1, 1),)


def test_maximal_weights_singleton_fiber():
    rs, g, h, pd, fiber, inp = _setup("A2", {1}, {1})
    k_pos = compact_positive_roots(rs, g)
    assert fiber.weights == ((1, 1),)
    assert maximal_weights(fiber, k_pos) == ((1, 1),)


def test_maximal_weights_b2_quadric():
    rs, g, h, pd, fiber, inp = _setup("B2", {2}, {1})
    k_pos = compact_positive_roots(rs, g)
    assert set(fiber.weights) == {(0, 1), (1, 1)}
    assert maximal_weights(fiber, k_pos) == ((1, 1),)


def test_bruteforce_a2_ball():
    *_, inp = _setup("A2", {1}, {2})
    length, witness, (mu, nu) = max_weyl_length_bruteforce(inp)
    assert length == 1
    assert witness.word == (0,)
    assert mu == (1, 1) and nu == (1, 0)


def test_bruteforce_a2_line():
    *_, inp = _setup("A2", {1}, {1})
    length, witness, (mu, nu) = max_weyl_length_bruteforce(inp)
    assert length == 0
    assert witness.word == ()
    assert mu == (1, 1) and nu == (1, 1)


def test_bruteforce_b2_quadric():
    *_, inp = _setup("B2", {2}, {1})
    length, witness, _ = max_weyl_length_bruteforce(inp)
    assert length == 1
    # witness is the reflection in a1 = the first sorted k-simple
    assert inp.k_simples == ((1, 0), (1, 2))
    assert witness.word == (0,)


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
    assert (bl, bw.word, bw.action, bp) == (fl, fw.word, fw.action, fp)


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
    it, and no other orbit pass of K runs."""
    built, orbits = [], []
    init = SubsystemContext.__init__
    orbit = weyl.subsystem_orbit

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_orbit(*args):
        orbits.append(args)
        return orbit(*args)

    monkeypatch.setattr(SubsystemContext, "__init__", counting_init)
    for mod in (rootsystem, weyl):
        monkeypatch.setattr(mod, "subsystem_orbit", counting_orbit)
    run_case(CaseSpec(parse_type(label), marked, levi, verify=True, max_weyl=1))
    assert len(built) == len(orbits) == 1


@pytest.mark.parametrize(
    "label,marked,levi", [("E8", (1,), ()), ("A14", (1, 8), (2, 3))]
)
def test_fast_route_runs_one_orbit_search_per_maximal_weight(
    monkeypatch, label, marked, levi
):
    """The coset search reads every pair's length and every witness off
    one BFS per maximal weight."""
    searched = []
    orbit = weyl.coset_orbit

    def counting_orbit(ctx, mu):
        searched.append(mu)
        return orbit(ctx, mu)

    for mod in (snow, weyl):
        monkeypatch.setattr(mod, "coset_orbit", counting_orbit)
    report = run_case(CaseSpec(parse_type(label), marked, levi))
    assert report.routes == ("fast",)
    assert tuple(searched) == report.max_weights


def test_witness_invariant():
    rs, g, h, pd, fiber, inp = _setup("A2", {1}, set())
    res = ampleness(inp)
    mu, nu = res.witness_pair
    assert mu in res.max_weights
    assert nu in fiber.weights
    assert res.witness.length == res.max_length
    # the witness really maps nu to mu
    img = rs.roots[res.witness.action[rs.root_index[nu]]]
    assert img == mu


def test_identity_always_qualifies():
    *_, inp = _setup("G2", {2}, {2})
    length, _, _ = max_weyl_length_bruteforce(inp)
    assert length >= 0


def test_closed_form_drops_a_swallowed_half():
    # A2 marked {1,2}, levi {1}: s_plus = {a1, -a2} lies inside q,
    # so only the other half's highest weight survives
    rs, g, h, pd, fiber, inp = _setup("A2", {1, 2}, {1})
    assert set(h.s_plus) == {(1, 0), (0, -1)}
    assert set(pd.q_roots) >= set(h.s_plus)
    assert closed_form_maximal_weights(g, h, pd) == ((0, 1),)
    k_pos = compact_positive_roots(rs, g)
    assert maximal_weights(fiber, k_pos) == ((0, 1),)
    res = ampleness(inp, verify=True)
    assert res.max_weights == ((0, 1),)


def test_closed_form_keeps_both_halves():
    rs, g, h, pd, fiber, inp = _setup("A2", {1, 2}, set())
    assert closed_form_maximal_weights(g, h, pd) == ((0, 1), (1, 0))
    res = ampleness(inp, verify=True)
    assert res.max_weights == ((0, 1), (1, 0))


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
            inp = assemble_input(rs, g, h, pd, fiber)
            res = ampleness(inp, verify=True)  # fast vs brute force
            assert 0 <= res.ampleness <= pd.dim_c
            cls = classify(res, pd, g, h)
            assert cls.cross_check == "passed", (label, marking, levi)
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
    """hermitian_data's lambda_max_s and maximal_weights, which try only
    K's simple roots, agree with the definition over all of K's positive
    roots."""
    g = grade_roots(rs, set(marking))
    h = hermitian_data(rs, g)
    k_pos = compact_positive_roots(rs, g)
    noncompact = g.noncompact_roots
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
    assert h.lambda_max_s == reference, (rs.dynkin, marking)
    for levi in levis:
        try:
            pd = parabolic_data(rs, g, set(levi))
            fiber = neutral_fiber(pd, g)
        except DegenerateGeometryError:
            continue
        assert maximal_weights(fiber, h.k_simples) == maximal_weights(
            fiber, k_pos
        ), (rs.dynkin, marking, levi)


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
def _e7_e8_case(draw):
    label = draw(st.sampled_from(["E7", "E8"]))
    nodes = st.integers(1, int(label[1]))
    marking = draw(st.sets(nodes, min_size=1))
    levi = draw(st.sets(nodes))
    return label, tuple(sorted(marking)), tuple(sorted(levi))


@given(_e7_e8_case())
@settings(max_examples=40, deadline=None)
def test_highest_weights_on_k_simples_e7_e8(case):
    label, marking, levi = case
    _check_highest_weights_on_k_simples(_root_system(label), marking, [levi])
