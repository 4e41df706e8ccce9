"""Property-based checks of the algebraic invariants."""

import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagample.cycle import neutral_fiber, parabolic_data
from flagample.dynkin import DynkinType, diagram_automorphisms
from flagample.errors import DegenerateGeometryError
from flagample.pipeline import CaseSpec, run_case, run_table
from flagample.realform import grade_roots, hermitian_data
from flagample.rootsystem import build_root_system, reflect
from flagample.snow import (
    assemble_input,
    max_weyl_length_bruteforce,
    max_weyl_length_fast,
)
from flagample.weyl import SubsystemContext
from reference import (
    context,
    enumerate_weyl,
    is_dominant,
    max_length_mapping,
    simple_system,
)
from test_realform import compact_positive_roots, roots_of

_TYPES = [
    DynkinType("A", 1),
    DynkinType("A", 2),
    DynkinType("A", 3),
    DynkinType("B", 2),
    DynkinType("B", 3),
    DynkinType("C", 3),
    DynkinType("D", 3),
    DynkinType("G", 2),
]

_SYSTEMS = {dt: build_root_system(dt) for dt in _TYPES}


@st.composite
def _case(draw):
    dt = draw(st.sampled_from(_TYPES))
    rs = _SYSTEMS[dt]
    nodes = list(range(1, dt.rank + 1))
    marked = draw(
        st.sets(st.sampled_from(nodes), min_size=1, max_size=dt.rank)
    )
    levi = draw(
        st.sets(st.sampled_from(nodes), max_size=dt.rank - 1)
        if dt.rank > 1
        else st.just(set())
    )
    if len(levi) == dt.rank:
        levi = set()
    return rs, frozenset(marked), frozenset(levi)


@given(_case())
@settings(max_examples=60, deadline=None)
def test_reflect_involution_and_lattice(case):
    rs, marked, _ = case
    for gamma in rs.positive_roots:
        for v in rs.roots:
            w = reflect(rs, v, gamma)
            assert all(isinstance(x, int) for x in w)
            assert w in rs.root_index
            assert reflect(rs, w, gamma) == v


@given(_case())
@settings(max_examples=60, deadline=None)
def test_grading_additivity(case):
    rs, marked, _ = case
    g = grade_roots(rs, marked)

    def parity(v):
        return int(rs.root_index[v] in g.noncompact_roots)

    for a, b in itertools.combinations(rs.roots, 2):
        c = tuple(a[i] + b[i] for i in range(rs.rank))
        if c in rs.root_index:
            assert parity(c) == (parity(a) + parity(b)) % 2


@given(_case())
@settings(max_examples=40, deadline=None)
def test_search_routes_agree(case):
    rs, marked, levi = case
    g = grade_roots(rs, marked)
    h = hermitian_data(rs, g)
    pd = parabolic_data(rs, g, levi)
    fiber = neutral_fiber(pd, g)
    inp = assemble_input(rs, h, pd, fiber)
    bl, bw, bp = max_weyl_length_bruteforce(inp)
    fl, fw, fp = max_weyl_length_fast(inp)
    assert (bl, bw, bp) == (fl, fw, fp)


@given(_case(), st.data())
@settings(max_examples=40, deadline=None)
def test_max_length_mapping_against_scan(case, data):
    rs, marked, _ = case
    k_pos = compact_positive_roots(rs, grade_roots(rs, marked))
    if not k_pos:
        return
    simples = simple_system(rs, k_pos)
    # the library's coset maximum is for a dominant mu, as maximal fiber
    # weights are
    ctx = context(rs, simples)
    dominant = [v for i, v in enumerate(rs.roots) if is_dominant(ctx, i)]
    mu = data.draw(st.sampled_from(dominant))
    nu = data.draw(st.sampled_from(rs.roots))
    fast = max_length_mapping(rs, simples, mu, nu)
    best = None
    for el in enumerate_weyl(rs, simples):
        if rs.roots[el.action[rs.root_index[nu]]] == mu:
            if best is None or el.length > best:
                best = el.length
    assert fast == best


@given(_case())
@settings(max_examples=40, deadline=None)
def test_weyl_orbit_of_root_stays_in_roots(case):
    rs, marked, _ = case
    k_pos = compact_positive_roots(rs, grade_roots(rs, marked))
    if not k_pos:
        return
    ctx = SubsystemContext(rs, [rs.root_index[v] for v in k_pos])
    root_set = set(rs.roots)
    for start in rs.roots:
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for gsimple in roots_of(rs, ctx.simples):
                w = reflect(rs, v, gsimple)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen <= root_set


@given(_case())
@settings(max_examples=60, deadline=None)
def test_dimension_bookkeeping(case):
    rs, marked, levi = case
    g = grade_roots(rs, marked)
    pd = parabolic_data(rs, g, levi)
    fiber = neutral_fiber(pd, g)
    assert pd.dim_z == pd.dim_c + len(fiber)
    assert 1 <= len(fiber) <= pd.dim_z


@given(_case())
@settings(max_examples=60, deadline=None)
def test_s_plus_abelian_and_orthogonality(case):
    rs, marked, _ = case
    g = grade_roots(rs, marked)
    h = hermitian_data(rs, g)
    if not h.hermitian:
        return
    s_plus = roots_of(rs, h.s_plus)
    for a in s_plus:
        for b in s_plus:
            c = tuple(a[i] + b[i] for i in range(rs.rank))
            assert c not in rs.root_index
    # the two halves are swapped by negation and exhaust the noncompacts
    assert {tuple(-x for x in a) for a in s_plus} == set(roots_of(rs, h.s_minus))
    assert len(h.s_plus) + len(h.s_minus) == len(g.noncompact_roots)


@st.composite
def _auto_case(draw, types):
    dt = draw(st.sampled_from(types))
    nodes = st.sampled_from(range(1, dt.rank + 1))
    marked = draw(st.sets(nodes, min_size=1))
    levi = draw(st.sets(nodes, max_size=dt.rank - 1))
    return dt, marked, levi


# D4 has triality, the others one involution each
_AUTO_TYPES = [DynkinType("A", 5), DynkinType("D", 4), DynkinType("D", 5), DynkinType("E", 6)]
# compared as sets after their coordinates or nodes are moved
_WEIGHT_FIELDS = {"e0_weights", "max_weights", "k_simples"}
_NODE_FIELDS = {"noncompact", "levi"}


def _auto_fields(row, sigma):
    """What a table row states, as the row of its image under the node
    permutation `sigma` (0-based) must state it: the image's marking and
    Levi set, its status, and every report field but `witness_word`,
    which names K's simples by their position in sorted order (its
    length is `w0_max_length`), with weights and nodes moved and taken
    as sets."""

    def move(v):
        out = [0] * len(v)
        for i, x in enumerate(v):
            out[sigma[i]] = x
        return tuple(out)

    def nodes(values):
        return frozenset(sigma[i - 1] + 1 for i in values)

    case = tuple(nodes(row["input"][part]) for part in ("noncompact", "levi"))
    report = row["report"]
    fields = {}
    for field in dataclasses.fields(report) if report else ():
        value = getattr(report, field.name)
        if field.name in _WEIGHT_FIELDS:
            fields[field.name] = frozenset(map(move, value))
        elif field.name in _NODE_FIELDS:
            fields[field.name] = nodes(value)
        elif field.name != "witness_word":
            fields[field.name] = value
    return case, row["status"], fields


def test_invariant_under_diagram_automorphisms():
    """Every case of A5, D4, D5 and E6 states what its image under each
    diagram automorphism states, which is what `table --dedupe` folds."""
    for dt in _AUTO_TYPES:
        identity = tuple(range(dt.rank))
        rows = run_table(dt)
        stated = {want[0]: want for want in (_auto_fields(row, identity) for row in rows)}
        for sigma in diagram_automorphisms(dt):
            if sigma == identity:
                continue
            for row in rows:
                got = _auto_fields(row, sigma)
                assert got == stated[got[0]], (dt, sigma, row["input"])


@given(_auto_case([DynkinType("E", 6), DynkinType("B", 5), DynkinType("C", 5)]))
@example((DynkinType("E", 6), {6}, {1}))  # product cases are rare in the draw
@example((DynkinType("B", 5), {1}, {3}))
@example((DynkinType("C", 5), {5}, {2}))
@settings(max_examples=60, deadline=None)
def test_verified_case_invariants(case):
    """On verified cases, where the brute-force oracle runs every time:
    the ampleness range, the degree, and the product verdict against the
    structural test computed here from the grading and the parabolic."""
    dt, marked, levi = case
    spec = CaseSpec(dt, tuple(sorted(marked)), tuple(sorted(levi)), verify=True)
    try:
        rep = run_case(spec)
    except DegenerateGeometryError:
        return
    assert rep.routes == ("fast", "bruteforce")
    assert 0 <= rep.ampleness <= rep.dim_c
    assert rep.concavity_degree == rep.dim_c - rep.ampleness
    rs = build_root_system(dt)
    g = grade_roots(rs, marked)
    h = hermitian_data(rs, g)
    # q cap s lies in one xi-half exactly when q misses the other, that
    # is when the other lies in the tangent weights
    tangent = set(parabolic_data(rs, g, levi).tangent_weights)
    one_half = tangent.issuperset(h.s_plus) or tangent.issuperset(h.s_minus)
    assert (rep.kind == "ProductOverHSS") == (h.center_dim > 0 and one_half)


# D3 = A3 and C2 = B2: each node of the first type (1-based) and the node
# of the second that the Dynkin diagram isomorphism sends it to
_ISOMORPHIC = [("D3", "A3", (2, 1, 3)), ("C2", "B2", (2, 1))]
# the real forms each isomorphism identifies, by their printed names
_SAME_FORM = {
    "so(2,4)": "su(2,2)",
    "so*(6)": "su(3,1)",
    "sp(2,ℝ)": "so(2,3)",
    "sp(1,1)": "so(4,1)",
}


def _iso_fields(report, name, move):
    """Everything a row states that does not depend on the presentation:
    weights as sets, each weight with its coordinates moved by `move`."""
    if report is None:
        return None
    return (
        name(report.realform_name),
        report.k_type,
        report.center_dim,
        (report.dim_z, report.dim_c, report.rank_e),
        frozenset(map(move, report.e0_weights)),
        frozenset(map(move, report.max_weights)),
        report.w0_max_length,
        report.levi_correction,
        report.ampleness,
        report.kind,
        report.concavity_degree,
    )


@pytest.mark.parametrize(
    "source,target,nodes", _ISOMORPHIC, ids=[f"{s}-{t}" for s, t, _ in _ISOMORPHIC]
)
def test_isomorphic_presentations_agree(source, target, nodes):
    """Two presentations of one simple algebra give the same table: each
    row of the source, with its marking and Levi set moved by the node
    map, states what the target's row states, up to the names of the
    real forms the isomorphism identifies."""

    def move(v):
        out = [0] * len(v)
        for i, x in enumerate(v):
            out[nodes[i] - 1] = x
        return tuple(out)

    def key(row, image=lambda i: i):
        block = row["input"]
        return tuple(
            tuple(sorted(map(image, block[part]))) for part in ("noncompact", "levi")
        )

    want = {
        key(row): (row["status"], _iso_fields(row["report"], str, tuple))
        for row in run_table(DynkinType(target[0], int(target[1:])))
    }
    rows = run_table(DynkinType(source[0], int(source[1:])))
    assert len(rows) == len(want)
    for row in rows:
        got = (row["status"], _iso_fields(row["report"], _SAME_FORM.get, move))
        assert got == want[key(row, lambda i: nodes[i - 1])], row["input"]
