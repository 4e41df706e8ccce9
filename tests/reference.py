"""Test-only references in root coordinates and root permutations.

The library names a Weyl element by its canonical word alone.  The
tests check that word against the element's full action on the root
set, a permutation of root indices built here from the word, and reach
the library's index-based subsystem routines through the coordinate
entry points below, and rebuild a subsystem's components from the
parts of its context.  `list_scan` is the brute-force oracle's scan on
columns of Python ints, against which the library's byte scan is
checked.  `orbit_pass` is the former construction of a subsystem's
data, an orbit search that carries each root's coordinates in the
simple basis: the library's pass is checked against it, and `coords`
gives the tests those coordinates.  `q_roots`, `classify_by_q` and
`closed_form_by_q` are the former forms of the product test and of the
closed-form maximal weights, read on the roots of the parabolic q rather
than on the tangent weights.
"""

from itertools import compress
from operator import mul, or_
from typing import NamedTuple

from flagample import kernels
from flagample.classify import KIND_PRODUCT, KIND_PSEUDOCONCAVE, Classification
from flagample.dynkin import SERIES, DynkinType, weyl_order
from flagample.errors import (
    InternalInconsistencyError,
    InvalidTypeError,
    NotARootError,
    NotClosedError,
)
from flagample.rootsystem import _component_label
from flagample.weyl import (
    DEFAULT_CAP,
    SubsystemContext,
    _enumerate,
    _max_length_with_witness,
    coset_orbit,
)


def all_types_up_to_rank(max_rank):
    """Every valid simple type with rank at most max_rank, by series and
    then rank."""
    out = []
    for series in SERIES:
        for rank in range(1, max_rank + 1):
            try:
                out.append(DynkinType(series, rank))
            except InvalidTypeError:
                pass
    return out


def simple_roots(rs):
    """The simple roots of rs: the unit vectors of the simple-root basis."""
    n = rs.rank
    return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))


def compose(a, b):
    """(a o b)(x) = a(b(x)) for root permutations a and b."""
    return tuple(a[x] for x in b)


def invert(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def identity(ctx):
    """The identity permutation of the context's root set."""
    return tuple(range(len(ctx.rs.roots)))


def perm_of_word(ctx, word):
    """The action on the root set of s_{word[0]} o ... o s_{word[-1]}."""
    p = identity(ctx)
    for i in reversed(word):
        p = compose(ctx.gen_perms[i], p)
    return p


def is_negative(ctx, v):
    """Whether the root of index v is negative: the subsystem's positive
    roots are ambient-positive, and the sorted roots put every negative
    root first."""
    return v < ctx.rs.positive_indices.start


def length_of_perm(ctx, p):
    """Reference length: subsystem-positive roots sent negative by the
    root permutation p."""
    return sum(1 for i in ctx.positives if is_negative(ctx, p[i]))


def canonical_word(ctx, p):
    """Reference canonical word of the root permutation p: lexicographically
    least reduced word, by greedy least left descent, i being a left
    descent of w iff w^{-1}(gamma_i) is a subsystem-negative root."""
    word = []
    # p^{-1}, kept up to date as p becomes s_i o p
    inv = invert(p)
    one = identity(ctx)
    for _ in range(ctx.pos_count + 1):
        if inv == one:
            return tuple(word)
        i = next(k for k, gi in enumerate(ctx.simples) if is_negative(ctx, inv[gi]))
        word.append(i)
        inv = compose(inv, ctx.gen_perms[i])
    raise AssertionError("canonical word did not terminate")


class Element(NamedTuple):
    """A group element: its canonical word and its root permutation."""

    word: tuple
    action: tuple

    @property
    def length(self):
        return len(self.word)


def context(rs, simples):
    """The context of simple roots given by coordinates."""
    return SubsystemContext.from_simples(rs, [rs.root_index[g] for g in simples])


def enumerate_weyl(rs, simples, cap=DEFAULT_CAP):
    """Every element of the reflection group generated by the simple
    roots (coordinates), exactly once, ordered by length with ties broken
    by the canonical word; each action is the inverse of the kernel's
    images of every root."""
    ctx = context(rs, simples)
    images, _, factors = _enumerate(ctx, identity(ctx), cap)
    out = [
        Element(kernels.word_of(factors, i), invert(row))
        for i, row in enumerate(zip(*images))
    ]
    out.sort(key=lambda e: (e.length, e.word))
    return out


def is_dominant(ctx, v):
    """Whether the root of index v pairs nonnegatively with every simple
    root of the context: s_gamma(v) = v - <v, gamma^vee> gamma sorts
    below v iff (v, gamma) > 0, the roots being sorted by their
    coordinates and gamma positive."""
    return all(row[v] <= v for row in ctx.gen_perms)


def max_length_mapping(rs, simples, mu, nu):
    """Largest subsystem length of an element w with w(nu) = mu, for
    coordinate vectors, or None when mu is not in the orbit of nu.

    nu must be a root (NotARootError otherwise); a mu that is not a root
    lies in no root orbit, so it gives None.  A root mu must be dominant
    for the subsystem (`is_dominant`), as a maximal fiber weight is: the
    library refuses any other mu whose orbit holds nu with
    InternalInconsistencyError."""
    ctx = context(rs, simples)
    mu_i, nu_i = rs.root_index.get(tuple(mu)), rs.root_index.get(tuple(nu))
    if nu_i is None:
        raise NotARootError(f"{tuple(nu)} is not a root of {rs.dynkin}")
    if mu_i is None:
        return None
    dist = coset_orbit(ctx, mu_i).get(nu_i)
    if dist is None:
        return None
    return len(_max_length_with_witness(ctx, mu_i, nu_i, dist))


def _closed_subsystem(rs, pos):
    # a vector that is no root gets -1, which the context refuses
    return SubsystemContext(rs, [rs.root_index.get(tuple(v), -1) for v in pos])


def simple_system(rs, pos):
    """The sorted simple roots (coordinates) of the positive half `pos`
    of a reflection-closed subsystem, by the library's height pass and
    closure checks; NotClosedError if pos is no such half."""
    return tuple(rs.roots[g] for g in _closed_subsystem(rs, pos).simples)


class Component(NamedTuple):
    """One irreducible component of a closed subsystem."""

    label: str  # e.g. "A3", "B2"
    rank: int
    num_roots: int
    order: int  # Weyl group order
    simples: tuple  # coordinates


def label_order(label):
    """The Weyl group order of a component label such as "B3"."""
    return weyl_order(label[0], int(label[1:]))


def components(ctx):
    """The context's irreducible components, read off its parts and
    labelled as the library labels them, larger rank first and then by
    label; their labels are ctx.labels."""
    rs = ctx.rs
    comps = []
    for members, positives in ctx.parts:
        simples = tuple(rs.roots[ctx.simples[i]] for i in members)
        label = _component_label(rs, simples, positives)
        comps.append(
            Component(
                label, len(members), 2 * len(positives), label_order(label), simples
            )
        )
    comps.sort(key=lambda c: (-c.rank, c.label))
    assert tuple(c.label for c in comps) == ctx.labels
    return tuple(comps)


def subsystem_components(rs, pos):
    """The irreducible components of the closed subsystem with positive
    half `pos` (coordinates), as the library labels them."""
    return components(_closed_subsystem(rs, pos))


def list_scan(inp, cap=DEFAULT_CAP):
    """(length, word, pair) of the brute-force oracle, scanning the
    kernel's columns as lists of ints: membership per element by a set
    lookup, the hit flags OR-ed per column, the top length by max() over
    the hit elements, ties broken by the least canonical word, and the
    pair the first mu whose w^{-1}(mu) is a fiber weight."""
    ctx = inp.hermitian.k_context
    lam = inp.max_weights
    fiber = frozenset(inp.fiber)
    images, lengths, factors = _enumerate(ctx, lam, cap)
    images = [list(col) for col in images]

    # hit[i] is 1 iff element i sends some maximal weight into the fiber
    hit = b""
    for col in images:
        found = map(fiber.__contains__, col)
        hit = bytes(map(or_, hit, found) if hit else found)
    top = max(compress(lengths, hit), default=None)
    if top is None:
        raise InternalInconsistencyError(
            "identity not in the search set: maximal weights escape the fiber"
        )
    tied = []
    i = lengths.find(top)
    while i >= 0:
        if hit[i]:
            tied.append(i)
        i = lengths.find(top, i + 1)
    word, best = min((kernels.word_of(factors, i), i) for i in tied)
    row = tuple(col[best] for col in images)
    return top, word, next((mu, v) for mu, v in zip(lam, row) if v in fiber)


# The former construction of a subsystem's data: the simple roots by a
# height pass, then an orbit search from them that carries coordinates,
# then a closure check on the orbit.

def indecomposables(rs, pos):
    """The simple roots of a set of positive roots, all by index, sorted,
    and the set itself.  NotClosedError if an index is no positive
    root's.

    If pos is the positive half of a closed subsystem, its simple roots
    are its indecomposable elements, found here in order of ambient
    height: beta is simple iff (beta, gamma) <= 0 for every simple gamma
    found so far.  A positive root beta that is not simple has a simple
    gamma with (beta, gamma) > 0 (else (beta, beta) <= 0), and then
    beta - gamma is a positive root (Humphreys, *Introduction to Lie
    Algebras and Representation Theory*, 9.4 and 10.2), so gamma is
    lower than beta and was found first.  The pass sorts pos by height
    itself, and reads the pairing test off the reflection rows: rs.roots
    is sorted, so s_gamma(beta) = beta - <beta, gamma^vee> gamma comes
    before beta exactly when the pairing is positive."""
    pos = frozenset(pos)
    first = rs.positive_indices
    if pos and (min(pos) < first.start or max(pos) >= first.stop):
        raise NotClosedError(f"not a set of positive roots of {rs.dynkin}")
    simples = []
    rows = []
    for b in sorted(pos, key=lambda a: sum(rs.roots[a])):
        if all(row[b] >= b for row in rows):
            simples.append(b)
            rows.append(rs.reflection_row(b))
    return tuple(sorted(simples)), pos


def subsystem_orbit(rs, simples, gens):
    """The orbit of the roots of index `simples` under their reflection
    rows `gens`, as the plain tuple (cartan, coords, sign, parts): their
    Cartan matrix, cartan[i][j] = <gamma_j, gamma_i^vee>; each orbit root
    (by index) with its coordinates in that basis and its sign, 1 if they
    are >= 0, else -1; and per irreducible component, in order of its
    first simple, the positions of its simples and its positive roots.

    The coordinates ride along the orbit search: s_i changes only
    coordinate i, by minus shift, the pairing of the coordinates with
    row i of the Cartan matrix.  Each new root must equal its parent
    minus shift * gamma_i, so by induction from the simples every orbit
    root is the combination its coordinates state.  That check is one
    integer comparison of packed keys (`RootSystem.root_keys`),
    key(new) = key(parent) - shift * key(gamma_i), after a check that
    |shift| <= 3, which holds for the pairing of a root with a coroot.
    It is exact: it compares every coordinate, so it does not trust the
    reflection row it re-proves.

    The sign and the component ride along too.  A step s_i changes only
    coordinate i, so the new root has its parent's sign unless the new
    i-th coordinate has the opposite one; then the root has coordinates
    of both signs (NotClosedError: the roots are no simple system)
    unless the parent was +-gamma_i, whose image is its negative.  s_i
    fixes every root outside gamma_i's component, so a root found from
    a parent is in the parent's component, and the search runs one
    component at a time.  NotClosedError also unless the orbit is its
    positive roots and their negatives."""
    roots, keys = rs.roots, rs.root_keys
    k = len(simples)
    # s_i(gamma_j) = gamma_j - cartan[i][j] gamma_i, read at a coordinate
    # where gamma_i is nonzero
    cartan = []
    for i, gi in enumerate(simples):
        gamma = roots[gi]
        t = next(t for t, x in enumerate(gamma) if x)
        cartan.append(
            tuple(
                (roots[gj][t] - roots[gens[i][gj]][t]) // gamma[t] for gj in simples
            )
        )
    gamma_keys = [keys[g] for g in simples]
    coords = {
        g: tuple(int(i == j) for j in range(k)) for i, g in enumerate(simples)
    }
    sign = dict.fromkeys(simples, 1)
    parts = []
    for members in components_of(cartan):
        queue = [simples[i] for i in members]
        positives = queue[:]
        while queue:
            v = queue.pop()
            c, s, key = coords[v], sign[v], keys[v]
            for i, row in enumerate(gens):
                w = row[v]
                if w in coords:
                    continue
                shift = sum(map(mul, cartan[i], c))
                if not -3 <= shift <= 3 or keys[w] != key - shift * gamma_keys[i]:
                    raise InternalInconsistencyError(
                        "subsystem root outside simple span"
                    )
                x = c[i] - shift
                s_w = s
                if x * s < 0:
                    if any(c[:i]) or any(c[i + 1 :]):
                        raise NotClosedError(
                            "root with coordinates of both signs: not a "
                            "simple system"
                        )
                    s_w = -s
                sign[w] = s_w
                if s_w > 0:
                    positives.append(w)
                coords[w] = c[:i] + (x,) + c[i + 1 :]
                queue.append(w)
        parts.append((members, tuple(positives)))
    if 2 * sum(len(positives) for _, positives in parts) != len(coords):
        raise NotClosedError("the orbit is not its positive roots and their negatives")
    return tuple(cartan), coords, sign, tuple(parts)


def neighbour_lists(cartan):
    """For each node i of a Cartan matrix, its Dynkin neighbours j, in
    order, with cartan[j][i]: the nonzero off-diagonal entries of column
    i, as the context once read them off the matrix."""
    columns = tuple(zip(*cartan))
    return tuple(
        tuple((j, a) for j, a in enumerate(col) if j != i and a)
        for i, col in enumerate(columns)
    )


def components_of(cartan):
    """The connected components of the Dynkin graph of a Cartan matrix,
    as sorted positions, in order of their first position: each node
    joins, and merges, the classes of the nodes it has an entry with."""
    classes = []
    for i, row in enumerate(cartan):
        linked = [c for c in classes if any(row[j] or cartan[j][i] for j in c)]
        classes = [c for c in classes if c not in linked]
        classes.append({i}.union(*linked))
    return sorted(tuple(sorted(c)) for c in classes)


def require_closed(pos, orbit):
    """NotClosedError unless the orbit of the simple roots of `pos` (root
    indices of positive roots) is pos and -pos exactly.  The orbit holds
    -v = s_v(v) with each root v, so it suffices that it holds pos and
    has twice its size.  This proves closure: the orbit W_D D of the
    roots D that `indecomposables` found is reflection-closed, as
    s_{wa} = w s_a w^-1, and it is the whole subsystem when pos is the
    positive half of one (Humphreys, 10.3)."""
    if len(orbit) != 2 * len(pos) or not pos <= orbit.keys():
        raise NotClosedError(
            "subset not reflection-closed: the orbit of its simple roots "
            "is not the subset and its negatives"
        )


def orbit_pass(rs, positives):
    """The library pass's tuple (simples, rows, cartan, neighbours,
    parts), and each root's coordinates in the simple basis, by the
    former construction; NotClosedError as that construction refuses."""
    simples, pos = indecomposables(rs, positives)
    rows = tuple(map(rs.reflection_row, simples))
    cartan, coords, _, parts = subsystem_orbit(rs, simples, rows)
    require_closed(pos, coords)
    return (simples, rows, cartan, neighbour_lists(cartan), parts), coords


def coords(ctx):
    """Each root of the context (by index) with its coordinates in the
    basis of the context's simple roots, from the orbit search, whose
    positive roots, those of nonnegative coordinates, are the context's
    own."""
    cartan, coords, sign, _ = subsystem_orbit(ctx.rs, ctx.simples, ctx.gen_perms)
    assert cartan == ctx.cartan
    assert tuple(sorted(v for v, s in sign.items() if s > 0)) == ctx.positives
    return coords


def q_roots(rs, levi):
    """The roots of the parabolic q (by index): every negative root and
    the positive roots whose support lies in the Levi nodes."""
    levi_mask = sum(1 << (i - 1) for i in levi)
    in_levi = [
        v
        for v, mask in zip(rs.positive_indices, rs.support_masks)
        if mask & ~levi_mask == 0
    ]
    # the negative roots are the ones before the positive ones
    return tuple(range(rs.positive_indices.start)) + tuple(in_levi)


def classify_by_q(amp, pd, q, grading, hermitian):
    """`classify` with the structural test read on the roots q of the
    parabolic: k has a center and q cap s lies in s_minus."""
    kind = KIND_PRODUCT if amp.ampleness == pd.dim_c else KIND_PSEUDOCONCAVE
    if hermitian.center_dim == 1:
        q_cap_s = {v for v in q if v in grading.noncompact_roots}
        direct = q_cap_s <= set(hermitian.s_minus)
        if direct:
            notes = "q cap s contained in s_minus"
        else:
            notes = "q cap s meets both xi-halves"
    else:
        direct = False
        notes = "k has no center"
    if direct != (kind == KIND_PRODUCT):
        raise InternalInconsistencyError(
            f"verdict {kind} disagrees with the structural test ({notes})"
        )
    return Classification(kind, pd.dim_c - amp.ampleness, notes)


def closed_form_by_q(hermitian, q):
    """The closed-form maximal weights with a xi-half dropped exactly
    when it lies in the roots q of the parabolic."""
    if hermitian.center_dim == 0:
        return hermitian.lambda_max_s
    keep = []
    for side in (hermitian.s_plus, hermitian.s_minus):
        if not set(side) <= set(q):
            keep.extend(a for a in hermitian.lambda_max_s if a in side)
    return tuple(sorted(keep))
