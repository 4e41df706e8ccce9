"""Root systems with exact integer arithmetic.

Weights are integer tuples in the simple-root basis; every lattice
element handled here lies in the root lattice, so integer coordinates
are exact.  The inner product is v^T B w with B = diag(d) * A for the
minimal symmetrizer d, which makes all coroot pairings exact integers.
The roots are kept sorted in `RootSystem.roots`, and the rest of the
pipeline names a root by its index there.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from . import dynkin as dk
from .dynkin import DynkinType
from .errors import InternalInconsistencyError, NotARootError, NotClosedError

Weight = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable root data of a simple complex Lie algebra."""

    dynkin: DynkinType
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    pairing_matrix: tuple[tuple[int, ...], ...]
    roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    norms: tuple[int, ...]  # (v, v) for each root, aligned with roots
    # support of each positive root as a bitmask, bit i - 1 for node i,
    # aligned with positive_roots
    support_masks: tuple[int, ...]
    root_index: dict[Weight, int] = field(repr=False)
    # reflection and sum rows built so far, by root index
    _rows: dict[int, array] = field(default_factory=dict, repr=False)
    _sums: dict[int, array] = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    @property
    def simple_roots(self) -> tuple[Weight, ...]:
        n = self.rank
        return tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )

    @property
    def positive_indices(self) -> range:
        """Indices of the positive roots: roots is sorted, and every
        negative root sorts before every positive one."""
        return range(len(self.positive_roots), len(self.roots))

    def reflection_row(self, g: int) -> array:
        """Indices of s_gamma(v) for every root v, where gamma is the
        root of index g.  Each row is built on first use and kept, as a
        compact unsigned array."""
        row = self._rows.get(g)
        if row is None:
            row = self._rows[g] = _reflection_row(self, g)
        return row

    def sum_row(self, a: int) -> array:
        """Indices of roots[a] + v for every root v, and the sentinel
        len(roots) where the sum is no root; built and kept like
        reflection_row."""
        row = self._sums.get(a)
        if row is None:
            alpha, get, m = self.roots[a], self.root_index.get, len(self.roots)
            row = [get(tuple(map(add, alpha, v)), m) for v in self.roots]
            row = self._sums[a] = array("H" if m < 1 << 16 else "L", row)
        return row

    @cached_property
    def odd_roots(self) -> tuple[frozenset[int], ...]:
        """For each node, the indices of the roots with an odd coefficient
        there, built on first use."""
        return tuple(
            frozenset(a for a, v in enumerate(self.roots) if v[j] & 1)
            for j in range(self.rank)
        )

    @cached_property
    def root_keys(self) -> tuple[int, ...]:
        """Each root packed into one integer, key(v) = sum_j v_j 2^(8j),
        built on first use.  The packing is linear, and it is injective on
        integer vectors whose coordinates are all below 128 in absolute
        value: the highest nonzero coordinate of such a vector outweighs
        all those below it.  Root coefficients are at most 6 in absolute
        value (E8's highest root), which is checked here, so
        key(u) - key(v) + s key(w) is 0 for roots u, v, w and |s| <= 3
        exactly when u = v - s w: every coordinate of that combination is
        at most 6 + 6 + 3 * 6 = 30."""
        if max(map(abs, chain.from_iterable(self.roots)), default=0) > 6:
            raise InternalInconsistencyError("root coefficient above 6")
        return tuple(
            sum(x << 8 * j for j, x in enumerate(v)) for v in self.roots
        )

    @cached_property
    def positives_by_height(self) -> tuple[int, ...]:
        """The indices of the positive roots in order of height, the sum
        of the coordinates, built on first use."""
        return tuple(sorted(self.positive_indices, key=lambda a: sum(self.roots[a])))


def _reflection_row(rs: RootSystem, g: int) -> array:
    # <v, gamma^vee> = 2 (v, B gamma) / (gamma, gamma), an integer for roots
    gamma = rs.roots[g]
    b_gamma = [sum(map(mul, row, gamma)) for row in rs.pairing_matrix]
    norm = rs.norms[g]
    index = rs.root_index
    row = []
    for i, v in enumerate(rs.roots):
        c, r = divmod(2 * sum(map(mul, v, b_gamma)), norm)
        if r:
            raise InternalInconsistencyError(
                "non-integral coroot pairing between roots"
            )
        row.append(index[tuple(x - c * y for x, y in zip(v, gamma))] if c else i)
    return array("H" if len(row) <= 1 << 16 else "L", row)


def build_root_system(dynkin: DynkinType) -> RootSystem:
    """Generate the full root system by closing the simple roots under
    the simple reflections."""
    n = dynkin.rank
    cartan = dk.cartan_matrix(dynkin)
    d = dk.symmetrizer(cartan)
    pairing = tuple(
        tuple(d[i] * cartan[i][j] for j in range(n)) for i in range(n)
    )

    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    # every root with its norm, which reflections preserve: (a_i, a_i) = B_ii
    roots: dict[Weight, int] = {v: pairing[i][i] for i, v in enumerate(simples)}
    queue = list(simples)
    while queue:
        v = queue.pop()
        for i, row in enumerate(cartan):
            # s_i(v) = v - <v, alpha_i^vee> alpha_i, and <v, alpha_i^vee>
            # is the pairing against row i of the Cartan matrix; s_i fixes
            # v when it is 0
            c = sum(map(mul, row, v))
            if not c:
                continue
            w = v[:i] + (v[i] - c,) + v[i + 1 :]
            if w not in roots:
                roots[w] = roots[v]
                queue.append(w)
    roots.update({tuple(-x for x in v): norm for v, norm in roots.items()})

    all_roots = tuple(sorted(roots))
    # the coordinates of a root share one sign
    positives = tuple(v for v in all_roots if max(v) > 0)
    if len(all_roots) != dk.root_count(dynkin):
        raise InternalInconsistencyError("root closure miscounted")
    if 2 * len(positives) != len(all_roots):
        raise InternalInconsistencyError("positive roots are not half the roots")

    return RootSystem(
        dynkin=dynkin,
        cartan_matrix=cartan,
        symmetrizer=d,
        pairing_matrix=pairing,
        roots=all_roots,
        positive_roots=positives,
        norms=tuple(roots[v] for v in all_roots),
        support_masks=tuple(
            sum(1 << i for i, x in enumerate(v) if x) for v in positives
        ),
        root_index={v: i for i, v in enumerate(all_roots)},
    )


def pair(rs: RootSystem, v: Sequence, w: Sequence) -> int | Fraction:
    """Symmetrized Cartan pairing (v, w); integer for lattice vectors."""
    return sum(map(mul, v, [sum(map(mul, row, w)) for row in rs.pairing_matrix]))


def coroot_pairing(rs: RootSystem, v: Sequence, gamma: Weight):
    """<v, gamma^vee> = 2 (v, gamma) / (gamma, gamma)."""
    num = 2 * pair(rs, v, gamma)
    den = pair(rs, gamma, gamma)
    q, r = divmod(num, den)
    if r == 0:
        return q
    return Fraction(num, den)


def reflect(rs: RootSystem, v: Sequence, gamma: Weight):
    """Reflection of v in the hyperplane orthogonal to the root gamma."""
    if gamma not in rs.root_index:
        raise NotARootError(f"{gamma} is not a root of {rs.dynkin}")
    c = coroot_pairing(rs, v, gamma)
    return tuple(v[j] - c * gamma[j] for j in range(rs.rank))


def indecomposables(
    rs: RootSystem, pos: Iterable[int]
) -> tuple[tuple[int, ...], frozenset[int]]:
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
    lower than beta and was found first.  The pass walks
    `RootSystem.positives_by_height`, built once per root system, and
    reads the pairing test off the reflection rows: rs.roots is sorted,
    so s_gamma(beta) = beta - <beta, gamma^vee> gamma comes before beta
    exactly when the pairing is positive."""
    pos = frozenset(pos)
    first = rs.positive_indices
    if pos and (min(pos) < first.start or max(pos) >= first.stop):
        raise NotClosedError(f"not a set of positive roots of {rs.dynkin}")
    simples: list[int] = []
    rows = []
    for b in filter(pos.__contains__, rs.positives_by_height):
        if all(row[b] >= b for row in rows):
            simples.append(b)
            rows.append(rs.reflection_row(b))
    return tuple(sorted(simples)), pos


class SubsystemOrbit(NamedTuple):
    """What one orbit pass over a subsystem finds (`subsystem_orbit`)."""

    # cartan[i][j] = <gamma_j, gamma_i^vee> for the simples gamma_i
    cartan: tuple[tuple[int, ...], ...]
    # each orbit root (by index) with its coordinates in the simple basis
    coords: dict[int, tuple[int, ...]]
    # each orbit root's sign: 1 if its coordinates are >= 0, else -1
    sign: dict[int, int]
    # one entry per irreducible component, in order of its first simple:
    # the positions of its simples and the indices of its positive roots
    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def pos_count(self) -> int:
        """The number of positive roots."""
        return sum(len(positives) for _, positives in self.components)


def subsystem_orbit(rs: RootSystem, simples: Sequence[int]) -> SubsystemOrbit:
    """The Cartan matrix of the roots of index `simples`, cartan[i][j] =
    <gamma_j, gamma_i^vee>, and their orbit under their reflection rows:
    each orbit root (by index) with its coordinates in that basis, its
    sign and its irreducible component.

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
    component at a time."""
    roots, keys = rs.roots, rs.root_keys
    gens = [rs.reflection_row(g) for g in simples]
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
    components = []
    for members in _linked(cartan):
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
        components.append((members, tuple(positives)))
    orbit = SubsystemOrbit(tuple(cartan), coords, sign, tuple(components))
    if 2 * orbit.pos_count != len(coords):
        raise NotClosedError("the orbit is not its positive roots and their negatives")
    return orbit


def _linked(cartan) -> list[tuple[int, ...]]:
    """The connected components of the Dynkin graph of a Cartan matrix,
    as sorted positions, in order of their first position."""
    k = len(cartan)
    seen = [False] * k
    out = []
    for i in range(k):
        if seen[i]:
            continue
        seen[i] = True
        members, stack = [], [i]
        while stack:
            a = stack.pop()
            members.append(a)
            for b in range(k):
                if not seen[b] and (cartan[a][b] or cartan[b][a]):
                    seen[b] = True
                    stack.append(b)
        out.append(tuple(sorted(members)))
    return out


def require_closed(pos: frozenset[int], orbit) -> None:
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


@dataclass(frozen=True)
class SubsystemComponent:
    """One irreducible component of a closed subsystem."""

    label: str  # e.g. "A3", "B2"
    rank: int
    num_roots: int
    order: int  # Weyl group order
    simples: tuple[int, ...]  # root indices


def orbit_components(
    rs: RootSystem, simples: tuple[int, ...], orbit: SubsystemOrbit
) -> tuple[SubsystemComponent, ...]:
    """Irreducible components of the subsystem with the given sorted
    simple roots, labelled from the simples and positive roots of each
    component that `subsystem_orbit` found."""
    comps = []
    for members, positives in orbit.components:
        comp_simples = tuple(simples[i] for i in members)
        label = _component_label(rs, comp_simples, positives)
        comps.append(
            SubsystemComponent(
                label=label,
                rank=len(comp_simples),
                num_roots=2 * len(positives),
                order=_order_from_label(label),
                simples=comp_simples,
            )
        )
    return tuple(sorted(comps, key=lambda c: (-c.rank, c.label)))


def _component_label(rs, simples, comp_pos) -> str:
    """comp_pos holds the indices of the component's positive roots."""
    r = len(simples)
    n_roots = 2 * len(comp_pos)
    norms = sorted(rs.norms[v] for v in comp_pos)
    n_short = sum(1 for x in norms if x == norms[0])
    if r == 1:
        return "A1"
    if n_roots == r * (r + 1) and norms[0] == norms[-1]:
        return f"A{r}"
    if n_roots == 2 * r * r:
        if r == 2:
            return "B2"
        # B_r has 2r short roots, C_r has 2r(r-1)
        return f"B{r}" if 2 * n_short == 2 * r else f"C{r}"
    if n_roots == 2 * r * (r - 1) and norms[0] == norms[-1]:
        return f"D{r}"
    if (r, n_roots) == (2, 12):
        return "G2"
    if (r, n_roots) == (4, 48):
        return "F4"
    if (r, n_roots) in {(6, 72), (7, 126), (8, 240)}:
        return f"E{r}"
    raise NotClosedError(f"unrecognized subsystem of rank {r} with {n_roots} roots")


def _order_from_label(label: str) -> int:
    return dk.weyl_order(label[0], int(label[1:]))
