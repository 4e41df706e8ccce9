"""Root systems with exact integer arithmetic.

Weights are integer tuples in the simple-root basis; every lattice
element handled here lies in the root lattice, so integer coordinates
are exact.  The inner product is v^T B w with B = diag(d) * A for the
minimal symmetrizer d, which makes all coroot pairings exact integers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

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
    # reflection rows built so far, by root index; see reflection_row
    _rows: dict[int, array] = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    @property
    def simple_roots(self) -> tuple[Weight, ...]:
        n = self.rank
        return tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )

    def reflection_row(self, g: int) -> array:
        """Indices of s_gamma(v) for every root v, where gamma is the
        root of index g.  Each row is built on first use and kept, as a
        compact unsigned array."""
        row = self._rows.get(g)
        if row is None:
            row = self._rows[g] = _reflection_row(self, g)
        return row


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
        for i in range(n):
            # s_i(v) = v - <v, alpha_i^vee> alpha_i, and <v, alpha_i^vee>
            # is the pairing against row i of the Cartan matrix
            c = sum(cartan[i][j] * v[j] for j in range(n))
            w = tuple(v[j] - c if j == i else v[j] for j in range(n))
            if w not in roots:
                roots[w] = roots[v]
                queue.append(w)
    roots.update({negate(v): norm for v, norm in roots.items()})

    all_roots = tuple(sorted(roots))
    positives = tuple(v for v in all_roots if _sign(v) > 0)
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


def _sign(v: Weight) -> int:
    for x in v:
        if x != 0:
            return 1 if x > 0 else -1
    return 0


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


def negate(v: Weight) -> Weight:
    return tuple(-x for x in v)


def simple_system(rs: RootSystem, pos: Iterable[Weight]) -> tuple[Weight, ...]:
    """Simple roots of a positive subsystem.

    `pos` must be the positive half of a reflection-closed subsystem of
    rs.roots, so a set of positive roots; the result is its canonical
    simple system, sorted.  NotClosedError otherwise.

    Two passes, O(|pos| k) steps for k simple roots:

    - The simple roots are the indecomposable elements of pos, found in
      order of ambient height: beta is simple iff (beta, gamma) <= 0
      for every simple gamma found so far.  A positive root beta of a
      root system that is not simple has a simple gamma with
      (beta, gamma) > 0 (else (beta, beta) <= 0), and then beta - gamma
      is a positive root (Humphreys, *Introduction to Lie Algebras and
      Representation Theory*, 9.4 and 10.2), so gamma is lower than beta
      and was found first.  Two distinct simple roots have
      (beta, gamma) <= 0.
    - Closure is proven by one orbit of those roots under their
      reflection rows (`subsystem_orbit`).  The orbit is W_D D for the
      roots D found, and W_D D is reflection-closed: s_{wa} = w s_a w^-1.
      It must equal pos and -pos exactly.  If pos is the positive half
      of a closed subsystem, D is its simple system and W_D D is the
      whole subsystem (Humphreys, 10.3); if pos and -pos are not closed,
      they cannot be the closed set W_D D.
    """
    return _closed_subsystem(rs, pos)[0]


def indecomposables(
    rs: RootSystem, pos: Iterable[Weight]
) -> tuple[tuple[Weight, ...], frozenset[int]]:
    """The sorted simple roots of a set of positive roots, by the height
    pass of `simple_system`, and the root indices of the set.
    NotClosedError if an element is no positive root.

    The pairing test reads the reflection rows: rs.roots is sorted, so
    s_gamma(beta) = beta - <beta, gamma^vee> gamma comes before beta
    exactly when the pairing is positive."""
    index = rs.root_index
    pos_idx = set()
    for v in pos:
        i = index.get(v)
        # the coordinates of a root share one sign
        if i is None or min(v) < 0:
            raise NotClosedError(f"{v} is not a positive root of {rs.dynkin}")
        pos_idx.add(i)
    simples: list[int] = []
    rows = []
    for b in sorted(pos_idx, key=lambda i: sum(rs.roots[i])):
        if all(row[b] >= b for row in rows):
            simples.append(b)
            rows.append(rs.reflection_row(b))
    return tuple(sorted(rs.roots[g] for g in simples)), frozenset(pos_idx)


def subsystem_orbit(
    rs: RootSystem, simples: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], dict[int, tuple[int, ...]]]:
    """The Cartan matrix of the roots of index `simples`, cartan[i][j] =
    <gamma_j, gamma_i^vee>, and their orbit under their reflection rows:
    each orbit root (by index) with its coordinates in that basis.

    The coordinates ride along the orbit search: s_i changes only
    coordinate i, by minus shift, the pairing of the coordinates with
    row i of the Cartan matrix.  Each new root must equal its parent
    minus shift * gamma_i, so by induction from the simples every orbit
    root is the combination its coordinates state."""
    roots = rs.roots
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
    coords = {
        g: tuple(int(i == j) for j in range(k)) for i, g in enumerate(simples)
    }
    queue = list(simples)
    while queue:
        v = queue.pop()
        c = coords[v]
        for i in range(k):
            w = gens[i][v]
            if w not in coords:
                shift = sum(map(mul, cartan[i], c))
                gamma = roots[simples[i]]
                step = [x - shift * y for x, y in zip(roots[v], gamma)]
                if roots[w] != tuple(step):
                    raise InternalInconsistencyError(
                        "subsystem root outside simple span"
                    )
                coords[w] = c[:i] + (c[i] - shift,) + c[i + 1 :]
                queue.append(w)
    return tuple(cartan), coords


def require_closed(pos: frozenset[int], orbit) -> None:
    """NotClosedError unless the orbit of the simple roots of `pos` (root
    indices of positive roots) is pos and -pos exactly.  The orbit holds
    -v = s_v(v) with each root v, so it suffices that it holds pos and
    has twice its size."""
    if len(orbit) != 2 * len(pos) or not pos <= orbit.keys():
        raise NotClosedError(
            "subset not reflection-closed: the orbit of its simple roots "
            "is not the subset and its negatives"
        )


def _closed_subsystem(rs: RootSystem, pos: Iterable[Weight]):
    simples, pos_idx = indecomposables(rs, pos)
    cartan, coords = subsystem_orbit(rs, [rs.root_index[g] for g in simples])
    require_closed(pos_idx, coords)
    return simples, cartan, coords


@dataclass(frozen=True)
class SubsystemComponent:
    """One irreducible component of a closed subsystem."""

    label: str  # e.g. "A3", "B2"
    rank: int
    num_roots: int
    order: int  # Weyl group order
    simples: tuple[Weight, ...]


def subsystem_components(
    rs: RootSystem, positives: Iterable[Weight]
) -> tuple[SubsystemComponent, ...]:
    """Classify a closed positive subsystem into irreducible components.

    The label of each component is its abstract Dynkin type (so a D3
    component reports as A3, a C2 as B2)."""
    return orbit_components(rs, *_closed_subsystem(rs, positives))


def orbit_components(
    rs: RootSystem,
    simples: tuple[Weight, ...],
    cartan: tuple[tuple[int, ...], ...],
    coords: dict[int, tuple[int, ...]],
) -> tuple[SubsystemComponent, ...]:
    """Irreducible components of the subsystem with the given sorted
    simple roots, from `subsystem_orbit`'s Cartan matrix and coordinates:
    the connected components of the Cartan matrix, each with the positive
    roots whose coordinates it supports.  NotClosedError if the roots are
    not a simple system, that is if some root has coordinates of both
    signs."""
    k = len(simples)
    comp_of = list(range(k))

    def find(i):
        while comp_of[i] != i:
            comp_of[i] = comp_of[comp_of[i]]
            i = comp_of[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if cartan[i][j]:
                comp_of[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)

    # the support of a positive root is connected, so any nonzero
    # coordinate names its component
    comp_pos: dict[int, list[int]] = {r: [] for r in groups}
    for v, c in coords.items():
        if min(c) >= 0:
            comp_pos[find(c.index(max(c)))].append(v)
    if 2 * sum(map(len, comp_pos.values())) != len(coords):
        raise NotClosedError(
            "roots with coordinates of both signs: not a simple system"
        )

    comps = []
    for r, members in groups.items():
        comp_simples = tuple(simples[i] for i in members)
        label = _component_label(rs, comp_simples, comp_pos[r])
        comps.append(
            SubsystemComponent(
                label=label,
                rank=len(comp_simples),
                num_roots=2 * len(comp_pos[r]),
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
