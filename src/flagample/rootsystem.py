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
from .errors import NotARootError, NotClosedError

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

    def is_root(self, v: Weight) -> bool:
        return v in self.root_index

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
        assert r == 0, "non-integral coroot pairing between roots"
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
    assert len(all_roots) == dk.root_count(dynkin), "root closure miscounted"
    assert 2 * len(positives) == len(all_roots)

    return RootSystem(
        dynkin=dynkin,
        cartan_matrix=cartan,
        symmetrizer=d,
        pairing_matrix=pairing,
        roots=all_roots,
        positive_roots=positives,
        norms=tuple(roots[v] for v in all_roots),
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
    rs.roots; the result is its canonical simple system, sorted.  A
    positive root is simple iff its reflection has length one, that is
    sends no other positive root to a negative one.
    """
    pos_set = frozenset(pos)
    full = pos_set | {negate(v) for v in pos_set}
    for v in full:
        if v not in rs.root_index:
            raise NotClosedError(f"{v} is not a root of {rs.dynkin}")
    idx = {rs.root_index[v] for v in full}
    for g in idx:
        row = rs.reflection_row(g)
        for v in idx:
            if row[v] not in idx:
                raise NotClosedError(
                    "subset not reflection-closed: "
                    f"s_{rs.roots[g]}({rs.roots[v]}) escapes"
                )
    pos_idx = {rs.root_index[v] for v in pos_set}
    simples = []
    for g in pos_idx:
        row = rs.reflection_row(g)
        if all(row[v] in pos_idx for v in pos_idx if v != g):
            simples.append(rs.roots[g])
    return tuple(sorted(simples))


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
    pos = frozenset(positives)
    if not pos:
        return ()
    simples = simple_system(rs, pos)
    idx = [rs.root_index[g] for g in simples]
    rows = [rs.reflection_row(i) for i in idx]
    k = len(simples)

    # connected components of the simples under non-orthogonality:
    # gamma_i and gamma_j are orthogonal iff s_i fixes gamma_j
    comp_of = list(range(k))

    def find(i):
        while comp_of[i] != i:
            comp_of[i] = comp_of[comp_of[i]]
            i = comp_of[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if rows[i][idx[j]] != idx[j]:
                comp_of[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)

    comps = []
    for members in groups.values():
        comp_simples = tuple(simples[i] for i in sorted(members))
        # the component's roots are the orbit of its simples
        orbit = {idx[i] for i in members}
        queue = list(orbit)
        while queue:
            v = queue.pop()
            for i in members:
                w = rows[i][v]
                if w not in orbit:
                    orbit.add(w)
                    queue.append(w)
        comp_pos = [v for v in orbit if rs.roots[v] in pos]
        label = _component_label(rs, comp_simples, comp_pos)
        comps.append(
            SubsystemComponent(
                label=label,
                rank=len(comp_simples),
                num_roots=2 * len(comp_pos),
                order=_order_from_label(label),
                simples=comp_simples,
            )
        )
    if sum(c.num_roots for c in comps) != 2 * len(pos):
        raise NotClosedError("subsystem roots outside the orbits of its simples")
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
