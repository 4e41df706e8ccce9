"""Root systems with exact integer arithmetic.

Weights are integer tuples in the simple-root basis; every lattice
element handled here lies in the root lattice, so integer coordinates
are exact.  The inner product is v^T B w with B = diag(d) * A for the
minimal symmetrizer d, which makes all coroot pairings exact integers.
The roots are kept sorted in `RootSystem.roots`, and the rest of the
pipeline names a root by its index there.  A reflection row is built on
first use, every entry of it is proven then, and it is kept as a tuple
that every subsystem using it shares; a subsystem's data is read off
its positive roots with checks on index sets (`closed_subsystem`),
which trust the proven rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from operator import add, itemgetter, lt, mul, sub
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
    # reflection rows (proven) and sum rows built so far, by root index
    _rows: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)
    _sums: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    @property
    def positive_indices(self) -> range:
        """Indices of the positive roots: roots is sorted, and every
        negative root sorts before every positive one."""
        return range(len(self.positive_roots), len(self.roots))

    def reflection_row(self, g: int) -> tuple[int, ...]:
        """Indices of s_gamma(v) for every root v, where gamma is the
        root of index g.  Each row is built on first use, every entry is
        proven then (`_proven`), and the tuple is kept and shared."""
        row = self._rows.get(g)
        if row is None:
            row = self._rows[g] = _proven(self, g, _reflection_row(self, g))
        return row

    def sum_row(self, a: int) -> tuple[int, ...]:
        """Indices of roots[a] + v for every root v, and the sentinel
        len(roots) where the sum is no root; built and kept like
        reflection_row."""
        row = self._sums.get(a)
        if row is None:
            alpha, get, m = self.roots[a], self.root_index.get, len(self.roots)
            row = [get(tuple(map(add, alpha, v)), m) for v in self.roots]
            row = self._sums[a] = tuple(row)
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
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """For each node, the coefficient there of every root, in root
        order, built on first use: a linear functional on the roots is
        a sum of these columns, one per node where it is nonzero."""
        return tuple(zip(*self.roots))

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


def _reflection_row(rs: RootSystem, g: int) -> list[int]:
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
    return row


def _proven(rs: RootSystem, g: int, row: list[int]) -> tuple[int, ...]:
    """The reflection row of the root of index g, as a tuple, once every
    entry is proven: roots[row[v]] = v - <v, gamma^vee> gamma for every
    root v, by a route that does not read how the row was built.

    The pairing is exact and linear: <v, gamma^vee> is the sum over the
    nodes j of v_j <alpha_j, gamma^vee>, an integer for the two roots
    alpha_j and gamma, so it is read off the per-node columns for every
    root at once.  Each entry is then one comparison of packed keys,
    key(row[v]) = key(v) - <v, gamma^vee> key(gamma), which holds
    exactly when the two vectors agree (`RootSystem.root_keys`: the
    pairing of two roots is at most 3 in absolute value).  So the row
    is s_gamma, an involution that sends gamma to -gamma."""
    keys = rs.root_keys
    gamma, norm = rs.roots[g], rs.norms[g]
    pairing = [0] * len(keys)
    for column, b in zip(rs.columns, rs.pairing_matrix):
        # <alpha_j, gamma^vee> = 2 (alpha_j, gamma) / (gamma, gamma)
        c = 2 * sum(map(mul, b, gamma)) // norm
        if c:
            pairing = list(map(add, pairing, map(c.__mul__, column)))
    want = map(sub, keys, map(keys[g].__mul__, pairing))
    if list(map(keys.__getitem__, row)) != list(want):
        raise InternalInconsistencyError("subsystem root outside simple span")
    return tuple(row)


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
    # the nonzero entries (j, A_ij) of each Cartan row: the diagonal 2 and
    # at most three Dynkin neighbours, so a pairing is O(1), not O(n)
    sparse_rows = [tuple((j, a) for j, a in enumerate(row) if a) for row in cartan]
    # every root with its norm, which reflections preserve: (a_i, a_i) = B_ii
    roots: dict[Weight, int] = {v: pairing[i][i] for i, v in enumerate(simples)}
    queue = list(simples)
    while queue:
        v = queue.pop()
        for i, entries in enumerate(sparse_rows):
            # s_i(v) = v - <v, alpha_i^vee> alpha_i, and <v, alpha_i^vee>
            # is the pairing against row i of the Cartan matrix; s_i fixes
            # v when it is 0
            c = 0
            for j, a in entries:
                c += a * v[j]
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
    """Symmetrized Cartan pairing (v, w); integer for lattice vectors.

    (v, w) is the sum over the nodes i of v_i (B w)_i, and row i of B is
    read only where v_i is nonzero: a root has few nonzero coordinates,
    so a root passed first costs a few rows, not the whole matrix.  B is
    symmetric, so the order of the arguments does not change the value."""
    rows = rs.pairing_matrix
    return sum(x * sum(map(mul, rows[i], w)) for i, x in enumerate(v) if x)


def reflect(rs: RootSystem, v: Sequence, gamma: Weight):
    """Reflection of v in the hyperplane orthogonal to the root gamma,
    v - <v, gamma^vee> gamma with <v, gamma^vee> = 2 (v, gamma) /
    (gamma, gamma): an int when it is integral, else a Fraction."""
    if gamma not in rs.root_index:
        raise NotARootError(f"{gamma} is not a root of {rs.dynkin}")
    num = 2 * pair(rs, v, gamma)
    den = pair(rs, gamma, gamma)
    q, r = divmod(num, den)
    c = q if r == 0 else Fraction(num, den)
    return tuple(v[j] - c * gamma[j] for j in range(rs.rank))


def closed_subsystem(rs: RootSystem, positives: Iterable[int]) -> tuple:
    """The closed subsystem whose positive roots have the indices
    `positives`, read off them as the plain tuple (simples, rows,
    cartan, sign, parts): its simple roots (by index, sorted), their
    reflection rows (the root system's own tuples), their Cartan matrix,
    cartan[i][j] = <gamma_j, gamma_i^vee>, the sign of each of its roots
    (by index), and per irreducible component, in order of its first
    simple, the positions of its simples and the set of its positive
    roots.
    NotClosedError unless the positives are the positive half of a
    reflection-closed subsystem.

    The simple roots are found in the root system's height order: a
    root is simple unless the row of a simple root found before it
    lowers it.  rs.roots is sorted, so s_gamma(beta) = beta -
    <beta, gamma^vee> gamma comes before beta exactly when the pairing
    is positive.  Every row is proven when it is built
    (`RootSystem.reflection_row`), and two checks on index sets prove
    the rest.  With pos the positives and S the simples:

    - closure: s_gamma permutes pos - {gamma}, for each gamma in S (it
      sends gamma to -gamma, and pos holds the images of the others);
    - descent: each root of pos - S is lowered by a gamma in S found
      before it, to a root of pos by the closure.

    By descent and induction on height, every root of pos is in the
    orbit W(S)S and a nonnegative integer combination of S.  By closure
    W(S) keeps pos and -pos, which hold -v = s_v(v) with each v of the
    orbit.  So pos and -pos are the orbit, which is reflection-closed,
    as s_{wa} = w s_a w^-1, and pos is one of its positive systems.  Its
    simple roots D are in S, each being a nonnegative combination of S.
    A root of S outside D would pair positively with some delta of D
    below it, found before it, which would have lowered it.  So S = D
    (Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, 10.1-10.3).

    A root is lowered only by simple roots of its own component, to
    which the others are orthogonal, so each component's positive roots
    are the roots its simples lower, themselves included.  The Cartan
    matrix is read off the rows with packed keys, key(gamma_j) -
    key(s_i gamma_j) = cartan[i][j] key(gamma_i)."""
    pos = frozenset(positives)
    first = rs.positive_indices
    if pos and (min(pos) < first.start or max(pos) >= first.stop):
        raise NotClosedError(f"not a set of positive roots of {rs.dynkin}")
    # the keys are built first: that checks the bound on root
    # coefficients which the row proofs rely on
    keys = rs.root_keys
    order = list(filter(pos.__contains__, rs.positives_by_height))
    if not order:
        return (), (), (), {}, ()
    # the images of pos under a row, a tuple even when pos has one root
    images_of = itemgetter(*order, order[0])
    found = []  # (simple, its row, the roots of pos it lowers)
    lowered: set[int] = set()
    for b in order:
        if b in lowered:
            continue
        row = rs.reflection_row(b)
        images = images_of(row)
        # row[b] = -b is not in pos, and a row is one-to-one
        if len(pos.intersection(images)) != len(order) - 1:
            raise NotClosedError(
                "the orbit is not its positive roots and their negatives"
            )
        down = frozenset(compress(order, map(lt, images, order)))
        lowered |= down
        found.append((b, row, down))
    found.sort()
    simples, rows, downs = zip(*found)
    cartan = tuple(
        tuple((keys[gj] - keys[row[gj]]) // keys[gi] for gj in simples)
        for gi, row in zip(simples, rows)
    )
    last = len(rs.roots) - 1
    sign = dict.fromkeys(map(last.__sub__, order), -1)
    sign.update(dict.fromkeys(order, 1))
    parts = tuple(
        (members, frozenset().union(*map(downs.__getitem__, members)))
        for members in _linked(cartan)
    )
    return simples, rows, cartan, sign, parts


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
