"""Dynkin types: Cartan matrices, symmetrizers, diagram automorphisms.

Node labels are 1-based (alpha_1 .. alpha_n, Bourbaki numbering);
coordinate tuples are indexed 0 .. n-1 in the same order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, InvalidTypeError

SERIES = "ABCDEFG"

# Highest rank accepted for the classical series.  The cost of a case
# grows steeply with the rank (an A40 case takes seconds, an A80 case
# minutes), so a larger rank is refused up front instead of running for
# hours.
MAX_CLASSICAL_RANK = 64

# (min rank, max rank)
_RANK_BOUNDS = {
    "A": (1, MAX_CLASSICAL_RANK),
    "B": (2, MAX_CLASSICAL_RANK),
    "C": (2, MAX_CLASSICAL_RANK),
    "D": (3, MAX_CLASSICAL_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")


@dataclass(frozen=True)
class DynkinType:
    """A simple Lie type: series letter plus rank."""

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in _RANK_BOUNDS:
            raise InvalidTypeError(f"unknown series {self.series!r}")
        lo, hi = _RANK_BOUNDS[self.series]
        if not lo <= self.rank <= hi:
            raise InvalidTypeError(
                f"rank {self.rank} out of bounds for series {self.series} "
                f"(allowed {lo}..{hi})"
            )

    def __str__(self):
        return f"{self.series}{self.rank}"


def parse_type(text: str) -> DynkinType:
    """Parse a label like 'A2' or 'f4'."""
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise InvalidTypeError(f"cannot parse Dynkin type {text!r}")
    series, digits = m.group(1).upper(), m.group(2)
    try:
        rank = int(digits)
    except ValueError:  # more digits than int() converts
        raise InvalidTypeError(
            f"rank of {len(digits)} digits out of bounds for series {series}"
        ) from None
    return DynkinType(series, rank)


def cartan_matrix(dynkin: DynkinType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entries a[i][j] = 2(a_i, a_j)/(a_i, a_i)."""
    s, n = dynkin.series, dynkin.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if s in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if s == "B" and n >= 2:
            # alpha_n short
            bond(n - 2, n - 1, -1, -2)
        if s == "C" and n >= 2:
            # alpha_n long
            bond(n - 2, n - 1, -2, -1)
    elif s == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif s == "E":
        # chain 1-3-4-5-..., node 2 hangs off node 4
        bond(0, 2)
        for i in range(2, n - 1):
            bond(i, i + 1)
        bond(1, 3)
    elif s == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_1, alpha_2 long
        bond(2, 3)
    elif s == "G":
        bond(0, 1, -3, -1)  # alpha_1 short
    return tuple(tuple(row) for row in a)


def symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    # propagate across bonds; the diagram is connected for simple types
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                pending.append(j)
    if any(x is None for x in d):
        raise InternalInconsistencyError("disconnected diagram")
    denom = math.lcm(*(x.denominator for x in d))
    ints = [int(x * denom) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def root_count(dynkin: DynkinType) -> int:
    """Number of roots, from the classical formulas."""
    s, n = dynkin.series, dynkin.rank
    if s == "A":
        return n * (n + 1)
    if s in "BC":
        return 2 * n * n
    if s == "D":
        return 2 * n * (n - 1)
    if s == "E":
        return {6: 72, 7: 126, 8: 240}[n]
    if s == "F":
        return 48
    return 12  # G2


def weyl_order(series: str, rank: int) -> int:
    """Order of the Weyl group of a simple type."""
    if series == "A":
        return math.factorial(rank + 1)
    if series in "BC":
        return (2**rank) * math.factorial(rank)
    if series == "D":
        return (2 ** (rank - 1)) * math.factorial(rank)
    if series == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if series == "F":
        return 1152
    if series == "G":
        return 12
    raise InvalidTypeError(f"unknown series {series!r}")


def diagram_automorphisms(dynkin: DynkinType) -> tuple[tuple[int, ...], ...]:
    """All node permutations preserving the Cartan matrix (0-based maps)."""
    a = cartan_matrix(dynkin)
    n = dynkin.rank
    autos = []

    def extend(sigma: list[int], used: set[int]):
        i = len(sigma)
        if i == n:
            autos.append(tuple(sigma))
            return
        for cand in range(n):
            if cand in used:
                continue
            ok = all(
                a[i][j] == a[cand][sigma[j]] and a[j][i] == a[sigma[j]][cand]
                for j in range(i)
            )
            if ok and a[i][i] == a[cand][cand]:
                sigma.append(cand)
                used.add(cand)
                extend(sigma, used)
                sigma.pop()
                used.discard(cand)

    extend([], set())
    return tuple(sorted(autos))

