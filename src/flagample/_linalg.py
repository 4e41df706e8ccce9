"""Tiny exact linear algebra over the rationals (Fraction arithmetic)."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def _echelon(rows: Iterable[Sequence]) -> list[list[Fraction]]:
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        src = next((r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None)
        if src is None:
            continue
        mat[pivot_row], mat[src] = mat[src], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        mat[pivot_row] = [x * inv for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return mat


def matrix_rank(rows: Iterable[Sequence]) -> int:
    """Rank of an exact matrix given as an iterable of rows."""
    return sum(1 for row in _echelon(rows) if any(x != 0 for x in row))


def nullspace_vector(rows: Sequence[Sequence]) -> Vec | None:
    """A nonzero rational vector killed by every row, if the nullspace
    is exactly one-dimensional; None otherwise."""
    if not rows:
        return None
    n = len(rows[0])
    mat = _echelon(rows)
    pivots: dict[int, list[Fraction]] = {}
    for row in mat:
        lead = next((c for c, a in enumerate(row) if a != 0), None)
        if lead is not None:
            pivots[lead] = list(row)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    x = [Fraction(0)] * n
    x[f] = Fraction(1)
    for lead, row in pivots.items():
        x[lead] = -row[f]
    return tuple(x)
