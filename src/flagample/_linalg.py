"""Tiny exact linear algebra over the integers.

Matrices are given as rows of integers.  Elimination is fraction-free:
a pivot row r clears column c of row i by row_i <- r[c] row_i - row_i[c] r,
and each changed row is divided by the gcd of its entries, so every entry
stays an exact, small integer and the row space is unchanged.
"""

from __future__ import annotations

import math
from operator import index
from typing import Iterable, Sequence

Vec = tuple[int, ...]


def _reduce(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _clear(row: list[int], src: list[int], col: int) -> list[int]:
    """row with column col cleared by the pivot row src."""
    f = row[col]
    if not f:
        return row
    p = src[col]
    return _reduce([p * a - f * b for a, b in zip(row, src)])


def _echelon(rows: Iterable[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Integer reduced echelon form: (pivot column, row) for each nonzero
    row, with every other row zero at each pivot column."""
    mat = [list(map(index, row)) for row in rows]
    pivots: list[tuple[int, list[int]]] = []
    for col in range(len(mat[0]) if mat else 0):
        src = next((i for i, r in enumerate(mat) if r[col]), None)
        if src is None:
            continue
        src = mat.pop(src)
        mat = [_clear(r, src, col) for r in mat]
        pivots = [(c, _clear(r, src, col)) for c, r in pivots]
        pivots.append((col, src))
    return pivots


def nullspace_vector(rows: Sequence[Sequence[int]]) -> Vec | None:
    """The primitive integer vector killed by every row, positive at the
    one non-pivot column, if the nullspace is exactly one-dimensional;
    None otherwise."""
    if not rows:
        return None
    n = len(rows[0])
    pivots = _echelon(rows)
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(n) if c not in pivot_cols]
    if len(free) != 1:
        return None
    f = free[0]
    # each pivot row reads row[c] x_c + row[f] x_f = 0
    scale = math.lcm(*(abs(row[c]) for c, row in pivots))
    x = [0] * n
    x[f] = scale
    for c, row in pivots:
        x[c] = -row[f] * scale // row[c]
    return tuple(_reduce(x))
