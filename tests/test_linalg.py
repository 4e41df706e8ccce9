"""Integer elimination against a rational reference."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagample._linalg import nullspace_vector


def _rref(rows):
    """Reference: reduced row echelon form over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    cols = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(cols)
        src = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if src is None:
            continue
        mat[r], mat[src] = mat[src], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        cols.append(col)
    return list(zip(cols, mat))


def _reference_kernel(rows, n):
    """The kernel vector with 1 at the one free column, or None when
    the kernel is not one-dimensional."""
    pivots = _rref(rows)
    free = sorted(set(range(n)) - {c for c, _ in pivots})
    if len(free) != 1:
        return None
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for c, row in pivots:
        x[c] = -row[free[0]]
    return x


@st.composite
def _matrix(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    row = st.lists(entry, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


@given(_matrix())
@settings(max_examples=300, deadline=None)
@example([[0, 0]])
@example([[2, 4]])
@example([[1, 1, 0], [0, 1, 1]])
@example([[3, -6, 9], [-1, 2, -3]])
def test_integer_elimination_matches_rational(rows):
    n = len(rows[0])
    ref = _reference_kernel(rows, n)
    x = nullspace_vector(rows)
    if ref is None:
        assert x is None
        return
    assert all(type(v) is int for v in x)
    assert math.gcd(*x) == 1
    assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)
    # proportional to the reference, by a positive factor
    f = next(i for i, v in enumerate(ref) if v)
    scale = Fraction(x[f]) / ref[f]
    assert scale > 0
    assert [scale * v for v in ref] == list(x)


def test_empty_and_degenerate_inputs():
    assert nullspace_vector([]) is None
    assert nullspace_vector([[0]]) == (1,)
    assert nullspace_vector([[5]]) is None


def test_rational_entries_are_refused():
    with pytest.raises(TypeError):
        nullspace_vector([[Fraction(1, 2), 1]])
