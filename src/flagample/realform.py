"""Inner real forms as Z/2 gradings of the root set.

A marking of Dynkin nodes declares those simple roots noncompact; the
parity of any root is the mod-2 sum of its coefficients on the marked
nodes.  In the equal-rank case the Cartan involution fixes the Cartan
subalgebra pointwise, every root space is an eigenspace, and the
noncompact roots are exactly the weights of the (-1)-eigenspace.
Only inner forms are representable here; outer forms are out of scope.
Roots are named by their index in the sorted `RootSystem.roots`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, filterfalse
from operator import add, itemgetter, mul, xor
from typing import Iterable

from .errors import (
    BadNodeError,
    CompactFormError,
    DegenerateGradingError,
    InternalInconsistencyError,
    NotClosedError,
)
from .rootsystem import RootSystem, Weight
from .weyl import SubsystemContext


@dataclass(frozen=True)
class CompactnessGrading:
    """Partition of the roots into compact and noncompact: a root is
    compact iff its index is not in noncompact_roots."""

    marked_simples: frozenset[int]  # 1-based node labels
    noncompact_roots: frozenset[int]


@dataclass(frozen=True)
class HermitianData:
    """Center of k, the split of the noncompact roots it induces, the
    maximal noncompact weights, and the simple system, Weyl group order
    and reflection-group context of K."""

    center_dim: int  # 0 or 1
    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]
    lambda_max_s: tuple[int, ...]
    k_type: str
    kname: str
    k_order: int  # |W(K)|
    # K's one SubsystemContext per case, shared by both search routes;
    # its simples are K's simple roots
    k_context: SubsystemContext = field(compare=False, repr=False)

    @property
    def hermitian(self) -> bool:
        return self.center_dim == 1


def grade_roots(rs: RootSystem, marked: Iterable[int]) -> CompactnessGrading:
    """Grade the roots by the mod-2 sum of their marked coefficients.

    The sum is odd exactly when an odd number of marked nodes carry an
    odd coefficient, so the noncompact roots are the symmetric
    difference, over the marked nodes, of the roots with an odd
    coefficient there (`RootSystem.odd_roots`)."""
    marked = frozenset(marked)
    if not marked:
        raise CompactFormError(
            "empty marking selects the compact real form, which has no flag domains"
        )
    for i in marked:
        if not 1 <= i <= rs.rank:
            raise BadNodeError(f"node {i} outside 1..{rs.rank}")
    odd = rs.odd_roots
    return CompactnessGrading(
        marked_simples=marked,
        noncompact_roots=reduce(xor, [odd[i - 1] for i in marked]),
    )


def hermitian_data(rs: RootSystem, grading: CompactnessGrading) -> HermitianData:
    """Detect Hermitian type and split the noncompact roots.

    K's data is read off the compact positive roots in one pass: their
    context (`SubsystemContext`) finds K's simple roots, proves the
    compact roots reflection-closed by checks on index sets, and gives
    K's Cartan matrix and its components, from which the labels of K's
    components and |W(K)| are read.

    The center of k has two independent routes.  center_dim is the rank
    deficiency of the span of the compact roots, which K's simple system
    spans; a simple system is linearly independent, so it is the rank
    minus the number of K's simples.  Independently, a functional xi is
    read off the Dynkin diagram (`_central_functional`) for every
    marking.  A nonzero xi that kills K's simple roots vanishes on the
    compact span, so center_dim >= 1; when k has a center, xi generates
    it and kills every compact root.  So xi kills K's simple roots
    exactly when center_dim is 1, and a disagreement ends the run as an
    internal inconsistency.  When the check passes, xi is the central
    functional, and the xi-positive noncompact roots form s_plus.
    """
    noncompact = grading.noncompact_roots
    try:
        ctx = SubsystemContext(
            rs, filterfalse(noncompact.__contains__, rs.positive_indices)
        )
        labels = ctx.labels
    except NotClosedError as exc:
        # K's roots, of even marked sum, are always closed: a refusal is a bug
        raise InternalInconsistencyError(str(exc)) from None
    center_dim = rs.rank - len(ctx.simples)
    if center_dim not in (0, 1):
        raise DegenerateGradingError(
            f"compact span has rank deficiency {center_dim}"
        )

    # a is a highest weight of the noncompact module iff a + gamma is no
    # root for each simple root gamma of K: their root vectors generate
    # n_K+, and a + gamma, when a root, is noncompact
    lam_max = highest_weights(rs, noncompact, ctx.simples)

    xi = _central_functional(rs, grading.marked_simples)
    if any(sum(map(mul, rs.roots[g], xi)) for g in ctx.simples) == (center_dim == 1):
        raise InternalInconsistencyError(
            f"compact span has rank deficiency {center_dim}, but the "
            f"diagram functional {'misses' if center_dim else 'kills'} "
            "K's simple roots"
        )

    s_plus = s_minus = ()
    if center_dim == 1:
        # xi on the noncompact roots, one column of coefficients per node
        # it is nonzero on, and each half read off its sign; a marked
        # simple root and its negative are noncompact, so the getter
        # picks at least two and gives a tuple
        order = sorted(noncompact)
        on_order = itemgetter(*order)
        at = [0] * len(order)
        for column, x in zip(rs.columns, xi):
            if x:
                at = list(map(add, at, map(x.__mul__, on_order(column))))
        s_plus = tuple(compress(order, map((0).__lt__, at)))
        s_minus = tuple(compress(order, map((0).__gt__, at)))
        if len(s_plus) + len(s_minus) != len(order):
            raise DegenerateGradingError("central functional kills a noncompact root")
        # rs.roots is sorted, so -roots[a] is roots[last - a]
        last = len(rs.roots) - 1
        if set(s_minus) != set(map(last.__sub__, s_plus)):
            raise InternalInconsistencyError("xi-halves are not opposite")

    return HermitianData(
        center_dim=center_dim,
        s_plus=s_plus,
        s_minus=s_minus,
        lambda_max_s=lam_max,
        k_type="×".join(labels) or "0",
        kname=_real_form_name(rs, grading, center_dim, labels),
        k_order=ctx.order(),
        k_context=ctx,
    )


def highest_weights(
    rs: RootSystem, weights: frozenset[int], k_roots: Iterable[int]
) -> tuple[int, ...]:
    """The roots of the set (by index) to which no root of k_roots can
    be added inside the set, sorted.

    The candidates start as the whole set, and each root gamma of
    k_roots drops those a with a + gamma in the set, read off the sum
    row of gamma; a sum that is no root reads as len(rs.roots), which no
    set holds.  Each pass reads only the candidates left, so the passes
    together read a few times the set, not the whole set once per root
    of k_roots."""
    candidates = weights
    for g in k_roots:
        row = rs.sum_row(g)
        candidates = [a for a in candidates if row[a] not in weights]
    return tuple(sorted(candidates))


def _central_functional(rs, marked) -> Weight:
    """The diagram functional xi on simple-root coordinates,
    xi(v) = sum_i xi_i v_i: 0 on unmarked nodes, +1 on the lowest marked
    node, and a sign that flips each time a walk over the tree from that
    node enters a marked node.

    When k has a center, xi generates it: ad xi is a scalar on each of
    the irreducible K-modules p+ and p-, so xi is +-1 on the noncompact
    roots and 0 on the compact ones.  Unmarked simple roots are compact
    and marked ones noncompact.  The simple roots on the path between two
    marked nodes with no marked node between them sum to a root with two
    marked coefficients, a compact one, so the two nodes take opposite
    signs; the diagram is a tree, so that fixes every sign.
    """
    start = min(marked) - 1
    sign = {start: 1}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in rs.adjacency[i]:
            if j not in sign:
                sign[j] = -sign[i] if j + 1 in marked else sign[i]
                stack.append(j)
    return tuple(sign[i] if i + 1 in marked else 0 for i in range(rs.rank))


def _real_form_name(rs, grading, center_dim, labels) -> str:
    series, n = rs.dynkin.series, rs.dynkin.rank
    cnt = len(rs.roots) - len(grading.noncompact_roots)

    if series == "A":
        for p in range(n, 0, -1):
            q = n + 1 - p
            if p >= q and p * (p - 1) + q * (q - 1) == cnt:
                return f"su({p},{q})"
    elif series == "B":
        for p in range(1, n + 1):
            q = n - p
            if 2 * p * (p - 1) + 2 * q * q == cnt:
                return f"so({2 * p},{2 * q + 1})"
    elif series == "C":
        if center_dim == 1 and cnt == n * (n - 1):
            return f"sp({n},ℝ)"
        for p in range(n - 1, 0, -1):
            q = n - p
            if p >= q and 2 * p * p + 2 * q * q == cnt:
                return f"sp({p},{q})"
    elif series == "D":
        if center_dim == 1:
            if cnt == 2 * (n - 1) * (n - 2):
                return f"so(2,{2 * (n - 1)})"
            if cnt == n * (n - 1):
                return f"so*({2 * n})"
        else:
            for p in range(n - 2, 1, -1):
                q = n - p
                if p >= q and 2 * p * (p - 1) + 2 * q * (q - 1) == cnt:
                    return f"so({2 * p},{2 * q})"
    else:
        key = (series, n, tuple(sorted(labels)), center_dim)
        table = {
            ("G", 2, ("A1", "A1"), 0): "g2(2) (split)",
            ("F", 4, ("B4",), 0): "f4(-20)",
            ("F", 4, ("A1", "C3"), 0): "f4(4) (split)",
            ("E", 6, ("A1", "A5"), 0): "e6(2)",
            ("E", 6, ("D5",), 1): "e6(-14)",
            ("E", 7, ("A7",), 0): "e7(7) (split)",
            ("E", 7, ("A1", "D6"), 0): "e7(-5)",
            ("E", 7, ("E6",), 1): "e7(-25)",
            ("E", 8, ("D8",), 0): "e8(8) (split)",
            ("E", 8, ("A1", "E7"), 0): "e8(-24)",
        }
        if key in table:
            return table[key]

    suffix = "⊕ℝ" if center_dim == 1 else ""
    return f"{series.lower()}{n}({'×'.join(labels) or '0'}{suffix})"
