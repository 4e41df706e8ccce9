"""The parabolic, the flag manifold Z, the base cycle C, and the neutral
fiber of the cycle's normal bundle.

Conventions: the parabolic subalgebra contains the negative Borel and the
Levi factor generated by the chosen nodes, so the tangent weights of Z at
the base point are the positive roots outside the Levi span.  In the
equal-rank case the Cartan involution preserves every root space, hence
preserves the parabolic, and the neutral fiber of the normal bundle is
the quotient of the (-1)-eigenspace by its intersection with the
parabolic; its weights are the noncompact tangent weights.  Weights
are roots, named by their index in the sorted `RootSystem.roots`.
The roots of q are the negative roots and the Levi span's positive ones,
so the roots split as q and the tangent weights, disjointly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .errors import BadNodeError, EmptyFiberError, NotProperError
from .realform import CompactnessGrading
from .rootsystem import RootSystem


@dataclass(frozen=True)
class ParabolicData:
    """Root data of the parabolic and the dimensions it determines."""

    tangent_weights: tuple[int, ...]  # positive roots outside the Levi span
    dim_z: int
    dim_c: int
    levi_correction: int  # dim P - dim B for P = K cap Q, B a Borel of K


def parabolic_data(
    rs: RootSystem, grading: CompactnessGrading, levi_nodes: Iterable[int]
) -> ParabolicData:
    """Build the parabolic determined by the Levi nodes.  The Levi
    correction, the number of compact positive roots of the Levi span,
    is |Phi_K+| - dim C: a compact positive root is tangent or in the
    Levi span, and dim C counts the compact tangent ones."""
    levi = frozenset(levi_nodes)
    for i in levi:
        if not 1 <= i <= rs.rank:
            raise BadNodeError(f"node {i} outside 1..{rs.rank}")
    if len(levi) == rs.rank:
        raise NotProperError("levi nodes cover the whole diagram; Z is a point")

    # a positive root lies in the Levi span iff its support does
    outside_levi = ~sum(1 << (i - 1) for i in levi)
    tangent = tuple(
        compress(rs.positive_indices, map(outside_levi.__and__, rs.support_masks))
    )
    noncompact = grading.noncompact_roots
    dim_c = len(tangent) - len(noncompact.intersection(tangent))
    # the noncompact roots are closed under negation, so half are positive
    k_positive = len(rs.positive_roots) - len(noncompact) // 2
    return ParabolicData(
        tangent_weights=tangent,
        dim_z=len(tangent),
        dim_c=dim_c,
        levi_correction=k_positive - dim_c,
    )


def neutral_fiber(
    pd: ParabolicData, grading: CompactnessGrading
) -> tuple[int, ...]:
    """Weights of the neutral fiber: the noncompact tangent weights, in
    sorted order.  They are multiplicity-free, so rank E is their
    number."""
    weights = tuple(filter(grading.noncompact_roots.__contains__, pd.tangent_weights))
    if not weights:
        raise EmptyFiberError(
            "no noncompact root outside the Levi span: the cycle fills Z "
            "and there is no flag-domain geometry to classify"
        )
    return weights
