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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import BadNodeError, EmptyFiberError, NotProperError
from .realform import CompactnessGrading
from .rootsystem import RootSystem


@dataclass(frozen=True)
class ParabolicData:
    """Root data of the parabolic and the dimensions it determines."""

    levi_nodes: frozenset[int]  # 1-based
    q_roots: tuple[int, ...]
    tangent_weights: tuple[int, ...]  # positive roots outside the Levi span
    dim_z: int
    dim_c: int
    levi_correction: int  # dim P - dim B for P = K cap Q, B a Borel of K


@dataclass(frozen=True)
class NeutralFiber:
    """Weight multiset of the neutral fiber; multiplicity-free, so a
    sorted tuple."""

    weights: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.weights)


def parabolic_data(
    rs: RootSystem, grading: CompactnessGrading, levi_nodes: Iterable[int]
) -> ParabolicData:
    """Build the parabolic determined by the Levi nodes."""
    levi = frozenset(levi_nodes)
    for i in levi:
        if not 1 <= i <= rs.rank:
            raise BadNodeError(f"node {i} outside 1..{rs.rank}")
    if len(levi) == rs.rank:
        raise NotProperError("levi nodes cover the whole diagram; Z is a point")

    # a positive root lies in the Levi span iff its support does
    levi_mask = sum(1 << (i - 1) for i in levi)
    in_levi, tangent = [], []
    for v, mask in zip(rs.positive_indices, rs.support_masks):
        (in_levi if mask & ~levi_mask == 0 else tangent).append(v)
    # the negative roots are the ones before the positive ones
    q_roots = tuple(range(rs.positive_indices.start)) + tuple(in_levi)
    noncompact = grading.noncompact_roots
    dim_c = sum(1 for v in tangent if v not in noncompact)
    levi_correction = sum(1 for v in in_levi if v not in noncompact)
    return ParabolicData(
        levi_nodes=levi,
        q_roots=q_roots,
        tangent_weights=tuple(tangent),
        dim_z=len(tangent),
        dim_c=dim_c,
        levi_correction=levi_correction,
    )


def neutral_fiber(pd: ParabolicData, grading: CompactnessGrading) -> NeutralFiber:
    """Weights of the neutral fiber: the noncompact tangent weights."""
    weights = tuple(
        v for v in pd.tangent_weights if v in grading.noncompact_roots
    )
    if not weights:
        raise EmptyFiberError(
            "no noncompact root outside the Levi span: the cycle fills Z "
            "and there is no flag-domain geometry to classify"
        )
    return NeutralFiber(weights=weights)
