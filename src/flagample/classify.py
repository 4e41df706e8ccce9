"""Geometric verdict: product over a Hermitian symmetric space versus
pseudoconcave of a computed degree.

The verdict itself is the test a(E) = dim C.  An independent structural
test (k has a center and q cap p+ = 0, p+ the xi-positive half s_plus)
must agree.  A disagreement is never repaired: the two tests
are provably equivalent, so a mismatch means a bug, and `classify`
raises InternalInconsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycle import ParabolicData
from .errors import InternalInconsistencyError
from .realform import HermitianData
from .snow import AmplenessResult

KIND_PRODUCT = "ProductOverHSS"
KIND_PSEUDOCONCAVE = "Pseudoconcave"


@dataclass(frozen=True)
class Classification:
    kind: str
    concavity_degree: int  # dim C - a(E); 0 in the product case
    notes: str


def classify(
    amp: AmplenessResult,
    pd: ParabolicData,
    hermitian: HermitianData,
) -> Classification:
    """Classify the flag domain cut out by one pipeline run, after
    checking the verdict against the structural test."""
    kind = KIND_PRODUCT if amp.ampleness == pd.dim_c else KIND_PSEUDOCONCAVE

    if hermitian.center_dim == 1:
        # q cap s lies in s_minus iff q misses s_plus (s is s_plus and
        # s_minus) iff s_plus lies in the tangent weights (the roots are q
        # and them): q cap p+ = 0.  It never lies in s_plus: q holds -a_m
        # for the lowest marked node m, noncompact with xi(-a_m) = -1
        direct = set(pd.tangent_weights).issuperset(hermitian.s_plus)
        if direct:
            notes = "q cap s contained in s_minus"
        else:
            notes = "q cap s meets both xi-halves"
    else:
        direct = False
        notes = "k has no center"
    if direct != (kind == KIND_PRODUCT):
        raise InternalInconsistencyError(
            f"verdict {kind} disagrees with the structural test ({notes})"
        )

    return Classification(
        kind=kind,
        concavity_degree=pd.dim_c - amp.ampleness,
        notes=notes,
    )
