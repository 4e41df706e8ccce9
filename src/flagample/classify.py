"""Geometric verdict: product over a Hermitian symmetric space versus
pseudoconcave of a computed degree.

The verdict itself is the test a(E) = dim C.  An independent structural
test (k has a center and the parabolic's noncompact part sits inside one
xi-half) must agree.  A disagreement is recorded in cross_check, never
repaired, and the pipeline turns it into an InternalInconsistencyError,
since the two tests are provably equivalent and a mismatch means a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycle import ParabolicData
from .realform import CompactnessGrading, HermitianData
from .snow import AmplenessResult

KIND_PRODUCT = "ProductOverHSS"
KIND_PSEUDOCONCAVE = "Pseudoconcave"

CHECK_PASSED = "passed"
CHECK_FAILED = "failed"


@dataclass(frozen=True)
class Classification:
    kind: str
    concavity_degree: int  # dim C - a(E); 0 in the product case
    cross_check: str
    notes: str


def classify(
    amp: AmplenessResult,
    pd: ParabolicData,
    grading: CompactnessGrading,
    hermitian: HermitianData,
) -> Classification:
    """Classify the flag domain cut out by one pipeline run."""
    product = amp.ampleness == pd.dim_c
    degree = pd.dim_c - amp.ampleness

    q_cap_s = {v for v in pd.q_roots if v in grading.noncompact_roots}
    if hermitian.center_dim == 1:
        in_minus = q_cap_s <= set(hermitian.s_minus)
        in_plus = q_cap_s <= set(hermitian.s_plus)
        direct = in_minus or in_plus
        if in_minus:
            notes = "q cap s contained in s_minus"
        elif in_plus:
            notes = "q cap s contained in s_plus"
        else:
            notes = "q cap s meets both xi-halves"
    else:
        direct = False
        notes = "k has no center"

    return Classification(
        kind=KIND_PRODUCT if product else KIND_PSEUDOCONCAVE,
        concavity_degree=degree,
        cross_check=CHECK_PASSED if direct == product else CHECK_FAILED,
        notes=notes,
    )
