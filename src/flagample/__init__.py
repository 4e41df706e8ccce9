"""Ampleness of normal bundles of base cycles in flag domains.

Exact root-theoretic pipeline: build a root system, grade it by an inner
real form, cut out the base cycle of a flag domain, and compute the
ampleness of its normal bundle by length maximization over the Weyl
group of K, classifying the domain as a product over a Hermitian
symmetric space or as pseudoconcave of degree dim C - a(E).
"""

from .classify import Classification, classify
from .cycle import ParabolicData, neutral_fiber, parabolic_data
from .dynkin import DynkinType, parse_type
from .errors import (
    BadInputError,
    DegenerateGeometryError,
    FlagampleError,
    InternalInconsistencyError,
)
from .kernels import backend_name
from .pipeline import CaseSpec, Report, run_case, run_table
from .realform import (
    CompactnessGrading,
    HermitianData,
    grade_roots,
    hermitian_data,
)
from .rootsystem import (
    RootSystem,
    build_root_system,
    pair,
    reflect,
)
from .snow import (
    AmplenessInput,
    AmplenessResult,
    ampleness,
    assemble_input,
    max_weyl_length_bruteforce,
    max_weyl_length_fast,
)
from .weyl import DEFAULT_CAP

__version__ = "0.1.0"

__all__ = [
    "AmplenessInput",
    "AmplenessResult",
    "BadInputError",
    "CaseSpec",
    "Classification",
    "CompactnessGrading",
    "DEFAULT_CAP",
    "DegenerateGeometryError",
    "DynkinType",
    "FlagampleError",
    "HermitianData",
    "InternalInconsistencyError",
    "ParabolicData",
    "Report",
    "RootSystem",
    "ampleness",
    "assemble_input",
    "backend_name",
    "build_root_system",
    "classify",
    "grade_roots",
    "hermitian_data",
    "max_weyl_length_bruteforce",
    "max_weyl_length_fast",
    "neutral_fiber",
    "pair",
    "parabolic_data",
    "parse_type",
    "reflect",
    "run_case",
    "run_table",
]
