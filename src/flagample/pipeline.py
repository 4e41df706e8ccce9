"""Full pipeline from a (type, marking, levi) triple to a report, plus
the batch sweep over all cases of a type."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Iterable

from .classify import classify
from .cycle import neutral_fiber, parabolic_data
from .dynkin import DynkinType, diagram_automorphisms
from .errors import DegenerateGeometryError, EnumerationCapError, InvalidTypeError
from .realform import grade_roots, hermitian_data
from .rootsystem import build_root_system
from .snow import ampleness, assemble_input
from .weyl import DEFAULT_CAP

# a rank-n table has (2^n - 1)^2 cases, built as a list before any runs:
# E8's 65,025 are accepted, A9's 261,121 are not
MAX_TABLE_RANK = 8


@dataclass(frozen=True)
class CaseSpec:
    """One pipeline input, and the one place it is held: the node sets
    are given as any iterables of 1-based nodes and stored sorted and
    without repeats, so equal cases compare, hash and report alike."""

    dynkin: DynkinType
    noncompact: tuple[int, ...]
    levi: tuple[int, ...] = ()
    method: str = "auto"
    verify: bool = False
    max_weyl: int = DEFAULT_CAP

    def __post_init__(self):
        # frozen: the normal form is written past the dataclass's guard
        object.__setattr__(self, "noncompact", tuple(sorted(set(self.noncompact))))
        object.__setattr__(self, "levi", tuple(sorted(set(self.levi))))


@dataclass(frozen=True)
class Report:
    """Flat record of everything one run produced, with the case it ran."""

    spec: CaseSpec
    realform_name: str
    k_type: str
    center_dim: int
    hermitian: bool
    dim_z: int
    dim_c: int
    rank_e: int
    e0_weights: tuple[tuple[int, ...], ...]
    max_weights: tuple[tuple[int, ...], ...]
    k_simples: tuple[tuple[int, ...], ...]
    w0_max_length: int
    witness_word: tuple[int, ...]  # 0-based indices into k_simples
    levi_correction: int
    ampleness: int
    kind: str
    concavity_degree: int
    # `classify` raises on a failed structural test, so every report
    # has passed it
    cross_check: ClassVar[str] = "passed"
    notes: str
    k_order: int  # |W(K)|
    routes: tuple[str, ...]  # search routes that ran, primary first

    def to_json_dict(self) -> dict:
        """Stable JSON schema; lists of coordinate vectors for weights,
        1-based generator indices for the witness word.  k_order and
        routes are not part of it."""
        return {
            "input": input_block(self.spec),
            "realform": {
                "name": self.realform_name,
                "k_type": self.k_type,
                "center_dim": self.center_dim,
                "hermitian": self.hermitian,
            },
            "dims": {
                "dim_Z": self.dim_z,
                "dim_C": self.dim_c,
                "rank_E": self.rank_e,
            },
            "weights": {
                "E0": [list(w) for w in self.e0_weights],
                "lambda_max": [list(w) for w in self.max_weights],
            },
            "snow": {
                "w0_max_length": self.w0_max_length,
                "witness_word": [i + 1 for i in self.witness_word],
                "levi_correction": self.levi_correction,
                "ampleness": self.ampleness,
            },
            "classification": {
                "kind": self.kind,
                "concavity_degree": self.concavity_degree,
                "cross_check": self.cross_check,
            },
        }


def input_block(spec: CaseSpec) -> dict:
    """The `input` block of the JSON schema, read off the spec; reports
    and the rows `table` writes build it when they are rendered."""
    return {
        "series": spec.dynkin.series,
        "rank": spec.dynkin.rank,
        "noncompact": list(spec.noncompact),
        "levi": list(spec.levi),
    }


@lru_cache(maxsize=None)
def _root_system(series: str, rank: int):
    return build_root_system(DynkinType(series, rank))


def run_case(spec: CaseSpec) -> Report:
    """Run the whole pipeline for one case; the report turns root
    indices into coordinates."""
    rs = _root_system(spec.dynkin.series, spec.dynkin.rank)
    grading = grade_roots(rs, spec.noncompact)
    herm = hermitian_data(rs, grading)
    pd = parabolic_data(rs, grading, spec.levi)
    fiber = neutral_fiber(pd, grading)
    inp = assemble_input(rs, herm, pd, fiber)
    amp = ampleness(inp, method=spec.method, verify=spec.verify, cap=spec.max_weyl)
    cls = classify(amp, pd, herm)
    return Report(
        spec=spec,
        realform_name=herm.kname,
        k_type=herm.k_type,
        center_dim=herm.center_dim,
        hermitian=herm.hermitian,
        dim_z=pd.dim_z,
        dim_c=pd.dim_c,
        rank_e=len(fiber),
        e0_weights=tuple(map(rs.roots.__getitem__, fiber)),
        max_weights=tuple(map(rs.roots.__getitem__, inp.max_weights)),
        k_simples=tuple(map(rs.roots.__getitem__, herm.k_context.simples)),
        w0_max_length=amp.max_length,
        witness_word=amp.witness,
        levi_correction=pd.levi_correction,
        ampleness=amp.ampleness,
        kind=cls.kind,
        concavity_degree=cls.concavity_degree,
        notes=cls.notes,
        k_order=herm.k_order,
        routes=amp.routes,
    )


def sweep_cases(dynkin: DynkinType, dedupe: bool = False):
    """All (marking, levi) pairs of a type, lexicographically ordered.

    Markings are the nonempty node subsets, levis the proper ones; with
    dedupe, only the representative least under the diagram automorphism
    group is kept."""
    n = dynkin.rank
    nodes = range(1, n + 1)
    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(nodes, k) for k in range(n + 1)
        )
    )
    markings = [s for s in subsets if s]
    levis = [s for s in subsets if len(s) < n]
    cases = [(m, l) for m in markings for l in levis]
    if dedupe:
        autos = diagram_automorphisms(dynkin)
        keep = []
        for m, l in cases:
            canon = min(
                (
                    tuple(sorted(sigma[i - 1] + 1 for i in m)),
                    tuple(sorted(sigma[i - 1] + 1 for i in l)),
                )
                for sigma in autos
            )
            if (m, l) == canon:
                keep.append((m, l))
        cases = keep
    return cases


def _status_tag(exc: Exception) -> str:
    name = type(exc).__name__
    return name[:-5] if name.endswith("Error") else name


def _table_rows(specs: Iterable[CaseSpec]) -> list[dict]:
    """The table rows of the cases, in order, each {spec, status,
    report}; a pool task is one marking's cases."""
    rows = []
    for spec in specs:
        try:
            report, status = run_case(spec), "ok"
        except (DegenerateGeometryError, EnumerationCapError) as exc:
            # a degenerate cell or a budget overrun flags its row; the
            # rest of the sweep still runs
            report, status = None, _status_tag(exc)
        rows.append({"spec": spec, "status": status, "report": report})
    return rows


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask
    where the platform has one, else the host's CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def run_table(
    dynkin: DynkinType,
    method: str = "auto",
    verify: bool = False,
    max_weyl: int = DEFAULT_CAP,
    dedupe: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Evaluate every case of a type; rows come back in case order
    regardless of parallelism.  The pool never exceeds the CPUs this
    process may use or the markings with a case.  A rank above
    MAX_TABLE_RANK is refused before any case is built."""
    if dynkin.rank > MAX_TABLE_RANK:
        raise InvalidTypeError(
            f"table rank {dynkin.rank} out of bounds (1..{MAX_TABLE_RANK}): "
            f"a rank-n table has (2^n - 1)^2 cases"
        )
    cases = sweep_cases(dynkin, dedupe=dedupe)
    jobs = min(jobs, _usable_cpus(), len({m for m, _ in cases}))
    # no list of specs is kept: each is built as it runs, or as the pool
    # takes its task, and then held by its row alone
    specs = (CaseSpec(dynkin, m, l, method, verify, max_weyl) for m, l in cases)
    if jobs <= 1:
        return _table_rows(specs)
    # a task per marking, not per case: handing one case over costs more
    # than running it; sweep order keeps each marking's cases together
    tasks = (
        list(group)
        for _, group in itertools.groupby(specs, key=lambda s: s.noncompact)
    )
    # the pool machinery costs start-up time and memory: import on demand
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(itertools.chain.from_iterable(pool.map(_table_rows, tasks)))
