"""Workload definitions: seeded case lists and the outputs they must match.

Nothing here imports flagample, so the runner can read the workload table
before the package is importable.  A case is (type label, marking, levi)
with 1-based node tuples; a sweep unit is a type label whose whole
`table --format json` output is one request.

Every workload is a closed loop over a fixed cycle of units.  The cycle is
stratified, so that every seed puts the same number of cases of each kind
of work into it and only the choice within a kind depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Tail percentiles a run may report; the highest one that leaves at least
# TAIL_BEYOND samples beyond it is used, capped by the workload's own.
PERCENTILES = (50, 75, 90, 95, 99)
TAIL_BEYOND = 10

# Degeneracies a table row may report as its status without being a failure.
EXPECTED_STATUSES = frozenset({"EmptyFiber", "NotProper", "CompactForm"})


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cases" (run_case per unit) or "tables" (cli table per unit)
    types: tuple[str, ...]  # root systems built during set-up
    tail_pct: int  # highest tail percentile this workload reports
    verify: bool = False

    @property
    def min_cases(self) -> int:
        """Samples needed to report tail_pct with TAIL_BEYOND beyond it."""
        return -(-TAIL_BEYOND * 100 // (100 - self.tail_pct))


# Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-cases", "cases", ("E8", "E7", "A14", "D8", "A12"), 75),
        Workload("sweep", "tables", ("F4", "A4", "B4", "C4", "D4"), 99),
        Workload("oracle", "cases", ("E6", "B6", "C6", "D6"), 75, verify=True),
    )
}

# ROADMAP anchors for large-cases: (type, marking, levi).
ANCHORS = (("E7", (7,), ()), ("E8", (1,), ()), ("A14", (1, 8), (2, 3)))

# Seeded draws per cycle of large-cases: E7 and D8 cost ~0.5 s a case,
# E8 and A12 ~2 s, so the cheap kinds outnumber the dear ones and the
# median case stays inside one kind.  With the anchors a cycle holds 40
# cases, enough for the 75th percentile.
LARGE_DRAWS = (("E7", 17), ("D8", 18), ("E8", 1), ("A12", 1))

# oracle strata: every marking of one or two nodes of the rank-6 types,
# grouped by the type of K (all have |W(K)| <= 23040).  Each cycle draws
# ORACLE_PER_STRATUM markings from each group, so the cost mix is fixed
# and the largest group, D6 in B6, is in every cycle; 16 groups times 3
# gives 48 cases, enough for the 75th percentile.
ORACLE_STRATA = {
    "E6": {
        "D5": [(1,), (6,), (1, 2), (1, 3), (1, 6), (2, 3), (2, 5), (2, 6),
               (3, 4), (3, 5), (4, 5), (5, 6)],
        "A5×A1": [(2,), (3,), (4,), (5,), (1, 4), (1, 5), (2, 4), (3, 6),
                  (4, 6)],
    },
    "B6": {
        "B5": [(1,), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
        "B4×A1×A1": [(2,), (1, 3), (2, 4), (3, 5), (4, 6)],
        "A3×B3": [(3,), (1, 4), (2, 5), (3, 6)],
        "D4×B2": [(4,), (1, 5), (2, 6)],
        "D5×A1": [(5,), (1, 6)],
        "D6": [(6,)],
    },
    "C6": {
        "C5×A1": [(1,), (5,), (1, 2), (2, 3), (3, 4), (4, 5)],
        "C4×B2": [(2,), (4,), (1, 3), (1, 5), (2, 4), (3, 5)],
        "C3×C3": [(3,), (1, 4), (2, 5)],
        "A5": [(6,), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)],
    },
    "D6": {
        "D5": [(1,), (1, 2), (2, 3), (3, 4), (5, 6)],
        "D4×A1×A1": [(2,), (4,), (1, 3), (2, 4)],
        "A3×A3": [(3,), (1, 4)],
        "A5": [(5,), (6,), (1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6),
               (4, 5), (4, 6)],
    },
}
ORACLE_PER_STRATUM = 3

SWEEP_FIXED = "F4"
SWEEP_DRAWN = ("A4", "B4", "C4", "D4")

# SHA-256 of the stdout of `flagample table --type T --format json`.
TABLE_DIGESTS = {
    "A4": "7d3a8b3598b86408f1fa43dea976a7c6bc99459dab0104020b1884669ce7c772",
    "B4": "0e6b22a69eab027fe3a549597daba0a3c61acded72831c7bb5ec9221e4337695",
    "C4": "24aaa790c02201c3b72b20a18e04967f902cd4f6fb4e8ba4a6b30731e43a2567",
    "D4": "a8d6ef547abde1144638c8992efe5483e790b5d84534e13dc208da4bd571bb87",
    "F4": "1e852026f54caef351d914fd4dd08569d4a88337326b300f7942506786cce8ee",
}

# SHA-256 of json.dumps(report.to_json_dict(), sort_keys=True) per anchor.
ANCHOR_DIGESTS = {
    ("E7", (7,), ()): "b35c483d75af594e95eb2c8baac42731444bc772304cc08cafa259a4246119a0",
    ("E8", (1,), ()): "ee515d5909819401218f530649940780b2ea24271a5f6592f4978bface97f310",
    ("A14", (1, 8), (2, 3)): "a19129f4615a653ce77d8c97ef3bd49bee8a9687579593f5b9da802c3019351d",
}


def rank_of(label: str) -> int:
    return int(label[1:])


def _draw_case(rng: random.Random, label: str, marking=None):
    """One case of a type: a marking of one or two nodes unless given, and
    a Levi set drawn from the other nodes.  Keeping the Levi set off the
    marked nodes keeps every marked simple root in the fiber, so no draw
    is degenerate; one or two marked nodes keep k's center at most 1."""
    nodes = range(1, rank_of(label) + 1)
    if marking is None:
        marking = tuple(sorted(rng.sample(nodes, rng.choice((1, 2)))))
    levi = tuple(i for i in nodes if i not in marking and rng.random() < 0.5)
    return (label, tuple(marking), levi)


def _interleave(groups):
    """Round-robin over lists of unequal length."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def large_cycle(seed: int):
    """Anchors E7 {7} and E8 {1}, one draw of each type, the A14 anchor,
    then the remaining draws alternating."""
    rng = random.Random(seed)
    draws = [[_draw_case(rng, t) for _ in range(n)] for t, n in LARGE_DRAWS]
    firsts = [g[0] for g in draws]
    rest = _interleave([g[1:] for g in draws])
    return list(ANCHORS[:2]) + firsts + [ANCHORS[2]] + rest


def oracle_cycle(seed: int):
    """ORACLE_PER_STRATUM draws per (type, K) stratum, one round of all
    strata after another."""
    rng = random.Random(seed)
    strata = [
        [_draw_case(rng, label, rng.choice(markings))
         for _ in range(ORACLE_PER_STRATUM)]
        for label, by_k in ORACLE_STRATA.items()
        for markings in by_k.values()
    ]
    return _interleave(strata)


def sweep_cycle(seed: int):
    """The drawn rank-4 type first, then F4, then the other three."""
    order = list(SWEEP_DRAWN)
    random.Random(seed).shuffle(order)
    return [order[0], SWEEP_FIXED] + order[1:]


def cycle(workload: str, seed: int):
    return {"large-cases": large_cycle, "oracle": oracle_cycle,
            "sweep": sweep_cycle}[workload](seed)


def count_units(workload: str, seed: int):
    """The fixed prefix of the cycle that the count-only pass runs: one
    case of every kind, or the drawn table."""
    units = cycle(workload, seed)
    size = {"large-cases": 2 + len(LARGE_DRAWS),
            "oracle": sum(len(v) for v in ORACLE_STRATA.values()),
            "sweep": 1}[workload]
    return units[:size]


def table_cases(label: str) -> int:
    """Rows of a full table: nonempty markings times proper Levi sets."""
    return (2 ** rank_of(label) - 1) ** 2
