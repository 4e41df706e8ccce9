"""Group-enumeration kernel.

Breadth-first closure of the identity under right multiplication by the
generators, parents scanned in discovery order and generators in
ascending index.  With that order the word read off the parent chain is
the lexicographically least reduced word of each element.
"""

from __future__ import annotations

from array import array
from typing import Sequence


def backend_name() -> str:
    """Name of the enumeration kernel; recorded with benchmark runs."""
    return "python"


def enumerate_group(
    gens: Sequence[Sequence[int]],
    key_positions: Sequence[int],
    cap: int,
) -> tuple[array, array, array]:
    """Enumerate the permutation group generated by `gens`.

    gens: involutive permutations of range(m) (as equal-length sequences).
    key_positions: positions whose images already determine an element
        (for reflection groups: the indices of the simple roots).
    cap: maximum number of elements before OverflowError is raised.

    Returns (perms, parents, genids): perms is a flat int array of length
    N*m holding one permutation per element in canonical order (identity
    first); element k was first reached from element parents[k] by
    generator genids[k] (-1 for the identity).
    """
    if not gens:
        raise ValueError("need at least one generator (or handle identity upstream)")
    m = len(gens[0])
    gens = [tuple(g) for g in gens]
    keyp = tuple(key_positions)

    identity = tuple(range(m))
    flat = array("i", identity)
    parents = array("i", [-1])
    genids = array("i", [-1])
    seen = {tuple(identity[p] for p in keyp)}

    lo, hi = 0, 1
    count = 1
    while lo < hi:
        for idx in range(lo, hi):
            base = flat[idx * m : (idx + 1) * m]
            for j, g in enumerate(gens):
                child = tuple(base[x] for x in g)  # base o g
                key = tuple(child[p] for p in keyp)
                if key not in seen:
                    count += 1
                    if count > cap:
                        raise OverflowError(
                            f"group enumeration exceeded cap of {cap} elements"
                        )
                    seen.add(key)
                    flat.extend(child)
                    parents.append(idx)
                    genids.append(j)
        lo, hi = hi, count
    return flat, parents, genids
