"""Group-enumeration kernel.

Breadth-first closure of the identity under right multiplication by the
generators, parents scanned in discovery order and generators in
ascending index.  With that order the word read off the parent chain is
the lexicographically least reduced word of each element.

An element w is not stored as a permutation.  The kernel carries only
the images under w^{-1} of a few positions: the child w o g has inverse
g o w^{-1}, so each carried image costs one lookup in g, whatever the
size of the permuted set.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Sequence


def backend_name() -> str:
    """Name of the enumeration kernel; recorded with benchmark runs."""
    return "python"


def reader(positions: tuple[int, ...]):
    """g -> tuple(g[p] for p in positions); an itemgetter (in C) unless
    that would return a bare item instead of a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda g: tuple(g[p] for p in positions)


def enumerate_group(
    gens: Sequence[Sequence[int]],
    key_positions: Sequence[int],
    tracked: Sequence[int],
    cap: int,
) -> tuple[list[tuple[int, ...]], array, array]:
    """Enumerate the permutation group generated by `gens`.

    gens: involutive permutations of range(m) (as equal-length sequences).
    key_positions: positions whose images under w^{-1} already determine
        w (for reflection groups: the indices of the simple roots).
    tracked: further positions whose inverse images the caller reads.
    cap: maximum number of elements before OverflowError is raised.

    Returns (images, parents, genids).  images[k] holds w^{-1}(p) for the
    k-th element w in canonical order (identity first) and each p of
    key_positions followed by tracked; element k was first reached from
    element parents[k] by generator genids[k] (-1 for the identity).
    """
    gens = [tuple(g) for g in gens]
    images = [tuple(key_positions) + tuple(tracked)]
    parents = array("i", [-1])
    genids = array("i", [-1])
    # the key images determine w^{-1}, so the carried tuple is a complete
    # invariant of the element
    seen = set(images)

    idx = 0
    while idx < len(images):
        read = reader(images[idx])
        for j, g in enumerate(gens):
            child = read(g)  # (w o g)^{-1} = g o w^{-1}
            if child not in seen:
                if len(images) >= cap:
                    raise OverflowError(
                        f"group enumeration exceeded cap of {cap} elements"
                    )
                seen.add(child)
                images.append(child)
                parents.append(idx)
                genids.append(j)
        idx += 1
    return images, parents, genids
