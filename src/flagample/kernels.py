"""Group-enumeration kernel.

The reflection group W generated by simple reflections s_0..s_{k-1} is
built as a product of parabolic factors.  Let W_m = <s_0..s_{m-1}>.
Every w in W_m factors uniquely as w = x u with l(w) = l(x) + l(u),
where x is in W_{m-1} and u is a minimal representative of the right
coset W_{m-1} u, i.e. u has no left descent among s_0..s_{m-2}
(Humphreys, *Reflection Groups and Coxeter Groups*, 1.10; Bjorner and
Brenti, *Combinatorics of Coxeter Groups*, 2.4).  So every element is
one product w = u_1 u_2 ... u_k with u_m a representative of level m,
and W_m is one block per representative u of level m, each block being
W_{m-1} multiplied by u on the right.

An element w is not stored as a permutation.  The kernel carries only
the images under w^{-1} of the tracked positions, one byte string per
tracked position with one byte per element, each byte a root index.
Each representative holds u^{-1} as a 256-byte `bytes.translate` table
from birth: the identity's is the table of every byte to itself, and a
new representative u s_j is one translate of u^{-1}'s table through
s_j's, since (u s_j)^{-1} = s_j u^{-1}.  Its bytes at or above n, the
number of roots, are never read, as every column byte is a root index
below n.  Since (x u)^{-1}(p) = u^{-1}(x^{-1}(p)), a whole block is one
translate of the previous level's column through u^{-1}'s table, and a
level's column is one join of its blocks: no per-element Python object
and no hashing.  Lengths are bytes as well, one per element, and a
block's lengths are one translate through the table adding len(u),
one of 256 such tables built at import.  Descents are read off u^{-1}
of the simple roots by index, with no sign: one slice per
representative and one `in` on it per generator
(`_coset_representatives`).

A byte holds an index only below 256, so the kernel refuses a root
system of more than 256 roots with OverflowError, before it builds any
element, as it refuses an element longer than 255.  No case under the
enumeration cap reaches that bound: the smallest types of each
classical series with more than 256 roots are A16, B12, C12 and D12,
every one- and two-node marking of these has |W(K)| of at least
4.79 x 10^8 (checked in the tests), against the default cap of 10^7,
and the smallest |W(K)| of a series only grows with its rank.  E8, the
largest exceptional type, has 240 roots.

Words: the left descents of x u among s_0..s_{m-2} are those of x, and
s_{m-1} has the largest index, so the lexicographically least reduced
word of x u is that of x followed by that of u, and the least word of
w is the concatenation of its factors' least words (`word_of`).  The
representatives are found breadth-first, parents in discovery order and
generators in ascending index, which reaches each along its least word.

Elements are numbered in block order, identity first: element i has
the factors u_m = factors[m - 1][r_m], where r_1, r_2, ... are the
digits of i in the mixed radix of the level sizes, least significant
first.  This is not (length, word) order.
"""

from __future__ import annotations

import math
from typing import Sequence

# one level's coset representatives u, each (least word, u^{-1} as a
# 256-byte translate table of root indices), identity first
Level = tuple[tuple[tuple[int, ...], bytes], ...]

POSITIONS = 256  # root indices that fit in a byte


def backend_name() -> str:
    """Name of the enumeration kernel; recorded with benchmark runs."""
    return "python"


def _table(perm: bytes) -> bytes:
    """perm, a byte string of at most 256 root indices, as a
    `bytes.translate` table: byte p goes to perm[p]."""
    return perm + bytes(POSITIONS - len(perm))


# the identity's table, and _PLUS[s] the table adding s to every byte
# below 256 - s
_BYTES = bytes(range(POSITIONS))
_PLUS = tuple(_BYTES[s:] + bytes(s) for s in range(POSITIONS))


def enumerate_group(
    gens: Sequence[Sequence[int]],
    simple_positions: Sequence[int],
    tracked: Sequence[int],
    cap: int,
) -> tuple[list[bytes], bytes, list[Level]]:
    """Enumerate the reflection group generated by `gens`.

    gens: the simple reflections s_0..s_{k-1} of a root system, as
        permutations of its root indices range(n), n <= 256.
    simple_positions: the index of the simple root of each generator.
    tracked: the positions whose inverse images the caller reads.
    cap: OverflowError is raised iff the group has more elements, before
        any element is built.  So it is, first of all, when n > 256: a
        root index must fit in a byte (see the module docstring).

    Returns (images, lengths, factors), each column and the lengths as
    bytes.  images[j][i] is w^{-1} of tracked[j] for element i,
    lengths[i] is its length, and factors holds each level's coset
    representatives (see the module docstring), from which `word_of`
    and `inverse_images` read any one element.
    """
    if any(len(g) > POSITIONS for g in gens):
        raise OverflowError(f"group enumeration exceeded {POSITIONS} positions")
    gens = [_table(bytes(g)) for g in gens]
    simples = bytes(simple_positions)
    factors = [
        _coset_representatives(gens[:m], simples) for m in range(1, len(gens) + 1)
    ]
    order = math.prod(map(len, factors))
    if order > cap:
        raise OverflowError(f"group enumeration exceeded cap of {cap} elements")
    # lengths are kept one per byte: a Weyl group on at most 256 roots
    # has no element longer than 128, its count of positive roots, but
    # a group acting on 256 of its reflections can
    if sum(len(level[-1][0]) for level in factors) > 255:
        raise OverflowError("group enumeration exceeded element length 255")

    # W_0 = {e} fixes every position
    images = [bytes((p,)) for p in tracked]
    lengths = bytes(1)
    for level in factors:
        # the identity's table first: its block is the previous level
        tables = [u_inv for _, u_inv in level]
        # (x u)^{-1}(p) = u^{-1}(x^{-1}(p))
        images = [b"".join(map(col.translate, tables)) for col in images]
        # + len(word) on every byte; no byte wraps, by the check above
        lengths = b"".join([lengths.translate(_PLUS[len(w)]) for w, _ in level])
    return images, lengths, factors


def _coset_representatives(gens: list[bytes], simples: bytes) -> Level:
    """Minimal representatives u of the right cosets of W_{m-1} in W_m,
    m = len(gens), in breadth-first order from the identity, each as
    (least word, u^{-1}'s table); gens are the generators' translate
    tables.

    A child u s_j has the left descent s_i, i < m - 1, iff
    s_j(u^{-1}(gamma_i)) is negative.  u has none, so each u^{-1}(gamma_i)
    is positive, and s_j keeps every positive root but gamma_j positive
    (Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, 10.2, Lemma B): the child is refused iff u^{-1} sends one of
    gamma_0..gamma_{m-2} to gamma_j, one byte search with no sign.  The
    representatives are closed under dropping the last letter, so each
    is reached from its parent, and first along its least word."""
    m = len(gens)
    steps = tuple(zip(range(m), gens, simples))
    reps = [((), _BYTES)]
    # u^{-1} of the simple roots determines u
    at_simples = [simples]
    seen = {simples}
    for idx, (word, u_inv) in enumerate(reps):  # grows while iterating
        at = at_simples[idx]
        # u^{-1} of gamma_0..gamma_{m-2}
        head = at[: m - 1]
        for j, g, gamma in steps:
            if gamma in head:
                continue
            key = at.translate(g)  # (u s_j)^{-1} = s_j u^{-1}
            if key in seen:
                continue
            seen.add(key)
            at_simples.append(key)
            reps.append((word + (j,), u_inv.translate(g)))
    return tuple(reps)


def _factors_of(factors: Sequence[Level], i: int):
    """The factors u_1, u_2, ... of element i, each (word, u^{-1})."""
    for level in factors:
        i, r = divmod(i, len(level))
        yield level[r]


def word_of(factors: Sequence[Level], i: int) -> tuple[int, ...]:
    """Least reduced word of element i: its factors' words in order."""
    return sum((word for word, _ in _factors_of(factors, i)), ())


def inverse_images(
    factors: Sequence[Level], i: int, positions: Sequence[int]
) -> tuple[int, ...]:
    """w^{-1}(p) for element i = u_1 ... u_k and each p of positions,
    by applying u_1^{-1} first: one translate per factor."""
    out = bytes(positions)
    for _, u_inv in _factors_of(factors, i):
        out = out.translate(u_inv)
    return tuple(out)
