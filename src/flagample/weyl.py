"""Weyl groups of root subsystems: enumeration, lengths, coset maxima.

An element is named by its canonical word, the lexicographically least
reduced word in the simple reflections of the designated subsystem, a
plain tuple of generator positions.  A word (j1, ..., jk) denotes the
composition s_{j1} o s_{j2} o ... o s_{jk} (rightmost applied first).
The enumeration carries w^{-1} of a few roots and the length of each
element, and each element's word is read off its factors (see
`kernels`).  The coset search holds an element w as w(rho) in the
subsystem's weight coordinates and reads its word off that vector.

All lengths are taken with respect to the subsystem: the length of w is
the number of subsystem-positive roots sent to subsystem-negative roots,
which equals the length of any reduced word for w.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from . import kernels
from .dynkin import weyl_order
from .errors import EnumerationCapError, InternalInconsistencyError
from .rootsystem import (
    RootSystem,
    Weight,
    _component_label,
    indecomposables,
    pair,
    require_closed,
    subsystem_orbit,
)

DEFAULT_CAP = 10_000_000

# root index -> (distance, generator that reached it); see coset_orbit
Orbit = dict[int, tuple[int, int]]


class SubsystemContext:
    """Precomputed data for the reflection group of a root subsystem,
    given by the indices of its simple roots."""

    def __init__(self, rs: RootSystem, simples: Iterable[int]):
        self.rs = rs
        self.simples = tuple(sorted(simples))
        # each simple reflection as a permutation of the root indices
        self.gen_perms: tuple[tuple[int, ...], ...] = tuple(
            tuple(rs.reflection_row(g)) for g in self.simples
        )
        # the subsystem's Cartan matrix, each of its roots (by index) with
        # its coordinates in the simple basis and its sign, and each
        # component's simples and positive roots, from one orbit pass
        self.cartan, self.coords, self.sub_sign, self.parts = subsystem_orbit(
            rs, self.simples, self.gen_perms
        )
        self.pos_count = sum(len(positives) for _, positives in self.parts)
        # for each simple i, its Dynkin neighbours j with cartan[j][i] =
        # <gamma_i, gamma_j^vee>, the nonzero off-diagonal entries of
        # column i: s_i changes no other weight coordinate than these and i
        columns = tuple(zip(*self.cartan))
        self.neighbours: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((j, a) for j, a in enumerate(col) if j != i and a)
            for i, col in enumerate(columns)
        )
        self._w0_word: tuple[int, ...] | None = None
        self._labels: tuple[str, ...] | None = None

    @classmethod
    def from_positive_roots(
        cls, rs: RootSystem, positives: Iterable[int]
    ) -> "SubsystemContext":
        """The context of the closed subsystem whose positive roots have
        the indices `positives`: its simple roots by the height pass of
        `indecomposables`, and the closure proof on the orbit the context
        computes anyway.
        NotClosedError if the positives are not the positive half of a
        reflection-closed subsystem."""
        simples, pos = indecomposables(rs, positives)
        ctx = cls(rs, simples)
        require_closed(pos, ctx.coords)
        return ctx

    def labels(self) -> tuple[str, ...]:
        """The labels of the irreducible components, by abstract Dynkin
        type (so a D3 component reports as A3, a C2 as B2), larger rank
        first and then by label; found on first use and kept."""
        if self._labels is None:
            comps = sorted(
                (-len(members), _component_label(self.rs, members, positives))
                for members, positives in self.parts
            )
            self._labels = tuple(label for _, label in comps)
        return self._labels

    def order(self) -> int:
        """|W|, the product of the Weyl group orders of the components."""
        return math.prod(weyl_order(c[0], int(c[1:])) for c in self.labels())

    # Weight coordinates: a weight v of the subsystem is the list p with
    # p_j = <v, gamma_j^vee>, and s_i sends p_j to p_j - p_i cartan[j][i].

    def reflect_weight(self, p: list[int], letters: Iterable[int]) -> None:
        """Apply s_i to the weight coordinates p, in place, for each i of
        letters in turn (the first letter is applied first)."""
        neighbours = self.neighbours
        for i in letters:
            c = p[i]
            p[i] = -c
            for j, a in neighbours[i]:
                p[j] -= c * a

    def walk_down(self, p: list[int]) -> list[int]:
        """Reflect the weight coordinates p, in place, in the first simple
        i with p_i > 0 until there is none; the letters in the order
        applied.  A bitmask holds the positive coordinates: a step on i
        makes p_i negative and only raises the p_j of i's neighbours."""
        neighbours = self.neighbours
        mask = sum(1 << j for j, x in enumerate(p) if x > 0)
        steps: list[int] = []
        for _ in range(self.pos_count + 1):
            if not mask:
                return steps
            i = (mask & -mask).bit_length() - 1
            c = p[i]
            p[i] = -c
            mask ^= 1 << i
            for j, a in neighbours[i]:
                p[j] -= c * a
                if p[j] > 0:
                    mask |= 1 << j
            steps.append(i)
        raise InternalInconsistencyError("weight walk did not terminate")

    @property
    def w0_word(self) -> tuple[int, ...]:
        """A reduced word for the longest element of the subsystem group,
        found by walking 2 rho, the sum of the positive subsystem roots,
        into the antidominant chamber: each step reflects in the first
        simple root gamma_i with <v, gamma_i^vee> > 0 (`walk_down`).

        Every weight coordinate of 2 rho is 2 (Humphreys, *Introduction
        to Lie Algebras and Representation Theory*, 10.2, Lemma B); the
        start is paired once in ambient coordinates and checked against
        that, (2 rho, gamma) = (gamma, gamma), which ties the positive
        system of sub_sign to the pairing."""
        if self._w0_word is None:
            rs = self.rs
            positives = (rs.roots[i] for i, s in self.sub_sign.items() if s > 0)
            two_rho = tuple(map(sum, zip(*positives)))
            if any(
                pair(rs, two_rho, rs.roots[g]) != rs.norms[g] for g in self.simples
            ):
                raise InternalInconsistencyError(
                    "sum of the positive subsystem roots is not 2 on every "
                    "simple coroot"
                )
            steps = self.walk_down([2] * len(self.simples))
            if len(steps) != self.pos_count:
                raise InternalInconsistencyError(
                    "longest-element walk has wrong length"
                )
            # steps[t] is applied first; word order is composition order
            self._w0_word = tuple(reversed(steps))
        return self._w0_word

    def apply_word(self, word: Sequence[int], v: int) -> int:
        """Apply s_{word[0]} o ... o s_{word[-1]} to the root of index v."""
        for i in reversed(word):
            v = self.gen_perms[i][v]
        return v


def _enumerate(
    ctx: SubsystemContext, tracked: Sequence[int], cap: int
) -> tuple[list[list[int]], bytearray, list[kernels.Level]]:
    """The subsystem's group, as `kernels.enumerate_group` gives it: one
    column of w^{-1}(p) per tracked root p (by index), the length of each
    element and the coset representatives it is the product of.  The
    elements come in the kernel's block order, not in (length, word)
    order; `kernels.word_of` reads the canonical word of any one."""
    try:
        return kernels.enumerate_group(
            ctx.gen_perms, ctx.simples, tracked, ctx.sub_sign, cap
        )
    except OverflowError as exc:
        raise EnumerationCapError(str(exc)) from None


def coset_orbit(ctx: SubsystemContext, mu: int) -> Orbit:
    """BFS orbit of w0(mu), for the root of index mu, under the
    subsystem's simple reflections.

    Maps each orbit point v (a root index) to (distance, generator), the
    generator being the one that reached v, so that s_gen(v) is v's
    parent; the start has generator -1.  The generators are involutions,
    so the distance is that of the orbit graph, and for each nu in the
    orbit the elements mapping nu to mu have their unique longest
    element at length len(w0) - dist(nu, w0(mu)): w -> w0^{-1} w is a
    bijection onto the elements u with u(nu) = w0(mu), reversing
    lengths, and these form a coset u Stab(nu) of a reflection subgroup,
    which has a unique element of minimal length (Dyer, "Reflection
    subgroups of Coxeter systems", 1990).  That element does not depend
    on the BFS tree, and the tree path from nu to w0(mu) is one of
    minimal length, so one search per mu gives every nu's coset maximum
    and its witness.
    """
    start = ctx.apply_word(ctx.w0_word, mu)
    out = {start: (0, -1)}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for i, gp in enumerate(ctx.gen_perms):
                w = gp[v]
                if w not in out:
                    out[w] = (d, i)
                    nxt.append(w)
        frontier = nxt
    return out


def _max_length_with_witness(
    ctx: SubsystemContext, mu: int, nu: int, orbit: Orbit
) -> tuple[int, tuple[int, ...]] | None:
    """The longest element mapping the root of index nu to that of index
    mu, as its length and canonical word, from `orbit` =
    coset_orbit(ctx, mu); None when nu is not in it."""
    hit = orbit.get(nu)
    if hit is None:
        return None
    dist, gen = hit
    # walk the BFS tree from nu up to w0(mu): the generators, first
    # applied first, spell the shortest u with u(nu) = w0(mu)
    path: list[int] = []
    v = nu
    while gen >= 0:
        path.append(gen)
        v = ctx.gen_perms[gen][v]
        gen = orbit[v][1]
    length = ctx.pos_count - dist
    # w = w0 o u, held as -w(rho) in weight coordinates: the path letters
    # spell u, then w0's letters are applied, rightmost first
    q = [-1] * len(ctx.simples)
    ctx.reflect_weight(q, path)
    ctx.reflect_weight(q, reversed(ctx.w0_word))
    # i is a left descent of w iff w^{-1}(gamma_i) is negative, iff
    # <w(rho), gamma_i^vee> < 0, iff q_i > 0: stripping the first such i
    # until none is left (`walk_down`) takes the greedy least left
    # descent, which spells the canonical word, and ends at -rho
    word = tuple(ctx.walk_down(q))
    if len(word) != length:
        raise InternalInconsistencyError(
            "coset maximum length mismatch between routes"
        )
    if any(x != -1 for x in q):
        raise InternalInconsistencyError("canonical word does not reduce to rho")
    if ctx.apply_word(word, nu) != mu:
        raise InternalInconsistencyError("witness does not map nu to mu")
    return length, word


def group_order_from_simples(rs: RootSystem, simples: Iterable[Weight]) -> int:
    """Order of the generated reflection group, via the classification of
    the subsystem into irreducible components."""
    return SubsystemContext(rs, map(rs.root_index.__getitem__, simples)).order()
