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
from functools import cached_property
from typing import Iterable, Sequence

from . import kernels
from .dynkin import weyl_order
from .errors import EnumerationCapError, InternalInconsistencyError, NotClosedError
from .rootsystem import RootSystem, Weight, _component_label, closed_subsystem, pair

DEFAULT_CAP = 10_000_000

# root index -> its distance from w0(mu); see coset_orbit
Orbit = dict[int, int]


class SubsystemContext:
    """Precomputed data for the reflection group of a closed root
    subsystem, given by the indices of its positive roots.  The data is
    read off those roots in one pass (`closed_subsystem`): every entry
    of the reflection rows it reads was proven when the root system
    built the row, so per context only closure and descent are checked,
    on index sets, and the same pass fills the Cartan matrix, the
    Dynkin neighbour lists and the components.  The positive roots are
    ambient-positive, so the subsystem's positive system is the ambient
    one cut down to it, and neither search reads a sign: a simple
    reflection keeps every positive root but its own positive, so
    descents are read off the simple roots by index."""

    def __init__(self, rs: RootSystem, positives: Iterable[int]):
        """NotClosedError unless the positives are the positive half of a
        reflection-closed subsystem (`closed_subsystem`)."""
        self.rs = rs
        self.positives: tuple[int, ...] = tuple(sorted(set(positives)))
        self.pos_count = len(self.positives)
        # the simple roots, each simple reflection as a permutation of
        # the root indices, the Cartan matrix, for each simple i its
        # Dynkin neighbours j with cartan[j][i] = <gamma_i, gamma_j^vee>
        # (s_i changes no other weight coordinate than these and i), and
        # each component's simples and positive roots, from one pass
        self.simples: tuple[int, ...]
        self.gen_perms: tuple[tuple[int, ...], ...]
        self.neighbours: tuple[tuple[tuple[int, int], ...], ...]
        (
            self.simples,
            self.gen_perms,
            self.cartan,
            self.neighbours,
            self.parts,
        ) = closed_subsystem(rs, self.positives)

    @classmethod
    def from_simples(cls, rs: RootSystem, simples: Iterable[int]) -> "SubsystemContext":
        """The context of the group generated by the reflections in the
        roots of index `simples`: the positive roots of their orbit under
        those reflections, which is reflection-closed.  NotClosedError
        unless the roots are that orbit's simple roots."""
        simples = tuple(simples)
        rows = [rs.reflection_row(g) for g in simples]
        orbit: set[int] = set()
        frontier = set(simples)
        while frontier:
            orbit |= frontier
            frontier = set().union(*(map(row.__getitem__, frontier) for row in rows))
            frontier -= orbit
        ctx = cls(rs, orbit.intersection(rs.positive_indices))
        if ctx.simples != tuple(sorted(simples)):
            raise NotClosedError(
                "the roots are not the simple roots of the group they generate"
            )
        return ctx

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The labels of the irreducible components, by abstract Dynkin
        type (so a D3 component reports as A3, a C2 as B2), larger rank
        first and then by label."""
        comps = sorted(
            (-len(members), _component_label(self.rs, members, positives))
            for members, positives in self.parts
        )
        return tuple(label for _, label in comps)

    def order(self) -> int:
        """|W|, the product of the Weyl group orders of the components."""
        return math.prod(weyl_order(c[0], int(c[1:])) for c in self.labels)

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

    @cached_property
    def _longest(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """w0's word and its opposition involution, from one walk; see
        `w0_word`."""
        rs = self.rs
        two_rho = tuple(map(sum, zip(*map(rs.roots.__getitem__, self.positives))))
        # the simple root first: pair sums over its nonzero coordinates
        if any(pair(rs, rs.roots[g], two_rho) != rs.norms[g] for g in self.simples):
            raise InternalInconsistencyError(
                "sum of the positive subsystem roots is not 2 on every "
                "simple coroot"
            )
        k = len(self.simples)
        end = list(range(2 * k, 3 * k))
        steps = self.walk_down(end)
        if len(steps) != self.pos_count:
            raise InternalInconsistencyError("longest-element walk has wrong length")
        iota = tuple(-x - 2 * k for x in end)
        if not all(0 <= i < k for i in iota) or any(
            iota[i] != j for j, i in enumerate(iota)
        ):
            raise InternalInconsistencyError(
                "longest-element walk does not end at an opposition involution"
            )
        # steps[t] is applied first; word order is composition order
        return tuple(reversed(steps)), iota

    @property
    def w0_word(self) -> tuple[int, ...]:
        """A reduced word for the longest element w0 of the subsystem
        group, found by walking a regular dominant weight into the
        antidominant chamber: each step reflects in the first simple root
        gamma_i with <v, gamma_i^vee> > 0 (`walk_down`).

        The walk starts at k 2 rho + delta, for k the rank, 2 rho the sum
        of the positive subsystem roots and delta the weight with
        coordinates 0, ..., k - 1: its coordinates are 2k + j.  Every
        weight coordinate of 2 rho is 2 (Humphreys, *Introduction to Lie
        Algebras and Representation Theory*, 10.2, Lemma B); the sum is
        paired once in ambient coordinates and checked against that,
        (2 rho, gamma) = (gamma, gamma), which ties the positive roots
        held to the pairing.  The letters are those of the walk from
        2 rho: after a prefix w, coordinate j is read on the coroot
        beta^vee = w^{-1} gamma_j^vee, where 2 rho pairs to 2 ht(beta^vee)
        and delta to at most (k - 1) |ht(beta^vee)| in absolute value,
        so the start pairs with the sign of 2 rho, never 0."""
        return self._longest[0]

    @property
    def opposition(self) -> tuple[int, ...]:
        """The opposition involution iota of the simple roots, w0(gamma_i)
        = -gamma_{iota(i)}, read off the end of the walk that finds w0
        (`w0_word`): <w0 x, gamma_j^vee> = -<x, gamma_{iota(j)}^vee>, so
        the walk from coordinates 2k + j ends at -2k - iota(j) (Humphreys,
        *Reflection Groups and Coxeter Groups*, 1.8).  The walk is checked
        to end at an involution of the positions."""
        return self._longest[1]

    def apply_word(self, word: Sequence[int], v: int) -> int:
        """Apply s_{word[0]} o ... o s_{word[-1]} to the root of index v."""
        for i in reversed(word):
            v = self.gen_perms[i][v]
        return v


def _enumerate(
    ctx: SubsystemContext, tracked: Sequence[int], cap: int
) -> tuple[list[bytes], bytes, list[kernels.Level]]:
    """The subsystem's group, as `kernels.enumerate_group` gives it: one
    column of w^{-1}(p) per tracked root p (by index), the length of each
    element and the coset representatives it is the product of.  The
    elements come in the kernel's block order, not in (length, word)
    order; `kernels.word_of` reads the canonical word of any one."""
    try:
        return kernels.enumerate_group(ctx.gen_perms, ctx.simples, tracked, cap)
    except OverflowError as exc:
        raise EnumerationCapError(str(exc)) from None


def coset_orbit(
    ctx: SubsystemContext, mu: int, stop: frozenset[int] = frozenset()
) -> Orbit:
    """BFS orbit of w0(mu), for the root of index mu, under the
    subsystem's simple reflections, cut after the first level that holds
    a root of `stop` (by index); with no such level, or an empty stop
    set, the whole orbit.

    Maps each orbit point v (a root index) to its distance from w0(mu)
    in the orbit graph, whose edges are the simple reflections.  For each
    nu in the orbit the elements mapping nu to mu have their unique
    longest element at length len(w0) - dist(nu, w0(mu)): w -> w0^{-1} w
    is a bijection onto the elements u with u(nu) = w0(mu), reversing
    lengths, and these form a coset u Stab(nu) of a reflection subgroup,
    which has a unique element of minimal length (Dyer, "Reflection
    subgroups of Coxeter systems", 1990), of length dist(nu, w0(mu)).

    The coset maximum falls as the distance grows, so the roots of stop
    nearest to w0(mu) are exactly those at the greatest coset maximum
    over stop, and the first level that meets stop holds all of them and
    no nearer one.  Every level up to it is complete, so the cut orbit
    holds each such root with its true distance: nothing the search
    skipped is nearer to w0(mu).
    """
    start = ctx.apply_word(ctx.w0_word, mu)
    out = {start: 0}
    frontier = [start]
    d = 0
    while frontier and stop.isdisjoint(frontier):
        d += 1
        nxt = []
        for v in frontier:
            for gp in ctx.gen_perms:
                w = gp[v]
                if w not in out:
                    out[w] = d
                    nxt.append(w)
        frontier = nxt
    return out


def _max_length_with_witness(
    ctx: SubsystemContext, mu: int, nu: int, dist: int
) -> tuple[int, ...]:
    """The canonical word of the longest element mapping the root of
    index nu to that of index mu, whose length is ctx.pos_count - dist,
    for nu's distance dist from w0(mu) in coset_orbit(ctx, mu, stop),
    whole or cut.  mu must be K-dominant, as a maximal fiber weight is:
    any other mu whose orbit holds nu is refused.

    mu is a highest weight of a K-module, so w0(mu) is the antidominant
    weight of its orbit, and nu's walk into the antidominant chamber
    (`walk_down`) ends there: its letters spell a shortest u with
    u(nu) = w0(mu), which by Dyer's unique minimum (`coset_orbit`) is
    the one such element of that length, and w = w0 o u is the witness.
    w0 is not replayed letter by letter: it acts on weight coordinates as
    the permutation x -> -x o iota (`opposition`), so w is spelled from
    u's letters alone.
    The walk takes one step per positive root alpha of K with
    (nu, alpha) > 0, so the coset maximum len(w0) - dist is also the
    number of positive roots with (nu, alpha) <= 0 (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.10): the walk's length
    must be the distance the search found.  nu's weight coordinates
    <nu, gamma_j^vee> are read off the packed keys, key(nu) - key(s_j
    nu) = <nu, gamma_j^vee> key(gamma_j), as `closed_subsystem` reads
    the Cartan matrix."""
    keys = ctx.rs.root_keys
    p = [
        (keys[nu] - keys[row[nu]]) // keys[g]
        for g, row in zip(ctx.simples, ctx.gen_perms)
    ]
    path = ctx.walk_down(p)
    if len(path) != dist:
        raise InternalInconsistencyError(
            "coset maximum disagrees with the count of K's positive roots "
            "that pair nonpositively with nu"
        )
    length = ctx.pos_count - dist
    # w = w0 o u, held as -w(rho) in weight coordinates: the path letters
    # spell u, then w0 acts as a coordinate permutation,
    # <w0 x, gamma_j^vee> = -<x, gamma_{iota(j)}^vee>
    q = [-1] * len(ctx.simples)
    ctx.reflect_weight(q, path)
    q = [-q[i] for i in ctx.opposition]
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
    return word


def group_order_from_simples(rs: RootSystem, simples: Iterable[Weight]) -> int:
    """Order of the generated reflection group, via the classification of
    the subsystem into irreducible components."""
    return SubsystemContext.from_simples(
        rs, map(rs.root_index.__getitem__, simples)
    ).order()
