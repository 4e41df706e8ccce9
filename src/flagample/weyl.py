"""Weyl groups of root subsystems: enumeration, lengths, coset maxima.

Elements are represented by their action on the full root set (a
permutation of root indices) together with a reduced word in the simple
reflections of the designated subsystem.  A word (j1, ..., jk) denotes
the composition s_{j1} o s_{j2} o ... o s_{jk} (rightmost applied first).
The enumeration itself stores neither: it carries w^{-1} of a few roots
and the length of each element, and each element's word is read off
its factors (see `kernels`).

All lengths are taken with respect to the subsystem: the length of w is
the number of subsystem-positive roots sent to subsystem-negative roots,
which equals the length of any reduced word for w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernels
from .errors import EnumerationCapError, InternalInconsistencyError, NotARootError
from .rootsystem import (
    RootSystem,
    SubsystemComponent,
    Weight,
    coroot_pairing,
    indecomposables,
    orbit_components,
    require_closed,
    subsystem_orbit,
)

DEFAULT_CAP = 10_000_000

Perm = tuple[int, ...]
# root index -> (distance, generator that reached it); see coset_orbit
Orbit = dict[int, tuple[int, int]]


@dataclass(frozen=True)
class WeylElement:
    """Group element: canonical reduced word plus root-set permutation.

    Two elements are equal iff their actions coincide; the word is the
    lexicographically least reduced word in the subsystem's generators.
    """

    word: tuple[int, ...]
    action: Perm

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.action == other.action

    def __hash__(self):
        return hash(self.action)


def compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(x) = a(b(x))."""
    return kernels.reader(b)(a)


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


class SubsystemContext:
    """Precomputed data for the reflection group of a root subsystem,
    given by the indices of its simple roots."""

    def __init__(self, rs: RootSystem, simples: Iterable[int]):
        self.rs = rs
        self.simples = tuple(sorted(simples))
        m = len(rs.roots)
        self.identity: Perm = tuple(range(m))
        self.gen_perms: tuple[Perm, ...] = tuple(
            tuple(rs.reflection_row(g)) for g in self.simples
        )
        # the subsystem's Cartan matrix, and each of its roots (by index)
        # with its coordinates in the simple basis, from one orbit pass
        self.cartan, self.coords = subsystem_orbit(rs, self.simples)
        self.sub_sign = {v: 1 if min(c) >= 0 else -1 for v, c in self.coords.items()}
        self.pos_count = sum(1 for s in self.sub_sign.values() if s > 0)
        self._w0_word: tuple[int, ...] | None = None

    @classmethod
    def from_positive_roots(
        cls, rs: RootSystem, positives: Iterable[int]
    ) -> "SubsystemContext":
        """The context of the closed subsystem whose positive roots have
        the indices `positives`: its simple roots by `simple_system`'s
        height pass, and the closure proof on the orbit the context
        computes anyway.
        NotClosedError if the positives are not the positive half of a
        reflection-closed subsystem."""
        simples, pos = indecomposables(rs, positives)
        ctx = cls(rs, simples)
        require_closed(pos, ctx.coords)
        return ctx

    def components(self) -> tuple[SubsystemComponent, ...]:
        """Irreducible components, as `subsystem_components` gives them."""
        return orbit_components(self.rs, self.simples, self.cartan, self.coords)

    @property
    def w0_word(self) -> tuple[int, ...]:
        """A reduced word for the longest element of the subsystem group,
        found by walking 2 rho, the sum of the positive subsystem roots,
        into the antidominant chamber: each step reflects in the first
        simple root gamma_i with <v, gamma_i^vee> > 0.

        The walk runs in the weight coordinates p_j = <v, gamma_j^vee>,
        where s_i sends p_j to p_j - p_i cartan[j][i].  Every p_j of
        2 rho is 2 (Humphreys, *Introduction to Lie Algebras and
        Representation Theory*, 10.2, Lemma B); the start is paired once
        in ambient coordinates and checked against that, which ties the
        positive system of sub_sign to the pairing."""
        if self._w0_word is None:
            rs = self.rs
            positives = (rs.roots[i] for i, s in self.sub_sign.items() if s > 0)
            two_rho = tuple(map(sum, zip(*positives)))
            p = [coroot_pairing(rs, two_rho, rs.roots[g]) for g in self.simples]
            if any(x != 2 for x in p):
                raise InternalInconsistencyError(
                    "sum of the positive subsystem roots is not 2 on every "
                    "simple coroot"
                )
            # columns[i][j] = cartan[j][i] = <gamma_i, gamma_j^vee>
            columns = tuple(zip(*self.cartan))
            steps: list[int] = []
            while True:
                i = next((k for k, x in enumerate(p) if x > 0), None)
                if i is None:
                    break
                c = p[i]
                p = [x - c * a for x, a in zip(p, columns[i])]
                steps.append(i)
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

    def perm_of_word(self, word: Sequence[int]) -> Perm:
        p = self.identity
        for i in reversed(word):
            p = compose(self.gen_perms[i], p)
        return p

    def length_of_perm(self, p: Perm) -> int:
        """Inversion count: subsystem-positive roots sent negative."""
        return sum(
            1
            for i, s in self.sub_sign.items()
            if s > 0 and self.sub_sign[p[i]] < 0
        )

    def canonical_word(self, p: Perm) -> tuple[int, ...]:
        """Lexicographically least reduced word, by greedy least left
        descent: i is a left descent of w iff w^{-1}(gamma_i) is a
        subsystem-negative root."""
        word: list[int] = []
        # p^{-1}, kept up to date as p becomes s_i o p
        inv = invert(p)
        for _ in range(self.pos_count + 1):
            if inv == self.identity:
                return tuple(word)
            i = next(
                k
                for k, gi in enumerate(self.simples)
                if self.sub_sign[inv[gi]] < 0
            )
            word.append(i)
            inv = compose(inv, self.gen_perms[i])
        raise InternalInconsistencyError("canonical word did not terminate")


def enumerate_weyl(
    rs: RootSystem, simples: Iterable[Weight], cap: int = DEFAULT_CAP
) -> list[WeylElement]:
    """Every element of the reflection group generated by the simple
    system, exactly once, ordered by length with ties broken by the
    lexicographic order of the canonical reduced words."""
    ctx = SubsystemContext(rs, map(rs.root_index.__getitem__, simples))
    images, _, factors = _enumerate(ctx, ctx.identity, cap)
    # images tracks every root, so each row is w^{-1}
    out = [
        WeylElement(kernels.word_of(factors, i), invert(row))
        for i, row in enumerate(zip(*images))
    ]
    out.sort(key=lambda e: (e.length, e.word))
    return out


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


def max_length_mapping(
    rs: RootSystem, simples: Iterable[Weight], mu: Sequence, nu: Sequence
) -> int | None:
    """Largest subsystem length of an element w with w(nu) = mu, or None
    when mu is not in the orbit of nu.

    nu must be a root (NotARootError otherwise); a mu that is not a root
    lies in no root orbit, so it gives None.  The maximum is read off
    `coset_orbit`.
    """
    ctx = SubsystemContext(rs, map(rs.root_index.__getitem__, simples))
    mu_i, nu_i = rs.root_index.get(tuple(mu)), rs.root_index.get(tuple(nu))
    if nu_i is None:
        raise NotARootError(f"{tuple(nu)} is not a root of {rs.dynkin}")
    if mu_i is None:
        return None
    res = _max_length_with_witness(ctx, mu_i, nu_i, coset_orbit(ctx, mu_i))
    return None if res is None else res[0]


def _max_length_with_witness(
    ctx: SubsystemContext, mu: int, nu: int, orbit: Orbit
) -> tuple[int, WeylElement] | None:
    """The longest element mapping the root of index nu to that of index
    mu, with its length, from `orbit` = coset_orbit(ctx, mu); None when
    nu is not in it."""
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
    raw_word = ctx.w0_word + tuple(reversed(path))
    p = ctx.perm_of_word(raw_word)
    length = ctx.pos_count - dist
    if ctx.length_of_perm(p) != length:
        raise InternalInconsistencyError(
            "coset maximum length mismatch between routes"
        )
    word = ctx.canonical_word(p)
    if len(word) != length:
        raise InternalInconsistencyError("canonical word length mismatch")
    witness = WeylElement(word, p)
    if ctx.apply_word(word, nu) != mu:
        raise InternalInconsistencyError("witness does not map nu to mu")
    return length, witness


def group_order_from_simples(rs: RootSystem, simples: Iterable[Weight]) -> int:
    """Order of the generated reflection group, via the classification of
    the subsystem into irreducible components."""
    ctx = SubsystemContext(rs, map(rs.root_index.__getitem__, simples))
    return math.prod(c.order for c in ctx.components())
