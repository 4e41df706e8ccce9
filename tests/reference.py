"""Test-only references in root coordinates and root permutations.

The library names a Weyl element by its canonical word alone.  The
tests check that word against the element's full action on the root
set, a permutation of root indices built here from the word, and reach
the library's index-based subsystem routines through the coordinate
entry points below.
"""

from typing import NamedTuple

from flagample import kernels
from flagample.errors import NotARootError
from flagample.rootsystem import (
    indecomposables,
    orbit_components,
    require_closed,
    subsystem_orbit,
)
from flagample.weyl import (
    DEFAULT_CAP,
    SubsystemContext,
    _enumerate,
    _max_length_with_witness,
    coset_orbit,
)


def compose(a, b):
    """(a o b)(x) = a(b(x)) for root permutations a and b."""
    return tuple(a[x] for x in b)


def invert(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def identity(ctx):
    """The identity permutation of the context's root set."""
    return tuple(range(len(ctx.rs.roots)))


def perm_of_word(ctx, word):
    """The action on the root set of s_{word[0]} o ... o s_{word[-1]}."""
    p = identity(ctx)
    for i in reversed(word):
        p = compose(ctx.gen_perms[i], p)
    return p


def length_of_perm(ctx, p):
    """Reference length: subsystem-positive roots sent negative by the
    root permutation p."""
    return sum(
        1 for i, s in ctx.sub_sign.items() if s > 0 and ctx.sub_sign[p[i]] < 0
    )


def canonical_word(ctx, p):
    """Reference canonical word of the root permutation p: lexicographically
    least reduced word, by greedy least left descent, i being a left
    descent of w iff w^{-1}(gamma_i) is a subsystem-negative root."""
    word = []
    # p^{-1}, kept up to date as p becomes s_i o p
    inv = invert(p)
    one = identity(ctx)
    for _ in range(ctx.pos_count + 1):
        if inv == one:
            return tuple(word)
        i = next(
            k for k, gi in enumerate(ctx.simples) if ctx.sub_sign[inv[gi]] < 0
        )
        word.append(i)
        inv = compose(inv, ctx.gen_perms[i])
    raise AssertionError("canonical word did not terminate")


class Element(NamedTuple):
    """A group element: its canonical word and its root permutation."""

    word: tuple
    action: tuple

    @property
    def length(self):
        return len(self.word)


def context(rs, simples):
    """The context of simple roots given by coordinates."""
    return SubsystemContext(rs, [rs.root_index[g] for g in simples])


def enumerate_weyl(rs, simples, cap=DEFAULT_CAP):
    """Every element of the reflection group generated by the simple
    roots (coordinates), exactly once, ordered by length with ties broken
    by the canonical word; each action is the inverse of the kernel's
    images of every root."""
    ctx = context(rs, simples)
    images, _, factors = _enumerate(ctx, identity(ctx), cap)
    out = [
        Element(kernels.word_of(factors, i), invert(row))
        for i, row in enumerate(zip(*images))
    ]
    out.sort(key=lambda e: (e.length, e.word))
    return out


def max_length_mapping(rs, simples, mu, nu):
    """Largest subsystem length of an element w with w(nu) = mu, for
    coordinate vectors, or None when mu is not in the orbit of nu.

    nu must be a root (NotARootError otherwise); a mu that is not a root
    lies in no root orbit, so it gives None."""
    ctx = context(rs, simples)
    mu_i, nu_i = rs.root_index.get(tuple(mu)), rs.root_index.get(tuple(nu))
    if nu_i is None:
        raise NotARootError(f"{tuple(nu)} is not a root of {rs.dynkin}")
    if mu_i is None:
        return None
    res = _max_length_with_witness(ctx, mu_i, nu_i, coset_orbit(ctx, mu_i))
    return None if res is None else res[0]


def _closed_subsystem(rs, pos):
    # a vector that is no root gets -1, which indecomposables refuses
    simples, pos = indecomposables(rs, [rs.root_index.get(tuple(v), -1) for v in pos])
    orbit = subsystem_orbit(rs, simples)
    require_closed(pos, orbit.coords)
    return simples, orbit


def simple_system(rs, pos):
    """The sorted simple roots (coordinates) of the positive half `pos`
    of a reflection-closed subsystem, by the library's height pass and
    orbit proof; NotClosedError if pos is no such half."""
    return tuple(rs.roots[g] for g in _closed_subsystem(rs, pos)[0])


def subsystem_components(rs, pos):
    """The irreducible components of the closed subsystem with positive
    half `pos` (coordinates), as the library labels them."""
    return orbit_components(rs, *_closed_subsystem(rs, pos))
