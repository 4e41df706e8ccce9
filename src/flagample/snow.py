"""Ampleness of the normal bundle via length maximization over the Weyl
group of K.

The searched set consists of the elements w of W(K) such that some
maximal fiber weight mu has w^{-1}(mu) again a fiber weight.  The more
common formulation via dual modules asks that the U-invariant weights of
the dual fiber meet w applied to the dual weight set; dualizing negates
both weight sets, and multiplying the resulting condition by -1 gives
exactly the form used here, so the two are equivalent.

The ampleness is the maximal length minus (dim P - dim B), P = K cap Q:
pulling the bundle back to the full flag manifold of K changes the
ampleness by the fiber dimension of K/B -> K/P, and over K/B the maximal
length is the answer; applying the correction as an integer subtraction
is equivalent to literally pulling back (the equality is unit-tested).
Weights are roots, named by their index in the sorted `RootSystem.roots`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import or_

from .cycle import NeutralFiber, ParabolicData
from .errors import EnumerationCapError, InternalInconsistencyError
from .kernels import inverse_images, word_of
from .realform import HermitianData, highest_weights
from .rootsystem import RootSystem
from .weyl import DEFAULT_CAP, _enumerate, _max_length_with_witness, coset_orbit

METHODS = ("auto", "bruteforce", "fast")


@dataclass(frozen=True)
class AmplenessInput:
    """Everything the length search needs, assembled once per case."""

    rs: RootSystem
    hermitian: HermitianData
    parabolic: ParabolicData
    fiber: NeutralFiber
    max_weights: tuple[int, ...]  # maximal fiber weights, sorted


@dataclass(frozen=True)
class AmplenessResult:
    ampleness: int
    max_length: int
    witness: tuple[int, ...]  # canonical word, 0-based indices into K's simples
    witness_pair: tuple[int, int]  # (mu maximal, nu fiber weight)
    max_weights: tuple[int, ...]
    routes: tuple[str, ...]  # search routes that ran, primary first


def assemble_input(
    rs: RootSystem,
    hermitian: HermitianData,
    parabolic: ParabolicData,
    fiber: NeutralFiber,
) -> AmplenessInput:
    return AmplenessInput(
        rs=rs,
        hermitian=hermitian,
        parabolic=parabolic,
        fiber=fiber,
        max_weights=maximal_weights(rs, fiber, hermitian.k_context.simples),
    )


def maximal_weights(
    rs: RootSystem, fiber: NeutralFiber, k_roots: tuple[int, ...]
) -> tuple[int, ...]:
    """Fiber weights to which no root of k_roots can be added inside the
    fiber's weight set; k_roots is K's simple system or all of its
    positive roots, with the same answer.

    All weight multiplicities are one, and bracketing a root vector by a
    compact root vector is nonzero whenever the target is a root, so this
    maximality is exactly membership in the top layer of the module: the
    maximal weights are the negatives of the U-invariant weights of the
    dual fiber.  The simple roots of K suffice because their root vectors
    generate n_K+, and the fiber is closed under adding a positive
    compact root whenever the sum is a root (the sum stays positive,
    noncompact and outside the Levi span).
    """
    return highest_weights(rs, frozenset(fiber.weights), k_roots)


def closed_form_maximal_weights(
    hermitian: HermitianData,
    parabolic: ParabolicData,
) -> tuple[int, ...]:
    """Independent route to the maximal fiber weights.

    If k is semisimple the noncompact module is irreducible and the only
    maximal weight is its highest weight.  If k has a center the module
    splits into the two xi-halves with highest weights lambda_plus and
    lambda_minus, and a half drops out exactly when it is swallowed by
    the parabolic.
    """
    if hermitian.center_dim == 0:
        if len(hermitian.lambda_max_s) != 1:
            raise InternalInconsistencyError(
                "semisimple k but several maximal noncompact weights"
            )
        return hermitian.lambda_max_s
    if len(hermitian.lambda_max_s) != 2:
        raise InternalInconsistencyError(
            "k has a center but the noncompact module does not split in two"
        )
    q_set = set(parabolic.q_roots)
    keep = []
    for side in (hermitian.s_plus, hermitian.s_minus):
        tops = [a for a in hermitian.lambda_max_s if a in side]
        if len(tops) != 1:
            raise InternalInconsistencyError(
                "xi-half without a unique highest weight"
            )
        if not set(side) <= q_set:
            keep.append(tops[0])
    return tuple(sorted(keep))


def max_weyl_length_bruteforce(
    inp: AmplenessInput, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[int, ...], tuple[int, int]]:
    """Scan the whole group; oracle for the fast search.

    w is in the searched set iff w^{-1}(mu) is a fiber weight for some
    maximal mu, so the enumeration carries only w^{-1} of the maximal
    weights.  The elements come in the kernel's block order, so the
    winner is picked explicitly: the greatest length among the elements
    in the set, then the least canonical word among those of that
    length.  The winner's word is checked against the images it
    carries: w^{-1} of K's simple roots, read off its factors, and of
    the maximal weights, read off the scanned columns, must be those
    the word spells.  Its pair is read off the same images: the first
    mu whose w^{-1}(mu) is a fiber weight, with nu that image.  A group
    larger than cap is refused before the enumeration starts, by the
    order |W(K)| that K's classification gives.
    """
    if inp.hermitian.k_order > cap:
        raise EnumerationCapError(
            f"|W(K)|={inp.hermitian.k_order} exceeds the enumeration cap of "
            f"{cap} elements"
        )
    ctx = inp.hermitian.k_context
    lam = inp.max_weights
    fiber = frozenset(inp.fiber.weights)
    images, lengths, factors = _enumerate(ctx, lam, cap)

    # hit[i] is 1 iff element i sends some maximal weight into the fiber
    hit = b""
    for col in images:
        found = map(fiber.__contains__, col)
        hit = bytes(map(or_, hit, found) if hit else found)
    top = max(compress(lengths, hit), default=None)
    if top is None:
        raise InternalInconsistencyError(
            "identity not in the search set: maximal weights escape the fiber"
        )
    # the elements of length top, each found by a C-level search
    tied = []
    i = lengths.find(top)
    while i >= 0:
        if hit[i]:
            tied.append(i)
        i = lengths.find(top, i + 1)
    word, best = min((word_of(factors, i), i) for i in tied)

    # the winner's images from its factors and from the scanned columns
    # must be those its word spells: w^{-1} is the reversed word
    row = tuple(col[best] for col in images)
    if tuple(ctx.apply_word(word[::-1], p) for p in ctx.simples + lam) != (
        inverse_images(factors, best, ctx.simples) + row
    ):
        raise InternalInconsistencyError(
            "enumerated inverse images disagree with the witness's action"
        )
    pair_ = next((mu, v) for mu, v in zip(lam, row) if v in fiber)
    return top, word, pair_


def max_weyl_length_fast(
    inp: AmplenessInput,
) -> tuple[int, tuple[int, ...], tuple[int, int]]:
    """Coset-by-coset search; no group enumeration.

    For each pair (mu maximal, nu fiber weight) the elements mapping nu
    to mu form a single coset of Stab(nu), a reflection subgroup, whose
    unique longest element has length len(w0) - dist(nu, w0(mu)) in the
    orbit graph (Dyer's unique minimum, see `coset_orbit`).  One BFS
    from w0(mu) per maximal mu gives that length for every nu, and its
    tree gives the witness of each pair that reaches the maximum; the
    least canonical word among them is the brute-force scan's
    tie-break, and the first pair in (mu, nu) order that has it is the
    pair returned.
    """
    ctx = inp.hermitian.k_context
    lam = inp.max_weights

    # pairs in (mu, nu) order, each with its coset maximum
    orbits = {mu: coset_orbit(ctx, mu) for mu in lam}
    lengths = []
    for mu, orbit in orbits.items():
        for nu in inp.fiber.weights:  # sorted
            hit = orbit.get(nu)
            if hit is not None:
                lengths.append((mu, nu, ctx.pos_count - hit[0]))
    if not lengths:
        raise InternalInconsistencyError(
            "no pair admits any group element: maximal weights escape the fiber"
        )
    top = max(length for _, _, length in lengths)
    best = None
    for mu, nu, length in lengths:
        if length == top:
            _, witness = _max_length_with_witness(ctx, mu, nu, orbits[mu])
            if best is None or witness < best[0]:
                best = witness, (mu, nu)
    witness, pair_ = best
    return top, witness, pair_


def ampleness(
    inp: AmplenessInput,
    method: str = "auto",
    verify: bool = False,
    cap: int = DEFAULT_CAP,
) -> AmplenessResult:
    """Run the length search and apply the Levi correction.

    method 'auto' uses the fast search and, when verification is
    requested and the group fits under the cap, cross-checks against the
    brute-force scan; 'bruteforce' and 'fast' force one route (verify
    then runs the other unconditionally).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    lam = inp.max_weights
    if not set(lam) <= set(inp.fiber.weights):
        raise InternalInconsistencyError("maximal weights escape the fiber")
    closed = closed_form_maximal_weights(inp.hermitian, inp.parabolic)
    if closed != lam:
        raise InternalInconsistencyError(
            f"maximal weights disagree: combinatorial {lam} vs case analysis "
            f"{closed} (root indices)"
        )

    # built per call, so a route replaced on the module is the one run
    search = {
        "fast": lambda: max_weyl_length_fast(inp),
        "bruteforce": lambda: max_weyl_length_bruteforce(inp, cap),
    }
    order = ("bruteforce", "fast") if method == "bruteforce" else ("fast", "bruteforce")
    if not verify or (method == "auto" and inp.hermitian.k_order > cap):
        order = order[:1]
    results = {name: search[name]() for name in order}
    primary = results[order[0]]

    if len(results) == 2:
        # The pairs are found independently and must agree.  The witness
        # w is the unique longest element of the coset of every pair
        # (mu, nu) with w(nu) = mu (Dyer; see `coset_orbit`), so each such
        # pair is tied at the maximum and has witness w.  The first mu
        # with w^{-1}(mu) in the fiber (the brute-force pair) is
        # therefore the first tied pair that has w's word (the fast pair).
        # The word names the element, so equal words are equal elements.
        a, b = results["fast"], results["bruteforce"]
        if a != b:
            raise InternalInconsistencyError(
                f"search methods disagree: fast {a[:1]} vs brute force {b[:1]}"
            )

    max_length, witness, pair_ = primary
    value = max_length - inp.parabolic.levi_correction
    if not 0 <= value <= inp.parabolic.dim_c:
        raise InternalInconsistencyError(
            f"ampleness {value} outside 0..dim_C={inp.parabolic.dim_c}"
        )
    if len(witness) != max_length:
        raise InternalInconsistencyError("witness length mismatch")
    return AmplenessResult(
        ampleness=value,
        max_length=max_length,
        witness=witness,
        witness_pair=pair_,
        max_weights=lam,
        routes=tuple(results),
    )
