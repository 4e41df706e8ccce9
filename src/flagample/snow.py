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

from .cycle import ParabolicData
from .errors import EnumerationCapError, InternalInconsistencyError
from .kernels import inverse_images, word_of
from .realform import HermitianData, highest_weights
from .rootsystem import RootSystem
from .weyl import DEFAULT_CAP, _enumerate, _max_length_with_witness, coset_orbit

METHODS = ("auto", "bruteforce", "fast")


@dataclass(frozen=True)
class AmplenessInput:
    """Everything the length search needs, assembled once per case."""

    hermitian: HermitianData
    parabolic: ParabolicData
    fiber: tuple[int, ...]  # fiber weights, sorted
    max_weights: tuple[int, ...]  # maximal fiber weights, sorted


@dataclass(frozen=True)
class AmplenessResult:
    ampleness: int
    max_length: int
    witness: tuple[int, ...]  # canonical word, 0-based indices into K's simples
    witness_pair: tuple[int, int]  # (mu maximal, nu fiber weight)
    routes: tuple[str, ...]  # search routes that ran, primary first


def assemble_input(
    rs: RootSystem,
    hermitian: HermitianData,
    parabolic: ParabolicData,
    fiber: tuple[int, ...],
) -> AmplenessInput:
    """The case's search input, with its maximal fiber weights: those to
    which no simple root of K can be added inside the fiber.

    All weight multiplicities are one, and bracketing a root vector by a
    compact root vector is nonzero whenever the target is a root, so this
    maximality is exactly membership in the top layer of the module: the
    maximal weights are the negatives of the U-invariant weights of the
    dual fiber.  The simple roots of K suffice, with the same answer as
    all of its positive roots, because their root vectors generate n_K+,
    and the fiber is closed under adding a positive compact root whenever
    the sum is a root (the sum stays positive, noncompact and outside the
    Levi span).
    """
    return AmplenessInput(
        hermitian=hermitian,
        parabolic=parabolic,
        fiber=fiber,
        max_weights=highest_weights(
            rs, frozenset(fiber), hermitian.k_context.simples
        ),
    )


def closed_form_maximal_weights(
    hermitian: HermitianData,
    parabolic: ParabolicData,
) -> tuple[int, ...]:
    """Independent route to the maximal fiber weights.

    If k is semisimple the noncompact module is irreducible and the only
    maximal weight is its highest weight.  If k has a center the module
    splits into the two xi-halves with highest weights lambda_plus and
    lambda_minus, and a half drops out exactly when it lies in q, that
    is when it misses the tangent weights (the roots are q and them).
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
    tangent = set(parabolic.tangent_weights)
    keep = []
    for side in (hermitian.s_plus, hermitian.s_minus):
        tops = [a for a in hermitian.lambda_max_s if a in side]
        if len(tops) != 1:
            raise InternalInconsistencyError(
                "xi-half without a unique highest weight"
            )
        if not tangent.isdisjoint(side):
            keep.append(tops[0])
    return tuple(sorted(keep))


def max_weyl_length_bruteforce(
    inp: AmplenessInput, cap: int = DEFAULT_CAP
) -> tuple[int, tuple[int, ...], tuple[int, int]]:
    """Scan the whole group; oracle for the fast search.

    w is in the searched set iff w^{-1}(mu) is a fiber weight for some
    maximal mu, so the enumeration carries only w^{-1} of the maximal
    weights, each column a byte string of root indices, one byte per
    element.  One `bytes.translate` per column marks the elements whose
    image is a fiber weight, and the lengths of the marked elements are
    kept by one integer AND.  The elements come in the kernel's block
    order, so the winner is picked explicitly: the greatest length among
    the elements in the set, found by byte search, then the least
    canonical word among those of that length.  The identity, which
    fixes every maximal weight, must be in the set.  The winner's word
    is checked against the images it carries: w^{-1} of K's simple
    roots, read off its factors, and of the maximal weights, read off
    the scanned columns, must be those the word spells.  Its pair is
    read off the same images: the first mu whose w^{-1}(mu) is a fiber
    weight, with nu that image.  A group larger than cap is refused
    before the enumeration starts, by the order |W(K)| that K's
    classification gives.
    """
    if inp.hermitian.k_order > cap:
        raise EnumerationCapError(
            f"|W(K)|={inp.hermitian.k_order} exceeds the enumeration cap of "
            f"{cap} elements"
        )
    ctx = inp.hermitian.k_context
    lam = inp.max_weights
    fiber = frozenset(inp.fiber)
    images, lengths, factors = _enumerate(ctx, lam, cap)

    # byte i of hit, little-endian, is 255 iff element i sends some
    # maximal weight into the fiber, else 0; element 0 is the identity
    in_fiber = bytearray(256)
    for v in fiber:
        in_fiber[v] = 255
    hit = 0
    for col in images:
        hit |= int.from_bytes(col.translate(in_fiber), "little")
    if not hit & 255:
        raise InternalInconsistencyError(
            "identity not in the search set: maximal weights escape the fiber"
        )
    # each element's length if it is in the set, else 0
    kept = (hit & int.from_bytes(lengths, "little")).to_bytes(
        len(lengths), "little"
    )
    # the greatest length in the set and every element of that length,
    # each found by a C-level byte search; if no element of the set is
    # longer than 0, the identity alone is its maximum
    top = next((t for t in range(ctx.pos_count, 0, -1) if t in kept), 0)
    tied = [0]
    if top:
        tied = []
        i = kept.find(top)
        while i >= 0:
            tied.append(i)
            i = kept.find(top, i + 1)
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
    from w0(mu) per maximal mu, stopped after the first level that holds
    a fiber weight, gives that distance for every nu nearest to w0(mu),
    which are the pairs at mu's greatest length; the levels it skips
    hold only pairs of smaller length.  Each tied pair's witness is
    spelled from nu's own walk to w0(mu), which also counts its maximum
    a second way (`_max_length_with_witness`).  The least canonical
    word among the pairs that reach the maximum is the brute-force
    scan's tie-break, and the first pair in (mu, nu) order that has it
    is the pair returned.
    """
    ctx = inp.hermitian.k_context
    fiber = frozenset(inp.fiber)

    # pairs in (mu, nu) order, each with its coset maximum
    orbits = {mu: coset_orbit(ctx, mu, fiber) for mu in inp.max_weights}
    lengths = [
        (mu, nu, ctx.pos_count - orbit[nu])
        for mu, orbit in orbits.items()
        for nu in inp.fiber  # sorted
        if nu in orbit
    ]
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
    if not set(lam) <= set(inp.fiber):
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
        fields = ("length", "witness word", "(mu, nu) pair")
        for field, a, b in zip(fields, results["fast"], results["bruteforce"]):
            if a != b:
                raise InternalInconsistencyError(
                    f"search methods disagree on the {field}: fast {a} vs "
                    f"brute force {b}"
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
        routes=tuple(results),
    )
