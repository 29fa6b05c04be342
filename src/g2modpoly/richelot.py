"""Richelot (2,2)-isogenies between Jacobians of genus-2 curves.

A factorization of the monic sextic f into three monic quadratics
f = A B C picks a (2,2)-subgroup of the Jacobian; there are 15 of them,
one per way of pairing the six roots. Writing [P, Q] = P'Q - PQ' for the
bracket of two quadratics, the quotient abelian surface is the Jacobian of

    delta y^2 = [A, B](x) [A, C](x) [B, C](x),

where delta = det of the coefficient matrix of (A, B, C) in the basis
(1, x, x^2). When delta vanishes the quotient splits as a product of two
elliptic curves and there is no genus-2 image; that case is reported as a
split marker rather than an error. Otherwise the right side is rescaled to
a monic sextic model (the constant is absorbed into a quadratic twist,
which does not move the absolute invariants). ``all_isogenous_invariants``
gives the 15 steps out of a curve as (``RichelotStep``, invariant) pairs
in factorization order, the invariant None exactly for a split step. A
triple whose int pairs are, pair for pair, the exact conjugates of an
earlier triple's is not built again: it takes that step and invariant
conjugated exactly, which is bit for bit what building it gives, as
each rounding on the way is odd under negation.
The certified roots are mpc (their Newton lift runs on RoundedComplex); from
them on, the triples, delta and the complex image models are
``exactnum.RoundedComplex`` values at ``prec + WORK_GUARD`` bits, with no mpc round trip.

``bracket``, ``richelot_delta`` and ``image_sextic`` are written over any
ring, so ``modp`` runs the same formulas over F_{p^2}.

The dual isogeny is induced by the bracket triple itself: applying the
construction to the image with factorization ([A,B], [A,C], [B,C])
(monically normalized) recovers a curve isomorphic to the start, which is
how ``dual_triple`` is meant to be used.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from mpmath import mp, mpc, mpf
from mpmath.libmp import mpf_neg

import mpmath

from .exactnum import (
    _EXPONENT_MARGIN,
    PrecisionError,
    RoundedComplex,
    Scalar,
    WORK_GUARD,
    _binade,
    first_largest_modulus,
    horner,
    magnitude,
    mpc_to_pairs,
    negligible,
    poly_mul,
    to_mpc,
    tolerance,
)
from .g2curve import Genus2Curve, absolute_igusa

Quadratic = Tuple[RoundedComplex, RoundedComplex, RoundedComplex]  # (c0, c1, c2), constant first

# Bits of the first seed that complex_roots lifts by Newton steps.
_SEED_BITS = 100

# Aberth sweeps after which a double-precision seed that has not settled is
# refused (a generic sextic settles in about a dozen).
_ABERTH_SWEEPS = 100

#: the integers t tried, in this order, for the model move x -> t + 1/x
#: that gives a degenerate image sextic its degree back
MOVE_SHIFTS = (0, 1, -1, 2, -2, 3, -3, 4, -4)


@dataclass(frozen=True)
class QuadraticTriple:
    """Three monic quadratics whose product is a sextic model.

    The coefficients (ints, Fractions, mpc or RoundedComplex values) are
    held as RoundedComplex at ``prec + WORK_GUARD`` bits; each leading
    coefficient must be exactly 1.
    """

    quads: Tuple[Quadratic, Quadratic, Quadratic]
    prec: int

    def __post_init__(self) -> None:
        quads = tuple(
            tuple(RoundedComplex.of(c, self.prec + WORK_GUARD) for c in q) for q in self.quads
        )
        if len(quads) != 3 or any(len(q) != 3 for q in quads):
            raise ValueError("expected three quadratics with three coefficients each")
        for q in quads:
            if mpc(q[2]) != 1:
                raise ValueError("triple quadratics must be monic")
        object.__setattr__(self, "quads", quads)


@dataclass(frozen=True)
class RichelotStep:
    """One (2,2)-isogeny datum: the kernel triple, delta, and the image.

    ``image`` is None exactly when delta vanishes to tolerance, meaning the
    quotient is a product of elliptic curves (split marker).
    """

    triple: QuadraticTriple
    delta: RoundedComplex
    image: Optional[Genus2Curve]

    @property
    def is_split(self) -> bool:
        return self.image is None


def pair_partitions_of_six() -> List[Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]]:
    """The 15 pairings of {0..5}, in a fixed deterministic order."""

    def rec(items: List[int]):
        if not items:
            return [()]
        first, rest = items[0], items[1:]
        out = []
        for i, second in enumerate(rest):
            remaining = rest[:i] + rest[i + 1:]
            for sub in rec(remaining):
                out.append((((first, second),) + sub))
        return out

    return rec(list(range(6)))


def complex_roots(curve: Genus2Curve, prec: int) -> Tuple[mpc, ...]:
    """The six roots at precision ``prec``, certified and deterministically sorted.

    The roots are those of f with coefficients rounded to ``work = prec +
    WORK_GUARD`` bits, found by ``_lifted_roots``: a seed good to about 100
    bits is lifted by Newton steps on RoundedComplex that double the precision
    up to ``work + WORK_GUARD`` bits, then rounded with ``polyroots``' own
    clean-up to ``work`` bits, on mpc. The first seed comes from double precision
    (``_double_seeds``). When it is refused (coefficients beyond double
    range, no convergence, a cluster) or its lift is (seeds or lifted roots
    not separated, a lift that Newton does not contract), the seeds come
    from ``polyroots`` at 100 bits, then at twice that, up to one full
    ``polyroots`` call at ``work`` bits. Whichever seed is lifted, the
    roots equal that full call's bit for bit unless a component lies
    within about 2**-64 of a rounding tie.

    The certificate does not depend on how the roots were found. Residuals
    are checked against 2**(-prec/2) relative to the coefficient and root
    scale; roots closer than that tolerance, or a full ``polyroots`` call
    that does not converge, raise PrecisionError.
    Sorting is lexicographic by (real, imaginary).
    """
    work = prec + WORK_GUARD
    with mp.workprec(work):
        coeffs = [to_mpc(c, work) for c in curve.coeffs]
        roots = _lifted_roots(coeffs, prec)
        coeff_scale = magnitude(coeffs)
        for r in roots:
            scale = coeff_scale * magnitude((r,)) ** 6
            if not negligible(horner(coeffs, r), prec, (scale,)):
                raise PrecisionError("root residual exceeds the certification tolerance")
        if _collision(roots, prec) is not None:
            raise PrecisionError("roots indistinguishable at this precision")
        ordered = sorted(roots, key=lambda z: (z.real, z.imag))
        return tuple(mpc(r) for r in ordered)


def _collision(values: Sequence[Union[mpc, mpf, RoundedComplex]], prec: int) -> Optional[Tuple[int, int]]:
    """The first pair (i, j), i < j, of values that agree to ``tolerance(prec)``
    relative to their size, ``negligible(values[i] - values[j], prec, (values[i],
    values[j]))``, or None: a rounded difference has the binade K or K + 1 of the
    exact one, so the verdict is read from K and the values' binades, taken once,
    unless K is within a binade of its bounds or a value is not finite. Differences
    of mpc values round at the ambient precision, of RoundedComplex at their own."""
    tops = [_binade(v) for v in values]
    parts = [t is not None and (v.parts if isinstance(v, RoundedComplex) else mpc_to_pairs(v))
             for v, t in zip(values, tops)]
    tol = _binade(tolerance(prec))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if parts[i] and parts[j]:
                c = tol + max(0, tops[i], tops[j])
                k = _binade(RoundedComplex(tuple(((m << f - min(f, g)) - (n << g - min(f, g)), min(f, g))
                                                 for (m, f), (n, g) in zip(parts[i], parts[j])), prec))
                if k + 2 + _EXPONENT_MARGIN <= c:
                    return i, j
                if k >= c + 1 + _EXPONENT_MARGIN:
                    continue
            if negligible(values[i] - values[j], prec, (values[i], values[j])):
                return i, j
    return None


def _lifted_roots(coeffs: Sequence[mpc], prec: int) -> List[mpc]:
    """The roots ``polyroots`` finds at ``work = prec + WORK_GUARD`` bits, found cheaply.

    The first seed, when ``_SEED_BITS < work``, is ``_double_seeds``' at
    ``_SEED_BITS``. If it is refused or its lift is (``_lift``), seeds come
    from ``polyroots`` at ``bits = _SEED_BITS``, and ``bits`` doubles
    until a lift is kept; at ``work`` the seed is the full-precision call,
    returned as it is.
    """
    work = prec + WORK_GUARD
    top = work + WORK_GUARD
    with mp.workprec(top):
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
    if _SEED_BITS < work:
        lifted = _lift(coeffs, deriv, _double_seeds(coeffs, deriv), _SEED_BITS, work)
        if lifted is not None:
            return lifted
    bits = _SEED_BITS
    while True:
        bits = min(bits, work)
        with mp.workprec(bits):
            try:
                seeds = mp.polyroots(coeffs[::-1], maxsteps=200,
                                     extraprec=(bits - WORK_GUARD) // 2 + 60)
            except mpmath.libmp.NoConvergence as exc:
                if bits == work:
                    raise PrecisionError("root finding did not converge; raise the precision") from exc
                seeds = None
            if bits == work:
                return seeds
        lifted = _lift(coeffs, deriv, seeds, bits, work)
        if lifted is not None:
            return lifted
        bits *= 2


def _lift(coeffs: Sequence[mpc], deriv: Sequence[mpc], seeds: Optional[Sequence[mpc]],
          bits: int, work: int) -> Optional[List[mpc]]:
    """``_newton_lift`` of every seed, or None when the seeds are missing or
    not separated at ``bits`` (``complex_roots``' test at that precision),
    when a lift is refused, or when the lifted roots are not separated (two
    seeds found the same root)."""
    with mp.workprec(bits):
        if seeds is None or _collision(seeds, bits) is not None:
            return None
        pairs = [[RoundedComplex.of(c, work) for c in cs] for cs in (coeffs, deriv)]
        lifted = [_newton_lift(*pairs, r, bits, work) for r in seeds]
        if None in lifted or _collision(lifted, bits) is not None:
            return None
        return lifted


def _double_seeds(coeffs: Sequence[mpc], deriv: Sequence[mpc]) -> Optional[List[mpc]]:
    """The six roots good to about ``_SEED_BITS`` bits, seeded in double precision.

    An Aberth iteration in Python ``complex`` starts from six points on
    the circle of radius 1 + max |c_k| (the Cauchy bound) and runs until
    a sweep moves no root by more than 2**-40 relative, when the roots
    are good to about a double's 53 bits. Two Newton steps at 128 bits
    then carry them past ``_SEED_BITS``. None, so that ``polyroots``
    seeds instead, when a coefficient does not fit a double, when Aberth
    has not settled after ``_ABERTH_SWEEPS`` sweeps or meets a zero
    divisor, or when the second Newton step still moves a root by 2**-64
    relative or more (a cluster of roots, which Newton approaches only
    linearly).
    """
    ca = [complex(c) for c in coeffs]
    da = [complex(c) for c in deriv]
    if not all(map(cmath.isfinite, ca + da)):
        return None
    radius = 1 + max(abs(c) for c in ca[:6])
    z = [radius * cmath.exp(complex(0, 2.1 * k + 0.4)) for k in range(6)]
    try:
        for _ in range(_ABERTH_SWEEPS):
            settled = True
            for i, x in enumerate(z):
                ratio = horner(ca, x) / horner(da, x)
                w = ratio / (1 - ratio * sum(1 / (x - y) for j, y in enumerate(z) if j != i))
                if not cmath.isfinite(w):
                    return None
                z[i] = x - w
                settled = settled and abs(w) <= 2 ** -40 * abs(z[i])
            if settled:
                break
        else:
            return None
    except ZeroDivisionError:
        return None
    seeds = []
    with mp.workprec(128):
        for x in z:
            r = mpc(x)
            for _ in range(2):
                slope = horner(deriv, r)
                if slope == 0:
                    return None
                step = horner(coeffs, r) / slope
                r -= step
            if step != 0 and abs(step) >= abs(r) * mpf(2) ** -64:
                return None
            seeds.append(r)
    return seeds


def _newton_lift(coeffs: Sequence[RoundedComplex], deriv: Sequence[RoundedComplex],
                 root: Union[mpc, mpf], bits: int, work: int) -> Optional[mpc]:
    """Newton-lift a root good to about ``bits`` bits, then clean and round it.

    Each step runs on RoundedComplex (``coeffs``, ``deriv`` and the root
    unrounded; ``horner`` rounds at its argument's precision): f(r) at p
    bits, f'(r) and f(r)/f'(r) at p//2 + 32, and r - f(r)/f'(r) at p.
    The last step, at ``work + WORK_GUARD`` bits, checks the one before:
    it must move the root by less than 2**-work relative, or the lift is
    refused with None. Then ``polyroots``' clean-up zeroes a modulus, an
    imaginary or a real part below 2**(1-work), and the root is rounded to
    ``work`` bits, on mpc. ``bits`` must exceed 64, the fixed point of the
    step schedule p -> p//2 + 32: from 64 bits or fewer the schedule would
    never reach ``bits``, so such a claim raises ValueError.
    """
    if bits <= 64:
        raise ValueError(f"a seed claimed at {bits} <= 64 bits never ends the lift schedule")
    top = work + WORK_GUARD
    steps = [top, top]
    while steps[-1] > bits:
        # a step from p/2 + 32 bits reaches p bits unless conditioning costs
        # it more than 32; the check step then refuses the lift
        steps.append(steps[-1] // 2 + 32)
    r = RoundedComplex(mpc_to_pairs(root), work)
    for p in reversed(steps[:-1]):
        value = horner(coeffs, RoundedComplex(r.parts, p))
        # the correction is below 2**-(p/2) relative, so p/2 + 32 bits of it
        # carry r to p bits
        slope = horner(deriv, RoundedComplex(r.parts, p // 2 + 32))
        if not slope:
            return None
        step = RoundedComplex(value.parts, slope.prec) / slope
        r = RoundedComplex(r.parts, p) - step
    r, step = to_mpc(r, work), to_mpc(step, work)
    with mp.workprec(64):
        if step != 0 and abs(step) >= abs(r) * mpf(2) ** -work:
            return None
    with mp.workprec(work):
        tol = +mp.eps
        re_small, im_small = abs(r.real) < tol, abs(r.imag) < tol
        if re_small and im_small and abs(r) < tol:
            return mpf(0)
        if im_small:
            return +r.real
        if re_small:
            return mpc(0, r.imag)
        return +r


def enumerate_factorizations(curve: Genus2Curve, prec: int) -> Tuple[QuadraticTriple, ...]:
    """The 15 monic quadratic factorizations of f, in canonical order.

    Roots are sorted deterministically, so the k-th triple always pairs the
    same root indices; each quadratic is (x - r)(x - s) expanded over
    RoundedComplex at ``prec + WORK_GUARD`` bits.
    """
    work = prec + WORK_GUARD
    roots = [RoundedComplex.of(r, work) for r in complex_roots(curve, prec)]
    one = RoundedComplex.of(1, work)
    return tuple(
        QuadraticTriple(tuple((roots[i] * roots[j], -(roots[i] + roots[j]), one)
                              for i, j in pairing), prec)
        for pairing in pair_partitions_of_six())


def bracket(a: Sequence, b: Sequence) -> tuple:
    """[A, B] = A'B - AB' for quadratics, constant coefficient first, over any
    ring: mpmath values round at the ambient precision.

    For A = a0 + a1 x + a2 x^2 and B likewise this is
    (a1 b0 - a0 b1) + 2 (a2 b0 - a0 b2) x + (a2 b1 - a1 b2) x^2.
    The result can degenerate to lower degree (for example when A and B are
    both monic with equal linear coefficients).
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        a1 * b0 - a0 * b1,
        2 * (a2 * b0 - a0 * b2),
        a2 * b1 - a1 * b2,
    )


def richelot_delta(quads: Sequence[Sequence]):
    """det of the 3x3 coefficient matrix of (A, B, C) in basis (1, x, x^2),
    over any ring: mpmath values round at the ambient precision."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = quads
    return (
        a0 * (b1 * c2 - b2 * c1)
        - a1 * (b0 * c2 - b2 * c0)
        + a2 * (b0 * c1 - b1 * c0)
    )


def image_sextic(quads: Sequence[Sequence]) -> list:
    """The image sextic [A,B][A,C][B,C] of three quadratics, constant
    coefficient first, over any ring (``poly_mul`` of the brackets)."""
    a, b, c = quads
    return poly_mul(poly_mul(bracket(a, b), bracket(a, c)), bracket(b, c))


def richelot_image(triple: QuadraticTriple) -> RichelotStep:
    """Apply one (2,2)-isogeny step to a factorization triple, at its precision.

    Returns a split marker when delta vanishes to tolerance (relative to
    the coefficient scale of the triple). Otherwise the image sextic
    [A,B][A,C][B,C] is renormalized monic; if its leading coefficient
    degenerates (a bracket drops degree), the model is first moved by an
    integer Moebius substitution x -> t + 1/x, which changes neither the
    isomorphism class nor the invariants. delta and the image's
    coefficients are RoundedComplex at ``prec + WORK_GUARD`` bits.
    """
    p = triple.prec
    work = p + WORK_GUARD
    with mp.workprec(work):
        delta = richelot_delta(triple.quads)
        if negligible(delta, p, [c for q in triple.quads for c in q], 3):
            return RichelotStep(triple, delta, None)
        g = image_sextic(triple.quads)
        if negligible(g[6], p, g):
            g = _restore_degree(g, p)
        lead = g[6]
        monic = tuple(x / lead for x in g[:6]) + (RoundedComplex.of(1, work),)
        return RichelotStep(triple, delta, Genus2Curve(monic, p))


def _restore_degree(g: Sequence[RoundedComplex], prec: int) -> Tuple[RoundedComplex, ...]:
    """Moebius-move a degenerate (degree < 6) image sextic back to degree 6.

    Substitutes x -> t + 1/x and clears denominators, giving coefficient
    reversal of g(x + t); t is the first of ``MOVE_SHIFTS`` with the
    largest |g(t)| at ``prec + WORK_GUARD`` bits (``first_largest_modulus``,
    as the elimination's pivot), refused when that |g(t)| is negligible.
    """
    work = prec + WORK_GUARD
    values = [horner(g, RoundedComplex.of(t, work)) for t in MOVE_SHIFTS]
    best = first_largest_modulus(values, work)
    if negligible(values[best], prec, g):
        raise PrecisionError("could not renormalize a degenerate image model")
    return moved_model(g, RoundedComplex.of(MOVE_SHIFTS[best], work))


def moved_model(g: Sequence[Scalar], t: Scalar) -> Tuple[Scalar, ...]:
    """x^6 g(t + 1/x): the Taylor shift g(x + t), by repeated synthetic
    addition, with its coefficients reversed; its leading coefficient is g(t)."""
    shifted = list(g)
    n = len(shifted)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            shifted[j] += t * shifted[j + 1]
    return tuple(reversed(shifted))


def dual_triple(step: RichelotStep) -> QuadraticTriple:
    """The factorization of the image induced by the bracket quadratics.

    Normalizes ([A,B], [A,C], [B,C]) monic; their product is then exactly
    the image's monic model, and applying ``richelot_image`` to the result
    realizes the dual isogeny (so invariants return to the source curve).
    Degenerate brackets raise PrecisionError; use a transformed model then.
    """
    if step.is_split:
        raise ValueError("split steps have no genus-2 dual factorization")
    p = step.triple.prec
    one = RoundedComplex.of(1, p + WORK_GUARD)
    with mp.workprec(p + WORK_GUARD):
        a, b, c = step.triple.quads
        quads = []
        for u, v in ((a, b), (a, c), (b, c)):
            q = bracket(u, v)
            if negligible(q[2], p, q):
                raise PrecisionError("degenerate bracket: dual factorization has no monic model")
            quads.append((q[0] / q[2], q[1] / q[2], one))
        return QuadraticTriple(tuple(quads), p)


def all_isogenous_invariants(curve: Genus2Curve, prec: int,
                             invariant: Optional[Callable[[Genus2Curve], object]] = None,
                             ) -> Tuple[Tuple[RichelotStep, object], ...]:
    """The 15 (2,2)-isogeny steps out of ``curve``, each with its image's invariant.

    The pairs (step, value) come in the order of ``enumerate_factorizations``;
    value is None exactly when the step is split. ``invariant`` maps an
    image curve to its value: by default ``absolute_igusa`` (the full
    triple); ``modpoly`` passes ``absolute_j1`` to build P2. Each image is
    built and its invariant taken before the next image is built, so the
    first error raised is that of the first bad image, whichever function
    is passed.

    A triple whose nine coefficients' int pairs are those of an earlier
    built triple with each imaginary mantissa negated is not built: its
    step is that step with delta and the image conjugated, and its value
    that value conjugated, exactly. This is bit for bit what building it
    gives, as every operation on the way (the RoundedComplex operators,
    ``first_largest_modulus``, ``negligible``, the model move by a real
    shift, the elimination) commutes exactly with conjugation. For a
    rational curve it skips none to 6 of the 15 images, by where the
    conjugate roots sit in the sorted order (none when all six or none
    are real), about 3 on random small integer sextics.
    """
    invariant = invariant or absolute_igusa
    pairs = []
    conjugates = {}     # the conjugate's int pairs of each built triple -> its pair
    for triple in enumerate_factorizations(curve, prec):
        key = tuple(c.parts for q in triple.quads for c in q)
        if key in conjugates:
            pairs.append(_conjugate_pair(triple, *conjugates[key]))
            continue
        step = richelot_image(triple)
        pairs.append((step, None if step.is_split else invariant(step.image)))
        conjugates[tuple((re, (-m, e)) for re, (m, e) in key)] = pairs[-1]
    return tuple(pairs)


def _conjugate_pair(triple: QuadraticTriple, step: RichelotStep, value) -> Tuple[RichelotStep, object]:
    """The step and invariant of ``triple``, the exact conjugate of ``step``'s
    triple, from ``step`` and its ``value``: delta, the image's coefficients
    and the value conjugated exactly (a RoundedComplex, or a tuple of mpc)."""
    image = None if step.is_split else Genus2Curve(tuple(c.conjugate() for c in step.image.coeffs),
                                                   step.image.prec)
    if isinstance(value, RoundedComplex):
        value = value.conjugate()
    elif value is not None:
        value = type(value)(*(mp.make_mpc((z._mpc_[0], mpf_neg(z._mpc_[1]))) for z in value))
    return RichelotStep(triple, step.delta.conjugate(), image), value
