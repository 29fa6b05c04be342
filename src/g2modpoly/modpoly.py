"""Point evaluations of the level-2 modular relations, and degree detection.

For a genus-2 curve C with absolute invariants (j1, j2, j3), the 15
(2,2)-isogenous surfaces have j1-invariants x_1..x_15. Two families of
univariate polynomials in X tie these together:

* ``evaluated_P2``: the monic degree-15 polynomial with the x_i as roots.
  It is built from the images' j1 alone (``g2curve.absolute_j1``) and
  carries no companions. For a curve defined over Q its coefficients are
  rational; they can be recovered exactly by continued-fraction
  reconstruction with precision escalation, and are checked against P2
  modulo a prime (``modp``).
* ``evaluated_Ftilde`` (k = 2 or 3): the interpolation companion
  sum_i prod_{j != i} (X - x_j) * j_k(image_i), which satisfies
  Ftilde_k(x_i) = P'(x_i) j_k(image_i), so j_2 and j_3 of every image are
  read off from P and the two companions. Only this function and
  ``companion_identity_report`` take the images' full invariant triples
  and expand companions, from the same P2.

``l2_evaluate`` evaluates, exactly at a rational triple, the split-locus
polynomial deciding whether an invariant triple belongs to a product of
elliptic curves; its 34 terms are the frozen table ``L2_TERMS``, in the
format of the Igusa-Clebsch tables. ``degree_profile`` recovers the
numerator/denominator degrees of an unknown rational function from exact
samples, which is how the degree shape of such relations is measured
experimentally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from mpmath import mp, mpc, mpf

from .exactnum import (
    DEFAULT_PREC,
    ComplexPoly,
    PrecisionError,
    WORK_GUARD,
    bareiss_det,
    horner,
    mpf_to_fraction,
    negligible,
    rational_reconstruct,
    relative_deviation,
    tolerance,
)
from .g2curve import Genus2Curve, IgusaTriple, _eval_terms, absolute_igusa, absolute_j1
from .modp import check_mod_p
from .richelot import _collision, all_isogenous_invariants

DEFAULT_DENOM_BOUND = 1 << 256
DEFAULT_PREC_CAP = 2000

#: Degree data of the full symbolic level-2 relation over Q(j1, j2, j3),
#: pinned as fixed reference targets.  Each coefficient of the degree-15
#: polynomial is a rational function of the invariants; the constant term
#: has numerator degree 60 and denominator degree 51 in j1, every
#: denominator has degree 42 in j2 and degree 30 in j3, and the constant
#: term's numerator alone holds 16795 monomials (coefficients with up to
#: ~200 decimal digits; tens of megabytes for the full system).  That
#: symbolic object is far beyond desk-scale recomputation; this package
#: works with point evaluations instead and records these values only so
#: that ``degree_profile`` results can be compared against the known shape.
FULL_P2_DEGREE_DATA = {
    "j1_constant_term_profile": (60, 51),
    "j2_denominator_degree": 42,
    "j3_denominator_degree": 30,
    "constant_term_monomials": 16795,
}

# Split-locus polynomial in the absolute invariants (j1, j2, j3).
# Vanishes exactly when the principally polarized surface is a product
# of elliptic curves with the product polarization.
# A key (a, b, c) is the monomial j1^a j2^b j3^c.
L2_TERMS = {
    (0, 6, 1): -384,
    (0, 7, 0): 80,
    (1, 3, 3): 6912,
    (1, 4, 2): -6048,
    (1, 5, 0): -41472,
    (1, 5, 1): 1728,
    (1, 6, 0): -159,
    (2, 0, 5): -31104,
    (2, 1, 4): 47952,
    (2, 2, 2): 9331200,
    (2, 2, 3): -29376,
    (2, 3, 1): -4743360,
    (2, 3, 2): 8910,
    (2, 4, 0): 592272,
    (2, 4, 1): -1332,
    (2, 5, 0): 78,
    (3, 0, 3): 3499200,
    (3, 0, 4): 81,
    (3, 1, 1): 2099520000,
    (3, 1, 2): -3090960,
    (3, 1, 3): -108,
    (3, 2, 0): -507384000,
    (3, 2, 1): 870912,
    (3, 2, 2): 54,
    (3, 3, 0): -77436,
    (3, 3, 1): -12,
    (3, 4, 0): 1,
    (4, 0, 0): 125971200000,
    (4, 0, 1): -104976000,
    (4, 0, 2): -8748,
    (4, 1, 0): 19245600,
    (4, 1, 1): 5832,
    (4, 2, 0): -972,
    (5, 0, 0): 236196,
}

#: the total degree of ``L2_TERMS``
_L2_DEGREE = max(sum(mono) for mono in L2_TERMS)

#: ``L2_TERMS`` homogenized in (n1, n2, n3, d), for the point j_k = n_k / d
_L2_HOMOGENEOUS = {(*mono, _L2_DEGREE - sum(mono)): coeff for mono, coeff in L2_TERMS.items()}


class SplitInputError(ValueError):
    """The input curve is (2,2)-isogenous to a split surface, so the
    evaluated polynomial has a missing root and is not defined."""


class CollidingImagesError(PrecisionError):
    """Two image invariants coincide to tolerance; the construction needs
    higher precision (or the images genuinely collide)."""


def l2_evaluate(j: Sequence) -> Fraction:
    """Evaluate the split-locus polynomial exactly at a rational invariant triple.

    Zero is a proof of a split Jacobian. A triple with an entry that is
    not an int or a Fraction (a float, an mpc value) is refused with
    ValueError. The triple is put on its least common denominator d,
    j_k = n_k / d; the homogenized table is evaluated over ints at
    (n1, n2, n3, d) by ``_eval_terms``, each power it reads taken once, and
    divided once by d^7, its degree.
    """
    point = tuple(j)
    if len(point) != 3:
        raise ValueError("expected a triple (j1, j2, j3)")
    if not all(isinstance(v, (int, Fraction)) for v in point):
        raise ValueError("the split-locus polynomial is evaluated at rational triples only")
    d = math.lcm(*(v.denominator for v in point))
    ints = [v.numerator * (d // v.denominator) for v in point] + [d]
    return Fraction(_eval_terms(_L2_HOMOGENEOUS, ints), d ** _L2_DEGREE)


# ---------------------------------------------------------------------------
# the evaluated modular polynomial and its companions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluatedModPoly:
    """P2 at one curve, with optional exact coefficients.

    ``p2`` is monic of degree 15 with the image j1-invariants as roots.
    ``rational_p2`` holds the 16 reconstructed rational coefficients of p2
    (constant first) when reconstruction was requested and succeeded, else
    None. ``prec`` is the binary precision the stored complex data was
    computed at. The companions are not built here; ``evaluated_Ftilde``
    and ``companion_identity_report`` build them.
    """

    prec: int
    source: IgusaTriple
    p2: ComplexPoly
    rational_p2: Optional[Tuple[Fraction, ...]] = None


def _p2(curve: Genus2Curve, prec: int, triples: bool = False):
    """P2 = prod_i (X - x_i), the images' j1-invariants x_i, and the images' values.

    An image's value is its IgusaTriple when ``triples``, else its j1 alone
    (so the values are the x_i). Raises on split or colliding images.
    """
    pairs = all_isogenous_invariants(curve, prec, absolute_igusa if triples else absolute_j1)
    split = [k for k, (step, _) in enumerate(pairs) if step.is_split]
    if split:
        raise SplitInputError(
            f"factorizations {split} give split quotients; the evaluated polynomial is undefined")
    values = [value for _, value in pairs]
    xs = [v.j1 for v in values] if triples else values
    with mp.workprec(prec + WORK_GUARD):
        pair = _collision(xs, prec)
    if pair is not None:
        raise CollidingImagesError(
            f"image invariants {pair[0]} and {pair[1]} collide at this precision")
    return ComplexPoly.from_roots(xs, prec), xs, values


def _companion(p2: ComplexPoly, xs: Sequence[mpc], jks: Sequence[mpc]) -> ComplexPoly:
    """Ftilde_k = sum_i j_k(image_i) P2 / (X - x_i), from the images' j_k values."""
    with mp.workprec(p2.prec + WORK_GUARD):
        ft = [0] * p2.degree
        for x, jk in zip(xs, jks):
            ft = [s + c * jk for s, c in zip(ft, p2.deflate(x).coeffs)]
    return ComplexPoly(tuple(ft), p2.prec)


def _build(curve: Genus2Curve, prec: int) -> EvaluatedModPoly:
    p2, _, _ = _p2(curve, prec)
    return EvaluatedModPoly(prec=prec, source=absolute_igusa(curve), p2=p2)


def evaluated_P2(curve: Genus2Curve, prec: int = DEFAULT_PREC, *,
                 reconstruct: bool = False,
                 denom_bound: int = DEFAULT_DENOM_BOUND,
                 prec_cap: int = DEFAULT_PREC_CAP) -> EvaluatedModPoly:
    """The evaluated degree-15 polynomial at ``curve``.

    With ``reconstruct`` (rational curves only) the coefficients are
    reconstructed as exact rationals with denominators up to
    ``denom_bound``; on failure the precision is doubled up to ``prec_cap``
    and the pipeline rerun. Rungs below the cap whose resolution cannot
    resolve the decoding radius ``1/(2 denom_bound^2)`` even for a
    coefficient of magnitude 1 would be rejected whatever they compute, so
    they are skipped; the cap is always built. The decoding radius makes
    the rationals of a rung unique. They are then checked exactly against
    P2 modulo one prime (``modp.check_mod_p``), which does not depend on
    the float pipeline but is no proof without a height bound; if they
    agree, the result carries ``rational_p2`` and the ``prec`` of that
    rung. If every rung fails, the highest-precision complex result is
    returned with ``rational_p2 = None``.
    """
    if not reconstruct:
        return _build(curve, prec)
    if not curve.is_exact:
        raise ValueError("rational reconstruction needs an exact input curve")
    if denom_bound < 1:
        raise ValueError("denominator bound must be at least 1")
    rungs = [prec]
    while rungs[-1] < prec_cap:
        rungs.append(min(2 * rungs[-1], prec_cap))
    floor = _decoding_radius(denom_bound) / 2
    rungs = [q for q in rungs[:-1] if _resolution(q) <= floor] + rungs[-1:]
    result = None
    for q in rungs:
        result = _build(curve, q)
        coeffs = _reconstruct_coeffs(result.p2, q, denom_bound)
        if coeffs is not None and check_mod_p(curve, coeffs) is not None:
            return replace(result, rational_p2=tuple(coeffs))
    return result


def _decoding_radius(denom_bound: int) -> Fraction:
    """1/(2 B^2): two fractions with denominators <= B differ by more than 1/B^2."""
    return Fraction(1, 2 * denom_bound * denom_bound)


def _resolution(prec: int) -> Fraction:
    """How finely a coefficient of magnitude <= 1 is known from a ``prec``-bit build."""
    return Fraction(1, 1 << max(prec - 2 * WORK_GUARD, 1))


def _reconstruct_coeffs(p2: ComplexPoly, prec: int,
                        denom_bound: int) -> Optional[List[Fraction]]:
    """Rational candidates for every coefficient, or None to force escalation.

    Besides the convergent residual check, each candidate must sit within
    the unique-decoding radius 1/(2 B^2) of the approximation: two distinct
    fractions with denominators <= B differ by more than 1/B^2, so inside
    that radius the candidate is the only explanation with a legal
    denominator. Without this, a convergent of a higher-denominator true
    value can masquerade as a reconstruction at low precision.

    The radius test only means something when the approximation resolves
    below the radius in the first place (a coefficient of magnitude 2^s at
    p bits is only known to ~2^(s-p), and may even round to an exact
    integer); rungs whose resolution is coarser than the radius are
    rejected outright so the caller escalates.
    """
    radius = _decoding_radius(denom_bound)
    resolution = _resolution(prec)
    out: List[Fraction] = []
    with mp.workprec(prec + WORK_GUARD):
        for c in p2.coeffs:
            if not negligible(c.imag, prec, (c.real,)):
                return None
            x = mpf_to_fraction(c.real)
            if resolution * max(Fraction(1), abs(x)) > radius / 2:
                return None
            r = rational_reconstruct(x, denom_bound, prec)
            if r is None:
                return None
            if abs(x - r) > radius:
                return None
            out.append(r)
    return out


def evaluated_Ftilde(curve: Genus2Curve, k: int, prec: int = DEFAULT_PREC) -> ComplexPoly:
    """The degree-14 companion carrying j_k of the images (k in {2, 3}).

    Builds the images' full invariant triples and P2, then only the
    requested companion.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    p2, xs, triples = _p2(curve, prec, triples=True)
    return _companion(p2, xs, [t[k - 1] for t in triples])


@dataclass(frozen=True)
class CompanionReport:
    """Certified check that Ftilde_k(x_i) = P'(x_i) j_k(image_i) holds.

    ``prec`` is the precision the tolerance refers to; ``pipeline_prec`` is
    the internal precision actually used, which must exceed ``prec`` by the
    conditioning of evaluating the expanded coefficients at the roots
    (those evaluations cancel heavily, so extra working bits are needed to
    certify a 2**(-prec/2) relative identity).
    """

    prec: int
    pipeline_prec: int
    worst_rel_2: mpf
    worst_rel_3: mpf

    @property
    def ok(self) -> bool:
        tol = tolerance(self.prec)
        return self.worst_rel_2 <= tol and self.worst_rel_3 <= tol


def companion_identity_report(curve: Genus2Curve, prec: int = DEFAULT_PREC) -> CompanionReport:
    """Measure the companion identity residuals at certified precision.

    Builds the evaluated polynomial and companions at an internal precision,
    measures the largest relative deviation of Ftilde_k(x_i)/P'(x_i) from
    j_k(image_i) over all 15 roots and k in {2, 3}, and escalates the
    internal precision until the residual bound is dominated by the
    requested tolerance (or the cap 64*prec is hit, raising PrecisionError).
    """
    cap = 64 * prec
    w = prec + WORK_GUARD
    while True:
        p2, xs, triples = _p2(curve, w, triples=True)
        jks = {k: [t[k - 1] for t in triples] for k in (2, 3)}
        ft = {k: _companion(p2, xs, jks[k]).coeffs for k in (2, 3)}
        with mp.workprec(w + WORK_GUARD):
            dp = [k * c for k, c in enumerate(p2.coeffs)][1:]
            worst = {2: mpf(0), 3: mpf(0)}
            cond_bits = 0
            for i, x in enumerate(xs):
                dpx = horner(dp, x)
                spread = _eval_magnitude(dp, x)
                if dpx == 0:
                    raise CollidingImagesError("derivative vanishes at an image invariant")
                cond_bits = max(cond_bits, int(mp.log(spread / abs(dpx), 2)) + 1)
                for k in (2, 3):
                    fx = horner(ft[k], x)
                    worst[k] = max(worst[k], relative_deviation(jks[k][i], fx / dpx))
                    spread_f = _eval_magnitude(ft[k], x)
                    if abs(fx) > 0:
                        cond_bits = max(cond_bits, int(mp.log(spread_f / abs(fx), 2)) + 1)
        needed = prec // 2 + cond_bits + 2 * WORK_GUARD
        if worst[2] <= tolerance(prec) and worst[3] <= tolerance(prec) and w >= needed:
            return CompanionReport(prec, w, worst[2], worst[3])
        if w >= cap:
            raise PrecisionError(
                f"companion identity not certified below precision cap {cap}")
        w = min(cap, max(2 * w, needed))


def _eval_magnitude(coeffs: Sequence[mpc], x: mpc) -> mpf:
    """Sum of absolute term magnitudes |c_k| |x|^k (conditioning estimate)."""
    return horner([abs(c) for c in coeffs], abs(mpc(x)))


# ---------------------------------------------------------------------------
# degree detection for rational functions
# ---------------------------------------------------------------------------


def degree_profile(evaluator: Callable[[Fraction], Fraction], m_max: int, n_max: int,
                   samples: Sequence[Union[Fraction, int]]) -> Optional[Tuple[int, int]]:
    """Exact numerator/denominator degrees of a rational function from samples.

    Sweeps candidate profiles (m, n) by increasing m + n, then m. For each
    candidate, the square matrix with rows
    (1, x, ..., x^m, -c(x), -c(x) x, ..., -c(x) x^n) over m + n + 2 sample
    points is singular exactly when a relation P = c Q with deg P <= m,
    deg Q <= n fits the samples. The first profile singular on two disjoint
    sample windows (one window if only m + n + 2 samples are given) is
    returned; None if no candidate fits. Each determinant is decided
    exactly, as a fraction-free integer determinant (``bareiss_det``).

    ``evaluator`` must return exact Fractions and be defined at every
    sample; for a target in lowest terms and generic samples the returned
    profile is the true degree pair.
    """
    if m_max < 0 or n_max < 0:
        raise ValueError("degree bounds must be nonnegative")
    xs = [Fraction(s) for s in samples]
    if len(set(xs)) != len(xs):
        raise ValueError("sample points must be distinct")
    if len(xs) < m_max + n_max + 2:
        raise ValueError("need at least m_max + n_max + 2 samples")
    values = [Fraction(evaluator(x)) for x in xs]
    for total in range(m_max + n_max + 1):
        for m in range(total + 1):
            n = total - m
            if m > m_max or n > n_max:
                continue
            need = total + 2
            windows = [(0, need)]
            if len(xs) >= 2 * need:
                windows.append((need, 2 * need))
            if all(
                _relation_matrix_singular(m, n, xs[lo:hi], values[lo:hi])
                for lo, hi in windows
            ):
                return (m, n)
    return None


def _relation_matrix_singular(m: int, n: int, xs: Sequence[Fraction],
                              cs: Sequence[Fraction]) -> bool:
    rows: List[List[int]] = []
    for x, c in zip(xs, cs):
        row: List[Fraction] = []
        p = Fraction(1)
        for _ in range(m + 1):
            row.append(p)
            p *= x
        p = -c
        for _ in range(n + 1):
            row.append(p)
            p *= x
        lcm = math.lcm(*(v.denominator for v in row))
        rows.append([int(v * lcm) for v in row])
    return bareiss_det(rows) == 0
