"""Genus-2 curves y^2 = f(x) with monic sextic f, and their Igusa invariants.

A curve is stored by the seven coefficients of f, constant term first,
leading coefficient exactly 1. Input curves are rational: ``validate_curve``
and the JSON loaders accept only rational coefficients (Fraction). Complex
models (``exactnum.RoundedComplex`` coefficients at a stated precision)
arise only as Richelot images, which ``richelot.richelot_image`` builds
directly.

Invariants come in two flavours:

* ``igusa_clebsch``: the classical quadruple (I2, I4, I6, I10) of weights
  (2, 4, 6, 10) in the coefficients of a general sextic, normalized so that
  they agree with the symmetric root-difference sums (I10 is the
  discriminant of the monic sextic). I2, I4, I6 are evaluated from frozen
  integer coefficient formulas (igusa_data.py) by ``_eval_terms``, which
  takes each power c^e that a table reads once; complex coefficients are
  evaluated as ``exactnum.RoundedComplex`` values, each power exact and
  rounded once. I10 = -Res(f, f') comes from a Gaussian elimination over
  the same values (``_resultant_f_fprime``). For a rational
  curve all four come from ``exact_clebsch``: the curve is first moved to
  its integral model D^6 f(x/D), D the least common denominator, where the
  tables and I10 (``exactnum.bareiss_det`` of the integer Sylvester matrix)
  are evaluated over ints and then divided by the power of D that the
  model change multiplied them by. ``modp``
  evaluates the I2 table over F_{p^2} with the same ``_eval_terms`` and
  takes I10 from the brackets in closed form.
* ``absolute_igusa``: the weight-zero triple
  j1 = I2^5/I10, j2 = I2^3 I4/I10, j3 = I2^2 I6/I10, each power of I2
  exact (rounded once for a complex curve), as an ``IgusaTriple``: a named
  tuple, read by name (``.j1``) or as the plain tuple (j1, j2, j3);
  ``igusa_clebsch`` and ``absolute_igusa`` return a complex curve's values
  as mpc. ``absolute_j1`` is j1 alone, from I2 and I10 only (c3^2 is its
  one power of a coefficient), bit for bit the same value, returned as
  computed (a RoundedComplex for an image); the evaluated P2 needs nothing
  else of the 15 Richelot images.
  These are invariant under Moebius changes of the x coordinate and under
  quadratic twists, so they classify the curve up to isomorphism over an
  algebraically closed field (away from I2 = 0).

``transform_model`` applies a fractional-linear substitution to x and
renormalizes to a monic model, absorbing the leading coefficient into a
twist; the absolute triple is unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from mpmath import mp

from .exactnum import (
    DEFAULT_PREC,
    RoundedComplex,
    Scalar,
    WORK_GUARD,
    bareiss_det,
    first_largest_modulus,
    format_rational,
    negligible,
    parse_rational,
    poly_mul,
    str_to_int,
    to_mpc,
)
from .igusa_data import I2_TERMS, I4_TERMS, I6_TERMS


class NotMonicError(ValueError):
    """The sextic model is not monic of degree 6."""


class SingularCurveError(ValueError):
    """The sextic has a repeated root, so y^2 = f(x) is not a genus-2 curve."""


@dataclass(frozen=True)
class Genus2Curve:
    """y^2 = f(x) with f monic of degree 6, coefficients constant first."""

    coeffs: Tuple[Scalar, ...]
    prec: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.coeffs) != 7:
            raise NotMonicError("expected 7 coefficients for a sextic")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, (Fraction, int)) for c in self.coeffs)

    def working_prec(self) -> int:
        return self.prec if self.prec is not None else DEFAULT_PREC


class IgusaTriple(NamedTuple):
    """Absolute Igusa invariants (j1, j2, j3); exact or at a stated precision."""

    j1: Scalar
    j2: Scalar
    j3: Scalar


def validate_curve(coeffs: Sequence[Union[int, Fraction, str]]) -> Genus2Curve:
    """Build a rational curve after checking monicity and separability.

    Each coefficient is an int, a Fraction or a rational string; anything
    else (a float, an mpc value) is refused with ValueError. Separability
    is checked exactly: the discriminant I10 must be nonzero, which it is
    exactly when it is nonzero on the integral model.
    """
    if len(coeffs) != 7:
        raise NotMonicError(f"expected 7 coefficients, got {len(coeffs)}")
    parsed: List[Fraction] = []
    for c in coeffs:
        if isinstance(c, str):
            parsed.append(parse_rational(c))
        elif isinstance(c, (int, Fraction)):
            parsed.append(Fraction(c))
        else:
            raise ValueError(f"coefficient {c!r} is not rational")
    if parsed[6] != 1:
        raise NotMonicError("leading coefficient must be exactly 1")
    _, integral = _integral_model(parsed)
    if bareiss_det(_sylvester_f_fprime(integral, 0)) == 0:
        raise SingularCurveError("sextic has a repeated root (discriminant is zero)")
    return Genus2Curve(tuple(parsed))


def _d_weight(terms) -> int:
    """The power of D by which x -> x/D multiplies the value of a table.

    The model D^6 f(x/D) has coefficients c_k D^(6-k), so a term
    c0^e0 ... c5^e5 gains D^s with s = sum (6-k) e_k. An invariant's table
    is isobaric, so s is the same for every term and is read off the first.
    """
    return sum((6 - k) * e for k, e in enumerate(next(iter(terms))))


assert all(_d_weight((mono,)) == _d_weight(terms)
           for terms in (I2_TERMS, I4_TERMS, I6_TERMS) for mono in terms), "a table is not isobaric"

#: the D-weight of I10: j1 = I2^5 / I10 has weight zero, so x -> x/D leaves it unchanged
_I10_D_WEIGHT = 5 * _d_weight(I2_TERMS)


def _eval_terms(terms, values):
    """Evaluate a frozen exponent-vector table at ``values`` (c0, c1, ...).

    Each power ``v ** e`` that the table reads is taken once per call (v
    itself for e = 1): exact for ints, Fractions and F_{p^2}, exact and
    rounded once for a RoundedComplex.
    """
    powers = {}
    total = None
    for mono, coeff in terms.items():
        acc = None
        for k, e in enumerate(mono):
            if e:
                if (k, e) not in powers:
                    powers[k, e] = values[k] if e == 1 else values[k] ** e
                acc = powers[k, e] if acc is None else acc * powers[k, e]
        term = coeff if acc is None else coeff * acc
        total = term if total is None else total + term
    return total


def _sylvester_f_fprime(coeffs: Sequence, zero) -> List[list]:
    """Sylvester matrix of monic sextic f and f' (coefficients constant first):
    5 shifted rows of f, then 6 of f'."""
    f_desc = list(reversed(list(coeffs)))
    fp_desc = [(6 - i) * f_desc[i] for i in range(6)]
    a = [[zero] * i + f_desc + [zero] * (4 - i) for i in range(5)]
    a += [[zero] * i + fp_desc + [zero] * (5 - i) for i in range(6)]
    return a


def _resultant_f_fprime(coeffs: Sequence[Scalar], prec: int) -> RoundedComplex:
    """Res(f, f') for monic sextic f with complex coefficients, constant first.

    Gaussian elimination of the 11x11 Sylvester matrix over RoundedComplex
    at ``work = prec + WORK_GUARD`` bits, so each step rounds bit for bit as
    the mpc operators ``mpc_mul``, ``mpc_sub`` and ``mpc_div`` round it (an
    update x - fct*y is one ``minus_product``; the divisions of a column by
    its pivot take |pivot|**2 once, with the bits ``/`` takes it to). Only the
    columns k+1..10 of the rows below the pivot are updated (no later step
    reads the others), and an update x - fct*y by an exact zero y is
    skipped: it rounds x to ``work`` bits, which leaves x as it is unless a
    coefficient carries more bits (never for a Richelot image), and then
    nothing is skipped.

    Column k's pivot is ``max(range(k, 11), key=lambda i: abs(a[i][k]))``:
    the first row with the largest rounded modulus. ``first_largest_modulus``
    finds it from the exact norms N = re**2 + im**2, with no square root.
    Rounded ``abs`` is sqrt(N) rounded to nearest, N first rounded down to
    work + 4 bits when both parts are nonzero, so it is nondecreasing in N
    up to that 2**-(work+3) relative rounding. A row whose norm lies below
    the largest norm by more than 2**(4-work) of it has a square root more
    than 3 ulps below, so its ``abs`` is strictly smaller and it is not
    the pivot. The rows within that margin (in practice only the one with
    the largest norm) have their rounded ``abs`` compared, the first of
    the largest winning as in ``max``: the same row, ties included.
    """
    size = 11
    work = prec + WORK_GUARD
    zero = RoundedComplex.of(0, work)
    a = _sylvester_f_fprime([RoundedComplex.of(c, work) for c in coeffs], zero)
    skip_zero = all(m.bit_length() <= work for z in a[0] for m, _ in z.parts)
    det = RoundedComplex.of(1, work)
    for k in range(size):
        piv = k + first_largest_modulus([a[i][k] for i in range(k, size)], work)
        if not a[piv][k]:
            return zero
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pivot = a[k]
        det = det * pivot[k]
        norm = pivot[k].squared_modulus(work)
        cols = [j for j in range(k + 1, size) if not skip_zero or pivot[j]]
        for row in a[k + 1:]:
            if row[k]:
                fct = row[k].over(pivot[k], norm)
                for j in cols:
                    row[j] = row[j].minus_product(fct, pivot[j])
    return det


def igusa_clebsch(curve: Genus2Curve) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
    """(I2, I4, I6, I10); exact Fractions for exact curves, mpc otherwise."""
    return _returned(curve, _clebsch(curve, (I2_TERMS, I4_TERMS, I6_TERMS)))


def _returned(curve: Genus2Curve, values: Sequence) -> tuple:
    """``values`` as returned: Fractions as they are, RoundedComplex as mpc."""
    return tuple(values) if curve.is_exact else tuple(to_mpc(v, curve.working_prec()) for v in values)


def _clebsch(curve: Genus2Curve, terms: Sequence[dict]) -> Tuple[Scalar, ...]:
    """The frozen tables ``terms`` evaluated at the coefficients, then I10.

    A complex curve's values are RoundedComplex. A power c^e is the same
    value whichever tables read it, so I2 does not depend on whether I4
    and I6 are evaluated beside it.
    """
    if curve.is_exact:
        return exact_clebsch(curve.coeffs, terms)
    prec = curve.working_prec()
    coeffs = [RoundedComplex.of(c, prec + WORK_GUARD) for c in curve.coeffs]
    return (*(_eval_terms(t, coeffs) for t in terms), -_resultant_f_fprime(coeffs, prec))


def _integral_model(coeffs: Sequence[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """D and the integer coefficients c_k D^(6-k) of the monic model D^6 f(x/D).

    D is the least common denominator of the rational coefficients, constant
    first, of the monic sextic f.
    """
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * d ** (6 - k) // c.denominator for k, c in enumerate(coeffs)]


def exact_clebsch(coeffs: Sequence[Union[int, Fraction]], terms: Sequence[dict]) -> tuple:
    """The frozen tables ``terms``, then I10, for a monic rational sextic.

    ``coeffs`` are the seven coefficients, constant first, ints and
    Fractions. They are first moved to the integral model
    (``_integral_model``); the tables are evaluated there over ints, and
    I10 = -Res(f, f') is ``bareiss_det`` of the integer Sylvester matrix.
    Each value is divided by D to its table's D-weight, so the Fractions
    are the values on f itself.
    """
    d, coeffs = _integral_model(coeffs)
    values = [_eval_terms(t, coeffs) for t in terms]
    values.append(-bareiss_det(_sylvester_f_fprime(coeffs, 0)))
    weights = [_d_weight(t) for t in terms] + [_I10_D_WEIGHT]
    return tuple(Fraction(v, d ** s) for v, s in zip(values, weights))


def _require_nonsingular(curve: Genus2Curve, i10: Scalar) -> None:
    """Raise SingularCurveError when I10 is zero (exact) or negligible at the
    curve's precision; evaluated at the caller's ambient precision."""
    if curve.is_exact:
        if i10 == 0:
            raise SingularCurveError("discriminant is zero")
    elif negligible(i10, curve.working_prec(), curve.coeffs, 10):
        raise SingularCurveError("discriminant vanishes at working precision")


def absolute_igusa(curve: Genus2Curve) -> IgusaTriple:
    """The weight-zero triple (I2^5, I2^3 I4, I2^2 I6) / I10."""
    i2, i4, i6, i10 = _clebsch(curve, (I2_TERMS, I4_TERMS, I6_TERMS))
    with mp.workprec(curve.working_prec() + WORK_GUARD):
        _require_nonsingular(curve, i10)
    return IgusaTriple(*_returned(curve, (i2**5 / i10, i2**3 * i4 / i10, i2**2 * i6 / i10)))


def absolute_j1(curve: Genus2Curve) -> Union[Fraction, RoundedComplex]:
    """j1 = I2^5 / I10 alone, equal bit for bit to ``absolute_igusa(curve).j1``.

    Only I2 (whose table reads no power but c3^2) and I10 are evaluated,
    and the curve is refused as singular exactly when ``absolute_igusa``
    refuses it. j1 is returned as computed: a Fraction for a rational
    curve, a RoundedComplex for a complex one.
    """
    i2, i10 = _clebsch(curve, (I2_TERMS,))
    with mp.workprec(curve.working_prec() + WORK_GUARD):
        _require_nonsingular(curve, i10)
    return i2**5 / i10


def transform_model(curve: Genus2Curve, g: Sequence[Sequence[Union[Fraction, int]]]) -> Genus2Curve:
    """Apply x -> (a x + b)/(c x + d) to a rational curve and renormalize to a monic model.

    ``g`` is a 2x2 matrix ((a, b), (c, d)) with nonzero determinant. The
    substituted sextic is (c x + d)^6 f((a x + b)/(c x + d)); its leading
    coefficient is absorbed into the quadratic twist, which leaves the
    absolute invariants unchanged. Degenerate substitutions (the image of
    infinity is a root of f, dropping the degree) are rejected, and so is
    a curve with complex coefficients (a Richelot image).
    """
    if not curve.is_exact:
        raise ValueError("only rational curves change model")
    (a, b), (c, d) = g
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    if a * d - b * c == 0:
        raise ValueError("substitution matrix must be invertible")
    # sum_i c_i (a x + b)^i (c x + d)^(6 - i)
    num_pows = [[1]]
    den_pows = [[1]]
    for _ in range(6):
        num_pows.append(poly_mul(num_pows[-1], [b, a]))
        den_pows.append(poly_mul(den_pows[-1], [d, c]))
    acc = [0] * 7
    for i, coeff in enumerate(curve.coeffs):
        if coeff == 0:
            continue
        term = poly_mul(num_pows[i], den_pows[6 - i])
        for k, val in enumerate(term):
            acc[k] += coeff * val
    lead = acc[6]
    if lead == 0:
        raise ValueError("substitution drops the degree (image of infinity is a root)")
    return Genus2Curve(tuple(x / lead for x in acc), curve.prec)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def curve_to_json(curve: Genus2Curve) -> dict:
    if not curve.is_exact:
        raise ValueError("only exact curves serialize to JSON")
    return {"f": [format_rational(Fraction(c)) for c in curve.coeffs]}


def curve_from_json(doc: dict) -> Genus2Curve:
    if not isinstance(doc, dict) or not isinstance(doc.get("f"), list):
        raise ValueError('curve JSON must be an object with an "f" list')
    return validate_curve([c if type(c) is int else str(c) for c in doc["f"]])


def load_curve(path: str) -> Genus2Curve:
    with open(path) as fh:
        return curve_from_json(json.load(fh, parse_int=str_to_int))
