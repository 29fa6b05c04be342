"""Exact rational and arbitrary-precision numeric kernel.

Everything downstream (symplectic matrices, Siegel points, Fourier series,
curve invariants, evaluated modular polynomials) is built on three ingredients
collected here:

* rationals: ``fractions.Fraction`` with ``p/q`` string (de)serialization of any length,
* dense univariate polynomials as coefficient lists over any ring:
  ``poly_mul``, ``poly_from_roots`` and ``horner`` are the package's only
  polynomial arithmetic, over Fractions, mpc and RoundedComplex values and
  F_{p^2} alike; ``ComplexPoly`` holds mpc coefficients at a stated
  precision and adds only synthetic division (``deflate``),
* exact linear algebra: ``nullspace`` and the fraction-free integer
  determinant ``bareiss_det``, which gives the Igusa-Clebsch I10 of a
  rational curve on its integral model; and continued-fraction rational
  reconstruction.

All floating point work rounds as mpmath does, at explicit binary precision;
the roots' Newton lift, the Richelot images, their invariants and P2 run on int pairs (``RoundedComplex``).
A value "at precision ``prec``" means the computation ran with at least
``prec`` mantissa bits; the associated comparison tolerance is
``tolerance(prec)`` = 2**(-prec/2), and ``negligible`` is the one test of
whether a value vanishes at that tolerance relative to a scale
(``rational_reconstruct`` alone uses the exact 2**-(prec//2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import functools
import math
import re

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero, mpc_abs, mpf_cmp, round_nearest

Scalar = Union[Fraction, int, mpc, mpf]
# what the tolerance tests take: a Fraction does not compare with an mpf
MpScalar = Union[int, mpc, mpf]

# Default working precision in bits for every module and the CLI.
DEFAULT_PREC = 300

# Extra working bits used inside kernels so that results are good to the
# caller's stated precision after roundoff.
WORK_GUARD = 64


class PrecisionError(ArithmeticError):
    """A numeric kernel could not certify its result at the requested precision."""


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------


_RATIONAL_LITERAL = r"([+-]?[0-9]+)(?:/([0-9]+))?"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (optionally signed) into a Fraction; their
    digits may be of any length (``str_to_int``)."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    try:
        if literal := re.fullmatch(_RATIONAL_LITERAL, s):
            return Fraction(str_to_int(literal[1]), str_to_int(literal[2] or "1"))
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {excerpt(text)}") from exc


def excerpt(text: str) -> str:
    """``text`` quoted for a refusal message: at most 40 characters, then its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def str_to_int(text: str) -> int:
    """int(text) past ``sys.get_int_max_str_digits()``, the reverse of
    ``_int_to_str``, for text ``[+-]?[0-9]+`` (as ``parse_rational`` and the
    JSON number syntax give it): 600 digits or more are read in halves."""
    digits = text.lstrip("+-")
    if len(digits) < 600:
        return int(text)
    half = len(digits) // 2
    value = str_to_int(digits[:half]) * 10 ** (len(digits) - half) + str_to_int(digits[half:])
    return -value if text[0] == "-" else value


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``p/q``, or ``p`` when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return _int_to_str(q.numerator)
    return f"{_int_to_str(q.numerator)}/{_int_to_str(q.denominator)}"


def _int_to_str(n: int) -> str:
    """str(n) past ``sys.get_int_max_str_digits()`` (4300 by default, at least
    640): an int of 2000 bits or more is split by divmod on a power of ten."""
    if n < 0:
        return "-" + _int_to_str(-n)
    if n.bit_length() < 2000:
        return str(n)
    half = n.bit_length() * 3 // 20   # about half its digits: log10(2) > 3/10
    high, low = divmod(n, 10 ** half)
    return _int_to_str(high) + _int_to_str(low).zfill(half)


@functools.lru_cache(maxsize=None)
def tolerance(prec: int) -> mpf:
    """The package-wide comparison tolerance ``2**(-prec/2)``.

    Rounded to 64 bits, so it is an exact power of two only for even
    ``prec``; the value depends on ``prec`` alone and is computed once.
    """
    with mp.workprec(64):
        return mpf(2) ** (mpf(-prec) / 2)


def magnitude(values: Iterable[MpScalar]) -> mpf:
    """``max(1, |v| for v in values)``: the scale a tolerance is relative to.

    NaN when some |v| is NaN, so that a comparison against it is False
    (``max`` alone would keep whichever of 1 and NaN came first).
    """
    sizes = [abs(v) for v in values]
    nans = [size for size in sizes if size != size]
    return nans[0] if nans else max([mpf(1)] + sizes)


#: binades by which the exponent brackets of ``negligible``'s two sides
#: must clear each other before the verdict is taken from them alone
_EXPONENT_MARGIN = 2


def _binade(v: MpScalar) -> Optional[int]:
    """The largest exponent plus bit count over the parts of an mpf, mpc or RoundedComplex.

    For a finite nonzero v this e gives 2**(e-1) <= |v| < 2**(e+1/2): the
    larger part lies in [2**(e-1), 2**e), and the other adds at most a
    factor sqrt(2). It is -inf for zero, and None for inf, NaN or a value
    that is not an mpmath number.
    """
    try:
        parts = v.parts if isinstance(v, RoundedComplex) else mpc_to_pairs(v)
    except (AttributeError, ValueError):    # not an mpmath number, or inf or NaN
        return None
    return max((e + m.bit_length() for m, e in parts if m), default=-math.inf)


def negligible(x: MpScalar, prec: int, scale: Iterable[MpScalar] = (), power: int = 1) -> bool:
    """Whether ``|x| <= tolerance(prec) * magnitude(scale)**power``.

    Evaluated at the caller's ambient precision, with the threshold grouped
    as written, so a caller that precomputes a compound scale passes it as
    the single entry of ``scale``.

    Most verdicts are read from exponents, with no ``abs`` (a hypot and a
    square root for an mpc). With e_x, e_t and e_s the ``_binade`` of x,
    of the tolerance and of the largest scale entry (at least 0), |x| lies
    in [2**(e_x-1), 2**(e_x+1/2)) and the threshold in
    [2**(c-1-power), 2**(c+power/2)] for c = e_t + power*e_s, both up to a
    few roundings at the ambient precision. So x is negligible when
    e_x + power + 2 <= c, and is not when e_x >= c + power + 2; the 2 is
    ``_EXPONENT_MARGIN``, which covers the half binade of the brackets'
    open ends and the roundings. Between the two, and when x is zero, or
    x or a scale entry is inf, NaN or not of a type ``_binade`` reads, the expression
    above is evaluated as written, so every verdict is the written one.
    A zero scale entry is below the floor 1 of ``magnitude`` and counts
    for nothing.
    """
    scale = tuple(scale)
    ex = _binade(x)
    if ex is not None and ex > -math.inf and power >= 0:
        es = 0
        for v in scale:
            e = _binade(v)
            if e is None:
                break
            es = max(es, e)
        else:
            c = _binade(tolerance(prec)) + power * es
            if ex + power + _EXPONENT_MARGIN <= c:
                return True
            if ex >= c + power + _EXPONENT_MARGIN:
                return False
    return abs(x) <= tolerance(prec) * magnitude(scale) ** power


def mpc_to_pairs(z: Union[mpc, mpf]) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The parts of a finite mpc or mpf (imaginary 0) as signed int pairs (m, e), each m * 2**e."""
    (s, m, e, b), (t, n, f, c) = z._mpc_ if isinstance(z, mpc) else (z._mpf_, fzero)
    if not m and b or not n and c:      # inf and NaN: no mantissa, nonzero bc
        raise ValueError(f"{z} is not a finite number")
    return (-int(m) if s else int(m), int(e)), (-int(n) if t else int(n), int(f))


def _rounded_sum(xm: int, xe: int, ym: int, ye: int, prec: int, down: bool) -> Tuple[int, int]:
    """``mpf_add`` of xm * 2**xe and ym * 2**ye at ``prec`` bits, bit for bit:
    the sum rounded toward zero when ``down``, else to nearest, ties to even.
    On mpmath's perturbed path (tops more than prec + 4 apart and odd
    mantissas' exponents more than 100) the larger term is moved one unit
    below its last bit toward the other and rounded, which is not always the
    rounded sum; how far below does not change the rounding."""
    if xm and ym:
        gap = xe + xm.bit_length() - ye - ym.bit_length()
        if gap < -prec - 4:
            xm, xe, ym, ye, gap = ym, ye, xm, xe, -gap
        if gap > prec + 4 and xe + (xm & -xm).bit_length() - ye - (ym & -ym).bit_length() > 100:
            xm, xe, ym, ye = xm << prec + 4, xe - prec - 4, 1 if ym > 0 else -1, xe - prec - 4
        e = xe if xe < ye else ye
        m = (xm << xe - e) + (ym << ye - e)
    else:
        m, e = xm + ym, xe if xm else ye
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    if down:
        return (m >> n if m > 0 else -(-m >> n)), e + n
    t = m >> (n - 1)
    if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, e + n
    return t >> 1, e + n


def _rounded_quotient(sm: int, se: int, tm: int, te: int, prec: int) -> Tuple[int, int]:
    """(sm * 2**se) / (tm * 2**te), tm > 0, rounded to nearest as ``mpf_div``:
    a quotient of prec + 2 bits or more, a sticky bit for a remainder, rounded once."""
    shift = max(prec + 2 + tm.bit_length() - sm.bit_length(), 0)
    q, r = divmod(abs(sm) << shift, tm)
    q = q << 1 | (r > 0)
    return _rounded_sum(-q if sm < 0 else q, se - te - shift - 1, 0, 0, prec, False)


def _quotient(z: tuple, w: tuple, norm: Tuple[int, int], prec: int) -> tuple:
    """``mpc_div(z, w, prec, round_nearest)`` given ``norm``: |w|**2, ac + bd and
    bc - ad rounded down at prec + 10 bits, then divided to nearest."""
    (am, ae), (bm, be) = z
    (cm, ce), (dm, de) = w
    t = _rounded_sum(am * cm, ae + ce, bm * dm, be + de, prec + 10, True)
    u = _rounded_sum(bm * cm, be + ce, -am * dm, ae + de, prec + 10, True)
    return _rounded_quotient(*t, *norm, prec), _rounded_quotient(*u, *norm, prec)


class RoundedComplex:
    """A complex value as its parts' int pairs (``mpc_to_pairs``), whose ``+``, ``-``,
    ``*``, ``/`` and unary ``-`` round bit for bit as mpmath's mpc operators round
    to nearest at ``prec`` bits: ``n + x`` for an int n rounds the real part alone,
    ``n * x`` each part times n once, and ``/`` rounds |y|**2 and the numerators
    down at prec + 10 bits (``x.over(y, norm)`` is x / y given that |y|**2).
    ``x ** k`` is the exact power rounded once, which x * x is not on
    ``mpf_add``'s perturbed path. ``x.minus_product(a, b)`` is x - a * b with
    the same two roundings in one call. ``x.conjugate()`` is exact. ``mpc(x)``
    is x unrounded, and x is false only when it is an exact zero."""

    __slots__ = ("parts", "prec")

    def __init__(self, parts: Tuple[Tuple[int, int], Tuple[int, int]], prec: int) -> None:
        self.parts, self.prec = parts, prec

    @classmethod
    def of(cls, value: Scalar, prec: int) -> "RoundedComplex":
        """``value`` at ``prec`` bits, unrounded unless ``to_mpc`` rounds it; an
        int of at most ``prec`` bits is taken as it is, with no ``to_mpc``."""
        if isinstance(value, int) and value.bit_length() <= prec:
            return cls(((value, 0), (0, 0)), prec)
        return cls(value.parts if isinstance(value, cls) else mpc_to_pairs(to_mpc(value, prec)), prec)

    @property
    def _mpc_(self) -> tuple:
        return from_man_exp(*self.parts[0]), from_man_exp(*self.parts[1])

    def __abs__(self) -> mpf:
        return abs(mp.make_mpc(self._mpc_))

    def __bool__(self) -> bool:
        return bool(self.parts[0][0] or self.parts[1][0])

    def __add__(self, other):
        (am, ae), im = self.parts
        if isinstance(other, int):
            return RoundedComplex((_rounded_sum(am, ae, other, 0, self.prec, False), im), self.prec)
        (cm, ce), (dm, de) = other.parts
        return RoundedComplex((_rounded_sum(am, ae, cm, ce, self.prec, False),
                               _rounded_sum(*im, dm, de, self.prec, False)), self.prec)

    __radd__ = __add__

    def __sub__(self, other):
        (am, ae), (bm, be) = self.parts
        (cm, ce), (dm, de) = other.parts
        return RoundedComplex((_rounded_sum(am, ae, -cm, ce, self.prec, False),
                               _rounded_sum(bm, be, -dm, de, self.prec, False)), self.prec)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        (am, ae), (bm, be) = self.parts
        if isinstance(other, int):
            return RoundedComplex((_rounded_sum(am * other, ae, 0, 0, self.prec, False),
                                   _rounded_sum(bm * other, be, 0, 0, self.prec, False)), self.prec)
        (cm, ce), (dm, de) = other.parts   # mpc_mul: ac - bd and ad + bc of exact products
        return RoundedComplex((_rounded_sum(am * cm, ae + ce, -bm * dm, be + de, self.prec, False),
                               _rounded_sum(am * dm, ae + de, bm * cm, be + ce, self.prec, False)), self.prec)

    __rmul__ = __mul__

    def minus_product(self, a: "RoundedComplex", b: "RoundedComplex") -> "RoundedComplex":
        """``self - a * b`` in one step at this value's precision: the product
        rounded as ``*`` rounds it, then the difference as ``-`` rounds it."""
        (am, ae), (bm, be), (cm, ce), (dm, de), (xm, xe), (ym, ye) = *a.parts, *b.parts, *self.parts
        tm, te = _rounded_sum(am * cm, ae + ce, -bm * dm, be + de, self.prec, False)
        um, ue = _rounded_sum(am * dm, ae + de, bm * cm, be + ce, self.prec, False)
        return RoundedComplex((_rounded_sum(xm, xe, -tm, te, self.prec, False),
                               _rounded_sum(ym, ye, -um, ue, self.prec, False)), self.prec)

    def __truediv__(self, other):
        return self.over(other, other.squared_modulus(self.prec))

    def squared_modulus(self, prec: int) -> Tuple[int, int]:
        """|self|**2 rounded down at ``prec + 10`` bits: the norm that ``/`` at
        ``prec`` bits takes of its divisor."""
        (cm, ce), (dm, de) = self.parts
        return _rounded_sum(cm * cm, 2 * ce, dm * dm, 2 * de, prec + 10, True)

    def over(self, other: "RoundedComplex", norm: Tuple[int, int]) -> "RoundedComplex":
        """``self / other`` given ``norm = other.squared_modulus(self.prec)``, so
        that many divisions by one value take its norm once."""
        return RoundedComplex(_quotient(self.parts, other.parts, norm, self.prec), self.prec)

    def conjugate(self) -> "RoundedComplex":
        """The exact complex conjugate: the imaginary mantissa negated, nothing
        rounded. Every operation above commutes with it bit for bit, as each
        rounding is odd under negation."""
        re, (m, e) = self.parts
        return RoundedComplex((re, (-m, e)), self.prec)

    def __pow__(self, k: int) -> "RoundedComplex":
        (am, ae), (bm, be) = self.parts
        e = min(ae, be) if am and bm else (ae if am else be)
        re, im = a, b = (am << ae - e if am else 0), (bm << be - e if bm else 0)
        for _ in range(k - 1):
            re, im = re * a - im * b, re * b + im * a
        return RoundedComplex((_rounded_sum(re, k * e, 0, 0, self.prec, False),
                               _rounded_sum(im, k * e, 0, 0, self.prec, False)), self.prec)


def first_largest_modulus(zs: Sequence[RoundedComplex], prec: int) -> int:
    """Index of the first value in ``zs`` with the largest modulus rounded
    to ``prec`` bits, as ``max(range(len(zs)), key=lambda i: abs(zs[i]))``
    picks it at ``prec``.

    Ranked by the exact norms re**2 + im**2; rounded ``abs`` is taken only
    for the entries whose norms lie within 2**(4-prec) of the largest, the
    only ones that can tie with it (the proof is in
    ``g2curve._resultant_f_fprime``, the pivot search this serves).
    """
    norms = []
    for (am, ae), (bm, be) in (z.parts for z in zs):
        if not am or (bm and ae > be):
            am, ae, bm, be = bm, be, am, ae
        norms.append((am * am + (bm * bm << 2 * (be - ae)) if bm else am * am, 2 * ae))
    # a norm whose top is 2 below the largest's is less than half of it: set to 0
    top = max((e + n.bit_length() for n, e in norms if n), default=0)
    low = min((e for n, e in norms if n and e + n.bit_length() >= top - 1), default=0)
    norms = [n << (e - low) if n and e + n.bit_length() >= top - 1 else 0 for n, e in norms]
    largest = max(norms)
    close = [i for i, n in enumerate(norms) if (largest - n) << prec <= largest << 4]
    if len(close) == 1 or not largest:
        return close[0]
    best, best_abs = None, None
    for i in close:
        modulus = mpc_abs(zs[i]._mpc_, prec, round_nearest)
        if best is None or mpf_cmp(modulus, best_abs) > 0:
            best, best_abs = i, modulus
    return best


def relative_deviation(a: MpScalar, b: MpScalar) -> mpf:
    """``|a - b| / max(1, |a|)`` at the ambient precision."""
    return abs(a - b) / magnitude((a,))


def mpf_to_fraction(x: mpf) -> Fraction:
    """Exact rational value of an mpf (mpf values are dyadic rationals).

    inf and NaN have no rational value and raise ValueError.
    """
    sign, man, exp, bc = x._mpf_
    if not man:
        if bc:      # inf and NaN have no mantissa and a nonzero bc
            raise ValueError(f"{x} is not a finite number")
        return Fraction(0)
    # The gmpy2 backend stores mantissas as gmpy2.mpz; coerce to int so
    # Fraction arithmetic works.
    man, exp = int(man), int(exp)
    value = Fraction(man)
    if exp >= 0:
        value *= 2**exp
    else:
        value /= 2**(-exp)
    return -value if int(sign) else value


def fraction_to_mpf(q: Union[Fraction, int], prec: int) -> mpf:
    """Round a rational to the nearest mpf at ``prec`` bits."""
    q = Fraction(q)
    with mp.workprec(prec + 8):
        return mpf(q.numerator) / mpf(q.denominator)


def to_mpc(value: Scalar, prec: int) -> mpc:
    """Convert to mpc without ambient-precision re-rounding.

    mpmath constructors round existing values to the current context
    precision, so a bare mpc(x) silently truncates high-precision data when
    called at the default context; conversions here always happen at an
    explicit precision, and mpc and RoundedComplex input pass through untouched.
    """
    if isinstance(value, mpc):
        return value
    if isinstance(value, RoundedComplex):
        return mp.make_mpc(value._mpc_)
    with mp.workprec(prec + 8):
        if isinstance(value, (Fraction, int)):
            return mpc(fraction_to_mpf(value, prec))
        return mpc(value)


def mpf_to_str(x: mpf, prec: int) -> str:
    """Deterministic decimal rendering carrying the full stated precision."""
    dps = max(17, int(prec * 0.30103) + 3)
    if not isinstance(x, mpf):
        with mp.workprec(prec + 8):
            x = mpf(x)
    return mp.nstr(x, dps)


def str_to_mpf(s: str, prec: int) -> mpf:
    with mp.workprec(prec + 8):
        return mpf(s)


def complex_to_pair(z: mpc, prec: int) -> List[str]:
    """Serialize a complex value as a ``[re, im]`` pair of decimal strings."""
    z = to_mpc(z, prec)
    return [mpf_to_str(z.real, prec), mpf_to_str(z.imag, prec)]


def pair_to_complex(pair: Sequence[str], prec: int) -> mpc:
    if len(pair) != 2:
        raise ValueError("complex value must be a [re, im] pair")
    with mp.workprec(prec + 8):
        return mpc(str_to_mpf(str(pair[0]), prec), str_to_mpf(str(pair[1]), prec))


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------


def poly_mul(u: Sequence[Scalar], v: Sequence[Scalar]) -> List[Scalar]:
    """Product of two dense polynomials, constant coefficient first.

    Exact over Fractions; mpmath values round at the ambient precision.
    """
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def poly_from_roots(roots: Sequence, one) -> list:
    """The monic product of ``X - r`` over ``roots``, constant coefficient first.

    ``one`` is the ring's 1 (``RoundedComplex.of(1, prec)``, or
    ``modp.Fp2(1, 0, p)``). Each factor is multiplied in by ``poly_mul``.
    """
    out = [one]
    for r in roots:
        out = poly_mul(out, [-r, one])
    return out


def horner(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    """Value at ``x`` of a dense polynomial, constant coefficient first.

    Exact over Fractions; mpmath values round at the ambient precision.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class ComplexPoly:
    """Dense univariate polynomial over mpc, constant coefficient first.

    ``prec`` records the binary precision the coefficients were computed at.
    Exactly-zero leading coefficients are trimmed so ``degree`` is honest for
    exact constructions; numerically tiny leading coefficients are the
    caller's responsibility.
    """

    coeffs: Tuple[mpc, ...]
    prec: int

    def __post_init__(self) -> None:
        cs = [to_mpc(c, self.prec + WORK_GUARD) for c in self.coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [mpc(0)]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def deflate(self, root: Scalar) -> "ComplexPoly":
        """Synthetic division by ``X - root`` (remainder is discarded)."""
        with mp.workprec(self.prec + WORK_GUARD):
            r = to_mpc(root, self.prec + WORK_GUARD)
            n = len(self.coeffs)
            if n == 1:
                return ComplexPoly((mpc(0),), self.prec)
            out = [mpc(0)] * (n - 1)
            acc = mpc(0)
            for k in range(n - 1, 0, -1):
                acc = acc * r + self.coeffs[k]
                out[k - 1] = acc
            return ComplexPoly(tuple(out), self.prec)

    @classmethod
    def from_roots(cls, roots: Sequence[Scalar], prec: int) -> "ComplexPoly":
        """Expand the monic polynomial with the given roots (``poly_from_roots`` over RoundedComplex)."""
        work = prec + WORK_GUARD
        return cls(tuple(poly_from_roots([RoundedComplex.of(r, work) for r in roots],
                                         RoundedComplex.of(1, work))), prec)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def nullspace(matrix: Sequence[Sequence[Union[Fraction, int]]]) -> Tuple[Tuple[Fraction, ...], ...]:
    """Canonical rational basis of the right nullspace of ``matrix``.

    Rows may be any rationals. Each basis vector is scaled so its first
    nonzero coordinate is 1; vectors are ordered by their free column. The
    zero matrix therefore returns the standard basis.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return ()
    ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    # reduced row echelon form
    pivot_cols: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: List[Tuple[Fraction, ...]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivot_cols):
            vec[pc] = -rows[ri][fc]
        # canonical scaling: first nonzero coordinate equals 1
        lead = next(x for x in vec if x != 0)
        vec = [x / lead for x in vec]
        basis.append(tuple(vec))
    return tuple(basis)


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    for row in a:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# rational reconstruction
# ---------------------------------------------------------------------------


def rational_reconstruct(approx: Union[mpf, Fraction, int, float], denom_bound: int,
                         prec: int) -> Optional[Fraction]:
    """Recover ``p/q`` with ``q <= denom_bound`` from an approximation.

    ``approx`` is taken as exact (mpf values are dyadic rationals) and walked
    through its continued-fraction convergents. The best convergent within
    the denominator bound is accepted when it matches ``approx`` to within
    the exact dyadic ``2**-(prec // 2)``; otherwise None.
    """
    if denom_bound < 1:
        raise ValueError("denominator bound must be at least 1")
    x = mpf_to_fraction(approx) if isinstance(approx, mpf) else Fraction(approx)
    tol = Fraction(1, 2**(prec // 2))

    # continued-fraction convergents of x, by Euclid on its numerator and
    # denominator: each partial quotient a is floor(num / den)
    a, rest = divmod(x.numerator, x.denominator)
    p_prev, q_prev, p_cur, q_cur = 1, 0, a, 1
    num, den = x.denominator, rest
    while den:
        a, rest = divmod(num, den)
        num, den = den, rest
        p_nxt = a * p_cur + p_prev
        q_nxt = a * q_cur + q_prev
        if q_nxt > denom_bound:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
    best = Fraction(p_cur, q_cur)
    if abs(x - best) <= tol:
        return best
    return None
