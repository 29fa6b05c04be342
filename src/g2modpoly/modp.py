"""The evaluated P2 of a rational curve modulo a prime, and the exact check
of reconstructed rationals against it.

Every step from a curve to its evaluated P2 is algebraic: the six roots,
the 15 pairings, the brackets and delta, the monic image sextic, its
Igusa-Clebsch I2 and I10, the image j1 = I2^5/I10 and P2 = prod (X - j1).
For a prime p at which the roots of f lie in F_{p^2} and nothing on the way
vanishes, the same formulas run over F_{p^2} with native ints and give P2
mod p exactly; ``check_mod_p`` compares that with the reduction of
candidate rationals.

Primes p = 3 (mod 4) are used, so F_{p^2} = F_p[i] with i^2 = -1
(``Fp2``), counting down from 2^61 - 1. Polynomials over F_p are int lists,
constant coefficient first, reduced mod p. The float pipeline's own
kernels run over ``Fp2`` unchanged: ``richelot_delta`` and
``image_sextic`` for each image, and ``poly_from_roots`` to expand P2, so
P2 is expanded by the same code over C and over F_{p^2}. Each image's I2
and I10 come from ``g2curve.exact_clebsch``, the exact evaluation that
rational curves take too; over F_{p^2} its I10 is ``exactnum.field_det``
of the Sylvester matrix. Nothing here uses ``random``, so every result is
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional, Sequence

from .exactnum import horner, poly_from_roots, poly_mul
from .g2curve import Genus2Curve, _I2_TOP, exact_clebsch
from .igusa_data import I2_TERMS
from .richelot import (
    MOVE_SHIFTS,
    image_sextic,
    moved_model,
    pair_partitions_of_six,
    richelot_delta,
)

#: primes tried by ``check_mod_p`` before it gives up; for an S6 sextic at
#: least 76/720 of primes are usable, so 200 all fail with probability ~1e-10
PRIME_CANDIDATES = 200

#: the first candidate, 2^61 - 1 (a prime = 3 mod 4)
TOP_PRIME = (1 << 61) - 1

# fixed shifts a tried by the equal-degree split with (x + a)^((p^d - 1)/2)
_SPLIT_SHIFTS = 64

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Fp2:
    """a + b i in F_p[i] = F_{p^2} for a prime p = 3 (mod 4), i^2 = -1.

    An int operand is an element of F_p, so ``poly_mul``, ``horner``,
    ``g2curve.exact_clebsch`` and ``exactnum.field_det`` run over this
    field as they are. Division by zero raises ValueError. Elements compare
    equal to each other and to ints by value; they are not hashable.
    """

    __slots__ = ("re", "im", "p")

    def __init__(self, re: int, im: int, p: int) -> None:
        self.re = re % p
        self.im = im % p
        self.p = p

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other):
        """Equal field elements: an Fp2 with the same p and parts, or an int
        congruent to the real part when the imaginary part is 0."""
        if isinstance(other, Fp2):
            return (self.re, self.im, self.p) == (other.re, other.im, other.p)
        if isinstance(other, int):
            return self.im == 0 and self.re == other % self.p
        return NotImplemented

    # Fp2(3, 0, p) equals both 3 and p + 3, whose hashes differ: no hash is
    # consistent with int's
    __hash__ = None

    def __add__(self, other):
        if isinstance(other, Fp2):
            return Fp2(self.re + other.re, self.im + other.im, self.p)
        return Fp2(self.re + other, self.im, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp2(-self.re, -self.im, self.p)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Fp2):
            a, b, c, d = self.re, self.im, other.re, other.im
            return Fp2(a * c - b * d, a * d + b * c, self.p)
        return Fp2(self.re * other, self.im * other, self.p)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """other / (a + b i) = other (a - b i) / (a^2 + b^2), for other in F_p."""
        n = other * pow(self.re * self.re + self.im * self.im, -1, self.p)
        return Fp2(self.re * n, -self.im * n, self.p)

    def __truediv__(self, other):
        return self * (1 / other)


def check_mod_p(curve: Genus2Curve, rationals: Sequence[Fraction]) -> Optional[int]:
    """The prime at which the rationals agree with the evaluated P2 mod p, or None.

    ``rationals`` are the 16 coefficients of P2, constant first. The prime
    is the first usable one, counting down from 2^61 - 1 through primes
    p = 3 (mod 4): p divides no denominator of the curve or of the
    rationals, f is separable mod p with every root in F_{p^2}, and for
    every pairing delta, the image's leading coefficient (after the model
    move ``richelot_image`` makes when it vanishes) and the image's I10 are
    nonzero. At that prime P2 mod p is computed exactly (``p2_mod_p``); the
    rationals are refused unless P2 mod p lies in F_p[X] and equals them
    coefficient by coefficient. When none of the first ``PRIME_CANDIDATES``
    primes is usable, the result is None as well.

    The check does not depend on the float pipeline: no root, bracket or
    invariant is shared with it. It is not a proof, since no bound on the
    height of P2 is known: a wrong rational with a numerator divisible by p
    would pass. What makes the rationals unique is the decoding-radius
    check at the reconstruction rung; this check is a second, independent
    guard against a build that was wrong at that rung.
    """
    values = [Fraction(v) for v in curve.coeffs] + [Fraction(r) for r in rationals]
    for p in _candidate_primes():
        if any(v.denominator % p == 0 for v in values):
            continue
        reduced = [_reduce(v, p) for v in values]
        p2 = p2_mod_p(reduced[:7], p)
        if p2 is None:
            continue
        if any(c.im for c in p2):
            return None  # P2 of a rational curve lies in F_p[X]
        return p if [c.re for c in p2] == reduced[7:] else None
    return None


def p2_mod_p(f: Sequence[int], p: int) -> Optional[List[Fp2]]:
    """The 16 coefficients of P2 mod p for f mod p, or None when p is not usable.

    ``f`` is the monic sextic reduced mod p, constant first. It is usable
    only if it divides x^(p^2) - x, the product of the distinct monic
    irreducibles of degree 1 and 2 over F_p: that holds exactly when f is
    separable with every root in F_{p^2}. The roots are then found by
    Cantor-Zassenhaus with fixed shifts; the images follow
    ``pair_partitions_of_six`` and ``richelot_image``.
    """
    h = _powmod([0, 1], p, f, p)
    if _compose(h, h, f, p) != [0, 1]:
        return None  # x^(p^2) != x mod f: a repeated root, or one outside F_{p^2}
    roots = _roots(f, h, p)
    if roots is None:
        return None
    j1s = []
    for pairing in pair_partitions_of_six():
        j1 = _image_j1([(roots[i] * roots[j], -(roots[i] + roots[j]), 1)
                        for i, j in pairing])
        if j1 is None:
            return None
        j1s.append(j1)
    return poly_from_roots(j1s, Fp2(1, 0, p))


def _image_j1(quads) -> Optional[Fp2]:
    """j1 = I2^5 / I10 of the Richelot image of three monic quadratics."""
    if not richelot_delta(quads):
        return None
    g = image_sextic(quads)
    if not g[6]:
        t = next((t for t in MOVE_SHIFTS if horner(g, t)), None)
        if t is None:
            return None
        g = moved_model(g, t)
    inv = 1 / g[6]
    i2, i10 = exact_clebsch([x * inv for x in g], (I2_TERMS,), _I2_TOP)
    if not i10:
        return None
    sq = i2 * i2
    return sq * sq * i2 / i10


def _roots(f: List[int], h: List[int], p: int) -> Optional[List[Fp2]]:
    """The six roots of f in F_{p^2}, given h = x^p mod f; None if a split fails.

    gcd(h - x, f) collects the linear factors over F_p and the cofactor is
    a product of irreducible quadratics; each part is split into its
    factors, and x^2 + b x + c gives (-b +- i sqrt(4c - b^2)) / 2.
    """
    linear = _gcd(_sub(h, [0, 1], p), f, p)
    quadratic = _divmod(f, linear, p)[0]
    lin_factors = _equal_degree_split(linear, 1, p)
    quad_factors = _equal_degree_split(quadratic, 2, p)
    if lin_factors is None or quad_factors is None:
        return None
    roots = [Fp2(-g[0], 0, p) for g in lin_factors]
    half = (p + 1) // 2
    for c, b, _ in quad_factors:
        # b^2 - 4c is not a square and neither is -1, so 4c - b^2 is one
        s = pow((4 * c - b * b) % p, (p + 1) // 4, p)
        roots += [Fp2(-b * half, s * half, p), Fp2(-b * half, -s * half, p)]
    return roots


def _equal_degree_split(g: List[int], d: int, p: int) -> Optional[List[List[int]]]:
    """The monic degree-``d`` factors of ``g``, a product of distinct ones.

    Cantor-Zassenhaus with the fixed shifts a = 0, 1, ...: gcd(g,
    (x + a)^((p^d - 1)/2) - 1) collects the factors at which x + a is a
    square in F_{p^d}. None when no shift splits a part.
    """
    if len(g) - 1 <= d:
        return [g] if len(g) - 1 == d else []
    e = (p ** d - 1) // 2
    for a in range(_SPLIT_SHIFTS):
        u = _gcd(_sub(_powmod([a, 1], e, g, p), [1], p), g, p)
        if 1 < len(u) < len(g):
            left = _equal_degree_split(u, d, p)
            right = _equal_degree_split(_divmod(g, u, p)[0], d, p)
            if left is None or right is None:
                return None
            return left + right
    return None


def _candidate_primes() -> Iterator[int]:
    """The first ``PRIME_CANDIDATES`` primes p = 3 (mod 4), from 2^61 - 1 down."""
    n, found = TOP_PRIME, 0
    while found < PRIME_CANDIDATES:
        if _is_prime(n):
            found += 1
            yield n
        n -= 4


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _reduce(q: Fraction, p: int) -> int:
    """q mod p, for p not dividing the denominator."""
    return q.numerator * pow(q.denominator, -1, p) % p


# ---------------------------------------------------------------------------
# polynomials over F_p: int lists, constant first, no trailing zeros
# ---------------------------------------------------------------------------


def _trim(u: List[int]) -> List[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _sub(u: Sequence[int], v: Sequence[int], p: int) -> List[int]:
    n = max(len(u), len(v))
    u, v = list(u) + [0] * (n - len(u)), list(v) + [0] * (n - len(v))
    return _trim([(x - y) % p for x, y in zip(u, v)])


def _divmod(u: Sequence[int], m: Sequence[int], p: int):
    """Quotient and remainder of u by m (nonzero, trimmed) over F_p."""
    r = [c % p for c in u]
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    q = [0] * max(len(r) - dm, 0)
    for top in range(len(r) - 1, dm - 1, -1):
        c = r[top] * inv % p
        if c:
            q[top - dm] = c
            for k in range(dm):
                r[top - dm + k] = (r[top - dm + k] - c * m[k]) % p
    return _trim(q), _trim(r[:dm])


def _mulmod(u: Sequence[int], v: Sequence[int], m: Sequence[int], p: int) -> List[int]:
    return _divmod(poly_mul(u, v), m, p)[1]


def _powmod(u: Sequence[int], e: int, m: Sequence[int], p: int) -> List[int]:
    """u^e mod m over F_p, by square and multiply."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, m, p)
        if bit == "1":
            out = _mulmod(out, u, m, p)
    return out


def _compose(u: Sequence[int], v: Sequence[int], m: Sequence[int], p: int) -> List[int]:
    """u(v(x)) mod m over F_p, by Horner's rule."""
    out: List[int] = []
    for c in reversed(u):
        out = _sub(_mulmod(out, v, m, p), [-c], p)
    return out


def _gcd(u: Sequence[int], v: Sequence[int], p: int) -> List[int]:
    """The monic gcd over F_p (u, v not both zero)."""
    u, v = _trim([c % p for c in u]), _trim([c % p for c in v])
    while v:
        u, v = v, _divmod(u, v, p)[1]
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u]
