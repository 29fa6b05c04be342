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
(``Fp2``), counting down from 2^61 - 1; each is searched for once per
process. Polynomials over F_p are int lists, constant first, reduced mod
p; the powers of the root split, x^p first, are taken on residues packed
into one int each (``_Residues``). The float pipeline's own kernels run
over ``Fp2`` unchanged: ``bracket`` and ``image_sextic`` for each image,
and ``poly_from_roots`` to expand P2, so P2 is expanded by the same code
over C and over F_{p^2}. Each image's I10 comes from the brackets in
closed form (``_image_j1``). Nothing here uses ``random``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence

from .exactnum import horner, poly_from_roots
from .g2curve import Genus2Curve, _eval_terms
from .igusa_data import I2_TERMS
from .richelot import (
    MOVE_SHIFTS,
    bracket,
    image_sextic,
    moved_model,
    pair_partitions_of_six,
)

#: primes tried by ``check_mod_p`` before it gives up; for an S6 sextic at
#: least 76/720 of primes are usable, so 200 all fail with probability ~1e-10
PRIME_CANDIDATES = 200

#: the first candidate, 2^61 - 1 (a prime = 3 mod 4)
TOP_PRIME = (1 << 61) - 1

# fixed shifts a tried by the equal-degree split with (x + a)^((p^d - 1)/2)
_SPLIT_SHIFTS = 64

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SLOT = 128   # bits per coefficient of a packed residue (``_Residues``)
_SLOT_MASK = (1 << _SLOT) - 1


class Fp2:
    """a + b i in F_p[i] = F_{p^2} for a prime p = 3 (mod 4), i^2 = -1.

    An int operand is an element of F_p, so ``poly_mul``, ``horner`` and
    ``g2curve._eval_terms`` run over this field as they are. Division by
    zero raises ValueError. Elements are read by their parts ``re`` and
    ``im``; ``==`` is identity.
    """

    __slots__ = ("re", "im", "p")

    def __init__(self, re: int, im: int, p: int) -> None:
        self.re = re % p
        self.im = im % p
        self.p = p

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __add__(self, other):
        if isinstance(other, Fp2):
            return Fp2(self.re + other.re, self.im + other.im, self.p)
        return Fp2(self.re + other, self.im, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp2(-self.re, -self.im, self.p)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Fp2):
            a, b, c, d = self.re, self.im, other.re, other.im
            return Fp2(a * c - b * d, a * d + b * c, self.p)
        return Fp2(self.re * other, self.im * other, self.p)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Fp2":
        """self ** k for k >= 1, by plain products."""
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

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
    rationals, f is separable mod p with every root in F_{p^2}, and every
    image's I10 is nonzero (a zero delta gives I10 = 0). At that prime P2
    mod p is computed exactly (``p2_mod_p``); the rationals are refused
    unless P2 mod p lies in F_p[X] and equals them coefficient by
    coefficient. When none of the first ``PRIME_CANDIDATES`` primes is
    usable, the result is None as well.

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
    ring = _Residues(f, p)
    x = ring.pack([0, 1])
    h = ring.pow(x, p)
    if ring.compose(h, h) != x:
        return None  # x^(p^2) != x mod f: a repeated root, or one outside F_{p^2}
    roots = _roots(f, ring.unpack(h), p)
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
    """j1 = I2^5 / I10 of the Richelot image of three monic quadratics, or
    None when I10 vanishes.

    The image G is the product of the brackets P = [A, B], Q = [A, C] and
    R = [B, C]. As binary forms, disc(G) = disc(P) disc(Q) disc(R) (Res(P, Q)
    Res(P, R) Res(Q, R))^2, also when G has degree < 6, and x -> t + 1/x
    leaves it unchanged, so I10 = disc(G) / lead^10 on the monic model after
    the move ``richelot_image`` makes when lead is 0 (G, nonzero of degree
    <= 5, does not vanish at all of ``MOVE_SHIFTS``). A zero delta needs no
    test: then C = a A + b B, so Q = b P, R = -a P and I10 = 0.
    """
    a, b, c = quads
    ab, ac, bc = bracket(a, b), bracket(a, c), bracket(b, c)
    res = _res(ab, ac) * _res(ab, bc) * _res(ac, bc)
    d_ab, d_ac, d_bc = (q[1] * q[1] - 4 * q[0] * q[2] for q in (ab, ac, bc))
    disc = d_ab * d_ac * d_bc * res * res
    if not disc:
        return None
    g = image_sextic(quads)
    if not g[6]:
        g = moved_model(g, next(t for t in MOVE_SHIFTS if horner(g, t)))
    inv = 1 / g[6]
    i2 = _eval_terms(I2_TERMS, [x * inv for x in g[:6]])
    return (i2 * g[6] * g[6]) ** 5 / disc   # (I2 lead^2)^5 / (I10 lead^10) = I2^5 / I10


def _res(u, v):
    """The resultant of two quadratics, constant coefficient first."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    w = u2 * v0 - u0 * v2
    return w * w - (u2 * v1 - u1 * v2) * (u1 * v0 - u0 * v1)


def _roots(f: List[int], h: List[int], p: int) -> Optional[List[Fp2]]:
    """The six roots of f in F_{p^2}, given h = x^p mod f; None if a split fails.

    gcd(h - x, f) collects the linear factors over F_p and the cofactor is
    a product of irreducible quadratics; each part is split into its
    factors, and x^2 + b x + c gives (-b +- i sqrt(4c - b^2)) / 2.
    """
    linear = _gcd(_sub(h, [0, 1], p), f, p)
    quadratic = _divmod(f, linear, p)[0]
    lin_factors = _equal_degree_split(linear, 1, h, p)
    quad_factors = _equal_degree_split(quadratic, 2, h, p)
    if lin_factors is None or quad_factors is None:
        return None
    roots = [Fp2(-g[0], 0, p) for g in lin_factors]
    half = (p + 1) // 2
    for c, b, _ in quad_factors:
        # b^2 - 4c is not a square and neither is -1, so 4c - b^2 is one
        s = pow((4 * c - b * b) % p, (p + 1) // 4, p)
        roots += [Fp2(-b * half, s * half, p), Fp2(-b * half, -s * half, p)]
    return roots


def _equal_degree_split(g: List[int], d: int, h: List[int], p: int) -> Optional[List[List[int]]]:
    """The monic degree-``d`` factors of ``g``, a product of distinct ones.

    Cantor-Zassenhaus with the fixed shifts a = 0, 1, ...: gcd(g,
    (x + a)^((p^d - 1)/2) - 1) collects the factors at which x + a is a
    square in F_{p^d}. With y = (x + a)^((p - 1)/2), that power is y for
    d = 1 and y^p y = y(h) y for d = 2, h = x^p mod a multiple of ``g``.
    None when no shift splits a part.
    """
    if len(g) - 1 <= d:
        return [g] if len(g) - 1 == d else []
    ring = _Residues(g, p)
    frob = ring.pack(h)
    for a in range(_SPLIT_SHIFTS):
        y = ring.pow(ring.pack([a, 1]), (p - 1) // 2)
        if d == 2:
            y = ring.mul(ring.compose(y, frob), y)
        u = _gcd(_sub(ring.unpack(y), [1], p), g, p)
        if 1 < len(u) < len(g):
            left = _equal_degree_split(u, d, h, p)
            right = _equal_degree_split(_divmod(g, u, p)[0], d, h, p)
            if left is None or right is None:
                return None
            return left + right
    return None


def _candidate_primes() -> Iterator[int]:
    """The first ``PRIME_CANDIDATES`` primes p = 3 (mod 4), from 2^61 - 1 down;
    each is searched for once per process, when first read."""
    return map(_candidate_prime, range(PRIME_CANDIDATES))


@functools.lru_cache(maxsize=None)
def _candidate_prime(k: int) -> int:
    """The k-th prime p = 3 (mod 4) counting down from 2^61 - 1, k from 0."""
    n = TOP_PRIME if k == 0 else _candidate_prime(k - 1) - 4
    while not _is_prime(n):
        n -= 4
    return n


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


def _gcd(u: Sequence[int], v: Sequence[int], p: int) -> List[int]:
    """The monic gcd over F_p (u, v not both zero)."""
    u, v = _trim([c % p for c in u]), _trim([c % p for c in v])
    while v:
        u, v = v, _divmod(u, v, p)[1]
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u]


class _Residues:
    """F_p[x] / (m), m monic of degree d <= 6, on packed ints.

    A residue sum c_k x^k, c_k in [0, p), is the int sum c_k 2^(128 k)
    (Kronecker substitution): a product is one int product, reduced with
    x^d, ..., x^(2d-2) mod m, then slot by slot mod p. A slot stays below
    3 d p^2 < 2^127 for p < 2^61 (``compose`` adds < p to one), no carry.
    """

    def __init__(self, m: Sequence[int], p: int) -> None:
        self.m, self.p, self.d = m, p, len(m) - 1
        self.low = (1 << (_SLOT * self.d)) - 1
        self.tails = [self.pack([0] * k + [1]) for k in range(self.d, 2 * self.d - 1)]

    def pack(self, u: Sequence[int]) -> int:
        """u mod m, packed."""
        out = 0
        for c in reversed(_divmod(u, self.m, self.p)[1]):
            out = (out << _SLOT) | c
        return out

    def unpack(self, a: int) -> List[int]:
        """The coefficient list of a packed residue, each slot taken mod p."""
        return _trim([((a >> (_SLOT * k)) & _SLOT_MASK) % self.p for k in range(self.d)])

    def mul(self, a: int, b: int) -> int:
        c = a * b
        out = c & self.low
        c >>= _SLOT * self.d
        for tail in self.tails:
            out += (c & _SLOT_MASK) % self.p * tail
            c >>= _SLOT
        r = 0
        for k in range(self.d - 1, -1, -1):
            r = (r << _SLOT) | ((out >> (_SLOT * k)) & _SLOT_MASK) % self.p
        return r

    def pow(self, a: int, e: int) -> int:
        out = 1
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def compose(self, u: int, v: int) -> int:
        """u(v), by Horner's rule."""
        out = 0
        for c in reversed(self.unpack(u)):
            out = self.mul(out, v) + c
        return self.pack(self.unpack(out))
