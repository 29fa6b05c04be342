"""Independent oracles used by the test suite and the derivation scripts.

The Igusa-Clebsch invariants of a monic separable sextic f with roots
x_1..x_6 are defined through root differences. Writing (ij) for
(x_i - x_j)^2:

* I2  = sum over the 15 ways to split {1..6} into three pairs of
        (12)(34)(56) with each factor squared,
* I4  = sum over the 10 splits into two triples {t, u} of tri(t) tri(u),
        where tri({i,j,k}) = (ij)(ik)(jk),
* I6  = sum over the 60 pairs (split into triples, bijection between them)
        of tri(t) tri(u) times the product of the three squared cross
        differences picked out by the bijection,
* I10 = product of all 15 squared differences (the discriminant).

These sums are evaluated literally here, which requires the roots. The
package itself uses coefficient formulas frozen in g2modpoly/igusa_data.py;
this module is the independent cross-check those formulas were derived from
and are tested against. ``field_det``, a determinant by elimination over
any exact field, is the reference for the determinants and resultants the
package computes in other ways. ``spy_mpc_operators`` records mpmath's mpc
arithmetic, for the tests that show a layer runs without it, and
``unconjugated_triples`` counts the Richelot images a sweep builds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Sequence, Tuple

import mpmath
from mpmath import mp, mpc


def pair_partitions(items: Sequence[int]) -> List[List[Tuple[int, int]]]:
    """All partitions of an even-sized set into unordered pairs."""
    items = list(items)
    if not items:
        return [[]]
    first = items[0]
    rest = items[1:]
    result = []
    for i, second in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in pair_partitions(remaining):
            result.append([(first, second)] + sub)
    return result


def triple_partitions(items: Sequence[int]) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All 10 unordered splits of a 6-element set into two triples."""
    items = list(items)
    first = items[0]
    out = []
    for pair in itertools.combinations(items[1:], 2):
        t = (first,) + pair
        u = tuple(x for x in items if x not in t)
        out.append((t, u))
    return out


def igusa_clebsch_from_roots(roots: Sequence) -> Tuple:
    """(I2, I4, I6, I10) evaluated from the six roots, exactly."""
    if len(roots) != 6:
        raise ValueError("need exactly six roots")
    idx = range(6)
    d = {}
    for i, j in itertools.combinations(idx, 2):
        d[(i, j)] = (roots[i] - roots[j]) ** 2
        d[(j, i)] = d[(i, j)]

    def tri(t):
        i, j, k = t
        return d[(i, j)] * d[(i, k)] * d[(j, k)]

    i2 = sum(
        d[p[0]] * d[p[1]] * d[p[2]]
        for p in pair_partitions(list(idx))
    )
    i4 = sum(tri(t) * tri(u) for t, u in triple_partitions(list(idx)))
    i6 = 0
    for t, u in triple_partitions(list(idx)):
        base = tri(t) * tri(u)
        for perm in itertools.permutations(u):
            cross = d[(t[0], perm[0])] * d[(t[1], perm[1])] * d[(t[2], perm[2])]
            i6 += base * cross
    i10 = 1
    for i, j in itertools.combinations(idx, 2):
        i10 *= d[(i, j)]
    return i2, i4, i6, i10


def coeffs_from_roots(roots: Sequence) -> List:
    """Monic polynomial coefficients, constant first, from its roots."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= c * r
        coeffs = nxt
    return coeffs


def absolute_igusa_from_roots(roots: Sequence) -> Tuple:
    """(j1, j2, j3) = (I2^5, I2^3 I4, I2^2 I6) / I10 from the roots."""
    i2, i4, i6, i10 = igusa_clebsch_from_roots(roots)
    if isinstance(i10, (int, Fraction)):
        i2, i4, i6, i10 = Fraction(i2), Fraction(i4), Fraction(i6), Fraction(i10)
    return (i2**5 / i10, i2**3 * i4 / i10, i2**2 * i6 / i10)


def field_det(rows: Sequence[Sequence]):
    """Determinant of a square matrix over a field, by Gaussian elimination.

    Entries are Fractions or ``modp.Fp2`` values, with int zeros allowed:
    they stay ints, so no other field's arithmetic mixes in. A nonzero int
    pivot raises TypeError, since ``1 / pivot`` would be a float. Any exact
    elimination gives the same field element, so the result does not
    depend on the pivot order. The tests take it as the reference for
    determinants and resultants over Q and F_{p^2}.
    """
    a = [list(row) for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pivot = a[k]
        if isinstance(pivot[k], int):
            raise TypeError("field_det needs Fraction or Fp2 entries; an int is allowed only as 0")
        det = det * pivot[k]
        inv = 1 / pivot[k]
        cols = [j for j in range(k + 1, n) if pivot[j]]
        for row in a[k + 1:]:
            if row[k]:
                fct = row[k] * inv
                for j in cols:
                    row[j] = -fct * pivot[j] + row[j]
    return det


def unconjugated_triples(triples: Sequence) -> int:
    """How many of ``triples`` (``richelot.QuadraticTriple``) are not, pair for
    pair, the exact conjugate of an earlier one: the same int pairs with each
    imaginary mantissa negated."""
    keys = [[c.parts for q in t.quads for c in q] for t in triples]
    return sum(not any(k == [(re, (-m, e)) for re, (m, e) in earlier] for earlier in keys[:i])
               for i, k in enumerate(keys))


def spy_mpc_operators(monkeypatch) -> list:
    """The names of mpmath's mpc operators called from now on, in call order."""
    calls = []
    for module in (mpmath.ctx_mp_python, mpmath.ctx_mp):
        for name in ("mpc_add", "mpc_add_mpf", "mpc_sub", "mpc_sub_mpf", "mpc_mul", "mpc_mul_mpf",
                     "mpc_mul_int", "mpc_div", "mpc_div_mpf", "mpc_pow_int", "mpc_neg", "mpc_pos"):
            raw = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, raw=raw, name=name: calls.append(name) or raw(*args))
    with mp.workprec(64):
        assert mpc(1) + mpc(2) == 3 and calls     # the spies see mpmath's operators
    calls.clear()
    return calls
