"""Truncated three-index Fourier expansions with support in the closed cone.

Degree-2 modular forms have expansions indexed by half-integral positive
semidefinite 2x2 matrices ((k, l/2), (l/2, m)); we store the integer triple
(k, l, m), which lies in the cone k >= 0, m >= 0, 4 k m - l^2 >= 0 (l may be
negative). A series holds finitely many terms, complete through total order
k + m <= order, with exact rational coefficients.

Quotients by cusp forms leave the cone: a ``shift`` s records that the
actual exponent triple is the stored one minus s*(1, 1, 1), so stored
indices always stay inside the cone. Support staying in the cone after
multiplication is the expansion-side counterpart of holomorphicity
(coefficients supported on semidefinite indices only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .exactnum import format_rational, parse_rational

ConeIndex = Tuple[int, int, int]

# Normalizing constants tying the weight-10 and weight-12 cusp forms to the
# Eisenstein basis: chi10 = c10 (E4 E6 - E10) and
# chi12 = c12 (441 E4^3 + 250 E6^2 - 691 E12).
CHI10_NORMALIZATION = Fraction(-43867, 2**12 * 3**5 * 5**2 * 7 * 53)
CHI12_NORMALIZATION = Fraction(131 * 593, 2**13 * 3**7 * 5**3 * 7**2 * 337)


class NotAUnitError(ValueError):
    """Inversion requested for a series with vanishing constant term."""


class NotCuspNormalizedError(ValueError):
    """Quotient requested by a series that is not a normalized cusp expansion."""


def cone_valid(index: Sequence[int]) -> bool:
    """k >= 0, m >= 0 and 4 k m >= l^2 (positive semidefinite index)."""
    k, l, m = index
    return k >= 0 and m >= 0 and 4 * k * m - l * l >= 0


def cone_indices(order: int) -> Iterator[ConeIndex]:
    """All cone indices with k + m <= order, sorted by (k + m, k, l)."""
    for total in range(order + 1):
        for k in range(total + 1):
            m = total - k
            lmax = math.isqrt(4 * k * m)
            for l in range(-lmax, lmax + 1):
                yield (k, l, m)


@dataclass(frozen=True)
class FourierSeries:
    """Cone-supported truncated expansion with rational coefficients.

    ``terms`` maps stored (k, l, m) triples to nonzero Fractions; all stored
    triples are cone members with k + m <= order. ``shift`` encodes an
    overall factor (q1 q2 q3)^(-shift) so Laurent-type quotients keep
    cone-valid stored indices.
    """

    terms: Mapping[ConeIndex, Fraction]
    order: int
    shift: int = 0

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        clean: Dict[ConeIndex, Fraction] = {}
        for idx, coeff in self.terms.items():
            idx = (int(idx[0]), int(idx[1]), int(idx[2]))
            if not cone_valid(idx):
                raise ValueError(f"index {idx} outside the semidefinite cone")
            if idx[0] + idx[2] > self.order:
                raise ValueError(f"index {idx} beyond truncation order {self.order}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[idx] = coeff
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def coefficient(self, index: ConeIndex) -> Fraction:
        return self.terms.get(tuple(index), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0, 0), Fraction(0))

    @property
    def is_unit(self) -> bool:
        return self.shift == 0 and self.constant_term != 0

    def __len__(self) -> int:
        return len(self.terms)


def koecher_check(terms: Mapping[Sequence[int], Union[Fraction, int]]) -> bool:
    """True when every index with a nonzero coefficient lies in the cone."""
    return all(cone_valid(idx) or Fraction(c) == 0 for idx, c in terms.items())


def series_mul(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Product, truncated to the smaller completeness order; shifts add.

    Index sums of cone members stay in the cone, so the product is again
    cone supported with no extra checks needed.
    """
    order = min(a.order, b.order)
    out: Dict[ConeIndex, Fraction] = {}
    for (k1, l1, m1), c1 in a.terms.items():
        for (k2, l2, m2), c2 in b.terms.items():
            k, l, m = k1 + k2, l1 + l2, m1 + m2
            if k + m > order:
                continue
            idx = (k, l, m)
            out[idx] = out.get(idx, Fraction(0)) + c1 * c2
    return FourierSeries(out, order, a.shift + b.shift)


def series_invert(a: FourierSeries) -> FourierSeries:
    """Inverse of a unit (nonzero constant term, shift zero) to the same order.

    Solves c(0) v(T) = -sum over nonzero S of c(S) v(T - S) layer by layer
    in k + m; every nonzero cone index has k + m >= 1, so the recursion only
    consults earlier layers.
    """
    if not a.is_unit:
        raise NotAUnitError("series has no nonzero constant term at shift zero")
    c0 = a.constant_term
    inv: Dict[ConeIndex, Fraction] = {(0, 0, 0): 1 / c0}
    for idx in cone_indices(a.order):
        if idx == (0, 0, 0):
            continue
        k, l, m = idx
        acc = Fraction(0)
        for (ks, ls, ms), cs in a.terms.items():
            if (ks, ls, ms) == (0, 0, 0):
                continue
            rest = (k - ks, l - ls, m - ms)
            if rest[0] < 0 or rest[2] < 0 or not cone_valid(rest):
                continue
            v = inv.get(rest)
            if v is not None:
                acc += cs * v
        if acc != 0:
            inv[idx] = -acc / c0
    return FourierSeries(inv, a.order, 0)


def is_cusp_normalized(a: FourierSeries) -> bool:
    """Vanishing to order one along the cusp with leading coefficient one.

    Concretely: shift zero, coefficient 1 at (1, 1, 1), and every stored
    index stays in the cone after subtracting (1, 1, 1), so the series is
    (q1 q2 q3) times a cone-supported unit.
    """
    if a.shift != 0:
        return False
    if a.coefficient((1, 1, 1)) != 1:
        return False
    for (k, l, m) in a.terms:
        if not cone_valid((k - 1, l - 1, m - 1)) or k < 1 or m < 1:
            return False
    return True


def laurent_quotient(numerator: FourierSeries, cusp: FourierSeries, power: int = 1) -> FourierSeries:
    """numerator / cusp^power as a shifted cone series.

    ``cusp`` must satisfy ``is_cusp_normalized``; factoring out
    (q1 q2 q3)^power leaves a unit, which is inverted and multiplied in.
    The result's shift increases by ``power`` and its stored indices remain
    cone valid.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    if not is_cusp_normalized(cusp):
        raise NotCuspNormalizedError("denominator is not a normalized cusp expansion")
    if cusp.order < 2:
        raise ValueError("cusp series truncation too short to factor the cusp order")
    unit_terms = {
        (k - 1, l - 1, m - 1): c for (k, l, m), c in cusp.terms.items()
    }
    unit = FourierSeries(unit_terms, cusp.order - 2, 0)
    inv = series_invert(unit)
    acc = numerator
    for _ in range(power):
        acc = series_mul(acc, inv)
    return FourierSeries(dict(acc.terms), acc.order, numerator.shift + power)


def save_series(series: FourierSeries, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"order {series.order}\n")
        if series.shift:
            fh.write(f"shift {series.shift}\n")
        for idx in sorted(series.terms):
            k, l, m = idx
            fh.write(f"{k} {l} {m} {format_rational(series.terms[idx])}\n")


def load_series(path: str) -> FourierSeries:
    terms: Dict[ConeIndex, Fraction] = {}
    order: Optional[int] = None
    shift = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "order":
                order = int(parts[1])
                continue
            if parts[0] == "shift":
                shift = int(parts[1])
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'k l m coeff'")
            idx = (int(parts[0]), int(parts[1]), int(parts[2]))
            if idx in terms:
                raise ValueError(f"{path}:{lineno}: duplicate index {idx}")
            terms[idx] = parse_rational(parts[3])
    if order is None:
        raise ValueError(f"{path}: missing 'order' header")
    return FourierSeries(terms, order, shift)


# ---------------------------------------------------------------------------
# exact linear solving for coefficient identification
# ---------------------------------------------------------------------------


def fit_coefficients(rows: Sequence[Sequence[Union[Fraction, int]]],
                     rhs: Optional[Sequence[Union[Fraction, int]]] = None
                     ) -> Optional[Tuple[Fraction, ...]]:
    """Solve an exact linear identification problem for series coefficients.

    Homogeneous mode (``rhs`` None): returns the one-dimensional nullspace
    vector scaled so its first nonzero entry is 1, or None when the
    nullspace is trivial or has dimension two or more (no uniquely
    identified relation).

    Affine mode: returns the unique solution of rows * x = rhs; raises
    ValueError for an inconsistent system and returns None when the
    solution is not unique.
    """
    from .exactnum import nullspace

    if rhs is None:
        basis = nullspace(rows)
        if len(basis) != 1:
            return None
        return basis[0]
    rows = [list(r) + [-Fraction(b)] for r, b in zip(rows, rhs)]
    basis = nullspace(rows)
    solutions = [v for v in basis if v[-1] != 0]
    if len(basis) == 0 or not solutions:
        raise ValueError("inconsistent linear system")
    if len(basis) > 1:
        return None
    v = solutions[0]
    t = v[-1]
    return tuple(x / t for x in v[:-1])
