"""The degree-2 Siegel upper half space and the symplectic action on it.

A point is a symmetric complex 2x2 matrix tau with positive definite
imaginary part, stored by its three entries (tau1, tau2, tau3) =
(tau_11, tau_12, tau_22) at a stated binary precision. A symplectic
integer matrix ((a, b), (c, d)) acts by

    tau  ->  (a tau + b) (c tau + d)^(-1),

which preserves the half space. ``riemann_form_check`` certifies the
abelian-variety side of a point: on the lattice spanned by the rows of tau
and the unit vectors, the imaginary part of the Hermitian form
H(x, y) = x Im(tau)^(-1) conj(y)^T is integral and equals the standard
alternating form, and it is invariant under multiplication by i.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from mpmath import mp, mpc, mpf

from .exactnum import (
    DEFAULT_PREC,
    PrecisionError,
    WORK_GUARD,
    complex_to_pair,
    negligible,
    pair_to_complex,
    to_mpc,
    tolerance,
)
from .sp4 import SymplecticMatrix

CMat2 = Tuple[Tuple[mpc, mpc], Tuple[mpc, mpc]]


@dataclass(frozen=True)
class SiegelPoint:
    """Symmetric 2x2 complex matrix with positive definite imaginary part."""

    tau1: mpc
    tau2: mpc
    tau3: mpc
    prec: int = DEFAULT_PREC

    def __post_init__(self) -> None:
        for name in ("tau1", "tau2", "tau3"):
            object.__setattr__(self, name, to_mpc(getattr(self, name), self.prec + WORK_GUARD))

    @property
    def matrix(self) -> CMat2:
        return ((self.tau1, self.tau2), (self.tau2, self.tau3))

    def to_json(self) -> dict:
        return {
            "tau1": complex_to_pair(self.tau1, self.prec),
            "tau2": complex_to_pair(self.tau2, self.prec),
            "tau3": complex_to_pair(self.tau3, self.prec),
            "prec": self.prec,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SiegelPoint":
        try:
            prec = int(doc["prec"])
            return cls(
                pair_to_complex(doc["tau1"], prec),
                pair_to_complex(doc["tau2"], prec),
                pair_to_complex(doc["tau3"], prec),
                prec,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError("Siegel point JSON needs tau1, tau2, tau3, prec") from exc


def _min_eigen_sym2(a: mpf, b: mpf, c: mpf) -> mpf:
    """Smaller eigenvalue of the real symmetric matrix ((a, b), (b, c))."""
    half_tr = (a + c) / 2
    rad = ((a - c) / 2) ** 2 + b**2
    return half_tr - mp.sqrt(rad)


def is_in_H2(tau: SiegelPoint) -> bool:
    """Whether Im(tau) is positive definite at the point's precision.

    The smaller eigenvalue of Im(tau) must exceed the tolerance
    2**(-prec/2). A point is symmetric by construction, since tau_12 is
    stored once.
    """
    with mp.workprec(tau.prec + WORK_GUARD):
        lam = _min_eigen_sym2(tau.tau1.imag, tau.tau2.imag, tau.tau3.imag)
        return lam > tolerance(tau.prec)


def symplectic_act(m: SymplecticMatrix, tau: SiegelPoint) -> SiegelPoint:
    """(a tau + b)(c tau + d)^(-1), certified to land in the half space.

    Raises PrecisionError when c tau + d is numerically singular or the
    image fails the half-space check at the point's precision.
    """
    p = tau.prec
    with mp.workprec(p + WORK_GUARD):
        t = tau.matrix
        a, b, c, d = m.a, m.b, m.c, m.d

        def affine(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> CMat2:
            return tuple(
                tuple(
                    x[i][0] * t[0][j] + x[i][1] * t[1][j] + y[i][j]
                    for j in range(2)
                )
                for i in range(2)
            )

        num = affine(a, b)
        den = affine(c, d)
        det = den[0][0] * den[1][1] - den[0][1] * den[1][0]
        if negligible(det, p, [x for row in den for x in row], 2):
            raise PrecisionError("c tau + d is singular at this precision")
        inv = (
            (den[1][1] / det, -den[0][1] / det),
            (-den[1][0] / det, den[0][0] / det),
        )
        res = tuple(
            tuple(sum(num[i][k] * inv[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        sym_defect = abs(res[0][1] - res[1][0])
        off = (res[0][1] + res[1][0]) / 2
        out = SiegelPoint(res[0][0], off, res[1][1], p)
        if sym_defect > tolerance(p) or not is_in_H2(out):
            raise PrecisionError("image failed the half-space certificate")
        return out


def scale_point(tau: SiegelPoint, factor: int) -> SiegelPoint:
    """Entrywise integer scaling (used by the level-lowering identity)."""
    with mp.workprec(tau.prec + WORK_GUARD):
        return SiegelPoint(factor * tau.tau1, factor * tau.tau2, factor * tau.tau3, tau.prec)


def point_distance(x: SiegelPoint, y: SiegelPoint) -> mpf:
    """Max-norm distance between the entry triples."""
    p = min(x.prec, y.prec)
    with mp.workprec(p + WORK_GUARD):
        return max(
            abs(x.tau1 - y.tau1),
            abs(x.tau2 - y.tau2),
            abs(x.tau3 - y.tau3),
        )


# ---------------------------------------------------------------------------
# Riemann form certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RiemannReport:
    prec: int
    checks: Tuple[CheckResult, ...]


def riemann_form_check(tau: SiegelPoint, rng: Optional[random.Random] = None) -> RiemannReport:
    """Certify the principally polarized structure attached to tau.

    Lattice basis used: the two rows of tau, then the two unit vectors.
    Checks, each to the tolerance 2**(-prec/2):

    * Im(tau) is positive definite (so H is a positive Hermitian form),
    * E = Im(H) takes integer values on the lattice basis,
    * the Gram matrix of E in this basis is the standard form J,
    * E(i x, i y) = E(x, y) on sampled complex vectors.
    """
    p = tau.prec
    tol = tolerance(p)
    rng = rng if rng is not None else random.Random(0)
    checks: List[CheckResult] = []
    with mp.workprec(p + WORK_GUARD):
        y11 = tau.tau1.imag
        y12 = tau.tau2.imag
        y22 = tau.tau3.imag
        lam = _min_eigen_sym2(y11, y12, y22)
        checks.append(CheckResult(
            "imaginary_part_positive_definite",
            lam > tol,
            f"min eigenvalue {mp.nstr(lam, 8)}",
        ))
        dety = y11 * y22 - y12 * y12
        if abs(dety) <= tol:
            checks.append(CheckResult("hermitian_form_defined", False,
                                      "Im(tau) numerically singular"))
            return RiemannReport(p, tuple(checks))
        yinv = ((y22 / dety, -y12 / dety), (-y12 / dety, y11 / dety))

        def herm(x: Sequence[mpc], y: Sequence[mpc]) -> mpc:
            acc = mpc(0)
            for i in range(2):
                for j in range(2):
                    acc += x[i] * yinv[i][j] * mp.conj(y[j])
            return acc

        basis = [
            (tau.tau1, tau.tau2),
            (tau.tau2, tau.tau3),
            (mpc(1), mpc(0)),
            (mpc(0), mpc(1)),
        ]
        gram = [[herm(basis[i], basis[j]).imag for j in range(4)] for i in range(4)]
        integral = all(abs(g - mp.nint(g)) <= tol for row in gram for g in row)
        checks.append(CheckResult("riemann_form_integral_on_lattice", integral,
                                  "E integer valued on basis pairs"))
        target = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
        matches = all(
            abs(gram[i][j] - target[i][j]) <= tol for i in range(4) for j in range(4)
        )
        checks.append(CheckResult("gram_matrix_is_standard_form", matches,
                                  "basis: rows of tau, then unit vectors"))
        ok_i = True
        for _ in range(8):
            x = (mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            y = (mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            ex = herm(x, y).imag
            exi = herm((1j * x[0], 1j * x[1]), (1j * y[0], 1j * y[1])).imag
            if not negligible(ex - exi, p, (ex,)):
                ok_i = False
                break
        checks.append(CheckResult("compatible_with_complex_structure", ok_i,
                                  "E(ix, iy) = E(x, y) on samples"))
    return RiemannReport(p, tuple(checks))


def random_tau(rng: random.Random, prec: int = DEFAULT_PREC) -> SiegelPoint:
    """A pseudorandom point: bounded real part, Y = L^T L + I/4."""
    with mp.workprec(prec + WORK_GUARD):
        x1, x2, x3 = (rng.uniform(-1, 1) for _ in range(3))
        l11, l12, l21, l22 = (rng.uniform(-1, 1) for _ in range(4))
        y11 = l11 * l11 + l21 * l21 + 0.25
        y12 = l11 * l12 + l21 * l22
        y22 = l12 * l12 + l22 * l22 + 0.25
        return SiegelPoint(
            mpc(x1, y11),
            mpc(x2, y12),
            mpc(x3, y22),
            prec,
        )
