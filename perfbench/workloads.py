"""Seeded curve workloads of the g2modpoly benchmark and their output checks.

Curves are random monic sextics with integer coefficients in [-3, 3],
drawn from ``random.Random(seed)`` and resampled when singular or on the
split locus, exactly as ``scripts/p2_height_survey.py`` draws them.  They
are also resampled when one of their fifteen Richelot images is too close
to singular for the 300-bit pipeline (``image_conditioning_bits``): the
library rejects such a curve at 300 bits, which is a known defect and not
what the workloads time.  The library only ever sees the generated curves.

Importing this module imports the library, so the benchmark times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from mpmath import mp, mpc, mpf

from g2modpoly import cli, g2curve, modpoly, richelot
from g2modpoly.exactnum import WORK_GUARD, format_rational, pair_to_complex, tolerance

COEFF_BOUND = 3
DEFAULT_SEED = 601
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
EVAL_PREC = 300
EVAL_REF_DIGITS = 50      # stored digits of the eval-cli-300 reference p2
EVAL_REF_BITS = 150       # the eval-cli-300 p2 must match its reference to 2^-150
#: resample a curve whose worst Richelot image has |I10| / max(1, |coeffs|)^10
#: below 2^-(EVAL_PREC/2 - SCREEN_MARGIN_BITS); the library's own threshold at
#: EVAL_PREC bits is 2^-(EVAL_PREC/2)
SCREEN_MARGIN_BITS = 10


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to what the checks need."""

    solved: bool                  # certified rationals came back
    error: Optional[str] = None   # why the output failed its check, or None


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int                     # curves drawn at set-up; a run cycles through them
    run: Callable                 # (curve, path) -> raw result, the timed part
    check: Callable               # (raw result, reference entry or MISSING) -> Outcome
    reference: Callable           # raw result -> the entry record_reference.py stores


MISSING = object()


def random_curves(seed: int, count: int,
                  screened: Optional[list] = None) -> List[g2curve.Genus2Curve]:
    """``count`` curves drawn from ``seed``; coefficient tuples resampled by
    the conditioning screen are appended to ``screened`` when it is given."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(6)) + (1,)
        try:
            c = g2curve.validate_curve(coeffs)
        except ValueError:
            continue
        if modpoly.l2_evaluate(g2curve.absolute_igusa(c)) == 0:
            continue
        if image_conditioning_bits(coeffs) < SCREEN_MARGIN_BITS - EVAL_PREC // 2:
            if screened is not None:
                screened.append(coeffs)
            continue
        out.append(c)
    return out


def _sextic_roots(coeffs) -> List[complex]:
    """Roots of the monic integer sextic (ascending ``coeffs``) in double
    precision: Aberth iteration, then Newton polishing."""
    desc = [complex(c) for c in reversed(coeffs)]
    deriv = [c * (6 - i) for i, c in enumerate(desc[:-1])]

    def ev(poly, x):
        acc = 0j
        for c in poly:
            acc = acc * x + c
        return acc

    radius = 1 + max(abs(c) for c in desc[1:])
    z = [radius * complex(math.cos(2.1 * k + 0.4), math.sin(2.1 * k + 0.4)) for k in range(6)]
    for _ in range(500):
        moved = 0.0
        for i in range(6):
            f, df = ev(desc, z[i]), ev(deriv, z[i])
            if f == 0:
                continue
            ratio = f / df if df != 0 else f
            w = ratio / (1 - ratio * sum(1 / (z[i] - z[j]) for j in range(6) if j != i))
            z[i] -= w
            moved = max(moved, abs(w) / max(1.0, abs(z[i])))
        if moved < 1e-15:
            break
    for _ in range(3):
        z = [x - ev(desc, x) / ev(deriv, x) if ev(deriv, x) != 0 else x for x in z]
    return z


def image_conditioning_bits(coeffs) -> float:
    """log2 of the smallest |I10| / max(1, |coeffs|)^10 among the fifteen
    Richelot images of the curve, estimated in double precision.

    It follows the library's construction of each image (the factorization
    triple, the bracket quadratics, the Moebius move of a model that drops
    degree, the monic normalization) and takes I10 as the discriminant of
    the monic image, from its roots, so that cancellation costs no accuracy.
    ``g2curve.absolute_igusa`` rejects an image at ``prec`` bits when this
    ratio is at most 2^-(prec/2).  Returns -inf for a triple with a
    (nearly) vanishing delta, which the split-locus test should already
    have removed.
    """
    roots = _sextic_roots(coeffs)
    worst = math.inf
    for pairing in richelot.pair_partitions_of_six():
        quads = [(roots[i] * roots[j], -(roots[i] + roots[j]), 1.0) for i, j in pairing]
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = quads
        delta = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
        if abs(delta) <= 2.0 ** -30 * max(1.0, *(abs(x) for q in quads for x in q)) ** 3:
            return -math.inf
        image, infinite = [], 0
        brackets = [(quads[0], quads[1]), (quads[0], quads[2]), (quads[1], quads[2])]
        for (p0, p1, p2), (q0, q1, q2) in brackets:
            h0, h1, h2 = p1 * q0 - p0 * q1, 2 * (p2 * q0 - p0 * q2), p2 * q1 - p1 * q2
            if abs(h2) <= 1e-12 * max(abs(h0), abs(h1)):
                image.append(-h0 / h1)
                infinite += 1
            else:
                disc = (h1 * h1 - 4 * h2 * h0) ** 0.5
                image += [(-h1 + disc) / (2 * h2), (-h1 - disc) / (2 * h2)]
        if infinite:
            # the library's x -> t + 1/x for the t in its list with the largest |g(t)|
            def g_abs(t):
                return abs(math.prod(t - r for r in image))
            t = max((0, 1, -1, 2, -2, 3, -3, 4, -4), key=g_abs)
            image = [1 / (r - t) for r in image] + [0j] * infinite
        monic = [1 + 0j]
        for r in image:
            monic = [0j] + monic
            for k in range(len(monic) - 1):
                monic[k] -= r * monic[k + 1]
        bits = -10 * math.log2(max(1.0, *(abs(c) for c in monic)))
        for i in range(6):
            for j in range(i + 1, 6):
                sep = abs(image[i] - image[j])
                bits += 2 * math.log2(sep) if sep > 0 else -math.inf
        worst = min(worst, bits)
    return worst


def write_curves(curves, directory: str) -> List[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, c in enumerate(curves):
        path = os.path.join(directory, f"curve-{i:04d}.json")
        with open(path, "w") as fh:
            json.dump(g2curve.curve_to_json(c), fh)
            fh.write("\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# eval-cli-300: g2mp modpoly eval2 --in <curve.json>, in-process
# ---------------------------------------------------------------------------


def run_eval_cli(curve, path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(["modpoly", "eval2", "--in", path])
    return code, buf.getvalue()


def eval_p2(report: dict) -> List[mpc]:
    return [pair_to_complex(pair, EVAL_PREC) for pair in report["results"]["p2"]]


def check_eval_cli(raw, ref) -> Outcome:
    code, text = raw
    if code != 0:
        return Outcome(False, f"exit status {code}")
    report = json.loads(text)
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    if not checks.get("degree_15_monic"):
        return Outcome(False, "degree_15_monic failed")
    p2 = eval_p2(report)
    if len(p2) != 16:
        return Outcome(False, f"{len(p2)} coefficients")
    tol = tolerance(EVAL_PREC)
    with mp.workprec(EVAL_PREC + WORK_GUARD):
        for k, c in enumerate(p2):
            if abs(c.imag) > tol * max(mpf(1), abs(c)):
                return Outcome(False, f"coefficient {k} is not real")
        if ref is not MISSING:
            bound = mpf(2) ** -EVAL_REF_BITS
            for k, (c, r) in enumerate(zip(p2, ref)):
                r = mpf(r)
                if abs(c - r) > bound * max(mpf(1), abs(r)):
                    return Outcome(False, f"coefficient {k} differs from the reference")
    return Outcome(False)


def eval_reference(raw) -> List[str]:
    _, text = raw
    with mp.workprec(EVAL_PREC + WORK_GUARD):
        return [mp.nstr(c.real, EVAL_REF_DIGITS) for c in eval_p2(json.loads(text))]


# ---------------------------------------------------------------------------
# recon-ladder-800 / refuse-ladder-256: evaluated_P2(..., reconstruct=True)
# ---------------------------------------------------------------------------


def ladder_runner(denom_bits: int, prec_cap: int):
    def run(curve, path):
        return modpoly.evaluated_P2(curve, EVAL_PREC, reconstruct=True,
                                    denom_bound=1 << denom_bits, prec_cap=prec_cap)
    return run


def rational_digest(coeffs) -> str:
    text = ",".join(format_rational(c) for c in coeffs)
    return hashlib.sha256(text.encode()).hexdigest()


def check_ladder(built, ref) -> Outcome:
    """Certified rationals must match the returned p2 at ``tolerance(prec)``;
    where a reference exists the digest (or the refusal) must match it too."""
    if built.rational_p2 is None:
        if ref is not MISSING and ref is not None:
            return Outcome(False, "refused, but the reference reconstructs")
        return Outcome(False)
    coeffs = built.rational_p2
    if len(coeffs) != 16 or len(built.p2.coeffs) != 16:
        return Outcome(True, "expected 16 coefficients")
    tol = tolerance(built.prec)
    with mp.workprec(built.prec + WORK_GUARD):
        for k, (r, c) in enumerate(zip(coeffs, built.p2.coeffs)):
            value = mpf(r.numerator) / r.denominator
            if abs(value - c) > tol * max(mpf(1), abs(c)):
                return Outcome(True, f"rational coefficient {k} does not match p2")
    if ref is not MISSING and ref != rational_digest(coeffs):
        return Outcome(True, "rationals differ from the reference"
                       if ref is not None else "reconstructs, but the reference refuses")
    return Outcome(True)


def ladder_reference(built) -> Optional[str]:
    return None if built.rational_p2 is None else rational_digest(built.rational_p2)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w for w in (
        Workload("eval-cli-300", 256, run_eval_cli, check_eval_cli, eval_reference),
        Workload("recon-ladder-800", 16, ladder_runner(800, 4200), check_ladder,
                 ladder_reference),
        Workload("refuse-ladder-256", 48, ladder_runner(256, 2000), check_ladder,
                 ladder_reference),
    )
}


def load_reference(name: str, seed: int) -> list:
    """Reference entries of ``name`` for ``seed``, one per pool curve (may be short)."""
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE_PATH):
        return []
    with open(REFERENCE_PATH) as fh:
        doc = json.load(fh)
    return doc["workloads"].get(name, []) if doc.get("seed") == seed else []


def prepare(name: str, seed: int, directory: str, screened: Optional[list] = None):
    """Set-up of one run: draw the pool, write its curve files."""
    curves = random_curves(seed, WORKLOADS[name].pool, screened)
    return list(zip(curves, write_curves(curves, directory)))
