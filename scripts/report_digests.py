#!/usr/bin/env python3
"""Digests of the reports and rationals the pipeline gives on benchmark curves.

Two source checkouts give the same outputs when this prints the same lines
in both:

    python3 scripts/report_digests.py --curves 60 --recon 16

The curves are the first ``--curves`` of the benchmark's seeded pool, drawn
by ``perfbench/workloads.py``. For each of ``modpoly eval2``, ``richelot
all``, ``curve invariants``, ``modpoly ftilde --k 2`` and ``--k 3``,
``curve validate`` and ``modpoly l2`` at the default precision it prints
one sha256 over every curve's exit status and the report's ``results`` and
``checks`` (``inputs`` carries the temporary file path, so it is left out,
as in ``tests/test_cli.py``). The same lines follow, marked ``moved``, for
each curve moved by x -> 2x + 1 (``transform_model``), whose monic model
has coefficients with denominators 2^k, so that the exact invariants of
non-integral models are compared too. It prints the sha256 of the raw
mpmath tuples (``_mpf_``) of every coefficient of ``evaluated_P2(c,
300).p2`` over the same curves, or of the exception's name for a curve
that is refused, so the float P2 is compared bit for bit and not only to
the printed digits, and the same digest of ``evaluated_P2(c, 2400).p2``
over the first ``--recon`` curves. It prints the same digest of the
elimination
``g2curve._resultant_f_fprime`` over every image that ``richelot_image``
gives of the same curves at 300 bits and of the first ``--recon`` curves
at 2400 bits, so the float I10 of the images is compared bit for bit on
its own, and of the triple ``absolute_igusa`` gives of each of those
images, at the same precisions, and of every Richelot step of the same
curves at the same precisions, marked ``richelot steps``: each triple's
quadratics, delta and image, then the quadratics of the image's
``dual_triple``, and the delta and image of the dual step. It prints the
same digest of the six roots
``complex_roots`` gives at 300 and at 2400 bits over the same curves, and
over a fixed set of close pairs, marked ``cluster`` (roots b, b + 2^-g,
5/2, -2, 3, -7/3 for b in {1/3, 2/7} and g in {12, 16, 20, 24, 40, 80}),
so that every way of seeding the roots is compared. It prints the sha256
of ``(p, P2 mod p)`` from ``modp.p2_mod_p`` over the same curves at each
curve's first five usable primes, so that P2 over F_{p^2} is compared
value for value. Then it prints the sha256 of ``(prec, rational_p2)`` from
the ``recon-ladder-800`` operation (``evaluated_P2(..., reconstruct=True)``
under 2^800 up to 4200 bits) on the first ``--recon`` curves, and the
sha256 of the prime at which ``modp.check_mod_p`` certifies each curve's
rationals. The library and the benchmark modules are imported from this
checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from g2modpoly import cli, g2curve, modp, modpoly, richelot  # noqa: E402
from g2modpoly.exactnum import poly_from_roots  # noqa: E402

import workloads  # noqa: E402

COMMANDS = (("modpoly", "eval2"), ("richelot", "all"), ("curve", "invariants"),
            ("modpoly", "ftilde", "--k", "2"), ("modpoly", "ftilde", "--k", "3"),
            ("curve", "validate"), ("modpoly", "l2"))

#: x -> 2x + 1, the model change of the ``moved`` curve set
MOVE = ((2, 1), (0, 1))

#: roots b, b + 2^-g, 5/2, -2, 3, -7/3: two roots 2^-g apart beside four simple ones
CLUSTERS = tuple(
    g2curve.Genus2Curve(tuple(poly_from_roots(
        (b, b + Fraction(1, 2**g), Fraction(5, 2), -2, 3, Fraction(-7, 3)), Fraction(1))))
    for b in (Fraction(1, 3), Fraction(2, 7)) for g in (12, 16, 20, 24, 40, 80))


def report_digest(command, paths):
    digest = hashlib.sha256()
    for path in paths:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.dispatch([*command, "--in", path])
        body = ""
        if code == 0:
            doc = json.loads(out.getvalue())
            body = json.dumps({"results": doc["results"], "checks": doc["checks"]})
        digest.update(f"{code}\n{body}\n".encode())
    return digest.hexdigest()


def bits_digest(values, curves, prec):
    """sha256 of the raw ``_mpf_`` tuples of ``values(curve, prec)`` per curve,
    or of the exception's name for a curve that is refused."""
    digest = hashlib.sha256()
    for curve in curves:
        try:
            coeffs = values(curve, prec)
        except (ValueError, ArithmeticError) as exc:
            text = type(exc).__name__
        else:
            text = repr([(s, int(m), e, b) for c in coeffs for s, m, e, b in c._mpc_])
        digest.update(f"{text}\n".encode())
    return digest.hexdigest()


def p2_coeffs(curve, prec):
    return modpoly.evaluated_P2(curve, prec).p2.coeffs


def image_resultants(curve, prec):
    """Res(f, f') of each image of ``curve`` that is not split, at ``prec``."""
    steps = map(richelot.richelot_image, richelot.enumerate_factorizations(curve, prec))
    return [g2curve._resultant_f_fprime(s.image.coeffs, prec)
            for s in steps if s.image is not None]


def richelot_steps(curve, prec):
    """Each triple's quadratics, delta and image over the steps of ``curve``,
    each image followed by its ``dual_triple``'s quadratics, delta and image."""
    values = []
    for triple in richelot.enumerate_factorizations(curve, prec):
        step = richelot.richelot_image(triple)
        values += [c for q in triple.quads for c in q] + [step.delta]
        if step.image is not None:
            dual = richelot.dual_triple(step)
            back = richelot.richelot_image(dual)
            values += [*step.image.coeffs, *(c for q in dual.quads for c in q), back.delta,
                       *(back.image.coeffs if back.image is not None else ())]
    return values


def image_invariants(curve, prec):
    """The ``absolute_igusa`` triples of the images of ``curve`` that are not split."""
    return [j for _, triple in richelot.all_isogenous_invariants(curve, prec)
            if triple is not None for j in triple]


def p2_mod_p_digest(curves):
    """sha256 of ``(p, P2 mod p)`` at each curve's first five primes, in the
    order ``check_mod_p`` tries them, at which ``p2_mod_p`` is defined."""
    digest = hashlib.sha256()
    for curve in curves:
        reductions = ((p, modp.p2_mod_p([modp._reduce(v, p) for v in curve.coeffs], p))
                      for p in modp._candidate_primes())
        found = ((p, [(c.re, c.im) for c in p2]) for p, p2 in reductions if p2 is not None)
        digest.update(f"{list(islice(found, 5))}\n".encode())
    return digest.hexdigest()


def ladder_digests(curves):
    """sha256 of ``(prec, rational_p2)`` per curve, and of the prime at which
    ``check_mod_p`` certifies those rationals (None for a refused curve)."""
    run = workloads.ladder_runner(800, 4200)
    digest, primes = hashlib.sha256(), hashlib.sha256()
    for curve in curves:
        built = run(curve, None)
        coeffs = built.rational_p2
        text = "None" if coeffs is None else workloads.rational_digest(coeffs)
        digest.update(f"{built.prec}:{text}\n".encode())
        prime = None if coeffs is None else modp.check_mod_p(curve, coeffs)
        primes.update(f"{prime}\n".encode())
    return digest.hexdigest(), primes.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--curves", type=int, default=60,
                    help="curves whose reports are hashed (default 60)")
    ap.add_argument("--recon", type=int, default=16,
                    help="curves whose reconstructed rationals are hashed (default 16)")
    args = ap.parse_args(argv)

    curves = workloads.random_curves(args.seed, max(args.curves, args.recon))
    print(f"# seed {args.seed}: {args.curves} report curves, {args.recon} reconstruct curves")
    moved = [g2curve.transform_model(c, MOVE) for c in curves[:args.curves]]
    assert all(any(v.denominator > 1 for v in c.coeffs) for c in moved), "a moved model is integral"
    with tempfile.TemporaryDirectory() as tmp:
        for label, chosen in (("", curves[:args.curves]), ("moved ", moved)):
            paths = workloads.write_curves(chosen, f"{tmp}/{label.strip() or 'pool'}")
            for command in COMMANDS:
                print(f"{label}{' '.join(command)}: {report_digest(command, paths)}")
    print(f"evaluated_P2 300 bits: {bits_digest(p2_coeffs, curves[:args.curves], 300)}")
    print(f"evaluated_P2 2400 bits: {bits_digest(p2_coeffs, curves[:args.recon], 2400)}")
    for label, values in (("elimination", image_resultants), ("image absolute_igusa", image_invariants),
                          ("richelot steps", richelot_steps)):
        both = (bits_digest(values, curves[:args.curves], 300)
                + bits_digest(values, curves[:args.recon], 2400))
        print(f"{label} 300 and 2400 bits: {hashlib.sha256(both.encode()).hexdigest()}")
    for label, chosen in (("", curves[:args.curves]), ("cluster ", CLUSTERS)):
        for prec in (300, 2400):
            print(f"{label}complex_roots {prec} bits: "
                  f"{bits_digest(richelot.complex_roots, chosen, prec)}")
    print(f"p2_mod_p first 5 usable primes: {p2_mod_p_digest(curves[:args.curves])}")
    rationals, primes = ladder_digests(curves[:args.recon])
    print(f"reconstruct 2^800 cap 4200: {rationals}")
    print(f"certifying prime 2^800 cap 4200: {primes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
