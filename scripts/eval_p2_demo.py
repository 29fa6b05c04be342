#!/usr/bin/env python3
"""End-to-end walkthrough of the evaluated modular-relation pipeline.

For one rational curve y^2 = f(x): invariants, the 15 Richelot steps, the
evaluated degree-15 polynomial with its companions, the certified companion
identity, the split-locus value, and (optionally) exact reconstruction of
all sixteen coefficients.

Example:

    python3 scripts/eval_p2_demo.py --curve " -2,3,1,-1,0,2,1" --reconstruct
"""

import argparse
import sys

from mpmath import mp

from g2modpoly import g2curve, modpoly, richelot
from g2modpoly.exactnum import parse_rational


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--curve", default="-2,3,1,-1,0,2,1",
                    help="seven rational coefficients c0..c6, ascending")
    ap.add_argument("--prec", type=int, default=300)
    ap.add_argument("--reconstruct", action="store_true",
                    help="also reconstruct the coefficients exactly "
                         "(escalates precision; needs a rational curve)")
    ap.add_argument("--denom-bits", type=int, default=900)
    ap.add_argument("--prec-cap", type=int, default=8000)
    args = ap.parse_args(argv)

    coeffs = tuple(parse_rational(s.strip()) for s in args.curve.split(","))
    curve = g2curve.validate_curve(coeffs)
    print(f"curve: y^2 = f(x) with ascending coefficients {list(map(str, coeffs))}")

    triple = g2curve.absolute_igusa(curve)
    print("absolute invariants:")
    for name, v in zip(("j1", "j2", "j3"), triple):
        print(f"  {name} = {v}")

    l2 = modpoly.l2_evaluate(triple)
    print(f"split-locus value: {l2}"
          + ("  (curve is split: the evaluated relation is undefined)"
             if l2 == 0 else ""))
    if l2 == 0:
        return 1

    pairs = richelot.all_isogenous_invariants(curve, args.prec)
    print(f"richelot steps: {len(pairs)} quadratic factorizations")
    with mp.workprec(60):
        for k, (_, image_triple) in enumerate(pairs[:3]):
            print(f"  step {k}: j1(image) = {mp.nstr(mp.mpc(image_triple.j1), 12)}")
    print("  ...")

    built = modpoly.evaluated_P2(
        curve, args.prec, reconstruct=args.reconstruct,
        denom_bound=1 << args.denom_bits, prec_cap=args.prec_cap)
    print(f"evaluated degree-15 polynomial at precision {built.prec}:")
    with mp.workprec(60):
        for i, c in enumerate(built.p2.coeffs):
            print(f"  X^{i}: {mp.nstr(mp.mpc(c), 12)}")

    rep = modpoly.companion_identity_report(curve, args.prec)
    print(f"companion identity certified: {rep.ok} "
          f"(worst residuals {mp.nstr(rep.worst_rel_2, 3)}, "
          f"{mp.nstr(rep.worst_rel_3, 3)} at pipeline precision {rep.pipeline_prec})")

    if args.reconstruct:
        if built.rational_p2 is None:
            print(f"reconstruction refused under 2^{args.denom_bits} "
                  f"up to precision {args.prec_cap}")
            return 1
        print("exact coefficients:")
        for i, c in enumerate(built.rational_p2):
            s = str(c)
            if len(s) > 100:
                s = s[:48] + " ... " + s[-48:]
            print(f"  X^{i}: {s}")
        bits = max(c.denominator.bit_length() for c in built.rational_p2)
        print(f"max denominator size: {bits} bits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
