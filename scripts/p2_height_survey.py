#!/usr/bin/env python3
"""Survey the exact coefficient heights of the evaluated degree-15 relation.

For seeded random monic sextics with small integer coefficients, reconstruct
every coefficient of ``evaluated_P2`` as an exact rational under a generous
denominator bound, and report the numerator/denominator bit sizes.  The
point of the experiment: even for coefficients in [-3, 3] the true
denominators measure hundreds of bits, so reconstruction under a small
denominator bound (for example 2^256) cannot succeed and the library
refuses instead of guessing.

Example:

    python3 scripts/p2_height_survey.py --curves 5 --seed 601
"""

import argparse
import json
import random
import statistics
import sys
import time

from g2modpoly import g2curve, modpoly


def survey_curve(curve, prec, denom_bits, prec_cap):
    start = time.monotonic()
    built = modpoly.evaluated_P2(curve, prec, reconstruct=True,
                                 denom_bound=1 << denom_bits,
                                 prec_cap=prec_cap)
    elapsed = time.monotonic() - start
    row = {
        "f": [str(c) for c in curve.coeffs],
        "prec": built.prec,
        "seconds": round(elapsed, 2),
    }
    if built.rational_p2 is None:
        row["reconstructed"] = False
        return row
    row["reconstructed"] = True
    row["max_numerator_bits"] = max(
        c.numerator.bit_length() for c in built.rational_p2)
    row["max_denominator_bits"] = max(
        c.denominator.bit_length() for c in built.rational_p2)
    return row


def random_curves(rng, count, coeff_bound):
    out = []
    while len(out) < count:
        coeffs = tuple(rng.randint(-coeff_bound, coeff_bound)
                       for _ in range(6)) + (1,)
        try:
            c = g2curve.validate_curve(coeffs)
        except ValueError:
            continue
        if modpoly.l2_evaluate(g2curve.absolute_igusa(c)) == 0:
            continue
        out.append(c)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--curves", type=int, default=5,
                    help="number of random curves to survey (default 5)")
    ap.add_argument("--seed", type=int, default=601)
    ap.add_argument("--coeff-bound", type=int, default=3,
                    help="integer coefficients drawn from [-B, B] (default 3)")
    ap.add_argument("--prec", type=int, default=6000,
                    help="starting precision in bits (default 6000)")
    ap.add_argument("--prec-cap", type=int, default=12000,
                    help="precision escalation cap (default 12000)")
    ap.add_argument("--denom-bits", type=int, default=1500,
                    help="denominator bound 2^bits for reconstruction (default 1500)")
    ap.add_argument("--out", default=None, help="also write rows as JSON here")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    rows = []
    print(f"# {args.curves} random monic sextics, coefficients in "
          f"[-{args.coeff_bound}, {args.coeff_bound}], seed {args.seed}")
    print(f"# reconstruction bound 2^{args.denom_bits}, precision "
          f"{args.prec}..{args.prec_cap}")
    for curve in random_curves(rng, args.curves, args.coeff_bound):
        row = survey_curve(curve, args.prec, args.denom_bits, args.prec_cap)
        rows.append(row)
        f_str = ", ".join(row["f"])
        if row["reconstructed"]:
            print(f"[{f_str}]  num <= {row['max_numerator_bits']} bits, "
                  f"den <= {row['max_denominator_bits']} bits "
                  f"(prec {row['prec']}, {row['seconds']}s)")
        else:
            print(f"[{f_str}]  NOT reconstructed under 2^{args.denom_bits} "
                  f"up to precision {args.prec_cap}")

    done = [r for r in rows if r["reconstructed"]]
    if done:
        dens = [r["max_denominator_bits"] for r in done]
        print(f"# denominator bits over {len(done)} curves: "
              f"min {min(dens)}, median {int(statistics.median(dens))}, "
              f"max {max(dens)}")
        print("# a 2^256 denominator bound is "
              + ("sufficient" if max(dens) <= 256 else
                 f"insufficient (need {max(dens)} bits)"))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        print(f"# rows written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
