#!/usr/bin/env python3
"""Derive coefficient formulas for the Igusa-Clebsch invariants and freeze them.

The invariants I2, I4, I6, I10 of a monic separable sextic are defined as
symmetric functions of the root differences (see tests/oracles.py for the
definitions). Evaluating those definitions needs the roots; for exact work
over the rationals we want polynomial formulas in the sextic coefficients
c0..c5 instead.

Each I_w is isobaric of weight w when roots are scaled by lambda (c_i has
weight 6 - i), so it is a fixed integer linear combination of the isobaric
monomials of weight w. This script recovers those integer coefficients by
sampling curves with known integer roots, solving the linear system modulo
two large primes, CRT-lifting, and then verifying the result exactly against
the root-difference definitions on fresh random samples (including rational
roots). I10 is left out: it equals the discriminant and is computed from a
Sylvester resultant at runtime, which this script also cross-checks.

Output: src/g2modpoly/igusa_data.py (regenerated in place).
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from g2modpoly.g2curve import exact_clebsch  # noqa: E402
from oracles import igusa_clebsch_from_roots, coeffs_from_roots  # noqa: E402

SEED = 20260825
PRIMES = (2305843009213693951, 2305843009213693669)  # two 61-bit primes
WEIGHTS = {"I2": 6, "I4": 12, "I6": 18}
VAR_WEIGHTS = (6, 5, 4, 3, 2, 1)  # weight of c0..c5


def isobaric_monomials(weight: int):
    """All exponent vectors (e0..e5) with sum e_i * (6 - i) == weight."""
    found = []

    def rec(idx, remaining, acc):
        if idx == 6:
            if remaining == 0:
                found.append(tuple(acc))
            return
        w = VAR_WEIGHTS[idx]
        for e in range(remaining // w + 1):
            rec(idx + 1, remaining - e * w, acc + [e])

    rec(0, weight, [])
    return sorted(found)


class ModSolver:
    """Online Gaussian elimination mod p for a square dense system."""

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.rows = {}  # pivot column -> reduced (row, rhs)

    def add(self, row, rhs) -> bool:
        p = self.p
        row = list(row)
        for col in range(self.ncols):
            if row[col] == 0:
                continue
            if col in self.rows:
                r2, b2 = self.rows[col]
                f = row[col]
                row = [(a - f * b) % p for a, b in zip(row, r2)]
                rhs = (rhs - f * b2) % p
            else:
                inv = pow(row[col], p - 2, p)
                row = [(a * inv) % p for a in row]
                rhs = (rhs * inv) % p
                self.rows[col] = (row, rhs)
                return True
        if rhs % p != 0:
            raise RuntimeError("inconsistent sample system")
        return False

    def solved(self) -> bool:
        return len(self.rows) == self.ncols

    def solution(self):
        assert self.solved()
        sol = [0] * self.ncols
        for col in sorted(self.rows, reverse=True):
            row, rhs = self.rows[col]
            acc = rhs
            for j in range(col + 1, self.ncols):
                acc = (acc - row[j] * sol[j]) % self.p
            sol[col] = acc % self.p
        return sol


def crt_pair(a1, a2, p1, p2):
    m = p1 * p2
    x = (a1 + p1 * (((a2 - a1) * pow(p1, -1, p2)) % p2)) % m
    return x - m if x > m // 2 else x


def sample_curve(rng: random.Random):
    while True:
        roots = rng.sample(range(-40, 41), 6)
        if len(set(roots)) == 6:
            return roots


def derive(name: str, weight: int, rng: random.Random):
    monos = isobaric_monomials(weight)
    n = len(monos)
    print(f"{name}: weight {weight}, {n} isobaric monomials")
    idx = {"I2": 0, "I4": 1, "I6": 2}[name]

    solutions = []
    for p in PRIMES:
        solver = ModSolver(n, p)
        tries = 0
        while not solver.solved():
            roots = sample_curve(rng)
            cs = coeffs_from_roots([Fraction(r) for r in roots])[:6]
            target = igusa_clebsch_from_roots([Fraction(r) for r in roots])[idx]
            row = [1] * n
            for j, mono in enumerate(monos):
                acc = 1
                for e, c in zip(mono, cs):
                    if e:
                        acc = (acc * pow(int(c) % p, e, p)) % p
                row[j] = acc
            solver.add(row, int(target) % p)
            tries += 1
            if tries > 4 * n + 200:
                raise RuntimeError("sampling failed to reach full rank")
        solutions.append(solver.solution())

    lifted = {}
    for j, mono in enumerate(monos):
        c = crt_pair(solutions[0][j], solutions[1][j], *PRIMES)
        if c:
            lifted[mono] = c
    print(f"{name}: {len(lifted)} nonzero terms, max |coeff| = "
          f"{max(abs(v) for v in lifted.values())}")
    return lifted


def verify(terms_by_name, rng: random.Random):
    """Check the tables, through the package's exact evaluation, against the
    root-difference definitions; I10 = disc = -Res(f, f') comes from its
    Sylvester matrix."""
    print("verifying formulas against root-difference definitions...")
    tables = [terms_by_name[name] for name in WEIGHTS]
    for trial in range(30):
        if trial < 22:
            roots = [Fraction(r) for r in sample_curve(rng)]
        else:
            roots = []
            while len(set(roots)) != 6:
                roots = [Fraction(rng.randrange(-30, 31), rng.randrange(1, 7)) for _ in range(6)]
        cs = coeffs_from_roots(roots)[:6]
        assert exact_clebsch(cs + [Fraction(1)], tables) == igusa_clebsch_from_roots(roots), roots
    print("verification passed (30 samples, exact)")


def derive_tables():
    """The verified I2, I4 and I6 tables, derived from the fixed seed."""
    rng = random.Random(SEED)
    terms_by_name = {name: derive(name, w, rng) for name, w in WEIGHTS.items()}
    verify(terms_by_name, rng)
    return terms_by_name


def main():
    terms_by_name = derive_tables()

    out = ROOT / "src" / "g2modpoly" / "igusa_data.py"
    with open(out, "w") as fh:
        fh.write('"""Frozen coefficient formulas for the Igusa-Clebsch invariants.\n\n')
        fh.write("Generated by scripts/derive_igusa_clebsch.py; do not edit by hand.\n")
        fh.write("Each table maps an exponent vector (e0..e5) for the non-leading\n")
        fh.write("coefficients c0..c5 of a monic sextic to an integer coefficient;\n")
        fh.write("the invariant is the sum of coeff * c0^e0 * ... * c5^e5.\n")
        fh.write('"""\n\n')
        for name in ("I2", "I4", "I6"):
            terms = terms_by_name[name]
            fh.write(f"{name}_TERMS = {{\n")
            for mono in sorted(terms):
                fh.write(f"    {mono}: {terms[mono]},\n")
            fh.write("}\n\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
