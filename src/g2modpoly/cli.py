"""Unified command-line front end; one JSON run report per invocation.

Usage: ``g2mp <group> <command> [options]`` with groups

* ``sp4 index|planes|cosets`` — level-p index, isotropic planes, coset data
* ``siegel act|check`` — symplectic action on H2, Riemann form certificate
* ``qexp mul|invert|quotient|check|fit`` — truncated Fourier expansions
* ``curve validate|invariants|transform`` — genus-2 curves and invariants
* ``richelot all`` — the 15 (2,2)-isogeny steps of a curve
* ``modpoly eval2|ftilde|l2|degprof`` — evaluated modular relations
* ``verify all`` — a seeded cross-module verification battery

Every run writes a single JSON report to stdout (or ``--out PATH``) with
the fields command, inputs, results, checks, precision, elapsed — in that
order. All non-integer numerics are decimal strings, and ``elapsed`` stays
0 unless ``--timings`` is given, so identical argv and input files produce
byte-identical reports.

Exit status: 0 when the command ran and every check passed; 1 when a check
failed; 2 for usage errors (argparse); 3 for invalid input files or
domain-invalid inputs; 4 for precision failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath import mp

from .exactnum import (
    DEFAULT_PREC,
    WORK_GUARD,
    ComplexPoly,
    PrecisionError,
    complex_to_pair,
    excerpt,
    format_rational,
    horner,
    negligible,
    parse_rational,
    relative_deviation,
    str_to_int,
    to_mpc,
    tolerance,
)
from . import sp4 as sp4mod
from . import siegel as siegelmod
from . import qseries
from . import g2curve
from . import richelot as richelotmod
from . import modpoly as modpolymod

Check = Dict[str, object]
HandlerResult = Tuple[Dict[str, object], Dict[str, object], List[Check]]


def _check(name: str, passed: bool, detail: str) -> Check:
    return {"name": name, "pass": bool(passed), "detail": detail}


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh, parse_int=str_to_int)


def _matrix_entry(x) -> int:
    """An int, or a string ``[+-]?[0-9]+`` of any length (``str_to_int``)."""
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+", x) or type(x) is int:
        return str_to_int(x) if isinstance(x, str) else x
    raise ValueError(f"matrix entry {excerpt(x) if isinstance(x, str) else type(x).__name__}"
                     " is not an integer")


def _matrix_rows(doc, size: int = 4) -> Tuple[Tuple[int, ...], ...]:
    """Accept a row-major nested list or a flat list of ints or integer strings."""
    if isinstance(doc, dict):
        doc = doc.get("rows", doc)
    if not isinstance(doc, list):
        raise ValueError(f"expected a {size}x{size} matrix as a JSON list")
    if len(doc) == size and all(isinstance(r, (list, tuple)) for r in doc):
        rows = [[_matrix_entry(x) for x in r] for r in doc]
    elif len(doc) == size * size:
        flat = [_matrix_entry(x) for x in doc]
        rows = [flat[i * size:(i + 1) * size] for i in range(size)]
    else:
        raise ValueError(f"expected a {size}x{size} matrix (nested or flat row-major)")
    if any(len(r) != size for r in rows):
        raise ValueError(f"expected {size} entries per row")
    return tuple(tuple(r) for r in rows)


def _rational_list(values, what: str) -> List[Fraction]:
    """Parse a JSON list of rationals; anything but a list is refused."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list")
    return [Fraction(x) if type(x) is int else parse_rational(str(x)) for x in values]


def _matrix_doc(rows: Sequence[Sequence[int]]) -> List[List[str]]:
    return [[str(x) for x in row] for row in rows]


def _series_doc(s: qseries.FourierSeries) -> dict:
    return {
        "order": s.order,
        "shift": s.shift,
        "terms": [
            [k, l, m, format_rational(c)] for (k, l, m), c in sorted(s.terms.items())
        ],
    }


def _triple_doc(j, prec: int) -> List[object]:
    out: List[object] = []
    for v in j:
        if isinstance(v, (int, Fraction)):
            out.append(format_rational(Fraction(v)))
        else:
            out.append(complex_to_pair(v, prec))
    return out


def _poly_doc(p: ComplexPoly, prec: int) -> List[List[str]]:
    return [complex_to_pair(c, prec) for c in p.coeffs]


def _load_tau(path: str, prec: int) -> siegelmod.SiegelPoint:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValueError("Siegel point JSON must be an object")
    if "prec" not in doc:
        doc = dict(doc)
        doc["prec"] = prec
    return siegelmod.SiegelPoint.from_json(doc)


# ---------------------------------------------------------------------------
# sp4
# ---------------------------------------------------------------------------


def _cmd_sp4_index(args) -> HandlerResult:
    idx = sp4mod.gamma0_index(args.p)
    return ({"p": args.p}, {"index": idx}, [])


def _cmd_sp4_planes(args) -> HandlerResult:
    planes = sp4mod.enumerate_isotropic_planes(args.p)
    expected = sp4mod.gamma0_index(args.p)
    results: Dict[str, object] = {"p": args.p, "count": len(planes)}
    if not args.count_only:
        results["planes"] = [_matrix_doc(pl.basis) for pl in planes]
    checks = [
        _check("plane_count_matches_index", len(planes) == expected,
               f"{len(planes)} planes, (p^4-1)/(p-1) = {expected}"),
    ]
    return ({"p": args.p, "count_only": bool(args.count_only)}, results, checks)


def _cmd_sp4_cosets(args) -> HandlerResult:
    cs = sp4mod.coset_representatives(args.p)
    results: Dict[str, object] = {
        "p": args.p,
        "count": len(cs.members),
        "members": [_matrix_doc(m.rows) for m in cs.members],
    }
    checks: List[Check] = []
    if args.verify:
        rep = sp4mod.verify_coset_set(cs)
        checks = [
            _check("count_matches_index", rep.count == rep.expected,
                   f"{rep.count} members, index {rep.expected}"),
            _check("all_members_symplectic", rep.all_symplectic, "M J M^T = J for every member"),
            _check("pairwise_inequivalent", rep.pairwise_inequivalent,
                   "no M_i M_j^-1 lands in the level-p subgroup"
                   if rep.offending_pair is None
                   else f"offending pair {rep.offending_pair}"),
        ]
    return ({"p": args.p, "verify": bool(args.verify)}, results, checks)


# ---------------------------------------------------------------------------
# siegel
# ---------------------------------------------------------------------------


def _cmd_siegel_act(args) -> HandlerResult:
    rows = _matrix_rows(_load_json(args.matrix))
    m = sp4mod.SymplecticMatrix(rows)
    tau = _load_tau(args.tau, args.prec)
    image = siegelmod.symplectic_act(m, tau)
    inputs = {"matrix": args.matrix, "tau": args.tau}
    results = {"tau": image.to_json()}
    checks = [_check("image_in_half_space", siegelmod.is_in_H2(image),
                     "symmetric with positive definite imaginary part")]
    return (inputs, results, checks)


def _cmd_siegel_check(args) -> HandlerResult:
    tau = _load_tau(args.tau, args.prec)
    rng = random.Random(args.seed)
    rep = siegelmod.riemann_form_check(tau, rng)
    checks = [_check(c.name, c.passed, c.detail) for c in rep.checks]
    return ({"tau": args.tau, "seed": args.seed}, {"prec": rep.prec}, checks)


# ---------------------------------------------------------------------------
# qexp
# ---------------------------------------------------------------------------


def _maybe_save_series(series: qseries.FourierSeries, path: Optional[str]) -> None:
    if path:
        qseries.save_series(series, path)


def _cmd_qexp_mul(args) -> HandlerResult:
    a = qseries.load_series(args.a)
    b = qseries.load_series(args.b)
    out = qseries.series_mul(a, b)
    _maybe_save_series(out, args.save)
    checks = [_check("product_cone_supported", qseries.koecher_check(out.terms),
                     "all product indices positive semidefinite")]
    return ({"a": args.a, "b": args.b}, {"series": _series_doc(out)}, checks)


def _cmd_qexp_invert(args) -> HandlerResult:
    a = qseries.load_series(args.a)
    inv = qseries.series_invert(a)
    prod = qseries.series_mul(a, inv)
    ok = prod.constant_term == 1 and all(
        c == 0 for idx, c in prod.terms.items() if idx != (0, 0, 0))
    _maybe_save_series(inv, args.save)
    checks = [_check("inverse_verified", ok, "s * s^-1 = 1 to the truncation order")]
    return ({"a": args.a}, {"series": _series_doc(inv)}, checks)


def _cmd_qexp_quotient(args) -> HandlerResult:
    num = qseries.load_series(args.num)
    cusp = qseries.load_series(args.cusp)
    out = qseries.laurent_quotient(num, cusp, args.power)
    _maybe_save_series(out, args.save)
    checks = [_check("quotient_cone_supported", qseries.koecher_check(out.terms),
                     f"stored indices cone-valid at shift {out.shift}")]
    return ({"num": args.num, "cusp": args.cusp, "power": args.power},
            {"series": _series_doc(out)}, checks)


def _cmd_qexp_check(args) -> HandlerResult:
    a = qseries.load_series(args.a)
    results = {
        "order": a.order,
        "shift": a.shift,
        "term_count": len(a),
        "constant_term": format_rational(a.constant_term),
        "is_unit": a.is_unit,
        "is_cusp_normalized": qseries.is_cusp_normalized(a),
    }
    checks = [_check("cone_supported", qseries.koecher_check(a.terms),
                     "every stored index is positive semidefinite")]
    return ({"a": args.a}, results, checks)


def _cmd_qexp_fit(args) -> HandlerResult:
    doc = _load_json(args.system)
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise ValueError('fit system JSON must be an object with a "rows" list')
    rows = [_rational_list(row, "each fit row") for row in doc["rows"]]
    rhs = None
    if doc.get("rhs") is not None:
        rhs = _rational_list(doc["rhs"], '"rhs"')
    solution = qseries.fit_coefficients(rows, rhs)
    results = {
        "mode": "affine" if rhs is not None else "homogeneous",
        "solution": None if solution is None else [format_rational(x) for x in solution],
    }
    return ({"system": args.system}, results, [])


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _cmd_curve_validate(args) -> HandlerResult:
    curve = g2curve.load_curve(args.infile)
    results = {"f": g2curve.curve_to_json(curve)["f"], "exact": True}
    checks = [_check("monic_separable_sextic", True,
                     "degree 6, leading coefficient 1, no repeated roots")]
    return ({"in": args.infile}, results, checks)


def _cmd_curve_invariants(args) -> HandlerResult:
    curve = g2curve.load_curve(args.infile)
    results = {
        "exact": True,
        "igusa_clebsch": _triple_doc(g2curve.igusa_clebsch(curve), args.prec),
        "absolute": _triple_doc(g2curve.absolute_igusa(curve), args.prec),
    }
    return ({"in": args.infile}, results, [])


def _cmd_curve_transform(args) -> HandlerResult:
    curve = g2curve.load_curve(args.infile)
    rows = _matrix_rows(_load_json(args.matrix), size=2)
    moved = g2curve.transform_model(curve, rows)
    same = g2curve.absolute_igusa(curve) == g2curve.absolute_igusa(moved)
    doc = g2curve.curve_to_json(moved)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    results = {"f": doc["f"], "exact": True}
    checks = [_check("absolute_invariants_preserved", same,
                     "exact equality of absolute invariants")]
    return ({"in": args.infile, "matrix": args.matrix}, results, checks)


# ---------------------------------------------------------------------------
# richelot
# ---------------------------------------------------------------------------


def _cmd_richelot_all(args) -> HandlerResult:
    curve = g2curve.load_curve(args.infile)
    prec = args.prec
    pairs = richelotmod.all_isogenous_invariants(curve, prec)
    steps = []
    for k, (step, invariants) in enumerate(pairs):
        steps.append({
            "index": k,
            "triple": [[complex_to_pair(c, prec) for c in q] for q in step.triple.quads],
            "delta": complex_to_pair(step.delta, prec),
            "split": step.is_split,
            "invariants": None if step.is_split else _triple_doc(invariants, prec),
        })
    checks = [_check("fifteen_factorizations", len(pairs) == 15,
                     f"{len(pairs)} quadratic factorizations")]
    return ({"in": args.infile}, {"steps": steps}, checks)


# ---------------------------------------------------------------------------
# modpoly
# ---------------------------------------------------------------------------


def _cmd_modpoly_eval2(args) -> HandlerResult:
    curve = g2curve.load_curve(args.infile)
    built = modpolymod.evaluated_P2(
        curve, args.prec,
        reconstruct=args.reconstruct,
        denom_bound=args.denom_bound,
        prec_cap=args.prec_cap,
    )
    with mp.workprec(built.prec + WORK_GUARD):
        monic = negligible(built.p2.coeffs[-1] - 1, built.prec)
    results = {
        "prec": built.prec,
        "source": _triple_doc(built.source, built.prec),
        "p2": _poly_doc(built.p2, built.prec),
        "rational_p2": None if built.rational_p2 is None
        else [format_rational(c) for c in built.rational_p2],
    }
    checks = [
        _check("degree_15_monic", built.p2.degree == 15 and monic,
               f"degree {built.p2.degree}"),
    ]
    if args.reconstruct:
        checks.append(_check(
            "coefficients_reconstructed", built.rational_p2 is not None,
            "all 16 coefficients rational within the denominator bound"
            if built.rational_p2 is not None
            else f"reconstruction failed up to precision cap {args.prec_cap}"))
    inputs = {
        "in": args.infile,
        "reconstruct": bool(args.reconstruct),
        "denom_bound": str(args.denom_bound),
        "prec_cap": args.prec_cap,
    }
    return (inputs, results, checks)


def _cmd_modpoly_ftilde(args) -> HandlerResult:
    curve = g2curve.load_curve(args.infile)
    poly = modpolymod.evaluated_Ftilde(curve, args.k, args.prec)
    checks = [_check("degree_at_most_14", poly.degree <= 14, f"degree {poly.degree}")]
    return ({"in": args.infile, "k": args.k},
            {"ftilde": _poly_doc(poly, args.prec)}, checks)


def _cmd_modpoly_l2(args) -> HandlerResult:
    if args.infile:
        triple = g2curve.absolute_igusa(g2curve.load_curve(args.infile))
        inputs: Dict[str, object] = {"in": args.infile}
        value = modpolymod.l2_evaluate(triple)
    else:
        if args.j1 is None or args.j2 is None or args.j3 is None:
            raise ValueError("provide either --in or all of --j1 --j2 --j3")
        point = (parse_rational(args.j1), parse_rational(args.j2), parse_rational(args.j3))
        inputs = {"j1": args.j1, "j2": args.j2, "j3": args.j3}
        value = modpolymod.l2_evaluate(point)
    return (inputs, {"value": format_rational(value), "split_locus_member": value == 0}, [])


def _cmd_modpoly_degprof(args) -> HandlerResult:
    doc = _load_json(args.spec)
    if not isinstance(doc, dict) or "num" not in doc or "den" not in doc:
        raise ValueError('degree profile spec needs "num" and "den" coefficient lists')
    num = _rational_list(doc["num"], '"num"')
    den = _rational_list(doc["den"], '"den"')
    if not den or all(c == 0 for c in den):
        raise ValueError("denominator must be nonzero")

    def evaluator(x: Fraction) -> Fraction:
        return horner(num, x) / horner(den, x)

    need = 2 * (args.mmax + args.nmax + 2)
    samples: List[Fraction] = []
    t = 0
    while len(samples) < need:
        x = Fraction(2 * t + 3, 7)
        t += 1
        if horner(den, x) != 0:
            samples.append(x)
    profile = modpolymod.degree_profile(evaluator, args.mmax, args.nmax, samples)
    results = {
        "m": None if profile is None else profile[0],
        "n": None if profile is None else profile[1],
    }
    checks = [_check("profile_detected", profile is not None,
                     "no profile within the bounds" if profile is None
                     else f"degrees ({profile[0]}, {profile[1]})")]
    return ({"spec": args.spec, "mmax": args.mmax, "nmax": args.nmax}, results, checks)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify_all(args) -> HandlerResult:
    rng = random.Random(args.seed)
    prec = args.prec
    tol = tolerance(prec)
    checks: List[Check] = []

    counts = {p: len(sp4mod.enumerate_isotropic_planes(p)) for p in (2, 3, 5)}
    checks.append(_check(
        "isotropic_plane_counts", all(counts[p] == sp4mod.gamma0_index(p) for p in counts),
        f"p=2,3,5 -> {counts[2]}, {counts[3]}, {counts[5]}"))

    coset_ok = all(sp4mod.verify_coset_set(sp4mod.coset_representatives(p)).ok for p in (2, 3))
    checks.append(_check("coset_transversals_certified", coset_ok, "p = 2 and 3"))

    bridge_ok = True
    for p in (2, 3, 5):
        g = sp4mod.random_gamma0(rng, p)
        b = sp4mod.lemma41_conjugate(g, p)
        tau = siegelmod.random_tau(rng, prec)
        lhs = siegelmod.scale_point(siegelmod.symplectic_act(g, tau), p)
        rhs = siegelmod.symplectic_act(b, siegelmod.scale_point(tau, p))
        if siegelmod.point_distance(lhs, rhs) > tol:
            bridge_ok = False
    checks.append(_check("level_lowering_conjugate", bridge_ok,
                         "p (M tau) = B (p tau) for p = 2, 3, 5"))

    assoc_ok = True
    for _ in range(3):
        m1 = sp4mod.random_symplectic(rng)
        m2 = sp4mod.random_symplectic(rng)
        tau = siegelmod.random_tau(rng, prec)
        lhs = siegelmod.symplectic_act(m1, siegelmod.symplectic_act(m2, tau))
        rhs = siegelmod.symplectic_act(m1 @ m2, tau)
        if siegelmod.point_distance(lhs, rhs) > tol:
            assoc_ok = False
    checks.append(_check("symplectic_action_associative", assoc_ok,
                         "(M N) tau = M (N tau) on samples"))

    curve = g2curve.validate_curve((-2, 3, 1, -1, 0, 2, 1))
    pairs = richelotmod.all_isogenous_invariants(curve, prec)
    checks.append(_check("fifteen_richelot_steps", len(pairs) == 15,
                         f"{len(pairs)} factorizations"))

    step = richelotmod.richelot_image(richelotmod.enumerate_factorizations(curve, prec)[0])
    back = richelotmod.richelot_image(richelotmod.dual_triple(step))
    work = prec + WORK_GUARD
    src = [to_mpc(v, work) for v in g2curve.absolute_igusa(curve)]
    img = [to_mpc(v, work) for v in g2curve.absolute_igusa(back.image)]
    with mp.workprec(work):
        worst = max(relative_deviation(a, b) for a, b in zip(src, img))
    checks.append(_check("richelot_involution", worst <= tol,
                         "dual step returns the source invariants"))

    inv_ok = True
    for _ in range(5):
        terms = {(0, 0, 0): Fraction(rng.randint(1, 9))}
        for idx in qseries.cone_indices(6):
            if idx != (0, 0, 0) and rng.random() < 0.2:
                terms[idx] = Fraction(rng.randint(-5, 5))
        s = qseries.FourierSeries(terms, 6)
        prod = qseries.series_mul(s, qseries.series_invert(s))
        if prod.constant_term != 1 or any(
                c != 0 for i, c in prod.terms.items() if i != (0, 0, 0)):
            inv_ok = False
    checks.append(_check("series_inversion_identity", inv_ok, "s * s^-1 = 1, five random units"))

    biell = g2curve.validate_curve((4, 0, -5, 0, 2, 0, 1))
    l2_zero = modpolymod.l2_evaluate(g2curve.absolute_igusa(biell)) == 0
    gen = g2curve.validate_curve((-2, 3, 1, -1, 0, 2, 1))
    l2_nonzero = modpolymod.l2_evaluate(g2curve.absolute_igusa(gen)) != 0
    checks.append(_check("split_locus_vanishing", l2_zero and l2_nonzero,
                         "exactly zero on a bielliptic curve, nonzero on a generic one"))

    profile = modpolymod.degree_profile(
        lambda x: (x**3 + 1) / (x**2 + 2), 5, 5,
        [Fraction(k, 7) for k in range(2, 30)])
    checks.append(_check("degree_profile_recovery", profile == (3, 2),
                         f"detected {profile}"))

    return ({"seed": args.seed}, {"check_count": len(checks)}, checks)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=int, default=DEFAULT_PREC,
                        help=f"working precision in bits (default {DEFAULT_PREC})")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification")
    common.add_argument("--out", default=None,
                        help="write the JSON report to this path instead of stdout")
    common.add_argument("--timings", action="store_true",
                        help="record measured elapsed milliseconds (off: elapsed stays 0)")

    parser = argparse.ArgumentParser(
        prog="g2mp",
        description="Genus-2 modular polynomial toolkit: exact symplectic, curve, "
                    "isogeny, and q-expansion computations with JSON reports.")
    groups = parser.add_subparsers(dest="group", required=True)

    g_sp4 = groups.add_parser("sp4", help="symplectic matrices and level structure")
    sp4_cmds = g_sp4.add_subparsers(dest="command", required=True)
    c = sp4_cmds.add_parser("index", parents=[common], help="index of the level-p subgroup")
    c.add_argument("--p", type=int, required=True)
    c.set_defaults(handler=_cmd_sp4_index)
    c = sp4_cmds.add_parser("planes", parents=[common], help="enumerate isotropic planes of F_p^4")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--count-only", action="store_true")
    c.set_defaults(handler=_cmd_sp4_planes)
    c = sp4_cmds.add_parser("cosets", parents=[common], help="coset transversal, optionally certified")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--verify", action="store_true")
    c.set_defaults(handler=_cmd_sp4_cosets)

    g_siegel = groups.add_parser("siegel", help="the Siegel half space H2")
    siegel_cmds = g_siegel.add_subparsers(dest="command", required=True)
    c = siegel_cmds.add_parser("act", parents=[common], help="apply a symplectic matrix to a point")
    c.add_argument("--matrix", required=True, help="JSON file with a 4x4 integer matrix")
    c.add_argument("--tau", required=True, help="JSON file with tau1/tau2/tau3 pairs")
    c.set_defaults(handler=_cmd_siegel_act)
    c = siegel_cmds.add_parser("check", parents=[common], help="Riemann form certificate for a point")
    c.add_argument("--tau", required=True)
    c.set_defaults(handler=_cmd_siegel_check)

    g_qexp = groups.add_parser("qexp", help="truncated Fourier expansions")
    qexp_cmds = g_qexp.add_subparsers(dest="command", required=True)
    c = qexp_cmds.add_parser("mul", parents=[common], help="multiply two series files")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--save", default=None, help="also write the product as a series file")
    c.set_defaults(handler=_cmd_qexp_mul)
    c = qexp_cmds.add_parser("invert", parents=[common], help="invert a unit series")
    c.add_argument("--a", required=True)
    c.add_argument("--save", default=None)
    c.set_defaults(handler=_cmd_qexp_invert)
    c = qexp_cmds.add_parser("quotient", parents=[common], help="divide by a normalized cusp series")
    c.add_argument("--num", required=True)
    c.add_argument("--cusp", required=True)
    c.add_argument("--power", type=int, default=1)
    c.add_argument("--save", default=None)
    c.set_defaults(handler=_cmd_qexp_quotient)
    c = qexp_cmds.add_parser("check", parents=[common], help="structural report on a series file")
    c.add_argument("--a", required=True)
    c.set_defaults(handler=_cmd_qexp_check)
    c = qexp_cmds.add_parser("fit", parents=[common], help="exact linear coefficient identification")
    c.add_argument("--system", required=True, help='JSON file {"rows": [...], "rhs": [...]?}')
    c.set_defaults(handler=_cmd_qexp_fit)

    g_curve = groups.add_parser("curve", help="genus-2 curves y^2 = f(x)")
    curve_cmds = g_curve.add_subparsers(dest="command", required=True)
    c = curve_cmds.add_parser("validate", parents=[common], help="check monicity and separability")
    c.add_argument("--in", dest="infile", required=True)
    c.set_defaults(handler=_cmd_curve_validate)
    c = curve_cmds.add_parser("invariants", parents=[common], help="Igusa-Clebsch and absolute invariants")
    c.add_argument("--in", dest="infile", required=True)
    c.set_defaults(handler=_cmd_curve_invariants)
    c = curve_cmds.add_parser("transform", parents=[common], help="Moebius change of model")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--matrix", required=True, help="JSON file with a 2x2 integer matrix")
    c.add_argument("--save", default=None, help="write the transformed curve JSON here")
    c.set_defaults(handler=_cmd_curve_transform)

    g_rich = groups.add_parser("richelot", help="(2,2)-isogeny steps")
    rich_cmds = g_rich.add_subparsers(dest="command", required=True)
    c = rich_cmds.add_parser("all", parents=[common], help="all 15 factorizations and images")
    c.add_argument("--in", dest="infile", required=True)
    c.set_defaults(handler=_cmd_richelot_all)

    g_mod = groups.add_parser("modpoly", help="evaluated modular relations")
    mod_cmds = g_mod.add_subparsers(dest="command", required=True)
    c = mod_cmds.add_parser("eval2", parents=[common], help="evaluated degree-15 polynomial")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--reconstruct", action="store_true")
    c.add_argument("--denom-bound", type=int, default=modpolymod.DEFAULT_DENOM_BOUND)
    c.add_argument("--prec-cap", type=int, default=modpolymod.DEFAULT_PREC_CAP)
    c.set_defaults(handler=_cmd_modpoly_eval2)
    c = mod_cmds.add_parser("ftilde", parents=[common], help="interpolation companion")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--k", type=int, choices=(2, 3), required=True)
    c.set_defaults(handler=_cmd_modpoly_ftilde)
    c = mod_cmds.add_parser("l2", parents=[common], help="split-locus polynomial value")
    c.add_argument("--in", dest="infile", default=None)
    c.add_argument("--j1", default=None)
    c.add_argument("--j2", default=None)
    c.add_argument("--j3", default=None)
    c.set_defaults(handler=_cmd_modpoly_l2)
    c = mod_cmds.add_parser("degprof", parents=[common], help="degree profile of a rational function")
    c.add_argument("--spec", required=True, help='JSON file {"num": [...], "den": [...]}')
    c.add_argument("--mmax", type=int, required=True)
    c.add_argument("--nmax", type=int, required=True)
    c.set_defaults(handler=_cmd_modpoly_degprof)

    g_verify = groups.add_parser("verify", help="cross-module verification battery")
    verify_cmds = g_verify.add_subparsers(dest="command", required=True)
    c = verify_cmds.add_parser("all", parents=[common], help="run every quick certificate")
    c.set_defaults(handler=_cmd_verify_all)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; print the JSON report; return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    start = time.monotonic()
    try:
        inputs, results, checks = args.handler(args)
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    elapsed = int((time.monotonic() - start) * 1000) if args.timings else 0
    report = {
        "command": f"{args.group} {args.command}",
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "precision": args.prec,
        "elapsed": elapsed,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if all(c["pass"] for c in checks) else 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
