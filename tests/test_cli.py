"""End-to-end tests for the ``g2mp`` command line front end.

Everything runs in-process through ``dispatch`` (fast, captures stdout via
capsys); one test execs the installed console script to cover the entry
point wiring.  The contract under test:

* one JSON report per run with keys in the order
  command, inputs, results, checks, precision, elapsed;
* byte-identical reports for identical argv and input files;
* exit status 0 (all checks pass), 1 (a check failed), 2 (usage),
  3 (bad input file / domain-invalid input), 4 (precision failure).
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import g2modpoly
from g2modpoly import cli, g2curve, modpoly
from g2modpoly.cli import dispatch

GENERIC = ["-2", "3", "1", "-1", "0", "2", "1"]
BIELLIPTIC = ["-36", "0", "49", "0", "-14", "0", "1"]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


@pytest.fixture
def generic_curve_file(tmp_path):
    return _write_json(tmp_path / "generic.json", {"f": GENERIC})


@pytest.fixture
def bielliptic_curve_file(tmp_path):
    return _write_json(tmp_path / "bielliptic.json", {"f": BIELLIPTIC})


@pytest.fixture
def clustered_curve_file(tmp_path):
    # x (x - 2^-200) (x-1) (x-2) (x-3) (x-4): separable, but two roots are
    # far closer than the working tolerance at 300 bits
    poly = [F(1)]
    for r in (F(0), F(1, 2**200), F(1), F(2), F(3), F(4)):
        poly = [F(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    return _write_json(tmp_path / "clustered.json", {"f": [str(c) for c in poly]})


def _run(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(argv, capsys):
    code, out, err = _run(argv, capsys)
    return code, json.loads(out) if out else None, err


# ---------------------------------------------------------------------------
# report shape and determinism
# ---------------------------------------------------------------------------


def test_report_key_order_and_default_elapsed(capsys):
    code, out, _ = _run(["sp4", "index", "--p", "3"], capsys)
    assert code == 0
    pairs = json.loads(out, object_pairs_hook=list)
    assert [k for k, _ in pairs] == [
        "command", "inputs", "results", "checks", "precision", "elapsed",
    ]
    doc = dict(pairs)
    assert doc["command"] == "sp4 index"
    assert doc["precision"] == 300
    assert doc["elapsed"] == 0


def test_reports_are_byte_identical_across_runs(generic_curve_file, capsys):
    argv = ["modpoly", "eval2", "--in", generic_curve_file, "--prec", "300"]
    _, first, _ = _run(argv, capsys)
    _, second, _ = _run(argv, capsys)
    assert first == second
    assert len(first) > 1000  # the report carries the full evaluated polynomial


# sha256 of json.dumps({"results": ..., "checks": ...}); CURVE stands for
# the generic curve file and MATRIX for [[1, 2], [1, 3]] (inputs are left
# out: they carry the temporary file paths)
PINNED_REPORT_SHA256 = {
    ("modpoly", "eval2", "--in", "CURVE"):
        "f9a2f1d08cc76b6ab60754bf35834f5f8850f0a862a67a3f8c413b37749abbca",
    ("modpoly", "ftilde", "--in", "CURVE", "--k", "2"):
        "4947adc7ac5eb842937e75e42d5740a3114484922b90b2eb171fa7398dc8da2e",
    ("richelot", "all", "--in", "CURVE"):
        "5e163fcc95b96a0a9ded607aacf1c7680a6f4ecc9ffa9ec4b42d0394f1144b06",
    ("curve", "transform", "--in", "CURVE", "--matrix", "MATRIX"):
        "31353d367c16050ae740cc6ea2f886aaf4605cad25b50e2c2cccd12567ebe2da",
    ("curve", "validate", "--in", "CURVE"):
        "6f5891a83f346716ea34e5ad92aa9794ca28ed08a0349ddf41f65e8bb6ec4a1f",
    ("curve", "invariants", "--in", "CURVE"):
        "399d75a61b332245457accacf8a1108369497b6e49f638c20eb5e4180757ded2",
    ("modpoly", "l2", "--in", "CURVE"):
        "d733b1d4447fba9a50e78de6e065eaed6ac54b195574b0ccf1e9d10f3cb78370",
    ("modpoly", "l2", "--j1", "1/3", "--j2", "-2", "--j3", "5"):
        "5f2a1b40b65d66e2e41dcf0bd30fc9848a62aba5c86d07003dfbdb3bf62a713a",
}


def test_reports_match_pinned_digests(tmp_path, generic_curve_file, capsys):
    files = {"CURVE": generic_curve_file,
             "MATRIX": _write_json(tmp_path / "m.json", [[1, 2], [1, 3]])}
    for cmd, expected in PINNED_REPORT_SHA256.items():
        argv = [files.get(arg, arg) for arg in cmd]
        code, doc, _ = _report(argv, capsys)
        assert code == 0
        body = json.dumps({"results": doc["results"], "checks": doc["checks"]})
        assert hashlib.sha256(body.encode()).hexdigest() == expected, cmd


# the same digest of `modpoly eval2` at the default precision for the first
# three seed-601 benchmark curves (perfbench/workloads.py draws them)
PINNED_EVAL2_SHA256 = {
    ("-2", "2", "1", "1", "2", "-3", "1"): "2523b28e00f20f3160be9430b3c93f08cdc9f526adaa5c9a9e3d3c8840ce166f",
    ("-3", "0", "2", "0", "0", "-3", "1"): "6b410cf08f73be6a5a82c95942f50394b45a341eb584ac2a8fe2263c3aab02ca",
    ("3", "-3", "3", "-1", "0", "2", "1"): "845b31792730a1660f015de1c9177eda2c6a78171c6d7724d0ba121ab261384d",
}


def test_eval2_reports_of_seeded_curves_match_pinned_digests(tmp_path, capsys):
    for i, (f, expected) in enumerate(PINNED_EVAL2_SHA256.items()):
        path = _write_json(tmp_path / f"c{i}.json", {"f": list(f)})
        code, doc, _ = _report(["modpoly", "eval2", "--in", path], capsys)
        assert code == 0
        body = json.dumps({"results": doc["results"], "checks": doc["checks"]})
        assert hashlib.sha256(body.encode()).hexdigest() == expected, f


def test_seeded_commands_are_deterministic(tmp_path, capsys):
    tau = _write_json(tmp_path / "tau.json", {
        "tau1": ["0", "1"], "tau2": ["1/10", "1/20"], "tau3": ["0", "2"],
    })
    argv = ["siegel", "check", "--tau", tau, "--seed", "7"]
    code, first, _ = _run(argv, capsys)
    _, second, _ = _run(argv, capsys)
    assert code == 0
    assert first == second


def test_out_flag_writes_the_report_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = _run(
        ["sp4", "index", "--p", "3", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert str(target) in err
    doc = json.loads(target.read_text())
    assert doc["results"]["index"] == 40


def test_timings_flag_keeps_schema(capsys):
    code, doc, _ = _report(["sp4", "index", "--p", "2", "--timings"], capsys)
    assert code == 0
    assert isinstance(doc["elapsed"], int)
    assert doc["elapsed"] >= 0


def test_the_parser_built_once_reports_as_a_fresh_one(generic_curve_file, monkeypatch, capsys):
    # dispatch reuses one parser; options set by one call must not reach the next
    assert cli._build_parser() is cli._build_parser()
    sequence = [
        ["curve", "invariants", "--in", generic_curve_file, "--prec", "600"],
        ["curve", "invariants", "--in", generic_curve_file, "--timings"],
        ["curve", "invariants", "--in", generic_curve_file],
        ["curve", "invariants"],     # --in is required
        ["curve", "validate", "--in", generic_curve_file],
    ]

    def outcomes():
        runs = []
        for argv in sequence:
            code, out, err = _run(argv, capsys)
            doc = json.loads(out) if out else None
            if "--timings" in argv:
                assert isinstance(doc.pop("elapsed"), int)
            runs.append((code, doc, err))
        return runs

    cached = outcomes()
    assert [code for code, _, _ in cached] == [0, 0, 0, 2, 0]
    assert [cached[i][1]["precision"] for i in (0, 1, 2)] == [600, 300, 300]
    assert cached[2][1]["elapsed"] == 0
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes() == cached


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_zero_when_every_check_passes(capsys):
    code, doc, _ = _report(["sp4", "planes", "--p", "3", "--count-only"], capsys)
    assert code == 0
    assert doc["results"]["count"] == 40
    assert all(c["pass"] for c in doc["checks"])


def test_exit_one_when_a_check_fails(generic_curve_file, capsys):
    # a 2^16 denominator bound cannot hold the true coefficients, so the
    # reconstruction check must fail (and be reported, not raised)
    code, doc, _ = _report([
        "modpoly", "eval2", "--in", generic_curve_file,
        "--reconstruct", "--denom-bound", str(2**16), "--prec-cap", "600",
    ], capsys)
    assert code == 1
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["degree_15_monic"]["pass"]
    assert not by_name["coefficients_reconstructed"]["pass"]
    assert doc["results"]["rational_p2"] is None


def test_exit_two_for_usage_errors(capsys):
    assert dispatch(["no-such-group"]) == 2
    capsys.readouterr()
    assert dispatch(["sp4", "index"]) == 2  # --p is required
    capsys.readouterr()
    assert dispatch([]) == 2
    capsys.readouterr()


def test_exit_three_for_a_missing_input_file(tmp_path, capsys):
    code, out, err = _run(
        ["curve", "invariants", "--in", str(tmp_path / "absent.json")], capsys)
    assert code == 3
    assert out == ""
    assert "invalid input" in err


def test_exit_three_for_domain_invalid_inputs(tmp_path, bielliptic_curve_file,
                                              generic_curve_file, monkeypatch, capsys):
    nonmonic = _write_json(tmp_path / "nonmonic.json",
                           {"f": ["1", "0", "0", "0", "0", "0", "2"]})
    code, out, err = _run(["curve", "validate", "--in", nonmonic], capsys)
    assert code == 3
    assert "invalid input" in err

    # a split curve is outside the domain of the evaluated polynomial
    code, out, err = _run(
        ["modpoly", "eval2", "--in", bielliptic_curve_file], capsys)
    assert code == 3
    assert "split" in err.lower()

    # a denominator bound below 1 is refused before any rung is built
    def no_build(*args):
        raise AssertionError("a rung was built")

    monkeypatch.setattr(modpoly, "_build", no_build)
    for bound in ("0", "-5"):
        code, out, err = _run(["modpoly", "eval2", "--in", generic_curve_file,
                               "--reconstruct", "--denom-bound", bound], capsys)
        assert code == 3
        assert out == ""
        assert "denominator bound must be at least 1" in err


@pytest.mark.parametrize("argv, doc", [
    (["curve", "validate", "--in"], {"f": 5}),
    (["curve", "transform", "--in", "CURVE", "--matrix"], 5),
    (["qexp", "fit", "--system"], {"rows": 5}),
    (["modpoly", "degprof", "--mmax", "1", "--nmax", "1", "--spec"], {"num": 5, "den": [1]}),
    (["siegel", "check", "--tau"], 5),
], ids=["curve", "matrix", "fit", "degprof", "tau"])
def test_exit_three_for_malformed_json_shapes(tmp_path, generic_curve_file, argv, doc, capsys):
    bad = _write_json(tmp_path / "bad.json", doc)
    code, out, err = _run([generic_curve_file if a == "CURVE" else a for a in argv] + [bad], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("invalid input:")


def test_exit_four_for_precision_failures(clustered_curve_file, capsys):
    code, out, err = _run(
        ["richelot", "all", "--in", clustered_curve_file, "--prec", "300"], capsys)
    assert code == 4
    assert out == ""
    assert "precision failure" in err


def test_colliding_image_invariants_are_refused(generic_curve_file, monkeypatch, capsys):
    # image 9 is given image 3's j1: P2 would have a double root
    found = modpoly.all_isogenous_invariants

    def colliding(curve, prec, invariant=None):
        pairs = list(found(curve, prec, invariant))
        pairs[9] = (pairs[9][0], pairs[3][1])
        return tuple(pairs)

    monkeypatch.setattr(modpoly, "all_isogenous_invariants", colliding)
    with pytest.raises(modpoly.CollidingImagesError, match="image invariants 3 and 9 collide"):
        modpoly.evaluated_P2(g2curve.load_curve(generic_curve_file), 300)
    code, out, err = _run(["modpoly", "eval2", "--in", generic_curve_file], capsys)
    assert code == 4
    assert out == ""
    assert "precision failure" in err


# ---------------------------------------------------------------------------
# sp4 group
# ---------------------------------------------------------------------------


def test_sp4_index_values(capsys):
    for p, expected in ((2, 15), (3, 40), (5, 156)):
        code, doc, _ = _report(["sp4", "index", "--p", str(p)], capsys)
        assert code == 0
        assert doc["results"]["index"] == expected


def test_sp4_planes_lists_bases(capsys):
    code, doc, _ = _report(["sp4", "planes", "--p", "2"], capsys)
    assert code == 0
    assert doc["results"]["count"] == 15
    assert len(doc["results"]["planes"]) == 15
    assert all(len(b) == 2 and len(b[0]) == 4 for b in doc["results"]["planes"])


def test_sp4_cosets_verified(capsys):
    code, doc, _ = _report(["sp4", "cosets", "--p", "2", "--verify"], capsys)
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert names == ["count_matches_index", "all_members_symplectic",
                     "pairwise_inequivalent"]
    assert all(c["pass"] for c in doc["checks"])
    assert len(doc["results"]["members"]) == 15


# ---------------------------------------------------------------------------
# siegel group
# ---------------------------------------------------------------------------


def test_siegel_act_reports_image_in_half_space(tmp_path, capsys):
    j = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    matrix = _write_json(tmp_path / "j.json", j)
    tau = _write_json(tmp_path / "tau.json", {
        "tau1": ["0", "1"], "tau2": ["0", "0"], "tau3": ["0", "1"],
    })
    code, doc, _ = _report(["siegel", "act", "--matrix", matrix, "--tau", tau], capsys)
    assert code == 0
    assert doc["checks"][0]["name"] == "image_in_half_space"
    assert doc["checks"][0]["pass"]
    # J sends i * identity to itself
    img = doc["results"]["tau"]
    assert img["tau1"][1].startswith("1.0") or img["tau1"][1] == "1.0"


def test_siegel_check_runs_the_riemann_battery(tmp_path, capsys):
    tau = _write_json(tmp_path / "tau.json", {
        "tau1": ["0", "2"], "tau2": ["1/10", "1/10"], "tau3": ["0", "3"],
    })
    code, doc, _ = _report(["siegel", "check", "--tau", tau], capsys)
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert names[0] == "imaginary_part_positive_definite"
    assert len(names) == 4
    assert all(c["pass"] for c in doc["checks"])


# ---------------------------------------------------------------------------
# qexp group
# ---------------------------------------------------------------------------


def _write_series(path, order, terms):
    lines = [f"order {order}"]
    for (k, l, m), c in terms:
        lines.append(f"{k} {l} {m} {c}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_qexp_mul_invert_and_check(tmp_path, capsys):
    a = _write_series(tmp_path / "a.series", 4,
                      [((0, 0, 0), "1"), ((1, 1, 1), "2")])
    b = _write_series(tmp_path / "b.series", 4,
                      [((0, 0, 0), "1"), ((1, 1, 1), "-2")])
    out = tmp_path / "prod.series"
    code, doc, _ = _report(
        ["qexp", "mul", "--a", a, "--b", b, "--save", str(out)], capsys)
    assert code == 0
    terms = {tuple(t[:3]): t[3] for t in doc["results"]["series"]["terms"]}
    assert terms[(0, 0, 0)] == "1"
    assert terms[(2, 2, 2)] == "-4"
    assert (1, 1, 1) not in terms

    code, doc, _ = _report(["qexp", "invert", "--a", a], capsys)
    assert code == 0
    assert doc["checks"][0]["name"] == "inverse_verified"
    assert doc["checks"][0]["pass"]

    code, doc, _ = _report(["qexp", "check", "--a", str(out)], capsys)
    assert code == 0
    assert doc["results"]["is_unit"] is True
    assert doc["results"]["constant_term"] == "1"
    assert doc["results"]["order"] == 4


def test_qexp_quotient_tracks_the_shift(tmp_path, capsys):
    cusp = _write_series(tmp_path / "cusp.series", 5,
                         [((1, 1, 1), "1"), ((2, 2, 2), "3")])
    num = _write_series(tmp_path / "num.series", 5,
                        [((1, 1, 1), "2")])
    code, doc, _ = _report(
        ["qexp", "quotient", "--num", num, "--cusp", cusp, "--power", "1"], capsys)
    assert code == 0
    assert doc["checks"][0]["pass"]
    assert doc["results"]["series"]["shift"] != 0


def test_qexp_fit_solves_exactly(tmp_path, capsys):
    system = _write_json(tmp_path / "system.json", {
        "rows": [["1", "0"], ["0", "1"], ["1", "1"]],
        "rhs": ["3", "5", "8"],
    })
    code, doc, _ = _report(["qexp", "fit", "--system", system], capsys)
    assert code == 0
    assert doc["results"]["mode"] == "affine"
    assert doc["results"]["solution"] == ["3", "5"]

    homo = _write_json(tmp_path / "homo.json", {"rows": [["1", "2"]]})
    code, doc, _ = _report(["qexp", "fit", "--system", homo], capsys)
    assert code == 0
    assert doc["results"]["mode"] == "homogeneous"
    sol = [F(x) for x in doc["results"]["solution"]]
    assert sol[0] + 2 * sol[1] == 0 and any(sol)


# ---------------------------------------------------------------------------
# curve group
# ---------------------------------------------------------------------------


def test_curve_validate_and_invariants(generic_curve_file, capsys):
    code, doc, _ = _report(["curve", "validate", "--in", generic_curve_file], capsys)
    assert code == 0
    assert doc["results"]["exact"] is True
    assert doc["results"]["f"] == GENERIC

    code, doc, _ = _report(["curve", "invariants", "--in", generic_curve_file], capsys)
    assert code == 0
    assert len(doc["results"]["igusa_clebsch"]) == 4
    assert len(doc["results"]["absolute"]) == 3
    assert all(isinstance(v, str) for v in doc["results"]["absolute"])


def test_curve_transform_preserves_invariants_and_saves(tmp_path, generic_curve_file, capsys):
    matrix = _write_json(tmp_path / "m.json", [[1, 1], [0, 1]])
    saved = tmp_path / "moved.json"
    code, doc, _ = _report([
        "curve", "transform", "--in", generic_curve_file,
        "--matrix", matrix, "--save", str(saved),
    ], capsys)
    assert code == 0
    assert doc["checks"][0]["name"] == "absolute_invariants_preserved"
    assert doc["checks"][0]["pass"]
    # the saved file is itself a valid curve input
    code, doc, _ = _report(["curve", "validate", "--in", str(saved)], capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# richelot group
# ---------------------------------------------------------------------------


def test_richelot_all_reports_fifteen_steps(generic_curve_file, capsys):
    code, doc, _ = _report(
        ["richelot", "all", "--in", generic_curve_file], capsys)
    assert code == 0
    steps = doc["results"]["steps"]
    assert len(steps) == 15
    assert [s["index"] for s in steps] == list(range(15))
    assert all(not s["split"] for s in steps)
    assert all(len(s["invariants"]) == 3 for s in steps)


def test_richelot_all_marks_split_steps(bielliptic_curve_file, capsys):
    code, doc, _ = _report(
        ["richelot", "all", "--in", bielliptic_curve_file], capsys)
    assert code == 0
    split = [s for s in doc["results"]["steps"] if s["split"]]
    assert len(split) == 1
    assert split[0]["invariants"] is None


# ---------------------------------------------------------------------------
# modpoly group
# ---------------------------------------------------------------------------


def test_modpoly_eval2_reports_the_monic_polynomial(generic_curve_file, capsys):
    code, doc, _ = _report(["modpoly", "eval2", "--in", generic_curve_file], capsys)
    assert code == 0
    assert len(doc["results"]["p2"]) == 16
    assert doc["results"]["p2"][-1][0] == "1.0"
    assert doc["results"]["rational_p2"] is None
    assert doc["checks"][0]["name"] == "degree_15_monic"
    assert doc["checks"][0]["pass"]


def test_modpoly_eval2_reconstructs_at_sufficient_precision(generic_curve_file, capsys):
    code, doc, _ = _report([
        "modpoly", "eval2", "--in", generic_curve_file,
        "--prec", "4200", "--reconstruct",
        "--denom-bound", str(2**800), "--prec-cap", "4200",
    ], capsys)
    assert code == 0
    coeffs = doc["results"]["rational_p2"]
    assert coeffs is not None and len(coeffs) == 16
    assert coeffs[-1] == "1"
    assert any("/" in c for c in coeffs)


def test_modpoly_ftilde_degree_check(generic_curve_file, capsys):
    for k in (2, 3):
        code, doc, _ = _report(
            ["modpoly", "ftilde", "--in", generic_curve_file, "--k", str(k)], capsys)
        assert code == 0
        assert doc["checks"][0]["name"] == "degree_at_most_14"
        assert doc["checks"][0]["pass"]
        assert len(doc["results"]["ftilde"]) <= 15


def test_modpoly_l2_at_a_rational_point(capsys):
    code, doc, _ = _report(
        ["modpoly", "l2", "--j1", "0", "--j2", "0", "--j3", "0"], capsys)
    assert code == 0
    assert doc["results"]["value"] == "0"
    assert doc["results"]["split_locus_member"] is True

    code, doc, _ = _report(
        ["modpoly", "l2", "--j1", "1", "--j2", "1", "--j3", "1"], capsys)
    assert code == 0
    assert doc["results"]["value"] == "127484175537"
    assert doc["results"]["split_locus_member"] is False


def test_modpoly_l2_for_curves(generic_curve_file, bielliptic_curve_file, capsys):
    code, doc, _ = _report(["modpoly", "l2", "--in", bielliptic_curve_file], capsys)
    assert code == 0
    assert doc["results"]["split_locus_member"] is True

    code, doc, _ = _report(["modpoly", "l2", "--in", generic_curve_file], capsys)
    assert code == 0
    assert doc["results"]["split_locus_member"] is False


@pytest.mark.xfail(strict=True, reason=(
    "I2 = 0 sends every absolute invariant to 0, where the split-locus "
    "polynomial vanishes; deciding such curves needs its weighted form in "
    "(I2, I4, I6, I10) (ROADMAP item 1)"))
def test_modpoly_l2_of_an_unsplit_curve_with_i2_zero(tmp_path, capsys):
    # y^2 = x^6 + x^5 + 6x + 1 has I2 = 0; none of its 15 Richelot images
    # is split and its evaluated P2 has degree 15
    path = _write_json(tmp_path / "i2_zero.json", {"f": ["1", "6", "0", "0", "0", "1", "1"]})
    code, doc, _ = _report(["modpoly", "l2", "--in", path], capsys)
    assert code == 0
    assert doc["results"]["split_locus_member"] is False


def _long_rational(text):
    """A ``p/q`` or ``p`` literal of any length, read 500 digits at a time
    (``int(str)`` refuses more than 4300 digits)."""
    def digits(t):
        n = 0
        for k in range(0, len(t), 500):
            n = n * 10 ** len(t[k:k + 500]) + int(t[k:k + 500])
        return n
    sign = -1 if text.startswith("-") else 1
    num, _, den = text.lstrip("-").partition("/")
    return sign * F(digits(num), digits(den or "1"))


def _close_pair_coeffs():
    # roots 1/3 and 1/3 + 2^-200 beside 5/2, -2, 3 and -7/3
    poly = [F(1)]
    for r in (F(1, 3), F(1, 3) + F(1, 2**200), F(5, 2), F(-2), F(3), F(-7, 3)):
        poly = [F(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    return [str(c) for c in poly]


@pytest.mark.parametrize("command, coeffs", [
    ("modpoly l2", _close_pair_coeffs()),
    ("modpoly l2", [str(10**300 + 1), "3", "1", "-1", "0", "2", "1"]),
    ("curve invariants", [str(10**1000 + 1), "3", "1", "-1", "0", "2", "1"]),
    ("curve invariants", ["1/" + str(10**1000), "3", "1", "-1", "0", "2", "1"]),
], ids=["l2-close-pair", "l2-1e300", "invariants-1e1000", "invariants-1e-1000"])
def test_exact_values_of_more_than_4300_digits_are_printed(tmp_path, command, coeffs, capsys):
    # these valid curves exited 3 ("invalid input: Exceeds the limit (4300
    # digits) for integer string conversion") before format_rational
    # converted long ints itself
    path = _write_json(tmp_path / "long.json", {"f": coeffs})
    code, doc, _ = _report([*command.split(), "--in", path], capsys)
    assert code == 0
    curve = g2curve.validate_curve(coeffs)
    if command == "modpoly l2":
        want = [modpoly.l2_evaluate(g2curve.absolute_igusa(curve))]
        got = [doc["results"]["value"]]
    else:
        want = [*g2curve.igusa_clebsch(curve), *g2curve.absolute_igusa(curve)]
        got = doc["results"]["igusa_clebsch"] + doc["results"]["absolute"]
    assert max(len(text) for text in got) > 4300
    assert [_long_rational(text) for text in got] == want


@pytest.mark.parametrize("form", ["string", "number"])
def test_input_literals_of_more_than_4300_digits_are_read(tmp_path, form, capsys):
    # both exited 3 before parse_rational and the JSON loaders read long
    # digit strings themselves: the string with "bad rational literal" and
    # all its digits, the JSON number with "Exceeds the limit (4300 digits)"
    literal = "1" + "0" * 4999 + "1"
    path = tmp_path / "long.json"
    rest = ["3", "1", "-1", "0", "2", "1"]
    path.write_text(json.dumps({"f": [literal, *rest]}) if form == "string" else
                    '{"f": [' + ", ".join([literal, *rest]) + "]}\n")
    code, doc, _ = _report(["curve", "validate", "--in", str(path)], capsys)
    assert code == 0
    assert doc["results"]["f"] == [literal, *rest]
    assert _long_rational(doc["results"]["f"][0]) == 10**5000 + 1


@pytest.mark.parametrize("form", ["string", "number"])
def test_matrix_entries_of_more_than_4300_digits_are_read(tmp_path, generic_curve_file, form, capsys):
    # both exited 3 ("Exceeds the limit (4300 digits)") while matrix entries
    # were read by int(str(x)); x -> 10^5000 x / 10^5000 leaves the curve as it is
    big = "1" + "0" * 5000
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[big, "0"], ["0", big]]) if form == "string" else
                    f"[[{big}, 0], [0, {big}]]\n")
    code, doc, _ = _report(["curve", "transform", "--in", generic_curve_file,
                            "--matrix", str(path)], capsys)
    assert code == 0
    assert doc["results"]["f"] == GENERIC
    assert doc["checks"][0]["pass"]


@pytest.mark.parametrize("entry", ["1.5", " 12", "0x10", True, 1.0, None, "1" * 5000 + "x"])
def test_malformed_matrix_entries_exit_three_with_a_short_message(tmp_path, generic_curve_file,
                                                                  entry, capsys):
    matrix = _write_json(tmp_path / "m.json", [[entry, 0], [0, 1]])
    code, out, err = _run(["curve", "transform", "--in", generic_curve_file,
                           "--matrix", matrix], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("invalid input: matrix entry") and len(err) < 200


def test_a_long_malformed_coefficient_exits_three_with_a_short_message(tmp_path, capsys):
    path = _write_json(tmp_path / "bad.json", {"f": ["1" * 5000 + "/x", *GENERIC[1:]]})
    code, out, err = _run(["curve", "validate", "--in", path], capsys)
    assert code == 3
    assert out == ""
    assert "bad rational literal" in err and len(err) < 200


def test_modpoly_l2_requires_a_point_or_a_curve(capsys):
    code, out, err = _run(["modpoly", "l2", "--j1", "1"], capsys)
    assert code == 3
    assert "invalid input" in err


def test_modpoly_degprof_recovers_degrees(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json",
                       {"num": ["1", "0", "1"], "den": ["2", "0", "0", "1"]})
    code, doc, _ = _report(
        ["modpoly", "degprof", "--spec", spec, "--mmax", "4", "--nmax", "4"], capsys)
    assert code == 0
    assert (doc["results"]["m"], doc["results"]["n"]) == (2, 3)
    assert doc["checks"][0]["pass"]


# ---------------------------------------------------------------------------
# verify group and the console script
# ---------------------------------------------------------------------------


def test_verify_all_battery_passes(capsys):
    code, doc, _ = _report(["verify", "all", "--prec", "300"], capsys)
    assert code == 0
    assert doc["results"]["check_count"] == 9
    assert len(doc["checks"]) == 9
    assert all(c["pass"] for c in doc["checks"])


def test_console_script_entry_point():
    exe = shutil.which("g2mp")
    cmd = [exe] if exe else [sys.executable, "-m", "g2modpoly.cli"]
    # the child imports the package under test, also from an uninstalled checkout
    src = os.path.dirname(os.path.dirname(os.path.abspath(g2modpoly.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(cmd + ["sp4", "index", "--p", "2"], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["index"] == 15
