"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench

They run real (short) benchmark processes, so they take about a minute.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_same_seed_gives_the_same_curves():
    first = [c.coeffs for c in workloads.random_curves(11, 12)]
    again = [c.coeffs for c in workloads.random_curves(11, 12)]
    other = [c.coeffs for c in workloads.random_curves(12, 12)]
    assert first == again
    assert first != other
    assert all(c[6] == 1 and all(-3 <= x <= 3 for x in c) for c in first)


@pytest.mark.parametrize("name,trace", [
    ("eval-cli-300", 0), ("eval-cli-300", 1),
    ("refuse-ladder-256", 0), ("refuse-ladder-256", 1),
    ("recon-ladder-800", 0),
])
def test_tiny_run_emits_every_named_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "0.1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in declared}
    assert {w["name"] for w in _declared()["workloads"]} <= set(workloads.WORKLOADS)


#: curves that ``g2mp modpoly eval2`` rejects at 300 bits (exit 3): one of
#: their Richelot images has |I10| below the library's threshold
REJECTED_AT_300 = [(1, 0, -3, 2, -1, -2, 1), (1, -1, 2, 2, 2, -2, 1),
                   (0, -2, 0, -3, 0, -1, 1), (1, 2, -1, -2, -3, 0, 1),
                   (-2, 2, -1, 1, -2, 0, 1)]


def test_screen_resamples_the_curves_rejected_at_300_bits():
    from g2modpoly import g2curve, richelot

    for f in REJECTED_AT_300:
        assert workloads.image_conditioning_bits(f) < -workloads.EVAL_PREC // 2, f
        with pytest.raises(g2curve.SingularCurveError):
            richelot.all_isogenous_invariants(g2curve.validate_curve(f), 300)
    screened = []
    curves = workloads.random_curves(22, 256, screened)
    assert screened == [REJECTED_AT_300[0]]
    assert REJECTED_AT_300[0] not in [c.coeffs for c in curves]
    first = workloads.random_curves(601, 1)[0]
    assert workloads.image_conditioning_bits(first.coeffs) > -100
    richelot.all_isogenous_invariants(first, 300)


@pytest.mark.xfail(strict=True, reason="known defect: a valid curve with a nearly "
                   "singular Richelot image is rejected as invalid input at 300 bits")
def test_rejected_curve_evaluates_at_300_bits(tmp_path):
    from g2modpoly import g2curve

    path = workloads.write_curves([g2curve.validate_curve(REJECTED_AT_300[0])], tmp_path)[0]
    code, _ = workloads.run_eval_cli(None, path)
    assert code == 0


def test_off_by_one_numerator_counts_as_failed():
    w = workloads.WORKLOADS["recon-ladder-800"]
    seed = workloads.DEFAULT_SEED
    curve, path = workloads.prepare(w.name, seed, os.path.join(
        ROOT, ".perfbench-out", "selftest"))[0]
    ref = workloads.load_reference(w.name, seed)[0]
    built = w.run(curve, path)
    assert ref is not None and built.rational_p2 is not None
    assert w.check(built, ref).error is None
    assert w.check(built, workloads.MISSING).error is None
    for k, r in enumerate(built.rational_p2):
        coeffs = list(built.rational_p2)
        coeffs[k] = Fraction(r.numerator + 1, r.denominator)
        bad = dataclasses.replace(built, rational_p2=tuple(coeffs))
        assert w.check(bad, ref).error is not None, k
    # without a reference the tolerance check alone still sees the constant term
    coeffs = list(built.rational_p2)
    coeffs[0] = Fraction(coeffs[0].numerator + 1, coeffs[0].denominator)
    bad = dataclasses.replace(built, rational_p2=tuple(coeffs))
    assert w.check(bad, workloads.MISSING).error is not None
    # a refusal where the reference reconstructs is a failure too
    refused = dataclasses.replace(built, rational_p2=None)
    assert w.check(refused, ref).error is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "eval-cli-300", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
