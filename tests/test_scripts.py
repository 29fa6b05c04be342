"""Smoke tests: the pipeline scripts under ``scripts/`` run end to end.

Each script is loaded from its file and its ``main`` called with small
settings, so a change to a library signature the scripts use shows here.
"""

import importlib.util
from pathlib import Path

from g2modpoly.igusa_data import I2_TERMS, I4_TERMS, I6_TERMS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name):
    return _load(name).main


def test_eval_p2_demo_runs(capsys):
    assert _main("eval_p2_demo")(["--prec", "200"]) == 0
    assert "companion identity certified: True" in capsys.readouterr().out


def test_p2_height_survey_runs(capsys):
    argv = ["--curves", "1", "--denom-bits", "300", "--prec", "1000", "--prec-cap", "2000"]
    assert _main("p2_height_survey")(argv) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(rows) == 1


def test_report_digests_runs(capsys):
    assert _main("report_digests")(["--curves", "2", "--recon", "0"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    labels = [row.rsplit(": ", 1)[0] for row in rows]
    reports = ["modpoly eval2", "richelot all", "curve invariants",
               "modpoly ftilde --k 2", "modpoly ftilde --k 3",
               "curve validate", "modpoly l2"]
    assert labels == reports + [f"moved {r}" for r in reports] + [
        "evaluated_P2 300 bits", "evaluated_P2 2400 bits", "elimination 300 and 2400 bits",
        "image absolute_igusa 300 and 2400 bits", "richelot steps 300 and 2400 bits",
        "complex_roots 300 bits", "complex_roots 2400 bits",
        "cluster complex_roots 300 bits", "cluster complex_roots 2400 bits",
        "p2_mod_p first 5 usable primes", "reconstruct 2^800 cap 4200", "certifying prime 2^800 cap 4200"]
    assert all(len(row.rsplit(": ", 1)[1]) == 64 for row in rows)


def test_derive_igusa_clebsch_reproduces_the_frozen_tables(capsys):
    # derive and verify only: ``main`` would also rewrite igusa_data.py
    tables = _load("derive_igusa_clebsch").derive_tables()
    assert tables == {"I2": I2_TERMS, "I4": I4_TERMS, "I6": I6_TERMS}
    assert "verification passed" in capsys.readouterr().out
