"""Siegel upper half space: membership, group action, level-lowering bridge."""

import random

import pytest
from mpmath import mp, mpc, mpf

from g2modpoly.exactnum import tolerance
from g2modpoly.siegel import (
    SiegelPoint,
    is_in_H2,
    point_distance,
    random_tau,
    riemann_form_check,
    scale_point,
    symplectic_act,
)
from g2modpoly.sp4 import (
    IDENTITY,
    J_MATRIX,
    SymplecticMatrix,
    lemma41_conjugate,
    random_gamma0,
    random_symplectic,
)

PREC = 300


def _point(t1, t2, t3, prec=PREC):
    return SiegelPoint(t1, t2, t3, prec)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_scaled_identity_is_in_the_half_space():
    assert is_in_H2(_point(1j, 0, 1j))


def test_indefinite_imaginary_part_is_rejected():
    assert not is_in_H2(_point(1j, 0, -1j))


def test_small_off_diagonal_keeps_membership():
    assert is_in_H2(_point(1j, 0.1, 2j))


def test_membership_reads_the_off_diagonal_imaginary_part():
    assert is_in_H2(_point(2j, mpc(0.25, 0.125), 3j))
    # Im(tau) = ((1, 2), (2, 1)) has eigenvalues 3 and -1
    assert not is_in_H2(_point(1j, 2j, 1j))


def test_random_points_are_members():
    rng = random.Random(11)
    for _ in range(50):
        assert is_in_H2(random_tau(rng, PREC))


# ---------------------------------------------------------------------------
# the group action
# ---------------------------------------------------------------------------


def test_identity_acts_trivially():
    rng = random.Random(1)
    tau = random_tau(rng, PREC)
    out = symplectic_act(IDENTITY, tau)
    assert point_distance(out, tau) <= tolerance(PREC)


def test_translation_adds_integer_symmetric_block():
    tau = _point(1j, 0, 1j)
    m = SymplecticMatrix(((1, 0, 1, 2), (0, 1, 2, 3), (0, 0, 1, 0), (0, 0, 0, 1)))
    out = symplectic_act(m, tau)
    expected = _point(1 + 1j, 2, 3 + 1j)
    assert point_distance(out, expected) <= tolerance(PREC)


def test_standard_form_acts_as_negative_inverse():
    rng = random.Random(2)
    tau = random_tau(rng, PREC)
    out = symplectic_act(J_MATRIX, tau)
    with mp.workprec(PREC + 64):
        det = tau.tau1 * tau.tau3 - tau.tau2 * tau.tau2
        expected = SiegelPoint(
            -tau.tau3 / det, tau.tau2 / det, -tau.tau1 / det, PREC
        )
    assert point_distance(out, expected) <= tolerance(PREC)


def test_action_preserves_membership():
    rng = random.Random(3)
    for _ in range(20):
        m = random_symplectic(rng)
        tau = random_tau(rng, PREC)
        assert is_in_H2(symplectic_act(m, tau))


def test_action_is_associative_at_128_bits():
    rng = random.Random(4)
    tol = mpf(2) ** -64
    for _ in range(25):
        m = random_symplectic(rng)
        n = random_symplectic(rng)
        tau = random_tau(rng, 128)
        left = symplectic_act(m, symplectic_act(n, tau))
        right = symplectic_act(m @ n, tau)
        assert point_distance(left, right) <= tol


# ---------------------------------------------------------------------------
# level-lowering bridge
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_conjugate_intertwines_scaling(p):
    rng = random.Random(100 + p)
    tol = tolerance(PREC)
    for _ in range(20):
        m = random_gamma0(rng, p)
        b = lemma41_conjugate(m, p)
        tau = random_tau(rng, PREC)
        left = scale_point(symplectic_act(m, tau), p)
        right = symplectic_act(b, scale_point(tau, p))
        assert point_distance(left, right) <= tol * p


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------


def test_scale_point_multiplies_entries():
    tau = _point(1j, mpc(0.5), 2j)
    out = scale_point(tau, 3)
    assert point_distance(out, _point(3j, mpc(1.5), 6j)) <= tolerance(PREC)


def test_point_distance_is_max_norm():
    a = _point(1j, 0, 1j)
    b = _point(1j, mpc(0.25), 1j)
    d = point_distance(a, b)
    assert abs(d - mpf(0.25)) <= tolerance(PREC)


# ---------------------------------------------------------------------------
# Riemann form certificate
# ---------------------------------------------------------------------------


def test_certificate_passes_for_scaled_identity_points():
    for scale in (1, 2):
        report = riemann_form_check(_point(scale * 1j, 0, scale * 1j))
        assert all(c.passed for c in report.checks)
        names = [c.name for c in report.checks]
        assert "imaginary_part_positive_definite" in names
        assert "gram_matrix_is_standard_form" in names


def test_certificate_passes_for_random_points():
    rng = random.Random(21)
    for _ in range(5):
        assert all(c.passed for c in riemann_form_check(random_tau(rng, PREC)).checks)


def test_certificate_reports_precision_failure_for_flat_point():
    tau = SiegelPoint(1j, 0, mpc(0, mpf(10) ** -30), 64)
    report = riemann_form_check(tau)
    assert not all(c.passed for c in report.checks)
    first = report.checks[0]
    assert first.name == "imaginary_part_positive_definite"
    assert not first.passed


def test_certificate_fails_every_check_on_a_nan_entry():
    # a NaN never counts as negligible, so no check passes on NaN data
    report = riemann_form_check(_point(2j, mpc(mpf("0.1"), mpf("nan")), 3j))
    assert not any(c.passed for c in report.checks)
