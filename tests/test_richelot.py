"""(2,2)-isogeny engine: factorizations, brackets, images, duality."""

import importlib.util
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from g2modpoly.exactnum import (
    WORK_GUARD,
    PrecisionError,
    RoundedComplex,
    horner,
    negligible,
    poly_mul,
    to_mpc,
    tolerance,
)
from g2modpoly import richelot
from g2modpoly.g2curve import Genus2Curve, absolute_igusa
from g2modpoly.richelot import (
    MOVE_SHIFTS,
    QuadraticTriple,
    all_isogenous_invariants,
    bracket,
    complex_roots,
    dual_triple,
    enumerate_factorizations,
    image_sextic,
    moved_model,
    pair_partitions_of_six,
    richelot_delta,
    richelot_image,
)

from oracles import coeffs_from_roots, field_det, spy_mpc_operators

F = Fraction
PREC = 300


def curve(*asc):
    return Genus2Curve(tuple(F(c) for c in asc))


GENERIC = (-2, 3, 1, -1, 0, 2, 1)
SPLIT_WITNESS = (-36, 0, 49, 0, -14, 0, 1)  # (x^2-1)(x^2-4)(x^2-9)


# ---------------------------------------------------------------------------
# pairings and roots
# ---------------------------------------------------------------------------


def test_fifteen_distinct_pairings_cover_all_indices():
    parts = pair_partitions_of_six()
    assert len(parts) == 15
    seen = set()
    for part in parts:
        flat = sorted(i for pair in part for i in pair)
        assert flat == list(range(6))
        canon = frozenset(frozenset(p) for p in part)
        seen.add(canon)
    assert len(seen) == 15


def test_roots_of_x6_minus_1():
    roots = complex_roots(curve(-1, 0, 0, 0, 0, 0, 1), PREC)
    tol = tolerance(PREC)
    with mp.workprec(PREC + 64):
        for r in roots:
            assert abs(r**6 - 1) <= tol * 8
        # sorted lexicographically by (real, imaginary)
        for a, b in zip(roots, roots[1:]):
            assert (a.real, a.imag) <= (b.real, b.imag)


def test_roots_of_split_witness_are_plus_minus_123():
    roots = complex_roots(curve(*SPLIT_WITNESS), PREC)
    tol = tolerance(PREC)
    with mp.workprec(PREC + 64):
        for r, want in zip(roots, (-3, -2, -1, 1, 2, 3)):
            assert abs(r - want) <= tol * 4


def test_clustered_roots_raise_precision_error():
    eps = F(1, 2**200)
    coeffs = coeffs_from_roots((F(0), eps, F(1), F(2), F(3), F(4)))
    c = Genus2Curve(tuple(F(x) for x in coeffs))
    with pytest.raises(PrecisionError):
        complex_roots(c, PREC)


def _polyroots_roots(c, prec):
    """The reference roots: one polyroots call at the working precision,
    sorted as complex_roots sorts; the lifted roots must equal them bit
    for bit."""
    work = prec + WORK_GUARD
    with mp.workprec(work):
        coeffs = [to_mpc(x, work) for x in c.coeffs]
        roots = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=prec // 2 + 60)
        return [mpc(r) for r in sorted(roots, key=lambda z: (z.real, z.imag))]


def _bits(roots):
    return [(r.real._mpf_, r.imag._mpf_) for r in roots]


def _polyroots_spy(monkeypatch):
    """Record the precision of every ``polyroots`` call from now on."""
    seed_bits = []
    polyroots = mp.polyroots

    def recording(*args, **kwargs):
        seed_bits.append(mp.prec)
        return polyroots(*args, **kwargs)

    monkeypatch.setattr(mp, "polyroots", recording)
    return seed_bits


BIT_IDENTITY_CURVES = (
    GENERIC,
    SPLIT_WITNESS,
    (-1, 0, 0, 0, 0, 0, 1),
    (F(-7, 3), F(5, 11), F(2, 9), F(-13, 5), F(3, 7), F(-1, 6), 1),
    (0, 3, -3, 1, 2, 0, 1),  # x (x^2 + 3) (x^3 - x + 1): roots 0 and +-i sqrt(3)
    # rejected at 300 bits by absolute_igusa's I10 test (ROADMAP item 1)
    (1, 0, -3, 2, -1, -2, 1),
    (1, -1, 2, 2, 2, -2, 1),
    (0, -2, 0, -3, 0, -1, 1),
)


@pytest.mark.parametrize("prec", [300, 301, 2400, 4800])
def test_lifted_roots_equal_polyroots_bit_for_bit(prec):
    for coeffs in BIT_IDENTITY_CURVES:
        c = curve(*coeffs)
        assert _bits(complex_roots(c, prec)) == _bits(_polyroots_roots(c, prec)), coeffs


def test_close_roots_are_reseeded_and_match_polyroots(monkeypatch):
    # 2^-80 apart: neither the double seed nor the 100-bit polyroots seed
    # separates the pair at 100 bits, the 200-bit seed can and is lifted
    coeffs = coeffs_from_roots((F(0), F(1, 2**80), F(1), F(2), F(3), F(4)))
    c = Genus2Curve(tuple(F(x) for x in coeffs))
    want = _bits(_polyroots_roots(c, PREC))
    seed_bits = _polyroots_spy(monkeypatch)
    assert _bits(complex_roots(c, PREC)) == want
    assert seed_bits[0] == richelot._SEED_BITS
    assert len(seed_bits) > 1 and seed_bits[-1] < PREC + WORK_GUARD


def test_seed_non_convergence_raises_precision_error(monkeypatch):
    # the double-precision seed is refused too, so that every seed, the
    # full-precision call included, comes from polyroots
    def stuck(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("no convergence")

    monkeypatch.setattr(mp, "polyroots", stuck)
    monkeypatch.setattr(richelot, "_double_seeds", lambda coeffs, deriv: None)
    with pytest.raises(PrecisionError):
        complex_roots(curve(*GENERIC), PREC)


def _ladder_roots(c, prec, monkeypatch):
    """The roots with the double-precision seed refused: the polyroots
    ladder alone, as the roots were found before that seed existed."""
    with monkeypatch.context() as patched:
        patched.setattr(richelot, "_double_seeds", lambda coeffs, deriv: None)
        return _bits(complex_roots(c, prec))


def _pool_curves(count):
    """The first ``count`` curves of the benchmark's seed-601 pool."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads     # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.random_curves(601, count)


@pytest.mark.parametrize("prec", [300, 301, 2400, 4800])
def test_double_seed_gives_the_ladder_roots_bit_for_bit(prec, monkeypatch):
    # every one of these curves takes the double seed: no polyroots call
    curves = [curve(*coeffs) for coeffs in BIT_IDENTITY_CURVES]
    if prec in (300, 2400):
        curves += _pool_curves(60)
    for c in curves:
        want = _ladder_roots(c, prec, monkeypatch)
        with monkeypatch.context() as patched:
            seed_bits = _polyroots_spy(patched)
            assert _bits(complex_roots(c, prec)) == want, c.coeffs
        assert seed_bits == [], c.coeffs


@pytest.mark.parametrize("prec", [300, 2400])
def test_generic_curve_calls_no_polyroots(prec, monkeypatch):
    seed_bits = _polyroots_spy(monkeypatch)
    complex_roots(curve(*GENERIC), prec)
    assert seed_bits == []


def test_coefficient_beyond_double_range_takes_the_polyroots_ladder(monkeypatch):
    # complex(10**400) is inf: the double seed is refused before Aberth runs
    c = curve(-(10**400), 0, 0, 0, 0, 0, 1)
    want = _bits(_polyroots_roots(c, 600))
    seed_bits = _polyroots_spy(monkeypatch)
    assert _bits(complex_roots(c, 600)) == want
    assert seed_bits[0] == richelot._SEED_BITS


@pytest.mark.parametrize("c0, sweeps", [(10**52 + 1, 0), (10**40 + 1, richelot._ABERTH_SWEEPS)],
                         ids=["non-finite-step", "unsettled"])
def test_refused_double_seeds_take_the_polyroots_ladder(c0, sweeps, monkeypatch):
    # with c0 = 10^52 + 1 the first Aberth step is not finite; with 10^40 + 1
    # Aberth has not settled after every sweep. Either way the double seed
    # is refused and the roots are the full polyroots call's
    c = curve(c0, 3, 1, -1, 0, 2, 1)
    work = PREC + WORK_GUARD
    coeffs = [to_mpc(x, work) for x in c.coeffs]
    with mp.workprec(work + WORK_GUARD):
        deriv = [k * z for k, z in enumerate(coeffs)][1:]
    points = []
    with monkeypatch.context() as patched:
        patched.setattr(richelot, "horner", lambda cs, x: points.append(x) or horner(cs, x))
        assert richelot._double_seeds(coeffs, deriv) is None
    # two Horner values per root and sweep: the non-finite step is refused
    # at once, not after every sweep has run on NaN
    assert len(points) == (12 * sweeps if sweeps else 2)
    want = _bits(_polyroots_roots(c, PREC))
    seed_bits = _polyroots_spy(monkeypatch)
    assert _bits(complex_roots(c, PREC)) == want
    assert seed_bits[0] == richelot._SEED_BITS


@pytest.mark.parametrize("bits", [1, 40, 64])
def test_newton_lift_refuses_a_claim_at_the_schedule_fixed_point(bits):
    # p -> p//2 + 32 stops at 64: the claim is refused before the schedule
    # is built; should that guard go, the alarm ends the endless schedule
    # loop within a second instead of hanging the suite
    coeffs = [RoundedComplex.of(F(c), 364) for c in GENERIC]
    deriv = [c * k for k, c in enumerate(coeffs)][1:]

    def endless(signum, frame):
        raise TimeoutError("the Newton-lift schedule did not end")

    previous = signal.signal(signal.SIGALRM, endless)
    signal.alarm(1)
    try:
        with pytest.raises(ValueError):
            richelot._newton_lift(coeffs, deriv, mpc(1), bits, 364)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_newton_lift_refuses_a_seed_it_does_not_bring_to_the_working_precision():
    # a seed 2^-5 off a root, claimed at 100 bits: the check step still
    # moves it by far more than 2^-work
    work = PREC + WORK_GUARD
    coeffs = [RoundedComplex.of(F(c), work) for c in GENERIC]
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    root = complex_roots(curve(*GENERIC), PREC)[0]
    with mp.workprec(work):
        seed = root * (1 + mpf(2) ** -5)
    assert richelot._newton_lift(coeffs, deriv, seed, 100, work) is None


def test_newton_lift_refuses_a_seed_where_the_slope_vanishes():
    # f'(0) = c1 = 0 for the split witness, so the first step has no slope
    work = PREC + WORK_GUARD
    coeffs = [RoundedComplex.of(F(c), work) for c in SPLIT_WITNESS]
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    assert richelot._newton_lift(coeffs, deriv, mpc(0), 100, work) is None


def test_newton_lift_steps_do_no_mpc_arithmetic(monkeypatch):
    # the steps run on RoundedComplex: of mpc's operators only the clean-up's
    # unary plus is left, and the roots are the full polyroots call's
    c = _pool_curves(1)[0]
    want = _bits(_polyroots_roots(c, PREC))
    calls, inside = spy_mpc_operators(monkeypatch), []
    lift = richelot._newton_lift

    def recorded(*args):
        start = len(calls)
        out = lift(*args)
        inside.append(calls[start:])
        return out

    monkeypatch.setattr(richelot, "_newton_lift", recorded)
    assert _bits(complex_roots(c, PREC)) == want
    assert len(inside) == 6
    assert [name for names in inside for name in names if name != "mpc_pos"] == []


@pytest.mark.parametrize("rounded", [False, True], ids=["mpc", "RoundedComplex"])
def test_collision_verdicts_are_the_written_ones(rounded):
    # pairs z, z(1 + t), |t| within five binades of tolerance(PREC), and a
    # zero: the verdicts read from exact differences are negligible's own
    rng = random.Random(7)
    verdicts = set()
    with mp.workprec(PREC + WORK_GUARD):
        for _ in range(400):
            z = mpc(rng.uniform(-4, 4), rng.uniform(-4, 4)) * mpf(2) ** rng.randrange(-8, 9)
            t = mpf(2) ** -(PREC // 2 + rng.randrange(-5, 6)) * rng.choice([1, -1, 1j, (3 + 4j) / 5])
            values = [z, z + z * t, mpc(0)]
            if rounded:
                values = [RoundedComplex.of(v, PREC + WORK_GUARD) for v in values]
            written = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2))
                       if negligible(values[i] - values[j], PREC, (values[i], values[j]))]
            assert richelot._collision(values, PREC) == (written[0] if written else None)
            verdicts.add(bool(written))
    assert verdicts == {True, False}


def test_double_seeds_are_good_to_the_claimed_bits():
    # each seed lies within 2^-100 relative of a certified root
    c = curve(*GENERIC)
    roots = complex_roots(c, PREC)
    with mp.workprec(PREC + WORK_GUARD):
        coeffs = [to_mpc(x, PREC + WORK_GUARD) for x in c.coeffs]
        deriv = [k * x for k, x in enumerate(coeffs)][1:]
        seeds = richelot._double_seeds(coeffs, deriv)
        assert len(seeds) == 6
        for s in seeds:
            assert min(abs(s - r) / abs(r) for r in roots) < mpf(2) ** -richelot._SEED_BITS


def test_factorizations_multiply_back_to_the_model():
    c = curve(*GENERIC)
    triples = enumerate_factorizations(c, PREC)
    assert len(triples) == 15
    tol = tolerance(PREC)
    with mp.workprec(PREC + 64):
        for tri in triples:
            qa, qb, qc = ([mpc(c) for c in q] for q in tri.quads)
            prod = poly_mul(poly_mul(qa, qb), qc)
            assert len(prod) == 7
            for got, want in zip(prod, c.coeffs):
                w = to_mpc(want, PREC + 64)
                assert abs(got - w) <= tol * max(mpf(1), abs(w)) * 64


def test_split_witness_contains_the_rational_factorization():
    triples = enumerate_factorizations(curve(*SPLIT_WITNESS), PREC)
    wanted = {(-1, 0), (-4, 0), (-9, 0)}
    tol = tolerance(PREC)
    hit = 0
    with mp.workprec(PREC + 64):
        for tri in triples:
            got = set()
            for q in ([mpc(c) for c in q] for q in tri.quads):
                entry = None
                for c0, c1 in wanted:
                    if abs(q[0] - c0) <= tol * 16 and abs(q[1] - c1) <= tol * 16:
                        entry = (c0, c1)
                got.add(entry)
            if got == wanted:
                hit += 1
    assert hit == 1


def test_triple_requires_monic_quadratics():
    with pytest.raises(ValueError):
        QuadraticTriple(((0, 0, 2), (0, 0, 1), (0, 0, 1)), PREC)


# ---------------------------------------------------------------------------
# the bracket and delta
# ---------------------------------------------------------------------------


def test_bracket_of_a_quadratic_with_itself_vanishes():
    assert bracket((0, -1, 1), (0, -1, 1)) == (0, 0, 0)


def test_bracket_worked_example():
    assert bracket((0, -1, 1), (6, -5, 1)) == (-6, 12, -4)


def test_bracket_degree_drop_on_even_pair():
    assert bracket((-1, 0, 1), (-4, 0, 1)) == (0, -6, 0)


def test_bracket_is_antisymmetric():
    rng = random.Random(5)
    for _ in range(20):
        a = (F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9)), 1)
        b = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9), rng.randint(1, 9)), 1)
        assert bracket(a, b) == tuple(-x for x in bracket(b, a))


def test_delta_worked_example_is_32():
    assert richelot_delta(((0, -1, 1), (6, -5, 1), (20, -9, 1))) == 32


def test_delta_matches_exact_coefficient_determinant():
    rng = random.Random(6)
    for _ in range(20):
        quads = [(F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9)), F(1))
                 for _ in range(3)]
        assert richelot_delta(quads) == field_det(quads)


def test_delta_vanishes_for_fully_even_triple():
    assert richelot_delta(((-1, 0, 1), (-4, 0, 1), (-9, 0, 1))) == 0


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------


def test_image_is_monic_sextic_vanishing_on_bracket_roots():
    tri = QuadraticTriple(((0, -1, 1), (6, -5, 1), (20, -9, 1)), PREC)
    step = richelot_image(tri)
    assert not step.is_split
    img = [mpc(c) for c in step.image.coeffs]
    assert len(img) == 7
    with mp.workprec(PREC + 64):
        assert abs(img[6] - 1) <= tolerance(PREC)
        # roots of [A,B] = -4x^2 + 12x - 6 lie on the image model
        disc = mp.sqrt(mpf(144) - 96)
        for sign in (1, -1):
            x = (mpf(12) + sign * disc) / 8
            val = mpc(0)
            for c in reversed(img):
                val = val * x + c
            scale = max(mpf(1), abs(x)) ** 6
            assert abs(val) <= tolerance(PREC) * scale * 1024


def test_image_of_fully_even_triple_is_split_marker():
    tri = QuadraticTriple(((-1, 0, 1), (-4, 0, 1), (-9, 0, 1)), PREC)
    step = richelot_image(tri)
    assert step.is_split
    assert step.image is None


def test_degenerate_bracket_falls_back_and_matches_moved_model():
    # roots {0,3}, {1,2}, {5,6}: the first two quadratics share a linear
    # coefficient, so [A,B] drops degree and the image product has degree 5
    tri = QuadraticTriple(((0, -3, 1), (2, -3, 1), (30, -11, 1)), PREC)
    step = richelot_image(tri)
    assert not step.is_split
    assert len(step.image.coeffs) == 7
    got = absolute_igusa(step.image)

    # the same kernel on the model moved by x -> (7x + 1)/(2x + 1); the
    # moved roots r' = (r - 1)/(7 - 2 r) give a non-degenerate triple
    def mv(r):
        return (F(r) - 1) / (7 - 2 * F(r))

    def quad(r, s):
        return (mv(r) * mv(s), -(mv(r) + mv(s)), F(1))

    moved = QuadraticTriple((quad(0, 3), quad(1, 2), quad(5, 6)), PREC)
    want = absolute_igusa(richelot_image(moved).image)
    tol = tolerance(PREC)
    with mp.workprec(PREC + 64):
        for g, w in zip((got.j1, got.j2, got.j3), (want.j1, want.j2, want.j3)):
            assert abs(g - w) <= tol * max(mpf(1), abs(w)) * 2**40


def _mpc_image(triple):
    """delta and the image's coefficients by the ring-generic formulas over mpc
    at the working precision: the reference for ``richelot_image``."""
    p = triple.prec
    quads = [[mpc(c) for c in q] for q in triple.quads]
    with mp.workprec(p + WORK_GUARD):
        delta = richelot_delta(quads)
        if negligible(delta, p, [c for q in quads for c in q], 3):
            return delta, None
        g = image_sextic(quads)
        if negligible(g[6], p, g):
            values = [abs(horner(g, mpc(t))) for t in MOVE_SHIFTS]
            g = moved_model(g, mpc(MOVE_SHIFTS[values.index(max(values))]))
        return delta, [x / g[6] for x in g[:6]] + [mpc(1)]


@pytest.mark.parametrize("prec", [300, 2400])
def test_image_is_bit_identical_to_its_formulas_over_mpc(prec):
    # a generic curve, one with five images that need the model move, and
    # one with split steps
    triples = [t for coeffs in (GENERIC, coeffs_from_roots([F(r) for r in (0, 1, 2, 3, 5, 6)]),
                                SPLIT_WITNESS)
               for t in enumerate_factorizations(curve(*coeffs), prec)]
    for triple in triples:
        step = richelot_image(triple)
        delta, coeffs = _mpc_image(triple)
        assert step.delta._mpc_ == delta._mpc_
        assert (step.image is None) == (coeffs is None)
        if coeffs is not None:
            assert [c._mpc_ for c in step.image.coeffs] == [c._mpc_ for c in coeffs]


def test_dual_triple_rejects_degenerate_brackets():
    tri = QuadraticTriple(((0, -3, 1), (2, -3, 1), (30, -11, 1)), PREC)
    step = richelot_image(tri)
    with pytest.raises(PrecisionError):
        dual_triple(step)


# ---------------------------------------------------------------------------
# full sweeps
# ---------------------------------------------------------------------------


def test_generic_curve_has_fifteen_nonsplit_steps():
    pairs = all_isogenous_invariants(curve(*GENERIC), PREC)
    assert len(pairs) == 15
    assert all(not step.is_split for step, _ in pairs)
    assert all(inv is not None for _, inv in pairs)


def test_split_witness_has_exactly_one_split_step():
    pairs = all_isogenous_invariants(curve(*SPLIT_WITNESS), PREC)
    split = [(step, inv) for step, inv in pairs if step.is_split]
    assert len(split) == 1
    assert split[0][1] is None
    with mp.workprec(PREC + 64):
        assert abs(split[0][0].delta) <= tolerance(PREC)
    assert sum(1 for _, inv in pairs if inv is not None) == 14


def test_image_invariants_are_closed_under_conjugation():
    pairs = all_isogenous_invariants(curve(*GENERIC), PREC)
    values = [inv.j1 for _, inv in pairs]
    tol = tolerance(PREC)
    with mp.workprec(PREC + 64):
        for v in values:
            conj = mp.conj(v)
            scale = max(mpf(1), abs(v))
            assert any(abs(conj - w) <= tol * scale * 2**20 for w in values)


def test_involution_returns_to_the_source_curve():
    src = curve(*GENERIC)
    source_inv = absolute_igusa(src)
    tol = tolerance(PREC)
    for tri in enumerate_factorizations(src, PREC):
        step = richelot_image(tri)
        assert not step.is_split
        back = richelot_image(dual_triple(step))
        assert not back.is_split
        got = absolute_igusa(back.image)
        with mp.workprec(PREC + 64):
            for g, w in zip(
                (got.j1, got.j2, got.j3),
                (source_inv.j1, source_inv.j2, source_inv.j3),
            ):
                w = to_mpc(w, PREC + 64)
                assert abs(g - w) <= tol * max(mpf(1), abs(w)) * 2**20
