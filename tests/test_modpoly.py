"""Point-evaluated modular relations: P2, companions, split locus, degrees."""

import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpc, mpf

from g2modpoly.exactnum import (
    ComplexPoly,
    RoundedComplex,
    horner,
    mpf_to_fraction,
    poly_from_roots,
    poly_mul,
    to_mpc,
    tolerance,
)
from g2modpoly import g2curve, modp, modpoly, richelot
from g2modpoly.g2curve import Genus2Curve, SingularCurveError, absolute_igusa, transform_model
from g2modpoly.modpoly import (
    DEFAULT_DENOM_BOUND,
    DEFAULT_PREC,
    L2_TERMS,
    CompanionReport,
    SplitInputError,
    _reconstruct_coeffs,
    companion_identity_report,
    degree_profile,
    evaluated_Ftilde,
    evaluated_P2,
    l2_evaluate,
)
from g2modpoly.igusa_data import I2_TERMS, I4_TERMS, I6_TERMS
from g2modpoly.richelot import (
    MOVE_SHIFTS,
    all_isogenous_invariants,
    image_sextic,
    moved_model,
    pair_partitions_of_six,
    richelot_delta,
)

from oracles import field_det, spy_mpc_operators

F = Fraction


def curve(*asc):
    return Genus2Curve(tuple(F(c) for c in asc))


GENERIC = (-2, 3, 1, -1, 0, 2, 1)
# one image's discriminant is under the 300-bit threshold
DEFECT_AT_300 = (1, 0, -3, 2, -1, -2, 1)
SPLIT_WITNESS = (-36, 0, 49, 0, -14, 0, 1)

# frozen: sha256 over "num/den|..." of the 16 reconstructed coefficients of
# the generic curve's evaluated polynomial (independently re-derived from an
# 8000-bit build during development)
GENERIC_P2_SHA256 = "e991f46eeb0fec5abfbdff23cdb9daf05fcd5ff80af065adbb0f93c3fadab642"


# ---------------------------------------------------------------------------
# the split-locus polynomial
# ---------------------------------------------------------------------------


# sha256 of the split-locus table rendered one term a line, "a b c coeff",
# in sorted order of the exponents
L2_SHA256 = "381246cd732442107201dd132ebf5462aa4b6ec4ebfd73ae739a3b0579ac741a"


def test_locus_polynomial_shape_is_pinned():
    text = "".join(f"{a} {b} {c} {L2_TERMS[a, b, c]}\n" for a, b, c in sorted(L2_TERMS))
    assert hashlib.sha256(text.encode()).hexdigest() == L2_SHA256
    assert len(L2_TERMS) == 34
    assert all(type(c) is int and c != 0 for c in L2_TERMS.values())
    assert L2_TERMS[5, 0, 0] == 236196
    assert max(e[0] for e in L2_TERMS) == 5


def test_locus_vanishes_at_origin():
    assert l2_evaluate((F(0), F(0), F(0))) == 0


def test_locus_pure_j1_profile():
    # exactly two monomials survive at (1, 0, 0)
    pure = {e: c for e, c in L2_TERMS.items() if e[1] == 0 and e[2] == 0}
    assert pure == {(5, 0, 0): 236196, (4, 0, 0): 125971200000}
    assert l2_evaluate((F(1), F(0), F(0))) == F(125971436196)


@pytest.mark.parametrize("point", [
    (F(1, 2), F(-3, 5), F(7, 9)),
    (3, -4, 0),
    (0, F(5, 6), F(-1, 10**6)),
    (F(-2, 3), 0, 5),
    (F(-123456, 7919), F(10**9, 3), F(-5, 2**40)),
])
def test_locus_value_is_the_direct_fraction_evaluation(point):
    j1, j2, j3 = (F(v) for v in point)
    direct = sum(coeff * j1**a * j2**b * j3**c for (a, b, c), coeff in L2_TERMS.items())
    got = l2_evaluate(point)
    assert type(got) is F
    assert got == direct


def test_locus_value_at_ones_is_coefficient_sum():
    assert l2_evaluate((F(1), F(1), F(1))) == F(127484175537)
    assert l2_evaluate((F(1), F(1), F(1))) == sum(L2_TERMS.values())


@pytest.mark.parametrize(
    "roots",
    [
        (1, -1, 2, -2, 3, -3),
        (1, -1, 4, -4, 5, -5),
        (F(1, 2), F(-1, 2), 2, -2, 3, -3),
        (F(2, 3), F(-2, 3), F(5, 2), F(-5, 2), 4, -4),
    ],
)
def test_locus_vanishes_on_bielliptic_curves(roots):
    from oracles import coeffs_from_roots

    c = Genus2Curve(tuple(F(x) for x in coeffs_from_roots(roots)))
    assert l2_evaluate(absolute_igusa(c)) == 0


def test_locus_is_nonzero_on_generic_curve():
    assert l2_evaluate(absolute_igusa(curve(*GENERIC))) != 0


def test_locus_accepts_triple_object_and_refuses_complex_point():
    t = absolute_igusa(curve(*GENERIC))
    assert l2_evaluate(t) == l2_evaluate((t.j1, t.j2, t.j3))
    with mp.workprec(364):
        point = tuple(to_mpc(v, 364) for v in (t.j1, t.j2, t.j3))
    with pytest.raises(ValueError):
        l2_evaluate(point)


# ---------------------------------------------------------------------------
# the evaluated degree-15 polynomial
# ---------------------------------------------------------------------------


def test_evaluated_p2_is_monic_degree_15_with_real_coefficients():
    ev = evaluated_P2(curve(*GENERIC), DEFAULT_PREC)
    assert ev.p2.degree == 15
    tol = tolerance(DEFAULT_PREC)
    with mp.workprec(DEFAULT_PREC + 64):
        assert abs(ev.p2.coeffs[15] - 1) <= tol
        for c in ev.p2.coeffs:
            assert abs(c.imag) <= tol * max(mpf(1), abs(c)) * 2**20


def test_evaluated_p2_refuses_split_input():
    with pytest.raises(SplitInputError):
        evaluated_P2(curve(*SPLIT_WITNESS), DEFAULT_PREC)
    with pytest.raises(SplitInputError):
        evaluated_Ftilde(curve(*SPLIT_WITNESS), 2, DEFAULT_PREC)


def test_evaluated_p2_coefficients_match_newton_identities():
    # the identities cancel across intermediates ~2^350 larger than the
    # result, so compute at 1200 bits and compare at the 600-bit tolerance
    prec = 1200
    c = curve(*GENERIC)
    ev = evaluated_P2(c, prec)
    pairs = all_isogenous_invariants(c, prec)
    roots = [inv.j1 for _, inv in pairs]
    tol = tolerance(600)
    with mp.workprec(prec + 64):
        power = [mpc(15)]  # p_0 = n
        for k in range(1, 16):
            power.append(sum(r**k for r in roots))
        e = [mpc(1)]
        for k in range(1, 16):
            acc = mpc(0)
            for i in range(1, k + 1):
                acc += (-1) ** (i - 1) * e[k - i] * power[i]
            e.append(acc / k)
        scale = max(abs(x) for x in e) + mpf(1)
        for k in range(16):
            want = (-1) ** k * e[k]
            got = ev.p2.coeffs[15 - k]
            assert abs(got - want) <= tol * scale


def test_evaluated_p2_vanishes_at_image_invariants():
    prec = 300
    c = curve(*GENERIC)
    ev = evaluated_P2(c, prec)
    pairs = all_isogenous_invariants(c, prec)
    tol = tolerance(prec)
    with mp.workprec(prec + 64):
        scale = sum(abs(x) for x in ev.p2.coeffs)
        for _, inv in pairs:
            x = inv.j1
            val = horner(ev.p2.coeffs, x)
            bound = tol * scale * max(mpf(1), abs(x)) ** 15
            assert abs(val) <= bound


def _bits(poly):
    return [(c.real._mpf_, c.imag._mpf_) for c in poly.coeffs]


@pytest.mark.parametrize("coeffs, prec", [
    (GENERIC, 300), (GENERIC, 2400), (DEFECT_AT_300, 300), (DEFECT_AT_300, 2400),
])
def test_p2_from_image_j1_alone_equals_p2_from_the_full_triples(coeffs, prec):
    c = curve(*coeffs)
    if (coeffs, prec) == (DEFECT_AT_300, 300):
        # one image is singular at 300 bits: both paths refuse it alike
        with pytest.raises(SingularCurveError):
            all_isogenous_invariants(c, prec)
        with pytest.raises(SingularCurveError):
            evaluated_P2(c, prec)
        return
    full = [inv.j1 for _, inv in all_isogenous_invariants(c, prec)]
    assert _bits(evaluated_P2(c, prec).p2) == _bits(ComplexPoly.from_roots(full, prec))


def test_p2_build_never_evaluates_i4_or_i6_of_an_image(monkeypatch):
    evaluated = []

    def spy(terms, values):
        evaluated.append((terms, isinstance(values[0], RoundedComplex)))
        return raw(terms, values)

    raw = g2curve._eval_terms
    monkeypatch.setattr(g2curve, "_eval_terms", spy)
    evaluated_P2(curve(*GENERIC), 300)
    on_images = [terms for terms, complex_model in evaluated if complex_model]
    assert len(on_images) == 15
    assert all(terms is I2_TERMS for terms in on_images)


def test_images_their_invariants_and_the_expansion_do_no_mpc_arithmetic(monkeypatch):
    # after the roots and the factorizations, P2 is built over RoundedComplex:
    # mpc values are only converted at the boundaries
    triples = richelot.enumerate_factorizations(curve(*GENERIC), 300)
    calls = spy_mpc_operators(monkeypatch)
    images = [richelot.richelot_image(t).image for t in triples]
    ComplexPoly.from_roots([g2curve.absolute_j1(image) for image in images], 300)
    g2curve.absolute_igusa(images[0])
    assert calls == []


def test_p2_from_the_roots_and_a_dual_step_do_no_mpc_arithmetic(monkeypatch):
    # with the roots fixed, the factorizations, the images, their j1, the
    # collision test and the expansion run over RoundedComplex alone, and
    # so does a step through the dual triple
    c = curve(*GENERIC)
    roots = richelot.complex_roots(c, 300)
    monkeypatch.setattr(richelot, "complex_roots", lambda _, prec: roots)
    step = richelot.richelot_image(richelot.enumerate_factorizations(c, 300)[0])
    calls = spy_mpc_operators(monkeypatch)
    modpoly._p2(c, 300)
    richelot.richelot_image(richelot.dual_triple(step))
    assert calls == []


# ---------------------------------------------------------------------------
# rational reconstruction of the coefficients
# ---------------------------------------------------------------------------


def test_reconstruction_succeeds_at_adequate_parameters():
    # denominators of this curve's coefficients need up to 714 bits; under
    # bound 2^800 (decoding radius 2^-1601) a ladder started at 300 bits
    # certifies it at 2400 bits, which resolves its largest coefficient
    # (2^477) to 2^-1795; this call builds at 4200 bits directly
    ev = evaluated_P2(
        curve(*GENERIC), 4200, reconstruct=True, denom_bound=1 << 800, prec_cap=4200
    )
    assert ev.rational_p2 is not None
    assert ev.rational_p2[-1] == 1
    assert max(f.denominator.bit_length() for f in ev.rational_p2) == 714
    payload = "|".join(
        "%d/%d" % (f.numerator, f.denominator) for f in ev.rational_p2
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == GENERIC_P2_SHA256


def test_reconstruction_refuses_underpowered_precision():
    # same bound, but the precision rungs stop far below what is needed to
    # separate fractions with denominators up to 2^800: must return None
    # rather than a spurious convergent
    ev = evaluated_P2(
        curve(*GENERIC), 300, reconstruct=True, denom_bound=1 << 800, prec_cap=600
    )
    assert ev.rational_p2 is None


def test_reconstruction_fails_honestly_when_bound_is_too_small():
    ev = evaluated_P2(
        curve(*GENERIC), 300, reconstruct=True, denom_bound=1 << 64, prec_cap=1200
    )
    assert ev.rational_p2 is None


def test_reconstruction_refuses_a_convergent_outside_the_decoding_radius():
    # 1/3 + 2^-550 has the convergent 1/3, which passes the 2^-500 residual
    # tolerance of rational_reconstruct at 1000 bits; only the unique-decoding
    # radius 1/(2 B^2) = 2^-601 for B = 2^300 rejects it.
    bound = 1 << 300
    with mp.workprec(1064):
        third = mpc(1) / 3
        near = third + mpc(2) ** -550
    assert _reconstruct_coeffs(ComplexPoly((third, 1), 1000), 1000, bound) == [F(1, 3), 1]
    assert _reconstruct_coeffs(ComplexPoly((near, 1), 1000), 1000, bound) is None


def _digest(rationals):
    payload = "|".join("%d/%d" % (f.numerator, f.denominator) for f in rationals)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def generic_rationals():
    ev = evaluated_P2(curve(*GENERIC), 2400, reconstruct=True,
                      denom_bound=1 << 800, prec_cap=2400)
    return ev.rational_p2


def test_mod_p_check_refuses_a_near_miss_with_a_legal_denominator(generic_rationals):
    # each coefficient replaced by the nearest fraction with denominator
    # 2^600 (legal under 2^800, within 2^-600 of the true value): a float
    # comparison to 2^-550 cannot tell them apart, P2 mod p does
    good = list(generic_rationals)
    assert modp.check_mod_p(curve(*GENERIC), good) is not None
    for k, r in enumerate(good):
        near = F(round(r * 2**600), 2**600)
        if near == r:
            continue
        assert abs(near - r) <= F(1, 2**550) and near.denominator <= 1 << 800
        bad = good[:k] + [near] + good[k + 1:]
        assert modp.check_mod_p(curve(*GENERIC), bad) is None, k


def test_mod_p_check_refuses_criterion_6_limit_denominator_candidates():
    # criterion 6's curve 0 (the first seed-601 draw): the fractions with
    # denominator <= 2^256 closest to its 3000-bit coefficients are wrong
    c0 = curve(-2, 2, 1, 1, 2, -3, 1)
    high = evaluated_P2(c0, 3000).p2.coeffs
    candidates = [mpf_to_fraction(c.real).limit_denominator(1 << 256) for c in high]
    assert modp.check_mod_p(c0, candidates) is None


def _roots_poly(*roots):
    cs = [F(1)]
    for r in roots:
        cs = poly_mul(cs, [F(-r), F(1)])
    return cs


@pytest.mark.parametrize("coeffs, digest, moves", [
    (GENERIC, GENERIC_P2_SHA256, False),
    # the 300-bit defect curve
    ((1, 0, -3, 2, -1, -2, 1),
     "a78c3b709da4d3e3a842438fb4508258a006b01671e0d389c6d5aeef5a2f1b3e", False),
    # roots 0, 1, 2, 3, 5, 6: five images have a bracket of degree < 2, so
    # the image model is moved, in floats and mod p
    (_roots_poly(0, 1, 2, 3, 5, 6),
     "374360d8cd812bd07506ce4aeaf469d50b1cd96b244442c55a3d57f061659e07", True),
])
def test_mod_p_check_certifies_the_same_rationals(monkeypatch, coeffs, digest, moves):
    # the digests were recorded from ladders whose rationals an independent
    # 4800-bit rebuild also certified
    moved = []

    def spy(g, t):
        moved.append(t)
        return raw(g, t)

    raw = modp.moved_model
    monkeypatch.setattr(modp, "moved_model", spy)
    ev = evaluated_P2(curve(*coeffs), 300, reconstruct=True,
                      denom_bound=1 << 800, prec_cap=4200)
    assert ev.prec == 2400
    assert _digest(ev.rational_p2) == digest
    assert bool(moved) == moves


def test_mod_p_check_skips_a_prime_dividing_a_curve_denominator():
    # x -> x + 1/(2^61 - 1) gives coefficients with denominators
    # (2^61 - 1)^k and the same images, so the same P2
    top = modp.TOP_PRIME
    assert next(modp._candidate_primes()) == top
    moved = transform_model(curve(*GENERIC), [[1, F(1, top)], [0, 1]])
    assert max(c.denominator for c in moved.coeffs) == top**6
    ev = evaluated_P2(moved, 300, reconstruct=True, denom_bound=1 << 800, prec_cap=4200)
    assert _digest(ev.rational_p2) == GENERIC_P2_SHA256
    assert modp.check_mod_p(moved, ev.rational_p2) < top


@pytest.mark.parametrize("no_prime", ["cap", "predicate"])
def test_no_usable_prime_refuses_without_raising(monkeypatch, no_prime):
    if no_prime == "cap":
        monkeypatch.setattr(modp, "PRIME_CANDIDATES", 0)
    else:
        monkeypatch.setattr(modp, "p2_mod_p", lambda f, p: None)
    ev = evaluated_P2(curve(*GENERIC), 2400, reconstruct=True,
                      denom_bound=1 << 800, prec_cap=2400)
    assert ev.rational_p2 is None
    assert ev.prec == 2400


def test_mod_p_check_refuses_a_p2_outside_f_p(monkeypatch, generic_rationals):
    # the real parts agree, one imaginary part does not vanish
    raw = modp.p2_mod_p

    def off_f_p(f, p):
        p2 = raw(f, p)
        if p2 is not None:
            p2[3] = p2[3] + modp.Fp2(0, 1, p)
        return p2

    monkeypatch.setattr(modp, "p2_mod_p", off_f_p)
    assert modp.check_mod_p(curve(*GENERIC), generic_rationals) is None


def test_mod_p_check_skips_a_prime_where_f_is_inseparable():
    # roots 0 and 2^61 - 1 meet mod 2^61 - 1: that prime is skipped, and
    # the values P2 takes mod the next prime pass the check there
    c = curve(*_roots_poly(0, modp.TOP_PRIME, 1, 2, 3, 4))
    assert modp.p2_mod_p([modp._reduce(v, modp.TOP_PRIME) for v in c.coeffs], modp.TOP_PRIME) is None
    primes = modp._candidate_primes()
    assert next(primes) == modp.TOP_PRIME
    q = next(primes)
    p2 = modp.p2_mod_p([modp._reduce(v, q) for v in c.coeffs], q)
    assert all(v.im == 0 for v in p2)
    assert modp.check_mod_p(c, [v.re for v in p2]) == q


def _quad(r, s):
    return (r * s, -(r + s), 1)


def _root_solving(fn):
    """The x in [0, 2^61 - 1) with fn(x) = 0 mod 2^61 - 1, for fn affine in x."""
    top = modp.TOP_PRIME
    return -fn(0) * pow(fn(1) - fn(0), -1, top) % top


def _exact_p2(roots):
    """P2 over Q of the curve with these rational roots, whose images are
    rational: the exact j1 of each image's (moved) monic model."""
    j1s = []
    for pairing in pair_partitions_of_six():
        g = image_sextic([_quad(F(roots[i]), F(roots[j])) for i, j in pairing])
        if g[6] == 0:
            g = moved_model(g, next(t for t in MOVE_SHIFTS if horner(g, t)))
        j1s.append(g2curve.absolute_j1(Genus2Curve(tuple(x / g[6] for x in g))))
    return poly_from_roots(j1s, F(1))


def test_mod_p_check_skips_a_prime_with_a_degenerate_image():
    # integer roots in [0, 2^61 - 1) whose last one makes delta of
    # ((r1, r2), (r3, r4), (r5, r6)) vanish mod 2^61 - 1 (delta is affine in
    # r6): that image's I10 vanishes there too, so the prime is unusable,
    # and P2 over Q passes at the next prime
    top = modp.TOP_PRIME
    roots = [1, 2, 3, 5, 7]
    roots.append(_root_solving(lambda x: richelot_delta(
        [_quad(roots[0], roots[1]), _quad(roots[2], roots[3]), _quad(roots[4], x)])))
    c = curve(*_roots_poly(*roots))
    lifted = [modp.Fp2(r, 0, top) for r in roots]
    assert modp._image_j1([_quad(*lifted[0:2]), _quad(*lifted[2:4]), _quad(*lifted[4:6])]) is None
    assert modp.p2_mod_p([modp._reduce(v, top) for v in c.coeffs], top) is None
    primes = modp._candidate_primes()
    assert next(primes) == top
    q = next(primes)
    p2 = _exact_p2(roots)
    assert modp.check_mod_p(c, p2) == q
    # as ints, with no denominator to skip on, its values mod q reach the
    # degenerate image at 2^61 - 1 first
    assert modp.check_mod_p(c, [modp._reduce(v, q) for v in p2]) == q


def _naive_powmod(u, e, m, p):
    """u^e mod monic m over F_p: square and multiply on coefficient lists,
    with ``poly_mul`` and long division."""
    def mulmod(a, b):
        r = [x % p for x in poly_mul(a, b)]
        d = len(m) - 1
        for top in range(len(r) - 1, d - 1, -1):
            c = r[top]
            for k in range(d + 1):
                r[top - d + k] = (r[top - d + k] - c * m[k]) % p
        r = r[:d]
        while r and r[-1] == 0:
            r.pop()
        return r

    out = mulmod([1], [1])
    for bit in bin(e)[2:]:
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(out, u)
    return out


@pytest.mark.parametrize("degree", [1, 2, 4, 6])
def test_packed_powers_equal_naive_square_and_multiply(degree):
    rng = random.Random(degree)
    primes = modp._candidate_primes()
    for p in (next(primes), next(primes)):
        m = [rng.randrange(p) for _ in range(degree)] + [1]
        ring = modp._Residues(m, p)
        x_p = _naive_powmod([0, 1], p, m, p)
        for u in ([0, 1], [rng.randrange(p), 1], [rng.randrange(p) for _ in range(degree)]):
            for e in (p, (p - 1) // 2, (p * p - 1) // 2):
                assert ring.unpack(ring.pow(ring.pack(u), e)) == _naive_powmod(u, e, m, p), (p, u, e)
        # the split's (x + a)^((p^2 - 1)/2) as y(x^p) y, y = (x + a)^((p - 1)/2)
        for a in (0, 1, 5):
            y = ring.pow(ring.pack([a, 1]), (p - 1) // 2)
            y2 = ring.mul(ring.compose(y, ring.pack(x_p)), y)
            assert ring.unpack(y2) == _naive_powmod([a, 1], (p * p - 1) // 2, m, p)


@pytest.mark.parametrize("coeffs", [GENERIC, DEFECT_AT_300])
def test_every_prime_where_f_splits_over_f_p2_is_usable(coeffs):
    # f divides x^(p^2) - x exactly at the usable primes: then the root
    # split succeeds, also on the quadratic part, and no image degenerates
    c = curve(*coeffs)
    usable = 0
    for p in list(modp._candidate_primes())[:24]:
        f = [modp._reduce(v, p) for v in c.coeffs]
        splits = _naive_powmod([0, 1], p * p, f, p) == [0, 1]
        assert (modp.p2_mod_p(f, p) is not None) == splits, p
        usable += splits
    assert usable >= 2


def test_the_closed_form_image_i10_is_the_sylvester_determinant(monkeypatch):
    # j1 of _image_j1 against I2^5 / I10 with I10 = -det of the Sylvester
    # matrix of the monic image, on random images over F_{p^2}; r1 + r2 =
    # r3 + r4 gives [A, B] degree < 2, and the model is moved, while the
    # closed form takes the brackets as they are
    moved = []

    def spy(g, t):
        moved.append(t)
        return raw(g, t)

    raw = modp.moved_model
    monkeypatch.setattr(modp, "moved_model", spy)
    rng = random.Random(3)
    primes = modp._candidate_primes()
    for p in (next(primes), next(primes)):
        for k in range(20):
            r = [modp.Fp2(rng.randrange(p), rng.randrange(p), p) for _ in range(6)]
            if k % 2:
                r[3] = r[0] + r[1] - r[2]
            quads = [_quad(r[0], r[1]), _quad(r[2], r[3]), _quad(r[4], r[5])]
            g = image_sextic(quads)
            if not g[6]:
                g = moved_model(g, next(t for t in MOVE_SHIFTS if horner(g, t)))
            monic = [x / g[6] for x in g]
            i2 = g2curve._eval_terms(I2_TERMS, monic)
            i10 = -field_det(g2curve._sylvester_f_fprime(monic, 0))
            assert i2 and i10
            before = len(moved)
            got, want = modp._image_j1(quads), i2 * i2 * i2 * i2 * i2 / i10
            assert (got.re, got.im) == (want.re, want.im)
            assert len(moved) - before == k % 2


def test_candidate_primes_are_found_once_and_capped(monkeypatch):
    fresh, n = [], modp.TOP_PRIME
    while len(fresh) < modp.PRIME_CANDIDATES:
        if modp._is_prime(n):
            fresh.append(n)
        n -= 4
    assert list(modp._candidate_primes()) == fresh
    # a reader searches only as far as it reads, each prime once, and the
    # cap is read at each call
    modp._candidate_prime.cache_clear()
    assert next(modp._candidate_primes()) == fresh[0]
    assert modp._candidate_prime.cache_info().currsize == 1
    for cap, known in ((3, 3), (5, 5), (2, 5), (0, 5)):
        monkeypatch.setattr(modp, "PRIME_CANDIDATES", cap)
        assert list(modp._candidate_primes()) == fresh[:cap]
        info = modp._candidate_prime.cache_info()
        assert info.currsize == info.misses == known


@pytest.mark.parametrize("coeffs", [GENERIC, _roots_poly(0, 1, 2, 3, 5, 6)])
def test_the_exact_evaluation_over_f_p2_is_the_reduction_of_the_one_over_q(coeffs):
    # at the curve's first usable prime the frozen tables and the Sylvester
    # I10 evaluated over F_{p^2}, and a determinant computed there, reduce
    # those computed over Q
    c = curve(*coeffs)
    p = next(p for p in modp._candidate_primes()
             if modp.p2_mod_p([modp._reduce(v, p) for v in c.coeffs], p) is not None)

    def lift(rows):
        return [[modp.Fp2(modp._reduce(x, p), 0, p) if x else 0 for x in row] for row in rows]

    f = lift([c.coeffs])[0]
    got = [g2curve._eval_terms(t, f) for t in (I2_TERMS, I4_TERMS, I6_TERMS)]
    got.append(-field_det(g2curve._sylvester_f_fprime(f, 0)))
    want = [modp._reduce(v, p) for v in g2curve.igusa_clebsch(c)]
    assert [(v.re, v.im) for v in got] == [(w, 0) for w in want]

    rng = random.Random(7)
    rows = [[F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7 else 0
             for _ in range(7)] for _ in range(7)]
    rows[0][0] = 0      # the first column needs a row swap
    det = field_det(rows)
    assert det != 0
    got = field_det(lift(rows))
    assert (got.re, got.im) == (modp._reduce(det, p), 0)


def _spy_builds(monkeypatch, build):
    built = []

    def spy(c, q):
        built.append(q)
        return build(c, q)

    monkeypatch.setattr(modpoly, "_build", spy)
    return built


@pytest.mark.parametrize("bound_bits, cap, rungs", [
    (800, 600, [600]),
    (64, 1200, [300, 600, 1200]),
    (256, 2000, [1200, 2000]),  # the 714-bit denominators are refused
])
def test_ladder_builds_only_the_rungs_that_can_resolve_the_radius(
        monkeypatch, bound_bits, cap, rungs):
    built = _spy_builds(monkeypatch, modpoly._build)
    ev = evaluated_P2(
        curve(*GENERIC), 300, reconstruct=True, denom_bound=1 << bound_bits, prec_cap=cap
    )
    assert ev.rational_p2 is None
    assert built == rungs


@pytest.mark.parametrize("prec, bound_bits, cap", [
    (300, 64, 1200), (300, 256, 2000), (300, 800, 4200),
    (1729, 800, 4200), (1730, 800, 4200), (3000, 1500, 6000),
])
def test_skipped_rungs_are_those_that_refuse_a_magnitude_one_coefficient(
        monkeypatch, prec, bound_bits, cap):
    # a build whose p2 is never real rejects every rung, so the spy sees the
    # whole schedule; the exact coefficient 1 is refused only for resolution
    def unreal(c, q):
        return SimpleNamespace(p2=ComplexPoly((mpc(1, 1), 1), q))

    built = _spy_builds(monkeypatch, unreal)
    bound = 1 << bound_bits
    evaluated_P2(curve(*GENERIC), prec, reconstruct=True, denom_bound=bound, prec_cap=cap)
    ladder = [prec]
    while ladder[-1] < cap:
        ladder.append(min(2 * ladder[-1], cap))
    assert built[-1] == cap
    for q in ladder[:-1]:
        refused = _reconstruct_coeffs(ComplexPoly((1, 1), q), q, bound) is None
        assert refused == (q not in built), q


def test_a_curve_singular_at_300_bits_reconstructs_when_rung_300_is_skipped(monkeypatch):
    # one image's discriminant is under the 300-bit threshold; under 2^800
    # rung 300 cannot resolve the radius, so it is never built
    defect = curve(1, 0, -3, 2, -1, -2, 1)
    built = _spy_builds(monkeypatch, modpoly._build)
    ev = evaluated_P2(defect, 300, reconstruct=True, denom_bound=1 << 800, prec_cap=4200)
    assert built == [2400]
    assert ev.prec == 2400
    assert max(f.denominator.bit_length() for f in ev.rational_p2) == 189
    # under 2^64 rung 300 is built, and it still raises
    with pytest.raises(SingularCurveError):
        evaluated_P2(defect, 300, reconstruct=True, denom_bound=1 << 64, prec_cap=1200)


def test_reconstruction_requires_exact_curve():
    num = Genus2Curve(tuple(mpc(x) for x in GENERIC), prec=300)
    with pytest.raises(ValueError):
        evaluated_P2(num, 300, reconstruct=True)


def test_default_reconstruction_knobs():
    assert DEFAULT_DENOM_BOUND == 1 << 256
    assert DEFAULT_PREC == 300


# ---------------------------------------------------------------------------
# denominator growth toward the split locus
# ---------------------------------------------------------------------------


def test_coefficients_blow_up_as_the_curve_approaches_a_split_one():
    # f_t = (x^2-1)(x^2-4)(x^2-9) + t x stays separable and non-split for
    # small t != 0 but degenerates at t = 0; the evaluated coefficients must
    # grow while the locus value at the source invariants shrinks
    sizes = []
    locus = []
    for k in range(1, 6):
        t = F(1, 2**k)
        c = curve(F(-36) + 0, t, F(49), 0, F(-14), 0, 1)
        ev = evaluated_P2(c, 300)
        with mp.workprec(364):
            sizes.append(max(abs(x) for x in ev.p2.coeffs))
        locus.append(abs(l2_evaluate(absolute_igusa(c))))
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    assert all(a > b for a, b in zip(locus, locus[1:]))
    assert sizes[-1] > sizes[0] * 100
    assert locus[-1] < locus[0] / 100


# ---------------------------------------------------------------------------
# companions
# ---------------------------------------------------------------------------


def test_companions_have_degree_at_most_14():
    for k in (2, 3):
        ft = evaluated_Ftilde(curve(*GENERIC), k, 300)
        assert ft.degree <= 14
    with pytest.raises(ValueError):
        evaluated_Ftilde(curve(*GENERIC), 4, 300)


def test_companion_identity_direct_at_high_build_precision():
    prec = 1200
    c = curve(*GENERIC)
    ev = evaluated_P2(c, prec)
    ft2, ft3 = (evaluated_Ftilde(c, k, prec) for k in (2, 3))
    pairs = all_isogenous_invariants(c, prec)
    tol = tolerance(300)
    with mp.workprec(prec + 64):
        dp = [k * a for k, a in enumerate(ev.p2.coeffs)][1:]
        for _, inv in pairs:
            x = inv.j1
            dpx = horner(dp, x)
            assert abs(dpx) > 0
            for ft, want in ((ft2, inv.j2), (ft3, inv.j3)):
                got = horner(ft.coeffs, x) / dpx
                assert abs(got - want) <= tol * max(mpf(1), abs(want))


def test_companion_report_certifies_the_identity():
    report = companion_identity_report(curve(*GENERIC), 200)
    assert isinstance(report, CompanionReport)
    assert report.ok
    assert report.pipeline_prec >= 200
    tol = tolerance(200)
    assert report.worst_rel_2 <= tol
    assert report.worst_rel_3 <= tol


# ---------------------------------------------------------------------------
# degree detection
# ---------------------------------------------------------------------------


def _samples(n):
    # odd/8 is never an integer, so these avoid the small integer poles
    # used in the tests below
    return [F(2 * t + 3, 8) for t in range(n)]


def test_degree_profile_examples():
    assert degree_profile(lambda x: F(5), 3, 3, _samples(10)) == (0, 0)
    assert degree_profile(lambda x: x, 3, 3, _samples(10)) == (1, 0)
    assert degree_profile(
        lambda x: (x * x + 1) / (x - 2), 3, 3, _samples(12)
    ) == (2, 1)


def test_degree_profile_reduces_common_factors():
    assert degree_profile(
        lambda x: (x * x - 1) / (x - 1), 3, 3, _samples(10)
    ) == (1, 0)


def test_degree_profile_returns_none_when_bounds_are_too_small():
    assert degree_profile(lambda x: x**3, 2, 2, _samples(10)) is None


def test_degree_profile_validates_samples():
    with pytest.raises(ValueError):
        degree_profile(lambda x: x, 2, 2, _samples(3))
    with pytest.raises(ValueError):
        degree_profile(lambda x: x, 2, 2, [F(1)] * 8)
    with pytest.raises(ValueError):
        degree_profile(lambda x: x, -1, 2, _samples(8))


def test_degree_profile_recovers_random_rational_functions():
    import random

    rng = random.Random(8)
    for _ in range(10):
        m = rng.randint(0, 4)
        n = rng.randint(0, 4)
        num = [F(rng.randint(-9, 9)) for _ in range(m)] + [F(rng.randint(1, 9))]
        den = [F(rng.randint(-9, 9)) for _ in range(n)] + [F(rng.randint(1, 9))]

        def ev(x, num=num, den=den):
            nv = sum(c * x**i for i, c in enumerate(num))
            dv = sum(c * x**i for i, c in enumerate(den))
            return nv / dv

        xs = []
        t = 0
        while len(xs) < 2 * (4 + 4 + 2):
            x = F(2 * t + 3, 8)
            t += 1
            dv = sum(c * x**i for i, c in enumerate(den))
            if dv != 0:
                xs.append(x)
        got = degree_profile(ev, 4, 4, xs)
        assert got is not None
        gm, gn = got
        # common factors may reduce the true degrees, never raise them
        assert gm <= m and gn <= n
        if gm < m or gn < n:
            assert m - gm == n - gn
