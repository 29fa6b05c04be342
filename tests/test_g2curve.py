"""Genus-2 sextic models: validation, invariants, model changes."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    from_man_exp,
    libmpc,
    libmpf,
    mpc_div,
    mpf_add,
    mpf_div,
    mpf_pos,
    round_down,
    round_nearest,
)

from g2modpoly import g2curve, modp
from g2modpoly.exactnum import (
    WORK_GUARD,
    RoundedComplex,
    _quotient,
    _rounded_quotient,
    _rounded_sum,
    mpf_to_fraction,
    to_mpc,
    tolerance,
)
from g2modpoly.g2curve import (
    _I10_D_WEIGHT,
    Genus2Curve,
    IgusaTriple,
    NotMonicError,
    SingularCurveError,
    _d_weight,
    _eval_terms,
    _resultant_f_fprime,
    _sylvester_f_fprime,
    absolute_igusa,
    curve_from_json,
    curve_to_json,
    igusa_clebsch,
    transform_model,
    validate_curve,
)
from g2modpoly.igusa_data import I2_TERMS, I4_TERMS, I6_TERMS
from g2modpoly.richelot import enumerate_factorizations, richelot_image

from oracles import absolute_igusa_from_roots, coeffs_from_roots, field_det, igusa_clebsch_from_roots

F = Fraction


def curve(*asc):
    return Genus2Curve(tuple(F(c) for c in asc))


# frozen regression values for y^2 = x^6 + 1, cross-checked against the
# root-difference oracle at high precision in a test below
X6P1_INVARIANTS = (F(-240), F(1620), F(-119880), F(-46656))
X6P1_ABSOLUTE = (F(51200000, 3), F(480000), F(148000))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_separable_monic_sextic():
    c = validate_curve(["1", "0", "0", "0", "0", "0", "1"])
    assert c.is_exact
    assert c.coeffs == tuple(F(x) for x in (1, 0, 0, 0, 0, 0, 1))


def test_validate_rejects_repeated_roots():
    with pytest.raises(SingularCurveError):
        validate_curve([0, 0, 0, 0, 0, 0, 1])  # x^6
    doubled = coeffs_from_roots((-1, -1, 0, 1, 2, 3))
    with pytest.raises(SingularCurveError):
        validate_curve([str(c) for c in doubled])
    # denominators 2, 3 and 7: the discriminant vanishes on the integral model too
    doubled = coeffs_from_roots((F(1, 2), F(1, 2), F(-1, 3), F(2), F(5, 7), F(-3)))
    assert any(c.denominator > 1 for c in doubled)
    with pytest.raises(SingularCurveError):
        validate_curve([str(c) for c in doubled])


def test_validate_rejects_non_monic_and_wrong_arity():
    with pytest.raises(NotMonicError):
        validate_curve([1, 0, 0, 0, 0, 0, 2])
    with pytest.raises(ValueError):
        validate_curve([1, 0, 0, 0, 0, 1])


def test_validate_refuses_non_rational_coefficients():
    for coeffs in ([mpc(1, 1), 0, 0, 0, 0, 0, 1], [mpc(1), 0, 0, 0, 0, 0, 1],
                   [0.5, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 1.0]):
        with pytest.raises(ValueError):
            validate_curve(coeffs)


def test_validate_split_witness_factors():
    c = validate_curve(["-36", "0", "49", "0", "-14", "0", "1"])
    roots = (1, -1, 2, -2, 3, -3)
    assert list(c.coeffs) == [F(x) for x in coeffs_from_roots(roots)]


# ---------------------------------------------------------------------------
# invariants against the root-difference oracle
# ---------------------------------------------------------------------------


def test_invariants_match_oracle_on_integer_root_curves():
    rng = random.Random(2024)
    for _ in range(10):
        roots = rng.sample(range(-12, 13), 6)
        c = curve(*coeffs_from_roots(roots))
        assert igusa_clebsch(c) == igusa_clebsch_from_roots([F(r) for r in roots])
        triple = absolute_igusa(c)
        assert (triple.j1, triple.j2, triple.j3) == absolute_igusa_from_roots(
            [F(r) for r in roots]
        )


def test_invariants_match_oracle_on_rational_root_curves():
    rng = random.Random(2025)
    cases = [[F(1, 2), F(-3, 2), F(5, 3), F(-2), F(7, 4), F(0)]]
    for _ in range(8):     # mixed signs, denominators up to 10^6
        cases.append([F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(6)])
    for roots in cases:
        c = curve(*coeffs_from_roots(roots))
        assert igusa_clebsch(c) == igusa_clebsch_from_roots(roots)


def _fraction_clebsch(coeffs):
    """(I2, I4, I6, I10) evaluated over Fractions: the tables at the
    coefficients themselves, and I10 by elimination over the rationals."""
    values = [_eval_terms(t, [F(c) for c in coeffs]) for t in (I2_TERMS, I4_TERMS, I6_TERMS)]
    return (*values, -field_det(_sylvester_f_fprime([F(c) for c in coeffs], 0)))


def test_invariants_of_fractional_curves_match_the_fraction_evaluation():
    rng = random.Random(19)
    for _ in range(30):
        coeffs = [F(rng.randint(-40, 40), rng.randint(1, 60)) for _ in range(6)] + [F(1)]
        c = curve(*coeffs)
        got = igusa_clebsch(c)
        assert all(type(v) is F for v in got)
        assert got == _fraction_clebsch(coeffs)


def test_the_d_weights_of_the_invariants():
    # x -> x/D multiplies I2, I4, I6 and I10 by D^6, D^12, D^18 and D^30
    assert [_d_weight(t) for t in (I2_TERMS, I4_TERMS, I6_TERMS)] + [_I10_D_WEIGHT] \
        == [6, 12, 18, 30]
    for terms in (I2_TERMS, I4_TERMS, I6_TERMS):
        assert {_d_weight((mono,)) for mono in terms} == {_d_weight(terms)}


def test_rational_curves_take_the_integer_determinant(monkeypatch):
    # validate_curve, igusa_clebsch and absolute_igusa of a rational curve
    # run over ints on the integral model; no determinant is taken in a
    # field, and modp takes its images' I10 in closed form
    assert not hasattr(g2curve, "field_det")
    seen = []

    def bareiss_spy(rows):
        seen.append([x for row in rows for x in row])
        return raw_bareiss(rows)

    raw_bareiss = g2curve.bareiss_det
    monkeypatch.setattr(g2curve, "bareiss_det", bareiss_spy)
    coeffs = ["3/4", "-1/6", "2", "5/9", "0", "-7/2", "1"]
    c = validate_curve(coeffs)
    igusa_clebsch(c)
    absolute_igusa(c)
    assert len(seen) == 3
    assert all(type(x) is int for entries in seen for x in entries)

    assert any(modp.p2_mod_p([modp._reduce(v, p) for v in c.coeffs], p) is not None
               for p in modp._candidate_primes())
    assert len(seen) == 3


def test_frozen_values_for_x6_plus_1():
    c = curve(1, 0, 0, 0, 0, 0, 1)
    assert igusa_clebsch(c) == X6P1_INVARIANTS
    t = absolute_igusa(c)
    assert (t.j1, t.j2, t.j3) == X6P1_ABSOLUTE


def test_frozen_values_for_x6_plus_1_match_numeric_oracle():
    # the oracle needs roots; use the 300-bit roots of x^6 + 1 and compare
    # the exact frozen integers against the numerically evaluated sums
    with mp.workprec(364):
        roots = mp.polyroots([mpf(1), 0, 0, 0, 0, 0, mpf(1)], extraprec=120)
        i2, i4, i6, i10 = igusa_clebsch_from_roots(roots)
        tol = tolerance(300)
        for got, want in zip((i2, i4, i6, i10), X6P1_INVARIANTS):
            assert abs(got - to_mpc(want, 364)) <= tol * max(mpf(1), abs(to_mpc(want, 364)))


def test_split_witness_invariants_are_frozen():
    c = curve(-36, 0, 49, 0, -14, 0, 1)
    assert igusa_clebsch(c) == (
        F(19616),
        F(1923904),
        F(12290061824),
        F(477757440000),
    )


def test_absolute_invariants_are_finite_for_valid_curves():
    rng = random.Random(77)
    for _ in range(20):
        roots = rng.sample(range(-15, 16), 6)
        t = absolute_igusa(curve(*coeffs_from_roots(roots)))
        assert isinstance(t, IgusaTriple)
        for v in (t.j1, t.j2, t.j3):
            assert isinstance(v, F)


# ---------------------------------------------------------------------------
# power tables
# ---------------------------------------------------------------------------


def _random_mpc(rng, bits):
    """A complex value with full ``bits``-bit mantissas in both parts."""
    def part():
        man = rng.getrandbits(bits) | (1 << (bits - 1))
        return mpf((rng.choice((-1, 1)) * man, rng.randint(-8, 8) - bits))
    return mpc(part(), part())


def _round_dyadic(x):
    """``x`` (a Fraction with a power-of-two denominator) rounded once."""
    shift = x.denominator.bit_length() - 1
    assert x.denominator == 1 << shift
    return mpf((x.numerator, -shift))


def _powers_read(x):
    """c^0, ..., c^5 at c = x, each as ``_eval_terms`` reads it for the
    monomial c^e (coefficient 1); mpc for a RoundedComplex x."""
    values = [_eval_terms({(e,): 1}, [x]) for e in range(6)]
    return [mpc(v) for v in values] if isinstance(x, RoundedComplex) else values


@pytest.mark.parametrize("bits", [364, 1264])
def test_power_table_is_bit_identical_to_mpc_pow_on_the_exact_path(bits):
    rng = random.Random(bits)
    with mp.workprec(bits):
        for _ in range(40):
            c = _random_mpc(rng, bits)
            table = _powers_read(RoundedComplex.of(c, bits))
            for e in range(2, 6):
                want = c**e
                assert table[e].real._mpf_ == want.real._mpf_, e
                assert table[e].imag._mpf_ == want.imag._mpf_, e


def test_power_table_is_the_correctly_rounded_power_at_high_precision():
    bits = 4264
    rng = random.Random(bits)
    with mp.workprec(bits):
        for _ in range(10):
            c = _random_mpc(rng, bits)
            table = _powers_read(RoundedComplex.of(c, bits))
            a, b = mpf_to_fraction(c.real), mpf_to_fraction(c.imag)
            re, im = F(1), F(0)
            for e in range(1, 6):
                re, im = re * a - im * b, re * b + im * a
                assert table[e].real._mpf_ == _round_dyadic(re)._mpf_, e
                assert table[e].imag._mpf_ == _round_dyadic(im)._mpf_, e


def test_power_table_of_a_fraction_is_exact():
    assert _powers_read(F(-2, 3)) == [1, F(-2, 3), F(4, 9), F(-8, 27), F(16, 81), F(-32, 243)]


def test_numeric_invariants_at_4200_bits_match_the_exact_ones():
    exact = curve(F(-7, 3), F(5, 11), F(2, 9), F(-13, 5), F(3, 7), F(-1, 6), 1)
    prec = 4200
    work = prec + WORK_GUARD
    numeric = Genus2Curve(tuple(to_mpc(c, work) for c in exact.coeffs), prec)
    tol = tolerance(prec)
    with mp.workprec(work):
        for got, want in zip(igusa_clebsch(numeric), igusa_clebsch(exact)):
            want = to_mpc(want, work)
            assert abs(got - want) <= tol * max(mpf(1), abs(want))
        got = absolute_igusa(numeric)
        for g, w in zip(got, absolute_igusa(exact)):
            w = to_mpc(w, work)
            assert abs(g - w) <= tol * max(mpf(1), abs(w))


def _full_row_resultant(coeffs, prec):
    """Res(f, f') by pivoted elimination that updates whole rows."""
    work = prec + WORK_GUARD
    with mp.workprec(work):
        f = [to_mpc(c, work) for c in reversed(coeffs)]
        fp = [(6 - i) * f[i] for i in range(6)]
        zero = mpc(0)
        a = [[zero] * i + f + [zero] * (4 - i) for i in range(5)]
        a += [[zero] * i + fp + [zero] * (5 - i) for i in range(6)]
        det = mpc(1)
        for k in range(11):
            piv = max(range(k, 11), key=lambda i: abs(a[i][k]))
            if a[piv][k] == 0:
                return mpc(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                det = -det
            det *= a[k][k]
            for i in range(k + 1, 11):
                if a[i][k] != 0:
                    fct = a[i][k] / a[k][k]
                    a[i] = [x - fct * y for x, y in zip(a[i], a[k])]
        return det


GENERIC = (-2, 3, 1, -1, 0, 2, 1)
# refused as singular at 300 bits although their images are accurate
DEFECT_CURVES = [(1, 0, -3, 2, -1, -2, 1), (1, -1, 2, 2, 2, -2, 1), (0, -2, 0, -3, 0, -1, 1)]
# five of its images need the model move x -> t + 1/x
MODEL_MOVE = tuple(coeffs_from_roots([F(r) for r in (0, 1, 2, 3, 5, 6)]))


def _images(coeffs, prec):
    return [richelot_image(triple).image
            for triple in enumerate_factorizations(curve(*coeffs), prec)]


@pytest.mark.parametrize("prec", [300, 2400, 4800])
def test_resultant_of_the_fifteen_images_is_bit_identical_to_full_row_elimination(prec):
    # at 364, 2464 and 4864 working bits: the elimination works on int
    # pairs, picks pivots by exact norms, skips the columns no later step
    # reads and the updates by an exact zero, none of which may change a
    # single bit
    curves = [GENERIC, MODEL_MOVE] + (DEFECT_CURVES if prec == 300 else [])
    images = [image for coeffs in curves for image in _images(coeffs, prec)]
    # coefficients with more bits than the elimination works at: nothing is skipped
    images += _images(GENERIC, prec + 40)
    for image in images:
        got = mpc(_resultant_f_fprime(image.coeffs, prec))
        want = _full_row_resultant(image.coeffs, prec)
        assert (got.real._mpf_, got.imag._mpf_) == (want.real._mpf_, want.imag._mpf_)


def _mpc_invariants(image):
    """igusa_clebsch and absolute_igusa of a complex curve by the frozen tables
    over mpc at the working precision, each power multiplied out exactly and
    rounded once: the reference for the evaluation over RoundedComplex."""
    prec = image.working_prec()
    coeffs = [mpc(c) for c in image.coeffs]
    with mp.workprec(prec + WORK_GUARD):
        def power(c, e):
            exact = c
            for _ in range(e - 1):
                exact = mp.fmul(exact, c, exact=True)
            return +exact

        def table(terms):
            # ``_eval_terms``' order of operations
            total = None
            for mono, coeff in terms.items():
                acc = None
                for c, e in zip(coeffs, mono):
                    if e:
                        part = c if e == 1 else power(c, e)
                        acc = part if acc is None else acc * part
                term = coeff if acc is None else coeff * acc
                total = term if total is None else total + term
            return total

        i2, i4, i6 = (table(t) for t in (I2_TERMS, I4_TERMS, I6_TERMS))
        i10 = -mpc(_resultant_f_fprime(image.coeffs, prec))
        return (i2, i4, i6, i10), (power(i2, 5) / i10, power(i2, 3) * i4 / i10, power(i2, 2) * i6 / i10)


@pytest.mark.parametrize("prec", [300, 2400])
def test_invariants_of_images_are_bit_identical_to_the_tables_over_mpc(prec):
    images = _images(GENERIC, prec) + _images(MODEL_MOVE, prec)
    for image in images:
        clebsch, triple = _mpc_invariants(image)
        assert [v._mpc_ for v in igusa_clebsch(image)] == [v._mpc_ for v in clebsch]
        assert [v._mpc_ for v in absolute_igusa(image)] == [v._mpc_ for v in triple]
        assert g2curve.absolute_j1(image)._mpc_ == triple[0]._mpc_


def test_absolute_j1_of_an_image_takes_only_the_powers_it_reads(monkeypatch):
    # I2's table reads c3^2 and no other power of a coefficient, and j1 reads I2^5
    image = _images(GENERIC, 300)[0]
    exponents = []
    raw = RoundedComplex.__pow__
    monkeypatch.setattr(RoundedComplex, "__pow__", lambda x, k: exponents.append(k) or raw(x, k))
    g2curve.absolute_j1(image)
    assert exponents == [2, 5]


def _adversarial_sextics(prec):
    """Twenty-four monic sextics, fixed per ``prec``, whose coefficients are zero,
    real, imaginary, complex, complex with an imaginary part 2**-100 to
    2**-(3 prec) of the real part, or small Gaussian integers, each scaled
    by 2**-200, 1 or 2**200; one in four has parts of more than ``work``
    bits. Then two Gaussian-integer sextics whose elimination meets pivot
    entries of equal exact norm, and x**6, whose Sylvester matrix meets a
    zero pivot."""
    rng = random.Random(prec)
    work = prec + WORK_GUARD

    def part(bits):
        man = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        return mp.ldexp(mpf(man), rng.randrange(-bits - 4, 4 - bits))

    out = []
    with mp.workprec(4 * work):
        for n in range(24):
            bits = work + 40 if n % 4 == 3 else work
            coeffs = []
            for _ in range(6):
                kind = rng.choice(["zero", "real", "imag", "complex", "tiny", "gauss"])
                re, im = rng.choice([-1, 1]) * part(bits), rng.choice([-1, 1]) * part(bits)
                z = {"zero": mpc(0), "real": mpc(re), "imag": mpc(0, im), "complex": mpc(re, im),
                     "tiny": mpc(re, mp.ldexp(im, -rng.randrange(100, 3 * prec + 1))),
                     "gauss": mpc(rng.randint(-3, 3), rng.randint(-3, 3))}[kind]
                coeffs.append(z * mp.ldexp(1, rng.choice([-200, 0, 200])))
            out.append(tuple(coeffs) + (mpc(1),))
    out += [tuple(mpc(*z) for z in coeffs) for coeffs in (
        ((0, 0), (0, -1), (1, 1), (0, 2), (0, 0), (0, 0), (1, 0)),
        ((1, 1), (0, 0), (0, 0), (-2, -2), (0, -1), (0, 0), (1, 0)),
        ((0, 0),) * 6 + ((1, 0),))]
    return out


@pytest.mark.parametrize("prec", [300, 301, 555, 1200, 2400])
def test_resultant_of_adversarial_sextics_is_bit_identical_to_full_row_elimination(prec):
    for coeffs in _adversarial_sextics(prec):
        got = mpc(_resultant_f_fprime(coeffs, prec))
        want = _full_row_resultant(coeffs, prec)
        assert (got.real._mpf_, got.imag._mpf_) == (want.real._mpf_, want.imag._mpf_)


def _takes_perturbed_path(x, y, prec):
    """Whether ``mpf_add(x, y, prec)`` shifts the larger term up prec + 4 bits
    and moves it one unit, instead of rounding the sum (raw mpfs)."""
    (_, xm, xe, xb), (_, ym, ye, yb) = x, y
    if not (xm and ym):
        return False
    gap = xe + xb - ye - yb
    return (gap > prec + 4 and xe - ye > 100) or (gap < -prec - 4 and ye - xe > 100)


def _sum_operands(rng, prec):
    """Int pairs (x, y) around the perturbed path: tops prec + 3 to prec + 40
    apart, odd exponents 98 to 103 (or 400) apart, the larger term of up to
    2 prec + 3 bits often one or three units off a midpoint at ``prec``
    bits, trailing zero bits on either term; then random pairs, zeros and
    cancellations."""
    cases = []
    for _ in range(400):
        bits = rng.choice([prec // 2, prec, prec + 5, 2 * prec, 2 * prec + 3])
        xm = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if bits > prec + 1 and rng.random() < 0.5:
            drop = bits - prec
            xm = (xm >> drop << drop | 1 << (drop - 1)) + rng.choice([-3, -1, 1, 3])
        gap = prec + rng.choice([3, 4, 5, 6, 40])
        ybits = max(1, rng.choice([98, 99, 100, 101, 102, 103, 400]) - gap + bits)
        ym = rng.getrandbits(ybits) | 1 << (ybits - 1) | 1
        xe = rng.randrange(-600, 600)
        ye = xe + bits - gap - ybits
        xz, yz = rng.choice([0, 0, 3, 120]), rng.choice([0, 0, 3, 120])
        x = (rng.choice([-1, 1]) * xm << xz, xe - xz)
        y = (rng.choice([-1, 1]) * ym << yz, ye - yz)
        cases.append((x, y) if rng.random() < 0.5 else (y, x))
    for _ in range(200):
        x, y = [(rng.getrandbits(rng.choice([1, 5, prec, 2 * prec])) * rng.choice([-1, 1]),
                 rng.randrange(-900, 900)) for _ in range(2)]
        cases += [(x, y), (x, (-x[0], x[1])), (x, (-x[0] << 7, x[1] - 7)),
                  (x, (0, 5)), ((0, -5), y)]
    return cases


@pytest.mark.parametrize("prec", [364, 374, 2464])
def test_rounded_sum_is_mpf_add_on_and_off_the_perturbed_path(prec):
    rng = random.Random(prec)
    perturbed = not_rounded = 0
    for x, y in _sum_operands(rng, prec):
        fx, fy = from_man_exp(*x), from_man_exp(*y)
        for down, rnd in ((False, round_nearest), (True, round_down)):
            want = mpf_add(fx, fy, prec, rnd)
            assert from_man_exp(*_rounded_sum(*x, *y, prec, down)) == want, (x, y, rnd)
            not_rounded += want != mpf_pos(mpf_add(fx, fy), prec, rnd)
        perturbed += _takes_perturbed_path(fx, fy, prec)
    # the path is reached, and it is not always the rounded sum
    assert perturbed > 100 and not_rounded > 10


@pytest.mark.parametrize("prec", [364, 2464])
def test_rounded_quotient_is_mpf_div(prec):
    rng = random.Random(prec)
    for _ in range(1500):
        tm = rng.choice([1, 2, 3, rng.getrandbits(rng.choice([5, prec, prec + 10])) | 1])
        te = rng.randrange(-900, 900)
        sm = rng.choice([0, tm * rng.randrange(1, 2**40),
                         rng.getrandbits(rng.choice([1, prec, prec + 10, 2 * prec]))])
        s, t = (rng.choice([-1, 1]) * sm, rng.randrange(-900, 900)), (tm << rng.choice([0, 9]), te)
        want = mpf_div(from_man_exp(*s), from_man_exp(*t), prec, round_nearest)
        assert from_man_exp(*_rounded_quotient(*s, *t, prec)) == want, (s, t)


@pytest.mark.parametrize("prec", [364, 2464])
def test_quotient_is_mpc_div_with_its_real_shortcuts(prec):
    # mpc_div rounds |w|**2, ac + bd and bc - ad down at prec + 10 bits;
    # b = d = 0 gives a/c's two roundings, b = c = 0 gives (0, -a/d)'s
    rng = random.Random(prec)

    def part(zero):
        if zero:
            return 0, rng.randrange(-50, 50)
        return rng.choice([-1, 1]) * (rng.getrandbits(prec) | 1), rng.randrange(-2 * prec, prec)

    for n in range(3000):
        shape = n % 3      # complex / both real / real over imaginary
        z = part(False), part(shape > 0)
        w = part(shape == 2), part(shape == 1)
        (cm, ce), (dm, de) = w
        norm = _rounded_sum(cm * cm, 2 * ce, dm * dm, 2 * de, prec + 10, True)
        raw = [tuple(from_man_exp(*p) for p in v) for v in (z, w)]
        got = _quotient(z, w, norm, prec)
        assert tuple(from_man_exp(*p) for p in got) == mpc_div(*raw, prec, round_nearest), (z, w)


@pytest.mark.parametrize("prec", [300, 2400])
def test_elimination_takes_no_square_root(prec, monkeypatch):
    images = _images(GENERIC, prec)
    calls = []

    def spy(name, raw):
        def counted(*args, **kwargs):
            calls.append(name)
            return raw(*args, **kwargs)
        return counted

    for module in (libmpc, libmpf):
        for name in ("mpf_hypot", "mpf_sqrt"):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    with mp.workprec(prec + WORK_GUARD):
        assert abs(mpc(3, 4)) == 5 and calls     # the spies see mpmath's abs
    calls.clear()
    for image in images:
        _resultant_f_fprime(image.coeffs, prec)
    assert calls == []


# ---------------------------------------------------------------------------
# weighted homogeneity under root scaling
# ---------------------------------------------------------------------------


def test_invariant_weights_under_root_scaling():
    base_roots = [F(r) for r in (-3, -1, 0, 2, 4, 5)]
    i2, i4, i6, i10 = igusa_clebsch_from_roots(base_roots)
    for s in (F(2), F(3), F(1, 2), F(-5), F(7, 3)):
        scaled = curve(*coeffs_from_roots([s * r for r in base_roots]))
        lam = s**3
        assert igusa_clebsch(scaled) == (
            lam**2 * i2,
            lam**4 * i4,
            lam**6 * i6,
            lam**10 * i10,
        )


def test_absolute_invariants_are_scale_invariant():
    base_roots = [F(r) for r in (-3, -1, 0, 2, 4, 5)]
    expected = absolute_igusa_from_roots(base_roots)
    for s in (F(2), F(-1, 3)):
        scaled = curve(*coeffs_from_roots([s * r for r in base_roots]))
        t = absolute_igusa(scaled)
        assert (t.j1, t.j2, t.j3) == expected


# ---------------------------------------------------------------------------
# model transformations
# ---------------------------------------------------------------------------


def test_translation_preserves_all_four_invariants():
    c = curve(-2, 3, 1, -1, 0, 2, 1)
    moved = transform_model(c, ((1, 1), (0, 1)))  # x -> x + 1
    assert igusa_clebsch(moved) == igusa_clebsch(c)


def test_inversion_example():
    c = curve(1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1
    out = transform_model(c, ((0, 1), (1, 0)))  # x -> 1/x
    assert out.coeffs == tuple(F(x) for x in (1, 0, 0, 0, 0, 1, 1))


def test_transform_model_group_composition():
    c = curve(-2, 3, 1, -1, 0, 2, 1)
    g = ((2, 1), (1, 1))
    h = ((1, -1), (0, 1))
    # substituting h first and then g composes the Moebius maps as h(g(x))
    hg = (
        (h[0][0] * g[0][0] + h[0][1] * g[1][0], h[0][0] * g[0][1] + h[0][1] * g[1][1]),
        (h[1][0] * g[0][0] + h[1][1] * g[1][0], h[1][0] * g[0][1] + h[1][1] * g[1][1]),
    )
    assert transform_model(transform_model(c, h), g).coeffs == transform_model(c, hg).coeffs


def test_fifty_random_transforms_preserve_absolute_invariants():
    rng = random.Random(31337)
    c = curve(-2, 3, 1, -1, 0, 2, 1)
    base = absolute_igusa(c)
    done = 0
    while done < 50:
        g = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det == 0:
            continue
        try:
            moved = transform_model(c, g)
        except ValueError:
            # the transform maps a root to infinity; legal to refuse
            continue
        t = absolute_igusa(moved)
        assert (t.j1, t.j2, t.j3) == (base.j1, base.j2, base.j3)
        done += 1


def test_transform_rejects_singular_matrix():
    c = curve(1, 0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        transform_model(c, ((1, 2), (2, 4)))


def test_transform_rejects_degree_drop():
    c = curve(0, 1, 0, 0, 0, 0, 1)  # root at x = 0
    with pytest.raises(ValueError):
        transform_model(c, ((0, 1), (1, 0)))  # 1/x sends the root to infinity


def test_transform_refuses_a_numeric_curve():
    numeric = Genus2Curve(tuple(mpc(x) for x in (-2, 3, 1, -1, 0, 2, 1)), prec=300)
    with pytest.raises(ValueError):
        transform_model(numeric, ((1, 2), (1, 1)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_curve_json_roundtrip_exact():
    c = curve(-2, 3, 1, -1, 0, 2, 1)
    doc = curve_to_json(c)
    assert doc == {"f": ["-2", "3", "1", "-1", "0", "2", "1"]}
    back = curve_from_json(doc)
    assert back.coeffs == c.coeffs


def test_curve_json_is_exact_only():
    c = Genus2Curve((mpc(1, 1), 0, 0, 0, 0, 0, mpc(1)), prec=200)
    with pytest.raises(ValueError):
        curve_to_json(c)


def test_curve_from_json_validates():
    with pytest.raises(NotMonicError):
        curve_from_json({"f": ["1", "0", "0", "0", "0", "0", "2"]})
    with pytest.raises(ValueError):
        curve_from_json({})
