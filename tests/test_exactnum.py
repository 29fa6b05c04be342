"""Exact scalar layer: parsing, precision plumbing, reconstruction, linear algebra."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    from_int, from_man_exp, fzero, mpc_abs, mpc_mul, mpc_sub, mpf_mul, mpf_neg, round_nearest,
)

from g2modpoly import exactnum
from g2modpoly.exactnum import (
    WORK_GUARD,
    ComplexPoly,
    RoundedComplex,
    bareiss_det,
    complex_to_pair,
    first_largest_modulus,
    format_rational,
    fraction_to_mpf,
    horner,
    mpc_to_pairs,
    mpf_to_fraction,
    mpf_to_str,
    negligible,
    nullspace,
    pair_to_complex,
    parse_rational,
    poly_from_roots,
    poly_mul,
    rational_reconstruct,
    relative_deviation,
    str_to_mpf,
    to_mpc,
    tolerance,
)

from oracles import field_det

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


def test_parse_rational_accepts_integer_and_slash_forms():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(" 22/7 ") == Fraction(22, 7)


def test_parse_rational_rejects_garbage():
    for bad in ("", "x", "1/0", "1.5.2", "1//2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(rationals)
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_rational_prints_ints_of_any_length():
    # str() refuses an int of more than sys.get_int_max_str_digits() digits
    limit = sys.get_int_max_str_digits()
    for q in (Fraction(10**5000 + 7), Fraction(-(3**20000)), Fraction(2**2000), Fraction(2**1999 - 1),
              Fraction(10**601 - 1), Fraction(12345 * 10**4400 + 1, 7**6000), Fraction(-1, 10**4301)):
        text = format_rational(q)
        num, _, den = text.lstrip("-").partition("/")
        assert text.startswith("-") == (q < 0)
        assert num[0] != "0" and (not den or den[0] != "0")
        assert [_int_from_digits(num), _int_from_digits(den or "1")] == \
            [abs(q.numerator), q.denominator]
    assert sys.get_int_max_str_digits() == limit


def test_parse_rational_reads_literals_of_any_length():
    # Fraction(str) refuses more than sys.get_int_max_str_digits() digits
    limit = sys.get_int_max_str_digits()
    for q in (Fraction(10**5000 + 7), Fraction(-(3**20000)), Fraction(2**1999 - 1),
              Fraction(12345 * 10**4400 + 1, 7**6000), Fraction(-1, 10**4301)):
        text = format_rational(q)
        assert parse_rational(text) == q
        assert parse_rational(f" +{text.lstrip('-')} ") == abs(q)
    assert parse_rational("0" * 5000 + "12/" + "0" * 700 + "34") == Fraction(6, 17)
    for bad in ("1" * 700 + "x", "1" * 300 + "-" + "1" * 400, "1" * 700 + "/-3",
                "1/" + "0" * 5000):
        with pytest.raises(ValueError, match="bad rational literal") as refused:
            parse_rational(bad)
        # the message quotes a bounded prefix and the length, not the literal
        assert len(str(refused.value)) < 200 and f"({len(bad)} characters)" in str(refused.value)
    assert sys.get_int_max_str_digits() == limit


def _int_from_digits(digits):
    n = 0
    for k in range(0, len(digits), 500):
        n = n * 10 ** len(digits[k:k + 500]) + int(digits[k:k + 500])
    return n


def test_tolerance_is_half_the_precision():
    assert tolerance(300) == mpf(2) ** -150
    assert tolerance(64) == mpf(2) ** -32


def test_tolerance_is_computed_once_per_precision():
    assert tolerance(301) is tolerance(301)
    assert tolerance(301) != tolerance(300)


AMBIENT = 200


def _ulp_above(x, bits=AMBIENT):
    """The next value above a positive x that is representable in ``bits`` bits."""
    return x + mp.ldexp(mpf(1), x.exp + x.bc - bits)


# (prec, scale, power, threshold factor): the threshold is
# tolerance(prec) * factor, where factor = max(1, |s| for s in scale)**power
NEGLIGIBLE_CASES = [
    (300, (), 1, 1),                              # no scale: the bare tolerance
    (301, (), 1, 1),                              # odd prec: tolerance is not a power of 2
    (300, (mpf(3),), 1, 3),
    (301, (mpf(3),), 1, 3),
    (300, (mpf("0.25"),), 1, 1),                  # scales below 1 floor at 1
    (301, (mpf("0.25"), mpf("-0.5")), 4, 1),      # the floor holds under a power too
    (300, (mpf(2),), 3, 8),                       # power raises the scale
    (301, (mpf(-2), mpf("1.5")), 10, 1024),       # the largest |s| sets the scale
    (300, (mpc(3, 4), mpc(0, 1)), 2, 25),         # complex entries by modulus
]


@pytest.mark.parametrize("prec, scale, power, factor", NEGLIGIBLE_CASES)
def test_negligible_accepts_the_threshold_and_refuses_one_ulp_above(prec, scale, power, factor):
    with mp.workprec(AMBIENT):
        threshold = tolerance(prec) * factor
        above = _ulp_above(threshold)
        assert above > threshold
        for sign in (1, -1):
            assert negligible(sign * threshold, prec, scale, power)
            assert not negligible(sign * above, prec, scale, power)
        assert negligible(mpc(0, threshold), prec, scale, power)
        assert not negligible(mpc(0, above), prec, scale, power)


def test_negligible_rounds_at_the_ambient_precision():
    # for odd prec, tolerance(prec) * 5 needs 66 bits; at 53 bits the
    # threshold is that product rounded (here upward), as an inline
    # product at the caller's precision would be
    with mp.workprec(AMBIENT):
        exact = tolerance(301) * 5
    with mp.workprec(53):
        rounded = tolerance(301) * 5
        assert rounded > exact
        assert negligible(rounded, 301, (mpf(5),))
        assert not negligible(_ulp_above(rounded, 53), 301, (mpf(5),))


def _written_negligible(x, prec, scale, power):
    """The tolerance test as written, with no shortcut: the oracle of ``negligible``.

    A NaN |v| makes the threshold NaN, whatever the other entries are, so
    the comparison is False; otherwise a Fraction entry is refused with
    TypeError, as an mpf and a Fraction do not compare.
    """
    sizes = [abs(v) for v in scale]
    if any(mp.isnan(size) for size in sizes if not isinstance(size, Fraction)):
        return abs(x) <= mpf("nan")
    return abs(x) <= tolerance(prec) * max([mpf(1)] + sizes) ** power


def _outcome(test, *args):
    """A verdict, or the type of the exception raised instead of one."""
    try:
        return test(*args)
    except Exception as exc:  # the formula refuses some mixes of types
        return type(exc)


def _near(value, bits, ulps):
    """``value`` moved by ``ulps`` units in its last place at ``bits`` bits."""
    return value + ulps * mp.ldexp(mpf(1), value.exp + value.bc - bits)


SCALE_ENTRIES = st.one_of(
    st.integers(-6, 14).map(lambda k: ("pow2", k)),
    st.tuples(st.just("real"), st.integers(-3, 12), st.floats(-1, 1)),
    st.tuples(st.just("complex"), st.integers(-3, 12), st.floats(0, 6.3)),
    st.sampled_from([("one",), ("zero",), ("czero",), ("inf",), ("nan",),
                     ("int", 3), ("int", -1), ("fraction",)]),
)


def _scale_entry(spec):
    kind = spec[0]
    if kind == "pow2":
        return mp.ldexp(mpf(1), spec[1])
    if kind == "real":
        return mp.ldexp(1 + mpf(spec[2]) / 3, spec[1])
    if kind == "complex":
        return mp.expj(spec[2]) * mp.ldexp(mpf(1), spec[1])
    return {"one": mpf(1), "zero": mpf(0), "czero": mpc(0), "inf": mpf("inf"),
            "nan": mpf("nan"), "fraction": Fraction(3, 2)}.get(kind, spec[-1])


@settings(max_examples=150)
@given(ambient=st.sampled_from([53, 2464]),
       prec=st.sampled_from([63, 300, 301, 2400, 2401]),
       power=st.sampled_from([1, 3, 10]),
       scale=st.lists(SCALE_ENTRIES, max_size=3),
       angle=st.floats(0, 6.3),
       shift=st.integers(-4, 4))
# a NaN entry makes every verdict False, before or after a Fraction, which
# alone is refused; 1e-100 is negligible at 300 bits against any finite scale
@example(ambient=53, prec=300, power=1, scale=[("nan",)], angle=0.0, shift=0)
@example(ambient=2464, prec=300, power=10, scale=[("fraction",), ("nan",)], angle=0.0, shift=0)
@example(ambient=2464, prec=300, power=1, scale=[("one",), ("nan",), ("fraction",)], angle=0.0, shift=0)
@example(ambient=53, prec=300, power=3, scale=[("fraction",)], angle=0.0, shift=0)
def test_negligible_matches_the_written_formula(ambient, prec, power, scale, angle, shift):
    # x runs over the threshold and the powers of two next to it, each
    # within 2 ulps, as a real, a negative, an imaginary and a complex
    # value at ``angle``; and over zero, infinities, NaN and non-mpmath x
    with mp.workprec(ambient):
        entries = [_scale_entry(spec) for spec in scale]
        xs = [mpf(0), mpc(0), mpf("inf"), -mpf("inf"), mpf("nan"), mpc(0, "inf"),
              0, Fraction(1, 2**400), mpf(1e-100)]
        try:
            threshold = tolerance(prec) * max([mpf(1)] + [abs(v) for v in entries]) ** power
        except TypeError:
            threshold = tolerance(prec)
        if threshold == mpf("inf"):
            threshold = tolerance(prec)
        pow2 = mp.ldexp(mpf(1), threshold.exp + threshold.bc - 1 + shift)
        turn = mp.expj(angle)
        for base in (threshold, pow2):
            for ulps in (-2, -1, 0, 1, 2):
                r = _near(base, ambient, ulps)
                xs += [r, -r, mpc(0, r), r * turn]
        for x in xs:
            want = _outcome(_written_negligible, x, prec, entries, power)
            assert _outcome(negligible, x, prec, entries, power) == want, (x, entries)
        if any(spec == ("nan",) for spec in scale):
            assert negligible(mpf(1e-100), prec, entries, power) is False


@pytest.mark.parametrize("scale, power", [((), 1), ((mpf(1),), 10), ((mpc(1, 1),), 3)])
def test_negligible_decides_a_complex_value_at_the_threshold(scale, power):
    # |x| is up to sqrt(2) times its larger part: a verdict read from the
    # exponents needs the margin to reach the written one
    with mp.workprec(AMBIENT):
        threshold = tolerance(300) * max(mpf(1), abs(scale[0]) if scale else 0) ** power
        for ulps in (-1, 0, 1):
            for turn in (mp.expj(mp.pi / 4), mp.expj(0.3), mp.expj(1.2)):
                x = _near(threshold, AMBIENT, ulps) * turn
                assert negligible(x, 300, scale, power) == _written_negligible(x, 300, scale, power)


# ---------------------------------------------------------------------------
# pivot choice: the first entry of largest rounded modulus
# ---------------------------------------------------------------------------


def _abs_pivot(zs, bits):
    """The oracle: ``max`` over the indices, keyed by ``abs`` at ``bits`` bits."""
    with mp.workprec(bits):
        return max(range(len(zs)), key=lambda i: abs(zs[i]))


def _variant(z, name, bits):
    """A value whose modulus ties or nearly ties |z| at ``bits`` bits."""
    with mp.workprec(bits):
        if name == "same":
            return z
        if name == "conj":
            return mp.conj(z)
        if name == "i":
            return mpc(-z.imag, z.real)
        if name == "neg":
            return -z
        if name == "zero":
            return mpc(0)
        if name == "real":
            return mpc(abs(z))
        if name == "imag":
            return mpc(0, -abs(z))
    sign, k = (1, name) if name > 0 else (-1, -name)
    with mp.workprec(bits + 8):
        scaled = z * (1 + sign * k * mp.ldexp(mpf(1), -bits))
    with mp.workprec(bits):
        return +scaled


VARIANTS = ["same", "conj", "i", "neg", "zero", "real", "imag", 1, -1, 2, -2, 3, -3]


@settings(max_examples=100)
@given(bits=st.sampled_from([364, 2464]),
       re=st.integers(1, 2**40), im=st.integers(0, 2**40), exp=st.integers(-40, 40),
       names=st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=10),
       others=st.lists(st.tuples(st.integers(-2**20, 2**20), st.integers(-2**20, 2**20)),
                       max_size=3))
def test_pivot_choice_matches_max_of_rounded_abs_on_near_ties(bits, re, im, exp, names, others):
    with mp.workprec(bits):
        # a base value with a full-width mantissa, so its variants round
        z = mpc(re, im) * (mp.sqrt(mpf(2)) + mp.pi * 1j) * mp.ldexp(mpf(1), exp)
        zs = [_variant(z, name, bits) for name in names]
        zs += [mpc(a, b) * mp.ldexp(mpf(1), exp) for a, b in others]
    assert first_largest_modulus([RoundedComplex.of(v, bits) for v in zs], bits) == _abs_pivot(zs, bits)


@pytest.mark.parametrize("bits", [364, 2464])
def test_pivot_choice_breaks_near_ties_like_max(bits, monkeypatch):
    with mp.workprec(bits):
        z = (mp.sqrt(mpf(2)) + mp.pi * 1j) * 128
        # one ulp more in a tiny imaginary part: a larger norm, the same rounded abs
        w = mpc(mp.sqrt(mpf(3)), mp.ldexp(mp.sqrt(mpf(5)), -40))
        w_up = mpc(w.real, _near(w.imag, bits, 1))
    columns = [
        [w, w_up],
        [w_up, w],
        [_variant(z, 1, bits), z, _variant(z, -1, bits)],
        [_variant(z, "real", bits), z, _variant(z, "i", bits)],
        [z, z, mp.conj(z)],                             # exact duplicates: the first wins
        [mpc(0), mpc(0)],
        [mpc(0), _variant(z, "neg", bits), z],
    ]
    for zs in columns:
        assert first_largest_modulus([RoundedComplex.of(v, bits) for v in zs], bits) == _abs_pivot(zs, bits)
    assert first_largest_modulus([RoundedComplex.of(w, bits), RoundedComplex.of(w_up, bits)], bits) == 0
    # equal exact norms: the rounded-abs comparison runs, and the first wins
    calls = []
    monkeypatch.setattr(exactnum, "mpc_abs", lambda *args: calls.append(args) or mpc_abs(*args))
    tied = [mpc(3, 4), mpc(5), mpc(0, -5), mpc(-4, 3)]
    with mp.workprec(bits):
        tiny = [v * mp.ldexp(1, -300) for v in tied]
    for zs in (tied[:3], tied[::-1], tiny, [tiny[2], mpc(0), tiny[0]]):
        calls.clear()
        got = first_largest_modulus([RoundedComplex.of(v, bits) for v in zs], bits)
        assert got == _abs_pivot(zs, bits) == 0
        assert len(calls) >= 2


@pytest.mark.parametrize("a, b, expected", [
    (mpf(8), mpf(2), mpf("0.75")),                # |8 - 2| / 8
    (mpf(2), mpf(8), mpf(3)),                     # relative to the first argument
    (mpf("0.5"), mpf(0), mpf("0.5")),             # below 1 the denominator is 1
    (mpc(3, 4), mpc(0, 0), mpf(1)),               # |3+4i| / |3+4i|
    (mpc(0, -8), mpc(0, -6), mpf("0.25")),        # |-2i| / 8
])
def test_relative_deviation_against_hand_computed_values(a, b, expected):
    with mp.workprec(AMBIENT):
        assert relative_deviation(a, b) == expected


# ---------------------------------------------------------------------------
# RoundedComplex: mpmath's mpc operators on int pairs
# ---------------------------------------------------------------------------


def _rounded_complex_operands(prec):
    """Sixty complex values, fixed per ``prec``: zero, real, imaginary and
    complex, complex with one part 2**-100 to 2**-(3 prec) of the other, and
    small Gaussian integers; one in four has parts of prec + 40 bits."""
    rng = random.Random(prec)

    def part(bits, shift=0):
        man = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        return from_man_exp(rng.choice([-1, 1]) * man, rng.randrange(-8, 8) - bits - shift)

    out = []
    for n in range(60):
        bits = prec + 40 if n % 4 == 3 else prec
        re, im = part(bits), part(bits)
        tiny = part(bits, rng.randrange(100, 3 * prec + 1))
        gauss = from_int(rng.randint(-3, 3)), from_int(rng.randint(-3, 3))
        # raw parts: the mpc constructor would round them at the ambient precision
        out.append(mp.make_mpc({0: (fzero, fzero), 1: (re, fzero), 2: (fzero, im), 3: (re, im),
                                4: (re, tiny), 5: (tiny, im), 6: gauss}[n % 7]))
    return out


def _takes_perturbed_path(s, t, prec):
    """Whether mpf_add(s, t, prec) moves the larger of two raw mpfs one unit
    instead of rounding the sum: tops more than prec + 4 and exponents more
    than 100 apart."""
    (_, sm, se, sb), (_, tm, te, tb) = s, t
    return bool(sm and tm) and (se - te > 100 and se + sb - te - tb > prec + 4
                                or te - se > 100 and te + tb - se - sb > prec + 4)


@pytest.mark.parametrize("prec", [300, 301, 555, 2464])
def test_rounded_complex_operators_round_as_mpc_operators(prec):
    values = _rounded_complex_operands(prec)
    rounded = [RoundedComplex.of(v, prec) for v in values]
    perturbed = 0

    def check(got, want, *case):
        assert isinstance(got, RoundedComplex) and got.prec == prec, case
        assert mpc(got)._mpc_ == want._mpc_, case

    assert any(mpc_to_pairs(v)[1][0].bit_length() > prec for v in values)
    with mp.workprec(prec):
        for x, rx in zip(values, rounded):
            assert mpc(rx)._mpc_ == x._mpc_
            check(-rx, -x, x)
            for n in (0, 1, -1, 240, -240):
                check(rx * n, x * n, x, n)
                check(n * rx, n * x, x, n)
                check(n + rx, n + x, x, n)
                check(rx + n, x + n, x, n)
            for y, ry in zip(values, rounded):
                check(rx + ry, x + y, x, y)
                check(rx - ry, x - y, x, y)
                check(rx * ry, x * y, x, y)
                (a, b), (c, d) = x._mpc_, y._mpc_
                perturbed += _takes_perturbed_path(mpf_mul(a, c), mpf_neg(mpf_mul(b, d)), prec)
                if y != 0:
                    check(rx / ry, x / y, x, y)
    assert perturbed > 100


@pytest.mark.parametrize("prec", [364, 2464])
def test_minus_product_rounds_as_mpc_sub_of_mpc_mul(prec):
    # x - a*b as mpc_sub(x, mpc_mul(a, b)): operands wider than prec, exact
    # zeros (x == a*b among them), and differences on mpf_add's perturbed path
    values = _rounded_complex_operands(prec)
    rng = random.Random(prec)
    triples = [[rng.choice(values) for _ in range(3)] for _ in range(3000)]
    triples += [[mp.make_mpc(mpc_mul(a._mpc_, b._mpc_, prec, round_nearest)), a, b]
                for _, a, b in triples[:100]]
    perturbed = cancelled = 0
    for x, a, b in triples:
        product = mpc_mul(a._mpc_, b._mpc_, prec, round_nearest)
        want = mpc_sub(x._mpc_, product, prec, round_nearest)
        got = RoundedComplex.of(x, prec).minus_product(RoundedComplex.of(a, prec),
                                                       RoundedComplex.of(b, prec))
        assert got.prec == prec and got._mpc_ == want, (x, a, b)
        perturbed += any(_takes_perturbed_path(s, mpf_neg(t), prec) for s, t in zip(x._mpc_, product))
        cancelled += want == (fzero, fzero) and x != 0
    assert perturbed > 100 and cancelled >= 50
    assert any(mpc_to_pairs(v)[0][0].bit_length() > prec for v in values)


@pytest.mark.parametrize("prec", [300, 2464])
def test_expansion_over_rounded_complex_is_the_one_over_mpc(prec):
    # ComplexPoly.from_roots against poly_from_roots over mpc at the working
    # precision, on the operands above and on rationals, which to_mpc rounds
    # to 8 bits more than the expansion keeps
    roots = _rounded_complex_operands(prec)[:15] + [Fraction(1, 3), -2, Fraction(5, 7)]
    work = prec + WORK_GUARD
    with mp.workprec(work):
        want = poly_from_roots([to_mpc(r, work) for r in roots], mpc(1))
    got = ComplexPoly.from_roots(roots, prec).coeffs
    assert [c._mpc_ for c in got] == [c._mpc_ for c in want]


# ---------------------------------------------------------------------------
# dyadic <-> rational conversions
# ---------------------------------------------------------------------------


def test_mpf_to_fraction_is_exact_on_dyadics():
    assert mpf_to_fraction(mpf("0.375")) == Fraction(3, 8)
    assert mpf_to_fraction(mpf(-5)) == Fraction(-5)
    assert mpf_to_fraction(mpf(0)) == Fraction(0)


@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
def test_non_finite_values_have_no_rational_value(text):
    # inf and NaN carry mantissa 0, which once read as the rational 0
    with pytest.raises(ValueError):
        mpf_to_fraction(mpf(text))
    with pytest.raises(ValueError):
        rational_reconstruct(mpf(text), 2**64, 300)
    with pytest.raises(ValueError):
        mpc_to_pairs(mpc(1, text))


@given(st.integers(-10**9, 10**9), st.integers(-40, 40))
def test_mpf_to_fraction_roundtrips_scaled_integers(n, e):
    x = mpf(n) * mpf(2) ** e
    assert mpf_to_fraction(x) == Fraction(n) * Fraction(2) ** e


def test_fraction_to_mpf_hits_requested_accuracy():
    x = fraction_to_mpf(Fraction(1, 3), 256)
    err = abs(mpf_to_fraction(x) - Fraction(1, 3))
    assert err < Fraction(1, 2**250)


def test_to_mpc_keeps_full_precision_at_ambient_context():
    # called at the default 53-bit ambient precision on purpose: conversions
    # must not re-round through the caller's context
    assert mp.prec <= 64
    z = to_mpc(Fraction(1, 3), 400)
    err = abs(mpf_to_fraction(z.real) - Fraction(1, 3))
    assert err < Fraction(1, 2**390)

    with mp.workprec(400):
        x = mpf(1) / 7
    w = to_mpc(x, 400)
    assert mpf_to_fraction(w.real) == mpf_to_fraction(x)


def test_to_mpc_passes_mpc_values_through_unchanged():
    with mp.workprec(400):
        z = mpc(mpf(1) / 3, mpf(1) / 7)
    back = to_mpc(z, 53)
    assert mpf_to_fraction(back.real) == mpf_to_fraction(z.real)
    assert mpf_to_fraction(back.imag) == mpf_to_fraction(z.imag)


def test_rounded_complex_of_an_int_of_prec_bits_makes_no_to_mpc_call(monkeypatch):
    # the same value as through to_mpc; an int wider than prec is still rounded by it
    small = [0, 1, -1, 6, -2**299 - 1, 2**300 - 1]
    wide = 2**400 + 1
    want = {n: to_mpc(n, 300)._mpc_ for n in small + [wide]}
    with monkeypatch.context() as patched:
        patched.setattr(exactnum, "to_mpc", lambda *args: pytest.fail("to_mpc was called"))
        for n in small:
            assert RoundedComplex.of(n, 300)._mpc_ == want[n]
    got = RoundedComplex.of(wide, 300)
    assert got._mpc_ == want[wide] and mpf_to_fraction(mp.make_mpf(got._mpc_[0])) != wide


def test_string_rendering_roundtrip_at_300_bits():
    x = fraction_to_mpf(Fraction(22, 7), 300)
    s = mpf_to_str(x, 300)
    y = str_to_mpf(s, 300)
    err = abs(mpf_to_fraction(x) - mpf_to_fraction(y))
    assert err < Fraction(1, 2**290)


def test_complex_pair_roundtrip():
    with mp.workprec(300):
        z = mpc(mpf(1) / 3, -mpf(2) / 7)
    pair = complex_to_pair(z, 300)
    assert isinstance(pair, list) and len(pair) == 2
    back = pair_to_complex(pair, 300)
    assert abs(mpf_to_fraction(back.real) - mpf_to_fraction(z.real)) < Fraction(1, 2**290)
    assert abs(mpf_to_fraction(back.imag) - mpf_to_fraction(z.imag)) < Fraction(1, 2**290)


# ---------------------------------------------------------------------------
# nullspace and determinants
# ---------------------------------------------------------------------------


def test_nullspace_of_identity_is_empty():
    assert nullspace(((1, 0), (0, 1))) == ()


def test_nullspace_of_rank_one_matrix():
    basis = nullspace(((1, 1), (2, 2)))
    assert basis == ((Fraction(1), Fraction(-1)),)


def test_nullspace_of_zero_matrix_is_standard_basis():
    basis = nullspace(((0, 0), (0, 0)))
    assert basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_nullspace_identifies_linear_over_constant_ratio():
    # rows (1, x, -c(x), -c(x) x) for c(x) = x at x = 1..4: the relation
    # P(x) = c(x) Q(x) with P = x, Q = 1 gives the single nullspace vector
    rows = [(1, x, -x, -(x * x)) for x in (1, 2, 3, 4)]
    basis = nullspace(rows)
    assert basis == ((Fraction(0), Fraction(1), Fraction(1), Fraction(0)),)


@given(
    st.lists(
        st.lists(small_rationals, min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_nullspace_vectors_annihilate_the_matrix(rows):
    for v in nullspace(rows):
        assert v[next(i for i, x in enumerate(v) if x != 0)] == 1
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_bareiss_det_known_values():
    assert bareiss_det(((2,),)) == 2
    assert bareiss_det(((1, 2), (3, 4))) == -2
    assert bareiss_det(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 0


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_bareiss_det_matches_fraction_elimination(rows):
    assert bareiss_det(rows) == field_det([[Fraction(x) for x in row] for row in rows])


def test_field_det_hilbert_3x3():
    h = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert field_det(h) == Fraction(1, 2160)


def test_field_det_refuses_a_nonzero_int_pivot():
    # 1 / pivot would turn the determinant into a float
    with pytest.raises(TypeError):
        field_det([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        field_det([[Fraction(1), 0], [0, 4]])   # the int 4 reaches the pivot
    # int zeros and nonzero ints off the pivots stay exact
    assert field_det([[0, Fraction(2)], [Fraction(3), 4]]) == -6
    assert field_det([[Fraction(1), 2], [3, 4]]) == Fraction(-2)


# ---------------------------------------------------------------------------
# rational reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_one_half():
    assert rational_reconstruct(mpf("0.5"), 10, 53) == Fraction(1, 2)


def test_reconstruct_one_third_from_128_bits():
    x = fraction_to_mpf(Fraction(1, 3), 128)
    assert rational_reconstruct(x, 10**6, 128) == Fraction(1, 3)


def test_reconstruct_prefers_simple_fraction_within_tolerance():
    with mp.workprec(160):
        x = mpf(2) + mpf(2) ** -100
    assert rational_reconstruct(x, 10**6, 128) == Fraction(2)


def test_reconstruct_returns_none_for_irrational_value():
    with mp.workprec(256):
        x = mp.sqrt(2)
        assert rational_reconstruct(x, 10**6, 256) is None


def test_reconstruct_accepts_exact_fraction_input():
    assert rational_reconstruct(Fraction(3, 7), 10, 53) == Fraction(3, 7)


@given(rationals.filter(lambda q: q.denominator <= 10**6))
def test_reconstruct_roundtrip_at_256_bits(q):
    x = fraction_to_mpf(q, 256)
    assert rational_reconstruct(x, 10**6, 256) == q


def test_reconstruct_respects_denominator_bound():
    x = fraction_to_mpf(Fraction(1, 101), 256)
    out = rational_reconstruct(x, 100, 256)
    assert out is None or out.denominator <= 100


def _fraction_walk(x: Fraction, denom_bound: int, prec: int):
    """The convergent walk with one Fraction per step: the oracle for
    ``rational_reconstruct``'s integer Euclid walk."""
    tol = Fraction(1, 2**(prec // 2))
    p_prev, q_prev = 1, 0
    p_cur, q_cur = x.numerator // x.denominator, 1
    rem = x - p_cur
    best = Fraction(p_cur, q_cur)
    while rem != 0:
        rem = 1 / rem
        a = rem.numerator // rem.denominator
        rem -= a
        p_nxt = a * p_cur + p_prev
        q_nxt = a * q_cur + q_prev
        if q_nxt > denom_bound:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
        best = Fraction(p_cur, q_cur)
        if best == x:
            break
    return best if abs(x - best) <= tol else None


@given(st.integers(-(10**60), 10**60), st.integers(1, 10**40),
       st.integers(1, 10**25), st.integers(2, 400))
def test_reconstruct_walk_matches_the_fraction_walk(num, den, bound, prec):
    x = Fraction(num, den)
    assert rational_reconstruct(x, bound, prec) == _fraction_walk(x, bound, prec)


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**20), st.integers(2, 400))
def test_reconstruct_walk_at_and_one_past_the_bound(num, den, prec):
    # an exact hit is returned when its denominator is the bound; one past
    # the bound it never is, and both walks give the same answer
    x = Fraction(num, den)
    q = x.denominator
    assert rational_reconstruct(x, q, prec) == x == _fraction_walk(x, q, prec)
    if q > 1:
        out = rational_reconstruct(x, q - 1, prec)
        assert out == _fraction_walk(x, q - 1, prec)
        assert out != x


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**6))
def test_reconstruct_walk_returns_integers_exactly(n, bound):
    x = Fraction(n)
    assert rational_reconstruct(x, bound, 53) == x == _fraction_walk(x, bound, 53)


@given(st.integers(-(2**200), 2**200), st.integers(-300, 0), st.integers(1, 2**100))
def test_reconstruct_walk_matches_the_fraction_walk_on_mpf(man, exp, bound):
    with mp.workprec(256):
        x = mp.ldexp(mpf(man), exp)
    assert rational_reconstruct(x, bound, 256) == _fraction_walk(mpf_to_fraction(x), bound, 256)


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------


def _coeff_close(poly, expected, prec):
    tol = tolerance(prec)
    with mp.workprec(prec + 64):
        cs = list(poly.coeffs) + [mpc(0)] * (len(expected) - len(poly.coeffs))
        for c, e in zip(cs, expected):
            if abs(c - mpc(e)) > tol * max(mpf(1), abs(mpc(e))):
                return False
    return True


def test_poly_mul_and_horner_are_exact_over_fractions_and_round_at_ambient_precision():
    u = [Fraction(1, 2), Fraction(-1), Fraction(3)]  # 1/2 - x + 3x^2
    v = [Fraction(2, 3), Fraction(1)]                # 2/3 + x
    assert poly_mul(u, v) == [Fraction(1, 3), Fraction(-1, 6), Fraction(1), Fraction(3)]
    x = Fraction(5, 7)
    assert horner(poly_mul(u, v), x) == horner(u, x) * horner(v, x)
    assert horner([], x) == 0
    with mp.workprec(200):
        third = mpc(1) / 3
    with mp.workprec(20):
        low = poly_mul([third], [mpc(1)])[0]
        assert horner([mpc(0), mpc(1)], third) == low
    with mp.workprec(200):
        assert poly_mul([third], [mpc(1)])[0] == third
        assert 0 < abs(low - third) < mpf(2) ** -20


# ---------------------------------------------------------------------------
# dense complex polynomials
# ---------------------------------------------------------------------------


def test_complexpoly_trims_exact_zero_leading_coefficients():
    p = ComplexPoly((1, 0, 0), 128)
    assert p.degree == 0
    assert ComplexPoly((0,), 128).degree == -1


def test_complexpoly_from_roots_and_deflate():
    q = ComplexPoly.from_roots((1, 2), 200)  # (x-1)(x-2)
    assert _coeff_close(q, (2, -3, 1), 200)
    assert _coeff_close(q.deflate(2), (-1, 1), 200)


def test_complexpoly_coefficients_multiply_with_poly_mul():
    a = ComplexPoly((1, 1), 200)   # 1 + x
    b = ComplexPoly((-1, 1), 200)  # -1 + x
    with mp.workprec(264):
        assert _coeff_close(ComplexPoly(poly_mul(a.coeffs, b.coeffs), 200), (-1, 0, 1), 200)


def test_poly_from_roots_is_exact_over_the_rationals():
    roots = [Fraction(1), Fraction(-2, 3), Fraction(5, 7), Fraction(1)]
    coeffs = poly_from_roots(roots, Fraction(1))
    assert coeffs == poly_mul(poly_mul([-1, 1], [Fraction(2, 3), 1]),
                              poly_mul([Fraction(-5, 7), 1], [-1, 1]))
    assert all(horner(coeffs, r) == 0 for r in roots)
    assert poly_from_roots([], Fraction(1)) == [1]
