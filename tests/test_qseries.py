"""Truncated three-variable Fourier expansions supported on the cone."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2modpoly.qseries import (
    CHI10_NORMALIZATION,
    CHI12_NORMALIZATION,
    FourierSeries,
    NotAUnitError,
    NotCuspNormalizedError,
    cone_indices,
    cone_valid,
    fit_coefficients,
    is_cusp_normalized,
    koecher_check,
    laurent_quotient,
    load_series,
    save_series,
    series_invert,
    series_mul,
)

F = Fraction

cone_index = st.sampled_from(sorted(cone_indices(5)))
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def series_strategy(order=5, max_terms=6):
    return st.dictionaries(cone_index, coefficients, max_size=max_terms).map(
        lambda terms: FourierSeries(terms, order)
    )


def one(order=6):
    return FourierSeries({(0, 0, 0): 1}, order)


def cusp_monomial(order=6):
    return FourierSeries({(1, 1, 1): 1}, order)


# ---------------------------------------------------------------------------
# cone support
# ---------------------------------------------------------------------------


def test_cone_examples():
    assert cone_valid((1, 1, 1))
    assert cone_valid((1, 2, 1))  # boundary: 4km - l^2 = 0
    assert cone_valid((0, 0, 0))
    assert not cone_valid((0, 1, 0))
    assert not cone_valid((-1, 0, 1))
    assert not cone_valid((1, 3, 1))


def test_koecher_check_ignores_zero_coefficients():
    assert koecher_check({(1, 1, 1): F(2)})
    assert koecher_check({(0, 1, 0): F(0), (2, 0, 0): F(1)})
    assert not koecher_check({(0, 1, 0): F(1)})


def test_cone_indices_complete_and_valid():
    idx = list(cone_indices(3))
    assert len(idx) == len(set(idx))
    for i in idx:
        assert cone_valid(i)
        assert i[0] + i[2] <= 3
    # independently: count all cone members with k + m <= 3
    count = 0
    for k in range(4):
        for m in range(4 - k):
            for l in range(-20, 21):
                if l * l <= 4 * k * m:
                    count += 1
    assert len(idx) == count


def test_constructor_rejects_cone_violations_and_order_overflow():
    with pytest.raises(ValueError):
        FourierSeries({(0, 1, 0): F(1)}, 5)
    with pytest.raises(ValueError):
        FourierSeries({(4, 0, 3): F(1)}, 5)
    with pytest.raises(ValueError):
        FourierSeries({(0, 0, 0): F(1)}, -1)


@given(series_strategy())
def test_indices_always_cone_supported(s):
    assert koecher_check(s.terms)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_multiplicative_identity():
    s = FourierSeries({(1, 1, 1): F(3), (2, 0, 0): F(-1, 2)}, 6)
    assert series_mul(s, one()).terms == s.terms


def test_square_of_cusp_monomial():
    sq = series_mul(cusp_monomial(), cusp_monomial())
    assert dict(sq.terms) == {(2, 2, 2): F(1)}
    assert sq.shift == 0


@given(series_strategy(), series_strategy())
def test_multiplication_matches_naive_convolution(a, b):
    prod = series_mul(a, b)
    expected = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx = (ia[0] + ib[0], ia[1] + ib[1], ia[2] + ib[2])
            if idx[0] + idx[2] <= prod.order:
                expected[idx] = expected.get(idx, F(0)) + ca * cb
    expected = {k: v for k, v in expected.items() if v != 0}
    assert dict(prod.terms) == expected


@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_laws(a, b, c):
    assert dict(series_mul(a, b).terms) == dict(series_mul(b, a).terms)
    left = series_mul(series_mul(a, b), c)
    right = series_mul(a, series_mul(b, c))
    assert dict(left.terms) == dict(right.terms)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_inverse_of_one_is_one():
    inv = series_invert(one())
    assert dict(inv.terms) == {(0, 0, 0): F(1)}


def test_inverse_of_one_minus_q1_is_geometric():
    s = FourierSeries({(0, 0, 0): F(1), (1, 0, 0): F(-1)}, 6)
    inv = series_invert(s)
    for k in range(7):
        assert inv.coefficient((k, 0, 0)) == F(1)
    prod = series_mul(s, inv)
    assert dict(prod.terms) == {(0, 0, 0): F(1)}


def test_inversion_requires_a_unit():
    with pytest.raises(NotAUnitError):
        series_invert(cusp_monomial())
    with pytest.raises(NotAUnitError):
        series_invert(FourierSeries({(0, 0, 0): F(1)}, 6, shift=1))


@given(
    st.dictionaries(cone_index, coefficients, max_size=5),
    st.sampled_from([F(1), F(-1), F(2), F(1, 3), F(-5, 2)]),
)
def test_inverse_times_series_is_one(terms, c0):
    terms = dict(terms)
    terms[(0, 0, 0)] = c0
    s = FourierSeries(terms, 5)
    prod = series_mul(s, series_invert(s))
    assert dict(prod.terms) == {(0, 0, 0): F(1)}


# ---------------------------------------------------------------------------
# cusp normalization and Laurent quotients
# ---------------------------------------------------------------------------


def test_cusp_normalization_examples():
    assert is_cusp_normalized(cusp_monomial())
    good = FourierSeries({(1, 1, 1): F(1), (2, 1, 1): F(-1)}, 6)
    assert is_cusp_normalized(good)
    assert not is_cusp_normalized(one())
    doubled = FourierSeries({(1, 1, 1): F(2)}, 6)
    assert not is_cusp_normalized(doubled)
    stray = FourierSeries({(1, 1, 1): F(1), (1, 0, 1): F(1)}, 6)
    assert not is_cusp_normalized(stray)
    shifted = FourierSeries({(1, 1, 1): F(1)}, 6, shift=1)
    assert not is_cusp_normalized(shifted)


def test_quotient_of_cusp_by_itself_is_one_with_shift():
    q = laurent_quotient(cusp_monomial(), cusp_monomial())
    assert q.shift == 1
    assert dict(q.terms) == {(1, 1, 1): F(1)}


def test_quotient_by_cusp_with_unit_tail_is_geometric():
    cusp = FourierSeries({(1, 1, 1): F(1), (2, 1, 1): F(-1)}, 8)
    q = laurent_quotient(one(8), cusp)
    assert q.shift == 1
    for k in range(q.order + 1):
        assert q.coefficient((k, 0, 0)) == F(1)


def test_quotient_roundtrip_recovers_numerator():
    cusp = FourierSeries({(1, 1, 1): F(1), (2, 1, 1): F(-3), (2, 2, 2): F(1, 2)}, 9)
    num = FourierSeries({(0, 0, 0): F(2), (1, 1, 1): F(-1), (1, 0, 0): F(5)}, 9)
    for power in (1, 2):
        q = laurent_quotient(num, cusp, power)
        assert q.shift == power
        back = q
        for _ in range(power):
            back = series_mul(back, cusp)
        # the product has shift = power; stored indices carry an extra
        # (power, power, power) relative to the numerator's stored indices
        assert back.shift == power
        d = power
        for (k, l, m), cval in back.terms.items():
            assert num.coefficient((k - d, l - d, m - d)) == cval
        for (k, l, m), cval in num.terms.items():
            if (k + d) + (m + d) <= back.order:
                assert back.coefficient((k + d, l + d, m + d)) == cval


def test_quotient_validates_inputs():
    with pytest.raises(NotCuspNormalizedError):
        laurent_quotient(one(), FourierSeries({(1, 1, 1): F(2)}, 6))
    with pytest.raises(ValueError):
        laurent_quotient(one(), cusp_monomial(), power=0)
    with pytest.raises(ValueError):
        laurent_quotient(one(), FourierSeries({(1, 1, 1): F(1)}, 1))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_series_file_roundtrip(tmp_path):
    s = FourierSeries({(1, 1, 1): F(1), (2, 1, 1): F(-7, 3)}, 7, shift=2)
    path = tmp_path / "s.series"
    save_series(s, str(path))
    t = load_series(str(path))
    assert dict(t.terms) == dict(s.terms)
    assert t.order == s.order
    assert t.shift == s.shift


def test_series_file_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.series"
    path.write_text(
        "# a comment\norder 5\nshift 0\n\n0 0 0 3/2\n1 0 0 -1  # inline note\n"
    )
    s = load_series(str(path))
    assert s.coefficient((0, 0, 0)) == F(3, 2)
    assert s.coefficient((1, 0, 0)) == F(-1)


def test_series_file_rejects_duplicates_and_missing_order(tmp_path):
    dup = tmp_path / "dup.series"
    dup.write_text("order 5\n0 0 0 1\n0 0 0 2\n")
    with pytest.raises(ValueError):
        load_series(str(dup))
    missing = tmp_path / "missing.series"
    missing.write_text("0 0 0 1\n")
    with pytest.raises(ValueError):
        load_series(str(missing))


# ---------------------------------------------------------------------------
# exact coefficient identification
# ---------------------------------------------------------------------------


def test_fit_single_unknown():
    assert fit_coefficients([[1]], [3]) == (F(3),)


def test_fit_recovers_linear_recurrence_homogeneously():
    # u_k = 2^k satisfies u_k - 2 u_{k-1} = 0
    rows = [[2, 1], [4, 2], [8, 4]]
    assert fit_coefficients(rows) == (F(1), F(-2))


def test_fit_affine_unique_solution():
    rows = [[1, 1], [1, -1]]
    rhs = [3, 1]
    assert fit_coefficients(rows, rhs) == (F(2), F(1))


def test_fit_inconsistent_system_raises():
    with pytest.raises(ValueError):
        fit_coefficients([[1], [1]], [1, 2])


def test_fit_underdetermined_returns_none():
    assert fit_coefficients([[1, 1]], [2]) is None
    assert fit_coefficients([[1, 1, 1], [2, 2, 2]]) is None


def test_fit_identifies_series_relation_end_to_end():
    # build u = (1 - 2 q1)^-1 and identify the annihilating relation from
    # its coefficient stream
    s = FourierSeries({(0, 0, 0): F(1), (1, 0, 0): F(-2)}, 6)
    u = series_invert(s)
    stream = [u.coefficient((k, 0, 0)) for k in range(5)]
    rows = [[stream[k], stream[k - 1]] for k in range(1, 5)]
    assert fit_coefficients(rows) == (F(1), F(-2))


# ---------------------------------------------------------------------------
# normalization constants
# ---------------------------------------------------------------------------


def test_weight_ten_and_twelve_normalizations():
    assert CHI10_NORMALIZATION == F(-43867, 2**12 * 3**5 * 5**2 * 7 * 53)
    assert CHI12_NORMALIZATION == F(131 * 593, 2**13 * 3**7 * 5**3 * 7**2 * 337)
