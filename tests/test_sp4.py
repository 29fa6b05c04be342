"""Integer symplectic group: membership, level structure, cosets, conjugation."""

import random

import pytest

from g2modpoly.sp4 import (
    IDENTITY,
    J4,
    J_MATRIX,
    MAX_ENUM_P,
    CosetSet,
    SymplecticMatrix,
    coset_representatives,
    enumerate_isotropic_planes,
    gamma0_index,
    in_gamma0,
    is_symplectic,
    lemma41_conjugate,
    mat_mul,
    random_gamma0,
    random_symplectic,
    symplectic_pairing,
    verify_coset_set,
)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_identity_and_standard_form_are_symplectic():
    assert is_symplectic(IDENTITY.rows)
    assert is_symplectic(J4)


def test_shifted_identity_is_not_symplectic():
    m = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert not is_symplectic(m)


def test_malformed_matrices_are_rejected_not_crashed():
    assert not is_symplectic(((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        SymplecticMatrix(((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_thousand_random_products_stay_symplectic():
    rng = random.Random(12345)
    for _ in range(1000):
        m = random_symplectic(rng)
        assert is_symplectic(m.rows)


def test_thousand_pairing_violations_fail_membership():
    # doubling one row forces its pairing with the partner row to +-2,
    # so the result is never symplectic
    rng = random.Random(54321)
    for _ in range(1000):
        m = [list(row) for row in random_symplectic(rng).rows]
        i = rng.randrange(4)
        m[i] = [2 * x for x in m[i]]
        assert not is_symplectic(m)


def test_inverse_and_product_are_exact():
    rng = random.Random(7)
    for _ in range(100):
        m = random_symplectic(rng)
        assert (m @ m.inverse()).rows == IDENTITY.rows


# ---------------------------------------------------------------------------
# the level subgroup
# ---------------------------------------------------------------------------


def test_in_gamma0_examples():
    for p in (2, 3, 5):
        assert in_gamma0(IDENTITY.rows, p)
        assert not in_gamma0(J_MATRIX.rows, p)
    lower = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))
    assert is_symplectic(lower)
    assert not in_gamma0(lower, 2)
    scaled = ((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 1))
    assert in_gamma0(scaled, 2)
    assert not in_gamma0(scaled, 3)


def test_in_gamma0_requires_p_at_least_two():
    with pytest.raises(ValueError):
        in_gamma0(IDENTITY.rows, 1)


def test_gamma0_index_values():
    assert gamma0_index(2) == 15
    assert gamma0_index(3) == 40
    assert gamma0_index(5) == 156
    for p in (2, 3, 5, 7, 11, 13):
        assert gamma0_index(p) == p**3 + p**2 + p + 1


# ---------------------------------------------------------------------------
# isotropic planes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,count", [(2, 15), (3, 40), (5, 156)])
def test_plane_counts(p, count):
    assert len(enumerate_isotropic_planes(p)) == count


def test_plane_count_matches_subgroup_index_up_to_the_enum_limit():
    for p in (2, 3, 5, 7, 11, 13):
        assert len(enumerate_isotropic_planes(p)) == gamma0_index(p)


def test_planes_are_isotropic_and_distinct():
    for p in (2, 3):
        planes = enumerate_isotropic_planes(p)
        spans = set()
        for plane in planes:
            u, v = plane.basis
            assert symplectic_pairing(u, v, p) == 0
            span = frozenset(
                tuple((a * x + b * y) % p for x, y in zip(u, v))
                for a in range(p)
                for b in range(p)
            )
            assert len(span) == p * p
            spans.add(span)
        assert len(spans) == len(planes)


def test_each_plane_contains_p_plus_one_lines():
    for p in (2, 3):
        for plane in enumerate_isotropic_planes(p):
            u, v = plane.basis
            lines = set()
            for a in range(p):
                for b in range(p):
                    if a == b == 0:
                        continue
                    w = tuple((a * x + b * y) % p for x, y in zip(u, v))
                    line = frozenset(tuple((t * c) % p for c in w) for t in range(1, p))
                    lines.add(line)
            assert len(lines) == p + 1


def test_plane_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_isotropic_planes(1)
    with pytest.raises(ValueError):
        enumerate_isotropic_planes(MAX_ENUM_P + 4)


# ---------------------------------------------------------------------------
# coset transversals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coset_transversal_is_certified(p):
    cs = coset_representatives(p)
    assert len(cs.members) == gamma0_index(p)
    report = verify_coset_set(cs)
    assert report.ok
    assert report.offending_pair is None


def test_verify_flags_equivalent_members():
    cs = coset_representatives(2)
    gamma = SymplecticMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 1)))
    members = (cs.members[0], gamma @ cs.members[0]) + cs.members[2:]
    report = verify_coset_set(CosetSet(2, members))
    assert not report.ok
    assert report.offending_pair == (0, 1)


def test_verify_rejects_non_symplectic_member():
    cs = coset_representatives(2)

    class Fake:
        rows = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

        def inverse(self):  # pragma: no cover - never reached
            return self

    with pytest.raises(ValueError):
        verify_coset_set(CosetSet(2, (Fake(),) + cs.members[1:]))


# ---------------------------------------------------------------------------
# the level-lowering conjugate
# ---------------------------------------------------------------------------


def test_conjugate_of_identity_is_identity():
    for p in (2, 3, 5):
        assert lemma41_conjugate(IDENTITY, p).rows == IDENTITY.rows


def test_conjugate_scales_translation_block():
    b = ((1, 2), (2, 3))
    m = SymplecticMatrix(((1, 0, 1, 2), (0, 1, 2, 3), (0, 0, 1, 0), (0, 0, 0, 1)))
    for p in (2, 3, 5):
        out = lemma41_conjugate(m, p)
        assert out.a == ((1, 0), (0, 1))
        assert out.b == tuple(tuple(p * x for x in row) for row in b)
        assert out.c == ((0, 0), (0, 0))
        assert out.d == ((1, 0), (0, 1))


def test_conjugate_requires_membership():
    with pytest.raises(ValueError):
        lemma41_conjugate(J_MATRIX, 2)


def test_conjugate_of_random_members_is_symplectic_with_divided_blocks():
    rng = random.Random(4242)
    for p in (2, 3, 5):
        for _ in range(50):
            m = random_gamma0(rng, p)
            out = lemma41_conjugate(m, p)  # constructor revalidates
            assert is_symplectic(out.rows)
            assert out.a == m.a
            assert out.d == m.d
            assert out.b == tuple(tuple(p * x for x in row) for row in m.b)
            assert m.c == tuple(tuple(p * x for x in row) for row in out.c)


def test_random_gamma0_stays_in_subgroup():
    rng = random.Random(10)
    for p in (2, 3, 5):
        for _ in range(50):
            assert in_gamma0(random_gamma0(rng, p).rows, p)


def test_mat_mul_is_plain_integer_matrix_product():
    a = ((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    b = ((1, 0, 0, 0), (3, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert mat_mul(a, b)[0] == (7, 2, 0, 0)
