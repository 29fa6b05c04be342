"""Symplectic 4x4 matrices over Z, level structure mod p, and coset data.

The standard symplectic form is the block matrix J = ((0, I2), (-I2, 0));
a matrix M is symplectic when M J M^T = J. Writing M in 2x2 blocks
((a, b), (c, d)), this is equivalent to a b^T and c d^T being symmetric
with a d^T - b c^T = I2 (row version), or to a^T c and b^T d being
symmetric with a^T d - c^T b = I2 (column version).

The congruence subgroup of interest consists of symplectic matrices whose
lower-left block c vanishes mod p. Its index in the full integer symplectic
group is (p^4 - 1)/(p - 1), which also counts the 2-dimensional isotropic
subspaces of F_p^4; both the plane enumeration and an explicit coset
transversal of that size are provided, together with a verifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]
Mat4 = Tuple[Tuple[int, int, int, int], ...]

J4: Mat4 = (
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0),
)

MAX_ENUM_P = 13


def _as_rows(matrix) -> Mat4:
    if isinstance(matrix, SymplecticMatrix):
        return matrix.rows
    rows = tuple(tuple(int(x) for x in row) for row in matrix)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("expected a 4x4 integer matrix")
    return rows


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Mat4:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def mat_transpose(a: Sequence[Sequence[int]]) -> Mat4:
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


def is_symplectic(matrix: Sequence[Sequence[int]]) -> bool:
    """Exact check of M J M^T = J for an arbitrary 4x4 integer matrix."""
    try:
        m = _as_rows(matrix)
    except ValueError:
        return False
    return mat_mul(mat_mul(m, J4), mat_transpose(m)) == J4


@dataclass(frozen=True)
class SymplecticMatrix:
    """An integer matrix satisfying M J M^T = J (validated on construction)."""

    rows: Mat4

    def __post_init__(self) -> None:
        rows = _as_rows(self.rows)
        object.__setattr__(self, "rows", rows)
        if not is_symplectic(rows):
            raise ValueError("matrix is not symplectic")

    @classmethod
    def from_blocks(cls, a: Mat2, b: Mat2, c: Mat2, d: Mat2) -> "SymplecticMatrix":
        rows = (
            (a[0][0], a[0][1], b[0][0], b[0][1]),
            (a[1][0], a[1][1], b[1][0], b[1][1]),
            (c[0][0], c[0][1], d[0][0], d[0][1]),
            (c[1][0], c[1][1], d[1][0], d[1][1]),
        )
        return cls(rows)

    def block(self, name: str) -> Mat2:
        i0 = 0 if name in ("a", "b") else 2
        j0 = 0 if name in ("a", "c") else 2
        r = self.rows
        return ((r[i0][j0], r[i0][j0 + 1]), (r[i0 + 1][j0], r[i0 + 1][j0 + 1]))

    @property
    def a(self) -> Mat2:
        return self.block("a")

    @property
    def b(self) -> Mat2:
        return self.block("b")

    @property
    def c(self) -> Mat2:
        return self.block("c")

    @property
    def d(self) -> Mat2:
        return self.block("d")

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return SymplecticMatrix(mat_mul(self.rows, other.rows))

    def inverse(self) -> "SymplecticMatrix":
        # M^-1 = -J M^T J for symplectic M
        mt = mat_transpose(self.rows)
        neg_j = tuple(tuple(-x for x in row) for row in J4)
        return SymplecticMatrix(mat_mul(mat_mul(neg_j, mt), J4))


IDENTITY = SymplecticMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
J_MATRIX = SymplecticMatrix(J4)


def in_gamma0(matrix: Sequence[Sequence[int]], p: int) -> bool:
    """Symplectic with lower-left block divisible by p."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if not is_symplectic(matrix):
        return False
    rows = _as_rows(matrix)
    return all(rows[i][j] % p == 0 for i in (2, 3) for j in (0, 1))


def gamma0_index(p: int) -> int:
    """Index of the level-p subgroup: (p^4 - 1)/(p - 1)."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return (p**4 - 1) // (p - 1)


# ---------------------------------------------------------------------------
# isotropic planes in F_p^4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotropicPlane:
    """A 2-dimensional J-isotropic subspace of F_p^4, basis in RREF."""

    p: int
    basis: Tuple[Tuple[int, int, int, int], Tuple[int, int, int, int]]


def symplectic_pairing(u: Sequence[int], v: Sequence[int], p: int) -> int:
    """u J v^T mod p."""
    total = 0
    for i in range(4):
        total += u[i] * sum(J4[i][j] * v[j] for j in range(4))
    return total % p


def enumerate_isotropic_planes(p: int) -> Tuple[IsotropicPlane, ...]:
    """All J-isotropic planes of F_p^4, one RREF basis each (p <= 13).

    Enumerates reduced row echelon forms of full-rank 2x4 matrices grouped
    by pivot-column pair; the plane is isotropic exactly when the two basis
    rows pair to zero, since the form is alternating.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if p > MAX_ENUM_P:
        raise ValueError(f"plane enumeration supported for p <= {MAX_ENUM_P}")
    planes: List[IsotropicPlane] = []
    for c1 in range(4):
        for c2 in range(c1 + 1, 4):
            free1 = [j for j in range(c1 + 1, 4) if j != c2]
            free2 = [j for j in range(c2 + 1, 4)]
            # row1 free entries range over free1; row2 over free2
            def fill(frees: List[int], values: Sequence[int], pivot: int) -> List[int]:
                row = [0, 0, 0, 0]
                row[pivot] = 1
                for col, val in zip(frees, values):
                    row[col] = val
                return row

            counts1 = p ** len(free1)
            counts2 = p ** len(free2)
            for n1 in range(counts1):
                vals1 = []
                t = n1
                for _ in free1:
                    vals1.append(t % p)
                    t //= p
                row1 = fill(free1, vals1, c1)
                row1[c2] = 0
                for n2 in range(counts2):
                    vals2 = []
                    t = n2
                    for _ in free2:
                        vals2.append(t % p)
                        t //= p
                    row2 = fill(free2, vals2, c2)
                    if symplectic_pairing(row1, row2, p) == 0:
                        planes.append(IsotropicPlane(p, (tuple(row1), tuple(row2))))
    return tuple(planes)


# ---------------------------------------------------------------------------
# coset transversal of the level-p subgroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetSet:
    """A claimed right-coset transversal for the level-p subgroup."""

    p: int
    members: Tuple[SymplecticMatrix, ...]


@dataclass(frozen=True)
class CosetReport:
    p: int
    expected: int
    count: int
    all_symplectic: bool
    pairwise_inequivalent: bool
    offending_pair: Optional[Tuple[int, int]]

    @property
    def ok(self) -> bool:
        return (
            self.count == self.expected
            and self.all_symplectic
            and self.pairwise_inequivalent
        )


def coset_representatives(p: int) -> CosetSet:
    """Explicit transversal of size p^3 + p^2 + p + 1 for the level-p subgroup.

    Four families, in deterministic order:

    1. ((I, 0), (S, I)) for symmetric S mod p               [p^3 members]
    2. ((0, -I), (I, S)) for symmetric S with det S = 0 mod p  [p^2 members]
    3. a sparse family indexed by one residue                [p members]
    4. a single extra matrix                                 [1 member]
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    members: List[SymplecticMatrix] = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                members.append(SymplecticMatrix((
                    (1, 0, 0, 0),
                    (0, 1, 0, 0),
                    (a, b, 1, 0),
                    (b, c, 0, 1),
                )))
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if (a * c - b * b) % p == 0:
                    members.append(SymplecticMatrix((
                        (0, 0, -1, 0),
                        (0, 0, 0, -1),
                        (1, 0, a, b),
                        (0, 1, b, c),
                    )))
    for a in range(p):
        members.append(SymplecticMatrix((
            (1, 0, 0, 0),
            (0, 0, 0, -1),
            (0, 0, 1, a),
            (-a, 1, 0, 0),
        )))
    members.append(SymplecticMatrix((
        (-1, -1, 1, -1),
        (0, 0, -1, 1),
        (0, 0, 0, -1),
        (1, 0, 0, -1),
    )))
    return CosetSet(p, tuple(members))


def verify_coset_set(cs: CosetSet) -> CosetReport:
    """Certify a transversal: count, symplecticity, pairwise inequivalence.

    Two members M, N represent the same right coset exactly when M N^-1
    lies in the level-p subgroup; the report pinpoints the first offending
    pair. Non-symplectic members raise ValueError.
    """
    p = cs.p
    expected = gamma0_index(p)
    for i, m in enumerate(cs.members):
        if not is_symplectic(m.rows):
            raise ValueError(f"member {i} is not symplectic")
    inverses = [m.inverse() for m in cs.members]
    offending = None
    n = len(cs.members)
    for i in range(n):
        for j in range(i + 1, n):
            prod = mat_mul(cs.members[i].rows, inverses[j].rows)
            if all(prod[r][c] % p == 0 for r in (2, 3) for c in (0, 1)):
                offending = (i, j)
                break
        if offending:
            break
    return CosetReport(
        p=p,
        expected=expected,
        count=n,
        all_symplectic=True,
        pairwise_inequivalent=offending is None,
        offending_pair=offending,
    )


# ---------------------------------------------------------------------------
# the level-lowering conjugate
# ---------------------------------------------------------------------------


def lemma41_conjugate(m: SymplecticMatrix, p: int) -> SymplecticMatrix:
    """For M = ((a, b), (c, d)) with c = p c', the matrix ((a, p b), (c', d)).

    This is the conjugate of M by diag(1, 1, p, p)/~ scaling: it is again
    symplectic, and its action on the Siegel space satisfies
    p (M tau) = B (p tau). Requires M in the level-p subgroup.
    """
    if not in_gamma0(m.rows, p):
        raise ValueError("matrix is not in the level-p subgroup")
    a, b, c, d = m.a, m.b, m.c, m.d
    pb = tuple(tuple(p * x for x in row) for row in b)
    cp = tuple(tuple(x // p for x in row) for row in c)
    return SymplecticMatrix.from_blocks(a, pb, cp, d)


# ---------------------------------------------------------------------------
# random elements (for property tests and verification commands)
# ---------------------------------------------------------------------------


def _translation(s: Mat2) -> SymplecticMatrix:
    return SymplecticMatrix((
        (1, 0, s[0][0], s[0][1]),
        (0, 1, s[0][1], s[1][1]),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ))


def _lower(s: Mat2, p: int = 1) -> SymplecticMatrix:
    return SymplecticMatrix((
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (p * s[0][0], p * s[0][1], 1, 0),
        (p * s[0][1], p * s[1][1], 0, 1),
    ))


def _gl_embed(u: Mat2) -> SymplecticMatrix:
    det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
    if det not in (1, -1):
        raise ValueError("GL2(Z) block must have determinant +-1")
    inv_t = (
        (u[1][1] * det, -u[1][0] * det),
        (-u[0][1] * det, u[0][0] * det),
    )
    return SymplecticMatrix((
        (u[0][0], u[0][1], 0, 0),
        (u[1][0], u[1][1], 0, 0),
        (0, 0, inv_t[0][0], inv_t[0][1]),
        (0, 0, inv_t[1][0], inv_t[1][1]),
    ))


def _random_sym(rng: random.Random, span: int = 2) -> Mat2:
    a = rng.randint(-span, span)
    b = rng.randint(-span, span)
    c = rng.randint(-span, span)
    return ((a, b), (b, c))


def _random_gl(rng: random.Random) -> Mat2:
    k = rng.randint(-2, 2)
    choice = rng.randrange(4)
    if choice == 0:
        return ((1, k), (0, 1))
    if choice == 1:
        return ((1, 0), (k, 1))
    if choice == 2:
        return ((0, 1), (1, 0))
    return ((-1, 0), (0, 1))


def random_symplectic(rng: random.Random) -> SymplecticMatrix:
    """A pseudorandom symplectic matrix as a word of ten generators."""
    m = IDENTITY
    for _ in range(10):
        choice = rng.randrange(3)
        if choice == 0:
            g = _translation(_random_sym(rng))
        elif choice == 1:
            g = J_MATRIX
        else:
            g = _gl_embed(_random_gl(rng))
        m = m @ g
    return m


def random_gamma0(rng: random.Random, p: int) -> SymplecticMatrix:
    """A pseudorandom member of the level-p subgroup (a word of ten generators)."""
    m = IDENTITY
    for _ in range(10):
        choice = rng.randrange(3)
        if choice == 0:
            g = _translation(_random_sym(rng))
        elif choice == 1:
            g = _lower(_random_sym(rng, span=1), p)
        else:
            g = _gl_embed(_random_gl(rng))
        m = m @ g
    return m
