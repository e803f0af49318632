"""Dense square matrices over the hyperbolic-complex scalars.

Provides the 2x2 Pauli matrices, the fifteen 4x4 Pauli matrices built as
Kronecker products, and the signed antisymmetric lookup assigning a 4x4
Pauli matrix to every ordered index pair (a, b) with 0 <= a, b <= 5.  The
fifteen matrices are constructed twice, once by tensor product and once
from hard-coded entry tables, and the two constructions are asserted equal
at import of the table so transcription and construction errors surface
against each other.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .scalars import BackendMismatch, HScalar

__all__ = [
    "SingularMatrix",
    "HMatrix",
    "kron",
    "commutator",
    "pauli2",
    "pauli4",
    "pauli4_literal",
    "sigma_ab",
    "sigma_ab_entry",
    "SIGMA_AB_INDEX",
]


class SingularMatrix(ArithmeticError):
    """Raised when elimination cannot find an invertible pivot."""


class HMatrix:
    """Immutable square matrix with :class:`HScalar` entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.rows = rows

    # -- construction ----------------------------------------------------

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "HMatrix":
        one = HScalar.one(exact)
        zero = HScalar.zero(exact)
        return cls([[one if r == c else zero for c in range(n)] for r in range(n)])

    @classmethod
    def zeros(cls, n: int, exact: bool = True) -> "HMatrix":
        zero = HScalar.zero(exact)
        return cls([[zero] * n for _ in range(n)])

    @classmethod
    def from_real_coords(cls, coords) -> "HMatrix":
        """Inverse of :meth:`real_coords`: 4 real coefficients per entry,
        row-major."""
        q = len(coords)
        n = math.isqrt(q // 4)
        if 4 * n * n != q:
            raise ValueError("coordinate count is not 4 times a square")
        return cls(
            [
                [HScalar(coords[k], coords[k + 1], coords[k + 2], coords[k + 3]) for k in range(r, r + 4 * n, 4)]
                for r in range(0, q, 4 * n)
            ]
        )

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_exact(self) -> bool:
        return self.rows[0][0].is_exact

    def entry(self, r: int, c: int) -> HScalar:
        return self.rows[r][c]

    def to_float(self) -> "HMatrix":
        return HMatrix([[z.to_float() for z in row] for row in self.rows])

    # -- algebra -----------------------------------------------------------

    def _same_shape(self, other: "HMatrix"):
        if not isinstance(other, HMatrix) or other.n != self.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "HMatrix") -> "HMatrix":
        self._same_shape(other)
        return HMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "HMatrix") -> "HMatrix":
        self._same_shape(other)
        return HMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "HMatrix":
        return HMatrix([[-a for a in row] for row in self.rows])

    def __matmul__(self, other: "HMatrix") -> "HMatrix":
        self._same_shape(other)
        zero = HScalar.zero(self.is_exact)
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            line = []
            for col in cols:
                acc = None
                for a, b in zip(row, col):
                    if a.is_zero or b.is_zero:
                        continue
                    acc = a * b if acc is None else acc + a * b
                line.append(zero if acc is None else acc)
            out.append(line)
        return HMatrix(out)

    def scale(self, z) -> "HMatrix":
        if not isinstance(z, HScalar):
            z = HScalar.make(z, exact=self.is_exact)
        return HMatrix([[z * a for a in row] for row in self.rows])

    def __mul__(self, z):
        return self.scale(z)

    __rmul__ = __mul__

    def adjoint(self) -> "HMatrix":
        """Conjugate transpose with scalar conjugation i -> -i, j -> -j."""
        return HMatrix([[z.conjugate() for z in col] for col in zip(*self.rows)])

    def trace(self) -> HScalar:
        acc = self.rows[0][0]
        for k in range(1, self.n):
            acc = acc + self.rows[k][k]
        return acc

    def inverse(self) -> "HMatrix":
        """Gauss-Jordan elimination over the scalar ring.

        The ring has zero divisors, so pivots are selected by the
        quadratic-form modulus N(z) rather than naive magnitude: exact
        backend takes the first invertible entry, float backend the entry
        of largest modulus.
        """
        n = self.n
        a = [list(row) for row in self.rows]
        idm = HMatrix.identity(n, exact=self.is_exact)
        b = [list(row) for row in idm.rows]
        for col in range(n):
            pick, best = None, 0
            for r in range(col, n):
                m = a[r][col].modulus()
                if self.is_exact:
                    if m != 0:
                        pick = r
                        break
                elif m > best:
                    pick, best = r, m
            if pick is None or (not self.is_exact and best == 0):
                raise SingularMatrix("no invertible pivot (zero-divisor column)")
            a[col], a[pick] = a[pick], a[col]
            b[col], b[pick] = b[pick], b[col]
            inv_p = a[col][col].invert()
            a[col] = [inv_p * z for z in a[col]]
            b[col] = [inv_p * z for z in b[col]]
            for r in range(n):
                if r == col:
                    continue
                f = a[r][col]
                if f.abs_max() == 0:
                    continue
                a[r] = [z - f * p for z, p in zip(a[r], a[col])]
                b[r] = [z - f * p for z, p in zip(b[r], b[col])]
        return HMatrix(b)

    # -- comparison and norms ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def max_abs(self) -> float:
        return max(z.abs_max() for row in self.rows for z in row)

    def is_close(self, other: "HMatrix", tol: float = 1e-12) -> bool:
        self._same_shape(other)
        return (self - other).max_abs() <= tol

    def real_coords(self):
        """All real coefficients, row-major, 4 per entry."""
        out = []
        for row in self.rows:
            for z in row:
                out.extend(z.coeffs())
        return tuple(out)

    @staticmethod
    def real_pairing(a: "HMatrix", b: "HMatrix"):
        """Euclidean pairing of the real coefficient vectors."""
        total = None
        for ra, rb in zip(a.rows, b.rows):
            for za, zb in zip(ra, rb):
                t = za.x * zb.x + za.y * zb.y + za.v * zb.v + za.w * zb.w
                total = t if total is None else total + t
        return total

    def __repr__(self):
        body = "; ".join(", ".join(str(z) for z in row) for row in self.rows)
        return f"HMatrix[{body}]"


def kron(a: HMatrix, b: HMatrix) -> HMatrix:
    """Kronecker product; a's (1,1) entry scales b into the top-left block."""
    if a.is_exact != b.is_exact:
        raise BackendMismatch("mixed backends in tensor product")
    na, nb = a.n, b.n
    rows = []
    for ra in range(na):
        for rb in range(nb):
            rows.append(
                [a.rows[ra][ca] * b.rows[rb][cb] for ca in range(na) for cb in range(nb)]
            )
    return HMatrix(rows)


def commutator(a: HMatrix, b: HMatrix) -> HMatrix:
    return a @ b - b @ a


# -- Pauli matrices -----------------------------------------------------------

def _h(x=0, y=0):
    return HScalar.exact(x, y)


@lru_cache(maxsize=None)
def pauli2(i: int) -> HMatrix:
    """The 2x2 Pauli matrices, exact backend."""
    if i == 1:
        return HMatrix([[_h(0), _h(1)], [_h(1), _h(0)]])
    if i == 2:
        return HMatrix([[_h(0), _h(0, -1)], [_h(0, 1), _h(0)]])
    if i == 3:
        return HMatrix([[_h(1), _h(0)], [_h(0), _h(-1)]])
    raise ValueError("pauli2 index must be 1, 2 or 3")


# Entry tables for the fifteen 4x4 matrices; 1j marks an i-coefficient.
_LITERALS = {
    1: [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    2: [[0, 0, -1j, 0], [0, 0, 0, -1j], [1j, 0, 0, 0], [0, 1j, 0, 0]],
    3: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    4: [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    5: [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]],
    6: [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    7: [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    8: [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]],
    9: [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
    10: [[0, 0, 0, -1j], [0, 0, -1j, 0], [0, 1j, 0, 0], [1j, 0, 0, 0]],
    11: [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    12: [[0, 0, -1j, 0], [0, 0, 0, 1j], [1j, 0, 0, 0], [0, -1j, 0, 0]],
    13: [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
    14: [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, 1j], [0, 0, -1j, 0]],
    15: [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
}


@lru_cache(maxsize=None)
def pauli4_literal(k: int) -> HMatrix:
    """The hard-coded entry table for the k-th 4x4 Pauli matrix."""
    if k not in _LITERALS:
        raise ValueError("pauli4 index must be in 1..15")
    rows = []
    for row in _LITERALS[k]:
        out = []
        for c in row:
            if isinstance(c, complex):
                out.append(_h(int(c.real), int(c.imag)))
            else:
                out.append(_h(c))
        rows.append(out)
    return HMatrix(rows)


@lru_cache(maxsize=None)
def pauli4(k: int) -> HMatrix:
    """The fifteen 4x4 Pauli matrices, generated by tensor products.

    Groups of three: s_i x 1, 1 x s_i, s_1 x s_i, s_2 x s_i, s_3 x s_i.
    Each result is asserted equal to its hard-coded literal.
    """
    if not 1 <= k <= 15:
        raise ValueError("pauli4 index must be in 1..15")
    group, member = divmod(k - 1, 3)
    e2 = HMatrix.identity(2)
    factors = {
        0: (pauli2(member + 1), e2),
        1: (e2, pauli2(member + 1)),
        2: (pauli2(1), pauli2(member + 1)),
        3: (pauli2(2), pauli2(member + 1)),
        4: (pauli2(3), pauli2(member + 1)),
    }
    built = kron(*factors[group])
    if built != pauli4_literal(k):
        raise AssertionError(f"tensor-product sigma_{k} disagrees with its entry table")
    return built


# Signed references into the fifteen matrices: entry (a, b) holds
# (index, sign) with sigma_ab = sign * pauli4(index); the table is
# antisymmetric and its diagonal is undefined.
SIGMA_AB_INDEX = (
    (None, (1, 1), (3, -1), (10, 1), (11, 1), (12, 1)),
    ((1, -1), None, (2, 1), (13, 1), (14, 1), (15, 1)),
    ((3, 1), (2, -1), None, (7, 1), (8, 1), (9, 1)),
    ((10, -1), (13, -1), (7, -1), None, (6, 1), (5, -1)),
    ((11, -1), (14, -1), (8, -1), (6, -1), None, (4, 1)),
    ((12, -1), (15, -1), (9, -1), (5, 1), (4, -1), None),
)


def sigma_ab_entry(a: int, b: int) -> tuple[int, int]:
    if not (0 <= a <= 5 and 0 <= b <= 5):
        raise ValueError("sigma_ab indices must lie in 0..5")
    if a == b:
        raise ValueError("sigma_ab is undefined on the diagonal")
    return SIGMA_AB_INDEX[a][b]


@lru_cache(maxsize=None)
def sigma_ab(a: int, b: int) -> HMatrix:
    """Signed lookup of the generator matrix for the index pair (a, b)."""
    k, sign = sigma_ab_entry(a, b)
    m = pauli4(k)
    return m if sign > 0 else -m
