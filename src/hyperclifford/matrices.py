"""Dense square matrices over the hyperbolic-complex scalars.

An :class:`HMatrix` stores its ``4n^2`` real coordinates, ``x y v w`` per
entry in row-major order, all ``Fraction`` or all ``float``; entries are
built as :class:`HScalar` only when read.  Arithmetic works on the
coordinates.  The units 1, i, j, ij multiply as a signed group (unit a
times unit b is unit a XOR b, negated when both have the i bit), so the
exact product contracts only non-zero coordinates through that table,
and exact sums skip zeros: a ``Fraction`` operation costs about 1 us.
The float product keeps :meth:`HScalar.__mul__`'s terms, its
complex-subring shortcut and the column order of each entry's sum, so
float results equal the entrywise HScalar loop bit for bit.  Inversion
eliminates over the coordinate rows of ``[m | 1]`` with the same scaling
kernels, building HScalars only for a pivot's modulus and inverse.

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
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import compress

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
    """Immutable square matrix over the hyperbolic-complex ring.

    Stored as ``n`` and ``coords``, the flat row-major tuple of the ``4n^2``
    real coordinates, ``x y v w`` per entry.  All coordinates are
    :class:`Fraction` (exact backend) or all are ``float``.  ``rows`` and
    :meth:`entry` build :class:`HScalar` views on demand.
    """

    __slots__ = ("n", "coords")

    def __init__(self, rows):
        """Build from rows of :class:`HScalar` entries.

        Raises ``ValueError`` for an empty or non-square matrix,
        ``TypeError`` for an entry that is not an :class:`HScalar` and
        :class:`BackendMismatch` when exact and float entries meet.
        """
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must have at least one entry")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        coords = []
        for row in rows:
            for z in row:
                if not isinstance(z, HScalar):
                    raise TypeError(f"matrix entry {z!r} is not an HScalar")
                coords += (z.x, z.y, z.v, z.w)
        _check_coords(coords)
        self.n = n
        self.coords = tuple(coords)

    @classmethod
    def _make(cls, n: int, coords) -> "HMatrix":
        """Wrap coordinates a kernel produced; they are valid by construction."""
        m = object.__new__(cls)
        m.n = n
        m.coords = tuple(coords)
        return m

    # -- construction ----------------------------------------------------

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "HMatrix":
        zero, one = (_ZERO, _ONE) if exact else (0.0, 1.0)
        coords = [zero] * (4 * n * n)
        for k in range(0, len(coords), 4 * n + 4):
            coords[k] = one
        return cls._sized(n, coords)

    @classmethod
    def zeros(cls, n: int, exact: bool = True) -> "HMatrix":
        return cls._sized(n, [_ZERO if exact else 0.0] * (4 * n * n))

    @classmethod
    def _sized(cls, n: int, coords) -> "HMatrix":
        if n < 1:
            raise ValueError("matrix must have at least one entry")
        return cls._make(n, coords)

    @classmethod
    def from_real_coords(cls, coords) -> "HMatrix":
        """Inverse of :meth:`real_coords`: 4 real coefficients per entry,
        row-major, all of them ``Fraction`` or all ``float``."""
        q = len(coords)
        n = math.isqrt(q // 4)
        if q == 0 or 4 * n * n != q:
            raise ValueError("coordinate count is not 4 times a non-zero square")
        _check_coords(coords)
        return cls._make(n, coords)

    # -- basic queries -----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.coords[0].__class__ is not float

    def entry(self, r: int, c: int) -> HScalar:
        n = self.n
        if not (0 <= r < n and 0 <= c < n):
            raise IndexError("matrix index out of range")
        k = 4 * (r * n + c)
        return HScalar(*self.coords[k:k + 4])

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of rows of :class:`HScalar`."""
        c, w = self.coords, 4 * self.n
        return tuple(
            tuple(HScalar(c[k], c[k + 1], c[k + 2], c[k + 3]) for k in range(r, r + w, 4))
            for r in range(0, len(c), w)
        )

    def to_float(self) -> "HMatrix":
        if not self.is_exact:
            return self
        return HMatrix._make(self.n, map(float, self.coords))

    def real_coords(self):
        """All real coefficients, row-major, 4 per entry."""
        return self.coords

    # -- algebra -----------------------------------------------------------

    def _peer(self, other: "HMatrix") -> bool:
        """Check shape and backend of a second operand; True if exact."""
        if not isinstance(other, HMatrix) or other.n != self.n:
            raise ValueError("dimension mismatch")
        exact = self.is_exact
        if other.is_exact != exact:
            raise BackendMismatch("mixed exact/float matrix operands")
        return exact

    def __add__(self, other: "HMatrix") -> "HMatrix":
        a, b = self.coords, other.coords
        if self._peer(other):
            # a Fraction sum costs about 1 us; adding a zero changes nothing
            out = [y if not x else (x if not y else x + y) for x, y in zip(a, b)]
        else:
            out = map(operator.add, a, b)
        return HMatrix._make(self.n, out)

    def __sub__(self, other: "HMatrix") -> "HMatrix":
        a, b = self.coords, other.coords
        if self._peer(other):
            out = [x if not y else (-y if not x else x - y) for x, y in zip(a, b)]
        else:
            out = map(operator.sub, a, b)
        return HMatrix._make(self.n, out)

    def __neg__(self) -> "HMatrix":
        return HMatrix._make(self.n, map(operator.neg, self.coords))

    def __matmul__(self, other: "HMatrix") -> "HMatrix":
        """Matrix product; a zero matrix times a matrix of the other
        backend is the zero matrix of the left factor's backend."""
        try:
            exact = self._peer(other)
        except BackendMismatch:
            if any(self.coords) and any(other.coords):
                raise
            return HMatrix.zeros(self.n, exact=self.is_exact)
        kernel = _matmul_exact if exact else _matmul_float
        return HMatrix._make(self.n, kernel(self.n, self.coords, other.coords))

    def scale(self, z) -> "HMatrix":
        """Every entry multiplied by the scalar ``z`` (on the left)."""
        exact = self.is_exact
        if not isinstance(z, HScalar):
            z = HScalar.make(z, exact=exact)
        elif z.is_exact != exact:
            raise BackendMismatch("mixed exact/float scalar operands")
        kernel = _scale_exact if exact else _scale_float
        return HMatrix._make(self.n, kernel(z.coeffs(), self.coords))

    def __mul__(self, z):
        return self.scale(z)

    __rmul__ = __mul__

    def adjoint(self) -> "HMatrix":
        """Conjugate transpose with scalar conjugation i -> -i, j -> -j."""
        n, c = self.n, self.coords
        out = []
        for col in range(0, 4 * n, 4):
            for k in range(col, len(c), 4 * n):
                out += (c[k], -c[k + 1], -c[k + 2], c[k + 3])
        return HMatrix._make(n, out)

    def trace(self) -> HScalar:
        c, step = self.coords, 4 * self.n + 4
        parts = list(c[:4])
        for k in range(step, len(c), step):
            for u in range(4):
                parts[u] = parts[u] + c[k + u]
        return HScalar(*parts)

    def inverse(self) -> "HMatrix":
        """Gauss-Jordan elimination over the scalar ring.

        The ring has zero divisors, so pivots are selected by the
        quadratic-form modulus N(z) rather than naive magnitude: exact
        backend takes the first invertible entry, float backend the entry
        of largest modulus.  The rows of the augmented matrix ``[self | 1]``
        are coordinate lists, scaled by the scalar kernels and subtracted
        coordinate by coordinate, so the result equals elimination over
        HScalar entries; HScalars are built only to take a pivot's modulus
        and inverse.
        """
        n, c, exact = self.n, self.coords, self.is_exact
        w = 4 * n
        one = HMatrix.identity(n, exact=exact).coords
        aug = [list(c[k:k + w] + one[k:k + w]) for k in range(0, len(c), w)]
        scale = _scale_exact if exact else _scale_float
        for col in range(n):
            k = 4 * col
            pick, best = None, 0
            for r in range(col, n):
                m = HScalar(*aug[r][k:k + 4]).modulus()
                if exact:
                    if m != 0:
                        pick = r
                        break
                elif m > best:
                    pick, best = r, m
            if pick is None:
                raise SingularMatrix("no invertible pivot (zero-divisor column)")
            aug[col], aug[pick] = aug[pick], aug[col]
            pivot = aug[col] = scale(HScalar(*aug[col][k:k + 4]).invert().coeffs(), aug[col])
            for r in range(n):
                f = aug[r][k:k + 4]
                # an entry with a coordinate left, however small, is eliminated
                if r != col and any(f):
                    aug[r] = [x - y for x, y in zip(aug[r], scale(f, pivot))]
        return HMatrix._make(n, [x for row in aug for x in row[w:]])

    # -- comparison and norms ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HMatrix):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def max_abs(self) -> float:
        """Largest absolute real coordinate, as a float."""
        c = self.coords
        mags = map(abs, map(float, c) if self.is_exact else c)
        # per entry first, then over entries, as with HScalar.abs_max: max()
        # keeps a NaN only when it comes first, so the grouping matters
        return max(map(max, mags, mags, mags, mags))

    def is_close(self, other: "HMatrix", tol: float = 1e-12) -> bool:
        return (self - other).max_abs() <= tol

    @staticmethod
    def real_pairing(a: "HMatrix", b: "HMatrix"):
        """Euclidean pairing of the real coefficient vectors."""
        ca, cb = a.coords, b.coords
        total = None
        for k in range(0, len(ca), 4):
            t = ca[k] * cb[k] + ca[k + 1] * cb[k + 1] + ca[k + 2] * cb[k + 2] + ca[k + 3] * cb[k + 3]
            total = t if total is None else total + t
        return total

    def __repr__(self):
        body = "; ".join(", ".join(str(z) for z in row) for row in self.rows)
        return f"HMatrix[{body}]"


# -- coordinate kernels --------------------------------------------------------
#
# The units 1, i, j, ij carry the codes 0, 1, 2, 3 (the coordinate offset
# within an entry).  Unit a times unit b is unit a ^ b, negated when both
# codes have the i bit: i*i = ij*ij = -1, i*ij = -j, j*j = +1.

_ZERO, _ONE = Fraction(0), Fraction(1)
_FLOAT_ZERO = (0.0, 0.0, 0.0, 0.0)


def _check_coords(coords):
    kinds = set(map(type, coords))
    if kinds == {Fraction} or kinds == {float}:
        return
    if {Fraction, float} <= kinds:
        raise BackendMismatch("mixed exact/float matrix entries")
    bad = sorted(k.__name__ for k in kinds - {Fraction, float})
    raise TypeError(f"matrix coordinates must be Fraction or float, not {', '.join(bad)}")


def _matmul_exact(n, a, b):
    """Contract only the non-zero coordinates through the unit table.

    Exact sums do not depend on their order, so the result equals the
    entrywise HScalar product; a Fraction operation costs about as much as
    a whole float entry product, so structural zeros are worth skipping.
    """
    width = 4 * n
    rhs = [[] for _ in range(n)]
    for idx in compress(range(len(b)), b):
        k, rest = divmod(idx, width)
        rhs[k].append((rest & ~3, rest & 3, b[idx]))
    out = [None] * len(a)
    for idx in compress(range(len(a)), a):
        r, rest = divmod(idx, width)
        k, u1 = divmod(rest, 4)
        base, x1 = r * width, a[idx]
        for off, u2, x2 in rhs[k]:
            j = base + off + (u1 ^ u2)
            p = x1 * x2
            s = out[j]
            if u1 & u2 & 1:
                out[j] = -p if s is None else s - p
            else:
                out[j] = p if s is None else s + p
    return [_ZERO if s is None else s for s in out]


def _scale_exact(z, m):
    """``z`` times each entry, over the non-zero coordinates of both."""
    zc = [(u, c) for u, c in enumerate(z) if c]
    out = [None] * len(m)
    for idx in compress(range(len(m)), m):
        u2, x2 = idx & 3, m[idx]
        base = idx - u2
        for u1, x1 in zc:
            j = base + (u1 ^ u2)
            p = x1 * x2
            s = out[j]
            if u1 & u2 & 1:
                out[j] = -p if s is None else s - p
            else:
                out[j] = p if s is None else s + p
    return [_ZERO if s is None else s for s in out]


def _matmul_float(n, a, b):
    """Entrywise products with HScalar.__mul__'s terms and complex-subring
    shortcut, zero entries skipped and each entry summed in column order,
    so the result equals the HScalar loop bit for bit.  A float multiply
    costs about 30 ns, less than a branch that would skip a zero
    coordinate."""
    rhs = []
    q = 0
    for _ in range(n):
        line = []
        for col in range(n):
            x, y, v, w = b[q:q + 4]
            q += 4
            if x == 0 and y == 0 and v == 0 and w == 0:
                continue
            line.append((col, x, y, v, w, v == 0 and w == 0))
        rhs.append(line)
    out = []
    q = 0
    for _ in range(n):
        acc = [None] * n
        for k in range(n):
            x1, y1, v1, w1 = a[q:q + 4]
            q += 4
            if x1 == 0 and y1 == 0 and v1 == 0 and w1 == 0:
                continue
            c1 = v1 == 0 and w1 == 0
            for col, x2, y2, v2, w2, c2 in rhs[k]:
                if c1 and c2:
                    px, py, pv, pw = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, v1, w1
                else:
                    px = x1 * x2 - y1 * y2 + v1 * v2 - w1 * w2
                    py = x1 * y2 + y1 * x2 + v1 * w2 + w1 * v2
                    pv = x1 * v2 + v1 * x2 - y1 * w2 - w1 * y2
                    pw = x1 * w2 + w1 * x2 + y1 * v2 + v1 * y2
                s = acc[col]
                acc[col] = (px, py, pv, pw) if s is None else (s[0] + px, s[1] + py, s[2] + pv, s[3] + pw)
        for s in acc:
            out += _FLOAT_ZERO if s is None else s
    return out


def _scale_float(z, m):
    """``z`` times each entry with HScalar.__mul__'s terms."""
    x1, y1, v1, w1 = z
    c1 = v1 == 0 and w1 == 0
    out = []
    for q in range(0, len(m), 4):
        x2, y2, v2, w2 = m[q:q + 4]
        if c1 and v2 == 0 and w2 == 0:
            out += (x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, v1, w1)
        else:
            out += (
                x1 * x2 - y1 * y2 + v1 * v2 - w1 * w2,
                x1 * y2 + y1 * x2 + v1 * w2 + w1 * v2,
                x1 * v2 + v1 * x2 - y1 * w2 - w1 * y2,
                x1 * w2 + w1 * x2 + y1 * v2 + v1 * y2,
            )
    return out


def kron(a: HMatrix, b: HMatrix) -> HMatrix:
    """Kronecker product; a's (1,1) entry scales b into the top-left block."""
    if a.is_exact != b.is_exact:
        raise BackendMismatch("mixed backends in tensor product")
    ra, rb = a.rows, b.rows
    return HMatrix(
        [za * zb for za in row_a for zb in row_b]
        for row_a in ra
        for row_b in rb
    )


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
