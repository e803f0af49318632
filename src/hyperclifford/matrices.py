"""Dense square matrices over the hyperbolic-complex scalars.

An :class:`HMatrix` stores its ``4n^2`` real coordinates, ``x y v w`` per
entry in row-major order, as :class:`RealCoords` does: int numerators over
one denominator (exact) or floats; entries are built as :class:`HScalar`
only when read.  Arithmetic works on the stored numbers, and every linear
operation is one rectangular ring product per backend: ``@`` and one
linear-combination kernel, which :meth:`HMatrix.scale` runs after a backend
check and the library's sums of scaled matrices call directly.
:meth:`HMatrix.inverse` alone works on :class:`HScalar` entries, since its
pivots need each entry's modulus and inverse.  The units 1, i, j, ij
multiply as a signed group (unit a times unit b is unit a XOR b, negated
when both have the i bit), so the exact product contracts the non-zero
int numerators through that table, over the product of the two
denominators, and reduces the result once.  The float product keeps :meth:`HScalar.__mul__`'s terms,
its complex-subring shortcut and the column order of each entry's sum, so
float results equal the per-entry HScalar loop over non-zero entries bit
for bit.  An output entry with no non-zero term is ``+0``.

Provides the 2x2 Pauli matrices, the fifteen 4x4 Pauli matrices built as
Kronecker products, and the signed antisymmetric lookup assigning a 4x4
Pauli matrix to every ordered index pair (a, b) with 0 <= a, b <= 5.  The
fifteen matrices are constructed twice, once by tensor product and once
from hard-coded int entry tables, and the two constructions are asserted equal
at import of the table so transcription and construction errors surface
against each other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import lcm

from .scalars import BackendMismatch, HScalar, RealCoords, _entering, _over_lcm

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


class HMatrix(RealCoords):
    """Immutable square matrix over the hyperbolic-complex ring.

    Stored as ``n`` and the flat row-major ``4n^2`` real coordinates,
    ``x y v w`` per entry, held as :class:`RealCoords` holds them (``nums``
    over ``den``; ``coords`` is the ``Fraction`` or float view).  ``rows``
    builds :class:`HScalar` views on demand.  Sums, negation, ``==`` and
    the norm come from :class:`RealCoords`.
    """

    __slots__ = ("n", "nums", "den")
    _shape = "n"

    def __init__(self, rows):
        """Build from rows of :class:`HScalar` entries.

        Raises ``ValueError`` for an empty or non-square matrix and
        ``TypeError`` for an entry that is not an :class:`HScalar`; the four
        parts of every entry enter by :func:`~.scalars._entering`, so ints
        are exact and a NaN, an infinity or a Fraction beside a float raise.
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
        self.n = n
        self.nums, self.den = _entering(coords, "matrix")

    # -- construction ----------------------------------------------------

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "HMatrix":
        nums = [0 if exact else 0.0] * (4 * n * n)
        for k in range(0, len(nums), 4 * n + 4):
            nums[k] = 1 if exact else 1.0
        return cls._sized(n, nums, exact)

    @classmethod
    def zeros(cls, n: int, exact: bool = True) -> "HMatrix":
        return cls._sized(n, [0 if exact else 0.0] * (4 * n * n), exact)

    @classmethod
    def _sized(cls, n: int, nums, exact: bool) -> "HMatrix":
        if n < 1:
            raise ValueError("matrix must have at least one entry")
        return cls._new(n, nums, 1 if exact else None)

    @classmethod
    def from_real_coords(cls, coords) -> "HMatrix":
        """Inverse of :attr:`coords`: 4 real coefficients per entry,
        row-major, entering by :func:`~.scalars._entering` (ints are exact;
        ``ValueError`` names the index of a NaN or infinite coordinate)."""
        q = len(coords)
        n = math.isqrt(q // 4)
        if q == 0 or 4 * n * n != q:
            raise ValueError("coordinate count is not 4 times a non-zero square")
        return cls._new(n, *_entering(coords, "matrix"))

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of rows of :class:`HScalar`."""
        c, w = self.coords, 4 * self.n
        return tuple(
            tuple(HScalar(c[k], c[k + 1], c[k + 2], c[k + 3]) for k in range(r, r + w, 4))
            for r in range(0, len(c), w)
        )

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "HMatrix") -> "HMatrix":
        """Matrix product; both factors of one size and one backend."""
        n, exact = self.n, self._peer(other)
        out = _product(exact, n, n, self.nums, other.nums)
        return HMatrix._new(n, out, self.den * other.den if exact else None)

    def scale(self, z) -> "HMatrix":
        """Every entry times the scalar ``z`` (on the left): a number, entering by
        :meth:`HScalar.make`, or an :class:`HScalar`, whose backend is checked as
        a ring operation checks it, not its parts."""
        exact = self.is_exact
        if not isinstance(z, HScalar):
            z = HScalar.make(z, exact=exact)
        elif z.is_exact != exact:
            raise BackendMismatch("mixed exact/float scalar operands")
        return _weighted_sum(*(_over_lcm(z.coeffs()) if exact else (z.coeffs(), None)), (self,))

    def adjoint(self) -> "HMatrix":
        """Conjugate transpose with scalar conjugation i -> -i, j -> -j: a
        sign map (:meth:`RealCoords._signed`) of the transposed numbers, so
        a zero part keeps its sign and exact numerators are not reduced again."""
        return self._signed(*_adjoint_map(self.n))

    def trace(self) -> HScalar:
        c, step, den = self.nums, 4 * self.n + 4, self.den
        parts = list(c[:4])
        for k in range(step, len(c), step):
            for u in range(4):
                parts[u] = parts[u] + c[k + u]
        return HScalar(*parts) if den is None else HScalar(*[Fraction(p, den) for p in parts])

    def inverse(self) -> "HMatrix":
        """Gauss-Jordan elimination over rows of :class:`HScalar` entries.

        The ring has zero divisors, so pivots are selected by the
        quadratic-form modulus N(z) rather than naive magnitude: exact
        backend takes the first invertible entry, float backend the entry
        of largest modulus.  Each row of ``[self | 1]`` is scaled and reduced
        with HScalar multiply and subtract; a product with a zero entry is
        ``+0``, and a row whose factor is zero is skipped.
        """
        n, exact = self.n, self.is_exact
        zero = HScalar(*[Fraction(0) if exact else 0.0] * 4)
        aug = [list(r + e) for r, e in zip(self.rows, HMatrix.identity(n, exact).rows)]
        for col in range(n):
            pick, best = None, 0
            for r in range(col, n):
                m = aug[r][col].modulus()  # N(z) >= 0, so an exact pivot is the first m > 0
                if m > best:
                    pick, best = r, m
                    if exact:
                        break
            if pick is None:
                raise SingularMatrix("no invertible pivot (zero-divisor column)")
            aug[col], aug[pick] = aug[pick], aug[col]
            inv = aug[col][col].invert()
            pivot = aug[col] = [zero if z.is_zero else inv * z for z in aug[col]]
            for r, row in enumerate(aug):
                f = row[col]
                if r != col and not f.is_zero:  # z - (+0) is z, to the bit
                    aug[r] = [z if p.is_zero else z - f * p for z, p in zip(row, pivot)]
        coords = [c for row in aug for z in row[n:] for c in z.coeffs()]
        return HMatrix._new(n, *(_over_lcm(coords) if exact else (coords, None)))

    @staticmethod
    def real_pairing(a: "HMatrix", b: "HMatrix"):
        """Euclidean pairing of the real coefficient vectors."""
        exact = a._peer(b)
        ca, cb = a.nums, b.nums
        total = None
        for k in range(0, len(ca), 4):
            t = ca[k] * cb[k] + ca[k + 1] * cb[k + 1] + ca[k + 2] * cb[k + 2] + ca[k + 3] * cb[k + 3]
            total = t if total is None else total + t
        return Fraction(total, a.den * b.den) if exact else total

    def __repr__(self):
        body = "; ".join(", ".join(str(z) for z in row) for row in self.rows)
        return f"HMatrix[{body}]"


# -- coordinate kernels --------------------------------------------------------
#
# The units 1, i, j, ij carry the codes 0, 1, 2, 3 (the coordinate offset
# within an entry).  Unit a times unit b is unit a ^ b, negated when both
# codes have the i bit: i*i = ij*ij = -1, i*ij = -j, j*j = +1.

_FLOAT_ZERO = (0.0, 0.0, 0.0, 0.0)


def _weighted_sum(a, den, mats) -> HMatrix:
    """The sum of ``z_k * m_k``, unchecked: ``a`` holds the parts x y v w of each
    ``z_k``, stored numbers over ``den`` (``None``: floats) in the backend of the
    matrices, which meet at the lcm of their denominators and share one size."""
    first = mats[0]
    if den is None:
        b = first.nums if len(mats) == 1 else tuple(chain.from_iterable(m.nums for m in mats))
        return HMatrix._new(first.n, _product(False, 1, len(mats), a, b), None)
    db, b = lcm(*[m.den for m in mats]), []
    for m in mats:
        f = db // m.den
        b += m.nums if f == 1 else [x * f for x in m.nums]
    return HMatrix._new(first.n, _product(True, 1, len(mats), a, b), den * db)


def _product(exact, r, k, a, b):
    """The ``r x c`` product of an ``r x k`` and a ``k x c`` ring matrix, on
    flat row-major coordinates ``x y v w`` per entry.  Zero entries of either
    factor are skipped, and an output entry with no non-zero term is ``+0``.

    Exact: ``a`` and ``b`` are int numerators, and so is the product, over
    the product of their denominators; non-zero numerators are contracted
    through the unit table, and exact sums do not depend on their order.
    Float: HScalar.__mul__'s terms and complex-subring shortcut, each entry
    summed in column order, so the result equals the per-entry HScalar loop
    bit for bit.
    """
    width = len(b) // k  # coordinates in a row of b and of the product
    if exact:
        rows = [None] * k  # indices of the non-zero coordinates of b's rows, on first use
        out = [0] * (r * width)
        for idx in compress(range(len(a)), a):
            row, rest = divmod(idx, 4 * k)
            kk, u1 = divmod(rest, 4)
            lo = kk * width
            line = rows[kk]
            if line is None:
                line = rows[kk] = list(compress(range(lo, lo + width), b[lo:lo + width]))
            base, x1 = row * width - lo, a[idx]
            for q in line:
                j = base + (q ^ u1)  # the entry of q in the output row, unit u1 ^ (q & 3)
                if u1 & q & 1:
                    out[j] -= x1 * b[q]
                else:
                    out[j] += x1 * b[q]
        return out
    c = width // 4
    lhs = [[] for _ in range(k)]  # the non-zero entries of a's columns
    for idx, (x, y, v, w) in enumerate(zip(*[iter(a)] * 4)):
        if x or y or v or w:
            row, kk = divmod(idx, k)
            lhs[kk].append((row * c, x, y, v, w, not (v or w)))
    acc = [None] * (r * c)
    quads = zip(*[iter(b)] * 4)
    for line in lhs:  # b's rows in order, so each entry sums in column order
        for col, (x2, y2, v2, w2) in zip(range(c), quads):
            if not line or not (x2 or y2 or v2 or w2):
                continue
            c2 = not (v2 or w2)
            for base, x1, y1, v1, w1, c1 in line:
                if c1 and c2:
                    px, py, pv, pw = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, v1, w1
                else:
                    px = x1 * x2 - y1 * y2 + v1 * v2 - w1 * w2
                    py = x1 * y2 + y1 * x2 + v1 * w2 + w1 * v2
                    pv = x1 * v2 + v1 * x2 - y1 * w2 - w1 * y2
                    pw = x1 * w2 + w1 * x2 + y1 * v2 + v1 * y2
                j = base + col
                s = acc[j]
                acc[j] = (px, py, pv, pw) if s is None else (s[0] + px, s[1] + py, s[2] + pv, s[3] + pw)
    out = []
    for s in acc:
        out += _FLOAT_ZERO if s is None else s
    return out


@lru_cache(maxsize=None)
def _adjoint_map(n: int) -> tuple[tuple, tuple]:
    """The conjugate transpose of an ``n x n`` matrix as a sign map: the
    positions of each entry's i and j parts, and the order that reads entry
    (r, c) from entry (c, r)."""
    order = tuple(4 * (c * n + r) + u for r in range(n) for c in range(n) for u in range(4))
    return tuple(k for k in range(4 * n * n) if k % 4 in (1, 2)), order


def kron(a: HMatrix, b: HMatrix) -> HMatrix:
    """Kronecker product; a's (1,1) entry scales b into the top-left block.
    One ring product of a's entries as a column and b's as a row holds each
    entry product, a row of b's entries per ``(entry of a, row of b)``; those
    rows are then taken in Kronecker order.  Mixed backends raise
    :class:`BackendMismatch`."""
    n, m, exact = a.n, b.n, a.is_exact
    if b.is_exact != exact:
        raise BackendMismatch("mixed exact/float HMatrix operands")
    products, w = _product(exact, n * n, 1, a.nums, b.nums), 4 * m
    rows = [products[k:k + w] for k in range(0, len(products), w)]  # row ia * m + rb: a's entry ia times b's row rb
    parts = [x for ra in range(0, n * n, n) for rb in range(m) for ia in range(ra, ra + n) for x in rows[ia * m + rb]]
    return HMatrix._new(n * m, parts, a.den * b.den if exact else None)


def commutator(a: HMatrix, b: HMatrix) -> HMatrix:
    return a @ b - b @ a


# -- Pauli matrices -----------------------------------------------------------


def _from_table(rows) -> HMatrix:
    """The exact matrix of rows of int entries, 1j marking an i-coefficient."""
    return HMatrix._new(len(rows), [int(p) for row in rows for c in row for p in (c.real, c.imag, 0, 0)], 1)


_PAULI2 = {1: [[0, 1], [1, 0]], 2: [[0, -1j], [1j, 0]], 3: [[1, 0], [0, -1]]}


@lru_cache(maxsize=None, typed=True)
def pauli2(i: int) -> HMatrix:
    """The 2x2 Pauli matrices, exact backend; ``i`` an int in 1..3."""
    if type(i) is not int or i not in _PAULI2:
        raise ValueError("pauli2 index must be 1, 2 or 3")
    return _from_table(_PAULI2[i])


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


@lru_cache(maxsize=None, typed=True)
def pauli4_literal(k: int) -> HMatrix:
    """The hard-coded entry table for the k-th 4x4 Pauli matrix, ``k`` an int in 1..15."""
    if type(k) is not int or k not in _LITERALS:
        raise ValueError("pauli4_literal index must be in 1..15")
    return _from_table(_LITERALS[k])


@lru_cache(maxsize=None, typed=True)
def pauli4(k: int) -> HMatrix:
    """The fifteen 4x4 Pauli matrices, generated by tensor products; ``k``
    an int in 1..15.

    Groups of three: s_i x 1, 1 x s_i, s_1 x s_i, s_2 x s_i, s_3 x s_i.
    Each result is asserted equal to its hard-coded literal.
    """
    if not (type(k) is int and 1 <= k <= 15):
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
    """The (index, sign) of sigma_ab: two ints in 0..5 (``type(k) is int``,
    so no bool or float), not equal."""
    if not (type(a) is int and type(b) is int and 0 <= a <= 5 and 0 <= b <= 5):
        raise ValueError("sigma_ab indices must be ints in 0..5")
    if a == b:
        raise ValueError("sigma_ab is undefined on the diagonal")
    return SIGMA_AB_INDEX[a][b]


@lru_cache(maxsize=None, typed=True)
def sigma_ab(a: int, b: int) -> HMatrix:
    """Signed lookup of the generator matrix for the index pair (a, b)."""
    k, sign = sigma_ab_entry(a, b)
    m = pauli4(k)
    return m if sign > 0 else -m
