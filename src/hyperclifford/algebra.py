"""Clifford algebra representations over the hyperbolic-complex scalars.

Each representation carries a set of anticommuting generator matrices, an
optional adjoined central unit (``i`` or ``j``), and the blade machinery
used to move between matrices and coefficient expansions.  Six named
representations are provided:

====== =============================== ======================== =========
name   generators                      adjoined unit            elements
====== =============================== ======================== =========
r01    [i]              (1x1)          -                        2
r10    [j]              (1x1)          -                        2
c10bar [j]              (1x1)          i                        4
r30    j*sigma_k        (2x2)          -                        8
c30bar j*sigma_k        (2x2)          j                        16
r05    i*sigma_0k       (4x4)          -                        32
h05bar i*sigma_0k       (4x4)          j                        64
====== =============================== ======================== =========

The three involutions act on the blade expansion by grade signs:
graduation (hat) multiplies a grade-g blade by (-1)^g, reversion (dagger)
by (-1)^(g(g-1)/2) and conjugation (bar) by (-1)^(g(g+1)/2).  Hat and bar
additionally conjugate the adjoined-unit part of each coefficient, dagger
leaves coefficients untouched.  Units that the tables list but that are
not generators (sigma_k, the complex unit inside r30, ...) are realized as
blade expressions and inherit their signs from those expressions; this
single mechanism reproduces all three published sign tables without
special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, count, product
from math import gcd
from numbers import Rational
from operator import add, mul, sub

from .matrices import HMatrix, pauli2, sigma_ab
from .scalars import HScalar, RealCoords, _entering

__all__ = [
    "NonOrthogonalBasis",
    "Signature",
    "AlgebraRep",
    "Multivector",
    "get_rep",
    "REP_NAMES",
    "blade_mul",
    "involution_sign",
    "involution_table",
    "TableRow",
    "enumerate_algebra",
    "even_subalgebra",
    "porteous_conjugate_2x2",
    "porteous_dagger_4x4",
    "porteous_hat_4x4",
]

_ZERO = Fraction(0)

REP_NAMES = ("r01", "r10", "c10bar", "r30", "c30bar", "r05", "h05bar")
# the scalar units, in the order of HScalar's components x y v w
_RING_UNITS = ("1", "i", "j", "ij")

Blade = tuple


class NonOrthogonalBasis(ValueError):
    """Raised when a representation's basis matrices fail the pairing check."""


@dataclass(frozen=True)
class Signature:
    """Counts of generators squaring to +1 (p) and to -1 (q).

    The scalar product of the underlying quadratic space carries a minus
    sign on the p-part and a plus sign on the q-part; combined with
    e*conj(e) = -e^2 this fixes e^2 = +1 for the first p generators and
    e^2 = -1 for the remaining q.
    """

    p: int
    q: int

    @property
    def n(self) -> int:
        return self.p + self.q

    def square(self, index: int) -> int:
        """Square of generator ``index`` (1-based)."""
        if not 1 <= index <= self.n:
            raise ValueError("generator index out of range")
        return 1 if index <= self.p else -1


def blade_mul(b1: Blade, b2: Blade, signature: Signature) -> tuple[Blade, int]:
    """Product of two canonical blades: resulting blade and overall sign.

    Canonical form is strictly increasing generator indices; the sign
    tracks adjacent-transposition parity plus generator squares.
    """
    seq = list(b1) + list(b2)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    out = []
    k = 0
    while k < len(seq):
        if k + 1 < len(seq) and seq[k] == seq[k + 1]:
            sign *= signature.square(seq[k])
            k += 2
        else:
            out.append(seq[k])
            k += 1
    return tuple(out), sign


def involution_sign(kind: str, grade: int) -> int:
    if kind == "hat":
        return -1 if grade % 2 else 1
    if kind == "dagger":
        return -1 if (grade * (grade - 1) // 2) % 2 else 1
    if kind == "bar":
        return -1 if (grade * (grade + 1) // 2) % 2 else 1
    raise ValueError(f"unknown involution {kind!r}")


class AlgebraRep:
    """A validated matrix representation of one of the named algebras."""

    def __init__(self, name: str, signature: Signature, gens, adjoined: str = ""):
        if adjoined not in ("", "i", "j"):
            raise ValueError("adjoined unit must be '', 'i' or 'j'")
        self.name = name
        self.signature = signature
        self.gens = tuple(gens)
        self.adjoined = adjoined
        self.n = self.gens[0].n if self.gens else 1
        self._validate_generators()

        self.blades = tuple(
            sorted(
                (tuple(c) for g in range(signature.n + 1)
                 for c in combinations(range(1, signature.n + 1), g)),
                key=lambda b: (len(b), b),
            )
        )
        self._blade_mat = {(): HMatrix.identity(self.n)}
        for blade in self.blades:
            if blade:
                m = self.gens[blade[0] - 1]
                for idx in blade[1:]:
                    m = m @ self.gens[idx - 1]
                self._blade_mat[blade] = m
        self.units = ("1",) + ((adjoined,) if adjoined else ())
        self.basis = tuple((b, u) for b in self.blades for u in self.units)
        self._basis_mat = {}
        for blade, unit in self.basis:
            m = self._blade_mat[blade]
            if unit != "1":
                m = m.scale(HScalar.unit(unit))
            self._basis_mat[(blade, unit)] = m
        self._coord_map = self._signed_coords()
        self._validate_orthogonality()
        self._ring_units = self._find_ring_units()
        # Multivector coordinates: blade -> index of its real coordinate,
        # the adjoined-unit coordinate following it
        self._offset = {b: k * len(self.units) for k, b in enumerate(self.blades)}
        # per involution, the sign of each basis element: its grade sign,
        # negated on the adjoined unit by bar and hat (they conjugate it)
        self._involution_signs = {
            kind: tuple(involution_sign(kind, len(b)) * (1 if u == "1" or kind == "dagger" else -1)
                        for b, u in self.basis)
            for kind in ("bar", "dagger", "hat")
        }
        # the HScalar component (x y v w) of each unit
        self._spots = tuple(HScalar.unit(u).coeffs().index(1) for u in self.units)
        # gp_blades' table _product[k1][k2] = (k, sign), one blade_mul per
        # pair of blades, no basis matrix read: over the blades for a j-rep's
        # null pairs, else over the basis, where units 0 (1) and 1 (adjoined)
        # multiply by XOR and two adjoined units give the unit's square.
        u = HScalar.unit(adjoined or "1")
        square, w = int((u * u).x), len(self.units)
        blade_rows = [[(self._offset[b] // w, sign) for b, sign in
                       (blade_mul(b1, b2, signature) for b2 in self.blades)] for b1 in self.blades]
        self._product = blade_rows if adjoined == "j" else [
            [(w * k + (u1 ^ u2), sign * square if u1 & u2 else sign) for k, sign in row for u2 in range(w)]
            for row in blade_rows for u1 in range(w)
        ]

    # -- construction-time validation -------------------------------------

    def _validate_generators(self):
        idm = HMatrix.identity(self.n)
        for k, g in enumerate(self.gens, start=1):
            sq = g @ g
            want = idm if self.signature.square(k) > 0 else -idm
            if sq != want:
                raise ValueError(f"generator {k} squares incorrectly in {self.name}")
        for a in range(len(self.gens)):
            for b in range(a + 1, len(self.gens)):
                anti = self.gens[a] @ self.gens[b] + self.gens[b] @ self.gens[a]
                if anti != HMatrix.zeros(self.n):
                    raise ValueError(f"generators {a+1},{b+1} fail to anticommute in {self.name}")

    def _signed_coords(self) -> dict:
        """Coordinate table of the matrix route, read off the basis matrices.

        Every basis element must be a signed-unit monomial matrix: one
        non-zero entry per row, that entry one of +-1, +-i, +-j, +-ij.  Its
        real coordinates are then n values of +-1, listed per basis key as
        ``(real_index, sign)`` pairs in index order.  The matrices come from
        generator products, so the table does not depend on blade_mul.
        """
        table = {}
        for key in self.basis:
            m = self._basis_mat[key]
            pairs = tuple((idx, c) for idx, c in enumerate(m.nums) if c)
            rows = {idx // (4 * self.n) for idx, _ in pairs}
            if (m.den != 1 or len(rows) != self.n or len(pairs) != self.n
                    or any(c not in (1, -1) for _, c in pairs)):
                raise ValueError(
                    f"basis element {key} of {self.name} is not a signed-unit monomial matrix"
                )
            table[key] = pairs
        return table

    def _validate_orthogonality(self):
        keys = list(self.basis)
        sparse = {k: dict(self._coord_map[k]) for k in keys}
        for a in range(len(keys)):
            va = sparse[keys[a]]
            for b in range(a + 1, len(keys)):
                vb = sparse[keys[b]]
                if sum(c * vb[idx] for idx, c in va.items() if idx in vb) != 0:
                    raise NonOrthogonalBasis(
                        f"basis elements {keys[a]} and {keys[b]} are not pairing-orthogonal"
                    )

    def _find_ring_units(self) -> dict:
        """The scalar units of 1, i, j, ij that the representation holds,
        as exact multivectors: u is sign times the basis element whose
        matrix is sign*u times the identity, read off the coordinate table
        (u's part of diagonal entry r is real coordinate 4(n+1)r + spot)."""
        index = {pairs: k for k, pairs in enumerate(self._coord_map.values())}
        units = {}
        for (spot, u), sign in product(enumerate(_RING_UNITS), (1, -1)):
            k = index.get(tuple((4 * (self.n + 1) * r + spot, sign) for r in range(self.n)))
            if k is not None:
                units[u] = Multivector._new(self, (sign if j == k else 0 for j in range(len(self.basis))), 1)
        return units

    # -- HScalar <-> coordinates -------------------------------------------

    def _coeff_spots(self, z: HScalar) -> tuple:
        """Indices in x y v w of a blade coefficient's real coordinates (1, then
        the adjoined unit); ``ValueError`` when it leaves the subring."""
        comps = z.coeffs()
        bad = [u for k, u in enumerate(_RING_UNITS) if comps[k] and k not in self._spots]
        if bad:
            raise ValueError(f"coefficient {z} uses units {bad} outside the {self.name} subring")
        return self._spots

    def _coeff(self, parts) -> HScalar:
        """The blade coefficient with the given real coordinates."""
        comps = [0.0 if parts[0].__class__ is float else _ZERO] * 4
        for spot, c in zip(self._spots, parts):
            comps[spot] = c
        return HScalar(*comps)

    # -- blade/matrix conversion ---------------------------------------------

    def decompose(self, m: HMatrix) -> "Multivector":
        """Coordinates of a matrix over the basis via the real pairing, in
        the matrix's backend; see :meth:`_gather`.  Matrices outside the
        algebra's span lose their orthogonal complement; use
        :meth:`decompose_residual` when that matters.
        """
        return Multivector._new(self, *self._gather(m, range(len(self.basis))))

    def _gather(self, m: HMatrix, indices) -> tuple[list, int | None]:
        """A matrix's coordinates at the given basis indices, as stored
        numbers and their denominator (``None`` for floats; exact numerators
        are not reduced).  The basis is pairing-orthogonal (checked at
        construction), so each is the signed sum of the real matrix
        coordinates its coordinate-table entry lists over the norm n; the
        table comes from the basis matrices, not from blade_mul.  Floats are
        scaled by 1/n before the sum (without rounding, as n is 1, 2 or 4),
        so the sum overflows only when the coordinate does."""
        nums, exact = m.nums, m.is_exact
        table, basis, n, zero = self._coord_map, self.basis, self.n, 0 if exact else 0.0
        if not exact:
            nums = tuple(map((1.0 / n).__mul__, nums))
        out = []
        for k in indices:
            total = zero
            for idx, sign in table[basis[k]]:
                if sign > 0:
                    total += nums[idx]
                else:
                    total -= nums[idx]
            out.append(total)
        return out, m.den * n if exact else None

    def decompose_residual(self, m: HMatrix) -> tuple["Multivector", float]:
        mv = self.decompose(m)
        return mv, (m - mv.to_matrix()).max_abs()

    def _scatter(self, terms, den) -> HMatrix:
        """The matrix over ``den`` (``None``: floats) of ``(pairs, stored number)``
        terms, each non-zero number added with the signs of its ``(real_index,
        sign)`` coordinate-table pairs (from the basis matrices, not blade_mul)."""
        flat = [0.0 if den is None else 0] * (4 * self.n * self.n)
        for pairs, c in terms:
            if c:  # adding a zero changes no coordinate
                for idx, sign in pairs:
                    if sign > 0:
                        flat[idx] += c
                    else:
                        flat[idx] -= c
        return HMatrix._new(self.n, flat, den)

    @cached_property
    def _dagger_perm(self) -> tuple:
        """``(source coordinate, sign)`` per real matrix coordinate of reversion,
        read off to_matrix . dagger . decompose of each unit coordinate matrix."""
        q, perm = 4 * self.n * self.n, {}
        for src in range(q):
            image = self.decompose(HMatrix._new(self.n, [int(k == src) for k in range(q)], 1)).dagger().to_matrix()
            moved = [(dst, (src, c)) for dst, c in enumerate(image.nums) if c]
            if image.den != 1 or len(moved) != 1:
                raise ValueError(f"reversion on {self.name} is not a signed permutation of matrix coordinates")
            perm.update(moved)
        return tuple(perm[dst] for dst in range(q))

    def dagger_matrix(self, m: HMatrix) -> HMatrix:
        """``decompose(m).dagger().to_matrix()`` on a full-ring representation, in
        m's backend, by :attr:`_dagger_perm` (``0 - x`` keeps a zero +0.0);
        ``ValueError`` on a rep where an image is not +-1 in one coordinate."""
        c = m.nums
        return HMatrix._new(self.n, [c[k] if s > 0 else 0 - c[k] for k, s in self._dagger_perm], m.den)

    # -- convenience -----------------------------------------------------------

    def scalar(self, z, exact: bool = True) -> "Multivector":
        if not isinstance(z, HScalar):
            z = HScalar.make(z, exact=exact)
        return Multivector(self, {(): z})

    def generator(self, index: int, exact: bool = True) -> "Multivector":
        return Multivector(self, {(index,): HScalar.make(1, exact=exact)})

    def blade(self, blade: Blade, coeff=None, exact: bool = True) -> "Multivector":
        c = coeff if isinstance(coeff, HScalar) else HScalar.make(
            1 if coeff is None else coeff, exact=exact
        )
        return Multivector(self, {tuple(blade): c})

    def __repr__(self):
        return f"AlgebraRep({self.name})"


def _terms(c, split: bool) -> list:
    """One gp_blades operand's stored numbers ``c``: ``(index, x)`` per non-zero
    coordinate or, if ``split``, ``(blade, a + b, a - b)`` per non-zero blade ``a + b j``."""
    if split:  # blade k has coordinates a, b at 2k, 2k + 1
        return [(k, a + b, a - b) for k, a, b in zip(count(), c[0::2], c[1::2]) if a or b]
    return [(k, x) for k, x in enumerate(c) if x]


class Multivector(RealCoords):
    """An algebra element as real coordinates over its representation's basis.

    There is one real coordinate per entry of ``rep.basis``: per blade,
    the 1 part of its coefficient, then the part along the adjoined unit if
    the rep has one.  They are held as :class:`RealCoords` holds them, int
    numerators over one denominator (exact backend) or floats, so a zero
    keeps its backend; ``coords`` is the ``Fraction`` or float view.  The
    constructor takes ``{blade: HScalar}`` and is the one place that checks
    subring and backend; ``coeffs`` is the on-demand ``{blade: HScalar}``
    view of the non-zero blades in canonical order.  Values are immutable.
    Sums, negation, ``==`` and the norm come from :class:`RealCoords`.
    """

    __slots__ = ("rep", "nums", "den")
    _shape = "rep"

    def __init__(self, rep: AlgebraRep, coeffs):
        """Absent blades are zero.  The parts x y v w of each coefficient, in
        the mapping's order, enter by :func:`~.scalars._entering`.  Raises
        ``TypeError`` for a coefficient that is not an :class:`HScalar` and
        ``ValueError`` for a mapping with no coefficients, which carries no
        backend (a zero is ``rep.scalar(0, exact=...)``), a blade outside the
        representation or a coefficient outside its subring."""
        if not coeffs:
            raise ValueError("no coefficients, so no backend: use rep.scalar(0, exact=...) for a zero")
        for blade, z in coeffs.items():
            if not isinstance(z, HScalar):
                raise TypeError(f"{rep.name} coefficient {z!r} of blade {blade} is not an HScalar")
        # only the given coefficients meet at their lcm; the other coordinates are zero
        nums, den = _entering([c for z in coeffs.values() for c in (z.x, z.y, z.v, z.w)], rep.name)
        out = [0.0 if den is None else 0] * len(rep.basis)
        for q, (blade, z) in zip(count(0, 4), coeffs.items()):
            k = rep._offset.get(tuple(blade))
            if k is None:
                raise ValueError(f"{blade} is not a blade of {rep.name}")
            for d, spot in enumerate(rep._coeff_spots(z)):
                out[k + d] = nums[q + spot]
        self.rep = rep
        self.nums, self.den = tuple(out), den

    @property
    def coeffs(self) -> dict:
        """The non-zero blades and their coefficients, in canonical order."""
        rep, c, den, w = self.rep, self.nums, self.den, len(self.rep.units)
        parts = (c[k:k + w] for k in range(0, len(c), w))
        return {
            blade: rep._coeff(p if den is None else [Fraction(x, den) for x in p])
            for blade, p in zip(rep.blades, parts) if any(p)
        }

    # -- linear structure ---------------------------------------------------

    def scale(self, z) -> "Multivector":
        """The product with the scalar ``z``: an :class:`HScalar` in the
        representation's subring by :meth:`gp_blades`; a number, which takes
        this element's backend (a ``float`` never enters the exact one), on
        the stored numbers.  Mixed backends raise :class:`BackendMismatch`."""
        if isinstance(z, HScalar):
            return self.gp_blades(self.rep.scalar(z))
        if not isinstance(z, Rational):
            z = HScalar.make(z, exact=self.is_exact).x
        if self.den is None:  # + 0.0 makes a zero +0.0, as gp_blades does
            return Multivector._new(self.rep, [c * z + 0.0 for c in self.nums], None)
        return Multivector._new(self.rep, [c * z.numerator for c in self.nums], self.den * z.denominator)

    # -- products -------------------------------------------------------------

    def gp(self, other: "Multivector") -> "Multivector":
        """Geometric product: matrix product then blade decomposition."""
        self._peer(other)
        return self.rep.decompose(self.to_matrix() @ other.to_matrix())

    def gp_blades(self, other: "Multivector") -> "Multivector":
        """Geometric product on the blades, independent of the matrix route.

        Each pair of non-zero terms is one lookup in the table built from
        :func:`blade_mul`, summed per output in pair order.  A j-rep (j
        central, j^2 = 1) takes each blade coefficient ``a + b j`` as its
        null pair ``(a + b, a - b)``: one pass sums ``P = sum(+-p1 p2)`` and
        ``M = sum(+-m1 m2)``, joined as ``((P + M)/2, (P - M)/2)``.  Other
        reps multiply real coordinates.  Exact terms are the operands' int
        numerators, and the output is over the product of their denominators
        (twice that after a join), reduced once.  Operands of two backends
        raise :class:`BackendMismatch`, zero or not.
        """
        exact = self._peer(other)
        rep, zero, split = self.rep, 0 if exact else 0.0, self.rep.adjoined == "j"
        lhs, rhs = _terms(self.nums, split), _terms(other.nums, split)
        table, out = rep._product, [zero] * len(self.nums)
        den = self.den * other.den if exact else None
        if split:  # the join halves P +- M: halve p1, m1 (floats) or double den (exact)
            P, M, h = out[0::2], out[1::2], 1 if exact else 0.5
            if exact:
                den *= 2
            for k1, p1, m1 in lhs:
                row, p1, m1 = table[k1], p1 * h, m1 * h
                for k2, p2, m2 in rhs:
                    k, sign = row[k2]
                    if sign > 0:
                        P[k] += p1 * p2
                        M[k] += m1 * m2
                    else:
                        P[k] -= p1 * p2
                        M[k] -= m1 * m2
            out[0::2], out[1::2] = map(add, P, M), map(sub, P, M)
        else:
            for k1, x1 in lhs:
                row = table[k1]
                for k2, x2 in rhs:
                    k, sign = row[k2]
                    if sign > 0:
                        out[k] += x1 * x2
                    else:
                        out[k] -= x1 * x2
        return Multivector._new(rep, out, den)

    # -- involutions -----------------------------------------------------------

    def involution(self, kind: str) -> "Multivector":
        """Apply bar, dagger or hat.

        Each coordinate takes its basis element's sign: the grade sign of
        its blade, negated on the adjoined-unit part by bar and hat (they
        conjugate the coefficient), not by dagger.
        """
        try:
            signs = self.rep._involution_signs[kind]
        except KeyError:
            raise ValueError(f"unknown involution {kind!r}") from None
        if self.den is not None:
            return Multivector._new(self.rep, list(map(mul, self.nums, signs)), self.den)
        # zeros stay as they are, so a float +0.0 does not become -0.0
        return Multivector._new(self.rep, [-c if s < 0 and c else c for c, s in zip(self.nums, signs)], None)

    def bar(self) -> "Multivector":
        return self.involution("bar")

    def dagger(self) -> "Multivector":
        return self.involution("dagger")

    def hat(self) -> "Multivector":
        return self.involution("hat")

    # -- structure ---------------------------------------------------------------

    def to_matrix(self) -> HMatrix:
        """The element's matrix in its representation: its coordinates
        scattered in basis order (:meth:`AlgebraRep._scatter`), so results
        equal those of summing HScalar-scaled blade matrices."""
        return self.rep._scatter(zip(self.rep._coord_map.values(), self.nums), self.den)

    def __repr__(self):
        parts = [f"({z}){''.join(f'e{i}' for i in blade) or '1'}" for blade, z in self.coeffs.items()]
        return " + ".join(parts) or "<0>"


# -- named representations ------------------------------------------------------


def _unit_1x1(name: str) -> HMatrix:
    return HMatrix([[HScalar.unit(name)]])


@lru_cache(maxsize=None)
def get_rep(name: str) -> AlgebraRep:
    """Shared, construction-validated representation instances."""
    unit_j = HScalar.unit("j")
    unit_i = HScalar.unit("i")
    if name == "r01":
        return AlgebraRep("r01", Signature(0, 1), [_unit_1x1("i")])
    if name == "r10":
        return AlgebraRep("r10", Signature(1, 0), [_unit_1x1("j")])
    if name == "c10bar":
        return AlgebraRep("c10bar", Signature(1, 0), [_unit_1x1("j")], adjoined="i")
    if name in ("r30", "c30bar"):
        gens = [pauli2(k).scale(unit_j) for k in (1, 2, 3)]
        adj = "j" if name == "c30bar" else ""
        return AlgebraRep(name, Signature(3, 0), gens, adjoined=adj)
    if name in ("r05", "h05bar"):
        gens = [sigma_ab(0, k).scale(unit_i) for k in range(1, 6)]
        adj = "j" if name == "h05bar" else ""
        return AlgebraRep(name, Signature(0, 5), gens, adjoined=adj)
    raise ValueError(f"unknown representation {name!r}")


def pseudoscalar(rep: AlgebraRep) -> Multivector:
    """Ordered product of all generators (the highest-grade blade)."""
    acc = rep.scalar(1)
    for k in range(1, rep.signature.n + 1):
        acc = acc.gp_blades(rep.generator(k))
    return acc


def ring_unit_multivectors(rep: AlgebraRep) -> dict[str, Multivector]:
    """Realizations of 1, i, j, ij inside a complexified representation.

    Each unit u is the one basis element whose matrix is +u or -u times
    the identity, found once per representation from its basis matrices,
    so a unit may be the adjoined coefficient unit, a generator or a
    blade (i j = e1 e2 e3 in the 2x2 algebra, -i = e1..e5 in the 4x4
    algebra).  Raises ``ValueError`` when the representation lacks one.
    """
    if len(rep._ring_units) < len(_RING_UNITS):
        raise ValueError(f"{rep.name} does not contain all four scalar units")
    return dict(rep._ring_units)


# -- dimension counting -----------------------------------------------------------


class _ExactEchelon:
    """Incremental row echelon of sparse int vectors, fraction-free: a
    vector is reduced by integer multiples of the rows, so the rank is the
    rank over the rationals."""

    def __init__(self):
        self.rows = {}  # pivot column -> sparse row, its entries without a common factor

    def reduce(self, vec: dict) -> dict:
        vec = {k: v for k, v in vec.items() if v}
        for pivot in sorted(self.rows):
            c = vec.get(pivot)
            if not c:
                continue
            row = self.rows[pivot]
            g = gcd(row[pivot], c)
            p, c = row[pivot] // g, c // g  # p * vec - c * row vanishes at the pivot
            vec = {k: p * v for k, v in vec.items()}
            for k, val in row.items():
                nxt = vec.get(k, 0) - c * val
                if nxt:
                    vec[k] = nxt
                else:
                    vec.pop(k, None)
        return vec

    def try_add(self, vec: dict) -> bool:
        """Insert if independent of the current span; returns True if new."""
        red = self.reduce(vec)
        if not red:
            return False
        g = gcd(*red.values())
        self.rows[min(red)] = {k: v // g for k, v in red.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def _sparse_coords(m: HMatrix) -> dict:
    """The non-zero numerators of an exact matrix; its denominator, a
    common scale, does not change a rank."""
    return {idx: x for idx, x in enumerate(m.nums) if x}


def enumerate_algebra(rep: AlgebraRep, multipliers=None) -> int:
    """Count of real-linearly independent elements generated from the
    identity by right multiplication with ``multipliers`` (matrices of the
    representation; by default its generators and adjoined unit).

    Closes the generating set under multiplication; independence over the
    reals is decided by exact rank of the real coordinate vectors.
    """
    if multipliers is None:
        multipliers = list(rep.gens)
        if rep.adjoined:
            multipliers.append(HMatrix.identity(rep.n).scale(HScalar.unit(rep.adjoined)))
    echelon = _ExactEchelon()
    start = HMatrix.identity(rep.n)
    echelon.try_add(_sparse_coords(start))
    queue = [start]
    while queue:
        current = queue.pop()
        for mult in multipliers:
            candidate = current @ mult
            if echelon.try_add(_sparse_coords(candidate)):
                queue.append(candidate)
    return echelon.rank


def even_subalgebra(rep: AlgebraRep) -> tuple[tuple[Multivector, ...], int]:
    """Basis of the graduation-fixed part, and its count.

    For plain representations these are the even-grade blades, 2^(n-1) of
    them; with an adjoined unit the odd blades paired with the unit are
    fixed as well.
    """
    hat = rep._involution_signs["hat"]
    fixed = [Multivector._new(rep, (1 if j == k else 0 for j in range(len(hat))), 1)
             for k, sign in enumerate(hat) if sign > 0]
    return tuple(fixed), len(fixed)


# -- explicit entry-permutation involutions ----------------------------------------


def porteous_conjugate_2x2(a: HMatrix) -> HMatrix:
    """Conjugation of a 2x2 matrix by entry permutation alone.

    Fixes the identity and negates each Pauli matrix without touching the
    hypercomplex units inside the entries.
    """
    if a.n != 2:
        raise ValueError("expects a 2x2 matrix")
    (a11, a12), (a21, a22) = a.rows
    return HMatrix([[a22, -a12], [-a21, a11]])


_DAGGER_SRC = (
    ((2, 2, 1), (1, 2, -1), (4, 2, 1), (3, 2, -1)),
    ((2, 1, -1), (1, 1, 1), (4, 1, -1), (3, 1, 1)),
    ((2, 4, 1), (1, 4, -1), (4, 4, 1), (3, 4, -1)),
    ((2, 3, -1), (1, 3, 1), (4, 3, -1), (3, 3, 1)),
)

_HAT_SRC = (
    ((2, 2, 1), (2, 1, -1), (2, 4, 1), (2, 3, -1)),
    ((1, 2, -1), (1, 1, 1), (1, 4, -1), (1, 3, 1)),
    ((4, 2, 1), (4, 1, -1), (4, 4, 1), (4, 3, -1)),
    ((3, 2, -1), (3, 1, 1), (3, 4, -1), (3, 3, 1)),
)


def _permute_4x4(a: HMatrix, table, conjugate_entries: bool) -> HMatrix:
    if a.n != 4:
        raise ValueError("expects a 4x4 matrix")
    coords, out = a.nums, []
    for line in table:
        for sr, sc, sign in line:
            k = 16 * (sr - 1) + 4 * (sc - 1)
            x, y, v, w = coords[k:k + 4]
            if conjugate_entries:
                y, v = -y, -v
            out += (-x, -y, -v, -w) if sign < 0 else (x, y, v, w)
    return HMatrix._new(4, out, a.den)


def porteous_dagger_4x4(a: HMatrix) -> HMatrix:
    """Reversion of a 4x4 matrix as a signed entry permutation."""
    return _permute_4x4(a, _DAGGER_SRC, conjugate_entries=False)


def porteous_hat_4x4(a: HMatrix) -> HMatrix:
    """Graduation of a 4x4 matrix: signed permutation of the entrywise
    scalar conjugates, chosen so that bar = hat-then-dagger is plain
    conjugate-transposition."""
    return _permute_4x4(a, _HAT_SRC, conjugate_entries=True)


# -- published sign tables ------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    unit: str
    bar: int
    dagger: int
    hat: int
    derived: bool = False


def _unit_signs(mv: Multivector) -> tuple[int, int, int]:
    """The bar, dagger and hat signs of a unit, whose images must be +-itself."""
    images = [mv.involution(k) for k in ("bar", "dagger", "hat")]
    if any(image != mv and image != -mv for image in images):
        raise ValueError(f"involution image of {mv!r} is not +-itself")
    return tuple(1 if image == mv else -1 for image in images)


def _catalog(rep_name: str):
    """Units displayed for a representation, as blade realizations: the
    generators that are not themselves scalar units, the sigma matrices
    as unit multiples of blades (sigma_k = j e_k in c30bar; sigma_0k =
    -i e_k and sigma_kl = i e_k e_l in h05bar), then the scalar units the
    representation holds, ij marked derived."""
    rep = get_rep(rep_name)
    units = rep._ring_units
    gens = [(f"e{k}", rep.generator(k), False) for k in range(1, rep.signature.n + 1)]
    rows = [row for row in gens if row[1] not in units.values()]
    if rep_name == "c30bar":
        # j is c30bar's coefficient unit: j e_k is the blade e_k with coefficient j
        rows += [(f"sigma{k}", rep.blade((k,), HScalar.unit("j")), False) for k in (1, 2, 3)]
    if rep_name == "h05bar":
        rows += [(f"sigma0{k}", (-units["i"]).gp_blades(rep.generator(k)), False) for k in range(1, 6)]
        rows += [(f"sigma{k}{l}", units["i"].gp_blades(rep.blade((k, l))), False)
                 for k, l in combinations(range(1, 6), 2)]
    return rows + [(u, mv, u == "ij") for u, mv in units.items() if u != "1"]


# cmd-facing aliases: the tables cover the plain and the complexified
# algebra alike, and the listed units need the complexified coefficients.
_TABLE_ALIAS = {"r30": "c30bar", "r05": "h05bar"}


def involution_table(rep_name: str) -> list[TableRow]:
    """Computed bar/dagger/hat signs for every displayed unit.

    Rows marked derived have no published counterpart; they follow from
    the blade realization and are printed for completeness.
    """
    catalog = _catalog(_TABLE_ALIAS.get(rep_name, rep_name))
    return [TableRow(unit, *_unit_signs(mv), derived) for unit, mv, derived in catalog]
