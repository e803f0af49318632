"""Clifford algebra representations over the hyperbolic-complex scalars.

Each representation carries a set of anticommuting generator matrices, an
optional adjoined central unit (``i`` or ``j``), and the blade machinery
used to move between matrices and coefficient expansions.  Seven named
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

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations, count, product
from math import gcd
from operator import xor

from .matrices import HMatrix, pauli2, sigma_ab
from .scalars import _RING_UNITS, BackendMismatch, HScalar, RealCoords, _entering, _over_lcm

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

Blade = tuple


class NonOrthogonalBasis(ValueError):
    """Raised when a representation's basis elements fail the pairing check."""


class Signature(namedtuple("Signature", "p q")):
    """Counts of generators squaring to +1 (p) and to -1 (q).

    The scalar product of the underlying quadratic space carries a minus
    sign on the p-part and a plus sign on the q-part; combined with
    e*conj(e) = -e^2 this fixes e^2 = +1 for the first p generators and
    e^2 = -1 for the remaining q.
    """

    __slots__ = ()

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


def _blades(n: int) -> tuple:
    """The canonical blades of n generators, by grade, then in order."""
    return tuple(sorted((c for g in range(n + 1) for c in combinations(range(1, n + 1), g)),
                        key=lambda b: (len(b), b)))


# the left rows under one guard of a compiled blade product
_BLOCK = 4


class _Kernel(tuple):
    """A signed-permutation product table (:func:`_blade_product`): row k1
    holds ``(k, sign)`` per right index k2, so coordinate k1 times
    coordinate k2 adds with ``sign`` to output k.  Its products, like the
    maps of a :class:`_Table`, are code generated from the rows, each
    compiled by its first caller.  Set-up compiles none: a product of basis
    elements reads one entry of the rows (:meth:`AlgebraRep._basis_product`).
    ``product(a, b, zero)`` multiplies coordinates of the backend whose zero
    it is given: each block of ``_BLOCK`` left rows sits under one ``if`` on
    its left coordinates, and under it each output is one sum
    ``o_k = o_k + a_k1 * b_k2 - ...`` in k1 order, so in the order of the
    pairs.  A zero left coordinate in a live block adds a signed zero, which
    never changes a sum started at ``+0.0``: results are the pair loop's bit
    for bit when the operands and null sums are finite.  ``joined(c, d, h,
    zero)`` takes a j-rep's coordinates ``a, b`` of each blade ``a + b j`` to
    the null pairs ``(a +- b) * h`` (left) and ``a +- b`` (right), runs
    ``product`` on the sums (P) and on the differences (M) and returns
    ``P + M, P - M`` per blade.  :meth:`restricted` runs the same sums on
    operands that are zero off a few coordinates (``qform`` and ``dot``)."""

    def _terms(self, rows, cols, a: str, b: str) -> dict:
        """Per output k, the signed products ``a<k1> * b<k2>`` of left rows
        ``rows`` and right rows ``cols`` that land on k, in k1 order."""
        terms = {}
        for k1 in rows:
            for k2 in cols:
                k, sign = self[k1][k2]
                terms.setdefault(k, []).append((sign, f"{a}{k1} * {b}{k2}"))
        return terms

    @cached_property
    def product(self):
        n = len(self)
        lines = ["def product(a, b, zero):", f"    {_names('a', n)}, = a", f"    {_names('b', n)}, = b",
                 f"    {' = '.join(f'o{k}' for k in range(n))} = zero"]
        for lo in range(0, n, _BLOCK):
            rows = range(lo, min(lo + _BLOCK, n))
            terms = self._terms(rows, range(n), "a", "b")
            lines.append(f"    if {' or '.join(f'a{k1}' for k1 in rows)}:")
            lines += (f"        o{k} = {_sum([(1, f'o{k}'), *terms[k]])}" for k in range(n))
        lines.append(f"    return [{_names('o', n)}]")
        return _compiled(lines, "product")

    @cached_property
    def joined(self):
        n = len(self)
        lines = ["def joined(c, d, h, zero):", f"    {_names('c', 2 * n)}, = c", f"    {_names('d', 2 * n)}, = d"]
        c, d = ({k: (1, f"{v}{k}") for k in range(2 * n)} for v in "cd")
        for out, op in (("p", "+"), ("m", "-")):
            left = "".join(f"({pair}) * h, " for pair in _row_sums(c, op, 2).values())
            right = "".join(f"{pair}, " for pair in _row_sums(d, op, 2).values())
            lines.append(f"    {_names(out, n)}, = product(({left}), ({right}), zero)")
        lines.append(f"    return [{', '.join(map(_join, range(2 * n)))}]")
        return _compiled(lines, "joined", product=self.product)

    def restricted(self, left, right, outputs, joined: bool):
        """``restricted(x, y, h, zero)``: the coordinates ``outputs`` of
        ``joined`` (if ``joined``) or ``product`` of two operands that are zero
        off a few coordinates: ``left[a] = (k, sign)`` puts ``sign * x[a]`` on
        coordinate k, and ``right`` puts ``y`` likewise.  Each sum is the full
        call's less its terms with a factor on a zero coordinate, which with
        finite null sums change no float: results are the full call's."""
        w = 2 if joined else 1  # coordinates per row
        lines = ["def restricted(x, y, h, zero):", f"    {_names('x', len(left))}, = x",
                 f"    {_names('y', len(right))}, = y"]
        # per operand, each kept coordinate's signed number
        sides = [{k: (sign, f"{v}{a}") for a, (k, sign) in enumerate(kept)} for v, kept in (("x", left), ("y", right))]
        rows = sorted({k // w for k in outputs})
        for out, op in (("p", "+"), ("m", "-"))[:w]:  # a j-rep's null sums and differences
            if out == "m" and not any(k % 2 for side in sides for k in side):
                lines += (f"    m{k} = p{k}" for k in rows)  # no j coordinate: each difference is its sum
                break
            lrows, rrows = (_row_sums(numbers, op, w) for numbers in sides)
            lines += (f"    l{out}{r} = ({pair}){' * h' if joined else ''}" for r, pair in lrows.items())
            lines += (f"    r{out}{r} = {pair}" for r, pair in rrows.items())
            terms = self._terms(lrows, rrows, f"l{out}", f"r{out}")
            lines += (f"    {out}{k} = {_sum([(1, 'zero'), *terms.get(k, [])])}" for k in rows)
        lines.append(f"    return [{', '.join(_join(k) if joined else f'p{k}' for k in outputs)}]")
        return _compiled(lines, "restricted")


class _Table(tuple):
    """Coordinate tables in basis order, entry k the ``(real_index, sign)`` pairs
    of an n x n signed-unit monomial matrix (n pairs over 4n^2 real coordinates),
    and their maps by :func:`_linear`, each compiled by its first call: ``gather(x,
    zero)``, each entry's signed sum of coordinates ``x``; ``scatter(c, zero)``, per
    coordinate the signed sum, in basis order, of the numbers ``c`` listing it."""

    @cached_property
    def gather(self):
        return _linear(self, 4 * len(self[0]) ** 2)

    @cached_property
    def scatter(self):
        rows = [[] for _ in range(4 * len(self[0]) ** 2)]
        for k, pairs in enumerate(self):
            for idx, sign in pairs:
                rows[idx].append((k, sign))
        return _linear(rows, len(self))


def _linear(rows, size: int):
    """``linear(x, zero)`` of ``size`` inputs, per row of ``(index, sign)`` terms ``zero + x<index> - ...``."""
    sums = ", ".join(_sum([(1, "zero"), *((sign, f"x{i}") for i, sign in row)]) for row in rows)
    return _compiled(["def linear(x, zero):", f"    {_names('x', size)}, = x", f"    return [{sums}]"], "linear")


def _names(prefix: str, n: int) -> str:
    return ", ".join(f"{prefix}{k}" for k in range(n))


def _sum(terms) -> str:
    """The source of the sum of the ``(sign, operand)`` terms, left to right."""
    text = "".join(f" {'+' if sign > 0 else '-'} {operand}" for sign, operand in terms)
    return text[3:] if text.startswith(" +") else f"-{text[3:]}"


def _row_sums(numbers: dict, op: str, w: int) -> dict:
    """Per row r of ``w`` coordinates, the source of the sum of the signed
    numbers ``{coordinate: (sign, name)}`` on it, a coordinate not among
    them zero and the second negated when ``op`` is ``-``: a j-rep's null
    sum or difference ``c_2r +- c_2r+1`` (``w = 2``), or ``c_r`` (``w = 1``)."""
    rows = {}
    for k, (sign, name) in sorted(numbers.items()):
        if k % w and op == "-":
            sign = -sign
        rows.setdefault(k // w, []).append((sign, name))
    return {r: _sum(terms) for r, terms in rows.items()}


def _join(k: int) -> str:
    """The source of coordinate k of a joined product: ``P + M`` on a blade's
    real coordinate, ``P - M`` on its j one."""
    return f"p{k // 2} {'-' if k % 2 else '+'} m{k // 2}"


def _compiled(lines: list, name: str, **namespace):
    """The function ``name`` defined by the source ``lines``, its globals ``namespace``."""
    exec(compile("\n".join(lines), f"<generated {name}>", "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=None)
def _blade_product(signature: Signature) -> _Kernel:
    """The product of the signature's blades, shared by its representations:
    row k1 holds ``(k, sign)`` per blade k2.  A blade is the bitmask of its
    generators (i on bit i - 1), so the product blade is ``m1 ^ m2`` and its
    sign the parity of ``m1 & flips[m2]``: ``flips[m2]`` is the XOR of the
    generators after each index of m2 (one transposition per pair out of
    order) and m2's generators that square to -1 (one sign per shared one).
    :func:`blade_mul`, sorting the indices pair by pair, is its oracle."""
    blades = _blades(signature.n)
    masks = [sum(1 << (i - 1) for i in b) for b in blades]
    index = {m: k for k, m in enumerate(masks)}
    flips = [reduce(xor, (-1 << i for i in b), m & -1 << signature.p) for b, m in zip(blades, masks)]
    return _Kernel(tuple((index[m1 ^ m2], -1 if (m1 & f).bit_count() & 1 else 1) for m2, f in zip(masks, flips))
                   for m1 in masks)


@lru_cache(maxsize=None)
def _blade_tables(gens: tuple, signature: Signature) -> tuple[int, dict]:
    """The matrix size n and each blade's coordinate table, shared (and never
    mutated) by the representations on the generators ``gens``: the
    ``(real_index, sign)`` pairs of the blade's matrix in index order.  The
    generators are validated first: a non-:class:`HMatrix` raises
    ``TypeError``; a count other than the signature's, one that is not exact
    or not of the first one's size, whose square is not its signature's, or
    a pair that fails to anticommute ``ValueError``.  A blade's matrix is its
    prefix's times its last generator (the blades run by grade, prefixes
    first), and must be a signed-unit monomial matrix: one non-zero entry
    per row, one of +-1, +-i, +-j, +-ij, so n real coordinates of +-1.  The
    tables come from generator products, not from the blade product."""
    if len(gens) != signature.n:
        raise ValueError(f"{len(gens)} generators for a signature of {signature.n}")
    idm = HMatrix.identity(gens[0].n if gens and isinstance(gens[0], HMatrix) else 1)
    for k, g in enumerate(gens, start=1):
        if not isinstance(g, HMatrix):
            raise TypeError(f"generator {k} ({g!r}) is not an HMatrix")
        if not g.is_exact or g.n != idm.n:
            raise ValueError(f"generator {k} is not an exact {idm.n}x{idm.n} matrix")
        if g @ g != (idm if signature.square(k) > 0 else -idm):
            raise ValueError(f"generator {k} squares incorrectly")
    for (a, ga), (b, gb) in combinations(enumerate(gens, start=1), 2):
        if ga @ gb + gb @ ga != HMatrix.zeros(idm.n):
            raise ValueError(f"generators {a},{b} fail to anticommute")
    mats, tables = {(): idm}, {}
    for blade in _blades(signature.n):
        if blade:
            last = gens[blade[-1] - 1]
            mats[blade] = mats[blade[:-1]] @ last if len(blade) > 1 else last
        m = mats[blade]
        pairs = tuple((idx, c) for idx, c in enumerate(m.nums) if c)
        rows = {idx // (4 * idm.n) for idx, _ in pairs}
        if m.den != 1 or len(rows) != idm.n or len(pairs) != idm.n or any(c not in (1, -1) for _, c in pairs):
            raise ValueError(f"basis element {(blade, '1')} is not a signed-unit monomial matrix")
        tables[blade] = pairs
    return idm.n, tables


def involution_sign(kind: str, grade: int) -> int:
    flips = {"hat": grade, "dagger": grade * (grade - 1) // 2, "bar": grade * (grade + 1) // 2}
    if kind not in flips:
        raise ValueError(f"unknown involution {kind!r}")
    return -1 if flips[kind] % 2 else 1


def _single_slot(mv: "Multivector"):
    """The slot (basis index, sign) of an exact element whose only non-zero
    coordinate is +-1; None for any other element."""
    nonzero = [(k, c) for k, c in enumerate(mv.nums) if c]
    return nonzero[0] if mv.den == 1 and len(nonzero) == 1 and nonzero[0][1] in (1, -1) else None


class AlgebraRep:
    """A validated matrix representation of one of the named algebras."""

    def __init__(self, name: str, signature: Signature, gens, adjoined: str = ""):
        if adjoined not in ("", "i", "j"):
            raise ValueError("adjoined unit must be '', 'i' or 'j'")
        self.name, self.signature, self.gens, self.adjoined = name, signature, tuple(gens), adjoined
        try:
            self.n, tables = _blade_tables(self.gens, signature)
        except (TypeError, ValueError) as err:
            raise type(err)(f"{err} in {name}") from None
        self.blades = _blades(signature.n)
        self.units = ("1",) + ((adjoined,) if adjoined else ())
        self.basis = tuple((b, u) for b in self.blades for u in self.units)
        # the HScalar component (x y v w) of each unit
        self._spots = tuple(map(_RING_UNITS.index, self.units))
        # the matrix route's coordinate table, in basis order: (b, u) is b's matrix times the unit
        # u of code c, so each coordinate's unit s (idx & 3) moves to s ^ c, negated for i i = -1
        self._coord_table = _Table(tuple((idx ^ c, -sign if c & idx & 1 else sign) for idx, sign in tables[b])
                                   for b in self.blades for c in self._spots)
        self._validate_orthogonality()
        self._ring_units = self._find_ring_units()
        # Multivector coordinates: blade -> index of its real coordinate,
        # the adjoined-unit coordinate following it
        self._offset = {b: k * len(self.units) for k, b in enumerate(self.blades)}
        # per involution, the basis elements it negates: the grade sign of
        # the blade, flipped on the adjoined unit by bar and hat (they
        # conjugate it), is -1
        self._involution_flips = {
            kind: tuple(k for k, (b, u) in enumerate(self.basis)
                        if involution_sign(kind, len(b)) * (1 if u == "1" or kind == "dagger" else -1) < 0)
            for kind in ("bar", "dagger", "hat")
        }
        # gp_blades' kernel, its table _product[k1][k2] = (k, sign) read off
        # blade bitmasks, no basis matrix: the signature's blade product for a
        # j-rep's null pairs and a rep with no adjoined unit; over the basis
        # for i, where units 0 (1) and 1 (i) multiply by XOR and i i = -1.
        self._product = _blade_product(signature)
        if adjoined == "i":
            self._product = _Kernel(
                tuple((2 * k + (u1 ^ u2), -sign if u1 & u2 else sign) for k, sign in row for u2 in (0, 1))
                for row in self._product for u1 in (0, 1)
            )

    # -- construction-time validation -------------------------------------

    def _validate_orthogonality(self):
        """Raise :class:`NonOrthogonalBasis` for the first pair of basis elements,
        in basis order, whose pairing is not 0.  Each pairing is summed over the
        real coordinates the two share, found by an index of the elements at
        each coordinate, so a pair that shares none costs nothing."""
        keys, sharing = self.basis, {}
        for b, pairs in enumerate(self._coord_table):
            for idx, c in pairs:
                sharing.setdefault(idx, []).append((b, c))
        for a, (key, pairs) in enumerate(zip(keys, self._coord_table)):
            pairings = {}
            for idx, c in pairs:
                for b, cb in sharing[idx]:
                    if b > a:
                        pairings[b] = pairings.get(b, 0) + c * cb
            if failed := [b for b, p in pairings.items() if p]:
                raise NonOrthogonalBasis(f"basis elements {key} and {keys[min(failed)]} are not pairing-orthogonal")

    def _find_ring_units(self) -> dict:
        """The scalar units of 1, i, j, ij that the representation holds,
        as exact multivectors: u is sign times the basis element whose
        coordinate table is that of sign*u times the identity (u's part of
        diagonal entry r is real coordinate 4(n+1)r + spot)."""
        index = {pairs: k for k, pairs in enumerate(self._coord_table)}
        units = {}
        for (spot, u), sign in product(enumerate(_RING_UNITS), (1, -1)):
            k = index.get(tuple((4 * (self.n + 1) * r + spot, sign) for r in range(self.n)))
            if k is not None:
                units[u] = self._element(k, [sign], 1)
        return units

    def _element(self, k: int, parts, den) -> "Multivector":
        """The element whose stored numbers are ``parts`` from coordinate ``k``
        on and zero elsewhere, over ``den`` (``None``: floats)."""
        nums = [0.0 if den is None else 0] * len(self.basis)
        nums[k:k + len(parts)] = parts
        return Multivector._new(self, nums, den)

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
        """Coordinates of an ``n x n`` matrix over the basis via the real
        pairing, in the matrix's backend: :meth:`_gather` along the coordinate
        table, so another size raises ``ValueError``.  Matrices outside the
        algebra's span lose their orthogonal complement; use
        :meth:`decompose_residual` when that matters."""
        return Multivector._new(self, *self._gather(m, self._coord_table))

    def _gather(self, m: HMatrix, table: _Table) -> tuple[list, int | None]:
        """``m``'s coordinate along each entry of ``table`` by its ``gather``, as
        stored numbers and their denominator (``None``: floats; unreduced): on the
        pairing-orthogonal basis, its entry's signed sum of real coordinates from
        +0 over the norm n, floats scaled by 1/n first (exactly: n is 1, 2 or 4)
        so that a sum overflows only when its coordinate does.  Another size than
        ``n x n`` raises ``ValueError``, as in :meth:`dagger_matrix`."""
        if m.n != self.n:
            raise ValueError(f"{self.name} takes {self.n}x{self.n} matrices, not {m.n}x{m.n}")
        if m.is_exact:
            return table.gather(m.nums, 0), m.den * self.n
        scale = 1.0 / self.n
        return table.gather([scale * x for x in m.nums], 0.0), None

    def decompose_residual(self, m: HMatrix) -> tuple["Multivector", float]:
        mv = self.decompose(m)
        return mv, (m - mv.to_matrix()).max_abs()

    def _scatter(self, table: _Table, nums, den) -> HMatrix:
        """The matrix over ``den`` (``None``: floats) of one stored number per entry
        of ``table`` by its ``scatter``: each real coordinate the signed sum from
        +0 of the numbers whose entries list it.  A sum from +0 is never -0.0, so
        zero terms change nothing: results, NaN and inf too, are the non-zero terms'."""
        return HMatrix._new(self.n, table.scatter(nums, 0.0 if den is None else 0), den)

    @cached_property
    def _dagger_perm(self) -> tuple[tuple, tuple]:
        """Reversion as the ``(flips, order)`` of a sign map of the real matrix
        coordinates (:meth:`RealCoords._signed`), read off to_matrix . dagger
        . decompose of each unit coordinate matrix."""
        q, perm = 4 * self.n * self.n, {}
        for src in range(q):
            image = self.decompose(HMatrix._new(self.n, [int(k == src) for k in range(q)], 1)).dagger().to_matrix()
            moved = [(dst, (src, c)) for dst, c in enumerate(image.nums) if c]
            if image.den != 1 or len(moved) != 1:
                raise ValueError(f"reversion on {self.name} is not a signed permutation of matrix coordinates")
            perm.update(moved)
        return tuple(dst for dst in range(q) if perm[dst][1] < 0), tuple(perm[dst][0] for dst in range(q))

    def dagger_matrix(self, m: HMatrix) -> HMatrix:
        """``decompose(m).dagger().to_matrix()`` on a full-ring representation, in
        m's backend: the sign map :attr:`_dagger_perm`, so a zero keeps its sign
        and exact numerators keep their denominator; ``ValueError`` for a
        matrix of another size and on a rep where an image is not +-1 in one
        coordinate."""
        if m.n != self.n:
            raise ValueError(f"{self.name} takes {self.n}x{self.n} matrices, not {m.n}x{m.n}")
        return m._signed(*self._dagger_perm)

    # -- convenience -----------------------------------------------------------

    def scalar(self, z, exact: bool = True) -> "Multivector":
        return Multivector(self, {(): z}) if isinstance(z, HScalar) else self._times(0, z, exact)

    def generator(self, index: int, exact: bool = True) -> "Multivector":
        return self.blade((index,), exact=exact)

    def blade(self, blade: Blade, coeff=None, exact: bool = True) -> "Multivector":
        """The blade times ``coeff`` (by default 1): an :class:`HScalar` enters
        as a :class:`Multivector` coefficient, a number by :meth:`_times`."""
        blade = tuple(blade)
        if isinstance(coeff, HScalar):
            return Multivector(self, {blade: coeff})
        if blade not in self._offset:
            raise ValueError(f"{blade} is not a blade of {self.name}")
        k = self._offset[blade]
        if coeff is None:
            return self._element(k, [1], 1) if exact else self._element(k, [1.0], None)
        return self._times(k, coeff, exact)

    def _times(self, k: int, z, exact: bool) -> "Multivector":
        """Basis element ``k`` times the number ``z``, entering by the one rule
        once in the backend ``exact`` names (a float never enters the exact one)."""
        (num,), den = _entering((z,), "HScalar")
        if den is None and exact:
            raise BackendMismatch("a float component cannot enter the exact backend")
        return self._element(k, [num if den is None or exact else num / den], den if exact else None)

    def _kernel_scale(self, den):
        """``(h, zero, den)`` of a kernel product whose operands' denominators
        multiply to ``den`` (``None``: floats).  A j-rep's ``P +- M`` counts each
        term twice: exact, ``den`` doubles; floats take ``h = 0.5``."""
        if den is None:
            return 0.5, 0.0, None
        return 1, 0, 2 * den if self.adjoined == "j" else den

    def _basis_entry(self, k1: int, k2: int) -> tuple[int, int]:
        """``(k, sign)``: basis element k1 times k2 is sign times basis element k,
        read off ``_product``, the kernel's table.  A j-rep's table is over its
        blades (``k >> 1``); the unit bits ``k & 1`` multiply by XOR (j^2 = 1)."""
        if self.adjoined == "j":
            k, sign = self._product[k1 >> 1][k2 >> 1]
            return 2 * k + ((k1 ^ k2) & 1), sign
        return self._product[k1][k2]

    def _basis_product(self, a: "Multivector", b: "Multivector") -> "Multivector":
        """``a.gp_blades(b)`` of two exact elements of this rep, each +-1 on one
        coordinate, by :meth:`_basis_entry`; any other operand raises ``ValueError``."""
        slots = [_single_slot(x) if x.rep is self else None for x in (a, b)]
        if None in slots:
            raise ValueError(f"not two elements of {self.name} that are +-1 on one coordinate")
        (k1, s1), (k2, s2) = slots
        k, sign = self._basis_entry(k1, k2)
        return self._element(k, [s1 * s2 * sign], 1)

    def __repr__(self):
        return f"AlgebraRep({self.name})"


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
        the stored numbers.  Anything but an int or a ``Fraction`` enters by
        :meth:`HScalar.make`, so a ``bool`` raises ``TypeError``.  Mixed
        backends raise :class:`BackendMismatch`."""
        if isinstance(z, HScalar):  # a ring operation: backend and subring, not the parts
            if z.is_exact != self.is_exact:
                raise BackendMismatch("mixed exact/float scalar operands")
            parts = [z.coeffs()[spot] for spot in self.rep._coeff_spots(z)]
            nums, den = _over_lcm(parts) if self.den is not None else (parts, None)
            return self.gp_blades(self.rep._element(0, nums, den))
        if z.__class__ not in (int, Fraction):
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
        """Geometric product on the blades, independent of the matrix route:
        one call of the representation's kernel (:class:`_Kernel`, the table
        :func:`_blade_product`) on the stored numbers, so exact output
        is over the product of the denominators, reduced once.  A j-rep (j
        central, j^2 = 1) runs ``joined``: each blade coefficient ``a + b j``
        as its null pair ``(a + b, a - b)``, ``P`` summed over the ``a + b``
        and ``M`` over the ``a - b``, joined as ``((P + M)/2, (P - M)/2)``.
        Operands of two backends raise :class:`BackendMismatch`, zero or not.
        """
        rep = self.rep
        h, zero, den = rep._kernel_scale(self.den * other.den if self._peer(other) else None)
        if rep.adjoined == "j":
            return Multivector._new(rep, rep._product.joined(self.nums, other.nums, h, zero), den)
        return Multivector._new(rep, rep._product.product(self.nums, other.nums, zero), den)

    # -- involutions -----------------------------------------------------------

    def involution(self, kind: str) -> "Multivector":
        """Apply bar, dagger or hat: a sign map (:meth:`RealCoords._signed`).

        Each coordinate takes its basis element's sign: the grade sign of
        its blade, negated on the adjoined-unit part by bar and hat (they
        conjugate the coefficient), not by dagger.  Only the coordinates
        of sign -1 are negated, a zero left as it is, so a float +0.0 does
        not become -0.0; exact numerators keep their denominator, unreduced.
        """
        try:
            flips = self.rep._involution_flips[kind]
        except KeyError:
            raise ValueError(f"unknown involution {kind!r}") from None
        return self._signed(flips)

    def bar(self) -> "Multivector":
        return self.involution("bar")

    def dagger(self) -> "Multivector":
        return self.involution("dagger")

    def hat(self) -> "Multivector":
        return self.involution("hat")

    # -- structure ---------------------------------------------------------------

    def to_matrix(self) -> HMatrix:
        """The element's matrix, its coordinates scattered through the coordinate
        table (:meth:`AlgebraRep._scatter`): the sum of its scaled blade matrices."""
        return self.rep._scatter(self.rep._coord_table, self.nums, self.den)

    def __repr__(self):
        parts = [f"({z}){''.join(f'e{i}' for i in blade) or '1'}" for blade, z in self.coeffs.items()]
        return " + ".join(parts) or "<0>"


# -- named representations ------------------------------------------------------


def _unit_1x1(name: str) -> HMatrix:
    return HMatrix._new(1, [int(u == name) for u in _RING_UNITS], 1)


# each twin's real twin and the unit it adjoins: the twin takes the real
# twin's generator tuple, so it builds no generator and finds their tables cached
_TWINS = {"c10bar": ("r10", "i"), "c30bar": ("r30", "j"), "h05bar": ("r05", "j")}


@lru_cache(maxsize=None)
def get_rep(name: str) -> AlgebraRep:
    """Shared, construction-validated representation instances."""
    if name in _TWINS:
        real, unit = _TWINS[name]
        return AlgebraRep(name, get_rep(real).signature, get_rep(real).gens, adjoined=unit)
    if name == "r01":
        return AlgebraRep("r01", Signature(0, 1), [_unit_1x1("i")])
    if name == "r10":
        return AlgebraRep("r10", Signature(1, 0), [_unit_1x1("j")])
    if name == "r30":
        return AlgebraRep("r30", Signature(3, 0), [pauli2(k).scale(HScalar.unit("j")) for k in (1, 2, 3)])
    if name == "r05":
        return AlgebraRep("r05", Signature(0, 5), [sigma_ab(0, k).scale(HScalar.unit("i")) for k in range(1, 6)])
    raise ValueError(f"unknown representation {name!r}")


def pseudoscalar(rep: AlgebraRep) -> Multivector:
    """Ordered product of all generators (the highest-grade blade), read off
    the blade table by :meth:`AlgebraRep._basis_product`: no kernel is compiled."""
    return reduce(rep._basis_product, map(rep.generator, range(1, rep.signature.n + 1)), rep._element(0, [1], 1))


def ring_unit_multivectors(rep: AlgebraRep) -> dict[str, Multivector]:
    """Realizations of 1, i, j, ij inside a complexified representation.

    Each unit u is the one basis element whose matrix is +u or -u times
    the identity, found once per representation from its coordinate table,
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
    echelon.try_add(dict(enumerate(start.nums)))  # numerators: a common denominator changes no rank
    queue = [start]
    while queue:
        current = queue.pop()
        for mult in multipliers:
            candidate = current @ mult
            if echelon.try_add(dict(enumerate(candidate.nums))):
                queue.append(candidate)
    return echelon.rank


def even_subalgebra(rep: AlgebraRep) -> tuple[tuple[Multivector, ...], int]:
    """Basis of the graduation-fixed part, and its count.

    For plain representations these are the even-grade blades, 2^(n-1) of
    them; with an adjoined unit the odd blades paired with the unit are
    fixed as well.
    """
    flips = rep._involution_flips["hat"]
    fixed = [rep._element(k, [1], 1) for k in range(len(rep.basis)) if k not in flips]
    return tuple(fixed), len(fixed)


# -- explicit entry-permutation involutions ----------------------------------------


# per output entry, row by row: (source row, source column, sign), 1-based
_CONJUGATE_SRC = (((2, 2, 1), (1, 2, -1)), ((2, 1, -1), (1, 1, 1)))

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


@lru_cache(maxsize=None)
def _permute(n: int, table, conjugate_entries: bool = False) -> tuple[tuple, tuple]:
    """The signed entry permutation ``table`` of an ``n x n`` matrix (its
    entries conjugated too when ``conjugate_entries``) as the ``(flips,
    order)`` of a sign map (:meth:`RealCoords._signed`): each part is read
    from its source entry, negated when the entry's sign and the
    conjugation of an i or j part disagree."""
    if len(table) != n:
        raise ValueError(f"expects a {len(table)}x{len(table)} matrix")
    flips, order = [], []
    for sr, sc, sign in (entry for line in table for entry in line):
        for u in range(4):
            if (sign < 0) != (conjugate_entries and u in (1, 2)):
                flips.append(len(order))
            order.append(4 * (n * (sr - 1) + sc - 1) + u)
    return tuple(flips), tuple(order)


def porteous_conjugate_2x2(a: HMatrix) -> HMatrix:
    """Conjugation of a 2x2 matrix by entry permutation alone.

    Fixes the identity and negates each Pauli matrix without touching the
    hypercomplex units inside the entries.
    """
    return a._signed(*_permute(a.n, _CONJUGATE_SRC))


def porteous_dagger_4x4(a: HMatrix) -> HMatrix:
    """Reversion of a 4x4 matrix as a signed entry permutation."""
    return a._signed(*_permute(a.n, _DAGGER_SRC))


def porteous_hat_4x4(a: HMatrix) -> HMatrix:
    """Graduation of a 4x4 matrix: signed permutation of the entrywise
    scalar conjugates, chosen so that bar = hat-then-dagger is plain
    conjugate-transposition."""
    return a._signed(*_permute(a.n, _HAT_SRC, conjugate_entries=True))


# -- published sign tables ------------------------------------------------------------


TableRow = namedtuple("TableRow", "unit bar dagger hat derived", defaults=(False,))


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
        rows += [(f"sigma{k}", rep._basis_product(units["j"], rep.generator(k)), False) for k in (1, 2, 3)]
    if rep_name == "h05bar":
        rows += [(f"sigma0{k}", rep._basis_product(-units["i"], rep.generator(k)), False) for k in range(1, 6)]
        rows += [(f"sigma{k}{l}", rep._basis_product(units["i"], rep.blade((k, l))), False)
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
