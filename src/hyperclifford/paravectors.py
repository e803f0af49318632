"""Paravector spaces: scalar-plus-vector slices of the representations.

A paravector space fixes an ordered basis of algebra elements whose first
member is the unity, together with the diagonal metric the basis induces
through the quadratic form x*bar(x).  Every basis is u*b for scalar units
u and b in (1, e_1 .. e_n), unit-major, with the units that
ring_unit_multivectors reads off the representation's coordinate table:

    space rep    n units       basis                              metric
    m4    c30bar 3 1           (1, e_k = j*sigma_k)               (+,-,-,-)
    e6    h05bar 5 1           (1, e_k = i*sigma_0k)              (+ x6)
    r66   h05bar 5 1 ij        (1, e_k, ij, ij*e_k = -j*sigma_0k) (+ x6, - x6)
    h1    c10bar 0 1 i j ij    (1, i, j, ij)                      (+,+,-,-)
    hm4   c30bar 3 1 i j ij    the m4 basis times each unit       (+,-,-,-) x2,
                                                                  (-,+,+,+) x2

hm4 carries extended momenta q + i*o + j*s + ij*u.  Every coordinate of
every space is one real number, held as RealCoords holds it: an int
numerator over one shared denominator (read as a Fraction), or a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .algebra import AlgebraRep, Multivector, _single_slot, _Table, get_rep, ring_unit_multivectors
from .matrices import HMatrix
from .scalars import HScalar, RealCoords, _entering, _floats

__all__ = [
    "ParavectorSpace",
    "Paravector",
    "get_space",
    "SPACE_NAMES",
    "dot",
    "wedge2",
    "wedge3",
    "wedge4",
    "quasi_sphere_residual",
    "embed_momentum",
]

# name: (representation, number of generators n, units u); the basis is
# u*b for b in (1, e_1 .. e_n), unit-major
_SPACES = {
    "m4": ("c30bar", 3, ("1",)),
    "e6": ("h05bar", 5, ("1",)),
    "r66": ("h05bar", 5, ("1", "ij")),
    "h1": ("c10bar", 0, ("1", "i", "j", "ij")),
    "hm4": ("c30bar", 3, ("1", "i", "j", "ij")),
}
SPACE_NAMES = tuple(_SPACES)


class ParavectorSpace:
    """An ordered paravector basis with its induced diagonal metric.

    Every basis element is a *slot*: one signed multivector coordinate,
    ``_slots[a] = (basis index, +-1)``, and each paravector coordinate is
    one real number on its slot.  The slots are distinct (checked at
    construction), so converting a paravector to a multivector is a signed
    scatter of its stored numbers over the same denominator, and
    projecting a matrix gathers the slot coordinates alone, as
    :meth:`AlgebraRep.decompose` gathers all of them.
    """

    def __init__(self, name: str, rep: AlgebraRep, basis):
        self.name, self.rep, self.basis = name, rep, tuple(basis)
        self.dim = len(self.basis)
        self._unit_slots = tuple(map(_single_slot, ring_unit_multivectors(rep).values()))
        slots = tuple(map(_single_slot, self.basis))
        for a, slot in enumerate(slots):
            if slot is None or slot[0] in {s[0] for s in slots[:a]}:
                raise ValueError(f"basis element {a} of {name} is not +-1 in one coordinate, on a slot of its own")
        self._slots = slots
        self._slot_pairs = _Table(tuple((i, s * t) for i, t in rep._coord_table[k]) for k, s in slots)
        # b bar(b), one entry of the blade table, is +-1 on the real scalar
        # coordinate (a tier-1 test holds it): the metric is its sign
        self.metric = tuple(_single_slot(rep._basis_product(b, b.bar()))[1] for b in self.basis)

    # -- paravector construction ------------------------------------------------

    def paravector(self, coords) -> "Paravector":
        return Paravector(self, coords)

    def ring_value(self, mv: Multivector) -> HScalar:
        """Value of an algebra element lying in the span of 1, i, j, ij.

        The units i and ij may sit on blades (pseudoscalar realizations), so
        the value is collected slot by slot (:meth:`_ring`), not off the scalar
        coefficient alone."""
        return self._ring([mv.nums[k] for k, _ in self._unit_slots], mv.den)

    def _ring(self, parts, den) -> HScalar:
        """The ring value of the numbers on the unit slots over ``den`` (``None``:
        floats).  A slot of sign -1 negates a non-zero number only, as
        :meth:`RealCoords._signed` does, so a zero part keeps its sign."""
        parts = [-c if sign < 0 and c else c for c, (_, sign) in zip(parts, self._unit_slots)]
        return HScalar(*parts) if den is None else HScalar(*[Fraction(x, den) for x in parts])

    def ring_residual(self, mv: Multivector) -> float:
        """Largest coordinate of an element outside the span of the four
        scalar units; zero exactly when the element is ring-valued, NaN when
        one is NaN, as :meth:`RealCoords.max_abs` gives it."""
        inside, den = {k for k, _ in self._unit_slots}, mv.den or 1
        mags = [abs(c) / den for k, c in enumerate(mv.nums) if k not in inside]
        return math.nan if math.isnan(sum(mags)) else max(mags, default=0.0)

    @cached_property
    def _unit_product(self):
        """``unit_product(x, y, h, zero)``: the unit-slot numbers of ``x * bar(y)``
        from two paravectors' stored numbers, the blade kernel's sums restricted
        to the slots (:meth:`~.algebra._Kernel.restricted`), compiled by the first call."""
        flips = self.rep._involution_flips["bar"]
        bar = tuple((k, -sign if k in flips else sign) for k, sign in self._slots)
        outputs = [k for k, _ in self._unit_slots]
        return self.rep._product.restricted(self._slots, bar, outputs, self.rep.adjoined == "j")

    def _unit_numbers(self, x: "Paravector", y: "Paravector") -> tuple[list, int | None]:
        """:attr:`_unit_product` of ``x._peer(y)``-checked operands, and its
        denominator as ``gp_blades`` gives it (``None`` for floats)."""
        h, zero, den = self.rep._kernel_scale(x.den * y.den if x._peer(y) else None)
        return self._unit_product(x.nums, y.nums, h, zero), den

    # -- multivector conversion ----------------------------------------------------

    def to_multivector(self, x: "Paravector") -> Multivector:
        """Scatter the stored numbers of x onto the slots, over the same
        denominator; the result keeps x's backend, also when x is zero."""
        den = x.den
        out = [0.0 if den is None else 0] * len(self.rep.basis)
        for c, (k, sign) in zip(x.nums, self._slots):
            if c:
                out[k] = c if sign > 0 else -c
        return Multivector._new(self.rep, out, den)

    def to_matrix(self, x: "Paravector") -> HMatrix:
        """The matrix of x in x's backend, by the compiled scatter of the slot pairs (:class:`~.algebra._Table`)."""
        return self.rep._scatter(self._slot_pairs, x.nums, x.den)

    def project_matrix(self, m: HMatrix) -> tuple["Paravector", float]:
        """The paravector of an ``n x n`` matrix's coordinates over the basis
        (``n`` the rep's size; another size raises ``ValueError``), plus the
        largest leftover component outside the span.

        One :meth:`AlgebraRep._gather` along the slot pairs, each slot's sign
        folded in, by their compiled gather: the table :meth:`to_matrix`
        scatters through, read the other way.  The paravector follows the
        matrix's backend, a float zero coordinate is +0.0, and the leftover
        is measured against the matrix rebuilt from it.
        """
        x = Paravector._new(self, *self.rep._gather(m, self._slot_pairs))
        return x, (m - self.to_matrix(x)).max_abs()

    def __repr__(self):
        return f"ParavectorSpace({self.name}, dim={self.dim})"


class Paravector(RealCoords):
    """Coordinates over a paravector basis, held as :class:`RealCoords`
    (``==`` and ``hash`` by value, sums, ``to_float``).  Immutable."""

    __slots__ = ("space", "nums", "den")
    _shape = "space"

    def __init__(self, space: ParavectorSpace, coords):
        """Floats (numeric work) or Fractions (bit-exact work), entering by
        :func:`~.scalars._entering`: ints fit either backend; a NaN or an
        infinity raises ``ValueError``, a Fraction next to a float
        :class:`BackendMismatch` and any other type ``TypeError``, each naming
        the index.  A wrong count raises ``ValueError``."""
        coords = tuple(coords)
        if len(coords) != space.dim:
            raise ValueError(f"{space.name} expects {space.dim} coordinates")
        self.space = space
        self.nums, self.den = _entering(coords, space.name)

    def to_multivector(self) -> Multivector:
        return self.space.to_multivector(self)

    def qform(self) -> HScalar:
        """The quadratic form x * bar(x), in the span of 1 and ij: ``ring_value``
        of ``gp_blades`` bit for bit, from its unit-slot sums alone."""
        return self.space._ring(*self.space._unit_numbers(self, self))

    def __repr__(self):
        return f"Paravector({self.space.name}, {list(self.coords)})"


@lru_cache(maxsize=None)
def get_space(name: str) -> ParavectorSpace:
    """The shared space ``name``: its basis and metric read off the blade table
    (:meth:`AlgebraRep._basis_product`), so it compiles no kernel."""
    if name not in _SPACES:
        raise ValueError(f"unknown paravector space {name!r}")
    rep_name, n, unit_names = _SPACES[name]
    rep = get_rep(rep_name)
    units = ring_unit_multivectors(rep)
    base = [units["1"]] + [rep.generator(k) for k in range(1, n + 1)]
    return ParavectorSpace(name, rep, [rep._basis_product(units[u], b) for u in unit_names for b in base])


# -- products -------------------------------------------------------------------


def dot(x: Paravector, y: Paravector) -> HScalar:
    """Symmetric product (x*bar(y) + y*bar(x)) / 2; equals the metric on
    basis pairs and the quadratic form on the diagonal.  Both products are their
    unit-slot sums alone, added and halved as ``scale`` halves: ``(a + b) * 0.5 + 0.0``."""
    (a, den), (b, _) = x.space._unit_numbers(x, y), x.space._unit_numbers(y, x)
    sums = [p + q for p, q in zip(a, b)] if den else [(p + q) * 0.5 + 0.0 for p, q in zip(a, b)]
    return x.space._ring(sums, den and 2 * den)


def wedge2(x: Paravector, y: Paravector) -> Multivector:
    """Antisymmetric part (x*bar(y) - y*bar(x)) / 2, a biparavector."""
    return _alternating_sum((x, y))


def _alternating_sum(xs) -> Multivector:
    """The sum over all k! orders of k paravectors of one space, with the
    order's sign and bars on the odd slots, over k!.  The terms are grouped
    by the two arguments that fill slots (0, 1), and for k = 4 also slots
    (2, 3), each group one antisymmetrized product
    ``A_ab = x_a bar(x_b) - x_b bar(x_a)``:

        k = 2:  A_01
        k = 3:  A_01 x_2 - A_02 x_1 + A_12 x_0
        k = 4:  A_01 A_23 - A_02 A_13 + A_03 A_12 + A_12 A_03 - A_13 A_02 + A_23 A_01

    That is 2, 9 and 18 blade products and k bars.  Exact results equal the
    permutation sum's; floats of k > 2 round differently."""
    for y in xs[1:]:
        xs[0]._peer(y)
    mvs = [x.to_multivector() for x in xs]
    bars = [mv.bar() for mv in mvs]
    k = len(mvs)
    A = {(a, b): mvs[a].gp_blades(bars[b]) - mvs[b].gp_blades(bars[a]) for a, b in combinations(range(k), 2)}
    if k == 2:
        total = A[0, 1]
    elif k == 3:
        total = A[0, 1].gp_blades(mvs[2]) - A[0, 2].gp_blades(mvs[1]) + A[1, 2].gp_blades(mvs[0])
    else:
        total = (A[0, 1].gp_blades(A[2, 3]) - A[0, 2].gp_blades(A[1, 3]) + A[0, 3].gp_blades(A[1, 2])
                 + A[1, 2].gp_blades(A[0, 3]) - A[1, 3].gp_blades(A[0, 2]) + A[2, 3].gp_blades(A[0, 1]))
    return total.scale(Fraction(1, math.factorial(k)))


def wedge3(x: Paravector, y: Paravector, v: Paravector) -> Multivector:
    """Triparavector: the alternating sum of the six products a*bar(b)*c,
    taken as three antisymmetrized pairs times the third argument."""
    return _alternating_sum((x, y, v))


def wedge4(x: Paravector, y: Paravector, v: Paravector, w: Paravector) -> Multivector:
    """Pseudoscalar part: the alternating sum of the 24 products
    a*bar(b)*c*bar(d), taken as the six products of two antisymmetrized
    pairs."""
    return _alternating_sum((x, y, v, w))


def _sphere_entering(r, *kinds) -> list:
    """The radius, then the five angles of each ``(name, angles)`` kind, as
    floats by :func:`~.scalars._entering`; a radius below 0 or another count
    of angles raises ``ValueError``."""
    (r,) = _floats((r,), "sphere radius")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    out = [r]
    for name, angles in kinds:
        angles = _floats(angles, f"sphere {name}")
        if len(angles) != 5:
            raise ValueError(f"sphere {name} takes 5 angles, got {len(angles)}")
        out.append(angles)
    return out


def quasi_sphere_residual(x: Paravector, r: float) -> float:
    """How far x*bar(x) is from the real number r^2: the largest of
    |x - r^2|, |y|, |v| and |w| over its four scalar components, NaN when
    any of them is NaN.  The radius enters as the sphere functions' does
    (:func:`_sphere_entering`)."""
    (r,) = _sphere_entering(r)
    q = x.qform()
    parts = (abs(float(q.x) - r * r), abs(float(q.y)), abs(float(q.v)), abs(float(q.w)))
    return math.nan if any(map(math.isnan, parts)) else max(parts)


def embed_momentum(q, o, s, u) -> Paravector:
    """Hyperbolic-complex momentum paravector q + i*o + j*s + ij*u from
    four real 4-vectors: the hm4 coordinates (*q, *o, *s, *u).  Int or
    Fraction inputs stay exact."""
    if any(len(vec) != 4 for vec in (q, o, s, u)):
        raise ValueError("momentum components must be 4-vectors")
    return get_space("hm4").paravector([*q, *o, *s, *u])
