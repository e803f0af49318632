"""Paravector spaces: scalar-plus-vector slices of the representations.

A paravector space fixes an ordered basis of algebra elements whose first
member is the unity, together with the diagonal metric the basis induces
through the quadratic form x*bar(x).  Every basis is u*b for scalar units
u and b in (1, e_1 .. e_n), unit-major, with the units that
ring_unit_multivectors reads off the representation's basis matrices:

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
from functools import lru_cache
from itertools import permutations

from .algebra import AlgebraRep, Multivector, get_rep, ring_unit_multivectors
from .matrices import HMatrix
from .scalars import HScalar, RealCoords, _entering

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


def _single_slot(mv: Multivector):
    """The slot (basis index, sign) of an exact element whose only non-zero
    coordinate is +-1; None for any other element."""
    nonzero = [(k, c) for k, c in enumerate(mv.nums) if c]
    if mv.den == 1 and len(nonzero) == 1 and nonzero[0][1] in (1, -1):
        return nonzero[0]
    return None


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
        self.name = name
        self.rep = rep
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.metric = tuple(self._metric_signs())
        self._unit_slots = tuple(map(_single_slot, ring_unit_multivectors(rep).values()))
        slots = tuple(map(_single_slot, self.basis))
        for a, slot in enumerate(slots):
            if slot is None or slot[0] in {s[0] for s in slots[:a]}:
                raise ValueError(
                    f"basis element {a} of {name} is not +-1 in one coordinate,"
                    " on a slot of its own"
                )
        self._slots = slots
        self._slot_pairs = tuple(tuple((i, s * t) for i, t in rep._coord_map[rep.basis[k]]) for k, s in slots)

    def _metric_signs(self):
        for k, b in enumerate(self.basis):
            # the real scalar coordinate is +-1 and every other one is zero
            q = b.gp_blades(b.bar())
            c = q.nums
            if q.den != 1 or any(c[1:]) or c[0] * c[0] != 1:
                raise ValueError(f"basis element {k} of {self.name} is not metric-unit")
            yield 1 if c[0] > 0 else -1

    # -- paravector construction ------------------------------------------------

    def paravector(self, coords) -> "Paravector":
        return Paravector(self, coords)

    def ring_value(self, mv: Multivector) -> HScalar:
        """Value of an algebra element lying in the span of 1, i, j, ij.

        The units i and ij may sit on blades (pseudoscalar realizations),
        so the value is collected slot by slot rather than read off the
        scalar coefficient alone.
        """
        c, den = mv.nums, mv.den
        parts = [c[k] if sign > 0 else -c[k] for k, sign in self._unit_slots]
        return HScalar(*parts) if den is None else HScalar(*[Fraction(x, den) for x in parts])

    def ring_residual(self, mv: Multivector) -> float:
        """Largest coordinate of an element outside the span of the four
        scalar units; zero exactly when the element is ring-valued."""
        inside, den = {k for k, _ in self._unit_slots}, mv.den or 1
        return max((abs(c) / den for k, c in enumerate(mv.nums) if k not in inside), default=0.0)

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
        """The matrix of x in x's backend, scattered through each slot's table pairs, sign folded in."""
        return self.rep._scatter(zip(self._slot_pairs, x.nums), x.den)

    def project_matrix(self, m: HMatrix) -> tuple["Paravector", float]:
        """The paravector of a matrix's coordinates over the basis, plus the
        largest leftover component outside the span.

        Only the slot coordinates are gathered, the way
        :meth:`AlgebraRep.decompose` gathers every coordinate, so the
        paravector follows the matrix's backend; the leftover is measured
        against the matrix rebuilt from it.
        """
        gathered, den = self.rep._gather(m, [k for k, _ in self._slots])
        x = Paravector._new(self, [c if sign > 0 else -c for (_, sign), c in zip(self._slots, gathered)], den)
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
        """The quadratic form x * bar(x); lies in the span of 1 and ij."""
        mv = self.to_multivector()
        return self.space.ring_value(mv.gp_blades(mv.bar()))

    def __repr__(self):
        return f"Paravector({self.space.name}, {list(self.coords)})"


@lru_cache(maxsize=None)
def get_space(name: str) -> ParavectorSpace:
    if name not in _SPACES:
        raise ValueError(f"unknown paravector space {name!r}")
    rep_name, n, unit_names = _SPACES[name]
    rep = get_rep(rep_name)
    units = ring_unit_multivectors(rep)
    base = [units["1"]] + [rep.generator(k) for k in range(1, n + 1)]
    return ParavectorSpace(name, rep, [units[u].gp_blades(b) for u in unit_names for b in base])


# -- products -------------------------------------------------------------------


def dot(x: Paravector, y: Paravector) -> HScalar:
    """Symmetric product (x*bar(y) + y*bar(x)) / 2; equals the metric on
    basis pairs and the quadratic form on the diagonal."""
    x._peer(y)
    mx, my = x.to_multivector(), y.to_multivector()
    s = mx.gp_blades(my.bar()) + my.gp_blades(mx.bar())
    return x.space.ring_value(s.scale(Fraction(1, 2)))


def wedge2(x: Paravector, y: Paravector) -> Multivector:
    """Antisymmetric part (x*bar(y) - y*bar(x)) / 2, a biparavector."""
    return _alternating_sum((x, y))


def _alternating_sum(xs) -> Multivector:
    """Sum over all permutations of paravectors of one space, with sign,
    bars on even slots."""
    for y in xs[1:]:
        xs[0]._peer(y)
    mvs = [x.to_multivector() for x in xs]
    k = len(mvs)
    total = None
    for perm in permutations(range(k)):
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        term = None
        for slot in range(k):
            f = mvs[perm[slot]]
            if slot % 2 == 1:
                f = f.bar()
            term = f if term is None else term.gp_blades(f)
        odd = inversions % 2 == 1
        total = term if total is None else (total - term if odd else total + term)
    return total.scale(Fraction(1, math.factorial(k)))


def wedge3(x: Paravector, y: Paravector, v: Paravector) -> Multivector:
    """Triparavector: alternating sum of the six products a*bar(b)*c."""
    return _alternating_sum((x, y, v))


def wedge4(x: Paravector, y: Paravector, v: Paravector, w: Paravector) -> Multivector:
    """Pseudoscalar part: alternating sum of the 24 products
    a*bar(b)*c*bar(d)."""
    return _alternating_sum((x, y, v, w))


def quasi_sphere_residual(x: Paravector, r: float) -> float:
    """How far x*bar(x) is from the real number r^2: the largest of
    |x - r^2|, |y|, |v| and |w| over its four scalar components, NaN when
    any of them is NaN."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    q = x.qform()
    parts = (abs(float(q.x) - r * r), abs(float(q.y)), abs(float(q.v)), abs(float(q.w)))
    return math.nan if any(map(math.isnan, parts)) else max(parts)


def embed_momentum(q, o, s, u) -> Paravector:
    """Hyperbolic-complex momentum paravector q + i*o + j*s + ij*u from
    four real 4-vectors: the hm4 coordinates (*q, *o, *s, *u).  Int or
    Fraction inputs stay exact."""
    for vec in (q, o, s, u):
        if len(vec) != 4:
            raise ValueError("momentum components must be 4-vectors")
    return get_space("hm4").paravector([*q, *o, *s, *u])
