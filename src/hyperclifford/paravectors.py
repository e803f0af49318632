"""Paravector spaces: scalar-plus-vector slices of the representations.

A paravector space fixes an ordered basis of algebra elements whose first
member is the unity, together with the diagonal metric the basis induces
through the quadratic form x*bar(x).  Four real spaces are provided

    m4   (1, j*sigma_1..3)                over c30bar, metric (+,-,-,-)
    e6   (1, i*sigma_01..05)              over h05bar, metric (+ x6)
    r66  (1, i*sigma_0k, ij, -j*sigma_0k) over h05bar, metric (+ x6, - x6)
    h1   (1, i, j, ij)                    over c10bar, metric (+,+,-,-)

plus hm4, which carries extended momenta q + i*o + j*s + ij*u: the sixteen
elements u*b for the units u = 1, i, j, ij (unit-major) and b in the m4
basis, one real coordinate each.  Every coordinate of every space is a
real number, all Fraction or all float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .algebra import AlgebraRep, Multivector, get_rep, ring_unit_multivectors
from .matrices import HMatrix
from .scalars import HScalar

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
    "quasi_sphere_contains",
    "embed_momentum",
]

SPACE_NAMES = ("m4", "e6", "r66", "h1", "hm4")


def _single_slot(mv: Multivector):
    """The slot (basis index, sign) of an element whose only non-zero
    coordinate is +-1; None for any other element."""
    nonzero = [(k, c) for k, c in enumerate(mv.coords) if c]
    if len(nonzero) == 1 and nonzero[0][1] in (1, -1):
        return nonzero[0][0], int(nonzero[0][1])
    return None


class ParavectorSpace:
    """An ordered paravector basis with its induced diagonal metric.

    Every basis element is a *slot*: one signed multivector coordinate,
    ``_slots[a] = (basis index, +-1)``, and each paravector coordinate is
    one real number on its slot.  The slots are distinct (checked at
    construction), so converting coordinates to a multivector is a signed
    scatter into :attr:`Multivector.coords`, and projecting a matrix
    gathers the slot coordinates alone, as :meth:`AlgebraRep.decompose`
    gathers all of them.
    """

    def __init__(self, name: str, rep: AlgebraRep, basis):
        self.name = name
        self.rep = rep
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.metric = tuple(self._metric_signs())
        unit_mvs = ring_unit_multivectors(rep)
        self._unit_slots = tuple(_single_slot(unit_mvs[u]) for u in ("1", "i", "j", "ij"))
        slots = tuple(map(_single_slot, self.basis))
        for a, slot in enumerate(slots):
            if slot is None or slot[0] in {s[0] for s in slots[:a]}:
                raise ValueError(
                    f"basis element {a} of {name} is not +-1 in one coordinate,"
                    " on a slot of its own"
                )
        self._slots = slots

    def _metric_signs(self):
        for k, b in enumerate(self.basis):
            # the real scalar coordinate is +-1 and every other one is zero
            c = b.gp_blades(b.bar()).coords
            if any(c[1:]) or c[0] * c[0] != 1:
                raise ValueError(f"basis element {k} of {self.name} is not metric-unit")
            yield 1 if c[0] > 0 else -1

    # -- paravector construction ------------------------------------------------

    def paravector(self, coords) -> "Paravector":
        """Coordinates may be floats (numeric work) or ints/Fractions
        (bit-exact work); the backend follows the inputs.  Raises
        ``ValueError`` naming the index of a NaN or infinite coordinate."""
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(f"{self.name} expects {self.dim} coordinates")
        if not any(isinstance(c, float) for c in coords):
            return Paravector(self, map(Fraction, coords))
        coords = tuple(map(float, coords))
        for k, c in enumerate(coords):
            if not math.isfinite(c):
                raise ValueError(f"{self.name} coordinate {k} is not finite: {c}")
        return Paravector(self, coords)

    def basis_vector(self, index: int, scale: float = 1.0) -> "Paravector":
        coords = [0.0] * self.dim
        coords[index] = scale
        return self.paravector(coords)

    def ring_value(self, mv: Multivector) -> HScalar:
        """Value of an algebra element lying in the span of 1, i, j, ij.

        The units i and ij may sit on blades (pseudoscalar realizations),
        so the value is collected slot by slot rather than read off the
        scalar coefficient alone.
        """
        c = mv.coords
        return HScalar(*(c[k] if sign > 0 else -c[k] for k, sign in self._unit_slots))

    def ring_residual(self, mv: Multivector) -> float:
        """Largest coordinate of an element outside the span of the four
        scalar units; zero exactly when the element is ring-valued."""
        inside = {k for k, _ in self._unit_slots}
        return max((abs(float(c)) for k, c in enumerate(mv.coords) if k not in inside), default=0.0)

    # -- multivector conversion ----------------------------------------------------

    def to_multivector(self, x: "Paravector") -> Multivector:
        return self._scatter(x.coords)

    def _scatter(self, coords) -> Multivector:
        """Scatter coordinates into multivector coordinates through the slots.

        Each coordinate fills the one slot of its basis element.  The
        result keeps the coordinates' backend, also when they are zero.
        """
        out = [0.0 if isinstance(coords[0], float) else Fraction(0)] * len(self.rep.basis)
        for c, (k, sign) in zip(coords, self._slots, strict=True):
            if c:
                out[k] = c if sign > 0 else -c
        return Multivector._make(self.rep, out)

    def project_matrix(self, m: HMatrix) -> tuple[tuple, float]:
        """Coordinates of a matrix over the paravector basis plus the
        largest leftover component outside the span.

        Only the slot coordinates are gathered, the way
        :meth:`AlgebraRep.decompose` gathers every coordinate, so they
        follow the matrix's backend; the leftover is measured against the
        matrix rebuilt from them.
        """
        gathered = self.rep._gather(m, [k for k, _ in self._slots])
        coords = tuple(c if sign > 0 else -c for (_, sign), c in zip(self._slots, gathered))
        rebuilt = self._scatter(coords)
        # a zero rebuild leaves the matrix itself
        residual = (m - rebuilt.to_matrix()).max_abs() if any(rebuilt.coords) else m.max_abs()
        return coords, residual

    def __repr__(self):
        return f"ParavectorSpace({self.name}, dim={self.dim})"


class Paravector:
    """Coordinates over a paravector basis.  Immutable."""

    __slots__ = ("space", "coords")

    def __init__(self, space: ParavectorSpace, coords):
        self.space = space
        self.coords = tuple(coords)

    def to_multivector(self) -> Multivector:
        return self.space.to_multivector(self)

    def qform(self) -> HScalar:
        """The quadratic form x * bar(x); lies in the span of 1 and ij."""
        mv = self.to_multivector()
        q = mv.gp_blades(mv.bar())
        return self.space.ring_value(q)

    def __repr__(self):
        return f"Paravector({self.space.name}, {list(self.coords)})"


@lru_cache(maxsize=None)
def get_space(name: str) -> ParavectorSpace:
    unit_j = HScalar.unit("j")
    unit_i = HScalar.unit("i")
    if name == "m4" or name == "hm4":
        rep = get_rep("c30bar")
        basis = [rep.scalar(1)] + [rep.blade((k,)) for k in (1, 2, 3)]
        if name == "hm4":
            units = ring_unit_multivectors(rep)
            basis = [units[u].gp_blades(b) for u in ("1", "i", "j", "ij") for b in basis]
        return ParavectorSpace(name, rep, basis)
    if name == "e6":
        rep = get_rep("h05bar")
        basis = [rep.scalar(1)] + [rep.generator(k) for k in range(1, 6)]
        return ParavectorSpace(name, rep, basis)
    if name == "r66":
        rep = get_rep("h05bar")
        minus_i = rep.blade((1, 2, 3, 4, 5))
        ij = minus_i.scale(-unit_j)
        basis = [rep.scalar(1)] + [rep.generator(k) for k in range(1, 6)]
        basis.append(ij)
        for k in range(1, 6):
            # -j*sigma_0k with sigma_0k = -i*e_k
            basis.append(minus_i.gp_blades(rep.generator(k)).scale(-unit_j))
        return ParavectorSpace(name, rep, basis)
    if name == "h1":
        rep = get_rep("c10bar")
        basis = [
            rep.scalar(1),
            rep.scalar(unit_i),
            rep.generator(1),
            rep.blade((1,), unit_i),
        ]
        return ParavectorSpace(name, rep, basis)
    raise ValueError(f"unknown paravector space {name!r}")


# -- products -------------------------------------------------------------------


def _require_same_space(x: Paravector, y: Paravector):
    if x.space is not y.space:
        raise ValueError("paravectors belong to different spaces")


def dot(x: Paravector, y: Paravector) -> HScalar:
    """Symmetric product (x*bar(y) + y*bar(x)) / 2; equals the metric on
    basis pairs and the quadratic form on the diagonal."""
    _require_same_space(x, y)
    mx, my = x.to_multivector(), y.to_multivector()
    s = mx.gp_blades(my.bar()) + my.gp_blades(mx.bar())
    return x.space.ring_value(s.scale(Fraction(1, 2) if s.is_exact else 0.5))


def wedge2(x: Paravector, y: Paravector) -> Multivector:
    """Antisymmetric part (x*bar(y) - y*bar(x)) / 2, a biparavector."""
    _require_same_space(x, y)
    mx, my = x.to_multivector(), y.to_multivector()
    s = mx.gp_blades(my.bar()) - my.gp_blades(mx.bar())
    return s.scale(Fraction(1, 2) if s.is_exact else 0.5)


def _alternating_sum(mvs) -> Multivector:
    """Sum over all argument permutations with sign, bars on even slots."""
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
        if inversions % 2 == 1:
            term = -term
        total = term if total is None else total + term
    if total.is_exact:
        return total.scale(Fraction(1, math.factorial(k)))
    return total.scale(1.0 / math.factorial(k))


def wedge3(x: Paravector, y: Paravector, v: Paravector) -> Multivector:
    """Triparavector: alternating sum of the six products a*bar(b)*c."""
    _require_same_space(x, y)
    _require_same_space(x, v)
    return _alternating_sum([p.to_multivector() for p in (x, y, v)])


def wedge4(x: Paravector, y: Paravector, v: Paravector, w: Paravector) -> Multivector:
    """Pseudoscalar part: alternating sum of the 24 products
    a*bar(b)*c*bar(d)."""
    _require_same_space(x, y)
    _require_same_space(x, v)
    _require_same_space(x, w)
    return _alternating_sum([p.to_multivector() for p in (x, y, v, w)])


def quasi_sphere_residual(x: Paravector, r: float) -> float:
    """How far x*bar(x) is from the real number r^2: the largest of
    |x - r^2|, |y|, |v| and |w| over its four scalar components, NaN when
    any of them is NaN."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    q = x.qform()
    parts = (abs(float(q.x) - r * r), abs(float(q.y)), abs(float(q.v)), abs(float(q.w)))
    return math.nan if any(map(math.isnan, parts)) else max(parts)


def quasi_sphere_contains(x: Paravector, r: float, tol: float = 1e-10) -> bool:
    """Whether x*bar(x) equals r^2 as a real number, all four scalar
    components within tol."""
    return quasi_sphere_residual(x, r) <= tol


def embed_momentum(q, o, s, u) -> Paravector:
    """Hyperbolic-complex momentum paravector q + i*o + j*s + ij*u from
    four real 4-vectors: the hm4 coordinates (*q, *o, *s, *u).  Int or
    Fraction inputs stay exact."""
    for vec in (q, o, s, u):
        if len(vec) != 4:
            raise ValueError("momentum components must be 4-vectors")
    return get_space("hm4").paravector([*q, *o, *s, *u])
