"""Paravector spaces: scalar-plus-vector slices of the representations.

A paravector space fixes an ordered basis of algebra elements whose first
member is the unity, together with the diagonal metric the basis induces
through the quadratic form x*bar(x).  Four real spaces are provided

    m4   (1, j*sigma_1..3)                over c30bar, metric (+,-,-,-)
    e6   (1, i*sigma_01..05)              over h05bar, metric (+ x6)
    r66  (1, i*sigma_0k, ij, -j*sigma_0k) over h05bar, metric (+ x6, - x6)
    h1   (1, i, j, ij)                    over c10bar, metric (+,+,-,-)

plus hm4, the m4 basis with hyperbolic-complex coordinates (sixteen real
degrees of freedom), which carries extended momenta q + i*o + j*s + ij*u.
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
    "quasi_sphere_contains",
    "embed_momentum",
]

SPACE_NAMES = ("m4", "e6", "r66", "h1", "hm4")


def _wants_exact(values) -> bool:
    for c in values:
        if isinstance(c, HScalar):
            if not c.is_exact:
                return False
        elif isinstance(c, float):
            return False
    return True


def _single_blade_slot(mv: Multivector):
    """The slot (blade, component index, sign) of an element that is +-1
    in one component (x, y, v, w) of one blade coefficient; None for any
    other element."""
    if len(mv.coeffs) == 1:
        ((blade, coeff),) = mv.coeffs.items()
        nonzero = [(spot, c) for spot, c in enumerate(coeff.coeffs()) if c != 0]
        if len(nonzero) == 1 and nonzero[0][1] in (1, -1):
            spot, c = nonzero[0]
            return blade, spot, int(c)
    return None


class ParavectorSpace:
    """An ordered paravector basis with its induced diagonal metric.

    Every coordinate direction is a *slot*: one signed component of one
    blade coefficient, ``(blade, component, +-1)`` with the component
    indexing x, y, v, w.  ``_slots[a][k]`` is the slot of ring unit k
    (1, i, j, ij) times basis element a; real coordinates use only k = 0,
    hyperbolic-complex ones (hm4) all four.  The slots are distinct
    (checked at construction), so converting coordinates to a multivector
    is a signed scatter and projecting a matrix is a signed gather from
    :meth:`AlgebraRep.decompose`.
    """

    def __init__(self, name: str, rep: AlgebraRep, basis, hyper_coords: bool = False):
        self.name = name
        self.rep = rep
        self.basis = tuple(basis)
        self.hyper_coords = hyper_coords
        self.dim = len(self.basis)
        self.metric = tuple(self._metric_signs())
        unit_mvs = ring_unit_multivectors(rep)
        self._unit_slots = {
            name: _single_blade_slot(mv) for name, mv in unit_mvs.items()
        }
        units = [unit_mvs[u] for u in (("1", "i", "j", "ij") if hyper_coords else ("1",))]
        slots, taken = [], set()
        for a, b in enumerate(self.basis):
            row = tuple(_single_blade_slot(u.gp_blades(b)) for u in units)
            if None in row or any(s[:2] in taken for s in row):
                raise ValueError(
                    f"basis element {a} of {name} is not +-1 in one component"
                    " of one blade coefficient, on a slot of its own"
                )
            taken.update(s[:2] for s in row)
            slots.append(row)
        self._slots = tuple(slots)

    def _metric_signs(self):
        for k, b in enumerate(self.basis):
            q = b.gp_blades(b.bar())
            z = q.scalar_part()
            if q.nonscalar_max_abs() != 0 or z.y != 0 or z.v != 0 or z.w != 0 or z.x * z.x != 1:
                raise ValueError(f"basis element {k} of {self.name} is not metric-unit")
            yield 1 if z.x > 0 else -1

    # -- paravector construction ------------------------------------------------

    def paravector(self, coords) -> "Paravector":
        """Coordinates may be floats (numeric work) or ints/Fractions
        (bit-exact work); the backend follows the inputs."""
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(f"{self.name} expects {self.dim} coordinates")
        exact = _wants_exact(coords)
        if self.hyper_coords:
            coords = tuple(
                c if isinstance(c, HScalar) else HScalar.make(c, exact=exact)
                for c in coords
            )
        elif exact:
            coords = tuple(Fraction(c) for c in coords)
        else:
            coords = tuple(float(c) for c in coords)
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
        zero = HScalar.zero(mv.is_exact).x
        comps = []
        for unit in ("1", "i", "j", "ij"):
            blade, spot, sign = self._unit_slots[unit]
            c = mv.coeffs.get(blade)
            val = c.coeffs()[spot] if c is not None else zero
            comps.append(val if sign > 0 else -val)
        return HScalar(*comps)

    def ring_residual(self, mv: Multivector) -> float:
        """Largest component of an element outside the span of the four
        scalar units; zero exactly when the element is ring-valued."""
        residual = 0.0
        slots = {(blade, spot) for blade, spot, _ in self._unit_slots.values()}
        for blade, coeff in mv.coeffs.items():
            for spot, c in enumerate(coeff.coeffs()):
                if (blade, spot) not in slots:
                    residual = max(residual, abs(float(c)))
        return residual

    # -- multivector conversion ----------------------------------------------------

    def to_multivector(self, x: "Paravector") -> Multivector:
        return self._scatter(x.coords)

    def _scatter(self, coords) -> Multivector:
        """Scatter coordinates into blade coefficients through the slots.

        A real coordinate fills the one slot of its basis element; a
        hyperbolic-complex coordinate (an HScalar) sends its components
        x, y, v, w to the slots of 1, i, j, ij times its basis element.
        Blades appear in the order of their first non-zero coordinate, as
        when the scaled basis elements are summed in coordinate order.
        """
        zero = Fraction(0) if _wants_exact(coords) else 0.0
        parts = {}
        for coord, slots in zip(coords, self._slots, strict=True):
            comps = coord.coeffs() if isinstance(coord, HScalar) else (coord,)
            for c, (blade, spot, sign) in zip(comps, slots, strict=True):
                if c == 0:
                    continue
                part = parts.get(blade)
                if part is None:
                    part = parts[blade] = [zero, zero, zero, zero]
                if sign > 0:
                    part[spot] += c
                else:
                    part[spot] -= c
        return Multivector(self.rep, {blade: HScalar(*p) for blade, p in parts.items()})

    def project_matrix(self, m: HMatrix) -> tuple[tuple, float]:
        """Coordinates of a matrix over the paravector basis plus the
        largest leftover component outside the span.

        The coordinates are the slot components of the matrix's
        :meth:`AlgebraRep.decompose`, so they follow its backend; the
        leftover is measured against the matrix rebuilt from them.
        """
        zero = HScalar.zero(m.is_exact).coeffs()
        parts = {blade: z.coeffs() for blade, z in self.rep.decompose(m).coeffs.items()}
        coords = []
        for slots in self._slots:
            comps = [parts.get(blade, zero)[spot] * sign for blade, spot, sign in slots]
            coords.append(comps[0] if len(comps) == 1 else HScalar(*comps))
        rebuilt = self._scatter(coords)
        residual = (m - rebuilt.to_matrix()).max_abs() if rebuilt.coeffs else m.max_abs()
        return tuple(coords), residual

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
        return ParavectorSpace(name, rep, basis, hyper_coords=(name == "hm4"))
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


def quasi_sphere_contains(x: Paravector, r: float, tol: float = 1e-10) -> bool:
    """Whether x*bar(x) equals r^2 as a real number, all four scalar
    components within tol."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    q = x.qform()
    return (
        abs(float(q.x) - r * r) <= tol
        and abs(float(q.y)) <= tol
        and abs(float(q.v)) <= tol
        and abs(float(q.w)) <= tol
    )


def embed_momentum(q, o, s, u) -> Paravector:
    """Hyperbolic-complex momentum paravector q + i*o + j*s + ij*u from
    four real 4-vectors.  Int or Fraction inputs stay exact."""
    for vec in (q, o, s, u):
        if len(vec) != 4:
            raise ValueError("momentum components must be 4-vectors")
    exact = _wants_exact([*q, *o, *s, *u])
    space = get_space("hm4")
    coords = [
        HScalar.make(q[a], o[a], s[a], u[a], exact=exact) for a in range(4)
    ]
    return space.paravector(coords)
