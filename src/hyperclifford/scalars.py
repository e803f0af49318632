"""Arithmetic of the hyperbolic-complex commutative ring.

The ring is spanned over the reals by ``1``, ``i``, ``j`` and ``ij`` with

    i*i = -1,   j*j = +1,   (ij)*(ij) = -1,

and ``i``, ``j`` commuting with everything.  Restricting coefficients gives
the familiar subrings: the reals (only ``1``), the complex numbers
(``1, i``), and the hyperbolic (split-complex) numbers (``1, j``).

Two coefficient backends are supported.  The exact backend is rational
and is used wherever a structural claim is verified bit-exactly
(multiplication tables, dimensions, commutators): an :class:`HScalar`
holds four :class:`fractions.Fraction` components, and a
:class:`RealCoords` value (a matrix, a multivector) holds int numerators
over one shared denominator, so its kernels run on plain ints.  The float
backend is used for exponentials and rotor numerics.  Backends never mix
implicitly; converting exact values to float is explicit and
one-directional via ``to_float``.  The rule
is the same for :class:`HScalar` and for every :class:`RealCoords` value
(matrices, multivectors): an operation on operands of two backends raises
:class:`BackendMismatch`, also when one of them is zero, and ``==`` is
backend-strict, so values of two backends are never equal.

Numbers enter by one rule, :func:`_entering`, once, where they come from
outside: ``HScalar.exact``, ``flt`` and ``make``, ``HMatrix`` (rows,
``from_real_coords``, ``combine``), ``Multivector``, ``Paravector``,
``RotorParams``, ``MomentumHM4``, :func:`trig_tilde`,
:func:`to_null_coords`, the sphere points and the physics functions.  Ints,
Fractions and floats are numbers, and ints fit either backend; a Fraction
beside a float raises :class:`BackendMismatch`, any other type
``TypeError`` and a NaN or infinite float ``ValueError``, naming the
index.  Ring operations and ``HMatrix.scale`` check only that an
:class:`HScalar` operand has their backend.  ``HScalar(x, y, v, w)`` and
``RealCoords._new`` are unchecked: the library builds every value it
computes, constants too, with them and never runs the rule on it again.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "BackendMismatch",
    "RealCoords",
    "ZeroDivisor",
    "HScalar",
    "trig_tilde",
    "to_null_coords",
    "from_null_coords",
    "ZERO_DIVISOR_RTOL",
]

# the scalar units, in the order of HScalar's components x y v w
_RING_UNITS = ("1", "i", "j", "ij")
# Relative threshold below which the float backend treats the quadratic-form
# modulus as vanishing (the element sits on the null cone and has no inverse).
ZERO_DIVISOR_RTOL = 1e-12


class BackendMismatch(TypeError):
    """Raised when exact and float operands meet in one operation."""


class RealCoords:
    """A value with a flat tuple of real coordinates and a shape that a
    subclass names in ``_shape``: the slot that two operands must share (a
    matrix's size, a multivector's representation).  The linear structure,
    comparison and norms live here.

    Stored as ``nums`` and ``den``.  On the exact backend ``nums`` are
    ``int`` numerators over one positive ``int`` denominator ``den``, kept
    canonical: ``gcd(den, *nums) == 1``, so a zero is all-zero numerators
    over ``den == 1``.  Equal values then have equal fields, and ``==`` and
    ``hash`` compare tuples of ints.  On the float backend ``nums`` are the
    float coordinates themselves and ``den`` is ``None``.  ``coords`` is
    the public view: the coordinates as reduced ``Fraction`` values (exact,
    built on each read) or floats.  Kernels work on ``nums``.
    """

    __slots__ = ()

    @classmethod
    def _new(cls, shape, nums, den):
        """The one constructor of stored values: float coordinates (``den``
        None), or int numerators over ``den > 0``, reduced here."""
        value = object.__new__(cls)
        setattr(value, cls._shape, shape)
        if den is not None:
            nums, den = _reduced(tuple(nums), den)
        value.nums, value.den = tuple(nums), den
        return value

    @property
    def coords(self) -> tuple:
        den = self.den
        if den is None:
            return self.nums
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(x, den) for x in self.nums)

    @property
    def is_exact(self) -> bool:
        return self.den is not None

    def to_float(self):
        """The float value; int true division rounds correctly, so each
        coordinate is ``float`` of its Fraction, bit for bit."""
        den = self.den
        if den is None:
            return self
        return self._new(getattr(self, self._shape), [x / den for x in self.nums], None)

    def _peer(self, other) -> bool:
        """Check type, shape and backend of a second operand; True if exact.

        The one backend rule: an operand of the other backend raises
        :class:`BackendMismatch`, zero or not.
        """
        shape = self._shape
        if other.__class__ is not self.__class__ or getattr(other, shape) != getattr(self, shape):
            raise ValueError(f"{self.__class__.__name__} operands differ in {shape}")
        exact = self.den is not None
        if (other.den is not None) != exact:
            raise BackendMismatch(f"mixed exact/float {self.__class__.__name__} operands")
        return exact

    def _combine(self, other, op):
        """``op`` per coordinate; exact operands first meet at their lcm."""
        shape = getattr(self, self._shape)
        a, b = self.nums, other.nums
        if not self._peer(other):
            return self._new(shape, map(op, a, b), None)
        da, db = self.den, other.den
        if da == db:
            return self._new(shape, map(op, a, b), da)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return self._new(shape, [op(x * fa, y * fb) for x, y in zip(a, b)], den)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        # zeros stay as they are, so a float +0.0 does not become -0.0
        return self._new(getattr(self, self._shape), [-c if c else c for c in self.nums], self.den)

    def __eq__(self, other):
        """Same type, shape and backend, and equal coordinates."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        shape = self._shape
        return (
            getattr(self, shape) == getattr(other, shape)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((getattr(self, self._shape), self.den, self.nums))

    def max_abs(self) -> float:
        """Largest absolute real coordinate, as a float; NaN when one is NaN
        (max() alone keeps a NaN only when it comes first)."""
        den = self.den
        if den is not None:
            return max(map(abs, self.nums)) / den
        mags = list(map(abs, self.nums))
        return math.nan if math.isnan(sum(mags)) else max(mags)

    def is_close(self, other, tol: float = 1e-12) -> bool:
        return (self - other).max_abs() <= tol


def _entering(coords, what: str) -> tuple[tuple, int | None]:
    """Numbers a constructor takes, checked by the module's one rule and
    returned as :class:`RealCoords` stores them: floats over ``None``, or
    ints and Fractions as int numerators over their lcm denominator, which
    is canonical.  Errors name ``what`` and the index."""
    coords = tuple(coords)
    kinds = set(map(type, coords))
    if kinds <= {int, Fraction}:
        nums, den = _over_lcm(coords)
        return tuple(nums), den
    if kinds <= {int, float}:
        coords = tuple(map(float, coords))
        if all(map(math.isfinite, coords)):
            return coords, None
    for k, c in enumerate(coords):
        if type(c) not in (int, Fraction, float):
            raise TypeError(f"{what} coordinate {k} is not an int, Fraction or float: {c!r}")
    for k, c in enumerate(coords):  # a Fraction beside a float, or a float that is not finite
        if type(c) is Fraction:
            raise BackendMismatch(f"{what} coordinate {k} is a Fraction beside a float")
        if not math.isfinite(c):
            raise ValueError(f"{what} coordinate {k} is not finite: {c}")


def _floats(coords, what: str) -> tuple:
    """Numbers taken as floats: :func:`_entering`'s check, then exact ones
    converted as ``to_float`` converts them."""
    nums, den = _entering(coords, what)
    return nums if den is None else tuple(x / den for x in nums)


def _reduced(nums: list, den: int) -> tuple[list, int]:
    """Int numerators over ``den`` with their common factor divided out."""
    g = gcd(den, *nums)
    return ([x // g for x in nums], den // g) if g != 1 else (nums, den)


def _over_lcm(values) -> tuple[list, int]:
    """Ints or Fractions as int numerators over the lcm of their
    denominators; no common factor is left, and zeros alone give ``1``."""
    dens = [x.denominator for x in values]
    den = lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(values, dens)], den


class ZeroDivisor(ZeroDivisionError):
    """Raised when inverting an element on (or numerically near) the null cone."""


class HScalar:
    """An element x + y*i + v*j + w*ij of the hyperbolic-complex ring.

    Immutable.  The backend is carried by the coefficient types: all four
    coefficients are either :class:`Fraction` (exact) or :class:`float`.
    """

    __slots__ = ("x", "y", "v", "w")

    def __init__(self, x, y, v, w):
        self.x = x
        self.y = y
        self.v = v
        self.w = w

    # -- construction ---------------------------------------------------

    @classmethod
    def exact(cls, x=0, y=0, v=0, w=0) -> "HScalar":
        """Exact-backend scalar; the parts enter by :func:`_entering`, and a
        ``float`` raises :class:`BackendMismatch` (mean it as ``Fraction(x)``)."""
        if _entering((x, y, v, w), "HScalar")[1] is None:
            raise BackendMismatch("a float component cannot enter the exact backend")
        return cls(Fraction(x), Fraction(y), Fraction(v), Fraction(w))

    @classmethod
    def flt(cls, x=0, y=0, v=0, w=0) -> "HScalar":
        """Float-backend scalar; the parts enter by :func:`_entering`, and
        ints and Fractions become floats."""
        return cls(*_floats((x, y, v, w), "HScalar"))

    @classmethod
    def make(cls, x=0, y=0, v=0, w=0, exact: bool = True) -> "HScalar":
        return cls.exact(x, y, v, w) if exact else cls.flt(x, y, v, w)

    @classmethod
    def unit(cls, name: str, exact: bool = True) -> "HScalar":
        if name not in _RING_UNITS:
            raise ValueError(f"unknown unit {name!r}")
        zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
        return cls(*(one if u == name else zero for u in _RING_UNITS))

    # -- backend --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.x, float)

    def to_float(self) -> "HScalar":
        return HScalar(float(self.x), float(self.y), float(self.v), float(self.w))

    def _peer(self, other) -> "HScalar":
        """A second operand, checked: an :class:`HScalar` of this backend.
        Anything else raises :class:`BackendMismatch`, a ``TypeError``."""
        if not isinstance(other, HScalar):
            raise BackendMismatch(f"cannot combine {type(other).__name__} with an HScalar")
        if other.is_exact != self.is_exact:
            raise BackendMismatch("mixed exact/float scalar operands")
        return other

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._peer(other)
        return HScalar(self.x + o.x, self.y + o.y, self.v + o.v, self.w + o.w)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._peer(other))

    def __neg__(self):
        return HScalar(-self.x, -self.y, -self.v, -self.w)

    def __mul__(self, other):
        o = self._peer(other)
        if self.x.__class__ is not float:  # exact: int numerators over the product of the lcms
            (x1, y1, v1, w1), da = _over_lcm(self.coeffs())
            (x2, y2, v2, w2), db = _over_lcm(o.coeffs())
            den = da * db
            return HScalar(
                Fraction(x1 * x2 - y1 * y2 + v1 * v2 - w1 * w2, den),
                Fraction(x1 * y2 + y1 * x2 + v1 * w2 + w1 * v2, den),
                Fraction(x1 * v2 + v1 * x2 - y1 * w2 - w1 * y2, den),
                Fraction(x1 * w2 + w1 * x2 + y1 * v2 + v1 * y2, den),
            )
        x1, y1, v1, w1 = self.x, self.y, self.v, self.w
        x2, y2, v2, w2 = o.x, o.y, o.v, o.w
        # complex-subring fast path (the dominant case in matrix work)
        if v1 == 0 and w1 == 0 and v2 == 0 and w2 == 0:
            return HScalar(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, v1, w1)
        return HScalar(
            x1 * x2 - y1 * y2 + v1 * v2 - w1 * w2,
            x1 * y2 + y1 * x2 + v1 * w2 + w1 * v2,
            x1 * v2 + v1 * x2 - y1 * w2 - w1 * y2,
            x1 * w2 + w1 * x2 + y1 * v2 + v1 * y2,
        )

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.v == 0 and self.w == 0

    def __eq__(self, other):
        """Equal components in the same backend."""
        if not isinstance(other, HScalar):
            return NotImplemented
        return (
            self.is_exact == other.is_exact
            and self.x == other.x
            and self.y == other.y
            and self.v == other.v
            and self.w == other.w
        )

    def __hash__(self):
        return hash((self.x, self.y, self.v, self.w))

    # -- structure -------------------------------------------------------

    def coeffs(self):
        return (self.x, self.y, self.v, self.w)

    def conjugate(self) -> "HScalar":
        """Send i to -i and j to -j; consequently ij stays fixed."""
        return HScalar(self.x, -self.y, -self.v, self.w)

    def qform(self) -> "HScalar":
        """The quadratic form z * conjugate(z).

        Always lands in the subring spanned by 1 and ij.
        """
        return self * self.conjugate()

    def modulus(self):
        """N(z) = a^2 + b^2 where z*conjugate(z) = a + b*ij.

        Vanishes exactly on the null cone; an element is invertible iff
        its modulus is nonzero.
        """
        q = self.qform()
        return q.x * q.x + q.w * q.w

    def invert(self) -> "HScalar":
        """Multiplicative inverse conjugate(z) / (z*conjugate(z)).

        The quadratic form lies in the span of 1 and ij where inversion is
        complex-style division.  Raises :class:`ZeroDivisor` on (near-)null
        elements; for floats the threshold scales with the squared
        coefficient magnitudes.  Raises ``ValueError`` when the float
        modulus is NaN: a NaN coefficient, or a quadratic form that
        overflows to ``inf - inf``.
        """
        q = self.qform()
        n = q.x * q.x + q.w * q.w
        if self.is_exact:
            if n == 0:
                raise ZeroDivisor("element lies on the null cone")
        else:
            if math.isnan(n):
                raise ValueError("quadratic-form modulus is NaN (NaN coefficient or overflow)")
            mag = self.x * self.x + self.y * self.y + self.v * self.v + self.w * self.w
            if n <= ZERO_DIVISOR_RTOL * (1.0 + mag):
                raise ZeroDivisor("quadratic-form modulus below threshold")
        zero = n - n
        inv_q = HScalar(q.x / n, zero, zero, -q.w / n)
        return self.conjugate() * inv_q

    def exp(self) -> "HScalar":
        """Exponential, float backend.

        exp(x)(cos y + i sin y)(cosh v + j sinh v)(cos w + ij sin w); the
        four factors commute so the order is irrelevant.
        """
        z = self if not self.is_exact else self.to_float()
        base = math.exp(z.x)
        fi = HScalar(math.cos(z.y), math.sin(z.y), 0.0, 0.0)
        fj = HScalar(math.cosh(z.v), 0.0, math.sinh(z.v), 0.0)
        fk = HScalar(math.cos(z.w), 0.0, 0.0, math.sin(z.w))
        return fi * fj * fk * HScalar(base, 0.0, 0.0, 0.0)

    def max_abs(self) -> float:
        """Largest absolute coefficient, as a float; NaN when one is NaN."""
        mags = (abs(float(self.x)), abs(float(self.y)), abs(float(self.v)), abs(float(self.w)))
        return math.nan if math.isnan(sum(mags)) else max(mags)

    def is_close(self, other: "HScalar", tol: float = 1e-12) -> bool:
        d = self - other
        return d.max_abs() <= tol

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return f"HScalar({self.x!r}, {self.y!r}, {self.v!r}, {self.w!r})"

    def __str__(self):
        parts = []
        for c, tag in zip(self.coeffs(), ("", "i", "j", "ij")):
            if c == 0:
                continue
            s = str(c)
            if tag:
                if s == "1":
                    s = tag
                elif s == "-1":
                    s = "-" + tag
                else:
                    s = s + tag
            parts.append(s)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += "+" + p if not p.startswith("-") else p
        return out


def to_null_coords(coords) -> tuple[list, list]:
    """Null components of coordinates ``x y v w`` per entry, in their backend:
    z = c1 + j*c2 with complex c1, c2 is (c1+c2) e + (c1-c2) ebar over the
    idempotents e = (1+j)/2, ebar = (1-j)/2.  Each component is a flat list of
    real and imaginary parts: ``x+v, y+w`` over e, ``x-v, y-w`` over ebar.
    The coordinates enter by :func:`_entering`, and a count that is not a
    multiple of 4 raises ``ValueError``; exact ones give ``Fraction`` parts."""
    nums, den = _entering(coords, "to_null_coords")
    if len(nums) % 4:
        raise ValueError(f"to_null_coords takes 4 coordinates per entry, not {len(nums)}")
    plus, minus = _null_coords(nums)
    if den is None:
        return plus, minus
    return [Fraction(n, den) for n in plus], [Fraction(n, den) for n in minus]


def _null_coords(nums) -> tuple[list, list]:
    """:func:`to_null_coords` of float coordinates or int numerators, unchecked."""
    plus, minus = [], []
    for x, y, v, w in zip(*[iter(nums)] * 4):
        plus += (x + v, y + w)
        minus += (x - v, y - w)
    return plus, minus


def from_null_coords(plus, minus) -> list:
    """Inverse of :func:`to_null_coords`; int or ``Fraction`` components give
    ``Fraction`` coordinates, and a mix of those with floats raises
    :class:`BackendMismatch`.  Halving before the sum keeps a finite pair
    finite; components of different length raise ``ValueError``."""
    kinds = {*map(type, plus), *map(type, minus)}
    if float in kinds and len(kinds) > 1:
        raise BackendMismatch("mixed exact/float null components")
    two = Fraction(2) if int in kinds else 2  # an int over Fraction(2) is a Fraction
    out = []
    for a, b, c, d in zip(plus[0::2], plus[1::2], minus[0::2], minus[1::2], strict=True):
        a, b, c, d = a / two, b / two, c / two, d / two
        out += (a + c, b + d, a - c, b - d)
    return out


def trig_tilde(phi: float, xi: float) -> tuple[HScalar, HScalar]:
    """Cosine and sine of the complexified angle phi + ij*xi.

    cos -> cos(phi)cosh(xi) - ij sin(phi)sinh(xi)
    sin -> sin(phi)cosh(xi) + ij cos(phi)sinh(xi)

    and cos^2 + sin^2 = 1 in the ring.  phi and xi enter by :func:`_entering`,
    and the results are finite: ``cosh`` and ``sinh`` raise ``OverflowError``.
    """
    return _trig_tilde(*_floats((phi, xi), "trig_tilde"))


def _trig_tilde(phi: float, xi: float) -> tuple[HScalar, HScalar]:
    """:func:`trig_tilde` of two finite floats, unchecked."""
    c = HScalar(math.cos(phi) * math.cosh(xi), 0.0, 0.0, -math.sin(phi) * math.sinh(xi))
    s = HScalar(math.sin(phi) * math.cosh(xi), 0.0, 0.0, math.cos(phi) * math.sinh(xi))
    return c, s
