"""Interference of probabilities and the mass-operator quasi-sphere.

Two applications of the scalar ring.  The interference law

    P = P1 + P2 + 2 sqrt(P1 P2) lambda

linearizes as a complex amplitude squared for |lambda| <= 1 and as a
hyperbolic amplitude squared for |lambda| >= 1, where the hyperbolic
modulus is the quadratic form z*bar(z).  The mass operator is the
quadratic form of a hyperbolic-complex momentum paravector; demanding a
real spectrum pins the momentum to a real quasi-sphere, whose fiber
directions live in the twelve-dimensional split-signature space.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .paravectors import Paravector, embed_momentum, get_space
from .rotors import ResultOutsideParavectorSpan, Rotor, act
from .scalars import HScalar, _floats

__all__ = [
    "DomainError",
    "DegenerateAmplitude",
    "interfere",
    "Linearization",
    "linearize",
    "reconstruct_probability",
    "MomentumHM4",
    "mass_qform",
    "hermiticity_check",
    "stabilizer_check",
]

# The fiber vectors that stabilizer_check draws per rotor, and its tolerance.
_STABILIZER_SAMPLES, _STABILIZER_TOL = 4, 1e-10


class DomainError(ValueError):
    """Probability outside [0, 1]."""


class DegenerateAmplitude(ValueError):
    """Raised when P1*P2 = 0 leaves the relative phase undetermined."""


def _probabilities(what: str, p1, p2, *more) -> tuple:
    """P1, P2 and the numbers after them as floats: a number outside [0, 1], NaN
    too, raises :class:`DomainError`; then all enter by the one rule."""
    for p, name in ((p1, "P1"), (p2, "P2")):
        if type(p) in (int, Fraction, float) and not 0 <= p <= 1:
            raise DomainError(f"{name} = {p} is not a probability")
    return _floats((p1, p2, *more), what)


def interfere(p1: float, p2: float, lam: float) -> float:
    """Total probability with interference parameter lam."""
    p1, p2, lam = _probabilities("interfere", p1, p2, lam)
    return p1 + p2 + 2.0 * math.sqrt(p1 * p2) * lam


# regime: "complex" | "hyperbolic"
Linearization = namedtuple("Linearization", "regime theta sign")


def linearize(p1: float, p2: float, lam: float) -> Linearization:
    """Phase parametrization of the interference parameter.

    |lam| <= 1: lam = cos(theta), and |sqrt(P1) + e^(i theta) sqrt(P2)|^2
    recovers the probability.  |lam| >= 1: lam = sign*cosh(theta), and the
    quadratic form of sqrt(P1) + sign*e^(j theta) sqrt(P2) recovers it.
    """
    p1, p2, lam = _probabilities("linearize", p1, p2, lam)
    if p1 * p2 == 0.0:
        raise DegenerateAmplitude("relative phase is undetermined when P1*P2 = 0")
    if abs(lam) <= 1.0:
        return Linearization("complex", math.acos(lam), 1)
    return Linearization("hyperbolic", math.acosh(abs(lam)), 1 if lam > 0 else -1)


def reconstruct_probability(lin: Linearization, p1: float, p2: float) -> float:
    """Amplitude-squared value of the linearized superposition.

    The complex regime uses the complex modulus; the hyperbolic regime
    uses the ring's quadratic form z*bar(z), which is real for these
    amplitudes.  The record is checked where it enters, here: ``ValueError``
    for another regime or a sign not the int 1 or -1; theta enters by the rule.
    """
    p1, p2 = _probabilities("reconstruct_probability", p1, p2)
    if lin.regime not in ("complex", "hyperbolic") or type(lin.sign) is not int or lin.sign not in (1, -1):
        raise ValueError(f"{lin!r} has no regime 'complex' or 'hyperbolic' with the int sign 1 or -1")
    (theta,) = _floats((lin.theta,), "Linearization theta")
    a1, a2 = math.sqrt(p1), math.sqrt(p2)
    if lin.regime == "complex":
        re = a1 + math.cos(theta) * a2
        im = math.sin(theta) * a2
        return re * re + im * im
    z = HScalar(a1, 0.0, 0.0, 0.0) + HScalar(
        math.cosh(theta), 0.0, math.sinh(theta), 0.0
    ) * HScalar(lin.sign * a2, 0.0, 0.0, 0.0)
    q = z.qform()
    return float(q.x)


# -- mass operator ------------------------------------------------------------------


class MomentumHM4(namedtuple("MomentumHM4", "q o s u")):
    """Hyperbolic-complex momentum q + i*o + j*s + ij*u of four real
    4-vectors; sixteen real degrees of freedom, which enter once, by
    :func:`~.paravectors.embed_momentum`, into the paravector it holds.
    ``_make`` and ``_replace`` build through the constructor as well."""

    def __new__(cls, q, o=(0, 0, 0, 0), s=(0, 0, 0, 0), u=(0, 0, 0, 0)):
        self = super().__new__(cls, *map(tuple, (q, o, s, u)))
        self.__dict__["_paravector"] = embed_momentum(*self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: MomentumHM4 is immutable")

    @classmethod
    def _make(cls, fields) -> "MomentumHM4":
        return cls(*fields)

    @classmethod
    def rest(cls, m: float) -> "MomentumHM4":
        return cls(q=(m, 0, 0, 0))

    def paravector(self) -> Paravector:
        return self._paravector


def mass_qform(p: MomentumHM4) -> HScalar:
    """Squared-mass operator p * bar(p): its scalar-ring value.

    The i and j components vanish identically (the product is fixed by
    conjugation), so the value lands in the span of 1 and ij.
    """
    return p.paravector().qform()


def hermiticity_check(p: MomentumHM4, tol: float = 1e-10) -> bool:
    """Whether the squared mass is a real number, i.e. the momentum sits
    on a real quasi-sphere.

    Requires the full product p * bar(p) to be a real scalar: the i, j
    and ij ring components must vanish, and so must every blade outside
    the scalar ring (general hyperbolic-complex momenta leak into
    two-blades, e.g. q x s spatial cross terms).  ``tol`` enters by the
    rule and must be zero or above, as ``verify --tol``: a negative one
    raises ``ValueError``.
    """
    (tol,) = _floats((tol,), "hermiticity_check tol")
    if tol < 0:
        raise ValueError(f"hermiticity_check tol {tol} is negative")
    return _hermiticity(p, tol)


def _hermiticity(p: MomentumHM4, tol: float) -> bool:
    """:func:`hermiticity_check` at a finite float ``tol`` of zero or above, unchecked."""
    x = p.paravector()
    mv = x.to_multivector()
    full = mv.gp_blades(mv.bar())
    q = x.space.ring_value(full)
    return (
        abs(float(q.y)) <= tol
        and abs(float(q.v)) <= tol
        and abs(float(q.w)) <= tol
        and x.space.ring_residual(full) <= tol
    )


def stabilizer_check(rotor: Rotor, p: MomentumHM4) -> bool:
    """Whether the fiber action of the rotor is compatible with the
    standard momentum.

    The standard momentum must sit on a real quasi-sphere, the rotor must
    keep ``_STABILIZER_SAMPLES`` random fiber vectors inside the fiber span,
    and it must preserve their quadratic form, each to ``_STABILIZER_TOL``;
    the base scalar is untouched because the fiber excludes it by
    construction.  The fiber vectors come from a fixed seed, so the check
    is deterministic.
    """
    if not _hermiticity(p, _STABILIZER_TOL):
        return False
    rng = random.Random(20070816)
    space = get_space("r66")
    for _ in range(_STABILIZER_SAMPLES):
        x = Paravector._new(space, [rng.uniform(-1.0, 1.0) for _ in range(12)], None)
        try:
            image = act(rotor, x)
        except ResultOutsideParavectorSpan:
            return False
        before, after = x.qform(), image.qform()
        if not ((before - after).max_abs() <= _STABILIZER_TOL * (1.0 + before.max_abs())):
            return False
    return True
