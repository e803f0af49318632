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
from dataclasses import dataclass, field

from .paravectors import Paravector, embed_momentum, get_space
from .rotors import ResultOutsideParavectorSpan, Rotor, act
from .scalars import HScalar

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


def _check_probability(p: float, name: str):
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} = {p} is not a probability")


def interfere(p1: float, p2: float, lam: float) -> float:
    """Total probability with interference parameter lam."""
    _check_probability(p1, "P1")
    _check_probability(p2, "P2")
    return p1 + p2 + 2.0 * math.sqrt(p1 * p2) * lam


@dataclass(frozen=True)
class Linearization:
    regime: str  # "complex" | "hyperbolic"
    theta: float
    sign: int


def linearize(p1: float, p2: float, lam: float) -> Linearization:
    """Phase parametrization of the interference parameter.

    |lam| <= 1: lam = cos(theta), and |sqrt(P1) + e^(i theta) sqrt(P2)|^2
    recovers the probability.  |lam| >= 1: lam = sign*cosh(theta), and the
    quadratic form of sqrt(P1) + sign*e^(j theta) sqrt(P2) recovers it.
    """
    _check_probability(p1, "P1")
    _check_probability(p2, "P2")
    if p1 * p2 == 0.0:
        raise DegenerateAmplitude("relative phase is undetermined when P1*P2 = 0")
    if abs(lam) <= 1.0:
        return Linearization("complex", math.acos(lam), 1)
    return Linearization("hyperbolic", math.acosh(abs(lam)), 1 if lam > 0 else -1)


def reconstruct_probability(lin: Linearization, p1: float, p2: float) -> float:
    """Amplitude-squared value of the linearized superposition.

    The complex regime uses the complex modulus; the hyperbolic regime
    uses the ring's quadratic form z*bar(z), which is real for these
    amplitudes.
    """
    a1, a2 = math.sqrt(p1), math.sqrt(p2)
    if lin.regime == "complex":
        re = a1 + math.cos(lin.theta) * a2
        im = math.sin(lin.theta) * a2
        return re * re + im * im
    z = HScalar.flt(a1, 0.0, 0.0, 0.0) + HScalar.flt(
        math.cosh(lin.theta), 0.0, math.sinh(lin.theta), 0.0
    ) * HScalar.flt(lin.sign * a2)
    q = z.qform()
    return float(q.x)


# -- mass operator ------------------------------------------------------------------


@dataclass(frozen=True)
class MomentumHM4:
    """Hyperbolic-complex momentum q + i*o + j*s + ij*u of four real
    4-vectors; sixteen real degrees of freedom, which enter once, by
    :func:`~.paravectors.embed_momentum`, into the paravector it holds."""

    q: tuple
    o: tuple = (0, 0, 0, 0)
    s: tuple = (0, 0, 0, 0)
    u: tuple = (0, 0, 0, 0)
    _paravector: Paravector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in "qosu":
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "_paravector", embed_momentum(self.q, self.o, self.s, self.u))

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
    two-blades, e.g. q x s spatial cross terms).
    """
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
    if not hermiticity_check(p, _STABILIZER_TOL):
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
