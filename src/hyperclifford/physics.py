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
from dataclasses import dataclass

from .paravectors import Paravector, embed_momentum, get_space
from .rotors import Rotor, act
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
    "fiber_vector",
    "fiber_paravector",
    "stabilizer_check",
]


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
    4-vectors; sixteen real degrees of freedom."""

    q: tuple
    o: tuple = (0, 0, 0, 0)
    s: tuple = (0, 0, 0, 0)
    u: tuple = (0, 0, 0, 0)

    def __post_init__(self):
        for name in ("q", "o", "s", "u"):
            vec = tuple(getattr(self, name))
            if len(vec) != 4:
                raise ValueError(f"{name} must be a 4-vector")
            object.__setattr__(self, name, vec)

    @classmethod
    def rest(cls, m: float) -> "MomentumHM4":
        return cls(q=(m, 0, 0, 0))

    def paravector(self) -> Paravector:
        return embed_momentum(self.q, self.o, self.s, self.u)


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


# Fiber slot convention: the q and o spatial blocks fill the six
# positive-signature slots in order, the hyperbolic-unit-carrying s and u
# blocks fill the six negative-signature slots.
def fiber_vector(p: MomentumHM4) -> tuple[float, ...]:
    """Spatial parts of the four 4-vectors as a twelve-dimensional vector
    (q1..q3, o1..o3, s1..s3, u1..u3)."""
    return tuple(
        float(c)
        for block in (p.q, p.o, p.s, p.u)
        for c in block[1:]
    )


def fiber_paravector(p: MomentumHM4) -> Paravector:
    """The fiber vector as a split-signature twelve-space paravector."""
    return get_space("r66").paravector(fiber_vector(p))


def stabilizer_check(
    rotor: Rotor,
    p: MomentumHM4,
    samples: int = 8,
    tol: float = 1e-10,
    rng=None,
) -> bool:
    """Whether the fiber action of the rotor is compatible with the
    standard momentum.

    The standard momentum must sit on a real quasi-sphere, the rotor must
    keep random fiber vectors inside the fiber span, and it must preserve
    their quadratic form; the base scalar is untouched because the fiber
    excludes it by construction.
    """
    import random

    from .rotors import ResultOutsideParavectorSpan

    if not hermiticity_check(p, tol):
        return False
    rng = rng or random.Random(20070816)
    space = get_space("r66")
    for _ in range(samples):
        coords = [rng.uniform(-1.0, 1.0) for _ in range(12)]
        x = space.paravector(coords)
        try:
            image = act(rotor, x)
        except ResultOutsideParavectorSpan:
            return False
        before, after = x.qform(), image.qform()
        if (before - after).abs_max() > tol * (1.0 + before.abs_max()):
            return False
    return True
