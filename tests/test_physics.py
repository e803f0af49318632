"""Interference of probabilities and the mass-operator quasi-sphere."""

import math
import random
from fractions import Fraction

import pytest

from hyperclifford.paravectors import get_space
from hyperclifford.physics import (
    DegenerateAmplitude,
    DomainError,
    Linearization,
    MomentumHM4,
    hermiticity_check,
    interfere,
    linearize,
    mass_qform,
    reconstruct_probability,
    stabilizer_check,
)
from hyperclifford.rotors import RotorParams, act, rotor_from_params
from hyperclifford.scalars import BackendMismatch, HScalar


def test_interfere_examples():
    assert interfere(0.3, 0.4, 0.0) == pytest.approx(0.7, abs=1e-15)
    assert interfere(0.25, 0.25, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_interfere_validates_probabilities():
    with pytest.raises(DomainError):
        interfere(1.2, 0.5, 0.0)
    with pytest.raises(DomainError):
        interfere(0.5, -0.1, 0.0)


def test_interfere_symmetric_and_monotone():
    rng = random.Random(21)
    for _ in range(200):
        p1, p2 = rng.uniform(0, 1), rng.uniform(0, 1)
        lam = rng.uniform(-3, 3)
        assert interfere(p1, p2, lam) == pytest.approx(interfere(p2, p1, lam), abs=1e-15)
        assert interfere(p1, p2, lam + 0.5) >= interfere(p1, p2, lam) - 1e-15


def test_linearize_complex_regime():
    rng = random.Random(22)
    for _ in range(500):
        p1, p2 = rng.uniform(1e-6, 1), rng.uniform(1e-6, 1)
        lam = rng.uniform(-1, 1)
        lin = linearize(p1, p2, lam)
        assert lin.regime == "complex"
        assert reconstruct_probability(lin, p1, p2) == pytest.approx(
            interfere(p1, p2, lam), abs=1e-12
        )


def test_linearize_hyperbolic_regime():
    rng = random.Random(23)
    for _ in range(500):
        p1, p2 = rng.uniform(1e-6, 1), rng.uniform(1e-6, 1)
        lam = rng.choice([-1, 1]) * rng.uniform(1, 3)
        lin = linearize(p1, p2, lam)
        assert lin.regime == "hyperbolic"
        assert lin.sign == (1 if lam > 0 else -1)
        assert reconstruct_probability(lin, p1, p2) == pytest.approx(
            interfere(p1, p2, lam), abs=1e-12
        )


@pytest.mark.parametrize("regime", ["complex", "hyperbolic"])
def test_reconstruct_probability_checks_its_probabilities(regime):
    # as interfere and linearize do: each of P1 and P2 lies in [0, 1]
    lin = Linearization(regime, 0.25, 1)
    for p1, p2, name in ((-0.1, 0.5, "P1"), (0.5, -0.1, "P2"), (1.5, 0.5, "P1"), (0.5, math.nan, "P2")):
        with pytest.raises(DomainError, match=f"{name} = .* is not a probability"):
            reconstruct_probability(lin, p1, p2)


@pytest.mark.parametrize("call", [interfere, linearize], ids=["interfere", "linearize"])
@pytest.mark.parametrize("numbers, error, message", [
    ((0.5, 0.5, math.nan), ValueError, "coordinate 2 is not finite: nan"),
    ((0.5, 0.5, math.inf), ValueError, "coordinate 2 is not finite: inf"),
    ((0.5, 0.5, -math.inf), ValueError, "coordinate 2 is not finite: -inf"),
    ((True, 0.5, 1.0), TypeError, "coordinate 0 is not an int, Fraction or float: True"),
    ((0.5, 0.5, False), TypeError, "coordinate 2 is not an int, Fraction or float: False"),
    (("1", 0.5, 1.0), TypeError, "coordinate 0 is not an int, Fraction or float: '1'"),
    ((0.5, 0.5, "1"), TypeError, "coordinate 2 is not an int, Fraction or float: '1'"),
    ((Fraction(1, 2), 0.5, 1.0), BackendMismatch, "coordinate 0 is a Fraction beside a float"),
], ids=["nan-lambda", "inf-lambda", "-inf-lambda", "bool-p1", "bool-lambda", "str-p1", "str-lambda",
        "fraction-beside-float"])
def test_physics_numbers_enter_by_the_one_rule(call, numbers, error, message):
    # before its domain checks, each function takes P1, P2 and lambda by
    # scalars._entering, so a non-finite lambda no longer answers nan or inf
    with pytest.raises(error, match=f"^{call.__name__} {message}"):
        call(*numbers)


def test_physics_numbers_enter_as_floats():
    # ints and Fractions alone are numbers too; a NaN or infinite
    # probability stays a DomainError, as test_reconstruct_probability_checks_its_probabilities pins
    assert interfere(Fraction(1, 4), Fraction(1, 4), 1) == interfere(0.25, 0.25, 1.0) == 1.0
    assert linearize(Fraction(1, 4), 1, 0) == linearize(0.25, 1.0, 0.0)
    for p in (math.nan, math.inf):
        with pytest.raises(DomainError, match="P1 = .* is not a probability"):
            interfere(p, 0.5, 0.0)


@pytest.mark.parametrize("lin, message", [
    (Linearization("hyperbolic", 0.5, 2), "int sign 1 or -1"),
    (Linearization("complex", 0.5, -2), "int sign 1 or -1"),
    (Linearization("hyperbolic", 0.5, True), "int sign 1 or -1"),
    (Linearization("hyperbolic", 0.5, 1.0), "int sign 1 or -1"),
    (Linearization("nonsense", 0.5, 1), "no regime 'complex' or 'hyperbolic'"),
    (Linearization("complex", math.nan, 1), "Linearization theta coordinate 0 is not finite: nan"),
    (Linearization("hyperbolic", math.nan, 1), "Linearization theta coordinate 0 is not finite: nan"),
    (Linearization("hyperbolic", math.inf, 1), "Linearization theta coordinate 0 is not finite: inf"),
], ids=["sign-2", "sign--2", "sign-bool", "sign-float", "regime", "nan-theta-complex", "nan-theta-hyperbolic",
        "inf-theta"])
def test_reconstruct_probability_checks_the_record_where_it_enters(lin, message):
    # linearize makes only records that pass; one made by hand is checked here
    with pytest.raises(ValueError, match=message):
        reconstruct_probability(lin, 0.25, 0.25)


def test_linearize_boundary_agreement():
    for p1, p2 in ((0.25, 0.25), (0.6, 0.15)):
        lin = linearize(p1, p2, 1.0)
        assert lin.theta == 0.0
        cval = reconstruct_probability(Linearization("complex", 0.0, 1), p1, p2)
        hval = reconstruct_probability(Linearization("hyperbolic", 0.0, 1), p1, p2)
        assert cval == pytest.approx(hval, abs=1e-12)
        assert cval == pytest.approx(interfere(p1, p2, 1.0), abs=1e-12)


def test_linearize_degenerate():
    with pytest.raises(DegenerateAmplitude):
        linearize(0.0, 0.5, 0.3)


def test_hyperbolic_amplitude_identity():
    # |sqrt(P1) + sign e^{j theta} sqrt(P2)|^2 = P1 + P2 + sign 2 sqrt(P1P2) cosh(theta)
    p1, p2, theta = 0.4, 0.2, 0.9
    for sign in (1, -1):
        z = HScalar.flt(math.sqrt(p1)) + HScalar.flt(
            sign * math.cosh(theta), 0, sign * math.sinh(theta)
        ) * HScalar.flt(math.sqrt(p2))
        q = z.qform()
        want = p1 + p2 + sign * 2 * math.sqrt(p1 * p2) * math.cosh(theta)
        assert q.x == pytest.approx(want, abs=1e-14)
        assert q.y == 0.0 and q.v == 0.0 and abs(q.w) < 1e-15


def test_mass_qform_examples():
    assert mass_qform(MomentumHM4.rest(3)) == HScalar.exact(9)
    p = MomentumHM4(q=(0,) * 4, s=(5, 0, 0, 0))
    assert mass_qform(p) == HScalar.exact(-25)
    p = MomentumHM4(q=(2, 0, 0, 0), u=(3, 0, 0, 0))
    assert mass_qform(p) == HScalar.exact(-5, 0, 0, 12)


def test_mass_qform_reduces_to_minkowski():
    m4 = get_space("m4")
    rng = random.Random(24)
    for _ in range(50):
        q = tuple(rng.randint(-6, 6) for _ in range(4))
        assert mass_qform(MomentumHM4(q=q)) == m4.paravector(q).qform()


def test_hermiticity_families():
    rng = random.Random(25)
    for _ in range(50):
        p = MomentumHM4(q=tuple(rng.uniform(-2, 2) for _ in range(4)))
        assert hermiticity_check(p)
    for _ in range(20):
        q0, u0 = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
        p = MomentumHM4(q=(q0, 0, 0, 0), u=(u0, 0, 0, 0))
        assert not hermiticity_check(p)
        assert float(mass_qform(p).w) == pytest.approx(2 * q0 * u0, abs=1e-14)


def test_hermiticity_invariant_under_lorentz_action():
    m4 = get_space("m4")
    rng = random.Random(26)
    for _ in range(25):
        r = rotor_from_params(
            RotorParams.m4(
                phi=[rng.uniform(-math.pi, math.pi) for _ in range(3)],
                xi=[rng.uniform(-1.5, 1.5) for _ in range(3)],
            )
        )
        x = act(r, m4.paravector([rng.uniform(0.5, 2), 0, 0, 0]))
        assert hermiticity_check(MomentumHM4(q=x.coords))


def test_stabilizer_identity_and_random():
    rng = random.Random(27)
    p = MomentumHM4.rest(1.5)
    assert stabilizer_check(rotor_from_params(RotorParams.e6({})), p)
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    for _ in range(3):
        phi = {pl: rng.uniform(-2, 2) for pl in rng.sample(pairs, 3)}
        assert stabilizer_check(rotor_from_params(RotorParams.e6(phi)), p)
        xi = {pl: rng.uniform(-1, 1) for pl in rng.sample(pairs, 2)}
        assert stabilizer_check(rotor_from_params(RotorParams.r66(phi, xi)), p)


def test_stabilizer_rejects_nonreal_base():
    p = MomentumHM4(q=(1, 0, 0, 0), u=(1, 0, 0, 0))
    assert not stabilizer_check(rotor_from_params(RotorParams.e6({})), p)


def test_momentum_validation():
    with pytest.raises(ValueError):
        MomentumHM4(q=(1, 2, 3))


def test_momentum_is_an_immutable_record_that_every_route_builds_through_its_checks():
    p = MomentumHM4(q=[2, 0, 0, 0], u=(3, 0, 0, 0))
    assert repr(p) == "MomentumHM4(q=(2, 0, 0, 0), o=(0, 0, 0, 0), s=(0, 0, 0, 0), u=(3, 0, 0, 0))"
    same = MomentumHM4((2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (3, 0, 0, 0))
    assert p == same and hash(p) == hash(same) and p.paravector() == same.paravector()
    for name in ("q", "_paravector", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, (1, 0, 0, 0))
    moved = p._replace(s=[0, 1, 0, 0])
    assert moved.s == (0, 1, 0, 0)
    assert moved.paravector() == MomentumHM4((2, 0, 0, 0), s=(0, 1, 0, 0), u=(3, 0, 0, 0)).paravector()
    with pytest.raises(ValueError, match="hm4 coordinate 5 is not finite"):
        p._replace(o=(0, math.nan, 0, 0))
    with pytest.raises(TypeError, match="hm4 coordinate 0 is not an int, Fraction or float"):
        MomentumHM4._make([("1", 0, 0, 0), (0,) * 4, (0,) * 4, (0,) * 4])


def test_momentum_takes_its_numbers_by_the_one_rule_at_construction():
    with pytest.raises(TypeError, match="hm4 coordinate 0 is not an int, Fraction or float"):
        MomentumHM4(q=("1", 0, 0, 0))
    with pytest.raises(ValueError, match="hm4 coordinate 0 is not finite"):
        MomentumHM4(q=(math.nan, 0, 0, 0))
    with pytest.raises(ValueError, match="hm4 coordinate 13 is not finite"):
        MomentumHM4(q=(1, 0, 0, 0), u=(0, math.inf, 0, 0))


def test_mass_qform_ring_value_has_no_i_or_j_part():
    # p bar(p) is fixed by conjugation, which kills the i and j ring
    # components; the value always lies in span{1, ij}
    rng = random.Random(28)
    for _ in range(50):
        p = MomentumHM4(
            q=tuple(rng.uniform(-2, 2) for _ in range(4)),
            o=tuple(rng.uniform(-2, 2) for _ in range(4)),
            s=tuple(rng.uniform(-2, 2) for _ in range(4)),
            u=tuple(rng.uniform(-2, 2) for _ in range(4)),
        )
        q = mass_qform(p)
        assert abs(q.y) < 1e-12 and abs(q.v) < 1e-12


def test_hermiticity_rejects_spatial_cross_terms():
    # q along axis 1 with s along axis 2: p bar(p) picks up a two-blade
    # term 2 q1 s2 j e1e2, so the momentum is off every real quasi-sphere
    # even though its ring value is real
    p = MomentumHM4(q=(0, 1, 0, 0), s=(0, 0, 1, 0))
    q = mass_qform(p)
    assert q.y == 0 and q.v == 0 and q.w == 0
    assert not hermiticity_check(p)
    # aligned q and s keep the product scalar
    aligned = MomentumHM4(q=(0, 2, 0, 0), s=(0, 1, 0, 0))
    assert hermiticity_check(aligned)

