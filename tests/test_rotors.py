"""Rotors: exponentials, the rotation action, generator relations,
sphere parametrizations."""

import math
import random

import pytest

from hyperclifford.algebra import get_rep
from hyperclifford.matrices import HMatrix, commutator, pauli2
from hyperclifford.paravectors import get_space, quasi_sphere_contains
from hyperclifford.rotors import (
    ResultOutsideParavectorSpan,
    RotorParams,
    act,
    h1_null_pair,
    lorentz_generators,
    mat_exp,
    null_factorize,
    null_reconstruct,
    null_split,
    quasi_sphere_point_r66,
    quasi_sphere_point_r66_via_rotors,
    rotor_from_params,
    sphere_point,
    sphere_point_via_rotors,
    su4_generator,
    verify_index_commutators,
    verify_lorentz_commutators,
)
from hyperclifford.scalars import HScalar

RNG = random.Random(4242)


def random_params(space, rng=RNG):
    if space == "h1":
        return RotorParams.h1(rng.uniform(-math.pi, math.pi), rng.uniform(-2, 2))
    if space == "m4":
        return RotorParams.m4(
            phi=[rng.uniform(-math.pi, math.pi) for _ in range(3)],
            xi=[rng.uniform(-2, 2) for _ in range(3)],
        )
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    phi = {p: rng.uniform(-math.pi, math.pi) for p in rng.sample(pairs, 3)}
    if space == "e6":
        return RotorParams.e6(phi)
    xi = {p: rng.uniform(-1.5, 1.5) for p in rng.sample(pairs, 3)}
    return RotorParams.r66(phi, xi)


def test_zero_params_give_identity():
    for space in ("h1", "m4", "e6", "r66"):
        if space == "h1":
            r = rotor_from_params(RotorParams.h1())
        elif space == "m4":
            r = rotor_from_params(RotorParams.m4())
        elif space == "e6":
            r = rotor_from_params(RotorParams.e6({}))
        else:
            r = rotor_from_params(RotorParams.r66({}, {}))
        one = r.rep.scalar(1, exact=False)
        assert r.g.is_close(one, 1e-15)


def test_h1_rotor_matches_scalar_exponential():
    phi, xi = 0.9, -0.4
    r = rotor_from_params(RotorParams.h1(phi, xi))
    want = HScalar.flt(0.0, -phi / 2, xi / 2, 0.0).exp()
    got = r.g.to_matrix().entry(0, 0)
    assert (got - want).abs_max() < 1e-15


def test_pure_boost_closed_form():
    xi = 1.3
    r = rotor_from_params(RotorParams.m4(xi=(0, 0, xi)))
    want = HMatrix.identity(2, exact=False).scale(
        HScalar.flt(math.cosh(xi / 2))
    ) + pauli2(3).to_float().scale(HScalar.flt(0, 0, math.sinh(xi / 2)))
    assert r.g.to_matrix().is_close(want, 1e-14)


def test_rotor_certificates():
    for space in ("h1", "m4", "e6", "r66"):
        for _ in range(25):
            r = rotor_from_params(random_params(space))
            assert r.spin_residual <= 1e-12
            assert r.dagger_residual <= 1e-12


def test_identity_action():
    m4 = get_space("m4")
    r = rotor_from_params(RotorParams.m4())
    x = m4.paravector([1.5, -0.25, 2.0, 0.75])
    out = act(r, x)
    assert max(abs(a - b) for a, b in zip(out.coords, x.coords)) < 1e-14


@pytest.mark.parametrize("xi", [-2.0, -0.5, 0.5, 2.0])
@pytest.mark.parametrize("m", [1.0, 2.0])
def test_boost_action_on_rest_vector(xi, m):
    m4 = get_space("m4")
    r = rotor_from_params(RotorParams.m4(xi=(0, 0, xi)))
    out = act(r, m4.paravector([m, 0, 0, 0]))
    want = (m * math.cosh(xi), 0.0, 0.0, m * math.sinh(xi))
    assert max(abs(a - b) for a, b in zip(out.coords, want)) < 1e-12


def test_qform_preserved_by_action():
    for space_name in ("h1", "m4", "e6", "r66"):
        space = get_space(space_name)
        for _ in range(30):
            r = rotor_from_params(random_params(space_name))
            x = space.paravector([RNG.uniform(-2, 2) for _ in range(space.dim)])
            before, after = x.qform(), act(r, x).qform()
            assert (before - after).abs_max() < 1e-10


def test_plane_02_rotor_is_hat_inverse_invariant():
    # generators of mixed grade flip under graduation: hat(g) = g^-1
    g2 = rotor_from_params(RotorParams.e6({(0, 2): 0.8}))
    assert (g2.ghat_inv - g2.g).max_abs() < 1e-13


def test_pure_rotation_is_hat_invariant():
    rot = rotor_from_params(RotorParams.e6({(2, 5): 0.8, (3, 4): -0.4}))
    assert (rot.g.hat() - rot.g).max_abs() < 1e-13
    m4rot = rotor_from_params(RotorParams.m4(phi=(0.4, -0.9, 1.2)))
    assert (m4rot.g.hat() - m4rot.g).max_abs() < 1e-13


def test_pure_boost_hat_is_inverse():
    b = rotor_from_params(RotorParams.m4(xi=(0.3, -1.1, 0.7)))
    inv = b.rep.decompose(b.g.to_matrix().inverse())
    assert (b.g.hat() - inv).max_abs() < 1e-12


def test_action_rejects_mismatched_spaces():
    r = rotor_from_params(RotorParams.m4(xi=(0, 0, 1.0)))
    e6 = get_space("e6")
    with pytest.raises(ValueError):
        act(r, e6.paravector([1, 0, 0, 0, 0, 0]))


def test_action_detects_span_leak():
    # an uncertified pseudo-rotor whose action produces a bivector
    from hyperclifford.rotors import Rotor

    rep = get_rep("c30bar")
    e1 = rep.generator(1, exact=False)
    one = rep.scalar(1, exact=False)
    fake = Rotor(g=e1, ghat_inv=one, spin_residual=0.0, dagger_residual=0.0)
    m4 = get_space("m4")
    with pytest.raises(ResultOutsideParavectorSpan):
        act(fake, m4.paravector([0, 0, 1, 0]))


def test_lorentz_rotation_commutator_example():
    # [J_1, J_2] = i J_3
    rot, _ = lorentz_generators()
    assert commutator(rot[0], rot[1]) == rot[2].scale(HScalar.unit("i"))


def test_gp_anticommutation_example():
    for name in ("r30", "r05"):
        rep = get_rep(name)
        e1, e2 = rep.generator(1), rep.generator(2)
        total = e1.gp(e2) + e2.gp(e1)
        assert not total.coeffs


def test_series_and_closed_form_agree():
    rng = random.Random(5)
    for _ in range(20):
        # single-plane argument has a scalar square: closed form applies
        theta = rng.uniform(-2, 2)
        x = pauli2(1).to_float().scale(HScalar.flt(0, theta))
        closed = mat_exp(x)
        series = mat_exp(x + HMatrix.zeros(2, exact=False).scale(HScalar.flt(0)), half_at=-1.0)
        assert closed.is_close(series, 1e-13)


def test_exponent_norm_guard():
    from hyperclifford.rotors import SeriesNonConvergence

    # (1+i) sigma_1 squares to 2i times the identity: no closed form,
    # and the magnitude defeats the scaling budget
    huge = pauli2(1).to_float().scale(HScalar.flt(1e30, 1e30))
    with pytest.raises(SeriesNonConvergence):
        mat_exp(huge, max_halvings=8)


# -- generator relations -------------------------------------------------------


def test_index_commutator_relations():
    result = verify_index_commutators()
    assert result["checked"] == 900
    assert result["failures_jj"] == 0
    assert result["failures_jk"] == 0
    assert result["failures_kk_computed"] == 0
    assert result["printed_kk_failures"] > 0


def test_lorentz_commutator_relations():
    result = verify_lorentz_commutators()
    assert all(v == 0 for v in result["failures"].values())
    assert result["printed_kk_failures"] == 6


def test_boost_commutator_closes_on_rotations():
    # [K_1, K_2] = -i J_3, computed directly
    rot, boo = lorentz_generators()
    got = commutator(boo[0], boo[1])
    want = rot[2].scale(-HScalar.unit("i"))
    assert got == want


def test_index_commutator_example():
    # [J_01, J_02] = i J_12
    lhs = commutator(su4_generator(0, 1), su4_generator(0, 2))
    assert lhs == su4_generator(1, 2).scale(HScalar.unit("i"))


def test_null_split_properties():
    rot, boo = lorentz_generators()
    a_set, b_set = null_split(rot)
    for p in range(3):
        assert a_set[p] + b_set[p] == rot[p]
        assert (a_set[p] - b_set[p]).scale(HScalar.unit("i")) == boo[p]
        for q in range(3):
            assert commutator(a_set[p], b_set[q]) == HMatrix.zeros(2)
    # A-copy keeps the structure constants
    got = commutator(a_set[0], a_set[1])
    assert got == a_set[2].scale(HScalar.unit("i"))


def test_null_split_literal_form_degenerates():
    # (J + ij K)/2 with K = ij J is identically zero since (ij)^2 = -1
    rot, boo = lorentz_generators()
    for j, k in zip(rot, boo):
        assert j + k.scale(HScalar.unit("ij")) == HMatrix.zeros(2)


def test_single_generator_split():
    # one-dimensional case: J = 1/2 splits into the idempotent halves
    from fractions import Fraction

    half = Fraction(1, 2)
    j = HMatrix.identity(1).scale(HScalar.exact(half))
    a_set, b_set = null_split([j])
    assert a_set[0] == HMatrix.identity(1).scale(HScalar.exact(half, 0, half) * HScalar.exact(half))
    assert b_set[0] == HMatrix.identity(1).scale(HScalar.exact(half, 0, -half) * HScalar.exact(half))


# -- null factorization ---------------------------------------------------------


def test_null_factorize_pure_boost():
    xi = 0.9
    r = rotor_from_params(RotorParams.h1(0.0, xi))
    plus, minus = null_factorize(r)
    assert abs(plus.entry(0, 0).x - math.exp(xi / 2)) < 1e-14
    assert abs(minus.entry(0, 0).x - math.exp(-xi / 2)) < 1e-14
    assert abs(plus.entry(0, 0).y) < 1e-15 and abs(minus.entry(0, 0).y) < 1e-15


def test_null_factorize_pure_phase():
    phi = 1.1
    r = rotor_from_params(RotorParams.h1(phi, 0.0))
    plus, minus = null_factorize(r)
    assert (plus.entry(0, 0) - minus.entry(0, 0)).abs_max() < 1e-15
    want = h1_null_pair(phi, 0.0)[0]
    assert abs(plus.entry(0, 0).x - want.real) < 1e-15
    assert abs(plus.entry(0, 0).y - want.imag) < 1e-15


def test_null_factorize_roundtrip():
    for space in ("h1", "r66"):
        for _ in range(20):
            r = rotor_from_params(random_params(space))
            rec = null_reconstruct(null_factorize(r))
            assert (rec - r.g.to_matrix()).max_abs() < 1e-12


# -- sphere parametrizations -----------------------------------------------------


def test_sphere_point_at_zero_angles():
    assert sphere_point(1.0, [0] * 5) == (0, 0, 0, 0, 0, 1.0)
    out = sphere_point(2.0, [math.pi / 2, 0, 0, 0, 0])
    want = (0, 0, 2.0, 0, 0, 0)
    assert max(abs(a - b) for a, b in zip(out, want)) < 1e-15


def test_sphere_closed_form_equals_rotor_path():
    rng = random.Random(6)
    worst = 0.0
    for k in range(100):
        angles = [rng.uniform(-math.pi, math.pi) for _ in range(5)]
        r = (0.5, 1.0, 3.0)[k % 3]
        a = sphere_point(r, angles)
        b = sphere_point_via_rotors(r, angles)
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
        assert abs(math.sqrt(sum(x * x for x in a)) - r) < 1e-10
    assert worst < 1e-10


def test_quasi_sphere_reduces_to_sphere():
    rng = random.Random(7)
    for _ in range(20):
        phis = [rng.uniform(-math.pi, math.pi) for _ in range(5)]
        full = quasi_sphere_point_r66(1.5, phis, [0] * 5)
        flat = sphere_point(1.5, phis)
        assert max(abs(a - b) for a, b in zip(full[:6], flat)) < 1e-14
        assert max(abs(c) for c in full[6:]) == 0.0


def test_quasi_sphere_single_plane_structure():
    # only the fourfold 2,5,8,11 coordinates are populated
    phi, xi, r = 0.8, 1.2, 2.0
    coords = quasi_sphere_point_r66(r, [phi, 0, 0, 0, 0], [xi, 0, 0, 0, 0])
    want = {
        2: r * math.sin(phi) * math.cosh(xi),
        5: r * math.cos(phi) * math.cosh(xi),
        8: r * math.cos(phi) * math.sinh(xi),
        11: -r * math.sin(phi) * math.sinh(xi),
    }
    for k, c in enumerate(coords):
        if k in want:
            assert abs(c - want[k]) < 1e-13
        else:
            assert c == 0.0


def test_quasi_sphere_membership():
    rng = random.Random(8)
    r66 = get_space("r66")
    for k in range(100):
        phis = [rng.uniform(-math.pi, math.pi) for _ in range(5)]
        xis = [rng.uniform(-2, 2) for _ in range(5)]
        r = (0.5, 1.0, 3.0)[k % 3]
        point = r66.paravector(quasi_sphere_point_r66(r, phis, xis))
        assert quasi_sphere_contains(point, r, 1e-10)


def test_quasi_sphere_rotor_path_agrees():
    rng = random.Random(9)
    for _ in range(30):
        phis = [rng.uniform(-math.pi, math.pi) for _ in range(5)]
        xis = [rng.uniform(-1.5, 1.5) for _ in range(5)]
        a = quasi_sphere_point_r66(1.0, phis, xis)
        b = quasi_sphere_point_r66_via_rotors(1.0, phis, xis)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10


def test_antisymmetric_parameter_normalization():
    p1 = RotorParams.e6({(2, 5): 1.0})
    p2 = RotorParams.e6({(5, 2): -1.0})
    assert p1.phi_ab == p2.phi_ab
    with pytest.raises(ValueError):
        RotorParams.e6({(2, 2): 1.0})


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        sphere_point(-1.0, [0] * 5)
    with pytest.raises(ValueError):
        quasi_sphere_point_r66(-1.0, [0] * 5, [0] * 5)
