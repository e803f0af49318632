"""Rotors: exponentials, the rotation action, generator relations,
sphere parametrizations."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hyperclifford.rotors as rotors_module
from hyperclifford.algebra import AlgebraRep, Multivector, get_rep
from hyperclifford.matrices import HMatrix, commutator, pauli2, sigma_ab
from hyperclifford.paravectors import SPACE_NAMES, get_space, quasi_sphere_residual
from hyperclifford.rotors import (
    _INDEX_PAIRS,
    ResultOutsideParavectorSpan,
    Rotor,
    RotorParams,
    SeriesNonConvergence,
    _closed_form,
    _exponent_terms,
    _index_generators,
    _index_rhs,
    act,
    h1_null_pair,
    hyperbolic_generator,
    lorentz_generators,
    mat_exp,
    null_split,
    quasi_sphere_point_r66,
    quasi_sphere_point_r66_via_rotors,
    rotor_from_matrix,
    rotor_from_params,
    sphere_point,
    sphere_point_via_rotors,
    su4_generator,
    verify_index_commutators,
    verify_lorentz_commutators,
    verify_null_split,
)
from hyperclifford.scalars import BackendMismatch, HScalar, from_null_coords, to_null_coords
from oracles import component_norm, exponent_matrix, oracle_tests, random_params, same_bits, within

globals().update(oracle_tests(__name__))  # this module's rows of oracles.ORACLES


def dagger_residual(r) -> float:
    """How far hat(g)*dagger(g) = 1 is from holding for a rotor's g."""
    return (r.g.hat().gp(r.g.dagger()) - r.rep.scalar(1, exact=r.g.is_exact)).max_abs()


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
        assert within(1e-15)(r.g, one)
    for params in (RotorParams.e6({}), RotorParams.r66({}, {})):  # no plane: the zero exponent
        assert exponent_matrix(params) == HMatrix.zeros(4, exact=False)


def test_h1_rotor_matches_scalar_exponential():
    phi, xi = 0.9, -0.4
    r = rotor_from_params(RotorParams.h1(phi, xi))
    want = HScalar.flt(0.0, -phi / 2, xi / 2, 0.0).exp()
    got = r.g.to_matrix().rows[0][0]
    assert (got - want).max_abs() < 1e-15


def test_h1_rotor_is_the_scalar_exponential_and_its_null_pair():
    # h1 takes the closed form of its one term: HScalar.exp (the four
    # commuting factors) and h1_null_pair are its oracles, up to rapidity 20
    # (a root r = sqrt(z^2) would cost about |r| eps relative there)
    rng, eps = random.Random(12), 2.0**-52
    for _ in range(2000):
        phi, xi = rng.uniform(-math.pi, math.pi), rng.uniform(-20.0, 20.0)
        m = rotor_from_params(RotorParams.h1(phi, xi)).m
        tol = 4 * eps * (1.0 + m.max_abs())
        want = HScalar.flt(0.0, -phi / 2, xi / 2, 0.0).exp()
        assert max(abs(a - b) for a, b in zip(m.coords, (want.x, want.y, want.v, want.w))) <= tol
        for got, pair in zip(to_null_coords(m.coords), h1_null_pair(phi, xi)):
            assert abs(complex(*got) - pair) <= tol


def test_pure_boost_closed_form():
    xi = 1.3
    r = rotor_from_params(RotorParams.m4(xi=(0, 0, xi)))
    want = HMatrix.identity(2, exact=False).scale(
        HScalar.flt(math.cosh(xi / 2))
    ) + pauli2(3).to_float().scale(HScalar.flt(0, 0, math.sinh(xi / 2)))
    assert within(1e-14)(r.g.to_matrix(), want)


def test_rotor_certificates():
    rng = random.Random("test_rotor_certificates")
    for space in ("h1", "m4", "e6", "r66"):
        for _ in range(25):
            r = rotor_from_params(random_params(space, rng))
            assert r.spin_residual <= 1e-12
            assert dagger_residual(r) <= 1e-12


def cayley_plane_rotor(b: HMatrix, t: Fraction, square: int = -1) -> HMatrix:
    """(1 + t B)^2 / (1 - square t^2) for a plane generator B with
    B^2 = square: the rotation cos + sin B (square -1) or the boost
    cosh + sinh B (square +1) with the rational tangent t of half its
    angle or rapidity."""
    one = HMatrix.identity(b.n)
    half = one + b.scale(t)
    return (half @ half).scale(1 / (1 - square * t * t))


@pytest.mark.parametrize(
    "space, plane", [("m4", lambda: pauli2(3)), ("e6", lambda: sigma_ab(1, 2))], ids=["m4-sigma3", "e6-sigma12"]
)
def test_exact_rotor_certifies_in_its_own_backend(space, plane):
    b = plane().scale(HScalar.exact(0, -1))  # B = -i sigma
    assert b @ b == -HMatrix.identity(b.n)
    g = cayley_plane_rotor(b, Fraction(1, 3))
    r = rotor_from_matrix(get_space(space).rep, g)
    assert r.g.is_exact
    assert (r.spin_residual, dagger_residual(r)) == (0.0, 0.0)
    assert r.g.to_matrix() == g
    assert r.g.hat().gp(r.g.dagger()) == r.rep.scalar(1)


@pytest.mark.parametrize("k", [6, 9, 12, 15, 18, 20])
def test_exact_cayley_boost_certifies_at_large_rapidity(k):
    # B = j sigma3 and t = tanh(xi/2) = 1 - 2*10^-k: g = cosh xi + sinh xi B
    # with xi = log(10^k - 1), 13.8 at k = 6 to 46.1 at k = 20
    b = pauli2(3).scale(HScalar.exact(0, 0, 1))
    assert b @ b == HMatrix.identity(2)
    t = 1 - Fraction(2, 10**k)
    m4 = get_space("m4")
    r = rotor_from_matrix(m4.rep, cayley_plane_rotor(b, t, square=1))
    assert (r.spin_residual, dagger_residual(r)) == (0.0, 0.0)
    x = m4.paravector([3, -11, 7, 19])
    out = act(r, x)
    # the action boosts by 2 xi: cosh 2xi = c^2 + s^2, sinh 2xi = 2cs
    c, s = (1 + t * t) / (1 - t * t), 2 * t / (1 - t * t)
    ch, sh = c * c + s * s, 2 * c * s
    assert out == m4.paravector([3 * ch + 19 * sh, -11, 7, 3 * sh + 19 * ch])
    assert out.is_exact and out.qform() == x.qform()


def test_act_on_an_exact_rotor_stays_in_the_paravector_backend():
    # tan(theta/2) = 1/3 gives cos(2 theta) = 7/25 and sin(2 theta) = 24/25
    # in the (1, 2) plane of m4
    m4 = get_space("m4")
    g = cayley_plane_rotor(pauli2(3).scale(HScalar.exact(0, -1)), Fraction(1, 3))
    r = rotor_from_matrix(m4.rep, g)
    x = m4.paravector([1, 2, 3, 4])
    out = act(r, x)
    assert out == m4.paravector([1, Fraction(-58, 25), Fraction(69, 25), 4])
    assert out.is_exact and out.qform() == x.qform()
    out = act(r, x.to_float())
    assert not out.is_exact
    assert max(abs(a - b) for a, b in zip(out.coords, (1, -58 / 25, 69 / 25, 4))) < 1e-12


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
    rng = random.Random("test_qform_preserved_by_action")
    for space_name in ("h1", "m4", "e6", "r66"):
        space = get_space(space_name)
        for _ in range(30):
            r = rotor_from_params(random_params(space_name, rng))
            x = space.paravector([rng.uniform(-2, 2) for _ in range(space.dim)])
            before, after = x.qform(), act(r, x).qform()
            assert (before - after).max_abs() < 1e-10


def test_plane_02_rotor_is_hat_inverse_invariant():
    # generators of mixed grade flip under graduation: hat(g) = g^-1
    g2 = rotor_from_params(RotorParams.e6({(0, 2): 0.8}))
    assert (g2.g.dagger() - g2.g).max_abs() < 1e-13


def test_pure_rotation_is_hat_invariant():
    rot = rotor_from_params(RotorParams.e6({(2, 5): 0.8, (3, 4): -0.4}))
    assert (rot.g.hat() - rot.g).max_abs() < 1e-13
    m4rot = rotor_from_params(RotorParams.m4(phi=(0.4, -0.9, 1.2)))
    assert (m4rot.g.hat() - m4rot.g).max_abs() < 1e-13


def test_rotor_path_takes_no_multivector_product(monkeypatch):
    # rotors are certified and act on their matrices, with no Multivector
    # round trip: no product, no decomposition and no multivector's matrix
    spaces = ("h1", "m4", "e6", "r66")
    for space in spaces:
        rep = get_space(space).rep  # the space is built once, by blade products,
        rep.dagger_matrix(HMatrix.identity(rep.n))  # and its dagger permutation derived once

    def refuse(*args):
        raise AssertionError("a Multivector product or round trip on the rotor path")

    for owner, name in ((Multivector, "gp"), (Multivector, "gp_blades"), (Multivector, "to_matrix"),
                        (AlgebraRep, "decompose")):
        monkeypatch.setattr(owner, name, refuse)
    rng, images = random.Random(22), []
    for space in spaces:
        r = rotor_from_params(random_params(space, rng))
        x = get_space(space).paravector([rng.uniform(-2, 2) for _ in range(get_space(space).dim)])
        images.append((x, act(r, x)))
    angles, xis = (0.3, 0.2, -0.4, 0.9, 0.1), (0.5, -0.3, 0.2, 0.0, 0.7)
    assert len(sphere_point_via_rotors(1.0, angles)) == 6
    assert len(quasi_sphere_point_r66_via_rotors(1.0, angles, xis)) == 12
    monkeypatch.undo()
    for x, y in images:
        assert (y.qform() - x.qform()).max_abs() < 1e-10


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
    # an uncertified pseudo-rotor g = 1 + j, whose action (1 + j)^2 x = 2(1 + j) x
    # has a j part that no real paravector coordinate carries
    rep = get_rep("c30bar")
    fake = Rotor(rep=rep, m=rep.scalar(HScalar.flt(1.0, 0.0, 1.0, 0.0)).to_matrix(), spin_residual=0.0)
    m4 = get_space("m4")
    with pytest.raises(ResultOutsideParavectorSpan, match=r"residual 2\.000e\+00"):
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


def taylor_exp(x: HMatrix) -> HMatrix:
    """Reference exponential: the plain Taylor series, without scaling
    and without the closed form."""
    acc = term = HMatrix.identity(x.n, exact=False)
    for k in range(1, 60):
        term = (term @ x).scale(HScalar.flt(1.0 / k))
        acc = acc + term
    return acc


def _truncated(a: int, d: int) -> int:
    """a / d rounded toward zero, so a shrinking term reaches 0."""
    return a // d if a >= 0 else -(-a // d)


def fixed_point_exp(x: HMatrix, bits: int = 200) -> HMatrix:
    """Reference exponential where a float Taylor series cannot reach: the
    plain series of each complex null component in fixed point, ints over
    2**bits, summed until a term vanishes and rounded to floats once."""
    n, one, parts = x.n, 1 << bits, []
    for comp in to_null_coords(x.coords):
        a = [(int(math.ldexp(re, bits)), int(math.ldexp(im, bits))) for re, im in zip(comp[0::2], comp[1::2])]
        term = [(one if k % (n + 1) == 0 else 0, 0) for k in range(n * n)]
        acc, k = term, 0
        while any(re or im for re, im in term):
            k += 1
            prods = [[(p * s - q * t, p * t + q * s) for (p, q), (s, t) in zip(term[r:r + n], a[c::n])]
                     for r in range(0, n * n, n) for c in range(n)]
            term = [(_truncated(sum(re for re, _ in e), k << bits), _truncated(sum(im for _, im in e), k << bits))
                    for e in prods]
            acc = [(p + s, q + t) for (p, q), (s, t) in zip(acc, term)]
        parts.append([v / one for pair in acc for v in pair])
    return HMatrix.from_real_coords(from_null_coords(*parts))


def test_series_and_closed_form_agree():
    # mat_exp is the series alone: on arguments that square to a ring scalar
    # times the identity (rotors build these in closed form) as on the
    # others, it must agree with the plain series
    rng = random.Random(5)
    for _ in range(20):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        closed_form = [
            pauli2(1).to_float().scale(HScalar.flt(0, a)),  # squares to -a^2
            pauli2(2).to_float().scale(HScalar.flt(0, 0, b)),  # squares to +b^2
            sigma_ab(0, 3).to_float().scale(HScalar.flt(0, a)),
            # an m4 exponent: the square has an ij part
            pauli2(1).to_float().scale(HScalar.flt(0, -a / 2, b / 2))
            + pauli2(3).to_float().scale(HScalar.flt(0, b / 2, b / 2)),
        ]
        series = [
            # two commuting planes of an e6 exponent
            sigma_ab(0, 1).to_float().scale(HScalar.flt(0, a))
            + sigma_ab(2, 3).to_float().scale(HScalar.flt(0, b)),
        ]
        for x in closed_form + series:
            got, want = mat_exp(x), taylor_exp(x)
            assert within(1e-12 * (1.0 + want.max_abs()))(got, want)


@st.composite
def rotor_params(draw, spaces=("h1", "m4", "e6", "r66"), min_planes=1, max_rapidity=2.0):
    """h1 and m4 parameters with rotation and boost mixed, e6 parameters on
    ``min_planes`` to four planes and r66 parameters with both angles on each
    plane."""
    angle, rapidity = st.floats(-math.pi, math.pi), st.floats(-max_rapidity, max_rapidity)
    space = draw(st.sampled_from(spaces))
    if space == "h1":
        return RotorParams.h1(draw(angle), draw(rapidity))
    if space == "m4":
        return RotorParams.m4(draw(st.tuples(angle, angle, angle)), draw(st.tuples(rapidity, rapidity, rapidity)))
    planes = draw(st.lists(st.sampled_from(_INDEX_PAIRS), min_size=min_planes, max_size=4, unique=True))
    phi = {p: draw(angle) for p in planes}
    if space == "e6":
        return RotorParams.e6(phi)
    return RotorParams.r66(phi, {p: draw(rapidity) for p in planes})


def exponents(spaces=("h1", "m4", "e6", "r66"), min_planes=1):
    """The exponent matrices of :func:`rotor_params`."""
    return rotor_params(spaces, min_planes).map(exponent_matrix)


@settings(max_examples=100, deadline=None)
@given(params=rotor_params(max_rapidity=50.0))
def test_mat_exp_is_the_series_and_inverts_by_negation(params):
    # up to rapidity 50 the reference is the closed form for anticommuting
    # generators and the fixed-point series for the others; the product with
    # exp(-x) rounds in proportion to |exp x| |exp -x|
    x, (terms, anticommute) = exponent_matrix(params), _exponent_terms(params)
    got, back = mat_exp(x), mat_exp(-x)
    want = _closed_form(x.n, terms) if anticommute else fixed_point_exp(x)
    assert within(1e-12 * (1.0 + want.max_abs()))(got, want)
    one = HMatrix.identity(x.n, exact=False)
    assert within(1e-12 * (1.0 + got.max_abs()) * (1.0 + back.max_abs()))(got @ back, one)


@settings(max_examples=100, deadline=None)
@given(params=rotor_params())
def test_rotor_matrix_is_the_series_of_its_exponent(params):
    # anticommuting generators take the closed form from the ring square
    # sum z^2, the others mat_exp: both are the exponential of the exponent
    got, want = rotor_from_params(params).m, taylor_exp(exponent_matrix(params))
    assert within(1e-12 * (1.0 + want.max_abs()))(got, want)


def test_planes_anticommute_exactly_when_they_share_one_index():
    # the rule the closed form rests on, on the exact matrices: each sigma
    # squares to 1, the sigma_k pairwise anticommute, and two planes
    # anticommute exactly when they share one index, which is the rule that
    # sends a two-plane exponent to the closed form
    pairs = list(combinations(_INDEX_PAIRS, 2))
    assert len(pairs) == 105
    for p, q in pairs:
        a, b = sigma_ab(*p), sigma_ab(*q)
        shares_one = len({*p} & {*q}) == 1
        assert shares_one == (a @ b + b @ a == HMatrix.zeros(4))
        assert shares_one == (_exponent_terms(RotorParams.e6({p: 0.5, q: 0.25}))[1])
    assert all(sigma_ab(*p) @ sigma_ab(*p) == HMatrix.identity(4) for p in _INDEX_PAIRS)
    sigmas = [pauli2(k) for k in (1, 2, 3)]
    assert all(s @ s == HMatrix.identity(2) for s in sigmas)
    assert all(a @ b + b @ a == HMatrix.zeros(2) for a, b in combinations(sigmas, 2))


def test_anticommuting_exponents_take_no_matrix_product(monkeypatch):
    # an h1, m4 or one-plane rotor takes one product, its certificate, and the
    # sphere's plane rotors take no mat_exp; commuting planes still do, and
    # the series of mat_exp takes no ring product either
    for space in ("h1", "m4", "e6", "r66"):
        get_space(space)  # the spaces are built once, by products
    products, exps, matmul, mat_exp_ = [], [], HMatrix.__matmul__, rotors_module.mat_exp
    monkeypatch.setattr(HMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    monkeypatch.setattr(rotors_module, "mat_exp", lambda x: exps.append(1) or mat_exp_(x))
    for params in (RotorParams.h1(0.9, -0.4), RotorParams.m4(phi=(0.4, -0.9, 1.2), xi=(0.3, -1.1, 0.7)),
                   RotorParams.m4(xi=(0, 0, 2.0)), RotorParams.e6({(0, 3): 0.7}),
                   RotorParams.r66({(2, 5): 0.8}, {(2, 5): -0.3})):
        products.clear()
        rotor_from_params(params)
        assert len(products) == 1
    angles, xis = (0.3, 0.2, -0.4, 0.9, 0.1), (0.5, -0.3, 0.2, 0.0, 0.7)
    products.clear()
    sphere_point_via_rotors(1.0, angles)
    # four products compose the five planes, one certifies, two act
    assert len(products) == 7
    quasi_sphere_point_r66_via_rotors(1.0, angles, xis)
    assert exps == []
    products.clear()
    rotor_from_params(RotorParams.e6({(0, 1): 0.3, (2, 3): -0.5}))
    assert exps == [1] and len(products) == 1


@settings(max_examples=100, deadline=None)
@given(x=exponents(spaces=("e6", "r66"), min_planes=2), halvings=st.integers(0, 3),
       side=st.sampled_from([1 - 2.0**-30, 1 + 2.0**-30]))
@example(x=exponent_matrix(RotorParams.e6({(0, 1): 0.0, (0, 2): 2.2250738585e-313})),
         halvings=0, side=1 - 2.0**-30)
def test_mat_exp_is_the_series_on_both_sides_of_each_halving_threshold(x, halvings, side):
    # the series halves a component until its 1-norm is at most 1/2: scale x
    # so that its larger component lies just below or just above 2^halvings / 2
    assume(component_norm(x) > 0.0)
    if component_norm(x) < 2.0**-1000:
        # the factor below would overflow for a norm this small (subnormal
        # draws); a power of two brings x up first without rounding
        x = x.scale(HScalar.flt(2.0**600))
    x = x.scale(HScalar.flt(side * 2.0**halvings / 2.0 / component_norm(x)))
    got, want = mat_exp(x), taylor_exp(x)
    assert within(1e-12 * (1.0 + want.max_abs()))(got, want)


def test_series_kernels_are_compiled_once_per_size():
    for n in (1, 2, 4):
        assert rotors_module._kernels(n) == rotors_module._kernels(n)


def real_closed_form(x: HMatrix) -> HMatrix:
    """cos/sin or cosh/sinh of the real root of x @ x = s*1, from math."""
    s = (x @ x).rows[0][0].x
    t = math.sqrt(abs(s))
    if s < 0.0:
        c, k = math.cos(t), math.sin(t) / t
    elif s > 0.0:
        c, k = math.cosh(t), math.sinh(t) / t
    else:
        c, k = 1.0, 1.0
    return HMatrix.identity(x.n, exact=False).scale(HScalar.flt(c)) + x.scale(HScalar.flt(k))


@pytest.mark.parametrize("params", [
    lambda a, b, c: RotorParams.m4(xi=(0.0, 0.0, 2 * a)),
    lambda a, b, c: RotorParams.m4(xi=(2 * a, 2 * b, 0.0)),
    lambda a, b, c: RotorParams.m4(phi=(0.0, -2 * a, 0.0)),
    lambda a, b, c: RotorParams.m4(phi=(a, b, c)),
    lambda a, b, c: RotorParams.e6({(0, 3): a}),
    lambda a, b, c: RotorParams.r66({}, {(2, 5): b}),
    lambda a, b, c: RotorParams.m4(),
], ids=["m4-boost", "m4-two-boosts", "m4-rotation", "m4-rotations", "e6-plane", "r66-boost-plane", "identity"])
def test_real_square_closed_form_is_bit_exact(params):
    # a rotor whose exponent squares to a real scalar takes the ring closed
    # form's path through the null components and must come back with the
    # real formula's bits, signs of zero included
    rng = random.Random(11)
    for _ in range(200):
        p = params(*(rng.uniform(-3, 3) for _ in range(3)))
        x = exponent_matrix(p)
        assert (x @ x).rows[0][0].y == 0.0  # a real square
        got, want = rotor_from_params(p).m, real_closed_form(x)
        assert same_bits(got, want)


def test_exponent_norm_guard():
    from hyperclifford.rotors import SeriesNonConvergence

    # (1+i) sigma_1 at this magnitude needs more halvings than the series
    # allows
    huge = pauli2(1).to_float().scale(HScalar.flt(1e30, 1e30))
    with pytest.raises(SeriesNonConvergence):
        mat_exp(huge)


def test_mat_exp_rejects_exact_input():
    for x in (pauli2(1), sigma_ab(0, 1) + sigma_ab(2, 3)):  # a ring square, commuting planes
        with pytest.raises(BackendMismatch):
            mat_exp(x)


@pytest.mark.parametrize("x", [
    exponent_matrix(RotorParams.m4(xi=(0.0, 0.0, 1500.0))),  # real square
    exponent_matrix(RotorParams.m4(phi=(3.0, 0.0, 0.0), xi=(1500.0, 1.0, 0.0))),  # ring square
    exponent_matrix(RotorParams.r66({}, {(0, 1): 3000.0, (2, 3): 3000.0})),  # series
    exponent_matrix(RotorParams.m4(xi=(0.0, 0.0, 1e200))),  # the square itself overflows
    HMatrix.from_real_coords([1.6e308, 0.0, 1.6e308, 0.0]),  # a null component x + v overflows
], ids=["real-square", "ring-square", "series", "square", "null-sum"])
def test_overflow_raises_series_non_convergence(x):
    with pytest.raises(SeriesNonConvergence, match="too large"):
        mat_exp(x)


@pytest.mark.parametrize("params", [
    RotorParams.h1(0.3, 1500.0),
    RotorParams.m4(phi=(3.0, 0.0, 0.0), xi=(1500.0, 1.0, 0.0)),
    RotorParams.r66({}, {(0, 1): 1500.0}),  # closed form
    RotorParams.r66({}, {(0, 1): 3000.0, (2, 3): 3000.0}),  # series
], ids=["h1", "m4", "r66-plane", "r66-commuting-planes"])
def test_rotor_overflow_raises_series_non_convergence_in_every_space(params):
    with pytest.raises(SeriesNonConvergence, match="too large"):
        rotor_from_params(params)


# -- generator relations -------------------------------------------------------


def test_index_commutator_relations():
    result = verify_index_commutators()
    assert result["checked"] == 900
    assert result["failures_jj"] == 0
    assert result["failures_jk"] == 0
    assert result["failures_kk_computed"] == 0
    assert result["printed_kk_failures"] == 480


def test_relation_loops_build_each_ordered_product_once(monkeypatch):
    # [X_p, X_q] is read as X_p X_q - X_q X_p from one product per ordered
    # pair: 3,600 products for the index relations (5,400 when each
    # commutator built both of its own), 36 for the Lorentz ones (54) and
    # 900 for the split index generators (1,350); and each right-hand side
    # F_J, F_K once per ordered pair, the K-K relations reading -F_J and
    # -F_K: 1,080 weighted sums for the index relations (2,160 when each
    # was built once per sign); the results stay
    products, sums, matmul = [], [], HMatrix.__matmul__
    monkeypatch.setattr(HMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    weighted_sum = rotors_module._weighted_sum
    monkeypatch.setattr(rotors_module, "_weighted_sum", lambda *args: sums.append(1) or weighted_sum(*args))

    def counted(run):
        products.clear()
        sums.clear()
        return run(), len(products), len(sums)

    assert counted(verify_index_commutators) == ({
        "checked": 900, "failures_jj": 0, "failures_jk": 0, "failures_kk_computed": 0, "printed_kk_failures": 480,
    }, 3600, 1080)
    assert counted(verify_lorentz_commutators) == ({"failures": {"jj": 0, "jk": 0, "kk_computed": 0},
                                                    "printed_kk_failures": 6}, 36, 18)
    jg, kg = _index_generators()
    clean = {"cross_failures": 0, "structure_failures": 0, "reconstruction_failures": 0}
    assert counted(lambda: verify_null_split(jg, kg, _INDEX_PAIRS, _index_rhs))[:2] == (clean, 900)
    # with the structure constants of the swapped pair, each failing ordered
    # pair is still counted, as a loop over the commutators counts it
    def swapped(gens, p, q):
        return _index_rhs(gens, q, p)

    want = sum(commutator(g[p], g[q]) != swapped(g, p, q)
               for g in null_split(jg) for p, q in product(_INDEX_PAIRS, repeat=2))
    assert verify_null_split(jg, kg, _INDEX_PAIRS, swapped)["structure_failures"] == want > 0


def test_index_table_is_signed():
    # the generators read off the signed table for all 36 ordered index
    # pairs: J_ba = -J_ab, and J_aa = 0
    half = HScalar.exact(Fraction(1, 2))
    for p, q in product(range(6), repeat=2):
        x = su4_generator(p, q)
        assert su4_generator(q, p) == -x
        assert x == (HMatrix.zeros(4) if p == q else sigma_ab(p, q).scale(half))
        assert hyperbolic_generator(p, q) == x.scale(HScalar.unit("ij"))


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
    a_set, b_set = null_split(dict(enumerate(rot)))
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
    a_set, b_set = null_split({0: j})
    assert a_set[0] == HMatrix.identity(1).scale(HScalar.exact(half, 0, half) * HScalar.exact(half))
    assert b_set[0] == HMatrix.identity(1).scale(HScalar.exact(half, 0, -half) * HScalar.exact(half))


# -- null factorization ---------------------------------------------------------


def test_null_factorize_pure_boost():
    xi = 0.9
    r = rotor_from_params(RotorParams.h1(0.0, xi))
    plus, minus = to_null_coords(r.g.to_matrix().coords)
    assert abs(plus[0] - math.exp(xi / 2)) < 1e-14
    assert abs(minus[0] - math.exp(-xi / 2)) < 1e-14
    assert abs(plus[1]) < 1e-15 and abs(minus[1]) < 1e-15


def test_null_factorize_pure_phase():
    phi = 1.1
    r = rotor_from_params(RotorParams.h1(phi, 0.0))
    plus, minus = to_null_coords(r.g.to_matrix().coords)
    assert max(abs(a - b) for a, b in zip(plus, minus)) < 1e-15
    want = h1_null_pair(phi, 0.0)[0]
    assert abs(plus[0] - want.real) < 1e-15
    assert abs(plus[1] - want.imag) < 1e-15


def test_null_factorize_roundtrip():
    rng = random.Random("test_null_factorize_roundtrip")
    for space in ("h1", "r66"):
        for _ in range(20):
            m = rotor_from_params(random_params(space, rng)).g.to_matrix()
            rec = HMatrix.from_real_coords(from_null_coords(*to_null_coords(m.coords)))
            assert (rec - m).max_abs() < 1e-12


def test_null_reconstruct_rejects_bad_components():
    # the components of a 2x2 and of a 4x4 matrix cannot be joined
    two, _ = to_null_coords(HMatrix.identity(2, exact=False).coords)
    four, _ = to_null_coords(HMatrix.identity(4, exact=False).coords)
    for pair in ((two, four), (four, two)):
        with pytest.raises(ValueError):
            from_null_coords(*pair)


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
        assert quasi_sphere_residual(point, r) <= 1e-10


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


@pytest.mark.parametrize("kwargs, message", [
    ({"space": "s3"}, "no rotors for space 's3'"),
    ({"space": "h1"}, "h1 expects 1 phi angles, got 0"),
    ({"space": "h1", "phi": (0.1,), "xi": (0.2, 0.3)}, "h1 expects 1 xi angles, got 2"),
    ({"space": "m4", "phi": (1.0,)}, "m4 expects 3 phi angles, got 1"),
    ({"space": "m4", "phi": (1, 2, 3, 4), "xi": (0, 0, 0, 5)}, "m4 expects 3 phi angles, got 4"),
    ({"space": "e6", "phi": (1.0,)}, "e6 expects 0 phi angles, got 1"),
    ({"space": "e6", "xi_ab": {(0, 1): 1.0}}, "e6 takes no xi_ab"),
    ({"space": "m4", "phi": (0, 0, 0), "xi": (0, 0, 0), "phi_ab": {(0, 1): 1.0}}, "m4 takes no phi_ab"),
    ({"space": "h1", "phi": (0,), "xi": (0,), "xi_ab": {(0, 1): 1.0}}, "h1 takes no xi_ab"),
    ({"space": "r66", "phi_ab": {(0, 1): 1.0, (1, 0): 1.0}}, r"conflicting values for plane \(0, 1\)"),
], ids=["space", "h1-no-angles", "h1-two-xi", "m4-one-phi", "m4-four-angles", "e6-phi", "e6-xi-plane",
        "m4-plane", "h1-plane", "conflicting-planes"])
def test_rotor_params_constructor_rejects_bad_input(kwargs, message):
    # the constructor is the one validating entry: none of these
    # may be dropped, ignored or turned into the identity rotor
    with pytest.raises(ValueError, match=message):
        RotorParams(**kwargs)


@pytest.mark.parametrize("plane", [
    (True, 2), (1, False), (1.0, 2), (Fraction(1), 2), 1, (1, 2, 3), "12", (0,), (0, 6), (-1, 2), (2, 2),
], ids=["bool", "bool-second", "float", "fraction", "int", "triple", "str", "single", "six", "negative", "equal"])
def test_rotor_params_planes_are_pairs_of_different_ints_in_0_to_5(plane):
    # a plane is checked where it enters, and the error names it: (True, 2)
    # was kept as (1, 2), and (1.0, 2) failed only later, in rotor_from_params
    for make in (lambda: RotorParams.e6({plane: 0.1}), lambda: RotorParams.r66(xi_ab={plane: 0.1})):
        with pytest.raises(ValueError, match=f"plane {re.escape(repr(plane))} is not a pair of two different ints"):
            make()


def test_rotor_params_constructor_normalizes_what_it_keeps():
    p = RotorParams("r66", phi_ab={(3, 1): 0.5, (0, 2): 0.25}, xi_ab=[((1, 0), 2)])
    assert p == RotorParams.r66({(1, 3): -0.5, (0, 2): 0.25}, {(0, 1): -2.0})
    assert p.phi_ab == (((0, 2), 0.25), ((1, 3), -0.5))
    assert hash(p) == hash(RotorParams.r66(dict(p.phi_ab), dict(p.xi_ab)))
    assert RotorParams("m4", phi=[1, 2, 3], xi=(0, 0, 0)).phi == (1.0, 2.0, 3.0)
    assert RotorParams.m4() == RotorParams("m4", (0.0,) * 3, (0.0,) * 3)
    assert RotorParams.h1() == RotorParams("h1", (0.0,), (0.0,))
    assert RotorParams.e6() == RotorParams("e6") and RotorParams.r66() == RotorParams("r66")


def test_rotor_params_make_and_replace_build_through_the_constructor():
    p = RotorParams.r66({(3, 1): 0.5})
    assert repr(p) == "RotorParams(space='r66', phi=(), xi=(), phi_ab=(((1, 3), -0.5),), xi_ab=())"
    assert p._replace(xi_ab={(1, 0): 2}) == RotorParams.r66({(1, 3): -0.5}, {(0, 1): -2.0})
    assert RotorParams._make(["m4", [1, 2, 3], (0, 0, 0), (), ()]).phi == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="m4 expects 3 phi angles, got 2"):
        RotorParams.m4()._replace(phi=(1, 2))
    with pytest.raises(ValueError, match="e6 takes no xi_ab"):
        RotorParams._make(("e6", (), (), (), {(0, 1): 1.0}))
    with pytest.raises(AttributeError):
        p.phi_ab = ()


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        sphere_point(-1.0, [0] * 5)
    with pytest.raises(ValueError):
        quasi_sphere_point_r66(-1.0, [0] * 5, [0] * 5)


# each sphere function as f(r, angles, xis); the e6 ones take no xis
SPHERE_FUNCTIONS = {
    "sphere_point": lambda r, phis, xis: sphere_point(r, phis),
    "sphere_point_via_rotors": lambda r, phis, xis: sphere_point_via_rotors(r, phis),
    "quasi_sphere_point_r66": quasi_sphere_point_r66,
    "quasi_sphere_point_r66_via_rotors": quasi_sphere_point_r66_via_rotors,
}


@pytest.mark.parametrize("name", SPHERE_FUNCTIONS)
def test_sphere_functions_take_their_numbers_by_the_one_rule(name):
    f, five = SPHERE_FUNCTIONS[name], [0.1] * 5
    assert len(f(1.0, five, five)) in (6, 12)
    for count in (3, 4, 6, 7):
        with pytest.raises(ValueError, match=f"takes 5 angles, got {count}"):
            f(1.0, [0.1] * count, five)
        if "quasi" in name:
            with pytest.raises(ValueError, match=f"takes 5 angles, got {count}"):
                f(1.0, five, [0.1] * count)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="radius coordinate 0 is not finite"):
            f(r, five, five)
    for bad in ("0.1", True):
        with pytest.raises(TypeError, match="coordinate 2 is not an int, Fraction or float"):
            f(1.0, [0.1, 0.1, bad, 0.1, 0.1], five)
        if "quasi" in name:
            with pytest.raises(TypeError, match="coordinate 2 is not an int, Fraction or float"):
                f(1.0, five, [0.1, 0.1, bad, 0.1, 0.1])


@pytest.mark.parametrize("rep, n", [("r30", 2), ("r05", 4), ("c30bar", 4), ("h05bar", 2), ("c10bar", 2)])
def test_rotor_from_matrix_needs_a_full_ring_of_the_matrix_size(rep, n):
    # r30 and r05 span only part of their matrix rings, where dagger cannot
    # act; a matrix of another size is no element of the representation
    with pytest.raises(ValueError, match=f"full-ring representation of {n}x{n} matrices, not {rep}$"):
        rotor_from_matrix(get_rep(rep), HMatrix.identity(n, exact=False))


def test_every_paravector_space_sits_on_a_full_ring():
    for name in SPACE_NAMES:
        rep = get_space(name).rep
        assert len(rep.basis) == 4 * rep.n * rep.n
        assert rotor_from_matrix(rep, HMatrix.identity(rep.n)).spin_residual == 0.0


@pytest.mark.parametrize("idx", [0, 1, 5], ids=["entry0-x", "entry0-y", "entry1-y"])
def test_rotor_from_matrix_rejects_a_nan_on_a_full_ring_by_its_spin_test(idx):
    # c30bar spans every 2x2 matrix, so no span test runs there
    coords = [1.0, 0.0, 0.0, 0.0] + [0.0] * 8 + [1.0, 0.0, 0.0, 0.0]
    coords[idx] = math.nan
    with pytest.raises(ValueError, match="spin condition violated: residual nan"):
        rotor_from_matrix(get_rep("c30bar"), HMatrix._new(2, coords, None))


def test_act_rejects_a_nan_image_by_its_span_test():
    rotor = rotor_from_params(RotorParams.m4())
    bad_m = HMatrix._new(rotor.m.n, [math.nan] + list(rotor.m.coords[1:]), None)
    bad = Rotor(rotor.rep, bad_m, rotor.spin_residual, rotor.params)
    with pytest.raises(ResultOutsideParavectorSpan):
        act(bad, get_space("m4").paravector([1.0, 0.0, 0.0, 0.0]))
