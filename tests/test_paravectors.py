"""Paravector spaces: metrics, quadratic forms, wedge products,
quasi-spheres, momentum embedding."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperclifford.algebra import Multivector, get_rep, ring_unit_multivectors
from hyperclifford.matrices import HMatrix
from hyperclifford.paravectors import (
    SPACE_NAMES,
    Paravector,
    ParavectorSpace,
    dot,
    embed_momentum,
    get_space,
    quasi_sphere_residual,
    wedge2,
    wedge3,
    wedge4,
)
from hyperclifford.physics import MomentumHM4, mass_qform
from hyperclifford.scalars import BackendMismatch, HScalar
from test_scalars import assert_canonical, exact_coordinates

RNG = random.Random(314)


def basis(space, k):
    return space.paravector([1 if i == k else 0 for i in range(space.dim)])


def rand_exact(space, rng=RNG):
    return space.paravector(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(space.dim)]
    )


@pytest.mark.parametrize(
    "name,metric",
    [
        ("m4", (1, -1, -1, -1)),
        ("e6", (1, 1, 1, 1, 1, 1)),
    ],
)
def test_space_metrics_strictly_diagonal(name, metric):
    space = get_space(name)
    assert space.metric == metric
    for a in range(space.dim):
        for b in range(space.dim):
            want = HScalar.exact(metric[a] if a == b else 0)
            assert dot(basis(space, a), basis(space, b)) == want


@pytest.mark.parametrize(
    "name,metric,cross",
    [
        # dual basis pairs carry an ij part in the symmetric product;
        # the quasi-sphere membership test constrains exactly this part
        ("h1", (1, 1, -1, -1), {(0, 3): 1, (1, 2): -1}),
        ("r66", (1,) * 6 + (-1,) * 6, {(a, a + 6): 1 for a in range(6)}),
    ],
)
def test_space_metrics_with_hyperbolic_cross_terms(name, metric, cross):
    space = get_space(name)
    assert space.metric == metric
    for a in range(space.dim):
        for b in range(space.dim):
            got = dot(basis(space, a), basis(space, b))
            if a == b:
                want = HScalar.exact(metric[a])
            else:
                pair = (a, b) if a < b else (b, a)
                want = HScalar.exact(0, 0, 0, cross.get(pair, 0))
            assert got == want, (a, b, got)


def test_m4_qform_examples():
    m4 = get_space("m4")
    assert m4.paravector([1, 0, 0, 0]).qform() == HScalar.exact(1)
    assert m4.paravector([2, 1, 0, 0]).qform() == HScalar.exact(3)


def test_h1_qform_is_ring_square():
    h1 = get_space("h1")
    rng = random.Random(8)
    for _ in range(100):
        coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        q = h1.paravector(coords).qform()
        z = HScalar.exact(*coords)
        assert q == z.qform()


def test_r66_qform_structure():
    r66 = get_space("r66")
    rng = random.Random(9)
    for _ in range(50):
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(12)]
        q = r66.paravector(coords).qform()
        real = sum(c * c for c in coords[:6]) - sum(c * c for c in coords[6:])
        cross = 2 * sum(coords[a] * coords[a + 6] for a in range(6))
        assert q == HScalar.exact(real, 0, 0, cross)


def test_dot_equals_qform_on_diagonal():
    m4 = get_space("m4")
    for _ in range(50):
        x = rand_exact(m4)
        assert dot(x, x) == x.qform()


def test_product_splits_into_dot_and_wedge():
    m4 = get_space("m4")
    for _ in range(100):
        x, y = rand_exact(m4), rand_exact(m4)
        mx, my = x.to_multivector(), y.to_multivector()
        lhs = mx.gp_blades(my.bar())
        rhs = m4.rep.scalar(dot(x, y)) + wedge2(x, y)
        assert lhs == rhs


def test_wedge2_basis_example():
    # e0 ^ e1 = -(e1 image): (1)(bar(j s1)) and (j s1)(bar 1) average out
    m4 = get_space("m4")
    out = wedge2(basis(m4, 0), basis(m4, 1))
    assert out == -m4.rep.blade((1,))


def test_wedge_self_vanishes():
    m4 = get_space("m4")
    for _ in range(20):
        x = rand_exact(m4)
        assert not wedge2(x, x).coeffs


def test_wedge3_antisymmetry():
    m4 = get_space("m4")
    for _ in range(10):
        xs = [rand_exact(m4) for _ in range(3)]
        base = wedge3(*xs)
        for a in range(3):
            for b in range(a + 1, 3):
                swapped = list(xs)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                assert wedge3(*swapped) == -base


def test_wedge4_antisymmetry_and_dependence():
    m4 = get_space("m4")
    for _ in range(6):
        xs = [rand_exact(m4) for _ in range(4)]
        base = wedge4(*xs)
        for a in range(4):
            for b in range(a + 1, 4):
                swapped = list(xs)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                assert wedge4(*swapped) == -base
        dep = m4.paravector(
            [2 * p - 3 * q for p, q in zip(xs[0].coords, xs[1].coords)]
        )
        assert not wedge4(xs[0], xs[1], xs[2], dep).coeffs


def test_wedge4_of_basis_is_pseudoscalar():
    # brute-force 24-term alternating sum fixes the constant: exactly ij
    m4 = get_space("m4")
    e = [basis(m4, k) for k in range(4)]
    out = wedge4(*e)
    assert out == m4.rep.blade((1, 2, 3))
    # anchor: e0 bar(e1) e2 bar(e3) = ij
    ms = [v.to_multivector() for v in e]
    anchor = ms[0].gp_blades(ms[1].bar()).gp_blades(ms[2]).gp_blades(ms[3].bar())
    assert anchor == m4.rep.blade((1, 2, 3))


def test_wedge3_of_dependent_arguments():
    m4 = get_space("m4")
    x, y = rand_exact(m4), rand_exact(m4)
    assert not wedge3(x, y, x).coeffs


def test_quasi_sphere_membership():
    h1 = get_space("h1")
    g = HScalar.flt(0.0, -0.35, 0.6, 0.0).exp()  # exp(-i phi/2 + j xi/2)
    point = h1.paravector([g.x, g.y, g.v, g.w])
    assert quasi_sphere_residual(point, 1.0) <= 1e-12
    null_point = h1.paravector([1, 0, 1, 0])
    assert not quasi_sphere_residual(null_point, 1.0) <= 1e-12
    assert not quasi_sphere_residual(null_point, 0.5) <= 1e-12


def test_quasi_sphere_rejects_negative_radius():
    h1 = get_space("h1")
    with pytest.raises(ValueError):
        quasi_sphere_residual(h1.paravector([1, 0, 0, 0]), -1.0)


def test_embed_momentum_real_reduces_to_minkowski():
    m4 = get_space("m4")
    rng = random.Random(10)
    for _ in range(50):
        q = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
        zeros = (0, 0, 0, 0)
        p = embed_momentum(q, zeros, zeros, zeros)
        assert p.qform() == m4.paravector(q).qform()


def test_embed_momentum_rest_mass():
    p = embed_momentum((3, 0, 0, 0), (0,) * 4, (0,) * 4, (0,) * 4)
    assert p.qform() == HScalar.exact(9)


def test_embed_momentum_pure_hyperbolic_part():
    # p = j s0: qform (j s0)(-j s0) = -s0^2
    p = embed_momentum((0,) * 4, (0,) * 4, (5, 0, 0, 0), (0,) * 4)
    assert p.qform() == HScalar.exact(-25)


def test_embed_momentum_mixed_scalar_units():
    # p = q0 + ij u0: qform = q0^2 - u0^2 + 2 ij q0 u0
    p = embed_momentum((2, 0, 0, 0), (0,) * 4, (0,) * 4, (3, 0, 0, 0))
    assert p.qform() == HScalar.exact(4 - 9, 0, 0, 12)


def test_hm4_layout_is_unit_major():
    # coordinate 4k + a is ring unit k (1, i, j, ij) times m4 basis element a
    m4, hm4 = get_space("m4"), get_space("hm4")
    units = ring_unit_multivectors(hm4.rep)
    assert hm4.basis == tuple(units[u].gp_blades(b) for u in ("1", "i", "j", "ij") for b in m4.basis)
    q, o, s, u = (1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16)
    p = embed_momentum(q, o, s, u)
    assert p.coords == (*q, *o, *s, *u)
    assert all(type(c) is Fraction for c in p.coords)
    assert all(type(c) is float for c in embed_momentum(q, o, s, (13.0, 14, 15, 16)).coords)
    # squared masses as the hyperbolic-complex coordinates gave them
    for momentum, want in [
        ((q, o, s, u), HScalar.exact(640, 0, 0, 128)),
        ((q[:1] + (0,) * 3, o[:1] + (0,) * 3, (0,) * 4, u[:1] + (0,) * 3), HScalar.exact(-143, 0, 0, 26)),
        (((2, 0, 0, 0), (1, 0, 0, 0), (0,) * 4, (3, 0, 0, 0)), HScalar.exact(-4, 0, 0, 12)),
        (((Fraction(1, 2), -1, 0, 2), (0, 1, 0, 0), (3, 0, Fraction(-1, 3), 0), (1, 0, 0, -2)),
         HScalar.exact(Fraction(-419, 36), 0, 0, 9)),
    ]:
        assert mass_qform(MomentumHM4(*momentum)) == want
    with pytest.raises(TypeError):
        hm4.paravector([HScalar.exact(1)] + [0] * 15)


def test_hyper_coordinates_extract_roundtrip():
    hm4 = get_space("hm4")
    rng = random.Random(11)
    for _ in range(25):
        coords = [rng.uniform(-2, 2) for _ in range(16)]
        x = hm4.paravector(coords)
        got, residual = hm4.project_matrix(x.to_multivector().to_matrix())
        assert residual < 1e-12
        assert all(type(c) is float for c in got.coords)
        assert max(abs(a - b) for a, b in zip(coords, got.coords)) < 1e-12


def test_space_mismatch_rejected():
    m4, e6 = get_space("m4"), get_space("e6")
    with pytest.raises(ValueError):
        dot(m4.paravector([1, 0, 0, 0]), e6.paravector([1, 0, 0, 0, 0, 0]))
    x, y = basis(m4, 0), basis(m4, 1)
    with pytest.raises(ValueError, match="differ in space"):
        wedge4(x, y, x, e6.paravector([1, 0, 0, 0, 0, 0]))
    with pytest.raises(BackendMismatch):
        wedge3(x, y, m4.paravector([0.0, 0.0, 1.0, 0.0]))


# the two constructors that validate: the space's method and the class
ENTRY_POINTS = (ParavectorSpace.paravector, Paravector)


def test_wrong_coordinate_count():
    for make in ENTRY_POINTS:
        with pytest.raises(ValueError, match="m4 expects 4 coordinates"):
            make(get_space("m4"), [1, 2, 3])


@pytest.mark.parametrize("index", [0, 3])
def test_fraction_next_to_float_is_a_backend_mismatch(index):
    coords = [0.5, 0.0, 0.0, 0.0]
    coords[index] = Fraction(1, 3)
    for make in ENTRY_POINTS:
        with pytest.raises(BackendMismatch):
            make(get_space("m4"), coords)


@pytest.mark.parametrize("bad", ["2", True, None, 1j, HScalar.exact(1)], ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("others", [0, 0.5, Fraction(1, 2)], ids=["int", "float", "fraction"])
def test_non_number_coordinates_rejected(bad, others):
    for make in ENTRY_POINTS:
        with pytest.raises(TypeError, match=r"coordinate 2\b") as exc:
            make(get_space("m4"), [others, others, bad, others])
        assert exc.type is TypeError


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("index", [0, 2])
def test_non_finite_coordinates_rejected(bad, index):
    coords = [1.0, 0.0, 0.0, 0.0]
    coords[index] = bad
    for make in ENTRY_POINTS:
        with pytest.raises(ValueError, match=rf"coordinate {index}\b"):
            make(get_space("m4"), coords)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("component", range(4))
def test_non_finite_hyper_coordinate_components_rejected(bad, component):
    # the component on unit k (1, i, j, ij) of Minkowski index 2 is real
    # coordinate 4k + 2
    blocks = [[1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.5, 0.0, 0.0, 0.0], [0.0] * 4]
    blocks[component][2] = bad
    with pytest.raises(ValueError, match=rf"hm4 coordinate {4 * component + 2}\b"):
        embed_momentum(*blocks)


def test_float_zero_paravector_stays_float():
    m4 = get_space("m4")
    zero, one = m4.paravector([0.0] * 4), m4.paravector([1.0, 0, 0, 0])
    assert not zero.to_multivector().to_matrix().is_exact
    for value in (dot(zero, one), dot(one, zero), zero.qform()):
        assert value == HScalar.flt(0.0)
        assert all(type(c) is float for c in value.coeffs())
    assert m4.paravector([0] * 4).qform().is_exact


# -- the slot route against the scale-and-add and real-pairing routes -----------


def to_multivector_reference(space, x):
    """The scale-and-add route: each basis element scaled by its non-zero
    coordinate, summed as multivectors in coordinate order."""
    exact = not isinstance(x.coords[0], float)
    acc = space.rep.scalar(0, exact=exact)
    for b, c in zip(space.basis, x.coords):
        if c == 0:
            continue
        elem = b if exact else b.to_float()
        acc = acc + elem.scale(HScalar.make(c, exact=exact))
    return acc


def project_matrix_reference(space, m):
    """The real-pairing route for a float matrix: each coordinate is the
    pairing of m with its basis matrix over that matrix's norm, and the
    residual is taken against the sum of the basis matrices scaled by the
    coordinates."""
    basis = [e.to_matrix().to_float() for e in space.basis]
    coords = tuple(
        float(HMatrix.real_pairing(bm, m)) / float(HMatrix.real_pairing(bm, bm)) for bm in basis
    )
    acc = HMatrix.zeros(space.rep.n, exact=False)
    for bm, c in zip(basis, coords):
        acc = acc + bm.scale(HScalar.flt(c))
    return coords, (m - acc).max_abs()


def _parts(value):
    """A value as nested (type, number) pairs, blades in dict order.

    Comparing these with == checks equal values of equal types; it treats
    0.0 and -0.0 as equal, because the routes may differ in the sign of a
    zero (the reference routes add signed zero products)."""
    if isinstance(value, Multivector):
        return [(blade, _parts(z)) for blade, z in value.coeffs.items()]
    if isinstance(value, Paravector):
        return _parts(value.coords)
    if isinstance(value, HScalar):
        return [_parts(c) for c in value.coeffs()]
    if isinstance(value, (tuple, list)):
        return [_parts(v) for v in value]
    return (type(value), value)


def _random_coords(space, rng, exact, density):
    def number():
        if rng.random() >= density:
            return Fraction(0) if exact else 0.0
        if exact:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return rng.uniform(-2, 2)

    return [number() for _ in range(space.dim)]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_slot_route_matches_reference(name, exact):
    space = get_space(name)
    rng = random.Random(f"{name}-{exact}")
    size = 4 * space.rep.n * space.rep.n
    for density in (1.0, 0.4, 0.0):  # dense, sparse, zero
        for _ in range(15):
            x = space.paravector(_random_coords(space, rng, exact, density))
            mv = x.to_multivector()
            assert _parts(mv) == _parts(to_multivector_reference(space, x))
            if exact:
                continue  # the real-pairing reference projects float matrices
            inside = mv.to_matrix().to_float()
            outside = HMatrix.from_real_coords([rng.uniform(-2, 2) for _ in range(size)])
            for m in (inside, outside):
                assert _parts(space.project_matrix(m)) == _parts(project_matrix_reference(space, m))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_project_zero_matrix_follows_its_backend(name, exact):
    space = get_space(name)
    coords, residual = space.project_matrix(HMatrix.zeros(space.rep.n, exact=exact))
    zero = Fraction(0) if exact else 0.0
    assert _parts(coords) == _parts((zero,) * space.dim)
    assert residual == 0.0


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_project_exact_matrix_gives_exact_coordinates(name):
    space = get_space(name)
    rng = random.Random(name)
    for density in (1.0, 0.4):
        for _ in range(5):
            x = space.paravector(_random_coords(space, rng, True, density))
            coords, residual = space.project_matrix(x.to_multivector().to_matrix())
            assert _parts(coords) == _parts(x.coords)
            assert residual == 0.0


def named_exact_coordinates(name):
    dim = get_space(name).dim
    return st.tuples(st.just(name), st.lists(exact_coordinates, min_size=dim, max_size=dim))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACE_NAMES).flatmap(named_exact_coordinates))
def test_exact_paravectors_are_stored_canonical(drawn):
    """The stored form of an exact paravector: canonical numerators, ==
    and hash by value whether an integer is written as an int or as a
    Fraction, the input back from coords, and an exact projection of its
    own matrix."""
    name, coords = drawn
    space = get_space(name)
    x = space.paravector(coords)
    assert_canonical(x)
    as_ints = [int(c) if c.denominator == 1 else c for c in coords]
    same = Paravector(space, as_ints)
    assert same == x and hash(same) == hash(x)
    assert x.coords == tuple(coords)
    assert x != x.to_float()
    back, residual = space.project_matrix(x.to_multivector().to_matrix())
    assert back == x and residual == 0.0


_C30 = get_rep("c30bar")


@pytest.mark.parametrize(
    "basis,index",
    [
        # metric-unit (e*bar(e) = -1) but spread over two blades
        ([_C30.scalar(1), _C30.blade((1,), Fraction(3, 5)) + _C30.blade((2,), Fraction(4, 5))], 1),
        # metric-unit but spread over the 1 and j components of one blade
        ([_C30.scalar(1), _C30.blade((1,), HScalar.exact(Fraction(5, 3), 0, Fraction(4, 3)))], 1),
        # the same direction twice
        ([_C30.scalar(1), _C30.blade((1,)), _C30.blade((2,)), _C30.blade((1,))], 3),
    ],
    ids=["two-blades", "two-components", "repeated"],
)
def test_basis_elements_must_be_slots(basis, index):
    with pytest.raises(ValueError, match=rf"basis element {index} of bad\b"):
        ParavectorSpace("bad", _C30, basis)
