"""Paravector spaces: metrics, quadratic forms, wedge products,
quasi-spheres, momentum embedding."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperclifford import algebra
from hyperclifford.algebra import AlgebraRep, Multivector, get_rep, ring_unit_multivectors
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
from oracles import (
    assert_canonical,
    exact_coordinates,
    oracle_tests,
    random_coords,
    same_bits,
    same_values,
    signed_zero_coords,
)

globals().update(oracle_tests(__name__))  # this module's rows of oracles.ORACLES


def basis(space, k):
    return space.paravector([1 if i == k else 0 for i in range(space.dim)])


def rand_exact(space, rng):
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


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_each_basis_element_times_its_bar_is_its_metric_sign_on_the_real_scalar(name):
    # the construction reads the metric off this entry of the blade table
    space = get_space(name)
    for b, sign in zip(space.basis, space.metric, strict=True):
        assert space.rep._basis_product(b, b.bar()) == space.rep._element(0, [sign], 1), name
        assert sign in (1, -1)


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
    rng = random.Random("test_dot_equals_qform_on_diagonal")
    m4 = get_space("m4")
    for _ in range(50):
        x = rand_exact(m4, rng)
        assert dot(x, x) == x.qform()


def test_product_splits_into_dot_and_wedge():
    rng = random.Random("test_product_splits_into_dot_and_wedge")
    m4 = get_space("m4")
    for _ in range(100):
        x, y = rand_exact(m4, rng), rand_exact(m4, rng)
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
    rng = random.Random("test_wedge_self_vanishes")
    m4 = get_space("m4")
    for _ in range(20):
        x = rand_exact(m4, rng)
        assert not wedge2(x, x).coeffs


def test_wedge3_antisymmetry():
    rng = random.Random("test_wedge3_antisymmetry")
    m4 = get_space("m4")
    for _ in range(10):
        xs = [rand_exact(m4, rng) for _ in range(3)]
        base = wedge3(*xs)
        for a in range(3):
            for b in range(a + 1, 3):
                swapped = list(xs)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                assert wedge3(*swapped) == -base


def test_wedge4_antisymmetry_and_dependence():
    rng = random.Random("test_wedge4_antisymmetry_and_dependence")
    m4 = get_space("m4")
    for _ in range(6):
        xs = [rand_exact(m4, rng) for _ in range(4)]
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
    # the 24-term alternating sum fixes the constant: exactly ij
    m4 = get_space("m4")
    e = [basis(m4, k) for k in range(4)]
    out = wedge4(*e)
    assert out == m4.rep.blade((1, 2, 3))
    # anchor: e0 bar(e1) e2 bar(e3) = ij
    ms = [v.to_multivector() for v in e]
    anchor = ms[0].gp_blades(ms[1].bar()).gp_blades(ms[2]).gp_blades(ms[3].bar())
    assert anchor == m4.rep.blade((1, 2, 3))


def test_wedge3_of_dependent_arguments():
    rng = random.Random("test_wedge3_of_dependent_arguments")
    m4 = get_space("m4")
    x, y = rand_exact(m4, rng), rand_exact(m4, rng)
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


def test_quasi_sphere_residual_takes_its_radius_by_the_one_rule():
    # as the sphere functions take theirs: finite, an int, Fraction or float
    x = get_space("h1").paravector([1.0, 0, 0, 0])
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sphere radius coordinate 0 is not finite"):
            quasi_sphere_residual(x, r)
    for bad in (True, "1"):
        with pytest.raises(TypeError, match="sphere radius coordinate 0 is not an int, Fraction or float"):
            quasi_sphere_residual(x, bad)
    assert quasi_sphere_residual(x, 1) == quasi_sphere_residual(x, Fraction(1)) == 0.0


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


def test_a_space_compiles_its_unit_slot_kernel_on_its_first_product():
    shared = get_space("r66")
    space = ParavectorSpace("r66", shared.rep, shared.basis)
    coords = [0.5, -1.25, 0, 2, 0, 0, 0.75, 0, 0, -3, 0, 1]
    assert not [key for key, value in vars(space).items() if callable(value)]
    assert space.paravector(coords).qform() == shared.paravector(coords).qform()
    assert dot(space.paravector(coords), space.paravector(coords[::-1])) == dot(
        shared.paravector(coords), shared.paravector(coords[::-1]))
    assert [key for key, value in vars(space).items() if callable(value)] == ["_unit_product"]


def test_the_first_decompose_or_to_matrix_compiles_its_map_once(monkeypatch):
    # a new representation and a new space hold new tables, whose maps are
    # generated by the first call that reads them and then kept
    shared = get_space("m4")
    rep = AlgebraRep("c30bar", shared.rep.signature, shared.rep.gens, adjoined="j")
    space = ParavectorSpace("m4", shared.rep, shared.basis)
    x = shared.paravector([0.5, -1.25, 0, 2])
    m = shared.to_matrix(x)  # the shared maps, first
    projected = shared.project_matrix(m)[0].nums
    mv = Multivector._new(rep, x.to_multivector().nums, x.den)
    generated, linear = [], algebra._linear
    monkeypatch.setattr(algebra, "_linear", lambda rows, size: generated.append(size) or linear(rows, size))
    assert vars(rep._coord_table) == vars(space._slot_pairs) == {}
    for call, table, keys, want in ((mv.to_matrix, rep._coord_table, ["scatter"], m),
                                    (lambda: rep.decompose(m).nums, rep._coord_table, ["scatter", "gather"], mv.nums),
                                    (lambda: space.to_matrix(x), space._slot_pairs, ["scatter"], m),
                                    (lambda: space.project_matrix(m)[0].nums, space._slot_pairs,
                                     ["scatter", "gather"], projected)):
        assert call() == call() == want
        assert list(vars(table)) == keys
    assert generated == [16, 16, 4, 16]  # one map each, by its input count


def test_float_zero_paravector_stays_float():
    m4 = get_space("m4")
    zero, one = m4.paravector([0.0] * 4), m4.paravector([1.0, 0, 0, 0])
    assert not zero.to_multivector().to_matrix().is_exact
    for value in (dot(zero, one), dot(one, zero), zero.qform()):
        assert value == HScalar.flt(0.0)
        assert all(type(c) is float for c in value.coeffs())
    assert m4.paravector([0] * 4).qform().is_exact


def test_projection_gives_every_zero_coordinate_as_plus_zero():
    # the sign pass turned a +0.0 gathered on a slot of sign -1 into -0.0: r66
    # coordinates 6, 8 and 10 and hm4 coordinates 6 and 14 of the identity
    rng = random.Random(40)
    for name in SPACE_NAMES:
        space = get_space(name)
        n = space.rep.n
        mats = [HMatrix.identity(n, exact=False), HMatrix.zeros(n, exact=False)]
        mats += [HMatrix.from_real_coords(signed_zero_coords(4 * n * n, rng)) for _ in range(10)]
        for m in mats:
            x, _ = space.project_matrix(m)
            assert same_bits([c for c in x.nums if not c], [0.0] * x.nums.count(0.0)), name


def test_ring_value_keeps_the_sign_of_every_zero():
    # a unit slot of sign -1 read its coordinate c as -c, so a +0.0 came back -0.0
    e6 = get_space("e6")
    x = e6.paravector([1.0, 0.5, 0, 0, 0, 0.25])
    assert same_bits(x.qform(), HScalar(1.3125, 0.0, 0.0, 0.0))
    for name, want in (("e6", (1.0, 0.0, 0.0, 0.0)), ("r66", (0.0, 0.0, 0.0, 0.0))):
        space = get_space(name)
        x = space.paravector([1.0, 0.5] + [0.0] * (space.dim - 3) + [0.25])
        y = space.paravector([0.5] + [0.0] * (space.dim - 2) + [2.0])
        assert same_bits(dot(x, y), HScalar(*want))
    rng = random.Random(40)
    for name in SPACE_NAMES:
        space = get_space(name)
        for _ in range(10):
            mv = Multivector._new(space.rep, signed_zero_coords(len(space.rep.basis), rng), None)
            slots = [mv.nums[k] for k, _ in space._unit_slots]
            parts = space.ring_value(mv).coeffs()
            assert same_bits([c for c in parts if not c], [c for c in slots if not c])


def test_ring_residual_keeps_a_nan_wherever_it_sits():
    # max() alone kept a NaN only when it came first: 1.0 then NaN gave 1.0
    for name in SPACE_NAMES:
        space = get_space(name)
        inside = {k for k, _ in space._unit_slots}
        outside = [k for k in range(len(space.rep.basis)) if k not in inside]
        if not outside:  # h1: every coordinate is a unit slot
            continue
        for first, second in ((1.0, math.nan), (math.nan, 1.0), (math.inf, math.nan)):
            nums = [0.0] * len(space.rep.basis)
            nums[outside[0]], nums[outside[-1]] = first, second
            mv = Multivector._new(space.rep, nums, None)
            assert math.isnan(space.ring_residual(mv)) and math.isnan(mv.max_abs()), (name, first)
        nums = [0.0] * len(space.rep.basis)
        nums[outside[0]], nums[outside[-1]] = 1.0, -2.5
        assert space.ring_residual(Multivector._new(space.rep, nums, None)) == 2.5


def test_projection_rejects_another_size():
    # it failed only in the residual, and read a larger matrix's first entries
    for name in SPACE_NAMES:
        n = get_space(name).rep.n
        for other in {1, 2, 4} - {n}:
            with pytest.raises(ValueError, match=f"^{get_space(name).rep.name} takes {n}x{n} matrices, not {other}x"):
                get_space(name).project_matrix(HMatrix.identity(other, exact=False))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_project_zero_matrix_follows_its_backend(name, exact):
    space = get_space(name)
    coords, residual = space.project_matrix(HMatrix.zeros(space.rep.n, exact=exact))
    zero = Fraction(0) if exact else 0.0
    assert same_values(coords.coords, (zero,) * space.dim)
    assert residual == 0.0


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_project_exact_matrix_gives_exact_coordinates(name):
    space = get_space(name)
    rng = random.Random(name)
    for density in (1.0, 0.4):
        for _ in range(5):
            x = space.paravector(random_coords(space, rng, True, density))
            coords, residual = space.project_matrix(x.to_multivector().to_matrix())
            assert same_values(coords, x)
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
