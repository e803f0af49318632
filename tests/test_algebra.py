"""Representations, geometric product, involutions, dimension counts."""

import math
import random
import re
from fractions import Fraction
from functools import cache, partial
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from hyperclifford.algebra import (
    Multivector,
    Signature,
    blade_mul,
    enumerate_algebra,
    even_subalgebra,
    get_rep,
    involution_sign,
    involution_table,
    porteous_conjugate_2x2,
    porteous_dagger_4x4,
    porteous_hat_4x4,
    pseudoscalar,
)
from hyperclifford.matrices import HMatrix, pauli2
from hyperclifford.scalars import BackendMismatch, HScalar, _entering
from test_scalars import assert_canonical, exact_coordinates

RNG = random.Random(99)
ALL_REPS = ("r01", "r10", "c10bar", "r30", "c30bar", "r05", "h05bar")


def from_coords(rep, coords):
    """The element with the given coordinates, ints and Fractions or floats."""
    return Multivector._new(rep, *_entering(coords, rep.name))


def random_mv(rep, exact=False, rng=RNG):
    coeffs = {}
    for blade in rep.blades:
        if exact:
            main = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            side = Fraction(rng.randint(-6, 6), rng.randint(1, 3)) if rep.adjoined else 0
            make = HScalar.exact
        else:
            main = rng.uniform(-2, 2)
            side = rng.uniform(-2, 2) if rep.adjoined else 0.0
            make = HScalar.flt
        if rep.adjoined == "i":
            coeffs[blade] = make(main, side)
        elif rep.adjoined == "j":
            coeffs[blade] = make(main, 0, side)
        else:
            coeffs[blade] = make(main)
    return Multivector(rep, coeffs)


def sparse_mv(rep, exact, rng):
    """A random element on a random subset of the blades, so that some
    output blades collect fewer terms than others; the others are zeros
    of the same backend."""
    full = random_mv(rep, exact, rng)
    zero = HScalar.make(exact=exact)
    keep = {b: z if rng.random() < 0.6 else zero for b, z in full.coeffs.items()}
    return Multivector(rep, {(): zero, **keep})


def unit_product(u1, u2):
    """The unit and the sign of HScalar.unit(u1) * HScalar.unit(u2)."""
    comps = (HScalar.unit(u1) * HScalar.unit(u2)).coeffs()
    ((spot, c),) = [(spot, c) for spot, c in enumerate(comps) if c]
    return ("1", "i", "j", "ij")[spot], int(c)


def gp_blades_reference(u, v):
    """The per-term blade product: one term per pair of non-zero real
    coordinates, its blade and sign from blade_mul, its unit and sign from
    HScalar.unit products, summed per output coordinate in pair order.
    Both are memoised per pair, within one call."""
    rep, out, cv = u.rep, {}, v.coords
    blade_pair = cache(partial(blade_mul, signature=rep.signature))
    unit_pair = cache(unit_product)
    for (b1, u1), x1 in zip(rep.basis, u.coords):
        for (b2, u2), x2 in zip(rep.basis, cv):
            if not (x1 and x2):
                continue
            blade, sign = blade_pair(b1, b2)
            unit, unit_sign = unit_pair(u1, u2)
            term = x1 * x2 if sign * unit_sign > 0 else -(x1 * x2)
            key = (blade, unit)
            out[key] = out[key] + term if key in out else term
    zero = Fraction(0) if u.is_exact else 0.0
    return from_coords(rep, [out.get(key, zero) for key in rep.basis])


def gp_blades_null_reference(u, v):
    """The per-term null-split product of a j-rep: each blade coefficient
    a + b j as its null pair (p, m) = (a + b, a - b), one term per pair of
    blades, its blade and sign from blade_mul, the p and m products summed
    per output blade in pair order into P and M, joined as (P + M)/2 and
    (P - M)/2.  The blade_mul results are memoised within one call."""
    rep = u.rep
    blade_pair = cache(partial(blade_mul, signature=rep.signature))

    def pairs(mv):
        c = mv.coords
        return [(blade, c[2 * k] + c[2 * k + 1], c[2 * k] - c[2 * k + 1]) for k, blade in enumerate(rep.blades)]

    sums = {blade: [0.0, 0.0] for blade in rep.blades}
    for b1, p1, m1 in pairs(u):
        for b2, p2, m2 in pairs(v):
            blade, sign = blade_pair(b1, b2)
            sums[blade][0] += sign * (p1 * p2)
            sums[blade][1] += sign * (m1 * m2)
    coords = [x for P, M in sums.values() for x in ((P + M) / 2, (P - M) / 2)]
    return from_coords(rep, coords)


def real_only_mv(rep, exact, rng):
    """A random element whose blade coefficients have no adjoined-unit part."""
    make = HScalar.exact if exact else HScalar.flt
    coeffs = {b: make(z.x) for b, z in random_mv(rep, exact, rng).coeffs.items()}
    return Multivector(rep, {(): HScalar.make(exact=exact), **coeffs})


def negative_zeros(mv):
    """The float element with every zero coordinate of ``mv`` written -0.0."""
    return from_coords(mv.rep, [x if x else -0.0 for x in mv.coords])


def assert_float_product(got, u, v):
    """A float j-rep product: bit-exact against the null-split reference,
    and within the summation bound of the real-basis reference, which sums
    twice as many terms per coordinate: |new - old| <= 4 n eps S per
    coordinate, for n blades and S the product of the operands' sums of
    |a| + |b| over their blades."""
    want = gp_blades_null_reference(u, v)
    assert list(map(float.hex, got.coords)) == list(map(float.hex, want.coords))
    old = gp_blades_reference(u, v)
    bound = 4 * len(u.rep.blades) * 2.0**-53 * sum(map(abs, u.coords)) * sum(map(abs, v.coords))
    assert all(abs(x - y) <= bound for x, y in zip(got.coords, old.coords))


@pytest.mark.parametrize("name", ALL_REPS)
def test_product_table_is_blade_mul_and_unit_product(name):
    """The table gp_blades reads: over the blades for a j-rep, whose
    products go through the null split; over the basis otherwise."""
    rep = get_rep(name)
    keys = rep.blades if rep.adjoined == "j" else rep.basis
    assert len(rep._product) == len(keys)
    for key1, row in zip(keys, rep._product):
        assert len(row) == len(keys)
        assert len({k for k, _ in row}) == len(row)  # a signed permutation
        for key2, entry in zip(keys, row):
            if rep.adjoined == "j":
                blade, sign = blade_mul(key1, key2, rep.signature)
                assert entry == (rep.blades.index(blade), sign)
                continue
            (b1, u1), (b2, u2) = key1, key2
            blade, sign = blade_mul(b1, b2, rep.signature)
            unit, unit_sign = unit_product(u1, u2)
            assert entry == (rep.basis.index((blade, unit)), sign * unit_sign)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", ALL_REPS)
def test_gp_blades_matches_per_term_reference(name, exact):
    """Exact products equal the real-basis per-term reference.  Float
    products of a j-rep take the null split, so they are pinned to the
    null-split reference bit for bit; real-only operands never meet the
    split's rounding and still equal the real-basis reference."""
    rep = get_rep(name)
    rng = random.Random(f"{name}-{exact}")
    backend = Fraction if exact else float
    split = rep.adjoined == "j" and not exact
    zero = rep.scalar(0, exact=exact)
    for k in range(12):
        make = (sparse_mv, random_mv, real_only_mv)[k % 3]
        u, v = make(rep, exact, rng), make(rep, exact, rng)
        pairs = [(u, v), (v, u), (u.bar(), v), (-u, v.hat()), (zero, u), (u, zero)]
        if not exact:
            pairs += [(negative_zeros(u), v), (u, negative_zeros(v))]
        for a, b in pairs:
            got = a.gp_blades(b)
            if split and make is not real_only_mv:
                assert_float_product(got, a, b)
                continue
            want = gp_blades_reference(a, b)
            assert got == want
            assert got.coeffs.keys() == want.coeffs.keys()
            for blade, z in want.coeffs.items():
                assert [float(c) for c in got.coeffs[blade].coeffs()] == [float(c) for c in z.coeffs()]
            assert all(type(c) is backend for c in got.coords)


def exact_element(rep, values):
    """The exact element with the given ``{basis index: Fraction}``
    coordinates, the others zero."""
    coords = [Fraction(0)] * len(rep.basis)
    for k, x in values.items():
        coords[k] = x
    return from_coords(rep, coords)


@pytest.mark.parametrize("name", ALL_REPS)
def test_gp_blades_integer_kernel_edge_cases(name):
    """The exact product contracts integer numerators over one common
    denominator per operand; these operands stress that step."""
    rep = get_rep(name)
    rng = random.Random(f"kernel-{name}")
    size, last = len(rep.basis), len(rep.basis) - 1
    primes = (999999937, 1000000007, 1000000009, 2**61 - 1)

    def coprime():
        return Fraction(rng.randint(-10**12, 10**12), rng.choice(primes) ** rng.randint(1, 2))

    def small():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    def dense(draw):
        return exact_element(rep, {k: draw() for k in range(size)})

    tiny = exact_element(rep, {**{k: small() for k in range(size)}, last: Fraction(1, 10**400)})
    zero, x = exact_element(rep, {}), Fraction(3, 7)
    # (1 + x b)(1 - x b): the two terms on the last basis element b cancel
    plus, minus = exact_element(rep, {0: Fraction(1), last: x}), exact_element(rep, {0: Fraction(1), last: -x})
    assert plus.gp_blades(minus).coords[last] == 0
    cases = [
        (dense(coprime), dense(coprime)),
        (tiny, dense(small)), (dense(small), tiny), (tiny, tiny),
        (plus, minus), (minus, plus),
        (zero, dense(small)), (dense(coprime), zero), (zero, zero),
        (exact_element(rep, {last: x}), exact_element(rep, {last: Fraction(-5, 11)})),
        (exact_element(rep, {0: Fraction(2, 9)}), dense(coprime)),
        (dense(coprime), exact_element(rep, {last: Fraction(1, 10**400)})),
    ]
    for u, v in cases:
        got = u.gp_blades(v)
        assert got == gp_blades_reference(u, v)
        assert all(type(c) is Fraction for c in got.coords)


def sparse_exact(rep):
    """Exact elements on at most six basis elements, denominators up to 10**6."""
    coord = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)
    return st.dictionaries(st.integers(0, len(rep.basis) - 1), coord, max_size=6).map(
        lambda values: exact_element(rep, values)
    )


@pytest.mark.parametrize("name", ["c30bar", "h05bar"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exact_gp_blades_is_the_matrix_product_and_associative(name, data):
    rep = get_rep(name)
    a, b, c = (data.draw(sparse_exact(rep)) for _ in range(3))
    ab = a.gp_blades(b)
    assert ab == a.gp(b)
    assert ab.gp_blades(c) == a.gp_blades(b.gp_blades(c))


def test_multivector_rejects_mixed_backends():
    r30 = get_rep("r30")
    with pytest.raises(BackendMismatch):
        Multivector(r30, {(): HScalar.exact(1), (1,): HScalar.flt(2.0)})
    with pytest.raises(BackendMismatch):
        Multivector(r30, {(): HScalar.flt(1.0), (1, 2): HScalar.exact(0)})
    assert not Multivector(r30, {(): HScalar.flt(1.0), (1,): HScalar.flt(2.0)}).is_exact


@pytest.mark.parametrize("bad", [1.0, 2, Fraction(1, 2), "1", None], ids=["float", "int", "fraction", "str", "none"])
def test_multivector_rejects_a_coefficient_that_is_not_a_scalar(bad):
    # as HMatrix rows do: a TypeError naming the coefficient and its blade
    with pytest.raises(TypeError, match=rf"r30 coefficient {re.escape(repr(bad))} of blade \(1,\) is not an HScalar"):
        Multivector(get_rep("r30"), {(): HScalar.flt(1.0), (1,): bad})


def test_gp_blades_mixed_backends_and_zero_operands():
    r30 = get_rep("r30")
    # non-zero operands, then a zero of the other backend on either side
    # or both: a zero is an operand like any other
    exacts = (r30.generator(1), r30.scalar(0))
    flts = (r30.generator(2, exact=False), r30.scalar(0, exact=False))
    for exact, flt in product(exacts, flts):
        for a, b in ((exact, flt), (flt, exact)):
            for op in (a.__add__, a.__sub__, a.gp, a.gp_blades):
                with pytest.raises(BackendMismatch):
                    op(b)
            with pytest.raises(BackendMismatch):
                a.scale(HScalar.make(exact=b.is_exact))
        # equal values of two backends are unequal
        assert exact != exact.to_float() and exact.to_float() != exact
        # within one backend, a zero factor gives zero
        for mv in (exact, flt):
            zero = r30.scalar(0, exact=mv.is_exact)
            assert mv.gp_blades(zero) == zero
            assert zero.gp_blades(mv) == zero


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name, unit", [("c10bar", "i"), ("c30bar", "j"), ("h05bar", "j")])
def test_scale_is_the_per_blade_scalar_product(name, unit, exact):
    """Exact scaling, and float scaling in c10bar, is the HScalar product
    per blade; float scaling in a j-rep is the null-split product."""
    rep = get_rep(name)
    rng = random.Random(f"scale-{name}-{exact}")
    zero = HScalar.make(exact=exact)
    for k in range(9):
        mv = (sparse_mv, random_mv, real_only_mv)[k % 3](rep, exact, rng)
        a, b = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) if exact else rng.uniform(-2, 2)
                for _ in range(2))
        for z in (HScalar.make(a, exact=exact) + HScalar.make(b, exact=exact) * HScalar.unit(unit, exact),
                  HScalar.make(a, exact=exact), zero):
            got = mv.scale(z)
            assert all(type(c) is type(zero.x) for c in got.coords)
            if unit == "j" and not exact:
                assert_float_product(got, mv, rep.scalar(z))
                continue
            for blade in rep.blades:
                assert got.coeffs.get(blade, zero) == z * mv.coeffs.get(blade, zero)


@pytest.mark.parametrize("name", ALL_REPS)
def test_scale_by_a_number_is_the_product_with_its_scalar(name):
    """A plain number scales the stored numbers: exact results equal the
    product with its HScalar, float ones equal it within rounding (bit for
    bit outside the j-reps' null split), and a float zero is +0.0."""
    rep = get_rep(name)
    rng = random.Random(f"scale-number-{name}")
    for k in range(9):
        mv = (sparse_mv, random_mv, real_only_mv)[k % 3](rep, True, rng)
        for q in (Fraction(rng.randint(-6, 6), rng.randint(1, 5)), rng.randint(-3, 3), 0, Fraction(1, 2)):
            got = mv.scale(q)
            assert_canonical(got)
            assert got == mv.scale(HScalar.exact(q))
        flt = negative_zeros(mv.to_float())
        for f in (rng.uniform(-2, 2), -1.0, 0.0, 2, Fraction(1, 3)):
            got, want = flt.scale(f), flt.scale(HScalar.flt(f))
            assert_canonical(got)
            assert (got == want) if rep.adjoined != "j" else got.is_close(want, 1e-14)
            assert all(math.copysign(1.0, c) > 0 for c in got.nums if not c)


def test_scale_checks_subring_and_backends():
    c30bar = get_rep("c30bar")
    exact, flt = c30bar.generator(1), c30bar.generator(1, exact=False)
    with pytest.raises(ValueError, match="outside the c30bar subring"):
        exact.scale(HScalar.unit("i"))
    with pytest.raises(BackendMismatch):
        exact.scale(HScalar.flt(2.0))
    with pytest.raises(BackendMismatch):
        flt.scale(HScalar.exact(2))
    assert not flt.scale(2).is_exact and exact.scale(Fraction(5, 2)).is_exact
    # a float never enters the exact backend, not even through a number
    with pytest.raises(BackendMismatch):
        exact.scale(2.5)
    # a zero of the other backend raises like any other scalar
    for mv, other_zero in ((exact, HScalar.flt()), (flt, HScalar.exact())):
        with pytest.raises(BackendMismatch):
            mv.scale(other_zero)
    float_zero = c30bar.decompose(HMatrix.zeros(2, exact=False))
    with pytest.raises(BackendMismatch):
        float_zero.scale(HScalar.exact(3))


def test_max_abs_keeps_a_nan():
    rep = get_rep("r30")
    coords = [1.0, math.nan] + [0.0] * (len(rep.basis) - 2)
    mv = Multivector._new(rep, coords, None)  # the constructor rejects a NaN
    assert math.isnan(mv.max_abs())
    assert not mv.is_close(rep.decompose(HMatrix.zeros(2, exact=False)), tol=2.0)


def involution_reference(mv, kind):
    """The per-blade involution: each coefficient conjugated for bar and
    hat, then negated when its blade's grade sign is negative."""
    out = {(): HScalar.make(exact=mv.is_exact)}
    for blade, z in mv.coeffs.items():
        c = z.conjugate() if kind in ("bar", "hat") else z
        if involution_sign(kind, len(blade)) < 0:
            c = -c
        out[blade] = c
    return Multivector(mv.rep, out)


def layout_operands(rep, exact, rng):
    """Dense, sparse and zero elements of one backend."""
    zero = Multivector(rep, {(): HScalar.make(exact=exact)})
    return [random_mv(rep, exact, rng), sparse_mv(rep, exact, rng), zero]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", ALL_REPS)
def test_coordinate_layout_matches_per_blade_references(name, exact):
    rep = get_rep(name)
    rng = random.Random(f"layout-{name}-{exact}")
    for _ in range(4):
        for mv in layout_operands(rep, exact, rng):
            backend = Fraction if exact else float
            assert Multivector(rep, {(): HScalar.make(exact=exact), **mv.coeffs}) == mv
            for kind in ("bar", "dagger", "hat"):
                got, want = mv.involution(kind), involution_reference(mv, kind)
                assert got == want
                assert [float(c) for c in got.coords] == [float(c) for c in want.coords]
                assert all(type(c) is backend for c in got.coords)
            if mv.is_exact:
                assert rep.decompose(mv.to_matrix()) == mv


def test_involution_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown involution"):
        get_rep("r30").scalar(0).involution("tilde")


@pytest.mark.parametrize("name", ALL_REPS)
def test_float_zero_keeps_its_backend(name):
    rep = get_rep(name)
    # an empty mapping carries no backend, so a round trip through the
    # coefficients of a zero cannot silently make it exact
    for exact in (True, False):
        with pytest.raises(ValueError, match="exact="):
            Multivector(rep, rep.scalar(0, exact=exact).coeffs)
    zero = rep.decompose(HMatrix.zeros(rep.n, exact=False))
    assert not zero.is_exact
    assert not zero.to_matrix().is_exact
    assert not zero.bar().is_exact and not (-zero).is_exact
    assert not zero.gp_blades(zero).is_exact
    exact_one = rep.scalar(1)
    # a zero operand of the other backend raises, as matmul does
    for a, b in ((zero, exact_one), (exact_one, zero)):
        for op in (a.gp_blades, a.__add__):
            with pytest.raises(BackendMismatch):
                op(b)


def to_matrix_reference(mv):
    """The per-blade matrix sum: each blade's basis matrix scaled by its
    coefficient and added, starting from the zero matrix."""
    rep, exact = mv.rep, mv.is_exact
    acc = HMatrix.zeros(rep.n, exact=exact)
    for blade, z in mv.coeffs.items():
        m = rep._basis_mat[(blade, "1")]
        acc = acc + (m if exact else m.to_float()).scale(z)
    return acc


def decompose_reference(rep, m):
    """The per-element projection: the full real pairing of the matrix
    with every basis matrix, divided by that matrix's own pairing."""
    exact = m.is_exact
    coeffs = {}
    for blade in rep.blades:
        parts = {}
        for unit in rep.units:
            b = rep._basis_mat[(blade, unit)]
            norm = HMatrix.real_pairing(b, b)
            num = HMatrix.real_pairing(b if exact else b.to_float(), m)
            parts[unit] = num / (norm if exact else float(norm))
        zero = parts["1"] - parts["1"]
        coeffs[blade] = HScalar(parts["1"], parts.get("i", zero), parts.get("j", zero), zero)
    return Multivector(rep, coeffs)


def random_matrix(rep, exact, rng):
    """A matrix with every real coordinate random, most of them outside
    the span of the plain representations."""
    def part():
        if exact:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return rng.uniform(-2, 2)

    make = HScalar.exact if exact else HScalar.flt
    return HMatrix([[make(part(), part(), part(), part()) for _ in range(rep.n)] for _ in range(rep.n)])


def assert_same_values(got, want, exact):
    """Equal under ==, and equal float values of the backend's type per
    real coordinate, so that no rounding step may differ."""
    assert got == want
    assert [float(c) for c in got] == [float(c) for c in want]
    assert all(type(c) is (Fraction if exact else float) for c in got)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", ALL_REPS)
def test_matrix_route_matches_per_blade_reference(name, exact):
    rep = get_rep(name)
    rng = random.Random(f"matrix-{name}-{exact}")
    zero = rep.scalar(0, exact=exact)
    assert zero.to_matrix() == to_matrix_reference(zero) == HMatrix.zeros(rep.n, exact=exact)
    assert rep.decompose(HMatrix.zeros(rep.n, exact=exact)) == zero
    for k in range(8):
        make = random_mv if k % 2 else sparse_mv
        u, v = make(rep, exact, rng), make(rep, exact, rng)
        for mv in (u, v.bar(), -u):
            m = mv.to_matrix()
            assert_same_values(m.coords, to_matrix_reference(mv).coords, mv.is_exact)
        for m in (u.to_matrix(), u.to_matrix() @ v.to_matrix(), random_matrix(rep, exact, rng)):
            got, want = rep.decompose(m), decompose_reference(rep, m)
            assert got.coeffs.keys() == want.coeffs.keys()
            for blade, z in want.coeffs.items():
                assert_same_values(got.coeffs[blade].coeffs(), z.coeffs(), m.is_exact)


@pytest.mark.parametrize("name", ALL_REPS)
def test_coord_map_rebuilds_basis_matrices(name):
    rep = get_rep(name)
    assert list(rep._coord_map) == list(rep.basis)
    for key, pairs in rep._coord_map.items():
        assert len(pairs) == rep.n
        coords = [Fraction(0)] * (4 * rep.n * rep.n)
        for idx, sign in pairs:
            assert sign in (1, -1)
            coords[idx] = Fraction(sign)
        assert HMatrix.from_real_coords(coords) == rep._basis_mat[key]


def test_basis_entries_must_be_signed_units():
    # squares to +1 and pairs orthogonally with the identity, but its
    # entries 2 and 1/2 are not units
    from hyperclifford.algebra import AlgebraRep

    skew = HMatrix([[HScalar.exact(0), HScalar.exact(2)], [HScalar.exact(Fraction(1, 2)), HScalar.exact(0)]])
    assert skew @ skew == HMatrix.identity(2)
    with pytest.raises(ValueError):
        AlgebraRep("skew", Signature(1, 0), [skew])


def test_exact_coefficient_below_float_range_survives():
    rep = get_rep("r30")
    tiny = HScalar.exact(Fraction(1, 10**400))
    mv = Multivector(rep, {(): tiny})
    assert mv.coeffs == {(): tiny}
    assert rep.decompose(mv.to_matrix()) == mv
    assert Multivector(rep, {(): HScalar.flt(-0.0), (1,): HScalar.flt(0.0)}).coeffs == {}


def test_blade_mul_parity():
    sig = Signature(3, 0)
    assert blade_mul((1,), (2,), sig) == ((1, 2), 1)
    assert blade_mul((2,), (1,), sig) == ((1, 2), -1)
    assert blade_mul((1,), (1,), sig) == ((), 1)
    assert blade_mul((1, 2), (2, 3), sig) == ((1, 3), 1)


def test_blade_mul_negative_squares():
    sig = Signature(0, 5)
    assert blade_mul((1,), (1,), sig) == ((), -1)
    assert blade_mul((1, 2), (1, 2), sig) == ((), -1)


def test_generator_squares_match_signature():
    r30 = get_rep("r30")
    one = r30.scalar(1)
    assert r30.generator(1).gp_blades(r30.generator(1)) == one
    r05 = get_rep("r05")
    assert r05.generator(1).gp_blades(r05.generator(1)) == -r05.scalar(1)


def test_generators_anticommute_in_matrices():
    for name in ("r30", "r05"):
        rep = get_rep(name)
        for a in range(len(rep.gens)):
            for b in range(a + 1, len(rep.gens)):
                anti = rep.gens[a] @ rep.gens[b] + rep.gens[b] @ rep.gens[a]
                assert anti == HMatrix.zeros(rep.n)


def test_gp_matrix_route_matches_blade_route():
    for name in ("r30", "c30bar", "r05", "h05bar", "c10bar"):
        rep = get_rep(name)
        for _ in range(100):
            u, v = random_mv(rep), random_mv(rep)
            assert u.gp(v).is_close(u.gp_blades(v), 1e-11)


def test_gp_exact_routes_agree_bitwise():
    rep = get_rep("h05bar")
    for _ in range(20):
        u, v = random_mv(rep, exact=True), random_mv(rep, exact=True)
        assert u.gp(v) == u.gp_blades(v)


def test_pseudoscalars():
    r30 = get_rep("r30")
    ij = HMatrix.identity(2).scale(HScalar.unit("ij"))
    assert pseudoscalar(r30).to_matrix() == ij
    r05 = get_rep("r05")
    minus_i = HMatrix.identity(4).scale(-HScalar.unit("i"))
    assert pseudoscalar(r05).to_matrix() == minus_i
    r01 = get_rep("r01")
    assert pseudoscalar(r01).to_matrix() == HMatrix.identity(1).scale(HScalar.unit("i"))


@pytest.mark.parametrize(
    "name,count",
    [("r01", 2), ("r10", 2), ("c10bar", 4), ("r30", 8), ("c30bar", 16), ("r05", 32), ("h05bar", 64)],
)
def test_algebra_dimensions(name, count):
    assert enumerate_algebra(get_rep(name)) == count


_TABLE1 = {"i": (-1, 1, -1), "j": (-1, 1, -1)}
_TABLE2 = {
    "e1": (-1, 1, -1), "e2": (-1, 1, -1), "e3": (-1, 1, -1),
    "sigma1": (1, 1, 1), "sigma2": (1, 1, 1), "sigma3": (1, 1, 1),
    "i": (-1, -1, 1), "j": (-1, 1, -1),
}
_TABLE3_CLASSES = {
    "e": (-1, 1, -1),
    "sigma0": (1, 1, 1),
    "sigmakl": (1, -1, -1),
    "i": (-1, 1, -1),
    "j": (-1, 1, -1),
}


def test_involution_table_one_dimensional():
    for rep_name, unit in (("r10", "j"), ("r01", "i")):
        rows = {r.unit: (r.bar, r.dagger, r.hat) for r in involution_table(rep_name)}
        assert rows[unit] == _TABLE1[unit]


def test_involution_table_three_dimensional():
    rows = {r.unit: (r.bar, r.dagger, r.hat) for r in involution_table("r30") if not r.derived}
    assert rows == _TABLE2
    derived = [r for r in involution_table("r30") if r.derived]
    assert [(r.unit, r.bar, r.dagger, r.hat) for r in derived] == [("ij", 1, -1, -1)]


def test_involution_table_five_dimensional():
    for row in involution_table("r05"):
        if row.derived:
            assert (row.unit, row.bar, row.dagger, row.hat) == ("ij", 1, 1, 1)
            continue
        if row.unit.startswith("sigma0"):
            cls = "sigma0"
        elif row.unit.startswith("sigma"):
            cls = "sigmakl"
        elif row.unit.startswith("e"):
            cls = "e"
        else:
            cls = row.unit
        assert (row.bar, row.dagger, row.hat) == _TABLE3_CLASSES[cls], row


def test_dagger_reverses_two_blade():
    rep = get_rep("r30")
    e12 = rep.blade((1, 2))
    assert e12.dagger() == -e12


def test_involution_product_rules():
    for name in ("r30", "h05bar"):
        rep = get_rep(name)
        for _ in range(50):
            u, v = random_mv(rep), random_mv(rep)
            uv = u.gp_blades(v)
            assert uv.dagger().is_close(v.dagger().gp_blades(u.dagger()), 1e-12)
            assert uv.hat().is_close(u.hat().gp_blades(v.hat()), 1e-12)
            assert uv.bar().is_close(v.bar().gp_blades(u.bar()), 1e-12)


def test_bar_is_hat_then_dagger():
    for name in ("r01", "r10", "c10bar", "r30", "c30bar", "r05", "h05bar"):
        rep = get_rep(name)
        for _ in range(20):
            u = random_mv(rep, exact=True)
            assert u.bar() == u.hat().dagger()
            assert u.bar() == u.dagger().hat()


def test_bar_equals_matrix_adjoint():
    for name in ALL_REPS:
        rep = get_rep(name)
        for _ in range(20):
            u = random_mv(rep, exact=True)
            assert u.bar().to_matrix() == u.to_matrix().adjoint()


def test_decompose_recovers_bivector():
    # i sigma_3 (2x2) is the blade e1 e2
    rep = get_rep("r30")
    m = pauli2(3).scale(HScalar.unit("i"))
    mv = rep.decompose(m)
    assert mv == rep.blade((1, 2))


def test_decompose_roundtrip():
    for name in ("r30", "h05bar"):
        rep = get_rep(name)
        for _ in range(50):
            u = random_mv(rep)
            again = rep.decompose(u.to_matrix())
            assert again.is_close(u, 1e-12)


def test_decompose_identity():
    rep = get_rep("r05")
    assert rep.decompose(HMatrix.identity(4)) == rep.scalar(1)


def test_porteous_2x2():
    idm = HMatrix.identity(2)
    assert porteous_conjugate_2x2(idm) == idm
    for k in (1, 2, 3):
        assert porteous_conjugate_2x2(pauli2(k)) == -pauli2(k)


def test_porteous_4x4_against_grade_rules():
    rep = get_rep("r05")
    for _ in range(25):
        u = random_mv(rep, exact=True)
        m = u.to_matrix()
        assert porteous_dagger_4x4(m) == u.dagger().to_matrix()
        assert porteous_hat_4x4(m) == u.hat().to_matrix()
        assert porteous_dagger_4x4(porteous_hat_4x4(m)) == m.adjoint()


def test_porteous_4x4_fixes_identity():
    idm = HMatrix.identity(4)
    assert porteous_dagger_4x4(idm) == idm
    assert porteous_hat_4x4(idm) == idm


def test_porteous_on_generator_images():
    rep = get_rep("r05")
    e1 = rep.gens[0]
    assert porteous_dagger_4x4(e1) == e1
    assert porteous_hat_4x4(e1) == -e1


@pytest.mark.parametrize("name", ["c10bar", "c30bar", "h05bar"])
def test_matrix_dagger_is_the_multivector_dagger(name):
    # every matrix of a full-ring representation is an element, and its
    # reversion is a signed permutation of the real matrix coordinates
    rep, rng = get_rep(name), random.Random(23)
    assert len(rep.basis) == 4 * rep.n * rep.n
    for exact in (True, False):
        for _ in range(20):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if exact else rng.uniform(-3.0, 3.0)
                      for _ in range(4 * rep.n * rep.n)]
            m = HMatrix.from_real_coords(coords)
            got, want = rep.dagger_matrix(m), rep.decompose(m).dagger().to_matrix()
            assert got.is_exact == exact and rep.dagger_matrix(got) == m
            if exact:
                assert got == want
            else:
                assert got.is_close(want, 1e-15 * (1.0 + m.max_abs()))
            if name == "h05bar":
                assert got == porteous_dagger_4x4(m)


@pytest.mark.parametrize("name", ["r01", "r10", "r30", "r05"])
def test_matrix_dagger_needs_a_full_ring_representation(name):
    rep = get_rep(name)
    with pytest.raises(ValueError, match="not a signed permutation"):
        rep.dagger_matrix(HMatrix.identity(rep.n))


def test_even_subalgebra_r05():
    rep = get_rep("r05")
    basis, count = even_subalgebra(rep)
    assert count == 16
    assert all(len(b) % 2 == 0 for mv in basis for b in mv.coeffs)
    for a in basis:
        for b in basis:
            prod = a.gp_blades(b)
            assert prod.hat() == prod


def test_quaternion_subalgebra():
    q = [pauli2(k).scale(HScalar.unit("i")) for k in (1, 2, 3)]
    idm = HMatrix.identity(2)
    for qk in q:
        assert qk @ qk == -idm
    assert q[0] @ q[1] @ q[2] == idm


def test_coefficient_subring_enforced():
    rep = get_rep("r30")
    with pytest.raises(ValueError):
        Multivector(rep, {(): HScalar.unit("i")})
    c30 = get_rep("c30bar")
    with pytest.raises(ValueError):
        Multivector(c30, {(): HScalar.unit("i")})
    Multivector(c30, {(): HScalar.unit("j")})  # allowed


def test_rep_mismatch_rejected():
    u = get_rep("r30").scalar(1)
    v = get_rep("r05").scalar(1)
    with pytest.raises(ValueError):
        u.gp_blades(v)


def test_degenerate_basis_rejected():
    # adjoining j to the hyperbolic generator duplicates a basis element
    from hyperclifford.algebra import AlgebraRep, NonOrthogonalBasis

    gen = HMatrix([[HScalar.unit("j")]])
    with pytest.raises(NonOrthogonalBasis):
        AlgebraRep("bad", Signature(1, 0), [gen], adjoined="j")


# -- the exact integer form against per-coordinate Fraction references ---------


@settings(max_examples=15, deadline=None)
@given(data=st.data(), name=st.sampled_from(ALL_REPS))
def test_exact_blade_operations_match_per_coordinate_fractions(data, name):
    """involution, to_matrix, decompose, gp_blades, scale, sums, == and hash
    of the integer form against the drawn Fraction coordinates, each
    result stored canonically."""
    rep = get_rep(name)
    w = len(rep.units)

    def draw(size):
        return data.draw(st.lists(exact_coordinates, min_size=size, max_size=size))

    cu, cv, cm, cz = draw(len(rep.basis)), draw(len(rep.basis)), draw(4 * rep.n * rep.n), draw(w)
    u, v = from_coords(rep, cu), from_coords(rep, cv)

    def check(got, want):
        assert_canonical(got)
        assert got.coords == tuple(want)

    check(u, cu)
    check(u + v, [x + y for x, y in zip(cu, cv)])
    back = (u + v) - v
    check(back, cu)
    assert back == u and hash(back) == hash(u)
    # each coordinate takes its basis element's sign
    for kind in ("bar", "dagger", "hat"):
        signs = [involution_sign(kind, len(b)) * (1 if unit == "1" or kind == "dagger" else -1)
                 for b, unit in rep.basis]
        check(u.involution(kind), [s * c for s, c in zip(signs, cu)])
    # the coordinates times their basis matrices, summed
    basis = [rep._basis_mat[key].coords for key in rep.basis]
    check(u.to_matrix(), [sum(col) for col in zip(*([c * x for x in b] for c, b in zip(cu, basis)))])
    # each basis matrix's pairing with the matrix over its own pairing
    check(rep.decompose(HMatrix.from_real_coords(cm)),
          [sum(map(mul, b, cm)) / sum(map(mul, b, b)) for b in basis])
    check(u.gp_blades(v), gp_blades_reference(u, v).coords)
    # the scalar times each blade's coefficient
    z = rep._coeff(cz)
    check(u.scale(z), [(z * rep._coeff(cu[k:k + w])).coeffs()[s] for k in range(0, len(cu), w) for s in rep._spots])
