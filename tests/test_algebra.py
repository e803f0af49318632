"""Representations, geometric product, involutions, dimension counts."""

import copy
import math
import random
import re
from fractions import Fraction
from functools import cache, partial
from itertools import product
from operator import mul, neg
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hyperclifford.algebra import (
    AlgebraRep,
    Multivector,
    NonOrthogonalBasis,
    Signature,
    _BLOCK,
    _CONJUGATE_SRC,
    _DAGGER_SRC,
    _HAT_SRC,
    _Kernel,
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


def gp_blades_loop(u, v):
    """The pair loop over ``rep._product`` that gp_blades ran before its
    straight-line kernels, kept as their oracle: one term per pair of
    non-zero terms, summed per output in pair order; a j-rep takes each
    blade ``a + b j`` as its null pair, halving the left one (floats) or
    doubling the denominator (exact) for the join ``(P + M, P - M)``."""
    rep, exact = u.rep, u.is_exact
    zero, split = 0 if exact else 0.0, rep.adjoined == "j"

    def terms(c):
        if split:
            return [(k, a + b, a - b) for k, (a, b) in enumerate(zip(c[0::2], c[1::2])) if a or b]
        return [(k, x) for k, x in enumerate(c) if x]

    lhs, rhs, out = terms(u.nums), terms(v.nums), [zero] * len(u.nums)
    den = u.den * v.den if exact else None
    if split:
        P, M, h = out[0::2], out[1::2], 1 if exact else 0.5
        if exact:
            den *= 2
        for k1, p1, m1 in lhs:
            row, p1, m1 = rep._product[k1], p1 * h, m1 * h
            for k2, p2, m2 in rhs:
                k, sign = row[k2]
                if sign > 0:
                    P[k] += p1 * p2
                    M[k] += m1 * m2
                else:
                    P[k] -= p1 * p2
                    M[k] -= m1 * m2
        out[0::2], out[1::2] = [p + m for p, m in zip(P, M)], [p - m for p, m in zip(P, M)]
    else:
        for k1, x1 in lhs:
            row = rep._product[k1]
            for k2, x2 in rhs:
                k, sign = row[k2]
                if sign > 0:
                    out[k] += x1 * x2
                else:
                    out[k] -= x1 * x2
    return Multivector._new(rep, out, den)


def kernel_operand(rep, exact, density, rng):
    """Stored numbers of an element, each coordinate non-zero with
    probability ``density``: floats of magnitude 1e-300 to 1e300, the zeros
    +0.0 or -0.0; exact, int numerators of up to 40 digits over a
    denominator of up to 12 digits."""
    if exact:
        nums = [rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 40)) if rng.random() < density else 0
                for _ in rep.basis]
        return Multivector._new(rep, nums, rng.randint(1, 10**12))
    nums = [rng.choice((-1.0, 1.0)) * rng.random() * 10.0**rng.randint(-300, 300) if rng.random() < density
            else rng.choice((0.0, -0.0)) for _ in rep.basis]
    return Multivector._new(rep, nums, None)


def block_edge_operands(rep, exact, rng) -> list:
    """Stored numbers at the edges of the kernel's blocks of ``_BLOCK`` table
    rows (two coordinates per row on a j-rep), the others drawn dense as in
    :func:`kernel_operand`: non-zero coordinates in one block only; every
    other block zero; live blocks whose coordinates but the first, or but
    the last, are zero (+0.0 or -0.0 on floats); and on a j-rep, blades
    ``a + b j`` with ``b = a`` or ``b = -a``, so one null sum is zero."""
    width = 2 if rep.adjoined == "j" else 1
    size, blocks = _BLOCK * width, -(-len(rep._product) // _BLOCK)

    def keep(live):
        nums = kernel_operand(rep, exact, 1.0, rng).nums
        return [x if live(k) else 0 if exact else rng.choice((0.0, -0.0)) for k, x in enumerate(nums)]

    cases = [keep(lambda k, b=b: k // size == b) for b in range(blocks)]
    cases += [keep(lambda k: k // size % 2 == 0), keep(lambda k: k % size == 0), keep(lambda k: k % size == size - 1)]
    if width == 2:
        for c in (kernel_operand(rep, exact, density, rng).nums for density in (0.3, 1.0)):
            cases.append([c[k - 1] * rng.choice((1, -1)) if k % 2 else x for k, x in enumerate(c)])
    return cases


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", ALL_REPS)
def test_gp_blades_kernel_is_the_pair_loop(name, exact):
    """The straight-line kernels give what the pair loop gave: floats bit
    for bit, zero signs, overflows and underflows included; exact results
    as the same numerators over the same denominator.  Random draws, then
    operands at the edges of the kernel's blocks on either side."""
    rep = get_rep(name)
    rng = random.Random(f"kernel-loop-{name}-{exact}")
    pairs = [[kernel_operand(rep, exact, density, rng) for _ in range(2)]
             for density in (0.05, 0.3, 0.7, 1.0) for _ in range(150)]
    edges = [Multivector._new(rep, nums, rng.randint(1, 10**12) if exact else None)
             for nums in block_edge_operands(rep, exact, rng)]
    dense = kernel_operand(rep, exact, 1.0, rng)
    pairs += [pair for u in edges for pair in ((u, dense), (dense, u), (u, u))]
    pairs += list(zip(edges, edges[1:]))
    for u, v in pairs:
        got, want = u.gp_blades(v), gp_blades_loop(u, v)
        if exact:
            assert (got.nums, got.den) == (want.nums, want.den)
        else:
            assert list(map(float.hex, got.nums)) == list(map(float.hex, want.nums))


def test_one_kernel_per_blade_table_compiled_on_first_use():
    # representations of one signature share its blade table and its kernel
    assert get_rep("r30")._product is get_rep("c30bar")._product
    assert get_rep("r05")._product is get_rep("h05bar")._product
    # 32 rows of 32 products: nothing compiled until the first product, then one function
    rows = get_rep("r05")._product
    kernel = _Kernel(rows)
    assert vars(kernel) == {}
    a, b = [0] * 32, list(range(1, 33))
    a[5] = 3
    want = [0] * 32
    for k2, (k, sign) in enumerate(rows[5]):
        want[k] += sign * 3 * b[k2]
    assert kernel.product(a, b, 0) == want
    assert list(vars(kernel)) == ["product"]
    # the null split and join are compiled by the first j-rep product
    shared, rep = get_rep("h05bar"), copy.copy(get_rep("h05bar"))
    rep._product = kernel
    u, v = ([k % 7 - 3 for k in range(64)], [(-1) ** k * k for k in range(64)])
    got = Multivector._new(rep, u, 1).gp_blades(Multivector._new(rep, v, 1))
    assert got.nums == Multivector._new(shared, u, 1).gp_blades(Multivector._new(shared, v, 1)).nums
    assert list(vars(kernel)) == ["product", "joined"]


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
    """The per-blade involution on the stored coordinates: each blade's
    coefficient conjugated for bar and hat, then negated when its blade's
    grade sign is negative.  A zero part is kept as it is, so a float +0.0
    stays +0.0 and a -0.0 stays -0.0."""
    rep, nums = mv.rep, list(mv.nums)
    for blade in rep.blades:
        for d, unit in enumerate(rep.units):
            z = HScalar.unit(unit)
            z = z.conjugate() if kind in ("bar", "hat") else z
            k = rep._offset[blade] + d  # z is +-unit, so its parts sum to its sign
            if involution_sign(kind, len(blade)) * sum(z.coeffs()) < 0 and nums[k]:
                nums[k] = -nums[k]
    return Multivector._new(rep, nums, mv.den)


def involution_comprehension(mv, kind):
    """The involution as one sign per coordinate, the comprehension that ran
    before the sign map, kept as its oracle: floats negated where the sign
    is -1 and the number is not zero, exact numerators multiplied by their
    signs and reduced by ``_new``."""
    rep = mv.rep
    signs = [involution_sign(kind, len(b)) * (1 if u == "1" or kind == "dagger" else -1) for b, u in rep.basis]
    if mv.is_exact:
        return Multivector._new(rep, list(map(mul, mv.nums, signs)), mv.den)
    return Multivector._new(rep, [-c if s < 0 and c else c for c, s in zip(mv.nums, signs)], None)


def signed_zeros(mv, rng):
    """The float element with each zero coordinate of ``mv`` stored as +0.0
    or -0.0 at random."""
    return Multivector._new(mv.rep, [c if c else rng.choice((0.0, -0.0)) for c in mv.nums], None)


def layout_operands(rep, exact, rng):
    """Dense, sparse and zero elements of one backend; on floats also the
    sparse and zero ones with zeros stored as -0.0 and as a mix of both."""
    zero = Multivector(rep, {(): HScalar.make(exact=exact)})
    operands = [random_mv(rep, exact, rng), sparse_mv(rep, exact, rng), zero]
    if not exact:
        operands += [f(mv) for mv in operands[1:] for f in (negative_zeros, partial(signed_zeros, rng=rng))]
    return operands


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
                assert list(map(float.hex, map(float, got.coords))) == list(map(float.hex, map(float, want.coords)))
                assert all(type(c) is backend for c in got.coords)
            if mv.is_exact:
                assert rep.decompose(mv.to_matrix()) == mv


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", ALL_REPS)
def test_involution_is_the_per_coordinate_comprehension(name, exact):
    rep = get_rep(name)
    rng = random.Random(f"sign-map-{name}-{exact}")
    for _ in range(4):
        for mv in layout_operands(rep, exact, rng):
            for kind in ("bar", "dagger", "hat"):
                got, want = mv.involution(kind), involution_comprehension(mv, kind)
                assert_canonical(got)
                assert got.rep is rep and got.den == want.den
                if exact:
                    assert got.nums == want.nums
                else:
                    assert list(map(float.hex, got.nums)) == list(map(float.hex, want.nums))


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


def test_matrix_dagger_rejects_another_size():
    # the sign map keeps its operand's size, so a 2x2 matrix would come back
    # as a 2x2 matrix of four coordinates
    for name, other in (("c10bar", 2), ("c30bar", 4), ("h05bar", 2)):
        with pytest.raises(ValueError, match=f"takes .* matrices, not {other}x{other}"):
            get_rep(name).dagger_matrix(HMatrix.identity(other))


@pytest.mark.parametrize("name", ["r01", "r10", "r30", "r05"])
def test_matrix_dagger_needs_a_full_ring_representation(name):
    rep = get_rep(name)
    with pytest.raises(ValueError, match="not a signed permutation"):
        rep.dagger_matrix(HMatrix.identity(rep.n))


def permute_reference(a, table, conjugate_entries=False):
    """The signed entry permutation as the entry loop that ran before the sign
    map, kept as its oracle: each entry read from its source, its i and j
    parts negated for conjugation, then the whole entry negated by a sign -1,
    a zero included; exact numerators reduced by ``_new``."""
    n, coords, out = len(table), a.nums, []
    for line in table:
        for sr, sc, sign in line:
            k = 4 * (n * (sr - 1) + sc - 1)
            x, y, v, w = coords[k:k + 4]
            if conjugate_entries:
                y, v = -y, -v
            out += (-x, -y, -v, -w) if sign < 0 else (x, y, v, w)
    return HMatrix._new(n, out, a.den)


def dagger_comprehension(rep, m):
    """``dagger_matrix`` as the comprehension that ran before the sign map,
    kept as its oracle: ``0 - x`` where the sign is -1 (a zero made +0.0),
    exact numerators reduced by ``_new``."""
    flips, order = rep._dagger_perm
    c = m.nums
    return HMatrix._new(rep.n, [0 - c[k] if dst in flips else c[k] for dst, k in enumerate(order)], m.den)


def negation_comprehension(value):
    """``-x`` as the comprehension through ``_new`` that ran before the sign
    map, kept as its oracle."""
    return value._new(getattr(value, value._shape), [-c if c else c for c in value.nums], value.den)


def entry_maps(rep):
    """The fixed signed maps of matrix coordinates that apply to a rep's
    matrices, each with its oracle."""
    maps = [(rep.dagger_matrix, partial(dagger_comprehension, rep)), (neg, negation_comprehension)]
    if rep.n == 2:
        maps.append((porteous_conjugate_2x2, partial(permute_reference, table=_CONJUGATE_SRC)))
    if rep.n == 4:
        maps += [(porteous_dagger_4x4, partial(permute_reference, table=_DAGGER_SRC)),
                 (porteous_hat_4x4, partial(permute_reference, table=_HAT_SRC, conjugate_entries=True))]
    return maps


def sources(f, n):
    """The source coordinate of each output coordinate of the signed map
    ``f``, read off its image of the exact matrix of coordinates 1 .. 4n^2."""
    return [abs(x) - 1 for x in f(HMatrix._new(n, range(1, 4 * n * n + 1), 1)).nums]


def signed_zero_matrix(n, rng):
    """A float matrix of +0.0, -0.0 and other parts at random."""
    return HMatrix._new(n, [rng.choice((0.0, -0.0, rng.uniform(-2, 2))) for _ in range(4 * n * n)], None)


def assert_zeros_keep_their_sign(f, n, rng):
    """Each zero part of the signed map ``f``'s image of random matrices with
    signed zeros is its source part, to the bit."""
    src = sources(f, n)
    for _ in range(20):
        m = signed_zero_matrix(n, rng)
        got = f(m).nums
        zeros = [k for k, c in enumerate(got) if not c]
        assert [got[k].hex() for k in zeros] == [m.nums[src[k]].hex() for k in zeros]


def test_porteous_maps_keep_the_sign_of_every_zero():
    # the entry loop negated whole entries, so the identity's +0.0 parts
    # came back -0.0; a sign map negates non-zero parts only
    rng = random.Random(40)
    for f, n in ((porteous_conjugate_2x2, 2), (porteous_dagger_4x4, 4), (porteous_hat_4x4, 4)):
        assert list(map(float.hex, f(HMatrix.identity(n, exact=False)).nums)) == \
            list(map(float.hex, HMatrix.identity(n, exact=False).nums))
        assert_zeros_keep_their_sign(f, n, rng)


def test_porteous_maps_reject_another_size():
    for f, other in ((porteous_conjugate_2x2, 4), (porteous_dagger_4x4, 2), (porteous_hat_4x4, 1)):
        with pytest.raises(ValueError, match="expects a [24]x[24] matrix"):
            f(HMatrix.identity(other))


@pytest.mark.parametrize("name", ["c30bar", "h05bar"])
def test_matrix_dagger_keeps_the_sign_of_every_zero(name):
    # 0 - x made every negated zero +0.0, a -0.0 included
    rep = get_rep(name)
    assert_zeros_keep_their_sign(rep.dagger_matrix, rep.n, random.Random(f"dagger-zeros-{name}"))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", ["c10bar", "c30bar", "h05bar"])
def test_signed_entry_maps_are_their_loops(name, exact):
    # dagger_matrix, -x and the Porteous maps equal the loops they replaced
    # bit for bit on every non-zero part; exact results are canonical and
    # the numerators and denominator the loops built through _new
    rep, rng = get_rep(name), random.Random(f"entry-maps-{name}-{exact}")
    mats = [random_mv(rep, exact, rng).to_matrix(), sparse_mv(rep, exact, rng).to_matrix(),
            HMatrix.zeros(rep.n, exact=exact)]
    if not exact:
        mats += [signed_zero_matrix(rep.n, rng) for _ in range(4)]
    for m in mats:
        for f, reference in entry_maps(rep):
            got, want = f(m), reference(m)
            assert_canonical(got)
            assert got.n == want.n == m.n and got.den == want.den
            if exact:
                assert got.nums == want.nums
            else:
                assert [x.hex() if x else None for x in got.nums] == [x.hex() if x else None for x in want.nums]


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
    gen = HMatrix([[HScalar.unit("j")]])
    with pytest.raises(NonOrthogonalBasis):
        AlgebraRep("bad", Signature(1, 0), [gen], adjoined="j")


def _pairwise_orthogonality(rep):
    """The check as it was, every pair of basis elements in order: the oracle."""
    keys = list(rep.basis)
    sparse = {k: dict(rep._coord_map[k]) for k in keys}
    for a in range(len(keys)):
        va = sparse[keys[a]]
        for b in range(a + 1, len(keys)):
            vb = sparse[keys[b]]
            if sum(c * vb[idx] for idx, c in va.items() if idx in vb) != 0:
                raise NonOrthogonalBasis(f"basis elements {keys[a]} and {keys[b]} are not pairing-orthogonal")


def _refusal(check, basis, table):
    """The message with which ``check`` refuses the coordinate table, or None."""
    try:
        check(SimpleNamespace(basis=basis, _coord_map=table))
    except NonOrthogonalBasis as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ALL_REPS)
def test_a_non_orthogonal_basis_is_refused_at_the_pairwise_loops_first_pair(name):
    """Every table of the package passes both checks (in c30bar, r05 and
    h05bar a real coordinate lies under several elements, whose pairings
    cancel).  Then coordinates of one element are put onto another, and
    both name the same first pair in the same message."""
    rep, rng = get_rep(name), random.Random(name)
    basis, table = rep.basis, rep._coord_map
    assert _refusal(AlgebraRep._validate_orthogonality, basis, table) is None
    assert _refusal(_pairwise_orthogonality, basis, table) is None
    refused = 0
    for _ in range(20):
        bad = dict(table)
        for _ in range(rng.randint(1, 3)):
            target, source = rng.sample(basis, 2)
            pairs = dict(bad[target])
            pairs.update(rng.sample(table[source], rng.randint(1, len(table[source]))))
            bad[target] = tuple(sorted(pairs.items()))
        want = _refusal(_pairwise_orthogonality, basis, bad)
        assert _refusal(AlgebraRep._validate_orthogonality, basis, bad) == want
        refused += want is not None
    assert refused >= 10


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
