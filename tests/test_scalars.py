"""Scalar ring: unit table, conjugation, quadratic form, exponentials,
null basis."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperclifford.algebra import Multivector, get_rep
from hyperclifford.matrices import HMatrix
from hyperclifford.paravectors import Paravector, get_space
from hyperclifford.rotors import RotorParams
from hyperclifford.scalars import (
    BackendMismatch,
    HScalar,
    ZeroDivisor,
    from_null_coords,
    to_null_coords,
    trig_tilde,
)

ONE = HScalar.exact(1)
I = HScalar.unit("i")
J = HScalar.unit("j")
IJ = HScalar.unit("ij")


def exact(x=0, y=0, v=0, w=0):
    return HScalar.exact(x, y, v, w)


small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
exact_scalars = st.builds(
    HScalar.exact, small_fractions, small_fractions, small_fractions, small_fractions
)


def test_unit_multiplication_table():
    assert I * I == -ONE
    assert J * J == ONE
    assert IJ * IJ == -ONE
    assert I * J == IJ
    assert J * I == IJ
    assert I * IJ == -J
    assert J * IJ == I


def test_idempotents():
    e = exact(Fraction(1, 2), 0, Fraction(1, 2))
    ebar = exact(Fraction(1, 2), 0, Fraction(-1, 2))
    assert e * e == e
    assert ebar * ebar == ebar
    assert e * ebar == exact(0)


def test_conjugate_examples():
    assert I.conjugate() == -I
    assert (exact(3, 0, 5)).conjugate() == exact(3, 0, -5)
    assert IJ.conjugate() == IJ
    z = exact(1, 2, 3, 4)
    assert z.conjugate().conjugate() == z


def test_qform_examples():
    assert exact(3, 0, 2).qform() == exact(5)
    assert exact(1, 0, 1).qform() == exact(0)


@given(exact_scalars)
def test_qform_closed_formula(z):
    x, y, v, w = z.coeffs()
    want = HScalar.exact(x * x + y * y - v * v - w * w, 0, 0, 2 * (x * w - y * v))
    assert z.qform() == want


@given(exact_scalars, exact_scalars)
def test_qform_multiplicative(z1, z2):
    assert (z1 * z2).qform() == z1.qform() * z2.qform()


@given(exact_scalars, exact_scalars)
def test_conjugate_is_ring_automorphism(z1, z2):
    assert (z1 * z2).conjugate() == z1.conjugate() * z2.conjugate()
    assert (z1 + z2).conjugate() == z1.conjugate() + z2.conjugate()


def test_ring_axioms_exact_thousand_triples():
    rng = random.Random(1)

    def rand():
        return HScalar.exact(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_ring_axioms_float_tolerance():
    rng = random.Random(2)

    def rand():
        return HScalar.flt(*(rng.uniform(-3, 3) for _ in range(4)))

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        scale = max(a.max_abs() * b.max_abs() * c.max_abs(), 1.0)
        assert ((a * b) * c - a * (b * c)).max_abs() <= 1e-12 * scale
        assert (a * (b + c) - (a * b + a * c)).max_abs() <= 1e-12 * scale


def fraction_product(a, b):
    """The exact product on the Fraction parts themselves: the oracle of the
    int-numerator multiply."""
    x1, y1, v1, w1 = a.coeffs()
    x2, y2, v2, w2 = b.coeffs()
    return (
        x1 * x2 - y1 * y2 + v1 * v2 - w1 * w2,
        x1 * y2 + y1 * x2 + v1 * w2 + w1 * v2,
        x1 * v2 + v1 * x2 - y1 * w2 - w1 * y2,
        x1 * w2 + w1 * x2 + y1 * v2 + v1 * y2,
    )


def test_exact_product_matches_the_fraction_formula():
    rng = random.Random(13)
    big = 10**30

    def part(top, dens):
        return Fraction(rng.randint(-top, top), rng.randint(1, dens))

    cases = [
        (exact(), exact(1, 2, 3, 4)),  # zero
        (exact(0, 0, 0, 0), exact()),
        (HScalar(1, -2, 3, 0), HScalar(Fraction(1, 3), 5, 0, 7)),  # int parts, unchecked
        (exact(Fraction(1, 2), Fraction(-1, 3)), exact(Fraction(5, 7), 2)),  # complex subring
        (exact(big - 1, 0, Fraction(big + 3, big - 7)), exact(Fraction(-big, 3), Fraction(1, big + 1), 0, big)),
    ]
    for _ in range(300):  # mixed denominators, complex-subring operands among them
        a = exact(part(9, 7), part(9, 7), part(9, 7), part(9, 7))
        b = exact(part(9, 5), part(9, 5))
        cases += [(a, b), (b, a), (b, b), (a, a)]
    for _ in range(50):  # numerators near 10**30
        cases.append((exact(*(part(big, big) for _ in range(4))), exact(*(part(big, 3) for _ in range(4)))))
    for a, b in cases:
        got, want = (a * b).coeffs(), fraction_product(a, b)
        assert got == want
        # reduced Fractions, each the oracle's own numerator and denominator
        assert all(type(c) is Fraction for c in got)
        assert [(c.numerator, c.denominator) for c in got] == [(c.numerator, c.denominator) for c in map(Fraction, want)]
    assert HScalar.__rmul__ is HScalar.__mul__


def test_backend_mismatch_raises():
    with pytest.raises(BackendMismatch):
        HScalar.exact(1) * HScalar.flt(1.0)
    with pytest.raises(BackendMismatch):
        HScalar.exact(1) + 0.5
    # a float component never enters the exact backend, in any position
    for k in range(4):
        with pytest.raises(BackendMismatch):
            HScalar.exact(*[0.1 if j == k else 0 for j in range(4)])
    # ring operations take only an HScalar of their backend, never a number
    for z in (HScalar.exact(1, 2), HScalar.flt(1.0, 2.0)):
        for number in (0, 2, Fraction(1, 2), 0.5):
            for op in (z.__add__, z.__radd__, z.__sub__, z.__mul__, z.__rmul__):
                with pytest.raises(BackendMismatch, match="cannot combine"):
                    op(number)
            with pytest.raises(TypeError):
                number - z


def test_equal_values_of_two_backends_are_unequal():
    for v in (0, 1, Fraction(-3, 4)):
        a, b = HScalar.exact(v, 0, v), HScalar.flt(v, 0, v)
        assert a != b and b != a
        assert b == a.to_float()


def test_invert_examples():
    assert exact(2).invert() == exact(Fraction(1, 2))
    assert J.invert() == J
    with pytest.raises(ZeroDivisor):
        exact(1, 0, 1).invert()


@given(exact_scalars)
def test_invert_roundtrip(z):
    if z.modulus() == 0:
        with pytest.raises(ZeroDivisor):
            z.invert()
    else:
        assert z * z.invert() == ONE


def test_float_invert_is_the_conjugate_over_the_quadratic_form():
    rng = random.Random(11)
    for _ in range(200):
        z = HScalar.flt(*(rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(3)), rng.uniform(1, 3))
        q = z.qform()
        n = q.x * q.x + q.w * q.w
        want = z.conjugate() * HScalar(q.x / n, 0.0, 0.0, -q.w / n)
        assert [c.hex() for c in z.invert().coeffs()] == [c.hex() for c in want.coeffs()]
        assert n == z.modulus()


def test_float_zero_divisor_threshold():
    near_null = HScalar.flt(1.0, 0.0, 1.0 + 1e-14, 0.0)
    with pytest.raises(ZeroDivisor):
        near_null.invert()


@pytest.mark.parametrize(
    "z",
    [
        # the raw constructor: HScalar.flt rejects NaN components
        HScalar(float("nan"), 0.0, 0.0, 0.0),
        HScalar(1.0, float("nan"), 0.0, 0.0),
        HScalar(0.0, 0.0, 0.0, float("nan")),
        HScalar.flt(1e200, 0.0, 1e200),  # the quadratic form overflows to inf - inf
    ],
    ids=["nan-real", "nan-i", "nan-ij", "overflow"],
)
def test_invert_rejects_nan_modulus(z):
    with pytest.raises(ValueError, match="NaN"):
        z.invert()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("spot", range(4), ids=["x", "y", "v", "w"])
def test_float_scalars_reject_non_finite_components(spot, value):
    comps = [1.0, 0.0, 0.0, 0.0]
    comps[spot] = value
    with pytest.raises(ValueError, match=f"HScalar coordinate {spot} is not finite"):
        HScalar.flt(*comps)
    with pytest.raises(ValueError, match=f"HScalar coordinate {spot} is not finite"):
        HScalar.make(*comps, exact=False)


def test_exp_hyperbolic_angle():
    theta = 0.83
    g = HScalar.flt(0, 0, theta).exp()
    assert abs(g.x - math.cosh(theta)) < 1e-15
    assert abs(g.v - math.sinh(theta)) < 1e-15
    assert abs(g.y) == 0.0 and abs(g.w) == 0.0


def test_exp_special_values():
    assert HScalar.flt(0).exp().is_close(HScalar.flt(1), 1e-15)
    quarter = HScalar.flt(0, math.pi / 2).exp()
    assert quarter.is_close(HScalar.flt(0, 1), 1e-15)


def test_exp_overflow():
    with pytest.raises(OverflowError):
        HScalar.flt(1e9).exp()
    with pytest.raises(OverflowError):
        HScalar.flt(0, 0, 1e9).exp()


def test_exp_is_additive():
    rng = random.Random(3)
    for _ in range(100):
        a = HScalar.flt(*(rng.uniform(-1, 1) for _ in range(4)))
        b = HScalar.flt(*(rng.uniform(-1, 1) for _ in range(4)))
        lhs = (a + b).exp()
        rhs = a.exp() * b.exp()
        assert (lhs - rhs).max_abs() < 1e-12


def test_trig_tilde_reductions():
    c, s = trig_tilde(0.7, 0.0)
    assert abs(c.x - math.cos(0.7)) < 1e-15 and c.w == 0.0
    assert abs(s.x - math.sin(0.7)) < 1e-15 and s.w == 0.0
    c, s = trig_tilde(0.0, 1.1)
    assert abs(c.x - math.cosh(1.1)) < 1e-15 and c.w == 0.0
    assert s.x == 0.0 and abs(s.w - math.sinh(1.1)) < 1e-15


def test_trig_tilde_pythagoras():
    rng = random.Random(4)
    for _ in range(200):
        c, s = trig_tilde(rng.uniform(-4, 4), rng.uniform(-3, 3))
        total = c * c + s * s
        assert (total - HScalar.flt(1)).max_abs() < 1e-12


def null(z):
    """The two null components of one scalar, as (real, imaginary) pairs."""
    return to_null_coords(z.coeffs())


def null_mul(p, q):
    """Componentwise product of two null pairs: one complex product each."""
    return tuple([a * c - b * d, a * d + b * c] for (a, b), (c, d) in zip(p, q))


def test_to_null_hyperbolic_coordinates():
    plus, minus = null(exact(5, 0, 3))
    assert plus == [8, 0] and minus == [2, 0]
    assert all(type(c) is Fraction for c in plus + minus)


def test_null_conjugation_is_swap():
    rng = random.Random(5)
    for _ in range(1000):
        z = exact(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0,
                  Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0)
        assert null(z.conjugate()) == null(z)[::-1]
        assert from_null_coords(*null(z)) == list(z.coeffs())


def test_null_product_law():
    rng = random.Random(6)
    for _ in range(1000):
        z1 = exact(rng.randint(-9, 9), 0, rng.randint(-9, 9), 0)
        z2 = exact(rng.randint(-9, 9), 0, rng.randint(-9, 9), 0)
        assert null(z1 * z2) == null_mul(null(z1), null(z2))


def test_null_product_law_full_ring():
    # products whose factors have i or ij parts can still be real, and the
    # product of the pairs must say so as the split does
    rng = random.Random(8)
    pairs = [(I, I), (IJ, IJ), (I, IJ)]
    for _ in range(500):
        z1 = exact(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)))
        z2 = exact(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)))
        pairs.append((z1, z2))
    for z1, z2 in pairs:
        assert null(z1 * z2) == null_mul(null(z1), null(z2))
    for z in (I, IJ):
        assert all(im == 0 for _, im in null_mul(null(z), null(z)))


def test_null_full_ring_uses_conjugated_swap():
    # with complex components conjugation swaps and conjugates entrywise
    z = exact(1, 2, 3, 4)
    plus, minus = null(z)
    assert plus[1] != 0 and minus[1] != 0
    assert null(z.conjugate()) == ([minus[0], -minus[1]], [plus[0], -plus[1]])
    assert from_null_coords(plus, minus) == list(z.coeffs())


def test_null_split_and_join_keep_the_exact_backend():
    rng = random.Random(9)
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(16)]
    plus, minus = to_null_coords(coords)
    back = from_null_coords(plus, minus)
    assert back == coords
    assert all(type(c) is Fraction for c in plus + minus + back)


def test_null_join_of_int_components_is_exact():
    back = from_null_coords(*to_null_coords([1, 0, 1, 0]))
    assert back == [1, 0, 1, 0]
    assert all(type(c) is Fraction for c in back)
    mixed = from_null_coords([1, Fraction(1, 3)], [Fraction(0), 3])
    assert mixed == [Fraction(1, 2), Fraction(5, 3), Fraction(1, 2), Fraction(-4, 3)]
    assert all(type(c) is Fraction for c in mixed)


def test_null_split_takes_whole_entries_by_the_one_rule():
    for coords in ([1, 2, 3], [1, 2, 3, 4, 5], [0.5] * 7):
        with pytest.raises(ValueError, match=f"4 coordinates per entry, not {len(coords)}"):
            to_null_coords(coords)
    assert to_null_coords([]) == ([], [])
    # ints give Fractions, and ints beside floats give floats
    plus, minus = to_null_coords([1, Fraction(1, 2), 3, 0])
    assert (plus, minus) == ([4, Fraction(1, 2)], [-2, Fraction(1, 2)])
    assert all(type(c) is Fraction for c in plus + minus)
    plus, minus = to_null_coords([1, 0, 0.5, 0])
    assert (plus, minus) == ([1.5, 0.0], [0.5, 0.0]) and all(type(c) is float for c in plus + minus)


@pytest.mark.parametrize(
    "plus, minus",
    [([Fraction(1), Fraction(0)], [1.0, 0.0]), ([1.0, 0.0], [1, 0]), ([1.0, Fraction(0)], [1.0, 0.0])],
    ids=["exact-plus-float-minus", "float-plus-int-minus", "mixed-within-plus"],
)
def test_null_join_rejects_mixed_backends(plus, minus):
    with pytest.raises(BackendMismatch):
        from_null_coords(plus, minus)


def test_null_split_of_floats_matches_complex_components():
    z = HScalar.flt(0.25, -1.5, 2.0, 0.125)
    plus, minus = null(z)
    assert complex(*plus) == complex(z.x + z.v, z.y + z.w)
    assert complex(*minus) == complex(z.x - z.v, z.y - z.w)
    assert all(type(c) is float for c in plus + minus)


def test_null_join_of_large_finite_components_stays_finite():
    big = 1.6e308
    assert from_null_coords([big, big], [big, big]) == [big, big, 0.0, 0.0]
    # a scalar's coordinates and a matrix's come back unchanged
    z = HScalar.flt(big)
    assert from_null_coords(*null(z)) == list(z.coeffs())
    m = HMatrix.identity(2, exact=False).scale(HScalar.flt(big, 0.0, 0.0, -big))
    assert from_null_coords(*to_null_coords(m.coords)) == list(m.coords)


@pytest.mark.parametrize(
    "plus, minus",
    [([1.0, 0.0], [1.0, 0.0, 2.0, 0.0]), ([1.0, 0.0, 2.0, 0.0], [1.0, 0.0]), ([1.0, 0.0, 2.0], [1.0, 0.0, 2.0])],
    ids=["shorter-plus", "shorter-minus", "odd-length"],
)
def test_null_join_rejects_components_of_different_length(plus, minus):
    with pytest.raises(ValueError):
        from_null_coords(plus, minus)


def test_subring_closure():
    rng = random.Random(7)
    for _ in range(100):
        re1, re2 = exact(rng.randint(-5, 5)), exact(rng.randint(-5, 5))
        prod = re1 * re2
        assert prod.y == 0 and prod.v == 0 and prod.w == 0
        c1 = exact(rng.randint(-5, 5), rng.randint(-5, 5))
        c2 = exact(rng.randint(-5, 5), rng.randint(-5, 5))
        prod = c1 * c2
        assert prod.v == 0 and prod.w == 0
        h1 = exact(rng.randint(-5, 5), 0, rng.randint(-5, 5))
        h2 = exact(rng.randint(-5, 5), 0, rng.randint(-5, 5))
        prod = h1 * h2
        assert prod.y == 0 and prod.w == 0


@pytest.mark.parametrize("spot", range(4), ids=["x", "y", "v", "w"])
def test_abs_max_keeps_a_nan(spot):
    # the raw constructor: HScalar.flt rejects NaN components
    comps = [1.0, 0.0, 0.0, 0.0]
    comps[spot] = math.nan
    z = HScalar(*comps)
    assert math.isnan(z.max_abs())
    assert not z.is_close(HScalar.flt(), tol=2.0)


# -- the exact integer form: numerators over one denominator -------------------


def assert_canonical(value):
    """The stored form of an exact value: int numerators over a positive int
    denominator with no common factor (a zero is over 1), and ``coords``
    the reduced Fractions they stand for.  A float value has ``den`` None."""
    nums, den = value.nums, value.den
    if den is None:
        assert all(type(x) is float for x in nums)
        return
    assert type(den) is int and den > 0 and all(type(x) is int for x in nums)
    assert math.gcd(den, *nums) == 1
    assert any(nums) or den == 1
    assert value.coords == tuple(Fraction(x, den) for x in nums)
    assert all(type(c) is Fraction for c in value.coords)


# zeros, small fractions whose sums reduce, and denominators far beyond a float
exact_coordinates = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**30),
)
coordinate_lists = st.sampled_from([1, 2]).flatmap(lambda n: st.tuples(
    st.lists(exact_coordinates, min_size=4 * n * n, max_size=4 * n * n),
    st.lists(exact_coordinates, min_size=4 * n * n, max_size=4 * n * n),
))


@settings(max_examples=40, deadline=None)
@given(coordinate_lists)
@example(([Fraction(1, 3)] + [Fraction(0)] * 3, [Fraction(1, 6)] + [Fraction(0)] * 3))
@example(([Fraction(0)] * 4, [Fraction(0)] * 4))
@example(([Fraction(1, 3), Fraction(2, 3), 0, 0], [Fraction(-1, 3), Fraction(1, 3), 0, 0]))
def test_exact_linear_structure_matches_per_coordinate_fractions(pair):
    """+, -, negation, ==, hash, max_abs and to_float of exact values
    against the same operations on each drawn Fraction coordinate."""
    ca, cb = ([Fraction(x) for x in c] for c in pair)
    a, b = HMatrix.from_real_coords(ca), HMatrix.from_real_coords(cb)
    assert a.coords == tuple(ca)
    for value, want in (
        (a, ca),
        (a + b, [x + y for x, y in zip(ca, cb)]),
        (a - b, [x - y for x, y in zip(ca, cb)]),
        (-a, [-x for x in ca]),
    ):
        assert_canonical(value)
        assert value.coords == tuple(want)
        assert value == HMatrix.from_real_coords(want) and hash(value) == hash(HMatrix.from_real_coords(want))
        assert [x.hex() for x in value.to_float().coords] == [float(x).hex() for x in want]
        assert value.max_abs() == max(abs(float(x)) for x in want)
    back = (a + b) - b
    assert_canonical(back)
    assert back == a and hash(back) == hash(a)
    assert (a == b) == (ca == cb)
    assert a != a.to_float()


def test_a_reducing_sum_is_stored_reduced():
    third, sixth = (HMatrix.from_real_coords([Fraction(1, d)] + [Fraction(0)] * 3) for d in (3, 6))
    half = third + sixth
    assert (half.nums, half.den) == ((1, 0, 0, 0), 2)
    zero = third - third
    assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
    assert zero == HMatrix.zeros(1) and hash(zero) == hash(HMatrix.zeros(1))


# Every public constructor takes its numbers by one rule: each builds from
# four numbers x y v w, as an HScalar's parts or as coordinates, with the
# bad one at the index the error must name.
ENTRY_POINTS = {
    "HMatrix rows": lambda parts: HMatrix([[HScalar(*parts)]]),
    "from_real_coords": HMatrix.from_real_coords,
    "combine": lambda parts: HMatrix.combine([HScalar(*parts)], [HMatrix.identity(2, exact=False)]),
    "Multivector": lambda parts: Multivector(get_rep("c30bar"), {(): HScalar(*parts)}),
    "rep.scalar": lambda parts: get_rep("c30bar").scalar(HScalar(*parts)),
    "Paravector": lambda parts: Paravector(get_space("m4"), parts),
    "space.paravector": lambda parts: get_space("m4").paravector(parts),
}
BAD_INPUTS = {
    "nan": ([1.0, 0.0, math.nan, 0.0], ValueError, "coordinate 2 is not finite: nan"),
    "inf": ([1.0, 0.0, math.inf, 0.0], ValueError, "coordinate 2 is not finite: inf"),
    "-inf": ([1.0, 0.0, -math.inf, 0.0], ValueError, "coordinate 2 is not finite: -inf"),
    "nan first": ([math.nan, 0.0, 0.0, 0.0], ValueError, "coordinate 0 is not finite: nan"),
    "fraction beside float": ([1.0, 0.0, Fraction(1, 2), 0.0], BackendMismatch, "coordinate 2 is a Fraction"),
    "float beside fraction": ([Fraction(1, 2), 0, 1.0, 0], BackendMismatch, "coordinate 0 is a Fraction"),
    "non-number": ([1.0, 0.0, "1", 0.0], TypeError, "coordinate 2 is not an int, Fraction or float: '1'"),
    "bool": ([1.0, 0.0, True, 0.0], TypeError, "coordinate 2 is not an int, Fraction or float: True"),
}


def wrong_answers(entry_points) -> list:
    """Each entry point and bad input that is not rejected as BAD_INPUTS says."""
    wrong = []
    for name, make in entry_points.items():
        for case, (parts, error, message) in BAD_INPUTS.items():
            try:
                make(parts)
            except Exception as exc:
                if type(exc) is not error or message not in str(exc):
                    wrong.append((name, case, repr(exc)))
            else:
                wrong.append((name, case, "accepted"))
    return wrong


def test_every_constructor_rejects_bad_numbers_where_they_enter():
    assert wrong_answers(ENTRY_POINTS) == []


def test_every_constructor_takes_ints_beside_floats_as_floats():
    for make in ENTRY_POINTS.values():
        value = make([1, 0, 0.5, 0])
        assert not value.is_exact and value == make([1.0, 0.0, 0.5, 0.0])


# The constructors that take plain numbers, by the same rule and messages:
# four numbers each, as a scalar's parts, as angles (planes in this order) or
# as the coordinates of one entry.
NUMBER_ENTRY_POINTS = {
    "HScalar.exact": lambda parts: HScalar.exact(*parts),
    "HScalar.flt": lambda parts: HScalar.flt(*parts),
    "HScalar.make": lambda parts: HScalar.make(*parts, exact=False),
    "RotorParams.m4": lambda parts: RotorParams.m4(phi=parts[:3], xi=(parts[3], 0, 0)),
    "RotorParams.r66": lambda parts: RotorParams.r66({(0, k + 1): c for k, c in enumerate(parts)}),
    "to_null_coords": to_null_coords,
}


def test_every_number_constructor_rejects_bad_numbers_by_the_one_rule():
    assert wrong_answers(NUMBER_ENTRY_POINTS) == []


@pytest.mark.parametrize("value", ["1.5", True], ids=["str", "bool"])
def test_one_number_constructors_reject_what_is_not_an_int_fraction_or_float(value):
    # each takes one number per scalar and names it as an HScalar's coordinate 0
    for call in (lambda: get_rep("r30").scalar(value), lambda: HMatrix.combine([value], [HMatrix.identity(1)])):
        with pytest.raises(TypeError, match=f"HScalar coordinate 0 is not an int, Fraction or float: {value!r}"):
            call()


def test_float_scalars_take_exact_numbers_as_floats():
    assert [c.hex() for c in HScalar.flt(Fraction(1, 3), 2, Fraction(-5, 7)).coeffs()] == \
        [(1 / 3).hex(), (2.0).hex(), (-5 / 7).hex(), (0.0).hex()]
    assert HScalar.flt() == HScalar(0.0, 0.0, 0.0, 0.0)
    assert RotorParams.h1(Fraction(1, 3), 1) == RotorParams.h1(1 / 3, 1.0)
    assert RotorParams.e6({(1, 0): Fraction(1, 3)}).phi_ab == (((0, 1), -1 / 3),)
    with pytest.raises(BackendMismatch, match="coordinate 0 is a Fraction beside a float"):
        HScalar.flt(Fraction(1, 3), 0.0)

