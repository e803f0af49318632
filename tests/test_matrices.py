"""Matrices over the scalar ring: Pauli tables, tensor products,
elimination."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hyperclifford.matrices import (
    HMatrix,
    SingularMatrix,
    _block_traces,
    _weighted_sum,
    kron,
    pauli2,
    pauli4,
    pauli4_literal,
    sigma_ab,
    sigma_ab_entry,
)
from hyperclifford.scalars import BackendMismatch, HScalar, ZeroDivisor, _over_lcm
from oracles import (
    assert_canonical,
    exact_coordinates,
    fraction_product,
    inverse_reference,
    kron_loop,
    oracle_tests,
    random_hmatrix,
    same_bits,
    trace,
    within,
)

globals().update(oracle_tests(__name__))  # this module's rows of oracles.ORACLES


H = HScalar.exact


def test_pauli2_products():
    # sigma_1 sigma_2 = i sigma_3
    assert pauli2(1) @ pauli2(2) == pauli2(3).scale(HScalar.unit("i"))
    for k in (1, 2, 3):
        assert pauli2(k) @ pauli2(k) == HMatrix.identity(2)


def test_pauli4_built_equals_literal():
    for k in range(1, 16):
        assert pauli4(k) == pauli4_literal(k)


def test_pauli4_spot_entries():
    # frozen from the entry tables
    s10 = pauli4(10)
    assert s10.rows[0][3] == H(0, -1)
    assert s10.rows[3][0] == H(0, 1)
    assert s10.rows[1][2] == H(0, -1)
    assert s10.rows[0][0] == H(0)
    s15 = pauli4(15)
    assert [s15.rows[k][k] for k in range(4)] == [H(1), H(-1), H(-1), H(1)]
    s1 = pauli4(1)
    assert s1.rows[0][2] == H(1) and s1.rows[2][0] == H(1)


def test_kron_block_layout():
    assert kron(pauli2(3), HMatrix.identity(2)) == pauli4(3)
    assert kron(HMatrix.identity(2), HMatrix.identity(2)) == HMatrix.identity(4)
    assert kron(pauli2(1), pauli2(1)) == pauli4(7)


# every pair of the identity and the 2x2 Pauli matrices, then 4x4 (x) 2x2
# and 2x2 (x) 4x4 with entries off the complex subring and over denominators
def test_kron_refuses_mixed_backends_as_the_loop_did():
    for a, b in ((pauli2(1), pauli2(2).to_float()), (pauli4(3).to_float(), HMatrix.identity(2))):
        for build in (kron, kron_loop):
            with pytest.raises(BackendMismatch):
                build(a, b)


def test_pauli4_hermitian_and_involutive():
    for k in range(1, 16):
        m = pauli4(k)
        assert m.adjoint() == m
        assert m @ m == HMatrix.identity(4)


def test_trace_orthogonality():
    for k in range(1, 16):
        for l in range(1, 16):
            t = trace(pauli4(k) @ pauli4(l))
            assert t == (H(4) if k == l else H(0))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_block_traces_are_the_traces_of_stacked_blocks(n):
    # blocks of one denominator, stacked: each block's trace numerators,
    # those of its HMatrix trace over the shared denominator
    rng = random.Random(n)
    blocks = [random_hmatrix(n, range(4), True, 0.7, rng) for _ in range(5)]
    den = math.lcm(*[m.den for m in blocks])
    nums = [x * (den // m.den) for m in blocks for x in m.nums]
    assert [[Fraction(x, den) for x in t] for t in _block_traces(n, nums)] == [list(trace(m).coeffs()) for m in blocks]
    assert _block_traces(n, []) == []


def test_sigma_ab_examples():
    assert sigma_ab(0, 1) == pauli4(1)
    assert sigma_ab(1, 0) == -pauli4(1)
    assert sigma_ab(4, 5) == pauli4(4)
    assert sigma_ab_entry(0, 2) == (3, -1)


def test_sigma_ab_antisymmetry():
    for a in range(6):
        for b in range(6):
            if a != b:
                assert sigma_ab(a, b) == -sigma_ab(b, a)


def test_sigma_ab_diagonal_rejected():
    with pytest.raises(ValueError):
        sigma_ab(2, 2)
    with pytest.raises(ValueError):
        sigma_ab(0, 6)


@pytest.mark.parametrize("bad", [2.0, 2.5, True, Fraction(2), "2"], ids=repr)
def test_index_lookups_take_only_ints_in_range(bad):
    # an index is an int by the rule RotorParams takes planes by (type(k) is
    # int): a float or a bool equal to a valid index is no index, and a
    # cached int equal to it must not let it through the cache; these valid
    # lookups fill the caches first
    assert sigma_ab(4, 2) == -sigma_ab(2, 4)
    assert [m.n for m in (pauli2(2), pauli4(2), pauli4_literal(2), sigma_ab(2, 4))] == [2, 4, 4, 4]
    calls = [(pauli2, (bad,), "pauli2"), (pauli4, (bad,), "pauli4"), (pauli4_literal, (bad,), "pauli4_literal"),
             (sigma_ab, (bad, 4), "sigma_ab"), (sigma_ab, (4, bad), "sigma_ab"), (sigma_ab_entry, (bad, 4), "sigma_ab")]
    for f, args, name in calls:
        with pytest.raises(ValueError, match=f"^{name} "):
            f(*args)


def test_adjoint_is_antiautomorphism():
    rng = random.Random(11)

    def rand():
        return HMatrix(
            [
                [HScalar.flt(*(rng.uniform(-2, 2) for _ in range(4))) for _ in range(3)]
                for _ in range(3)
            ]
        )

    for _ in range(200):
        a, b = rand(), rand()
        assert within(1e-12)((a @ b).adjoint(), b.adjoint() @ a.adjoint())


def test_adjoint_is_involutive():
    rng = random.Random(14)
    for _ in range(1000):
        m = HMatrix(
            [
                [HScalar.flt(*(rng.uniform(-3, 3) for _ in range(4))) for _ in range(2)]
                for _ in range(2)
            ]
        )
        assert within(0.0)(m.adjoint().adjoint(), m)


def test_adjoint_conjugates_scalars():
    jm = HMatrix.identity(2).scale(HScalar.unit("j"))
    assert jm.adjoint() == -jm


def test_inverse_roundtrip_exact():
    rng = random.Random(12)
    for _ in range(50):
        m = HMatrix(
            [
                [
                    HScalar.exact(
                        Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)),
                        Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)),
                    )
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
        )
        try:
            inv = m.inverse()
        except SingularMatrix:
            continue
        assert m @ inv == HMatrix.identity(3)
        assert inv @ m == HMatrix.identity(3)


def test_inverse_of_unit_scaled_identity():
    jm = HMatrix.identity(2).scale(HScalar.unit("j"))
    assert jm.inverse() == jm


def test_inverse_eliminates_entries_below_the_float_range():
    # an exact entry that converts to 0.0 as a float is still non-zero
    tiny = Fraction(1, 10**400)
    m = HMatrix([[H(1), H(0)], [H(tiny), H(1)]])
    assert m.inverse() == HMatrix([[H(1), H(0)], [H(-tiny), H(1)]])
    assert m @ m.inverse() == HMatrix.identity(2)


def test_singular_zero_divisor_pivot():
    e = HScalar.exact(Fraction(1, 2), 0, Fraction(1, 2))
    with pytest.raises(SingularMatrix):
        HMatrix([[e]]).inverse()


def test_identity_neutral():
    rng = random.Random(13)
    m = HMatrix(
        [
            [HScalar.flt(*(rng.uniform(-1, 1) for _ in range(4))) for _ in range(4)]
            for _ in range(4)
        ]
    )
    idm = HMatrix.identity(4, exact=False)
    assert within(0.0)(idm @ m, m)
    assert within(0.0)(m @ idm, m)


def test_pauli_index_errors():
    with pytest.raises(ValueError):
        pauli2(4)
    with pytest.raises(ValueError):
        pauli4(0)
    with pytest.raises(ValueError):
        pauli4(16)


def test_real_coords_roundtrip():
    for m in (pauli4(8), pauli2(2).scale(H(0, 0, 1)), HMatrix.identity(3, exact=False)):
        coords = m.coords
        assert len(coords) == 4 * m.n * m.n
        assert HMatrix.from_real_coords(coords) == m
        assert HMatrix.from_real_coords(list(coords)).rows == m.rows
    with pytest.raises(ValueError):
        HMatrix.from_real_coords([Fraction(0)] * 12)


def test_constructor_rejects_mixed_backends():
    with pytest.raises(BackendMismatch):
        HMatrix([[HScalar.exact(1), HScalar.flt(2.0)], [HScalar.flt(0.0), HScalar.exact(1)]])
    with pytest.raises(BackendMismatch):
        HMatrix([[HScalar(Fraction(1), 0.5, Fraction(0), Fraction(0))]])
    with pytest.raises(BackendMismatch):
        HMatrix.from_real_coords([Fraction(1), 0.0, 0.0, 0.0])


def test_constructor_rejects_non_scalar_entries():
    with pytest.raises(TypeError):
        HMatrix([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        HMatrix([[H(1), 0.0], [H(0), H(1)]])
    # ints are numbers, and fit the exact backend
    assert HMatrix.from_real_coords([1, 0, 0, 0]) == HMatrix.identity(1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_from_real_coords_rejects_non_finite(bad):
    coords = [1.0] + [0.0] * 15
    coords[6] = bad
    with pytest.raises(ValueError, match="coordinate 6 is not finite"):
        HMatrix.from_real_coords(coords)


def test_constructor_rejects_empty_and_non_square():
    with pytest.raises(ValueError):
        HMatrix([])
    with pytest.raises(ValueError):
        HMatrix.from_real_coords([])
    with pytest.raises(ValueError):
        HMatrix([[H(1), H(0)]])
    for n in (0, -1):
        with pytest.raises(ValueError):
            HMatrix.identity(n)
        with pytest.raises(ValueError):
            HMatrix.zeros(n, exact=False)


def test_mixed_backend_operations():
    # non-zero operands, then a zero of the other backend on either side
    # or both: a zero is an operand like any other
    exacts = (pauli2(1), HMatrix.zeros(2))
    flts = (pauli2(2).to_float(), HMatrix.zeros(2, exact=False))
    for exact, flt in product(exacts, flts):
        for a, b in ((exact, flt), (flt, exact)):
            for op in (a.__add__, a.__sub__, a.__matmul__):
                with pytest.raises(BackendMismatch):
                    op(b)
        for m, z in ((exact, HScalar.flt()), (exact, HScalar.flt(2.0)), (exact, 0.1), (flt, HScalar.exact())):
            with pytest.raises(BackendMismatch):
                m.scale(z)
        # equal values of two backends are unequal
        assert exact != exact.to_float() and exact.to_float() != exact


def test_views_build_entries_on_demand():
    m = pauli4(10)
    assert m.n == 4 and len(m.coords) == 64 and m.is_exact
    assert m.rows[0][3] == H(0, -1)
    assert HMatrix(m.rows) == m
    assert HMatrix.identity(3, exact=False).coords[::16] == (1.0, 1.0, 1.0)


def test_scale_of_a_zero_entry_is_positive_zero():
    got = HMatrix.zeros(2, exact=False).scale(HScalar.flt(-1.0))
    assert same_bits(got.coords, (0.0,) * 16)
    got = pauli2(3).to_float().scale(HScalar.flt(-1.0, 0.0, 0.0, -0.0))
    assert same_bits(got.coords[4:12], (0.0,) * 8)


def test_real_pairing_is_exact_and_backend_strict():
    a, b = pauli2(1).scale(Fraction(1, 3)), pauli2(1).scale(HScalar.exact(Fraction(1, 2), 1))
    assert HMatrix.real_pairing(a, b) == Fraction(1, 3)  # two entries of 1/3 * 1/2
    assert HMatrix.real_pairing(a.to_float(), b.to_float()) == 1 / 3
    with pytest.raises(BackendMismatch):
        HMatrix.real_pairing(a, b.to_float())


@pytest.mark.parametrize(
    "rows,error",
    [
        ([[H(Fraction(1, 2), 0, Fraction(1, 2))]], SingularMatrix),  # on the null cone
        ([[HScalar.flt(1.0, 0.0, 1.0 + 1e-9)]], ZeroDivisor),  # within the threshold of it
        ([[HScalar.flt(1.0, 0.0, 1.0 + 1e-9), HScalar.flt(1.0)],
          [HScalar.flt(1.0, 0.0, 1.0), HScalar.flt(2.0)]], ZeroDivisor),
    ],
    ids=["exact-null", "float-near-null", "float-near-null-column"],
)
def test_inverse_raises_like_reference(rows, error):
    m = HMatrix(rows)
    with pytest.raises(error) as want:
        inverse_reference(m)
    with pytest.raises(error) as got:
        m.inverse()
    assert type(got.value) is type(want.value)


@pytest.mark.parametrize("idx", [0, 1, 6, 15], ids=["entry0-x", "entry0-y", "entry1-v", "entry3-w"])
def test_max_abs_keeps_a_nan(idx):
    coords = [1.0] + [0.0] * 15
    coords[idx] = float("nan")
    m = HMatrix._new(2, coords, None)  # from_real_coords rejects a NaN
    assert math.isnan(m.max_abs())
    assert not within(2.0)(m, HMatrix.zeros(2, exact=False))


# -- the exact integer form against per-coordinate Fraction references ---------


@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]))
def test_exact_products_match_per_coordinate_fractions(data, n):
    """@, scale, a weighted sum and inverse of the integer form against the
    Fraction reference, each result stored canonically."""
    coords = data.draw(st.lists(st.lists(exact_coordinates, min_size=4 * n * n, max_size=4 * n * n),
                                min_size=3, max_size=3))
    zs = data.draw(st.lists(st.lists(exact_coordinates, min_size=4, max_size=4), min_size=3, max_size=3))
    mats = [HMatrix.from_real_coords(c) for c in coords]
    (a, b, m), (ca, cb, cm) = mats, coords
    got = a @ b
    assert_canonical(got)
    assert got.coords == tuple(fraction_product(ca, cb, n, n))
    got = a.scale(HScalar.exact(*zs[0]))
    assert_canonical(got)
    assert got.coords == tuple(fraction_product(zs[0], ca, 1, 1))
    got = _weighted_sum(*_over_lcm([x for z in zs for x in z]), mats)
    assert_canonical(got)
    assert got.coords == tuple(map(sum, zip(*(fraction_product(z, c, 1, 1) for z, c in zip(zs, coords)))))
    try:
        inv = m.inverse()
    except (SingularMatrix, ZeroDivisor) as exc:
        with pytest.raises(type(exc)):
            inverse_reference(m)
        return
    assert_canonical(inv)
    assert inv == inverse_reference(m)
    assert fraction_product(cm, list(inv.coords), n, n) == list(HMatrix.identity(n).coords)
