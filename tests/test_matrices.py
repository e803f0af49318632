"""Matrices over the scalar ring: Pauli tables, tensor products,
elimination."""

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from hyperclifford.checks import _random_rotor
from hyperclifford.matrices import (
    HMatrix,
    SingularMatrix,
    _product,
    kron,
    pauli2,
    pauli4,
    pauli4_literal,
    sigma_ab,
    sigma_ab_entry,
)
from hyperclifford.scalars import BackendMismatch, HScalar, ZeroDivisor, _over_lcm
from test_scalars import assert_canonical, exact_coordinates


def H(x=0, y=0, v=0, w=0):
    return HScalar.exact(x, y, v, w)


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
    assert s10.entry(0, 3) == H(0, -1)
    assert s10.entry(3, 0) == H(0, 1)
    assert s10.entry(1, 2) == H(0, -1)
    assert s10.entry(0, 0) == H(0)
    s15 = pauli4(15)
    assert [s15.entry(k, k) for k in range(4)] == [H(1), H(-1), H(-1), H(1)]
    s1 = pauli4(1)
    assert s1.entry(0, 2) == H(1) and s1.entry(2, 0) == H(1)


def test_kron_block_layout():
    assert kron(pauli2(3), HMatrix.identity(2)) == pauli4(3)
    assert kron(HMatrix.identity(2), HMatrix.identity(2)) == HMatrix.identity(4)
    assert kron(pauli2(1), pauli2(1)) == pauli4(7)


def test_pauli4_hermitian_and_involutive():
    for k in range(1, 16):
        m = pauli4(k)
        assert m.adjoint() == m
        assert m @ m == HMatrix.identity(4)


def test_trace_orthogonality():
    for k in range(1, 16):
        for l in range(1, 16):
            t = (pauli4(k) @ pauli4(l)).trace()
            assert t == (H(4) if k == l else H(0))


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
        assert (a @ b).adjoint().is_close(b.adjoint() @ a.adjoint(), 1e-12)


def test_adjoint_is_involutive():
    rng = random.Random(14)
    for _ in range(1000):
        m = HMatrix(
            [
                [HScalar.flt(*(rng.uniform(-3, 3) for _ in range(4))) for _ in range(2)]
                for _ in range(2)
            ]
        )
        assert m.adjoint().adjoint().is_close(m, 0.0)


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
    assert (idm @ m).is_close(m, 0.0)
    assert (m @ idm).is_close(m, 0.0)


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
    assert m.rows[0][3] == m.entry(0, 3) == H(0, -1)
    assert HMatrix(m.rows) == m
    with pytest.raises(IndexError):
        m.entry(0, 4)
    assert HMatrix.identity(3, exact=False).coords[::16] == (1.0, 1.0, 1.0)


# -- the coordinate kernels against the per-entry HScalar loops ------------------


def product_reference(a_rows, b_rows):
    """The per-entry product of matrices given as rows of HScalars, square
    or rectangular, as flat coordinates: HScalar multiply and add, zero
    entries skipped, each entry summed in column order, and ``+0`` where no
    term is left."""
    zero = HScalar.make(exact=a_rows[0][0].is_exact)
    out = []
    for row in a_rows:
        for col in zip(*b_rows):
            terms = [x * y for x, y in zip(row, col) if not (x.is_zero or y.is_zero)]
            out += (reduce(add, terms) if terms else zero).coeffs()
    return out


def inverse_reference(m):
    """Gauss-Jordan elimination over rows of HScalar entries, with the
    kernel's pivot rule: the first invertible entry (exact) or the one of
    largest modulus (float).  Rows are scaled and reduced with HScalar
    multiply and subtract, a product with a zero entry being ``+0``; a
    row whose factor is zero is skipped."""
    n, exact = m.n, m.is_exact
    a = [list(row) for row in m.rows]
    b = [list(row) for row in HMatrix.identity(n, exact=exact).rows]
    for col in range(n):
        pick, best = None, 0
        for r in range(col, n):
            mod = a[r][col].modulus()
            if exact:
                if mod != 0:
                    pick = r
                    break
            elif mod > best:
                pick, best = r, mod
        if pick is None:
            raise SingularMatrix("no invertible pivot (zero-divisor column)")
        a[col], a[pick] = a[pick], a[col]
        b[col], b[pick] = b[pick], b[col]
        inv_p = a[col][col].invert()
        a[col] = [entry_product(inv_p, z) for z in a[col]]
        b[col] = [entry_product(inv_p, z) for z in b[col]]
        for r in range(n):
            f = a[r][col]
            if r == col or f.is_zero:
                continue
            a[r] = [z - entry_product(f, p) for z, p in zip(a[r], a[col])]
            b[r] = [z - entry_product(f, p) for z, p in zip(b[r], b[col])]
    return HMatrix(b)


def entry_product(x, y):
    """One entry's product in every kernel: ``+0`` when a factor is zero."""
    return HScalar.make(exact=x.is_exact) if x.is_zero or y.is_zero else x * y


def scale_reference(m, z):
    return HMatrix([[entry_product(z, a) for a in row] for row in m.rows])


def add_reference(a, b):
    return HMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def sub_reference(a, b):
    return HMatrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


UNIT_SUBSETS = [s for k in range(5) for s in combinations(range(4), k)]


def random_value(exact, rng):
    if exact:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 3))
    return rng.uniform(-2, 2)


def random_zero(exact, rng):
    return Fraction(0) if exact else rng.choice([0.0, -0.0])


def random_scalar(units, exact, rng):
    return HScalar(*(random_value(exact, rng) if u in units else random_zero(exact, rng) for u in range(4)))


def random_hmatrix(n, units, exact, density, rng):
    """Entries on the given units, each one non-zero with probability
    ``density``; no units gives a zero matrix.  Float zeros carry either
    sign."""
    return HMatrix(
        [
            [random_scalar(units if rng.random() < density else (), exact, rng) for _ in range(n)]
            for _ in range(n)
        ]
    )


def assert_same_coords(got, want, exact):
    """Exact: equal Fractions.  Float: equal bits per coordinate, the sign
    of a zero included."""
    assert got.n == want.n
    if exact:
        assert got.coords == want.coords
        assert all(type(c) is Fraction for c in got.coords)
    else:
        assert [c.hex() for c in got.coords] == [c.hex() for c in want.coords]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_kernels_match_per_entry_reference(n, exact):
    rng = random.Random(f"kernels-{n}-{exact}")
    pool = [
        random_hmatrix(n, units, exact, density, rng)
        for units in UNIT_SUBSETS
        for density in (1.0, 0.4)
    ]
    fixed = {1: [], 2: [pauli2(k) for k in (1, 2, 3)]}.get(
        n, [pauli4(k) for k in range(1, 16)] + [sigma_ab(a, b) for a in range(6) for b in range(6) if a != b]
    )
    pool += [m if exact else m.to_float() for m in fixed]
    scalars = [random_scalar(units, exact, rng) for units in UNIT_SUBSETS]
    for k, a in enumerate(pool):
        partners = [pool[(k + step) % len(pool)] for step in (0, 1, 7, 16)] + rng.sample(pool, 4)
        for b in partners:
            assert_same_coords(a @ b, HMatrix.from_real_coords(product_reference(a.rows, b.rows)), exact)
            assert_same_coords(a + b, add_reference(a, b), exact)
            assert_same_coords(a - b, sub_reference(a, b), exact)
        for z in (scalars[k % len(scalars)], rng.choice(scalars)):
            assert_same_coords(a.scale(z), scale_reference(a, z), exact)
        assert_same_inverse(a)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_rectangular_product_matches_per_entry_reference(exact):
    rng = random.Random(f"product-{exact}")
    for r, k, c in product((1, 2, 3), repeat=3):
        for _ in range(12):
            density = rng.choice((1.0, 0.5, 0.0))
            a_rows, b_rows = (
                [[random_scalar(rng.choice(UNIT_SUBSETS) if rng.random() < density else (), exact, rng)
                  for _ in range(cols)] for _ in range(rows)]
                for rows, cols in ((r, k), (k, c))
            )
            a = [x for row in a_rows for z in row for x in z.coeffs()]
            b = [x for row in b_rows for z in row for x in z.coeffs()]
            if exact:  # the kernel takes int numerators and returns them over da * db
                (a, da), (b, db) = _over_lcm(a), _over_lcm(b)
            got, want = _product(exact, r, k, a, b), product_reference(a_rows, b_rows)
            assert len(got) == 4 * r * c
            if exact:
                assert all(type(x) is int for x in got)
                assert [Fraction(x, da * db) for x in got] == want
            else:
                assert [x.hex() for x in got] == [x.hex() for x in want]


def test_scale_of_a_zero_entry_is_positive_zero():
    got = HMatrix.zeros(2, exact=False).scale(HScalar.flt(-1.0))
    assert [x.hex() for x in got.coords] == [(0.0).hex()] * 16
    got = pauli2(3).to_float().scale(HScalar.flt(-1.0, 0.0, 0.0, -0.0))
    assert [x.hex() for x in got.coords[4:12]] == [(0.0).hex()] * 8


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_combine_is_the_sum_of_scaled_matrices(exact):
    """combine(zs, mats) is the row of scalars times the column of flattened
    matrices, so the per-entry reference sums z_k m_k in the order given."""
    rng = random.Random(f"combine-{exact}")
    for n in (1, 2, 4):
        for count in (1, 3, 5):
            mats = [random_hmatrix(n, rng.choice(UNIT_SUBSETS), exact, 0.6, rng) for _ in range(count)]
            zs = [random_scalar(rng.choice(UNIT_SUBSETS), exact, rng) for _ in range(count)]
            want = product_reference([zs], [[e for row in m.rows for e in row] for m in mats])
            assert_same_coords(HMatrix.combine(zs, mats), HMatrix.from_real_coords(want), exact)
    assert HMatrix.combine([2, 0], [pauli2(1), pauli2(2)]) == pauli2(1).scale(2)


def test_real_pairing_is_exact_and_backend_strict():
    a, b = pauli2(1).scale(Fraction(1, 3)), pauli2(1).scale(HScalar.exact(Fraction(1, 2), 1))
    assert HMatrix.real_pairing(a, b) == Fraction(1, 3)  # two entries of 1/3 * 1/2
    assert HMatrix.real_pairing(a.to_float(), b.to_float()) == 1 / 3
    with pytest.raises(BackendMismatch):
        HMatrix.real_pairing(a, b.to_float())


def test_combine_checks_counts_sizes_and_backends():
    two, three = HMatrix.identity(2), HMatrix.identity(3)
    with pytest.raises(ValueError):
        HMatrix.combine([H(1), H(1)], [two, three])
    with pytest.raises(ValueError):
        HMatrix.combine([H(1)], [two, two])
    with pytest.raises(ValueError):
        HMatrix.combine([H(1), H(1)], [two])
    with pytest.raises(ValueError):
        HMatrix.combine([], [])
    with pytest.raises(BackendMismatch):
        HMatrix.combine([H(1), H(1)], [two, two.to_float()])
    with pytest.raises(BackendMismatch):
        HMatrix.combine([H(1), HScalar.flt(1.0)], [two, two])
    with pytest.raises(BackendMismatch):
        HMatrix.combine([1, 0.5], [two, two])


def assert_same_inverse(m):
    """The inverse equals the reference's coordinate for coordinate, or
    both raise the same exception type."""
    try:
        want = inverse_reference(m)
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError) as got:
            m.inverse()
        assert type(got.value) is type(exc)
        return
    assert_same_coords(m.inverse(), want, m.is_exact)


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
    with pytest.raises(error):
        inverse_reference(m)
    assert_same_inverse(m)


@pytest.mark.parametrize("space", ["m4", "e6", "r66"])
def test_inverse_matches_reference_on_rotor_matrices(space):
    rng = random.Random(f"inverse-{space}")
    for _ in range(10):
        g = _random_rotor(space, rng).g
        for m in (g.to_matrix(), g.hat().to_matrix()):
            assert_same_coords(m.inverse(), inverse_reference(m), exact=False)


@pytest.mark.parametrize("idx", [0, 1, 6, 15], ids=["entry0-x", "entry0-y", "entry1-v", "entry3-w"])
def test_max_abs_keeps_a_nan(idx):
    coords = [1.0] + [0.0] * 15
    coords[idx] = float("nan")
    m = HMatrix._new(2, coords, None)  # from_real_coords rejects a NaN
    assert math.isnan(m.max_abs())
    assert not m.is_close(HMatrix.zeros(2, exact=False), tol=2.0)


# -- the exact integer form against per-coordinate Fraction references ---------


def fraction_product(a, b, rows, inner):
    """The ring product of an ``rows x inner`` and an ``inner x cols``
    matrix on flat lists of Fraction coordinates, one coordinate pair at a
    time: unit u1 times unit u2 is unit u1 ^ u2, negated when both have the
    i bit."""
    cols = len(b) // (4 * inner)
    out = [Fraction(0)] * (4 * rows * cols)
    for r, k, c in product(range(rows), range(inner), range(cols)):
        for u1, u2 in product(range(4), repeat=2):
            term = a[4 * (r * inner + k) + u1] * b[4 * (k * cols + c) + u2]
            out[4 * (r * cols + c) + (u1 ^ u2)] += -term if u1 & u2 & 1 else term
    return out


def fraction_scale(z, c):
    """Every entry of the Fraction coordinates ``c`` times the scalar ``z``."""
    return fraction_product(list(z), c, 1, 1)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]))
def test_exact_products_match_per_coordinate_fractions(data, n):
    """@, scale, combine and inverse of the integer form against the
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
    assert got.coords == tuple(fraction_scale(zs[0], ca))
    got = HMatrix.combine([HScalar.exact(*z) for z in zs], mats)
    assert_canonical(got)
    assert got.coords == tuple(map(sum, zip(*(fraction_scale(z, c) for z, c in zip(zs, coords)))))
    try:
        inv = m.inverse()
    except (SingularMatrix, ZeroDivisor) as exc:
        with pytest.raises(type(exc)):
            inverse_reference(m)
        return
    assert_canonical(inv)
    assert inv == inverse_reference(m)
    assert fraction_product(cm, list(inv.coords), n, n) == list(HMatrix.identity(n).coords)
