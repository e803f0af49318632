"""Matrices over the scalar ring: Pauli tables, tensor products,
elimination."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from hyperclifford.checks import _random_rotor
from hyperclifford.matrices import (
    HMatrix,
    SingularMatrix,
    kron,
    pauli2,
    pauli4,
    pauli4_literal,
    sigma_ab,
    sigma_ab_entry,
)
from hyperclifford.scalars import BackendMismatch, HScalar, ZeroDivisor


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
        coords = m.real_coords()
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
    with pytest.raises(TypeError):
        HMatrix.from_real_coords([1, 0, 0, 0])


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
    exact, flt = pauli2(1), pauli2(2).to_float()
    for op in (exact.__add__, exact.__sub__, exact.__matmul__):
        with pytest.raises(BackendMismatch):
            op(flt)
    with pytest.raises(BackendMismatch):
        exact.scale(HScalar.flt(2.0))
    # a zero factor keeps the left factor's backend, as the entry loop did
    zero = HMatrix.zeros(2)
    assert (zero @ flt).coords == HMatrix.zeros(2).coords
    assert (zero @ flt).is_exact and not (flt @ zero).is_exact
    assert flt @ zero == HMatrix.zeros(2, exact=False)


def test_views_build_entries_on_demand():
    m = pauli4(10)
    assert m.n == 4 and len(m.coords) == 64 and m.is_exact
    assert m.rows[0][3] == m.entry(0, 3) == H(0, -1)
    assert HMatrix(m.rows) == m
    with pytest.raises(IndexError):
        m.entry(0, 4)
    assert HMatrix.identity(3, exact=False).coords[::16] == (1.0, 1.0, 1.0)


# -- the coordinate kernels against the per-entry HScalar loops ------------------


def matmul_reference(a, b):
    """The per-entry product: HScalar multiply and add, zero entries
    skipped, each entry summed in column order."""
    zero = HScalar.zero(a.is_exact)
    cols = tuple(zip(*b.rows))
    out = []
    for row in a.rows:
        line = []
        for col in cols:
            acc = None
            for x, y in zip(row, col):
                if x.is_zero or y.is_zero:
                    continue
                acc = x * y if acc is None else acc + x * y
            line.append(zero if acc is None else acc)
        out.append(line)
    return HMatrix(out)


def inverse_reference(m):
    """Gauss-Jordan elimination over rows of HScalar entries, with the
    kernel's pivot rule: the first invertible entry (exact) or the one of
    largest modulus (float).  Rows are scaled and reduced with HScalar
    multiply and subtract; an all-zero entry is skipped."""
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
        a[col] = [inv_p * z for z in a[col]]
        b[col] = [inv_p * z for z in b[col]]
        for r in range(n):
            f = a[r][col]
            if r == col or f.is_zero:
                continue
            a[r] = [z - f * p for z, p in zip(a[r], a[col])]
            b[r] = [z - f * p for z, p in zip(b[r], b[col])]
    return HMatrix(b)


def scale_reference(m, z):
    return HMatrix([[z * a for a in row] for row in m.rows])


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
            assert_same_coords(a @ b, matmul_reference(a, b), exact)
            assert_same_coords(a + b, add_reference(a, b), exact)
            assert_same_coords(a - b, sub_reference(a, b), exact)
        for z in (scalars[k % len(scalars)], rng.choice(scalars)):
            assert_same_coords(a.scale(z), scale_reference(a, z), exact)
        assert_same_inverse(a)


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
