"""Matrices over the scalar ring: Pauli tables, tensor products,
elimination."""

import random
from fractions import Fraction

import pytest

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
from hyperclifford.scalars import HScalar


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
