"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass line with its runtime; run with ``pytest -s
tests/test_acceptance.py`` to see them.  Shared representation and space
caches are warmed once so the timed sections measure the checks
themselves.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from hyperclifford.algebra import (
    enumerate_algebra,
    get_rep,
    involution_table,
    pseudoscalar,
)
from hyperclifford.matrices import HMatrix, pauli4, pauli4_literal, sigma_ab
from hyperclifford.paravectors import dot, get_space, wedge2, wedge3, wedge4
from hyperclifford.physics import (
    MomentumHM4,
    hermiticity_check,
    interfere,
    linearize,
    mass_qform,
    reconstruct_probability,
)
from hyperclifford.rotors import (
    RotorParams,
    act,
    quasi_sphere_point_r66,
    rotor_from_params,
    sphere_point,
    sphere_point_via_rotors,
    verify_index_commutators,
    verify_lorentz_commutators,
)
from hyperclifford.scalars import HScalar, from_null_coords, to_null_coords
from oracles import random_params


@pytest.fixture(scope="module", autouse=True)
def warm_caches():
    for name in ("r01", "r10", "c10bar", "r30", "c30bar", "r05", "h05bar"):
        get_rep(name)
    for name in ("m4", "e6", "r66", "h1", "hm4"):
        get_space(name)


class _Timer:
    def __init__(self, criterion, limit=None):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, f"criterion {self.criterion} exceeded {self.limit}s"
        return False


_TABLE1 = {"i": (-1, 1, -1), "j": (-1, 1, -1)}
_TABLE2 = {
    "e1": (-1, 1, -1), "e2": (-1, 1, -1), "e3": (-1, 1, -1),
    "sigma1": (1, 1, 1), "sigma2": (1, 1, 1), "sigma3": (1, 1, 1),
    "i": (-1, -1, 1), "j": (-1, 1, -1),
}


def _table3_expected(unit):
    if unit.startswith("sigma0"):
        return (1, 1, 1)
    if unit.startswith("sigma"):
        return (1, -1, -1)
    if unit.startswith("e"):
        return (-1, 1, -1)
    return {"i": (-1, 1, -1), "j": (-1, 1, -1)}[unit]


def test_criterion_01_involution_tables():
    """1. Computed bar/dagger/hat signs match all three published tables."""
    with _Timer("01 involution tables", limit=1.0):
        for rep_name, unit in (("r10", "j"), ("r01", "i")):
            rows = {r.unit: (r.bar, r.dagger, r.hat) for r in involution_table(rep_name)}
            assert rows[unit] == _TABLE1[unit]
        rows2 = {
            r.unit: (r.bar, r.dagger, r.hat)
            for r in involution_table("r30")
            if not r.derived
        }
        assert rows2 == _TABLE2
        for row in involution_table("r05"):
            if row.derived:
                continue
            assert (row.bar, row.dagger, row.hat) == _table3_expected(row.unit), row.unit


def test_criterion_02_algebra_dimensions():
    """2. Closure counts 2, 2, 8, 32, 64 on the exact backend."""
    with _Timer("02 algebra dimensions", limit=5.0):
        for name, want in (
            ("r01", 2),
            ("r10", 2),
            ("r30", 8),
            ("r05", 32),
            ("h05bar", 64),
        ):
            assert enumerate_algebra(get_rep(name)) == want, name


def test_criterion_03_pseudoscalars():
    """3. e1 e2 e3 = ij (2x2) and e1 e2 e3 e4 e5 = -i (4x4), exact."""
    with _Timer("03 pseudoscalars", limit=1.0):
        r30 = get_rep("r30")
        assert pseudoscalar(r30).to_matrix() == HMatrix.identity(2).scale(
            HScalar.unit("ij")
        )
        r05 = get_rep("r05")
        assert pseudoscalar(r05).to_matrix() == HMatrix.identity(4).scale(
            -HScalar.unit("i")
        )


def test_criterion_04_pauli_tables():
    """4. Tensor products equal the entry tables; antisymmetric signed
    lookup; trace orthogonality 4 delta_kl."""
    with _Timer("04 pauli tables", limit=1.0):
        for k in range(1, 16):
            assert pauli4(k) == pauli4_literal(k)
        for a in range(6):
            for b in range(6):
                if a != b:
                    assert sigma_ab(a, b) == -sigma_ab(b, a)
        four, zero = HScalar.exact(4), HScalar.exact(0)
        for k in range(1, 16):
            for l in range(1, 16):
                assert (pauli4(k) @ pauli4(l)).trace() == (four if k == l else zero)


def test_criterion_05_commutators():
    """5. Index-pair relations over all distinct pairs, the 2x2 rotation
    and boost relations, and the documented discrepancy of the printed
    K-K right-hand sides."""
    with _Timer("05 commutators", limit=10.0):
        index = verify_index_commutators()
        assert index["checked"] == 900
        assert index["failures_jj"] == 0
        assert index["failures_jk"] == 0
        assert index["failures_kk_computed"] == 0
        # the printed form is demonstrably not satisfied: deviation-documented
        assert index["printed_kk_failures"] == 480
        lor = verify_lorentz_commutators()
        assert all(v == 0 for v in lor["failures"].values())
        assert lor["printed_kk_failures"] == 6


def test_criterion_06_sphere_oracle():
    """6. Closed-form sphere points equal the rotor path within 1e-10,
    norms equal the radius, 100 random angle sets."""
    with _Timer("06 sphere oracle", limit=5.0):
        rng = random.Random(601)
        for k in range(100):
            angles = [rng.uniform(-math.pi, math.pi) for _ in range(5)]
            r = (0.5, 1.0, 3.0)[k % 3]
            closed = sphere_point(r, angles)
            rotor = sphere_point_via_rotors(r, angles)
            assert max(abs(a - b) for a, b in zip(closed, rotor)) <= 1e-10
            assert abs(math.sqrt(sum(c * c for c in closed)) - r) <= 1e-10


def test_criterion_07_hyperbolic_quasi_sphere():
    """7. 100 random complexified-angle points satisfy the split-space
    membership: qform r^2, non-real components below 1e-10."""
    with _Timer("07 hyperbolic quasi-sphere", limit=5.0):
        rng = random.Random(701)
        space = get_space("r66")
        for k in range(100):
            phis = [rng.uniform(-math.pi, math.pi) for _ in range(5)]
            xis = [rng.uniform(-2.0, 2.0) for _ in range(5)]
            r = (0.5, 1.0, 3.0)[k % 3]
            q = space.paravector(quasi_sphere_point_r66(r, phis, xis)).qform()
            assert abs(float(q.x) - r * r) <= 1e-10
            assert abs(float(q.y)) <= 1e-10
            assert abs(float(q.v)) <= 1e-10
            assert abs(float(q.w)) <= 1e-10


def test_criterion_08_rotation_invariance():
    """8. 200 random rotor/paravector pairs per space preserve the
    quadratic form within 1e-10; every rotor certificate holds at 1e-12."""
    with _Timer("08 rotation invariance"):
        rng = random.Random(801)
        for name in ("h1", "m4", "e6", "r66"):
            space = get_space(name)
            for _ in range(200):
                rotor = rotor_from_params(random_params(name, rng))
                assert rotor.spin_residual <= 1e-12
                one = rotor.rep.scalar(1, exact=False)
                assert (rotor.g.hat().gp(rotor.g.dagger()) - one).max_abs() <= 1e-12
                x = space.paravector([rng.uniform(-2, 2) for _ in range(space.dim)])
                before, after = x.qform(), act(rotor, x).qform()
                assert (before - after).max_abs() <= 1e-10


def test_criterion_09_boost():
    """9. Pure boosts map (m,0,0,0) to (m cosh xi, 0, 0, m sinh xi)."""
    with _Timer("09 boost"):
        space = get_space("m4")
        for xi in (-2.0, -0.5, 0.5, 2.0):
            for m in (1.0, 2.0):
                rotor = rotor_from_params(RotorParams.m4(xi=(0, 0, xi)))
                out = act(rotor, space.paravector([m, 0, 0, 0]))
                want = (m * math.cosh(xi), 0.0, 0.0, m * math.sinh(xi))
                assert max(abs(a - b) for a, b in zip(out.coords, want)) <= 1e-12


def test_criterion_10_interference():
    """10. 1000 random probability pairs reproduce the interference value
    in the correct regime within 1e-12; the regimes agree at the
    boundary."""
    with _Timer("10 interference"):
        rng = random.Random(1001)
        for _ in range(1000):
            p1 = rng.uniform(1e-9, 1.0)
            p2 = rng.uniform(1e-9, 1.0)
            lam = rng.uniform(-3.0, 3.0)
            lin = linearize(p1, p2, lam)
            assert lin.regime == ("complex" if abs(lam) <= 1 else "hyperbolic")
            got = reconstruct_probability(lin, p1, p2)
            assert abs(got - interfere(p1, p2, lam)) <= 1e-12
        from hyperclifford.physics import Linearization

        for p1, p2 in ((0.25, 0.25), (0.8, 0.05)):
            cplus = reconstruct_probability(Linearization("complex", 0.0, 1), p1, p2)
            hplus = reconstruct_probability(Linearization("hyperbolic", 0.0, 1), p1, p2)
            assert abs(cplus - hplus) <= 1e-12
            cminus = reconstruct_probability(Linearization("complex", math.pi, 1), p1, p2)
            hminus = reconstruct_probability(Linearization("hyperbolic", 0.0, -1), p1, p2)
            assert abs(cminus - hminus) <= 1e-12


def test_criterion_11_wedge_products():
    """11. Exact product split, full antisymmetry, and the 24-term
    pseudoscalar constant."""
    with _Timer("11 wedge products"):
        space = get_space("m4")
        rng = random.Random(1101)

        def rand():
            return space.paravector(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
            )

        for _ in range(50):
            x, y = rand(), rand()
            mx, my = x.to_multivector(), y.to_multivector()
            assert mx.gp_blades(my.bar()) == space.rep.scalar(dot(x, y)) + wedge2(x, y)
        for _ in range(8):
            xs = [rand() for _ in range(3)]
            base = wedge3(*xs)
            for a in range(3):
                for b in range(a + 1, 3):
                    sw = list(xs)
                    sw[a], sw[b] = sw[b], sw[a]
                    assert wedge3(*sw) == -base
            ys = [rand() for _ in range(4)]
            base4 = wedge4(*ys)
            for a in range(4):
                for b in range(a + 1, 4):
                    sw = list(ys)
                    sw[a], sw[b] = sw[b], sw[a]
                    assert wedge4(*sw) == -base4
        basis = [
            space.paravector([1 if i == k else 0 for i in range(4)]) for k in range(4)
        ]
        assert wedge4(*basis) == space.rep.blade((1, 2, 3))


def test_criterion_12_null_basis():
    """12. Null-coordinate product law and conjugation swap on 1000 exact
    samples; rotor factorization reconstructs within 1e-12."""
    with _Timer("12 null basis"):
        rng = random.Random(1201)
        for _ in range(1000):
            z1 = HScalar.exact(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0,
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0,
            )
            z2 = HScalar.exact(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0,
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0,
            )
            p1, p2 = to_null_coords(z1.coeffs()), to_null_coords(z2.coeffs())
            prod = to_null_coords((z1 * z2).coeffs())
            assert prod == tuple([a * c - b * d, a * d + b * c] for (a, b), (c, d) in zip(p1, p2))
            assert to_null_coords(z1.conjugate().coeffs()) == p1[::-1]
            assert from_null_coords(*p1) == list(z1.coeffs())
        for _ in range(50):
            m = rotor_from_params(random_params("h1", rng)).g.to_matrix()
            rec = HMatrix.from_real_coords(from_null_coords(*to_null_coords(m.coords)))
            assert (rec - m).max_abs() <= 1e-12
        for _ in range(10):
            m = rotor_from_params(random_params("r66", rng)).g.to_matrix()
            rec = HMatrix.from_real_coords(from_null_coords(*to_null_coords(m.coords)))
            assert (rec - m).max_abs() <= 1e-12


def test_criterion_13_mass_operator():
    """13. Real and rotated-real momenta are real-spectrum; the mixed
    q0 u0 family is not; the real reduction is bit-exact Minkowski."""
    with _Timer("13 mass operator"):
        rng = random.Random(1301)
        space = get_space("m4")
        for _ in range(100):
            p = MomentumHM4(q=tuple(rng.uniform(-2, 2) for _ in range(4)))
            assert hermiticity_check(p)
        for _ in range(50):
            rotor = rotor_from_params(random_params("m4", rng))
            x = act(rotor, space.paravector([rng.uniform(0.5, 2), 0, 0, 0]))
            assert hermiticity_check(MomentumHM4(q=x.coords))
        for _ in range(50):
            q0, u0 = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
            assert not hermiticity_check(
                MomentumHM4(q=(q0, 0, 0, 0), u=(u0, 0, 0, 0))
            )
        for _ in range(100):
            q = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(4))
            assert mass_qform(MomentumHM4(q=q)) == space.paravector(q).qform()
