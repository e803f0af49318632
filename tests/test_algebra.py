"""Representations, geometric product, involutions, dimension counts."""

import copy
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hyperclifford
from hyperclifford.algebra import (
    REP_NAMES,
    AlgebraRep,
    Multivector,
    NonOrthogonalBasis,
    Signature,
    _Kernel,
    _blade_tables,
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
from hyperclifford.paravectors import SPACE_NAMES
from hyperclifford.scalars import BackendMismatch, HScalar
from oracles import (
    assert_canonical,
    basis_matrix,
    exact_coordinates,
    exact_element,
    from_coords,
    gp_blades_reference,
    layout_operands,
    negative_zeros,
    oracle_tests,
    random_mv,
    real_only_mv,
    same_bits,
    signed_zero_matrix,
    sparse_mv,
    unit_product,
    within,
)

globals().update(oracle_tests(__name__))  # this module's rows of oracles.ORACLES


@pytest.mark.parametrize("name", REP_NAMES)
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


@pytest.mark.parametrize("name", REP_NAMES)
def test_a_basis_product_takes_only_exact_elements_that_are_one_signed_unit(name):
    rep = get_rep(name)
    last = rep._element(len(rep.basis) - 1, [1], 1)
    stranger = get_rep("r10" if name == "r01" else "r01").scalar(1)
    for other in (rep.scalar(1) + last, last.scale(2), last.to_float(), rep.scalar(Fraction(1, 2)), stranger):
        for a, b in ((last, other), (other, last)):
            with pytest.raises(ValueError, match=f"not two elements of {name} that are"):
                rep._basis_product(a, b)


def test_building_every_representation_and_space_compiles_no_kernel():
    # a fresh interpreter, so no product of an earlier test has compiled a kernel
    src = str(Path(hyperclifford.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hyperclifford\n"
            "from hyperclifford.algebra import REP_NAMES, get_rep\n"
            "from hyperclifford.paravectors import SPACE_NAMES, get_space\n"
            "reps = [get_rep(name) for name in REP_NAMES]\n"
            "spaces = [get_space(name) for name in SPACE_NAMES]\n"
            "kernels = [key for space in spaces for key, value in vars(space).items() if callable(value)]\n"
            "maps = [vars(table) for table in [rep._coord_table for rep in reps] + [s._slot_pairs for s in spaces]]\n"
            "print(len(spaces), [vars(rep._product) for rep in reps], kernels, maps)")
    done = subprocess.run([sys.executable, "-B", "-c", code, src], capture_output=True, text=True, timeout=120)
    # no blade product, unit-slot product or coordinate map is compiled
    products, maps = [{}] * len(REP_NAMES), [{}] * (len(REP_NAMES) + len(SPACE_NAMES))
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{len(SPACE_NAMES)} {products} [] {maps}\n", "")


def test_set_up_calls_no_blade_mul_and_builds_each_generator_sets_blade_matrices_once():
    # a fresh interpreter, so no representation is built yet: the blade
    # tables come from bitmasks, and each twin takes its real twin's
    # generator tuple and coordinate tables, multiplying and scaling no
    # matrix
    src = str(Path(hyperclifford.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from hyperclifford import algebra\n"
            "from hyperclifford.matrices import HMatrix\n"
            "from hyperclifford.paravectors import SPACE_NAMES, get_space\n"
            "calls = {'blade_mul': 0, 'matmul': 0, 'scale': 0}\n"
            "def counted(key, f):\n"
            "    def call(*args):\n"
            "        calls[key] += 1\n"
            "        return f(*args)\n"
            "    return call\n"
            "algebra.blade_mul = counted('blade_mul', algebra.blade_mul)\n"
            "HMatrix.__matmul__ = counted('matmul', HMatrix.__matmul__)\n"
            "HMatrix.scale = counted('scale', HMatrix.scale)\n"
            "twins = []\n"
            "for real, twin in (('r05', 'h05bar'), ('r30', 'c30bar'), ('r10', 'c10bar')):\n"
            "    algebra.get_rep(real)\n"
            "    before = dict(calls)\n"
            "    algebra.get_rep(twin)\n"
            "    twins.append((twin, calls['matmul'] - before['matmul'], calls['scale'] - before['scale']))\n"
            "reps = [algebra.get_rep(name) for name in algebra.REP_NAMES]\n"
            "spaces = [get_space(name) for name in SPACE_NAMES]\n"
            "info = algebra._blade_tables.cache_info()\n"
            "print(calls['blade_mul'], calls['matmul'] > 0, twins, info.hits, info.misses)")
    done = subprocess.run([sys.executable, "-B", "-c", code, src], capture_output=True, text=True, timeout=120)
    # r01, r10, r30 and r05 read their generators' tables; c10bar, c30bar
    # and h05bar find them cached
    twins = [("h05bar", 0, 0), ("c30bar", 0, 0), ("c10bar", 0, 0)]
    assert (done.returncode, done.stdout, done.stderr) == (0, f"0 True {twins} 3 4\n", "")


def test_generators_are_validated_naming_the_representation_before_and_after_a_valid_twin():
    gens = [pauli2(k).scale(HScalar.unit("j")) for k in (1, 2, 3)]
    for _ in range(2):  # the second time the valid set on Signature(3, 0) is cached
        with pytest.raises(ValueError, match=r"^generator 3 squares incorrectly in wrong-square$"):
            AlgebraRep("wrong-square", Signature(2, 1), gens)
        with pytest.raises(ValueError, match=r"^generators 1,2 fail to anticommute in commuting$"):
            AlgebraRep("commuting", Signature(3, 0), [gens[0], gens[0], gens[2]])
        AlgebraRep("twin", Signature(3, 0), gens)
    # the valid set is read once: a j twin on it hits the cache and moves its tables
    info = _blade_tables.cache_info()
    twin = AlgebraRep("twin", Signature(3, 0), gens, adjoined="j")
    assert _blade_tables.cache_info()[:2] == (info.hits + 1, info.misses)
    assert twin._coord_table == get_rep("c30bar")._coord_table


def test_a_generator_of_another_size_names_itself_and_the_representation():
    # the second generator is the 1x1 j beside a 2x2 first
    gens = [pauli2(1).scale(HScalar.unit("j")), get_rep("r10").gens[0]]
    with pytest.raises(ValueError, match=r"^generator 2 is not an exact 2x2 matrix in mixed-size$"):
        AlgebraRep("mixed-size", Signature(2, 0), gens)


def test_a_float_generator_names_itself_and_the_representation():
    gens = [pauli2(k).scale(HScalar.unit("j")) for k in (1, 2)]
    with pytest.raises(ValueError, match=r"^generator 1 is not an exact 2x2 matrix in float$"):
        AlgebraRep("float", Signature(2, 0), [gens[0].to_float(), gens[1]])


def test_a_generator_that_is_not_a_matrix_raises_type_error_naming_the_representation():
    # first (it gives the size) or second
    g = pauli2(1).scale(HScalar.unit("j"))
    for k, gens in ((1, ["e1", g]), (2, [g, "e2"])):
        with pytest.raises(TypeError, match=rf"^generator {k} \('e{k}'\) is not an HMatrix in not-a-matrix$"):
            AlgebraRep("not-a-matrix", Signature(2, 0), gens)


def test_a_generator_count_other_than_the_signatures_names_the_representation():
    gens = [pauli2(k).scale(HScalar.unit("j")) for k in (1, 2, 3)]
    for _ in range(2):  # the second time the valid set on Signature(3, 0) is cached
        with pytest.raises(ValueError, match=r"^2 generators for a signature of 3 in too-few$"):
            AlgebraRep("too-few", Signature(3, 0), gens[:2])
        with pytest.raises(ValueError, match=r"^4 generators for a signature of 3 in too-many$"):
            AlgebraRep("too-many", Signature(3, 0), [*gens, gens[0]])
        AlgebraRep("valid", Signature(3, 0), gens)


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


@pytest.mark.parametrize("name", REP_NAMES)
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
            assert (got == want) if rep.adjoined != "j" else within(1e-14)(got, want)
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
    assert not within(2.0)(mv, rep.decompose(HMatrix.zeros(2, exact=False)))


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


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", REP_NAMES)
def test_coordinate_layout_matches_per_blade_references(name, exact):
    rep = get_rep(name)
    rng = random.Random(f"layout-{name}-{exact}")
    for _ in range(4):
        for mv in layout_operands(rep, exact, rng):
            assert Multivector(rep, {(): HScalar.make(exact=exact), **mv.coeffs}) == mv
            for kind in ("bar", "dagger", "hat"):
                assert same_bits(mv.involution(kind), involution_reference(mv, kind))
            if mv.is_exact:
                assert rep.decompose(mv.to_matrix()) == mv


def test_involution_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown involution"):
        get_rep("r30").scalar(0).involution("tilde")


@pytest.mark.parametrize("name", REP_NAMES)
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


def assert_table_read_off_basis_matrices(rep):
    """The derived table equals the table read off the basis matrices."""
    assert len(rep._coord_table) == len(rep.basis)
    for key, pairs in zip(rep.basis, rep._coord_table):
        m = basis_matrix(rep, key)
        assert pairs == tuple((idx, c) for idx, c in enumerate(m.nums) if c) and m.den == 1
        assert len(pairs) == rep.n
        coords = [Fraction(0)] * (4 * rep.n * rep.n)
        for idx, sign in pairs:
            assert sign in (1, -1)
            coords[idx] = Fraction(sign)
        assert HMatrix.from_real_coords(coords) == m


@pytest.mark.parametrize("name", REP_NAMES)
def test_coord_map_rebuilds_basis_matrices(name):
    assert_table_read_off_basis_matrices(get_rep(name))


def test_an_adjoined_i_negates_the_i_parts_it_meets():
    # no named representation adjoins i to blades with i parts (c10bar's are
    # 1 and j), so r30's generators carry the rule i i = -1 here: j sigma_2
    # has ij parts, and i ij = -j
    gens = [pauli2(k).scale(HScalar.unit("j")) for k in (1, 2, 3)]
    rep = AlgebraRep("r30 with i", Signature(3, 0), gens, adjoined="i")
    signs = {u: [sign for _, sign in rep._coord_table[rep.basis.index(((2,), u))]] for u in rep.units}
    assert signs == {"1": [-1, 1], "i": [1, -1]}
    assert_table_read_off_basis_matrices(rep)


def test_basis_entries_must_be_signed_units():
    # squares to +1 and pairs orthogonally with the identity, but its
    # entries 2 and 1/2 are not units
    from hyperclifford.algebra import AlgebraRep

    skew = HMatrix([[HScalar.exact(0), HScalar.exact(2)], [HScalar.exact(Fraction(1, 2)), HScalar.exact(0)]])
    assert skew @ skew == HMatrix.identity(2)
    message = r"^basis element \(\(1,\), '1'\) is not a signed-unit monomial matrix in skew$"
    for _ in range(2):  # the second time a valid 2x2 set on Signature(1, 0) is cached
        for adjoined in ("", "j"):
            with pytest.raises(ValueError, match=message):
                AlgebraRep("skew", Signature(1, 0), [skew], adjoined=adjoined)
        AlgebraRep("valid", Signature(1, 0), [HMatrix.identity(2).scale(HScalar.unit("j"))])


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
    rng = random.Random("test_gp_matrix_route_matches_blade_route")
    for name in ("r30", "c30bar", "r05", "h05bar", "c10bar"):
        rep = get_rep(name)
        for _ in range(100):
            u, v = random_mv(rep, False, rng), random_mv(rep, False, rng)
            assert within(1e-11)(u.gp(v), u.gp_blades(v))


def test_gp_exact_routes_agree_bitwise():
    rng = random.Random("test_gp_exact_routes_agree_bitwise")
    rep = get_rep("h05bar")
    for _ in range(20):
        u, v = random_mv(rep, True, rng), random_mv(rep, True, rng)
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
    rng = random.Random("test_involution_product_rules")
    for name in ("r30", "h05bar"):
        rep = get_rep(name)
        for _ in range(50):
            u, v = random_mv(rep, False, rng), random_mv(rep, False, rng)
            uv = u.gp_blades(v)
            assert within(1e-12)(uv.dagger(), v.dagger().gp_blades(u.dagger()))
            assert within(1e-12)(uv.hat(), u.hat().gp_blades(v.hat()))
            assert within(1e-12)(uv.bar(), v.bar().gp_blades(u.bar()))


def test_bar_is_hat_then_dagger():
    rng = random.Random("test_bar_is_hat_then_dagger")
    for name in ("r01", "r10", "c10bar", "r30", "c30bar", "r05", "h05bar"):
        rep = get_rep(name)
        for _ in range(20):
            u = random_mv(rep, True, rng)
            assert u.bar() == u.hat().dagger()
            assert u.bar() == u.dagger().hat()


def test_bar_equals_matrix_adjoint():
    rng = random.Random("test_bar_equals_matrix_adjoint")
    for name in REP_NAMES:
        rep = get_rep(name)
        for _ in range(20):
            u = random_mv(rep, True, rng)
            assert u.bar().to_matrix() == u.to_matrix().adjoint()


def test_decompose_recovers_bivector():
    # i sigma_3 (2x2) is the blade e1 e2
    rep = get_rep("r30")
    m = pauli2(3).scale(HScalar.unit("i"))
    mv = rep.decompose(m)
    assert mv == rep.blade((1, 2))


def test_decompose_roundtrip():
    rng = random.Random("test_decompose_roundtrip")
    for name in ("r30", "h05bar"):
        rep = get_rep(name)
        for _ in range(50):
            u = random_mv(rep, False, rng)
            again = rep.decompose(u.to_matrix())
            assert within(1e-12)(again, u)


def test_decompose_identity():
    rep = get_rep("r05")
    assert rep.decompose(HMatrix.identity(4)) == rep.scalar(1)


def test_porteous_2x2():
    idm = HMatrix.identity(2)
    assert porteous_conjugate_2x2(idm) == idm
    for k in (1, 2, 3):
        assert porteous_conjugate_2x2(pauli2(k)) == -pauli2(k)


def test_porteous_4x4_against_grade_rules():
    rng = random.Random("test_porteous_4x4_against_grade_rules")
    rep = get_rep("r05")
    for _ in range(25):
        u = random_mv(rep, True, rng)
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
                assert within(1e-15 * (1.0 + m.max_abs()))(got, want)
            if name == "h05bar":
                assert got == porteous_dagger_4x4(m)


def test_matrix_dagger_rejects_another_size():
    # the sign map keeps its operand's size, so a 2x2 matrix would come back
    # as a 2x2 matrix of four coordinates
    for name, other in (("c10bar", 2), ("c30bar", 4), ("h05bar", 2)):
        with pytest.raises(ValueError, match=f"takes .* matrices, not {other}x{other}"):
            get_rep(name).dagger_matrix(HMatrix.identity(other))


def test_decompose_rejects_another_size():
    # the gather read a larger matrix's first entries and indexed past a smaller one
    for name, other in (("c10bar", 2), ("c30bar", 1), ("r05", 2), ("h05bar", 2)):
        rep = get_rep(name)
        with pytest.raises(ValueError, match=f"^{name} takes {rep.n}x{rep.n} matrices, not {other}x{other}$"):
            rep.decompose(HMatrix.identity(other))


@pytest.mark.parametrize("name", ["r01", "r10", "r30", "r05"])
def test_matrix_dagger_needs_a_full_ring_representation(name):
    rep = get_rep(name)
    with pytest.raises(ValueError, match="not a signed permutation"):
        rep.dagger_matrix(HMatrix.identity(rep.n))


def sources(f, n):
    """The source coordinate of each output coordinate of the signed map
    ``f``, read off its image of the exact matrix of coordinates 1 .. 4n^2."""
    return [abs(x) - 1 for x in f(HMatrix._new(n, range(1, 4 * n * n + 1), 1)).nums]


def assert_zeros_keep_their_sign(f, n, rng):
    """Each zero part of the signed map ``f``'s image of random matrices with
    signed zeros is its source part, to the bit."""
    src = sources(f, n)
    for _ in range(20):
        m = signed_zero_matrix(n, rng)
        got = f(m).nums
        zeros = [k for k, c in enumerate(got) if not c]
        assert same_bits([got[k] for k in zeros], [m.nums[src[k]] for k in zeros])


def test_porteous_maps_keep_the_sign_of_every_zero():
    # the entry loop negated whole entries, so the identity's +0.0 parts
    # came back -0.0; a sign map negates non-zero parts only
    rng = random.Random(40)
    for f, n in ((porteous_conjugate_2x2, 2), (porteous_dagger_4x4, 4), (porteous_hat_4x4, 4)):
        assert same_bits(f(HMatrix.identity(n, exact=False)), HMatrix.identity(n, exact=False))
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


# -- the exact integer form against per-coordinate Fraction references ---------


@settings(max_examples=15, deadline=None)
@given(data=st.data(), name=st.sampled_from(REP_NAMES))
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
    basis = [basis_matrix(rep, key).coords for key in rep.basis]
    check(u.to_matrix(), [sum(col) for col in zip(*([c * x for x in b] for c, b in zip(cu, basis)))])
    # each basis matrix's pairing with the matrix over its own pairing
    check(rep.decompose(HMatrix.from_real_coords(cm)),
          [sum(map(mul, b, cm)) / sum(map(mul, b, b)) for b in basis])
    check(u.gp_blades(v), gp_blades_reference(u, v).coords)
    # the scalar times each blade's coefficient
    z = rep._coeff(cz)
    check(u.scale(z), [(z * rep._coeff(cu[k:k + w])).coeffs()[s] for k in range(0, len(cu), w) for s in rep._spots])
