"""Every kernel of the library next to its oracle, in one table.

A kernel is code that replaced a loop for speed: generated straight-line
code, a sign map, a gather or scatter over a fixed table, the integer form
of the exact backend.  The loop it replaced is kept here, once, as its
oracle, and :data:`ORACLES` pairs the two.  A new kernel adds a row there,
not a helper.  A row (:data:`Row`) holds:

- ``kernel``: the library functions under test as ``module.qualname``,
  space separated: the first is called on each case (unless ``call`` is
  given), the others are those it runs through.  ``test_oracles`` fails
  when a function that runs a fixed-table primitive is named by no row;
- ``oracle``: the kept loop, called on the same case;
- ``sampler``: ``sampler(over, exact)``, the list of cases, each a tuple
  of arguments, drawn from a seeded ``random.Random``;
- ``over``: the representations, spaces or sizes it runs on;
- ``backends``: ``True`` (exact), ``False`` (float), or ``None`` when the
  kernel has no backend or the sampler draws both;
- ``compare``: :func:`same_bits`, :func:`same_nonzero_bits`,
  :func:`same_values` or :func:`within`.

The rows sit under the name of the test that runs them, which
:func:`oracle_tests` builds in its module.  The comparisons read a stored value's denominator and numbers, so
an exact result equal to its oracle's (canonical) value is canonical.
Where the oracle raises an ``ArithmeticError`` the kernel must raise its
type.
"""

import importlib
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import combinations, permutations, product
from operator import add, mul, sub
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

import hyperclifford.rotors as rotors
from hyperclifford import checks
from hyperclifford.algebra import (
    _BLOCK,
    _CONJUGATE_SRC,
    _DAGGER_SRC,
    _HAT_SRC,
    REP_NAMES,
    AlgebraRep,
    Multivector,
    NonOrthogonalBasis,
    blade_mul,
    get_rep,
    involution_sign,
)
from hyperclifford.matrices import HMatrix, SingularMatrix, _product, _weighted_sum, pauli2, pauli4, sigma_ab
from hyperclifford.paravectors import SPACE_NAMES, Paravector, get_space
from hyperclifford.rotors import RotorParams, _exponent_terms
from hyperclifford.scalars import HScalar, RealCoords, _entering, _over_lcm, from_null_coords, to_null_coords

# -- the four comparisons ------------------------------------------------------


def _numbers(value) -> list:
    """A value as a flat list: a stored value's class, shape, denominator
    and stored numbers (so an exact value equal to a canonical one is
    canonical itself); an HScalar's class and four parts; a complex
    number's two parts; the items of a list or tuple in order, after their
    count."""
    if isinstance(value, RealCoords):
        return [value.__class__, getattr(value, value._shape), value.den, *value.nums]
    if isinstance(value, HScalar):
        return [HScalar, *value.coeffs()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [len(value), *(x for v in value for x in _numbers(v))]
    return [value]


def _bits(x, keep_zero=True):
    if type(x) is float:
        return x.hex() if x or keep_zero else None
    return type(x), x


def same_bits(got, want, *case) -> bool:
    """Exact values have equal canonical ``nums`` and ``den``; floats match
    by ``float.hex`` on every part, the sign of a zero included."""
    return [_bits(x) for x in _numbers(got)] == [_bits(x) for x in _numbers(want)]


def same_nonzero_bits(got, want, *case) -> bool:
    """:func:`same_bits` on every part that is not a float zero; a float
    zero matches a float zero of either sign."""
    return [_bits(x, False) for x in _numbers(got)] == [_bits(x, False) for x in _numbers(want)]


def same_values(got, want, *case) -> bool:
    """Equal values of equal types, part by part, so a float ``0.0``
    equals ``-0.0``."""
    return [(type(x), x) for x in _numbers(got)] == [(type(x), x) for x in _numbers(want)]


def within(bound):
    """The comparison: parts of equal types, and the ``max_abs`` of the
    difference at most ``bound``, a number or a function of the case.  A
    NaN difference fails."""
    def close(got, want, *case):
        kinds = list(map(type, _numbers(got))) == list(map(type, _numbers(want)))
        return kinds and (got - want).max_abs() <= (bound(*case) if callable(bound) else bound)
    return close


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

# -- operands ------------------------------------------------------------------

SIZES = (1, 2, 4)  # the matrix sizes of the representations


def from_coords(rep, coords):
    """The element with the given coordinates, ints and Fractions or floats."""
    return Multivector._new(rep, *_entering(coords, rep.name))


def random_mv(rep, exact, rng):
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


def real_only_mv(rep, exact, rng):
    """A random element whose blade coefficients have no adjoined-unit part."""
    make = HScalar.exact if exact else HScalar.flt
    coeffs = {b: make(z.x) for b, z in random_mv(rep, exact, rng).coeffs.items()}
    return Multivector(rep, {(): HScalar.make(exact=exact), **coeffs})


def negative_zeros(mv):
    """The float element with every zero coordinate of ``mv`` written -0.0."""
    return from_coords(mv.rep, [x if x else -0.0 for x in mv.coords])


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


def exact_element(rep, values):
    """The exact element with the given ``{basis index: Fraction}``
    coordinates, the others zero."""
    coords = [Fraction(0)] * len(rep.basis)
    for k, x in values.items():
        coords[k] = x
    return from_coords(rep, coords)


def random_matrix(rep, exact, rng):
    """A matrix with every real coordinate random, most of them outside
    the span of the plain representations."""
    def part():
        if exact:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return rng.uniform(-2, 2)

    make = HScalar.exact if exact else HScalar.flt
    return HMatrix([[make(part(), part(), part(), part()) for _ in range(rep.n)] for _ in range(rep.n)])


def signed_zero_matrix(n, rng):
    """A float matrix of +0.0, -0.0 and other parts at random."""
    return HMatrix._new(n, signed_zero_coords(4 * n * n, rng), None)


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


def random_coords(space, rng, exact, density):
    def number():
        if rng.random() >= density:
            return Fraction(0) if exact else 0.0
        if exact:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return rng.uniform(-2, 2)

    return [number() for _ in range(space.dim)]


def signed_zero_coords(size, rng):
    return [rng.choice((0.0, -0.0, rng.uniform(-2, 2))) for _ in range(size)]


def random_params(space, rng):
    if space == "h1":
        return RotorParams.h1(rng.uniform(-math.pi, math.pi), rng.uniform(-2, 2))
    if space == "m4":
        return RotorParams.m4(
            phi=[rng.uniform(-math.pi, math.pi) for _ in range(3)],
            xi=[rng.uniform(-2, 2) for _ in range(3)],
        )
    phi = {p: rng.uniform(-math.pi, math.pi) for p in rng.sample(rotors._INDEX_PAIRS, 3)}
    if space == "e6":
        return RotorParams.e6(phi)
    xi = {p: rng.uniform(-1.5, 1.5) for p in rng.sample(rotors._INDEX_PAIRS, 3)}
    return RotorParams.r66(phi, xi)


def exponent_matrix(params: RotorParams) -> HMatrix:
    """The sum of the ``_exponent_terms``; no plane is the zero exponent."""
    terms, _ = _exponent_terms(params)
    if not terms:
        return HMatrix.zeros(4, exact=False)
    zs, sigmas = zip(*terms)
    return _weighted_sum([q for z in zs for q in z.coeffs()], None, sigmas)


def component_norm(x: HMatrix) -> float:
    """The larger 1-norm of x's two complex null components, the size that
    the series branch of mat_exp halves."""
    norms = []
    for parts in to_null_coords(x.coords):
        zs = list(map(complex, parts[0::2], parts[1::2]))
        norms.append(max(sum(map(abs, zs[c::x.n])) for c in range(x.n)))
    return max(norms)


# -- the oracles: blade products -----------------------------------------------


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


def summation_bound(u, v):
    """How far a float j-rep product may lie from the real-basis reference,
    which sums twice as many terms per coordinate: 4 n eps S per
    coordinate, for n blades and S the product of the operands' sums of
    |a| + |b| over their blades."""
    return 4 * len(u.rep.blades) * 2.0**-53 * sum(map(abs, u.coords)) * sum(map(abs, v.coords))


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


def signed_basis_pairs(name, exact):
    """Every ordered pair of the representation's exact elements that are
    +1 or -1 on one coordinate."""
    rep = get_rep(name)
    signed = [rep._element(k, [sign], 1) for k in range(len(rep.basis)) for sign in (1, -1)]
    return list(product(signed, repeat=2))


def scale_per_blade(mv, z):
    """The HScalar product of z with each blade's coefficient."""
    zero = HScalar.make(exact=mv.is_exact)
    return Multivector(mv.rep, {b: z * mv.coeffs.get(b, zero) for b in mv.rep.blades})


@cache
def per_term_pairs(name, exact):
    """Operand pairs of sparse, dense and real-only elements, swapped,
    barred, negated and with a zero, on floats also with zeros stored -0.0:
    those whose float product takes a j-rep's null split, and the others."""
    rep = get_rep(name)
    rng = random.Random(f"{name}-{exact}")
    split = rep.adjoined == "j" and not exact
    zero = rep.scalar(0, exact=exact)
    plain, joined = [], []
    for k in range(12):
        make = (sparse_mv, random_mv, real_only_mv)[k % 3]
        u, v = make(rep, exact, rng), make(rep, exact, rng)
        pairs = [(u, v), (v, u), (u.bar(), v), (-u, v.hat()), (zero, u), (u, zero)]
        if not exact:
            pairs += [(negative_zeros(u), v), (u, negative_zeros(v))]
        (joined if split and make is not real_only_mv else plain).extend(pairs)
    return plain, joined


def integer_edge_pairs(name, exact):
    """Exact operands that stress the integer contraction over one common
    denominator per operand: coprime denominators near 10**9 and 2**61,
    a coordinate of 10**-400, cancelling terms and zeros."""
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
    return [
        (dense(coprime), dense(coprime)),
        (tiny, dense(small)), (dense(small), tiny), (tiny, tiny),
        (plus, minus), (minus, plus),
        (zero, dense(small)), (dense(coprime), zero), (zero, zero),
        (exact_element(rep, {last: x}), exact_element(rep, {last: Fraction(-5, 11)})),
        (exact_element(rep, {0: Fraction(2, 9)}), dense(coprime)),
        (dense(coprime), exact_element(rep, {last: Fraction(1, 10**400)})),
    ]


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


def kernel_pairs(name, exact):
    """600 random pairs at four densities, then operands at the edges of the
    kernel's blocks on either side of a dense one, with themselves and
    with the next."""
    rep = get_rep(name)
    rng = random.Random(f"kernel-loop-{name}-{exact}")
    pairs = [tuple(kernel_operand(rep, exact, density, rng) for _ in range(2))
             for density in (0.05, 0.3, 0.7, 1.0) for _ in range(150)]
    edges = [Multivector._new(rep, nums, rng.randint(1, 10**12) if exact else None)
             for nums in block_edge_operands(rep, exact, rng)]
    dense = kernel_operand(rep, exact, 1.0, rng)
    pairs += [pair for u in edges for pair in ((u, dense), (dense, u), (u, u))]
    return pairs + list(zip(edges, edges[1:]))


@cache
def scale_cases(over, exact):
    """Elements times a full scalar on the rep's unit, a real one and zero:
    those whose float product takes a j-rep's null split, and the others."""
    name, unit = over
    rep = get_rep(name)
    rng = random.Random(f"scale-{name}-{exact}")
    zero = HScalar.make(exact=exact)
    cases = []
    for k in range(9):
        mv = (sparse_mv, random_mv, real_only_mv)[k % 3](rep, exact, rng)
        a, b = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) if exact else rng.uniform(-2, 2)
                for _ in range(2))
        for z in (HScalar.make(a, exact=exact) + HScalar.make(b, exact=exact) * HScalar.unit(unit, exact),
                  HScalar.make(a, exact=exact), zero):
            cases.append((mv, z))
    return ([], cases) if unit == "j" and not exact else (cases, [])


# -- the oracles: involutions and signed maps ---------------------------------


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


def involution_cases(name, exact):
    rep, rng = get_rep(name), random.Random(f"sign-map-{name}-{exact}")
    return [(mv, kind) for _ in range(4) for mv in layout_operands(rep, exact, rng)
            for kind in ("bar", "dagger", "hat")]


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


def adjoint_reference(m):
    """The conjugate transpose entry by entry: entry (r, c) of the result is
    entry (c, r) with its i and j parts negated, a zero part kept as it is."""
    n, c = m.n, m.nums
    out = []
    for r in range(n):
        for col in range(n):
            k = 4 * (col * n + r)
            out += (c[k], *(-p if p else p for p in c[k + 1:k + 3]), c[k + 3])
    return HMatrix._new(n, out, m.den)


@cache
def entry_map_matrices(name, exact):
    """A dense, a sparse and the zero matrix of a rep; on floats also four
    of signed zeros: alone, and after their rep."""
    rep, rng = get_rep(name), random.Random(f"entry-maps-{name}-{exact}")
    mats = [random_mv(rep, exact, rng).to_matrix(), sparse_mv(rep, exact, rng).to_matrix(),
            HMatrix.zeros(rep.n, exact=exact)]
    if not exact:
        mats += [signed_zero_matrix(rep.n, rng) for _ in range(4)]
    return [(m,) for m in mats], [(rep, m) for m in mats]


def float_adjoint_cases(over, exact):
    """The identity of size 1, then matrices of size 1, 2 and 4 of +0.0,
    -0.0 and other parts."""
    rng = random.Random(39)
    return [(HMatrix.identity(1, exact=False),)] + [(signed_zero_matrix(n, rng),) for n in SIZES for _ in range(20)]


def exact_adjoint_cases(over, exact):
    rng, cases = random.Random(40), []
    for n in (1, 2, 4):
        for _ in range(20):
            den = rng.choice((1, 2, 6, 35))
            cases.append((HMatrix._new(n, [rng.choice((0, rng.randint(-9, 9))) for _ in range(4 * n * n)], den),))
    return cases


# -- the oracles: matrices of a representation --------------------------------


@cache
def basis_matrix(rep, key):
    """The matrix of the basis element ``key = (blade, unit)``: the blade's
    generators multiplied left to right from the identity, then scaled by
    the unit."""
    blade, unit = key
    m = reduce(HMatrix.__matmul__, (rep.gens[i - 1] for i in blade), HMatrix.identity(rep.n))
    return m.scale(HScalar.unit(unit))


def to_matrix_reference(mv):
    """The per-blade matrix sum: each blade's basis matrix scaled by its
    coefficient and added, starting from the zero matrix."""
    rep, exact = mv.rep, mv.is_exact
    acc = HMatrix.zeros(rep.n, exact=exact)
    for blade, z in mv.coeffs.items():
        m = basis_matrix(rep, (blade, "1"))
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
            b = basis_matrix(rep, (blade, unit))
            norm = HMatrix.real_pairing(b, b)
            num = HMatrix.real_pairing(b if exact else b.to_float(), m)
            parts[unit] = num / (norm if exact else float(norm))
        zero = parts["1"] - parts["1"]
        coeffs[blade] = HScalar(parts["1"], parts.get("i", zero), parts.get("j", zero), zero)
    return Multivector(rep, coeffs)


@cache
def matrix_route_cases(name, exact):
    """Zero, then sparse and dense elements, barred and negated, for
    to_matrix; the zero matrix, then their matrices, products and random
    matrices mostly outside the span, for decompose."""
    rep, rng = get_rep(name), random.Random(f"matrix-{name}-{exact}")
    mvs, mats = [(rep.scalar(0, exact=exact),)], [(rep, HMatrix.zeros(rep.n, exact=exact))]
    for k in range(8):
        make = random_mv if k % 2 else sparse_mv
        u, v = make(rep, exact, rng), make(rep, exact, rng)
        mvs += [(mv,) for mv in (u, v.bar(), -u)]
        mats += [(rep, m) for m in (u.to_matrix(), u.to_matrix() @ v.to_matrix(), random_matrix(rep, exact, rng))]
    return mvs, mats


# -- the oracles: coordinate maps -----------------------------------------------


def gather_loop(rep, m, table):
    """``AlgebraRep._gather`` as the loop over each entry's pairs that the
    generated ``gather`` replaced, kept as its oracle."""
    nums, exact = m.nums, m.is_exact
    n, zero = rep.n, 0 if exact else 0.0
    if m.n != n:
        raise ValueError(f"{rep.name} takes {n}x{n} matrices, not {m.n}x{m.n}")
    if not exact:
        nums = tuple(map((1.0 / n).__mul__, nums))
    out = []
    for pairs in table:
        total = zero
        for idx, sign in pairs:
            if sign > 0:
                total += nums[idx]
            else:
                total -= nums[idx]
        out.append(total)
    return out, m.den * n if exact else None


def scatter_loop(rep, table, nums, den):
    """``AlgebraRep._scatter`` as the loop that the generated ``scatter``
    replaced, kept as its oracle: each non-zero number added with the signs
    of its entry's pairs, in basis order."""
    flat = [0.0 if den is None else 0] * (4 * rep.n * rep.n)
    for pairs, c in zip(table, nums):
        if c:  # adding a zero changes no coordinate
            for idx, sign in pairs:
                if sign > 0:
                    flat[idx] += c
                else:
                    flat[idx] -= c
    return HMatrix._new(rep.n, flat, den)


def map_numbers(size, exact, kind, rng):
    """``size`` stored numbers and their denominator: exact numerators over
    6, a third of them zero; floats of ``kind`` ``plain``, ``zeros`` (signed
    zeros among them) or ``special`` (subnormal, huge, infinite and NaN
    parts among them)."""
    if exact:
        return [rng.choice((0, rng.randint(-30, 30))) for _ in range(size)], 6
    if kind == "plain":
        return [rng.uniform(-2, 2) for _ in range(size)], None
    if kind == "zeros":
        return signed_zero_coords(size, rng), None
    special = (2.0**-1040, -1e300, 1e300, math.inf, -math.inf, math.nan, -0.0)
    return [rng.choice(special) if rng.random() < 0.2 else rng.uniform(-2, 2) for _ in range(size)], None


@cache
def coordinate_map_cases(name, exact):
    """The cases of the generated maps of one table: a representation's
    coordinate table or a space's slot pairs.  Gather: ``(rep, matrix,
    table)``; scatter: ``(rep, table, numbers, den)``, zero operands first."""
    space = get_space(name) if name in SPACE_NAMES else None
    rep = space.rep if space else get_rep(name)
    table = space._slot_pairs if space else rep._coord_table
    rng, q, kinds = random.Random(f"maps-{name}-{exact}"), 4 * rep.n * rep.n, ("plain", "zeros", "special")
    gathers = [(rep, HMatrix.zeros(rep.n, exact=exact), table)]
    scatters = [(rep, table, [0 if exact else 0.0] * len(table), 1 if exact else None)]
    for k in range(12):
        nums, den = map_numbers(q, exact, kinds[k % 3], rng)
        gathers.append((rep, HMatrix._new(rep.n, nums, den), table))
        scatters.append((rep, table, *map_numbers(len(table), exact, kinds[k % 3], rng)))
    return gathers, scatters


class Form(dict):
    """A formal linear form ``{symbol: int coefficient}``, no coefficient
    zero.  Sums and differences of forms are exact, so a map made of them,
    run on one symbol per input, gives each output's terms."""

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        out = Form(self)
        for k, c in other.items():
            out[k] = out.get(k, 0) + sign * c
            if not out[k]:
                del out[k]
        return out


def symbols(size):
    """One formal symbol per input."""
    return [Form({i: 1}) for i in range(size)]


def formal_gather(table, size):
    """Per entry, the signed sum of the coordinates its pairs list."""
    return [Form({idx: sign for idx, sign in pairs}) for pairs in table]


def formal_scatter(table, size):
    """Per real coordinate, the signed sum of the entries whose pairs list it."""
    return [Form({k: sign for k, pairs in enumerate(table) for idx, sign in pairs if idx == out})
            for out in range(size)]


def formal_tables(name, _):
    """A representation's coordinate table or a space's slot pairs, with the
    number of real coordinates of their matrices."""
    if name in SPACE_NAMES:
        space = get_space(name)
        return [(space._slot_pairs, 4 * space.rep.n ** 2)]
    rep = get_rep(name)
    return [(rep._coord_table, 4 * rep.n ** 2)]


def pairwise_orthogonality(rep):
    """The check as it was, every pair of basis elements in order: the oracle."""
    keys = list(rep.basis)
    sparse = {k: dict(pairs) for k, pairs in zip(keys, rep._coord_table)}
    for a in range(len(keys)):
        va = sparse[keys[a]]
        for b in range(a + 1, len(keys)):
            vb = sparse[keys[b]]
            if sum(c * vb[idx] for idx, c in va.items() if idx in vb) != 0:
                raise NonOrthogonalBasis(f"basis elements {keys[a]} and {keys[b]} are not pairing-orthogonal")


def refusal(check, basis, table):
    """The message with which ``check`` refuses the coordinate table, or None."""
    try:
        check(SimpleNamespace(basis=basis, _coord_table=table))
    except NonOrthogonalBasis as exc:
        return str(exc)
    return None


def orthogonality_tables(name, _):
    """The rep's own coordinate table, which both checks pass (in c30bar,
    r05 and h05bar a real coordinate lies under several elements, whose
    pairings cancel), then 20 with coordinates of one element put onto
    another, at least 10 of them refused."""
    rep, rng = get_rep(name), random.Random(name)
    basis, table = rep.basis, rep._coord_table
    tables = [table]
    for _ in range(20):
        bad = list(table)
        for _ in range(rng.randint(1, 3)):
            target, source = rng.sample(range(len(basis)), 2)
            pairs = dict(bad[target])
            pairs.update(rng.sample(table[source], rng.randint(1, len(table[source]))))
            bad[target] = tuple(sorted(pairs.items()))
        tables.append(tuple(bad))
    refused = [refusal(AlgebraRep._validate_orthogonality, basis, t) is not None for t in tables]
    assert not refused[0] and sum(refused) >= 10
    return [(basis, t) for t in tables]


def randint_pairs(rng, count, top, dens):
    return [(rng.randint(-top, top), rng.randint(1, dens)) for _ in range(count)]


def old_random_mv(rep, rng):
    """The random multivector as drawn by uniform."""
    return Multivector._new(rep, [rng.uniform(-1.0, 1.0) for _ in rep.basis], None)


def drawn(sample, seed, *args, **kwargs):
    """What ``sample(rng, ...)`` returns from ``random.Random(seed)``, and
    the generator's state after it."""
    rng = random.Random(seed)
    return sample(rng, *args, **kwargs), rng.getstate()


def twenty(rng, name, draw):
    return [draw(get_rep(name), rng) for _ in range(20)]


# -- the oracles: ring matrices ------------------------------------------------


def kron_loop(a, b):
    """kron as it was, one HScalar product per pair of entries: the oracle.
    A float entry with a zero factor is ``+0.0`` in every part, as ``@``
    makes an entry with no non-zero term, where the product of the zero
    kept the sign IEEE gives it."""
    ra, rb = a.rows, b.rows  # the entry products check the backends
    parts = [p for row_a in ra for row_b in rb for za in row_a for zb in row_b for z in [za * zb]
             for p in ((0.0,) * 4 if not a.is_exact and (za.is_zero or zb.is_zero) else z.coeffs())]
    return HMatrix._new(a.n * b.n, *(_over_lcm(parts) if a.is_exact else (parts, None)))


# every pair of the identity and the 2x2 Pauli matrices, then 4x4 (x) 2x2
# and 2x2 (x) 4x4 with entries off the complex subring and over denominators
def kron_cases(over, exact):
    h = HScalar.exact
    cases = list(product([HMatrix.identity(2)] + [pauli2(k) for k in (1, 2, 3)], repeat=2)) + [
        (pauli4(8).scale(h(Fraction(1, 3), -2, Fraction(1, 2), 5)), pauli2(2).scale(h(0, Fraction(3, 4), -1))),
        (pauli2(3).scale(h(-1, 0, 0, Fraction(2, 7))), pauli4(14) + pauli4(1).scale(h(0, 0, Fraction(-5, 6)))),
    ]
    return cases if exact else [(a.to_float(), b.to_float()) for a, b in cases]


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


def entry_product(x, y):
    """One entry's product in every kernel: ``+0`` when a factor is zero."""
    return HScalar.make(exact=x.is_exact) if x.is_zero or y.is_zero else x * y


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


def fraction_product(a, b, rows, inner):
    """The ring product of an ``rows x inner`` and an ``inner x cols``
    matrix on flat lists of Fraction coordinates, one coordinate pair at a
    time: unit u1 times unit u2 is unit u1 ^ u2, negated when both have the
    i bit.  An HScalar's product is the 1 x 1 case."""
    cols = len(b) // (4 * inner)
    out = [Fraction(0)] * (4 * rows * cols)
    for r, k, c in product(range(rows), range(inner), range(cols)):
        for u1, u2 in product(range(4), repeat=2):
            term = a[4 * (r * inner + k) + u1] * b[4 * (k * cols + c) + u2]
            out[4 * (r * cols + c) + (u1 ^ u2)] += -term if u1 & u2 & 1 else term
    return out


@cache
def entry_kernel_cases(n, exact):
    """Random matrices on every subset of the units, dense and sparse, and
    the Pauli and sigma_ab matrices of the size; each with itself, its
    neighbours 1, 7 and 16 on and four random partners, times two scalars,
    and inverted: the pairs, the scalings and the inversions."""
    rng = random.Random(f"kernels-{n}-{exact}")
    pool = [random_hmatrix(n, units, exact, density, rng) for units in UNIT_SUBSETS for density in (1.0, 0.4)]
    fixed = {1: [], 2: [pauli2(k) for k in (1, 2, 3)]}.get(
        n, [pauli4(k) for k in range(1, 16)] + [sigma_ab(a, b) for a in range(6) for b in range(6) if a != b]
    )
    pool += [m if exact else m.to_float() for m in fixed]
    scalars = [random_scalar(units, exact, rng) for units in UNIT_SUBSETS]
    pairs, scaled = [], []
    for k, a in enumerate(pool):
        partners = [pool[(k + step) % len(pool)] for step in (0, 1, 7, 16)] + rng.sample(pool, 4)
        pairs += [(a, b) for b in partners]
        scaled += [(a, z) for z in (scalars[k % len(scalars)], rng.choice(scalars))]
    return pairs, scaled, [(a,) for a in pool]


def rectangular_cases(over, exact):
    """Rows of HScalars of every shape r x k times k x c up to 3, dense,
    half or all zero."""
    rng, cases = random.Random(f"product-{exact}"), []
    for r, k, c in product((1, 2, 3), repeat=3):
        for _ in range(12):
            density = rng.choice((1.0, 0.5, 0.0))
            a_rows, b_rows = (
                [[random_scalar(rng.choice(UNIT_SUBSETS) if rng.random() < density else (), exact, rng)
                  for _ in range(cols)] for _ in range(rows)]
                for rows, cols in ((r, k), (k, c))
            )
            cases.append((exact, r, k, a_rows, b_rows))
    return cases


def rectangular_product(exact, r, k, a_rows, b_rows):
    """``_product`` on the flat parts; the exact kernel takes int numerators
    and returns ints over ``da * db``, read back as Fractions."""
    a = [x for row in a_rows for z in row for x in z.coeffs()]
    b = [x for row in b_rows for z in row for x in z.coeffs()]
    if not exact:
        return _product(False, r, k, a, b)
    (a, da), (b, db) = _over_lcm(a), _over_lcm(b)
    out = _product(True, r, k, a, b)
    assert all(type(x) is int for x in out)
    return [Fraction(x, da * db) for x in out]


def weighted_cases(over, exact):
    """One to five random matrices of size 1, 2 and 4 with as many
    scalars, then 2 sigma_1 + 0 sigma_2."""
    rng, cases = random.Random(f"combine-{exact}"), []
    for n in (1, 2, 4):
        for count in (1, 3, 5):
            mats = [random_hmatrix(n, rng.choice(UNIT_SUBSETS), exact, 0.6, rng) for _ in range(count)]
            zs = [random_scalar(rng.choice(UNIT_SUBSETS), exact, rng) for _ in range(count)]
            cases.append((zs, mats))
    return cases + [([HScalar.exact(2), HScalar.exact(0)], [pauli2(1), pauli2(2)])]


def weighted_sum(zs, mats):
    a = [x for z in zs for x in z.coeffs()]
    return _weighted_sum(*(_over_lcm(a) if mats[0].is_exact else (a, None)), mats)


def rotor_matrices(space, exact):
    """The matrices of ten random rotors of the space and of their hats."""
    rng, cases = random.Random(f"inverse-{space}"), []
    for _ in range(10):
        g = checks._random_rotor(space, rng).g
        cases += [(g.to_matrix(),), (g.hat().to_matrix(),)]
    return cases


def fraction_scalar_cases(over, exact):
    """Zeros, unchecked int parts, the complex subring, numerators near
    10**30, and 300 rounds of mixed denominators."""
    rng = random.Random(13)
    big = 10**30

    def part(top, dens):
        return Fraction(rng.randint(-top, top), rng.randint(1, dens))

    h = HScalar.exact
    cases = [
        (h(0, 0, 0, 0), h(1, 2, 3, 4)),  # zero
        (h(0, 0, 0, 0), h(0, 0, 0, 0)),
        (HScalar(1, -2, 3, 0), HScalar(Fraction(1, 3), 5, 0, 7)),  # int parts, unchecked
        (h(Fraction(1, 2), Fraction(-1, 3), 0, 0), h(Fraction(5, 7), 2, 0, 0)),  # complex subring
        (h(big - 1, 0, Fraction(big + 3, big - 7), 0), h(Fraction(-big, 3), Fraction(1, big + 1), 0, big)),
    ]
    for _ in range(300):  # mixed denominators, complex-subring operands among them
        a = h(part(9, 7), part(9, 7), part(9, 7), part(9, 7))
        b = h(part(9, 5), part(9, 5), 0, 0)
        cases += [(a, b), (b, a), (b, b), (a, a)]
    for _ in range(50):  # numerators near 10**30
        cases.append((h(*(part(big, big) for _ in range(4))), h(*(part(big, 3) for _ in range(4)))))
    return cases


# -- the oracles: paravectors --------------------------------------------------


def alternating_sum_loop(*xs):
    """The sum over all k! permutations of the arguments, with sign, bars on
    the odd slots, over k!: the loop that ``_alternating_sum`` ran before it
    grouped its terms by slot pairs, kept as its oracle."""
    mvs = [x.to_multivector() for x in xs]
    k, total = len(mvs), None
    for perm in permutations(range(k)):
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        term = None
        for slot in range(k):
            f = mvs[perm[slot]].bar() if slot % 2 else mvs[perm[slot]]
            term = f if term is None else term.gp_blades(f)
        total = term if total is None else (total - term if inversions % 2 else total + term)
    return total.scale(Fraction(1, math.factorial(k)))


def wedge_arguments(space, k, exact, rng):
    """k random paravectors of one backend, some coordinates zero; then the
    same with the last argument repeating the first, and with the second
    argument zero."""
    def draw():
        if exact:
            return [rng.choice((0, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))) for _ in range(space.dim)]
        return [rng.choice((0.0, rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(space.dim)]

    xs = [space.paravector(draw()) for _ in range(k)]
    zero = space.paravector([0 if exact else 0.0] * space.dim)
    return [xs, xs[:-1] + xs[:1], xs[:1] + [zero] + xs[2:]]


@cache
def wedge_cases(name, exact):
    """Per wedge degree k, the arguments of two (exact) or four (float)
    rounds of :func:`wedge_arguments`."""
    space = get_space(name)
    rng = random.Random(f"wedge-{name}" if exact else f"float-wedge-{name}")
    return {k: [tuple(xs) for _ in range(2 if exact else 4) for xs in wedge_arguments(space, k, exact, rng)]
            for k in (2, 3, 4)}


def wedge_bound(*xs):
    """A grouped sum of the k! terms may move each coordinate by up to
    k * eps * (product over the arguments of the sum of |coordinates|),
    about ten times the largest move seen on these seeds."""
    return len(xs) * 2.0**-53 * math.prod(sum(map(abs, x.nums)) for x in xs)


def to_multivector_reference(space, x):
    """The scale-and-add route: each basis element scaled by its non-zero
    coordinate, summed as multivectors in coordinate order."""
    exact = not isinstance(x.coords[0], float)
    acc = space.rep.scalar(0, exact=exact)
    for b, c in zip(space.basis, x.coords):
        if c == 0:
            continue
        elem = b if exact else b.to_float()
        acc = acc + elem.scale(HScalar.make(c, exact=exact))
    return acc


def project_matrix_reference(space, m):
    """The real-pairing route for a float matrix: each coordinate is the
    pairing of m with its basis matrix over that matrix's norm, and the
    residual is taken against the sum of the basis matrices scaled by the
    coordinates."""
    basis = [e.to_matrix().to_float() for e in space.basis]
    coords = tuple(
        float(HMatrix.real_pairing(bm, m)) / float(HMatrix.real_pairing(bm, bm)) for bm in basis
    )
    acc = HMatrix.zeros(space.rep.n, exact=False)
    for bm, c in zip(basis, coords):
        acc = acc + bm.scale(HScalar.flt(c))
    return space.paravector(coords), (m - acc).max_abs()


@cache
def slot_cases(name, exact):
    """Dense, sparse and zero paravectors; on floats also the matrix of each
    and a random matrix mostly outside the span."""
    space, rng = get_space(name), random.Random(f"{name}-{exact}")
    size = 4 * space.rep.n * space.rep.n
    xs, mats = [], []
    for density in (1.0, 0.4, 0.0):
        for _ in range(15):
            x = space.paravector(random_coords(space, rng, exact, density))
            xs.append((space, x))
            if not exact:
                outside = HMatrix.from_real_coords([rng.uniform(-2, 2) for _ in range(size)])
                mats += [(space, x.to_multivector().to_matrix().to_float()), (space, outside)]
    return xs, mats


def project_sign_pass(space, m):
    """``project_matrix``'s paravector as the gather by basis index and the
    sign pass that ran before one gather along the slot pairs, kept as its
    oracle: each slot's coordinate gathered along its coordinate-table
    entry, then negated when the slot's sign is -1, a zero included."""
    rep = space.rep
    gathered, den = gather_loop(rep, m, [rep._coord_table[k] for k, _ in space._slots])
    return Paravector._new(space, [c if sign > 0 else -c for (_, sign), c in zip(space._slots, gathered)], den)


def sign_pass_cases(name, exact):
    """The matrices of dense, sparse and zero paravectors, and matrices of
    random coordinates: exact, or floats with signed zeros."""
    space, rng = get_space(name), random.Random(f"sign-pass-{name}-{exact}")
    size, cases = 4 * space.rep.n * space.rep.n, []
    for density in (1.0, 0.4, 0.0):
        for _ in range(5):
            x = space.paravector(random_coords(space, rng, exact, density))
            outside = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(size)] if exact \
                else signed_zero_coords(size, rng)
            cases += [(space, x.to_multivector().to_matrix()), (space, HMatrix.from_real_coords(outside))]
    return cases


def qform_reference(x):
    """``qform`` as the ring value of the whole blade product x * bar(x), the
    route that the unit-slot sums replaced, kept as their oracle."""
    mv = x.to_multivector()
    return x.space.ring_value(mv.gp_blades(mv.bar()))


def dot_reference(x, y):
    """``dot`` as the ring value of the two whole blade products, summed and
    scaled by one half, kept as the oracle of its unit-slot sums."""
    mx, my = x.to_multivector(), y.to_multivector()
    return x.space.ring_value((mx.gp_blades(my.bar()) + my.gp_blades(mx.bar())).scale(Fraction(1, 2)))


@cache
def unit_slot_cases(name, exact):
    """Dense, sparse and zero paravectors, and pairs of them: exact with
    denominators up to 10**6, or floats with signed zeros, subnormal, tiny
    and large coordinates."""
    space, rng = get_space(name), random.Random(f"unit-slots-{name}-{exact}")

    def number(density):
        if rng.random() >= density:
            return 0 if exact else rng.choice((0.0, -0.0))
        if exact:
            return rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))))
        scale = rng.choice((1.0, 1.0, 1.0, 2.0**-1040, 1e-300, 1e150))  # subnormal, tiny and large among them
        return rng.uniform(-2, 2) * scale

    xs = [space.paravector([number(density) for _ in range(space.dim)])
          for density in (1.0, 0.6, 0.3, 0.0) for _ in range(60)]
    return [(x,) for x in xs], [(x, y) for x, y in zip(xs, xs[1:] + xs[:1])] + [(x, x) for x in xs[::10]]


# -- the oracles: rotor series -------------------------------------------------


def loop_cmatmul(a: list, b: list, n: int) -> list:
    """The complex matmul that the generated series kernels replaced: their oracle."""
    cols = [b[c::n] for c in range(n)]
    return [sum(map(mul, row, col)) for row in zip(*[iter(a)] * n) for col in cols]


def horner_block(n, cs, a, b, c):
    """One Horner block as the loop summed it: ``sum(map(mul, cs, zs))`` per
    entry over the identity and three powers."""
    identity = [float(k % (n + 1) == 0) for k in range(n * n)]
    return [sum(map(mul, cs, zs)) for zs in zip(identity, a, b, c)]


def loop_mat_exp(x: HMatrix) -> HMatrix:
    """mat_exp as the loops computed it before the generated kernels: the
    same scaling and squaring, each product by :func:`loop_cmatmul` and each
    Horner block one ``sum(map(mul, cs, zs))`` per entry."""
    n, exps = x.n, []
    plus, minus = to_null_coords(x.coords)
    for parts in (plus,) if minus == plus else (plus, minus):
        a = list(map(complex, parts[0::2], parts[1::2]))
        norm, halvings = max(sum(map(abs, a[c::n])) for c in range(n)), 0
        while not norm <= rotors._HALF_AT:
            norm, halvings = norm * 0.5, halvings + 1
        a1 = [z * 0.5 ** halvings for z in a]
        a2 = loop_cmatmul(a1, a1, n)
        powers = ([float(k % (n + 1) == 0) for k in range(n * n)], a1, a2, loop_cmatmul(a2, a1, n))
        a4, acc, taylor = loop_cmatmul(a2, a2, n), None, rotors._TAYLOR
        for cs in (taylor[12:], taylor[8:12], taylor[4:8], taylor[:4]):
            block = [sum(map(mul, cs, zs)) for zs in zip(*powers)]
            acc = block if acc is None else list(map(add, loop_cmatmul(acc, a4, n), block))
        for _ in range(halvings):
            acc = loop_cmatmul(acc, acc, n)
        exps.append([q for z in acc for q in (z.real, z.imag)])
    return HMatrix._new(n, from_null_coords(exps[0], exps[-1]), None)


def random_complex(rng, m: int, sparse: bool) -> list:
    """m complex entries with 0j and signed-zero parts among them, mostly
    zero when ``sparse``."""
    def part():
        return rng.choice((0.0, -0.0, rng.uniform(-2, 2), rng.uniform(-2, 2) * 2.0 ** rng.randint(-60, 60)))
    return [0j if sparse and rng.random() < 0.7 else
            rng.choice((0j, complex(-0.0, -0.0), complex(part(), part()))) for _ in range(m)]


@cache
def series_cases(n, exact):
    """400 rounds of three complex n x n matrices, dense and sparse in
    turn, and four Horner coefficients: the products and the blocks."""
    rng, products, blocks = random.Random(100 + n), [], []
    for k in range(400):
        a, b, c = (random_complex(rng, n * n, sparse=k % 2 == 1) for _ in range(3))
        cs = [rng.uniform(-1, 1) for _ in range(4)]
        products.append((n, a, b))
        blocks.append((n, cs, a, b, c))
    return products, blocks


def mat_exp_cases(over, exact):
    """Seeded e6 and r66 exponents that take the series, m4 exponents and
    dense 2x2 matrices, each third one also scaled to just below, at and
    just above each halving threshold of its larger null component."""
    rng = random.Random(36)
    xs = [exponent_matrix(random_params(space, rng)) for space in ("e6", "r66", "m4") for _ in range(6)]
    xs += [HMatrix.from_real_coords([rng.uniform(-2, 2) for _ in range(16)]) for _ in range(6)]
    xs += [x.scale(HScalar.flt(side * 2.0**halvings / 2.0 / component_norm(x)))
           for x in xs[::3] for halvings in range(4) for side in (1 - 2.0**-30, 1.0, 1 + 2.0**-30)]
    return [(x,) for x in xs]


# -- the table -----------------------------------------------------------------


Row = namedtuple("Row", "kernel oracle sampler over backends compare call", defaults=(None,))
BOTH, EXACT, FLOAT, NONE = (False, True), (True,), (False,), (None,)
J_REPS = tuple(name for name in REP_NAMES if get_rep(name).adjoined == "j")
FULL_RING = ("c10bar", "c30bar", "h05bar")
SCALED = (("c10bar", "i"), ("c30bar", "j"), ("h05bar", "j"))
GP, MV, SPACE = "algebra.Multivector.gp_blades", "algebra.Multivector", "paravectors.ParavectorSpace"


def part(sampler, k):
    """The k-th list of cases of a sampler whose draws several rows share."""
    return lambda over, exact: sampler(over, exact)[k]


def by_scalar(reference):
    """A product oracle applied to an element and the element of a scalar."""
    return lambda mv, z: reference(mv, mv.rep.scalar(z))


def by_entry(op):
    """``op`` per entry of two matrices, on HScalar rows."""
    return lambda a, b: HMatrix([[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def wedge_rows(exact):
    """wedge2, wedge3 and wedge4 against the permutation sum on one backend."""
    return [Row(f"paravectors.wedge{k}", alternating_sum_loop, part(wedge_cases, k), SPACE_NAMES, (exact,),
                same_bits if exact or k == 2 else within(wedge_bound)) for k in (2, 3, 4)]


def map_rows(over):
    """The generated gather and scatter of each table (a representation's
    coordinate table or a space's slot pairs) against their loops."""
    return [Row("algebra.AlgebraRep._gather algebra._Table.gather", gather_loop, part(coordinate_map_cases, 0), over,
                BOTH, same_bits, call=lambda rep, m, table: rep._gather(m, table)),
            Row("algebra.AlgebraRep._scatter algebra._Table.scatter", scatter_loop, part(coordinate_map_cases, 1),
                over, BOTH, same_bits, call=lambda rep, table, nums, den: rep._scatter(table, nums, den))]


def proof_rows(over):
    """The generated gather and scatter of each table on formal operands,
    one symbol per input: every output is its table's signed sum, term for
    term, so the code computes the table on every exact operand.  The float
    rows of :func:`map_rows` hold the term order and the signed zeros."""
    return [Row("algebra._Table.gather algebra._linear", formal_gather, formal_tables, over, NONE, same_values,
                call=lambda table, size: table.gather(symbols(size), Form())),
            Row("algebra._Table.scatter algebra._linear", formal_scatter, formal_tables, over, NONE, same_values,
                call=lambda table, size: table.scatter(symbols(len(table)), Form()))]


# the rows of each test, by ``module::name``
ORACLES = {
    # -- blade products
    "test_algebra::test_gp_blades_matches_per_term_reference": [
        Row(GP, gp_blades_reference, part(per_term_pairs, 0), REP_NAMES, BOTH, same_values),
        Row(GP, gp_blades_null_reference, part(per_term_pairs, 1), J_REPS, FLOAT, same_bits),
        Row(GP, gp_blades_reference, part(per_term_pairs, 1), J_REPS, FLOAT, within(summation_bound))],
    "test_algebra::test_gp_blades_integer_kernel_edge_cases": [
        Row(GP, gp_blades_reference, integer_edge_pairs, REP_NAMES, EXACT, same_values)],
    "test_algebra::test_gp_blades_kernel_is_the_pair_loop": [
        Row(f"{GP} algebra._Kernel.product algebra._Kernel.joined", gp_blades_loop, kernel_pairs, REP_NAMES, BOTH,
            same_bits)],
    "test_algebra::test_a_product_of_basis_elements_is_its_blade_table_entry": [
        Row("algebra.AlgebraRep._basis_product", Multivector.gp_blades, signed_basis_pairs, REP_NAMES, EXACT,
            same_bits, call=lambda a, b: a.rep._basis_product(a, b))],
    "test_algebra::test_scale_is_the_per_blade_scalar_product": [
        Row(f"{MV}.scale", scale_per_blade, part(scale_cases, 0), SCALED, BOTH, same_values),
        Row(f"{MV}.scale", by_scalar(gp_blades_null_reference), part(scale_cases, 1), SCALED[1:], FLOAT, same_bits),
        Row(f"{MV}.scale", by_scalar(gp_blades_reference), part(scale_cases, 1), SCALED[1:], FLOAT,
            within(by_scalar(summation_bound)))],
    # -- involutions and fixed signed maps
    "test_algebra::test_involution_is_the_per_coordinate_comprehension": [
        Row(f"{MV}.involution", involution_comprehension, involution_cases, REP_NAMES, BOTH, same_bits)],
    "test_algebra::test_signed_entry_maps_are_their_loops": [
        Row("algebra.AlgebraRep.dagger_matrix", dagger_comprehension, part(entry_map_matrices, 1), FULL_RING, BOTH,
            same_nonzero_bits),
        Row("scalars.RealCoords.__neg__", negation_comprehension, part(entry_map_matrices, 0), FULL_RING, BOTH,
            same_nonzero_bits),
        Row("algebra.porteous_conjugate_2x2", partial(permute_reference, table=_CONJUGATE_SRC),
            part(entry_map_matrices, 0), ("c30bar",), BOTH, same_nonzero_bits),
        Row("algebra.porteous_dagger_4x4", partial(permute_reference, table=_DAGGER_SRC),
            part(entry_map_matrices, 0), ("h05bar",), BOTH, same_nonzero_bits),
        Row("algebra.porteous_hat_4x4", partial(permute_reference, table=_HAT_SRC, conjugate_entries=True),
            part(entry_map_matrices, 0), ("h05bar",), BOTH, same_nonzero_bits)],
    "test_matrices::test_float_adjoint_keeps_the_sign_of_every_zero": [
        Row("matrices.HMatrix.adjoint", adjoint_reference, float_adjoint_cases, NONE, FLOAT, same_bits),
        Row("matrices.HMatrix.adjoint", lambda m: m, float_adjoint_cases, NONE, FLOAT, same_bits,
            call=lambda m: m.adjoint().adjoint())],
    "test_matrices::test_exact_adjoint_is_canonical_and_the_stored_numerators_transposed": [
        Row("matrices.HMatrix.adjoint", adjoint_reference, exact_adjoint_cases, NONE, EXACT, same_bits)],
    # -- matrices of a representation
    "test_algebra::test_matrix_route_matches_per_blade_reference": [
        Row(f"{MV}.to_matrix algebra.AlgebraRep._scatter", to_matrix_reference, part(matrix_route_cases, 0),
            REP_NAMES, BOTH, same_values),
        Row("algebra.AlgebraRep.decompose algebra.AlgebraRep._gather", decompose_reference,
            part(matrix_route_cases, 1), REP_NAMES, BOTH, same_values)],
    "test_algebra::test_coordinate_maps_are_the_loops_bit_for_bit": map_rows(REP_NAMES),
    "test_algebra::test_coordinate_maps_are_their_tables_on_formal_operands": proof_rows(REP_NAMES),
    "test_algebra::test_a_non_orthogonal_basis_is_refused_at_the_pairwise_loops_first_pair": [
        Row("algebra.AlgebraRep._validate_orthogonality", partial(refusal, pairwise_orthogonality),
            orthogonality_tables, REP_NAMES, NONE, same_values,
            call=partial(refusal, AlgebraRep._validate_orthogonality))],
    # -- seeded draws of the checks
    # every (top, dens) that a check draws exact samples with, (9, 4) and
    # dens = 1, where randint(1, 1) still takes a bit
    "test_checks::test_pairs_drawn_from_raw_bits_are_the_randint_pairs": [
        Row("checks._draw_pairs", partial(drawn, randint_pairs), lambda pair, _: [(s, 300, *pair) for s in range(3)],
            ((4, 3), (9, 4), (6, 3), (3, 2), (8, 3), (4, 1)), NONE, same_values,
            call=partial(drawn, checks._draw_pairs))],
    "test_checks::test_random_multivectors_are_drawn_as_randint_and_uniform_draw_them": [
        Row("checks._random_mv", partial(drawn, twenty, draw=old_random_mv),
            lambda name, _: [(seed, name) for seed in range(3)], REP_NAMES, NONE,
            same_bits, call=partial(drawn, twenty, draw=checks._random_mv))],
    # -- ring matrices
    "test_matrices::test_kron_is_the_per_entry_loop": [
        Row("matrices.kron", kron_loop, kron_cases, NONE, BOTH, same_bits)],
    "test_matrices::test_kernels_match_per_entry_reference": [
        Row("matrices.HMatrix.__matmul__", lambda a, b: HMatrix.from_real_coords(product_reference(a.rows, b.rows)),
            part(entry_kernel_cases, 0), SIZES, BOTH, same_bits),
        Row("scalars.RealCoords.__add__", by_entry(add), part(entry_kernel_cases, 0), SIZES, BOTH, same_bits),
        Row("scalars.RealCoords.__sub__", by_entry(sub), part(entry_kernel_cases, 0), SIZES, BOTH, same_bits),
        Row("matrices.HMatrix.scale", lambda m, z: HMatrix([[entry_product(z, a) for a in row] for row in m.rows]),
            part(entry_kernel_cases, 1), SIZES, BOTH, same_bits),
        Row("matrices.HMatrix.inverse", inverse_reference, part(entry_kernel_cases, 2), SIZES, BOTH, same_bits)],
    "test_matrices::test_inverse_matches_reference_on_rotor_matrices": [
        Row("matrices.HMatrix.inverse", inverse_reference, rotor_matrices, ("m4", "e6", "r66"), FLOAT, same_bits)],
    "test_matrices::test_rectangular_product_matches_per_entry_reference": [
        Row("matrices._product", lambda exact, r, k, a, b: product_reference(a, b), rectangular_cases, NONE, BOTH,
            same_bits, call=rectangular_product)],
    "test_matrices::test_weighted_sum_is_the_sum_of_scaled_matrices": [
        Row("matrices._weighted_sum", lambda zs, mats: HMatrix.from_real_coords(product_reference([zs], [
            [e for row in m.rows for e in row] for m in mats])), weighted_cases, NONE, BOTH, same_bits,
            call=weighted_sum)],
    "test_scalars::test_exact_product_matches_the_fraction_formula": [
        Row("scalars.HScalar.__mul__", lambda a, b: HScalar(*fraction_product(a.coeffs(), b.coeffs(), 1, 1)),
            fraction_scalar_cases, NONE, EXACT, same_values)],
    # -- paravectors
    "test_paravectors::test_exact_wedges_are_the_permutation_sum": wedge_rows(True),
    "test_paravectors::test_float_wedges_are_the_permutation_sum_within_rounding": wedge_rows(False),
    "test_paravectors::test_slot_route_matches_reference": [
        Row(f"{SPACE}.to_multivector", to_multivector_reference, part(slot_cases, 0), SPACE_NAMES, BOTH, same_values),
        Row(f"{SPACE}.project_matrix {SPACE}.to_matrix", project_matrix_reference, part(slot_cases, 1), SPACE_NAMES,
            BOTH, same_values)],
    "test_paravectors::test_qform_and_dot_sum_only_the_unit_slots_of_the_blade_product": [
        Row(f"paravectors.{kernel} {SPACE}._unit_numbers {SPACE}._unit_product algebra._Kernel.restricted", oracle,
            part(unit_slot_cases, k), SPACE_NAMES, (exact,), same_values if exact else same_bits)
        for k, (kernel, oracle) in enumerate((("Paravector.qform", qform_reference), ("dot", dot_reference)))
        for exact in (False, True)],
    "test_paravectors::test_slot_maps_are_the_loops_bit_for_bit": map_rows(SPACE_NAMES),
    "test_paravectors::test_slot_maps_are_their_tables_on_formal_operands": proof_rows(SPACE_NAMES),
    "test_paravectors::test_projection_is_the_sign_pass_on_non_zero_parts": [
        Row(f"{SPACE}.project_matrix", project_sign_pass, sign_pass_cases, SPACE_NAMES, BOTH, same_nonzero_bits,
            call=lambda space, m: space.project_matrix(m)[0])],
    # -- rotor series
    "test_rotors::test_series_kernels_are_the_loops_bit_for_bit": [
        Row("rotors._kernels", lambda n, a, b: loop_cmatmul(a, b, n), part(series_cases, 0), SIZES, FLOAT, same_bits,
            call=lambda n, a, b: rotors._kernels(n)[0](a, b)),
        Row("rotors._kernels", horner_block, part(series_cases, 1), SIZES, FLOAT, same_bits,
            call=lambda n, cs, a, b, c: rotors._kernels(n)[1](*cs, a, b, c))],
    "test_rotors::test_mat_exp_is_the_loop_series_bit_for_bit": [
        Row("rotors.mat_exp", loop_mat_exp, mat_exp_cases, NONE, FLOAT, same_bits)],
}

# -- the runner ----------------------------------------------------------------


def kernel_function(name: str):
    """The library object ``module.qualname`` names."""
    module, *path = name.split(".")
    return reduce(getattr, path, importlib.import_module(f"hyperclifford.{module}"))


def run(rows, over, exact):
    """Every case of every row: the kernel against the oracle.  A test with
    no case at all fails."""
    cases = 0
    for row in rows:
        call = row.call or kernel_function(row.kernel.split()[0])
        for case in row.sampler(over, exact):
            cases += 1
            try:
                want = row.oracle(*case)
            except ArithmeticError as exc:
                with pytest.raises(ArithmeticError) as raised:
                    call(*case)
                assert type(raised.value) is type(exc)
                continue
            assert row.compare(call(*case), want, *case), row.kernel
    assert cases


def oracle_tests(module: str) -> dict:
    """The tests of ``module`` that run rows of :data:`ORACLES`, by name."""
    module = module.rpartition(".")[2]
    return {test.partition("::")[2]: _test(rows) for test, rows in ORACLES.items() if test.startswith(module + "::")}


def _test(rows):
    """One test of ``rows``, parametrized over their ``over`` and, when they
    take both, the backends: ids such as ``r30-float``, ``4-exact`` or
    ``c10bar-i-float``."""
    both = len({b for row in rows for b in row.backends}) > 1
    params = list(dict.fromkeys((over, b) for row in rows for over in row.over for b in row.backends))
    ids = [_param_id(over, b, both) for over, b in params]

    def test(over, exact):
        run([row for row in rows if over in row.over and exact in row.backends], over, exact)

    if ids == [""]:
        return lambda: test(*params[0])
    return pytest.mark.parametrize("over, exact", params, ids=ids)(test)


def _param_id(over, exact, both) -> str:
    parts = list(over) if isinstance(over, tuple) else [] if over is None else [over]
    return "-".join(map(str, parts + (["exact" if exact else "float"] if both else [])))
