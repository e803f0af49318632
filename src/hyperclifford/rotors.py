"""Rotor construction, the rotation action, and generator verification.

A rotor is a group element g with g*bar(g) = 1 acting on paravectors by
x -> g x dagger(g), which preserves the quadratic form.  Rotors are built
as exponentials

    h1   g = exp(-i phi/2 + j xi/2)                      scalars
    m4   g = exp(-i phi/2 + j xi/2),  phi = sum phi_k sigma_k   (2x2)
    e6   g = exp(-i phi/2),           phi = sum phi_ab sigma_ab (4x4)
    r66  g = exp(-i phi/2 + j xi/2)   both index families       (4x4)

on a full ring (len(rep.basis) == 4n^2), and certified at construction by
g @ adjoint(g) = 1, one complex product on g's null components over
(1 +- j)/2: that is g*bar(g) = 1, as bar is the adjoint, and implies
hat(g)^-1 = dagger(g), which lets the action skip an inverse.  A rotor holds
its matrix and acts by two products with dagger(g), a signed permutation of
its coordinates.  The exponent is X = sum z_k sigma_k with j-free sigma_k
(h1: one term z on the 1x1 identity).  When the sigma_k pairwise anticommute
(h1, m4; planes sharing one index) X squares to s = sum z_k^2 and g = cosh r +
(sinh r / r) X is built on the null components with no matrix product, r = z
for one term and r^2 = s for several; any other exponent is summed on its two
null components, and each takes the series.  Generator relations are tables:
two exact contractions per left generator X_p give [X_p, Y_q] for every q,
checked against structure constants.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, product, repeat
from operator import add, attrgetter, itemgetter, mul, neg, sub
from types import SimpleNamespace

from .algebra import AlgebraRep, Multivector, _compiled, _names
from .matrices import HMatrix, _contract, _locate, _product, _sigma_indices, pauli2, sigma_ab
from .paravectors import Paravector, _sphere_entering, get_space
from .scalars import BackendMismatch, HScalar, _floats, _null_coords, _trig_tilde, from_null_coords

__all__ = [
    "SeriesNonConvergence",
    "ResultOutsideParavectorSpan",
    "RotorParams",
    "Rotor",
    "rotor_from_params",
    "rotor_from_matrix",
    "act",
    "mat_exp",
    "lorentz_generators",
    "su4_generator",
    "hyperbolic_generator",
    "null_split",
    "verify_index_commutators",
    "verify_lorentz_commutators",
    "verify_null_split",
    "h1_null_pair",
    "sphere_point",
    "sphere_point_via_rotors",
    "quasi_sphere_point_r66",
    "quasi_sphere_point_r66_via_rotors",
    "SPHERE_PLANES",
    "CERT_TOL",
]

# Tolerance for the rotor certificate g @ adjoint(g) = 1.
CERT_TOL = 1e-12
# The series halves its argument until its 1-norm is at most _HALF_AT (at most
# _MAX_HALVINGS times): its degree-15 Taylor remainder is then below 1e-18.
_HALF_AT, _MAX_HALVINGS, _TAYLOR = 0.5, 64, tuple(1.0 / math.factorial(k) for k in range(16))
# Relative bound on a rotation image's part outside the paravector span.
_SPAN_TOL = 1e-9
# The parts of a complex number, for maps over complex lists.
_REAL, _IMAG = attrgetter("real"), attrgetter("imag")

# Rotation planes of the five-rotation sphere composition, with the sign
# each plane's angle carries inside the exponent, in application order.
SPHERE_PLANES = ((2, 5, 1), (0, 2, -1), (0, 1, 1), (3, 5, 1), (3, 4, -1))


class SeriesNonConvergence(ArithmeticError):
    """Raised when the exponential argument is too large to scale down."""


class ResultOutsideParavectorSpan(ValueError):
    """Raised when a rotation result leaks out of the paravector span,
    which signals an invalid group element."""


# space: (phi and xi count, the plane fields it takes)
_ROTOR_SPACES = {"h1": (1, ()), "m4": (3, ()), "e6": (0, ("phi_ab",)), "r66": (0, ("phi_ab", "xi_ab"))}


def _antisym_normalize(mapping, what: str) -> tuple:
    """Sorted planes ``(a, b)``, ``a < b``, the angle negated for ``a > b``;
    an error names a plane that is not a pair of different ints in 0..5."""
    mapping = dict(mapping)
    out = {}
    for plane, val in zip(mapping, _floats(mapping.values(), what)):
        a, b = plane if type(plane) is tuple and len(plane) == 2 else (None, None)
        if not (type(a) is int and type(b) is int and 0 <= a <= 5 and 0 <= b <= 5 and a != b):
            raise ValueError(f"{what} plane {plane!r} is not a pair of two different ints in 0..5")
        key, v = ((a, b), val) if a < b else ((b, a), -val)
        if key in out and out[key] != v:
            raise ValueError(f"conflicting values for plane {key}")
        out[key] = v
    return tuple(sorted(out.items()))


class RotorParams(namedtuple("RotorParams", "space phi xi phi_ab xi_ab")):
    """Rotation parameters; angles in radians, antisymmetry enforced.  The
    constructor checks the phi and xi counts (h1 one, m4 three, e6 and r66
    none), the plane fields of the space and the angles, which enter by
    :func:`~.scalars._entering` and are stored as floats, planes sorted;
    ``_make`` and ``_replace`` build through it as well."""

    __slots__ = ()

    def __new__(cls, space: str, phi=(), xi=(), phi_ab=(), xi_ab=()):
        if space not in _ROTOR_SPACES:
            raise ValueError(f"no rotors for space {space!r}")
        count, planes = _ROTOR_SPACES[space]
        kept = []
        for name, angles in (("phi", phi), ("xi", xi)):  # an empty field has nothing to check
            kept.append(_floats(angles, f"{space} {name}") if angles else ())
            if len(kept[-1]) != count:
                raise ValueError(f"{space} expects {count} {name} angles, got {len(kept[-1])}")
        for name, mapping in (("phi_ab", phi_ab), ("xi_ab", xi_ab)):
            if mapping and name not in planes:
                raise ValueError(f"{space} takes no {name}")
            kept.append(_antisym_normalize(mapping, f"{space} {name}") if mapping else ())
        return super().__new__(cls, space, *kept)

    @classmethod
    def _make(cls, fields) -> "RotorParams":
        return cls(*fields)

    @classmethod
    def h1(cls, phi: float = 0.0, xi: float = 0.0) -> "RotorParams":
        return cls("h1", phi=(phi,), xi=(xi,))

    @classmethod
    def m4(cls, phi=(0.0, 0.0, 0.0), xi=(0.0, 0.0, 0.0)) -> "RotorParams":
        return cls("m4", phi=phi, xi=xi)

    @classmethod
    def e6(cls, phi_ab=None) -> "RotorParams":
        return cls("e6", phi_ab=phi_ab)

    @classmethod
    def r66(cls, phi_ab=None, xi_ab=None) -> "RotorParams":
        return cls("r66", phi_ab=phi_ab, xi_ab=xi_ab)


# -- matrix exponential ---------------------------------------------------------


@lru_cache(maxsize=None)
def _kernels(n: int) -> tuple:
    """Straight-line code for complex n x n matrices as row-major lists,
    compiled on first use: ``product(a, b)``, entry (r, c) being ``0 + a_r0 *
    b_0c + a_r1 * b_1c + ...``, and the Horner block ``block(c0, c1, c2, c3,
    x, y, z)``, entry k being ``0 + c0 * {1.0|0.0} + c1 * x_k + c2 * y_k + c3 *
    z_k``.  Each sum runs from the int 0 in the order of ``sum(map(mul, ...))``
    over the same terms, so bit for bit as that loop."""
    m = n * n
    unpack = [f"    {_names(v, m)}, = {v}" for v in "abxyz"]
    product = ", ".join(" + ".join(["0", *(f"a{r + k} * b{k * n + c}" for k in range(n))])
                        for r in range(0, m, n) for c in range(n))
    block = ", ".join(f"0 + c0 * {float(k % (n + 1) == 0)} + c1 * x{k} + c2 * y{k} + c3 * z{k}" for k in range(m))
    return (_compiled(["def product(a, b):", *unpack[:2], f"    return [{product}]"], "product"),
            _compiled(["def block(c0, c1, c2, c3, x, y, z):", *unpack[2:], f"    return [{block}]"], "block"))


def _series(a: list, n: int) -> list:
    """exp(a) for a complex n x n matrix a, a row-major list, as flat real and
    imaginary parts, by scaling and squaring: the degree-15 Taylor polynomial
    of the halved a in six products (Paterson-Stockmeyer: a^2, a^3, a^4, then
    Horner in a^4), each product and Horner block one call of :func:`_kernels`."""
    product, block = _kernels(n)
    norm, halvings = max(sum(map(abs, a[c::n])) for c in range(n)), 0
    while not norm <= _HALF_AT:  # a NaN norm too
        if halvings >= _MAX_HALVINGS:
            raise SeriesNonConvergence("exponential argument too large")
        norm, halvings = norm * 0.5, halvings + 1
    a1 = list(map(mul, a, repeat(0.5 ** halvings)))
    a2 = product(a1, a1)
    powers, a4, acc = (a1, a2, product(a2, a1)), product(a2, a2), None
    for cs in (_TAYLOR[12:], _TAYLOR[8:12], _TAYLOR[4:8], _TAYLOR[:4]):
        terms = block(*cs, *powers)
        acc = terms if acc is None else list(map(add, product(acc, a4), terms))
    for _ in range(halvings):
        acc = product(acc, acc)
    if not all(map(cmath.isfinite, acc)):
        raise SeriesNonConvergence("exponential argument too large")
    return list(chain.from_iterable(zip(map(_REAL, acc), map(_IMAG, acc))))


def _cosh_sinhc(r: complex) -> tuple:
    """cosh r / 2 and sinh r / r / 2 on one null component; overflow raises
    :class:`SeriesNonConvergence`."""
    try:
        if cmath.isfinite(r):
            return cmath.cosh(r) / 2, (cmath.sinh(r) / r if r else 1.0) / 2
    except OverflowError:
        pass
    raise SeriesNonConvergence("exponential argument too large")


def _closed_form(n: int, terms) -> HMatrix:
    """cosh r * 1 + (sinh r / r) * X, X = sum z_k m_k over ``(z_k, m_k)`` terms
    with X^2 = r^2 * 1, per null component: r = z for one non-zero term (both
    are even in r, so no root), else the root of sum z_k^2; once when the two
    are equal (no j part), back as in from_null_coords (+ 0.0 clears a zero's
    sign); one pass over the m_k's non-zero entries."""
    terms = [(z, m) for z, m in terms if not z.is_zero]  # a zero adds nothing: no sum is -0.0
    if len(terms) == 1:
        x, y, v, w = terms[0][0].coeffs()
        plus, minus = complex(x + v, y + w), complex(x - v, y - w)
    else:
        x, y, v, w = sum((z * z for z, _ in terms), HScalar(0.0, 0.0, 0.0, 0.0)).coeffs()
        plus, minus = cmath.sqrt(complex(x + v, y + w)), cmath.sqrt(complex(x - v, y - w))
    halves = _cosh_sinhc(plus)
    halves = zip(halves, halves if minus == plus else _cosh_sinhc(minus))
    c, k = (HScalar(a.real + b.real + 0.0, a.imag + b.imag + 0.0, a.real - b.real + 0.0, a.imag - b.imag + 0.0)
            for a, b in halves)
    out = [0.0] * (4 * n * n)
    for d in range(0, len(out), 4 * n + 4):
        out[d:d + 4] = c.x, c.y, c.v, c.w
    for kz, m in [(k * z, m) for z, m in terms]:
        for q, entry in zip(range(0, len(out), 4), zip(*[iter(m.nums)] * 4)):
            if any(entry):
                p = kz * HScalar(*entry)
                out[q:q + 4] = out[q] + p.x, out[q + 1] + p.y, out[q + 2] + p.v, out[q + 3] + p.w
    return HMatrix._new(n, out, None)


def _exponential(n: int, plus: list, minus: list) -> HMatrix:
    """exp of the n x n matrix of complex null components ``plus`` and
    ``minus``: :func:`_series` on each (once when they are equal), joined."""
    try:
        exp_plus = _series(plus, n)
        exp_minus = exp_plus if minus == plus else _series(minus, n)
    except OverflowError:
        raise SeriesNonConvergence("exponential argument too large") from None
    return HMatrix._new(n, from_null_coords(exp_plus, exp_minus), None)


def mat_exp(x: HMatrix) -> HMatrix:
    """Exponential of a float-backend matrix: :func:`_exponential` of its
    null components (:func:`to_null_coords`).  Overflow raises
    :class:`SeriesNonConvergence`."""
    if x.is_exact:
        raise BackendMismatch("mat_exp takes a float-backend matrix")
    plus, minus = _null_coords(x.nums)
    return _exponential(x.n, list(map(complex, plus[0::2], plus[1::2])), list(map(complex, minus[0::2], minus[1::2])))


def h1_null_pair(phi: float, xi: float) -> tuple[complex, complex]:
    """Closed-form null components exp(-i phi/2) exp(+- xi/2) of the h1 rotor."""
    phase = complex(math.cos(phi / 2.0), -math.sin(phi / 2.0))
    return phase * math.exp(xi / 2.0), phase * math.exp(-xi / 2.0)


# -- rotor construction ------------------------------------------------------------


class Rotor(namedtuple("Rotor", "rep m spin_residual params", defaults=(None,))):
    """A certified group element g, held as its matrix ``m`` in ``rep``;
    ``spin_residual`` is how far g*bar(g) = 1 is from holding on ``m``, and
    ``params`` the :class:`RotorParams` it was built from, if any."""

    __slots__ = ()

    @property
    def g(self) -> Multivector:
        """The element, ``rep.decompose(m)``, built on each read."""
        return self.rep.decompose(self.m)


@lru_cache(maxsize=None)
def _pauli2_float(k: int) -> HMatrix:
    return pauli2(k).to_float()


@lru_cache(maxsize=None)
def _sigma_ab_float(a: int, b: int) -> HMatrix:
    return sigma_ab(a, b).to_float()


def _null_exponent(n: int, terms) -> tuple[list, list]:
    """The null components of X = sum z_k m_k over ``(z_k, m_k)`` terms with
    j-free m_k, as complex lists: z = x + iy + jv + ijw adds (x+v + i(y+w)) m_k
    to one and (x-v + i(y-w)) m_k to the other, on m_k's non-zero entries."""
    plus, minus = [0j] * (n * n), [0j] * (n * n)
    for z, m in terms:
        x, y, v, w = z.coeffs()
        zp, zm = complex(x + v, y + w), complex(x - v, y - w)
        entries = list(map(complex, m.nums[0::4], m.nums[1::4]))
        for k in compress(range(n * n), entries):
            plus[k] += zp * entries[k]
            minus[k] += zm * entries[k]
    return plus, minus


def _exponent_terms(params: RotorParams) -> tuple[list, bool]:
    """The exponent's terms (z, sigma), z = (-i phi + j xi)/2 on the 1x1
    identity (h1), sigma_k (m4) or a plane's sigma_ab (e6, r66), and whether
    the sigmas pairwise anticommute (one term does; sigma_k do; planes
    sharing one index)."""
    if params.space in ("e6", "r66"):
        phi, xi = dict(params.phi_ab), dict(params.xi_ab)
        planes = sorted(phi.keys() | xi.keys())
        angles = [(phi.get(ab, 0.0), xi.get(ab, 0.0), _sigma_ab_float(*ab)) for ab in planes]
        anticommute = all(len({*p} & {*q}) == 1 for p, q in combinations(planes, 2))
    else:  # one term on the 1x1 identity (h1), or sigma_1..3 (m4)
        sigmas = [HMatrix.identity(1, exact=False)] if params.space == "h1" else map(_pauli2_float, (1, 2, 3))
        angles, anticommute = zip(params.phi, params.xi, sigmas), True
    terms = [(HScalar(0.0, -p / 2.0, x / 2.0, 0.0), m) for p, x, m in angles]  # p and x entered by RotorParams
    return terms, anticommute


def _transposed(n: int, entries) -> list:
    """The n x n row-major ``entries`` transposed."""
    return list(chain.from_iterable(zip(*zip(*[iter(entries)] * n))))


def _spin_residual(m: HMatrix) -> float:
    """How far g*bar(g) = 1 is from holding on g's matrix m: adjoint swaps m's
    null components P, M and conjugate-transposes them, so m @ m.adjoint() is
    (P M^H, (P M^H)^H), and the largest real or imaginary part of P M^H - 1,
    between (m @ m.adjoint() - 1).max_abs() and twice it, is the residual.
    Floats take the series' kernel (NaN when a part is NaN), exact numerators
    ``_product`` with no j part."""
    n, (p, mc) = m.n, _null_coords(m.nums)
    if m.den is None:
        d = _kernels(n)[0](list(map(complex, p[0::2], p[1::2])),
                           _transposed(n, map(complex, mc[0::2], map(neg, mc[1::2]))))
        for k in range(0, n * n, n + 1):
            d[k] -= 1.0
        parts = [*map(abs, map(_REAL, d)), *map(abs, map(_IMAG, d))]
        return math.nan if math.isnan(sum(parts)) else max(parts)
    zeros = repeat(0)  # the j parts of the j-free numerators
    d = _product(True, n, n, list(chain.from_iterable(zip(p[0::2], p[1::2], zeros, zeros))),
                 list(chain.from_iterable(_transposed(n, zip(mc[0::2], map(neg, mc[1::2]), zeros, zeros)))))
    one = m.den * m.den
    for k in range(0, len(d), 4 * n + 4):
        d[k] -= one
    return max(map(abs, d)) / one


def rotor_from_matrix(rep: AlgebraRep, m: HMatrix, params: RotorParams | None = None) -> Rotor:
    """Certify and wrap a group-element matrix, in its own backend: g*bar(g) = 1
    as :func:`_spin_residual` <= CERT_TOL*(1 + |m|^2), a bound past the float
    range refused as residual NaN.  rep must be a full ring of m's size
    (``len(rep.basis) == 4n^2``), where every matrix is an element and dagger
    acts: else ``ValueError``."""
    if m.n != rep.n or len(rep.basis) != 4 * rep.n * rep.n:
        raise ValueError(f"rotors need a full-ring representation of {m.n}x{m.n} matrices, not {rep.name}")
    size = m.max_abs()
    bound = CERT_TOL * (1.0 + size * size)
    # an infinite bound certifies nothing (|m|^2 is past the float range, where
    # m @ m.adjoint() overflows), nor does a NaN one: the residual is then NaN,
    # and the test accepts only on "<=", so a NaN is rejected
    spin = _spin_residual(m) if bound < math.inf else math.nan
    if not (spin <= bound):
        raise ValueError(f"spin condition violated: residual {spin:.3e}")
    return Rotor(rep, m, spin, params)


def rotor_from_params(params: RotorParams) -> Rotor:
    rep = get_space(params.space).rep
    terms, anticommute = _exponent_terms(params)
    if anticommute:
        return rotor_from_matrix(rep, _closed_form(rep.n, terms), params)
    return rotor_from_matrix(rep, _exponential(rep.n, *_null_exponent(rep.n, terms)), params)


def act(rotor: Rotor, x: Paravector) -> Paravector:
    """The rotation x -> g x dagger(g) as a paravector, m @ x @ dagger(m) on
    the rotor's matrix m: exact when g and x both are, in floats otherwise,
    each coordinate then good to about eps * |g|^2 * |x| absolute
    (eps * cosh(xi) * |x| for a boost).

    Raises ``OverflowError`` when g and x are finite but the image is not, else
    :class:`ResultOutsideParavectorSpan` when the image is not finite or leaks
    out of the span beyond ``_SPAN_TOL`` (relative to its size): g is invalid.
    """
    if x.space.rep is not rotor.rep:
        raise ValueError("rotor and paravector use different representations")
    g, xm = rotor.m, x.space.to_matrix(x)
    if not (g.is_exact and xm.is_exact):
        g, xm = g.to_float(), xm.to_float()
    m = g @ xm @ rotor.rep.dagger_matrix(g)
    y, residual = x.space.project_matrix(m)
    if not (residual <= _SPAN_TOL * (1.0 + (size := m.max_abs()))):
        if not math.isfinite(size) and math.isfinite(g.max_abs() + xm.max_abs()):
            raise OverflowError("rotation image exceeds the float range")
        raise ResultOutsideParavectorSpan(
            f"rotation image leaves the {x.space.name} span (residual {residual:.3e})"
        )
    return y


# -- generator sets and their relations ------------------------------------------------


_ZERO, _HALF = Fraction(0), Fraction(1, 2)


def _half() -> HScalar:
    return HScalar(_HALF, _ZERO, _ZERO, _ZERO)


def lorentz_generators() -> tuple[list[HMatrix], list[HMatrix]]:
    """Rotation generators sigma_k/2 and boost generators ij*sigma_k/2."""
    rotations = [pauli2(k).scale(_half()) for k in (1, 2, 3)]
    return rotations, [j.scale(HScalar.unit("ij")) for j in rotations]


def su4_generator(a: int, b: int) -> HMatrix:
    """J_ab = sigma_ab/2, its indices checked as sigma_ab's; zero when they coincide."""
    _sigma_indices(a, b)
    if a == b:
        return HMatrix.zeros(4)
    return sigma_ab(a, b).scale(_half())


def hyperbolic_generator(a: int, b: int) -> HMatrix:
    """K_ab = ij * J_ab, the hyperbolic extension of the index generators."""
    return su4_generator(a, b).scale(HScalar.unit("ij"))


# The fifteen index pairs a < b of 0..5, the generators the split runs over.
_INDEX_PAIRS = [(a, b) for a in range(6) for b in range(a + 1, 6)]


def _index_generators() -> tuple[dict, dict]:
    """J_ab and K_ab keyed by all 36 ordered index pairs (a, b), the sign
    read off the signed table: J_ba = -J_ab and J_aa = 0."""
    j = {p: su4_generator(*p) for p in product(range(6), repeat=2)}
    return j, {p: hyperbolic_generator(*p) for p in j}


def _index_constants(ab, cd) -> list:
    """The (c, X) of [X_ab, X_cd] = i sum c X for the index pairs ab, cd:
    d_ac X_bd - d_ad X_bc - d_bc X_ad + d_bd X_ac, the non-zero deltas."""
    (a, b), (c, d) = ab, cd
    return [t for t in ((+(a == c), (b, d)), (-(a == d), (b, c)), (-(b == c), (a, d)), (+(b == d), (a, c))) if t[0]]


def _check_family(*families: dict) -> None:
    """Raise at the first generator of the dicts by label that is a float
    matrix or of another size than the first, naming its label."""
    mats = [(p, m) for f in families for p, m in f.items()]
    for p, m in mats:
        if m.den is None:
            raise BackendMismatch(f"generator {p!r} is a float matrix; the relations are exact")
        if m.n != mats[0][1].n:
            raise ValueError(f"generator {p!r} is {m.n}x{m.n}, not {mats[0][1].n}x{mats[0][1].n}")


def _numerators(*families: dict) -> tuple:
    """The lcm of the denominators of the exact generators of dicts by
    label, and each dict's numerators over it."""
    den = math.lcm(*[m.den for f in families for m in f.values()])
    return den, [{p: [x * (den // m.den) for x in m.nums] for p, m in f.items()} for f in families]


def _times_i(gens: dict) -> dict:
    """i X for every generator X of a dict by label."""
    unit_i = HScalar.unit("i")
    return {p: g.scale(unit_i) for p, g in gens.items()}


def _table(keys, nums: dict) -> SimpleNamespace:
    """The exact n x n numerators ``nums`` of ``keys`` located once as factors
    (:func:`~.matrices._locate`), by field: each member (``located``), the
    family ``side`` by side (n rows of ``width``) and ``stacked``, and the
    getter ``blocks`` of a side product's stacked blocks."""
    keys, n = list(keys), math.isqrt(len(next(iter(nums.values()), ())) // 4)
    w, count = 4 * n, len(keys)
    located = dict(zip(keys, map(_locate, repeat(w), map(nums.__getitem__, keys))))
    order = [r * w * count + q * w + c for q in range(count) for r in range(n) for c in range(w)]
    side = _locate(w * count, [x for r in range(0, w * n, w) for p in keys for x in nums[p][r:r + w]])
    return SimpleNamespace(n=n, located=located, side=side, width=w * count,
                           stacked=list(chain.from_iterable(map(located.__getitem__, keys))),
                           blocks=itemgetter(*order) if order else tuple)


def _left_products(x, table: SimpleNamespace) -> tuple:
    """x Y_q for every Y_q of a :func:`_table`, stacked, x located: one
    contraction."""
    return table.blocks(_contract(x, table.side, table.width))


def _bracket_failures(x, table: SimpleNamespace, *wants) -> list[int]:
    """How many stacked blocks of [x, Y_q] over the Y_q of a :func:`_table` differ
    from each of ``wants``, x located: x Y_q from one contraction with the
    family side by side, Y_q x from one with it stacked."""
    size, right = 4 * table.n * table.n, _contract(table.stacked, x, 4 * table.n)
    lhs = list(map(sub, _left_products(x, table), right))
    return [0 if lhs == want else sum(lhs[s:s + size] != want[s:s + size] for s in range(0, len(lhs), size))
            for want in wants]  # no block differs when the lists are equal


def _structure(keys, constants, den: int, *families):
    """Per p of ``keys``, for each family of numerators of i X over ``den``,
    keyed alike, i sum c_r X_r over den^2 for every q, stacked, with
    (c_r, r) of constants(p, q): one sum per distinct set of terms."""
    sums = [{} for _ in families]
    for p in keys:
        terms = [tuple(constants(p, q)) for q in keys]
        for f, done in zip(families, sums):
            for t in set(terms) - done.keys():
                done[t] = list(map(sum, zip(*[[c * den * x for x in f[r]] for c, r in t], [0] * len(f[p]))))
        yield [list(chain.from_iterable(map(done.__getitem__, terms))) for done in sums]


def _count_relations(keys, j, k, constants) -> list[int]:
    """Failures of [J_p, J_q] = F_J, [J_p, K_q] = F_K, the computed
    [K_p, K_q] = -F_J and the printed [K_p, K_q] = -F_K over all ordered
    pairs of ``keys``, with J and K keyed by the family's labels and F_X
    their :func:`_structure`: three brackets per p, none per pair."""
    _check_family(j, k)
    keys, counts = list(keys), [0] * 4
    den, (j, k, ij, ik) = _numerators(j, k, _times_i(j), _times_i(k))
    tj, tk = _table(keys, j), _table(keys, k)
    for p, (fj, fk) in zip(keys, _structure(keys, constants, den, ij, ik)):
        jp, kp = tj.located[p], tk.located[p]
        counts = list(map(add, counts, _bracket_failures(jp, tj, fj) + _bracket_failures(jp, tk, fk)
                          + _bracket_failures(kp, tk, list(map(neg, fj)), list(map(neg, fk)))))
    return counts


def verify_index_commutators() -> dict:
    """Exact check of the index-pair commutator relations over all
    ordered pairs of distinct index pairs, against the structure
    constants read off the deltas.

    Verifies [J,J] = i(d J), [J,K] = i(d K) and the computed form
    [K,K] = -i(d J); also counts how often the printed alternative
    [K,K] = -i(d K) fails, which documents the deviation.
    """
    j, k = _index_generators()
    pairs = [(a, b) for a, b in j if a != b]
    jj, jk, kk, printed = _count_relations(pairs, j, k, _index_constants)
    return {
        "checked": len(pairs) ** 2,
        "failures_jj": jj,
        "failures_jk": jk,
        "failures_kk_computed": kk,
        "printed_kk_failures": printed,
    }


def _eps_constants(a: int, b: int) -> list:
    """The (eps_abc, c) of [X_a, X_b] = i sum_c eps_abc X_c over axes 0..2,
    eps_abc = (a - b)(b - c)(c - a)/2, the non-zero ones."""
    return [(e, c) for c in range(3) if (e := (a - b) * (b - c) * (c - a) // 2)]


def verify_lorentz_commutators() -> dict:
    """Exact check of [J,J] = i e J, [J,K] = i e K, computed
    [K,K] = -i e J, against the constants eps_abc; counts failures of the
    printed [K,K] = -i e K."""
    rot, boo = lorentz_generators()
    jj, jk, kk, printed = _count_relations(range(3), dict(enumerate(rot)), dict(enumerate(boo)), _eps_constants)
    return {"failures": {"jj": jj, "jk": jk, "kk_computed": kk}, "printed_kk_failures": printed}


def null_split(j_gens: dict) -> tuple[dict, dict]:
    """Split into two commuting copies via the idempotents (1 +- j)/2.

    ``j_gens`` maps each label of a family (an ordered index pair, or an
    axis 0..2 of the Lorentz family) to its generator J, and the copies
    come back keyed by the same labels: A = e+ J and B = e- J, equivalently
    A = (J - iK)/2 and B = (J + iK)/2 for K = ij J.  The combination
    (J + ijK)/2 collapses to zero because (ij)^2 = -1; the idempotent form
    realizes the intended pair of commuting factors.
    """
    ep = HScalar(_HALF, _ZERO, _HALF, _ZERO)
    em = HScalar(_HALF, _ZERO, -_HALF, _ZERO)
    return {p: g.scale(ep) for p, g in j_gens.items()}, {p: g.scale(em) for p, g in j_gens.items()}


def verify_null_split(j_gens: dict, k_gens: dict, keys, constants) -> dict:
    """Check the split reproduces the parent structure constants.

    ``j_gens`` and ``k_gens`` map the family's labels to J and K = ij J, as
    :func:`null_split` takes them; a bad family raises at entry (:func:`_check_family`).
    Over ``keys`` the copies must rebuild J and K, and over every ordered pair p, q
    commute and each copy X satisfy [X_p, X_q] = i sum c_r X_r, (c_r, r) of constants(p, q).
    """
    _check_family(j_gens, k_gens)
    a_set, b_set = null_split(j_gens)
    keys = list(keys)
    unit_i = HScalar.unit("i")
    cross = sum_err = recon = 0
    for p in keys:
        recon += (a_set[p] + b_set[p]) != j_gens[p]
        recon += (a_set[p] - b_set[p]).scale(unit_i) != k_gens[p]
    den, (a, b, ia, ib) = _numerators(a_set, b_set, _times_i(a_set), _times_i(b_set))
    ta, tb = _table(keys, a), _table(keys, b)
    for p, (fa, fb) in zip(keys, _structure(keys, constants, den, ia, ib)):
        ap, bp = ta.located[p], tb.located[p]
        cross += _bracket_failures(ap, tb, [0] * len(fa))[0]
        sum_err += _bracket_failures(ap, ta, fa)[0] + _bracket_failures(bp, tb, fb)[0]
    return {
        "cross_failures": cross,
        "structure_failures": sum_err,
        "reconstruction_failures": recon,
    }


# -- sphere parametrizations ---------------------------------------------------------------


def sphere_point(r: float, angles) -> tuple[float, ...]:
    """Closed-form point on the five-sphere of radius r.

    ``angles`` are (phi_25, phi_02, phi_01, phi_35, phi_34).
    """
    r, (p25, p02, p01, p35, p34) = _sphere_entering(r, ("phi", angles))
    return (
        r * math.sin(p25) * math.sin(p02) * math.cos(p01),
        r * math.sin(p25) * math.sin(p02) * math.sin(p01),
        r * math.sin(p25) * math.cos(p02),
        r * math.cos(p25) * math.sin(p35) * math.cos(p34),
        r * math.cos(p25) * math.sin(p35) * math.sin(p34),
        r * math.cos(p25) * math.cos(p35),
    )


def _sphere_via_rotors(space: str, r: float, phis, xis) -> tuple[float, ...]:
    """Compose the five plane rotors exp(sign * (i phi - j xi) sigma_ab / 2)
    of ``SPHERE_PLANES`` right-to-left and rotate (0, ..., 0, r) in the
    space; xi extends each angle by its ij part.  The numbers have entered."""
    g = None
    for (a, b, sign), phi, xi in zip(SPHERE_PLANES, phis, xis):
        z = HScalar(0.0, sign * phi / 2.0, -sign * xi / 2.0, 0.0)
        plane = _closed_form(4, [(z, _sigma_ab_float(a, b))])
        g = plane if g is None else plane @ g
    target = get_space(space)
    x = Paravector._new(target, [0.0] * 5 + [r] + [0.0] * (target.dim - 6), None)
    return act(rotor_from_matrix(target.rep, g), x).coords


def sphere_point_via_rotors(r: float, angles) -> tuple[float, ...]:
    """The same point produced by composing the five plane rotations
    right-to-left and rotating (0, 0, 0, 0, 0, r)."""
    return _sphere_via_rotors("e6", *_sphere_entering(r, ("phi", angles)), (0.0,) * 5)


def quasi_sphere_point_r66(r: float, phis, xis) -> tuple[float, ...]:
    """Quasi-sphere point from the complexified angles phi + ij xi.

    The closed sphere form is evaluated over the scalar ring with the
    complexified cosines and sines; real parts land on coordinates 0..5
    and the ij-proportional parts on coordinates 6..11.
    """
    r, phis, xis = _sphere_entering(r, ("phi", phis), ("xi", xis))
    (c25, s25), (c02, s02), (c01, s01), (c35, s35), (c34, s34) = map(_trig_tilde, phis, xis)
    rr = HScalar(r, 0.0, 0.0, 0.0)
    entries = (
        rr * s25 * s02 * c01,
        rr * s25 * s02 * s01,
        rr * s25 * c02,
        rr * c25 * s35 * c34,
        rr * c25 * s35 * s34,
        rr * c25 * c35,
    )
    return tuple([z.x for z in entries] + [z.w for z in entries])


def quasi_sphere_point_r66_via_rotors(r: float, phis, xis) -> tuple[float, ...]:
    """The same point via the generalized five-rotation composition."""
    return _sphere_via_rotors("r66", *_sphere_entering(r, ("phi", phis), ("xi", xis)))
