"""Verification suites behind the ``verify`` command.

Every suite returns a list of :class:`CheckReport` records.  A check
either passes, fails, or is marked ``deviation-documented``: the last
status is reserved for the two commutator right-hand sides and the
literal generator-split formula, where the computed algebra demonstrably
differs from the published closed form and the harness reports the
discrepancy instead of silently siding with either.

To add a check, write its body as a module-level generator of one
:class:`Context` that yields one error per quantity it evaluates, and
register it::

    @check("sphere.example", "what is computed", "the claim being verified")
    def _example(ctx):
        for ...:
            yield abs(computed - expected)

A float is an absolute error; a bool is an exact comparison
(``yield lhs != rhs``) that counts as ``1.0`` when ``True``, that is
failed, and ``0.0`` otherwise.  One runner judges every check:
``max_error`` is the largest error yielded (``0.0`` for none, NaN once
any is NaN) and the check passes when it is at most the check's ``tol``.
``tol=None``, the default, is the tolerance of ``verify --tol``
(``ctx.tol``); a bit-exact check says ``tol=0``.  A body that raises, at
any point of its stream, is reported as ``fail`` with ``max_error``
infinite.  A deviation states instead the count on which the published
form fails, ``deviation=480`` say: its body yields that count, and the
check reports ``deviation-documented`` when ``max_error`` equals it and
``fail`` otherwise.  Whether the computed form holds is a check of its
own.

The id up to the first dot names the suite.  Checks run, and suites are
listed, in registration order.  The checks of one suite run draw from
one random stream, ``ctx.rng``, in that order, so a new check goes after
the checks of its suite or their samples change.  Other keyword
arguments of :func:`check` are passed to the body.  Work that several
checks share is a lazily built :class:`Context` attribute, paid for by
the first check to read it.

An identity of linear or bilinear maps holds for every element exactly
when it holds on every tuple of basis elements, so six checks prove theirs
on the basis: ``involutions.product_rules`` on the product table and the
involution signs; ``bar_composition``, ``bar_is_adjoint``, ``porteous_4x4``
and ``null_scalar`` of ``involutions``, and ``wedge.split``, through the
public API on basis elements that each carry a non-zero rational
coefficient (:func:`_basis_elements`): the identity scales by their
product, and the exact denominators run.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import rotors
from .algebra import (
    REP_NAMES,
    Multivector,
    enumerate_algebra,
    even_subalgebra,
    get_rep,
    involution_table,
    porteous_conjugate_2x2,
    porteous_dagger_4x4,
    porteous_hat_4x4,
    pseudoscalar,
)
from .matrices import HMatrix, pauli2, pauli4, pauli4_literal, sigma_ab, sigma_ab_entry
from .paravectors import (
    dot,
    embed_momentum,
    get_space,
    quasi_sphere_residual,
    wedge2,
    wedge3,
    wedge4,
)
from .physics import (
    Linearization,
    MomentumHM4,
    hermiticity_check,
    interfere,
    linearize,
    mass_qform,
    reconstruct_probability,
    stabilizer_check,
)
from .rotors import (
    _INDEX_PAIRS,
    RotorParams,
    _eps_sum,
    _half,
    _index_generators,
    _index_rhs,
    act,
    h1_null_pair,
    lorentz_generators,
    quasi_sphere_point_r66,
    quasi_sphere_point_r66_via_rotors,
    rotor_from_params,
    sphere_point,
    sphere_point_via_rotors,
    verify_index_commutators,
    verify_lorentz_commutators,
    verify_null_split,
)
from .scalars import HScalar, from_null_coords, to_null_coords

__all__ = ["CheckReport", "REGISTRY", "check", "run_suite", "run_all", "summarize", "SUITE_NAMES"]

DEFAULT_TOL = 1e-10
_SEED = 20070816


class CheckReport(namedtuple("CheckReport", "check_id description claim status max_error elapsed_ms")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


class CheckSpec(namedtuple("CheckSpec", "check_id description claim body params deviation tol")):
    """One registered check: its record text, the body that computes its
    errors (with the keyword arguments ``params``), and what its
    ``max_error`` is judged against: the stated count of a deviation, else
    the tolerance (``None``: the suite's ``ctx.tol``)."""

    __slots__ = ()

    @property
    def suite(self) -> str:
        return self.check_id.split(".", 1)[0]

    def run(self, ctx: Context) -> CheckReport:
        description, status, err = self.description, "fail", math.inf
        t0 = time.perf_counter()
        try:
            err = _max_error(self.body(ctx, **self.params))
        except Exception as exc:  # a crashing check is a failing check
            description = f"{description} [error: {exc}]"
        else:
            if self.deviation is not None:
                status = "deviation-documented" if err == self.deviation else "fail"
            elif err <= (ctx.tol if self.tol is None else self.tol):
                status = "pass"
        elapsed = (time.perf_counter() - t0) * 1000.0
        return CheckReport(self.check_id, description, self.claim, status, float(err), elapsed)


def _max_error(errors) -> float:
    """The largest of a stream of errors, 0.0 for an empty one; a bool
    counts as 0.0 or 1.0, and a NaN is kept, so that it fails."""
    largest = 0.0
    for e in map(float, errors):
        if e > largest or math.isnan(e):
            largest = e
    return largest


REGISTRY: list[CheckSpec] = []


def check(check_id: str, description: str, claim: str, *, deviation: float | None = None,
          tol: float | None = None, **params):
    """Register the decorated body as the next check of its suite."""

    def register(body):
        REGISTRY.append(CheckSpec(check_id, description, claim, body, params, deviation, tol))
        return body

    return register


_ROTOR_SPACES = tuple(rotors._ROTOR_SPACES)


class Context:
    """What the checks of one suite run share: the tolerance, one random
    stream seeded with ``_SEED``, and fixtures built by the first check
    that reads them."""

    def __init__(self, tol: float):
        self.tol = tol
        self.rng = random.Random(_SEED)

    @cached_property
    def index_commutators(self) -> dict:
        return verify_index_commutators()

    @cached_property
    def lorentz_commutators(self) -> dict:
        return verify_lorentz_commutators()

    @cached_property
    def rotors(self) -> dict:
        """200 random rotors per space, drawn from the suite's stream."""
        return {s: [_random_rotor(s, self.rng) for _ in range(200)] for s in _ROTOR_SPACES}


def _random_mv(rep, rng) -> Multivector:
    """Every coordinate uniform on [-1, 1] (by ``uniform``'s definition),
    drawn in basis order: per blade the 1 part, then the adjoined unit's."""
    return Multivector._new(rep, [-1.0 + 2.0 * rng.random() for _ in rep.basis], None)


def _nonzero_fractions(rng, count: int) -> list:
    """``count`` fractions (2p + 1)/q, |p| <= 4 and 1 <= q <= 3, drawn p
    first: an odd numerator, so never zero."""
    return [Fraction(2 * p + 1, q) for p, q in _draw_pairs(rng, count, 4, 3)]


def _basis_elements(rep, rng) -> list:
    """Each exact basis element of ``rep`` times its own coefficient of
    :func:`_nonzero_fractions`, in basis order."""
    coeffs = _nonzero_fractions(rng, len(rep.basis))
    return [rep._element(k, [c.numerator], c.denominator) for k, c in enumerate(coeffs)]


def _draw_pairs(rng, count: int, top: int, dens: int) -> list:
    """``count`` pairs ``(rng.randint(-top, top), rng.randint(1, dens))``,
    drawn from the same bits as ``randint`` draws them: ``getrandbits`` of
    the range's bit length, again while the value is out of range."""
    bits, span = rng.getrandbits, 2 * top + 1
    kp, kq = span.bit_length(), dens.bit_length()
    pairs = []
    for _ in range(count):
        p = bits(kp)
        while p >= span:
            p = bits(kp)
        q = bits(kq)
        while q >= dens:
            q = bits(kq)
        pairs.append((p - top, q + 1))
    return pairs


# ---------------------------------------------------------------- tables ----

_TABLE1_EXPECT = {"i": (-1, 1, -1), "j": (-1, 1, -1)}
_TABLE2_EXPECT = {"e": (-1, 1, -1), "sigma": (1, 1, 1), "i": (-1, -1, 1), "j": (-1, 1, -1)}
_TABLE3_EXPECT = {"e": (-1, 1, -1), "sigma0": (1, 1, 1), "sigmakl": (1, -1, -1), "i": (-1, 1, -1), "j": (-1, 1, -1)}


def _classify_unit(name: str, five_dim: bool) -> str:
    if name.startswith("e"):
        return "e"
    if name.startswith("sigma"):
        if not five_dim:
            return "sigma"
        return "sigma0" if name.startswith("sigma0") else "sigmakl"
    return name


def _table_signs(ctx, reps, expect: dict, five_dim: bool = False):
    for rep_name in reps:
        for row in involution_table(rep_name):
            if not row.derived:
                yield (row.bar, row.dagger, row.hat) != expect[_classify_unit(row.unit, five_dim)]


check("tables.one_dim", "involution signs of the one-dimensional algebra units",
      "both i and j transform as (-, +, -) under bar/dagger/hat",
      tol=0, reps=("r10", "r01"), expect=_TABLE1_EXPECT)(_table_signs)
check("tables.three_dim", "involution signs of the units in the 2x2 hyperbolic Pauli algebra",
      "e_k (-,+,-), sigma_k (+,+,+), i (-,-,+), j (-,+,-)",
      tol=0, reps=("r30",), expect=_TABLE2_EXPECT)(_table_signs)
check("tables.five_dim", "involution signs of the units in the 4x4 algebra",
      "e_k (-,+,-), sigma_0k (+,+,+), sigma_kl (+,-,-), i (-,+,-), j (-,+,-)",
      tol=0, reps=("r05",), expect=_TABLE3_EXPECT, five_dim=True)(_table_signs)


# ------------------------------------------------------------------ dims ----


def _dimension(ctx, name: str, want: int):
    yield enumerate_algebra(get_rep(name)) != want


for _name, _want in (("r01", 2), ("r10", 2), ("r30", 8), ("r05", 32), ("c30bar", 16), ("h05bar", 64)):
    check(f"dims.{_name}", f"real dimension of the generated algebra {_name}",
          f"multiplicative closure spans exactly {_want} independent elements",
          tol=0, name=_name, want=_want)(_dimension)


@check("dims.even_r05", "graduation-fixed subalgebra of the five-generator algebra",
       "sixteen elements (even blades), closed under the product", tol=0)
def _even_r05(ctx):
    rep = get_rep("r05")
    basis, count = even_subalgebra(rep)
    yield count != 16
    # closed under multiplication: products stay graduation-fixed
    for a in basis:
        for b in basis:
            prod = a.gp_blades(b)
            yield prod.hat() != prod
    # generated by the rotation generators i*sigma_kl = -e_k e_l
    mults = [(-rep.blade((k, l))).to_matrix() for k in range(1, 6) for l in range(k + 1, 6)]
    yield enumerate_algebra(rep, mults) != 16


def _pseudoscalar(ctx, name: str, scalar: HScalar):
    rep = get_rep(name)
    yield pseudoscalar(rep).to_matrix() != HMatrix.identity(rep.n).scale(scalar)


check("dims.pseudoscalar_r30", "highest-grade element of the 2x2 hyperbolic algebra",
      "e1 e2 e3 = ij", tol=0, name="r30", scalar=HScalar.unit("ij"))(_pseudoscalar)
check("dims.pseudoscalar_r05", "highest-grade element of the 4x4 algebra",
      "e1 e2 e3 e4 e5 = -i", tol=0, name="r05", scalar=-HScalar.unit("i"))(_pseudoscalar)
check("dims.pseudoscalar_r01", "highest-grade element of the complex numbers",
      "the single generator is i", tol=0, name="r01", scalar=HScalar.unit("i"))(_pseudoscalar)


# ----------------------------------------------------------- commutators ----


@check("commutators.pauli_literals", "tensor-product 4x4 Pauli matrices against their entry tables",
       "all fifteen matrices agree entrywise with the transcriptions", tol=0)
def _pauli_literals(ctx):
    yield from (pauli4(k) != pauli4_literal(k) for k in range(1, 16))


@check("commutators.trace_orthogonality",
       "pairwise trace products of the fifteen 4x4 Pauli matrices",
       "trace(sigma_k sigma_l) = 4 delta_kl exactly", tol=0)
def _trace_orthogonality(ctx):
    four = HScalar.exact(4)
    zero = HScalar.exact(0)
    for k in range(1, 16):
        for l in range(1, 16):
            yield (pauli4(k) @ pauli4(l)).trace() != (four if k == l else zero)


@check("commutators.sigma_table", "antisymmetry and spot values of the index-pair assignment",
       "sigma_ab = -sigma_ba; (0,1)->sigma_1, (1,0)->-sigma_1, (4,5)->sigma_4", tol=0)
def _sigma_table(ctx):
    yield from (sigma_ab(a, b) != -sigma_ab(b, a) for a in range(6) for b in range(6) if a != b)
    yield sigma_ab(0, 1) != pauli4(1)
    yield sigma_ab(1, 0) != -pauli4(1)
    yield sigma_ab(4, 5) != pauli4(4)
    yield sigma_ab_entry(0, 2) != (3, -1)


def _index_failures(ctx, key: str):
    yield ctx.index_commutators[key]


check("commutators.index_jj", "index-pair commutators of the J generators, 900 combinations",
      "[J_ab, J_cd] = i(d_ac J_bd - d_ad J_bc - d_bc J_ad + d_bd J_ac)",
      tol=0, key="failures_jj")(_index_failures)
check("commutators.index_jk", "mixed commutators with the hyperbolic extension K = ij J",
      "[J_ab, K_cd] = i(d_ac K_bd - d_ad K_bc - d_bc K_ad + d_bd K_ac)",
      tol=0, key="failures_jk")(_index_failures)
check("commutators.index_kk_computed", "K-K commutators against the computed right-hand side",
      "[K_ab, K_cd] = -i(d J) with J on the right, verified exactly",
      tol=0, key="failures_kk_computed")(_index_failures)
check("commutators.index_kk_printed", "K-K commutators against the published right-hand side",
      "published -i(d K) form is not satisfied by this representation;"
      " the computed -i(d J) form is", deviation=480, key="printed_kk_failures")(_index_failures)


@check("commutators.lorentz", "rotation/boost generator commutators of the 2x2 algebra",
       "[J,J] = i e J, [J,K] = i e K, computed [K,K] = -i e J, exactly", tol=0)
def _lorentz(ctx):
    yield sum(ctx.lorentz_commutators["failures"].values())


@check("commutators.lorentz_kk_printed",
       "boost-boost commutators against the published right-hand side",
       "published -i e K form fails for every distinct pair;"
       " the computed -i e J form holds", deviation=6)
def _lorentz_kk_printed(ctx):
    yield ctx.lorentz_commutators["printed_kk_failures"]


def _split_failures(res: dict) -> int:
    return res["cross_failures"] + res["structure_failures"] + res["reconstruction_failures"]


@check("commutators.split_lorentz", "idempotent split of the 2x2 generators into commuting copies",
       "A = (1+j)/2 J, B = (1-j)/2 J: [A,B] = 0, A+B = J, i(A-B) = K,"
       " and each copy keeps the structure constants", tol=0)
def _split_lorentz(ctx):
    rot, boo = lorentz_generators()
    yield _split_failures(verify_null_split(dict(enumerate(rot)), dict(enumerate(boo)), range(3), _eps_sum))


@check("commutators.split_index", "idempotent split of the fifteen index-pair generators",
       "both commuting copies reproduce the index structure constants", tol=0)
def _split_index(ctx):
    yield _split_failures(verify_null_split(*_index_generators(), _INDEX_PAIRS, _index_rhs))


@check("commutators.split_literal", "published closed form (J + ij K)/2 of the commuting split",
       "literal substitution of K = ij J collapses to zero;"
       " the idempotent form (1 +- j)/2 J realizes the intended pair", deviation=0)
def _split_literal(ctx):
    rot, boo = lorentz_generators()
    yield sum((j + k.scale(HScalar.unit("ij"))).scale(_half()) != HMatrix.zeros(2) for j, k in zip(rot, boo))


# ------------------------------------------------------------ involutions ----


@check("involutions.product_rules",
       "reversion/conjugation reverse products, graduation preserves them",
       "(uv)^dagger = v^dagger u^dagger, hat(uv) = hat(u) hat(v),"
       " bar(uv) = bar(v) bar(u) on every ordered pair of basis elements"
       " per representation", tol=0)
def _product_rules(ctx):
    # basis elements k1 k2 = s k and k2 k1 = sr kr; an involution takes k to its sign times k
    for name in ("r30", "c30bar", "r05", "h05bar"):
        rep = get_rep(name)
        keys = range(len(rep.basis))
        d, h, b = ([-1 if k in rep._involution_flips[kind] else 1 for k in keys] for kind in ("dagger", "hat", "bar"))
        for k1, k2 in product(keys, repeat=2):
            (k, s), (kr, sr) = rep._basis_entry(k1, k2), rep._basis_entry(k2, k1)
            yield (k, s * d[k]) != (kr, sr * d[k2] * d[k1])
            yield h[k] != h[k1] * h[k2]
            yield (k, s * b[k]) != (kr, sr * b[k2] * b[k1])


@check("involutions.bar_composition", "conjugation as the composite of graduation and reversion",
       "bar = hat-then-dagger = dagger-then-hat, bit-exact", tol=0)
def _bar_composition(ctx):
    for name in REP_NAMES:
        for u in _basis_elements(get_rep(name), ctx.rng):
            yield u.bar() != u.hat().dagger() or u.bar() != u.dagger().hat()


@check("involutions.bar_is_adjoint", "conjugation on the matrix image",
       "bar equals conjugate-transposition with i -> -i, j -> -j", tol=0)
def _bar_is_adjoint(ctx):
    for name in ("r30", "c30bar", "r05", "h05bar"):
        for u in _basis_elements(get_rep(name), ctx.rng):
            yield u.bar().to_matrix() != u.to_matrix().adjoint()


@check("involutions.gp_dual_route",
       "geometric product via matrices against the blade-level product",
       "matrix-multiply-then-decompose agrees with anticommutation"
       " bookkeeping on 500 random pairs", tol=1e-11)
def _gp_dual_route(ctx):
    for name in ("r30", "c30bar", "r05", "h05bar", "c10bar"):
        rep = get_rep(name)
        for _ in range(100):
            u, v = _random_mv(rep, ctx.rng), _random_mv(rep, ctx.rng)
            yield (u.gp(v) - u.gp_blades(v)).max_abs()


@check("involutions.porteous_2x2", "entry-permutation conjugation of 2x2 matrices",
       "fixes the identity and negates each Pauli matrix", tol=0)
def _porteous_2x2(ctx):
    idm = HMatrix.identity(2)
    yield porteous_conjugate_2x2(idm) != idm
    yield from (porteous_conjugate_2x2(pauli2(k)) != -pauli2(k) for k in (1, 2, 3))


@check("involutions.porteous_4x4", "explicit 4x4 entry formulas for reversion and graduation",
       "the displayed permutations equal the blade-level involutions"
       " and compose to conjugate-transposition", tol=0)
def _porteous_4x4(ctx):
    for u in _basis_elements(get_rep("h05bar"), ctx.rng):
        m = u.to_matrix()
        yield porteous_dagger_4x4(m) != u.dagger().to_matrix()
        yield porteous_hat_4x4(m) != u.hat().to_matrix()
        yield porteous_dagger_4x4(porteous_hat_4x4(m)) != m.adjoint()


@check("involutions.quaternions", "the quaternion subalgebra inside the 2x2 matrices",
       "q_k = i sigma_k satisfy q_k^2 = -1 and q_1 q_2 q_3 = +1", tol=0)
def _quaternions(ctx):
    q = [pauli2(k).scale(HScalar.unit("i")) for k in (1, 2, 3)]
    idm = HMatrix.identity(2)
    yield from (qk @ qk != -idm for qk in q)
    yield q[0] @ q[1] @ q[2] != idm


@check("involutions.null_scalar", "null-basis coordinates of hyperbolic numbers",
       "componentwise product law and conjugation-as-swap,"
       " bit-exact on every ordered pair of the basis {1, j}", tol=0)
def _null_scalar(ctx):
    one, j = _nonzero_fractions(ctx.rng, 2)
    for z1, z2 in product((HScalar.exact(one), HScalar.exact(0, 0, j)), repeat=2):
        p1, p2 = to_null_coords(z1.coeffs()), to_null_coords(z2.coeffs())
        prod = to_null_coords((z1 * z2).coeffs())
        yield any(z != [a * c - b * d, a * d + b * c] for z, (a, b), (c, d) in zip(prod, p1, p2))
        yield to_null_coords(z1.conjugate().coeffs()) != p1[::-1]
        yield from_null_coords(*p1) != list(z1.coeffs())


# ---------------------------------------------------------------- sphere ----


@check("sphere.closed_vs_rotor", "five-sphere parametrization against the five-rotation path",
       "closed form equals the composed-rotor action on (0,...,0,r),"
       " and the Euclidean norm equals r")
def _closed_vs_rotor(ctx):
    for k in range(100):
        angles = [ctx.rng.uniform(-math.pi, math.pi) for _ in range(5)]
        r = (0.5, 1.0, 3.0)[k % 3]
        a = sphere_point(r, angles)
        yield from (abs(x - y) for x, y in zip(a, sphere_point_via_rotors(r, angles)))
        yield abs(math.sqrt(sum(x * x for x in a)) - r)


@check("sphere.r66_membership", "hyperbolic quasi-sphere points in the split twelve-space",
       "substituted complexified angles give qform = r^2 with no"
       " imaginary or hyperbolic residue")
def _r66_membership(ctx):
    space = get_space("r66")
    for k in range(100):
        phis = [ctx.rng.uniform(-math.pi, math.pi) for _ in range(5)]
        xis = [ctx.rng.uniform(-2.0, 2.0) for _ in range(5)]
        r = (0.5, 1.0, 3.0)[k % 3]
        yield quasi_sphere_residual(space.paravector(quasi_sphere_point_r66(r, phis, xis)), r)


@check("sphere.r66_rotor_path", "generalized five-rotation composition in the twelve-space",
       "complexified-angle substitution equals the generalized rotor"
       " action coordinatewise")
def _r66_rotor_path(ctx):
    for _ in range(50):
        phis = [ctx.rng.uniform(-math.pi, math.pi) for _ in range(5)]
        xis = [ctx.rng.uniform(-1.5, 1.5) for _ in range(5)]
        a = quasi_sphere_point_r66(1.0, phis, xis)
        b = quasi_sphere_point_r66_via_rotors(1.0, phis, xis)
        yield from (abs(x - y) for x, y in zip(a, b))


@check("sphere.r66_reduction", "vanishing hyperbolic angles reduce to the real five-sphere",
       "last six coordinates vanish and the first six match the"
       " closed sphere form")
def _r66_reduction(ctx):
    for _ in range(25):
        phis = [ctx.rng.uniform(-math.pi, math.pi) for _ in range(5)]
        a = quasi_sphere_point_r66(2.0, phis, [0.0] * 5)
        yield from (abs(x - y) for x, y in zip(a[:6], sphere_point(2.0, phis)))
        yield from (abs(x) for x in a[6:])


# ----------------------------------------------------------------- wedge ----


def _random_exact_vector(space, rng):
    return space.paravector([Fraction(p, q) for p, q in _draw_pairs(rng, 4, 6, 3)])


@check("wedge.split", "product x bar(y) against its symmetric/antisymmetric parts",
       "x bar(y) = dot(x,y) + wedge(x,y), bit-exact on every ordered pair of"
       " basis paravectors", tol=0)
def _wedge_split(ctx):
    space = get_space("m4")
    coeffs = _nonzero_fractions(ctx.rng, space.dim)
    basis = [space.paravector([c if i == k else 0 for i in range(space.dim)]) for k, c in enumerate(coeffs)]
    for x, y in product(basis, repeat=2):
        mx, my = x.to_multivector(), y.to_multivector()
        yield mx.gp_blades(my.bar()) != space.rep.scalar(dot(x, y)) + wedge2(x, y)


@check("wedge.antisymmetry", "triple and quadruple wedge under argument transpositions",
       "every transposition flips the sign, bit-exact", tol=0)
def _wedge_antisymmetry(ctx):
    space = get_space("m4")
    for _ in range(12):
        for size, wedge in ((3, wedge3), (4, wedge4)):
            xs = [_random_exact_vector(space, ctx.rng) for _ in range(size)]
            base = wedge(*xs)
            for a in range(size):
                for b in range(a + 1, size):
                    sw = list(xs)
                    sw[a], sw[b] = sw[b], sw[a]
                    yield wedge(*sw) != -base


@check("wedge.degenerate", "wedge of linearly dependent arguments", "vanishes identically", tol=0)
def _wedge_degenerate(ctx):
    space, rng = get_space("m4"), ctx.rng
    for _ in range(12):
        x, y, v = (_random_exact_vector(space, rng) for _ in range(3))
        lam, mu = (Fraction(p, q) for p, q in _draw_pairs(rng, 2, 3, 2))
        dep = space.paravector([lam * a + mu * b for a, b in zip(x.coords, y.coords)])
        yield bool(wedge4(x, y, v, dep).coeffs)
        yield bool(wedge2(x, x).coeffs or wedge3(x, y, x).coeffs)


@check("wedge.basis_constant", "wedge of the four basis paravectors",
       "equals ij exactly; constant fixed by the 24-term alternating sum", tol=0)
def _wedge_basis_constant(ctx):
    space = get_space("m4")
    # exact coordinates so the 24-term sum is bit-exact
    e = [space.paravector([1 if i == k else 0 for i in range(4)]) for k in range(4)]
    ij = space.rep.blade((1, 2, 3))
    yield wedge4(*e) != ij
    # the anchor product with alternating bars
    mats = [v.to_multivector() for v in e]
    yield mats[0].gp_blades(mats[1].bar()).gp_blades(mats[2]).gp_blades(mats[3].bar()) != ij


# ------------------------------------------------------------- rotations ----


def _random_rotor(space: str, rng):
    if space == "h1":
        return rotor_from_params(RotorParams.h1(rng.uniform(-math.pi, math.pi), rng.uniform(-2, 2)))
    if space == "m4":
        phi = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
        return rotor_from_params(RotorParams.m4(phi=phi, xi=[rng.uniform(-2, 2) for _ in range(3)]))
    chosen = rng.sample(_INDEX_PAIRS, rng.randint(1, 4))
    phi = {p: rng.uniform(-math.pi, math.pi) for p in chosen}
    if space == "e6":
        return rotor_from_params(RotorParams.e6(phi))
    xi = {p: rng.uniform(-1.5, 1.5) for p in rng.sample(_INDEX_PAIRS, rng.randint(1, 4))}
    return rotor_from_params(RotorParams.r66(phi, xi))


@check("rotations.spin_condition", "group-membership certificates of all random rotors",
       "g bar(g) = 1 within 1e-12 for every constructed rotor", tol=1e-12)
def _spin_condition(ctx):
    yield from (r.spin_residual for rs in ctx.rotors.values() for r in rs)


@check("rotations.hat_inverse_dagger", "inverse-of-graduation against reversion",
       "hat(g)^-1 = dagger(g) within 1e-12 for every rotor", tol=1e-12)
def _hat_inverse_dagger(ctx):
    for g in (r.g for rs in ctx.rotors.values() for r in rs):
        yield (g.hat().gp(g.dagger()) - g.rep.scalar(1, exact=g.is_exact)).max_abs()


@check("rotations.qform_invariance", "quadratic-form preservation under the rotation action",
       "qform(g x hat(g)^-1) = qform(x) within 1e-10 per space")
def _qform_invariance(ctx):
    for s in _ROTOR_SPACES:
        space = get_space(s)
        for r in ctx.rotors[s]:
            x = space.paravector([ctx.rng.uniform(-2, 2) for _ in range(space.dim)])
            yield (x.qform() - act(r, x).qform()).max_abs()


@check("rotations.boost", "pure boost acting on a rest-frame vector",
       "(m, 0, 0, 0) -> (m cosh xi, 0, 0, m sinh xi) within 1e-12", tol=1e-12)
def _boost(ctx):
    space = get_space("m4")
    for xi in (-2.0, -0.5, 0.5, 2.0):
        for m in (1.0, 2.0):
            r = rotor_from_params(RotorParams.m4(xi=(0, 0, xi)))
            out = act(r, space.paravector([m, 0, 0, 0]))
            want = (m * math.cosh(xi), 0.0, 0.0, m * math.sinh(xi))
            yield from (abs(a - b) for a, b in zip(out.coords, want))


@check("rotations.metric", "basis scalar products against the diagonal metric",
       "e_a . e_b = g_ab on the diagonal and for every distinct pair"
       " in the Minkowski and Euclidean spaces; hyperbolic dual pairs"
       " carry their ij cross term", tol=0)
def _metric(ctx):
    cross = {"m4": {}, "e6": {}, "h1": {(0, 3): 1, (1, 2): -1}, "r66": {(a, a + 6): 1 for a in range(6)}}
    for name in ("m4", "e6", "r66", "h1"):
        space = get_space(name)
        for a in range(space.dim):
            for b in range(space.dim):
                ea = space.paravector([1 if k == a else 0 for k in range(space.dim)])
                eb = space.paravector([1 if k == b else 0 for k in range(space.dim)])
                if a == b:
                    want = HScalar.exact(space.metric[a])
                else:
                    pair = (a, b) if a < b else (b, a)
                    want = HScalar.exact(0, 0, 0, cross[name].get(pair, 0))
                yield dot(ea, eb) != want


@check("rotations.pure_forms", "graduation of pure rotations and pure boosts",
       "even-generated rotors have hat(g) = g; boost-like rotors have"
       " hat(g) = g^-1", tol=1e-12)
def _pure_forms(ctx):
    r = rotor_from_params(RotorParams.m4(phi=(0.4, -0.9, 1.2)))
    yield (r.g.hat() - r.g).max_abs()
    b = rotor_from_params(RotorParams.m4(xi=(0.3, -1.1, 0.7)))
    yield (b.g.hat() - b.rep.decompose(b.m.inverse())).max_abs()
    g2 = rotor_from_params(RotorParams.e6({(0, 2): 0.8}))
    yield (g2.g.dagger() - g2.g).max_abs()
    rot = rotor_from_params(RotorParams.e6({(2, 5): 0.8, (3, 4): -0.4}))
    yield (rot.g.hat() - rot.g).max_abs()


@check("rotations.null_roundtrip", "null-basis factorization of rotors",
       "idempotent components reconstruct the rotor within 1e-12;"
       " the scalar case matches exp(-i phi/2) exp(+- xi/2)", tol=1e-12)
def _null_roundtrip(ctx):
    def roundtrip_error(m):
        return (HMatrix._new(m.n, from_null_coords(*to_null_coords(m.coords)), None) - m).max_abs()

    for _ in range(40):
        r = _random_rotor("h1", ctx.rng)
        yield roundtrip_error(r.m)
        for (re, im), c in zip(to_null_coords(r.m.coords), h1_null_pair(r.params.phi[0], r.params.xi[0])):
            yield abs(re - c.real)
            yield abs(im - c.imag)
    for _ in range(10):
        yield roundtrip_error(_random_rotor("r66", ctx.rng).m)


# --------------------------------------------------------------- quantum ----


@check("quantum.interference", "interference formula: symmetry and monotonicity",
       "P = P1 + P2 + 2 sqrt(P1 P2) lambda, symmetric in the"
       " probabilities and increasing in lambda", tol=1e-12)
def _interference(ctx):
    yield abs(interfere(0.25, 0.25, 1.0) - 1.0)
    yield abs(interfere(0.3, 0.4, 0.0) - 0.7)
    for _ in range(200):
        p1, p2 = ctx.rng.uniform(0, 1), ctx.rng.uniform(0, 1)
        lam = ctx.rng.uniform(-3, 3)
        yield abs(interfere(p1, p2, lam) - interfere(p2, p1, lam))
        yield interfere(p1, p2, lam + 0.25) < interfere(p1, p2, lam) - 1e-15


@check("quantum.linearize", "amplitude linearization across both regimes",
       "the complex modulus (|lambda| <= 1) and the hyperbolic"
       " quadratic form (|lambda| >= 1) both reproduce the"
       " interference value within 1e-12", tol=1e-12)
def _linearize(ctx):
    for _ in range(1000):
        p1 = ctx.rng.uniform(1e-6, 1.0)
        p2 = ctx.rng.uniform(1e-6, 1.0)
        lam = ctx.rng.uniform(-3.0, 3.0)
        lin = linearize(p1, p2, lam)
        yield lin.regime != ("complex" if abs(lam) <= 1 else "hyperbolic")
        yield abs(reconstruct_probability(lin, p1, p2) - interfere(p1, p2, lam))


@check("quantum.regime_boundary", "agreement of the two regimes at lambda = +-1",
       "theta = 0 on the boundary and both amplitude squares coincide", tol=1e-12)
def _regime_boundary(ctx):
    for p1, p2 in ((0.25, 0.25), (0.7, 0.1)):
        # lambda = 1: theta vanishes and both regimes coincide
        yield linearize(p1, p2, 1.0).theta != 0.0
        cval = reconstruct_probability(Linearization("complex", 0.0, 1), p1, p2)
        hval = reconstruct_probability(Linearization("hyperbolic", 0.0, 1), p1, p2)
        yield abs(cval - hval)
        yield abs(cval - interfere(p1, p2, 1.0))
        # lambda = -1: complex phase pi against hyperbolic sign -1
        cval = reconstruct_probability(Linearization("complex", math.pi, 1), p1, p2)
        hval = reconstruct_probability(Linearization("hyperbolic", 0.0, -1), p1, p2)
        yield abs(cval - hval)
        yield abs(cval - interfere(p1, p2, -1.0))


@check("quantum.mass_reduction", "squared mass of a real momentum",
       "reduces bit-exactly to the Minkowski quadratic form", tol=0)
def _mass_reduction(ctx):
    space = get_space("m4")
    for _ in range(50):
        q = [Fraction(p, d) for p, d in _draw_pairs(ctx.rng, 4, 8, 3)]
        p = embed_momentum(q, (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
        yield p.qform() != space.paravector(q).qform()


@check("quantum.hermiticity", "reality of the squared mass over momentum families",
       "real and boosted-real momenta pass; a nonzero ij component"
       " 2 q0 u0 fails as it must", tol=0)
def _hermiticity(ctx):
    rng, tol = ctx.rng, ctx.tol
    for _ in range(40):
        p = MomentumHM4(q=tuple(rng.uniform(-2, 2) for _ in range(4)))
        yield not hermiticity_check(p, tol)
    # boosted real momenta stay on the real quasi-sphere
    space = get_space("m4")
    for _ in range(20):
        r = _random_rotor("m4", rng)
        x = act(r, space.paravector([rng.uniform(0.5, 2), 0, 0, 0]))
        yield not hermiticity_check(MomentumHM4(q=x.coords), tol)
    # the q0 u0 family fails, at a fixed bound: its ij part 2 q0 u0 is at
    # least 0.08, which a loose --tol would accept
    for _ in range(20):
        q0, u0 = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
        p = MomentumHM4(q=(q0, 0, 0, 0), u=(u0, 0, 0, 0))
        yield hermiticity_check(p, 1e-12)
        yield abs(float(mass_qform(p).w) - 2 * q0 * u0) > 1e-12


@check("quantum.stabilizer", "fiber transformations against the standard momentum",
       "identity and random fiber rotors preserve the split-space"
       " quadratic form and leave the base scalar untouched", tol=0)
def _stabilizer(ctx):
    p = MomentumHM4.rest(1.5)
    yield not stabilizer_check(rotor_from_params(RotorParams.e6({})), p)
    for _ in range(4):
        yield not stabilizer_check(_random_rotor("e6", ctx.rng), p)
        yield not stabilizer_check(_random_rotor("r66", ctx.rng), p)


# ----------------------------------------------------------------- driver ----

SUITE_NAMES = tuple(dict.fromkeys(spec.suite for spec in REGISTRY))


def run_suite(name: str, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    specs = [spec for spec in REGISTRY if spec.suite == name]
    if not specs:
        raise KeyError(name)
    ctx = Context(tol)
    return [spec.run(ctx) for spec in specs]


def run_all(tol: float = DEFAULT_TOL) -> list[CheckReport]:
    # each suite through the module-level run_suite, which profilers wrap
    return [report for name in SUITE_NAMES for report in run_suite(name, tol)]


def summarize(reports) -> dict:
    return {
        "pass": sum(1 for r in reports if r.status == "pass"),
        "fail": sum(1 for r in reports if r.status == "fail"),
        "deviation": sum(1 for r in reports if r.status == "deviation-documented"),
    }
