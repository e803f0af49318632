"""Rotor construction, the rotation action, and generator verification.

A rotor is a group element g with g*bar(g) = 1 acting on paravectors by
x -> g x hat(g)^-1, which preserves the quadratic form.  Rotors are built
as exponentials

    h1   g = exp(-i phi/2 + j xi/2)                      scalars
    m4   g = exp(-i phi/2 + j xi/2),  phi = sum phi_k sigma_k   (2x2)
    e6   g = exp(-i phi/2),           phi = sum phi_ab sigma_ab (4x4)
    r66  g = exp(-i phi/2 + j xi/2)   both index families       (4x4)

and certified at construction: the spin condition and the identity
hat(g)^-1 = dagger(g) are checked rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .algebra import AlgebraRep, Multivector, get_rep
from .matrices import HMatrix, commutator, pauli2, sigma_ab
from .paravectors import Paravector, get_space
from .scalars import HScalar, NullPair, from_null, to_null, trig_tilde

__all__ = [
    "SeriesNonConvergence",
    "ResultOutsideParavectorSpan",
    "RotorParams",
    "Rotor",
    "rotor_from_params",
    "rotor_from_matrix",
    "act",
    "mat_exp",
    "commutator",
    "lorentz_generators",
    "su4_generator",
    "hyperbolic_generator",
    "null_split",
    "verify_index_commutators",
    "verify_lorentz_commutators",
    "verify_null_split",
    "null_factorize",
    "null_reconstruct",
    "h1_null_pair",
    "sphere_point",
    "sphere_point_via_rotors",
    "quasi_sphere_point_r66",
    "quasi_sphere_point_r66_via_rotors",
    "SPHERE_PLANES",
    "CERT_TOL",
]

# Tolerance for the rotor certificates g*bar(g) = 1 and hat(g)^-1 = dagger(g).
CERT_TOL = 1e-12
# Size of the last series term kept by the scaling-and-squaring exponential.
_SERIES_TOL = 1e-14

SPACE_REP = {"h1": "c10bar", "m4": "c30bar", "e6": "h05bar", "r66": "h05bar"}

# Rotation planes of the five-rotation sphere composition, with the sign
# each plane's angle carries inside the exponent, in application order.
SPHERE_PLANES = ((2, 5, 1), (0, 2, -1), (0, 1, 1), (3, 5, 1), (3, 4, -1))


class SeriesNonConvergence(ArithmeticError):
    """Raised when the exponential argument is too large to scale down."""


class ResultOutsideParavectorSpan(ValueError):
    """Raised when a rotation result leaks out of the paravector span,
    which signals an invalid group element."""


def _antisym_normalize(mapping) -> dict:
    out = {}
    for (a, b), val in dict(mapping or {}).items():
        if not (0 <= a <= 5 and 0 <= b <= 5):
            raise ValueError("plane indices must lie in 0..5")
        if a == b:
            raise ValueError("plane indices must differ")
        key, v = ((a, b), float(val)) if a < b else ((b, a), -float(val))
        if key in out and out[key] != v:
            raise ValueError(f"conflicting values for plane {key}")
        out[key] = v
    return out


@dataclass(frozen=True)
class RotorParams:
    """Rotation parameters; angles in radians, antisymmetry enforced."""

    space: str
    phi: tuple = ()
    xi: tuple = ()
    phi_ab: tuple = ()
    xi_ab: tuple = ()

    @classmethod
    def h1(cls, phi: float = 0.0, xi: float = 0.0) -> "RotorParams":
        return cls("h1", phi=(float(phi),), xi=(float(xi),))

    @classmethod
    def m4(cls, phi=(0.0, 0.0, 0.0), xi=(0.0, 0.0, 0.0)) -> "RotorParams":
        phi, xi = tuple(map(float, phi)), tuple(map(float, xi))
        if len(phi) != 3 or len(xi) != 3:
            raise ValueError("m4 expects three rotation and three boost angles")
        return cls("m4", phi=phi, xi=xi)

    @classmethod
    def e6(cls, phi_ab=None) -> "RotorParams":
        return cls("e6", phi_ab=tuple(sorted(_antisym_normalize(phi_ab).items())))

    @classmethod
    def r66(cls, phi_ab=None, xi_ab=None) -> "RotorParams":
        return cls(
            "r66",
            phi_ab=tuple(sorted(_antisym_normalize(phi_ab).items())),
            xi_ab=tuple(sorted(_antisym_normalize(xi_ab).items())),
        )


# -- matrix exponential ---------------------------------------------------------


def _scalar_square(m: HMatrix):
    """If m equals s*identity for a real s, return s, else None."""
    coords, diagonal = m.coords, 4 * m.n + 4
    x, y, v, w = coords[:4]
    if y != 0.0 or v != 0.0 or w != 0.0:
        return None
    for k in range(0, len(coords), 4):
        c = coords[k:k + 4]
        if k % diagonal == 0:
            # component-wise ==, so that a NaN never matches
            if not (c[0] == x and c[1] == y and c[2] == v and c[3] == w):
                return None
        elif c[0] != 0.0 or c[1] != 0.0 or c[2] != 0.0 or c[3] != 0.0:
            return None
    return float(x)


def mat_exp(x: HMatrix, half_at: float = 0.5, max_halvings: int = 64) -> HMatrix:
    """Exponential of a float-backend matrix.

    Arguments whose square is a real multiple of the identity use the
    closed trigonometric/hyperbolic form; everything else falls back to
    scaling-and-squaring with the series truncated at ``_SERIES_TOL``.
    """
    s = _scalar_square(x @ x)
    if s is not None:
        idm = HMatrix.identity(x.n, exact=False)
        if s < 0.0:
            t = math.sqrt(-s)
            return idm.scale(HScalar.flt(math.cos(t))) + x.scale(
                HScalar.flt(math.sin(t) / t if t else 1.0)
            )
        if s > 0.0:
            t = math.sqrt(s)
            return idm.scale(HScalar.flt(math.cosh(t))) + x.scale(
                HScalar.flt(math.sinh(t) / t)
            )
        return HMatrix.identity(x.n, exact=False) + x

    halvings = 0
    scaled = x
    while scaled.max_abs() > half_at:
        if halvings >= max_halvings:
            raise SeriesNonConvergence("exponential argument too large")
        scaled = scaled.scale(HScalar.flt(0.5))
        halvings += 1
    acc = HMatrix.identity(x.n, exact=False)
    term = HMatrix.identity(x.n, exact=False)
    for k in range(1, 120):
        term = (term @ scaled).scale(HScalar.flt(1.0 / k))
        acc = acc + term
        if term.max_abs() < _SERIES_TOL:
            break
    else:
        raise SeriesNonConvergence("series failed to reach tolerance")
    for _ in range(halvings):
        acc = acc @ acc
    return acc


# -- rotor construction ------------------------------------------------------------


@dataclass(frozen=True)
class Rotor:
    """A certified group element with its cached companions.

    ``spin_residual`` and ``dagger_residual`` record how well g*bar(g) = 1
    and hat(g)^-1 = dagger(g) hold; construction rejects anything beyond
    the certificate tolerance.
    """

    g: Multivector
    ghat_inv: Multivector
    spin_residual: float
    dagger_residual: float
    params: RotorParams | None = field(default=None, compare=False)

    @property
    def rep(self) -> AlgebraRep:
        return self.g.rep


@lru_cache(maxsize=None)
def _pauli2_float(k: int) -> HMatrix:
    return pauli2(k).to_float()


@lru_cache(maxsize=None)
def _sigma_ab_float(a: int, b: int) -> HMatrix:
    return sigma_ab(a, b).to_float()


def _exponent_matrix(params: RotorParams) -> HMatrix:
    if params.space == "m4":
        acc = HMatrix.zeros(2, exact=False)
        for k in range(3):
            s = _pauli2_float(k + 1)
            coeff = HScalar.flt(0.0, -params.phi[k] / 2.0, params.xi[k] / 2.0, 0.0)
            acc = acc + s.scale(coeff)
        return acc
    if params.space in ("e6", "r66"):
        phi_by_plane, xi_by_plane = dict(params.phi_ab), dict(params.xi_ab)
        acc = HMatrix.zeros(4, exact=False)
        for ab in sorted(phi_by_plane.keys() | xi_by_plane.keys()):
            acc = acc + _plane_exponent(*ab, phi_by_plane.get(ab, 0.0), xi_by_plane.get(ab, 0.0))
        return acc
    raise ValueError(f"no matrix exponent for space {params.space!r}")


def _plane_exponent(a: int, b: int, phi: float, xi: float) -> HMatrix:
    """The (a, b) plane's term (-i phi + j xi) sigma_ab / 2 of an e6/r66 exponent."""
    return _sigma_ab_float(a, b).scale(HScalar.flt(0.0, -phi / 2.0, xi / 2.0, 0.0))


def rotor_from_matrix(rep: AlgebraRep, m: HMatrix, params: RotorParams | None = None) -> Rotor:
    """Decompose, certify and wrap a group-element matrix."""
    mv, residual = rep.decompose_residual(m)
    if residual > 1e-9 * (1.0 + m.max_abs()):
        raise ValueError("matrix lies outside the representation span")
    one = rep.scalar(1, exact=False)
    spin = (mv.gp(mv.bar()) - one).max_abs()
    ghat_inv = rep.decompose(mv.hat().to_matrix().inverse())
    dag = (ghat_inv - mv.dagger()).max_abs()
    scale = 1.0 + mv.max_abs() ** 2
    if spin > CERT_TOL * scale:
        raise ValueError(f"spin condition violated: residual {spin:.3e}")
    if dag > CERT_TOL * scale:
        raise ValueError(f"hat-inverse/dagger identity violated: residual {dag:.3e}")
    return Rotor(mv, ghat_inv, spin, dag, params)


def rotor_from_params(params: RotorParams) -> Rotor:
    rep = get_rep(SPACE_REP[params.space])
    if params.space == "h1":
        z = HScalar.flt(0.0, -params.phi[0] / 2.0, params.xi[0] / 2.0, 0.0)
        g = HMatrix([[z.exp()]])
        return rotor_from_matrix(rep, g, params)
    x = _exponent_matrix(params)
    return rotor_from_matrix(rep, mat_exp(x), params)


def act(rotor: Rotor, x: Paravector, tol: float = 1e-9) -> Paravector:
    """The rotation x -> g x hat(g)^-1, projected back to coordinates.

    Raises :class:`ResultOutsideParavectorSpan` when the image leaks out
    of the paravector span beyond ``tol`` (relative to the coordinate
    size), which indicates g is not a valid transformation for the space.
    """
    if x.space.rep is not rotor.rep:
        raise ValueError("rotor and paravector use different representations")
    xm = x.to_multivector().to_matrix().to_float()
    m = rotor.g.to_matrix() @ xm @ rotor.ghat_inv.to_matrix()
    coords, residual = x.space.project_matrix(m)
    if residual > tol * (1.0 + m.max_abs()):
        raise ResultOutsideParavectorSpan(
            f"rotation image leaves the {x.space.name} span (residual {residual:.3e})"
        )
    return x.space.paravector(coords)


# -- generator sets and their relations ------------------------------------------------


def _half() -> HScalar:
    return HScalar.exact(Fraction(1, 2))


def lorentz_generators() -> tuple[list[HMatrix], list[HMatrix]]:
    """Rotation generators sigma_k/2 and boost generators ij*sigma_k/2."""
    half = _half()
    ij_half = HScalar.exact(0, 0, 0, Fraction(1, 2))
    rotations = [pauli2(k).scale(half) for k in (1, 2, 3)]
    boosts = [pauli2(k).scale(ij_half) for k in (1, 2, 3)]
    return rotations, boosts


def su4_generator(a: int, b: int) -> HMatrix:
    """J_ab = sigma_ab/2; zero when the indices coincide."""
    if a == b:
        return HMatrix.zeros(4)
    return sigma_ab(a, b).scale(_half())


def hyperbolic_generator(a: int, b: int) -> HMatrix:
    """K_ab = ij * J_ab, the hyperbolic extension of the index generators."""
    return su4_generator(a, b).scale(HScalar.unit("ij"))


def _delta(a: int, b: int) -> int:
    return 1 if a == b else 0


def _index_rhs(maker, a, b, c, d, sign: int) -> HMatrix:
    """sign * i * (d_ac X_bd - d_ad X_bc - d_bc X_ad + d_bd X_ac)."""
    acc = HMatrix.zeros(4)
    for coef, (p, q) in (
        (_delta(a, c), (b, d)),
        (-_delta(a, d), (b, c)),
        (-_delta(b, c), (a, d)),
        (_delta(b, d), (a, c)),
    ):
        if coef:
            acc = acc + maker(p, q).scale(coef)
    return acc.scale(HScalar.exact(0, sign))


def verify_index_commutators() -> dict:
    """Exact check of the index-pair commutator relations over all
    ordered pairs of distinct index pairs.

    Verifies [J,J] = i(d J), [J,K] = i(d K) and the computed form
    [K,K] = -i(d J); also counts how often the printed alternative
    [K,K] = -i(d K) fails, which documents the deviation.
    """
    checked = failures_jj = failures_jk = failures_kk = 0
    printed_kk_failures = 0
    pairs = [(a, b) for a, b in product(range(6), repeat=2) if a != b]
    jmat = {p: su4_generator(*p) for p in pairs}
    kmat = {p: hyperbolic_generator(*p) for p in pairs}
    zero = HMatrix.zeros(4)
    jmat.update({(a, a): zero for a in range(6)})
    kmat.update({(a, a): zero for a in range(6)})

    def j_of(p, q):
        return jmat[(p, q)]

    def k_of(p, q):
        return kmat[(p, q)]
    for a, b in pairs:
        jab, kab = jmat[(a, b)], kmat[(a, b)]
        for c, d in pairs:
            jcd, kcd = jmat[(c, d)], kmat[(c, d)]
            checked += 1
            if commutator(jab, jcd) != _index_rhs(j_of, a, b, c, d, 1):
                failures_jj += 1
            if commutator(jab, kcd) != _index_rhs(k_of, a, b, c, d, 1):
                failures_jk += 1
            kk = commutator(kab, kcd)
            if kk != _index_rhs(j_of, a, b, c, d, -1):
                failures_kk += 1
            if kk != _index_rhs(k_of, a, b, c, d, -1):
                printed_kk_failures += 1
    return {
        "checked": checked,
        "failures_jj": failures_jj,
        "failures_jk": failures_jk,
        "failures_kk_computed": failures_kk,
        "printed_kk_failures": printed_kk_failures,
    }


_EPS = {}
for perm in permutations((0, 1, 2)):
    inv = sum(1 for x in range(3) for y in range(x + 1, 3) if perm[x] > perm[y])
    _EPS[perm] = -1 if inv % 2 else 1


def _eps(i, j, k) -> int:
    return _EPS.get((i, j, k), 0)


def _eps_sum(gens, a: int, b: int, sign: int = 1) -> HMatrix:
    """sign * i * sum_c eps_abc gens[c] for three 2x2 generators."""
    acc = HMatrix.zeros(2)
    for c in range(3):
        e = _eps(a, b, c) * sign
        if e:
            acc = acc + gens[c].scale(e)
    return acc.scale(HScalar.unit("i"))


def verify_lorentz_commutators() -> dict:
    """Exact check of [J,J] = i e J, [J,K] = i e K, computed
    [K,K] = -i e J; counts failures of the printed [K,K] = -i e K."""
    rot, boo = lorentz_generators()
    failures = {"jj": 0, "jk": 0, "kk_computed": 0}
    printed_kk_failures = 0
    for a in range(3):
        for b in range(3):
            if commutator(rot[a], rot[b]) != _eps_sum(rot, a, b):
                failures["jj"] += 1
            if commutator(rot[a], boo[b]) != _eps_sum(boo, a, b):
                failures["jk"] += 1
            kk = commutator(boo[a], boo[b])
            if kk != _eps_sum(rot, a, b, sign=-1):
                failures["kk_computed"] += 1
            if a != b and kk != _eps_sum(boo, a, b, sign=-1):
                printed_kk_failures += 1
    return {"failures": failures, "printed_kk_failures": printed_kk_failures}


def null_split(j_gens) -> tuple[list[HMatrix], list[HMatrix]]:
    """Split into two commuting copies via the idempotents (1 +- j)/2.

    A = e+ J and B = e- J, equivalently A = (J - iK)/2 and B = (J + iK)/2
    for K = ij J.  The combination (J + ijK)/2 collapses to zero because
    (ij)^2 = -1; the idempotent form realizes the intended pair of
    commuting factors.
    """
    h = Fraction(1, 2)
    ep = HScalar.exact(h, 0, h)
    em = HScalar.exact(h, 0, -h)
    a = [g.scale(ep) for g in j_gens]
    b = [g.scale(em) for g in j_gens]
    return a, b


def verify_null_split(j_gens, k_gens, struct) -> dict:
    """Check the split reproduces the parent structure constants.

    ``struct(gens, a, b)`` must return the expected commutator of the
    a-th and b-th generators built from ``gens``.
    """
    a_set, b_set = null_split(j_gens)
    n = len(j_gens)
    unit_i = HScalar.unit("i")
    cross = sum_err = recon = lit = 0
    for p in range(n):
        if (a_set[p] + b_set[p]) != j_gens[p]:
            recon += 1
        if (a_set[p] - b_set[p]).scale(unit_i) != k_gens[p]:
            recon += 1
        literal = (j_gens[p] + k_gens[p].scale(HScalar.unit("ij"))).scale(_half())
        if literal != HMatrix.zeros(j_gens[p].n):
            lit += 1
        for q in range(n):
            if commutator(a_set[p], b_set[q]) != HMatrix.zeros(j_gens[p].n):
                cross += 1
            if commutator(a_set[p], a_set[q]) != struct(a_set, p, q):
                sum_err += 1
            if commutator(b_set[p], b_set[q]) != struct(b_set, p, q):
                sum_err += 1
    return {
        "cross_failures": cross,
        "structure_failures": sum_err,
        "reconstruction_failures": recon,
        "literal_form_nonzero": lit,
    }


# -- null-basis factorization -----------------------------------------------------------


def null_factorize(rotor: Rotor) -> tuple[HMatrix, HMatrix]:
    """Components of the rotor matrix over the idempotents (1+j)/2 and
    (1-j)/2, entry by entry through :func:`to_null`; each is a complex
    matrix (no hyperbolic part)."""
    pairs = [[to_null(z) for z in row] for row in rotor.g.to_matrix().to_float().rows]
    return HMatrix([[p.a for p in row] for row in pairs]), HMatrix([[p.b for p in row] for row in pairs])


def null_reconstruct(pair: tuple[HMatrix, HMatrix]) -> HMatrix:
    """Inverse of :func:`null_factorize`, entry by entry through :func:`from_null`."""
    plus, minus = pair
    return HMatrix([
        [from_null(NullPair(a, b, real=a.y == b.y == 0)) for a, b in zip(pr, mr)]
        for pr, mr in zip(plus.rows, minus.rows)
    ])


def h1_null_pair(phi: float, xi: float) -> tuple[complex, complex]:
    """Closed-form null components exp(-i phi/2) exp(+- xi/2)."""
    phase = complex(math.cos(phi / 2.0), -math.sin(phi / 2.0))
    return phase * math.exp(xi / 2.0), phase * math.exp(-xi / 2.0)


# -- sphere parametrizations ---------------------------------------------------------------


def sphere_point(r: float, angles) -> tuple[float, ...]:
    """Closed-form point on the five-sphere of radius r.

    ``angles`` are (phi_25, phi_02, phi_01, phi_35, phi_34).
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    p25, p02, p01, p35, p34 = map(float, angles)
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
    space; xi extends each angle by its ij part."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    g = HMatrix.identity(4, exact=False)
    for (a, b, sign), phi, xi in zip(SPHERE_PLANES, map(float, phis), map(float, xis)):
        g = mat_exp(_plane_exponent(a, b, -sign * phi, -sign * xi)) @ g
    rotor = rotor_from_matrix(get_rep("h05bar"), g)
    return act(rotor, get_space(space).basis_vector(5, r)).coords


def sphere_point_via_rotors(r: float, angles) -> tuple[float, ...]:
    """The same point produced by composing the five plane rotations
    right-to-left and rotating (0, 0, 0, 0, 0, r)."""
    return _sphere_via_rotors("e6", r, angles, (0.0,) * 5)


def quasi_sphere_point_r66(r: float, phis, xis) -> tuple[float, ...]:
    """Quasi-sphere point from the complexified angles phi + ij xi.

    The closed sphere form is evaluated over the scalar ring with the
    complexified cosines and sines; real parts land on coordinates 0..5
    and the ij-proportional parts on coordinates 6..11.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    phis, xis = tuple(map(float, phis)), tuple(map(float, xis))
    c25, s25 = trig_tilde(phis[0], xis[0])
    c02, s02 = trig_tilde(phis[1], xis[1])
    c01, s01 = trig_tilde(phis[2], xis[2])
    c35, s35 = trig_tilde(phis[3], xis[3])
    c34, s34 = trig_tilde(phis[4], xis[4])
    rr = HScalar.flt(r)
    entries = (
        rr * s25 * s02 * c01,
        rr * s25 * s02 * s01,
        rr * s25 * c02,
        rr * c25 * s35 * c34,
        rr * c25 * s35 * s34,
        rr * c25 * c35,
    )
    coords = [0.0] * 12
    for a, z in enumerate(entries):
        coords[a] = z.x
        coords[a + 6] = z.w
    return tuple(coords)


def quasi_sphere_point_r66_via_rotors(r: float, phis, xis) -> tuple[float, ...]:
    """The same point via the generalized five-rotation composition."""
    return _sphere_via_rotors("r66", r, phis, xis)
