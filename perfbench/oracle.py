"""Output oracles for the benchmark workloads.

The verify oracle is the expected status of every check at the commit
that introduced the benchmark: 51 ``pass`` and the three documented
deviations.  The calculator oracles recompute each answer from an
independent closed form, or, for the table lookups, compare with the
first answer the run saw.  Nothing here calls into the library.
"""

from __future__ import annotations

import json
import math

DEVIATIONS = (
    "commutators.index_kk_printed",
    "commutators.lorentz_kk_printed",
    "commutators.split_literal",
)

_CHECK_IDS = {
    "tables": ("one_dim", "three_dim", "five_dim"),
    "dims": (
        "r01", "r10", "r30", "r05", "c30bar", "h05bar", "even_r05",
        "pseudoscalar_r30", "pseudoscalar_r05", "pseudoscalar_r01",
    ),
    "commutators": (
        "pauli_literals", "trace_orthogonality", "sigma_table", "index_jj",
        "index_jk", "index_kk_computed", "index_kk_printed", "lorentz",
        "lorentz_kk_printed", "split_lorentz", "split_index", "split_literal",
    ),
    "involutions": (
        "product_rules", "bar_composition", "bar_is_adjoint", "gp_dual_route",
        "porteous_2x2", "porteous_4x4", "quaternions", "null_scalar",
    ),
    "sphere": ("closed_vs_rotor", "r66_membership", "r66_rotor_path", "r66_reduction"),
    "wedge": ("split", "antisymmetry", "degenerate", "basis_constant"),
    "rotations": (
        "spin_condition", "hat_inverse_dagger", "qform_invariance", "boost",
        "metric", "pure_forms", "null_roundtrip",
    ),
    "quantum": (
        "interference", "linearize", "regime_boundary", "mass_reduction",
        "hermiticity", "stabilizer",
    ),
}

EXPECTED_STATUS = {
    f"{suite}.{name}": "pass"
    for suite, names in _CHECK_IDS.items()
    for name in names
}
EXPECTED_STATUS.update({cid: "deviation-documented" for cid in DEVIATIONS})

# Relative tolerance of the float answers; the program's own checks use 1e-10.
TOL = 1e-9


def check_verify(suite: str, stdout: str) -> tuple[int, list[tuple[str, str]], dict]:
    """Compare one ``verify SUITE --format json`` output with the expected
    statuses.

    Returns ``(attempted, failures, elapsed_s)``: one failure per check id
    whose status differs, that is missing, or that is not expected, and
    each reported check's own ``elapsed_ms`` in seconds.
    """
    expected = {cid: st for cid, st in EXPECTED_STATUS.items() if cid.startswith(suite + ".")}
    try:
        records = json.loads(stdout)["checks"]
        got = {r["check_id"]: r for r in records}
    except (ValueError, KeyError, TypeError):
        return len(expected), [(cid, "no parsable verify output") for cid in expected], {}
    failures = []
    for cid, status in expected.items():
        if cid not in got:
            failures.append((cid, "missing"))
        elif got[cid].get("status") != status:
            failures.append((cid, f"status {got[cid].get('status')!r}, expected {status!r}"))
    unexpected = [cid for cid in got if cid not in expected]
    failures.extend((cid, "unexpected check") for cid in unexpected)
    elapsed = {cid: float(r.get("elapsed_ms", 0.0)) / 1e3 for cid, r in got.items()}
    return len(expected) + len(unexpected), failures, elapsed


# -- calculator answers ---------------------------------------------------------


def sphere_closed_form(r: float, angles) -> list[float]:
    """Five-sphere point from the angles (phi_25, phi_02, phi_01, phi_35, phi_34)."""
    p25, p02, p01, p35, p34 = angles
    s25, c25 = math.sin(p25), math.cos(p25)
    return [
        r * s25 * math.sin(p02) * math.cos(p01),
        r * s25 * math.sin(p02) * math.sin(p01),
        r * s25 * math.cos(p02),
        r * c25 * math.sin(p35) * math.cos(p34),
        r * c25 * math.sin(p35) * math.sin(p34),
        r * c25 * math.cos(p35),
    ]


def _close(got, want, tol: float) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want))


def _boost(p: dict, payload) -> str | None:
    xi, axis, x = p["xi"], p["axis"], p["vector"]
    ch, sh = math.cosh(xi), math.sinh(xi)
    want = list(x)
    want[0] = ch * x[0] + sh * x[axis]
    want[axis] = sh * x[0] + ch * x[axis]
    got = payload["coords"]
    scale = ch * (1.0 + max(abs(c) for c in x))
    if not _close(got, want, TOL * scale):
        return "coordinates differ from the cosh/sinh closed form"

    def norm(v):
        return v[0] * v[0] - v[1] * v[1] - v[2] * v[2] - v[3] * v[3]

    if abs(norm(got) - norm(x)) > TOL * scale * scale:
        return "Minkowski norm not preserved"
    return None


def _sphere(p: dict, payload) -> str | None:
    r = p["radius"]
    tol = TOL * (1.0 + r)
    want = sphere_closed_form(r, p["angles"])
    if not _close(payload["closed_form"], want, tol):
        return "closed form differs from the independent formula"
    if not _close(payload["rotor_path"], want, tol):
        return "rotor path differs from the closed form"
    if not 0.0 <= payload["max_deviation"] <= tol:
        return f"max_deviation {payload['max_deviation']!r} out of tolerance"
    if p.get("xis") is not None:
        if len(payload["extended_coords"]) != 12:
            return "extended coordinates are not 12"
        if not 0.0 <= payload["membership_residual"] <= TOL * (1.0 + r * r):
            return f"membership residual {payload['membership_residual']!r} out of tolerance"
    return None


def _decompose(p: dict, payload) -> str | None:
    got = {row["blade"]: row["coeff"] for row in payload["coefficients"]}
    want = p["coeffs"]
    for blade in set(got) | set(want):
        g = got.get(blade, [0.0] * 4)
        w = want.get(blade, [0.0] * 4)
        if not _close(g, w, TOL):
            return f"coefficient of {blade} is {g}, generated {w}"
    if not 0.0 <= payload["residual"] <= TOL:
        return f"residual {payload['residual']!r} out of tolerance"
    return None


def _interfere(p: dict, payload) -> str | None:
    p1, p2, lam = p["p1"], p["p2"], p["lam"]
    want = p1 + p2 + 2.0 * lam * math.sqrt(p1 * p2)
    if abs(payload["P"] - want) > 1e-12 * (1.0 + abs(want)):
        return f"P = {payload['P']!r}, closed form {want!r}"
    return None


_CLOSED_FORMS = {
    "boost": _boost,
    "sphere": _sphere,
    "decompose": _decompose,
    "interfere": _interfere,
}


class ResponseOracle:
    """Checks calculator responses.  Lookups without a closed form
    (``pauli``, ``tables``) must repeat the first answer seen for the
    same arguments in this oracle's lifetime."""

    def __init__(self):
        self._first = {}

    def check(self, command: str, argv, params: dict, rc, stdout: str, error: str | None):
        """Return ``None`` for a correct response, else the reason it is
        not: an error exit, an exception or a wrong answer."""
        if rc != 0:
            return (error or f"exit code {rc}").strip().splitlines()[-1]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "unparsable output"
        if command in _CLOSED_FORMS:
            try:
                reason = _CLOSED_FORMS[command](params, payload)
            except (KeyError, TypeError, IndexError) as exc:
                reason = f"malformed answer ({type(exc).__name__}: {exc})"
            return reason
        key = tuple(argv)
        first = self._first.setdefault(key, payload)
        if payload != first:
            return "answer differs from the first answer to the same request"
        return None
