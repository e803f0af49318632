"""Command-line verification harness and calculator.

Exit codes: 0 all checks pass (deviation-documented records allowed),
1 any check fails, 2 usage error or an input the library cannot compute
with (a ValueError, or an ArithmeticError such as SingularMatrix,
SeriesNonConvergence, ZeroDivisor or OverflowError).  The
HYPERCLIFFORD_TOL environment variable overrides the default tolerance
of numeric checks; like ``--tol`` it must be a finite number, zero or
above.  ``sphere`` exits 1 when its two paths deviate by more than
``tol * (1 + |radius|)``.  A ``--format json`` answer prints exactly as
the standard ``json`` module prints it with ``indent=2``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_string

from . import checks
from .algebra import REP_NAMES, get_rep, involution_table
from .matrices import HMatrix, pauli2, pauli4, sigma_ab
from .paravectors import get_space, quasi_sphere_residual
from .physics import interfere, linearize
from .rotors import RotorParams, act, quasi_sphere_point_r66, rotor_from_params, sphere_point, sphere_point_via_rotors
from .scalars import HScalar

_SIGN = {1: "+", -1: "-"}
# the types of a decoded JSON number; a bool, a string or null is not one
_JSON_NUMBERS = frozenset((int, float))
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LITERALS = {True: "true", False: "false", None: "null"}


def _dumps(obj, indent: str = "\n") -> str:
    """``obj`` as the ``json`` module prints it with ``indent=2``, byte for byte.
    Exact JSON types only (a tuple is an array) and ``str`` keys, else TypeError."""
    kind = obj.__class__
    if kind is float:
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if kind is str:
        return _json_string(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool or obj is None:
        return _LITERALS[obj]
    inner = indent + "  "
    if kind is list or kind is tuple:
        parts = [_dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + indent + "]" if parts else "[]"
    if kind is dict:
        parts = [_json_string(k) + ": " + _dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _default_tol() -> float:
    raw = os.environ.get("HYPERCLIFFORD_TOL")
    if raw is None:
        return checks.DEFAULT_TOL
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"HYPERCLIFFORD_TOL: {exc}") from None


def _print_matrix(m: HMatrix, out):
    rows = m.rows
    width = max(len(str(z)) for row in rows for z in row)
    for row in rows:
        out.write("  [" + "  ".join(str(z).rjust(width) for z in row) + "]\n")


def _scalar_json(z: HScalar) -> list:
    return [float(z.x), float(z.y), float(z.v), float(z.w)]


def _matrix_json(m: HMatrix) -> list:
    """Rows of ``[x, y, v, w]`` floats, each the float of its coordinate."""
    c, w = m.to_float().nums, 4 * m.n
    return [[list(c[k:k + 4]) for k in range(r, r + w, 4)] for r in range(0, len(c), w)]


def _finite_float(raw) -> float:
    """Argument type of every float option: rejects NaN and infinities,
    which no command can give a meaningful answer for."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {raw!r}")
    return value


def _tolerance(raw) -> float:
    """Argument type of ``--tol``: a finite number, zero or above."""
    value = _finite_float(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative tolerance: {raw!r}")
    return value


def _parse_floats(text: str, want: int, what: str) -> list[float]:
    try:
        vals = [_finite_float(tok) for tok in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if len(vals) != want:
        raise ValueError(f"{what} needs {want} comma-separated numbers")
    return vals


# ------------------------------------------------------------------ verify ----


def _cmd_verify(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    if args.suite == "all":
        reports = checks.run_all(tol)
    else:
        reports = checks.run_suite(args.suite, tol)
    summary = checks.summarize(reports)
    if args.format == "json":
        payload = {"checks": [r.to_dict() for r in reports], "summary": summary}
        print(_dumps(payload))
    else:
        wid = max(len(r.check_id) for r in reports)
        for r in reports:
            tag = {"pass": "PASS", "fail": "FAIL", "deviation-documented": "DEVN"}[r.status]
            print(
                f"{tag}  {r.check_id.ljust(wid)}  {r.description}"
                f"  [err={r.max_error:.2e}  {r.elapsed_ms:.1f}ms]"
            )
            if r.status == "deviation-documented":
                print(f"      note: {r.claim}")
        print(
            f"summary: {summary['pass']} pass, {summary['fail']} fail,"
            f" {summary['deviation']} deviation-documented"
        )
    return 1 if summary["fail"] else 0


# ------------------------------------------------------------------ tables ----


@lru_cache(maxsize=None)
def _table_rows(rep_name: str) -> tuple:
    """The calculator's table, built once; ``verify tables`` builds its own."""
    return tuple(involution_table(rep_name))


def _cmd_tables(args) -> int:
    rows = _table_rows(args.rep)
    if args.format == "json":
        payload = [
            {
                "unit": r.unit,
                "bar": _SIGN[r.bar],
                "dagger": _SIGN[r.dagger],
                "hat": _SIGN[r.hat],
                "derived": r.derived,
            }
            for r in rows
        ]
        print(_dumps(payload))
        return 0
    print(f"unit       bar  dagger  hat   ({args.rep})")
    for r in rows:
        mark = "  derived" if r.derived else ""
        print(
            f"{r.unit.ljust(9)}  {_SIGN[r.bar]}    {_SIGN[r.dagger]}       {_SIGN[r.hat]} {mark}"
        )
    return 0


# ------------------------------------------------------------------ sphere ----


def _cmd_sphere(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    angles = _parse_floats(args.angles, 5, "--angles")
    closed = sphere_point(args.radius, angles)
    rotor = sphere_point_via_rotors(args.radius, angles)
    dev = max(abs(a - b) for a, b in zip(closed, rotor))
    payload = {"closed_form": list(closed), "rotor_path": list(rotor), "max_deviation": dev}
    if args.hyperbolic:
        xis = _parse_floats(args.hyperbolic, 5, "--hyperbolic")
        coords = quasi_sphere_point_r66(args.radius, angles, xis)
        payload["extended_coords"] = list(coords)
        point = get_space("r66").paravector(coords)
        payload["membership_residual"] = quasi_sphere_residual(point, args.radius)
    if args.format == "json":
        print(_dumps(payload))
    else:
        print("closed form:", " ".join(f"{c: .12f}" for c in closed))
        print("rotor path: ", " ".join(f"{c: .12f}" for c in rotor))
        print(f"max deviation: {dev:.3e}")
        if args.hyperbolic:
            print("extended coordinates (split twelve-space):")
            print("  ", " ".join(f"{c: .10f}" for c in payload["extended_coords"]))
            print(f"membership residual: {payload['membership_residual']:.3e}")
    return 0 if dev <= tol * (1.0 + abs(args.radius)) else 1


# ------------------------------------------------------------------- boost ----


def _cmd_boost(args) -> int:
    raw = args.vector.strip()
    if raw.startswith("{"):
        try:
            payload = json.loads(raw)
            if payload.get("space") != "m4":
                raise ValueError("boost expects a vector in the m4 space")
            x = get_space("m4").paravector(payload["coords"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad vector JSON ({exc})") from None
    else:
        x = get_space("m4").paravector(_parse_floats(raw, 4, "--vector"))
    xi = [0.0, 0.0, 0.0]
    xi[args.axis - 1] = args.xi
    rotor = rotor_from_params(RotorParams.m4(xi=xi))
    out = act(rotor, x)
    if args.format == "json":
        print(_dumps({"space": "m4", "coords": list(out.coords)}))
    else:
        print(" ".join(f"{c: .12f}" for c in out.coords))
    return 0


# ---------------------------------------------------------------- interfere ----


def _cmd_interfere(args) -> int:
    total = interfere(args.p1, args.p2, getattr(args, "lambda"))
    lin = linearize(args.p1, args.p2, getattr(args, "lambda"))
    payload = {
        "P": total,
        "regime": lin.regime,
        "theta": lin.theta,
        "sign": lin.sign,
    }
    if args.format == "json":
        print(_dumps(payload))
    else:
        print(f"P = {total:.12f}  regime={lin.regime}  theta={lin.theta:.12f}  sign={lin.sign:+d}")
    return 0


# -------------------------------------------------------------------- pauli ----


def _cmd_pauli(args) -> int:
    if args.ab is not None:
        try:
            a, b = (int(t) for t in args.ab.split(","))
        except ValueError:
            raise ValueError("--ab needs 2 comma-separated integers") from None
        m = sigma_ab(a, b)
        label = f"sigma_{a}{b}"
    elif args.two:
        m = pauli2(args.two)
        label = f"sigma_{args.two} (2x2)"
    else:
        m = pauli4(args.k)
        label = f"sigma_{args.k} (4x4)"
    if args.format == "json":
        print(_dumps({"label": label, "matrix": _matrix_json(m)}))
    else:
        print(label)
        _print_matrix(m, sys.stdout)
    return 0


# ---------------------------------------------------------------- decompose ----


def _matrix_cell(cell, row: int, col: int) -> HScalar:
    """One ``[x,y,v,w]`` cell of a JSON matrix, at 1-based ``row``, ``col``."""
    if not (isinstance(cell, list) and len(cell) == 4 and set(map(type, cell)) <= _JSON_NUMBERS):
        raise ValueError(f"cell at row {row}, column {col} is not four numbers [x,y,v,w]")
    return HScalar(*map(float, cell))  # HMatrix takes them by the one rule


def _cmd_decompose(args) -> int:
    rep = get_rep(args.rep)
    raw = args.matrix
    if raw == "-":
        raw = sys.stdin.read()
    try:
        grid = json.loads(raw)
        m = HMatrix([[_matrix_cell(cell, r, c) for c, cell in enumerate(row, 1)]
                     for r, row in enumerate(grid, 1)])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad matrix JSON ({exc})") from None
    mv, residual = rep.decompose_residual(m)
    coeff_rows = [
        {
            "blade": "".join(f"e{i}" for i in blade) or "1",
            "coeff": _scalar_json(z),
        }
        for blade, z in mv.coeffs.items()
    ]
    if args.format == "json":
        print(_dumps({"coefficients": coeff_rows, "residual": residual}))
    else:
        for row in coeff_rows:
            print(f"{row['blade'].ljust(12)} {HScalar(*row['coeff'])}")
        print(f"residual outside span: {residual:.3e}")
    return 0


# --------------------------------------------------------------------- main ----


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it never changes,
    and building it costs about twenty times as much as parsing one
    request."""
    parser = argparse.ArgumentParser(
        prog="hyperclifford",
        description="verified Clifford algebra computations over hyperbolic-complex scalars",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = argparse.ArgumentParser(add_help=False)  # the one option every subcommand takes
    formats.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", parents=[formats], help="run verification suites")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=("all",) + checks.SUITE_NAMES,
    )
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tables", parents=[formats], help="print computed involution sign tables")
    p.add_argument("rep", choices=REP_NAMES)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("sphere", parents=[formats], help="five-sphere point: closed form vs rotor path")
    p.add_argument("--radius", type=_finite_float, default=1.0)
    p.add_argument("--angles", required=True, help="phi_25,phi_02,phi_01,phi_35,phi_34")
    p.add_argument("--hyperbolic", help="xi_25,xi_02,xi_01,xi_35,xi_34")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_sphere)

    p = sub.add_parser("boost", parents=[formats], help="apply a pure boost to a 4-vector")
    p.add_argument("--xi", type=_finite_float, required=True, help="rapidity")
    p.add_argument("--axis", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--vector", required=True, help="x0,x1,x2,x3")
    p.set_defaults(func=_cmd_boost)

    p = sub.add_parser("interfere", parents=[formats], help="interference of two probabilities")
    p.add_argument("--p1", type=_finite_float, required=True)
    p.add_argument("--p2", type=_finite_float, required=True)
    p.add_argument("--lambda", dest="lambda", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_interfere)

    p = sub.add_parser("pauli", parents=[formats], help="print Pauli matrices")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--k", type=int, help="4x4 matrix index 1..15")
    g.add_argument("--ab", help="index pair a,b with 0 <= a,b <= 5")
    g.add_argument("--two", type=int, help="2x2 matrix index 1..3")
    p.set_defaults(func=_cmd_pauli)

    p = sub.add_parser("decompose", parents=[formats], help="blade coefficients of a JSON matrix")
    p.add_argument("--rep", required=True, choices=REP_NAMES)
    p.add_argument(
        "--matrix",
        required=True,
        help="JSON rows of [x,y,v,w] 4-tuples, or - for stdin",
    )
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
