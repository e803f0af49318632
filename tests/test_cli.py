"""Command-line interface: commands, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hyperclifford
import hyperclifford.cli as cli
from hyperclifford.algebra import REP_NAMES
from hyperclifford.cli import _dumps, main
from hyperclifford.rotors import sphere_point


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_suite_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    assert out.count("PASS") == 3  # one record per published table
    assert "summary:" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"checks", "summary"}
    assert set(payload["summary"]) == {"pass", "fail", "deviation"}
    for record in payload["checks"]:
        assert set(record) == {
            "check_id",
            "description",
            "claim",
            "status",
            "max_error",
            "elapsed_ms",
        }
        assert record["status"] in ("pass", "fail", "deviation-documented")


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_deviations_do_not_fail_exit(capsys):
    code, out, _ = run(capsys, "verify", "commutators")
    assert code == 0
    assert "DEVN" in out
    assert "deviation-documented" in out


def test_tables_text_output(capsys):
    code, out, _ = run(capsys, "tables", "r30")
    assert code == 0
    assert "sigma1" in out and "derived" in out
    # the i row of the 2x2 table: bar -, dagger -, hat +
    row = next(line for line in out.splitlines() if line.startswith("i "))
    assert row.split()[1:4] == ["-", "-", "+"]


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "r05", "--format", "json")
    assert code == 0
    rows = {r["unit"]: r for r in json.loads(out)}
    assert rows["sigma12"]["dagger"] == "-"
    assert rows["j"] == {"unit": "j", "bar": "-", "dagger": "+", "hat": "-", "derived": False}
    assert rows["ij"]["derived"] is True


def test_tables_rejects_unknown_rep(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "r99"])
    assert exc.value.code == 2


def test_sphere_command(capsys):
    code, out, _ = run(capsys, "sphere", "--radius", "2", "--angles", "1.5707963267948966,0,0,0,0")
    assert code == 0
    assert "max deviation" in out


def test_sphere_json_with_hyperbolic_angles(capsys):
    code, out, _ = run(
        capsys,
        "sphere",
        "--radius",
        "1",
        "--angles",
        "0.3,0.2,-0.4,0.9,0.1",
        "--hyperbolic",
        "0.5,-0.3,0.2,0.0,0.7",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["extended_coords"]) == 12
    assert payload["membership_residual"] < 1e-10
    assert payload["max_deviation"] < 1e-10


def test_sphere_bad_angle_count(capsys):
    assert run(capsys, "sphere", "--angles", "1,2,3") == (
        2, "", "error: --angles needs 5 comma-separated numbers\n")


def test_boost_command(capsys):
    code, out, _ = run(capsys, "boost", "--xi", "1", "--axis", "3", "--vector", "2,0,0,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["space"] == "m4"
    coords = payload["coords"]
    import math

    assert coords[0] == pytest.approx(2 * math.cosh(1), abs=1e-12)
    assert coords[3] == pytest.approx(2 * math.sinh(1), abs=1e-12)
    assert coords[1] == pytest.approx(0, abs=1e-14)


def test_boost_accepts_paravector_json(capsys):
    vec = json.dumps({"space": "m4", "coords": [1, 0, 0, 0]})
    code, out, _ = run(capsys, "boost", "--xi", "0.5", "--vector", vec, "--format", "json")
    assert code == 0
    import math

    assert json.loads(out)["coords"][0] == pytest.approx(math.cosh(0.5), abs=1e-12)
    code, _, err = run(capsys, "boost", "--xi", "0.5", "--vector", '{"space": "e6", "coords": []}')
    assert code == 2


def test_interfere_command(capsys):
    code, out, _ = run(capsys, "interfere", "--p1", "0.25", "--p2", "0.25", "--lambda", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["P"] == pytest.approx(1.0, abs=1e-14)
    assert payload["regime"] == "complex"
    assert payload["theta"] == 0.0


def test_interfere_rejects_bad_probability(capsys):
    code, _, err = run(capsys, "interfere", "--p1", "1.5", "--p2", "0.2", "--lambda", "0")
    assert code == 2
    assert "probability" in err


def test_pauli_commands(capsys):
    code, out, _ = run(capsys, "pauli", "--ab", "0,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "sigma_01"
    # sigma_01 is the antidiagonal-block identity
    assert payload["matrix"][0][2] == [1.0, 0.0, 0.0, 0.0]
    code, out, _ = run(capsys, "pauli", "--k", "15")
    assert code == 0
    assert "sigma_15" in out
    code, out, err = run(capsys, "pauli", "--ab", "2,2")
    assert code == 2


def test_decompose_command(capsys):
    # i*sigma_3 as a 2x2 matrix: blade e1e2 in the 2x2 representation
    matrix = json.dumps(
        [
            [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]],
        ]
    )
    code, out, _ = run(capsys, "decompose", "--rep", "r30", "--matrix", matrix, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] < 1e-12
    assert payload["coefficients"] == [
        {"blade": "e1e2", "coeff": [1.0, 0.0, 0.0, 0.0]}
    ]


def calc_requests():
    """One request of every calc-stream command, ``sphere`` with and without
    its hyperbolic angles and ``decompose`` on each matrix representation."""
    angles, xis = "--angles=0.3,-1.2,2.0,0.4,-0.8", "--hyperbolic=0.2,-0.5,0.1,0.9,-0.3"
    requests = [
        ("boost", "--xi=0.7", "--axis=2", "--vector=1,0.5,-0.3,0.2", "--format=json"),
        ("boost", "--xi=30", "--axis=3", "--vector=1,0.7,0,0", "--format=json"),
        ("sphere", "--radius=1.5", angles, "--format=json"),
        ("sphere", "--radius=1.5", angles, xis, "--format=json"),
        ("interfere", "--p1=0.3", "--p2=0.6", "--lambda=0.5", "--format=json"),
        ("pauli", "--k", "7", "--format", "json"),
        ("pauli", "--ab", "1,4", "--format", "json"),
        ("pauli", "--two", "2", "--format", "json"),
        ("tables", "h05bar", "--format", "json"),
    ]
    for rep, n in (("r30", 2), ("c30bar", 2), ("r05", 4), ("h05bar", 4)):
        grid = [[[float(r == c), 0.0, 0.0, 0.0] for c in range(n)] for r in range(n)]
        requests.append(("decompose", "--rep", rep, "--matrix", json.dumps(grid), "--format", "json"))
    return requests


def test_the_calculator_never_enters_the_verifier_only_paths(capsys, monkeypatch):
    # the series exponential, the relation loops, matrix inversion, the
    # Porteous entry maps and the whole blade product serve the verifier
    # alone: with each raising, one request of every calc-stream command
    # succeeds
    from hyperclifford import algebra, rotors
    from hyperclifford.algebra import Multivector
    from hyperclifford.matrices import HMatrix

    def refuse(*args):
        raise AssertionError("the calculator entered a verifier-only path")

    for name in ("mat_exp", "_null_exponent", "_exponential", "_series", "_count_relations", "verify_null_split",
                 "_check_family", "_numerators", "_times_i", "_table", "_bracket_failures", "_left_products",
                 "_structure", "_index_constants", "_eps_constants"):
        monkeypatch.setattr(rotors, name, refuse)
    monkeypatch.setattr(HMatrix, "inverse", refuse)
    monkeypatch.setattr(Multivector, "gp_blades", refuse)
    monkeypatch.setattr(algebra, "_permute", refuse)
    for argv in calc_requests():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        json.loads(out)


def test_the_calculator_compiles_no_blade_product_kernel():
    # a fresh interpreter, so no product of an earlier test has compiled a
    # kernel: after one request of every calc-stream command no table of
    # blade products holds a compiled function
    src = str(Path(hyperclifford.__file__).resolve().parents[1])
    code = ("import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1])\n"
            "from hyperclifford.algebra import REP_NAMES, get_rep\n"
            "from hyperclifford.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[2])]\n"
            "print(codes, [vars(get_rep(name)._product) for name in REP_NAMES])")
    done = subprocess.run([sys.executable, "-B", "-c", code, src, json.dumps(calc_requests())],
                          capture_output=True, text=True, timeout=120)
    want = f"{[0] * len(calc_requests())} {[{}] * len(REP_NAMES)}\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_decompose_rejects_bad_json(capsys):
    code, _, err = run(capsys, "decompose", "--rep", "r30", "--matrix", "not-json")
    assert code == 2


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HYPERCLIFFORD_TOL", "1e-3")
    code, _, _ = run(capsys, "verify", "wedge")
    assert code == 0


def test_tolerance_env_reaches_the_checks(capsys, monkeypatch):
    # no float sphere point is exact, so a tolerance this tight must fail
    monkeypatch.setenv("HYPERCLIFFORD_TOL", "1e-300")
    code, out, _ = run(capsys, "verify", "sphere", "--format", "json")
    assert code == 1
    status = {r["check_id"]: r["status"] for r in json.loads(out)["checks"]}
    assert status["sphere.closed_vs_rotor"] == "fail"


@pytest.mark.parametrize("tol", ["0.01", "0.5"])
def test_loose_tolerance_keeps_the_failing_family_failing(capsys, tol):
    # quantum.hermiticity's q0 u0 family must fail at any --tol; its ij part
    # 2 q0 u0 is at least 0.08, below a loose tolerance
    code, out, _ = run(capsys, "verify", "quantum", "--tol", tol, "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"] == {"pass": 6, "fail": 0, "deviation": 0}


@pytest.mark.parametrize(
    "raw,reason",
    [("abc", "not a number: 'abc'"), ("nan", "not a finite number: 'nan'"),
     ("-inf", "not a finite number: '-inf'"), ("-1", "negative tolerance: '-1'"),
     ("-1e-300", "negative tolerance: '-1e-300'")],
)
@pytest.mark.parametrize("argv", [["verify", "tables"], ["sphere", "--angles", "0,0,0,0,0"]])
def test_tolerance_env_must_be_finite(capsys, monkeypatch, argv, raw, reason):
    # a NaN tolerance would make every `err > tol` comparison false
    monkeypatch.setenv("HYPERCLIFFORD_TOL", raw)
    assert run(capsys, *argv) == (2, "", f"error: HYPERCLIFFORD_TOL: {reason}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["pauli", "--k", "16"], "pauli4 index must be in 1..15"),
        (["pauli", "--two", "4"], "pauli2 index must be 1, 2 or 3"),
        (["pauli", "--ab", "2,2"], "sigma_ab is undefined on the diagonal"),
        (["interfere", "--p1", "1.5", "--p2", "0.2", "--lambda", "0"], "P1 = 1.5 is not a probability"),
    ],
)
def test_library_value_errors_are_reported_once(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("ab", ["1,2,3", "1", "a,b", "1,", ""])
def test_pauli_ab_needs_two_integers(capsys, ab):
    assert run(capsys, "pauli", f"--ab={ab}") == (2, "", "error: --ab needs 2 comma-separated integers\n")


@pytest.mark.parametrize("argv", [["verify", "sphere"], ["sphere", "--angles", "0,0,0,0,0"]])
@pytest.mark.parametrize("raw", ["-1", "-1e-300"])
def test_negative_tolerance_is_a_usage_error(capsys, argv, raw):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={raw}"])
    assert exc.value.code == 2
    assert f"argument --tol: negative tolerance: '{raw}'" in capsys.readouterr().err


def test_zero_tolerance_stays_valid(capsys, monkeypatch):
    # the exact tables hold with no tolerance at all
    assert run(capsys, "verify", "tables", "--tol", "0")[0] == 0
    monkeypatch.setenv("HYPERCLIFFORD_TOL", "0")
    assert run(capsys, "verify", "tables")[0] == 0


@pytest.mark.parametrize(
    "argv,option",
    [
        (["boost", "--xi", "nan", "--vector", "1,0,0,0"], "--xi"),
        (["boost", "--xi", "1", "--vector", "nan,0,0,0"], "--vector"),
        (["sphere", "--radius", "inf", "--angles", "0,0,0,0,0"], "--radius"),
        (["sphere", "--angles", "0,0,-inf,0,0"], "--angles"),
        (["sphere", "--angles", "0,0,0,0,0", "--hyperbolic", "0,nan,0,0,0"], "--hyperbolic"),
        (["sphere", "--angles", "0,0,0,0,0", "--tol", "inf"], "--tol"),
        (["interfere", "--p1", "nan", "--p2", "0.2", "--lambda", "0"], "--p1"),
        (["interfere", "--p1", "0.2", "--p2=-inf", "--lambda", "0"], "--p2"),
        (["interfere", "--p1", "0.2", "--p2", "0.2", "--lambda", "inf"], "--lambda"),
        (["verify", "tables", "--tol", "nan"], "--tol"),
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv, option):
    # argparse exits on an option of its own type; the comma-separated
    # lists are parsed by the command, whose error main returns
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("xi", ["20", "30", "40", "100"])
@pytest.mark.parametrize("axis", ["1", "2", "3"])
def test_large_rapidity_boost_keeps_the_sandwich_bound(capsys, axis, xi):
    # a float sandwich g x dagger(g) keeps each coordinate to about
    # eps * cosh(xi) * max|x| absolute, not relative to the coordinate
    x = (0.3, -1.1, 0.7, 1.9)
    code, out, _ = run(capsys, "boost", "--xi", xi, "--axis", axis, "--vector", ",".join(map(str, x)),
                       "--format", "json")
    assert code == 0
    got = json.loads(out)["coords"]
    k, ch, sh = int(axis), math.cosh(float(xi)), math.sinh(float(xi))
    want = list(x)
    want[0], want[k] = ch * x[0] + sh * x[k], sh * x[0] + ch * x[k]
    bound = 1e-13 * ch * (1 + max(map(abs, x)))
    assert max(abs(a - b) for a, b in zip(got, want)) <= bound


@pytest.mark.parametrize("xi, message", [
    ("1000", "spin condition violated: residual nan"),  # cosh(xi/2)^2 overflows
    ("1500", "exponential argument too large"),  # cosh(xi/2) overflows
    ("710.5", "rotation image exceeds the float range"),  # cosh(xi) overflows
    ("711", "rotation image exceeds the float range"),
], ids=["1000", "1500", "710.5", "711"])
def test_boost_arithmetic_failure_is_an_error_exit(capsys, xi, message):
    code, out, err = run(capsys, "boost", "--xi", xi, "--vector", "1,0,0,0")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("xi", ["710", "710.4"])
def test_boost_answers_up_to_the_float_range(capsys, xi):
    # cosh xi is representable up to xi = 710.47; the image must not be
    # taken for a span leak on the way (the gather scales before it sums)
    code, out, err = run(capsys, "boost", "--xi", xi, "--vector", "1,0,0,0", "--format", "json")
    assert (code, err) == (0, "")
    got = json.loads(out)["coords"]
    ch, sh = math.cosh(float(xi)), math.sinh(float(xi))
    assert got[1:3] == [0.0, 0.0]
    assert abs(got[0] - ch) <= 1e-13 * ch and abs(got[3] - sh) <= 1e-13 * sh


def test_sphere_answers_near_the_float_range(capsys):
    # the rotor path's image near the top of the float range is an answer,
    # not a span leak, and the exit status judges its deviation against
    # the radius
    r = 1e308
    code, out, err = run(capsys, "sphere", "--angles", "1,2,3,4,5", "--radius", str(r), "--format", "json")
    assert err == "" and code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == list(sphere_point(r, (1, 2, 3, 4, 5)))
    assert max(abs(a - b) for a, b in zip(payload["closed_form"], payload["rotor_path"])) <= 1e-14 * r


def test_sphere_judges_its_deviation_against_the_radius(capsys):
    # rounding at radius 1e7 leaves an absolute deviation of a few 1e-9,
    # above the default tolerance but far below tol * (1 + radius)
    code, out, _ = run(capsys, "sphere", "--angles", "1,2,3,4,5", "--radius", "1e7")
    assert code == 0
    assert float(out.splitlines()[-1].split()[-1]) > 1e-10  # still printed absolute


@pytest.mark.parametrize("r", [1.0, 1e7])
def test_sphere_fails_a_rotor_path_off_by_more_than_the_scaled_tolerance(capsys, monkeypatch, r):
    def off(radius, angles):
        point = list(sphere_point(radius, angles))
        point[2] += 1e-6 * (1.0 + radius)
        return point

    monkeypatch.setattr(cli, "sphere_point_via_rotors", off)
    code, _, err = run(capsys, "sphere", "--angles", "1,2,3,4,5", "--radius", str(r))
    assert (code, err) == (1, "")


def test_boost_json_int_coordinates_answer_as_the_same_floats(capsys):
    for xi, ints in (("0.5", [1, 0, 0, 0]), ("-1.25", [3, -2, 7, 1]), ("3.5", [2 ** 60 + 1, -5, 0, 9])):
        answers = []
        for coords in (ints, [float(c) for c in ints]):
            vec = json.dumps({"space": "m4", "coords": coords})
            answers.append(run(capsys, "boost", "--xi", xi, "--axis", "2", "--vector", vec, "--format", "json"))
        assert answers[0] == answers[1]


def test_boost_rejects_non_finite_paravector_json(capsys):
    vec = '{"space": "m4", "coords": [NaN, 0, 0, 0]}'
    code, _, err = run(capsys, "boost", "--xi", "1", "--vector", vec)
    assert code == 2
    assert "finite" in err


def test_decompose_rejects_non_finite_matrix_json(capsys):
    matrix = json.dumps([[[float("nan"), 0, 0, 0]]])
    code, out, err = run(capsys, "decompose", "--rep", "r10", "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_decompose_takes_each_json_number_once_by_the_one_rule(capsys, number):
    # a cell's shape is checked by the calculator, its numbers by HMatrix,
    # whose error names the coordinate (row 2, column 2, part v)
    matrix = f"[[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [0, 0, {number}, 0]]]"
    code, out, err = run(capsys, "decompose", "--rep", "r30", "--matrix", matrix)
    assert (code, out) == (2, "")
    assert err == f"error: bad matrix JSON (matrix coordinate 14 is not finite: {float(number)})\n"


def _fresh_process(argv):
    """Exit code, stdout and stderr of one call in a new interpreter."""
    src = str(Path(hyperclifford.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    code = "import sys; from hyperclifford.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


def test_importing_the_calculator_loads_no_dataclasses():
    # dataclasses imports inspect, and with it ast, dis and tokenize: the
    # larger part of what importing the package cost every command
    src = str(Path(hyperclifford.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hyperclifford.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_one_process_answers_like_fresh_processes(capsys, monkeypatch):
    # the parser is built once per process; a usage error must not leave
    # state behind that changes later answers
    monkeypatch.setenv("COLUMNS", "80")
    valid = [
        ["pauli", "--k", "10", "--format", "json"],
        ["boost", "--xi", "0.5", "--axis", "1", "--vector", "1,0.5,0,0", "--format", "json"],
        ["sphere", "--angles", "0.1,0.2,0.3,0.4,0.5", "--radius", "2"],
        ["decompose", "--rep", "r10", "--matrix", "[[[2.0, 0, 0, 0]]]"],
    ]
    usage_error = ["pauli", "--k", "3", "--two", "1"]
    codes = []
    for argv in valid + [usage_error] + valid[::-1]:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(argv), argv
        codes.append(code)
    assert codes == [0] * 4 + [2] + [0] * 4


@pytest.mark.parametrize("matrix", ["[]", "[[1, 2], [3, 4]]", "[[[1, 0, 0, 0], [0, 0, 0, 0]]]"])
def test_decompose_rejects_malformed_matrix_json(capsys, matrix):
    code, out, err = run(capsys, "decompose", "--rep", "r30", "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_decompose_of_another_size_exits_2_with_the_library_error(capsys):
    code, out, err = run(capsys, "decompose", "--rep", "r30", "--matrix", "[[[1, 0, 0, 0]]]")
    assert (code, out, err) == (2, "", "error: r30 takes 2x2 matrices, not 1x1\n")


@pytest.mark.parametrize(
    "rep, matrix, cell",
    [
        ("r01", "[[[1]]]", "row 1, column 1"),
        ("r01", "[[[1, 0, 0, 0, 0]]]", "row 1, column 1"),
        ("r01", '[["1234"]]', "row 1, column 1"),
        ("r30", "[[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0]]]", "row 2, column 2"),
        ("r01", '[[["1", 0, 0, 0]]]', "row 1, column 1"),
        ("r30", "[[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [true, 0, 0, 0]]]", "row 2, column 2"),
    ],
    ids=["one-number", "five-numbers", "string", "short-last-cell", "string-number", "bool"],
)
def test_decompose_requires_four_numbers_per_cell(capsys, rep, matrix, cell):
    code, out, err = run(capsys, "decompose", "--rep", rep, "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and cell in err and "four numbers" in err


@pytest.mark.parametrize(
    "coords, index",
    [('"1234"', 0), ("[true, 0, 0, 0]", 0), ('["2", "0", "0", "0"]', 0), ('[0, 0, "1", 0]', 2),
     ("[0, null, 0, 0]", 1)],
    ids=["string", "bool", "strings", "string-at-2", "null"],
)
def test_boost_json_coordinates_must_be_numbers(capsys, coords, index):
    vec = '{"space": "m4", "coords": %s}' % coords
    code, out, err = run(capsys, "boost", "--xi", "0.5", "--vector", vec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"coordinate {index}" in err


# ------------------------------------------------------------ JSON writer ----

SPECIAL_TEXT = st.characters(exclude_categories=(), include_characters='"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600')
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-2**200, 2**200),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]),
    st.text(SPECIAL_TEXT),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(SPECIAL_TEXT), children),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example([])
@example({})
@example(())
@example([[], {}, ()])
@example({"a": [], "b": {"c": {}}, "": [[]]})
@example('"\\\x00\x1f\ud800\u00e9')
def test_dumps_prints_what_the_standard_encoder_prints_with_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 3), [Fraction(1)], {1: "a"}, {"a": {(1,): 2}}],
                         ids=["set", "fraction", "nested-fraction", "int-key", "nested-tuple-key"])
def test_dumps_rejects_what_is_not_json(value):
    with pytest.raises(TypeError):
        _dumps(value)


@pytest.mark.parametrize("argv", [
    ["verify", "tables"],
    ["tables", "h05bar"],
    ["sphere", "--angles", "0.1,0.2,0.3,0.4,0.5", "--hyperbolic", "0.5,-0.3,0.2,0,0.7"],
    ["boost", "--xi", "0.5", "--axis", "1", "--vector", "1,0.5,0,0"],
    ["interfere", "--p1", "0.3", "--p2", "0.6", "--lambda", "0.5"],
    ["pauli", "--k", "10"],
    ["decompose", "--rep", "r30", "--matrix", "[[[1, 0, 0, 0], [0, 2, 0, 0]], [[0, 0, -3, 0], [0, 0, 0, 0.5]]]"],
], ids=lambda argv: argv[0])
def test_json_answers_print_as_the_standard_encoder_with_indent_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# each subcommand with what it parses to besides "command" and "format"
PARSES = {
    "verify": (["verify"], {"suite": "all", "tol": None, "func": cli._cmd_verify}),
    "verify suite": (["verify", "rotations", "--tol", "1e-9"],
                     {"suite": "rotations", "tol": 1e-9, "func": cli._cmd_verify}),
    "tables": (["tables", "r30"], {"rep": "r30", "func": cli._cmd_tables}),
    "sphere": (["sphere", "--angles", "1,2,3,4,5"],
               {"radius": 1.0, "angles": "1,2,3,4,5", "hyperbolic": None, "tol": None, "func": cli._cmd_sphere}),
    "boost": (["boost", "--xi", "0.5", "--vector", "1,0,0,0"],
              {"xi": 0.5, "axis": 3, "vector": "1,0,0,0", "func": cli._cmd_boost}),
    "interfere": (["interfere", "--p1", "0.2", "--p2", "0.3", "--lambda", "0.5"],
                  {"p1": 0.2, "p2": 0.3, "lambda": 0.5, "func": cli._cmd_interfere}),
    "pauli": (["pauli", "--ab", "0,1"], {"k": None, "ab": "0,1", "two": None, "func": cli._cmd_pauli}),
    "decompose": (["decompose", "--rep", "r30", "--matrix", "-"],
                  {"rep": "r30", "matrix": "-", "func": cli._cmd_decompose}),
}


@pytest.mark.parametrize("argv, want", PARSES.values(), ids=PARSES)
def test_every_subcommand_parses_the_same_with_and_without_format(argv, want):
    parser = cli._build_parser()
    for fmt, tail in (("text", []), ("json", ["--format", "json"]), ("text", ["--format", "text"])):
        for args in (argv + tail, argv[:1] + tail + argv[1:]):
            assert vars(parser.parse_args(args)) == {"command": argv[0], "format": fmt, **want}


def test_format_is_declared_once_for_all_seven_subcommands():
    (subcommands,) = [a.choices for a in cli._build_parser()._actions if a.dest == "command"]
    assert set(subcommands) == {argv[0] for argv, _ in PARSES.values()}
    assert len({id(p._option_string_actions["--format"]) for p in subcommands.values()}) == 1
