"""The check registry and its runner, exercised without the real checks,
then every real check, run once, and where the numbers they check come
from."""

import importlib.util
import json
import math
import random
from itertools import product
from pathlib import Path

import pytest

from hyperclifford import checks, cli
from hyperclifford.algebra import REP_NAMES, Multivector, get_rep
from hyperclifford.matrices import pauli2, pauli4, pauli4_literal, sigma_ab
from hyperclifford.paravectors import SPACE_NAMES, get_space

# Every published check, in the order `verify all` reports them.
CHECK_IDS = [
    "tables.one_dim", "tables.three_dim", "tables.five_dim",
    "dims.r01", "dims.r10", "dims.r30", "dims.r05", "dims.c30bar", "dims.h05bar",
    "dims.even_r05", "dims.pseudoscalar_r30", "dims.pseudoscalar_r05", "dims.pseudoscalar_r01",
    "commutators.pauli_literals", "commutators.trace_orthogonality", "commutators.sigma_table",
    "commutators.index_jj", "commutators.index_jk", "commutators.index_kk_computed",
    "commutators.index_kk_printed", "commutators.lorentz", "commutators.lorentz_kk_printed",
    "commutators.split_lorentz", "commutators.split_index", "commutators.split_literal",
    "involutions.product_rules", "involutions.bar_composition", "involutions.bar_is_adjoint",
    "involutions.gp_dual_route", "involutions.porteous_2x2", "involutions.porteous_4x4",
    "involutions.quaternions", "involutions.null_scalar",
    "sphere.closed_vs_rotor", "sphere.r66_membership", "sphere.r66_rotor_path",
    "sphere.r66_reduction",
    "wedge.split", "wedge.antisymmetry", "wedge.degenerate", "wedge.basis_constant",
    "rotations.spin_condition", "rotations.hat_inverse_dagger", "rotations.qform_invariance",
    "rotations.boost", "rotations.metric", "rotations.pure_forms", "rotations.null_roundtrip",
    "quantum.interference", "quantum.linearize", "quantum.regime_boundary",
    "quantum.mass_reduction", "quantum.hermiticity", "quantum.stabilizer",
]

SUITES = ("tables", "dims", "commutators", "involutions", "sphere", "wedge", "rotations", "quantum")

DEVIATIONS = {
    "commutators.index_kk_printed",
    "commutators.lorentz_kk_printed",
    "commutators.split_literal",
}


def test_registry_lists_every_check_in_suite_order(monkeypatch):
    # reading the registry must not run a check
    monkeypatch.setattr(checks.Context, "__init__", lambda *a: pytest.fail("a check ran"))
    assert [spec.check_id for spec in checks.REGISTRY] == CHECK_IDS
    assert checks.SUITE_NAMES == SUITES
    suites = [spec.suite for spec in checks.REGISTRY]
    assert suites == sorted(suites, key=SUITES.index)
    assert {spec.check_id for spec in checks.REGISTRY if spec.deviation is not None} == DEVIATIONS


def test_unknown_suite_is_a_key_error():
    with pytest.raises(KeyError):
        checks.run_suite("nonsense")


def test_runner_turns_each_result_into_a_record(monkeypatch):
    monkeypatch.setattr(checks, "REGISTRY", [])
    draws = []

    @checks.check("demo.crash", "divides by zero", "never holds")
    def _crash(ctx):
        draws.append(ctx.rng.random())
        raise ZeroDivisionError("boom")

    @checks.check("demo.pass", "within tolerance", "holds", err=0.25)
    def _within(ctx, err):
        draws.append(ctx.rng.random())
        yield err

    @checks.check("demo.deviation", "published form", "fails as documented", deviation=6)
    def _deviation(ctx):
        yield 6

    @checks.check("demo.deviation_lost", "published form", "should fail", deviation=6)
    def _lost(ctx):
        yield 0

    # a stated count of 0 is a deviation too, not a plain check
    @checks.check("demo.deviation_zero", "published form", "fails nowhere", deviation=0)
    def _zero(ctx):
        yield from ()

    reports = checks.run_suite("demo", tol=0.5)
    rows = [(r.check_id, r.description, r.claim, r.status, r.max_error) for r in reports]
    assert rows == [
        ("demo.crash", "divides by zero [error: boom]", "never holds", "fail", math.inf),
        ("demo.pass", "within tolerance", "holds", "pass", 0.25),
        ("demo.deviation", "published form", "fails as documented", "deviation-documented", 6.0),
        ("demo.deviation_lost", "published form", "should fail", "fail", 0.0),
        ("demo.deviation_zero", "published form", "fails nowhere", "deviation-documented", 0.0),
    ]
    assert all(r.elapsed_ms >= 0.0 and type(r.max_error) is float for r in reports)
    # one seeded stream per suite run, shared in check order
    stream = random.Random(checks._SEED)
    assert draws == [stream.random(), stream.random()]
    assert checks.run_suite("demo", tol=0.1)[1].status == "fail"


@pytest.mark.parametrize("count", [479, 481, math.nan], ids=["one-fewer", "one-more", "nan"])
def test_a_deviation_fails_on_any_other_count(monkeypatch, count):
    monkeypatch.setattr(checks, "REGISTRY", [])

    @checks.check("demo.moved", "published form", "fails on 480", deviation=480, tol=math.inf)
    def _moved(ctx):
        yield from (0, count)

    @checks.check("demo.crash", "published form", "fails on 480", deviation=480)
    def _crash(ctx):
        yield 480
        raise ValueError("after the count")

    moved, crash = checks.run_suite("demo", tol=math.inf)
    assert moved.status == "fail"
    assert moved.max_error == count or math.isnan(count) and math.isnan(moved.max_error)
    assert (crash.status, crash.max_error) == ("fail", math.inf)


def _demo_records(monkeypatch, tol, *bodies):
    """Register each ``(spec_tol, body)`` as a demo check and run them."""
    monkeypatch.setattr(checks, "REGISTRY", [])
    for k, (spec_tol, body) in enumerate(bodies):
        checks.check(f"demo.c{k}", "demo", "demo claim", tol=spec_tol)(body)
    return [(r.status, r.max_error) for r in checks.run_suite("demo", tol=tol)]


def test_a_nan_error_fails_the_check(monkeypatch):
    def body(ctx):
        yield from (0.0, math.nan, 0.0)

    [(status, err)] = _demo_records(monkeypatch, 0.5, (None, body))
    assert status == "fail" and math.isnan(err)


def test_yielded_errors_are_judged_against_the_suite_or_spec_tolerance(monkeypatch):
    def body(ctx):
        yield from (0.125, 0.25, 0.0625)

    rows = _demo_records(monkeypatch, 0.25, (None, body), (0.2, body), (0.25, body), (0, body))
    assert rows == [("pass", 0.25), ("fail", 0.25), ("pass", 0.25), ("fail", 0.25)]
    # the spec tolerance holds whatever the suite's is
    assert _demo_records(monkeypatch, 0.1, (0.25, body), (None, body)) == [
        ("pass", 0.25), ("fail", 0.25)]


def test_bool_errors_count_as_zero_or_one(monkeypatch):
    def holds(ctx):
        yield from (False, False)

    def breaks(ctx):
        yield from (False, True, 0.5)

    rows = _demo_records(monkeypatch, 2.0, (0, holds), (0, breaks), (None, breaks))
    assert rows == [("pass", 0.0), ("fail", 1.0), ("pass", 1.0)]
    assert all(type(err) is float for _, err in rows)


def test_an_exception_mid_stream_fails_the_check(monkeypatch):
    seen = []

    def body(ctx):
        yield from (0.0, 0.5, 0.25)
        seen.append("raised")
        raise ValueError("mid-stream")

    monkeypatch.setattr(checks, "REGISTRY", [])
    checks.check("demo.crash", "streams then raises", "never holds")(body)
    [report] = checks.run_suite("demo", tol=1.0)
    assert seen == ["raised"]
    assert (report.description, report.status, report.max_error) == (
        "streams then raises [error: mid-stream]", "fail", math.inf)


def test_an_empty_stream_has_zero_error(monkeypatch):
    def body(ctx):
        yield from ()

    assert _demo_records(monkeypatch, 0.0, (None, body), (0, body)) == [("pass", 0.0), ("pass", 0.0)]


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _tool("reach")


@pytest.fixture(scope="module")
def all_records_and_census():
    """Every record of ``verify all``, run once for the module, and the
    calls of the one rule it made, counted by origin (``tools/reach.py``)."""
    records = []
    census = reach.census(lambda: records.extend(checks.run_all()))
    return records, census


@pytest.fixture(scope="module")
def all_records(all_records_and_census):
    """Every record of ``verify all``, run once for the module."""
    return all_records_and_census[0]


# One calculator request of each kind, decompose in both formats.
CALC_REQUESTS = [
    ["tables", "c30bar"],
    ["sphere", "--angles", "0.1,0.2,0.3,0.4,0.5", "--radius", "2"],
    ["sphere", "--angles", "0.1,0.2,0.3,0.4,0.5", "--hyperbolic", "0.5,-0.3,0.2,0,0.7"],
    ["boost", "--xi", "0.5", "--axis", "1", "--vector", "1,0.5,0,0"],
    ["boost", "--xi", "30", "--axis", "2", "--vector", '{"space": "m4", "coords": [1, 0.5, 0, 0]}'],
    ["interfere", "--p1", "0.3", "--p2", "0.6", "--lambda", "1.5"],
    ["pauli", "--k", "10"],
    ["pauli", "--ab", "4,1"],
    ["pauli", "--two", "2"],
    ["decompose", "--rep", "c30bar", "--matrix", "[[[1, 0, 0, 0], [0, 2, 0, 0]], [[0, 0, -3, 0], [0, 0, 0, 0.5]]]"],
    ["decompose", "--rep", "h05bar", "--matrix", json.dumps([[[float(r == c), 0, 0.5, 0] for c in range(4)]
                                                             for r in range(4)]), "--format", "json"],
]


def _set_up():
    """The cached builders of every representation, space and Pauli table,
    called past their caches."""
    for name in REP_NAMES:
        get_rep.__wrapped__(name)
    for name in SPACE_NAMES:
        get_space.__wrapped__(name)
    for k in range(1, 16):
        pauli4_literal.__wrapped__(k)
        pauli4.__wrapped__(k)
    for k in (1, 2, 3):
        pauli2.__wrapped__(k)
    for a, b in product(range(6), repeat=2):
        if a != b:
            sigma_ab.__wrapped__(a, b)


def test_the_library_runs_the_rule_only_on_numbers_from_outside(all_records_and_census, capsys):
    """Each call of scalars._entering, climbed past the checked entries,
    starts in the checks, the calculator or outside the package: the
    library builds its own values with the unchecked kernels.  Counted over
    ``verify all`` (the fixture's run), over one calculator request of each
    kind and over the set-up builders."""
    def requests():
        for argv in CALC_REQUESTS:
            assert cli.main(list(argv)) == 0, argv

    for counts in (all_records_and_census[1], reach.census(requests), reach.census(_set_up)):
        assert {where: n for (kind, where), n in counts.items() if kind == "library"} == {}
    # the census sees the boundary: verify's checks and the calculator's commands
    assert {where.split()[0] for kind, where in all_records_and_census[1]} == {"hyperclifford.checks"}
    assert ("boundary", "hyperclifford.cli _cmd_boost") in reach.census(requests)
    capsys.readouterr()


def test_every_check_keeps_its_status_and_every_exact_check_its_zero_error(all_records):
    """The verifier's contract over all 54 checks: 51 pass, the three
    deviations keep their stated counts, each ``tol=0`` check is bit-exact
    and none crashed."""
    statuses = {r.check_id: r.status for r in all_records}
    assert list(statuses) == CHECK_IDS
    assert statuses == {cid: "deviation-documented" if cid in DEVIATIONS else "pass" for cid in CHECK_IDS}
    errors = {r.check_id: r.max_error for r in all_records}
    assert {cid: errors[cid] for cid in DEVIATIONS} == {
        "commutators.index_kk_printed": 480.0,
        "commutators.lorentz_kk_printed": 6.0,
        "commutators.split_literal": 0.0,
    }
    exact = [spec.check_id for spec in checks.REGISTRY if spec.tol == 0]
    assert len(exact) == 36
    assert {cid: errors[cid] for cid in exact} == dict.fromkeys(exact, 0.0)
    assert [r.check_id for r in all_records if "[error:" in r.description] == []


# Every (top, dens) that a check draws exact samples with, and dens = 1,
# where randint(1, 1) still takes a bit.
DRAWN_PAIRS = [(4, 3), (9, 4), (6, 3), (3, 2), (8, 3), (4, 1)]


@pytest.mark.parametrize("top, dens", DRAWN_PAIRS)
def test_pairs_drawn_from_raw_bits_are_the_randint_pairs(top, dens):
    for seed in range(3):
        old, new = random.Random(seed), random.Random(seed)
        want = [(old.randint(-top, top), old.randint(1, dens)) for _ in range(300)]
        assert checks._draw_pairs(new, 300, top, dens) == want
        assert new.getstate() == old.getstate()


def _old_random_mv(rep, rng, exact):
    """The random multivector as drawn by randint and uniform."""
    if not exact:
        return Multivector._new(rep, [rng.uniform(-1.0, 1.0) for _ in rep.basis], None)
    pairs = [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rep.basis]
    return Multivector._new(rep, [p * (6 // q) for p, q in pairs], 6)


def _bits(mv):
    """A multivector's stored fields, floats as their hex."""
    return [x if mv.is_exact else x.hex() for x in mv.nums], mv.den


@pytest.mark.parametrize("name", REP_NAMES)
def test_random_multivectors_are_drawn_as_randint_and_uniform_draw_them(name):
    rep = get_rep(name)
    for seed, exact in product(range(3), (False, True)):
        old, new = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert _bits(checks._random_mv(rep, new, exact)) == _bits(_old_random_mv(rep, old, exact))
        assert new.getstate() == old.getstate()
