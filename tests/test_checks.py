"""The check registry and its runner, exercised without the real checks."""

import math
import random

import pytest

from hyperclifford import checks

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


@pytest.fixture(scope="module")
def all_records():
    """Every record of ``verify all``, run once for the module."""
    return checks.run_all()


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
