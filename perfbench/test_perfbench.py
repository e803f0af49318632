"""Tests of the benchmark itself: a tiny-size run that must emit every
named metric with its unit, and oracles that must reject corrupted
answers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hyperclifford  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _tiny_requests():
    """One request of each kind, large-rapidity boost included."""
    requests, seen = [], set()
    for req in workloads.make_requests(seed=7, blocks=1):
        if req.kind not in seen:
            seen.add(req.kind)
            requests.append(req)
    return requests


def test_tiny_run_emits_every_named_metric_with_a_unit():
    spec = run.load_spec()
    sampler = run.SetupSampler(per_call=1)
    with speed.SpeedReference() as ref:
        verify = workloads.run_verify(("tables",), sampler)
        calc = workloads.run_calc(_tiny_requests(), oracle.ResponseOracle(), sampler)
    assert verify.failures == []
    assert {kind for kind, _ in calc.failures} <= {"boost-large"}
    for measured in (verify, calc):
        values, _ = run.end_to_end(measured, ref, sampler.samples)
        metrics = run.metrics_object(values, spec["end_to_end"])
        assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
        for m in metrics.values():
            assert m["unit"] and m["value"] > 0

    with speed.SpeedReference() as ref:
        untraced = workloads.run_verify(("tables",))
        with tracer.Tracer() as tr:
            traced = workloads.run_verify(("tables",))
    run.check_self_times(tr, traced)
    metrics = run.metrics_object(run.per_layer(untraced, traced, tr, ref), spec["per_layer"])
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert all(m["unit"] for m in metrics.values())
    assert metrics["cli.main.calls"]["value"] == 1


def test_tracer_restores_the_library():
    H, M = hyperclifford.HScalar, hyperclifford.HMatrix
    before = (H.__mul__, H.__rmul__, H.__add__, M.__matmul__,
              hyperclifford.cli.act, hyperclifford.algebra.get_rep)
    with tracer.Tracer() as tr:
        assert H.__mul__ is not before[0]
        z = H.flt(1.0, 2.0) * H.flt(3.0)
        assert z == H.flt(3.0, 6.0)
        q = H.exact(1, 2) * H.exact(3)
    assert q == H.exact(3, 6)
    after = (H.__mul__, H.__rmul__, H.__add__, M.__matmul__,
             hyperclifford.cli.act, hyperclifford.algebra.get_rep)
    assert after == before
    assert tr.stats["scalars.mul_float"].calls == 1
    assert tr.stats["scalars.mul_exact"].calls == 1
    assert math.isclose(tr.self_sum_s(), tr.inside_s(), rel_tol=1e-9, abs_tol=1e-12)


def test_speed_reference_scales_each_stretch_by_the_last_sample():
    ref = speed.SpeedReference()
    ref.starts, ref.ends, ref.factors = [0.0, 10.0], [1.0, 11.0], [2.0, 0.5]
    assert ref.scaled(0.0, 20.0) == 9.0 * 2.0 + 9.0 * 0.5
    assert ref.scaled(2.0, 12.0) == 8.0 * 2.0 + 1.0 * 0.5
    assert ref.scaled(-5.0, 0.5) == 5.0 * 2.0
    assert ref.scaled(10.2, 10.8) == 0.0


def test_speed_reference_samples_on_a_timer():
    with speed.SpeedReference() as ref:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert len(ref.factors) >= 5
    assert 0.0 < ref.scaled(t0, t1) < 100 * (t1 - t0)


def _interleaved(variants, rounds=20):
    """Raw and scaled time of each variant, run in turn so that the
    machine's drift hits all alike."""
    spans = [[] for _ in variants]
    with speed.SpeedReference() as ref:
        for _ in range(rounds):
            for k, variant in enumerate(variants):
                t0 = time.perf_counter()
                variant()
                spans[k].append((t0, time.perf_counter()))
    raw = [sum(b - a for a, b in s) for s in spans]
    scaled = [sum(ref.scaled(a, b) for a, b in s) for s in spans]
    return raw, scaled


def test_speed_reference_keeps_a_slowdown_of_the_program():
    """Work added to each request must show in the scaled time, also when
    it walks a working set large enough to evict the reference loop's
    caches, although that loop runs in the same interpreter."""
    units = [r.argv for r in _tiny_requests() if r.kind != "boost-large"]
    small = [float(i) for i in range(2000)]
    large = [float(i) for i in range(400_000)]

    def interpreter_work():
        return sum(small[k] for _ in range(100) for k in range(0, 2000, 4))

    def working_set():
        return sum(large[k] for k in range(0, 400_000, 8))

    def requests(extra=None):
        def unit():
            for argv in units:
                workloads.call_cli(argv)
                if extra is not None:
                    extra()
        return unit

    def alone():
        for _ in units:
            interpreter_work()

    raw, scaled = _interleaved(
        [requests(), requests(interpreter_work), requests(working_set), alone])
    # The scaled rise is about the added work's own scaled time.
    assert 0.75 < (scaled[1] - scaled[0]) / scaled[3] < 1.33
    # The working-set slowdown keeps most of its share after scaling.
    assert (scaled[2] / scaled[0] - 1) > 0.75 * (raw[2] / raw[0] - 1) > 0.1


def test_matmul_entry_products_skip_zero_entries():
    a = hyperclifford.pauli2(1)  # one nonzero per row and column
    with tracer.Tracer() as tr:
        a @ a
    stat = tr.stats["matrices.matmul"]
    assert stat.counts == {"entry_products": 2, "dense_products": 8}


# -- verify oracle ------------------------------------------------------------------


def _verify_output(suite: str) -> dict:
    records = [
        {"check_id": cid, "status": status, "elapsed_ms": 1.0}
        for cid, status in oracle.EXPECTED_STATUS.items()
        if cid.startswith(suite + ".")
    ]
    return {"checks": records}


def test_expected_statuses_are_the_seed_summary():
    statuses = list(oracle.EXPECTED_STATUS.values())
    assert len(statuses) == 54
    assert statuses.count("pass") == 51
    assert statuses.count("deviation-documented") == 3


def test_verify_oracle_accepts_the_expected_output():
    attempted, failures, elapsed = oracle.check_verify(
        "commutators", json.dumps(_verify_output("commutators")))
    assert attempted == 12 and failures == []
    assert elapsed["commutators.index_jj"] == 1e-3


def test_verify_oracle_rejects_a_status_flipped_to_fail():
    out = _verify_output("involutions")
    out["checks"][0]["status"] = "fail"
    _, failures, _ = oracle.check_verify("involutions", json.dumps(out))
    assert [cid for cid, _ in failures] == ["involutions.product_rules"]


def test_verify_oracle_rejects_a_deviation_reported_as_pass():
    out = _verify_output("commutators")
    for rec in out["checks"]:
        if rec["check_id"] == "commutators.split_literal":
            rec["status"] = "pass"
    _, failures, _ = oracle.check_verify("commutators", json.dumps(out))
    assert [cid for cid, _ in failures] == ["commutators.split_literal"]


def test_verify_oracle_rejects_a_missing_and_an_unexpected_check():
    out = _verify_output("wedge")
    out["checks"] = [r for r in out["checks"] if r["check_id"] != "wedge.split"]
    out["checks"].append({"check_id": "wedge.extra", "status": "pass", "elapsed_ms": 0.0})
    attempted, failures, _ = oracle.check_verify("wedge", json.dumps(out))
    assert attempted == 5
    assert sorted(failures) == [("wedge.extra", "unexpected check"), ("wedge.split", "missing")]


def test_verify_oracle_rejects_unparsable_output():
    attempted, failures, _ = oracle.check_verify("tables", "Traceback ...")
    assert attempted == 3 and len(failures) == 3


# -- calculator oracle ------------------------------------------------------------------


def _answer(req):
    rc, out, error, *_ = workloads.call_cli(req.argv)
    assert rc == 0, error
    return json.loads(out)


def _reject(req, payload, first=None):
    check = oracle.ResponseOracle()
    if first is not None:
        assert check.check(req.command, req.argv, req.params, 0, json.dumps(first), None) is None
    assert check.check(req.command, req.argv, req.params, 0, json.dumps(payload), None)


def _request(kind):
    return next(r for r in workloads.make_requests(seed=3, blocks=1) if r.kind == kind)


def test_calc_oracle_accepts_correct_answers():
    check = oracle.ResponseOracle()
    for req in _tiny_requests():
        if req.kind == "boost-large":
            continue
        _, out, error, *_ = workloads.call_cli(req.argv)
        assert check.check(req.command, req.argv, req.params, 0, out, error) is None, req.argv


def test_calc_oracle_rejects_a_sign_flipped_boost():
    req = _request("boost")
    good = _answer(req)
    xi, axis, x = req.params["xi"], req.params["axis"], req.params["vector"]
    flipped = list(x)
    flipped[0] = math.cosh(xi) * x[0] - math.sinh(xi) * x[axis]
    flipped[axis] = -math.sinh(xi) * x[0] + math.cosh(xi) * x[axis]
    _reject(req, {**good, "coords": flipped})


def test_calc_oracle_rejects_a_boost_that_breaks_the_norm():
    req = _request("boost")
    good = _answer(req)
    stretched = [2.0 * c for c in good["coords"]]
    _reject(req, {**good, "coords": stretched})


def test_calc_oracle_rejects_wrong_sphere_decompose_interfere():
    req = _request("sphere-hyperbolic")
    good = _answer(req)
    _reject(req, {**good, "membership_residual": 1e-3})
    _reject(req, {**good, "rotor_path": [-c for c in good["rotor_path"]]})

    req = _request("decompose")
    good = _answer(req)
    bad = copy.deepcopy(good)
    bad["coefficients"][1]["coeff"][0] += 1e-6
    _reject(req, bad)

    req = _request("interfere")
    good = _answer(req)
    _reject(req, {**good, "P": good["P"] + 1e-6})


def test_calc_oracle_rejects_a_changed_lookup():
    req = _request("pauli")
    good = _answer(req)
    bad = copy.deepcopy(good)
    bad["matrix"][0][0][0] += 1.0
    _reject(req, bad, first=good)


def test_calc_oracle_rejects_error_exits():
    req = _request("boost")
    check = oracle.ResponseOracle()
    assert check.check(req.command, req.argv, req.params, 2, "", "error: x\n") == "error: x"
    assert check.check(req.command, req.argv, req.params, None, "", "ZeroDivisor: y")


def _failing_cli(monkeypatch, fail):
    """Make ``cli.main`` exit with code 2 on ``boost`` and raise on
    ``decompose`` for the requests of the kinds in ``fail``."""
    main = hyperclifford.cli.main
    argvs = {tuple(r.argv) for r in _tiny_requests() if r.kind in fail}

    def failing(argv):
        if tuple(argv) in argvs:
            if argv[0] == "decompose":
                raise RuntimeError("injected")
            return 2
        return main(argv)

    monkeypatch.setattr(hyperclifford.cli, "main", failing)


def test_an_error_outside_the_known_defect_makes_the_run_incorrect(monkeypatch):
    _failing_cli(monkeypatch, {"boost", "decompose"})
    calc = workloads.run_calc(_tiny_requests(), oracle.ResponseOracle())
    assert {"boost", "decompose"} <= {kind for kind, _ in calc.failures}
    result, _ = run._summary([calc])
    assert result["correct"] is False


def test_failures_of_the_known_defect_keep_the_run_correct(monkeypatch):
    _failing_cli(monkeypatch, {"boost-large"})
    calc = workloads.run_calc(_tiny_requests(), oracle.ResponseOracle())
    assert [kind for kind, _ in calc.failures] == ["boost-large"]
    result, _ = run._summary([calc])
    assert result["correct"] is True and result["failed"] == 1


def test_requests_repeat_for_a_seed():
    a = [r.argv for r in workloads.make_requests(seed=5, blocks=1)]
    b = [r.argv for r in workloads.make_requests(seed=5, blocks=1)]
    c = [r.argv for r in workloads.make_requests(seed=6, blocks=1)]
    assert a == b and a != c
    assert len(a) == workloads.BLOCK_SIZE == 200
