"""The benchmark pair summary of ``tools/pairs.py``, the record
comparison of ``tools/compare_outputs.py`` and the unentered-function,
unexecuted-line and rule-call lists of ``tools/reach.py``, on canned
results and stubbed runs."""

import importlib.util
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, compare_outputs, reach = _tool("pairs"), _tool("compare_outputs"), _tool("reach")

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
]


def results(walls, rates, failed=0):
    return [
        {"correct": True, "attempted": 100, "failed": failed,
         "metrics": {"wall_s": {"value": w, "unit": "s"}, "req_per_s": {"value": r, "unit": "1/s"}}}
        for w, r in zip(walls, rates)
    ]


def row(lines, name):
    return next(line.split() for line in lines if line.startswith(name))


def test_quartile_spread():
    assert pairs.quartile_spread([3.0]) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert pairs.quartile_spread(values) == q3 - q1 == 3.0


def test_summary_reports_medians_spread_wins_and_bound():
    parent = results([2.0, 2.2, 2.1, 2.3], [100.0, 90.0, 95.0, 85.0])
    change = results([1.9, 2.3, 2.0, 2.2], [104.0, 88.0, 96.0, 86.0], failed=1)
    lines, ok = pairs.summarize(METRICS, parent, change)
    assert ok
    wall = row(lines, "wall_s")
    # parent median 2.15, change 2.1; the change won pairs 1, 3 and 4
    assert wall[2:5] == ["2.15", "2.1", f"{pairs.quartile_spread([2.0, 2.2, 2.1, 2.3]):.3g}"]
    assert wall[5] == "3/4"
    assert wall[6] == f"{(2.1 - 2.15) / 2.15:+.1%}" and wall[-1] == "ok"
    rate = row(lines, "req_per_s")
    # higher is better: 104 > 100, 88 < 90, 96 > 95, 86 > 85
    assert rate[2:4] == ["92.5", "92"] and rate[5] == "3/4"
    assert rate[6] == f"{(92.5 - 92.0) / 92.5:+.1%}"
    assert "parent: failed 0 of 400 operations, correct True" in lines
    assert "change: failed 4 of 400 operations, correct True" in lines


@pytest.mark.parametrize("walls, rates", [
    ([2.5, 2.6, 2.5, 2.6], [100.0, 90.0, 95.0, 85.0]),  # wall_s 19% worse
    ([2.0, 2.2, 2.1, 2.3], [70.0, 80.0, 75.0, 75.0]),  # req_per_s 19% worse
], ids=["lower-is-better", "higher-is-better"])
def test_summary_flags_a_metric_worse_than_its_bound(walls, rates):
    parent = results([2.0, 2.2, 2.1, 2.3], [100.0, 90.0, 95.0, 85.0])
    lines, ok = pairs.summarize(METRICS, parent, results(walls, rates))
    assert not ok
    assert sum(line.endswith("WORSE THAN BOUND") for line in lines) == 1


@pytest.mark.parametrize("walls, rates, check", [
    ([2.4, 2.5, 2.6, 2.5], [120.0, 125.0, 130.0, 135.0], "unresolved"),
    ([0.5, 0.6, 0.7, 0.9], [210.0, 220.0, 230.0, 240.0], "ok"),  # every run beats every parent run
    ([3.5, 3.6, 3.7, 3.8], [60.0, 65.0, 70.0, 75.0], "WORSE THAN BOUND"),
], ids=["within", "beats-every-run", "worse"])
def test_summary_calls_a_metric_unresolved_when_the_parent_spreads_wider_than_the_bound(walls, rates, check):
    """The parent's interquartile spreads, 2.5 s of a 2.5 s median and 125
    of a 125 median, are wider than the 15% bounds; the exit status follows
    the bound alone."""
    parent = results([1.0, 2.0, 3.0, 4.0], [50.0, 100.0, 150.0, 200.0])
    lines, ok = pairs.summarize(METRICS, parent, results(walls, rates))
    for name in ("wall_s", "req_per_s"):
        assert next(line for line in lines if line.startswith(name)).endswith(f"  {check}")
    assert ok == (check != "WORSE THAN BOUND")


def test_summary_says_whether_the_change_may_claim_a_gain():
    """A gain needs nine tenths of the pairs won and a median gap wider
    than the parent's interquartile spread."""
    parent = results([2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4], [100.0] * 10)
    spread = pairs.quartile_spread([2.0, 2.1, 2.2, 2.3, 2.4] * 2)
    win = results([1.5, 1.6, 1.7, 1.8, 1.9, 1.5, 1.6, 1.7, 1.8, 2.5], [101.0] * 10)
    loss = results([2.5, 2.6, 2.7, 2.8, 2.9, 2.5, 2.6, 2.7, 2.8, 2.9], [99.0] * 10)
    # every pair won, by less than the parent's spread
    close = results([1.99, 2.09, 2.19, 2.29, 2.39, 1.99, 2.09, 2.19, 2.29, 2.39], [100.5] * 10)
    assert spread > 0.01
    verdicts = {}
    for label, change in (("win", win), ("loss", loss), ("close", close)):
        lines, _ = pairs.summarize(METRICS, parent, change)
        verdicts[label] = row(lines, "wall_s")[8], row(lines, "req_per_s")[8]
    # win: 9 of 10 pairs and a 0.5 s gap; req_per_s won 10 of 10 by 1.0,
    # above a parent spread of 0
    assert verdicts["win"] == ("yes", "yes")
    assert verdicts["loss"] == ("no", "no")
    assert verdicts["close"] == ("no", "yes")
    assert not pairs.is_gain(8, 10, 2.2, 1.0, 0.1, True)  # too few pairs won
    assert pairs.is_gain(9, 10, 90.0, 95.0, 4.0, False)


@pytest.mark.parametrize("count, gain", [(4, "no"), (9, "no"), (10, "yes")])
def test_summary_calls_a_gain_only_from_ten_pairs(count, gain):
    """Every pair won by a gap far wider than the parent's spread is still
    no gain below ten pairs; the exit status follows the bounds alone."""
    parent = results([2.0, 2.1] * 5, [100.0, 101.0] * 5)
    change = results([1.0] * 10, [200.0] * 10)
    lines, ok = pairs.summarize(METRICS, parent[:count], change[:count])
    assert ok
    for name in ("wall_s", "req_per_s"):
        assert row(lines, name)[5] == f"{count}/{count}" and row(lines, name)[8] == gain


VERIFY = [
    ["commutators.index_kk_printed", "deviation-documented", float.hex(480.0)],
    ["commutators.lorentz", "pass", float.hex(0.0)],
    ["rotations.boost", "pass", float.hex(2.5e-16)],
]


def test_pairs_run_from_the_first_seed_given(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 3, "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15}]}'
    )
    parent_dir, change_dir = tmp_path, tmp_path / "change"
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        return results([2.0 if root == parent_dir else 1.9], [1.0])[0]

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "compile_sources", lambda root: None)
    assert pairs.main([str(parent_dir), str(change_dir), "verify-matrix", "3", "21"]) == 0
    # seeds 21..23; the parent goes first in the first and third pair
    assert calls == [
        (parent_dir, "verify-matrix", 21, 3), (change_dir, "verify-matrix", 21, 3),
        (change_dir, "verify-matrix", 22, 3), (parent_dir, "verify-matrix", 22, 3),
        (parent_dir, "verify-matrix", 23, 3), (change_dir, "verify-matrix", 23, 3),
    ]
    assert "3 pairs, seeds 21..23, 3 s each" in capsys.readouterr().out
    calls.clear()
    assert pairs.main([str(parent_dir), str(change_dir), "verify-matrix", "2"]) == 0
    assert [seed for _, _, seed, _ in calls] == [1, 1, 2, 2]
    for bad in (["verify-matrix", "2", "0"], ["verify-matrix", "0"], ["verify-matrix", "2", "x"]):
        assert pairs.main([str(parent_dir), str(change_dir), *bad]) == 2
    assert "[FIRST_SEED]" in capsys.readouterr().err


def test_pairs_print_every_run_before_the_summary(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3, "end_to_end": METRICS}))
    walls = iter([2.0, 1.9, 1.8, 2.1, 2.2, 2.05])  # in the order of the runs

    def run_once(root, workload, seed, seconds):
        return results([next(walls)], [float(seed)])[0]

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "compile_sources", lambda root: None)
    assert pairs.main([str(tmp_path), str(tmp_path / "change"), "verify-blades", "3", "31"]) == 0
    out = capsys.readouterr().out.splitlines()
    # the parent runs first in odd pairs, and each line reads parent then change
    assert out[1:4] == [
        "pair 1 seed 31 first parent  wall_s 2 1.9  req_per_s 31 31",
        "pair 2 seed 32 first change  wall_s 2.1 1.8  req_per_s 32 32",
        "pair 3 seed 33 first parent  wall_s 2.2 2.05  req_per_s 33 33",
    ]
    assert out[4].startswith("metric") and row(out, "wall_s")[2:4] == ["2.1", "1.9"]


def test_pairs_compile_both_checkouts_before_the_first_run(tmp_path, monkeypatch):
    # stale bytecode in one checkout would make its runs compile (and count
    # the compiler in peak_rss_mb), so both are compiled, untimed, first
    for name in ("parent", "change"):
        for sub in ("src/pkg", "perfbench"):
            (tmp_path / name / sub).mkdir(parents=True)
        (tmp_path / name / "src/pkg/mod.py").write_text("X = 1\n")
        (tmp_path / name / "perfbench/run.py").write_text("Y = 2\n")
    (tmp_path / "parent/BENCHMARK.json").write_text(
        '{"run_seconds": 3, "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15}]}'
    )
    events = []

    def run_once(root, workload, seed, seconds):
        events.append(("run", root.name, sorted(p.name for p in root.rglob("*.pyc"))))
        return results([2.0], [1.0])[0]

    def compile_sources(root, compile_sources=pairs.compile_sources):
        events.append(("compile", root.name))
        compile_sources(root)

    monkeypatch.setattr(pairs, "compile_sources", compile_sources)
    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "verify-matrix", "2"]) == 0
    tag = sys.implementation.cache_tag
    pycs = [f"mod.{tag}.pyc", f"run.{tag}.pyc"]
    assert events == [("compile", "parent"), ("compile", "change"), ("run", "parent", pycs),
                      ("run", "change", pycs), ("run", "change", pycs), ("run", "parent", pycs)]


def test_equal_records_have_no_differences():
    assert compare_outputs.differences("verify", VERIFY, [list(r) for r in VERIFY]) == []


def test_one_changed_record_is_reported_with_both_sides():
    changed = [list(r) for r in VERIFY]
    changed[1][2] = float.hex(1.0)
    assert compare_outputs.differences("verify", VERIFY, changed) == [
        f"verify[1]:\n  parent {VERIFY[1]!r}\n  change {changed[1]!r}"]


def test_a_length_mismatch_is_reported_first():
    calc = [["boost --xi 1", 0, "1.0\n", ""], ["boost --xi 40", 2, "", "error: no pivot\n"]]
    lines = compare_outputs.differences("calc", calc, calc[:1])
    assert lines == ["calc: 2 records at the parent, 1 at the change"]
    # the records both sides have are still compared
    lines = compare_outputs.differences("calc", calc, [calc[1]])
    assert lines[0] == "calc: 2 records at the parent, 1 at the change"
    assert lines[1].startswith("calc[0]:")


def traced(counts, seconds=1.5, failed=24, correct=True):
    metrics = {name: {"value": v, "unit": "count"} for name, v in counts.items()}
    metrics["trace.wall_s"] = {"value": seconds, "unit": "s"}
    return {"correct": correct, "attempted": 600, "failed": failed, "metrics": metrics}


def test_traced_counts_compare_only_the_count_metrics():
    counts = {"rotors.act.calls": 549, "paravectors.to_multivector.calls": 663}
    old = traced(counts)
    # a different wall time is not a difference
    assert compare_outputs.count_differences("calc-stream", old, traced(counts, seconds=2.0)) == []
    new = traced({"rotors.act.calls": 549, "paravectors.to_multivector.calls": 1201}, failed=25)
    assert compare_outputs.count_differences("calc-stream", old, new) == [
        "calc-stream failed: parent 24 change 25",
        "calc-stream paravectors.to_multivector.calls: parent 663 change 1201",
    ]
    # a count the change lacks, and a run that is no longer correct
    lacking = traced({"rotors.act.calls": 549}, correct=False)
    assert compare_outputs.count_differences("calc-stream", old, lacking) == [
        "calc-stream correct: parent True change False",
        "calc-stream paravectors.to_multivector.calls: parent 663 change None",
    ]



def finished(counts, self_sum=0.92, wall=1.0):
    """A traced run that exited 0: its detail line, then its result."""
    detail = {"detail": {"layers": {"trace.self_sum_s": self_sum, "trace.raw_wall_s": wall}}}
    out = f"wall_s 1.0 s\n{json.dumps(detail)}\n{json.dumps(traced(counts))}\n"
    return subprocess.CompletedProcess([], 0, out, "")


def crashed(err="Traceback ...\nRuntimeError: self times 0.8 s do not add up to the traced wall time 1.0 s\n"):
    return subprocess.CompletedProcess([], 1, "wall_s 1.0 s\n", err)


def test_a_traced_run_reads_as_its_coverage_and_result():
    line, result, margin = compare_outputs.traced_summary(finished({"cli.main.calls": 3000}, 0.9137, 1.25))
    assert line == "self times cover 0.7310 of the traced window (0.9137 of 1.2500 s), margin -0.1690 over 0.9"
    assert result == traced({"cli.main.calls": 3000})
    assert margin == pytest.approx(0.9137 / 1.25 - 0.9)
    line, _, margin = compare_outputs.traced_summary(finished({}, 0.906, 1.0))
    assert line.endswith("(0.9060 of 1.0000 s), margin +0.0060 over 0.9")
    assert margin == pytest.approx(0.006)


def test_the_minimum_margin_is_flagged_low_under_the_flag():
    # a margin under 0.005 over run.py's floor is flagged, a wider one is not
    assert compare_outputs.minimum_margin({7: 0.0119, 3: 0.0016, 11: 0.0103}) == \
        "minimum margin +0.0016 over 0.9 (seed 3 of 3) LOW"
    assert compare_outputs.minimum_margin({7: 0.0119, 11: 0.006}) == "minimum margin +0.0060 over 0.9 (seed 11 of 2)"
    assert compare_outputs.minimum_margin({7: 0.0049}) == "minimum margin +0.0049 over 0.9 (seed 7 of 1) LOW"


def test_a_failed_traced_run_reads_as_its_exit_code_and_last_stderr_line():
    line, result, margin = compare_outputs.traced_summary(crashed())
    assert line == "exited 1: RuntimeError: self times 0.8 s do not add up to the traced wall time 1.0 s"
    assert result is None and margin is None
    assert compare_outputs.traced_summary(crashed(err="")) == ("exited 1: (no stderr)", None, None)


def stub_comparison(tmp_path, monkeypatch, runs):
    """Two checkouts whose records agree, with the traced runs ``runs``
    keyed by (root, workload, seed); returns the roots and the order in
    which the runs were asked for."""
    (tmp_path / "src").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 3, "workloads": [{"name": "verify-matrix"}, {"name": "calc-stream"}]}')
    parent_dir, change_dir = str(tmp_path), str(tmp_path / "change")
    # the parent's calc answers compiled two blade-table kernel functions, the
    # change's one space kernel and four coordinate maps
    recs = {root: ({"verify": VERIFY, "calc": []}, "ab12", [["rotations.boost", 1.0]], compiled)
            for root, compiled in ((parent_dir, [2, 0, 0]), (change_dir, [0, 1, 4]))}
    asked = []

    def traced_run(root, workload, seconds, seed):
        asked.append((str(root), workload, seed))
        return runs[str(root), workload, seed]

    monkeypatch.setattr(compare_outputs, "records", lambda root: recs[str(root)])
    monkeypatch.setattr(compare_outputs, "source_lines", lambda root: {"pkg.a": 10})
    monkeypatch.setattr(compare_outputs, "traced_run", traced_run)
    monkeypatch.setattr(compare_outputs, "setup_split",
                        lambda root: ([20.0, 12.25, 4.0], [3.5, 1.375, 0.0], [(0, 0), (0, 0), (3, 0)],
                                      {"r01": 0.125, "h05bar": 12.0}))
    return parent_dir, change_dir, asked


def test_compare_outputs_reports_a_failed_traced_run_and_exits_one(tmp_path, monkeypatch, capsys):
    runs = {}
    parent_dir, change_dir, _ = stub_comparison(tmp_path, monkeypatch, runs)
    runs.update({(parent_dir, "verify-matrix", 7): finished({"rotors.act.calls": 5}),
                 (change_dir, "verify-matrix", 7): finished({"rotors.act.calls": 6})})
    for seed in (7, 3, 11):
        runs[parent_dir, "calc-stream", seed] = finished({"rotors.act.calls": 5}, 0.95)
        runs[change_dir, "calc-stream", seed] = finished({"rotors.act.calls": 5}, 0.95)
    runs[change_dir, "calc-stream", 3] = crashed()
    assert compare_outputs.main([parent_dir, change_dir]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "no differences"
    # the src/ total beside the status counts, then each module's lines
    assert out[1].endswith("src/ 10 lines") and out[3] == "parent: src/ lines per module  pkg.a 10"
    assert out[7:9] == [f"{side}: kernel functions compiled by the end of the 3,000 seed-7 calc answers"
                        f"  blade tables {tables}  paravector spaces {spaces}  coordinate maps {maps}"
                        for side, tables, spaces, maps in (("parent", 2, 0, 0), ("change", 0, 1, 4))]
    assert out[9:11] == [f"{side}: set-up ms, median of 5 fresh interpreters (kernel functions, coordinate maps"
                         " compiled)  import 20.0 (0, 0)  get_rep 12.2 (0, 0)  get_space 4.0 (3, 0)"
                         for side in ("parent", "change")]
    assert out[11:13] == [f"{side}: get_rep ms per representation, same interpreters  r01 0.12  h05bar 12.00"
                          for side in ("parent", "change")]
    assert out[13:15] == [f"{side}: set-up peak-RSS growth MB, same interpreters  import 3.50  get_rep 1.38"
                          "  get_space 0.00" for side in ("parent", "change")]
    cover = "self times cover {0:.4f} of the traced window ({0:.4f} of 1.0000 s), margin {1:+.4f} over 0.9"
    assert out[15:] == [
        f"parent traced verify-matrix seed 7: {cover.format(0.92, 0.02)}",
        f"change traced verify-matrix seed 7: {cover.format(0.92, 0.02)}",
        "parent traced verify-matrix: minimum margin +0.0200 over 0.9 (seed 7 of 1)",
        "change traced verify-matrix: minimum margin +0.0200 over 0.9 (seed 7 of 1)",
        f"parent traced calc-stream seed 7: {cover.format(0.95, 0.05)}",
        f"change traced calc-stream seed 7: {cover.format(0.95, 0.05)}",
        f"parent traced calc-stream seed 3: {cover.format(0.95, 0.05)}",
        "change traced calc-stream seed 3: exited 1: RuntimeError: self times 0.8 s do not add up to the traced"
        " wall time 1.0 s",
        f"parent traced calc-stream seed 11: {cover.format(0.95, 0.05)}",
        f"change traced calc-stream seed 11: {cover.format(0.95, 0.05)}",
        "parent traced calc-stream: minimum margin +0.0500 over 0.9 (seed 7 of 3)",
        "change traced calc-stream: minimum margin +0.0500 over 0.9 (seed 7 of 2)",
        "traced runs failed, counts not compared: calc-stream",
        "traced seed-7 counts differ:",
        "verify-matrix rotors.act.calls: parent 5 change 6",
    ]
    # with every traced run finished and equal counts the records decide
    runs[change_dir, "verify-matrix", 7] = finished({"rotors.act.calls": 5})
    runs[change_dir, "calc-stream", 3] = finished({"rotors.act.calls": 5}, 0.91)
    assert compare_outputs.main([parent_dir, change_dir]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "traced seed-7 counts equal"


def test_traced_calc_stream_runs_three_seeds_alternating_and_compares_the_seed_7_counts(
        tmp_path, monkeypatch, capsys):
    runs = {}
    parent_dir, change_dir, asked = stub_comparison(tmp_path, monkeypatch, runs)
    runs[parent_dir, "verify-matrix", 7] = runs[change_dir, "verify-matrix", 7] = finished({})
    coverage = {(parent_dir, 7): 0.9119, (change_dir, 7): 0.9103, (parent_dir, 3): 0.9111,
                (change_dir, 3): 0.9044, (parent_dir, 11): 0.9074, (change_dir, 11): 0.9098}
    for (root, seed), covered in coverage.items():
        # only seed 7's counts are compared, so the other seeds' may differ freely
        runs[root, "calc-stream", seed] = finished({"cli.main.calls": 3000 if seed == 7 else seed}, covered)
    assert compare_outputs.main([parent_dir, change_dir]) == 0
    assert asked == [(parent_dir, "verify-matrix", 7), (change_dir, "verify-matrix", 7)] + [
        (root, "calc-stream", seed) for seed in (7, 3, 11) for root in (parent_dir, change_dir)]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[-9:-3]] == [
        f"{side} traced calc-stream seed {seed}" for seed in (7, 3, 11) for side in ("parent", "change")]
    assert "margin +0.0044 over 0.9" in out[-6] and "LOW" not in out[-6]
    assert out[-3:] == [
        "parent traced calc-stream: minimum margin +0.0074 over 0.9 (seed 11 of 3)",
        "change traced calc-stream: minimum margin +0.0044 over 0.9 (seed 3 of 3) LOW",
        "traced seed-7 counts equal",
    ]


def stand_in_library(root):
    """A stand-in library whose three set-up stages sleep 40, 2 x 15 and 60
    ms; the last also holds 32 MiB it has written.  Its import builds a
    representation with one kernel function and one coordinate map
    compiled, ``get_rep`` builds two more on a shared table and
    ``get_space`` compiles two functions of that table and builds a space
    that holds a third beside its name, and one map in its slot pairs."""
    pkg = root / "src" / "hyperclifford"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "import time\ntime.sleep(0.04)\nfrom .algebra import HELD, AlgebraRep, Table\n"
        "HELD.append(AlgebraRep(Table()))\nHELD[0]._product.product = print\n"
        "HELD[0]._coord_table = Table()\nHELD[0]._coord_table.scatter = print\n")
    (pkg / "algebra.py").write_text(
        "import time\nREP_NAMES = ('a', 'b')\nclass Table:\n    pass\n"
        "class AlgebraRep:\n    def __init__(self, table):\n        self._product = table\n"
        "SHARED, HELD = Table(), []\n"
        "def get_rep(name):\n    time.sleep(0.015)\n    HELD.append(AlgebraRep(SHARED))\n")
    (pkg / "paravectors.py").write_text(
        "import time\nfrom .algebra import HELD, SHARED\nSPACE_NAMES = ('s',)\nclass ParavectorSpace:\n    pass\n"
        "def get_space(name):\n    time.sleep(0.06)\n    HELD.append(b'x' * (32 << 20))\n"
        "    SHARED.product = SHARED.joined = print\n"
        "    HELD.append(ParavectorSpace())\n    HELD[-1].name, HELD[-1].kernel = name, print\n"
        "    HELD[-1]._slot_pairs = type('Slots', (), {})()\n    HELD[-1]._slot_pairs.gather = print\n")


def test_setup_split_times_each_stage_in_fresh_interpreters_and_writes_nothing(tmp_path, monkeypatch):
    stand_in_library(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(compare_outputs, "SETUP_RUNS", 3)
    split, growth, _, reps = compare_outputs.setup_split(tmp_path)
    assert len(split) == len(growth) == len(compare_outputs.SETUP_STAGES) == 3
    for ms, slept in zip(split, (40, 30, 60)):
        assert slept <= ms < slept + 500
    # each representation's share of the get_rep stage, in build order
    assert list(reps) == ["a", "b"] and all(15 <= ms < 15 + 250 for ms in reps.values())
    assert 0 <= growth[0] < 8 and 0 <= growth[1] < 8
    assert 31 <= growth[2] < 40
    assert sorted(tmp_path.rglob("*")) == before


def test_setup_split_counts_the_kernel_functions_each_stage_compiled(tmp_path, monkeypatch):
    # the import compiles one kernel function and one coordinate map, get_rep
    # none, and get_space two functions of the one table its two
    # representations share, one its space holds and one map of its slot pairs
    stand_in_library(tmp_path)
    monkeypatch.setattr(compare_outputs, "SETUP_RUNS", 1)
    assert compare_outputs.setup_split(tmp_path)[2] == [(1, 1), (0, 0), (3, 1)]


def answer(coords, code=0, err=""):
    """Exit code, stdout and stderr of a calc record, as ``call_cli`` gives them."""
    return code, json.dumps({"space": "m4", "coords": coords}, indent=2) + "\n", err


def test_a_number_move_is_the_largest_relative_difference():
    a = ["boost --xi=20", *answer([4.0, 0.5, -1.0, 0])]
    assert compare_outputs.number_move(a, list(a)) == (0.0, None, None, 0.0)
    b = ["boost --xi=20", *answer([4.0 * (1 + 2e-16), 0.5, -1.0 * (1 + 1e-15), 0.0])]
    rel, x, y, absolute = compare_outputs.number_move(a, b)
    assert rel == pytest.approx(1e-15) and (x, y) == (-1.0, -1.0 * (1 + 1e-15))
    assert absolute == 1.0 * (1 + 1e-15) - 1.0
    # a change of structure, exit code, stderr or a non-finite number is not a move
    for other in (answer([4.0, 0.5, -1.0]), answer([4.0, 0.5, -1.0, 0], code=2),
                  answer([4.0, 0.5, -1.0, 0], err="warning\n"), answer([4.0, 0.5, -1.0, "0"]),
                  answer([4.0, 0.5, -1.0, math.inf]), (0, "4.0 0.5\n", "")):
        assert compare_outputs.number_move(a, ["boost --xi=20", *other]) is None


def test_a_number_move_near_zero_is_read_beside_the_largest_absolute_move():
    # rounding noise around zero is the largest relative move, and the large
    # pair's move, tiny beside its size, the largest absolute one
    a = ["sphere --radius=1", *answer([2.220446049250313e-16, 1000.0, 0.5])]
    b = ["sphere --radius=1", *answer([2.7755575615628914e-17, 1000.0 + 2**-40, 0.5])]
    rel, x, y, absolute = compare_outputs.number_move(a, b)
    assert (x, y) == (2.220446049250313e-16, 2.7755575615628914e-17) and rel == 0.875
    assert absolute == 2**-40  # the large pair's move
    assert compare_outputs.calc_differences([a], [b]) == [
        "calc sphere: 1 answers moved only in their numbers, largest relative difference 0.875"
        " (parent 2.220446049250313e-16, change 2.7755575615628914e-17), largest absolute difference 9.09e-13"
    ]


def test_calc_records_that_moved_only_in_their_numbers_are_summed_per_command():
    old = [
        ["boost --xi=20", *answer([4.0, 0.5, -1.0, 0.0])],
        ["boost --xi=40", *answer([8.0, 0.5, -1.0, 0.0])],
        ["sphere --radius=1", *answer([1.0])],
        ["boost --xi=45", 2, "", "error: no invertible pivot\n"],
    ]
    new = [
        ["boost --xi=20", *answer([4.0 * (1 + 1e-15), 0.5, -1.0, 0.0])],
        ["boost --xi=40", *answer([8.0, 0.5 * (1 + 3e-12), -1.0, 0.0])],
        old[2],
        ["boost --xi=45", *answer([9.0, 0.5, -1.0, 0.0])],
    ]
    lines = compare_outputs.calc_differences(old, new)
    assert lines == [
        f"calc[3]:\n  parent {old[3]!r}\n  change {new[3]!r}",
        "calc boost: 2 answers moved only in their numbers, largest relative difference 3e-12"
        f" (parent 0.5, change {0.5 * (1 + 3e-12)!r}), largest absolute difference 1.5e-12",
    ]
    # a length mismatch is still reported first
    assert compare_outputs.calc_differences(old, new[:1])[0] == "calc: 4 records at the parent, 1 at the change"


def test_suite_times_sum_the_checks_of_each_suite_in_first_seen_order():
    times = [["rotations.spin_condition", 380.5], ["sphere.closed_form", 12.0],
             ["rotations.boost", 1.5], ["quantum.interference", 0.25]]
    assert compare_outputs.suite_times(times) == {"rotations": 382.0, "sphere": 12.0, "quantum": 0.25}
    assert list(compare_outputs.suite_times(times)) == ["rotations", "sphere", "quantum"]
    assert compare_outputs.suite_times([]) == {}


def test_source_lines_counts_the_python_lines_under_src(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("w = 4\n")
    (tmp_path / "tools.py").write_text("outside src\n")
    lines = compare_outputs.source_lines(tmp_path)
    # one count per module by dotted name, in name order
    assert list(lines.items()) == [("pkg.__init__", 0), ("pkg.a", 3), ("pkg.b", 1), ("pkg.sub.c", 1)]


STUB_MODULE = """\
def used():
    return [x for x in range(2)]


def unused():
    return lambda: 1


class Thing:
    def method(self):
        def inner():
            pass
        return 1

    def never(self):
        pass
"""


def test_reach_lists_each_named_function_that_no_call_entered(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "hyperclifford"
    package.mkdir(parents=True)
    (package / "stub.py").write_text(STUB_MODULE)

    def exercise(root):
        # the stub loads inside the traced run, as the library does
        spec = importlib.util.spec_from_file_location("stub", root / "src" / "hyperclifford" / "stub.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.used()
        module.Thing().method()

    monkeypatch.setattr(reach, "exercise", exercise)
    assert reach.main([str(tmp_path)]) == 0
    # lambdas, comprehensions and class bodies are not listed
    assert capsys.readouterr().out.splitlines() == [
        "hyperclifford.stub:5 unused",
        "hyperclifford.stub:11 Thing.method.<locals>.inner",
        "hyperclifford.stub:15 Thing.never",
        "3 of 5 functions never entered",
    ]


LINES_MODULE = """\
def used(flag=False):
    total = 0
    for x in range(2):
        total += x
    if flag:
        total = -1
        # a comment between two lines that never run
        total += 1
    return [
        total,
        x,
    ]


def unused():
    return 1


class Thing:
    def method(self):
        def inner():
            pass
        return 1
"""


def test_reach_lines_lists_the_lines_that_never_ran_as_ranges(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "hyperclifford"
    package.mkdir(parents=True)
    (package / "stub.py").write_text(LINES_MODULE)
    (package / "other.py").write_text("X = 1\n")

    def exercise(root):
        for name in ("other", "stub"):
            spec = importlib.util.spec_from_file_location(name, root / "src" / "hyperclifford" / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        module.used()
        module.Thing().method()

    monkeypatch.setattr(reach, "exercise", exercise)
    assert reach.main(["--lines", str(tmp_path)]) == 0
    # a multi-line statement that ran counts whole; a comment holds no code,
    # so lines 6 and 8 make one range; def lines ran when the module loaded
    assert capsys.readouterr().out.splitlines() == [
        "hyperclifford.other: 0 of 1",
        "hyperclifford.stub: 4 of 17 6-8 16 22",
        "4 of 18 lines that hold code never executed",
    ]
    assert reach.ranges([1, 2, 4, 7, 9], {1, 4, 7}) == ["1", "4-7"]
    assert reach.ranges([1, 2], set()) == []


def test_reach_sets_the_tracer_before_it_again():
    def tracer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        seen = reach.entered(lambda: test_quartile_spread())
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(previous)
    code = test_quartile_spread.__code__
    assert (code.co_filename, code.co_firstlineno, code.co_name) in seen


def test_census_counts_each_call_of_the_rule_at_its_origin():
    from hyperclifford.matrices import HMatrix
    from hyperclifford.rotors import RotorParams
    from hyperclifford.scalars import HScalar

    # a function of the package that re-enters a value it made is library code
    namespace = {"__name__": "hyperclifford.stub", "HScalar": HScalar}
    exec("def remake(z):\n    return HScalar.flt(*z.coeffs())\n", namespace)

    def run():
        HScalar.flt(0.5)  # the checked entries are climbed past: this test is the origin
        HMatrix.identity(2).scale(2)
        RotorParams.e6({(0, 1): 0.25})
        namespace["remake"](HScalar(1.0, 0.0, 0.0, 0.0))

    before = sys.modules["hyperclifford.scalars"]._entering
    counts = reach.census(run)
    assert sys.modules["hyperclifford.scalars"]._entering is before
    here = f"{__name__} test_census_counts_each_call_of_the_rule_at_its_origin.<locals>.run"
    assert counts == {("boundary", here): 3, ("library", "hyperclifford.stub remake"): 1}


def test_census_counts_one_rule_call_per_plain_number_and_none_for_a_ring_scale():
    from hyperclifford.algebra import get_rep
    from hyperclifford.matrices import pauli2
    from hyperclifford.scalars import HScalar

    rep, j = get_rep("c30bar"), HScalar.unit("j")
    e1, sigma1 = rep.generator(1), pauli2(1)
    calls = {
        "matrix scale": lambda: sigma1.scale(2),
        "scalar": lambda: rep.scalar(2),
        "blade": lambda: rep.blade((1,), 2),
        "ring scale": lambda: e1.scale(j),  # a ring operation: backend and subring only
    }
    assert {name: sum(reach.census(call).values()) for name, call in calls.items()} == \
        {"matrix scale": 1, "scalar": 1, "blade": 1, "ring scale": 0}


def test_reach_entering_prints_each_stage_by_origin(monkeypatch, capsys):
    from hyperclifford.scalars import HScalar

    namespace = {"__name__": "hyperclifford.stub", "HScalar": HScalar}
    exec("def remake(z):\n    return HScalar.flt(*z.coeffs())\n", namespace)
    one = HScalar(1.0, 0.0, 0.0, 0.0)

    def first():
        for _ in range(3):
            namespace["remake"](one)
        HScalar.flt(2.0)

    def second():
        HScalar.exact(1)

    cleared = []
    monkeypatch.setattr(reach, "stages", lambda root: [("first", first), ("second", second)])
    monkeypatch.setattr(reach, "clear_caches", lambda: cleared.append(True))
    assert reach.main(["--entering", "somewhere"]) == 0
    here = f"{__name__} test_reach_entering_prints_each_stage_by_origin.<locals>"
    assert capsys.readouterr().out.splitlines() == [
        "library       3 hyperclifford.stub remake",
        f"boundary      1 {here}.first",
        "first: 4 calls of _entering, 1 at the boundary, 3 library-made",
        f"boundary      1 {here}.second",
        "second: 1 calls of _entering, 1 at the boundary, 0 library-made",
    ]
    assert cleared == [True, True]  # each stage starts from cold caches
    assert reach.main(["--entering", "--lines"]) == 2
