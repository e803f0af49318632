"""Compare what two source checkouts of hyperclifford answer.

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

For each checkout, a child interpreter imports the library from its
``src`` and the calculator stream from its ``perfbench`` (read only, no
bytecode written) and records:

- each ``verify all --format json`` record as its ``check_id``,
  ``status`` and ``float.hex(max_error)``;
- the answer to each of the 3,000 seed-7 calc-stream requests
  (``make_requests(7, 15)`` sent through ``call_cli``, before the
  verifier runs): exit code, stdout and stderr.

Prints every difference, and for each side the status counts, a SHA-256
of its records, the line count of its ``src`` with that of each module
beside it, the in-process time of each verify suite (the sum of its
checks' ``elapsed_ms``; times are kept out of the records, so out of the
differences and the SHA-256) and the kernel functions compiled by the end
of the calc answers (counted as below, the blade tables' apart from the
paravector spaces', and the coordinate maps apart from both); exits 0 when the two sides agree and 1 when
they differ or a traced run below fails.  Calc answers that keep their
exit code, stderr and JSON structure and move only in their numbers are
summed up in one line per command: how many moved, the largest relative
difference of any number and the largest absolute one.

For each side it also prints its set-up split into stages: importing
``hyperclifford``, ``get_rep`` over every representation, then
``get_space`` over every paravector space, each in ms as the median of 5
fresh interpreters; then from the same interpreters the ms of each
representation's ``get_rep`` (its share of the second stage, which builds
them in ``REP_NAMES`` order, so a twin that reuses an earlier build's work
shows it) and how many MB each stage raised the peak resident set size
(Linux's ``VmHWM``).  One untimed run
before them compiles the bytecode they read into a temporary directory,
never into the checkout, and counts the kernel functions and the
coordinate maps each stage compiled, printed in parentheses after its ms:
the kernel functions are the entries of ``vars()`` of each distinct
``_product`` table of the representations that exist after the stage and
the functions their paravector spaces hold in ``vars()``; the coordinate
maps are the functions held in ``vars()`` of each representation's
coordinate table and each space's slot pairs (the generated ``gather``
and ``scatter``).  All are found by the garbage collector, so that
counting builds none.

Then, for each workload of the parent's ``BENCHMARK.json``, it runs
``perfbench/run.py --workload W --seed N --seconds S --trace 1`` in each
checkout (``S`` the parent's ``run_seconds``, bytecode writing off), once
per seed of ``TRACED_SEEDS`` (seed 7 alone for a workload not named
there), the two sides alternating seed by seed.  Calc-stream runs seeds 7,
3 and 11, since its coverage sits close to the floor and one run cannot
show whether a change moved it.  For each run it prints the share of the
traced window that the layer self times cover (``trace.self_sum_s /
trace.raw_wall_s``) and its margin over ``COVERAGE_FLOOR``, below which
``run.py`` fails a traced run, or, for a run that exits non-zero, its exit
code and the last line of its stderr.  Then, per side, the minimum margin,
flagged ``LOW`` under ``MARGIN_FLAG`` (noise alone can then fail a run).
Then it prints every metric of unit ``count`` that differs between the
two seed-7 runs, and ``correct`` or ``failed`` when they differ.  These
count how much work a call path does, so they are reported but do not
decide the exit status; a failed traced run does, and exits 1.
"""

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

# the kernel functions compiled so far, found by the garbage collector so that
# counting builds none: the entries of vars() of each distinct _product table of
# the representations, the functions the paravector spaces hold, and the
# coordinate maps: the functions held in vars() of each representation's
# coordinate table (_coord_table) and each space's slot pairs (_slot_pairs)
KERNELS = r"""
def kernels():
    import gc
    from hyperclifford import algebra, paravectors
    space, objects = getattr(paravectors, "ParavectorSpace", ()), gc.get_objects()
    reps = [rep for rep in objects if isinstance(rep, algebra.AlgebraRep)]
    spaces = [x for x in objects if isinstance(x, space)]
    tables = {id(rep._product): rep._product for rep in reps}
    held = [v for x in spaces for v in vars(x).values() if callable(v)]
    owned = [getattr(rep, "_coord_table", None) for rep in reps] + [getattr(x, "_slot_pairs", None) for x in spaces]
    maps = [v for table in owned for v in getattr(table, "__dict__", {}).values() if callable(v)]
    return sum(len(vars(table)) for table in tables.values()), len(held), len(maps)
"""

CHILD = r"""
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
from workloads import call_cli, make_requests
calc = [[" ".join(r.argv), *call_cli(r.argv)[:3]] for r in make_requests(7, 15)]
compiled = kernels()
checks = json.loads(call_cli(["verify", "all", "--format", "json"])[1])["checks"]
verify = [[c["check_id"], c["status"], float.hex(float(c["max_error"]))] for c in checks]
json.dump({"verify": verify, "calc": calc}, sys.stdout, sort_keys=True)
print()
json.dump([[c["check_id"], c["elapsed_ms"]] for c in checks], sys.stdout)
print()
json.dump(compiled, sys.stdout)
"""


def records(root: Path) -> tuple[dict, str, list, list]:
    """One checkout's records, the SHA-256 of their JSON text, the
    ``[check_id, elapsed_ms]`` pair of each verify record and the functions
    compiled by the end of the calc answers, which run first: the kernel
    functions of the blade tables, those the paravector spaces hold, and the
    coordinate maps."""
    out = subprocess.run(
        [sys.executable, "-B", "-c", KERNELS + CHILD, str(root.resolve())],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    text, times, compiled = out.split("\n")
    return json.loads(text), hashlib.sha256(text.encode()).hexdigest(), json.loads(times), json.loads(compiled)


def suite_times(times: list) -> dict:
    """Milliseconds per verify suite, summed over ``[check_id, elapsed_ms]``
    pairs; a check's suite is its id up to the first dot, and suites keep
    the order in which they first appear."""
    out = {}
    for check_id, ms in times:
        suite = check_id.split(".")[0]
        out[suite] = out.get(suite, 0.0) + ms
    return out


SETUP_CHILD = r"""
import sys
from time import perf_counter
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
compiled = []
def count():
    if len(sys.argv) > 2:  # the untimed run: kernel functions and coordinate maps compiled so far
        tables, spaces, maps = kernels()
        compiled.extend((tables + spaces, maps))
sys.path.insert(0, sys.argv[1] + "/src")
r0, t0 = peak(), perf_counter()
import hyperclifford
from hyperclifford.algebra import REP_NAMES, get_rep
from hyperclifford.paravectors import SPACE_NAMES, get_space
t1, r1 = perf_counter(), peak()
count()
reps = []
for name in REP_NAMES:
    t = perf_counter()
    get_rep(name)
    reps += [name, perf_counter() - t]
t2, r2 = perf_counter(), peak()
count()
for name in SPACE_NAMES:
    get_space(name)
t3, r3 = perf_counter(), peak()
count()
print(t1 - t0, t2 - t1, t3 - t2, r1 - r0, r2 - r1, r3 - r2, *compiled)
print(*reps)
"""
SETUP_STAGES = ("import", "get_rep", "get_space")
SETUP_RUNS = 5


def setup_split(root: Path) -> tuple[list[float], list[float], list[tuple], dict]:
    """One checkout's set-up per stage of ``SETUP_STAGES``: milliseconds, and
    megabytes (MiB) by which the stage raised the interpreter's peak resident
    set size, each the median over ``SETUP_RUNS`` fresh interpreters, the
    numbers of kernel functions and of coordinate maps the stage compiled
    (a pair), and the milliseconds of
    each representation's ``get_rep`` within the ``get_rep`` stage, ``{name:
    ms}`` in build order, medians over the same interpreters.  The peak is Linux's
    ``VmHWM``, that of the interpreter's own memory: ``ru_maxrss`` would
    start at this process's size, which Linux carries over into a child.
    One untimed run first compiles the bytecode into a temporary directory,
    so that every checkout is timed from compiled modules and none is
    written to, and counts the kernel functions and the coordinate maps
    after each stage; the timed runs do not count."""
    with tempfile.TemporaryDirectory() as cache:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = cache
        (counting, _), *samples = [
            [line.split() for line in subprocess.run(
                [sys.executable, "-c", KERNELS + SETUP_CHILD, str(root.resolve()), *flag],
                env=env, capture_output=True, text=True, check=True).stdout.splitlines()]
            for flag in [["count"]] + [[]] * SETUP_RUNS]
    stages = len(SETUP_STAGES)
    medians = [statistics.median(float(s[k]) for s, _ in samples) for k in range(2 * stages)]
    counts = [int(c) for c in counting[2 * stages:]]
    totals = [(0, 0)] + list(zip(counts[::2], counts[1::2]))
    names = samples[0][1][::2]
    reps = {name: 1e3 * statistics.median(float(times[2 * k + 1]) for _, times in samples)
            for k, name in enumerate(names)}
    return ([t * 1e3 for t in medians[:stages]], [kib / 1024 for kib in medians[stages:]],
            [(b[0] - a[0], b[1] - a[1]) for a, b in zip(totals, totals[1:])], reps)


def source_lines(root: Path) -> dict:
    """The number of lines of each Python module under ``root/src``, by its
    dotted name, in name order."""
    src = root / "src"
    lines = {".".join(path.relative_to(src).with_suffix("").parts): len(path.read_text().splitlines())
             for path in src.rglob("*.py")}
    return dict(sorted(lines.items()))


def differences(name: str, old: list, new: list, summed=frozenset()) -> list[str]:
    """A line for a length mismatch, then each differing record pair in
    full, except those at the indices in ``summed``."""
    lines = [f"{name}: {len(old)} records at the parent, {len(new)} at the change"] \
        if len(old) != len(new) else []
    for k, (a, b) in enumerate(zip(old, new)):
        if a != b and k not in summed:
            lines.append(f"{name}[{k}]:\n  parent {a!r}\n  change {b!r}")
    return lines


def _skeleton(value, numbers: list):
    """A JSON value with each number replaced by 0; the numbers are
    appended to ``numbers`` in document order."""
    if isinstance(value, list):
        return [_skeleton(v, numbers) for v in value]
    if isinstance(value, dict):
        return {k: _skeleton(v, numbers) for k, v in value.items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(value)
        return 0
    return value


def number_move(a: list, b: list) -> tuple | None:
    """The largest relative and the largest absolute difference between the
    numbers of two calc records ``[command, exit code, stdout, stderr]``
    whose command, exit code, stderr and JSON structure agree, as
    ``(relative, parent number, change number, absolute)``; None when any of
    these differ or a number is not finite.  Near zero a relative difference
    can be large for rounding noise, which the absolute one shows."""
    if a[:2] != b[:2] or a[3] != b[3]:
        return None
    xs, ys = [], []
    try:
        if _skeleton(json.loads(a[2]), xs) != _skeleton(json.loads(b[2]), ys):
            return None
    except ValueError:
        return None
    if not all(map(math.isfinite, xs + ys)):
        return None
    moves = [(abs(x - y) / max(abs(x), abs(y)), x, y) for x, y in zip(xs, ys) if x != y]
    return (*max(moves, default=(0.0, None, None)), max((abs(x - y) for x, y in zip(xs, ys)), default=0.0))


def calc_differences(old: list, new: list) -> list[str]:
    """:func:`differences` of the calc records, with the answers that moved
    only in their numbers (:func:`number_move`) summed up per command:
    their count, the largest relative move with the two numbers it was made
    of, and the largest absolute move."""
    moves = {k: number_move(a, b) for k, (a, b) in enumerate(zip(old, new)) if a != b}
    moves = {k: move for k, move in moves.items() if move is not None}
    summary = {}
    for k, move in moves.items():
        command = old[k][0].split()[0]
        count, worst, largest = summary.get(command, (0, move[:3], 0.0))
        summary[command] = (count + 1, max(worst, move[:3]), max(largest, move[3]))
    return differences("calc", old, new, moves.keys()) + [
        f"calc {command}: {count} answers moved only in their numbers,"
        f" largest relative difference {rel:.3g} (parent {x!r}, change {y!r}),"
        f" largest absolute difference {largest:.3g}"
        for command, (count, (rel, x, y), largest) in summary.items()
    ]


# run.py fails a traced run whose self times cover less of its window than
# COVERAGE_FLOOR; a margin under MARGIN_FLAG is within run-to-run noise
COVERAGE_FLOOR, MARGIN_FLAG = 0.9, 0.005
# the seeds of each workload's traced runs, seed 7 first: its counts are compared
TRACED_SEEDS = {"calc-stream": (7, 3, 11)}


def traced_run(root: Path, workload: str, seconds: int, seed: int) -> subprocess.CompletedProcess:
    """One traced run, whatever its exit code."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )


def traced_summary(done: subprocess.CompletedProcess) -> tuple[str, dict | None, float | None]:
    """A line on one traced run, its result object (last line of output)
    and its margin: the coverage of its traced window by self times, read
    from the detail line before the result, over ``COVERAGE_FLOOR``; or for
    a failed run its exit code and the last line of its stderr, with no
    result and no margin."""
    if done.returncode:
        err = done.stderr.strip().splitlines() or ["(no stderr)"]
        return f"exited {done.returncode}: {err[-1]}", None, None
    *_, detail, result = done.stdout.strip().splitlines()
    layers = json.loads(detail)["detail"]["layers"]
    total, wall = layers["trace.self_sum_s"], layers["trace.raw_wall_s"]
    margin = total / wall - COVERAGE_FLOOR
    line = (f"self times cover {total / wall:.4f} of the traced window ({total:.4f} of {wall:.4f} s),"
            f" margin {margin:+.4f} over {COVERAGE_FLOOR}")
    return line, json.loads(result), margin


def minimum_margin(margins: dict) -> str:
    """A line on the smallest of the margins of one side's finished runs,
    ``{seed: margin}``, flagged ``LOW`` under ``MARGIN_FLAG``."""
    seed = min(margins, key=margins.get)
    margin = margins[seed]
    return (f"minimum margin {margin:+.4f} over {COVERAGE_FLOOR} (seed {seed}"
            f" of {len(margins)})" + (" LOW" if margin < MARGIN_FLAG else ""))


def count_differences(workload: str, old: dict, new: dict) -> list[str]:
    """One line per count metric (and ``correct``, ``failed``) whose value
    differs between the parent's and the change's traced results; a
    metric the change lacks reads ``None``."""
    values = [(key, old[key], new[key]) for key in ("correct", "failed")]
    values += [(name, m["value"], new["metrics"].get(name, {}).get("value"))
               for name, m in old["metrics"].items() if m["unit"] == "count"]
    return [f"{workload} {name}: parent {a} change {b}" for name, a, b in values if a != b]


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    results = [records(Path(a)) for a in args]
    (old, *_), (new, *_) = results
    diff = differences("verify", old["verify"], new["verify"])
    diff += calc_differences(old["calc"], new["calc"])
    print("\n".join(diff) or "no differences")
    sides = [(side, root, *result) for side, root, result in zip(("parent", "change"), args, results)]
    for side, root, recs, sha, _, _ in sides:
        statuses = Counter(status for _, status, _ in recs["verify"])
        codes = Counter(rc for _, rc, _, _ in recs["calc"])
        print(f"{side}: sha256 {sha}  verify {dict(statuses)}  calc exit codes {dict(codes)}"
              f"  src/ {sum(source_lines(Path(root)).values())} lines")
    for side, root, *_ in sides:
        print(f"{side}: src/ lines per module  "
              + "  ".join(f"{name} {count}" for name, count in source_lines(Path(root)).items()))
    for side, *_, times, _ in sides:
        print(f"{side}: in-process ms per suite  "
              + "  ".join(f"{suite} {ms:.0f}" for suite, ms in suite_times(times).items()))
    for side, *_, (tables, spaces, maps) in sides:
        print(f"{side}: kernel functions compiled by the end of the 3,000 seed-7 calc answers"
              f"  blade tables {tables}  paravector spaces {spaces}  coordinate maps {maps}")
    splits = [setup_split(Path(root)) for _, root, *_ in sides]
    for (side, *_), (times, _, compiled, _) in zip(sides, splits):
        print(f"{side}: set-up ms, median of {SETUP_RUNS} fresh interpreters"
              " (kernel functions, coordinate maps compiled)  "
              + "  ".join(f"{stage} {ms:.1f} ({n}, {m})" for stage, ms, (n, m) in zip(SETUP_STAGES, times, compiled)))
    for (side, *_), (*_, reps) in zip(sides, splits):
        print(f"{side}: get_rep ms per representation, same interpreters  "
              + "  ".join(f"{name} {ms:.2f}" for name, ms in reps.items()))
    for (side, *_), (_, growth, *_) in zip(sides, splits):
        print(f"{side}: set-up peak-RSS growth MB, same interpreters  "
              + "  ".join(f"{stage} {mb:.2f}" for stage, mb in zip(SETUP_STAGES, growth)))
    spec = json.loads((Path(args[0]) / "BENCHMARK.json").read_text())
    counts, failed = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = TRACED_SEEDS.get(workload, (7,))
        results, margins = {}, {"parent": {}, "change": {}}
        for seed in seeds:
            for side, root in zip(("parent", "change"), args):
                line, results[side, seed], margin = traced_summary(
                    traced_run(Path(root), workload, spec["run_seconds"], seed))
                print(f"{side} traced {workload} seed {seed}: {line}")
                if margin is not None:
                    margins[side][seed] = margin
        for side, side_margins in margins.items():
            if side_margins:
                print(f"{side} traced {workload}: {minimum_margin(side_margins)}")
        if None in results.values():
            failed.append(workload)
        else:
            counts += count_differences(workload, results["parent", 7], results["change", 7])
    if failed:
        print(f"traced runs failed, counts not compared: {', '.join(failed)}")
    print("\n".join(["traced seed-7 counts differ:", *counts]) if counts
          else "traced seed-7 counts equal" + (" where both runs finished" if failed else ""))
    return 1 if diff or failed else 0


if __name__ == "__main__":
    sys.exit(main())
