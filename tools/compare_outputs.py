"""Compare what two source checkouts of hyperclifford answer.

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

For each checkout, a child interpreter imports the library from its
``src`` and the calculator stream from its ``perfbench`` (read only, no
bytecode written) and records:

- each ``verify all --format json`` record as its ``check_id``,
  ``status`` and ``float.hex(max_error)``;
- the answer to each of the 3,000 seed-7 calc-stream requests
  (``make_requests(7, 15)`` sent through ``call_cli``): exit code,
  stdout and stderr.

Prints every difference, and for each side the status counts, a SHA-256
of its records, the line count of its ``src`` with that of each module
beside it, and the in-process time of each verify suite (the sum of its checks' ``elapsed_ms``; times are kept
out of the records, so out of the differences and the SHA-256); exits 0
when the two sides agree and 1 when they differ or a traced run below
fails.  Calc answers that keep their exit code, stderr and JSON
structure and move only in their numbers are summed up in one line per
command: how many moved, the largest relative difference of any number
and the largest absolute one.

Then, for each workload of the parent's ``BENCHMARK.json``, it runs
``perfbench/run.py --workload W --seed 7 --seconds S --trace 1`` once in
each checkout (``S`` the parent's ``run_seconds``, bytecode writing off)
and prints, for each side, the share of the traced window that the layer
self times cover (``trace.self_sum_s / trace.raw_wall_s``; ``run.py``
fails a traced run below 0.9) or, for a run that exits non-zero, its exit
code and the last line of its stderr.  Then it prints every metric of unit
``count`` that differs, and ``correct`` or ``failed`` when they differ.
These count how much work a call path does, so they are reported but do
not decide the exit status; a failed traced run does, and exits 1.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

CHILD = r"""
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
from workloads import call_cli, make_requests
checks = json.loads(call_cli(["verify", "all", "--format", "json"])[1])["checks"]
verify = [[c["check_id"], c["status"], float.hex(float(c["max_error"]))] for c in checks]
calc = [[" ".join(r.argv), *call_cli(r.argv)[:3]] for r in make_requests(7, 15)]
json.dump({"verify": verify, "calc": calc}, sys.stdout, sort_keys=True)
print()
json.dump([[c["check_id"], c["elapsed_ms"]] for c in checks], sys.stdout)
"""


def records(root: Path) -> tuple[dict, str, list]:
    """One checkout's records, the SHA-256 of their JSON text and the
    ``[check_id, elapsed_ms]`` pair of each verify record."""
    out = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(root.resolve())],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    text, _, times = out.partition("\n")
    return json.loads(text), hashlib.sha256(text.encode()).hexdigest(), json.loads(times)


def suite_times(times: list) -> dict:
    """Milliseconds per verify suite, summed over ``[check_id, elapsed_ms]``
    pairs; a check's suite is its id up to the first dot, and suites keep
    the order in which they first appear."""
    out = {}
    for check_id, ms in times:
        suite = check_id.split(".")[0]
        out[suite] = out.get(suite, 0.0) + ms
    return out


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


def traced_run(root: Path, workload: str, seconds: int) -> subprocess.CompletedProcess:
    """One traced seed-7 run, whatever its exit code."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", "1"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )


def traced_summary(done: subprocess.CompletedProcess) -> tuple[str, dict | None]:
    """A line on one traced run and its result object (last line of
    output): the coverage of its traced window by self times, read from
    the detail line before the result, or for a failed run its exit code
    and the last line of its stderr, with no result."""
    if done.returncode:
        err = done.stderr.strip().splitlines() or ["(no stderr)"]
        return f"exited {done.returncode}: {err[-1]}", None
    *_, detail, result = done.stdout.strip().splitlines()
    layers = json.loads(detail)["detail"]["layers"]
    total, wall = layers["trace.self_sum_s"], layers["trace.raw_wall_s"]
    line = f"self times cover {total / wall:.4f} of the traced window ({total:.4f} of {wall:.4f} s)"
    return line, json.loads(result)


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
    (old, old_sha, old_times), (new, new_sha, new_times) = (records(Path(a)) for a in args)
    diff = differences("verify", old["verify"], new["verify"])
    diff += calc_differences(old["calc"], new["calc"])
    print("\n".join(diff) or "no differences")
    sides = (("parent", args[0], old, old_sha, old_times), ("change", args[1], new, new_sha, new_times))
    for side, root, recs, sha, times in sides:
        statuses = Counter(status for _, status, _ in recs["verify"])
        codes = Counter(rc for _, rc, _, _ in recs["calc"])
        print(f"{side}: sha256 {sha}  verify {dict(statuses)}  calc exit codes {dict(codes)}"
              f"  src/ {sum(source_lines(Path(root)).values())} lines")
    for side, root, *_ in sides:
        print(f"{side}: src/ lines per module  "
              + "  ".join(f"{name} {count}" for name, count in source_lines(Path(root)).items()))
    for side, *_, times in sides:
        print(f"{side}: in-process ms per suite  "
              + "  ".join(f"{suite} {ms:.0f}" for suite, ms in suite_times(times).items()))
    spec = json.loads((Path(args[0]) / "BENCHMARK.json").read_text())
    counts, failed = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for side, root in zip(("parent", "change"), args):
            line, result = traced_summary(traced_run(Path(root), workload, spec["run_seconds"]))
            print(f"{side} traced {workload}: {line}")
            runs.append(result)
        if None in runs:
            failed.append(workload)
        else:
            counts += count_differences(workload, *runs)
    if failed:
        print(f"traced runs failed, counts not compared: {', '.join(failed)}")
    print("\n".join(["traced seed-7 counts differ:", *counts]) if counts
          else "traced seed-7 counts equal" + (" where both runs finished" if failed else ""))
    return 1 if diff or failed else 0


if __name__ == "__main__":
    sys.exit(main())
