"""Run the benchmark in two source checkouts as alternating pairs.

    python tools/pairs.py PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [FIRST_SEED]

Pair ``i`` (1 .. PAIRS) runs ``perfbench/run.py --workload WORKLOAD
--seed FIRST_SEED+i-1 --seconds S`` once in each checkout, with ``S`` the
``run_seconds`` of the parent's ``BENCHMARK.json``; the parent goes first
in odd pairs and the change in even ones.  FIRST_SEED defaults to 1; a
later one (21, say) checks a claim on seeds not used while writing the
change.  Each run happens in its own checkout with bytecode writing off.
Before pair 1, untimed, it runs ``python -m compileall -q src perfbench``
in both checkouts, so that neither compiles a module from stale or missing
bytecode inside its runs: it refreshes the (gitignored) ``__pycache__``
directories there and writes no other file.

For every ``end_to_end`` metric it prints both medians, the parent's
interquartile spread, how many pairs the change won, how much worse the
change's median is (as a share of the parent's, positive when worse),
whether the change may claim a gain on it and whether it stays within
the metric's bound.  A gain needs both: the change won at least nine
tenths of the pairs (ties count for neither side), and its median is
better than the parent's by more than the parent's interquartile
spread.  It also prints each side's failed share of operations.  Exits
0 when every metric is within its bound and 1 otherwise.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result object (last line of output) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def compile_sources(root: Path) -> None:
    """Refresh the bytecode of a checkout's ``src`` and ``perfbench``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=root, check=True)


def quartile_spread(values: list) -> float:
    """Distance between the first and third quartiles; 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def is_gain(won: int, pairs: int, old_med: float, new_med: float, spread: float, lower: bool) -> bool:
    """Whether paired results show a gain: at least nine tenths of the
    pairs won, and the medians apart by more than the parent's spread in
    the better direction."""
    gap = old_med - new_med if lower else new_med - old_med
    return 10 * won >= 9 * pairs and gap > spread


def summarize(spec_metrics: list, parent: list, change: list) -> tuple[list, bool]:
    """Summary lines for the ``end_to_end`` metrics of paired results and
    whether every metric stays within its bound.

    ``parent`` and ``change`` are lists of result objects, entry ``i`` of
    each from pair ``i``.  A change worse than the parent by more than
    ``bound`` (a share of the parent's median) fails the check.
    """
    lines = [f"{'metric':<12} {'unit':<5} {'parent':>10} {'change':>10} "
             f"{'parent IQR':>10} {'won':>7} {'worse by':>9} {'bound':>6} {'gain':>4}  check"]
    ok = True
    for m in spec_metrics:
        name, lower = m["name"], m["better"] == "lower"
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        old_med, new_med = statistics.median(old), statistics.median(new)
        won = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        spread = quartile_spread(old)
        worse = (new_med - old_med) / old_med if old_med else 0.0
        if not lower:
            worse = -worse
        within = worse <= m["bound"]
        ok = ok and within
        lines.append(
            f"{name:<12} {m['unit']:<5} {old_med:>10.4g} {new_med:>10.4g} "
            f"{spread:>10.3g} {won:>3}/{len(old):<3} {worse:>+9.1%} {m['bound']:>6.0%} "
            f"{'yes' if is_gain(won, len(old), old_med, new_med, spread, lower) else 'no':>4}  "
            f"{'ok' if within else 'WORSE THAN BOUND'}"
        )
    for side, results in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        lines.append(f"{side}: failed {failed} of {attempted} operations, correct {correct}")
    return lines, ok


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    counts = args[3:]
    if len(args) not in (4, 5) or not all(a.isdigit() and int(a) >= 1 for a in counts):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent_dir, change_dir, workload, pairs = Path(args[0]), Path(args[1]), args[2], int(args[3])
    first = int(args[4]) if len(args) == 5 else 1
    spec = json.loads((parent_dir / "BENCHMARK.json").read_text())
    parent, change = [], []
    for root in (parent_dir, change_dir):
        compile_sources(root)
    for i, seed in enumerate(range(first, first + pairs), start=1):
        order = [(parent_dir, parent), (change_dir, change)]
        for root, results in order if i % 2 else order[::-1]:
            results.append(run_once(root, workload, seed, spec["run_seconds"]))
    lines, ok = summarize(spec["end_to_end"], parent, change)
    print(f"{workload}: {pairs} pairs, seeds {first}..{first + pairs - 1}, {spec['run_seconds']} s each")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
