"""Run every workload several times and summarise each end-to-end metric.

    python3 perfbench/repeat.py --runs 10 --sets 2 --first-seed 21 --out FILE

Runs each workload of ``BENCHMARK.json`` ``--runs`` times with
consecutive seeds, one run after another, and repeats that ``--sets``
times with the next seeds.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which
is the distance between the quartiles as a share of the median, and for
each set after the first the change of the median from the first set.
``--out`` writes the same figures, with every run's values, as JSON;
``baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def run_set(spec: dict, first_seed: int, runs: int) -> tuple[dict, dict]:
    """One set: ``runs`` runs of every workload; returns it and the env."""
    out, env = {}, None
    seeds = list(range(first_seed, first_seed + runs))
    for workload in (w["name"] for w in spec["workloads"]):
        rows = []
        for seed in seeds:
            result, detail = run_once(workload, seed, spec["run_seconds"])
            env = detail["env"]
            rows.append((result, detail))
            print(f"{workload} seed {seed}: correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in rows]
            metrics[m["name"]] = {"unit": m["unit"], **summarise(values)}
        out[workload] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r, _ in rows),
            "attempted": [r["attempted"] for r, _ in rows],
            "failed": [r["failed"] for r, _ in rows],
            "metrics": metrics,
            "raw_wall_s": [d["raw"]["wall_s"] for _, d in rows],
        }
    return out, env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets, env = [], None
    for k in range(args.sets):
        figures, env = run_set(spec, args.first_seed + k * args.runs, args.runs)
        sets.append(figures)
    for k, figures in enumerate(sets):
        for workload, w in figures.items():
            for name, s in w["metrics"].items():
                line = (f"set {k + 1} {workload:<14} {name:<12} median {s['median']:>12.6g}"
                        f" {s['unit']:<4} spread {s['spread']:.4f}")
                if k:
                    first = sets[0][workload]["metrics"][name]["median"]
                    s["median_change"] = (s["median"] - first) / first
                    line += f" median change {s['median_change']:+.4f}"
                print(line)
    if args.out:
        record = {
            "note": "Produced with: python3 perfbench/repeat.py " + " ".join(
                sys.argv[1:] if argv is None else argv),
            "env": env,
            "run_seconds": spec["run_seconds"],
            "sets": sets,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
