"""Benchmark of the hyperclifford verifier and calculator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; their times are scaled to a fixed machine speed (see
``speed.py``).  ``--trace 1`` runs the workload once untraced and once
with timers wrapped around the library's public functions, and reports
the per-layer metrics.  The metric names and units are those listed in
``BENCHMARK.json``.  The last line of standard output is the result
object; the line before it holds the environment, the seeds, the
failures, the raw times and every per-layer figure, also those not in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-blades", "verify-matrix", "calc-stream")
# Blocks in a traced calc-stream pass (and in its untraced twin).
TRACE_BLOCKS = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _import_library():
    """Import ``hyperclifford`` from this checkout's ``src``, never from an
    installed copy; exit with code 2 if the checkout has no source."""
    if not (SRC / "hyperclifford" / "__init__.py").is_file():
        print(f"error: no hyperclifford source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hyperclifford

    if Path(hyperclifford.__file__).resolve().parent != SRC / "hyperclifford":
        print(f"error: imported hyperclifford from {hyperclifford.__file__}", file=sys.stderr)
        raise SystemExit(2)


class SetupSampler:
    """Times set-up in fresh interpreters, ``per_call`` at each call.

    The workload calls it between its units, off its own clock, so the
    samples are spread over the run rather than taken in one burst.
    ``samples`` holds ``(raw_s, scaled_s)`` pairs."""

    def __init__(self, per_call: int):
        self.per_call = per_call
        self.samples = []

    def __call__(self):
        for _ in range(self.per_call):
            done = subprocess.run(
                [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            raw, scaled = done.stdout.split()[-2:]
            self.samples.append((float(raw), float(scaled)))


# -- environment -----------------------------------------------------------------


def _git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hyperclifford").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
    }


# -- metrics ---------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(run, ref, setup_samples) -> tuple[dict, dict]:
    """The end-to-end metrics, with times scaled to the reference speed
    by ``ref`` (see ``speed.py``), and the same figures raw."""
    wall = run.wall_s(ref.scaled)
    latencies = run.latencies_ms(ref.scaled)
    values = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        "wall_s": wall,
        # One thread: CPU time follows wall time, so it takes the same scale.
        "cpu_s": run.cpu_s * wall / run.wall_s(),
        "req_per_s": len(latencies) / wall,
        "req_p50_ms": statistics.median(latencies),
        "req_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_latencies = run.latencies_ms()
    raw = {
        "setup_s": statistics.median(r for r, _ in setup_samples),
        "wall_s": run.wall_s(),
        "cpu_s": run.cpu_s,
        "req_p50_ms": statistics.median(raw_latencies),
        "req_p99_ms": percentile(raw_latencies, 99),
        "speed_samples": len(ref.factors),
        "speed_factor_median": ref.median_factor(),
    }
    return values, raw


def per_layer(untraced, traced, tracer, ref) -> dict:
    """Per-layer figures: raw self times and counts from the traced pass,
    check times and per-command latencies from the untraced one, and the
    two passes' wall times scaled by ``ref``."""
    layers = {}
    for name, st in sorted(tracer.stats.items()):
        layers[f"{name}.calls"] = st.calls
        layers[f"{name}.self_s"] = st.self_s
        layers[f"{name}.failed"] = st.failed
        for key, value in st.counts.items():
            layers[f"{name}.{key}"] = value
    for cid, s in sorted(untraced.check_s.items()):
        layers[f"checks.{cid}.s"] = s
    by_command = {}
    for command, t0, t1 in untraced.calls:
        by_command.setdefault(command, []).append((t1 - t0) * 1e3)
    for command, values in sorted(by_command.items()):
        layers[f"cli.{command}.p50_ms"] = statistics.median(values)
    layers["trace.wall_s"] = traced.wall_s(ref.scaled)
    layers["trace.untraced_wall_s"] = untraced.wall_s(ref.scaled)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    layers["trace.self_sum_s"] = tracer.self_sum_s()
    layers["trace.raw_wall_s"] = traced.wall_s()
    return layers


def check_self_times(tracer, traced) -> None:
    """The self times must account for the traced window: their sum is
    the time inside top-level boundaries, which is at most the window
    and, since every request enters through ``cli.main``, most of it."""
    total, wall = tracer.self_sum_s(), traced.wall_s()
    if not tracer.balanced() or not 0.9 * wall <= total <= wall + 1e-6:
        raise RuntimeError(
            f"self times {total:.6f} s do not add up to the traced wall time {wall:.6f} s"
        )


def _summary(passes) -> tuple[dict, dict]:
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    by_kind = {}
    for kind, _ in failures:
        by_kind[kind] = by_kind.get(kind, 0) + 1
    result = {
        "correct": all(p.unexpected == 0 for p in passes),
        "attempted": attempted,
        "failed": len(failures),
    }
    detail = {
        "fail_ratio": len(failures) / attempted,
        "failures_by_kind": by_kind,
        "failure_examples": [list(f) for f in failures[:5]],
    }
    return result, detail


def metrics_object(values: dict, spec_metrics) -> dict:
    """The result's ``metrics``: every named metric with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def _emit(values: dict, spec_metrics, result: dict, detail: dict) -> None:
    metrics = metrics_object(values, spec_metrics)
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{'attempted':<44} {result['attempted']:>16d}")
    print(f"{'failed':<44} {result['failed']:>16d}")
    print(f"{'fail_ratio':<44} {detail['fail_ratio']:>16.6g}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({**result, "metrics": metrics}))


def main(argv=None) -> int:
    args = _parse(argv)
    spec = load_spec()
    _import_library()

    import speed
    import tracer as tracing
    import workloads
    from hyperclifford import checks
    from oracle import ResponseOracle

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "verify_seed": getattr(checks, "_SEED", None),
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
    }
    if args.workload == "calc-stream":
        oracle = ResponseOracle()
        blocks = TRACE_BLOCKS if args.trace else workloads.calc_blocks(args.seconds)
        requests = workloads.make_requests(args.seed, blocks)

        def run(pause=None):
            return workloads.run_calc(requests, oracle, pause)

        sampler = SetupSampler(per_call=1)
    else:
        suites = workloads.VERIFY_SUITES[args.workload]

        def run(pause=None):
            return workloads.run_verify(suites, pause)

        # Two per gap: five gaps around four suites give ten samples.
        sampler = SetupSampler(per_call=2)

    if args.trace == 0:
        with speed.SpeedReference() as ref:
            untraced = run(sampler)
        values, detail["raw"] = end_to_end(untraced, ref, sampler.samples)
        passes = [untraced]
        detail["setup_samples_s"] = sampler.samples
        detail["requests"] = len(untraced.requests)
        spec_metrics = spec["end_to_end"]
    else:
        with speed.SpeedReference() as ref:
            untraced = run()
            with tracing.Tracer() as tracer:
                traced = run()
        check_self_times(tracer, traced)
        values = per_layer(untraced, traced, tracer, ref)
        passes = [untraced, traced]
        spec_metrics = spec["per_layer"]
    result, summary = _summary(passes)
    detail.update(summary)
    detail["layers" if args.trace else "end_to_end"] = values
    _emit(values, spec_metrics, result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
