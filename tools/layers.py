"""Time the layers of hyperclifford and write them to ``BENCH_<TAG>.json``.

    python tools/layers.py TAG [--tier1]
    python tools/layers.py --compare A B

In one process it imports the library from the ``src`` of the checkout
holding this script, and ``speed.py`` and ``run.py`` from its
``perfbench`` (read in place, no bytecode written).  Each layer of
:func:`layers` calls one library entry point on each of its seeded
operands (drawn from ``random.Random`` of the layer's name, so every
checkout times the same values) for as many rounds as fill one repeat, and
so does each verify suite in process (``checks.run_suite``).  It makes
``REPEATS`` passes over all of them and keeps each one's best repeat, in
us per call (suites in ms), scaled to the machine speed of
``perfbench/speed.py`` (``SpeedReference.scaled``), with the raw best
beside it; with ``--tier1`` it also times one tier-1 pytest run, in s.
The file, in the checkout's root,
holds these with the environment and the ``src`` digest that
``perfbench/run.py`` records.

With ``--compare A B`` it times nothing: it reads ``BENCH_A.json`` and
``BENCH_B.json`` and prints one Markdown table row per figure that both
hold, A's value, B's and the ratio B / A.
"""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
# operands per layer, and the least raw duration of one repeat
OPERANDS, REPEAT_S = 8, 0.01
# a series exponent on commuting planes, a closed form on planes sharing one index
SERIES_PLANES, CLOSED_PLANES = ((0, 1), (2, 3), (4, 5)), ((0, 1), (1, 2), (1, 3))
# the layers that take floats only, and those with no operand
FLOAT_ONLY = ("rotors.rotor_from_params", "rotors.rotor_from_matrix", "rotors.act")
NO_BACKEND = ("rotors.verify_index_commutators",)


def _import():
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    import speed
    from hyperclifford import algebra, checks, matrices, paravectors, rotors, scalars
    return run, speed, algebra, checks, matrices, paravectors, rotors, scalars


def layers(algebra, matrices, paravectors, rotors, scalars) -> dict:
    """Each layer by name: ``(call, draw)``, ``draw(rng, exact)`` one operand
    tuple of ``call``; names end in ``exact`` or ``float`` where the layer
    takes either backend."""
    H, M, P = scalars.HScalar, matrices.HMatrix, rotors.RotorParams

    def number(rng, exact):
        return Fraction(rng.randint(-99, 99), rng.randint(1, 12)) if exact else rng.uniform(-1, 1)

    def element(name):
        rep = algebra.get_rep(name)
        return lambda rng, exact: algebra.Multivector._new(
            rep, [rng.randint(-99, 99) if exact else rng.uniform(-1, 1) for _ in rep.basis], 12 if exact else None)

    def params(space, planes=None):
        def draw(rng, exact):
            if space == "h1":
                return (P.h1(rng.uniform(-3, 3), rng.uniform(-2, 2)),)
            if space == "m4":
                return (P.m4([rng.uniform(-3, 3) for _ in range(3)], [rng.uniform(-2, 2) for _ in range(3)]),)
            phi = {p: rng.uniform(-3, 3) for p in planes}
            if space == "e6":
                return (P.e6(phi),)
            return (P.r66(phi, {p: rng.uniform(-1.5, 1.5) for p in planes}),)
        return draw

    def rotor(space, planes):
        draw = params(space, planes)
        return lambda rng, exact: rotors.rotor_from_params(*draw(rng, exact))

    out = {"scalars.mul": (H.__mul__, lambda rng, exact: tuple(
        H(*[number(rng, exact) for _ in range(4)]) for _ in range(2)))}
    for n in (2, 4):
        out[f"matrices.matmul.{n}x{n}"] = (M.__matmul__, lambda rng, exact, n=n: tuple(
            M.from_real_coords([number(rng, exact) for _ in range(4 * n * n)]) for _ in range(2)))
    for name in ("r30", "h05bar"):
        mv = element(name)
        rep = algebra.get_rep(name)
        out[f"algebra.to_matrix.{name}"] = (algebra.Multivector.to_matrix, lambda rng, exact, mv=mv: (mv(rng, exact),))
        out[f"algebra.decompose.{name}"] = (rep.decompose, lambda rng, exact, mv=mv: (mv(rng, exact).to_matrix(),))
        out[f"algebra.gp.{name}"] = (algebra.Multivector.gp, lambda rng, exact, mv=mv: (mv(rng, exact), mv(rng, exact)))
        out[f"algebra.gp_blades.{name}"] = (algebra.Multivector.gp_blades,
                                            lambda rng, exact, mv=mv: (mv(rng, exact), mv(rng, exact)))
    for name in ("h1", "m4", "e6", "r66"):
        kinds = [("closed", CLOSED_PLANES)] + ([("series", SERIES_PLANES)] if name in ("e6", "r66") else [])
        for kind, planes in kinds:
            out[f"rotors.rotor_from_params.{name}.{kind}"] = (rotors.rotor_from_params, params(name, planes))
        make, space = rotor(name, SERIES_PLANES), paravectors.get_space(name)
        out[f"rotors.rotor_from_matrix.{name}"] = (rotors.rotor_from_matrix, lambda rng, exact, make=make,
                                                   rep=space.rep: (rep, make(rng, exact).m))
        vector = (lambda rng, exact, space=space: space.paravector([number(rng, exact) for _ in range(space.dim)]))
        out[f"rotors.act.{name}"] = (rotors.act, lambda rng, exact, make=make, vector=vector: (
            make(rng, exact), vector(rng, False)))
        out[f"paravectors.qform.{name}"] = (paravectors.Paravector.qform, lambda rng, exact, vector=vector: (
            vector(rng, exact),))
    out["rotors.verify_index_commutators"] = (rotors.verify_index_commutators, lambda rng, exact: ())
    return out


def repeat(call, cases, rounds) -> tuple[float, float]:
    """The ``(start, end)`` of ``rounds`` rounds of ``call`` on every case."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        for case in cases:
            call(*case)
    return t0, time.perf_counter()


def calibrated(call, cases) -> int:
    """The rounds of one repeat: the fewest powers of two that last
    ``REPEAT_S`` raw, after one untimed round that builds what a first call
    caches."""
    rounds = 1
    repeat(call, cases, 1)
    while (span := repeat(call, cases, rounds))[1] - span[0] < REPEAT_S:
        rounds *= 2
    return rounds


def measure(tier1: bool) -> dict:
    """Every layer and suite timed in ``REPEATS`` passes over all of them, so
    that a slow stretch of the machine costs each figure at most a few of
    its repeats; :func:`calibrated` sets each one's rounds first."""
    run, speed, algebra, checks, matrices, paravectors, rotors, scalars = _import()
    jobs = []  # (label, call, cases, rounds)
    for name, (call, draw) in layers(algebra, matrices, paravectors, rotors, scalars).items():
        backends = (None,) if name in NO_BACKEND else (False,) if name.startswith(FLOAT_ONLY) else (True, False)
        for exact in backends:
            label = name if exact is None else f"{name}.{'exact' if exact else 'float'}"
            rng = random.Random(label)
            jobs.append((label, call, [draw(rng, exact) for _ in range(1 if exact is None else OPERANDS)]))
    jobs += [(f"suite.{suite}", lambda s=suite: checks.run_suite(s), [()]) for suite in checks.SUITE_NAMES]
    with speed.SpeedReference() as ref:
        jobs = [(label, call, cases, calibrated(call, cases)) for label, call, cases in jobs]
        spans = {label: [] for label, *_ in jobs}
        for _ in range(REPEATS):
            for label, call, cases, rounds in jobs:
                spans[label].append(repeat(call, cases, rounds))
    out = {}
    for (label, _, cases, rounds), times in zip(jobs, spans.values()):
        calls = rounds * len(cases)
        unit, scale = ("ms", 1e3) if label.startswith("suite.") else ("us", 1e6)
        out[label] = {"unit": unit, "value": min(ref.scaled(a, b) for a, b in times) * scale / calls,
                      "raw": min(b - a for a, b in times) * scale / calls}
    if tier1:
        out["tier1"] = tier1_run()
    return {"env": run.environment(), "repeats": REPEATS, "layers": out}


def tier1_run() -> dict:
    """The raw wall time of one tier-1 pytest run of the checkout, its
    library from ``src``, writing no bytecode, and how it exited."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return {"unit": "s", "value": wall, "raw": wall, "exit": done.returncode,
            "summary": (done.stdout.strip().splitlines() or [""])[-1]}


def compare(a: dict, b: dict, names=("A", "B")) -> list[str]:
    """Markdown rows: each figure both hold, A's value, B's and B / A."""
    lines = [f"| layer | {names[0]} | {names[1]} | ratio |", "|---|---|---|---|"]
    for label, x in a["layers"].items():
        y = b["layers"].get(label)
        if y is None:
            continue
        ratio = y["value"] / x["value"] if x["value"] else math.nan
        lines.append(f"| {label} | {x['value']:.4g} {x['unit']} | {y['value']:.4g} {y['unit']} | {ratio:.2f} |")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("tag", nargs="?")
    p.add_argument("--tier1", action="store_true", help="time the tier-1 pytest run too")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare BENCH_A.json with BENCH_B.json")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads((ROOT / f"BENCH_{tag}.json").read_text()) for tag in args.compare)
        print("\n".join(compare(a, b, args.compare)))
        return 0
    if not args.tag:
        p.error("a TAG or --compare A B is required")
    result = measure(args.tier1)
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps({"tag": args.tag, **result}, indent=1) + "\n")
    print(f"wrote {path.name}: {len(result['layers'])} figures")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
