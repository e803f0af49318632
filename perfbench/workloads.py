"""The benchmark workloads and the calls they make into the program.

Every request goes through the in-process command-line entry point
``hyperclifford.cli.main`` with its output captured, as a user of the
``hyperclifford`` command would send it.  The module must be imported
after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from time import perf_counter, process_time

import hyperclifford.cli
from hyperclifford.algebra import get_rep

from oracle import ResponseOracle, check_verify

VERIFY_SUITES = {
    "verify-blades": ("tables", "dims", "involutions", "wedge"),
    "verify-matrix": ("commutators", "rotations", "sphere", "quantum"),
}

# One calc-stream block: request kind -> count.  Every block holds the same
# mix, so the work per request and the failures of the large-rapidity
# slice do not depend on how the kinds happen to fall.
BLOCK = {
    "boost": 57,
    "boost-large": 3,
    "sphere": 25,
    "sphere-hyperbolic": 25,
    "decompose": 50,
    "interfere": 20,
    "pauli": 10,
    "tables": 10,
}
BLOCK_SIZE = sum(BLOCK.values())
# Nominal request rate used to size the stream from --seconds.
NOMINAL_RATE = 190
# At least 1000 requests, so that ten or more lie beyond p99.
MIN_BLOCKS = 5
# Boosts with rapidity in [15, 45] hit a known defect: certification
# rejects some (e.g. 20), matrix inversion raises on others (e.g. 40), and
# some return coordinates off by more than the oracle's 1e-9.  They count
# as failed requests; any failure outside this slice makes a run incorrect.
KNOWN_DEFECT_KINDS = frozenset({"boost-large"})
DECOMPOSE_REPS = ("r30", "c30bar", "r05", "h05bar")
TABLE_REPS = ("r01", "r10", "r30", "r05", "c30bar", "h05bar", "c10bar")


def calc_blocks(seconds: int) -> int:
    return max(MIN_BLOCKS, -(-seconds * NOMINAL_RATE // BLOCK_SIZE))


@dataclass
class Request:
    kind: str
    command: str
    argv: tuple
    params: dict = field(default_factory=dict)


@dataclass
class Pass:
    """What one pass over a workload measured, as ``perf_counter`` times.

    ``start`` and ``end`` bound the timed section and ``pauses`` are the
    off-clock intervals inside it.  ``calls`` holds every ``cli.main``
    call as ``(command, start, end)``; each entry of ``requests`` lists
    the ``(start, end)`` of the calls that answered one request.
    """

    start: float = 0.0
    end: float = 0.0
    pauses: list = field(default_factory=list)
    cpu_s: float = 0.0
    calls: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)  # (label, reason)
    check_s: dict = field(default_factory=dict)

    @property
    def unexpected(self) -> int:
        """Failures outside the known-defect slice: wrong answers, error
        exits and exceptions alike."""
        return sum(1 for kind, _ in self.failures if kind not in KNOWN_DEFECT_KINDS)

    def wall_s(self, span=lambda a, b: b - a) -> float:
        """Wall time of the section without its pauses; ``span(a, b)``
        measures an interval, raw by default."""
        return span(self.start, self.end) - sum(span(a, b) for a, b in self.pauses)

    def latencies_ms(self, span=lambda a, b: b - a) -> list:
        return [1e3 * sum(span(a, b) for a, b in calls) for calls in self.requests]


def call_cli(argv) -> tuple:
    """Run one command in-process; returns ``(rc, stdout, error, start, end)``.

    The times bound ``cli.main`` only.  An exception that escapes it is
    a failed request, recorded with its type, and the stream goes on.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = hyperclifford.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the stream must survive any program defect
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    return rc, out.getvalue(), error or err.getvalue(), t0, t1


# -- timing and the verify workloads ------------------------------------------


class _Section:
    """Opens and closes the timed section of a Pass and takes its pauses."""

    def __init__(self, result: Pass, pause):
        self.result, self.pause_fn = result, pause
        self._paused_cpu = 0.0
        self._cpu0 = process_time()
        result.start = perf_counter()

    def pause(self):
        if self.pause_fn is None:
            return
        t, c = perf_counter(), process_time()
        self.pause_fn()
        self.result.pauses.append((t, perf_counter()))
        self._paused_cpu += process_time() - c

    def close(self):
        self.result.end = perf_counter()
        self.result.cpu_s = process_time() - self._cpu0 - self._paused_cpu


def run_verify(suites, pause=None) -> Pass:
    """Run the suites once.  The request is the verdict on all of them,
    answered by one ``verify`` call per suite.  ``pause`` is called off
    the clock before each suite and after the last one."""
    result = Pass()
    section = _Section(result, pause)
    for suite in suites:
        section.pause()
        _, out, _, t0, t1 = call_cli(["verify", suite, "--format", "json"])
        result.calls.append(("verify", t0, t1))
        attempted, failures, elapsed = check_verify(suite, out)
        result.attempted += attempted
        result.failures.extend(failures)
        result.check_s.update(elapsed)
    section.pause()
    section.close()
    result.requests = [[(t0, t1) for _, t0, t1 in result.calls]]
    return result


# -- calc-stream ---------------------------------------------------------------


def _num(x: float) -> str:
    return repr(float(x))


def _hmul(a, b):
    """Product in the ring spanned by 1, i, j, ij (i^2 = -1, j^2 = 1)."""
    x1, y1, v1, w1 = a
    x2, y2, v2, w2 = b
    return (
        x1 * x2 - y1 * y2 + v1 * v2 - w1 * w2,
        x1 * y2 + y1 * x2 + v1 * w2 + w1 * v2,
        x1 * v2 + v1 * x2 - y1 * w2 - w1 * y2,
        x1 * w2 + w1 * x2 + y1 * v2 + v1 * y2,
    )


class _Bases:
    """Blade matrices of the decompose representations as float tuples,
    read once from the exact backend before any request is timed."""

    def __init__(self):
        self._cache = {}

    def __call__(self, rep_name: str):
        if rep_name not in self._cache:
            rep = get_rep(rep_name)
            mats = {}
            for blade in rep.blades:
                m = rep.blade(blade).to_matrix()
                name = "".join(f"e{i}" for i in blade) or "1"
                mats[name] = [
                    [tuple(float(c) for c in z.coeffs()) for z in row] for row in m.rows
                ]
            self._cache[rep_name] = (rep.units, mats)
        return self._cache[rep_name]


_UNIT_SLOT = {"1": 0, "i": 1, "j": 2}


def _boost(rng, large: bool) -> Request:
    xi = rng.uniform(15.0, 45.0) if large else rng.uniform(-3.0, 3.0)
    axis = rng.randint(1, 3)
    vec = [rng.uniform(-2.0, 2.0) for _ in range(4)]
    argv = ("boost", f"--xi={_num(xi)}", f"--axis={axis}",
            "--vector=" + ",".join(map(_num, vec)), "--format=json")
    return Request("boost-large" if large else "boost", "boost", argv,
                   {"xi": xi, "axis": axis, "vector": vec})


def _sphere(rng, hyperbolic: bool) -> Request:
    r = rng.uniform(0.5, 2.0)
    angles = [rng.uniform(-3.1, 3.1) for _ in range(5)]
    argv = ["sphere", f"--radius={_num(r)}", "--angles=" + ",".join(map(_num, angles))]
    xis = None
    if hyperbolic:
        xis = [rng.uniform(-1.0, 1.0) for _ in range(5)]
        argv.append("--hyperbolic=" + ",".join(map(_num, xis)))
    argv.append("--format=json")
    return Request("sphere-hyperbolic" if hyperbolic else "sphere", "sphere", tuple(argv),
                   {"radius": r, "angles": angles, "xis": xis})


def _decompose(rng, bases) -> Request:
    rep_name = rng.choice(DECOMPOSE_REPS)
    units, mats = bases(rep_name)
    coeffs = {}
    for blade in mats:
        z = [0.0] * 4
        for unit in units:
            z[_UNIT_SLOT[unit]] = rng.uniform(-1.0, 1.0)
        coeffs[blade] = z
    n = len(next(iter(mats.values())))
    grid = [[[0.0] * 4 for _ in range(n)] for _ in range(n)]
    for blade, z in coeffs.items():
        for r, row in enumerate(mats[blade]):
            for c, e in enumerate(row):
                if any(e):
                    grid[r][c] = [a + b for a, b in zip(grid[r][c], _hmul(z, e))]
    argv = ("decompose", "--rep", rep_name, "--matrix", json.dumps(grid), "--format", "json")
    return Request("decompose", "decompose", argv, {"rep": rep_name, "coeffs": coeffs})


def _interfere(rng) -> Request:
    p1, p2, lam = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0), rng.uniform(-2.0, 2.0)
    argv = ("interfere", f"--p1={_num(p1)}", f"--p2={_num(p2)}", f"--lambda={_num(lam)}",
            "--format=json")
    return Request("interfere", "interfere", argv, {"p1": p1, "p2": p2, "lam": lam})


def _pauli(rng) -> Request:
    form = rng.choice(("k", "ab", "two"))
    if form == "k":
        arg = str(rng.randint(1, 15))
    elif form == "ab":
        a, b = rng.sample(range(6), 2)
        arg = f"{a},{b}"
    else:
        arg = str(rng.randint(1, 3))
    return Request("pauli", "pauli", ("pauli", f"--{form}", arg, "--format", "json"))


def _tables(rng) -> Request:
    return Request("tables", "tables", ("tables", rng.choice(TABLE_REPS), "--format", "json"))


def make_requests(seed: int, blocks: int) -> list[Request]:
    """The calc-stream inputs: ``blocks`` shuffled blocks of the mix."""
    rng = random.Random(seed)
    bases = _Bases()
    makers = {
        "boost": lambda: _boost(rng, False),
        "boost-large": lambda: _boost(rng, True),
        "sphere": lambda: _sphere(rng, False),
        "sphere-hyperbolic": lambda: _sphere(rng, True),
        "decompose": lambda: _decompose(rng, bases),
        "interfere": lambda: _interfere(rng),
        "pauli": lambda: _pauli(rng),
        "tables": lambda: _tables(rng),
    }
    requests = []
    for _ in range(blocks):
        kinds = [kind for kind, n in BLOCK.items() for _ in range(n)]
        rng.shuffle(kinds)
        requests.extend(makers[kind]() for kind in kinds)
    return requests


def run_calc(requests, oracle: ResponseOracle, pause=None) -> Pass:
    """Closed loop, one client: each request is sent when the previous
    answer has been checked.  ``pause`` is called off the clock before
    each block and after the last one."""
    result = Pass(attempted=len(requests))
    section = _Section(result, pause)
    for k, req in enumerate(requests):
        if k % BLOCK_SIZE == 0:
            section.pause()
        rc, out, error, t0, t1 = call_cli(req.argv)
        result.calls.append((req.command, t0, t1))
        result.requests.append([(t0, t1)])
        reason = oracle.check(req.command, req.argv, req.params, rc, out, error)
        if reason is not None:
            result.failures.append((req.kind, reason))
    section.pause()
    section.close()
    return result
