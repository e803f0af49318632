"""Time one set-up of the library in a fresh interpreter.

    python3 -I perfbench/setup_probe.py SRC_DIR

Imports ``hyperclifford`` from SRC_DIR and builds every named
representation and paravector space, as each calculator invocation
does on first use.  Prints the seconds this took, raw and scaled to the
reference speed of ``refloop.py`` by reference loops timed around it.
Before the timed import it loads only ``refloop``, so every module the
library needs is imported, and timed, by the library itself.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from refloop import REFERENCE_S, time_reference  # noqa: E402

REFERENCE_SAMPLES = 11


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    refs = [time_reference() for _ in range(REFERENCE_SAMPLES)]
    t0 = perf_counter()
    import hyperclifford
    from hyperclifford.algebra import REP_NAMES, get_rep
    from hyperclifford.paravectors import SPACE_NAMES, get_space

    for name in REP_NAMES:
        get_rep(name)
    for name in SPACE_NAMES:
        get_space(name)
    elapsed = perf_counter() - t0
    refs += [time_reference() for _ in range(REFERENCE_SAMPLES)]
    if Path(hyperclifford.__file__).resolve().parent != src / "hyperclifford":
        print(f"error: imported hyperclifford from {hyperclifford.__file__}", file=sys.stderr)
        return 2
    refs.sort()
    median = (refs[REFERENCE_SAMPLES - 1] + refs[REFERENCE_SAMPLES]) / 2
    print(repr(elapsed), repr(elapsed * REFERENCE_S / median))
    return 0


if __name__ == "__main__":
    sys.exit(main())
