"""The reference loop that fixes the scale of the benchmark's times.

It imports nothing beyond ``time``, which every interpreter has loaded
at start-up, so that ``setup_probe.py`` can time it before the library
is imported without loading any module the library would need.
"""

from time import perf_counter

# A typical duration of one reference loop on a 2.1 GHz Xeon core with
# CPython 3.11.  It fixes the scale of every scaled time and must not
# change between the commits being compared.
REFERENCE_S = 65e-6


def reference_loop() -> float:
    """Fixed interpreter work of the kind the library does: float
    arithmetic, tuple allocation and dictionary stores."""
    acc = 0.0
    table = {}
    for i in range(1, 300):
        pair = (i * 1.5, i + 1)
        acc += pair[0] / pair[1]
        table[i & 31] = pair
    return acc


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0
