"""Workload definitions shared by the benchmark runner and its workers.

A workload's inputs are plain data (ints and surface labels) derived from
the seed alone, so the runner can build the oracle expectations without
importing kocom and the worker can rebuild the identical input list.
"""

from __future__ import annotations

import random
import time

NAMES = ("verify-all", "char-deep", "surface-wide", "component-complex")

#: Fresh worker processes per run, at most: no worker starts that would
#: end after --seconds, once two have run.  Each worker runs one cold pass
#: and at least one warm pass in its share of --seconds.
PROCESSES = {
    "verify-all": 12,
    "char-deep": 8,
    "surface-wide": 10,
    "component-complex": 8,
}

#: Wall-clock budget of a single operation and of a whole pass, in seconds.
#: An operation over budget is interrupted and counted as failed.
OP_BUDGET_S = 10.0
PASS_BUDGET_S = 30.0

#: Seconds the calibration loop takes at the reference speed.  Timings are
#: reported as measured seconds times CAL_REF_S / (calibration seconds
#: measured in the same process around the timed region), which removes
#: the minutes-long swings in CPU speed of a shared machine.
CAL_REF_S = 0.08

CHAR_CAPS = (8, 10, 12, 14, 16)
SURFACES = tuple(f"genus:{g}" for g in range(1, 5)) + tuple(f"rp:{n}" for n in range(1, 9))
COMPLEX_TOP = 6

TINY_CHAR_CAPS = (4, 5, 6)
TINY_SURFACES = ("genus:1", "genus:2", "rp:1", "rp:2", "rp:3")
TINY_COMPLEX_TOP = 4


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """The workload's input list for a seed: same seed, same inputs.

    The seed only reorders a fixed input set, or (verify-all) moves a
    fixed-size index window, so the work per pass does not depend on it.
    """
    rng = random.Random(seed)
    if workload == "verify-all":
        width = 3 if tiny else 11
        if seed == 0:
            k_lo = n_lo = -5
        else:
            k_lo, n_lo = rng.randint(-10, 0), rng.randint(-10, 0)
        return {
            "k_range": [k_lo, k_lo + width - 1],
            "n_range": [n_lo, n_lo + width - 1],
        }
    if workload == "char-deep":
        caps = list(TINY_CHAR_CAPS if tiny else CHAR_CAPS)
        rng.shuffle(caps)
        return {"caps": caps}
    if workload == "surface-wide":
        labels = list(TINY_SURFACES if tiny else SURFACES)
        rng.shuffle(labels)
        return {"surfaces": labels}
    if workload == "component-complex":
        top = TINY_COMPLEX_TOP if tiny else COMPLEX_TOP
        degrees = list(range(1, top))
        rng.shuffle(degrees)
        return {"top": top, "degrees": degrees}
    raise ValueError(f"unknown workload {workload!r}")


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of the kind kocom runs
    (tuples, zip, dict and frozenset operations)."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(40000):
        t = (i & 7, i >> 3 & 7, i % 5)
        key = tuple(a + b for a, b in zip(t, (1, 2, 3)))
        table[key] = table.get(key, 0) ^ i
        acc += len(frozenset(t) ^ {1, 2})
    return time.perf_counter() - start
