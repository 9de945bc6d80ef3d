"""A fixed reference computation that tells how fast the machine runs right now.

The hosts this benchmark runs on are shared.  On the 2-core virtual machine
it was written on, the same code ran up to twice as fast in one minute as
in the next, and its speed swung as much within a second, so raw latencies
of one run and the next could differ by half.  A *slice* of this fixed
computation, timed right before and right after a measured interval,
samples the machine's speed around it; ``scale`` turns the interval into
seconds at the reference speed, the speed at which one slice takes
``REFERENCE_SECONDS``.  Exact
``Fraction`` elimination and tuple-keyed dictionary updates are the kind
of work the program does, so its speed follows the machine's the way the
program's does.

Only the standard library runs here and the program under test never
does, so no change to the program moves these numbers.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Size of the fixed matrix one unit eliminates.
SIZE = 7
#: Units per slice.
UNITS = 10
#: Seconds one slice takes at the reference speed: about its fastest time
#: on the machine above.
REFERENCE_SECONDS = 0.012

MATRIX = [
    [Fraction((3 * i + 5 * j) % 11 + 1, (i * j) % 7 + 1) + (13 if i == j else 0)
     for j in range(SIZE)]
    for i in range(SIZE)
]


def _unit():
    rows = [row[:] for row in MATRIX]
    for col in range(SIZE):
        pivot = rows[col][col]
        rows[col] = [value / pivot for value in rows[col]]
        for r in range(SIZE):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    counts = {}
    for i in range(300):
        key = (i % 17, i % 13, i >> 3)
        counts[key] = counts.get(key, 0) + 1
    return rows, counts


def slice_seconds():
    """Time one slice of the reference computation."""
    start = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return time.perf_counter() - start


def scale(before, after):
    """The factor that takes a time measured between two slices, which took
    ``before`` and ``after`` seconds, to seconds at the reference speed."""
    return REFERENCE_SECONDS / ((before + after) / 2)
