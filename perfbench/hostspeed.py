"""Host speed, measured with a fixed piece of Python that is not the program.

The benchmark's host is shared: the same code runs up to 1.7x slower for
seconds or minutes at a time while other tenants are busy, which would
swamp the differences the benchmark exists to show.  ``calibrate()`` times
a fixed kernel of the kinds of work the program does (integer loops,
``Fraction`` arithmetic, JSON round trips, sorting and dict building), and
``scale()`` turns a measured time into reference seconds: the time it would
have taken on a host that runs the kernel in ``REF_KERNEL_S``.  The kernel
never calls the program, so a faster program still reads faster.

The host's speed changes within a second, so the kernel is short (about
2 ms) and is read often: the loop reads it after every 50 ms of op time and
scales each cycle by the mean of that cycle's readings.  The loop also
counts ``--seconds`` in reference seconds, so a run holds the same number
of cycles on a slow host as on a fast one.
"""

from __future__ import annotations

import gc
import json
import random
from fractions import Fraction
from time import perf_counter

# kernel time on the reference host: the median reading on the 2-core x86_64
# VM the bounds were set on, which is quiet only part of the time
REF_KERNEL_S = 0.0020
_DOC = {f"k{i}": [i, str(i), {"x": i / 3}] for i in range(25)}


def _kernel():
    s = 0
    for i in range(7_500):
        s += i * i
    x, y = Fraction(1, 3), Fraction(0)
    for i in range(90):
        y = y + x * Fraction(i % 7, 11)
    json.loads(json.dumps(_DOC))
    rng = random.Random(0)
    xs = [rng.random() for _ in range(2_500)]
    xs.sort()
    {x: i for i, x in enumerate(xs[:600])}


def calibrate(repeat: int = 1) -> float:
    """Mean seconds per kernel over ``repeat`` runs, now.  The garbage
    collector is off meanwhile, so the program's heap does not change the
    reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(repeat):
            _kernel()
        return (perf_counter() - t0) / repeat
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, in reference
    seconds."""
    return seconds * REF_KERNEL_S / kernel_s
