"""A fixed reference computation that tracks the speed of the machine.

On a shared machine the speed of a core drifts by a third within a minute as
other tenants come and go.  Process CPU time leaves out the time the
hypervisor hands the core to others, but not a core that runs slower, so
the worker also runs this kernel between operations, on the same clock as
the operations.  It does not touch the package, so no change to
siefring-kit can alter it, and dividing each measured time by the slowdown
the kernel shows around it (its median time over ``REFERENCE_S``) gives the
time at a fixed reference speed.  Raw times are kept in the result file.

A CLI process spends most of its time starting the interpreter and
importing numpy and sympy, whose speed does not follow the kernel's (the
kernel's slowdown swung by half between runs while CLI times held still),
so process times are scaled by a fresh interpreter that does just that
(``process_sample``, against ``REFERENCE_PROCESS_S``).
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.003
REFERENCE_PROCESS_S = 0.5
WINDOW_S = 2.0

_PHASES = 2j * np.pi * np.random.default_rng(0).random(20000)


def kernel():
    """Interpreter work (tuples, dicts, hashing), rational arithmetic and
    complex exponentials, the mix the package's layers run on.  Nothing
    here may start BLAS threads: a threaded kernel slows down many times
    over when a neighbour holds the other core, and would then scale the
    single-threaded operations by a slowdown they never saw."""
    acc, table = 0, {}
    for i in range(4000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i)
    for _ in range(2):
        np.exp(_PHASES).sum()
    return acc, total


def sample(clock=time.perf_counter) -> float:
    start = clock()
    kernel()
    return clock() - start


def process_sample() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, sympy"], check=True, capture_output=True)
    return time.perf_counter() - start


def slowdowns(spans, samples, reference=REFERENCE_S):
    """Slowdown against the reference speed for each ``(start, end)`` span,
    from the kernel samples ``(position, seconds)``, sorted by position on
    the same clock, that lie within ``WINDOW_S`` of it (else the nearest)."""
    positions = [pos for pos, _ in samples]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(positions, start - WINDOW_S)
        hi = bisect.bisect_right(positions, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(lo + 1, len(samples))
        out.append(statistics.median(t for _, t in samples[lo:hi]) / reference)
    return out
