"""Machine speed, read from a fixed pure-Python loop.

On a shared machine the CPU can run 1.5 times slower or faster for
minutes at a time (measured on a 2-core virtual machine shared with
other tenants), longer than a run lasts, so no number of repeats inside
one run averages it away.  The benchmark
therefore times this loop next to the work it measures and reports a
time ``t`` as ``t * REFERENCE_S / loop time``: seconds on a machine on
which the loop takes ``REFERENCE_S``.  The loop mixes integer
arithmetic with building small tuples, frozensets and dicts, as
graphassoc's operations do: in a slow phase, code that allocates slows
down more than arithmetic alone (on that machine graphassoc's
operations ran 1.7-1.9 times slower, an arithmetic-only loop 1.5
times).  The loop is the benchmark's own code, so a change to
graphassoc moves the scaled times as much as the plain ones.
"""

import gc
import statistics
import time

REFERENCE_S = 0.020


def reference_loop():
    total = 0
    for i in range(100_000):
        total += i * i % 7
    seen = {}
    for i in range(12_000):
        key = (i & 63, i >> 6)
        members = frozenset(key)
        if members in seen:
            seen[members].append(i)
        else:
            seen[members] = [i]
    return total + len(seen)


def sample(repeats=3) -> float:
    """Median time of a few runs of the reference loop, in seconds.

    The collector is paused meanwhile: a collection would time the
    measured program's heap, not the machine.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor(loop_s: float) -> float:
    return REFERENCE_S / loop_s


def op_factors(samples, count):
    """Scale for each of ``count`` operations from ``(operations done, loop time)`` samples.

    The samples must start with one taken before the first operation and
    end with one taken after the last; each operation gets the mean of
    the samples on either side of it.
    """
    out = []
    for i in range(count):
        before = [t for done, t in samples if done <= i][-1]
        after = next(t for done, t in samples if done > i)
        out.append(factor((before + after) / 2))
    return out
