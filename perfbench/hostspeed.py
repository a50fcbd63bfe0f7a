"""The host's current speed, read off a fixed reference kernel.

The benchmark runs on a few virtual CPUs of a shared host.  For stretches
of seconds to minutes the host runs everything in the guest slower, by up
to half, while the guest still counts the time as its own CPU time.  No
statistic over a run's wall times can remove a slowdown that lasts the
whole run.  But the slowdown hits all code alike: the ratio of a scenario's
wall time to the wall time of a fixed kernel timed next to it stays within
a few percent while both swing by half.

So the benchmark times `kernel()` right before and right after every timed
scenario, and reports the scenario's wall time scaled to the speed at which
the kernel takes REF_S seconds.  The kernel does what the program does
most: small batched numpy linear algebra under a Python loop.  It never
calls finslergeo, so a change to the program cannot move it.
"""

import statistics
import time

import numpy as np

# nominal wall time of one kernel() call; the unhurried host's fastest
# runs of it take about this long
REF_S = 1.0e-3

_RNG = np.random.default_rng(20090101)
_A = _RNG.standard_normal((64, 3, 3)) + 3.0 * np.eye(3)
_V = _RNG.standard_normal((64, 3))


def kernel() -> float:
    acc = 0.0
    for _ in range(40):
        x = np.linalg.solve(_A, _V[..., None])[..., 0]
        acc += float(np.einsum("ij,ij->", x, _V))
        acc += sum(j * 0.5 for j in range(100))
    return acc


def kernel_s(repeat: int = 1) -> float:
    """Median wall time of `repeat` kernel() calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(elapsed: float, before: float, after: float) -> float:
    """`elapsed` wall seconds at the speed where kernel() takes REF_S,
    given kernel() times taken right before and right after."""
    return elapsed * 2.0 * REF_S / (before + after)
