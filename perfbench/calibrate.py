"""Speed calibration: scale wall times to the reference machine's speed.

The VMs this benchmark runs on share cores with other tenants, and their
speed changes by up to a factor of three within a fraction of a second; a
pure-Python loop slows down about as much as relmod does.  Every timed value
is therefore multiplied by ``REFERENCE_PROBE_S / probe``, where ``probe`` is
the mean time of a fixed pure-Python probe taken right before and right
after the job or the set-up.  The probe uses no relmod code, so a change to
the program moves the scaled values as much as the raw ones; only the
machine's drift cancels.  Raw values are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median probe time on the reference machine (2-core x86-64 VM, Python 3.11.7).
REFERENCE_PROBE_S = 0.0075
PROBES_PER_SAMPLE = 3
# A sample is taken after the job that brings the job time since the last
# sample to at least this many seconds.
SLOT_S = 0.1


def probe() -> float:
    """Seconds for a fixed workload shaped like relmod's hot path:
    Fraction arithmetic and dict updates keyed by small tuples."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    x = Fraction(0)
    for i in range(1, 1500):
        x += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 13, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + x * x.denominator
    return time.perf_counter() - t0


def speed_sample() -> float:
    """Median of PROBES_PER_SAMPLE probes, in seconds."""
    return statistics.median(probe() for _ in range(PROBES_PER_SAMPLE))


def factor(probe_s: float) -> float:
    """Multiplier that turns a wall time measured at probe speed ``probe_s``
    into reference-machine time."""
    return REFERENCE_PROBE_S / probe_s


def slot_factors(probes: list[float]) -> list[float]:
    """One factor per slot of a run: the jobs between ``probes[s]`` and
    ``probes[s + 1]`` are scaled by the mean of those two samples.

    The machine's speed changes within a fraction of a second, so only the
    samples right around a job follow it; a window of several seconds
    averages fast and slow phases together.
    """
    return [factor((a + b) / 2) for a, b in zip(probes, probes[1:])]
