"""Scaling measured times to a reference CPU speed.

On the shared 2-core machine of baseline.json, pure Python runs at a speed
that drifts over a range of about 1.7x and can stay at either end for
seconds or for minutes, on both CPUs at once, because of other tenants on
the host.  A whole benchmark run can therefore fall into a slow stretch, and
raw times of identical runs spread by 20 % to 35 % between runs.

So the benchmark times a fixed pure-Python loop (``spin``) just before and
just after each timed operation, and reports the operation's time scaled by
``REFERENCE_SPIN_S`` over the mean of those two loop times: the time the
operation would take at the CPU speed at which the loop takes
``REFERENCE_SPIN_S``.  A change to circnoc changes the operation's time and
not the loop's, so it shows in the scaled time in full; a change of host
speed changes both, though not always by the same factor, so some spread
remains.  Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import time

# About the loop's time on the machine of baseline.json in a fast phase.
REFERENCE_SPIN_S = 0.027


def spin() -> float:
    """Seconds a fixed pure-Python loop takes on this CPU now.

    One pass, not the best of several: a timed operation runs through the
    host's short stalls too, so the loop should see them as well.
    """
    start = time.perf_counter()
    sum(i * i % 7 for i in range(450_000))
    return time.perf_counter() - start


def scaled(seconds: float, spin_before: float, spin_after: float) -> float:
    """``seconds`` at the reference speed, given the loop times around it."""
    return seconds * 2 * REFERENCE_SPIN_S / (spin_before + spin_after)
