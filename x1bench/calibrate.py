"""The host's speed at the moment, read from a fixed piece of pure-Python work
that shares no code with the package.

The host this benchmark was built on (a virtual machine with two cores of a
shared machine) changes speed by up to a half for seconds to minutes at a
time, and the slowdown shows in CPU time as much as in wall time. Two sets of
runs of the same code made minutes apart then differ by more than any bound
worth setting. So every timed request is bracketed by runs of this reference,
made by the process that starts the child, just before and just after it (the
run after one request is the run before the next), and a request's time is
reported at reference speed:

    wall time * REFERENCE_MS / (mean of the two reference times)

Set-up times, which last seconds, are scaled the same way by the median
reference time of the whole run. A change to the package moves the request's
time and not the reference's; a change in the host's speed moves both. The
raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import time

# What the reference took on the host above when it was quiet, so that a
# scaled time reads roughly as milliseconds there. Any constant would do: the
# scaled times of two commits are compared, never their raw times.
REFERENCE_MS = 20.0
LOOPS = 300_000


def reference() -> int:
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return s


def reference_s() -> float:
    """Wall time of one run of the reference, in seconds."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(wall_s: float, ref_s: float) -> float:
    """``wall_s`` at reference speed, in the reference's milliseconds."""
    return wall_s * REFERENCE_MS / ref_s
