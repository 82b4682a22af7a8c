"""Starts the benchmark's child processes, one at a time, and reports how
each one ended.

This runs as a small process of its own, started before the benchmark loads
the package or generates anything. Linux carries the peak resident size of
the process that starts a child into the child's own figure, so a child
started by the benchmark itself, which holds the generated instances, would
report the benchmark's peak instead of its own.

Each line of standard input is a JSON object {"argv", "limit_s", "out",
"err"}: the command, its wall-time limit, and the files for its standard
output and error. Each line of output answers one request with {"code",
"wall_s", "maxrss_kb", "timed_out", "ref_s"}, where ``ref_s`` is the mean
time of the reference work in calibrate.py, run just before and just after
the child; the run after one child is the run before the next. A child over
its limit is killed. The process ends at the end of its input.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time

from calibrate import reference_s


def run(req: dict, before: float) -> tuple[dict, float]:
    """Run one child; ``before`` is the reference time taken just before it.
    Returns the answer and the reference time taken just after it."""
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(req["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        pidfd = os.pidfd_open(p.pid)
        try:
            timed_out = not select.select([pidfd], [], [], max(req["limit_s"], 0.0))[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    after = reference_s()
    return {"code": p.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "timed_out": timed_out, "ref_s": (before + after) / 2}, after


def main() -> None:
    ref_s = reference_s()
    for line in sys.stdin:
        answer, ref_s = run(json.loads(line), ref_s)
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
