"""End-to-end measurement: one client in a closed loop, one `x1scan` child
process at a time, each request started only after the previous one ended.

Nothing of the program is wrapped here, and the children see only their
command line and the generated files.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import scale
from workloads import CampaignWorkload, Outcome, Request, build_pool, check, warmup_request

# Set-ups every run makes: at least this many, and more until this much time
# has gone, so that a set-up of a fraction of a second (little more than the
# warm-up call) still gets a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


@dataclass
class Child:
    code: int
    out: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool
    err: bytes
    ref_s: float  # the reference's time around the child (calibrate.py)


class Runner:
    """Starts `python -m x1scan.cli` children against the checkout's sources,
    through the small process in spawn.py so that each child's peak RSS is
    its own. Create it before loading the package or generating inputs."""

    def __init__(self, root: Path):
        env = {k: v for k, v in os.environ.items() if not k.startswith("X1SCAN_")}
        env["PYTHONPATH"] = str(root / "src")
        work = root / ".bench_work"
        work.mkdir(exist_ok=True)
        self.out, self.err = work / "child.out", work / "child.err"
        # its own process group, so that closing after an error also stops
        # a child still running
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=root, start_new_session=True)

    def run(self, args: list[str], limit_s: float) -> Child:
        """Run one child; a child over ``limit_s`` of wall time is killed."""
        req = {"argv": args, "limit_s": limit_s, "out": str(self.out), "err": str(self.err)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the process starting the children has ended")
        r = json.loads(line)
        return Child(r["code"], self.out.read_bytes(), r["wall_s"], r["maxrss_kb"],
                     r["timed_out"], self.err.read_bytes(), r["ref_s"])

    def x1scan(self, argv: list[str], limit_s: float) -> Child:
        return self.run([sys.executable, "-m", "x1scan.cli", *argv], limit_s)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=None if exc[0] is None else 1)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Tally:
    """Counts shared by the end-to-end and the traced runs."""

    attempted: int = 0
    failed: int = 0
    certified: int = 0
    uncertified: int = 0
    problems: list[str] = field(default_factory=list)
    first: dict[str, tuple[bytes, Outcome]] = field(default_factory=dict)

    def record(self, w, req: Request, code: int, out: bytes, crash: str | None,
               err: bytes) -> None:
        """Check one response. A repeat must print exactly what the first run
        of its request printed, and then shares that run's outcome. The last
        line of the error output goes with any problem reported."""
        o = Outcome()
        if crash:
            o.fail(req.instances, crash)
        elif req.label not in self.first:
            o = check(w, req, code, out)
            self.first[req.label] = (out, o)
        elif self.first[req.label][0] != out:
            o.fail(req.instances, "output differs from the first run of this request")
        else:
            o = self.first[req.label][1]
        self.attempted += req.instances
        self.failed += o.failed
        self.certified += o.certified
        self.uncertified += o.uncertified
        last = (err.decode(errors="replace").strip().splitlines() or [""])[-1]
        for p in o.problems or ():
            if len(self.problems) < 20:
                self.problems.append(f"{req.label}: {p}" + (f" [{last}]" if last else ""))

    def digest(self, pool: list[Request]) -> str:
        """sha256 over the --no-timing outputs of the pool, in pool order."""
        h = hashlib.sha256()
        for req in pool:
            h.update(self.first.get(req.label, (b"", None))[0])
        return h.hexdigest()


def setup(w, seed: int, runner: Runner, work: Path,
          deadline: float) -> tuple[list[Request], list[float], list[float]]:
    """Generate and write the inputs, then make one untimed warm-up call;
    repeated (see SETUP_REPEATS) so the median set-up time can be reported.
    Returns the pool, each set-up's time in seconds (the reference runs
    around the warm-up call left out) and the reference times taken."""
    times, refs = [], []
    pool: list[Request] = []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        # each set-up starts from the same heap, without the last one's pool
        pool = []
        gc.collect()
        t0 = time.perf_counter()
        pool = build_pool(w, seed, work)
        warmup = warmup_request(w, pool, seed, work)
        generate_s = time.perf_counter() - t0
        child = runner.x1scan(warmup.argv, min(w.time_limit_s, deadline - time.monotonic()))
        times.append(generate_s + child.wall_s)
        refs.append(child.ref_s)
    return pool, times, refs


def more_passes(done: int, elapsed: float, seconds: float) -> bool:
    """Whole passes only: at least one, then as many as fit in ``seconds``
    going by the mean pass so far."""
    return done == 0 or elapsed * (done + 1) / done <= seconds


def tail_rank(count: int) -> int:
    """Index, in ascending order, of the highest percentile with at least ten
    samples beyond it: the 11th-largest sample (the least if there are fewer)."""
    return max(count - 11, 0)


def tail_percentile(count: int) -> float:
    return 100.0 * (tail_rank(count) + 1) / count if count >= 11 else 0.0


def measure(w, seed: int, seconds: float, runner: Runner, work: Path, deadline: float) -> dict:
    """Time every request of the pool in whole passes, at least one.

    Each sample is taken at reference speed (calibrate.py), by the reference
    times around it. A request's time is the median of its samples, and the
    timing metrics are taken over these per-request times: median, tail, and
    instances per second of their sum. A set-up lasts seconds, longer than
    one reference run can speak for, so set-up times are scaled by the median
    reference time of the whole run. The same figures from raw wall times are
    returned beside them."""
    pool, setup_raw, refs = setup(w, seed, runner, work, deadline)
    tally = Tally()
    walls: dict[str, list[float]] = {req.label: [] for req in pool}
    scaled: dict[str, list[float]] = {req.label: [] for req in pool}
    rss_kb = 0
    passes = 0
    complete = True
    t0 = time.perf_counter()
    while complete and more_passes(passes, time.perf_counter() - t0, seconds):
        for req in pool:
            left = deadline - time.monotonic()
            if left <= 0:
                complete = False
                break
            child = runner.x1scan(req.argv, min(w.time_limit_s, left))
            crash = f"killed after {child.wall_s:.1f} s" if child.timed_out else None
            tally.record(w, req, child.code, child.out, crash, child.err)
            walls[req.label].append(child.wall_s * 1000.0)
            scaled[req.label].append(scale(child.wall_s, child.ref_s))
            refs.append(child.ref_s)
            rss_kb = max(rss_kb, child.maxrss_kb)
        passes += complete
    done = [r for r in pool if walls[r.label]]
    if not done:
        raise RuntimeError("no request finished within the run time limit")
    run_ref_s = statistics.median(refs)

    def timings(samples: dict[str, list[float]], setup_s: list[float]) -> dict:
        per_request = [statistics.median(samples[r.label]) for r in done]
        return {
            "solve_p50_ms": (statistics.median(per_request), "ms"),
            "solve_tail_ms": (sorted(per_request)[tail_rank(len(per_request))], "ms"),
            "instances_per_s": (sum(r.instances for r in done) * 1000.0 / sum(per_request),
                                "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }

    return {
        "tally": tally,
        "digest": tally.digest(pool),
        "passes": passes,
        "complete": complete,
        "requests": len(done),
        "tail_percentile": tail_percentile(len(done)),
        "reference_ms": run_ref_s * 1000.0,
        "raw": timings(walls, setup_raw),
        "metrics": timings(scaled, [scale(t, run_ref_s) / 1000.0 for t in setup_raw]),
        "failed_share": tally.failed / max(tally.attempted, 1),
        "per_request": "diff batch" if isinstance(w, CampaignWorkload) else "solve",
    }
