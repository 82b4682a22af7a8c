"""x1scan benchmark: the `x1scan` CLI timed end to end, plus a traced run
that splits the time by layer.

    python3 x1bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of underconstrained,
overconstrained, campaign, or `all` (the default), which runs the three in
turn. With --trace 0 the workload's requests run as `x1scan` child processes,
one at a time (a closed loop with one client), in whole passes over a pool of
inputs generated from the seed: at least one pass, then as many as fit in S
seconds. Each sample is scaled to a fixed speed of the host, measured by the
reference work in calibrate.py around it; a request's time is the median of
its samples, and the timing metrics are taken over those. Every verdict is
checked. With --trace 1 the same requests run in-process with spans recorded
around the package's functions, and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it give each
metric with its unit, the sha256 digest of the pool's --no-timing outputs,
the machine and the workload. A copy of all of it is written to
`.bench_work/results/`. The exit code is 0 when every check passed, 1 when
any verdict failed its check, and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import sys
import time
from pathlib import Path

import calibrate
import e2e
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Longest a run may take; requests still running then are stopped and failed.
RUN_LIMIT_S = 170.0


def machine(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "workloads": {name: w.describe() for name, w in WORKLOADS.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, runner: e2e.Runner,
            deadline: float) -> dict:
    w = WORKLOADS[name]
    work = ROOT / ".bench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    res = (tracing if trace else e2e).measure(w, seed, seconds, runner, work, deadline)
    tally = res["tally"]

    lines = [f"workload {name} seed={seed} trace={int(trace)} passes={res['passes']}"
             f"{'' if res['complete'] else ' (stopped at the run time limit)'}"]
    for metric, (value, unit) in res["metrics"].items():
        lines.append(f"metric {metric} = {value} {unit}")
    if trace:
        lines.append(f"spans {res['spans']}, written to {work / f'spans-{name}.tsv'}")
        lines.append(f"absent wrapped names: {', '.join(res['absent']) or 'none'}")
        lines.append(f"scope.useful_ratio is over {res['metrics']['scope.probe_calls'][0]} "
                     f"probes; per-layer times and counts are per pass over the pool")
        lines += tracing.split_lines(name, res["metrics"])
    else:
        lines.append(f"metric failed_share = {res['failed_share']} ratio")
        lines.append(f"solve_tail_ms is p{res['tail_percentile']:.1f} of the "
                     f"{res['requests']} {res['per_request']} requests' median times")
        lines.append(f"times are at reference speed (x1bench/calibrate.py): the reference "
                     f"took {res['reference_ms']:.3f} ms (median over the run) against "
                     f"{calibrate.REFERENCE_MS} ms")
        lines += [f"raw {metric} = {value} {unit}" for metric, (value, unit) in res["raw"].items()
                  if metric != "peak_rss_mb"]
    lines.append(f"verdicts: {tally.attempted} attempted, {tally.failed} failed; unsat "
                 f"verdicts proved by the exact search: {tally.certified}, uncertified "
                 f"(undecided, compared with the seed commit): {tally.uncertified}")
    lines += [f"FAILED {p}" for p in tally.problems]
    lines.append(f"digest {name} sha256={res['digest']}")
    print("\n".join(lines), flush=True)

    doc = {
        "workload": name, "trace": int(trace), "machine": machine(seed),
        "passes": res["passes"], "complete": res["complete"], "digest": res["digest"],
        "attempted": tally.attempted, "failed": tally.failed,
        "certified": tally.certified, "uncertified": tally.uncertified,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    if trace:
        doc["absent"] = res["absent"]
    else:
        doc["failed_share"] = res["failed_share"]
        doc["tail_percentile"] = res["tail_percentile"]
        doc["reference_ms"] = res["reference_ms"]
        doc["raw"] = {k: {"value": v, "unit": u} for k, (v, u) in res["raw"].items()}
    out = ROOT / ".bench_work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "x1scan" / "cli.py").is_file():
        print(f"error: no x1scan sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    with e2e.Runner(ROOT) as runner:
        sys.path.insert(0, str(SRC))
        # build: byte-compile the sources once, so no child pays for it
        if not compileall.compile_dir(str(SRC), quiet=1):
            print("error: the sources do not compile", file=sys.stderr)
            return 2
        print(json.dumps(machine(args.seed)), flush=True)

        docs = []
        for name in names:
            # each workload gets the whole run limit when `all` runs them in turn
            deadline = time.monotonic() + RUN_LIMIT_S
            docs.append(run_one(name, args.seed, args.seconds, bool(args.trace), runner,
                                deadline))

    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}/{k}": v for d in docs for k, v in d["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
