"""The benchmark's workloads: seeded instance pools, the requests made over
them, and verdict checks that share no code with the solver: a `sat`
assignment is re-checked clause by clause, an `unsat` verdict is decided again
by the exact search in `exact.py`.

A workload is a fixed pool of requests. Each request is the argument list of
one `x1scan` command; the benchmark cycles through the pool in whole passes,
so every instance is measured equally often whatever the program's speed.

* underconstrained - `uniform3`, m/n = 0.3, n = 120. Most verdicts are `sat`
  after completion picks, about one in ten is a (true) `unsat`; the `scope`
  probe loop does nearly all the work.
* overconstrained - `uniform3`, m/n = 4, n = 1,000. The scan ends
  in a few rounds; parsing, the special-clause rewrite and state set-up
  dominate. This is the bypass workload for any probe optimisation.
* campaign - `x1scan diff` batches over `mixed,uniform3,adversarial`
  instances with n from 2 to 14 and the default 10 check orders: about 11
  scans per instance on tiny formulas, plus the brute-force oracle and the
  Petri-net cross-check.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from exact import satisfiable

# Exit codes of `x1scan solve` (see the package README).
EXIT_SAT = 10
EXIT_UNSAT = 20
STATUS_EXIT = {"sat": EXIT_SAT, "unsat": EXIT_UNSAT}

CAMPAIGN_PROFILES = "mixed,uniform3,adversarial"


@dataclass(frozen=True)
class SolveWorkload:
    name: str
    ns: tuple[int, ...]  # one instance per entry, in pool order
    ratio: float  # m = round(ratio * n)
    # Verdict the seed commit gave on every instance of this workload, or None
    # where it gave both. An `unsat` verdict carries no certificate yet; one the
    # exact search cannot decide either is only compared with this.
    seed_status: str | None
    time_limit_s: float

    def describe(self) -> dict:
        return {
            "kind": "solve",
            "profile": "uniform3",
            "instances": len(self.ns),
            "n_range": [min(self.ns), max(self.ns)],
            "m_range": [self.m_of(min(self.ns)), self.m_of(max(self.ns))],
            "m_per_n": self.ratio,
            "command": "x1scan solve --json --no-timing FILE",
        }

    def m_of(self, n: int) -> int:
        return round(self.ratio * n)


@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    batches: int  # `diff` invocations in the pool
    count: int  # instances per invocation
    n_range: tuple[int, int]
    time_limit_s: float

    def describe(self) -> dict:
        return {
            "kind": "diff",
            "profiles": CAMPAIGN_PROFILES,
            "instances": self.batches * self.count,
            "batches": self.batches,
            "instances_per_batch": self.count,
            "n_range": list(self.n_range),
            "m_range": "1 to 2n per instance",
            "command": "x1scan diff --no-timing --count C --n-min A --n-max B "
                       "--profiles P --seed S",
        }


WORKLOADS = {
    w.name: w
    for w in (
        # One size each: over a ladder of sizes the median solve time rests on
        # the few instances near the middle size, and its spread across seeds
        # came close to the metric's bound (0.2 over n = 100-250). At n = 120
        # solve times still range over 3x from one instance to the next, so
        # the pool is as large as one pass in a run allows: with 24 instances
        # the median's spread across seeds was 0.16, with 72 0.05-0.10.
        SolveWorkload("underconstrained", (120,) * 84, 0.3, None, 30.0),
        SolveWorkload("overconstrained", (1000,) * 48, 4.0, "unsat", 30.0),
        CampaignWorkload("campaign", 40, 25, (2, 14), 60.0),
    )
}


@dataclass
class Request:
    """One command of the pool; ``rows`` is the formula a solve must satisfy."""

    label: str
    argv: list[str]  # arguments after `x1scan`
    instances: int
    n: int | None = None
    rows: list[tuple[int, ...]] | None = None


def write_cnf(path: Path, n: int, rows: list[tuple[int, ...]]) -> None:
    lines = [f"p x1cnf {n} {len(rows)}"]
    lines += [" ".join(map(str, r)) + " 0" for r in rows]
    path.write_text("\n".join(lines) + "\n")


def build_pool(w, seed: int, work: Path) -> list[Request]:
    """Generate and write the workload's inputs. Same seed, same inputs."""
    if isinstance(w, CampaignWorkload):
        lo, hi = w.n_range
        return [
            Request(
                label=f"batch{k}",
                argv=["diff", "--no-timing", "--count", str(w.count),
                      "--n-min", str(lo), "--n-max", str(hi),
                      "--profiles", CAMPAIGN_PROFILES, "--seed", str(seed * 1000 + k)],
                instances=w.count,
            )
            for k in range(w.batches)
        ]

    from x1scan.oracle import generate_random

    inputs = work / "inputs"
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    pool = []
    for i, n in enumerate(w.ns):
        f = generate_random(n, w.m_of(n), seed=seed * 1000 + i, profile="uniform3")
        rows = [tuple(c.lits) for c in f.clauses]
        path = inputs / f"{i:02d}_n{n}.cnf"
        write_cnf(path, n, rows)
        pool.append(Request(label=path.name, argv=["solve", "--json", "--no-timing", str(path)],
                            instances=1, n=n, rows=rows))
    return pool


def warmup_request(w, pool: list[Request], seed: int, work: Path) -> Request:
    """The untimed invocation that ends set-up: a tiny instance, so that
    set-up time does not hang on the hardness of one pool instance or on
    the size the seed draws."""
    if isinstance(w, CampaignWorkload):
        argv = list(pool[0].argv)
        argv[argv.index("--count") + 1] = "1"
        argv[argv.index("--n-max") + 1] = argv[argv.index("--n-min") + 1]
        return Request(label="warmup", argv=argv, instances=1)
    from x1scan.oracle import generate_random

    n = 12
    rows = [tuple(c.lits) for c in generate_random(n, 4, seed=seed).clauses]
    path = work / "inputs" / "warmup.cnf"
    write_cnf(path, n, rows)
    return Request(label="warmup", argv=["solve", "--json", "--no-timing", str(path)],
                   instances=1, n=n, rows=rows)


# --- checks -------------------------------------------------------------------


@dataclass
class Outcome:
    failed: int = 0
    certified: int = 0  # unsat verdicts proved by the exact search
    uncertified: int = 0  # unsat verdicts the search could not decide
    problems: list[str] | None = None

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems = (self.problems or []) + [why]


def exactly_one_violations(rows: list[tuple[int, ...]], n: int, lits: list[int]) -> list[int]:
    """Indices of clauses without exactly one true literal; -1 if the
    assignment is not a total, consistent map over variables 1..n."""
    value: dict[int, bool] = {}
    for lit in lits:
        v = abs(lit)
        if v in value or not 1 <= v <= n:
            return [-1]
        value[v] = lit > 0
    if len(value) != n:
        return [-1]
    bad = []
    for i, row in enumerate(rows):
        if sum(value[abs(lit)] == (lit > 0) for lit in row) != 1:
            bad.append(i)
    return bad


def check(w, req: Request, code: int, out: bytes) -> Outcome:
    o = Outcome()
    if isinstance(w, CampaignWorkload):
        if code != 0:
            o.fail(req.instances, f"exit code {code}")
            return o
        try:
            rep = json.loads(out)
            agreements, count = rep["agreements"], rep["instance_count"]
            errors, disagreements = rep["errors"], rep["disagreements"]
        except (ValueError, KeyError, TypeError) as e:
            o.fail(req.instances, f"unreadable diff report: {e}")
            return o
        if count != req.instances:
            o.fail(req.instances, f"instance_count {count} != {req.instances}")
        elif errors or disagreements or agreements != count:
            o.fail(count - min(agreements, count) or 1,
                   f"agreements {agreements}/{count}, {len(errors)} errors, "
                   f"{len(disagreements)} disagreements")
        return o

    if code not in (EXIT_SAT, EXIT_UNSAT):
        o.fail(1, f"exit code {code}")
        return o
    try:
        doc = json.loads(out)
        status = doc["status"]
    except (ValueError, KeyError, TypeError) as e:
        o.fail(1, f"unreadable verdict: {e}")
        return o
    if STATUS_EXIT.get(status) != code:
        o.fail(1, f"status {status!r} with exit code {code}")
    elif status == "sat":
        bad = exactly_one_violations(req.rows, req.n, doc.get("assignment") or [])
        if bad:
            o.fail(1, f"sat assignment fails clauses {bad[:5]}")
    else:
        truth = satisfiable(req.rows)
        if truth:
            o.fail(1, "unsat, but the exact search found a model")
        elif truth is False:
            o.certified += 1
        elif w.seed_status == "unsat":
            o.uncertified += 1
        else:
            o.fail(1, "unsat, undecided by the exact search, and the seed commit "
                      "gave no unsat here")
    return o
