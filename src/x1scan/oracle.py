"""Ground-truth oracles, instance generation, differential testing, and
counterexample minimization.

The exact search is the ground truth everything else is judged against; it
shares no code with the scan. The differential harness runs the scan loop
against it over seeded corpora, re-verifies every claimed model, measures
order robustness, and shrinks any disagreement to a small reproducer. It
judges a corpus on one forked worker per CPU, and its report does not depend
on how many there are.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterable, Sequence
from math import comb
from pathlib import Path
from random import Random

from .formula import DEFAULT_STATE_BUDGET, Budget, BudgetError, Formula, emit_x1cnf, formula
from .solver import scan, scans


def _components(rows: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """The rows grouped into connected components by shared variables."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        a = find(abs(row[0]))
        for lit in row[1:]:
            b = find(abs(lit))
            if a != b:
                parent[b] = a
    comps: dict[int, list[tuple[int, ...]]] = {}
    for row in rows:
        comps.setdefault(find(abs(row[0])), []).append(row)
    return list(comps.values())


def _split(row: tuple[int, ...], val: dict[int, bool]) -> tuple[int, list[int]]:
    """How many literals of ``row`` hold under ``val``, and its open ones."""
    true, open_ = 0, []
    for lit in row:
        x = val.get(abs(lit))
        if x is None:
            open_.append(lit)
        elif x == (lit > 0):
            true += 1
    return true, open_


def _component_sat(rows: list[tuple[int, ...]], val: dict[int, bool], steps: Budget) -> bool:
    """Depth-first search over one component, its choices on an explicit
    stack. On True, ``val`` holds a model of every variable the rows use.
    It spends one step per choice tried and one per clause examined."""
    occ: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for lit in row:
            occ.setdefault(abs(lit), []).append(i)
    fresh: list[int] = []  # rows propagation left undecided with two open literals

    def propagate(lits: list[int], trail: list[int]) -> bool:
        """Make the literals true, then what exactly-one forces: a row with a
        true literal makes its open ones false, a row with one open literal
        and none true makes it true. False on a conflict; ``trail`` gets
        every variable set."""
        while lits:
            lit = lits.pop()
            v = abs(lit)
            if v in val:
                if val[v] != (lit > 0):
                    return False
                continue
            val[v] = lit > 0
            trail.append(v)
            steps.spend(len(occ[v]))
            for ci in occ[v]:
                true, open_ = _split(rows[ci], val)
                if true > 1 or (true == 0 and not open_):
                    return False
                if true == 1:
                    lits += [-o for o in open_]
                elif len(open_) == 1:
                    lits.append(open_[0])
                elif len(open_) == 2:
                    fresh.append(ci)
        return True

    def pick() -> list[int] | None:
        """The open literals of an undecided row with the fewest, or None if
        every row holds. Propagation leaves none with fewer than two, so the
        first row with two ends the look: those propagation saw go first."""
        while fresh:
            steps.spend(1)
            true, open_ = _split(rows[fresh.pop()], val)
            if true == 0 and len(open_) == 2:
                return open_
        best = None
        for i, row in enumerate(rows):
            true, open_ = _split(row, val)
            if true == 0 and (best is None or len(open_) < len(best)):
                best = open_
                if len(best) == 2:
                    break
        steps.spend(i + 1)
        return best

    if not propagate([row[0] for row in rows if len(row) == 1], []):
        return False
    # a frame: a row's open literals, the next to try as its true one, and
    # the variables the last try set
    first = pick()
    stack: list[list] = [] if first is None else [[first, 0, []]]
    while stack:
        frame = stack[-1]
        options, k, trail = frame
        for v in trail:
            del val[v]
        trail.clear()
        if k == len(options):
            stack.pop()
            continue
        frame[1] = k + 1
        steps.spend(1)
        if propagate([options[k]] + [-o for o in options if o != options[k]], trail):
            options = pick()
            if options is None:
                return True
            stack.append([options, 0, []])
    return first is None


def find_model(f: Formula, budget: int) -> list[int] | None:
    """A model of ``f`` as its true literals in variable order, or None, by
    exact search: each connected component is searched depth first,
    branching on an undecided clause with the fewest open literals, with
    exactly-one propagation after every choice. A variable in no clause
    reads false. Raises BudgetError after ``budget`` steps."""
    steps = Budget(budget, "exact search")
    val: dict[int, bool] = {}
    for comp in _components(list(f.rows)):
        if not _component_sat(comp, val, steps):
            return None
    return [v if val.get(v) else -v for v in range(1, f.n_vars + 1)]


# ---------------------------------------------------------------------------
# instance generation

# profile -> (the least n it draws over, the lengths of its clauses); only
# _draw_clause reads a profile's name
PROFILES = {"uniform3": (3, (3,)), "mixed": (1, (1, 2, 3)), "adversarial": (3, (3,))}


def distinct_clauses(n: int, profile: str) -> int:
    """How many distinct clauses ``profile`` can draw over n variables: 2^k
    sign choices per k variables, for each clause length k it draws."""
    return sum(2**k * comb(n, k) for k in PROFILES[profile][1])


def check_profiles(profiles: Iterable[str], n_min: int, m_max: int) -> None:
    """Before anything is drawn, refuse any name outside PROFILES, and
    ``m_max`` clauses where a profile cannot draw that many distinct ones at
    the smallest n it draws: ``n_min``, raised to the profile's least n."""
    for name in profiles:
        if name not in PROFILES:
            raise ValueError(f"unknown profile {name!r} (choose from {', '.join(PROFILES)})")
        n = max(n_min, PROFILES[name][0])
        if m_max > distinct_clauses(n, name):
            raise ValueError(
                f"cannot draw {m_max} distinct {name} clauses over {n} variables "
                f"(at most {distinct_clauses(n, name)})"
            )


def _below(bits, n: int) -> int:
    """A draw from range(n), n >= 1, off ``bits`` (a generator's
    getrandbits), as CPython's Random._randbelow_with_getrandbits makes it."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample(bits, size: int, k: int) -> list[int]:
    """k <= 5 distinct draws from 1..size, as Random.sample(range(1, size + 1),
    k) makes them: off a pool with each pick's place refilled from its end
    while the population is at most 21 (sample's switch for k <= 5), else by
    redrawing a repeat."""
    picked = []
    if size <= 21:
        pool = list(range(1, size + 1))
        for i in range(k):
            j = _below(bits, size - i)
            picked.append(pool[j])
            pool[j] = pool[size - i - 1]
        return picked
    for _ in range(k):
        v = _below(bits, size) + 1
        while v in picked:
            v = _below(bits, size) + 1
        picked.append(v)
    return picked


def _draw_clause(bits, coin, n: int, profile: str, prev: tuple[int, ...] | None):
    """One clause off a generator's ``bits`` (getrandbits) and ``coin``
    (random): the variables, then a sign for each, in the order drawn."""
    if profile == "adversarial" and prev is not None:
        # Random.choice of prev's variables, then Random.sample of 2 from
        # the n - 1 others in order
        shared = abs(prev[_below(bits, len(prev))])
        vs = [shared] + [v + (v >= shared) for v in _sample(bits, n - 1, 2)]
    else:
        size = 3
        if profile == "mixed":
            # Random.choices((1, 2, 3), weights=(1, 2, 7)): one coin against
            # the cumulative weights 1 and 3 of 10
            x = coin() * 10.0
            size = min(1 if x < 1 else 2 if x < 3 else 3, n)
        vs = _sample(bits, n, size)
    for i, v in enumerate(vs):
        if coin() >= 0.5:
            vs[i] = -v
    vs.sort(key=abs)
    return tuple(vs)


def generate_random(n: int, m: int, seed: int, profile: str = "uniform3") -> Formula:
    """Seeded, reproducible instance. Clauses are distinct and use distinct
    variables, so the formula is general.

    uniform3: every clause has 3 literals. mixed: 1-3 literals weighted
    1:2:7. adversarial: 3-literal chain, each clause sharing a variable with
    its predecessor.

    A draw is defined by the getrandbits and random() calls it makes on
    Random(f"{profile}:{n}:{m}:{seed}"), no other method of the generator;
    it gives the formulas that Random.sample, choice and choices drew at
    every earlier commit, on CPython 3.10 to 3.13.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    least = PROFILES.get(profile, (1,))[0]  # check_profiles refuses an unknown name
    if n < least:
        raise ValueError(f"profile {profile} needs n >= {least}")
    check_profiles((profile,), n, m)
    rng = Random(f"{profile}:{n}:{m}:{seed}")
    bits, coin = rng.getrandbits, rng.random
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(rows) < m:
        attempts += 1
        if attempts > 200 * (m + 1):
            raise ValueError(
                f"cannot draw {m} distinct {profile} clauses over {n} variables"
            )
        clause = _draw_clause(bits, coin, n, profile, rows[-1] if rows else None)
        if clause in seen:
            continue
        seen.add(clause)
        rows.append(clause)
    f = formula(n, rows)
    assert not f.special
    return f


# ---------------------------------------------------------------------------
# differential testing

# a report's ``statuses`` character for each scan status
_STATUS_MARK = {"sat": "s", "unsat": "u", "claimed_sat_unverified": "c"}


# each disagreement's class, by (scan status, oracle satisfiable)
DISAGREEMENT_CLASS = {
    ("claimed_sat_unverified", False): "fixpoint_on_unsat",
    ("claimed_sat_unverified", True): "completion_dead_end",
    ("unsat", True): "unsound_unsat",
}


def _agrees(status: str, oracle_sat: bool) -> bool:
    return (status == "sat" and oracle_sat) or (status == "unsat" and not oracle_sat)


def _percentiles(xs: list[float]) -> dict:
    s = sorted(xs)

    def pct(q: float) -> float:
        return s[min(len(s) - 1, int(q * len(s)))]

    return {"p50": pct(0.50), "p90": pct(0.90), "p99": pct(0.99), "max": s[-1]}


def _formula_rows(f: Formula) -> dict:
    return {"n": f.n_vars, "clauses": [list(lits) for lits in f.rows]}


def _judge(corpus: Sequence[Formula], i: int, seeds: list) -> list:
    """Instance ``i``'s part of a report, JSON-ready, from its draw
    ``corpus[i]`` on: its ``statuses`` mark, the milliseconds its group of
    scans took (None where they did not end), whether every order gave the
    fixed order's status, and its entry: the minimized disagreement, None
    where the scan and the oracle agree, or, marked ``e``, the error where
    drawing, scanning, deciding or minimizing the instance raised, with the
    formula once it was drawn and the scan status once the scans ended."""
    ms = f = v = None
    try:
        f = corpus[i]
        t0 = time.perf_counter()
        v, *others = scans(f, seeds)
        ms = (time.perf_counter() - t0) * 1000.0
        oracle_sat = find_model(f, DEFAULT_STATE_BUDGET) is not None
        invariant = all(o.status == v.status for o in others)
        if _agrees(v.status, oracle_sat):
            return [_STATUS_MARK[v.status], ms, invariant, None]
        return [_STATUS_MARK[v.status], ms, invariant, {
            "instance_id": i,
            "formula": _formula_rows(f),
            "scan_status": v.status,
            "oracle_status": "sat" if oracle_sat else "unsat",
            "class": DISAGREEMENT_CLASS[v.status, oracle_sat],
            "minimized": _formula_rows(minimize_counterexample(f)),
        }]
    except Exception as e:  # recorded, never fatal to the campaign
        entry = {"instance_id": i, "error": f"{type(e).__name__}: {e}"}
        if f is not None:
            entry["formula"] = _formula_rows(f)
        if v is not None:
            entry["scan_status"] = v.status
        return ["e", ms, False, entry]


def _share(corpus: Sequence[Formula], w: int, workers: int, seeds: list,
           parent: int | None = None) -> list[list]:
    """Worker ``w``'s results, in corpus order: those of the instances
    i = w (mod ``workers``). A forked worker stops once its diff process,
    ``parent``, is gone."""
    results = []
    for i in range(w, len(corpus), workers):
        if parent is not None and os.getppid() != parent:
            break
        results.append(_judge(corpus, i, seeds))
    return results


class WorkerLost(Exception):
    """A forked worker of :func:`differential_corpus` ended without sending
    its results."""


def _place(cpus: Iterable[int]) -> None:
    """Run this process on ``cpus`` only, or, where the OS refuses, where it
    ran before: no verdict depends on the CPU that reaches it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _fan_out(corpus: Sequence[Formula], seeds: list) -> list[list]:
    """Every instance's results, in corpus order, judged on N workers: one
    per CPU of this process's mask, read here once, and no more than there
    are instances; N is 1 where the platform cannot fork or tell. This
    process is worker 0 and forks the others; worker w judges the instances
    i = w (mod N) on the w-th CPU of the mask alone and sends its results
    down a pipe as JSON. A forked worker's whole life, its placement
    included, runs inside one guard that ends it with os._exit, so it never
    returns into the code that forked it and leaves no traceback. Every
    forked worker is reaped, and this process gets its mask back, before
    this returns or raises."""
    cpus = []
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    workers = max(1, min(len(cpus), len(corpus)))
    if workers == 1:
        return _share(corpus, 0, 1, seeds)
    parent = os.getpid()
    pipes: dict[int, int] = {}  # a worker's pid -> the read end of its pipe
    try:
        for w in range(1, workers):
            r, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(out)
                raise
            if pid == 0:
                code = 1
                try:
                    _place({cpus[w]})
                    for fd in [r, *pipes.values()]:  # read ends: its own, the others'
                        os.close(fd)
                    with open(out, "w") as pipe:
                        pipe.write(json.dumps(_share(corpus, w, workers, seeds, parent)))
                    code = 0
                finally:
                    # the diff process reports a worker that ends without its results
                    os._exit(code)
            os.close(out)
            pipes[pid] = r
        _place({cpus[0]})
        results: list = [None] * len(corpus)
        results[::workers] = _share(corpus, 0, workers, seeds)
        for w, pid in enumerate(list(pipes), 1):
            with open(pipes[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(pipes.pop(pid))
            if status != 0:
                raise WorkerLost(f"campaign worker {w} ended without its results "
                                 f"(exit code {os.waitstatus_to_exitcode(status)})")
            results[w::workers] = json.loads(data)
        return results
    finally:
        _place(cpus)
        if pipes:  # an error or an interrupt came first: stop the workers left
            import signal  # here only: a campaign that ends well sends no signal

            for pid, r in pipes.items():
                os.close(r)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def differential_corpus(
    corpus: Sequence[Formula],
    permutations: int = 10,
    no_timing: bool = False,
) -> dict:
    """Scan-vs-oracle over an explicit corpus; returns the JSON-ready report
    that ``x1scan diff`` prints. Agreement means a verified sat against a
    satisfiable instance or an unsat against an unsatisfiable one; everything
    else (including claimed_sat_unverified) is a disagreement and gets
    minimized and classed (``DISAGREEMENT_CLASS``).

    Each instance is scanned in the fixed order and in ``permutations``
    seeded random orders, all as one group (``solver.scans``); an instance
    is order-invariant when no random order departs from the fixed order's
    status, and ``timing_ms`` times the group.

    ``statuses`` has one character per instance, in corpus order: the scan
    status (``s`` sat, ``u`` unsat, ``c`` claimed_sat_unverified), or ``e``
    where judging the instance raised: its draw, its scans, the exact search
    or the minimization. ``errors`` holds their entries, in corpus order.

    The instances are judged on one worker per CPU this process may run on
    (``os.sched_getaffinity``, read once), up to one per instance: this
    process is worker 0 and forks the others, and worker w judges, and reads
    from the corpus, only the instances i = w (mod the worker count), on a
    CPU of its own (:func:`_fan_out`). The results come back in corpus
    order, so the report is the same, byte for byte, for any worker count,
    ``timing_ms`` aside, which times each group in the worker that scanned
    it. This process gets its mask back before this returns or raises; a
    placement the OS refuses leaves that process where it was. A worker
    that ends without its results raises WorkerLost. The caller runs no
    other thread, as a fork copies only the one that calls it."""
    # the fixed order, then the seeded shuffles; no scope dumps: only statuses are read
    seeds = [None, *range(permutations)]
    disagreements: list[dict] = []
    errors: list[dict] = []
    timings: list[float] = []
    marks: list[str] = []
    invariant = 0
    varied: list[int] = []
    agreements = 0
    for i, (mark, ms, same, entry) in enumerate(_fan_out(corpus, seeds)):
        marks.append(mark)
        if ms is not None:
            timings.append(ms)
        if mark == "e":
            errors.append(entry)
            continue
        if same:
            invariant += 1
        elif len(varied) < 20:
            varied.append(i)
        if entry is None:
            agreements += 1
        else:
            disagreements.append(entry)

    return {
        "instance_count": len(marks),
        "agreements": agreements,
        "disagreements": disagreements,
        "order_invariance": {
            "instances": len(marks) - marks.count("e"),
            "permutations": permutations,
            "invariant": invariant,
            "varied_instances": varied,
        },
        "statuses": "".join(marks),
        "timing_ms": None if no_timing or not timings else _percentiles(timings),
        "errors": errors,
    }


class Campaign(Sequence):
    """A seeded campaign's instances, each drawn when it is read, so that a
    forked worker draws only its own."""

    def __init__(self, draws: list[tuple[int, int, int, str]]):
        self.draws = draws  # per instance: n, m, the generator's seed, the profile

    def __len__(self) -> int:
        return len(self.draws)

    def __getitem__(self, i: int) -> Formula:
        n, m, seed, profile = self.draws[i]
        return generate_random(n, m, seed=seed, profile=profile)


def generate_campaign(count: int, n_range: tuple[int, int], m_range: tuple[int, int] | None,
                      profiles: tuple[str, ...], seed: int) -> Campaign:
    """``count`` seeded instances with n drawn from ``n_range`` and m from
    ``m_range`` (None: 1..2n per instance), cycling through ``profiles``;
    each n is raised to its profile's least n. The profiles and ``m_range``
    are checked here, before any instance is drawn."""
    # every profile can draw 1..2n clauses
    check_profiles(profiles, n_range[0], m_range[1] if m_range else 0)
    rng = Random(f"campaign:{seed}")
    draws = []
    for i in range(count):
        n = rng.randint(*n_range)
        lo, hi = m_range if m_range else (1, 2 * n)
        m = rng.randint(lo, hi)
        profile = profiles[i % len(profiles)]
        draws.append((max(n, PROFILES[profile][0]), m, seed * 1_000_003 + i, profile))
    return Campaign(draws)


# ---------------------------------------------------------------------------
# minimization

def _same_class(rows: list[tuple[int, ...]], n_vars: int, target: tuple[str, bool]) -> bool:
    """Whether the formula on ``rows`` has the class ``target``, a pair (scan
    status, oracle satisfiable). The exact search runs only when the scan
    status matches; a formula it cannot decide within its budget is not of
    the class."""
    f = formula(n_vars, rows)
    status, oracle_sat = target
    if scan(f).status != status:
        return False
    try:
        return (find_model(f, DEFAULT_STATE_BUDGET) is not None) == oracle_sat
    except BudgetError:
        return False


def minimize_counterexample(f: Formula) -> Formula:
    """Greedy delta debugging: drop whole clauses, then drop literals from
    3-literal clauses, keeping every step whose scan status and oracle verdict
    both match the input's, so the disagreement keeps its class; repeats to a
    fixpoint. The result is clause-minimal under single drops, among the
    candidates the exact search decides within its budget."""
    rows = list(f.rows)
    target = (scan(f).status, find_model(f, DEFAULT_STATE_BUDGET) is not None)
    if _agrees(*target):
        raise ValueError("input is not a scan/oracle disagreement")

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(rows):
            candidate = rows[:i] + rows[i + 1:]
            if candidate and _same_class(candidate, f.n_vars, target):
                rows = candidate
                changed = True
            else:
                i += 1
        for i, clause in enumerate(rows):
            if len(clause) != 3:
                continue
            for j in range(3):
                shrunk = clause[:j] + clause[j + 1:]
                candidate = rows[:i] + [shrunk] + rows[i + 1:]
                if _same_class(candidate, f.n_vars, target):
                    rows = candidate
                    changed = True
                    break
    return formula(f.n_vars, rows)


# ---------------------------------------------------------------------------
# report emission

def write_discrepancies(report: dict, out_dir: str | Path) -> list[Path]:
    """One X-DIMACS file per minimized disagreement of a
    :func:`differential_corpus` report, plus a JSON sidecar with both
    verdicts and a reproducer command."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for d in report["disagreements"]:
        stem = f"disagreement_{d['instance_id']:05d}"
        small = d["minimized"]
        cnf = out / f"{stem}.cnf"
        cnf.write_text(emit_x1cnf(formula(small["n"], small["clauses"])))
        sidecar = out / f"{stem}.json"
        sidecar.write_text(
            json.dumps(
                {
                    "original": d["formula"],
                    "minimized": small,
                    "scan_status": d["scan_status"],
                    "oracle_status": d["oracle_status"],
                    "class": d["class"],
                    "reproduce": f"x1scan solve --json {cnf.name}",
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        written += [cnf, sidecar]
    return written
