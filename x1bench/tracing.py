"""The traced run: the same requests made in-process through
`x1scan.cli.main`, with spans recorded around the package's public functions.

Wrappers are installed from here, by rebinding module attributes, only for
the duration of a traced request; `src/` is not edited and nothing is wrapped
during the end-to-end runs. A wrapped name that does not exist (a refactor
removed or renamed it) is reported as absent and its metrics read 0.

Each span records its name, start, end, parent span and instance id. Spans are
kept in memory, in flat arrays, and written out when the run ends. A span's
self time is its duration minus the durations of its children; the wrapped
functions run one at a time, so children never overlap.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

from e2e import Runner, Tally, more_passes
from workloads import build_pool

# (module, attribute, span name, where). "all": every binding of the function
# in a loaded x1scan module, so `from .x import f` copies are caught too;
# "here": only this module's binding, i.e. calls made from that module.
# Order matters: "oracle.scan" wraps the already wrapped "solver.scan".
WRAPS = (
    ("x1scan.formula", "parse_x1cnf", "formula.parse", "all"),
    ("x1scan.formula", "convert_special", "formula.rewrite", "all"),
    ("x1scan.formula", "conjoin_forced", "formula.rewrite", "all"),
    ("x1scan.reduction", "init_state", "reduction.init", "all"),
    ("x1scan.reduction", "necessary_literals", "reduction.necessary", "all"),
    ("x1scan.reduction", "discard", "reduction.discard", "all"),
    ("x1scan.scope", "incompatible", "scope.probe", "all"),
    ("x1scan.scope", "build_scope", "scope.build", "all"),
    ("x1scan.scope", "clone", "scope.clone", "here"),
    ("x1scan.scope", "xor2sat_satisfiable", "scope.xor", "all"),
    ("x1scan.solver", "scan", "solver.scan", "all"),
    ("x1scan.solver", "verdict_as_dict", "solver.emit", "all"),
    ("x1scan.cli", "json.dumps", "solver.emit", "here"),
    ("x1scan.oracle", "brute_force_sat", "oracle.brute", "all"),
    ("x1scan.oracle", "scan", "oracle.scan", "here"),
    ("x1scan.oracle", "generate_random", "oracle.generate", "all"),
    ("x1scan.oracle", "minimize_counterexample", "oracle.minimize", "all"),
    ("x1scan.oracle", "net_cross_check", "petri.check", "all"),
    ("x1scan.petri", "build_forward_net", "petri.build", "all"),
    ("x1scan.petri", "build_inverse_net", "petri.build", "all"),
    ("x1scan.petri", "target_reachable", "petri.reach", "all"),
)

REQUEST = "request"  # root span: one cli.main call
PROBE_OUTCOMES = ("not_yet", "incompatible_early", "incompatible_xor", "covers")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.instance = array("l")
        self.stack = [-1]
        self.instance_id = -1
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.instance.append(self.instance_id)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, span: str, observe=None):
        nid = self.name_id(span)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(i)
            if observe is not None:
                observe(self.counts, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines: name, start and end in µs from
        the first span, parent index (-1 for a root) and instance id."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            f.write("name\tstart_us\tend_us\tparent\tinstance\n")
            for k in range(len(self.start)):
                f.write(f"{self.names[self.name[k]]}\t{(self.start[k] - t0) * 1e6:.1f}\t"
                        f"{(self.end[k] - t0) * 1e6:.1f}\t{self.parent[k]}\t{self.instance[k]}\n")


# --- observers: counts read off returned objects -------------------------------


def _bump(c: dict, key: str, by: float = 1) -> None:
    c[key] = c.get(key, 0) + by


def _observe_probe(c: dict, res) -> None:
    kind = type(res).__name__
    if kind == "NotYet":
        _bump(c, "scope.probe.not_yet")
    elif kind == "CoversSatisfiable":
        _bump(c, "scope.probe.covers")
    elif kind == "Incompatible":
        reason = getattr(res, "reason", None)
        _bump(c, "scope.probe.incompatible_xor" if reason == "scope_unsat"
              else "scope.probe.incompatible_early")


def _observe_build(c: dict, res) -> None:
    sf = getattr(res, "scope", None)
    if sf is None:
        return
    pairs = len(sf.xor_pairs)
    _bump(c, "scope.units_total", len(sf.units))
    _bump(c, "scope.pairs_total", pairs)
    c["scope.pairs_max"] = max(c.get("scope.pairs_max", 0), pairs)


def _observe_scan(c: dict, res) -> None:
    _bump(c, "solver.verdicts")
    _bump(c, "solver.rounds", getattr(res, "rounds", 0))
    trace = getattr(res, "trace", None) or {}
    for d in trace.get("discards", ()):
        _bump(c, f"solver.discards.{d.get('via')}")
    if trace.get("completion"):
        _bump(c, "solver.completed_verdicts")


OBSERVERS = {"scope.probe": _observe_probe, "scope.build": _observe_build,
             "solver.scan": _observe_scan}


class _ModuleProxy:
    """Stands in for a module held by one x1scan module, overriding one name."""

    def __init__(self, real, name: str, value):
        self._real = real
        setattr(self, name, value)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Wrapping:
    """Installs the wrappers on enter and restores every binding on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def __enter__(self):
        self.absent = []
        modules = {}
        for mod_name in dict.fromkeys(["x1scan.cli"] + [w[0] for w in WRAPS]):
            try:
                modules[mod_name] = importlib.import_module(mod_name)
            except ImportError:
                pass
        for mod_name, attr, span, where in WRAPS:
            mod = modules.get(mod_name)
            if mod is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            holder, _, inner = attr.partition(".")
            orig = getattr(mod, holder, None)
            if inner:
                orig = getattr(orig, inner, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.tracer.wrap(orig, span, OBSERVERS.get(span))
            if inner:
                self._set(mod, holder, _ModuleProxy(getattr(mod, holder), inner, wrapped))
            elif where == "here":
                self._set(mod, attr, wrapped)
            else:
                for m in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "x1scan"]:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, name, wrapped)
        return self

    def _set(self, mod, name: str, value) -> None:
        self.saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def __exit__(self, *exc):
        for mod, name, value in reversed(self.saved):
            setattr(mod, name, value)
        self.saved = []


# --- the traced run -------------------------------------------------------------


class RequestTimeout(BaseException):
    """Raised into a request over its time limit. A BaseException, so that
    the campaign's own `except Exception` cannot swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout


def _call_cli(argv: list[str], limit_s: float) -> tuple[int, bytes, str | None, bytes]:
    """Run `x1scan.cli.main` in-process with its output captured, stopped
    by a timer signal after ``limit_s``. Returns the exit code, standard
    output, what stopped the call if anything, and standard error."""
    import x1scan.cli

    out, err = io.StringIO(), io.StringIO()
    code, crash = -1, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(limit_s, 0.001))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = x1scan.cli.main(argv)
    except RequestTimeout:
        crash = f"stopped after {limit_s:.1f} s"
    except Exception as e:  # a crash is a failed request, not a failed benchmark
        crash = f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue().encode(), crash, err.getvalue().encode()


def _untraced(argv: list[str], limit_s: float) -> float:
    gc.collect()
    t0 = time.perf_counter()
    _call_cli(argv, limit_s)
    return time.perf_counter() - t0


def _pass_metrics(tr: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-span-name totals (ms) and call counts over spans lo..hi-1, plus the
    self time of the scan."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * (hi - lo)
    for k in range(lo, hi):
        d = tr.end[k] - tr.start[k]
        name = tr.names[tr.name[k]]
        total[name] = total.get(name, 0.0) + d * 1000.0
        calls[name] = calls.get(name, 0) + 1
        p = tr.parent[k]
        if p >= lo:
            child[p - lo] += d
    scan_id = tr.ids.get("solver.scan")
    self_ms = sum((tr.end[k] - tr.start[k] - child[k - lo]) * 1000.0
                  for k in range(lo, hi) if tr.name[k] == scan_id)
    out = {f"{name}_ms": v for name, v in total.items()}
    out.update({f"{name}_calls": v for name, v in calls.items()})
    out["solver.self_ms"] = self_ms
    return out


def import_ms(runner: Runner, repeats: int = 5) -> float:
    """Median wall time of a child that only imports x1scan.cli."""
    return statistics.median(
        runner.run([sys.executable, "-c", "import x1scan.cli"], 30.0).wall_s * 1000.0
        for _ in range(repeats)
    )


def measure(w, seed: int, seconds: float, runner: Runner, work: Path, deadline: float) -> dict:
    import x1scan.cli  # noqa: F401  (imported before the first timed call)

    pool = build_pool(w, seed, work)
    tally = Tally()
    tracer = Tracer()
    wrapping = Wrapping(tracer)
    per_pass: list[dict[str, float]] = []
    counts: dict[str, float] = {}  # of the first pass; every pass repeats them
    untraced_s = baseline_traced_s = 0.0
    passes = 0
    complete = True
    t0 = time.perf_counter()
    while complete and more_passes(passes, time.perf_counter() - t0, seconds):
        lo = len(tracer.start)
        tracer.counts = {}
        for i, req in enumerate(pool):
            left = deadline - time.monotonic()
            if left <= 0:
                complete = False
                break
            limit = min(w.time_limit_s, left / 2)
            # the overhead baseline: every other instance also runs untraced,
            # before or after its traced run in turn
            baseline = i % 2 == 0
            untraced_first = baseline and (passes + i) % 4 == 0
            if untraced_first:
                untraced_s += _untraced(req.argv, limit)
            gc.collect()
            tracer.instance_id = i
            with wrapping:
                root = tracer.open(tracer.name_id(REQUEST))
                code, out, crash, err = _call_cli(req.argv, limit)
                tracer.close(root)
            if baseline:
                baseline_traced_s += tracer.end[root] - tracer.start[root]
                if not untraced_first:
                    untraced_s += _untraced(req.argv, limit)
            tally.record(w, req, code, out, crash, err)
        # a pass cut short by the run limit is reported only if it is the first
        if not per_pass:
            counts = dict(tracer.counts)
        if complete or not per_pass:
            per_pass.append(_pass_metrics(tracer, lo, len(tracer.start)))
        passes += complete

    tracer.write(work / f"spans-{w.name}.tsv")
    times = {k: statistics.median(p.get(k, 0.0) for p in per_pass)
             for k in set().union(*per_pass)}
    return {
        "tally": tally,
        "digest": tally.digest(pool),
        "passes": passes,
        "complete": complete,
        "absent": wrapping.absent,
        "spans": len(tracer.start),
        "metrics": layer_metrics(times, counts, import_ms(runner),
                                 baseline_traced_s / untraced_s - 1.0 if untraced_s else 0.0),
    }


def layer_metrics(t: dict[str, float], c: dict[str, float], cli_import_ms: float,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per pass over the workload's pool."""

    def ms(*names: str) -> float:
        return sum(t.get(f"{n}_ms", 0.0) for n in names)

    def n(name: str) -> int:
        return int(t.get(f"{name}_calls", 0))

    probes = n("scope.probe")
    useful = probes - c.get("scope.probe.not_yet", 0)
    verdicts = c.get("solver.verdicts", 0)
    inproc = ms(REQUEST)

    def share(x: float) -> float:
        return x / inproc if inproc else 0.0

    m = {
        "cli.import_ms": (cli_import_ms, "ms"),
        "formula.parse_ms": (ms("formula.parse"), "ms"),
        "formula.rewrite_ms": (ms("formula.rewrite"), "ms"),
        "reduction.init_ms": (ms("reduction.init"), "ms"),
        "reduction.necessary_ms": (ms("reduction.necessary"), "ms"),
        "reduction.necessary_calls": (n("reduction.necessary"), "count"),
        "reduction.discard_ms": (ms("reduction.discard"), "ms"),
        "reduction.discard_calls": (n("reduction.discard"), "count"),
        "scope.probe_calls": (probes, "count"),
        "scope.probe_ms": (ms("scope.probe"), "ms"),
        "scope.probe_mean_us": (ms("scope.probe") * 1000.0 / probes if probes else 0.0, "us"),
        "scope.build_ms": (ms("scope.build"), "ms"),
        "scope.clone_ms": (ms("scope.clone"), "ms"),
        "scope.xor_ms": (ms("scope.xor"), "ms"),
    }
    for k in PROBE_OUTCOMES:
        m[f"scope.probe.{k}"] = (c.get(f"scope.probe.{k}", 0), "count")
    m.update({
        "scope.useful_ratio": (useful / probes if probes else 0.0, "ratio"),
        "scope.units_total": (c.get("scope.units_total", 0), "count"),
        "scope.pairs_total": (c.get("scope.pairs_total", 0), "count"),
        "scope.pairs_max": (c.get("scope.pairs_max", 0), "count"),
        "solver.scan_ms": (ms("solver.scan"), "ms"),
        "solver.self_ms": (t.get("solver.self_ms", 0.0), "ms"),
        "solver.rounds": (c.get("solver.rounds", 0), "count"),
        "solver.discards.necessary": (c.get("solver.discards.necessary", 0), "count"),
        "solver.discards.incompatible": (c.get("solver.discards.incompatible", 0), "count"),
        "solver.discards.completion": (c.get("solver.discards.completion", 0), "count"),
        "solver.completion_share": (c.get("solver.completed_verdicts", 0) / verdicts
                                    if verdicts else 0.0, "ratio"),
        "solver.emit_ms": (ms("solver.emit"), "ms"),
        "oracle.brute_calls": (n("oracle.brute"), "count"),
        "oracle.brute_ms": (ms("oracle.brute"), "ms"),
        "oracle.scan_calls": (n("oracle.scan"), "count"),
        "oracle.scan_ms": (ms("oracle.scan"), "ms"),
        "oracle.generate_ms": (ms("oracle.generate"), "ms"),
        "oracle.minimize_calls": (n("oracle.minimize"), "count"),
        "oracle.minimize_ms": (ms("oracle.minimize"), "ms"),
        "petri.checks": (n("petri.check"), "count"),
        "petri.build_ms": (ms("petri.build"), "ms"),
        "petri.reach_ms": (ms("petri.reach"), "ms"),
        "trace.overhead_share": (overhead, "ratio"),
        "trace.inproc_ms": (inproc, "ms"),
        "split.probe_share": (share(ms("scope.probe")), "ratio"),
        "split.frontend_share": (share(ms("formula.parse", "formula.rewrite", "reduction.init")),
                                 "ratio"),
        "split.brute_share": (share(ms("oracle.brute")), "ratio"),
        "split.oracle_scan_share": (share(ms("oracle.scan")), "ratio"),
    })
    return m


# The split each workload was built for: (metric, at least, at most).
SPLITS = {
    "underconstrained": (("split.probe_share", 0.90, None),),
    "overconstrained": (("split.probe_share", None, 0.20), ("split.frontend_share", 0.50, None)),
    "campaign": (("split.brute_share", 0.20, None), ("split.oracle_scan_share", 0.20, None)),
}


def split_lines(workload: str, metrics: dict) -> list[str]:
    lines = []
    for name, lo, hi in SPLITS.get(workload, ()):
        v = metrics[name][0]
        holds = (lo is None or v >= lo) and (hi is None or v <= hi)
        bound = f">= {lo:.0%}" if lo is not None else f"<= {hi:.0%}"
        lines.append(f"split {workload}: {name} = {v:.1%} of in-process time "
                     f"(built for {bound}): {'holds' if holds else 'DOES NOT HOLD'}")
    return lines
