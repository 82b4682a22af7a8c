import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from x1scan import solver
from x1scan.scope import Incompatible, NotYet

# one line per acceptance criterion, shown in the terminal summary
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion():
    def record(name: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


class Planted(NotYet):
    """A not_yet verdict that ``ignore_incompatible`` made up."""


@pytest.fixture
def ignore_incompatible(monkeypatch):
    """Plant a defect in the scan loop: every incompatible probe reads as
    not-yet, so no literal is ever discarded by the scope check. A planted
    verdict is never carried: the carry vouches only for the expansions of
    true not_yet verdicts, which ran to their end with a satisfiable scope."""
    real, real_note = solver.incompatible, solver.CarriedVerdicts.note

    def probe(state, z, index):
        res = real(state, z, index)
        return Planted(z, res.built) if isinstance(res, Incompatible) else res

    def note(carried, res, index):
        if not isinstance(res, Planted):
            real_note(carried, res, index)

    monkeypatch.setattr(solver, "incompatible", probe)
    monkeypatch.setattr(solver.CarriedVerdicts, "note", note)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs this process may run on, as the campaign reads it
    to count its workers; the process's real affinity is left alone."""

    def pin(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    return pin


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
        # the size every refactor reports next to its measurements
        src = Path(__file__).resolve().parent.parent / "src"
        lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
        terminalreporter.write_line(f"src/: {lines:,} lines of Python (recorded, not gated)")
        ms, added = cold_start(src)
        terminalreporter.write_line(
            f"cold start: `import x1scan.cli` in {ms:.1f} ms (median of 5 processes), "
            f"adding {added} modules outside x1scan (recorded, not gated)"
        )
        terminalreporter.write_line(
            f"whole solve: `python -m x1scan.cli solve --json --no-timing` on the golden "
            f"file in {whole_solve(src):.1f} ms, start to exit (median of 5 processes; "
            f"recorded, not gated)"
        )


def _child_env(src: Path) -> dict:
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def cold_start(src: Path) -> tuple[float, int]:
    """Median wall time of 5 fresh interpreters that only import x1scan.cli
    from ``src``, and the number of modules outside x1scan that import adds."""
    env = _child_env(src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import x1scan.cli"], env=env, check=True)
        times.append((time.perf_counter() - t0) * 1000.0)
    count = (
        "import sys; before = set(sys.modules); import x1scan.cli; "
        "print(sum(not m.startswith('x1scan') for m in set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-c", count], env=env, check=True,
                         capture_output=True, text=True).stdout
    return statistics.median(times), int(out)


def whole_solve(src: Path) -> float:
    """Median wall time of 5 fresh `x1scan solve` processes on the golden
    formula, from start to exit, which an import-only probe cannot see: the
    command line, the command and the end of the process are part of it."""
    env = _child_env(src)
    with tempfile.TemporaryDirectory() as tmp:
        golden = Path(tmp) / "golden.cnf"
        golden.write_text("p x1cnf 3 3\n1 -3 0\n1 -2 3 0\n2 -3 0\n")
        argv = [sys.executable, "-m", "x1scan.cli", "solve", "--json", "--no-timing", str(golden)]
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode
            times.append((time.perf_counter() - t0) * 1000.0)
            assert code == 10, f"solve on the golden formula exited {code}"
    return statistics.median(times)
