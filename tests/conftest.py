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


@pytest.fixture
def ignore_incompatible(monkeypatch):
    """Plant a defect in the scan loop: every incompatible probe reads as
    not-yet, so no literal is ever discarded by the scope check."""
    real = solver.incompatible

    def probe(state, z, index):
        res = real(state, z, index)
        return NotYet(z, res.built) if isinstance(res, Incompatible) else res

    monkeypatch.setattr(solver, "incompatible", probe)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
        # the size every refactor reports next to its measurements
        src = Path(__file__).resolve().parent.parent / "src"
        lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
        terminalreporter.write_line(f"src/: {lines:,} lines of Python (recorded, not gated)")
