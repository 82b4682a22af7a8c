"""Introspection helpers for tests: state digests, index rebuilds and
rendering that the package itself never needs."""

import json

from x1scan.formula import Clause, Formula, formula
from x1scan.reduction import SolverState


def clause_by_id(f: Formula, cid: int) -> Clause:
    for c in f.clauses:
        if c.id == cid:
            return c
    raise KeyError(cid)


def rebuild_occurrence(state: SolverState) -> dict[int, list[int]]:
    occ: dict[int, list[int]] = {}
    for k in sorted(state.live):
        for lit in state.live[k]:
            occ.setdefault(lit, []).append(k)
    return occ


def index_consistent(state: SolverState) -> bool:
    stored = {lit: ids for lit, ids in state.occurrence.items() if ids}
    if rebuild_occurrence(state) != stored:
        return False
    return state.three_live == sum(1 for ls in state.live.values() if len(ls) == 3)


def as_formula(state: SolverState) -> Formula:
    """Residues plus conjuncts as a plain formula (ids renumbered); the model
    set matches the state's remaining constraints."""
    rows = [list(ls) for _, ls in sorted(state.live.items()) if ls]
    rows += [[lit] for lit in state.conjunct_order]
    return formula(state.base.n_vars, rows)


def fingerprint(state: SolverState) -> tuple:
    """Stable digest of everything a mutation could touch."""
    return (
        tuple(sorted((k, tuple(ls)) for k, ls in state.live.items())),
        tuple(sorted(state.conjuncts)),
        tuple(sorted(state.live_literals.items())),
        tuple(state.pending.items()),
        state.scan_round,
        state.n_conflict,
    )


def event_lines(state: SolverState) -> str:
    """Event log as JSON lines, one object per event, key-sorted."""
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in state.events)
