"""Introspection helpers for tests: state digests, index rebuilds and
rendering that the package itself never needs, plus the reference probe that
the package's incompatibility check is compared against."""

import json
from dataclasses import dataclass

from x1scan.formula import Clause, Formula, formula, negate, var_of
from x1scan.reduction import SolverState, reduce_on_false, reduce_on_true
from x1scan.scope import (
    CoversSatisfiable,
    EarlyConflict,
    Incompatible,
    NotYet,
    ScopeFormula,
    XorUnsat,
    xor2sat_satisfiable,
)


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
    return rebuild_occurrence(state) == stored


def as_formula(state: SolverState) -> Formula:
    """Residues plus conjuncts as a plain formula (ids renumbered); the model
    set matches the state's remaining constraints."""
    rows = [list(ls) for _, ls in sorted(state.live.items()) if ls]
    rows += [[lit] for lit in sorted(state.conjuncts)]
    return formula(state.base.n_vars, rows)


def open_literals(state: SolverState) -> list[int]:
    """Literals of the variables with both polarities still eligible."""
    return [
        lit
        for v in sorted(state.live_literals)
        if len(state.live_literals[v]) == 2
        for lit in state.live_literals[v]
    ]


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


def full_fingerprint(state: SolverState) -> tuple:
    """``fingerprint`` plus the occurrence index and the event log."""
    return (
        fingerprint(state),
        tuple(sorted((lit, tuple(ids)) for lit, ids in state.occurrence.items())),
        event_lines(state),
    )


# --- reference probe: expansion on a full copy, XOR decision over every pair ----


def clone(state: SolverState) -> SolverState:
    """Independent copy; scratch mutations never touch the original."""
    return SolverState(
        base=state.base,
        live={k: list(ls) for k, ls in state.live.items()},
        occurrence={lit: list(ids) for lit, ids in state.occurrence.items()},
        live_literals=dict(state.live_literals),
        conjuncts=set(state.conjuncts),
        pending=dict(state.pending),
        scan_round=state.scan_round,
        n_conflict=state.n_conflict,
        events=list(state.events),
    )


@dataclass(frozen=True)
class ReferenceBuilt:
    scope: ScopeFormula
    residual3: tuple[int, ...]


def reference_build_scope(state: SolverState, z_v: int) -> ReferenceBuilt | EarlyConflict:
    """Scope expansion run by the reduction engine itself on a scratch copy."""
    scratch = clone(state)
    e_order: list[int] = [z_v]
    e_set: set[int] = {z_v}
    conflict_var: int | None = None

    def add(lit: int) -> bool:
        nonlocal conflict_var
        if lit in e_set:
            return True
        e_set.add(lit)
        e_order.append(lit)
        if negate(lit) in e_set:
            conflict_var = var_of(lit)
            return False
        return True

    pos = 0
    while any(len(ls) == 3 for ls in scratch.live.values()) and pos < len(e_order):
        z_j = e_order[pos]
        for lit, _k in reduce_on_true(scratch, z_j):
            if not add(lit):
                return EarlyConflict(conflict_var, tuple(e_order))
        for lit, _k in reduce_on_false(scratch, negate(z_j)):
            if not add(lit):
                return EarlyConflict(conflict_var, tuple(e_order))
        pos += 1

    pairs: list[tuple[int, int]] = []
    residual3: list[int] = []
    for k in sorted(scratch.live):
        ls = scratch.live[k]
        if len(ls) == 2:
            pairs.append((ls[0], ls[1]))
        elif len(ls) == 3:
            residual3.append(k)
    return ReferenceBuilt(
        ScopeFormula(tuple(e_order), tuple(pairs), tuple(e_order[:pos])),
        tuple(residual3),
    )


def reference_incompatible(state: SolverState, z_v: int):
    """The incompatibility check with every scope decided in full."""
    res = reference_build_scope(state, z_v)
    if isinstance(res, EarlyConflict):
        return Incompatible(z_v, "early_conflict", (res.var,), res)
    verdict = xor2sat_satisfiable(res.scope)
    if isinstance(verdict, XorUnsat):
        return Incompatible(z_v, "scope_unsat", verdict.witness, res)
    if res.residual3:
        return NotYet(z_v, res)
    model = dict(verdict.model)
    for v in range(1, state.base.n_vars + 1):
        if v in model:
            continue
        pols = state.live_literals[v]
        if len(pols) == 1:
            model[v] = pols[0] > 0
        elif v in state.conjuncts:
            model[v] = True
        elif -v in state.conjuncts:
            model[v] = False
    return CoversSatisfiable(z_v, model, res)
