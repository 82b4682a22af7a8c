"""Reduction engine: the solver's mutable view of the current formula.

The scan procedure never rewrites Formula objects. It works on a SolverState
holding, per clause, the *live* literal list (shrinking as literals are ruled
out, emptying once the clause's content has been absorbed into fixed
conjuncts), plus:

* an occurrence index, literal -> sorted clause ids currently containing it;
* per variable the clauses mention, which polarities are still eligible
  (both at the start, one after the other was discarded); a variable of no
  clause has no entry, so the state is sized by the clauses, not by n;
* the conjunct set N of literals fixed true (the ``conjunct_added`` events
  record the order they joined in);
* a pending map, conjunct -> clause id it emerged from, in insertion order.
  Input unit clauses enter first, in clause order; a unit clause, input or
  emerged, is emptied, so the pending map is the only record of the "sole
  member of clause k" fact that the necessary-literal rule reads. That rule
  drops the leading entries whose variable is already settled.

Every live clause is therefore empty or holds two or three literals.

All iteration orders are deterministic (ascending clause ids, literal order
within a clause), so event logs and traces are reproducible byte for byte.
Every change to a clause is logged with its id, as ``clause_to_conjunction``,
``two_to_unit`` or ``three_to_two``; the scan's carried verdicts read them.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from .formula import Formula, Record


class ReductionError(ValueError):
    """State misuse: special input, double discard, unknown literal."""


class SolverState(Record):
    def __init__(self, base: Formula, live: dict[int, list[int]],
                 occurrence: dict[int, list[int]], live_literals: dict[int, tuple[int, ...]],
                 conjuncts: set[int], pending: OrderedDict[int, int], scan_round: int = 1,
                 n_conflict: int | None = None, events: list[dict] | None = None) -> None:
        self.base = base
        self.live = live  # ascending clause id -> live literals ([] once absorbed)
        self.occurrence = occurrence  # literal -> sorted ids of clauses holding it
        self.live_literals = live_literals  # var of a clause -> eligible polarities
        self.conjuncts = conjuncts  # N
        self.pending = pending  # emerged conjunct -> source clause id
        self.scan_round = scan_round
        self.n_conflict = n_conflict  # var with both polarities in N, once seen
        self.events = [] if events is None else events

    def copy(self) -> SolverState:
        """An independent copy: discards on either leave the other as it was."""
        return SolverState(
            base=self.base,
            live={k: list(ls) for k, ls in self.live.items()},
            occurrence={lit: list(ids) for lit, ids in self.occurrence.items()},
            live_literals=dict(self.live_literals),
            conjuncts=set(self.conjuncts),
            pending=OrderedDict(self.pending),
            scan_round=self.scan_round,
            n_conflict=self.n_conflict,
            events=list(self.events),
        )

    def log(self, kind: str, clause: int | None, literals: list[int]) -> None:
        self.events.append(
            {"round": self.scan_round, "kind": kind, "clause": clause,
             "literals": list(literals)}
        )


def init_state(f: Formula) -> SolverState:
    if f.special:
        raise ReductionError(
            f"reduction needs a general formula; special witnesses: {f.special}"
        )
    ids, rows = f.ids, f.rows
    occurrence: defaultdict[int, list[int]] = defaultdict(list)  # ids ascend, as the rows do
    for k, lits in zip(ids, rows):
        for lit in lits:
            occurrence[lit].append(k)
    state = SolverState(
        base=f,
        live=dict(zip(ids, map(list, rows))),
        occurrence=dict(occurrence),
        live_literals={v: (v, -v) for v in sorted(set(map(abs, occurrence)))},
        conjuncts=set(),
        pending=OrderedDict(),
    )
    for k, lits in zip(ids, rows):
        if len(lits) == 1:
            _add_conjunct(state, lits[0], source=k)
            _empty_clause(state, k)
    return state


def _empty_clause(state: SolverState, k: int) -> None:
    for lit in state.live[k]:
        state.occurrence[lit].remove(k)
    state.live[k] = []


def _add_conjunct(state: SolverState, lit: int, source: int | None) -> None:
    if lit in state.conjuncts:
        return
    if -lit in state.conjuncts and state.n_conflict is None:
        state.n_conflict = abs(lit)
    state.conjuncts.add(lit)
    if source is not None:
        state.pending.setdefault(lit, source)
    state.log("conjunct_added", source, [lit])


def reduce_on_true(state: SolverState, z: int) -> list[tuple[int, int]]:
    """Absorb every clause containing ``z`` (held true): its other literals
    are all false. Returns the emerged conjuncts as (literal, source clause)."""
    emerged: list[tuple[int, int]] = []
    for k in list(state.occurrence.get(z, ())):
        others = [l for l in state.live[k] if l != z]
        state.log("clause_to_conjunction", k, [-l for l in others])
        _empty_clause(state, k)
        emerged.extend((-l, k) for l in others)
    return emerged


def reduce_on_false(state: SolverState, z: int) -> list[tuple[int, int]]:
    """Delete ``z`` (held false) from every residue containing it. A residue
    shrinking to a single literal empties and emerges that literal."""
    emerged: list[tuple[int, int]] = []
    for k in list(state.occurrence.get(z, ())):
        state.live[k].remove(z)
        state.occurrence[z].remove(k)
        rest = state.live[k]
        if len(rest) == 1:
            u = rest[0]
            state.log("two_to_unit", k, [u])
            _empty_clause(state, k)
            emerged.append((u, k))
        else:
            state.log("three_to_two", k, [z])
    return emerged


def discard(state: SolverState, z_v: int) -> int | None:
    """Rule literal ``z_v`` out. Returns the conflicting variable when the
    conjunct set gains both polarities of some variable (input unsatisfiable),
    else None. One discard per variable: afterwards only ``-z_v`` is eligible.

    Fixed step order: -z_v joins N; clauses containing -z_v collapse to
    conjuncts; polarity-pair check on N; z_v is deleted from the remaining
    residues (units emerging there join N unchecked -- the next discard's pair
    check catches any contradiction before an assignment can be extracted);
    the variable's eligible polarities shrink to -z_v; the round counter bumps.
    """
    v = abs(z_v)
    if v not in state.live_literals:
        raise ReductionError(f"unknown variable {v}")
    if z_v not in state.live_literals[v]:
        raise ReductionError(f"literal {z_v} already discarded")
    _add_conjunct(state, -z_v, source=None)
    for lit, k in reduce_on_true(state, -z_v):
        _add_conjunct(state, lit, source=k)
    if state.n_conflict is not None:
        return state.n_conflict
    for lit, k in reduce_on_false(state, z_v):
        _add_conjunct(state, lit, source=k)
    state.live_literals[v] = (-z_v,)
    state.log("literal_discarded", None, [z_v])
    state.scan_round += 1
    # units emerging in the deletion phase can complete a polarity pair in N;
    # report it now rather than leaving it for the next discard's check
    return state.n_conflict


def necessary_literals(state: SolverState) -> tuple[int, int] | None:
    """The next literal that must hold: the first pending conjunct, in the
    order they entered, whose variable still has both polarities eligible,
    with the clause it came from; None when there is none. Pending conjuncts
    are the input unit clauses (entered first, in clause order) and the units
    that emerged from clauses during discards.

    A settled variable never reopens, so the settled entries ahead of the
    first open one are dropped from ``pending`` for good: over a whole scan the
    rule's work is linear in the number of pending entries."""
    pending = state.pending
    while pending:
        lit, k = next(iter(pending.items()))
        if len(state.live_literals[abs(lit)]) == 2:
            return lit, k
        pending.popitem(last=False)
    return None
