"""The scan loop: repeated necessary-literal discards and incompatibility
checks until a verdict falls out.

Each pass picks one literal to discard and the loop discards it in one place.
First come necessary literals: input unit clauses, and units that emerged from
a clause during an earlier discard, still awaiting their own discard; the
opposite polarity is discarded, one at a time with a full restart after each.
With none left, the pass probes both literals of each open variable, one that
occurs in a live clause (ascending variable, positive polarity first), with
the scope check, all against the one pair index the pass builds. A variable of
no live clause is never probed, discarded or completed: unless already
settled, it reads false in the model. A literal whose ``not_yet`` verdict
provably holds, from an earlier pass or from the expansion of a ``not_yet``
probe, is skipped (``CarriedVerdicts``); that changes no verdict, only which
probes run. An incompatible literal is
discarded and the round restarts; a covering satisfiable scope ends the run
with its model. A full pass with neither means the procedure claims
satisfiability. At that point the least open variable is settled by a
documented completion rule: pick its positive polarity (the pass just found
both polarities inconclusive) and discard the negative one. With no open
variable left, the model is read off the state. Every completion pick taints
the run: from then on a contradiction no longer proves unsatisfiability and is
reported as claimed_sat_unverified instead.

``scans`` runs several check orders of one formula as one walk: orders that
have discarded the same literals share the state and each pass's probes, and
the state is copied only where they part. ``scan`` is a group of one order.

Verdict statuses:

* sat                     - assignment produced and verified clause by clause;
* unsat                   - a discard derived both polarities of some variable
                            before any completion pick;
* claimed_sat_unverified  - the procedure claimed satisfiability but the
                            assignment failed verification (kept verbatim as
                            evidence), or a tainted run dead-ended.

Verification always runs against the formula as given, before the rewrite of
both-polarity clauses.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import KeysView

from .formula import (
    Formula,
    Record,
    convert_special,
    failed_clauses,
)
from .reduction import (
    SolverState,
    discard,
    init_state,
    necessary_literals,
)
from .scope import (
    CoversSatisfiable,
    Incompatible,
    NotYet,
    PairIndex,
    incompatible,
    scope_as_dict,
)


class Verdict(Record):
    def __init__(self, status: str, assignment: list[int] | None, rounds: int,
                 trace: dict, verification: dict | None) -> None:
        self.status = status  # "sat" | "unsat" | "claimed_sat_unverified"
        self.assignment = assignment  # true literals in variable order
        self.rounds = rounds
        self.trace = trace
        self.verification = verification  # {"passed": bool, "failed": [clause ids]}


def extract_assignment(state: SolverState, base: dict[int, bool] | None = None) -> list[int]:
    """Read the assignment off the state, as its true literals in variable
    order: variables in ``base`` (a covering scope's model) keep its value,
    settled variables take their single eligible polarity, and everything
    else reads false. This is the only place that completes a model."""
    a = list(range(-1, -state.base.n_vars - 1, -1))
    for v, pols in state.live_literals.items():
        if len(pols) == 1 and pols[0] > 0:
            a[v - 1] = v
    for v, value in (base or {}).items():
        a[v - 1] = v if value else -v
    return a


class CarriedVerdicts:
    """The ``not_yet`` verdicts a scan carries from pass to pass, each kept
    while it provably still holds.

    A ``not_yet`` for z, made at state S against its pair index I, holds at a
    later state S' (z open, pair index I') if all three of these hold:

    (a) no clause in ``built.touched`` changed since S. Occurrence lists only
        shrink and an emptied clause never changes, so the expansion at S' is
        the one made at S;
    (b) ``len(I'.threes)`` exceeds the 3-literal residues the expansion
        consumed, so it ends as it did, with residue left;
    (c) I' is consistent and no variable of E or of the probe's new pairs
        shares an I' component with a pair added since S (a clause that went
        from 3 to 2 literals and is still a pair). Dropping a base pair only
        removes constraints, and a component with an added pair but no probe
        variable is disjoint from the probe's constraints.

    A verdict vouches for its whole expansion E, not z alone. A ``not_yet``
    expansion ran to its end (it has residue left), and then every literal a
    of E is ``not_yet`` in the same state: a's expansion is a part of z's
    (E(a) is a subset of E(z), so it has no early conflict), it consumes no
    more 3-literal residues than z's did, so residue is left, and each pair it
    makes either survives in z's scope or was settled there by two units of
    E(z), so a model of z's scope is one of a's. While (a)-(c) keep z's
    verdict, z's expansion at S' is the one made at S and ran to its end, so
    the same holds there: the literals of E are carried with z, under its
    serial number, and dropped with it.

    ``begin_pass`` applies all three at the start of each probing pass. The
    state's event log names every clause a discard changes, so (a) reads the
    clauses logged since the previous probing pass, and (c) those of them
    that are pairs now, which went from 3 to 2 literals. (c) needs no older
    pairs: on a path of pairs from a probe variable to an older added pair,
    the first added pair q is joined to the variable by pairs that were
    already there, so the first pass after q was added found them in one
    component. For the variables of E, (c) follows from (a): every literal of
    a ``not_yet`` expansion was expanded, so each pair on a variable of E
    joins it to another variable of E, and a clause that turns into a pair on
    one was read by the expansion. So (c) files only the literals of the new
    pairs. Each verdict is filed under every clause it read, those literals
    and the residues it consumed, so applying a rule costs what changed, not
    what is carried."""

    def __init__(self) -> None:
        # literal -> serial number of the verdict that holds it, and serial
        # -> the literals it holds, while it holds: a literal is filed under
        # one serial at a time. The indexes below file serials, so a verdict
        # keeps no scope alive
        self.kept: dict[int, int] = {}
        self.filed: dict[int, list[int]] = {}
        self.serial = 0
        self.by_clause: defaultdict[int, list[int]] = defaultdict(list)
        self.by_literal: defaultdict[int, list[int]] = defaultdict(list)
        self.by_consumed: defaultdict[int, list[int]] = defaultdict(list)
        self.read = 0  # events of the state's log that begin_pass has read

    def _drop(self, serials: list[int]) -> None:
        kept, filed = self.kept, self.filed
        for serial in serials:
            for z in filed.pop(serial, ()):
                del kept[z]

    def note(self, res: NotYet, index: PairIndex) -> None:
        """Carry ``res`` and, with it, every literal of its expansion not
        already carried. ``res`` is a verdict of ``incompatible``, so its
        expansion is a ``Built`` with residue left."""
        built = res.built
        self.serial += 1
        serial = self.serial
        kept = self.kept
        filed = [a for a in built.units if a not in kept]
        for a in filed:
            kept[a] = serial
        self.filed[serial] = filed
        self.by_consumed[len(index.threes) - built.three_left].append(serial)
        by_clause, by_literal = self.by_clause, self.by_literal
        for k, ls in built.touched.items():
            by_clause[k].append(serial)
            if len(ls) == 2:
                by_literal[ls[0]].append(serial)
                by_literal[ls[1]].append(serial)

    def begin_pass(self, state: SolverState, index: PairIndex) -> KeysView[int]:
        """Start a probing pass on ``index``; returns the literals whose
        carried verdicts hold in it."""
        start, self.read = self.read, len(state.events)
        if not index.consistent:  # no probe of this pass can be not_yet
            self.kept.clear()
            self.filed.clear()
        if not self.kept:
            return self.kept.keys()
        changed = {e["clause"] for e in state.events[start:]
                   if e["kind"] in ("clause_to_conjunction", "two_to_unit", "three_to_two")}
        by_clause = self.by_clause
        for k in changed:
            if k in by_clause:
                self._drop(by_clause.pop(k))
        rp = index.root_parity
        roots = {
            rp[abs(l)][0]
            for k in changed
            if len(state.live[k]) == 2
            for l in state.live[k]
        }
        if roots:
            for v, (r, _) in rp.items():
                if r in roots:
                    self._drop(self.by_literal.pop(v, []))
                    self._drop(self.by_literal.pop(-v, []))
        threes = len(index.threes)
        for consumed in [c for c in self.by_consumed if c >= threes]:
            self._drop(self.by_consumed.pop(consumed))
        return self.kept.keys()


class _Order:
    """One check order's own part of a group scan (see ``scans``): its
    shuffle, its taint, its trace and, once it ends, its verdict."""

    def __init__(self, seed: int | None) -> None:
        # a fixed order draws nothing, so it seeds no generator and a run
        # of fixed orders alone never imports random
        self.rng = None
        if seed is not None:
            from random import Random

            self.rng = Random(seed)
        self.tainted = False
        self.trace: dict = {
            "conversion": None,
            "events": [],
            "discards": [],
            "scopes": [],
            "completion": [],
        }
        self.verdict: Verdict | None = None

    def end(self, f: Formula, state: SolverState, status: str,
            assignment: list[int] | None = None, verification: dict | None = None) -> None:
        self.trace["events"] = list(state.events)
        assert state.scan_round <= f.n_vars + 1, "more discards than variables"
        self.verdict = Verdict(status, assignment, state.scan_round, self.trace, verification)

    def end_sat(self, f: Formula, state: SolverState, assignment: list[int]) -> None:
        failed = failed_clauses(f, assignment)
        self.end(f, state, "claimed_sat_unverified" if failed else "sat", assignment,
                 {"passed": not failed, "failed": failed})

    def log_discard(self, state: SolverState, z: int, via: str, source: int | None) -> None:
        self.trace["discards"].append(
            {"round": state.scan_round, "literal": z, "via": via, "source_clause": source}
        )


def scan(f: Formula, seed: int | None = None, dumps: bool = False) -> Verdict:
    """Scan ``f`` in one check order: fixed, or shuffled by ``seed``."""
    return scans(f, [seed], dumps)[0]


def scans(f: Formula, seeds: list[int | None], dumps: bool = False) -> list[Verdict]:
    """Scan ``f`` once per check order, all of them in one depth-first walk.
    Each entry of ``seeds`` names an order: None the fixed one, an int a
    shuffle by ``random.Random(seed)``. The verdicts come in the order of
    ``seeds``, each the one its order gives alone; with ``dumps`` each order
    keeps a scope dump per probe it read, and only those can differ (see
    ``_pass``).

    Orders that have discarded the same literals form a group: they share one
    state and its carried verdicts, and each pass probes a literal at most
    once for the whole group. Where the orders of a group discard different
    literals, it splits, and each new group but the first goes on from a copy
    of the state with no carried verdicts: those decide only which probes
    run, never a verdict."""
    runs = [_Order(seed) for seed in seeds]
    conv = convert_special(f)
    conversion = conv.trace_entry()
    for run in runs:
        run.trace["conversion"] = conversion
    if conv.formula is None:
        return [Verdict("unsat", None, 0, run.trace, None) for run in runs]

    # a group: its state, its carried verdicts, its orders and the literal
    # they discard next (None before the first pass)
    groups = [(init_state(conv.formula), CarriedVerdicts(), runs, None)]
    while groups:
        state, carried, group, z = groups.pop()
        # every pass ends an order or discards a literal of an open variable,
        # and the discard settles it: at most n discards (end() asserts it),
        # n + 1 passes
        while group:
            if z is not None and discard(state, z) is not None:
                for run in group:
                    run.end(f, state, "claimed_sat_unverified" if run.tainted else "unsat")
                break
            picks = _pass(f, state, carried, group, dumps)
            if not picks:
                break
            (z, group), *rest = picks.items()
            groups += [(state.copy(), CarriedVerdicts(), g, lit) for lit, g in rest]
    return [run.verdict for run in runs]


def _pass(f: Formula, state: SolverState, carried: CarriedVerdicts,
          group: list[_Order], dumps: bool) -> dict[int, list[_Order]]:
    """One pass for the orders of ``group``, which share ``state``: ends each
    order the pass decides, and returns for the others each literal to
    discard next with the orders that discard it, first picks first.

    A probing pass probes a literal once for the group; each order then reads
    the probes in its own order, up to the first decisive one. An order's
    scope dumps list the probes it read, so a literal that the group's
    carried verdicts hold, where alone the order would have probed it, has
    no entry."""
    nec = necessary_literals(state)
    if nec is not None:
        lit, source = nec
        for run in group:
            run.log_discard(state, -lit, "necessary", source)
        return {-lit: group}
    # the open variables: those of the live clauses, read off the occurrence
    # index (k is in occurrence[l] exactly when l is in live[k]); discard
    # strips its variable from every live clause, so each of them has both
    # polarities eligible
    open_vars = sorted({abs(l) for l, ks in state.occurrence.items() if ks})
    if not open_vars:
        assert state.n_conflict is None, "unreported conjunct contradiction"
        for run in group:
            run.end_sat(f, state, extract_assignment(state))
        return {}
    zs = [z for v in open_vars for z in (v, -v)]
    index = PairIndex(state)  # one per pass, shared by its probes
    held = carried.begin_pass(state, index)
    # literal -> (its verdict, None for not_yet, and its scope dump if the
    # orders keep them); a not_yet keeps no scope alive past its probe
    probed: dict[int, tuple] = {}
    picks: dict[int, list[_Order]] = {}
    for run in group:
        order = zs
        if run.rng is not None:
            order = zs.copy()
            run.rng.shuffle(order)
        res = None
        for z in order:
            hit = probed.get(z)
            if hit is None:
                if z in held:
                    continue
                res = incompatible(state, z, index)
                dump = scope_as_dict(res.built, z, res.trace_name) if dumps else None
                if isinstance(res, NotYet):
                    carried.note(res, index)
                    res = None
                hit = probed[z] = (res, dump)
            res, dump = hit
            if dumps:
                run.trace["scopes"].append(dump)
            if res is not None:
                break

        if isinstance(res, CoversSatisfiable):
            run.end_sat(f, state, extract_assignment(state, base=res.model))
            continue
        if isinstance(res, Incompatible):  # the order stopped at z
            via = "incompatible"
        else:
            v = open_vars[0]
            run.tainted = True
            run.trace["completion"].append({"var": v, "picked": v})
            z, via = -v, "completion"
        run.log_discard(state, z, via, None)
        picks.setdefault(z, []).append(run)
    return picks


def verdict_as_dict(v: Verdict, include_trace: bool = True) -> dict:
    """JSON-ready verdict."""
    out = {
        "status": v.status,
        "assignment": v.assignment,
        "rounds": v.rounds,
        "verification": v.verification,
    }
    if include_trace:
        out["trace"] = v.trace
    return out
