"""The scan loop: repeated necessary-literal discards and incompatibility
checks until a verdict falls out.

Each pass picks one literal to discard and the loop discards it in one place.
First come necessary literals: input unit clauses, and units that emerged from
a clause during an earlier discard, still awaiting their own discard; the
opposite polarity is discarded, one at a time with a full restart after each.
With none left, the pass probes every still-open literal (ascending variable,
positive polarity first) with the scope check, all against the one pair
index the pass builds. An incompatible literal is discarded and the round
restarts; a covering satisfiable scope ends the run with its model. A full
pass with neither means the procedure claims satisfiability. At that point
any variable still open in a live clause is settled by a documented
completion rule: pick its positive polarity (the pass just found both
polarities inconclusive) and discard the negative one. Every completion pick
taints the run: from then on a contradiction no longer proves
unsatisfiability and is reported as claimed_sat_unverified instead.

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

import random
from dataclasses import dataclass

from .formula import (
    ConversionUnsat,
    Formula,
    convert_special,
    failed_clauses,
    negate,
    var_of,
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


@dataclass
class ScanOptions:
    order: str = "fixed"  # "fixed" | "random" (seeded shuffle of the check list)
    seed: int | None = None
    trace_checks: bool = False  # keep a scope dump per incompatibility check


@dataclass
class Verdict:
    status: str  # "sat" | "unsat" | "claimed_sat_unverified"
    assignment: dict[int, bool] | None
    rounds: int
    trace: dict
    verification: dict | None  # {"passed": bool, "failed": [clause ids]}


def extract_assignment(state: SolverState, base: dict[int, bool] | None = None) -> dict[int, bool]:
    """Read the assignment off the state: variables in ``base`` (a covering
    scope's model) keep its value, settled variables take their single
    eligible polarity, and everything else reads false. This is the only
    place that completes a model."""
    a = dict(base) if base else {}
    for v in range(1, state.base.n_vars + 1):
        if v in a:
            continue
        pols = state.live_literals[v]
        a[v] = pols[0] > 0 if len(pols) == 1 else False
    return a


def scan(f: Formula, opts: ScanOptions | None = None) -> Verdict:
    opts = opts or ScanOptions()
    trace: dict = {
        "conversion": None,
        "events": [],
        "discards": [],
        "scopes": [],
        "completion": [],
    }

    try:
        conv = convert_special(f)
    except ConversionUnsat as e:
        trace["conversion"] = {
            "forced": [], "removed_clauses": [], "contradiction_var": e.var
        }
        return Verdict("unsat", None, 0, trace, None)
    if conv.removed_clauses:  # the input was special
        trace["conversion"] = {
            "forced": list(conv.forced),
            "removed_clauses": list(conv.removed_clauses),
            "contradiction_var": None,
        }

    state = init_state(conv.formula)
    rng = random.Random(opts.seed)
    tainted = False

    def verdict(status: str, assignment: dict[int, bool] | None,
                verification: dict | None) -> Verdict:
        trace["events"] = list(state.events)
        assert state.scan_round <= f.n_vars + 1, "more discards than variables"
        return Verdict(status, assignment, state.scan_round, trace, verification)

    def finish_sat(assignment: dict[int, bool]) -> Verdict:
        failed = failed_clauses(f, assignment)
        status = "claimed_sat_unverified" if failed else "sat"
        return verdict(status, assignment, {"passed": not failed, "failed": failed})

    # every pass returns or discards a literal of an open variable, and the
    # discard settles it: at most n discards (verdict() asserts it), n + 1 passes
    while True:
        nec = necessary_literals(state)
        if nec:
            lit, source = nec[0]
            z, via = negate(lit), "necessary"
        else:
            zs = [
                z
                for v in sorted(state.live_literals)
                if len(state.live_literals[v]) == 2
                for z in state.live_literals[v]
            ]
            if opts.order == "random":
                rng.shuffle(zs)

            res = None
            # one pair index per pass, shared by its probes; a pass with no
            # open literal probes nothing and builds none
            index = PairIndex(state) if zs else None
            for z in zs:
                res = incompatible(state, z, index)
                if opts.trace_checks:
                    trace["scopes"].append(scope_as_dict(res.built, z, _check_name(res)))
                if not isinstance(res, NotYet):
                    break

            if isinstance(res, CoversSatisfiable):
                return finish_sat(extract_assignment(state, base=res.model))
            if isinstance(res, Incompatible):  # the probe loop stopped at z
                via, source = "incompatible", None
            else:
                v = min(
                    (
                        var_of(l)
                        for ls in state.live.values()
                        for l in ls
                        if len(state.live_literals[var_of(l)]) == 2
                    ),
                    default=None,
                )
                if v is None:
                    assert state.n_conflict is None, "unreported conjunct contradiction"
                    return finish_sat(extract_assignment(state))
                picked = state.live_literals[v][0]  # positive polarity
                tainted = True
                trace["completion"].append({"var": v, "picked": picked})
                z, via, source = negate(picked), "completion", None

        trace["discards"].append(
            {"round": state.scan_round, "literal": z, "via": via, "source_clause": source}
        )
        if discard(state, z) is not None:
            return verdict("claimed_sat_unverified" if tainted else "unsat", None, None)


def _check_name(res) -> str:
    if isinstance(res, Incompatible):
        return "incompatible"
    if isinstance(res, NotYet):
        return "not_yet"
    return "covers_satisfiable"


def verdict_as_dict(v: Verdict, include_trace: bool = True) -> dict:
    """JSON-ready verdict; assignment rendered as sorted signed literals."""
    assignment = None
    if v.assignment is not None:
        assignment = [var if val else -var for var, val in sorted(v.assignment.items())]
    out = {
        "status": v.status,
        "assignment": assignment,
        "rounds": v.rounds,
        "verification": v.verification,
    }
    if include_trace:
        out["trace"] = v.trace
    return out
