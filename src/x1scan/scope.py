"""Incompatibility checking: scope construction plus its XOR-SAT decision.

To probe whether a literal z can still be part of a satisfying assignment, the
check assumes z true and follows the forced consequences on a scratch copy of
the solver state: clauses containing a literal held true collapse into
conjuncts (their other literals all false), deleting a false literal shrinks
clauses, and emerging units feed back into the workset E. Expansion stops as
soon as no 3-literal residue is left or E has no unexpanded member. What
remains is the scope: the unit conjuncts E plus the surviving 2-literal
residues read as exactly-one pairs, which together form a 2SAT/XOR-SAT
fragment decidable by parity union-find.

Outcomes of the full check:

* a complementary pair inside E, or an unsatisfiable scope -> the literal is
  incompatible (can never be true);
* satisfiable scope and no 3-literal residue left -> the scope covers the
  whole formula, so its model witnesses satisfiability;
* satisfiable scope with 3-literal residue -> no verdict on z yet.

Checks are pure with respect to the passed state: a probe builds its scope on
a scratch copy and hands it back with the verdict, for traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import negate, var_of
from .reduction import SolverState, clone, reduce_on_false, reduce_on_true


@dataclass(frozen=True)
class ScopeFormula:
    units: tuple[int, ...]  # E, insertion order; first is the probed literal
    xor_pairs: tuple[tuple[int, int], ...]  # surviving 2-literal residues
    processed: tuple[int, ...]  # members of E that were expanded

    def mentioned_vars(self) -> tuple[int, ...]:
        vs = {var_of(l) for l in self.units}
        vs.update(var_of(l) for pair in self.xor_pairs for l in pair)
        return tuple(sorted(vs))


@dataclass(frozen=True)
class EarlyConflict:
    var: int
    units: tuple[int, ...]  # E at detection, both offending polarities included


@dataclass(frozen=True)
class Built:
    scope: ScopeFormula
    residual3: tuple[int, ...]  # live 3-literal clause ids left unreduced


def build_scope(state: SolverState, z_v: int) -> Built | EarlyConflict:
    """Expand the consequences of holding ``z_v`` true, FIFO over E.

    Expansion of the next conjunct only happens while some 3-literal residue
    is live; a scope can therefore carry units that were never expanded (they
    still constrain the XOR fragment). The base state is never mutated.
    """
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
    while scratch.three_live > 0 and pos < len(e_order):
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
    return Built(
        ScopeFormula(tuple(e_order), tuple(pairs), tuple(e_order[:pos])),
        tuple(residual3),
    )


# --- XOR-SAT over units and exactly-one pairs ----------------------------------


@dataclass(frozen=True)
class XorSat:
    model: dict[int, bool]  # over mentioned variables only


@dataclass(frozen=True)
class XorUnsat:
    witness: tuple  # ("unit", lit) or ("pair", a, b): first constraint to clash


_TRUE = 0  # union-find anchor node; literal nodes are the literals themselves


def xor2sat_satisfiable(sf: ScopeFormula) -> XorSat | XorUnsat:
    """Decide units + exactly-one pairs by parity union-find.

    Nodes are literals plus a true-anchor. Opposite polarities of a variable
    are linked with odd parity, each pair {a, b} links a and b with odd parity
    (exactly one true), each unit links to the anchor with even parity. A
    contradiction surfaces as a parity mismatch on an existing link; the first
    offending constraint (in deterministic application order) is the witness.
    """
    parent: dict[int, int] = {}
    offset: dict[int, int] = {}  # parity relative to the parent node

    def find(x: int) -> tuple[int, int]:
        """Root of x and x's parity relative to it, compressing the path."""
        if x not in parent:
            parent[x] = x
            offset[x] = 0
            return x, 0
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        root = x
        par = 0
        for node in reversed(path):  # nearest-to-root first
            par ^= offset[node]
            parent[node] = root
            offset[node] = par
        return root, (offset[path[0]] if path else 0)

    def union(a: int, b: int, rel: int) -> bool:
        """Impose parity(a) ^ parity(b) == rel; False on contradiction."""
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            return (pa ^ pb) == rel
        parent[ra] = rb
        offset[ra] = pa ^ pb ^ rel
        return True

    for v in sf.mentioned_vars():
        union(v, -v, 1)
    for u in sf.units:
        if not union(u, _TRUE, 0):
            return XorUnsat(("unit", u))
    for a, b in sf.xor_pairs:
        if not union(a, b, 1):
            return XorUnsat(("pair", a, b))

    # anchor's component is pinned so the anchor reads true; components never
    # touching a unit get their root pinned false
    root0, p0 = find(_TRUE)
    model: dict[int, bool] = {}
    for v in sf.mentioned_vars():
        root, pv = find(v)
        root_val = (not bool(p0)) if root == root0 else False
        model[v] = bool(pv) ^ root_val
    return XorSat(model)


# --- the incompatibility verdict ------------------------------------------------
# Each verdict carries the scope it was decided on (``built``), so a trace can
# dump it without expanding the probe a second time. It takes no part in
# equality.


@dataclass(frozen=True)
class Incompatible:
    literal: int
    reason: str  # "early_conflict" | "scope_unsat"
    detail: tuple  # (var,) or the xor witness
    built: Built | EarlyConflict | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class NotYet:
    literal: int
    built: Built | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CoversSatisfiable:
    literal: int
    model: dict[int, bool]
    built: Built | None = field(default=None, compare=False, repr=False)


def incompatible(
    state: SolverState, z_v: int
) -> Incompatible | NotYet | CoversSatisfiable:
    """Full incompatibility check for ``z_v`` against the current state.

    A satisfiable scope with no 3-literal residue covers the formula, so its
    model is a satisfiability witness; it is extended here with the state's
    own settled facts (single live polarity, fixed conjuncts) for variables
    the scope never mentioned. Variables free even after that are left to the
    caller. Residual 3-literal clauses are never tested for satisfiability:
    they cannot make z_v incompatible.
    """
    res = build_scope(state, z_v)
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


def scope_as_dict(result: Built | EarlyConflict, literal: int, verdict: str) -> dict:
    """JSON-ready dump of one check, for traces."""
    if isinstance(result, EarlyConflict):
        return {
            "literal": literal,
            "E": list(result.units),
            "xor_pairs": [],
            "residual3": [],
            "verdict": verdict,
        }
    return {
        "literal": literal,
        "E": list(result.scope.units),
        "xor_pairs": [list(p) for p in result.scope.xor_pairs],
        "residual3": list(result.residual3),
        "verdict": verdict,
    }
