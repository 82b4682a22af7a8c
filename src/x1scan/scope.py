"""Incompatibility checking: scope construction plus its XOR-SAT decision.

To probe whether a literal z can still be part of a satisfying assignment, the
check assumes z true and follows the forced consequences: clauses containing a
literal held true collapse into conjuncts (their other literals all false),
deleting a false literal shrinks clauses, and emerging units feed back into
the workset E. Expansion stops as soon as no 3-literal residue is left or E
has no unexpanded member. What remains is the scope: the unit conjuncts E plus
the surviving 2-literal residues read as exactly-one pairs, which together
form a 2SAT/XOR-SAT fragment decidable by parity union-find.

Outcomes of the full check:

* a complementary pair inside E, or an unsatisfiable scope -> the literal is
  incompatible (can never be true);
* satisfiable scope and no 3-literal residue left -> the scope covers the
  whole formula, so its model witnesses satisfiability;
* satisfiable scope with 3-literal residue -> no verdict on z yet.

A probe costs what its scope costs. It never copies or mutates the solver
state: the expansion reads the live clauses and keeps the clauses it changes
in an overlay of its own, with a local count of 3-literal residues, and logs
no events. The parity union-find over the state's 2-literal residues
(``PairIndex``) is passed in by the caller; the scan loop builds it once per
pass and shares it among that pass's probes. A probe decides its scope on a
small union-find over that index's roots, adding only E and the pairs it made
from 3-literal residues. This is exact: every base pair the probe absorbed or
shrank is implied by two units of E, so E, all base pairs and the new pairs
have the same models as E and the pairs that survive.

An expansion that ends with 3-literal residue left ran to its end: every
literal of E was expanded, so no conflict-free E leaves a clause that holds a
variable of E live. E is then closed under the index's pairs too: a pair on
a variable of E was read, and made its other variable one of E, so E's
variables fill whole index components and E's values satisfy every pair in
them. E's units therefore pin only roots that no surviving pair reaches and
clash with nothing, and such a scope has a model exactly when the probe's new
pairs have one over the index's roots. An expansion that stopped on no
residue may hold unexpanded units; it is decided on its assembled scope.

The full scope is assembled only when read: by a trace dump, or when the
verdict needs the XOR witness or model (an unsatisfiable scope, or one that
covers the formula). Then ``xor2sat_satisfiable`` decides the assembled scope,
so witness and model are those of the full fragment.

The index, a probe's scope and an assembled scope are all decided by one
parity union-find over variables (``_parity``), with node 0 as the constant
false; a model reads the root variable of a component no unit reaches as true.
"""

from __future__ import annotations

from functools import cached_property

from .formula import Record
from .reduction import SolverState


class ScopeFormula(Record, frozen=True):
    def __init__(self, units: tuple[int, ...], xor_pairs: tuple[tuple[int, int], ...]) -> None:
        # E, insertion order; first is the probed literal
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "xor_pairs", xor_pairs)  # surviving 2-literal residues

    def mentioned_vars(self) -> tuple[int, ...]:
        vs = {abs(l) for l in self.units}
        vs.update(abs(l) for pair in self.xor_pairs for l in pair)
        return tuple(sorted(vs))


class EarlyConflict(Record, frozen=True):
    def __init__(self, var: int, units: tuple[int, ...]) -> None:
        object.__setattr__(self, "var", var)
        # E at detection, both offending polarities included
        object.__setattr__(self, "units", units)


class _ParityUnionFind:
    """Union-find over int nodes, each kept with its parity relative to its
    parent; a node joins on first sight. ``pinned`` seeds node 0 as a root and
    each pinned node as its child at the given parity. A union links root to
    root without ranks, so the roots (and with them the model that
    ``xor2sat_satisfiable`` reads off) follow the order of the constraints."""

    def __init__(self, pinned: dict[int, int]) -> None:
        self.parent: dict[int, int] = dict.fromkeys(pinned, 0)
        self.offset: dict[int, int] = pinned

    def find(self, x: int) -> tuple[int, int]:
        """Root of x and x's parity relative to it, compressing the path."""
        parent, offset = self.parent, self.offset
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

    def union(self, a: int, b: int, rel: int) -> bool:
        """Impose parity(a) ^ parity(b) == rel; False on contradiction."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == rel
        self.parent[ra] = rb
        self.offset[ra] = pa ^ pb ^ rel
        return True


def _parity(units, pairs, rp: dict[int, tuple[int, int]]) -> _ParityUnionFind | tuple:
    """Apply ``units``, then the exactly-one ``pairs``, as parity constraints
    over variables, each read as its (root, parity) in ``rp`` or else as
    itself; node 0 is the constant false, and a literal l holds when its
    variable's value xor (l < 0) is 1. Returns the first constraint to clash,
    ``("unit", u)`` or ``("pair", a, b)``, or else the union-find."""
    pin = {0: 0}  # units only pin roots to node 0, so they need no finds
    for u in units:
        v = abs(u)
        r, p = rp.get(v, (v, 0))
        if pin.setdefault(r, p ^ (u > 0)) != p ^ (u > 0):
            return ("unit", u)
    uf = _ParityUnionFind(pin)
    for a, b in pairs:
        va, vb = abs(a), abs(b)
        (ra, pa), (rb, pb) = rp.get(va, (va, 0)), rp.get(vb, (vb, 0))
        if not uf.union(ra, rb, 1 ^ (a < 0) ^ (b < 0) ^ pa ^ pb):
            return ("pair", a, b)
    return uf


class PairIndex:
    """The state's 2-literal residues as a parity union-find over variables,
    resolved per variable v of a pair to (root, parity): v's value is the
    root's value xor the parity. Any other variable is its own root, with
    parity 0, so the index is sized by the pairs, not by n. The pairs and the
    ids of the 3-literal residues, ascending by clause id, are kept for
    assembling full scopes."""

    def __init__(self, state: SolverState) -> None:
        pairs: list[tuple[int, int, int]] = []
        threes: list[int] = []
        for k, ls in state.live.items():
            if len(ls) == 3:
                threes.append(k)
            elif len(ls) == 2:
                pairs.append((k, *ls))
        uf = _parity((), [p[1:] for p in pairs], {})
        self.consistent = not isinstance(uf, tuple)  # False: the pairs have no model
        # an inconsistent index decides every scope unsat, so nothing reads it
        self.root_parity = {v: uf.find(v) for v in uf.parent if v} if self.consistent else {}
        self.pairs = tuple(pairs)
        self.threes = tuple(threes)


class Built:
    """A probe's expansion that ended without a conflict.

    ``touched`` maps each clause the probe changed to its live literals in the
    probe ([] once absorbed); ``three_left`` counts the 3-literal residues left.
    ``scope`` and ``residual3`` are assembled from these on first read;
    ``satisfiable`` decides an expansion with residue left without them."""

    def __init__(self, index: PairIndex, units: tuple[int, ...],
                 touched: dict[int, list[int]], three_left: int) -> None:
        self.index = index
        self.units = units
        self.touched = touched
        self.three_left = three_left

    @cached_property
    def scope(self) -> ScopeFormula:
        touched = self.touched
        pairs = [p for p in self.index.pairs if p[0] not in touched]
        pairs += [(k, ls[0], ls[1]) for k, ls in touched.items() if len(ls) == 2]
        pairs.sort()
        return ScopeFormula(self.units, tuple((a, b) for _, a, b in pairs))

    @cached_property
    def residual3(self) -> tuple[int, ...]:
        return tuple(k for k in self.index.threes if k not in self.touched)

    def satisfiable(self) -> bool:
        """Whether the scope of an expansion with residue left
        (``three_left`` > 0, the one kind ``incompatible`` asks about) has a
        model. Such an expansion ran to its end, so E's units clash with
        nothing (see the module docstring) and only the probe's new pairs are
        decided, over the index's roots; with none, or no root met twice,
        they are a forest and have a model."""
        if not self.index.consistent:
            return False
        rp = self.index.root_parity
        new_pairs = [ls for ls in self.touched.values() if len(ls) == 2]
        if not new_pairs:
            return True
        roots = {rp[v][0] if v in rp else v for a, b in new_pairs for v in (abs(a), abs(b))}
        if len(roots) == 2 * len(new_pairs):
            return True
        return not isinstance(_parity((), new_pairs, rp), tuple)


def build_scope(state: SolverState, z_v: int, index: PairIndex) -> Built | EarlyConflict:
    """Expand the consequences of holding ``z_v`` true, FIFO over E.

    ``index`` must be the PairIndex of ``state`` as it is now. Expansion of
    the next conjunct only happens while some 3-literal residue is live; a
    scope can therefore carry units that were never expanded (they still
    constrain the XOR fragment). The state is only read: a clause the probe
    changes is copied into its overlay. A literal is expanded at most once and
    its negation never joins E without a conflict, so a clause still holds
    every literal the probe reads it for.
    """
    live = state.live
    occurrence = state.occurrence
    touched: dict[int, list[int]] = {}
    three = len(index.threes)
    e_order: list[int] = [z_v]
    e_set: set[int] = {z_v}

    pos = 0
    while three > 0 and pos < len(e_order):
        z = e_order[pos]
        emerged: list[int] = []
        # residues holding z collapse: their other literals are all false
        for k in occurrence.get(z, ()):
            if k in touched:
                ls = touched[k]
                if not ls:
                    continue
            else:
                ls = live[k]
            if len(ls) == 3:
                three -= 1
            for l in ls:
                if l != z:
                    emerged.append(-l)
            touched[k] = []
        # residues holding -z lose it; one left with a single literal emerges it
        nz = -z
        for k in occurrence.get(nz, ()):
            if k in touched:
                ls = touched[k]
                if not ls:
                    continue
            else:
                ls = live[k]
            if len(ls) == 2:
                a, b = ls
                emerged.append(b if a == nz else a)
                touched[k] = []
            else:
                if len(ls) == 3:
                    three -= 1
                touched[k] = [l for l in ls if l != nz]
        for lit in emerged:
            if lit in e_set:
                continue
            e_set.add(lit)
            e_order.append(lit)
            if -lit in e_set:
                return EarlyConflict(abs(lit), tuple(e_order))
        pos += 1

    return Built(index, tuple(e_order), touched, three)


# --- XOR-SAT over units and exactly-one pairs ----------------------------------


class XorSat(Record, frozen=True):
    def __init__(self, model: dict[int, bool]) -> None:
        object.__setattr__(self, "model", model)  # over mentioned variables only


class XorUnsat(Record, frozen=True):
    def __init__(self, witness: tuple) -> None:
        # ("unit", lit) or ("pair", a, b): the first constraint to clash
        object.__setattr__(self, "witness", witness)


def xor2sat_satisfiable(sf: ScopeFormula) -> XorSat | XorUnsat:
    """Decide units + exactly-one pairs. The witness is the first constraint
    to clash (units first, then pairs, each in order); the model reads node
    0's component with node 0 false and every other with its root true."""
    uf = _parity(sf.units, sf.xor_pairs, {})
    if isinstance(uf, tuple):
        return XorUnsat(uf)
    root0, p0 = uf.find(0)
    model: dict[int, bool] = {}
    for v in sf.mentioned_vars():
        root, pv = uf.find(v)
        model[v] = bool(pv ^ (p0 if root == root0 else 1))
    return XorSat(model)


# --- the incompatibility verdict ------------------------------------------------
# Each verdict carries the scope it was decided on (``built``), so a trace can
# dump it without expanding the probe a second time. It takes no part in
# equality or repr.


class Incompatible(Record, frozen=True):
    _unseen = ("built",)
    trace_name = "incompatible"  # the verdict a scope dump names

    def __init__(self, literal: int, reason: str, detail: tuple,
                 built: Built | EarlyConflict | None = None) -> None:
        object.__setattr__(self, "literal", literal)
        object.__setattr__(self, "reason", reason)  # "early_conflict" | "scope_unsat"
        object.__setattr__(self, "detail", detail)  # (var,) or the xor witness
        object.__setattr__(self, "built", built)


class NotYet(Record, frozen=True):
    _unseen = ("built",)
    trace_name = "not_yet"

    def __init__(self, literal: int, built: Built | None = None) -> None:
        object.__setattr__(self, "literal", literal)
        object.__setattr__(self, "built", built)


class CoversSatisfiable(Record, frozen=True):
    _unseen = ("built",)
    trace_name = "covers_satisfiable"

    def __init__(self, literal: int, model: dict[int, bool], built: Built | None = None) -> None:
        object.__setattr__(self, "literal", literal)
        # the scope's XOR model, over its variables only
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "built", built)


def incompatible(
    state: SolverState, z_v: int, index: PairIndex
) -> Incompatible | NotYet | CoversSatisfiable:
    """Full incompatibility check for ``z_v`` against the current state.
    ``index`` must be the PairIndex of ``state`` as it is now.

    A satisfiable scope with no 3-literal residue covers the formula, so its
    XOR model is a satisfiability witness. The model covers the scope's
    variables only; ``solver.extract_assignment(state, base=res.model)``
    completes it from the state's settled facts. Residual 3-literal clauses
    are never tested for satisfiability: they cannot make z_v incompatible.
    A satisfiable scope with residue left needs neither witness nor model,
    so only the shared index decides it (``Built.satisfiable``); every other
    scope is assembled and decided by ``xor2sat_satisfiable``.
    """
    res = build_scope(state, z_v, index)
    if isinstance(res, EarlyConflict):
        return Incompatible(z_v, "early_conflict", (res.var,), res)
    if res.three_left and res.satisfiable():
        return NotYet(z_v, res)
    # the assembled scope has the models of the one just decided, so past here
    # a scope with residue left is unsat and a satisfiable one covers
    verdict = xor2sat_satisfiable(res.scope)
    if isinstance(verdict, XorUnsat):
        return Incompatible(z_v, "scope_unsat", verdict.witness, res)
    return CoversSatisfiable(z_v, verdict.model, res)


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
