"""Helpers that only the tests need: state digests, index rebuilds and
rendering; the reference probe and the literal-node XOR-SAT checker that the
package's incompatibility check and XOR decision are compared against; the
monotonicity audit, replayed from a scan's discards; the reference scan loop
that probes every open literal on every pass; the reference special-clause
rewrite; the token-by-token X-DIMACS parser that the package's parser is
compared against; the token game and the reference reachability search that
the package's net engine is compared against, and the check of both net
constructions against an oracle verdict; the brute-force oracle that the
package's exact search is compared against; the exhaustive formula corpora;
a structural checker for the shipped JSON schemas; and the argparse parser
that the package's command line is compared against."""

import argparse
import itertools
import json
import random
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator

from x1scan.cli import EXIT_USAGE
from x1scan.formula import (
    DEFAULT_STATE_BUDGET,
    MAX_VARS,
    QUOTE_LIMIT,
    BudgetError,
    Clause,
    Conversion,
    Formula,
    ParseError,
    convert_special,
    failed_clauses,
    formula,
)
from x1scan.petri import Marking, Net, build_forward_net, build_inverse_net, target_reachable
from x1scan.reduction import (
    SolverState,
    discard,
    init_state,
    necessary_literals,
    reduce_on_false,
    reduce_on_true,
)
from x1scan.scope import (
    CoversSatisfiable,
    EarlyConflict,
    Incompatible,
    NotYet,
    PairIndex,
    ScopeFormula,
    XorSat,
    XorUnsat,
    incompatible,
)
from x1scan.solver import Verdict, extract_assignment


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
    """``v, -v`` for each variable of a live clause, ascending: the literals
    ``solver.scan`` probes."""
    open_vars = {abs(l) for ls in state.live.values() for l in ls}
    return [z for v in sorted(open_vars) for z in (v, -v)]


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


@dataclass(frozen=True)
class ReferenceBuilt:
    scope: ScopeFormula
    residual3: tuple[int, ...]


def reference_build_scope(state: SolverState, z_v: int) -> ReferenceBuilt | EarlyConflict:
    """Scope expansion run by the reduction engine itself on a scratch copy."""
    scratch = state.copy()
    e_order: list[int] = [z_v]
    e_set: set[int] = {z_v}
    conflict_var: int | None = None

    def add(lit: int) -> bool:
        nonlocal conflict_var
        if lit in e_set:
            return True
        e_set.add(lit)
        e_order.append(lit)
        if -lit in e_set:
            conflict_var = abs(lit)
            return False
        return True

    pos = 0
    while any(len(ls) == 3 for ls in scratch.live.values()) and pos < len(e_order):
        z_j = e_order[pos]
        for lit, _k in reduce_on_true(scratch, z_j):
            if not add(lit):
                return EarlyConflict(conflict_var, tuple(e_order))
        for lit, _k in reduce_on_false(scratch, -z_j):
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
        ScopeFormula(tuple(e_order), tuple(pairs)),
        tuple(residual3),
    )


def reference_xor2sat(sf: ScopeFormula) -> XorSat | XorUnsat:
    """Units + exactly-one pairs decided by parity union-find over literal
    nodes and a true anchor, node 0: each variable's two literals are linked
    with odd parity, each pair {a, b} links a and b with odd parity and each
    unit links to the anchor with even parity. The first constraint to clash
    is the witness. A union links root to root, so the roots, and with them
    the model, follow the order of the constraints: the anchor's component
    reads the anchor true, and every other component reads its root false."""
    parent: dict[int, int] = {}
    offset: dict[int, int] = {}

    def find(x: int) -> tuple[int, int]:
        parity = 0
        parent.setdefault(x, x)
        while parent[x] != x:
            parity ^= offset[x]
            x = parent[x]
        return x, parity

    def union(a: int, b: int, rel: int) -> bool:
        (ra, pa), (rb, pb) = find(a), find(b)
        if ra == rb:
            return pa ^ pb == rel
        parent[ra], offset[ra] = rb, pa ^ pb ^ rel
        return True

    for v in sf.mentioned_vars():
        union(v, -v, 1)
    for u in sf.units:
        if not union(u, 0, 0):
            return XorUnsat(("unit", u))
    for a, b in sf.xor_pairs:
        if not union(a, b, 1):
            return XorUnsat(("pair", a, b))
    root0, p0 = find(0)
    model = {}
    for v in sf.mentioned_vars():
        root, pv = find(v)
        model[v] = bool(pv) ^ (not p0 if root == root0 else False)
    return XorSat(model)


def reference_incompatible(state: SolverState, z_v: int):
    """The incompatibility check with every scope decided in full."""
    res = reference_build_scope(state, z_v)
    if isinstance(res, EarlyConflict):
        return Incompatible(z_v, "early_conflict", (res.var,), res)
    verdict = reference_xor2sat(res.scope)
    if isinstance(verdict, XorUnsat):
        return Incompatible(z_v, "scope_unsat", verdict.witness, res)
    if res.residual3:
        return NotYet(z_v, res)
    return CoversSatisfiable(z_v, verdict.model, res)


# --- monotonicity audit: a scan's discards replayed through the public API ------


def replay_monotonicity(f: Formula, discards: list[dict]) -> tuple[int, list[dict]]:
    """Replay a scan's discards (``trace["discards"]``) on a fresh state and
    check that incompatibility is monotone: a literal once found incompatible
    stays incompatible while it is open.

    At every pass with no necessary literal pending, where the scan itself
    probes, the replay re-judges each remembered literal still open, then
    probes every open literal and remembers the incompatible ones. The scan
    discards only the first incompatible literal of a pass, so the rest stay
    open for later passes. A scope built while necessary literals are pending
    cannot see them, so no verdict is judged there.

    Returns the number of re-judgments and one {"literal", "round", "became"}
    entry per re-judgment that was not incompatible."""
    g = convert_special(f).formula
    if g is None:
        return 0, []
    state = init_state(g)
    remembered: list[int] = []
    checked = 0
    violations: list[dict] = []
    # after the last discard the scan ran one more pass, unless it conflicted
    for d in [*discards, None]:
        if necessary_literals(state) is None:
            index = PairIndex(state)
            for z in remembered:
                if len(state.live_literals[abs(z)]) != 2:
                    continue
                checked += 1
                res = incompatible(state, z, index)
                if not isinstance(res, Incompatible):
                    violations.append({"literal": z, "round": state.scan_round,
                                       "became": type(res).__name__})
            for z in open_literals(state):
                if z not in remembered and isinstance(incompatible(state, z, index),
                                                      Incompatible):
                    remembered.append(z)
        if d is None or discard(state, d["literal"]) is not None:
            break
    return checked, violations


# --- reference scan loop: every pass probes every open literal ------------------


def reprobe_scan(f: Formula, seed: int | None = None) -> Verdict:
    """``solver.scan`` with nothing carried between passes: every probing pass
    probes every open literal again. It keeps no scope dumps, so compare it
    with ``scan`` on everything but ``trace["scopes"]``."""
    trace: dict = {"conversion": None, "events": [], "discards": [], "scopes": [],
                   "completion": []}
    conv = convert_special(f)
    trace["conversion"] = conv.trace_entry()
    if conv.formula is None:
        return Verdict("unsat", None, 0, trace, None)
    state = init_state(conv.formula)
    rng = None if seed is None else random.Random(seed)
    tainted = False

    def finish(status: str, assignment: list[int] | None) -> Verdict:
        verification = None
        if assignment is not None:
            failed = failed_clauses(f, assignment)
            status = "claimed_sat_unverified" if failed else "sat"
            verification = {"passed": not failed, "failed": failed}
        trace["events"] = list(state.events)
        return Verdict(status, assignment, state.scan_round, trace, verification)

    while True:
        nec = necessary_literals(state)
        if nec is not None:
            lit, source = nec
            z, via = -lit, "necessary"
        else:
            zs = open_literals(state)
            if rng is not None:
                rng.shuffle(zs)
            res = None
            index = PairIndex(state) if zs else None
            for z in zs:
                res = incompatible(state, z, index)
                if not isinstance(res, NotYet):
                    break
            if isinstance(res, CoversSatisfiable):
                return finish("sat", extract_assignment(state, base=res.model))
            if isinstance(res, Incompatible):
                via, source = "incompatible", None
            else:
                open_vars = [abs(l) for ls in state.live.values() for l in ls
                             if len(state.live_literals[abs(l)]) == 2]
                if not open_vars:
                    return finish("sat", extract_assignment(state))
                v = min(open_vars)
                tainted = True
                trace["completion"].append({"var": v, "picked": v})
                z, via, source = -v, "completion", None
        trace["discards"].append({"round": state.scan_round, "literal": z, "via": via,
                                  "source_clause": source})
        if discard(state, z) is not None:
            return finish("claimed_sat_unverified" if tainted else "unsat", None)


# --- reference special-clause rewrite: restart after every rewrite --------------


def reference_convert_special(f: Formula) -> Conversion:
    """``convert_special`` as a fixpoint loop: after each rewrite it restarts
    from the lowest clause id, and it deletes a forced-false literal by
    scanning every clause."""
    rows: dict[int, list[int]] = {c.id: list(c.lits) for c in f.clauses}
    forced: list[int] = []
    removed: list[int] = []
    changed = True
    while changed:
        changed = False
        for cid in sorted(rows):
            lits = rows[cid]
            pair_var = None
            for l in lits:
                if -l in lits:
                    pair_var = abs(l)
                    break
            if pair_var is None:
                continue
            rest = [l for l in lits if abs(l) != pair_var]
            for z in rest:
                if z in forced:  # -z is forced too
                    return Conversion(None, (), (), abs(z))
                if -z not in forced:
                    forced.append(-z)
            del rows[cid]
            removed.append(cid)
            changed = True
            for z in rest:
                for ocid in sorted(rows):
                    olits = rows[ocid]
                    if z in olits:
                        olits.remove(z)
                        if not olits:
                            return Conversion(None, (), (), abs(z))
            break

    ids = sorted(rows)
    kept = [tuple(rows[cid]) for cid in ids]
    last = max((c.id for c in f.clauses), default=0)
    ids += [last + 1 + i for i in range(len(forced))]
    kept += [(lit,) for lit in forced]
    return Conversion(Formula(f.n_vars, tuple(kept), tuple(ids)), tuple(forced), tuple(removed),
                      None)


# --- reference X-DIMACS parser: token by token, one record per clause --------


def reference_parse(text: str) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``parse_x1cnf`` as it read a file before it read rows: every token
    converted in a Python loop, each clause checked as its line is read (as
    a Clause record checked itself), then the formula's own pass over the
    ids and variables. Returns (n_vars, rows, ids), or raises the
    ParseError or BudgetError that ``parse_x1cnf`` must raise."""

    def content_lines():
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("c"):
                yield line_no, raw

    def quote(token: str) -> str:
        if len(token) > QUOTE_LIMIT:
            return f"{token[:QUOTE_LIMIT]!r}... ({len(token)} characters)"
        return repr(token)

    def ints(raw: str, parts: list[str], line_no: int, what: str) -> list[int]:
        plain = raw.isascii() and "_" not in raw
        nums = []
        for tok in parts:
            try:
                if not (plain or tok.isascii() and "_" not in tok):
                    raise ValueError(tok)
                nums.append(int(tok))
            except ValueError:
                raise ParseError(line_no, f"{what}: {quote(tok)}") from None
        return nums

    header = None
    rows: list[tuple[int, ...]] = []
    for line_no, raw in content_lines():
        if header is None:
            parts = raw.split(None, 4)
            if len(parts) != 4 or parts[:2] != ["p", "x1cnf"]:
                wrong = [tok for tok, want in zip(parts, ("p", "x1cnf")) if tok != want]
                if len(parts) > 4:
                    wrong.append(parts[4].split(None, 1)[0])
                got = quote(wrong[0]) if wrong else "end of line"
                raise ParseError(
                    line_no, f"malformed header: want 'p x1cnf <vars> <clauses>', got {got}"
                )
            n, m = ints(raw, parts[2:], line_no, "malformed header counts")
            if n < 0 or m < 0:
                raise ParseError(line_no, "header counts must be nonnegative")
            if n > MAX_VARS:
                raise BudgetError(
                    f"line {line_no}: header declares {n} variables, "
                    f"above the limit MAX_VARS={MAX_VARS}"
                )
            header = (n, m, line_no)
            continue
        k = len(rows) + 1
        parts = raw.split(None, 4)
        if len(parts) > 4:
            raise ParseError(line_no, f"clause {k}: more than 3 literals (want 1..3)")
        nums = ints(raw, parts, line_no, "non-integer token")
        if nums[-1] != 0:
            raise ParseError(line_no, "clause line must end with 0")
        if len(nums) == 1:
            raise ParseError(line_no, "empty clause")
        lits = tuple(nums[:-1])
        if 0 in lits:
            raise ParseError(line_no, f"clause {k}: literal 0")
        if len(set(lits)) != len(lits):
            raise ParseError(line_no, f"clause {k}: duplicate literal")
        rows.append(lits)
    if header is None:
        raise ParseError(1, "missing header")
    n, m, header_line = header
    for k, lits in enumerate(rows, start=1):
        for l in lits:
            if abs(l) > n:
                line_no = list(content_lines())[k][0]
                raise ParseError(line_no, f"clause {k}: variable {abs(l)} exceeds n_vars={n}")
    if len(rows) != m:
        raise ParseError(header_line, f"header declares {m} clauses, file has {len(rows)}")
    return n, tuple(rows), tuple(range(1, len(rows) + 1))


# --- token game: prescribed firing sequences ------------------------------------


class TokenGameError(RuntimeError):
    """A firing in a prescribed sequence was not possible."""


class SafetyViolationError(RuntimeError):
    """A firing would re-mark an already marked place."""


def enabled(net: Net, marking: Marking) -> tuple[str, ...]:
    """Enabled transitions in declaration order (deterministic)."""
    return tuple(t for t in net.transitions if net.pre[t] <= marking)


def fire(net: Net, marking: Marking, t: str) -> Marking:
    missing = net.pre[t] - marking
    if missing:
        raise TokenGameError(
            f"transition {t} not enabled: missing {sorted(missing)}"
        )
    rest = marking - net.pre[t]
    clash = net.post[t] & rest
    if clash:
        raise SafetyViolationError(f"firing {t} would re-mark {sorted(clash)}")
    return frozenset(rest | net.post[t])


@dataclass(frozen=True)
class TokenGame:
    """Trace of a prescribed firing sequence. markings[0] is the initial one."""

    sequence: tuple[str, ...]
    markings: tuple[Marking, ...]
    ended_final: bool  # nothing enabled after the last firing

    @property
    def final(self) -> Marking:
        return self.markings[-1]


def play_token_game(net: Net, sequence: Iterable[str]) -> TokenGame:
    seq = tuple(sequence)
    markings = [net.initial]
    for step, t in enumerate(seq, start=1):
        if t not in net.pre:
            raise TokenGameError(f"step {step}: unknown transition {t}")
        try:
            markings.append(fire(net, markings[-1], t))
        except TokenGameError as e:
            raise TokenGameError(f"step {step}: {e}") from None
    return TokenGame(seq, tuple(markings), ended_final=not enabled(net, markings[-1]))


def search_reachable(net: Net) -> bool:
    """Reference for ``target_reachable``: a memoized DFS over every marking
    the token game can reach, with no use of the net's levels and no budget
    (tiny nets only). True iff one of them is exactly the sinks."""
    seen: set[Marking] = {net.initial}
    stack: list[Marking] = [net.initial]
    while stack:
        m = stack.pop()
        if m == net.sinks:
            return True
        for t in enabled(net, m):
            nxt = (m - net.pre[t]) | net.post[t]
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def net_cross_check(f: Formula, oracle_sat: bool) -> list[str]:
    """Compare both net constructions against the oracle verdict. Any
    mismatch is a bug in the constructions, never a solver finding."""
    problems = []
    for name, build in (("forward", build_forward_net), ("inverse", build_inverse_net)):
        reached = target_reachable(build(f), DEFAULT_STATE_BUDGET)
        if reached != oracle_sat:
            problems.append(f"{name} net reachability {reached} vs oracle {oracle_sat}")
    return problems


# --- reference oracle -----------------------------------------------------------


def brute_force_sat(f: Formula) -> list[int] | None:
    """First satisfying assignment in lexicographic order (all-false first),
    as its true literals in variable order, or None, by enumerating all 2^n assignments: the reference the package's
    exact search is compared against. Meant for small n."""
    rows = [c.lits for c in f.clauses]
    for bits in itertools.product((False, True), repeat=f.n_vars):
        ok = True
        for lits in rows:
            hits = 0
            for l in lits:
                if (l > 0) == bits[abs(l) - 1]:
                    hits += 1
                    if hits > 1:
                        break
            if hits != 1:
                ok = False
                break
        if ok:
            return [v if bits[v - 1] else -v for v in range(1, f.n_vars + 1)]
    return None


# --- exhaustive corpora -------------------------------------------------------


def general_clause_types(n: int) -> list[tuple[int, ...]]:
    """Every 1-3 literal clause over n variables without a complementary pair,
    literals sorted by variable; lexicographic over (size, literals)."""
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    out = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(lits, size):
            if any(-l in combo for l in combo):
                continue
            out.append(tuple(sorted(combo, key=abs)))
    return sorted(out, key=lambda c: (len(c), c))


def special_clause_types(n: int) -> list[tuple[int, ...]]:
    """2-3 literal clauses containing some {v, -v} pair."""
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    out = []
    for size in (2, 3):
        for combo in itertools.combinations(lits, size):
            if not any(-l in combo for l in combo):
                continue
            out.append(tuple(sorted(combo, key=lambda l: (abs(l), l < 0))))
    return sorted(out, key=lambda c: (len(c), c))


def exhaustive_general(n: int, max_m: int) -> Iterator[Formula]:
    """All clause multisets of size 1..max_m over the general alphabet."""
    types = general_clause_types(n)
    for m in range(1, max_m + 1):
        for rows in itertools.combinations_with_replacement(types, m):
            yield formula(n, rows)


def exhaustive_special(n: int, max_m: int) -> Iterator[Formula]:
    """All clause multisets of size 1..max_m over the full alphabet that
    contain at least one both-polarity clause."""
    general = set(general_clause_types(n))
    types = sorted(general | set(special_clause_types(n)), key=lambda c: (len(c), c))
    for m in range(1, max_m + 1):
        for rows in itertools.combinations_with_replacement(types, m):
            if all(r in general for r in rows):
                continue
            yield formula(n, rows)


# --- JSON schema check ----------------------------------------------------------
# Covers exactly the subset the shipped schemas use: type (single name or
# list), enum, properties/required/additionalProperties, and items.

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name: str) -> bool:
    # bool is an int subclass; keep the numeric types strict
    if name in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, _TYPES[name])


def validate(instance, schema: dict, path: str = "$") -> list[str]:
    """"$.path: problem" strings; an empty list means the instance validates."""
    if "type" in schema:
        names = schema["type"]
        if isinstance(names, str):
            names = [names]
        if not any(_type_ok(instance, n) for n in names):
            got = type(instance).__name__
            return [f"{path}: expected {'|'.join(names)}, got {got}"]
    if instance is None:
        return []

    errors: list[str] = []
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum")
    if isinstance(instance, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        if schema.get("additionalProperties") is False:
            for key in sorted(set(instance) - set(props)):
                errors.append(f"{path}: unexpected key {key!r}")
        for key, sub in props.items():
            if key in instance:
                errors.extend(validate(instance[key], sub, f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return errors


def load_schema(name: str) -> dict:
    """One of the JSON schemas shipped as package data."""
    root = resources.files("x1scan").joinpath("schemas")
    return json.loads(root.joinpath(f"{name}.json").read_text())


# --- the reference command line -------------------------------------------------
# the argparse parser that the package's table-driven command line replaced;
# the parity test reads every command line of its corpus with both


class _ReferenceParser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {raw}")
        return value

    parse.__name__ = "int"  # argparse names the type in its own errors
    return parse


_REFERENCE_FLAGS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--budget-states": dict(type=_at_least(1), default=DEFAULT_STATE_BUDGET, metavar="N",
                            help="search budget in steps, one per choice tried plus, for "
                                 "net reachability, one per marking met between two levels "
                                 "and one per token in it, or, for the oracle, one per "
                                 f"clause examined (default: {DEFAULT_STATE_BUDGET})"),
    "--no-timing": dict(action="store_true", help="omit timing fields"),
}


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    """Give a subcommand the common flags it reads, and only those."""
    g = parser.add_argument_group("common")
    for name in names:
        g.add_argument(name, **_REFERENCE_FLAGS[name])


def reference_parser() -> argparse.ArgumentParser:
    p = _ReferenceParser(prog="x1scan", description="Exactly-1 3SAT scan solver and checking harness")
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the scan procedure")
    solve.add_argument("path", help="X-DIMACS file, or - for stdin")
    _add_common(solve, "--json", "--no-timing")
    solve.add_argument("--trace", action="store_true",
                       help="include the full event trace (needs --json)")
    solve.add_argument("--seed", type=int, default=None,
                       help="shuffle the literal check order with this seed "
                            "(default: the fixed order)")

    oracle = sub.add_parser("oracle", help="exact-search ground truth")
    oracle.add_argument("path", help="X-DIMACS file, or - for stdin")
    _add_common(oracle, "--json", "--budget-states", "--no-timing")

    net = sub.add_parser("net", help="emit a Petri net construction")
    net.add_argument("path", help="X-DIMACS file, or - for stdin")
    _add_common(net, "--json", "--budget-states")
    net.add_argument("--forward", action="store_true",
                     help="clause-checking net (default: the solver-side inverse net)")
    net.add_argument("--dot", action="store_true", help="Graphviz output")
    net.add_argument("--check-reach", action="store_true",
                     help="also decide target reachability")

    diff = sub.add_parser("diff", help="differential campaign vs oracle")
    _add_common(diff, "--no-timing")
    diff.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    diff.add_argument("--count", type=_at_least(0), default=1000)
    diff.add_argument("--n-min", type=_at_least(1), default=2)
    diff.add_argument("--n-max", type=_at_least(1), default=8)
    diff.add_argument("--m-min", type=_at_least(0), default=None)
    diff.add_argument("--m-max", type=_at_least(0), default=None)
    diff.add_argument("--profiles", default="mixed",
                      help="comma-separated generator profiles (default: mixed)")
    diff.add_argument("--permutations", type=_at_least(0), default=10,
                      help="random check orders per instance")
    diff.add_argument("--out", default=None, metavar="DIR",
                      help="write the discrepancy corpus here")

    return p
