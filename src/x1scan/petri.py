"""Safe leveled-acyclic Petri nets, token games, and the two SAT net constructions.

Nets here are 1-safe and leveled: every node (place or transition) sits on an
integer level except *sink* places, which sit beyond all levels. A transition
consumes only from places of its own level and produces only into strictly
higher levels or sinks, so the flow relation is acyclic by construction.
Markings are plain frozensets of place names (set semantics: firing into an
already-marked place would merge tokens; the constructions below never do, and
:func:`fire` treats it as an error).

Net construction for a general exactly-1 formula (n vars, m clauses):

* forward net: marked literal sources ``l{i}`` feed polarity transitions
  ``x{i}`` / ``-x{i}``; each occurrence of a literal in clause k gets a buffer
  place ``b{k}_{lit}``; occurrence transitions ``z{k}_{lit}`` consume the buffer
  plus a marked per-clause guard ``g{k}`` and mark the clause place ``c{k}``;
  a collector consumes every clause place and marks the sink ``top``.
  The single guard token is what enforces *exactly one* true literal per clause.
* inverse net: marked clause places ``c{k}`` choose one occurrence transition
  ``z{k}_{lit}`` each; polarity transition ``x{i}``/``-x{i}`` consumes a marked
  per-variable guard ``g{i}`` plus *all* buffers of that literal and marks
  ``l{i}``; the collector consumes every ``l{i}`` and marks ``top``.

Both constructions reach a marking that is exactly ``{top}`` iff the formula
has an assignment with exactly one true literal per clause; the oracle harness
checks that equivalence exhaustively against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .formula import Formula, classify

Marking = frozenset


class NetError(ValueError):
    """Structurally invalid net."""


class TokenGameError(RuntimeError):
    """A firing in a prescribed sequence was not possible."""


class SafetyViolationError(RuntimeError):
    """A firing would re-mark an already marked place."""


class ReachabilityBudgetError(RuntimeError):
    """Search aborted on a resource guard; not a reachability verdict."""


@dataclass(frozen=True)
class Net:
    name: str
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: dict[str, frozenset[str]]
    post: dict[str, frozenset[str]]
    level: dict[str, int]  # every transition and every non-sink place
    sinks: frozenset[str]
    initial: Marking

    def __post_init__(self) -> None:
        pset, tset = set(self.places), set(self.transitions)
        if len(pset) != len(self.places) or len(tset) != len(self.transitions):
            raise NetError("duplicate node names")
        if pset & tset:
            raise NetError(f"places and transitions overlap: {sorted(pset & tset)}")
        if set(self.pre) != tset or set(self.post) != tset:
            raise NetError("pre/post must be keyed by exactly the transitions")
        if not self.sinks <= pset:
            raise NetError("sinks must be places")
        for p in pset - self.sinks:
            if p not in self.level:
                raise NetError(f"place {p} has no level and is not a sink")
        for p in self.sinks:
            if p in self.level:
                raise NetError(f"sink {p} must not carry a level")
        for t in self.transitions:
            if t not in self.level:
                raise NetError(f"transition {t} has no level")
            lt = self.level[t]
            for p in self.pre[t]:
                if p not in pset:
                    raise NetError(f"{t}: unknown input place {p}")
                if p in self.sinks or self.level[p] != lt:
                    raise NetError(f"{t}: input {p} not at transition level {lt}")
            for p in self.post[t]:
                if p not in pset:
                    raise NetError(f"{t}: unknown output place {p}")
                if p not in self.sinks and self.level[p] <= lt:
                    raise NetError(f"{t}: output {p} not above transition level {lt}")
        if self.initial != sourceless_places(self):
            raise NetError("initial marking must be exactly the sourceless places")


def sourceless_places(net: Net) -> Marking:
    produced: set[str] = set()
    for t in net.transitions:
        produced |= net.post[t]
    return frozenset(p for p in net.places if p not in produced)


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


def conflicts(net: Net) -> dict[str, tuple[str, ...]]:
    """Places with two or more consumers, mapped to their consumer transitions."""
    consumers: dict[str, list[str]] = {}
    for t in net.transitions:
        for p in net.pre[t]:
            consumers.setdefault(p, []).append(t)
    return {p: tuple(ts) for p, ts in sorted(consumers.items()) if len(ts) > 1}


def root_conflicts(net: Net) -> dict[str, tuple[str, ...]]:
    """Conflict places at level 0: the choices the net construction encodes.

    Guard places on higher levels also fan out to two consumers, but they only
    enforce once-per-variable (or once-per-clause) firing; the decision
    structure lives in the source places. In a forward net these are the
    variable polarity choices, in an inverse net the per-clause literal
    choices (single-consumer clause places, the conjuncts, do not qualify).
    """
    return {p: ts for p, ts in conflicts(net).items() if net.level[p] == 0}


# --- constructions -----------------------------------------------------------


def _lit_name(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"-x{-lit}"


def _require_general(f: Formula) -> None:
    cls = classify(f)
    if cls.kind != "general":
        raise NetError(
            f"net construction needs a general formula; special witnesses: {cls.special}"
        )


def build_forward_net(f: Formula) -> Net:
    _require_general(f)
    n = f.n_vars
    places: list[str] = [f"l{i}" for i in range(1, n + 1)]
    places += [f"g{c.id}" for c in f.clauses]
    level: dict[str, int] = {p: 0 for p in places[:n]}
    for c in f.clauses:
        level[f"g{c.id}"] = 1
    transitions: list[str] = []
    pre: dict[str, frozenset[str]] = {}
    post: dict[str, frozenset[str]] = {}

    buffers: dict[int, list[str]] = {}  # literal -> its buffer places
    for c in f.clauses:
        for lit in c.lits:
            b = f"b{c.id}_{lit}"
            places.append(b)
            level[b] = 1
            buffers.setdefault(lit, []).append(b)

    for i in range(1, n + 1):
        for lit in (i, -i):
            t = _lit_name(lit)
            transitions.append(t)
            level[t] = 0
            pre[t] = frozenset({f"l{i}"})
            post[t] = frozenset(buffers.get(lit, ()))

    for c in f.clauses:
        places.append(f"c{c.id}")
        level[f"c{c.id}"] = 2
        for lit in c.lits:
            t = f"z{c.id}_{lit}"
            transitions.append(t)
            level[t] = 1
            pre[t] = frozenset({f"b{c.id}_{lit}", f"g{c.id}"})
            post[t] = frozenset({f"c{c.id}"})

    places.append("top")
    transitions.append("collect")
    level["collect"] = 2
    pre["collect"] = frozenset(f"c{c.id}" for c in f.clauses)
    post["collect"] = frozenset({"top"})

    net = Net(
        name="forward",
        places=tuple(places),
        transitions=tuple(transitions),
        pre=pre,
        post=post,
        level=level,
        sinks=frozenset({"top"}),
        initial=frozenset([f"l{i}" for i in range(1, n + 1)] + [f"g{c.id}" for c in f.clauses]),
    )
    return net


def build_inverse_net(f: Formula) -> Net:
    _require_general(f)
    n = f.n_vars
    places: list[str] = [f"c{c.id}" for c in f.clauses]
    level: dict[str, int] = {p: 0 for p in places}
    transitions: list[str] = []
    pre: dict[str, frozenset[str]] = {}
    post: dict[str, frozenset[str]] = {}

    buffers: dict[int, list[str]] = {}
    for c in f.clauses:
        for lit in c.lits:
            t = f"z{c.id}_{lit}"
            b = f"b{c.id}_{lit}"
            places.append(b)
            level[b] = 1
            buffers.setdefault(lit, []).append(b)
            transitions.append(t)
            level[t] = 0
            pre[t] = frozenset({f"c{c.id}"})
            post[t] = frozenset({b})

    for i in range(1, n + 1):
        g, l = f"g{i}", f"l{i}"
        places += [g, l]
        level[g] = 1
        level[l] = 2
        for lit in (i, -i):
            t = _lit_name(lit)
            transitions.append(t)
            level[t] = 1
            pre[t] = frozenset({g, *buffers.get(lit, ())})
            post[t] = frozenset({l})

    places.append("top")
    transitions.append("collect")
    level["collect"] = 2
    pre["collect"] = frozenset(f"l{i}" for i in range(1, n + 1))
    post["collect"] = frozenset({"top"})

    return Net(
        name="inverse",
        places=tuple(places),
        transitions=tuple(transitions),
        pre=pre,
        post=post,
        level=level,
        sinks=frozenset({"top"}),
        initial=frozenset(
            [f"c{c.id}" for c in f.clauses] + [f"g{i}" for i in range(1, n + 1)]
        ),
    )


# --- reachability ------------------------------------------------------------

DEFAULT_TRANSITION_GUARD = 64
DEFAULT_STATE_BUDGET = 500_000


def target_reachable(
    net: Net,
    target: Marking | None = None,
    *,
    engine: str = "search",
    max_transitions: int = DEFAULT_TRANSITION_GUARD,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """True iff some firing sequence reaches ``target`` with all non-sinks empty.

    ``target`` defaults to the net's sinks. Engine "search" is a memoized DFS
    over marking sets and honors both resource guards (raising
    ReachabilityBudgetError, which is *not* an unreachability verdict).
    Engine "levels" decomposes by level (transitions consume only from their own
    level, so any firing sequence can be stably reordered level by level) and
    enumerates per-level exact covers of the tokens present; it needs
    ``target <= net.sinks`` and has no practical budget needs.
    """
    if target is None:
        target = frozenset(net.sinks)
    if engine == "levels":
        return _reachable_by_levels(net, target)
    if engine != "search":
        raise ValueError(f"unknown engine {engine!r}")
    if len(net.transitions) > max_transitions:
        raise ReachabilityBudgetError(
            f"{len(net.transitions)} transitions exceed guard {max_transitions}"
        )
    nonsinks = frozenset(net.places) - net.sinks

    def hits(m: Marking) -> bool:
        return target <= m and not (m & nonsinks)

    seen: set[Marking] = {net.initial}
    stack: list[Marking] = [net.initial]
    while stack:
        m = stack.pop()
        if hits(m):
            return True
        for t in net.transitions:
            if net.pre[t] <= m:
                nxt = frozenset((m - net.pre[t]) | net.post[t])
                if nxt not in seen:
                    if len(seen) >= state_budget:
                        raise ReachabilityBudgetError(
                            f"visited {len(seen)} markings (budget {state_budget})"
                        )
                    seen.add(nxt)
                    stack.append(nxt)
    return False


def _reachable_by_levels(net: Net, target: Marking) -> bool:
    if not target <= net.sinks:
        raise ValueError("levels engine needs target <= sinks")
    tlevels = sorted({net.level[t] for t in net.transitions})
    by_level: dict[int, list[str]] = {lv: [] for lv in tlevels}
    for t in net.transitions:
        by_level[net.level[t]].append(t)

    memo: dict[tuple[int, Marking], bool] = {}

    def covers(tokens_here: frozenset[str], cands: list[str]) -> Iterable[tuple[str, ...]]:
        # exact covers of tokens_here by presets of cands (all presets nonempty)
        if not tokens_here:
            yield ()
            return
        p = min(tokens_here)
        for t in cands:
            pt = net.pre[t]
            if p in pt and pt <= tokens_here:
                for rest in covers(tokens_here - pt, cands):
                    yield (t, *rest)

    def go(idx: int, tokens: frozenset[str]) -> bool:
        if idx == len(tlevels):
            return tokens <= net.sinks and target <= tokens
        key = (idx, tokens)
        cached = memo.get(key)
        if cached is not None:
            return cached
        lv = tlevels[idx]
        here = frozenset(
            p for p in tokens if p not in net.sinks and net.level[p] == lv
        )
        rest = tokens - here
        consumers = [t for t in by_level[lv] if net.pre[t]]
        free = [t for t in by_level[lv] if not net.pre[t]]
        ok = False
        for fired in covers(here, consumers):
            produced: set[str] = set()
            for t in fired:
                produced |= net.post[t]
            # empty-preset transitions may fire at will; only firing all or none
            # of each subset matters for a superset target, so branch per subset
            for k in range(1 << len(free)):
                extra: set[str] = set()
                for j, t in enumerate(free):
                    if k >> j & 1:
                        extra |= net.post[t]
                if go(idx + 1, frozenset(rest | produced | extra)):
                    ok = True
                    break
            if ok:
                break
        memo[key] = ok
        return ok

    # tokens sitting on levels with no transitions can never be consumed; they
    # simply survive to the final sink check
    return go(0, frozenset(net.initial))


# --- export ------------------------------------------------------------------


def export_dot(net: Net, marking: Marking | None = None) -> str:
    """Deterministic Graphviz rendering: circles/boxes, filled when marked,
    one rank per level, sinks last."""
    if marking is None:
        marking = net.initial
    lines = [f'digraph "{net.name}" {{', "  rankdir=LR;"]
    levels = sorted({lv for lv in net.level.values()})
    rank: dict[object, list[str]] = {lv: [] for lv in levels}
    rank["sink"] = []
    for p in net.places:
        key = "sink" if p in net.sinks else net.level[p]
        fill = ', style=filled, fillcolor=gray80' if p in marking else ""
        rank[key].append(f'"{p}" [shape=circle{fill}];')
    for t in net.transitions:
        rank[net.level[t]].append(f'"{t}" [shape=box];')
    for key in [*levels, "sink"]:
        if not rank[key]:
            continue
        lines.append(f'  subgraph "cluster_l{key}" {{')
        lines.append("    rank=same; style=invis;")
        for node in rank[key]:
            lines.append(f"    {node}")
        lines.append("  }")
    edges: list[str] = []
    for t in net.transitions:
        edges += [f'  "{p}" -> "{t}";' for p in sorted(net.pre[t])]
        edges += [f'  "{t}" -> "{p}";' for p in sorted(net.post[t])]
    lines += sorted(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def net_as_dict(net: Net, marking: Marking | None = None) -> dict:
    """JSON-ready structural dump, deterministic ordering."""
    if marking is None:
        marking = net.initial
    return {
        "name": net.name,
        "places": [
            {
                "name": p,
                "level": None if p in net.sinks else net.level[p],
                "sink": p in net.sinks,
                "marked": p in marking,
            }
            for p in net.places
        ],
        "transitions": [
            {
                "name": t,
                "level": net.level[t],
                "pre": sorted(net.pre[t]),
                "post": sorted(net.post[t]),
            }
            for t in net.transitions
        ],
        "initial": sorted(net.initial),
        "conflicts": {p: list(ts) for p, ts in conflicts(net).items()},
    }
