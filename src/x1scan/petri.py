"""Safe leveled-acyclic Petri nets, the two SAT net constructions, and the
reachability check of their target marking.

Nets here are 1-safe and leveled: every node (place or transition) sits on an
integer level except *sink* places, which sit beyond all levels. A transition
consumes only from places of its own level and produces only into strictly
higher levels or sinks, so the flow relation is acyclic by construction.
Markings are plain frozensets of place names (set semantics: firing into an
already-marked place would merge tokens; the constructions below never do).

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
has an assignment with exactly one true literal per clause; the acceptance
suite checks that equivalence exhaustively against brute force.
"""

from __future__ import annotations

from collections import Counter

from .formula import Budget, BudgetError, Formula, Record

Marking = frozenset

# the most nodes (places and transitions) a net may have; a larger one is
# refused before any node is made. At the limit the net's text, JSON and DOT
# outputs each peak below 160 MB.
MAX_NET_NODES = 150_000


class NetError(ValueError):
    """Structurally invalid net."""


class Net(Record, frozen=True):
    def __init__(self, name: str, places: tuple[str, ...], transitions: tuple[str, ...],
                 pre: dict[str, frozenset[str]], post: dict[str, frozenset[str]],
                 level: dict[str, int], sinks: frozenset[str]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)
        # every transition and every non-sink place
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "sinks", sinks)

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
        # the sourceless places; derived, so not a field
        object.__setattr__(self, "initial", sourceless_places(self))


def sourceless_places(net: Net) -> Marking:
    produced: set[str] = set()
    for t in net.transitions:
        produced |= net.post[t]
    return frozenset(p for p in net.places if p not in produced)


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


class _NetBuilder:
    """The net ``name`` for the general formula ``f``: its nodes in the
    order they are added, with their levels; the transitions are the keys of
    ``pre``. The construction makes ``per_var`` nodes per variable,
    ``per_clause`` per clause, two per literal occurrence (its buffer and
    occurrence transition) and two more (``top`` and ``collect``); above
    MAX_NET_NODES it raises BudgetError before it makes any."""

    def __init__(self, f: Formula, name: str, per_var: int, per_clause: int) -> None:
        if f.special:
            raise NetError(
                f"net construction needs a general formula; special witnesses: {f.special}"
            )
        nodes = (per_var * f.n_vars + per_clause * f.n_clauses
                 + 2 * sum(map(len, f.rows)) + 2)
        if nodes > MAX_NET_NODES:
            raise BudgetError(f"the {name} net would have {nodes} nodes, "
                              f"above the limit MAX_NET_NODES={MAX_NET_NODES}")
        self.name = name
        self.places: list[str] = []
        self.level: dict[str, int] = {}
        self.pre: dict[str, frozenset[str]] = {}
        self.post: dict[str, frozenset[str]] = {}

    def place(self, p: str, level: int) -> None:
        self.places.append(p)
        self.level[p] = level

    def transition(self, t: str, level: int, pre, post) -> None:
        self.level[t] = level
        self.pre[t] = frozenset(pre)
        self.post[t] = frozenset(post)

    def finish(self, collected) -> Net:
        """The net, ended by the sink ``top`` and the level-2 ``collect``
        that consumes the places ``collected`` and marks it."""
        self.places.append("top")
        self.transition("collect", 2, collected, ("top",))
        return Net(self.name, tuple(self.places), tuple(self.pre), self.pre, self.post,
                   self.level, frozenset({"top"}))


def build_forward_net(f: Formula) -> Net:
    net = _NetBuilder(f, "forward", per_var=3, per_clause=2)
    for i in range(1, f.n_vars + 1):
        net.place(f"l{i}", 0)
    for k in f.ids:
        net.place(f"g{k}", 1)
    buffers: dict[int, list[str]] = {}  # literal -> its buffer places
    for k, lits in zip(f.ids, f.rows):
        for lit in lits:
            b = f"b{k}_{lit}"
            net.place(b, 1)
            buffers.setdefault(lit, []).append(b)

    for i in range(1, f.n_vars + 1):
        for lit in (i, -i):
            net.transition(_lit_name(lit), 0, (f"l{i}",), buffers.get(lit, ()))

    for k, lits in zip(f.ids, f.rows):
        net.place(f"c{k}", 2)
        for lit in lits:
            net.transition(f"z{k}_{lit}", 1, (f"b{k}_{lit}", f"g{k}"), (f"c{k}",))

    return net.finish([f"c{k}" for k in f.ids])


def build_inverse_net(f: Formula) -> Net:
    net = _NetBuilder(f, "inverse", per_var=4, per_clause=1)
    for k in f.ids:
        net.place(f"c{k}", 0)
    buffers: dict[int, list[str]] = {}
    for k, lits in zip(f.ids, f.rows):
        for lit in lits:
            b = f"b{k}_{lit}"
            net.place(b, 1)
            buffers.setdefault(lit, []).append(b)
            net.transition(f"z{k}_{lit}", 0, (f"c{k}",), (b,))

    for i in range(1, f.n_vars + 1):
        g, l = f"g{i}", f"l{i}"
        net.place(g, 1)
        net.place(l, 2)
        for lit in (i, -i):
            net.transition(_lit_name(lit), 1, (g, *buffers.get(lit, ())), (l,))

    return net.finish([f"l{i}" for i in range(1, f.n_vars + 1)])


# --- reachability ------------------------------------------------------------

def target_reachable(net: Net, budget: int) -> bool:
    """True iff some firing sequence ends in a marking that is exactly the sinks.

    Transitions consume only from their own level, so any firing sequence can
    be reordered level by level. At each level the tokens present must then be
    covered exactly by the presets of the transitions fired there; a token
    left over could never move again. The search walks these exact covers
    depth first, on an explicit stack of choices over a single marking that
    it changes and restores in place: its depth does not grow with the clause
    count, and its memory is the net's size plus the markings it remembers.
    It remembers each marking met between two levels, and never searches on
    from one twice.

    ``budget`` bounds the work in search steps: one per choice tried (a
    transition added to a partial cover, or firing or not an empty-preset
    transition), and one per marking met between two levels plus one per
    token in it. Running out raises BudgetError, which is *not* an
    unreachability verdict.
    """
    # places are numbered so that one with fewer consumers comes first and is
    # covered first: a token no transition can take ends its branch at once
    takes = Counter(p for t in net.transitions for p in net.pre[t])
    order = sorted(net.places, key=lambda p: takes[p])
    rank = {p: r for r, p in enumerate(order)}
    level = [net.level.get(p) for p in order]  # None for a sink

    def ranks(places: frozenset[str]) -> frozenset[int]:
        return frozenset(rank[p] for p in places)

    # a move is (consumed, produced); the moves that can take each place, and
    # per level, for each empty-preset transition, firing it or not
    levels = sorted({net.level[t] for t in net.transitions})
    takers: list[list[tuple[frozenset[int], frozenset[int]]]] = [[] for _ in order]
    free: dict[int, list[tuple]] = {lv: [] for lv in levels}
    for t in net.transitions:
        move = (ranks(net.pre[t]), ranks(net.post[t]))
        if not move[0]:
            free[net.level[t]].append((move, (frozenset(), frozenset())))
        for p in net.pre[t]:
            takers[rank[p]].append(move)

    goal = ranks(net.sinks)
    marked = set(ranks(net.initial))
    seen: list[set[tuple[int, ...]]] = [set() for _ in levels]
    # one choice per entry: [level index, the level's tokens in cover order,
    # position of the choice (tokens first, then empty-preset transitions),
    # its moves, next move to try, (consumed, added) of the one applied]
    choices: list[list] = []
    spend = Budget(budget, "reachability search").spend

    def arrive(i: int) -> list[int] | None:
        # the marking reaches level i: the level's tokens in cover order, or
        # None if the search went on from this marking before
        key = tuple(sorted(marked))
        spend(1 + len(key))
        if key in seen[i]:
            return None
        seen[i].add(key)
        return [r for r in key if level[r] == levels[i]]

    def settle(i: int, todo: list[int], pos: int) -> bool:
        # push the next choice to make, crossing the levels that need none;
        # True iff the marking is then the goal
        while True:
            while pos < len(todo) and todo[pos] not in marked:
                pos += 1  # consumed along with an earlier token
            if pos < len(todo):
                choices.append([i, todo, pos, takers[todo[pos]], 0, None])
                return False
            if pos - len(todo) < len(free[levels[i]]):
                choices.append([i, todo, pos, free[levels[i]][pos - len(todo)], 0, None])
                return False
            i, pos = i + 1, 0
            if i == len(levels):
                return marked == goal
            todo = arrive(i)
            if todo is None:
                return False

    if not levels:
        return marked == goal
    if settle(0, arrive(0), 0):
        return True
    while choices:
        top = choices[-1]
        i, todo, pos, moves, k, applied = top
        if applied is not None:  # restore the marking before the next try
            marked -= applied[1]
            marked |= applied[0]
            top[5] = None
        for k in range(k, len(moves)):
            consumed, produced = moves[k]
            if consumed <= marked:
                added = produced - marked
                marked -= consumed
                marked |= added
                top[4], top[5] = k + 1, (consumed, added)
                spend(1)
                if settle(i, todo, pos + 1):
                    return True
                break
        else:
            choices.pop()
    return False


# --- export ------------------------------------------------------------------


def export_dot(net: Net) -> str:
    """Deterministic Graphviz rendering: circles/boxes, filled when initially
    marked, one rank per level, sinks last."""
    lines = [f'digraph "{net.name}" {{', "  rankdir=LR;"]
    levels = sorted({lv for lv in net.level.values()})
    rank: dict[object, list[str]] = {lv: [] for lv in levels}
    rank["sink"] = []
    for p in net.places:
        key = "sink" if p in net.sinks else net.level[p]
        fill = ', style=filled, fillcolor=gray80' if p in net.initial else ""
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


def net_as_dict(net: Net) -> dict:
    """JSON-ready structural dump, deterministic ordering."""
    return {
        "name": net.name,
        "places": [
            {
                "name": p,
                "level": None if p in net.sinks else net.level[p],
                "sink": p in net.sinks,
                "marked": p in net.initial,
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
