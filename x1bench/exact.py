"""An exact Exactly-1 3SAT decision, written for the benchmark and sharing no
code with the package, so that `unsat` verdicts can be checked.

The formula splits into connected components (clauses linked by shared
variables), decided one at a time. Each is searched depth first: take an
undecided clause with the fewest open literals, and try each open literal as
its one true literal, the others false. Exactly-one propagation follows every
choice: a clause with a true literal makes its other literals false, a clause
with one open literal and no true one makes that literal true, and a clause
with two true literals or none left open is a conflict. The search is
complete, so an exhausted search proves the component unsatisfiable.
"""

from __future__ import annotations


class OutOfBudget(Exception):
    pass


def components(rows: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        a = find(abs(row[0]))
        for lit in row[1:]:
            b = find(abs(lit))
            if a != b:
                parent[b] = a
    comps: dict[int, list[tuple[int, ...]]] = {}
    for row in rows:
        comps.setdefault(find(abs(row[0])), []).append(row)
    return list(comps.values())


def _split(row, val):
    true, open_ = 0, []
    for lit in row:
        x = val.get(abs(lit))
        if x is None:
            open_.append(lit)
        elif x == (lit > 0):
            true += 1
    return true, open_


def _component_sat(rows: list[tuple[int, ...]], budget: list[int]) -> bool:
    occ: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for lit in row:
            occ.setdefault(abs(lit), []).append(i)
    val: dict[int, bool] = {}

    def place(lits, trail, queue) -> bool:
        """Make each (literal, holds) so; False on a clash with a value set."""
        for lit, holds in lits:
            v, want = abs(lit), (lit > 0) == holds
            if v in val:
                if val[v] != want:
                    return False
                continue
            val[v] = want
            trail.append(v)
            queue.append(v)
        return True

    def assign(lits, trail) -> bool:
        queue: list[int] = []
        if not place(lits, trail, queue):
            return False
        while queue:
            for ci in occ[queue.pop()]:
                true, open_ = _split(rows[ci], val)
                if true > 1 or (true == 0 and not open_):
                    return False
                forced = [(l, False) for l in open_] if true == 1 else (
                    [(open_[0], True)] if len(open_) == 1 else [])
                if not place(forced, trail, queue):
                    return False
        return True

    def search(depth: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0 or depth > 500:
            raise OutOfBudget
        best = None
        for row in rows:
            true, open_ = _split(row, val)
            if true == 0 and (best is None or len(open_) < len(best)):
                best = open_
        if best is None:
            return True
        for lit in best:
            trail: list[int] = []
            choice = [(o, o == lit) for o in best]
            if assign(choice, trail) and search(depth + 1):
                return True
            for v in trail:
                del val[v]
        return False

    return search(0)


def satisfiable(rows: list[tuple[int, ...]], budget: int = 20000) -> bool | None:
    """True or False when decided, None when the search ran out of nodes."""
    left = [budget]
    try:
        return all(_component_sat(comp, left) for comp in components(rows))
    except OutOfBudget:
        return None
