"""Exactly-1 3SAT formulas: types, X-DIMACS parsing, evaluation, special-clause rewriting.

A literal is a nonzero signed int in DIMACS convention: ``v`` means variable ``v``
is true, ``-v`` means it is false. Variables are numbered from 1. A clause holds
one to three distinct literals and is satisfied when *exactly one* of them is true
under a total assignment. A one-literal clause is a conjunct: it pins its literal.
A total assignment over variables 1..n is the list of its n true literals in
variable order: ``v`` or ``-v`` at index ``v - 1``, as a v line prints it.

Formulas are *general* when no clause contains both polarities of a variable, and
*special* otherwise. :func:`convert_special` rewrites any formula into the
general formula to scan: the surviving clauses followed by one unit clause per
forced literal, or none when the rewrite forces both polarities of a variable.
The rewrite preserves exactly-1 satisfiability.

The X-DIMACS file format::

    c optional comments
    p x1cnf <n_vars> <n_clauses>
    1 -3 0
    1 -2 3 0

Clause lines are 1..3 nonzero ints terminated by ``0``. Clause ids are assigned
in input order starting at 1 and are stable: no operation in this package ever
renumbers them.

A :class:`Formula` holds its clauses as rows of literals with their ids, and
checks its own facts once, when it is built; nothing downstream checks them
again: each row holds one to three distinct nonzero literals; clause ids
strictly ascend from 1; every variable is at most ``n_vars``; and
``Formula.special`` lists the (clause id, variable) witnesses of the clauses
holding both polarities of a variable. A :class:`Clause` record is made only
when ``Formula.clauses`` is read, and checks nothing. The parser checks only
the text and names the line of every error.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, repeat
from operator import eq, lt

MAX_CLAUSE_LITERALS = 3
# largest n a header may declare; assignments (and the v line) and nets are
# sized by the declared n, so a larger one is refused before anything is
# allocated (nets have a tighter limit, petri.MAX_NET_NODES). The solver
# state is sized by the variables the clauses use.
MAX_VARS = 10**6
# the step budget of an exact search (the oracle's, and reachability in a
# net) when none is given
DEFAULT_STATE_BUDGET = 500_000


class FormulaError(ValueError):
    """Structurally invalid formula or literal; ``clause`` is the id of the
    clause at fault, when a formula's own check names one."""

    def __init__(self, message: str, clause: int | None = None):
        super().__init__(message)
        self.clause = clause


class ParseError(FormulaError):
    """X-DIMACS input rejected; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BudgetError(RuntimeError):
    """An exact search spent its step budget, a header declares more than
    MAX_VARS variables, or a net would have more than petri.MAX_NET_NODES
    nodes: not a verdict, and not malformed input."""


class Budget:
    """The steps an exact search may still take; ``search`` names it in the
    BudgetError that ``spend`` raises once more than ``steps`` are spent."""

    def __init__(self, steps: int, search: str) -> None:
        self.steps = self.left = steps
        self.search = search

    def spend(self, k: int) -> None:
        self.left -= k
        if self.left < 0:
            raise BudgetError(f"{self.search} spent its budget of {self.steps} steps")


class IncompleteAssignmentError(FormulaError):
    """failed_clauses needs a value for every mentioned variable."""


class Record:
    """The base of the package's record types: equality and ``repr`` by
    field, plus a hash and read-only fields for frozen records. This is what
    ``dataclasses`` would generate, without importing it (and ``inspect``
    and ``ast`` with it) on every cold start.

    A record's fields are the parameters of its ``__init__``, which sets each
    one. Equality (same class, equal fields) and ``repr`` read them in that
    order, except the names in ``_unseen``. ``class R(Record, frozen=True)``
    makes R's fields read-only, so its ``__init__`` sets them with
    ``object.__setattr__``, and hashes R by them; any other record is
    mutable and unhashable."""

    _unseen: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        names = code.co_varnames[1:code.co_argcount]
        cls._fields = tuple(n for n in names if n not in cls._unseen)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _read_only
            cls.__hash__ = lambda self: hash(self._values())

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"


def _read_only(self: Record, name: str, *value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


class Clause(Record, frozen=True):
    """A clause with its stable id, as ``Formula.clauses`` yields it. Literal
    order is input order; the formula it came from has checked it."""

    def __init__(self, id: int, lits: tuple[int, ...]) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "lits", lits)


class Formula(Record, frozen=True):
    """``rows[i]`` is the tuple of literals of the clause whose id is
    ``ids[i]``; ``ids`` defaults to 1, 2, ... in row order."""

    def __init__(self, n_vars: int, rows: tuple[tuple[int, ...], ...],
                 ids: tuple[int, ...] | None = None) -> None:
        ascending = ids is None
        if ascending:
            ids = tuple(range(1, len(rows) + 1))
        elif len(ids) != len(rows):
            raise FormulaError(f"{len(ids)} clause ids for {len(rows)} clauses")
        else:
            ascending = all(map(lt, (0, *ids), ids))
        # the common case costs no Python step per clause; anything else (a
        # fault, a special clause, ids out of order) is found and named by the
        # per-clause pass
        if ascending and n_vars >= 0 and _plain_rows(n_vars, rows):
            special = ()
        else:
            special = _check_rows(n_vars, rows, ids)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ids", ids)
        # (clause id, variable) witnesses; derived, so not a field
        object.__setattr__(self, "special", special)

    @property
    def n_clauses(self) -> int:
        return len(self.rows)

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses as records, built on first use: the scan reads rows."""
        made = self.__dict__.get("_clauses")
        if made is None:
            made = self.__dict__["_clauses"] = tuple(map(Clause, self.ids, self.rows))
        return made


def _plain_rows(n_vars: int, rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether every row holds one to MAX_CLAUSE_LITERALS literals, no 0, no
    variable above ``n_vars`` and no variable twice, so no duplicate literal
    and no special clause. No Python step runs per row or per literal: the
    rows of each length k are read as k columns, and two columns compared
    element by element."""
    lens = set(map(len, rows))
    vs = [*map(abs, chain.from_iterable(rows))]
    if not (lens <= {*range(1, MAX_CLAUSE_LITERALS + 1)}
            and (not vs or 0 < min(vs) and max(vs) <= n_vars)):
        return False
    for k in lens - {1}:
        if len(lens) > 1:
            vs = [*map(abs, chain.from_iterable(compress(rows, map(k.__eq__, map(len, rows)))))]
        cols = [vs[j::k] for j in range(k)]
        if any(any(map(eq, cols[i], cols[j])) for i in range(k) for j in range(i + 1, k)):
            return False
    return True


def _check_clauses(rows: Iterable[tuple[int, ...]], ids: Iterable[int]) -> None:
    """Raise the FormulaError of the first row that is not a clause: one to
    MAX_CLAUSE_LITERALS distinct nonzero literals."""
    for cid, lits in zip(ids, rows):
        if not 1 <= len(lits) <= MAX_CLAUSE_LITERALS:
            raise FormulaError(
                f"clause {cid}: {len(lits)} literals (want 1..{MAX_CLAUSE_LITERALS})", cid
            )
        if 0 in lits:
            raise FormulaError(f"clause {cid}: literal 0", cid)
        if len(set(lits)) != len(lits):
            raise FormulaError(f"clause {cid}: duplicate literal", cid)


def _check_rows(n_vars: int, rows: tuple[tuple[int, ...], ...],
                ids: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The per-clause check: its errors win in this order, the first clause
    at fault in each: a row that is not a clause, a negative ``n_vars``, then
    ids not ascending from 1 or a variable above ``n_vars``. Returns the
    (clause id, variable) witnesses of the special clauses."""
    _check_clauses(rows, ids)
    if n_vars < 0:
        raise FormulaError("n_vars must be >= 0")
    special = []
    last = 0
    for cid, lits in zip(ids, rows):
        if cid <= last:
            raise FormulaError(f"clause {cid}: id not above {last}; ids ascend from 1", cid)
        last = cid
        for l in lits:
            if l > n_vars or -l > n_vars:
                raise FormulaError(
                    f"clause {cid}: variable {abs(l)} exceeds n_vars={n_vars}", cid
                )
        # of at most three literals, every pair holds the first or the last
        if -lits[0] in lits or -lits[-1] in lits:
            special.append((cid, next(abs(l) for l in lits if -l in lits)))
    return tuple(special)


def formula(n_vars: int, lit_rows: Iterable[Sequence[int]]) -> Formula:
    """Build a Formula from rows of literals, assigning ids 1.. in order."""
    return Formula(n_vars, tuple(map(tuple, lit_rows)))


# --- X-DIMACS ---------------------------------------------------------------


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, raw line) of every line that is not blank or a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield line_no, raw


# the longest piece of an offending token an error message quotes
QUOTE_LIMIT = 40


def _quote(token: str) -> str:
    """``token`` quoted for an error message, clipped to QUOTE_LIMIT characters."""
    if len(token) > QUOTE_LIMIT:
        return f"{token[:QUOTE_LIMIT]!r}... ({len(token)} characters)"
    return repr(token)


def _ints(raw: str, parts: list[str], line_no: int, what: str) -> list[int]:
    """The tokens of the line ``raw`` as integers, each an optional sign and
    ASCII digits; a ParseError quoting the first that is not one."""
    # int() also reads "1_0" and non-ASCII digits; only a line holding an
    # underscore or a non-ASCII character needs its tokens checked for them
    plain = raw.isascii() and "_" not in raw
    nums = []
    for tok in parts:
        try:
            if not (plain or tok.isascii() and "_" not in tok):
                raise ValueError(tok)
            nums.append(int(tok))
        except ValueError:
            raise ParseError(line_no, f"{what}: {_quote(tok)}") from None
    return nums


def _header(raw: str, line_no: int) -> tuple[int, int]:
    """The variable and clause counts of the header line ``raw``."""
    parts = raw.split(None, 4)  # a header's four tokens, then any rest
    if len(parts) != 4 or parts[:2] != ["p", "x1cnf"]:
        wrong = [tok for tok, want in zip(parts, ("p", "x1cnf")) if tok != want]
        if len(parts) > 4:
            wrong.append(parts[4].split(None, 1)[0])
        got = _quote(wrong[0]) if wrong else "end of line"
        raise ParseError(
            line_no, f"malformed header: want 'p x1cnf <vars> <clauses>', got {got}"
        )
    n, m = _ints(raw, parts[2:], line_no, "malformed header counts")
    if n < 0 or m < 0:
        raise ParseError(line_no, "header counts must be nonnegative")
    if n > MAX_VARS:
        raise BudgetError(
            f"line {line_no}: header declares {n} variables, "
            f"above the limit MAX_VARS={MAX_VARS}"
        )
    return n, m


def _row(raw: str, line_no: int, k: int) -> tuple[int, ...]:
    """The literals of clause line ``raw``, the line of clause ``k``, read
    token by token; a ParseError names the fault of its text."""
    # a clause line holds at most MAX_CLAUSE_LITERALS literals and its 0;
    # a longer one is refused before any token is converted
    parts = raw.split(None, MAX_CLAUSE_LITERALS + 1)
    if len(parts) > MAX_CLAUSE_LITERALS + 1:
        raise ParseError(
            line_no,
            f"clause {k}: more than {MAX_CLAUSE_LITERALS} literals "
            f"(want 1..{MAX_CLAUSE_LITERALS})",
        )
    nums = _ints(raw, parts, line_no, "non-integer token")
    if nums[-1] != 0:
        raise ParseError(line_no, "clause line must end with 0")
    if len(nums) == 1:
        raise ParseError(line_no, "empty clause")
    return tuple(nums[:-1])


def parse_x1cnf(text: str) -> Formula:
    """Parse X-DIMACS. Raises ParseError with the offending line number.

    The errors of a file with several faults win in this order: faults of
    the text and of single clauses, in line order; then a variable above the
    header's n; then the header's clause count.

    Each clause line is split once; a line of ASCII characters without an
    underscore, of one to three tokens and a ``0``, is read by int() alone.
    Any other line is read token by token (``_row``), which names its fault.
    Only where the whole text is not plain is each line tested for it."""
    plain = text.isascii() and "_" not in text
    lines = text.splitlines()
    header: tuple[int, int, int] | None = None  # n, m and the header's line
    rows: list[tuple[int, ...]] = []
    try:
        for line_no, parts in enumerate(map(str.split, lines, repeat(None),
                                            repeat(MAX_CLAUSE_LITERALS + 1)), start=1):
            if not parts or parts[0][0] == "c":  # a blank line or a comment
                continue
            if header is None:
                header = (*_header(lines[line_no - 1], line_no), line_no)
                continue
            if ((plain or lines[line_no - 1].isascii() and "_" not in lines[line_no - 1])
                    and parts.pop() == "0" and 0 < len(parts) <= MAX_CLAUSE_LITERALS):
                try:
                    rows.append(tuple(map(int, parts)))
                    continue
                except ValueError:
                    pass
            try:
                rows.append(_row(lines[line_no - 1], line_no, len(rows) + 1))
            except ParseError:
                # a clause at fault on an earlier line wins
                _check_clauses(rows, range(1, len(rows) + 1))
                raise
        if header is None:
            raise ParseError(1, "missing header")
        n, m, header_line = header
        f = Formula(n, tuple(rows))
    except ParseError:
        raise
    except FormulaError as e:
        # clause k sits on the k-th content line after the header
        line_no = list(_content_lines(text))[e.clause][0]
        raise ParseError(line_no, str(e)) from None
    if f.n_clauses != m:
        raise ParseError(header_line, f"header declares {m} clauses, file has {f.n_clauses}")
    return f


def emit_x1cnf(f: Formula) -> str:
    """Canonical byte-deterministic emission: header then clauses in id order."""
    out = io.StringIO()
    out.write(f"p x1cnf {f.n_vars} {f.n_clauses}\n")
    for lits in f.rows:
        out.write(" ".join(map(str, lits)))
        out.write(" 0\n")
    return out.getvalue()


# --- evaluation --------------------------------------------------------------

def failed_clauses(f: Formula, a: list[int]) -> list[int]:
    """Ids of the clauses without exactly one true literal under ``a``, in
    clause order; an empty list means ``a`` is a model.

    ``a`` is an assignment as its true literals in variable order: ``a[v - 1]``
    is ``v`` or ``-v``. It must reach every variable mentioned in ``f``; a
    mentioned variable past ``len(a)`` raises.
    """
    failed = []
    n = len(a)
    for cid, lits in zip(f.ids, f.rows):
        count = 0
        for lit in lits:
            v = abs(lit)
            if v > n:
                raise IncompleteAssignmentError(
                    f"clause {cid}: variable {v} unassigned"
                )
            if a[v - 1] == lit:
                count += 1
        if count != 1:
            failed.append(cid)
    return failed


# --- special-clause rewriting --------------------------------------------------


class Conversion(Record):
    """The rewrite of a formula. ``formula`` is the formula to scan: the
    surviving clauses, then one unit clause per forced literal, numbered past
    the original clause ids. A rewrite that forces both polarities of a
    variable has proved the input unsat: ``formula`` is None,
    ``contradiction_var`` names the variable, and ``forced`` and
    ``removed_clauses`` are empty. Otherwise the input was special iff
    ``removed_clauses`` is non-empty."""

    def __init__(self, formula: Formula | None, forced: tuple[int, ...],
                 removed_clauses: tuple[int, ...], contradiction_var: int | None) -> None:
        self.formula = formula
        self.forced = forced  # literals pinned true, in derivation order
        self.removed_clauses = removed_clauses  # original ids dropped as tautologies
        self.contradiction_var = contradiction_var

    def trace_entry(self) -> dict | None:
        """The scan trace's ``conversion`` entry: None for a general input."""
        if not self.removed_clauses and self.contradiction_var is None:
            return None
        return {"forced": list(self.forced), "removed_clauses": list(self.removed_clauses),
                "contradiction_var": self.contradiction_var}


def convert_special(f: Formula) -> Conversion:
    """Rewrite a formula into the general formula to scan.

    A clause {z, x, -x} admits exactly one true literal among {x, -x} already,
    so z must be false: -z is forced, z is deleted from every clause, and the
    clause itself drops as a tautology. A bare {x, -x} clause likewise drops.
    Forcing both polarities ends the rewrite with a contradiction.

    Deleting a literal never creates a both-polarity pair, so only the
    clauses in ``f.special`` can be rewritten: one pass over them in ascending
    clause id, over an index of the clauses holding each literal, reaches the
    fixpoint. A witness clause whose pair lost a literal to an earlier
    deletion is general by then and stays. Each literal is deleted at most
    once, since no clause holds it afterwards.

    Clause ids of surviving clauses are preserved; clauses containing a
    forced literal survive untouched, and each forced literal is conjoined as
    a unit clause, numbered from the last clause id + 1. A general formula
    comes back as it is.
    """
    if not f.special:
        return Conversion(f, (), (), None)
    rows: dict[int, list[int]] = dict(zip(f.ids, map(list, f.rows)))
    holding: dict[int, list[int]] = {}  # literal -> ascending ids of clauses with it
    for cid, lits in rows.items():
        for lit in lits:
            holding.setdefault(lit, []).append(cid)
    forced: list[int] = []
    forced_set: set[int] = set()
    removed: list[int] = []

    for cid, v in f.special:
        lits = rows[cid]
        if v not in lits or -v not in lits:
            continue
        rest = [l for l in lits if abs(l) != v]
        for z in rest:
            if z in forced_set:
                return Conversion(None, (), (), abs(z))
            if -z not in forced_set:
                forced_set.add(-z)
                forced.append(-z)
        del rows[cid]
        removed.append(cid)
        # a forced -z deletes z everywhere
        for z in rest:
            for ocid in holding.get(z, ()):
                olits = rows.get(ocid)
                if olits is not None and z in olits:
                    olits.remove(z)
                    if not olits:
                        # clause demanded z true while z is forced false
                        return Conversion(None, (), (), abs(z))

    last = f.ids[-1]
    ids = (*rows, *range(last + 1, last + 1 + len(forced)))
    kept = (*map(tuple, rows.values()), *((lit,) for lit in forced))
    return Conversion(Formula(f.n_vars, kept, ids), tuple(forced), tuple(removed), None)
