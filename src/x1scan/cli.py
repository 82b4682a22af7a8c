"""Command-line surface: solve | oracle | net | diff.

Exit codes follow SAT-solver convention: 10 satisfiable, 20 unsatisfiable,
30 claimed-but-unverified, 1 usage or parse error, 2 internal/budget error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from .formula import (
    DEFAULT_STATE_BUDGET,
    BudgetError,
    Formula,
    ParseError,
    convert_special,
    parse_x1cnf,
)

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNVERIFIED = 30
EXIT_USAGE = 1
EXIT_INTERNAL = 2

_STATUS_EXIT = {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "claimed_sat_unverified": EXIT_UNVERIFIED}
_STATUS_LINE = {
    "sat": "s SATISFIABLE",
    "unsat": "s UNSATISFIABLE",
    "claimed_sat_unverified": "s CLAIMED-SAT-UNVERIFIED",
}


class _Parser(argparse.ArgumentParser):
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


def _load_formula(path: str) -> Formula:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_x1cnf(text)


def _value_line(assignment: list[int]) -> str:
    # the list's repr writes its literals without a str object for each one,
    # which at n = MAX_VARS would double the line's peak memory
    return "v " + repr(assignment + [0])[1:-1].replace(",", "")


# characters of encoded JSON joined into one write
_JSON_BATCH = 1 << 16


def _print_json(doc: dict) -> None:
    # written in bounded batches as it is encoded: the whole text of a
    # header-sized assignment, and the pieces it is joined from, would take
    # several times its memory, and one write per piece is slow
    batch: list[str] = []
    size = 0
    for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc):
        batch.append(chunk)
        size += len(chunk)
        if size >= _JSON_BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    batch.append("\n")
    sys.stdout.write("".join(batch))


def _conversion_line(c: dict) -> str:
    """The comment line on a special input's conversion ``c``, the scan
    trace's ``conversion`` entry."""
    if c["contradiction_var"] is not None:
        return f"c conversion contradiction on variable {c['contradiction_var']}"
    return f"c converted special formula: forced={c['forced']} removed={c['removed_clauses']}"


_FLAGS = {
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
        g.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="x1scan", description="Exactly-1 3SAT scan solver and checking harness")
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


def cmd_solve(args) -> int:
    from .solver import scan, verdict_as_dict

    if args.trace and not args.json:
        # the text output has no place for the trace
        raise ValueError("--trace needs --json")
    f = _load_formula(args.path)
    t0 = time.perf_counter()
    v = scan(f, args.seed, args.trace)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    if args.json:
        doc = verdict_as_dict(v, include_trace=args.trace)
        if not args.no_timing:
            doc["timing_ms"] = elapsed_ms
        _print_json(doc)
    else:
        if v.trace["conversion"] is not None:
            print(_conversion_line(v.trace["conversion"]))
        if v.trace["completion"]:
            picks = [e["picked"] for e in v.trace["completion"]]
            print(f"c completion picks (procedure gave no verdict): {picks}")
        print(f"c rounds {v.rounds}")
        if not args.no_timing:
            print(f"c time {elapsed_ms:.3f} ms")
        print(_STATUS_LINE[v.status])
        if v.assignment is not None:
            print(_value_line(v.assignment))
        if v.verification is not None and not v.verification["passed"]:
            print(f"c verification failed on clauses {v.verification['failed']}")
    return _STATUS_EXIT[v.status]


def cmd_oracle(args) -> int:
    from .oracle import find_model

    f = _load_formula(args.path)
    t0 = time.perf_counter()
    model = find_model(f, args.budget_states)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    status = "sat" if model is not None else "unsat"
    if args.json:
        doc = {"status": status, "assignment": model}
        if not args.no_timing:
            doc["timing_ms"] = elapsed_ms
        _print_json(doc)
    else:
        print(_STATUS_LINE[status])
        if model is not None:
            print(_value_line(model))
    return _STATUS_EXIT[status]


def cmd_net(args) -> int:
    from .petri import (
        build_forward_net,
        build_inverse_net,
        export_dot,
        net_as_dict,
        root_conflicts,
        target_reachable,
    )

    if args.dot and args.json:
        raise ValueError("--dot and --json are mutually exclusive")
    if args.dot and args.check_reach:
        # the DOT text has no place for the verdict the search would reach
        raise ValueError("--dot and --check-reach are mutually exclusive")
    conv = convert_special(_load_formula(args.path))
    entry = conv.trace_entry()
    if entry is not None:  # the input was special
        print(_conversion_line(entry), file=sys.stderr)
    if conv.formula is None:
        # the input has no model, so there is no net to emit
        print(_STATUS_LINE["unsat"])
        return EXIT_UNSAT

    build = build_forward_net if args.forward else build_inverse_net
    net = build(conv.formula)
    reached = None
    if args.check_reach:
        reached = target_reachable(net, args.budget_states)

    if args.dot:
        print(export_dot(net))
    elif args.json:
        doc = net_as_dict(net)
        if reached is not None:
            doc["target_reachable"] = reached
        if entry is not None:
            doc["conversion_notice"] = {k: entry[k] for k in ("forced", "removed_clauses")}
        _print_json(doc)
    else:
        cset = root_conflicts(net)
        print(f"c {net.name}: {len(net.places)} places, {len(net.transitions)} "
              f"transitions, {len(cset)} conflict places")
        for place, ts in cset.items():
            print(f"c conflict {place}: {' '.join(ts)}")
        if reached is not None:
            print("s REACHABLE" if reached else "s UNREACHABLE")
    return 0


def cmd_diff(args) -> int:
    from .oracle import check_profiles, differential_corpus, generate_campaign, write_discrepancies

    if (args.m_min is None) != (args.m_max is None):
        raise ValueError("--m-min and --m-max must be given together")
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.m_min is not None and args.m_min > args.m_max:
        raise ValueError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    profiles = tuple(args.profiles.split(","))
    # with no m range, m is drawn from 1..2n, which every profile can draw
    check_profiles(profiles, args.n_min, args.m_max or 0)
    report = differential_corpus(
        generate_campaign(
            args.count,
            (args.n_min, args.n_max),
            None if args.m_min is None else (args.m_min, args.m_max),
            profiles,
            args.seed,
        ),
        args.permutations,
        args.no_timing,
    )
    if args.out:
        written = write_discrepancies(report, args.out)
        print(f"c wrote {len(written)} discrepancy files to {args.out}", file=sys.stderr)
    _print_json(report)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "net": cmd_net,
    "diff": cmd_diff,
}


def main(argv=None) -> int:
    if argv is None:
        # This process runs one command and exits. Every object alive now
        # (modules, classes, functions) lives until then, so the collector's
        # full passes, most of them at interpreter exit, need not traverse
        # them again. A caller's list of arguments means an in-process call,
        # whose heap is the caller's to manage.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
