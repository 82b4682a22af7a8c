"""Command-line surface: solve | oracle | net | diff.

Exit codes follow SAT-solver convention: 10 satisfiable, 20 unsatisfiable,
30 claimed-but-unverified, 1 usage or parse error, 2 internal/budget error.

The command line is read from one table, ``_COMMANDS``: each subcommand's
flags with their defaults, value checks and help. Flags are matched in full.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from types import SimpleNamespace

from .formula import (
    DEFAULT_STATE_BUDGET,
    BudgetError,
    Formula,
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


def _load_formula(path: str) -> Formula:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
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
    from .oracle import WorkerLost, differential_corpus, generate_campaign, write_discrepancies

    if (args.m_min is None) != (args.m_max is None):
        raise ValueError("--m-min and --m-max must be given together")
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.m_min is not None and args.m_min > args.m_max:
        raise ValueError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    corpus = generate_campaign(
        args.count,
        (args.n_min, args.n_max),
        None if args.m_min is None else (args.m_min, args.m_max),
        tuple(args.profiles.split(",")),
        args.seed,
    )
    try:
        report = differential_corpus(corpus, args.permutations, args.no_timing)
    except WorkerLost as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.out:
        written = write_discrepancies(report, args.out)
        print(f"c wrote {len(written)} discrepancy files to {args.out}", file=sys.stderr)
    _print_json(report)
    return 0


# --- the command line ------------------------------------------------------------


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"invalid int value: {raw!r}") from None


def _at_least(low: int):
    """The check of an integer flag no smaller than ``low``."""

    def check(raw: str) -> int:
        value = _integer(raw)
        if value < low:
            raise ValueError(f"must be an integer >= {low}, got {raw}")
        return value

    return check


# A flag is (metavar, check, default, help). A switch has no metavar and no
# check and is False unless given; any other flag takes one value, which its
# check turns into the flag's value or refuses with a ValueError.
_JSON = (None, None, False, "machine-readable output")
_NO_TIMING = (None, None, False, "omit timing fields")
_BUDGET = ("N", _at_least(1), DEFAULT_STATE_BUDGET,
           "search budget in steps, one per choice tried plus, for net reachability, one per "
           "marking met between two levels and one per token in it, or, for the oracle, one "
           "per clause examined")
_PATH_HELP = "X-DIMACS file, or - for stdin"
_M_DEFAULT = " (without --m-min and --m-max, m is drawn from 1..2n per instance)"

# command -> (its function, its help, whether it reads a path, its flags)
_COMMANDS = {
    "solve": (cmd_solve, "run the scan procedure", True, {
        "--json": _JSON,
        "--no-timing": _NO_TIMING,
        "--trace": (None, None, False, "include the full event trace (needs --json)"),
        "--seed": ("N", _integer, None,
                   "shuffle the literal check order with this seed (default: the fixed order)"),
    }),
    "oracle": (cmd_oracle, "exact-search ground truth", True, {
        "--json": _JSON,
        "--budget-states": _BUDGET,
        "--no-timing": _NO_TIMING,
    }),
    "net": (cmd_net, "emit a Petri net construction", True, {
        "--json": _JSON,
        "--budget-states": _BUDGET,
        "--forward": (None, None, False,
                      "clause-checking net (default: the solver-side inverse net)"),
        "--dot": (None, None, False, "Graphviz output"),
        "--check-reach": (None, None, False, "also decide target reachability"),
    }),
    "diff": (cmd_diff, "differential campaign vs oracle", False, {
        "--no-timing": _NO_TIMING,
        "--seed": ("N", _integer, 0,
                   "seed of the drawn instances only; the check orders are seeds 0..K-1"),
        "--count": ("N", _at_least(0), 1000, "instances to draw"),
        "--n-min": ("N", _at_least(1), 2, "least variables per instance"),
        "--n-max": ("N", _at_least(1), 8, "most variables per instance"),
        "--m-min": ("N", _at_least(0), None, "least clauses per instance" + _M_DEFAULT),
        "--m-max": ("N", _at_least(0), None, "most clauses per instance" + _M_DEFAULT),
        "--profiles": ("P,..", str, "mixed", "comma-separated generator profiles"),
        "--permutations": ("K", _at_least(0), 10, "random check orders per instance"),
        "--out": ("DIR", str, None, "write the discrepancy corpus here"),
    }),
}

_HELP = ("-h", "--help")


def _wrap(words: list[str], indent: str) -> str:
    """``words`` joined by spaces into lines of at most 79 characters where
    they fit, each line after the first starting with ``indent``."""
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) > 79:
            lines.append(indent + word)
        else:
            lines[-1] += " " + word
    return "\n".join(lines)


def _synopsis(command: str) -> list[str]:
    _, _, takes_path, flags = _COMMANDS[command]
    words = ["x1scan", command, "[-h]"]
    words += [f"[{flag}]" if metavar is None else f"[{flag} {metavar}]"
              for flag, (metavar, *_) in flags.items()]
    return words + ["path"] if takes_path else words


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: x1scan [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = _synopsis(command)
    return _wrap(["usage: " + words[0], *words[1:]], " " * len(f"usage: x1scan {command} "))


def _help(command: str | None) -> str:
    if command is None:
        lines = [_usage(None), "", "Exactly-1 3SAT scan solver and checking harness", ""]
        for name, (_, about, _, _) in _COMMANDS.items():
            lines += [_wrap(_synopsis(name), " " * len(f"x1scan {name} ")), "    " + about]
        lines += ["", "x1scan COMMAND -h describes each flag of COMMAND."]
        return "\n".join(lines)
    _, about, takes_path, flags = _COMMANDS[command]
    rows = [("path", _PATH_HELP)] if takes_path else []
    rows.append(("-h, --help", "show this help message and exit"))
    for flag, (metavar, _, default, text) in flags.items():
        if default is not None and default is not False:
            text += f" (default: {default})"
        rows.append((flag if metavar is None else f"{flag} {metavar}", text))
    lines = [_usage(command), "", about, ""]
    lines += [_wrap([f"  {name:<19}", *text.split()], " " * 22) for name, text in rows]
    return "\n".join(lines)


def _refuse(command: str | None, message: str):
    """A usage error: the usage, then the error, and exit code 1."""
    prog = "x1scan" if command is None else f"x1scan {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _show_help(command: str | None):
    sys.stdout.write(_help(command) + "\n")
    raise SystemExit(0)


def _negative_number(arg: str) -> bool:
    """Whether ``arg``, which starts with -, is a negative number: -5, -.5, -1.5."""
    whole, dot, frac = arg[1:].partition(".")
    if dot:
        return (whole == "" or whole.isdecimal()) and frac.isdecimal()
    return whole.isdecimal()


def _is_value(arg: str, flags: dict) -> bool:
    """Whether ``arg`` is read as a value, not as a flag: anything not
    starting with -, the - of stdin, a negative number, or, unless it names
    a flag (before any =), an argument holding a space."""
    if arg[:1] != "-" or arg == "-":
        return True
    name = arg.partition("=")[0]
    if name in flags or name in _HELP:
        return False
    return _negative_number(arg) or " " in arg


def _dest(flag: str) -> str:
    """The attribute that holds ``flag``'s value: --no-timing is no_timing."""
    return flag[2:].replace("-", "_")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command ``argv`` names and the value of each of its flags (and
    its ``path``), by the table ``_COMMANDS``. A flag's value may follow it
    as the next argument or after =; flags may come before or after the
    path; -- ends the flags; the last of a repeated flag wins. -h or --help
    prints the help and raises SystemExit(0); a usage error prints the
    usage and the error and raises SystemExit(1)."""
    if not argv:
        _refuse(None, "the following arguments are required: command")
    command = argv[0]
    if command in _HELP:
        _show_help(None)
    if command not in _COMMANDS:
        choices = ", ".join(repr(name) for name in _COMMANDS)
        _refuse(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, _, takes_path, flags = _COMMANDS[command]
    values = {"command": command}
    for flag, (_, _, default, _) in flags.items():
        values[_dest(flag)] = default
    path, extras, flags_ended = None, [], False
    i = 1
    while i < len(argv):
        arg = argv[i]
        i += 1
        if flags_ended or _is_value(arg, flags):
            if takes_path and path is None:
                path = arg
            else:
                extras.append(arg)
            continue
        if arg == "--":
            flags_ended = True
            continue
        flag, eq, value = arg.partition("=")
        if flag in _HELP:
            if eq:
                _refuse(command, f"argument -h/--help: ignored explicit argument {value!r}")
            _show_help(command)
        if flag not in flags:
            extras.append(arg)
            continue
        check = flags[flag][1]
        if check is None:  # a switch
            if eq:
                _refuse(command, f"argument {flag}: ignored explicit argument {value!r}")
            values[_dest(flag)] = True
            continue
        if not eq:
            if i == len(argv) or not _is_value(argv[i], flags):
                _refuse(command, f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        try:
            values[_dest(flag)] = check(value)
        except ValueError as e:
            _refuse(command, f"argument {flag}: {e}")
    if takes_path:
        if path is None:
            _refuse(command, "the following arguments are required: path")
        values["path"] = path
    if extras:
        _refuse(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv: list[str]) -> int:
    """Run the command ``argv`` names in this process and return its exit
    code. The heap and the process are the caller's: the tests and the
    benchmark's traced run call this."""
    args = parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """The process entry point, of `python -m x1scan.cli` and the installed
    `x1scan` script: run the process's own command line, flush its output,
    and end the process with the command's exit code.

    Every object alive at entry (modules, classes, functions) lives until
    the end, so ``gc.freeze()`` spares the collector traversing them again.
    Once the last byte is flushed nothing is left to do, so ``os._exit``
    ends the process without tearing down the module namespaces. A usage
    error or ``--help`` (SystemExit) and an uncaught exception end the
    process the usual way."""
    gc.freeze()
    code = main(sys.argv[1:])
    try:
        try:
            sys.stdout.flush()
        except OSError as e:  # say, a reader that closed the pipe
            # main returns 1 only after printing its own error line
            if code != EXIT_USAGE:
                print(f"error: {e}", file=sys.stderr)
            code = EXIT_USAGE
        sys.stderr.flush()
    except OSError:
        code = EXIT_USAGE
    os._exit(code)


if __name__ == "__main__":
    run()
