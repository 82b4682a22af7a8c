"""Exit codes, output contracts, and schema validity of the x1scan CLI."""

import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import sysconfig
import time
from importlib import resources
from pathlib import Path

import pytest

from helpers import load_schema, reference_parser, validate
from test_acceptance import COUNTEREXAMPLE, DEGREE_TWO_COUNTEREXAMPLE
from test_formula import MALFORMED

from x1scan import cli
from x1scan import formula as formula_module
from x1scan.cli import (
    EXIT_INTERNAL,
    EXIT_SAT,
    EXIT_UNSAT,
    EXIT_UNVERIFIED,
    EXIT_USAGE,
    main,
)
from x1scan.formula import emit_x1cnf, failed_clauses, formula, parse_x1cnf
from x1scan.oracle import (
    PROFILES,
    distinct_clauses,
    find_model,
    generate_campaign,
    generate_random,
)
from x1scan.solver import scan, verdict_as_dict

GOLDEN = "p x1cnf 3 3\n1 -3 0\n1 -2 3 0\n2 -3 0\n"


@pytest.fixture
def golden_path(tmp_path):
    p = tmp_path / "golden.cnf"
    p.write_text(GOLDEN)
    return str(p)


def write_cnf(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- solve -----------------------------------------------------------------


def test_solve_golden_human(golden_path, capsys):
    rc = main(["solve", golden_path])
    out = capsys.readouterr().out.splitlines()
    assert rc == EXIT_SAT
    assert "s SATISFIABLE" in out
    assert "v -1 -2 -3 0" in out
    assert "c rounds 4" in out


def test_solve_json_validates_and_is_deterministic(golden_path, capsys):
    rc = main(["solve", golden_path, "--json", "--no-timing", "--trace"])
    first = capsys.readouterr().out
    assert rc == EXIT_SAT
    doc = json.loads(first)
    assert validate(doc, load_schema("verdict")) == []
    assert doc["assignment"] == [-1, -2, -3]
    assert doc["verification"] == {"passed": True, "failed": []}
    assert "timing_ms" not in doc
    assert [e["kind"] for e in doc["trace"]["events"]][:2] == [
        "conjunct_added",
        "two_to_unit",
    ]

    main(["solve", golden_path, "--json", "--no-timing", "--trace"])
    assert capsys.readouterr().out == first


def test_solve_timing_included_by_default(golden_path, capsys):
    main(["solve", golden_path, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["timing_ms"], float)


def test_solve_unsat_exit(tmp_path, capsys):
    path = write_cnf(tmp_path, "units.cnf", "p x1cnf 1 2\n1 0\n-1 0\n")
    rc = main(["solve", path])
    assert rc == EXIT_UNSAT
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_a_well_formed_file_is_solved_from_rows_alone(tmp_path, monkeypatch, capsys):
    # from the text to the verdict or the net, a well-formed file makes no
    # Clause record and converts no token in a Python loop: only the header's
    # two counts, also where a comment holds a non-ASCII character
    f = generate_random(200, 800, seed=0)
    path = tmp_path / "u.cnf"
    made, read = [], []
    real_init, real_ints = formula_module.Clause.__init__, formula_module._ints

    def init(self, id, lits):
        made.append(id)
        real_init(self, id, lits)

    def ints(raw, parts, line_no, what):
        read.append(line_no)
        return real_ints(raw, parts, line_no, what)

    monkeypatch.setattr(formula_module.Clause, "__init__", init)
    monkeypatch.setattr(formula_module, "_ints", ints)
    for text, code, header in ((emit_x1cnf(f), EXIT_UNSAT, 1), (GOLDEN, EXIT_SAT, 1),
                               ("c r\u00e9sum\u00e9\n" + emit_x1cnf(f), EXIT_UNSAT, 2)):
        path.write_text(text)
        assert main(["solve", "--json", "--no-timing", str(path)]) == code
        assert made == [] and read == [header]
        read.clear()
    path.write_text(GOLDEN)
    for direction in ([], ["--forward"]):
        for output in (["--json", "--check-reach"], ["--dot"]):
            assert main(["net", *direction, *output, str(path)]) == 0
            assert made == [] and read == [1]
            read.clear()
    capsys.readouterr()
    # a reader of the records still gets them, with their ids and literals
    assert [(c.id, c.lits) for c in f.clauses] == list(zip(f.ids, f.rows))
    assert made == list(range(1, 801))


def test_solve_random_order_seeded_deterministic(golden_path, capsys):
    args = ["solve", golden_path, "--json", "--no-timing", "--seed", "11"]
    rc = main(args)
    first = capsys.readouterr().out
    assert rc == EXIT_SAT
    main(args)
    assert capsys.readouterr().out == first


def test_solve_seed_names_the_shuffled_order(tmp_path, capsys):
    f = generate_random(12, 10, seed=2, profile="adversarial")
    path = write_cnf(tmp_path, "f.cnf", emit_x1cnf(f))
    docs = []
    for seed in (None, 11):
        argv = ["solve", path, "--json", "--trace", "--no-timing"]
        main(argv + ([] if seed is None else ["--seed", str(seed)]))
        docs.append(json.loads(capsys.readouterr().out))
        assert docs[-1] == verdict_as_dict(scan(f, seed, dumps=True))
    # the seed changes which probes ran, so the two orders are told apart
    assert docs[0]["trace"]["scopes"] != docs[1]["trace"]["scopes"]


def test_solve_trace_without_json_is_a_usage_error(golden_path, capsys):
    # the text output has no place for the trace it would build
    assert main(["solve", golden_path, "--trace", "--no-timing"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace needs --json\n"


def test_solve_reads_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN))
    assert main(["solve", "-"]) == EXIT_SAT
    assert "s SATISFIABLE" in capsys.readouterr().out


def test_solve_malformed_file_reports_line(tmp_path, capsys):
    path = write_cnf(tmp_path, "bad.cnf", "p x1cnf 2 1\n1 2\n")
    rc = main(["solve", path])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert "line 2" in err and "end with 0" in err


@pytest.mark.parametrize("text,line_no,needle", MALFORMED)
def test_solve_malformed_inputs_name_their_line(tmp_path, capsys, text, line_no, needle):
    rc = main(["solve", write_cnf(tmp_path, "bad.cnf", text)])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert f"line {line_no}: " in err and needle in err


def test_solve_rejects_huge_declared_n(tmp_path, capsys):
    # refused at the header, before any per-variable allocation
    path = write_cnf(tmp_path, "huge.cnf", "p x1cnf 1000000000 1\n1 2 3 0\n")
    rc = main(["solve", path])
    err = capsys.readouterr().err
    assert rc == EXIT_INTERNAL
    assert err == (
        "error: line 1: header declares 1000000000 variables, "
        "above the limit MAX_VARS=1000000\n"
    )


HEADER_SIZED = "p x1cnf 1000000 0\n"

# runs one x1scan child with its output to a file, then prints the child's
# exit code and peak RSS in KB; a fresh process, since RUSAGE_CHILDREN would
# report the largest of the test process's earlier children
PEAK_PROBE = (
    "import resource, subprocess, sys\n"
    "with open(sys.argv[1], 'w') as out:\n"
    "    argv = [sys.executable, '-m', 'x1scan.cli', *sys.argv[2:]]\n"
    "    rc = subprocess.run(argv, stdout=out).returncode\n"
    "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


# peaks measured on CPython 3.11, x86-64 Linux: 71 MB for the v line, 54 MB
# for the JSON document (140 and 205 MB when a model was a dict and the
# document was built as one string)
@pytest.mark.parametrize("argv, peak_mb", [
    (["solve"], 85),
    (["solve", "--json"], 65),
    (["oracle"], 85),
    (["oracle", "--json"], 65),
])
def test_a_header_sized_model_is_printed_in_bounded_memory(tmp_path, argv, peak_mb):
    path = write_cnf(tmp_path, "header.cnf", HEADER_SIZED)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", PEAK_PROBE, str(out), *argv, path,
                           "--no-timing"], capture_output=True, text=True, timeout=60)
    rc, peak_kb = map(int, proc.stdout.split())
    assert rc == EXIT_SAT, proc.stderr
    if "--json" in argv:
        lits = json.loads(out.read_text())["assignment"]
        assert (len(lits), lits[0], lits[-1]) == (10**6, -1, -10**6)
    else:
        v_line = out.read_text().splitlines()[-1]
        assert v_line.startswith("v -1 -2 ") and v_line.endswith(" -1000000 0")
    assert peak_kb / 1024 < peak_mb


def test_a_clause_heavy_file_is_refuted_in_bounded_memory(tmp_path):
    # read as rows of literals, with no record per clause: peaks of 155-157 MB
    # on CPython 3.10-3.13, x86-64 Linux (175-195 MB with a record per clause)
    path = write_cnf(tmp_path, "heavy.cnf", emit_x1cnf(generate_random(75_000, 300_000, seed=0)))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", PEAK_PROBE, str(out), "solve", "--json",
                           "--no-timing", path], capture_output=True, text=True, timeout=60)
    rc, peak_kb = map(int, proc.stdout.split())
    assert rc == EXIT_UNSAT, proc.stderr
    assert json.loads(out.read_text())["status"] == "unsat"
    assert peak_kb / 1024 < 170


def test_solve_claimed_sat_unverified_exits_30(tmp_path, capsys):
    # the scan's fixpoint claims satisfiability on an unsat formula, and the
    # completion pick dead-ends; the oracle proves it unsat
    path = write_cnf(tmp_path, "degree2.cnf", emit_x1cnf(DEGREE_TWO_COUNTEREXAMPLE))
    rc = main(["solve", path, "--no-timing"])
    assert rc == EXIT_UNVERIFIED
    assert capsys.readouterr().out.splitlines() == [
        "c completion picks (procedure gave no verdict): [1]",
        "c rounds 18",
        "s CLAIMED-SAT-UNVERIFIED",
    ]
    rc = main(["solve", path, "--json", "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_UNVERIFIED
    assert validate(doc, load_schema("verdict")) == []
    assert doc["status"] == "claimed_sat_unverified"
    assert doc["assignment"] is None and doc["verification"] is None
    assert main(["oracle", path]) == EXIT_UNSAT


def test_solve_parallel_flag_is_gone(golden_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", golden_path, "--parallel"])
    assert exc.value.code == EXIT_USAGE


def test_solve_missing_file(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.cnf")])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_solve_path_through_a_file(golden_path, capsys):
    rc = main(["solve", golden_path + "/x"])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_diff_out_onto_an_existing_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = main(["diff", "--count", "1", "--permutations", "0", "--no-timing",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle", "FILE", "--order", "random"],
    ["diff", "--json"],
    ["diff", "--budget-states", "5"],
    ["net", "FILE", "--seed", "1"],
    ["diff", "--order", "random"],
    ["solve", "FILE", "--order", "random"],
])
def test_subcommand_rejects_a_common_flag_it_never_reads(golden_path, capsys, argv):
    argv = [golden_path if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


# --- oracle ------------------------------------------------------------------


def test_oracle_golden_sat(golden_path, capsys):
    rc = main(["oracle", golden_path])
    out = capsys.readouterr().out.splitlines()
    assert rc == EXIT_SAT
    assert "s SATISFIABLE" in out
    assert "v -1 -2 -3 0" in out


def test_oracle_unsat_pair(tmp_path, capsys):
    path = write_cnf(tmp_path, "pair.cnf", "p x1cnf 2 2\n1 2 0\n1 -2 0\n")
    assert main(["oracle", path]) == EXIT_UNSAT


def test_oracle_budget_guard(tmp_path, capsys):
    # the search stops when it has spent its budget, whatever n is
    path = write_cnf(tmp_path, "php.cnf", emit_x1cnf(COUNTEREXAMPLE))
    assert main(["oracle", path]) == EXIT_UNSAT
    capsys.readouterr()
    assert main(["oracle", path, "--budget-states", "5"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exact search spent its budget of 5 steps\n"


def test_oracle_decides_past_thirty_variables(tmp_path, capsys):
    # the search makes the first open literal of its branching clause true
    path = write_cnf(tmp_path, "wide.cnf", "p x1cnf 30 1\n1 2 3 0\n")
    assert main(["oracle", path]) == EXIT_SAT
    assert capsys.readouterr().out.splitlines()[-1] == "v 1 " + " ".join(
        str(-v) for v in range(2, 31)) + " 0"


def test_oracle_prints_the_model_its_search_found(tmp_path, capsys):
    # one search answers: a large satisfiable component needs no second
    # search per true variable to print its model
    f = generate_random(1000, 400, seed=0)
    path = write_cnf(tmp_path, "sparse.cnf", emit_x1cnf(f))
    assert main(["oracle", path, "--budget-states", "10000"]) == EXIT_SAT
    v_line = capsys.readouterr().out.splitlines()[-1]
    assert failed_clauses(f, [int(t) for t in v_line.split()[1:-1]]) == []


def test_oracle_on_a_large_instance_ends_without_a_traceback(tmp_path):
    path = write_cnf(tmp_path, "big.cnf", emit_x1cnf(generate_random(1000, 4000, 0)))
    proc, elapsed = run_cli(["oracle", path], timeout=60)
    assert proc.returncode in (EXIT_UNSAT, EXIT_INTERNAL)
    assert "Traceback" not in proc.stderr
    assert elapsed < 10.0


def test_oracle_json_validates(golden_path, capsys):
    rc = main(["oracle", golden_path, "--json", "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_SAT
    assert validate(doc, load_schema("oracle")) == []
    assert doc == {"status": "sat", "assignment": [-1, -2, -3]}


def test_empty_model_value_line(tmp_path, capsys):
    path = write_cnf(tmp_path, "empty.cnf", "p x1cnf 0 0\n")
    for command in ("solve", "oracle"):
        assert main([command, path]) == EXIT_SAT
        assert capsys.readouterr().out.splitlines()[-1] == "v 0"


def test_a_variable_of_no_clause_is_never_probed(tmp_path, capsys):
    path = write_cnf(tmp_path, "free.cnf", "p x1cnf 3 0\n")
    assert main(["solve", path, "--json", "--no-timing"]) == EXIT_SAT
    assert json.loads(capsys.readouterr().out)["assignment"] == [-1, -2, -3]
    main(["solve", path, "--json", "--no-timing", "--trace"])
    assert json.loads(capsys.readouterr().out)["trace"]["scopes"] == []


def test_a_variable_of_no_clause_reads_false(tmp_path, capsys):
    path = write_cnf(tmp_path, "one.cnf", "p x1cnf 4 1\n2 3 4 0\n")
    assert main(["solve", path, "--json", "--no-timing", "--trace"]) == EXIT_SAT
    doc = json.loads(capsys.readouterr().out)
    scopes = doc["trace"]["scopes"]
    assert scopes
    for s in scopes:
        named = [s["literal"], *s["E"], *(l for p in s["xor_pairs"] for l in p)]
        assert 1 not in map(abs, named)
    assert doc["assignment"][0] == -1


# --- one assignment, printed three ways -----------------------------------------

# the covering scope of x1 leaves out x2 and x4, which the scan completes
# from the state; the verdict still lists every variable in order
COVERED = formula(4, [[3, 1], [4]])


def printed_assignments(command, path, capsys):
    """The assignment of the ``v`` line, and that of the ``--json`` document,
    that ``command`` prints for the file at ``path``; None where it prints none."""
    main([command, path, "--no-timing"])
    v_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("v ")]
    main([command, path, "--json", "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    return ([int(t) for t in v_lines[0].split()[1:-1]] if v_lines else None), doc["assignment"]


def test_v_line_and_json_print_the_same_assignment_in_variable_order(tmp_path, capsys):
    assert scan(COVERED).assignment == [1, -2, -3, 4]
    corpus = [parse_x1cnf(GOLDEN), COVERED, formula(3, [])]
    corpus += generate_campaign(24, (4, 12), (1, 5), tuple(PROFILES), 5)
    models = 0
    for i, f in enumerate(corpus):
        path = write_cnf(tmp_path, f"{i}.cnf", emit_x1cnf(f))
        for command, assignment in (("solve", scan(f).assignment),
                                    ("oracle", find_model(f, 10**6))):
            if assignment is not None:
                assert [abs(l) for l in assignment] == list(range(1, f.n_vars + 1))
                models += 1
            assert printed_assignments(command, path, capsys) == (assignment, assignment), \
                (command, i)
    assert models > len(corpus)


@pytest.mark.parametrize("argv, search", [
    (["oracle", "FILE", "--budget-states", "1"], "exact search"),
    (["net", "FILE", "--check-reach", "--budget-states", "1"], "reachability search"),
], ids=["oracle", "net"])
def test_a_spent_budget_is_one_error_line_and_exit_2(golden_path, capsys, argv, search):
    rc = main([golden_path if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    assert rc == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == f"error: {search} spent its budget of 1 steps\n"


# --- net ---------------------------------------------------------------------


def test_net_human_lists_clause_conflicts(golden_path, capsys):
    rc = main(["net", golden_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3 conflict places" in out
    assert "c conflict c2: z2_1 z2_-2 z2_3" in out


def test_net_unit_only_inverse_has_no_conflict_places(tmp_path, capsys):
    path = write_cnf(tmp_path, "units.cnf", "p x1cnf 2 2\n1 0\n-2 0\n")
    rc = main(["net", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 conflict places" in out
    assert "c conflict" not in out


def test_net_json_validates(golden_path, capsys):
    rc = main(["net", golden_path, "--forward", "--json", "--check-reach"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert validate(doc, load_schema("net")) == []
    assert doc["name"] == "forward"
    assert doc["target_reachable"] is True
    # the dump keeps the full shared-place map, guards included
    assert "g1" in doc["conflicts"]


def test_net_dot_deterministic(golden_path, capsys):
    main(["net", golden_path, "--dot"])
    first = capsys.readouterr().out
    assert first.startswith("digraph")
    main(["net", golden_path, "--dot"])
    assert capsys.readouterr().out == first


def test_net_check_reach_verdict_lines(tmp_path, golden_path, capsys):
    unsat = write_cnf(tmp_path, "units.cnf", "p x1cnf 1 2\n1 0\n-1 0\n")
    for direction in ([], ["--forward"]):
        assert main(["net", *direction, golden_path, "--check-reach"]) == 0
        assert "s REACHABLE" in capsys.readouterr().out
        assert main(["net", *direction, unsat, "--check-reach"]) == 0
        assert "s UNREACHABLE" in capsys.readouterr().out


def test_net_converts_special_with_notice(tmp_path, capsys):
    path = write_cnf(tmp_path, "special.cnf", "p x1cnf 2 1\n2 1 -1 0\n")
    rc = main(["net", path, "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "converted special formula" in captured.err
    doc = json.loads(captured.out)
    assert doc["conversion_notice"] == {"forced": [-2], "removed_clauses": [1]}


CONTRADICTORY_SPECIAL = "p x1cnf 2 2\n2 1 -1 0\n-2 1 -1 0\n"


@pytest.mark.parametrize("command", ["solve", "net"])
def test_conversion_contradiction_is_unsat(tmp_path, capsys, command):
    # both clauses carry x1 and -x1, so they force -x2 and x2 in turn
    path = write_cnf(tmp_path, "contra.cnf", CONTRADICTORY_SPECIAL)
    rc = main([command, path] + (["--no-timing"] if command == "solve" else []))
    captured = capsys.readouterr()
    assert rc == EXIT_UNSAT
    assert "s UNSATISFIABLE" in captured.out.splitlines()
    notice = "c conversion contradiction on variable 2"
    assert notice in (captured.out if command == "solve" else captured.err)
    assert "converted special formula" not in captured.out + captured.err


def test_net_dot_json_conflict(golden_path, capsys):
    rc = main(["net", golden_path, "--dot", "--json"])
    assert rc == EXIT_USAGE
    assert "mutually exclusive" in capsys.readouterr().err


def test_net_dot_check_reach_conflict(golden_path, capsys):
    # DOT text has no place for a verdict, so the search never runs: a budget
    # it would spend at once changes nothing
    for budget in ([], ["--budget-states", "1"]):
        rc = main(["net", golden_path, "--dot", "--check-reach", *budget])
        captured = capsys.readouterr()
        assert rc == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "error: --dot and --check-reach are mutually exclusive\n"


@pytest.mark.parametrize("argv, name, nodes", [
    ([], "inverse", 4_000_002),
    (["--json"], "inverse", 4_000_002),
    (["--forward", "--dot"], "forward", 3_000_002),
])
def test_net_refuses_a_header_sized_net_before_building_it(tmp_path, golden_path, capsys,
                                                           argv, name, nodes):
    path = write_cnf(tmp_path, "header.cnf", HEADER_SIZED)
    t0 = time.perf_counter()
    rc = main(["net", path, *argv])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == EXIT_INTERNAL and elapsed < 1.0
    assert captured.out == ""
    assert captured.err == (f"error: the {name} net would have {nodes} nodes, "
                            "above the limit MAX_NET_NODES=150000\n")
    assert main(["net", golden_path, *argv]) == 0


def test_net_reach_budget_exhaustion(golden_path, capsys):
    rc = main(["net", golden_path, "--check-reach", "--budget-states", "1"])
    assert rc == EXIT_INTERNAL


PAIRS_1200 = "p x1cnf 2400 1200\n" + "".join(f"{2 * i + 1} {2 * i + 2} 0\n" for i in range(1200))


def test_net_check_reach_on_a_wide_net(tmp_path, capsys):
    # 7,201 transitions: no size guard, and no recursion per token
    path = write_cnf(tmp_path, "pairs.cnf", PAIRS_1200)
    assert main(["net", path, "--check-reach"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "s REACHABLE"


def test_net_reach_budget_exhaustion_is_an_error_line(tmp_path):
    path = write_cnf(tmp_path, "pairs.cnf", PAIRS_1200)
    proc = subprocess.run(
        [sys.executable, "-m", "x1scan.cli", "net", path, "--check-reach",
         "--budget-states", "1000"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stderr == "error: reachability search spent its budget of 1000 steps\n"
    assert proc.stdout == ""


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse rejects the flag itself
        return e.code


@pytest.mark.parametrize("argv", [
    ["net", "FILE", "--check-reach", "--budget-states", "0"],
    ["net", "FILE", "--check-reach", "--budget-states", "-5"],
    ["diff", "--permutations", "0", "--count", "-1"],
    ["diff", "--count", "1", "--permutations", "-1"],
    ["oracle", "FILE", "--budget-states", "0"],
    ["oracle", "FILE", "--budget-states", "-5"],
    ["oracle", "FILE", "--budget-states", "inf"],
    ["diff", "--count", "1", "--permutations", "inf"],
])
def test_numeric_flag_out_of_range_is_a_usage_error(golden_path, capsys, argv):
    argv = [golden_path if a == "FILE" else a for a in argv]
    assert exit_code(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument " + argv[-2] in captured.err


@pytest.mark.parametrize("argv", [
    ["diff", "--count", "3", "--permutations", "0", "--m-max", "-1"],
    ["diff", "--count", "3", "--permutations", "0", "--m-min", "-5"],
    ["diff", "--count", "3", "--permutations", "0", "--n-min", "0"],
    ["diff", "--count", "3", "--permutations", "0", "--n-max", "-4"],
])
def test_diff_size_flag_out_of_range_is_a_usage_error(capsys, argv):
    # a negative clause count used to run as clause-free formulas and exit 0
    assert exit_code(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument " + argv[-2] in captured.err


@pytest.mark.parametrize("low,high", [("--n-min", "--n-max"), ("--m-min", "--m-max")])
def test_diff_reversed_range_is_a_usage_error(capsys, low, high):
    assert main(["diff", "--count", "3", low, "5", high, "4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {low} 5 exceeds {high} 4\n"


# --- diff ----------------------------------------------------------------------


def test_diff_json_deterministic_and_valid(capsys):
    args = ["diff", "--count", "6", "--n-min", "2", "--n-max", "4",
            "--permutations", "2", "--seed", "3", "--no-timing"]
    rc = main(args)
    first = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(first)
    assert validate(doc, load_schema("diff_report")) == []
    assert doc["instance_count"] == 6
    assert doc["agreements"] == 6
    assert doc["timing_ms"] is None
    main(args)
    assert capsys.readouterr().out == first


def test_diff_statuses_tell_campaigns_apart(capsys):
    # every instance of both campaigns agrees with the oracle, so the counts
    # alone print the same bytes for the two seeds; the verdicts differ
    outs = []
    for seed in ("3000", "11000"):
        assert main(["diff", "--no-timing", "--count", "25", "--n-min", "2",
                     "--n-max", "14", "--profiles", "mixed,uniform3,adversarial",
                     "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    docs = [json.loads(out) for out in outs]
    assert all(d["agreements"] == 25 and len(d["statuses"]) == 25 for d in docs)
    assert outs[0] != outs[1]
    assert docs[0]["statuses"] != docs[1]["statuses"]


# sha256 of the benchmark's campaign batch report, per seed; the same bytes on
# Python 3.10 to 3.13
CAMPAIGN_REPORT_SHA256 = {
    0: "0e1c035ae593a3dfad73e145f05b62c9005015d8bb19cd9b8e542d56d03c6707",
    1: "8f319ac7959ad90965ce4866591e8ec25c0a34b9e318815b4d435ceba2684609",
    2: "789f721dc351c7ac8c7bd205defa0f5be705411c32163684a4e32d1f341974a5",
}


@pytest.mark.parametrize("seed", sorted(CAMPAIGN_REPORT_SHA256))
def test_diff_campaign_report_is_pinned(seed, capsys):
    assert main(["diff", "--no-timing", "--count", "25", "--n-min", "2", "--n-max", "14",
                 "--profiles", "mixed,uniform3,adversarial", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CAMPAIGN_REPORT_SHA256[seed]


def test_diff_out_dir_created(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["diff", "--count", "3", "--seed", "1", "--no-timing",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert out.is_dir()
    assert "wrote 0 discrepancy files" in captured.err


@pytest.mark.parametrize("argv", [
    ["--profiles", "mixed,bogus", "--count", "1"],
    ["--profiles", "bogus", "--count", "0"],
])
def test_diff_unknown_profile_is_refused_before_any_draw(capsys, argv):
    assert main(["diff", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown profile 'bogus' (choose from uniform3, mixed, adversarial)\n"
    )


@pytest.mark.parametrize("seed", ["0", "1"])
def test_diff_m_range_past_the_distinct_clauses_is_refused_whatever_the_seed(capsys, seed):
    # at n = 1 a mixed clause is 1 or -1; the refusal comes before any draw
    argv = ["diff", "--no-timing", "--count", "40", "--n-min", "1", "--n-max", "20",
            "--m-min", "0", "--m-max", "3", "--profiles", "mixed", "--seed", seed]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot draw 3 distinct mixed clauses over 1 variables (at most 2)\n"
    )


@pytest.mark.parametrize("profile", PROFILES)
def test_diff_draws_every_distinct_clause_at_a_profiles_least_n(capsys, profile):
    # one more clause than the profile can draw there is refused before any draw
    n = PROFILES[profile][0]
    most = distinct_clauses(n, profile)
    for m, code in ((most, 0), (most + 1, EXIT_USAGE)):
        argv = ["diff", "--no-timing", "--count", "1", "--n-min", str(n), "--n-max", str(n),
                "--m-min", str(m), "--m-max", str(m), "--profiles", profile]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == (f"error: cannot draw {m} distinct {profile} clauses "
                                    f"over {n} variables (at most {most})\n")
        else:
            assert json.loads(captured.out)["agreements"] == 1


def test_diff_fixed_order_verdicts_do_not_depend_on_the_group(capsys):
    # the benchmark's campaign batch alone and with its 10 random orders
    docs = []
    for orders in (["--permutations", "0"], []):
        assert main(["diff", "--no-timing", "--count", "25", "--n-min", "2", "--n-max", "14",
                     "--profiles", "mixed,uniform3,adversarial", "--seed", "0", *orders]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    alone, grouped = docs
    assert (alone["statuses"], alone["agreements"]) == (grouped["statuses"],
                                                        grouped["agreements"])
    assert grouped["order_invariance"]["invariant"] == grouped["instance_count"] == 25


def test_diff_without_random_orders_counts_every_instance_invariant(capsys):
    assert main(["diff", "--count", "3", "--permutations", "0", "--profiles", "mixed",
                 "--no-timing"]) == 0
    inv = json.loads(capsys.readouterr().out)["order_invariance"]
    assert inv == {"instances": 3, "permutations": 0, "invariant": 3,
                   "varied_instances": []}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="a campaign forks no worker on one CPU")
@pytest.mark.parametrize("argv", [
    ["--count", "25", "--n-min", "2", "--n-max", "14", "--profiles",
     "mixed,uniform3,adversarial", "--seed", "0"],
    ["--count", "9", "--n-min", "30", "--n-max", "60", "--permutations", "2", "--seed", "4"],
], ids=["benchmark-batch", "n30-60"])
def test_diff_prints_the_same_report_on_one_cpu_and_on_all(argv):
    # the child pinned to one CPU judges every instance itself; unpinned, it
    # forks a worker per CPU
    cpu = min(os.sched_getaffinity(0))
    ends = []
    for pin in (lambda: os.sched_setaffinity(0, {cpu}), None):
        proc = subprocess.run([sys.executable, "-m", "x1scan.cli", "diff", "--no-timing", *argv],
                              capture_output=True, text=True, env=child_env(), preexec_fn=pin)
        ends.append((proc.returncode, proc.stdout))
        assert proc.stderr == ""
    assert ends[0] == ends[1]
    assert ends[0][0] == 0 and json.loads(ends[0][1])["instance_count"] == int(argv[1])


def test_diff_m_range_must_be_paired(capsys):
    rc = main(["diff", "--count", "1", "--m-min", "2"])
    assert rc == EXIT_USAGE
    assert "--m-min and --m-max" in capsys.readouterr().err


# --- hostile input ----------------------------------------------------------------


def run_cli(argv, timeout):
    """``python -m x1scan.cli`` in a child process, with its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "x1scan.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)
    return proc, time.perf_counter() - t0


UNITS_20000 = "p x1cnf 20000 20000\n" + "".join(f"{i} 0\n" for i in range(1, 20001))
# (16000+i, i, -i): each clause forces -(16000+i) and drops as a tautology
SPECIAL_16000 = "p x1cnf 32000 16000\n" + "".join(
    f"{16000 + i} {i} -{i} 0\n" for i in range(1, 16001)
)


@pytest.mark.parametrize("text,line_no", [
    ("p x1cnf 3 1\n1 2 " + "x" * 5_000_000 + " 0\n", 2),
    ("p x1cnf 3 " + "y" * 5_000_000 + "\n", 1),
    ("p x1cnf 3 1 " + "z " * 2_500_000 + "\n", 1),
], ids=["clause-token", "header-count", "header-tail"])
def test_a_huge_token_gets_a_short_error(tmp_path, capsys, text, line_no):
    # the message quotes the offending token, clipped, never the whole line
    rc = main(["solve", write_cnf(tmp_path, "huge.cnf", text)])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith(f"error: line {line_no}: ") and len(err) < 200


@pytest.mark.parametrize("text", [UNITS_20000, SPECIAL_16000], ids=["units", "special"])
def test_unit_and_special_heavy_input_solves_in_linear_time(tmp_path, text):
    path = write_cnf(tmp_path, "hostile.cnf", text)
    proc, elapsed = run_cli(["solve", path], timeout=60)
    assert proc.returncode == EXIT_SAT
    assert "s SATISFIABLE" in proc.stdout.splitlines()
    assert elapsed < 5.0


@pytest.mark.parametrize("argv", [
    ["diff", "--count", "1", "--n-min", "3", "--n-max", "3", "--m-min", "9",
     "--m-max", "9", "--profiles", "uniform3", "--permutations", "0"],
    ["diff", "--count", "1", "--n-min", "8", "--n-max", "8", "--m-min", "100000",
     "--m-max", "100000", "--permutations", "0"],
    ["diff", "--count", "1", "--n-min", "1", "--n-max", "1", "--m-min", "3",
     "--m-max", "3", "--permutations", "0"],
])
def test_impossible_generator_request_exits_at_once(argv):
    proc, elapsed = run_cli(argv, timeout=30)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert elapsed < 2.0


# --- entry point ------------------------------------------------------------------


def test_module_entry_point_subprocess(golden_path):
    proc = subprocess.run(
        [sys.executable, "-m", "x1scan.cli", "solve", golden_path],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_SAT
    assert "s SATISFIABLE" in proc.stdout


def test_process_entry_freezes_the_import_time_heap(golden_path):
    # run() is what `python -m x1scan.cli` and the installed `x1scan` script
    # both call; it ends with os._exit, so the probe reports from there
    probe = (
        "import gc, os, sys\n"
        "from x1scan.cli import run\n"
        f"sys.argv = ['x1scan', 'solve', {golden_path!r}]\n"
        "end = os._exit\n"
        "def report(code):\n"
        "    print(gc.get_freeze_count(), file=sys.stderr, flush=True)\n"
        "    end(code)\n"
        "os._exit = report\n"
        "run()\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == EXIT_SAT, proc.stderr
    assert int(proc.stderr.split()[-1]) > 0


def test_process_entry_skips_interpreter_teardown(golden_path):
    # an exit handler would run at teardown; os._exit ends the process first
    probe = (
        "import atexit, sys\n"
        "from x1scan.cli import run\n"
        "atexit.register(print, 'teardown', file=sys.stderr)\n"
        f"sys.argv = ['x1scan', 'solve', {golden_path!r}]\n"
        "run()\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == EXIT_SAT
    assert proc.stdout.splitlines()[-1] == "v -1 -2 -3 0"
    assert proc.stderr == ""


def test_in_process_main_leaves_the_collector_alone(golden_path, capsys):
    before = gc.get_freeze_count()
    assert main(["solve", golden_path]) == EXIT_SAT
    assert gc.get_freeze_count() == before


def test_the_package_ships_its_json_schemas():
    names = sorted(p.name for p in resources.files("x1scan").joinpath("schemas").iterdir())
    assert names == ["diff_report.json", "net.json", "oracle.json", "verdict.json"]


def test_json_larger_than_two_batches_is_written_in_bounded_writes(monkeypatch):
    class Stdout:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    doc = {"assignment": list(range(-20000, 20000)), "status": "sat"}
    stdout = Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._print_json(doc)
    text = "".join(stdout.writes)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert len(text) > 2 * cli._JSON_BATCH
    assert len(stdout.writes) <= -(-len(text) // cli._JSON_BATCH) + 1


# modules a cold `solve` has no use for: dataclasses and statistics, and what
# they pull in (inspect, ast, dis; fractions, decimal); the other subcommands'
# modules; random, which only a seeded order draws from, and math; argparse,
# and the gettext, locale and shutil it loads
COLD_START_UNUSED = ("dataclasses", "inspect", "ast", "dis", "statistics", "fractions", "decimal",
                     "x1scan.oracle", "x1scan.petri", "random", "math",
                     "argparse", "gettext", "locale", "shutil")


def test_solve_loads_no_unused_stdlib_module(golden_path):
    # only what the import adds counts, so site hooks that load a module
    # before the interpreter runs the probe change nothing
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import x1scan.cli\n"
        f"x1scan.cli.main(['solve', '--json', '--no-timing', {golden_path!r}])\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.splitlines()[-1].split())
    assert "x1scan.solver" in added
    assert sorted(added.intersection(COLD_START_UNUSED)) == []


SRC = Path(cli.__file__).resolve().parent.parent


def child_env(unbuffered: bool = True) -> dict:
    """The environment of an x1scan child that imports this checkout's
    package from any directory, with Python's output unbuffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_the_console_script_answers_as_the_module_does(golden_path):
    # the script and `python -m x1scan.cli` share one entry point, cli.run;
    # only an installed package has the script, so this runs where x1scan is
    # imported from outside this checkout's src/
    if SRC == Path(__file__).resolve().parent.parent / "src":
        pytest.skip("x1scan is imported from this checkout's src/")
    script = Path(sysconfig.get_path("scripts")) / "x1scan"
    if not script.is_file():
        pytest.skip(f"no x1scan script in {script.parent}")
    ends = []
    for entry in ([str(script)], [sys.executable, "-m", "x1scan.cli"]):
        proc = subprocess.run([*entry, "solve", golden_path, "--json", "--no-timing"],
                              capture_output=True, text=True, env=child_env())
        ends.append((proc.returncode, proc.stdout))
    assert ends[0] == ends[1]
    assert ends[0][0] == EXIT_SAT


def test_a_bare_interpreter_loads_no_dead_weight(golden_path):
    # with no site hooks, whatever the probe finds loaded was loaded by x1scan;
    # typing and pathlib come with most sites, so only here can they show
    probe = (
        "import sys\n"
        "import x1scan.cli\n"
        f"x1scan.cli.main(['solve', '--json', '--no-timing', {golden_path!r}])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "x1scan.solver" in loaded
    assert sorted(loaded.intersection(COLD_START_UNUSED + ("typing", "pathlib"))) == []


# --- the process and the function -------------------------------------------------

# each command runs as `python -m x1scan.cli` and as main(argv) in this
# process, from a directory of its own that holds the golden formula and a
# malformed one
IN_PROCESS_AND_CHILD = [
    ["solve", "golden.cnf", "--no-timing"],
    ["solve", "golden.cnf", "--json", "--no-timing"],
    ["solve", "golden.cnf", "--json", "--trace", "--no-timing"],
    ["solve", "golden.cnf", "--seed", "11", "--json", "--no-timing"],
    ["oracle", "golden.cnf", "--no-timing"],
    ["net", "golden.cnf", "--json"],
    ["net", "golden.cnf", "--dot"],
    ["net", "golden.cnf", "--check-reach"],
    ["diff", "--count", "5", "--permutations", "2", "--no-timing", "--out", "corpus"],
    ["solve", "golden.cnf", "--seed", "x"],
    ["solve", "bad.cnf"],
    ["solve", "missing.cnf"],
    ["oracle", "golden.cnf", "--budget-states", "1"],
]


@pytest.mark.parametrize("argv", IN_PROCESS_AND_CHILD, ids=" ".join)
def test_a_process_ends_as_main_returns(tmp_path, monkeypatch, capsys, argv):
    ends = []
    for side in ("child", "main"):
        work = tmp_path / side
        work.mkdir()
        (work / "golden.cnf").write_text(GOLDEN)
        (work / "bad.cnf").write_text("p x1cnf 2 1\n1 2\n")
        if side == "child":
            proc = subprocess.run([sys.executable, "-m", "x1scan.cli", *argv], cwd=work,
                                  capture_output=True, text=True, env=child_env())
            end = [proc.returncode, proc.stdout, proc.stderr]
        else:
            monkeypatch.chdir(work)
            try:
                code = main(argv)
            except SystemExit as e:  # a usage error
                code = e.code
            captured = capsys.readouterr()
            end = [code, captured.out, captured.err]
        corpus = work / "corpus"
        if corpus.exists():
            end.append(sorted((p.name, p.read_bytes()) for p in corpus.iterdir()))
        ends.append(end)
    assert ends[0] == ends[1]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_the_pipe_after_one_byte(tmp_path, unbuffered):
    # the JSON document is far larger than a pipe holds, so the child is still
    # writing when the reader goes
    path = write_cnf(tmp_path, "wide.cnf", "p x1cnf 100000 0\n")
    proc = subprocess.Popen([sys.executable, "-m", "x1scan.cli", "solve", path, "--json",
                             "--no-timing"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(unbuffered))
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_pipe_closed_before_the_first_byte(golden_path, unbuffered):
    # buffered, the whole answer waits for the flush at the end, which fails
    proc = subprocess.Popen([sys.executable, "-m", "x1scan.cli", "solve", golden_path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(unbuffered))
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1, err


# --- the command line -------------------------------------------------------------

# one value each flag of the table takes, as a command line spells it
SAMPLE_VALUES = {"--seed": "3", "--profiles": "mixed,uniform3", "--out": "corpus",
                 "--budget-states": "7", "--count": "5", "--n-min": "2", "--n-max": "4",
                 "--m-min": "1", "--m-max": "3", "--permutations": "2"}


def flag_spellings():
    """Each flag of each subcommand, as --f v and --f=v (a switch alone),
    before and after the path."""
    lines = []
    for command, (_, _, takes_path, flags) in cli._COMMANDS.items():
        path = ["FILE"] if takes_path else []
        for flag, (metavar, *_) in flags.items():
            forms = ([[flag]] if metavar is None else
                     [[flag, SAMPLE_VALUES[flag]], [f"{flag}={SAMPLE_VALUES[flag]}"]])
            for form in forms:
                lines += [[command, *form, *path], [command, *path, *form]]
    return lines


PARSER_CORPUS = [
    # the README's synopsis lines, every flag given
    ["solve", "FILE", "--json", "--trace", "--seed", "3", "--no-timing"],
    ["oracle", "FILE", "--json", "--no-timing", "--budget-states", "100"],
    ["net", "FILE", "--forward", "--dot", "--check-reach", "--budget-states", "100"],
    ["net", "FILE", "--json", "--check-reach"],
    ["diff", "--count", "5", "--n-min", "2", "--n-max", "4", "--m-min", "1", "--m-max", "3",
     "--profiles", "mixed,uniform3", "--permutations", "2", "--out", "DIR", "--seed", "9",
     "--no-timing"],
    # stdin, negative values, a repeated flag, the end of the flags
    ["solve", "-"],
    ["solve", "-", "--json"],
    ["solve", "FILE", "--seed", "-5"],
    ["solve", "FILE", "--seed=-5"],
    ["diff", "--seed", "-5"],
    ["solve", "FILE", "--seed", "1", "--seed", "2"],
    ["diff", "--count", "3", "--count", "4", "--no-timing", "--no-timing"],
    ["solve", "--json", "--", "FILE"],
    ["solve", "--", "FILE"],
    ["solve", "FILE", "--", "--json"],
    # out of range or not an integer
    ["net", "FILE", "--check-reach", "--budget-states", "0"],
    ["oracle", "FILE", "--budget-states", "-5"],
    ["oracle", "FILE", "--budget-states", "inf"],
    ["oracle", "FILE", "--budget-states=1.5"],
    ["diff", "--count", "-1"],
    ["diff", "--permutations", "inf"],
    ["diff", "--n-min", "0"],
    ["diff", "--n-max", "-4"],
    ["diff", "--m-min", "-5"],
    ["diff", "--m-max", "-1"],
    ["diff", "--count", ""],
    ["solve", "FILE", "--seed", "x"],
    ["solve", "FILE", "--seed", "-1.5"],
    ["diff", "--seed=0x10"],
    # a flag without its value, a switch with one
    ["solve", "FILE", "--seed"],
    ["diff", "--count", "--no-timing"],
    ["solve", "FILE", "--json=1"],
    # unknown flags, another subcommand's flags, paths missing or extra
    ["solve", "FILE", "--parallel"],
    ["oracle", "FILE", "--seed", "1"],
    ["solve", "FILE", "--order", "random"],
    ["net", "FILE", "--seed", "1"],
    ["diff", "--json"],
    ["diff", "--budget-states", "5"],
    ["solve"],
    ["solve", "--json"],
    ["solve", "FILE", "OTHER"],
    ["diff", "FILE"],
    # commands
    ["frobnicate"],
    [],
    # help at both levels
    ["-h"],
    ["--help"],
    ["solve", "-h"],
    ["diff", "--help"],
    ["solve", "FILE", "--json", "-h"],
] + flag_spellings()


def parse_outcome(parse, argv, capsys):
    """The values ``parse`` reads from ``argv``, or how it exited: the code,
    and the whole error when it names a flag (`argument --seed: ...`)."""
    try:
        return vars(parse(argv))
    except SystemExit as e:
        captured = capsys.readouterr()
        named = re.search(r"error: (argument --.*)", captured.err)
        if e.code == 0:
            assert captured.out and not captured.err
        else:
            assert captured.err.startswith("usage: ") and not captured.out
        return e.code, named and named.group(1)


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_the_table_reads_a_command_line_as_argparse_did(capsys, argv):
    reference = parse_outcome(reference_parser().parse_args, argv, capsys)
    assert parse_outcome(cli.parse_args, argv, capsys) == reference
    if isinstance(reference, tuple):
        assert reference[0] in (0, EXIT_USAGE)


def test_a_flag_is_matched_in_full(golden_path, capsys):
    # argparse took --no-tim for --no-timing
    assert vars(reference_parser().parse_args(["solve", golden_path, "--no-tim"]))["no_timing"]
    with pytest.raises(SystemExit) as exc:
        main(["solve", golden_path, "--no-tim"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("x1scan solve: error: unrecognized arguments: --no-tim\n")


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_names_every_flag_of_the_table(capsys, command):
    commands = cli._COMMANDS if command is None else [command]
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in commands:
        assert f"x1scan {name} " in out
        for flag in cli._COMMANDS[name][3]:
            assert f"[{flag}" in out


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_help_gives_every_flag_a_text_and_its_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([command, "-h"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for flag, (metavar, _, default, text) in cli._COMMANDS[command][3].items():
        assert text, flag
        if default is not None and default is not False:
            text += f" (default: {default})"
        name = flag if metavar is None else f"{flag} {metavar}"
        assert f"{name} {' '.join(text.split())}" in out, flag
