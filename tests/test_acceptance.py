"""Acceptance gate: one test per shipped claim, one summary line per test.

Each test measures what it checks and reports the numbers through the
``criterion`` fixture; the collected lines are printed in the terminal
summary section "acceptance criteria".
"""

import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from math import log
from pathlib import Path
from random import Random
from statistics import linear_regression, median

from helpers import (
    brute_force_sat,
    exhaustive_general,
    exhaustive_special,
    net_cross_check,
    play_token_game,
    replay_monotonicity,
)
from test_petri import reference_net

from x1scan.cli import main
from x1scan.formula import (
    DEFAULT_STATE_BUDGET,
    convert_special,
    emit_x1cnf,
    failed_clauses,
    formula,
    parse_x1cnf,
)
from x1scan.oracle import (
    differential_corpus,
    find_model,
    generate_campaign,
    generate_random,
    minimize_counterexample,
    write_discrepancies,
)
from x1scan.petri import build_inverse_net, target_reachable
from x1scan.reduction import init_state
from x1scan.scope import (
    Built,
    CoversSatisfiable,
    PairIndex,
    ScopeFormula,
    XorSat,
    build_scope,
    incompatible,
    xor2sat_satisfiable,
)
from x1scan.solver import extract_assignment, scan

GOLDEN = formula(3, [[1, -3], [1, -2, 3], [2, -3]])

GOLDEN_EVENTS = [
    {"round": 1, "kind": "conjunct_added", "clause": None, "literals": [-1]},
    {"round": 1, "kind": "two_to_unit", "clause": 1, "literals": [-3]},
    {"round": 1, "kind": "three_to_two", "clause": 2, "literals": [1]},
    {"round": 1, "kind": "conjunct_added", "clause": 1, "literals": [-3]},
    {"round": 1, "kind": "literal_discarded", "clause": None, "literals": [1]},
    {"round": 2, "kind": "clause_to_conjunction", "clause": 3, "literals": [-2]},
    {"round": 2, "kind": "conjunct_added", "clause": 3, "literals": [-2]},
    {"round": 2, "kind": "two_to_unit", "clause": 2, "literals": [-2]},
    {"round": 2, "kind": "literal_discarded", "clause": None, "literals": [3]},
    {"round": 3, "kind": "literal_discarded", "clause": None, "literals": [2]},
]


def test_1_golden_trace(criterion):
    v = scan(GOLDEN, dumps=True)
    first_scope = v.trace["scopes"][0]
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        scan(GOLDEN)
        times.append((time.perf_counter() - t0) * 1000.0)
    ms = min(times)

    ok = (
        v.trace["events"] == GOLDEN_EVENTS
        and v.status == "sat"
        and v.assignment == [-1, -2, -3]
        and v.verification == {"passed": True, "failed": []}
        and first_scope["literal"] == 1
        and first_scope["verdict"] == "incompatible"
        and {3, -3} <= set(first_scope["E"])
        and ms < 10.0
    )
    criterion(
        "1 golden-trace",
        ok,
        f"{len(v.trace['events'])} reduction events exact-match, all-false "
        f"model verified, {ms:.2f} ms < 10 ms",
    )


def test_2_golden_covering_scope(criterion):
    state = init_state(GOLDEN)
    index = PairIndex(state)
    built = build_scope(state, -2, index)
    res = incompatible(state, -2, index)
    ok = (
        isinstance(built, Built)
        and set(built.scope.units) == {-2, -1, -3}
        and built.scope.xor_pairs == ((1, -3),)
        and built.residual3 == ()
        and isinstance(xor2sat_satisfiable(built.scope), XorSat)
        and isinstance(res, CoversSatisfiable)
        and failed_clauses(GOLDEN, extract_assignment(state, base=res.model)) == []
    )
    criterion(
        "2 golden-scope",
        ok,
        "probe of -2 extends to {-2,-1,-3}, one pair (1,-3), no residual, "
        "covering model verified",
    )


def test_3_token_game_finals(criterion):
    net = reference_net()
    accept = play_token_game(net, ["t1", "t3", "t10", "t5", "t8", "t13", "t14"])
    dead = play_token_game(net, ["t2", "t7", "t3", "t10", "t6"])
    ok = (
        accept.final == frozenset({"p17"})
        and accept.ended_final
        and dead.final == frozenset({"p14", "p15", "p6", "p8", "p13"})
        and dead.ended_final
    )
    criterion(
        "3 token-game",
        ok,
        "accepting run ends in {p17}, dead run in {p14,p15,p6,p8,p13}",
    )


def test_4_net_oracle_equivalence(criterion):
    t0 = time.perf_counter()
    checked = 0
    mismatches: list[str] = []
    for n in (1, 2, 3):
        for f in exhaustive_general(n, 4):
            sat = brute_force_sat(f) is not None
            mismatches += net_cross_check(f, sat)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 27912 and not mismatches and elapsed < 60.0
    criterion(
        "4 net-equivalence",
        ok,
        f"{checked} formulas (n<=3, m<=4), both constructions, "
        f"{len(mismatches)} mismatches, {elapsed:.1f} s < 60 s",
    )


def test_4_reach_on_disjoint_clauses(criterion, tmp_path, capsys):
    # recorded, not gated (ROADMAP item 12): 20 clauses that share no
    # variable, each with two models; the inverse net answers at once, and
    # the forward net spends its whole step budget
    path = tmp_path / "disjoint.cnf"
    path.write_text("p x1cnf 40 20\n" + "".join(f"{2 * i + 1} {2 * i + 2} 0\n" for i in range(20)))
    ran = []
    for direction in ([], ["--forward"]):
        t0 = time.perf_counter()
        code = main(["net", *direction, "--check-reach", str(path)])
        ms = (time.perf_counter() - t0) * 1000.0
        out, err = capsys.readouterr()
        said = out.splitlines()[-1] if code == 0 else err.strip()
        ran.append(f"{'forward' if direction else 'inverse'} net exit {code} in {ms:.0f} ms "
                   f"({said})")
    criterion("4 reach on disjoint clauses", True,
              f"p x1cnf 40 20, clause i = 2i+1 2i+2: {'; '.join(ran)}; recorded, not gated")


def test_5_conversion(criterion):
    conv = convert_special(formula(4, [[1, -3, 4], [1, -2, 2], [2, -3]]))
    golden_ok = (
        conv.forced == (-1,)
        and conv.removed_clauses == (2,)
        and [list(c.lits) for c in conv.formula.clauses] == [[-3, 4], [2, -3], [-1]]
    )

    checked = preserved = 0
    for f in exhaustive_special(4, 2):
        checked += 1
        orig_sat = brute_force_sat(f) is not None
        rewritten = convert_special(f).formula
        if rewritten is None:
            preserved += not orig_sat
            continue
        preserved += (brute_force_sat(rewritten) is not None) == orig_sat

    ok = golden_ok and checked == 2226 and preserved == checked
    criterion(
        "5 conversion",
        ok,
        f"golden rewrite exact (forced -1, clause 2 dropped); satisfiability "
        f"preserved on {preserved}/{checked} special formulas (n=4, m<=2)",
    )


def _enumeration_sat(s: ScopeFormula) -> bool:
    vs = s.mentioned_vars()
    for values in itertools.product((False, True), repeat=len(vs)):
        a = dict(zip(vs, values))
        if all(a[abs(u)] == (u > 0) for u in s.units) and all(
            (a[abs(x)] == (x > 0)) != (a[abs(y)] == (y > 0))
            for x, y in s.xor_pairs
        ):
            return True
    return False


def test_6_xor_checker_vs_enumeration(criterion):
    rng = Random("acceptance:xor:0")
    mismatches = 0
    for _ in range(10_000):
        n = rng.randint(1, 10)
        lit = lambda: rng.choice((-1, 1)) * rng.randint(1, n)
        s = ScopeFormula(
            tuple(lit() for _ in range(rng.randint(0, 5))),
            tuple((lit(), lit()) for _ in range(rng.randint(0, 6))),
        )
        if isinstance(xor2sat_satisfiable(s), XorSat) != _enumeration_sat(s):
            mismatches += 1
    criterion(
        "6 xor-checker",
        mismatches == 0,
        f"10000 seeded scope formulas (<=10 vars) vs full enumeration, "
        f"{mismatches} mismatches",
    )


def test_7_monotone_incompatibility(criterion):
    # the replay probes every literal of a pass and remembers each incompatible
    # one; the scan discards only the first, so the rest stay open and later
    # passes re-judge them
    violations = rechecks = 0
    for f in itertools.chain(
        [GOLDEN],
        generate_campaign(10_000, (2, 8), None, ("mixed",), 0),
    ):
        checked, found = replay_monotonicity(f, scan(f).trace["discards"])
        rechecks += checked
        violations += len(found)
    criterion(
        "7 monotonicity",
        violations == 0 and rechecks > 0,
        f"{rechecks} re-judgments of incompatible literals at later rounds "
        f"across 10001 replayed traces, {violations} violations",
    )


def workers(instances: int) -> int:
    """How many workers a campaign of ``instances`` runs on, as
    `oracle._fan_out` decides it: one per CPU of this process's mask, no
    more than there are instances, and one where the platform cannot fork
    or tell."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), instances))


def test_8_differential_campaign(criterion, tmp_path):
    t0 = time.perf_counter()
    report = differential_corpus(
        generate_campaign(10_000, (2, 8), None, ("mixed",), 0),
        permutations=2,
        no_timing=True,
    )
    elapsed = time.perf_counter() - t0
    written = write_discrepancies(report, tmp_path / "discrepancies")

    disagreements, errors = report["disagreements"], report["errors"]
    order = report["order_invariance"]
    emitted_ok = len(written) == 2 * len(disagreements) and all(
        json.loads(p.read_text())["reproduce"].startswith("x1scan solve")
        for p in written
        if p.suffix == ".json"
    )
    accounted = report["agreements"] + len(disagreements)
    ok = (
        report["instance_count"] == 10_000
        and accounted == 10_000
        and len(report["statuses"]) == 10_000
        and errors == []
        and emitted_ok
        and elapsed < 300.0
    )
    criterion(
        "8 differential-campaign",
        ok,
        f"10000 seeded instances (n 2..8, mixed): {report['agreements']} verified "
        f"agreements, {len(disagreements)} disagreements minimized+written, "
        f"{len(errors)} errors, "
        f"{order['invariant']}/{order['instances']} "
        f"order-invariant, {elapsed:.1f} s < 300 s on {workers(10_000)} workers",
    )


def test_8_campaign_beyond_n8(criterion):
    # a regression guard where a polynomial procedure for an NP-complete
    # problem would have to start failing: every shipped profile at n 40..80
    t0 = time.perf_counter()
    report = differential_corpus(
        generate_campaign(810, (40, 80), None, ("mixed", "uniform3", "adversarial"), 0),
        permutations=10,
        no_timing=True,
    )
    elapsed = time.perf_counter() - t0
    order = report["order_invariance"]
    ok = (
        report["agreements"] == report["instance_count"] == 810
        and report["errors"] == []
        and order["invariant"] == order["instances"] == 810
        and elapsed < 30.0
    )
    criterion(
        "8 campaign n 40..80",
        ok,
        f"810 seeded instances (mixed, uniform3, adversarial; 10 orders): "
        f"{report['agreements']}/810 verified agreements, {len(report['errors'])} errors, "
        f"{order['invariant']}/{order['instances']} order-invariant, {elapsed:.1f} s < 30 s "
        f"on {workers(810)} workers",
    )


def test_9_scaling_smoke(criterion):
    f = generate_random(400, 1600, seed=0, profile="uniform3")
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        scan(f)
        times.append(time.perf_counter() - t0)
    big = median(times)

    points = []
    for n in (25, 50, 100, 200, 400):
        g = generate_random(n, 4 * n, seed=0, profile="uniform3")
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            scan(g)
            runs.append((time.perf_counter() - t0) * 1000.0)
        points.append((n, median(runs)))
    slope = linear_regression(
        [log(n) for n, _ in points], [log(ms) for _, ms in points]
    ).slope

    # underconstrained, where passes end in completion picks: a carried
    # not_yet verdict is not probed again, and the trace lists only probes run
    sparse = generate_random(400, 120, seed=0, profile="uniform3")
    probes = len(scan(sparse, dumps=True).trace["scopes"])

    ok = big < 10.0 and probes < 5000
    criterion(
        "9 scaling-smoke",
        ok,
        f"n=400 m=1600 solved in {big * 1000:.1f} ms < 10 s; n=400 m=120 "
        f"scanned with {probes} probes < 5000; ladder log-log "
        f"slope {slope:.2f} (recorded, not gated; <= 5.5 expected)",
    )


def test_9_transition_zone(criterion):
    # recorded, not gated: test 9 covers m/n = 4 and 0.3; m/n = 0.45 sits in
    # the transition zone of the uniform3 generator
    f = generate_random(400, 180, seed=0, profile="uniform3")
    t0 = time.perf_counter()
    status = scan(f).status
    ms = (time.perf_counter() - t0) * 1000.0
    probes = len(scan(f, dumps=True).trace["scopes"])
    criterion(
        "9 transition-zone",
        True,
        f"uniform3 n=400 m=180 (seed 0) {status} with {probes} probes in "
        f"{ms:.1f} ms (recorded, not gated)",
    )


def test_9_frontend(criterion):
    # recorded, not gated: the overconstrained workload's size, where parse,
    # rewrite and state init weigh most against the scan
    text = emit_x1cnf(generate_random(1000, 4000, seed=0, profile="uniform3"))
    times = {"parse": [], "rewrite": [], "init_state": []}
    for _ in range(15):
        t0 = time.perf_counter()
        f = parse_x1cnf(text)
        t1 = time.perf_counter()
        g = convert_special(f).formula
        t2 = time.perf_counter()
        state = init_state(g)
        t3 = time.perf_counter()
        for name, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
            times[name].append(dt * 1000.0)
        del f, g, state  # freed outside the timed spans
    spent = ", ".join(f"{name} {median(ms):.1f} ms" for name, ms in times.items())
    drawn = []
    for seed in range(5):
        t0 = time.perf_counter()
        generate_random(1000, 4000, seed, profile="uniform3")
        drawn.append((time.perf_counter() - t0) * 1000.0)
    criterion(
        "9 frontend",
        True,
        f"uniform3 n=1000 m=4000 (seed 0) in process: {spent} "
        f"(median of 15); generate_random {median(drawn):.1f} ms (median of seeds 0-4); "
        f"recorded, not gated",
    )


def test_10_determinism(criterion, capsys, tmp_path):
    path = tmp_path / "golden.cnf"
    path.write_text("p x1cnf 3 3\n1 -3 0\n1 -2 3 0\n2 -3 0\n")

    def run(argv):
        main(argv)
        return capsys.readouterr().out

    invocations = [
        ["solve", str(path), "--json", "--trace", "--no-timing"],
        ["solve", str(path), "--json", "--no-timing", "--seed", "11"],
        ["oracle", str(path), "--json", "--no-timing"],
        ["net", str(path), "--json", "--check-reach"],
        ["diff", "--count", "6", "--seed", "3", "--permutations", "2", "--no-timing"],
    ]
    stable = sum(run(argv) == run(argv) for argv in invocations)

    cmd = [sys.executable, "-m", "x1scan.cli", "solve", str(path), "--json", "--no-timing"]
    sub = [subprocess.run(cmd, capture_output=True, text=True).stdout for _ in range(2)]
    processes_ok = sub[0] == sub[1] and json.loads(sub[0])["status"] == "sat"

    ok = stable == len(invocations) and processes_ok
    criterion(
        "10 determinism",
        ok,
        f"{stable}/{len(invocations)} repeated command outputs byte-identical "
        f"in-process, solve verdict byte-identical across processes",
    )


# shrunk from the pigeonhole formula PHP(4, 3) (four pigeons, three holes)
COUNTEREXAMPLE = formula(21, [
    [1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12],
    [1, 4, 14], [-14, 7, 15], [-15, 10],
    [2, 5, 17], [-17, 8, 18], [-18, 11],
    [3, 6, 20], [-20, 9, 21], [-21, 12],
])


def test_11_fixpoint_does_not_prove_satisfiability(criterion):
    # the scan's first pass finds no incompatible literal, so the procedure
    # claims satisfiability; the completion rule's pick then dead-ends. The
    # package's exact search, the brute-force reference and the inverse net's
    # reachability all show the formula unsat.
    v = scan(COUNTEREXAMPLE)
    t0 = time.perf_counter()
    exact = find_model(COUNTEREXAMPLE, DEFAULT_STATE_BUDGET)
    t_exact = time.perf_counter() - t0
    t0 = time.perf_counter()
    model = brute_force_sat(COUNTEREXAMPLE)
    t_brute = time.perf_counter() - t0
    t0 = time.perf_counter()
    reachable = target_reachable(build_inverse_net(COUNTEREXAMPLE), 20_000_000)
    t_reach = time.perf_counter() - t0
    picks = v.trace["completion"]
    ok = (
        v.status == "claimed_sat_unverified"
        and picks == [{"var": 1, "picked": 1}]
        and exact is None
        and t_exact < 1.0
        and model is None
        and not reachable
    )
    criterion(
        "11 fixpoint-not-proof",
        ok,
        f"13 clauses (n=21): scan {v.status} after completion picks "
        f"{[p['var'] for p in picks]}; exact search unsat in {t_exact * 1000:.1f} ms "
        f"< 1 s; brute force unsat in {t_brute:.1f} s; "
        f"inverse-net target unreachable in {t_reach:.1f} s (budget 20,000,000)",
    )


# the smallest known formula the scan gets wrong, from seeded draws in which
# every variable occurs in exactly two clauses
DEGREE_TWO_COUNTEREXAMPLE = formula(18, [
    [6, -9, 15], [5, 11, -15], [2, -6, -18], [-4, 5, 16], [-3, 8, 16], [-1, 2, 13],
    [10, 11, -17], [-1, -3, -14], [-9, 12, -13], [7, 8, -18], [-4, 7, 10], [12, 14, 17],
])


def test_12_degree_two_fixpoint_on_unsat(criterion):
    # each variable sits in exactly two clauses, so the formula is a
    # perfect-matching instance, decided in polynomial time (Edmonds 1965);
    # the scan still claims satisfiability on it, in every check order, and
    # the minimizer cannot drop a clause without losing the disagreement
    f = DEGREE_TWO_COUNTEREXAMPLE
    occurrences = Counter(abs(l) for c in f.clauses for l in c.lits)
    degree_two = sorted(occurrences) == list(range(1, 19)) and set(occurrences.values()) == {2}
    t0 = time.perf_counter()
    report = differential_corpus([f], permutations=10, no_timing=True)
    t_diff = time.perf_counter() - t0
    t0 = time.perf_counter()
    minimize_counterexample(f)
    t_min = time.perf_counter() - t0
    t0 = time.perf_counter()
    model = brute_force_sat(f)
    t_brute = time.perf_counter() - t0
    exact = find_model(f, DEFAULT_STATE_BUDGET)
    classes = [d["class"] for d in report["disagreements"]]
    kept = [len(d["minimized"]["clauses"]) for d in report["disagreements"]]
    order = report["order_invariance"]
    ok = (
        degree_two
        and classes == ["fixpoint_on_unsat"]
        and report["statuses"] == "c"
        and order["invariant"] == order["instances"] == 1
        and kept == [12]
        and exact is None
        and model is None
        and t_diff < 5.0
    )
    criterion(
        "12 degree-two fixpoint-on-unsat",
        ok,
        f"12 clauses (n=18, every variable in exactly 2 clauses): diff with 10 "
        f"orders reports {classes}, statuses {report['statuses']!r}, "
        f"{order['invariant']}/{order['instances']} order-invariant, minimized to "
        f"{kept} clauses, in {t_diff:.2f} s < 5 s (minimizer alone {t_min:.2f} s); "
        f"exact search and brute force ({t_brute:.1f} s) unsat",
    )


def colouring(n_vertices: int, edges: list[tuple[int, int]], colours: int = 3):
    """The graph's k-colouring as exactly-one clauses: ``(v_1 .. v_k)`` per
    vertex, and ``(u_c w_c s)`` per edge uw and colour c, with a fresh slack
    variable s, so at most one end of an edge takes each colour."""
    def var(v: int, c: int) -> int:
        return colours * (v - 1) + c

    rows = [[var(v, c) for c in range(1, colours + 1)] for v in range(1, n_vertices + 1)]
    slack = colours * n_vertices
    for u, w in edges:
        for c in range(1, colours + 1):
            slack += 1
            rows.append([var(u, c), var(w, c), slack])
    return formula(slack, rows)


def test_12_k4_colouring_fixpoint_on_unsat(criterion):
    # K4 has no 3-colouring. Every clause is positive and the colour
    # variables sit in four clauses each, so this failure lies outside the
    # degree-two class of the formula above; K3 is coloured correctly
    k4 = colouring(4, list(itertools.combinations(range(1, 5), 2)))
    statuses = {scan(k4, seed).status for seed in [None, *range(10)]}
    t0 = time.perf_counter()
    exact = find_model(k4, DEFAULT_STATE_BUDGET)
    t_exact = time.perf_counter() - t0
    k3 = colouring(3, [(1, 2), (1, 3), (2, 3)])
    ok = (
        (k4.n_vars, k4.n_clauses) == (30, 22)
        and all(l > 0 for lits in k4.rows for l in lits)
        and statuses == {"claimed_sat_unverified"}
        and exact is None
        and scan(k3).status == "sat"
    )
    criterion(
        "12 K4 3-colouring fixpoint-on-unsat",
        ok,
        f"22 positive clauses (n=30): scan {sorted(statuses)} in the fixed order and "
        f"seeded orders 0-9; exact search unsat in {t_exact * 1000:.1f} ms; K3 "
        f"{scan(k3).status}",
    )
