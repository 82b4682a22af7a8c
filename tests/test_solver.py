"""End-to-end scan loop tests: frozen golden traces plus safety properties."""

import hashlib
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import replay_monotonicity

from x1scan import scope, solver
from x1scan.formula import failed_clauses, formula
from x1scan.oracle import PROFILES, generate_campaign, generate_random
from x1scan.solver import (
    extract_assignment,
    scan,
    scans,
    verdict_as_dict,
)
from x1scan.reduction import discard, init_state
from x1scan.scope import Incompatible, NotYet

GOLDEN = formula(3, [[1, -3], [1, -2, 3], [2, -3]])

# full event log of the golden run: three discards, settling x1, x3, x2
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


class TestGoldenRun:
    def test_verdict(self):
        v = scan(GOLDEN)
        assert v.status == "sat"
        assert v.assignment == [-1, -2, -3]
        assert v.rounds == 4
        assert v.verification == {"passed": True, "failed": []}

    def test_event_log(self):
        assert scan(GOLDEN).trace["events"] == GOLDEN_EVENTS

    def test_discard_sequence(self):
        v = scan(GOLDEN)
        assert v.trace["discards"] == [
            {"round": 1, "literal": 1, "via": "incompatible", "source_clause": None},
            {"round": 2, "literal": 3, "via": "necessary", "source_clause": 1},
            {"round": 3, "literal": 2, "via": "necessary", "source_clause": 3},
        ]
        assert v.trace["completion"] == []
        assert v.trace["conversion"] is None

    def test_scope_dumps_collected_on_request(self):
        v = scan(GOLDEN, dumps=True)
        first = v.trace["scopes"][0]
        assert first["literal"] == 1
        assert first["verdict"] == "incompatible"
        # both polarities of the conflicting variable appear in E
        assert {3, -3} <= set(first["E"])

    @pytest.mark.parametrize("f", [
        GOLDEN,
        formula(6, [[1, 2, 3], [4, 5, 6]]),
        formula(2, [[1, 2], [1, -2]]),
    ])
    def test_scope_dumps_reuse_the_probe_scope(self, f, monkeypatch):
        calls = []
        real = scope.build_scope

        def counted(state, z, index):
            calls.append(z)
            return real(state, z, index)

        # patch every binding, so a direct call from the solver counts too
        for module in (scope, solver):
            monkeypatch.setattr(module, "build_scope", counted, raising=False)
        v = scan(f, dumps=True)
        assert v.trace["scopes"]
        assert calls == [s["literal"] for s in v.trace["scopes"]]

    def test_random_order_still_solves(self):
        v = scan(GOLDEN, seed=7)
        assert v.status == "sat"
        assert v.verification["passed"]


class TestProbeCost:
    @pytest.mark.parametrize("f", [
        GOLDEN,
        generate_random(40, 12, seed=0, profile="uniform3"),
        generate_random(30, 20, seed=3, profile="mixed"),
        # base pairs in an odd cycle: every scope without an early conflict is unsat
        formula(9, [[1, 2], [2, 3], [1, 3], [4, 5, 6], [7, 8, 9]]),
    ])
    def test_one_expansion_per_probe_and_one_xor_decision_per_pass(self, f, monkeypatch):
        calls = []

        def counted(real, tag):
            def wrapped(*args):
                calls.append(tag)
                return real(*args)
            return wrapped

        # patch every binding, so a direct call from the solver counts too
        for name, tag in (("build_scope", "build"), ("xor2sat_satisfiable", "xor")):
            wrapped = counted(getattr(scope, name), tag)
            for module in (scope, solver):
                monkeypatch.setattr(module, name, wrapped, raising=False)
        monkeypatch.setattr(solver, "incompatible", counted(solver.incompatible, "probe"))
        monkeypatch.setattr(solver, "PairIndex", counted(solver.PairIndex, "index"))
        # the scan loop reads the necessary literals once per pass
        monkeypatch.setattr(solver, "necessary_literals",
                            counted(solver.necessary_literals, "pass"))
        scan(f)
        probes = [i for i, c in enumerate(calls) if c == "probe"]
        assert [calls[i + 1] for i in probes] == ["build"] * len(probes)
        assert calls.count("build") == len(probes)
        per_pass = " ".join(calls).split("pass")
        assert max(p.split().count("xor") for p in per_pass) <= 1
        assert max(p.split().count("index") for p in per_pass) <= 1
        assert calls.count("index") >= 1
        assert calls.count("xor") < len(probes)


class TestUnsat:
    def test_contradictory_units(self):
        v = scan(formula(1, [[1], [-1]]))
        assert v.status == "unsat"
        assert v.assignment is None
        assert v.verification is None

    def test_forced_pair_contradiction(self):
        # discard of x1 makes both x2 and -x2 emerge as conjuncts
        v = scan(formula(2, [[1, 2], [1, -2]]))
        assert v.status == "unsat"
        assert v.rounds == 2
        assert v.trace["discards"] == [
            {"round": 1, "literal": 1, "via": "incompatible", "source_clause": None}
        ]

    def test_conversion_contradiction(self):
        # both-polarity clauses force -x2 and x2 in turn
        v = scan(formula(2, [[2, 1, -1], [-2, 1, -1]]))
        assert v.status == "unsat"
        assert v.rounds == 0
        assert v.trace["conversion"]["contradiction_var"] == 2

    def test_conversion_feeds_forced_units(self):
        # {z, x, -x} forces -z; the forced unit then participates in the scan
        f = formula(2, [[2, 1, -1], [2, -1]])
        v = scan(f)
        assert v.trace["conversion"]["forced"] == [-2]
        assert v.status == "sat"
        assert v.assignment == [-1, -2]
        assert v.verification["passed"]


class TestCompletion:
    def test_disjoint_clauses_need_completion(self):
        f = formula(6, [[1, 2, 3], [4, 5, 6]])
        v = scan(f)
        assert v.status == "sat"
        assert v.trace["completion"] == [{"var": 1, "picked": 1}]
        assert v.assignment == [1, -2, -3, 4, -5, -6]
        assert failed_clauses(f, v.assignment) == []

    def test_tainted_dead_end_reports_unverified(self, ignore_incompatible):
        # fault injection: with scope discards ignored, the unsat pair from
        # TestUnsat dead-ends inside a completion pick instead
        v = scan(formula(2, [[1, 2], [1, -2]]))
        assert v.status == "claimed_sat_unverified"
        assert v.assignment is None
        assert v.trace["completion"] == [{"var": 1, "picked": 1}]

    def test_unsat_never_tainted(self):
        v = scan(formula(2, [[1, 2], [1, -2]]))
        assert v.status == "unsat" and v.trace["completion"] == []


class TestExtraction:
    def test_settled_and_default(self):
        state = init_state(formula(4, [[1, 2, 3]]))
        discard(state, 2)
        a = extract_assignment(state)
        assert a == [-1, -2, -3, -4]

    def test_base_model_wins(self):
        state = init_state(formula(2, [[1, 2]]))
        a = extract_assignment(state, base={1: True})
        assert a == [1, -2]

    def test_empty_formula(self):
        v = scan(formula(0, []))
        assert v.status == "sat"
        assert v.assignment == []


def lits(n):
    return st.sampled_from([l for v in range(1, n + 1) for l in (v, -v)])


def formulas(max_n=4, max_m=5):
    def build(n):
        clause = st.lists(lits(n), min_size=1, max_size=3, unique=True)
        return st.lists(clause, min_size=1, max_size=max_m).map(
            lambda rows: formula(n, rows)
        )

    return st.integers(min_value=1, max_value=max_n).flatmap(build)


class TestProperties:
    @given(formulas())
    @settings(max_examples=150, deadline=None)
    def test_verdict_invariants(self, f):
        v = scan(f)
        assert v.status in {"sat", "unsat", "claimed_sat_unverified"}
        if v.status == "sat":
            assert v.verification["passed"]
            assert failed_clauses(f, v.assignment) == []
        if v.status == "unsat":
            assert v.assignment is None
            assert v.trace["completion"] == []
        if v.status == "claimed_sat_unverified":
            assert v.assignment is None or not v.verification["passed"]

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, f):
        assert verdict_as_dict(scan(f)) == verdict_as_dict(scan(f))

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_audit_clean(self, f):
        _, violations = replay_monotonicity(f, scan(f).trace["discards"])
        assert violations == []

    @given(formulas(max_n=3, max_m=4), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_order_keeps_invariants(self, f, seed):
        v = scan(f, seed)
        if v.status == "sat":
            assert v.verification["passed"]


# the smallest known counterexample (unsat by exact search): a pass finds
# nothing and the completion rule dead-ends
COUNTEREXAMPLE_13 = formula(21, [
    [1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12], [1, 4, 14], [-14, 7, 15],
    [-15, 10], [2, 5, 17], [-17, 8, 18], [-18, 11], [3, 6, 20], [-20, 9, 21],
    [-21, 12],
])

CARRY_CORPUS = [
    generate_random(n, max(1, round(n * ratio)), seed=seed, profile=profile)
    for profile in PROFILES
    for n in (10, 40, 120)
    for ratio in (0.3, 0.6, 1.5)
    for seed in range(3)
] + [
    # base pairs in an odd cycle: the pass's pair index is inconsistent
    formula(9, [[1, 2], [2, 3], [1, 3], [4, 5, 6], [7, 8, 9]]),
    COUNTEREXAMPLE_13,
]


VERDICT_CORPUS = [
    generate_random(n, max(1, round(n * ratio)), seed=seed, profile=profile)
    for profile in ("uniform3", "mixed", "adversarial")
    for n in (3, 10, 40, 120)
    for ratio in (0.3, 0.6, 1.5)
    for seed in range(2)
]
VERDICT_DIGEST = "20f1e10966f6495621e5e5011084e609f9c4168b18bccb4f423660d905b380c1"


def without_scopes(v) -> str:
    d = verdict_as_dict(v)
    del d["trace"]["scopes"]
    return json.dumps(d, sort_keys=True)


class TestCarriedVerdicts:
    """A carried not_yet verdict stands in for a probe, so a whole run must be
    the run that probes every open literal on every pass."""

    @pytest.mark.parametrize("order", ["fixed", "random"])
    def test_runs_match_reprobing_everything(self, order):
        for i, f in enumerate(CARRY_CORPUS):
            seed = None if order == "fixed" else i
            assert without_scopes(scan(f, seed)) == without_scopes(
                helpers.reprobe_scan(f, seed)
            ), f

    def test_counterexample_dead_ends_after_completion_picks(self):
        v = scan(COUNTEREXAMPLE_13)
        assert v.status == "claimed_sat_unverified"
        assert v.trace["completion"]

    @given(formulas(max_n=6, max_m=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_small_runs_match_reprobing_everything(self, f, seed):
        for order in (None, seed):
            assert without_scopes(scan(f, order)) == without_scopes(
                helpers.reprobe_scan(f, order)
            )

    def test_trace_lists_only_the_probes_that_ran(self, monkeypatch):
        f = generate_random(40, 12, seed=0, profile="uniform3")
        probed, reprobed = [], []

        def counted(real, calls):
            def probe(state, z, index):
                calls.append(z)
                return real(state, z, index)
            return probe

        monkeypatch.setattr(solver, "incompatible", counted(solver.incompatible, probed))
        monkeypatch.setattr(helpers, "incompatible", counted(helpers.incompatible, reprobed))
        v = scan(f, dumps=True)
        helpers.reprobe_scan(f)
        assert probed == [s["literal"] for s in v.trace["scopes"]]
        assert len(probed) < len(reprobed)

    def test_verdicts_match_their_pinned_digest(self):
        # which probes run is free to change, the verdicts are not: status,
        # assignment, rounds, events, discards, completion and verification
        # of every run here hash to the value pinned before closures were
        # carried
        runs = [
            without_scopes(scan(f, order))
            for f in [GOLDEN, *VERDICT_CORPUS]
            for order in (None, 0, 1, 2)
        ]
        digest = hashlib.sha256("\n".join(runs).encode()).hexdigest()
        assert digest == VERDICT_DIGEST


# the orders `x1scan diff` runs as one group: the fixed order, then seeds 0-9
DIFF_ORDERS = [None, *range(10)]


def discard_sequences(verdicts) -> set:
    return {tuple(d["literal"] for d in v.trace["discards"]) for v in verdicts}


class TestGroupScan:
    """Orders scanned as one group give the verdicts they give alone."""

    @pytest.mark.parametrize("corpus", [
        pytest.param(lambda: [f for n in (1, 2, 3) for f in helpers.exhaustive_general(n, 3)],
                     id="exhaustive"),
        pytest.param(lambda: generate_campaign(600, (2, 40), None, tuple(PROFILES), 17), id="campaign"),
    ])
    def test_each_order_gives_its_own_verdict(self, corpus):
        branched = 0
        for f in corpus():
            group = scans(f, DIFF_ORDERS)
            assert group == [scans(f, [o])[0] for o in DIFF_ORDERS], f
            branched += len(discard_sequences(group)) >= 2
        # the orders split often enough for the copied states to be exercised
        assert branched >= 20

    def test_scan_is_a_group_of_one(self):
        f = generate_random(30, 20, seed=3, profile="mixed")
        for seed in DIFF_ORDERS[:3]:
            for dumps in (False, True):
                assert scan(f, seed, dumps) == scans(f, [seed], dumps)[0]

    def test_a_pass_probes_each_literal_once_for_the_group(self, monkeypatch):
        f = generate_random(14, 12, seed=2, profile="adversarial")
        calls, indexes = [], []
        real = solver.incompatible

        def probe(state, z, index):
            indexes.append(index)  # alive, so no two passes' indexes share an id
            calls.append((id(index), z))
            return real(state, z, index)

        monkeypatch.setattr(solver, "incompatible", probe)
        group = scans(f, DIFF_ORDERS)
        assert len(discard_sequences(group)) >= 2
        assert len(calls) == len(set(calls))

    def test_dumps_list_the_probes_each_order_read(self):
        # the second order reads the probe of 1 that the first ran, and lists it
        seeds = [None, 3]
        group = scans(GOLDEN, seeds, dumps=True)
        for seed, v in zip(seeds, group):
            assert v.trace["scopes"]
            assert v.trace["scopes"] == scan(GOLDEN, seed, dumps=True).trace["scopes"]
        assert all(v.trace["scopes"] == [] for v in scans(GOLDEN, seeds))

    def test_a_not_yet_scope_is_freed_before_the_next_probe(self, monkeypatch):
        # the pass's probe memo keeps no not_yet scope alive: every scope a
        # not_yet probe built is gone by the time the next probe runs
        f = generate_random(40, 12, seed=0, profile="uniform3")
        alive, not_yet = [], 0
        real = solver.incompatible

        def probe(state, z, index):
            nonlocal not_yet
            assert all(ref() is None for ref in alive)
            res = real(state, z, index)
            if isinstance(res, NotYet):
                alive.append(weakref.ref(res.built))
                not_yet += 1
            return res

        monkeypatch.setattr(solver, "incompatible", probe)
        scans(f, DIFF_ORDERS)
        assert not_yet > 10

    def test_a_fixed_order_seeds_no_generator(self, monkeypatch):
        def unseeded(*args):
            raise AssertionError("a fixed-order scan built a random.Random")

        # a seeded order imports Random when it is built, so this is the one it gets
        monkeypatch.setattr(random, "Random", unseeded)
        assert scan(GOLDEN).status == "sat"
        assert [v.status for v in scans(GOLDEN, [None, None], dumps=True)] == ["sat"] * 2


class TestMonotonicityReplay:
    # six re-judgments: literals found incompatible at one pass and still open
    # at a later one
    F = formula(4, [[-2, 4], [-1, -2, -3], [-2, -3], [-2, 3, -4]])

    def test_replay_can_report_a_violation(self, monkeypatch):
        discards = scan(self.F).trace["discards"]
        assert replay_monotonicity(self.F, discards) == (6, [])

        # plant a non-monotone probe: a literal found incompatible at an
        # earlier pass reads as not-yet from then on
        real = helpers.incompatible
        first_round: dict[int, int] = {}

        def planted(state, z, index):
            res = real(state, z, index)
            if isinstance(res, Incompatible) and (
                first_round.setdefault(z, state.scan_round) < state.scan_round
            ):
                return NotYet(z, res.built)
            return res

        monkeypatch.setattr(helpers, "incompatible", planted)
        checked, violations = replay_monotonicity(self.F, discards)
        assert checked == 6
        assert violations and all(v["became"] == "NotYet" for v in violations)


class TestJson:
    def test_shape(self):
        d = verdict_as_dict(scan(GOLDEN))
        assert d["status"] == "sat"
        assert d["assignment"] == [-1, -2, -3]
        assert d["rounds"] == 4
        assert set(d["trace"]) == {
            "conversion", "events", "discards", "scopes", "completion",
        }

    def test_trace_elision(self):
        d = verdict_as_dict(scan(GOLDEN), include_trace=False)
        assert "trace" not in d
