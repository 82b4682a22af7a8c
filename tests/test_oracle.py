"""Oracle, generator, and differential-harness tests."""

import hashlib
import json
import math
import os
import select
import subprocess
import sys
import time
from collections.abc import Sequence
from pathlib import Path
from random import Random

import pytest

from helpers import (
    brute_force_sat,
    exhaustive_general,
    exhaustive_special,
    general_clause_types,
    load_schema,
    net_cross_check,
    reference_clause,
    reference_draw,
    special_clause_types,
    validate,
)
from test_acceptance import COUNTEREXAMPLE, DEGREE_TWO_COUNTEREXAMPLE

from x1scan import oracle
from x1scan.cli import EXIT_INTERNAL, main
from x1scan.formula import (
    DEFAULT_STATE_BUDGET,
    BudgetError,
    emit_x1cnf,
    failed_clauses,
    formula,
    parse_x1cnf,
)
from x1scan.oracle import (
    PROFILES,
    check_profiles,
    differential_corpus,
    distinct_clauses,
    find_model,
    generate_campaign,
    generate_random,
    minimize_counterexample,
    write_discrepancies,
)
from x1scan.solver import Verdict

GOLDEN = formula(3, [[1, -3], [1, -2, 3], [2, -3]])


def as_rows(f) -> dict:
    """A formula as a report writes it."""
    return {"n": f.n_vars, "clauses": [list(row) for row in f.rows]}


class TestBruteForce:
    def test_golden_first_model_is_all_false(self):
        assert brute_force_sat(GOLDEN) == [-1, -2, -3]

    def test_contradiction(self):
        assert brute_force_sat(formula(1, [[1], [-1]])) is None

    def test_forced_pair(self):
        assert brute_force_sat(formula(2, [[1, 2], [1, -2]])) is None

    def test_lexicographic_order(self):
        # all-false fails here; the first model flips the last variable
        assert brute_force_sat(formula(2, [[1, 2]])) == [-1, 2]


def same_as_brute_force(f) -> bool:
    """The exact search's verdict matches brute force's, and its model, which
    need not be brute force's lexicographically first one, sets every
    variable and satisfies every clause."""
    model = find_model(f, DEFAULT_STATE_BUDGET)
    if model is None:
        return brute_force_sat(f) is None
    return (brute_force_sat(f) is not None
            and [abs(l) for l in model] == list(range(1, f.n_vars + 1))
            and failed_clauses(f, model) == [])


class TestExactSearch:
    def test_budget_guard(self):
        # the search proves the formula unsat in 235 steps
        assert find_model(COUNTEREXAMPLE, 235) is None
        with pytest.raises(BudgetError, match="^exact search spent its budget of 234 steps$"):
            find_model(COUNTEREXAMPLE, 234)

    def test_matches_brute_force_on_the_exhaustive_corpora(self):
        corpus = [f for n in (1, 2, 3) for f in exhaustive_general(n, 4)]
        corpus += exhaustive_special(4, 2)
        assert len(corpus) == 27912 + 2226
        assert [f for f in corpus if not same_as_brute_force(f)] == []

    @pytest.mark.parametrize("profile", ["mixed", "uniform3", "adversarial"])
    def test_matches_brute_force_on_seeded_instances(self, profile):
        corpus = list(generate_campaign(15, (3, 20), None, (profile,), 16))
        assert max(f.n_vars for f in corpus) == 20
        assert {find_model(f, DEFAULT_STATE_BUDGET) is None for f in corpus} == {False, True}
        assert [f for f in corpus if not same_as_brute_force(f)] == []

    def test_free_variables_read_false(self):
        assert find_model(formula(4, [[-3]]), 10) == [-1, -2, -3, -4]
        assert find_model(formula(3, []), 10) == [-1, -2, -3]

    def test_components_are_decided_apart(self):
        # a satisfiable block next to an unsatisfiable pair on other variables
        f = formula(6, [[1, 2, 3], [-1, 2], [5, 6], [5, -6]])
        assert find_model(f, DEFAULT_STATE_BUDGET) is None

    def test_deep_search_does_not_recurse(self):
        # a chain of clauses, each sharing a variable with the next, twice as
        # long as the interpreter's recursion limit: no frame per choice
        k = 2 * sys.getrecursionlimit()
        chain = formula(2 * k + 1, [[2 * i + 1, 2 * i + 2, 2 * i + 3] for i in range(k)])
        assert find_model(chain, DEFAULT_STATE_BUDGET) is not None


class TestGenerator:
    def test_deterministic(self):
        a = generate_random(5, 8, seed=42, profile="uniform3")
        b = generate_random(5, 8, seed=42, profile="uniform3")
        assert a == b

    def test_uniform3_shape(self):
        f = generate_random(6, 10, seed=1)
        assert f.n_vars == 6 and f.n_clauses == 10
        for c in f.clauses:
            assert len(c.lits) == 3
            assert len({abs(l) for l in c.lits}) == 3
        assert len({c.lits for c in f.clauses}) == 10  # distinct clauses

    def test_mixed_single_var(self):
        f = generate_random(1, 1, seed=0, profile="mixed")
        assert f.n_clauses == 1
        assert f.clauses[0].lits in ((1,), (-1,))

    def test_mixed_sizes(self):
        f = generate_random(8, 30, seed=3, profile="mixed")
        assert {len(c.lits) for c in f.clauses} <= {1, 2, 3}
        assert f.special == ()

    def test_adversarial_chain_shares_vars(self):
        f = generate_random(8, 12, seed=7, profile="adversarial")
        for prev, cur in zip(f.clauses, f.clauses[1:]):
            assert {abs(l) for l in prev.lits} & {abs(l) for l in cur.lits}

    @pytest.mark.parametrize(
        "n,m,profile",
        [(0, 1, "mixed"), (2, 1, "uniform3"), (2, 1, "adversarial"), (3, 9, "uniform3")],
    )
    def test_rejects_impossible_params(self, n, m, profile):
        # uniform3 over 3 vars has exactly C(3,3)*2^3 = 8 distinct clauses
        with pytest.raises(ValueError):
            generate_random(n, m, seed=0, profile=profile)

    @pytest.mark.parametrize("profile,distinct", [
        ("uniform3", 8), ("adversarial", 8), ("mixed", 26),
    ])
    def test_draws_up_to_every_distinct_clause(self, profile, distinct):
        # over 3 variables: 8 ternaries, plus 6 units and 12 binaries for mixed
        f = generate_random(3, distinct, seed=0, profile=profile)
        assert len({c.lits for c in f.clauses}) == distinct
        with pytest.raises(ValueError, match=f"at most {distinct}"):
            generate_random(3, distinct + 1, seed=0, profile=profile)

    def test_rejects_negative_m(self):
        # a negative count used to draw nothing and pass as an empty formula
        with pytest.raises(ValueError, match="m must be >= 0"):
            generate_random(5, -3, seed=0, profile="mixed")

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile 'bogus'"):
            generate_random(3, 1, seed=0, profile="bogus")
        # a campaign refuses it before it draws the instances ahead of it
        with pytest.raises(ValueError, match="unknown profile 'bogus'"):
            next(generate_campaign(2, (3, 3), None, ("mixed", "bogus"), 0))

    @pytest.mark.parametrize("profile,n_min,smallest_n", [
        ("mixed", 1, 1), ("mixed", 3, 3), ("uniform3", 1, 3), ("adversarial", 4, 4),
    ])
    def test_an_m_range_is_refused_at_the_smallest_n_drawn(self, profile, n_min, smallest_n):
        # the 3-literal profiles draw n >= 3 whatever the range asks
        most = distinct_clauses(smallest_n, profile)
        check_profiles((profile,), n_min, most)
        with pytest.raises(ValueError, match=(
            rf"^cannot draw {most + 1} distinct {profile} clauses over {smallest_n} "
            rf"variables \(at most {most}\)$"
        )):
            check_profiles((profile,), n_min, most + 1)

    def test_the_default_m_range_is_never_refused(self):
        # without an m range, a campaign draws m from 1..2n
        for profile, (least, _) in PROFILES.items():
            for n in range(least, 60):
                assert 2 * n <= distinct_clauses(n, profile)

    @pytest.mark.parametrize("profile,least,digest", [
        ("uniform3", 3, "4b6c729678c605f59b1b3754c043be965f125325b37a863f4c0220cfbeec358f"),
        ("mixed", 1, "83f6634ecd39f0269005bfd562458455b769bdcd950173ec14118be6bf792168"),
        ("adversarial", 3, "ed17fa679ff7a6472d6fb13f08df6b0cf138b87bf5deb16396b0fc8e987b7ea2"),
    ])
    def test_draws_are_pinned_from_the_least_n_up(self, profile, least, digest):
        # sha256 of the X-DIMACS text of each profile's draws at its least n,
        # one above it, 40 and 200, with m = n and 2n, seeds 0-2
        text = hashlib.sha256()
        for n in (least, least + 1, 40, 200):
            for m in (n, 2 * n):
                for seed in range(3):
                    text.update(emit_x1cnf(generate_random(n, m, seed, profile)).encode())
        assert text.hexdigest() == digest

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_draws_match_random_py_row_for_row(self, profile):
        # the draw reads the generator's bits itself; it must give what
        # Random.sample, choice and choices gave, across sample's switch from
        # a pool to a set of picks (populations of 21 and 22, for adversarial
        # also the n - 1 variables a clause does not share)
        least = PROFILES[profile][0]
        for n in [*range(least, 31), 40, 200, 1000]:
            for m in (1, n, 2 * n):
                for seed in range(5):
                    assert generate_random(n, m, seed, profile).rows == tuple(
                        reference_draw(n, m, seed, profile)), (n, m, seed)

    def test_a_coin_on_a_cut_gives_what_random_py_gives(self):
        # random() right at a cut, which a seeded stream all but never hits:
        # 0.5 for a sign, 0.1 and 0.3 (times 10) for mixed's weights 1:2:7
        cuts = (0.0, 0.1, 0.3, 0.5, math.nextafter(0.1, 0), math.nextafter(0.5, 0), 0.7)

        class Scripted(Random):
            def __init__(self):
                super().__init__(0)
                self.coins = Random(1)

            def random(self):
                return self.coins.choice(cuts)

            # random() overridden alone would make sample draw through it
            def getrandbits(self, k):
                return super().getrandbits(k)

        for profile in PROFILES:
            for n in (3, 5, 22, 40):
                a, b, prev = Scripted(), Scripted(), None
                for _ in range(40):
                    want = reference_clause(a, n, profile, prev)
                    assert oracle._draw_clause(b.getrandbits, b.random, n, profile, prev) == want
                    prev = want


class TestExhaustiveCorpora:
    def test_general_alphabet_size(self):
        # n=3: 6 units + 12 binaries + 8 ternaries
        assert len(general_clause_types(3)) == 26
        assert len(general_clause_types(2)) == 8

    def test_special_alphabet_size(self):
        # n=4: 4 bare pairs + 4*6 pair-plus-literal
        assert len(special_clause_types(4)) == 28

    def test_corpus_counts_match_closed_form(self):
        assert sum(1 for _ in exhaustive_general(2, 2)) == 44
        assert sum(1 for _ in exhaustive_general(3, 3)) == 3653
        # full criterion corpus size, multisets over 26 clause types
        assert sum(math.comb(26 + m - 1, m) for m in range(1, 5)) == 27404

    def test_special_corpus(self):
        corpus = list(exhaustive_special(4, 2))
        total = 92  # 64 general + 28 special clause types over 4 variables
        general_only = math.comb(64 + 1, 2) + 64
        expected = (total + math.comb(total + 1, 2)) - general_only
        assert len(corpus) == expected == 2226
        assert all(f.special for f in corpus[:50])


class TestNetCrossCheck:
    def test_agreement_both_ways(self):
        assert net_cross_check(GOLDEN, True) == []
        assert net_cross_check(formula(1, [[1], [-1]]), False) == []

    def test_mismatch_reported(self):
        problems = net_cross_check(GOLDEN, False)
        assert len(problems) == 2 and "forward" in problems[0]


class TestDifferential:
    def test_empty_corpus(self):
        r = differential_corpus([])
        assert r["instance_count"] == 0 and r["agreements"] == 0
        assert r["disagreements"] == [] and r["timing_ms"] is None
        assert r["statuses"] == ""

    def test_golden_agrees(self):
        r = differential_corpus([GOLDEN], permutations=5)
        assert r["instance_count"] == 1 and r["agreements"] == 1
        assert r["errors"] == []
        assert r["order_invariance"]["instances"] == 1
        assert r["statuses"] == "s"

    def test_exhaustive_tiny_corpus(self):
        r = differential_corpus(list(exhaustive_general(2, 2)), permutations=2)
        assert r["instance_count"] == 44
        assert r["agreements"] + len(r["disagreements"]) + len(r["errors"]) == 44
        assert r["errors"] == []
        assert len(r["statuses"]) == 44 and set(r["statuses"]) <= set("suc")

    def test_the_campaign_builds_no_net(self, monkeypatch):
        # acceptance claim 4 is the one check of the nets against an oracle
        def planted(*args, **kwargs):
            raise AssertionError("the campaign reached the Petri layer")

        for name in ("build_forward_net", "build_inverse_net", "target_reachable"):
            monkeypatch.setattr(f"x1scan.petri.{name}", planted)
        r = differential_corpus(list(exhaustive_general(2, 2)), permutations=2)
        assert r["instance_count"] == 44 and len(r["statuses"]) == 44
        assert r["agreements"] + len(r["disagreements"]) == 44
        assert r["errors"] == []

    def test_the_oracle_module_does_not_import_the_petri_layer(self):
        code = "import sys, x1scan.oracle; print('x1scan.petri' in sys.modules)"
        src = str(Path(oracle.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "False\n"

    def test_campaign_determinism(self):
        def run():
            corpus = generate_campaign(30, (2, 8), None, ("mixed",), 5)
            report = differential_corpus(corpus, permutations=3, no_timing=True)
            return json.dumps(report, sort_keys=True)

        assert run() == run()

    def test_orders_run_as_one_group_from_the_fixed_order(self, monkeypatch, cpus):
        # calls are recorded in this process, so every instance is judged here
        cpus(1)
        groups = []
        real = oracle.scans

        def recorded(f, seeds, dumps=False):
            groups.append((seeds, dumps))
            return real(f, seeds, dumps)

        monkeypatch.setattr(oracle, "scans", recorded)
        differential_corpus([GOLDEN, GOLDEN], permutations=3)
        assert len(groups) == 2
        # no order keeps scope dumps
        assert groups[0] == ([None, 0, 1, 2], False)

    def test_campaign_respects_ranges(self):
        fs = list(generate_campaign(25, (2, 8), None, ("mixed",), 9))
        assert len(fs) == 25
        assert all(2 <= f.n_vars <= 8 for f in fs)
        assert all(1 <= f.n_clauses <= 2 * f.n_vars for f in fs)

    def test_a_spent_oracle_budget_is_an_error_entry(self, monkeypatch):
        # the scans ended before the exact search spent its budget: the entry
        # keeps the formula and its scan status
        monkeypatch.setattr(oracle, "DEFAULT_STATE_BUDGET", 100)
        r = differential_corpus([GOLDEN, COUNTEREXAMPLE], permutations=0)
        assert r["statuses"] == "se"
        assert validate(r, load_schema("diff_report")) == []
        assert r["errors"] == [{
            "instance_id": 1,
            "error": "BudgetError: exact search spent its budget of 100 steps",
            "formula": as_rows(COUNTEREXAMPLE),
            "scan_status": "claimed_sat_unverified",
        }]

    def test_a_scan_that_raises_keeps_only_the_formula(self, monkeypatch):
        def scans(f, seeds, dumps=False):
            raise RuntimeError("the scan gave up")

        monkeypatch.setattr(oracle, "scans", scans)
        r = differential_corpus([GOLDEN], permutations=0, no_timing=True)
        assert validate(r, load_schema("diff_report")) == []
        assert r["errors"] == [{"instance_id": 0, "error": "RuntimeError: the scan gave up",
                                "formula": as_rows(GOLDEN)}]

    def test_an_undecided_shrink_keeps_the_formula_unminimized(self, monkeypatch,
                                                              ignore_incompatible):
        # the exact search decides the instance, then spends its budget on
        # every shrink the minimizer tries: the campaign still reports, and
        # the disagreement keeps the formula as it was drawn
        f = formula(5, [[3, 4, 5], [1, 2], [1, -2]])
        real_search = oracle.find_model
        shrinks = []

        def search(g, budget):
            if g.n_clauses < f.n_clauses or g.rows != f.rows:
                shrinks.append(g)
                raise BudgetError(f"exact search spent its budget of {budget} steps")
            return real_search(g, budget)

        monkeypatch.setattr(oracle, "find_model", search)
        r = differential_corpus([f], permutations=0, no_timing=True)
        assert shrinks
        assert r["statuses"] == "c" and r["errors"] == []
        assert validate(r, load_schema("diff_report")) == []
        [d] = r["disagreements"]
        assert d["class"] == "fixpoint_on_unsat"
        assert d["minimized"] == d["formula"] == {"n": 5, "clauses": [[3, 4, 5], [1, 2], [1, -2]]}

    def test_timing_present_by_default(self):
        r = differential_corpus([GOLDEN], permutations=0)
        assert set(r["timing_ms"]) == {"p50", "p90", "p99", "max"}


# the benchmark's campaign batch, as test_cli pins its report
CAMPAIGN_BATCH = (25, (2, 14), None, ("mixed", "uniform3", "adversarial"))


def no_child_left() -> bool:
    """Whether this process has no child, running or ended, left to reap."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestWorkers:
    """A campaign is judged on one worker per CPU, and its report is the
    same for any worker count."""

    def reports(self, corpus, cpus) -> list[str]:
        """The report on ``corpus`` at one worker, at one per CPU this
        process may run on, and at three, checking that every worker was
        reaped."""
        every = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        out = []
        for count in (1, every, 3):
            cpus(count)
            out.append(json.dumps(differential_corpus(corpus, no_timing=True),
                                  indent=2, sort_keys=True))
            assert no_child_left()
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_pinned_campaign_reads_the_same_on_any_worker_count(self, seed, cpus):
        one, every, three = self.reports(generate_campaign(*CAMPAIGN_BATCH, seed), cpus)
        assert one == every == three

    def test_an_agreement_a_disagreement_and_an_error_read_the_same(self, monkeypatch, cpus):
        # claim 12's degree-two formula is minimized in its worker; the last
        # instance needs 415 steps of exact search, past the patched budget
        spent = generate_random(200, 120, seed=0)
        monkeypatch.setattr(oracle, "DEFAULT_STATE_BUDGET", 300)
        one, every, three = self.reports([GOLDEN, DEGREE_TWO_COUNTEREXAMPLE, spent], cpus)
        assert one == every == three
        r = json.loads(one)
        assert r["statuses"] == "sce"
        assert [d["class"] for d in r["disagreements"]] == ["fixpoint_on_unsat"]
        assert r["errors"] == [{
            "instance_id": 2,
            "error": "BudgetError: exact search spent its budget of 300 steps",
            "formula": as_rows(spent),
            "scan_status": "unsat",
        }]

    def test_each_worker_times_its_own_instances(self, cpus):
        cpus(3)
        r = differential_corpus(list(generate_campaign(*CAMPAIGN_BATCH, 0)))
        assert set(r["timing_ms"]) == {"p50", "p90", "p99", "max"}
        assert 0 < r["timing_ms"]["p50"] <= r["timing_ms"]["max"]

    @pytest.mark.parametrize("how", ["exit", "interrupt"])
    def test_a_worker_that_ends_without_its_results(self, how, monkeypatch, cpus, capfd):
        # the worker that judges instance 1 ends before it sends anything:
        # one error line and exit 2, and no traceback, not even the worker's
        cpus(2)
        diff = os.getpid()
        real = oracle._judge

        def judge(corpus, i, seeds):
            if os.getpid() != diff and i == 1:
                if how == "exit":
                    os._exit(3)
                raise KeyboardInterrupt
            return real(corpus, i, seeds)

        monkeypatch.setattr(oracle, "_judge", judge)
        assert main(["diff", "--count", "4", "--seed", "1", "--no-timing"]) == EXIT_INTERNAL
        out, err = capfd.readouterr()
        assert out == ""
        assert err == ("error: campaign worker 1 ended without its results "
                       f"(exit code {3 if how == 'exit' else 1})\n")
        assert no_child_left()

    def test_an_exception_in_a_worker_is_recorded_in_corpus_order(self, monkeypatch, cpus):
        # every minimization raises: each disagreement becomes an error entry
        # where it was judged, and the entries merge in corpus order, the two
        # in one worker at two workers and in different ones at three
        def shrink(f):
            raise RuntimeError("the minimizer gave up")

        monkeypatch.setattr(oracle, "minimize_counterexample", shrink)
        corpus = [GOLDEN, DEGREE_TWO_COUNTEREXAMPLE, GOLDEN, DEGREE_TWO_COUNTEREXAMPLE, GOLDEN]
        one, every, three = self.reports(corpus, cpus)
        assert one == every == three
        r = json.loads(one)
        assert r["statuses"] == "seses"
        assert r["disagreements"] == []
        # each entry keeps what was known: the formula and the scan's claim
        assert validate(r, load_schema("diff_report")) == []
        assert r["errors"] == [{"instance_id": i, "error": "RuntimeError: the minimizer gave up",
                                "formula": as_rows(DEGREE_TWO_COUNTEREXAMPLE),
                                "scan_status": "claimed_sat_unverified"} for i in (1, 3)]

    def test_a_draw_that_raises_is_an_error_entry_on_any_worker_count(self, monkeypatch,
                                                                      cpus, capfd):
        # the one instance whose draw raises reads e, and the report is the
        # one that drawing it would give otherwise, at any worker count
        argv = ["diff", "--count", "6", "--seed", "1", "--no-timing"]
        cpus(1)
        assert main(argv) == 0
        expected = json.loads(capfd.readouterr().out)
        real = oracle.Campaign.__getitem__

        def draw(campaign, i):
            if i == 3:
                raise ValueError(f"instance {i} cannot be drawn")
            return real(campaign, i)

        monkeypatch.setattr(oracle.Campaign, "__getitem__", draw)
        printed = []
        for count in (1, 2, 3):
            cpus(count)
            assert main(argv) == 0
            out, err = capfd.readouterr()
            assert err == ""
            printed.append(out)
        assert printed[0] == printed[1] == printed[2]
        r = json.loads(printed[0])
        assert r["statuses"] == expected["statuses"][:3] + "e" + expected["statuses"][4:]
        assert r["errors"] == [{"instance_id": 3,
                                "error": "ValueError: instance 3 cannot be drawn"}]
        assert r["instance_count"] == 6
        assert r["order_invariance"]["instances"] == 5
        assert no_child_left()

    def test_an_interrupt_reaps_every_worker(self, monkeypatch, cpus):
        # worker 0 is interrupted while the others are still judging: each
        # forked pid is killed and waited for, and none by os.wait
        cpus(3)
        diff = os.getpid()
        real_judge, real_fork, real_waitpid = oracle._judge, os.fork, os.waitpid
        forked, waited = [], []

        def judge(corpus, i, seeds):
            if os.getpid() == diff:
                raise KeyboardInterrupt
            time.sleep(30)

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        def waitpid(pid, options):
            waited.append((pid, options))
            return real_waitpid(pid, options)

        monkeypatch.setattr(oracle, "_judge", judge)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(os, "wait", None)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            differential_corpus([GOLDEN] * 6, permutations=0)
        assert time.perf_counter() - t0 < 10
        assert len(forked) == 2 and waited == [(pid, 0) for pid in forked]
        monkeypatch.undo()
        assert no_child_left()

    def test_a_worker_stops_when_its_diff_process_is_gone(self, tmp_path):
        # the diff process judges its share at once and waits for its worker,
        # which prints its pid and sleeps at each instance; once the diff
        # process is killed, the worker ends within one instance, which
        # closes the pipe it shares with the diff process's standard output
        probe = (
            "import os, time\n"
            "from x1scan import oracle\n"
            "from x1scan.formula import formula\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "diff, real = os.getpid(), oracle._judge\n"
            "def judge(corpus, i, seeds):\n"
            "    if os.getpid() != diff:\n"
            "        print(os.getpid(), flush=True)\n"
            "        time.sleep(0.5)\n"
            "    return real(corpus, i, seeds)\n"
            "oracle._judge = judge\n"
            "oracle.differential_corpus([formula(2, [[1, 2]])] * 40, permutations=0)\n"
        )
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, env=env)
        worker = None
        try:
            line = b""
            while not line.endswith(b"\n"):
                chunk = os.read(proc.stdout.fileno(), 64)
                assert chunk, "the worker never started"
                line += chunk
            worker = int(line.split()[0])
            proc.kill()
            proc.wait()
            t0 = time.monotonic()
            # the worker's share is 20 instances of 0.5 s
            while select.select([proc.stdout], [], [], 5.0)[0]:
                if not os.read(proc.stdout.fileno(), 4096):
                    break
            else:
                pytest.fail("the worker outlived its diff process by 5 s")
            assert time.monotonic() - t0 < 2.0
            worker = None
        finally:
            proc.stdout.close()
            if worker is not None:
                try:
                    os.kill(worker, 9)
                except ProcessLookupError:
                    pass
            proc.kill()
            proc.wait()


class Where(Sequence):
    """A corpus whose every draw raises, naming the CPUs the process that
    draws it may run on."""

    def __init__(self, count: int):
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        raise RuntimeError(sorted(os.sched_getaffinity(0)))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="a campaign forks no worker on one CPU")
class TestPlacement:
    """Each worker runs on a CPU of its own, on this process's real mask,
    and the diff process gets its mask back however the campaign ends."""

    @pytest.fixture
    def mask(self):
        """This process's mask, given back to it after the test whatever
        the test finds, so that no later test starts on fewer CPUs."""
        mask = os.sched_getaffinity(0)
        yield mask
        os.sched_setaffinity(0, mask)

    def test_each_worker_runs_on_a_cpu_of_its_own(self, mask):
        workers = len(mask)
        r = differential_corpus(Where(2 * workers), permutations=0, no_timing=True)
        assert r["statuses"] == "e" * 2 * workers
        named: dict[int, set[str]] = {}
        for entry in r["errors"]:
            named.setdefault(entry["instance_id"] % workers, set()).add(entry["error"])
        # each worker drew two instances, both on the same one CPU
        where = []
        for w in range(workers):
            [error] = named[w]
            [cpu] = json.loads(error.removeprefix("RuntimeError: "))
            where.append(cpu)
        assert len(set(where)) == workers and set(where) <= mask
        assert os.sched_getaffinity(0) == mask
        assert no_child_left()

    @pytest.mark.parametrize("how", ["clean", "lost", "interrupt"])
    def test_the_diff_process_gets_its_mask_back(self, how, mask, monkeypatch):
        diff, real = os.getpid(), oracle._judge

        def judge(corpus, i, seeds):
            if how == "lost" and os.getpid() != diff:
                os._exit(3)
            if how == "interrupt" and os.getpid() == diff:
                raise KeyboardInterrupt
            return real(corpus, i, seeds)

        monkeypatch.setattr(oracle, "_judge", judge)
        corpus = [GOLDEN] * (2 * len(mask))
        if how == "clean":
            assert differential_corpus(corpus, permutations=0)["statuses"] == "s" * len(corpus)
        else:
            with pytest.raises(oracle.WorkerLost if how == "lost" else KeyboardInterrupt):
                differential_corpus(corpus, permutations=0)
        assert os.sched_getaffinity(0) == mask
        assert no_child_left()

    def test_a_refused_placement_changes_no_report(self, mask, monkeypatch):
        corpus = generate_campaign(*CAMPAIGN_BATCH, 0)
        placed = json.dumps(differential_corpus(corpus, no_timing=True), sort_keys=True)

        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        refused = json.dumps(differential_corpus(corpus, no_timing=True), sort_keys=True)
        assert refused == placed
        assert os.sched_getaffinity(0) == mask
        assert no_child_left()


class TestMinimizer:
    def test_rejects_agreement(self):
        with pytest.raises(ValueError):
            minimize_counterexample(GOLDEN)

    def test_planted_core_recovered(self, ignore_incompatible):
        # with scope discards disabled the solver dead-ends on the planted
        # pair while the junk clause is droppable
        f = formula(5, [[3, 4, 5], [1, 2], [1, -2]])
        small = minimize_counterexample(f)
        assert [c.lits for c in small.clauses] == [(1, 2), (1, -2)]

    def test_literal_shrink(self, ignore_incompatible):
        # minimal core emerges only after shrinking the 3-literal clause
        f = formula(3, [[1, 2, 3], [1, -2], [-3]])
        small = minimize_counterexample(f)
        assert [c.lits for c in small.clauses] == [(1, 2), (1, -2)]

    def test_already_minimal(self, ignore_incompatible):
        f = formula(2, [[1, 2], [1, -2]])
        small = minimize_counterexample(f)
        assert [c.lits for c in small.clauses] == [(1, 2), (1, -2)]

    def test_brute_force_only_when_the_scan_status_matches(
        self, monkeypatch, ignore_incompatible
    ):
        # the exact search, which took over from brute force, runs only then
        statuses, brute_calls = [], []
        real_scan, real_search = oracle.scan, oracle.find_model

        def scan(f, seed=None, dumps=False):
            v = real_scan(f, seed, dumps)
            statuses.append(v.status)
            return v

        def search(f, budget):
            brute_calls.append(f)
            return real_search(f, budget)

        monkeypatch.setattr(oracle, "scan", scan)
        monkeypatch.setattr(oracle, "find_model", search)
        small = minimize_counterexample(formula(5, [[3, 4, 5], [1, 2], [1, -2]]))
        assert [c.lits for c in small.clauses] == [(1, 2), (1, -2)]
        # the input's status comes first; a shrink with another is rejected unsolved
        assert len(brute_calls) == statuses.count(statuses[0])
        assert len(brute_calls) < len(statuses)

    def test_keeps_the_class_of_the_disagreement(self, monkeypatch):
        # a scan that always claims satisfiability disagrees on every formula;
        # the input is unsat, so every kept shrink must be unsat too
        monkeypatch.setattr(
            "x1scan.oracle.scan",
            lambda f, seed=None, dumps=False: Verdict("claimed_sat_unverified", None, 0, {}, None),
        )
        f = formula(3, [[1, 2], [1, -2], [3]])
        assert brute_force_sat(f) is None
        small = minimize_counterexample(f)
        assert brute_force_sat(small) is None
        assert [c.lits for c in small.clauses] == [(1, 2), (1, -2)]

    def test_planted_defect_caught_by_campaign(self, ignore_incompatible):
        f = formula(5, [[3, 4, 5], [1, 2], [1, -2]])
        r = differential_corpus([f], permutations=0)
        assert len(r["disagreements"]) == 1
        d = r["disagreements"][0]
        assert d["oracle_status"] == "unsat"
        assert d["scan_status"] == "claimed_sat_unverified"
        assert d["minimized"] == {"n": 5, "clauses": [[1, 2], [1, -2]]}
        assert r["statuses"] == "c"


class TestDisagreementClass:
    """Each disagreement's class follows from the scan status and the oracle
    verdict alone."""

    def classes(self, corpus) -> list[tuple[str, str, str]]:
        r = differential_corpus(corpus, permutations=0, no_timing=True)
        assert validate(r, load_schema("diff_report")) == []
        return [(d["scan_status"], d["oracle_status"], d["class"]) for d in r["disagreements"]]

    def test_fixpoint_on_unsat(self, ignore_incompatible):
        f = formula(5, [[3, 4, 5], [1, 2], [1, -2]])
        assert self.classes([f]) == [("claimed_sat_unverified", "unsat", "fixpoint_on_unsat")]

    def test_completion_dead_end(self, ignore_incompatible):
        # satisfiable, with x1 false; with no incompatible discards the scan
        # stalls, and the completion pick of x1 dead-ends
        f = formula(6, [[2, 5], [-1, 2, -5], [-3, -4, 6]])
        assert brute_force_sat(f) is not None
        assert self.classes([f]) == [("claimed_sat_unverified", "sat", "completion_dead_end")]

    def test_unsound_unsat(self, monkeypatch):
        # a scan that refutes every formula errs on every satisfiable one
        unsat = Verdict("unsat", None, 0, {}, None)
        monkeypatch.setattr(oracle, "scan", lambda f, seed=None, dumps=False: unsat)
        monkeypatch.setattr(oracle, "scans", lambda f, seeds, dumps=False: [unsat] * len(seeds))
        assert self.classes([GOLDEN, formula(1, [[1], [-1]])]) == [
            ("unsat", "sat", "unsound_unsat"),
        ]


class TestEmission:
    def test_write_discrepancies(self, tmp_path, ignore_incompatible):
        f = formula(5, [[3, 4, 5], [1, 2], [1, -2]])
        r = differential_corpus([f], permutations=0)
        paths = write_discrepancies(r, tmp_path)
        assert len(paths) == 2
        cnf, sidecar = paths
        parsed = parse_x1cnf(cnf.read_text())
        assert [c.lits for c in parsed.clauses] == [(1, 2), (1, -2)]
        meta = json.loads(sidecar.read_text())
        assert meta["reproduce"].startswith("x1scan solve --json")
        assert meta["oracle_status"] == "unsat"
        assert meta["class"] == "fixpoint_on_unsat"

    def test_report_dict_shape(self):
        d = differential_corpus([GOLDEN], permutations=1, no_timing=True)
        assert d["instance_count"] == 1
        assert d["timing_ms"] is None
        json.dumps(d)  # must be JSON-serializable as-is
