import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    full_fingerprint,
    open_literals,
    reference_incompatible,
    reference_xor2sat,
)

from x1scan import scope as scope_module
from x1scan.formula import formula
from x1scan.oracle import generate_random
from x1scan.reduction import discard, init_state
from x1scan.scope import (
    Built,
    CoversSatisfiable,
    EarlyConflict,
    Incompatible,
    NotYet,
    PairIndex,
    ScopeFormula,
    XorSat,
    XorUnsat,
    build_scope,
    incompatible,
    scope_as_dict,
    xor2sat_satisfiable,
)
from x1scan.solver import CarriedVerdicts, extract_assignment, scans

GOLDEN = formula(3, [[1, -3], [1, -2, 3], [2, -3]])


def test_build_scope_detects_polarity_pair_in_workset():
    state = init_state(GOLDEN)
    res = build_scope(state, 1, PairIndex(state))
    assert isinstance(res, EarlyConflict)
    assert res.var == 3
    assert res.units == (1, 3, 2, -3)  # both offending polarities present


def test_build_scope_covering_case():
    state = init_state(GOLDEN)
    res = build_scope(state, -2, PairIndex(state))
    assert isinstance(res, Built)
    assert res.scope.units == (-2, -1, -3)
    assert res.scope.xor_pairs == ((1, -3),)
    assert res.residual3 == ()


def test_build_scope_stalls_on_untouched_residue():
    f = formula(6, [[1, 2, 3], [4, 5, 6]])
    state = init_state(f)
    res = build_scope(state, 1, PairIndex(state))
    assert isinstance(res, Built)
    assert res.scope.units == (1, -2, -3)
    assert res.scope.xor_pairs == ()
    assert res.residual3 == (2,)


def test_build_scope_nothing_to_reduce():
    f = formula(4, [[2, 3, 4]])
    state = init_state(f)
    res = build_scope(state, 1, PairIndex(state))
    assert isinstance(res, Built)
    assert res.scope.units == (1,)
    assert res.residual3 == (1,)


def test_build_scope_leaves_base_state_untouched():
    # a mid-scan state: two discards in, pairs and 3-literal residues both live
    state = init_state(generate_random(30, 20, seed=3, profile="mixed"))
    for z in (1, -2):
        assert discard(state, z) is None
    sizes = [len(ls) for ls in state.live.values()]
    assert 3 in sizes and 2 in sizes
    before = full_fingerprint(state)
    index = PairIndex(state)
    for z in open_literals(state):
        build_scope(state, z, index)
        incompatible(state, z, index)
    assert full_fingerprint(state) == before


def test_pair_index_is_sized_by_its_pairs():
    # a header-only state has no pairs: nothing to index, however large n is
    state = init_state(formula(200_000, []))
    tracemalloc.start()
    try:
        index = PairIndex(state)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.pairs == () and index.consistent
    assert allocated < 1_000_000


# --- xor2sat ---------------------------------------------------------------------


def sf(units=(), pairs=()):
    return ScopeFormula(tuple(units), tuple(pairs))


def test_xor_unit_propagation():
    res = xor2sat_satisfiable(sf(units=[1], pairs=[(1, 2)]))
    assert isinstance(res, XorSat)
    assert res.model == {1: True, 2: False}


def test_xor_odd_cycle_unsat():
    res = xor2sat_satisfiable(sf(pairs=[(1, 2), (2, 3), (1, 3)]))
    assert isinstance(res, XorUnsat)
    assert res.witness == ("pair", 1, 3)


def test_xor_contradictory_units():
    res = xor2sat_satisfiable(sf(units=[1, -1]))
    assert isinstance(res, XorUnsat)
    assert res.witness == ("unit", -1)


def test_xor_golden_scope_model():
    res = xor2sat_satisfiable(sf(units=[-2, -1, -3], pairs=[(1, -3)]))
    assert isinstance(res, XorSat)
    assert res.model == {1: False, 2: False, 3: False}


def test_xor_free_component_defaults_false():
    res = xor2sat_satisfiable(sf(pairs=[(1, 2)]))
    assert isinstance(res, XorSat)
    # root pinned false forces exactly one of the pair true, deterministically
    assert sorted(res.model) == [1, 2]
    assert res.model[1] != res.model[2]


def scope_models(s: ScopeFormula):
    vs = s.mentioned_vars()
    for values in itertools.product([False, True], repeat=len(vs)):
        a = dict(zip(vs, values))
        if all(a[abs(u)] == (u > 0) for u in s.units) and all(
            (a[abs(x)] == (x > 0)) != (a[abs(y)] == (y > 0))
            for x, y in s.xor_pairs
        ):
            yield a


def literals(n):
    return st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))


def scope_formulas(max_n=8):
    def build(n):
        pair = (
            st.tuples(literals(n), literals(n)).filter(lambda p: p[0] != p[1])
        )
        return st.builds(
            sf,
            st.lists(literals(n), max_size=5),
            st.lists(pair, max_size=6),
        )

    return st.integers(1, max_n).flatmap(build)


@settings(max_examples=300, deadline=None)
@given(scope_formulas())
def test_xor_agrees_with_enumeration(s):
    res = xor2sat_satisfiable(s)
    brute_sat = next(scope_models(s), None) is not None
    if isinstance(res, XorSat):
        assert brute_sat
        a = res.model
        assert all(a[abs(u)] == (u > 0) for u in s.units)
        assert all(
            (a[abs(x)] == (x > 0)) != (a[abs(y)] == (y > 0))
            for x, y in s.xor_pairs
        )
    else:
        assert not brute_sat


def test_xor_matches_literal_node_reference():
    # acceptance test 6's generator; equal witnesses and models, key order too
    rng = random.Random("xor:reference")
    for _ in range(20_000):
        n = rng.randint(1, 10)
        lit = lambda: rng.choice((-1, 1)) * rng.randint(1, n)
        s = sf(
            [lit() for _ in range(rng.randint(0, 5))],
            [(lit(), lit()) for _ in range(rng.randint(0, 6))],
        )
        assert repr(xor2sat_satisfiable(s)) == repr(reference_xor2sat(s))


# --- incompatible ---------------------------------------------------------------


def test_incompatible_golden_positive_literal():
    state = init_state(GOLDEN)
    res = incompatible(state, 1, PairIndex(state))
    assert isinstance(res, Incompatible)
    assert res.reason == "early_conflict"
    assert res.detail == (3,)


def test_incompatible_golden_covering_literal():
    state = init_state(GOLDEN)
    res = incompatible(state, -2, PairIndex(state))
    assert isinstance(res, CoversSatisfiable)
    assert res.model == {1: False, 2: False, 3: False}


def test_incompatible_not_yet():
    f = formula(6, [[1, 2, 3], [4, 5, 6]])
    state = init_state(f)
    assert isinstance(incompatible(state, 1, PairIndex(state)), NotYet)


def test_incompatible_scope_unsat():
    # holding -x1 forces x2..x4 false, clashing with the pair left of clause 4
    f = formula(4, [[-1, 2, 3], [-1, 3, 4], [-1, 2, 4], [1, 2, 3]])
    state = init_state(f)
    res = incompatible(state, -1, PairIndex(state))
    assert isinstance(res, Incompatible)
    assert res.reason == "scope_unsat"


def test_base_pairs_in_an_odd_cycle_make_every_scope_unsat():
    # pairs {1,2}, {2,3}, {1,3} have no model; probing x4 meets none of them
    # and stops with clause 5 unreduced, yet its scope is unsatisfiable
    f = formula(9, [[1, 2], [2, 3], [1, 3], [4, 5, 6], [7, 8, 9]])
    state = init_state(f)
    index = PairIndex(state)
    res = incompatible(state, 4, index)
    assert isinstance(res, Incompatible)
    assert res.reason == "scope_unsat"
    assert res.detail == ("pair", 1, 3)
    assert res.built.residual3 == (5,)
    for z in open_literals(state):
        assert_same_probe(incompatible(state, z, index), reference_incompatible(state, z))


def test_covering_model_extends_with_settled_facts():
    # clause 2 never enters the scope of x3; x4's value comes from the state
    f = formula(4, [[3, 1], [4]])
    state = init_state(f)
    from x1scan.reduction import discard

    discard(state, -4)  # settle the input unit: only x4 remains eligible
    res = incompatible(state, 3, PairIndex(state))
    assert isinstance(res, CoversSatisfiable)
    assert res.model == {1: False, 3: True}  # the scope's variables only
    assert extract_assignment(state, base=res.model) == [-1, -2, 3, 4]


def test_scope_as_dict_shapes():
    state = init_state(GOLDEN)
    index = PairIndex(state)
    built = build_scope(state, -2, index)
    d = scope_as_dict(built, -2, "covers_satisfiable")
    assert d == {
        "literal": -2,
        "E": [-2, -1, -3],
        "xor_pairs": [[1, -3]],
        "residual3": [],
        "verdict": "covers_satisfiable",
    }
    conflict = build_scope(state, 1, index)
    d2 = scope_as_dict(conflict, 1, "incompatible")
    assert d2["E"] == [1, 3, 2, -3]
    assert d2["verdict"] == "incompatible"


# --- the probe against the reference: a scratch copy, every pair decided ------


def assert_same_probe(res, ref):
    assert type(res) is type(ref)
    assert res.literal == ref.literal
    assert getattr(res, "reason", None) == getattr(ref, "reason", None)
    assert getattr(res, "detail", None) == getattr(ref, "detail", None)
    assert getattr(res, "model", None) == getattr(ref, "model", None)
    assert scope_as_dict(res.built, res.literal, "") == scope_as_dict(
        ref.built, ref.literal, ""
    )


def general_clauses(n):
    return st.lists(literals(n), min_size=1, max_size=3, unique_by=abs)


def general_formulas(max_n=9, max_m=12):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            formula, st.just(n), st.lists(general_clauses(n), max_size=max_m)
        )
    )


def probe_along_random_discards(f, rng):
    """Probe every open literal in random order, discard a random one, repeat;
    each probe must equal the reference and leave the state as it was. The
    not_yet verdicts are carried as the scan carries them: every literal the
    carry holds must probe not_yet by the reference, and one held by its own
    verdict, not through another's expansion, must equal the reference, with
    the fresh probe's expansion.
    Some discards follow each other with no probing pass of the carry between
    them, as necessary discards do; the carry learns of them from the state's
    event log at its next pass."""
    state = init_state(f)
    carried = CarriedVerdicts()
    noted = {}
    while True:
        zs = open_literals(state)
        if not zs:
            break
        rng.shuffle(zs)
        before = full_fingerprint(state)
        index = PairIndex(state)
        # other states stand for passes spent on a necessary discard, which
        # the carry reads from the event log at its next probing pass
        probing = rng.random() < 0.7
        held = carried.begin_pass(state, index) if probing else ()
        for z in zs:
            ref = reference_incompatible(state, z)
            res = incompatible(state, z, index)
            assert_same_probe(res, ref)
            if z in held:
                assert isinstance(ref, NotYet)
                own, serial = noted.get(z, (None, None))
                if carried.kept[z] == serial:  # held by its own verdict
                    assert own == ref
                    assert own.built.units == res.built.units
                    assert own.built.touched == res.built.touched
            elif probing and isinstance(res, NotYet):
                carried.note(res, index)
                noted[z] = (res, carried.kept[z])
        assert full_fingerprint(state) == before
        if discard(state, rng.choice(zs)) is not None:
            break


@settings(max_examples=300, deadline=None)
@given(general_formulas(), st.randoms(use_true_random=False))
def test_probe_matches_reference_in_mid_scan_states(f, rng):
    probe_along_random_discards(f, rng)


def test_carried_verdicts_match_reference_on_seeded_formulas():
    """Mostly 3-literal clauses, where a dropped carry rule shows within a
    few hundred seeds; each rule is needed on this corpus."""
    for seed in range(1500):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        rows = [
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n + 1), rng.choice((2, 3, 3, 3)))]
            for _ in range(rng.randint(2, 12))
        ]
        probe_along_random_discards(formula(n, rows), rng)


def closures_along_random_discards(f, rng) -> int:
    """Probe every open literal, discard a random one, repeat. Each not_yet
    verdict must have an expansion with residue left, the one kind the carry
    takes, and a fresh carry is given it; every literal the carry then holds
    must probe not_yet by the reference, with units inside the verdict's E.
    Returns the literals held besides the probed one."""
    state = init_state(f)
    closed = 0
    while True:
        zs = open_literals(state)
        if not zs:
            break
        index = PairIndex(state)
        for z in zs:
            res = incompatible(state, z, index)
            if not isinstance(res, NotYet):
                continue
            built = res.built
            assert isinstance(built, Built) and built.three_left > 0
            carried = CarriedVerdicts()
            carried.note(res, index)
            for a in carried.kept:
                ref = reference_incompatible(state, a)
                assert isinstance(ref, NotYet), (z, a)
                assert set(ref.built.scope.units) <= set(built.units)
            closed += len(carried.kept) - 1
        if discard(state, rng.choice(zs)) is not None:
            break
    return closed


def test_a_not_yet_verdict_holds_for_its_whole_expansion():
    """A not_yet probe's expansion ran to its end, so each literal of its E
    is not_yet in the same state."""
    closed = 0
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        rows = [
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n + 1), rng.choice((2, 3, 3, 3)))]
            for _ in range(rng.randint(2, 12))
        ]
        closed += closures_along_random_discards(formula(n, rows), rng)
    assert closed > 200


# --- the root-level decision against the assembled scope -------------------


def satisfiable_along_random_discards(f, rng) -> tuple[int, int]:
    """Expand every open literal in random order, discard a random one,
    repeat; each ``Built`` with 3-literal residue left must decide its scope
    as the assembled scope's XOR decision does. Returns the expansions
    checked and those of them made against an inconsistent pair index."""
    state = init_state(f)
    checked = inconsistent = 0
    while True:
        zs = open_literals(state)
        if not zs:
            break
        rng.shuffle(zs)
        index = PairIndex(state)
        for z in zs:
            built = build_scope(state, z, index)
            if not isinstance(built, Built) or not built.three_left:
                continue
            assert built.satisfiable() == isinstance(xor2sat_satisfiable(built.scope), XorSat)
            checked += 1
            inconsistent += not index.consistent
        if discard(state, rng.choice(zs)) is not None:
            break
    return checked, inconsistent


@settings(max_examples=300, deadline=None)
@given(general_formulas(), st.randoms(use_true_random=False))
def test_scope_satisfiable_matches_xor_decision(f, rng):
    satisfiable_along_random_discards(f, rng)


def test_scope_satisfiable_matches_xor_decision_on_seeded_formulas():
    """Mostly 3-literal clauses and some pairs: the walks meet pair indexes
    with no model."""
    totals = [0, 0]
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        rows = [
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n + 1), rng.choice((2, 3, 3)))]
            for _ in range(rng.randint(2, 12))
        ]
        for i, k in enumerate(satisfiable_along_random_discards(formula(n, rows), rng)):
            totals[i] += k
    checked, inconsistent = totals
    assert checked > inconsistent > 0


def test_only_expansions_with_residue_left_are_decided_alone(monkeypatch):
    """Over seeded scans in groups of orders, ``Built.satisfiable`` is asked
    only about expansions with residue left, though the scans meet others:
    ``incompatible`` decides those on their assembled scope."""
    real_satisfiable, real_build = Built.satisfiable, scope_module.build_scope
    asked, no_residue = [], 0

    def satisfiable(built):
        asked.append(built.three_left)
        return real_satisfiable(built)

    def build(state, z, index):
        nonlocal no_residue
        res = real_build(state, z, index)
        no_residue += isinstance(res, Built) and not res.three_left
        return res

    monkeypatch.setattr(Built, "satisfiable", satisfiable)
    monkeypatch.setattr(scope_module, "build_scope", build)
    for seed in range(200):
        for profile in ("uniform3", "mixed", "adversarial"):
            n = 6 + seed % 25
            scans(generate_random(n, max(1, n * (1 + seed % 4) // 5), seed, profile),
                  [None, 0, 1, 2])
    assert len(asked) > 2000 and no_residue > 1000
    assert min(asked) > 0


def test_verdicts_compare_and_print_without_their_scope():
    f = formula(3, [[1, 2, 3], [-1, 2]])
    state = init_state(f)
    built = build_scope(state, 1, PairIndex(state))
    for plain, with_scope, text in [
        (Incompatible(1, "scope_unsat", ("unit", 1)),
         Incompatible(1, "scope_unsat", ("unit", 1), built),
         "Incompatible(literal=1, reason='scope_unsat', detail=('unit', 1))"),
        (NotYet(-2), NotYet(-2, built), "NotYet(literal=-2)"),
        (CoversSatisfiable(3, {3: True}), CoversSatisfiable(3, {3: True}, built),
         "CoversSatisfiable(literal=3, model={3: True})"),
    ]:
        assert plain == with_scope and repr(plain) == repr(with_scope) == text
        assert with_scope.built is built
    assert hash(NotYet(-2)) == hash(NotYet(-2, built))
    assert Incompatible(1, "scope_unsat", ("unit", 1)) != Incompatible(1, "early_conflict", (1,))
    assert NotYet(1) != NotYet(-1)
