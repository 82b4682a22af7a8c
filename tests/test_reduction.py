import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    as_formula,
    event_lines,
    fingerprint,
    full_fingerprint,
    index_consistent,
    open_literals,
)

from x1scan.formula import failed_clauses, formula
from x1scan.reduction import (
    ReductionError,
    discard,
    init_state,
    necessary_literals,
    reduce_on_false,
    reduce_on_true,
)

GOLDEN = formula(3, [[1, -3], [1, -2, 3], [2, -3]])


def golden_state():
    return init_state(GOLDEN)


def test_init_builds_occurrence_index():
    st_ = golden_state()
    assert st_.occurrence[1] == [1, 2]
    assert -1 not in st_.occurrence
    assert st_.occurrence[-3] == [1, 3]
    assert st_.conjuncts == set()
    assert index_consistent(st_)


def test_init_unit_clause_seeds_conjuncts_but_not_the_index():
    f = formula(4, [[1, -3], [1, -2, 3], [2, -3], [4]])
    st_ = init_state(f)
    assert st_.occurrence[4] == []
    assert 4 in st_.conjuncts and st_.pending == {4: 4}
    assert st_.live[4] == []  # its fact lives on in N and the pending map
    assert st_.live_literals[4] == (4, -4)


def test_init_rejects_special():
    with pytest.raises(ReductionError, match="general"):
        init_state(formula(2, [[1, 2, -2]]))


def test_empty_formula():
    st_ = init_state(formula(0, []))
    assert st_.live == {} and st_.conjuncts == set()


def test_reduce_on_true_absorbs_clauses():
    st_ = golden_state()
    emerged = reduce_on_true(st_, 1)
    assert emerged == [(3, 1), (2, 2), (-3, 2)]
    assert st_.live[1] == [] and st_.live[2] == []
    assert st_.live[3] == [2, -3]
    assert index_consistent(st_)


def test_reduce_on_true_other_polarity():
    st_ = golden_state()
    assert reduce_on_true(st_, -2) == [(-1, 2), (-3, 2)]


def test_reduce_on_false_unit_emergence():
    st_ = golden_state()
    assert reduce_on_false(st_, 2) == [(-3, 3)]
    assert st_.live[3] == []


def test_reduce_on_false_mixed_sizes():
    st_ = golden_state()
    emerged = reduce_on_false(st_, 1)
    assert emerged == [(-3, 1)]
    assert st_.live[1] == []
    assert st_.live[2] == [-2, 3]
    assert index_consistent(st_)


def conjunct_order(state):
    return [e["literals"][0] for e in state.events if e["kind"] == "conjunct_added"]


def test_discard_trace_on_golden():
    st_ = golden_state()

    assert discard(st_, 1) is None
    assert conjunct_order(st_) == [-1, -3]
    assert st_.live == {1: [], 2: [-2, 3], 3: [2, -3]}
    assert st_.pending == {-3: 1}
    assert st_.live_literals[1] == (-1,)
    assert st_.scan_round == 2
    assert necessary_literals(st_) == (-3, 1)

    assert discard(st_, 3) is None
    assert conjunct_order(st_) == [-1, -3, -2]
    assert all(ls == [] for ls in st_.live.values())
    assert st_.scan_round == 3
    assert necessary_literals(st_) == (-2, 3)

    assert discard(st_, 2) is None
    assert st_.scan_round == 4
    assert necessary_literals(st_) is None
    assert {v: pols for v, pols in st_.live_literals.items()} == {
        1: (-1,), 2: (-2,), 3: (-3,)
    }


def test_state_is_sized_by_the_clauses_not_the_header():
    f = formula(200_000, [])
    tracemalloc.start()
    try:
        state = init_state(f)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.live_literals == {}
    assert allocated < 1_000_000
    assert init_state(formula(6, [[3, -5]])).live_literals == {3: (3, -3), 5: (5, -5)}


def test_discard_reports_polarity_pair_from_unit_emergence():
    st_ = init_state(formula(2, [[1, 2], [1, -2]]))
    assert discard(st_, 1) == 2


def test_discard_reports_polarity_pair_at_absorption_stage():
    # clauses containing -z collapse first; opposite units meet at the L:8 check
    st_ = init_state(formula(3, [[-1, 2], [-1, -2]]))
    assert discard(st_, 1) == 2


def test_discard_twice_rejected():
    st_ = golden_state()
    discard(st_, 1)
    with pytest.raises(ReductionError, match="already discarded"):
        discard(st_, 1)


def test_copy_shares_no_mutable_part():
    st_ = golden_state()
    discard(st_, 1)
    before = full_fingerprint(st_)
    twin = st_.copy()
    assert full_fingerprint(twin) == before
    for k, ls in st_.live.items():
        assert twin.live[k] is not ls
    for lit, ids in st_.occurrence.items():
        assert twin.occurrence[lit] is not ids
    # a discard on the copy leaves the original as it was, and the reverse
    discard(twin, 3)
    assert full_fingerprint(st_) == before
    after = full_fingerprint(twin)
    discard(st_, -3)
    assert full_fingerprint(twin) == after


def test_event_lines_are_json():
    st_ = golden_state()
    discard(st_, 1)
    lines = event_lines(st_).splitlines()
    assert lines
    kinds = [json.loads(l)["kind"] for l in lines]
    assert kinds == [
        "conjunct_added",        # -1 enters N
        "two_to_unit",           # clause 1 shrinks to -3
        "three_to_two",          # clause 2 loses x1
        "conjunct_added",        # -3 enters N
        "literal_discarded",     # x1 ruled out
    ]


# --- properties ----------------------------------------------------------------


def literals(n):
    return st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))


def general_clauses(n):
    return (
        st.lists(literals(n), min_size=1, max_size=3, unique=True)
        .filter(lambda ls: not any(-l in ls for l in ls))
    )


def general_formulas(max_n=4, max_m=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            formula, st.just(n), st.lists(general_clauses(n), max_size=max_m)
        )
    )


@settings(max_examples=120, deadline=None)
@given(general_formulas(), st.randoms(use_true_random=False))
def test_random_discard_walks_keep_invariants(f, rng):
    state = init_state(f)
    sizes = {k: len(ls) for k, ls in state.live.items()}
    while True:
        cands = open_literals(state)
        if not cands:
            break
        z = rng.choice(cands)
        n_before = set(state.conjuncts)
        res = discard(state, z)
        assert index_consistent(state)
        for k, ls in state.live.items():
            assert len(ls) <= sizes[k]
            sizes[k] = len(ls)
        assert n_before <= state.conjuncts
        # solver.scan probes the variables of the live clauses, both polarities
        for ls in state.live.values():
            assert all(len(state.live_literals[abs(l)]) == 2 for l in ls)
        # necessary_literals reads pending alone: no live clause has one literal
        assert all(len(ls) != 1 for ls in state.live.values())
        if res is not None:
            assert res in state.conjuncts and -res in state.conjuncts
            break


def models(f, n):
    out = set()
    for bits in range(1 << n):
        a = [v if bits >> (v - 1) & 1 else -v for v in range(1, n + 1)]
        if not failed_clauses(f, a):
            out.add(bits)
    return out


@settings(max_examples=120, deadline=None)
@given(general_formulas(max_n=4, max_m=4), st.randoms(use_true_random=False))
def test_discard_preserves_models_given_the_discarded_literal_false(f, rng):
    state = init_state(f)
    cands = open_literals(state)
    if not cands:
        return
    z = rng.choice(cands)
    n = f.n_vars
    before = models(as_formula(state), n)
    false_under = {
        bits for bits in before
        if (bool(bits >> (abs(z) - 1) & 1)) != (z > 0)
    }
    discard(state, z)
    assert models(as_formula(state), n) == false_under


@settings(max_examples=80, deadline=None)
@given(general_formulas(), st.randoms(use_true_random=False))
def test_event_replay_reconstructs_state(f, rng):
    state = init_state(f)
    for _ in range(3):
        cands = open_literals(state)
        if not cands:
            break
        if discard(state, rng.choice(cands)) is not None:
            break

    # replay the log against a fresh skeleton
    # a unit clause starts empty: init_state files its literal as a conjunct
    live = {c.id: [] if len(c.lits) == 1 else list(c.lits) for c in f.clauses}
    live_literals = {v: (v, -v) for v in {abs(l) for c in f.clauses for l in c.lits}}
    conjuncts, order, pending = set(), [], {}
    rnd, conflict = 1, None
    for e in state.events:
        kind, k, lits = e["kind"], e["clause"], e["literals"]
        if kind == "conjunct_added":
            (lit,) = lits
            if -lit in conjuncts and conflict is None:
                conflict = abs(lit)
            if lit not in conjuncts:
                conjuncts.add(lit)
                order.append(lit)
                if k is not None:
                    pending.setdefault(lit, k)
        elif kind in ("clause_to_conjunction", "two_to_unit"):
            live[k] = []
        elif kind == "three_to_two":
            (z,) = lits
            live[k].remove(z)
        elif kind == "literal_discarded":
            (z,) = lits
            live_literals[abs(z)] = (-z,)
            rnd += 1
    replayed = (
        tuple(sorted((k, tuple(ls)) for k, ls in live.items())),
        tuple(sorted(conjuncts)),
        tuple(sorted(live_literals.items())),
        tuple(pending.items()),
        rnd,
        conflict,
    )
    assert replayed == fingerprint(state)
