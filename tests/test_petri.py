import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    SafetyViolationError,
    TokenGameError,
    brute_force_sat,
    enabled,
    fire,
    play_token_game,
    search_reachable,
)

from x1scan import petri
from x1scan.formula import DEFAULT_STATE_BUDGET, BudgetError, formula
from x1scan.petri import (
    Net,
    NetError,
    build_forward_net,
    build_inverse_net,
    conflicts,
    export_dot,
    net_as_dict,
    root_conflicts,
    sourceless_places,
    target_reachable,
)

GOLDEN = formula(3, [[1, -3], [1, -2, 3], [2, -3]])


def reference_net() -> Net:
    """Hand-checked 17-place worked example used by the acceptance suite."""
    flows = {
        "t1": (["p1"], []),
        "t2": (["p1"], ["p4", "p6"]),
        "t3": (["p2"], ["p7"]),
        "t4": (["p2"], ["p9"]),
        "t5": (["p3"], ["p5", "p10"]),
        "t6": (["p3"], ["p8"]),
        "t7": (["p4", "p11"], ["p14"]),
        "t8": (["p5", "p11"], ["p14"]),
        "t9": (["p6", "p12"], ["p15"]),
        "t10": (["p7", "p12"], ["p15"]),
        "t11": (["p8", "p12"], ["p15"]),
        "t12": (["p9", "p13"], ["p16"]),
        "t13": (["p10", "p13"], ["p16"]),
        "t14": (["p14", "p15", "p16"], ["p17"]),
    }
    level = {}
    for i in range(1, 4):
        level[f"p{i}"] = 0
    for i in range(4, 14):
        level[f"p{i}"] = 1
    for i in range(14, 17):
        level[f"p{i}"] = 2
    for i in range(1, 7):
        level[f"t{i}"] = 0
    for i in range(7, 14):
        level[f"t{i}"] = 1
    level["t14"] = 2
    return Net(
        name="reference",
        places=tuple(f"p{i}" for i in range(1, 18)),
        transitions=tuple(f"t{i}" for i in range(1, 15)),
        pre={t: frozenset(ins) for t, (ins, _) in flows.items()},
        post={t: frozenset(outs) for t, (_, outs) in flows.items()},
        level=level,
        sinks=frozenset({"p17"}),
    )


def test_reference_net_validates():
    net = reference_net()
    # the initial marking is derived, like Formula.special: the places no
    # transition produces into, outside the fields, equality and repr
    assert net.initial == sourceless_places(net)
    assert net.initial == frozenset({"p1", "p2", "p3", "p11", "p12", "p13"})
    assert "initial" not in Net._fields and "initial" not in repr(net)


def test_reference_net_conflicts():
    net = reference_net()
    assert conflicts(net) == {
        "p1": ("t1", "t2"),
        "p2": ("t3", "t4"),
        "p3": ("t5", "t6"),
        "p11": ("t7", "t8"),
        "p12": ("t9", "t10", "t11"),
        "p13": ("t12", "t13"),
    }


def test_reference_net_accepting_run():
    game = play_token_game(reference_net(), ["t1", "t3", "t10", "t5", "t8", "t13", "t14"])
    assert game.final == frozenset({"p17"})
    assert game.ended_final


def test_reference_net_dead_run():
    game = play_token_game(reference_net(), ["t2", "t7", "t3", "t10", "t6"])
    assert game.final == frozenset({"p14", "p15", "p6", "p8", "p13"})
    assert game.ended_final  # dead marking, not acceptance


def test_token_game_error_names_step_and_places():
    with pytest.raises(TokenGameError) as exc:
        play_token_game(reference_net(), ["t1", "t7"])
    assert "step 2" in str(exc.value)
    assert "p4" in str(exc.value)
    with pytest.raises(TokenGameError, match="step 1: unknown"):
        play_token_game(reference_net(), ["nope"])


def test_fire_is_pure_and_enabled_order_is_declaration_order():
    net = reference_net()
    m0 = net.initial
    assert enabled(net, m0) == ("t1", "t2", "t3", "t4", "t5", "t6")
    m1 = fire(net, m0, "t2")
    assert m0 == net.initial
    assert m1 == frozenset({"p2", "p3", "p4", "p6", "p11", "p12", "p13"})


def test_safety_violation_detected():
    net = Net(
        name="unsafe",
        places=("a", "b", "s"),
        transitions=("t", "u"),
        pre={"t": frozenset({"a"}), "u": frozenset({"b"})},
        post={"t": frozenset({"s"}), "u": frozenset({"s"})},
        level={"a": 0, "b": 0, "t": 0, "u": 0},
        sinks=frozenset({"s"}),
    )
    m = fire(net, net.initial, "t")
    with pytest.raises(SafetyViolationError, match="'s'"):
        fire(net, m, "u")


# a valid one-transition net; each validation test breaks one field of it
TINY_NET = dict(
    name="n",
    places=("a", "s"),
    transitions=("t",),
    pre={"t": frozenset({"a"})},
    post={"t": frozenset({"s"})},
    level={"a": 0, "t": 0},
    sinks=frozenset({"s"}),
)


@pytest.mark.parametrize(
    "breakage,needle",
    [
        (dict(sinks=frozenset({"t"})), "sinks must be places"),
        (dict(level={"a": 0, "t": 0, "s": 5}), "sink"),
        (dict(level={"a": 1, "t": 0}), "not at transition level"),
        (dict(places=("a", "t", "s")), "overlap"),
    ],
)
def test_net_validation(breakage, needle):
    with pytest.raises(NetError, match=needle):
        Net(**{**TINY_NET, **breakage})


@pytest.mark.parametrize(
    "breakage, message",
    [
        (dict(places=("a", "a", "s")), "duplicate node names"),
        (dict(pre={}), "pre/post must be keyed by exactly the transitions"),
        (dict(level={"t": 0}), "place a has no level and is not a sink"),
        (dict(level={"a": 1, "t": 0}), "t: input a not at transition level 0"),
    ],
)
def test_net_error_messages(breakage, message):
    with pytest.raises(NetError) as err:
        Net(**{**TINY_NET, **breakage})
    assert str(err.value) == message


def test_same_level_output_rejected():
    with pytest.raises(NetError, match="not above"):
        Net(
            name="n",
            places=("a", "b"),
            transitions=("t",),
            pre={"t": frozenset({"a"})},
            post={"t": frozenset({"b"})},
            level={"a": 0, "b": 0, "t": 0},
            sinks=frozenset(),
        )


# --- constructions ------------------------------------------------------------


def test_forward_net_structure():
    net = build_forward_net(GOLDEN)
    assert len(net.places) == 17
    assert len(net.transitions) == 14
    assert net.initial == frozenset({"l1", "l2", "l3", "g1", "g2", "g3"})
    assert net.pre["z2_-2"] == frozenset({"b2_-2", "g2"})
    assert net.post["z2_-2"] == frozenset({"c2"})
    assert net.post["x1"] == frozenset({"b1_1", "b2_1"})
    assert net.post["-x1"] == frozenset()  # -x1 occurs in no clause
    assert net.pre["collect"] == frozenset({"c1", "c2", "c3"})
    assert net.post["collect"] == frozenset({"top"})


def test_forward_net_matches_reference_up_to_renaming():
    ref = reference_net()
    built = build_forward_net(GOLDEN)
    pmap = {
        "p1": "l1", "p2": "l2", "p3": "l3",
        "p4": "b1_1", "p5": "b1_-3", "p6": "b2_1", "p7": "b2_-2",
        "p8": "b2_3", "p9": "b3_2", "p10": "b3_-3",
        "p11": "g1", "p12": "g2", "p13": "g3",
        "p14": "c1", "p15": "c2", "p16": "c3", "p17": "top",
    }
    tmap = {
        "t1": "-x1", "t2": "x1", "t3": "-x2", "t4": "x2", "t5": "-x3", "t6": "x3",
        "t7": "z1_1", "t8": "z1_-3", "t9": "z2_1", "t10": "z2_-2", "t11": "z2_3",
        "t12": "z3_2", "t13": "z3_-3", "t14": "collect",
    }
    assert set(pmap.values()) == set(built.places)
    assert set(tmap.values()) == set(built.transitions)
    for t_ref, t_built in tmap.items():
        assert {pmap[p] for p in ref.pre[t_ref]} == set(built.pre[t_built])
        assert {pmap[p] for p in ref.post[t_ref]} == set(built.post[t_built])
        assert ref.level[t_ref] == built.level[t_built]
    assert {pmap[p] for p in ref.initial} == set(built.initial)


@pytest.mark.parametrize("build", [build_forward_net, build_inverse_net])
def test_a_net_past_the_node_limit_is_refused_before_it_is_built(monkeypatch, build):
    # x5 is in no clause and still gets its nodes
    f = formula(5, [[1, -3], [1, -2, 3], [4]])
    net = build(f)
    nodes = len(net.places) + len(net.transitions)
    monkeypatch.setattr(petri, "MAX_NET_NODES", nodes)
    assert build(f) == net
    monkeypatch.setattr(petri, "MAX_NET_NODES", nodes - 1)
    with pytest.raises(BudgetError) as exc:
        build(f)
    assert str(exc.value) == (f"the {net.name} net would have {nodes} nodes, "
                              f"above the limit MAX_NET_NODES={nodes - 1}")


def test_inverse_net_structure():
    net = build_inverse_net(GOLDEN)
    assert net.initial == frozenset({"c1", "c2", "c3", "g1", "g2", "g3"})
    assert net.pre["z2_3"] == frozenset({"c2"})
    assert net.post["z2_3"] == frozenset({"b2_3"})
    # the polarity transition needs every buffer of its literal
    assert net.pre["x1"] == frozenset({"g1", "b1_1", "b2_1"})
    assert net.post["x1"] == frozenset({"l1"})
    assert net.pre["-x1"] == frozenset({"g1"})
    assert net.pre["collect"] == frozenset({"l1", "l2", "l3"})


def test_inverse_net_conflicts_are_clause_and_guard_places():
    net = build_inverse_net(GOLDEN)
    assert conflicts(net) == {
        "c1": ("z1_1", "z1_-3"),
        "c2": ("z2_1", "z2_-2", "z2_3"),
        "c3": ("z3_2", "z3_-3"),
        "g1": ("x1", "-x1"),
        "g2": ("x2", "-x2"),
        "g3": ("x3", "-x3"),
    }


def test_root_conflicts_keep_source_level_choices_only():
    inv = build_inverse_net(GOLDEN)
    assert set(root_conflicts(inv)) == {"c1", "c2", "c3"}
    fwd = build_forward_net(GOLDEN)
    assert set(root_conflicts(fwd)) == {"l1", "l2", "l3"}
    # conjunct-only formula: every clause place has a single consumer
    units = build_inverse_net(formula(2, [[1], [-2]]))
    assert root_conflicts(units) == {}


def test_builders_reject_special_formulas():
    f = formula(2, [[1, 2, -2]])
    with pytest.raises(NetError, match="general"):
        build_forward_net(f)
    with pytest.raises(NetError, match="general"):
        build_inverse_net(f)


# --- reachability ---------------------------------------------------------------


# the package engine is checked against search_reachable, a plain DFS over
# every reachable marking that knows nothing of levels


def test_golden_formula_reaches_top_both_nets_both_engines():
    for build in (build_forward_net, build_inverse_net):
        net = build(GOLDEN)
        assert target_reachable(net, DEFAULT_STATE_BUDGET)
        assert search_reachable(net)


def test_contradictory_conjuncts_unreachable():
    f = formula(1, [[1], [-1]])
    for build in (build_forward_net, build_inverse_net):
        net = build(f)
        assert not target_reachable(net, DEFAULT_STATE_BUDGET)
        assert not search_reachable(net)


def test_empty_presets_fire_at_will():
    # with no clauses, or no variables, the collector's preset is empty
    for f in (formula(0, []), formula(2, [])):
        for build in (build_forward_net, build_inverse_net):
            net = build(f)
            assert target_reachable(net, DEFAULT_STATE_BUDGET)
            assert search_reachable(net)


def test_token_stranded_on_a_level_without_transitions_is_unreachable():
    # t feeds the sink but also a place that nothing consumes
    net = Net(
        name="stranded",
        places=("a", "q", "s"),
        transitions=("t",),
        pre={"t": frozenset({"a"})},
        post={"t": frozenset({"q", "s"})},
        level={"a": 0, "q": 1, "t": 0},
        sinks=frozenset({"s"}),
    )
    assert not target_reachable(net, DEFAULT_STATE_BUDGET)
    assert not search_reachable(net)


def test_reachability_guards():
    # the budget counts search steps: the golden nets need 100 (forward) and
    # 113 (inverse), and one step fewer is refused, never answered
    for build, steps in ((build_forward_net, 100), (build_inverse_net, 113)):
        net = build(GOLDEN)
        assert target_reachable(net, steps)
        with pytest.raises(BudgetError,
                           match=f"^reachability search spent its budget of {steps - 1} steps$"):
            target_reachable(net, steps - 1)
    # net size is no guard of its own: 1,200 disjoint clauses make 7,201
    # transitions and 1,200 tokens on one level; the default budget decides
    # the net, and a budget too small for it ends in the budget error
    wide = build_inverse_net(formula(2400, [[2 * i + 1, 2 * i + 2] for i in range(1200)]))
    assert len(wide.transitions) == 7201
    assert target_reachable(wide, DEFAULT_STATE_BUDGET)
    with pytest.raises(BudgetError, match="^reachability search spent its budget of 1000 steps$"):
        target_reachable(wide, 1000)


def literals(n):
    return st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))


def general_clauses(n):
    return (
        st.lists(literals(n), min_size=1, max_size=3, unique=True)
        .filter(lambda ls: not any(-l in ls for l in ls))
    )


small_general = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        formula, st.just(n), st.lists(general_clauses(n), min_size=0, max_size=4)
    )
)


@settings(max_examples=100, deadline=None)
@given(small_general)
def test_engines_and_nets_agree(f):
    # both nets under both engines, and brute force; unlike acceptance claim
    # 4's sorted corpus, the clauses come in any order, and m = 0 is drawn
    results = {"brute_force_sat": brute_force_sat(f) is not None}
    for build in (build_forward_net, build_inverse_net):
        net = build(f)
        results[build.__name__, "target_reachable"] = target_reachable(net, DEFAULT_STATE_BUDGET)
        results[build.__name__, "search_reachable"] = search_reachable(net)
    assert len(set(results.values())) == 1, results


# --- export ---------------------------------------------------------------------


def test_export_dot_deterministic_and_marked():
    net = build_forward_net(GOLDEN)
    dot = export_dot(net)
    assert dot == export_dot(net)
    assert '"l1" [shape=circle, style=filled, fillcolor=gray80];' in dot
    assert '"c1" [shape=circle];' in dot
    assert '"x1" [shape=box];' in dot
    assert '  "b1_1" -> "z1_1";' in dot
    assert dot.startswith('digraph "forward" {')


def test_net_as_dict_shape():
    d = net_as_dict(build_inverse_net(GOLDEN))
    assert d["name"] == "inverse"
    assert d["initial"] == sorted(["c1", "c2", "c3", "g1", "g2", "g3"])
    top = [p for p in d["places"] if p["name"] == "top"][0]
    assert top["sink"] is True and top["level"] is None
    assert d["conflicts"]["g1"] == ["x1", "-x1"]
