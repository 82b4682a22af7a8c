import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_force_sat,
    clause_by_id,
    exhaustive_special,
    reference_convert_special,
    reference_parse,
)

from x1scan.formula import (
    DEFAULT_STATE_BUDGET,
    Clause,
    Conversion,
    Formula,
    FormulaError,
    IncompleteAssignmentError,
    ParseError,
    convert_special,
    emit_x1cnf,
    failed_clauses,
    formula,
    parse_x1cnf,
)
from x1scan.petri import build_inverse_net, target_reachable
from x1scan.solver import Verdict, scan

GOLDEN = formula(3, [[1, -3], [1, -2, 3], [2, -3]])


def test_clause_validation():
    # a formula checks its rows; a Clause record checks nothing
    for rows in ([()], [(1, 2, 3, 4)], [(1, 0)], [(2, 2)]):
        with pytest.raises(FormulaError):
            formula(4, rows)


def test_formula_rejects_out_of_range_var():
    with pytest.raises(FormulaError) as err:
        formula(2, [[1, 2], [1, 3]])
    assert err.value.clause == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: formula(1, [()]), "clause 1: 0 literals (want 1..3)"),
        (lambda: formula(4, [(1,), (1, 2, 3, 4)]), "clause 2: 4 literals (want 1..3)"),
        (lambda: formula(2, [(1,), (2,), (1, 0)]), "clause 3: literal 0"),
        (lambda: formula(2, [(1,), (2,), (-1,), (2, 2)]), "clause 4: duplicate literal"),
        (lambda: Formula(-1, ()), "n_vars must be >= 0"),
        (lambda: formula(2, [[1], [1, -3]]), "clause 2: variable 3 exceeds n_vars=2"),
        # duplicate ids: a rewrite keyed by id would drop one of the clauses
        (lambda: Formula(2, ((1,), (-1,)), (1, 1)),
         "clause 1: id not above 1; ids ascend from 1"),
        (lambda: Formula(3, ((1, 2), (3,)), (2, 1)),
         "clause 1: id not above 2; ids ascend from 1"),
        (lambda: Formula(3, ((1, 2), (3,)), (1,)), "1 clause ids for 2 clauses"),
        # a clause at fault wins over a variable out of range in an earlier one
        (lambda: formula(2, [(1, 3), (2, 2)]), "clause 2: duplicate literal"),
    ],
)
def test_formula_error_messages(build, message):
    with pytest.raises(FormulaError) as err:
        build()
    assert str(err.value) == message


def test_records_compare_print_and_hash_by_their_fields():
    a, b = Clause(1, (1, -2)), Clause(1, (1, -2))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Clause(2, (1, -2)) and a != Clause(1, (-2, 1))
    assert repr(a) == "Clause(id=1, lits=(1, -2))"
    assert formula(2, [[1, -2]]) == Formula(2, ((1, -2),), (1,))
    assert hash(formula(2, [[1, -2]])) == hash(Formula(2, ((1, -2),)))
    assert formula(2, [[1, -2]]).clauses == (b,)
    # the derived witnesses and the clause records stay out of equality, repr
    # and hash
    pair = formula(1, [[1, -1]])
    assert pair.special == ((1, 1),)
    assert pair.clauses == (Clause(1, (1, -1)),)
    assert repr(pair) == "Formula(n_vars=1, rows=((1, -1),), ids=(1,))"
    assert pair == Formula(1, ((1, -1),)) and hash(pair) == hash(Formula(1, ((1, -1),)))
    # mutable records compare by their fields too, and have no hash
    v = Verdict("sat", {1: True}, 2, {}, None)
    assert v == Verdict("sat", {1: True}, 2, {}, None) != Verdict("sat", {1: False}, 2, {}, None)
    assert repr(v) == ("Verdict(status='sat', assignment={1: True}, rounds=2, trace={}, "
                       "verification=None)")
    with pytest.raises(TypeError):
        hash(v)


def test_frozen_record_fields_are_read_only():
    c = Clause(1, (1, -2))
    with pytest.raises(AttributeError):
        c.lits = (3,)
    with pytest.raises(AttributeError):
        c.extra = 1
    with pytest.raises(AttributeError):
        del c.id
    with pytest.raises(AttributeError):
        GOLDEN.n_vars = 9
    assert c == Clause(1, (1, -2)) and GOLDEN.n_vars == 3


def test_clause_ids_are_one_based_and_stable():
    assert [c.id for c in GOLDEN.clauses] == [1, 2, 3]
    assert clause_by_id(GOLDEN, 2).lits == (1, -2, 3)


# --- X-DIMACS ----------------------------------------------------------------


def test_parse_golden():
    text = "c comment\np x1cnf 3 3\n1 -3 0\n1 -2 3 0\n2 -3 0\n"
    assert parse_x1cnf(text) == GOLDEN


def test_emit_parse_roundtrip_golden():
    assert parse_x1cnf(emit_x1cnf(GOLDEN)) == GOLDEN
    assert emit_x1cnf(GOLDEN) == "p x1cnf 3 3\n1 -3 0\n1 -2 3 0\n2 -3 0\n"


MALFORMED = [
    ("p cnf 3 3\n1 0\n", 1, "header"),
    ("p x1cnf 3\n", 1, "header"),
    ("1 2 0\n", 1, "header"),
    ("p x1cnf 3 1\n1 x 0\n", 2, "integer"),
    ("p x1cnf 3 1\n1 2\n", 2, "end with 0"),
    ("p x1cnf 3 1\n1 0 2 0\n", 2, "literal 0"),
    ("p x1cnf 3 1\n0\n", 2, "empty clause"),
    ("p x1cnf 4 1\n1 2 3 4 0\n", 2, "want 1..3"),
    ("p x1cnf 3 1\n2 2 0\n", 2, "duplicate"),
    ("p x1cnf 2 1\n1 -3 0\n", 2, "variable 3"),
    ("p x1cnf 2 3\n1 2 0\n-1 0\n2 -3 0\n", 4, "variable 3"),
    ("p x1cnf 2 3\nc note\n1 2 0\n\n-1 0\n2 -3 0\n", 6, "variable 3"),
    ("p x1cnf 2 2\n1 0\n", 1, "declares 2 clauses"),
    ("c a\nc b\np x1cnf 3 2\n1 2 0\n", 3, "declares 2 clauses"),
    # int() alone would read these as 10, 3 and 12
    ("p x1cnf 12 1\n1_0 +2 \u0663 0\n", 2, "non-integer token: '1_0'"),
    ("p x1cnf 12 1\n10 +2 \u0663 0\n", 2, "non-integer token: '\u0663'"),
    ("p x1cnf 1_2 1\n1 0\n", 1, "malformed header counts: '1_2'"),
]


@pytest.mark.parametrize("text,line_no,needle", MALFORMED)
def test_parse_errors_carry_line_numbers(text, line_no, needle):
    with pytest.raises(ParseError) as exc:
        parse_x1cnf(text)
    assert exc.value.line_no == line_no
    assert needle in str(exc.value)


def test_parse_reads_a_sign_and_ascii_digits_between_any_whitespace():
    # a token is an optional sign then ASCII digits; any whitespace parts them
    text = "p x1cnf 03 1\n+1\u00a0-2\t0\n"
    assert parse_x1cnf(text) == formula(3, [[1, -2]])


def test_parse_refuses_a_long_clause_line_before_converting_it():
    # one clause line of a million literals: the parser splits off no more
    # than a clause can hold, so its peak stays near the size of the text
    text = "p x1cnf 3 1\n" + "1 " * 1_000_000 + "0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"line 2: clause 1: .*\(want 1\.\.3\)"):
            parse_x1cnf(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


# --- the row parser against the token-by-token reference -----------------------


def parse_outcome(parse, text):
    """What a parser makes of ``text``: (n_vars, rows, ids), or the type,
    text and line of the error it raises."""
    try:
        if parse is parse_x1cnf:
            f = parse_x1cnf(text)
            return f.n_vars, f.rows, f.ids
        return reference_parse(text)
    except Exception as e:
        return type(e).__name__, str(e), getattr(e, "line_no", None)


HEADER = "p x1cnf 5 2\n"
PARITY = [text for text, _, _ in MALFORMED] + [
    "c a\n\np x1cnf 3 3\nc b\n1 -3 0\n\n  c c\n1 -2 3 0\n2 -3 0\nc d\n\n",
    "p\tx1cnf\t3\t2\r\n1\t-3 0\r\n\r\n1 -2\t3\t0\r\n",
    "p x1cnf 3 1\r2 3 0\r",
    "p x1cnf 3 1\n" + "1 " * 1_000_000 + "0\n",
    "p x1cnf 3 1\n  1 2   0  \n",
    HEADER + "+5 -4 0\n1 2 -0\n",
    HEADER + "007 -004 0\n3 0\n",
    HEADER + "1_0 2 0\n3 0\n",
    HEADER + "\u0663 2 0\n3 0\n",
    "p x1cnf 5 1\nc \u00e9\n1 -2 0\n",
    "p x1cnf 5 1\n1\u00a0-2 0\n",
    HEADER + "1 " + "7" * 5_000_000 + " 0\n3 0\n",
    HEADER + "1 " + "x" * 5_000_000 + " 0\n3 0\n",
    HEADER + "-" + "9" * 40 + " 0\n3 0\n",
    HEADER + "1 2 3 4 0\n3 0\n",
    HEADER + "1 2 3 4 5 6 7 0\n3 0\n",
    HEADER + "1 2 3 4\n3 0\n",
    HEADER + "1 2\n3 0\n",
    HEADER + "0\n3 0\n",
    HEADER + "-0\n3 0\n",
    HEADER + "3 0\n",
    HEADER + "1 0\n2 0\n3 0\n",
    HEADER + "1 -1 2 0\n3 -3 0\n",
    HEADER + "1 0 2 0\n3 0\n",
    HEADER + "1 -0 0\n3 0\n",
    HEADER + "2 -2 2 0\n3 0\n",
    "p x1cnf 5 0\n",
    "p x1cnf 0 0\n",
    "c only a comment\n",
    "",
    "p x1cnf 1000001 0\n",
    "p x1cnf -1 0\n",
    "p x1cnf 3 1 9\n1 0\n",
    "p x1cnf\n1 0\n",
    # two faults of different kinds: the earlier line wins, and a variable
    # out of range or a wrong clause count loses to any fault of a line
    HEADER + "1 9 0\n2 2 0\n",
    HEADER + "2 2 0\n1 x 0\n",
    HEADER + "1 x 0\n2 2 0\n",
    HEADER + "1 9 0\n1 x 0\n",
    HEADER + "1 2 0\n3 0 4 0\n1 2 3 4 5 0\n",
    HEADER + "1 9 0\n",
    HEADER + "1 9 0\n2 0\n3 0\n",
    HEADER + "1 1 0\n2 0\n3 0\n",
    HEADER + "c x\n1 2 0\n1 9 0\n\n1 -9 0\n",
    HEADER + "1 2 0\n1 9\n",
    "p x1cnf 1_0 1\n1 1 0\n",
    HEADER + "1 0\np x1cnf 5 2\n",
]


@pytest.mark.parametrize("text", PARITY, ids=range(len(PARITY)))
def test_parser_matches_the_token_by_token_reference(text):
    assert parse_outcome(parse_x1cnf, text) == parse_outcome(reference_parse, text)


TOKENS = ["p", "x1cnf", "c", "0", "0", "0", "1", "-1", "2", "-2", "3", "+3", "-0", "007",
          "1_0", "\u0663", "x", "4", "-5", "9"]
LINES = st.one_of(
    st.just("p x1cnf 5 3"),
    st.lists(st.sampled_from(TOKENS), max_size=6).flatmap(
        lambda toks: st.lists(st.sampled_from([" ", "\t", "  ", "\u00a0"]),
                              min_size=len(toks) + 1, max_size=len(toks) + 1).map(
            lambda gaps: "".join(g + t for g, t in zip(gaps, toks + [""])))
    ),
)
TEXTS = st.tuples(
    st.lists(LINES, max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
).map(lambda t: t[1].join(t[0]))


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_parser_matches_the_reference_on_drawn_text(text):
    assert parse_outcome(parse_x1cnf, text) == parse_outcome(reference_parse, text)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-n - 1, n + 1), min_size=0, max_size=5),
                       max_size=6).map(lambda rows: (n, rows))))
def test_parser_matches_the_reference_on_drawn_clause_lines(case):
    n, rows = case
    text = f"p x1cnf {n} {len(rows)}\n" + "".join(
        " ".join(map(str, row + [0])) + "\n" for row in rows)
    assert parse_outcome(parse_x1cnf, text) == parse_outcome(reference_parse, text)


def literals(n):
    return st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))


def clauses(n):
    return st.lists(literals(n), min_size=1, max_size=3, unique=True)


formulas = st.integers(1, 5).flatmap(
    lambda n: st.builds(formula, st.just(n), st.lists(clauses(n), max_size=6))
)


@given(formulas)
def test_roundtrip_any_formula(f):
    assert parse_x1cnf(emit_x1cnf(f)) == f


@given(formulas)
def test_emit_is_deterministic(f):
    assert emit_x1cnf(f) == emit_x1cnf(f)


# --- evaluation --------------------------------------------------------------


def test_evaluate_golden_all_false_is_model():
    assert failed_clauses(GOLDEN, [-1, -2, -3]) == []


def test_evaluate_rejects_two_true_literals():
    # clause 1 gets both x1 and -x3 true, clause 2 both x1 and -x2
    assert failed_clauses(GOLDEN, [1, -2, -3]) == [1, 2]


def test_evaluate_incomplete_assignment():
    with pytest.raises(IncompleteAssignmentError) as exc:
        failed_clauses(GOLDEN, [-1, -2])
    assert "variable 3" in str(exc.value)
    assert "clause 1" in str(exc.value)


# --- special clauses and conversion ------------------------------------------


def test_general_formula_has_no_witnesses():
    assert GOLDEN.special == ()


def test_special_witnesses_listed_in_clause_order():
    f = formula(3, [[1, -3], [2, -2, 3], [3, -3]])
    assert f.special == ((2, 2), (3, 3))


def test_convert_three_literal_special_clause():
    f = formula(4, [[1, -3, 4], [1, -2, 2], [2, -3]])
    conv = convert_special(f)
    assert conv.forced == (-1,)
    assert conv.removed_clauses == (2,)
    assert [(c.id, c.lits) for c in conv.formula.clauses] == [
        (1, (-3, 4)), (3, (2, -3)), (4, (-1,))
    ]
    assert conv.formula.special == ()


def test_convert_contradictory_forcings_unsat():
    f = formula(3, [[1, 2, -2], [-1, 3, -3]])
    assert convert_special(f) == Conversion(None, (), (), 1)


def test_convert_emptied_clause_unsat():
    f = formula(2, [[-1], [-1, 2, -2]])
    assert convert_special(f) == Conversion(None, (), (), 1)


def test_conversion_trace_entry():
    # a general input has no entry; a special one lists what the rewrite did
    assert convert_special(GOLDEN).trace_entry() is None
    assert convert_special(formula(2, [[2, 1, -1], [2, -1]])).trace_entry() == {
        "forced": [-2], "removed_clauses": [1], "contradiction_var": None
    }
    assert convert_special(formula(2, [[-1], [-1, 2, -2]])).trace_entry() == {
        "forced": [], "removed_clauses": [], "contradiction_var": 1
    }


def test_convert_pure_pair_clause_dropped():
    f = formula(2, [[1, -1], [2]])
    conv = convert_special(f)
    assert conv.forced == ()
    assert conv.removed_clauses == (1,)
    assert [c.lits for c in conv.formula.clauses] == [(2,)]


def test_convert_numbers_units_past_the_last_clause_id():
    # with a gap in the ids, the unit for -2 must not take id 3 from a kept clause
    f = Formula(4, ((2, 1, -1), (2, 3, 4)), (1, 3))
    conv = convert_special(f)
    assert [(c.id, c.lits) for c in conv.formula.clauses] == [(3, (3, 4)), (4, (-2,))]
    assert target_reachable(build_inverse_net(conv.formula), DEFAULT_STATE_BUDGET)
    assert scan(f).status == "sat"


def test_convert_cascade_pair_drop():
    # deleting x1 from clause 3 leaves a bare complementary pair, itself a tautology
    f = formula(3, [[1, 2, -2], [3], [1, 3, -3]])
    conv = convert_special(f)
    assert conv.forced == (-1,)
    assert conv.removed_clauses == (1, 3)
    assert [(c.id, c.lits) for c in conv.formula.clauses] == [(2, (3,)), (4, (-1,))]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, -3, 4], [1, -2, 2], [2, -3]],
        [[1, -1], [2]],
        [[1, 2, -2], [3], [1, 3, -3]],
        [[2, 1, -1], [2, 3]],
        [[3, 2, -2], [-3, 1]],
    ],
)
def test_conversion_preserves_satisfiability(rows):
    n = max(abs(l) for row in rows for l in row)
    f = formula(n, rows)
    assert (brute_force_sat(f) is None) == (brute_force_sat(convert_special(f).formula) is None)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, -2], [-1, 3, -3]],
        [[-1], [-1, 2, -2]],
    ],
)
def test_conversion_unsat_cases_really_unsat(rows):
    n = max(abs(l) for row in rows for l in row)
    conv = convert_special(formula(n, rows))
    assert conv.formula is None and conv.contradiction_var is not None
    assert brute_force_sat(formula(n, rows)) is None


# --- the one-pass rewrite against the restarting reference --------------------


def test_convert_matches_reference_on_exhaustive_special_corpus():
    checked = 0
    for f in exhaustive_special(4, 2):
        assert convert_special(f) == reference_convert_special(f)
        checked += 1
    assert checked == 2226


def special_formulas(max_n=10, max_m=12):
    def build(n):
        lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
        clause = st.lists(lit, min_size=1, max_size=3, unique=True)
        # {x, -x} or {z, x, -x}, in any literal order
        special = st.tuples(st.integers(1, n), lit).map(
            lambda t: [t[0], -t[0]] + ([t[1]] if abs(t[1]) != t[0] else [])
        ).flatmap(st.permutations)
        rows = st.lists(st.one_of(clause, special), min_size=1, max_size=max_m)
        return rows.filter(lambda rs: any(-l in r for r in rs for l in r)).map(
            lambda rs: formula(n, rs)
        )

    return st.integers(1, max_n).flatmap(build)


@settings(max_examples=300, deadline=None)
@given(special_formulas())
def test_convert_matches_reference_on_special_formulas(f):
    assert f.special
    assert convert_special(f) == reference_convert_special(f)
