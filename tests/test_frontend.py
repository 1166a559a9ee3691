import random
import re

import pytest
from hypothesis import given

from bddhc.core import (
    LEAF_FALSE,
    LEAF_TRUE,
    MAX_VAR,
    And,
    Const,
    Node,
    Not,
    Or,
    Ref,
    VarOutOfRange,
    Xor,
    formula_max_var,
    formula_size,
)
from bddhc import frontend, interned, oracle, pure
from bddhc.frontend import ParseError, VarIndexZero, parse
from util import DEEP_FORMULAS, formulas


# -- parsing ------------------------------------------------------------


def test_parse_and_not():
    assert parse("x1 & !x2") == And(Ref(1), Not(Ref(2)))


def test_parse_precedence_xor_over_or():
    assert parse("x1 ^ x2 | x3") == Or(Xor(Ref(1), Ref(2)), Ref(3))


def test_parse_full_precedence_ladder():
    got = parse("!x1 & x2 ^ x3 | x4")
    assert got == Or(Xor(And(Not(Ref(1)), Ref(2)), Ref(3)), Ref(4))


def test_parse_left_associative():
    assert parse("x1 | x2 | x3") == Or(Or(Ref(1), Ref(2)), Ref(3))
    assert parse("x1 ^ x2 ^ x3") == Xor(Xor(Ref(1), Ref(2)), Ref(3))


def test_parse_parens_and_constants():
    assert parse("(x1 | 0) & 1") == And(Or(Ref(1), Const(False)), Const(True))
    assert parse("!!x7") == Not(Not(Ref(7)))
    assert parse("x12") == Ref(12)


def test_parse_comments_and_whitespace():
    text = "# heading\n x1 &  # inline\n x2\n"
    assert parse(text) == And(Ref(1), Ref(2))


def test_parse_dangling_operator():
    with pytest.raises(ParseError) as exc:
        parse("x1 &")
    assert exc.value.line == 1 and exc.value.column == 5


def test_parse_var_index_zero():
    with pytest.raises(VarIndexZero) as exc:
        parse("x1 & x0")
    assert exc.value.column == 6


def test_parse_var_index_up_to_max_var():
    assert parse(f"x1 & x{MAX_VAR}") == And(Ref(1), Ref(MAX_VAR))
    for index in (MAX_VAR + 1, "9" * 5000):
        with pytest.raises(ParseError) as exc:
            parse(f"x1 & x{index}")
        assert type(exc.value) is ParseError
        assert exc.value.column == 6
        assert str(exc.value).endswith(f"too large; the largest is x{MAX_VAR}")


def test_parse_bare_x():
    with pytest.raises(ParseError):
        parse("x & x1")


def test_parse_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse("x1 %")
    assert exc.value.column == 4


def test_parse_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("(x1 | x2")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse("x1 x2")


def test_parse_empty():
    with pytest.raises(ParseError):
        parse("   # only a comment\n")


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse("x1 &\n x2 &\n")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("x1 & x\u00b2", 1, 6),  # superscript two: isdigit() but not int()
        ("x\u0661", 1, 1),  # Arabic-Indic one: int() would read it as 1
        ("x1 &\n x" + "1" * 5000, 2, 2),  # beyond int()'s digit limit
    ],
    ids=["superscript", "arabic-indic", "5000-digits"],
)
def test_parse_rejects_non_ascii_and_overlong_indices(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_parse_non_ascii_digit_after_index():
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse("x1\u0661")
    assert exc.value.column == 3


def test_parse_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# file comment\nx1 ^ x2\n", encoding="utf-8")
    assert frontend.parse_file(path) == Xor(Ref(1), Ref(2))


# -- formatting ----------------------------------------------------------


def test_format_examples():
    assert frontend.format_formula(parse("x1 & !x2")) == "x1 & !x2"
    assert frontend.format_formula(Or(Ref(1), Or(Ref(2), Ref(3)))) == "x1 | (x2 | x3)"
    assert frontend.format_formula(Not(And(Ref(1), Ref(2)))) == "!(x1 & x2)"
    assert frontend.format_formula(And(Or(Ref(1), Ref(2)), Ref(3))) == "(x1 | x2) & x3"
    assert frontend.format_formula(Const(True)) == "1"


@given(formulas(max_var=9, max_leaves=20))
def test_format_parse_round_trip(f):
    assert parse(frontend.format_formula(f)) == f


# text prefix, AST size and largest variable of each deep formula
DEEP = {
    "not10000": ("!" * 10_000 + "x1", 10_001, 1),
    "groups2000": ("1 & (" * 2000 + "x1 | !x1" + ")" * 2000, 2 * 2000 + 4, 1),
    "or5000": ("x1 | x2 | x3 | x4 | x1 | x2", 9999, 4),
    "xor5000": ("x1 ^ x2 ^ x3 ^ x4 ^ x1 ^ x2", 9999, 4),
}


def _chain_repr(name, terms):
    right = "".join(f", right=Ref(var={i % 4 + 1}))" for i in range(1, terms))
    return f"{name}(left=" * (terms - 1) + "Ref(var=1)" + right


DEEP_REPR = {
    "not10000": "Not(arg=" * 10_000 + "Ref(var=1)" + ")" * 10_000,
    "groups2000": "And(left=Const(value=True), right=" * 2000
    + "Or(left=Ref(var=1), right=Not(arg=Ref(var=1)))"
    + ")" * 2000,
    "or5000": _chain_repr("Or", 5000),
    "xor5000": _chain_repr("Xor", 5000),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_formula_round_trip_and_measures(name):
    prefix, size, max_var = DEEP[name]
    f = DEEP_FORMULAS[name]()
    text = frontend.format_formula(f)
    assert text.startswith(prefix)
    g = parse(text)
    assert g == f and not g != f
    assert hash(g) == hash(f)
    assert repr(g) == repr(f) == DEEP_REPR[name]
    assert formula_size(f) == size
    assert formula_max_var(f) == max_var


def test_formula_repr_equality_and_hash():
    # ``repr`` text as the dataclass-generated method printed it
    assert repr(Not(Ref(1))) == "Not(arg=Ref(var=1))"
    assert repr(Xor(Ref(3), Const(0))) == "Xor(left=Ref(var=3), right=Const(value=0))"
    assert repr(And(Or(Ref(1), Const(True)), Not(Ref(2)))) == (
        "And(left=Or(left=Ref(var=1), right=Const(value=True)), "
        "right=Not(arg=Ref(var=2)))"
    )
    assert Const(1) == Const(True) and hash(Const(1)) == hash(Const(True))
    assert And(Ref(1), Ref(2)) != Or(Ref(1), Ref(2))
    assert Not(Ref(1)) != Not(Ref(2)) and Not(Ref(1)) != Ref(1)
    assert Ref(1).__eq__(1) is NotImplemented and Ref(1) != 1


# -- compilation -----------------------------------------------------------


def test_compile_constants():
    st0 = pure.empty_store()
    ref, st1 = frontend.compile_pure(Const(True), st0)
    assert ref is LEAF_TRUE and st1 is st0
    m = interned.new_manager()
    assert frontend.compile_interned(Const(False), m) is m.false
    assert m.pool_size() == 2


def test_compile_not_x2_is_single_node():
    m = interned.new_manager()
    h = frontend.compile_interned(Not(Ref(2)), m)
    assert h.var == 2
    assert h.low is m.true and h.high is m.false

    st = pure.empty_store()
    ref, st = frontend.compile_pure(Not(Ref(2)), st)
    assert st.graph[ref] == Node(LEAF_TRUE, 2, LEAF_FALSE)


@pytest.mark.parametrize(
    "bad, leaf", [(And(Ref(1), "junk"), "junk"), (Not(None), None), (7, 7)]
)
def test_compile_rejects_non_formulas(bad, leaf):
    message = re.escape(f"not a formula: {leaf!r}")
    with pytest.raises(TypeError, match=message):
        frontend.compile_pure(bad, pure.empty_store())
    with pytest.raises(TypeError, match=message):
        frontend.compile_interned(bad, interned.new_manager())
    with pytest.raises(TypeError, match=message):
        frontend.format_formula(bad)


def _with_var_zero():
    """A formula whose third variable reads 0, which ``Ref`` refuses to
    build, after two variables and a connective that allocate."""
    bad = Ref(3)
    object.__setattr__(bad, "var", 0)
    return Or(And(Ref(1), Not(Ref(2))), Xor(bad, Ref(4)))


def test_compile_checks_each_variable_on_every_engine(kernel):
    message = "variable index must be a positive integer, got 0"
    _, st = frontend.compile_pure(parse("x2 | x5 & !x4"), pure.empty_store())
    text, stats = pure.store_to_text(st), pure.store_stats(st)
    with pytest.raises(VarOutOfRange) as info:
        frontend.compile_pure(_with_var_zero(), st)
    assert str(info.value) == message
    # the whole formula is rewound: the input is still the newest version
    assert len(st.shared.cells) == st.count
    assert (pure.store_to_text(st), pure.store_stats(st)) == (text, stats)
    with pytest.raises(VarOutOfRange) as info:
        frontend.compile_interned(_with_var_zero(), interned.new_manager(kernel))
    assert str(info.value) == message


def test_compile_cnf_equals_conjunction():
    text = "(x1|x2) & (x1|!x2) & (!x1|x2)"
    st = pure.empty_store()
    a, st = frontend.compile_pure(parse(text), st)
    b, st = frontend.compile_pure(parse("x1 & x2"), st)
    assert pure.eq(a, b)
    m = interned.new_manager()
    ha = frontend.compile_interned(parse(text), m)
    hb = frontend.compile_interned(parse("x1 & x2"), m)
    assert m.structural_eq(ha, hb)


@given(formulas(max_var=9, max_leaves=20))
def test_compile_round_trip_against_oracle(f):
    n = max(1, formula_max_var(f))
    if n > 9:
        return
    want = oracle.formula_truth_table(f, n)
    st0 = pure.empty_store()
    ref, st1 = frontend.compile_pure(f, st0)
    assert oracle.tables_equal(oracle.bdd_truth_table(ref, n, pure.expander(st1)), want)
    assert pure.validate_store(st1).ok


def test_compilation_respects_ordering():
    rng = random.Random(2)
    for _ in range(20):
        f = frontend.random_formula(rng, max_var=6, max_depth=6)
        st = pure.empty_store()
        _, st = frontend.compile_pure(f, st)
        assert pure.validate_store(st).ok


# -- generators --------------------------------------------------------------


def test_queens_variable_numbering():
    assert frontend.queens_var(4, 1, 1) == 1
    assert frontend.queens_var(4, 2, 1) == 5
    assert frontend.queens_var(4, 4, 4) == 16


def test_queens_brute_force_counts():
    assert [frontend.queens_solution_count(n) for n in range(1, 7)] == [
        1, 0, 0, 2, 10, 4,
    ]


def test_queens_models_match_brute_force():
    for n in (1, 2, 3, 4, 5):
        f = frontend.queens_formula(n)
        m = interned.new_manager()
        h = frontend.compile_interned(f, m)
        from bddhc.cli import count_models

        assert count_models(h, n * n) == frontend.queens_solution_count(n)


def test_pigeonhole_is_unsat():
    for holes in (1, 2, 3):
        f = frontend.pigeonhole_formula(holes)
        m = interned.new_manager()
        assert frontend.compile_interned(f, m) is m.false
        st = pure.empty_store()
        ref, st = frontend.compile_pure(f, st)
        assert ref is LEAF_FALSE


def test_generators_reject_bad_sizes():
    with pytest.raises(ValueError):
        frontend.queens_formula(0)
    with pytest.raises(ValueError):
        frontend.pigeonhole_formula(0)


def test_random_formula_determinism_and_bounds():
    a = [frontend.random_formula(random.Random(99), 5, 7) for _ in range(20)]
    b = [frontend.random_formula(random.Random(99), 5, 7) for _ in range(20)]
    assert a == b
    for f in a:
        assert formula_max_var(f) <= 5


def test_random_equivalent_preserves_semantics():
    rng = random.Random(15)
    for _ in range(60):
        f = frontend.random_formula(rng, max_var=4, max_depth=5)
        g = frontend.random_equivalent(rng, f)
        assert g != f or True  # may rarely coincide; semantics is what matters
        assert oracle.tables_equal(
            oracle.formula_truth_table(f, 4), oracle.formula_truth_table(g, 4)
        )
