import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    ValidationReport,
    VarOutOfRange,
    Xor,
    check_var,
    eval_formula,
    formula_max_var,
    formula_size,
    postorder,
    var,
)


refs = st.one_of(st.sampled_from([LEAF_TRUE, LEAF_FALSE]), st.integers(1, 6))


@given(refs, refs, refs)
def test_ref_equality_is_equivalence(a, b, c):
    assert a == a
    assert (a == b) == (b == a)
    if a == b and b == c:
        assert a == c


def test_leaf_truthiness():
    assert bool(LEAF_TRUE) and not bool(LEAF_FALSE)


@pytest.mark.parametrize("bad", [0, -1, True, "x", 1.5, None])
def test_check_var_rejects(bad):
    with pytest.raises(VarOutOfRange):
        check_var(bad)


def test_node_is_a_triple():
    n = Node(LEAF_FALSE, 2, LEAF_TRUE)
    assert n.low is LEAF_FALSE and n.var == 2 and n.high is LEAF_TRUE
    assert n == Node(LEAF_FALSE, 2, LEAF_TRUE)
    assert hash(n) == hash(Node(LEAF_FALSE, 2, LEAF_TRUE))


def test_formula_operators():
    f = (var(1) & ~var(2)) | (var(3) ^ Const(True))
    assert f == Or(And(Ref(1), Not(Ref(2))), Xor(Ref(3), Const(True)))


def test_ref_rejects_zero_index():
    with pytest.raises(VarOutOfRange):
        Ref(0)


def test_ref_takes_indices_up_to_max_var():
    assert Ref(MAX_VAR).var == 2**31 - 1
    with pytest.raises(VarOutOfRange):
        Ref(MAX_VAR + 1)
    with pytest.raises(VarOutOfRange):
        Ref(2**40)


def test_eval_formula():
    f = And(Ref(1), Not(Ref(2)))
    assert eval_formula(f, {1: True, 2: False})
    assert not eval_formula(f, {1: True, 2: True})
    assert eval_formula(Xor(Ref(1), Ref(2)), {1: True, 2: False})
    assert eval_formula(Const(True), {})
    assert not eval_formula(Or(Const(False), Const(False)), {})


def test_formula_measures():
    f = And(Ref(1), Not(Ref(7)))
    assert formula_max_var(f) == 7
    assert formula_max_var(Const(True)) == 0
    assert formula_size(f) == 4


def test_postorder_lists_operands_left_to_right_then_the_node():
    a, b = Ref(1), Not(Ref(2))
    f = Xor(And(a, b), Const(True))
    assert postorder(f) == [a, Ref(2), b, And(a, b), Const(True), f]
    with pytest.raises(TypeError, match="not a formula: 'x'"):
        postorder(Or(Ref(1), "x"))


def test_validation_report():
    report = ValidationReport()
    assert report.ok
    assert str(report) == "ok"
    report.add("reduced", "node 1 has equal branches")
    assert not report.ok
    assert report.codes() == {"reduced"}
    assert "node 1" in str(report)
