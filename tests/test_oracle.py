import pytest
from hypothesis import given
from hypothesis import strategies as st

from bddhc.core import (
    LEAF_FALSE,
    LEAF_TRUE,
    ArityMismatch,
    Const,
    Not,
    Ref,
    VarOutOfRange,
    Xor,
)
from bddhc import frontend, interned, oracle, pure
from bddhc.oracle import TruthTable, assignment_for

from util import ascending_chain_store, formulas


def test_assignment_encoding_is_little_endian():
    assert assignment_for(0, 2) == {1: False, 2: False}
    assert assignment_for(1, 2) == {1: True, 2: False}
    assert assignment_for(2, 2) == {1: False, 2: True}
    assert assignment_for(3, 2) == {1: True, 2: True}


def test_xor_table():
    tt = oracle.formula_truth_table(Xor(Ref(1), Ref(2)), 2)
    assert [tt.value(k) for k in range(4)] == [False, True, True, False]
    assert tt.to_hex() == "6"


def test_constant_table_zero_vars():
    tt = oracle.formula_truth_table(Const(True), 0)
    assert len(tt) == 1 and tt.value(0) is True
    assert tt.to_hex() == "1"


def test_two_var_function_equals_not_x2():
    # f(0,0)=T, f(0,1)=F, f(1,0)=T, f(1,1)=F, arguments being (x1, x2)
    by_hand = TruthTable(2, 0b0011)
    assert by_hand.value(0) and by_hand.value(1)
    assert not by_hand.value(2) and not by_hand.value(3)
    assert oracle.tables_equal(by_hand, oracle.formula_truth_table(Not(Ref(2)), 2))


def test_formula_var_out_of_range():
    with pytest.raises(VarOutOfRange):
        oracle.formula_truth_table(Ref(3), 2)
    with pytest.raises(VarOutOfRange):
        oracle.formula_truth_table(Const(True), oracle.MAX_VARS + 1)
    with pytest.raises(VarOutOfRange):
        oracle.formula_truth_table(Const(True), -1)


def test_bdd_table_of_leaf():
    st0 = pure.empty_store()
    tt = oracle.bdd_truth_table(LEAF_FALSE, 2, store=st0)
    assert tt.bits == 0 and tt.n == 2


def test_bdd_table_of_single_node():
    st0 = pure.empty_store()
    ref, st1 = pure.mk_node(st0, LEAF_TRUE, 2, LEAF_FALSE)
    got = oracle.bdd_truth_table(ref, 2, store=st1)
    want = oracle.formula_truth_table(Not(Ref(2)), 2)
    assert oracle.tables_equal(got, want)


def test_bdd_table_of_handle(manager):
    h = manager.node(2, manager.true, manager.false)
    got = oracle.bdd_truth_table(h, 2)
    assert oracle.tables_equal(got, oracle.formula_truth_table(Not(Ref(2)), 2))


def test_bdd_table_ascending_chain():
    st = ascending_chain_store()
    tt = oracle.bdd_truth_table(1, 3, store=st)
    # only the all-ones path reaches T
    assert tt.bits == 1 << 7


def test_tables_equal():
    a = TruthTable(1, 0b01)
    assert oracle.tables_equal(a, TruthTable(1, 0b01))
    assert not oracle.tables_equal(a, TruthTable(1, 0b10))
    with pytest.raises(ArityMismatch):
        oracle.tables_equal(a, TruthTable(2, 0))


@given(st.integers(0, 2**8 - 1))
def test_tables_equal_reflexive(bits):
    tt = TruthTable(3, bits)
    assert oracle.tables_equal(tt, tt)


def test_hex_round_trip():
    tt = oracle.formula_truth_table(frontend.parse("x1 & !x2 | x3"), 3)
    assert oracle.tables_equal(TruthTable.from_hex(3, tt.to_hex()), tt)


GOLDEN_HEX = [
    ("x1", 1, "2"),
    ("!x1", 1, "1"),
    ("x1 & x2", 2, "8"),
    ("x1 | x2", 2, "e"),
    ("x1 ^ x2", 2, "6"),
    ("1", 2, "f"),
    ("0", 2, "0"),
    ("x1 & !x2", 2, "2"),
    ("(x1 | x2) & x3", 3, "e0"),
    ("x1 ^ x2 ^ x3", 3, "96"),
]


@pytest.mark.parametrize("text,n,hexstr", GOLDEN_HEX)
def test_golden_tables(text, n, hexstr):
    assert oracle.formula_truth_table(frontend.parse(text), n).to_hex() == hexstr


def test_table_bounds():
    with pytest.raises(ValueError):
        TruthTable(1, 0b100)
    with pytest.raises(IndexError):
        TruthTable(1, 0b01).value(2)


@given(formulas(max_var=4, max_leaves=12))
def test_compiled_bdds_match_formula_tables(f):
    n = 4
    want = oracle.formula_truth_table(f, n)
    st0 = pure.empty_store()
    ref, st1 = frontend.compile_pure(f, st0)
    assert oracle.tables_equal(oracle.bdd_truth_table(ref, n, store=st1), want)
    m = interned.new_manager()
    h = frontend.compile_interned(f, m)
    assert oracle.tables_equal(oracle.bdd_truth_table(h, n), want)
