import gc
import random
import sys
import threading

import pytest

from bddhc.core import (
    LEAF_FALSE,
    LEAF_TRUE,
    BddError,
    CorruptStore,
    DanglingRef,
    InvalidChild,
    Node,
    OrderViolation,
    VarOutOfRange,
)
from bddhc import _engine, frontend, graph, oracle, pure

from util import gen_trace, ascending_chain_store, play_pure


# -- construction -----------------------------------------------------


def test_empty_store():
    st = pure.empty_store()
    assert st.next == 1
    assert len(st.graph) == 0
    assert len(st.hmap) == 0
    assert len(st.memo.mand) == 0
    assert len(st.memo.mneg) == 0
    assert pure.validate_store(st).ok
    assert graph.size(LEAF_TRUE, pure.expander(st)) == 1


def test_mk_node_collapses_equal_branches():
    st = pure.empty_store()
    ref, st2 = pure.mk_node(st, LEAF_TRUE, 2, LEAF_TRUE)
    assert ref is LEAF_TRUE
    assert st2 is st


def test_reduction_cannot_be_switched_off():
    assert pure.Store._fields == ("shared", "count", "next")
    with pytest.raises(TypeError):
        pure.empty_store(reduce_nodes=False)
    with pytest.raises(TypeError):
        pure.store_from_parts({}, reduce_nodes=False)


def test_hand_built_store_refuses_next_below_one():
    for next_id in (0, -4):
        with pytest.raises(BddError, match=f"^next must be positive, got {next_id}$"):
            pure.store_from_parts({}, next_id=next_id)


def test_hand_built_store_refuses_a_graph_id_past_the_key_domain():
    # refused before the arena is allocated, not by a MemoryError building it
    node = Node(LEAF_FALSE, 1, LEAF_TRUE)
    for node_id in (_engine.ID_LIMIT, 2**40):
        with pytest.raises(
            BddError, match=f"^graph ids must be below {_engine.ID_LIMIT}, got {node_id}$"
        ):
            pure.store_from_parts({node_id: node})


def test_hand_built_store_refuses_next_past_the_key_domain():
    node = Node(LEAF_FALSE, 1, LEAF_TRUE)
    limit = _engine.ID_LIMIT
    with pytest.raises(BddError, match=f"^next must be below {limit}, got {limit}$"):
        pure.store_from_parts({1: node}, next_id=limit)
    # the default next is one past the largest id the hmap names
    with pytest.raises(BddError, match=f"^next must be below {limit}, got {limit}$"):
        pure.store_from_parts({1: node}, hmap={node: limit - 1})


def test_hand_built_store_refuses_a_binary_memo_key_that_is_no_id_pair():
    node = Node(LEAF_FALSE, 1, LEAF_TRUE)
    for key in ((LEAF_TRUE, 1), (1, 0), (-1, 1), (1, True)):
        with pytest.raises(BddError, match=r"^memo key .* is not a pair of node ids$"):
            pure.store_from_parts({1: node}, memo_or={key: LEAF_TRUE})


def test_mk_node_first_allocation():
    st = pure.empty_store()
    ref, st2 = pure.mk_node(st, LEAF_FALSE, 2, LEAF_TRUE)
    assert ref == 1
    assert st2.next == 2
    assert st2.graph[1] == Node(LEAF_FALSE, 2, LEAF_TRUE)
    assert st2.hmap[Node(LEAF_FALSE, 2, LEAF_TRUE)] == 1


def test_mk_node_reuses_existing():
    st = pure.empty_store()
    ref1, st1 = pure.mk_node(st, LEAF_FALSE, 2, LEAF_TRUE)
    ref2, st2 = pure.mk_node(st1, LEAF_FALSE, 2, LEAF_TRUE)
    assert ref2 == ref1 == 1
    assert st2 is st1
    assert len(st2.graph) == 1


def test_mk_node_rejects_dangling_child():
    st = pure.empty_store()
    with pytest.raises(InvalidChild):
        pure.mk_node(st, 1, 2, LEAF_TRUE)


def test_mk_node_rejects_order_violation():
    st = pure.empty_store()
    ref, st = pure.mk_node(st, LEAF_FALSE, 2, LEAF_TRUE)
    with pytest.raises(OrderViolation):
        pure.mk_node(st, ref, 2, LEAF_TRUE)
    with pytest.raises(OrderViolation):
        pure.mk_node(st, LEAF_FALSE, 3, ref)
    with pytest.raises(VarOutOfRange):
        pure.mk_node(st, LEAF_FALSE, 0, LEAF_TRUE)


def test_mk_node_bad_ref_values():
    st = pure.empty_store()
    for bad in (0, -1, True, "x"):
        with pytest.raises(InvalidChild):
            pure.mk_node(st, bad, 2, LEAF_TRUE)


class _Int(int):
    """An int subclass: accepted wherever a plain int is."""


def test_mk_node_int_subclass_and_bool_var():
    st = pure.empty_store()
    ref, st = pure.mk_node(st, LEAF_FALSE, _Int(3), LEAF_TRUE)
    assert ref == 1
    top, st = pure.mk_node(st, _Int(1), 2, LEAF_TRUE)
    assert st.graph[top] == Node(1, 2, LEAF_TRUE)
    with pytest.raises(VarOutOfRange, match="got True"):
        pure.mk_node(st, LEAF_FALSE, True, LEAF_TRUE)
    with pytest.raises(OrderViolation, match="child 1 has variable x3, not below x3"):
        pure.mk_node(st, _Int(1), _Int(3), LEAF_TRUE)


# -- denotation -------------------------------------------------------


def test_denote_leaves():
    st = pure.empty_store()
    assert graph.follow(LEAF_TRUE, pure.expander(st), {}.__getitem__) is True
    assert graph.follow(LEAF_FALSE, pure.expander(st), {1: True}.__getitem__) is False


def test_denote_ascending_chain_all_ones():
    st = ascending_chain_store()
    assert graph.follow(
        1, pure.expander(st), {1: True, 2: True, 3: True}.__getitem__
    ) is True


def test_denote_ascending_chain_x1_low():
    st = ascending_chain_store()
    # the 0-branch of node 1 is F; x2/x3 are never consulted
    assert graph.follow(1, pure.expander(st), {1: False}.__getitem__) is False


def test_denote_dangling():
    st = pure.empty_store()
    with pytest.raises(DanglingRef):
        graph.follow(1, pure.expander(st), {}.__getitem__)


def test_denote_cycle_guard():
    looped = pure.store_from_parts(
        {1: Node(2, 1, 2), 2: Node(1, 2, 1)}, next_id=3
    )
    with pytest.raises(BddError):
        graph.follow(1, pure.expander(looped), {1: True, 2: True}.__getitem__)


# -- negation ---------------------------------------------------------


def test_neg_leaves():
    st = pure.empty_store()
    ref, st2 = pure.neg(st, LEAF_TRUE)
    assert ref is LEAF_FALSE and st2 is st
    ref, _ = pure.neg(st, LEAF_FALSE)
    assert ref is LEAF_TRUE


def test_neg_single_node_matches_oracle():
    st = pure.empty_store()
    ref, st = pure.mk_node(st, LEAF_TRUE, 2, LEAF_FALSE)
    nref, st = pure.neg(st, ref)
    assert st.graph[nref] == Node(LEAF_FALSE, 2, LEAF_TRUE)
    got = oracle.bdd_truth_table(nref, 2, pure.expander(st))
    want = oracle.formula_truth_table(frontend.parse("x2"), 2)
    assert oracle.tables_equal(got, want)


def test_double_negation_returns_same_ref():
    rng = random.Random(11)
    for _ in range(30):
        f = frontend.random_formula(rng, max_var=5, max_depth=6)
        st = pure.empty_store()
        ref, st = frontend.compile_pure(f, st)
        n1, st = pure.neg(st, ref)
        n2, st = pure.neg(st, n1)
        assert pure.eq(n2, ref)


# -- binary operations ------------------------------------------------


def test_apply_identity_elements():
    st = pure.empty_store()
    b, st = pure.mk_node(st, LEAF_FALSE, 3, LEAF_TRUE)
    ref, st2 = pure.apply_binop(st, "and", LEAF_TRUE, b)
    assert ref == b and st2 is st
    ref, st2 = pure.apply_binop(st, "or", LEAF_FALSE, b)
    assert ref == b and st2 is st
    ref, st2 = pure.apply_binop(st, "xor", b, LEAF_FALSE)
    assert ref == b


def test_apply_xor_self_is_false():
    st = pure.empty_store()
    a, st = pure.mk_node(st, LEAF_FALSE, 1, LEAF_TRUE)
    ref, _ = pure.apply_binop(st, "xor", a, a)
    assert ref is LEAF_FALSE


def test_apply_contradiction():
    st = pure.empty_store()
    a, st = pure.mk_node(st, LEAF_FALSE, 1, LEAF_TRUE)
    na, st = pure.neg(st, a)
    ref, _ = pure.apply_binop(st, "and", a, na)
    assert ref is LEAF_FALSE


def test_apply_unknown_op():
    st = pure.empty_store()
    with pytest.raises(ValueError):
        pure.apply_binop(st, "nand", LEAF_TRUE, LEAF_TRUE)


def test_apply_matches_oracle_pointwise():
    rng = random.Random(5)
    for _ in range(40):
        f = frontend.random_formula(rng, max_var=4, max_depth=5)
        g = frontend.random_formula(rng, max_var=4, max_depth=5)
        op = rng.choice(("and", "or", "xor"))
        st = pure.empty_store()
        a, st = frontend.compile_pure(f, st)
        b, st = frontend.compile_pure(g, st)
        r, st = pure.apply_binop(st, op, a, b)
        ta = oracle.bdd_truth_table(a, 4, pure.expander(st))
        tb = oracle.bdd_truth_table(b, 4, pure.expander(st))
        tr = oracle.bdd_truth_table(r, 4, pure.expander(st))
        fn = {"and": lambda x, y: x & y, "or": lambda x, y: x | y,
              "xor": lambda x, y: x ^ y}[op]
        assert tr.bits == fn(ta.bits, tb.bits) & ((1 << 16) - 1)


def test_operations_report_dangling_children():
    # node 2's 0-branch names id 1, which has no graph entry; an operation
    # refuses the store, while ``mk_node`` checks its own arguments first
    st = pure.store_from_parts(
        {2: Node(1, 1, LEAF_TRUE), 3: Node(LEAF_FALSE, 2, LEAF_TRUE)}
    )
    message = r"^node 2 has child 1 with no graph entry$"
    with pytest.raises(CorruptStore, match=message):
        pure.apply_binop(st, "and", 2, 3)
    with pytest.raises(CorruptStore, match=message):
        pure.neg(st, 2)
    with pytest.raises(DanglingRef, match=r"^child id 1 has no graph entry$"):
        pure.mk_node(st, 1, 1, LEAF_TRUE)


# one hand-built store per ``validate_store`` code, with the message of the
# first violation its report lists: that code's own, except that a duplicate
# node always breaks the left inverse too, which is reported first
_CORRUPT_STORES = {
    "validity": (
        {"graph": {1: Node(LEAF_FALSE, 2, LEAF_TRUE), 2: Node(LEAF_FALSE, 1, 9)},
         "next_id": 3},
        "node 2 has child 9 not below next=3",
    ),
    "acyclicity": (
        {"graph": ascending_chain_store().graph},
        "node 1 has child 2, ids must decrease",
    ),
    # node 2 tests x2 but its 1-branch, node 1, tests x1
    "ordered": (
        {"graph": {
            1: Node(LEAF_FALSE, 1, LEAF_TRUE),
            2: Node(LEAF_FALSE, 2, 1),
            3: Node(LEAF_TRUE, 2, LEAF_FALSE),
        }},
        "node 2 (x2) has child 1 labeled x1",
    ),
    "reduced": (
        {"graph": {1: Node(LEAF_FALSE, 2, LEAF_TRUE), 2: Node(LEAF_TRUE, 1, LEAF_TRUE)}},
        "node 2 has equal branches Leaf.TRUE",
    ),
    # the hmap sends (T, x2, F) to node 1, which is (F, x1, T)
    "left-inverse": (
        {
            "graph": {
                1: Node(LEAF_FALSE, 1, LEAF_TRUE),
                2: Node(LEAF_FALSE, 2, LEAF_TRUE),
                3: Node(LEAF_TRUE, 2, LEAF_FALSE),
            },
            "hmap": {
                Node(LEAF_FALSE, 1, LEAF_TRUE): 1,
                Node(LEAF_FALSE, 2, LEAF_TRUE): 2,
                Node(LEAF_TRUE, 2, LEAF_FALSE): 1,
            },
        },
        "graph has 3 -> Node(low=Leaf.TRUE, var=2, high=Leaf.FALSE), "
        "but hmap maps that node to 1",
    ),
    "no-duplicates": (
        {"graph": {1: Node(LEAF_FALSE, 1, LEAF_TRUE), 2: Node(LEAF_FALSE, 1, LEAF_TRUE)}},
        "graph has 1 -> Node(low=Leaf.FALSE, var=1, high=Leaf.TRUE), "
        "but hmap maps that node to 2",
    ),
    # the cached complement of node 3 is id 2, whose slot is empty
    "memo-domain": (
        {
            "graph": {1: Node(LEAF_FALSE, 1, LEAF_TRUE), 3: Node(LEAF_FALSE, 2, LEAF_TRUE)},
            "memo_neg": {3: 2},
            "next_id": 4,
        },
        "mneg[3] = 2 references unknown id",
    ),
}

# one call of each operation, with arguments that pass its own checks on
# every store above
_OPERATIONS = {
    "mk_node": lambda st: pure.mk_node(st, LEAF_FALSE, 9, LEAF_TRUE),
    "neg": lambda st: pure.neg(st, 1),
    "apply_binop": lambda st: pure.apply_binop(st, "and", 1, LEAF_TRUE),
}


@pytest.mark.parametrize("op", ["or", "xor"])
def test_apply_reports_order_violation_from_mk_node(op):
    # the order violation that ``mk_node`` used to meet partway through the
    # recursion is now found when the store is checked, before any node is
    # made, and the input version is left as it was
    parts, message = _CORRUPT_STORES["ordered"]
    st = pure.store_from_parts(**parts)
    count = len(st.shared.cells)
    with pytest.raises(CorruptStore) as info:
        pure.apply_binop(st, op, 2, 3)
    assert str(info.value) == message
    assert len(st.shared.cells) == count


def test_neg_refuses_a_store_whose_hmap_is_not_a_left_inverse():
    # the complement of node 2 is (T, x2, F): trusting the hmap gave node 1,
    # which is x1
    parts, message = _CORRUPT_STORES["left-inverse"]
    with pytest.raises(CorruptStore) as info:
        pure.neg(pure.store_from_parts(**parts), 2)
    assert str(info.value) == message


def test_neg_refuses_a_memo_value_that_names_an_empty_slot():
    # trusting the memo table gave id 2, which the store does not hold
    parts, message = _CORRUPT_STORES["memo-domain"]
    with pytest.raises(CorruptStore) as info:
        pure.neg(pure.store_from_parts(**parts), 3)
    assert str(info.value) == message


@pytest.mark.parametrize("code", sorted(_CORRUPT_STORES))
def test_copies_of_a_corrupt_store_refuse_alike(code):
    parts, message = _CORRUPT_STORES[code]
    st = pure.store_from_parts(**parts)
    report = pure.validate_store(st)
    assert code in report.codes()
    assert report.violations[0].message == message
    # an older version of the arena, which sees only node 1, and a clone
    older = st._replace(count=1, next=2)
    assert len(older.shared.cells) > older.count
    for copy in (older, pure.clear_memo(st)):
        for run in _OPERATIONS.values():
            with pytest.raises(CorruptStore) as info:
                run(copy)
            assert str(info.value) == message


# operands are checked on entry, before any leaf rule or memo lookup, as
# ``mk_node`` checks its children
_BAD_OPERANDS = {
    "neg-str": ("not", ("nope",), InvalidChild, "not a node reference: 'nope'"),
    "neg-bool": ("not", (True,), InvalidChild, "not a node reference: True"),
    "neg-none": ("not", (None,), InvalidChild, "not a node reference: None"),
    "and-str": (
        "and", ("nope", LEAF_TRUE), InvalidChild, "not a node reference: 'nope'"
    ),
    "or-float": (
        "or", (LEAF_FALSE, 2.0), InvalidChild, "not a node reference: 2.0"
    ),
    "xor-bool": (
        "xor", (LEAF_TRUE, False), InvalidChild, "not a node reference: False"
    ),
    "and-dangling-pair": (
        "and", (99, 99), DanglingRef, "node id 99 has no graph entry"
    ),
    "xor-dangling": (
        "xor", (7, LEAF_FALSE), DanglingRef, "node id 7 has no graph entry"
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_OPERANDS))
def test_operations_check_their_operands(case):
    op, args, exc, message = _BAD_OPERANDS[case]
    st = pure.empty_store()
    with pytest.raises(exc) as info:
        pure.neg(st, *args) if op == "not" else pure.apply_binop(st, op, *args)
    assert str(info.value) == message


class _AllocFault(Exception):
    """The fault ``_second_alloc_fails`` injects."""


def _second_alloc_fails(operation):
    """``operation`` with the engine's constructor failing right after its
    second allocation, once the operation's low branch has allocated a
    node in the arena."""

    def run(st):
        mk = _engine.mk
        calls = []

        def failing_mk(sh, low, var, high):
            made = mk(sh, low, var, high)
            calls.append(made)
            if len(sh.cells) == st.count + 2:
                assert made == st.count + 2
                assert st.count + 1 in calls[:-1]
                raise _AllocFault("second allocation")
            return made

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_engine, "mk", failing_mk)
            return operation(st)

    return run


# an operation that fails partway through a valid store, and one on each
# corrupt store, which is refused upfront
_FAILING_OPERATIONS = {
    # 4 = (x3, x2, !x4) and 5 = (x4, x2, x3): the low branch makes (F, x3, x4)
    "interrupted-and": (
        {"graph": {
            1: Node(LEAF_FALSE, 3, LEAF_TRUE),
            2: Node(LEAF_FALSE, 4, LEAF_TRUE),
            3: Node(LEAF_TRUE, 4, LEAF_FALSE),
            4: Node(1, 2, 3),
            5: Node(2, 2, 1),
        }},
        _second_alloc_fails(lambda st: pure.apply_binop(st, "and", 4, 5)),
        _AllocFault,
        "second allocation",
    ),
    # 4 = (x3, x2, id 3): the low branch makes !x3
    "interrupted-neg": (
        {"graph": {
            1: Node(LEAF_FALSE, 3, LEAF_TRUE),
            2: Node(LEAF_FALSE, 4, LEAF_TRUE),
            3: Node(LEAF_FALSE, 3, 2),
            4: Node(1, 2, 3),
        }},
        _second_alloc_fails(lambda st: pure.neg(st, 4)),
        _AllocFault,
        "second allocation",
    ),
    # corrupt stores whose defect lies under the operation's high branch
    # 4 = (x3, x2, id 3), and id 3 has no graph entry
    "dangling": (
        {"graph": {
            1: Node(LEAF_FALSE, 3, LEAF_TRUE),
            2: Node(LEAF_FALSE, 4, LEAF_TRUE),
            4: Node(1, 2, 3),
            5: Node(2, 2, 1),
        }},
        lambda st: pure.apply_binop(st, "and", 4, 5),
        CorruptStore,
        "node 4 has child 3 with no graph entry",
    ),
    # 4 = (x3, x2, id 3), and id 3 tests x3 above its 1-branch on x1
    "order": (
        {"graph": {
            1: Node(LEAF_FALSE, 3, LEAF_TRUE),
            2: Node(LEAF_FALSE, 1, LEAF_TRUE),
            3: Node(LEAF_FALSE, 3, 2),
            4: Node(1, 2, 3),
        }},
        lambda st: pure.neg(st, 4),
        CorruptStore,
        "node 3 (x3) has child 2 labeled x1",
    ),
    **{
        f"{code}-{op}": (parts, run, CorruptStore, message)
        for code, (parts, message) in _CORRUPT_STORES.items()
        for op, run in _OPERATIONS.items()
    },
}


@pytest.mark.parametrize("case", sorted(_FAILING_OPERATIONS))
def test_failed_operation_leaves_its_input_version_intact(case):
    parts, run, exc, message = _FAILING_OPERATIONS[case]
    st = pure.store_from_parts(**parts)
    text = pure.store_to_text(st)
    report = pure.validate_store(st).violations
    for _ in range(2):
        with pytest.raises(exc) as info:
            run(st)
        assert str(info.value) == message
        assert pure.store_to_text(st) == text
        assert pure.validate_store(st).violations == report
        assert pure.node_count(st) == len(parts["graph"])


@pytest.mark.parametrize("case", ["interrupted-and", "interrupted-neg"])
def test_failed_operation_keeps_its_input_version_the_newest(case):
    parts, run, exc, _ = _FAILING_OPERATIONS[case]
    st = pure.store_from_parts(**parts)
    with pytest.raises(exc):
        run(st)
    assert len(st.shared.cells) == st.count
    # node 1 is (F, x3, T) in every case, so its negation allocates
    ref, st2 = pure.neg(st, 1)
    assert ref == st.next
    assert st2.shared is st.shared


def test_alloc_refuses_when_next_is_not_past_the_graph():
    st = pure.store_from_parts(
        {1: Node(LEAF_FALSE, 1, LEAF_TRUE), 2: Node(LEAF_FALSE, 2, LEAF_TRUE)},
        next_id=2,
    )
    text = pure.store_to_text(st)
    with pytest.raises(CorruptStore) as info:
        pure.mk_node(st, LEAF_FALSE, 3, LEAF_TRUE)
    assert str(info.value) == "graph id 2 is not below next=2"
    assert pure.store_to_text(st) == text


def test_alloc_past_a_gap_below_next():
    # ids 2 and 3 are never allocated; no text round trip, because the
    # loader rejects ids above the record count + 1
    st = pure.store_from_parts({1: Node(LEAF_FALSE, 2, LEAF_TRUE)}, next_id=4)
    ref, st = pure.mk_node(st, LEAF_FALSE, 1, 1)
    assert ref == 4
    assert set(st.graph) == {1, 4}
    assert pure.node_count(st) == 2
    assert pure.validate_store(st).ok
    assert graph.follow(4, pure.expander(st), {1: True, 2: True}.__getitem__) is True
    assert graph.follow(4, pure.expander(st), {1: False}.__getitem__) is False
    assert graph.follow(4, pure.expander(st), {1: True, 2: False}.__getitem__) is False
    assert pure.mk_node(st, LEAF_FALSE, 3, LEAF_TRUE)[0] == 5


def test_operation_that_allocates_nothing_returns_its_input_store():
    st = pure.empty_store()
    a, st = frontend.compile_pure(frontend.parse("x1 | x3"), st)
    b, st = frontend.compile_pure(frontend.parse("x2 ^ x3"), st)
    r, st1 = pure.apply_binop(st, "and", a, b)
    assert st1 is not st
    again, st2 = pure.apply_binop(st1, "and", a, b)
    assert (again, st2) == (r, st1)
    assert st2 is st1
    n, st3 = pure.neg(st1, r)
    again, st4 = pure.neg(st3, r)
    assert again == n
    assert st4 is st3
    back, st5 = pure.neg(st3, n)
    assert back == r
    assert st5 is st3


def test_semantically_equal_formulas_share_one_ref():
    st = pure.empty_store()
    a, st = frontend.compile_pure(frontend.parse("(x1|x2) & (x1|!x2)"), st)
    b, st = frontend.compile_pure(frontend.parse("x1"), st)
    assert pure.eq(a, b)


# -- eq and size ------------------------------------------------------


def test_eq_basics():
    assert pure.eq(LEAF_TRUE, LEAF_TRUE)
    assert not pure.eq(1, 2)
    assert not pure.eq(LEAF_TRUE, LEAF_FALSE)
    assert not pure.eq(1, LEAF_TRUE)


def test_size_examples():
    st = pure.empty_store()
    assert graph.size(LEAF_TRUE, pure.expander(st)) == 1
    chain = ascending_chain_store()
    assert graph.size(1, pure.expander(chain)) == 5
    st = pure.empty_store()
    ref, st = pure.mk_node(st, LEAF_TRUE, 2, LEAF_FALSE)
    assert graph.size(ref, pure.expander(st)) == 3
    with pytest.raises(DanglingRef):
        graph.size(9, pure.expander(pure.empty_store()))


# -- validation -------------------------------------------------------


def test_validate_unreduced_node():
    st = pure.store_from_parts({1: Node(LEAF_TRUE, 1, LEAF_TRUE)})
    assert "reduced" in pure.validate_store(st).codes()
    # equal id children, and unequal children of either kind
    st = pure.store_from_parts(
        {1: Node(LEAF_FALSE, 2, LEAF_TRUE), 2: Node(1, 1, 1), 3: Node(1, 1, LEAF_TRUE)}
    )
    report = pure.validate_store(st)
    assert [v.message for v in report.violations] == [
        "node 2 has equal branches 1",
    ]


def test_validate_left_inverse_broken():
    node = Node(LEAF_FALSE, 1, LEAF_TRUE)
    st = pure.store_from_parts({1: node}, hmap={node: 2}, next_id=3)
    assert "left-inverse" in pure.validate_store(st).codes()


def test_validate_child_above_next():
    st = pure.store_from_parts(
        {1: Node(LEAF_FALSE, 1, 9)}, next_id=2
    )
    codes = pure.validate_store(st).codes()
    assert "validity" in codes


def test_validate_ascending_chain_flags_ascending_ids():
    report = pure.validate_store(ascending_chain_store())
    assert "acyclicity" in report.codes()


def test_validate_order_violation():
    st = pure.store_from_parts(
        {1: Node(LEAF_FALSE, 5, LEAF_TRUE), 2: Node(1, 5, LEAF_TRUE)}
    )
    assert "ordered" in pure.validate_store(st).codes()


def test_validate_duplicate_shapes():
    node = Node(LEAF_FALSE, 1, LEAF_TRUE)
    st = pure.store_from_parts({1: node, 2: node})
    codes = pure.validate_store(st).codes()
    assert "no-duplicates" in codes


def test_validate_memo_domain():
    st = pure.store_from_parts(
        {1: Node(LEAF_FALSE, 1, LEAF_TRUE)},
        memo_and={(1, 5): LEAF_TRUE},
        next_id=6,
    )
    assert "memo-domain" in pure.validate_store(st).codes()


def test_validate_reports_leaf_hmap_value():
    # a leaf is visible to every version, so it is reported, not compared with ids
    node = Node(LEAF_FALSE, 1, LEAF_TRUE)
    st = pure.store_from_parts({1: node}, hmap={node: LEAF_TRUE}, next_id=2)
    assert dict(st.hmap) == {node: LEAF_TRUE}
    assert pure.validate_store(st).codes() == {"left-inverse"}


def test_memo_value_above_its_key_is_refused():
    # mneg says the complement of x2 is node 2, which tests x1: a recursion
    # building on that hit would put x1 below x1 in node 3's complement
    st = pure.store_from_parts(
        {
            1: Node(LEAF_FALSE, 2, LEAF_TRUE),
            2: Node(LEAF_FALSE, 1, LEAF_TRUE),
            3: Node(LEAF_FALSE, 1, 1),
        },
        memo_neg={1: 2},
    )
    message = "mneg[1] = 2 is labeled x1, above its operands' top variable x2"
    assert [(v.code, v.message) for v in pure.validate_store(st).violations] == [
        ("memo-order", message)
    ]
    with pytest.raises(CorruptStore) as info:
        pure.neg(st, 3)
    assert str(info.value) == message
    assert pure.node_count(st) == 3
    # a binary result is held to the smaller of its operands' top variables
    graph_ = {
        1: Node(LEAF_FALSE, 2, LEAF_TRUE),
        2: Node(LEAF_FALSE, 3, LEAF_TRUE),
        3: Node(LEAF_FALSE, 1, LEAF_TRUE),
    }
    st = pure.store_from_parts(graph_, memo_and={(2, 1): 1, (1, 2): 3})
    assert [v.message for v in pure.validate_store(st).violations] == [
        "mand[(1, 2)] = 3 is labeled x1, above its operands' top variable x2"
    ]


def test_validate_memo_semantics_on_demand():
    st = pure.empty_store()
    a, st = pure.mk_node(st, LEAF_FALSE, 1, LEAF_TRUE)
    b, st = pure.mk_node(st, LEAF_FALSE, 2, LEAF_TRUE)
    wrong = pure.store_from_parts(
        dict(st.graph.items()),
        memo_and={(a, b): LEAF_TRUE},
        memo_xor={(a, b): b},
        memo_neg={b: LEAF_FALSE},
    )
    assert pure.validate_store(wrong).ok
    report = pure.validate_store(wrong, check_memo_semantics=True)
    assert "memo-semantics" in report.codes()
    assert [v.message for v in report.violations] == [
        "mand[(1, 2)] = Leaf.TRUE is wrong under {1: False, 2: False}",
        "mxor[(1, 2)] = 2 is wrong under {1: True, 2: False}",
        "mneg[2] = Leaf.FALSE is wrong under {2: False}",
    ]


def test_validate_clean_after_compiles():
    rng = random.Random(1)
    st = pure.empty_store()
    for _ in range(10):
        _, st = frontend.compile_pure(frontend.random_formula(rng, 5, 6), st)
    assert pure.validate_store(st, check_memo_semantics=True).ok


# -- monotonicity and value semantics ----------------------------------


def test_monotonic_extension_preserves_bindings():
    st0 = pure.empty_store()
    a, st1 = pure.mk_node(st0, LEAF_FALSE, 2, LEAF_TRUE)
    b, st2 = pure.mk_node(st1, LEAF_TRUE, 1, a)
    assert st2.next >= st1.next
    st2_graph = st2.graph
    for node_id, node in st1.graph.items():
        assert st2_graph[node_id] == node
    # old version still answers as before
    assert len(st1.graph) == 1
    assert a in st1.graph and b not in st1.graph
    assert graph.follow(a, pure.expander(st1), {2: True}.__getitem__) is True


def test_old_version_fork_is_independent():
    st0 = pure.empty_store()
    a, st1 = pure.mk_node(st0, LEAF_FALSE, 2, LEAF_TRUE)
    _, st2 = pure.mk_node(st1, LEAF_TRUE, 1, a)
    # extend the *older* version with a different node: forks the arena,
    # and both descendants hand out id 2 independently
    c, st1b = pure.mk_node(st1, a, 1, LEAF_TRUE)
    assert c == 2
    assert st1b.graph[c] == Node(a, 1, LEAF_TRUE)
    assert st2.graph[2] == Node(LEAF_TRUE, 1, a)
    assert pure.validate_store(st1b).ok
    assert pure.validate_store(st2).ok
    # both descendants assign id 2 to different nodes, old version sees neither
    assert 2 not in st1.graph


def test_hmap_view_hides_descendants():
    st0 = pure.empty_store()
    a, st1 = pure.mk_node(st0, LEAF_FALSE, 2, LEAF_TRUE)
    node2 = Node(LEAF_TRUE, 1, a)
    _, st2 = pure.mk_node(st1, LEAF_TRUE, 1, a)
    assert node2 in st2.hmap
    assert node2 not in st1.hmap
    with pytest.raises(KeyError):
        st1.hmap[node2]


def test_returned_tables_are_the_callers_copies():
    # a version hands out plain dicts; writing to them leaves the store as it was
    ref, st = frontend.compile_pure(frontend.parse("x1 & !x2 | x3"), pure.empty_store())
    text = pure.store_to_text(st)
    report = pure.validate_store(st, check_memo_semantics=True)
    assert report.ok
    before = (st.graph, st.hmap, st.memo)
    graph, hmap, mand = st.graph, st.hmap, st.memo.mand
    assert mand
    graph[ref] = Node(LEAF_TRUE, 9, LEAF_FALSE)
    graph[99] = Node(LEAF_FALSE, 9, LEAF_TRUE)
    hmap.clear()
    for key in mand:
        mand[key] = LEAF_TRUE
    assert (st.graph, st.hmap, st.memo) == before
    assert pure.store_to_text(st) == text
    assert pure.validate_store(st, check_memo_semantics=True) == report


def test_memo_cleared_store_is_isolated():
    st = pure.empty_store()
    f = frontend.parse("x1 ^ (x2 & !x3)")
    ref, st = frontend.compile_pure(f, st)
    assert len(st.memo.mxor) > 0 or len(st.memo.mand) > 0
    cleared = pure.clear_memo(st)
    assert len(cleared.memo.mand) == 0
    assert len(cleared.memo.mxor) == 0
    assert len(cleared.memo.mneg) == 0
    # replay on the cleared store gives identical refs
    ref2, st2 = frontend.compile_pure(f, cleared)
    assert pure.eq(ref, ref2)
    assert st2.next == st.next
    # the original store still has its memo
    assert len(st.memo.mxor) > 0 or len(st.memo.mand) > 0


def test_forked_op_does_not_poison_sibling_memo():
    # two lineages allocate different nodes under the same fresh id; a memo
    # entry written while forking must never leak into the sibling's view
    st = pure.empty_store()
    a, st = pure.mk_node(st, LEAF_FALSE, 1, LEAF_TRUE)
    b, st = pure.mk_node(st, LEAF_FALSE, 2, LEAF_TRUE)
    old = st
    r_or, st_or = pure.apply_binop(st, "or", a, b)
    r_and_fork, st_fork = pure.apply_binop(old, "and", a, b)
    r_and, st_and = pure.apply_binop(st_or, "and", a, b)
    want = oracle.formula_truth_table(frontend.parse("x1 & x2"), 2)
    assert oracle.tables_equal(
        oracle.bdd_truth_table(r_and, 2, pure.expander(st_and)), want
    )
    assert oracle.tables_equal(
        oracle.bdd_truth_table(r_and_fork, 2, pure.expander(st_fork)), want
    )
    assert pure.validate_store(st_and, check_memo_semantics=True).ok
    assert pure.validate_store(st_fork, check_memo_semantics=True).ok


def _not_x1():
    """The newest version of a fresh arena holding ``!x1`` as id 1."""
    _, st = pure.mk_node(pure.empty_store(), LEAF_TRUE, 1, LEAF_FALSE)
    return st


def test_older_version_cannot_negate_a_newer_id():
    st0 = _not_x1()
    x1, st1 = pure.mk_node(st0, LEAF_FALSE, 1, LEAF_TRUE)
    assert x1 == 2
    assert pure.neg(st1, x1)[0] == 1  # memoizes 2 -> 1 in the shared arena
    with pytest.raises(DanglingRef, match=r"^node id 2 has no graph entry$"):
        pure.neg(st0, 2)


def test_older_version_cannot_combine_newer_ids():
    st0 = _not_x1()
    x2, st1 = pure.mk_node(st0, LEAF_FALSE, 2, LEAF_TRUE)
    not_x2, st1 = pure.neg(st1, x2)
    assert (x2, not_x2) == (2, 3)
    # memoizes (2, 3) -> false in the shared arena
    assert pure.apply_binop(st1, "and", 2, 3)[0] is LEAF_FALSE
    with pytest.raises(DanglingRef, match=r"^node id 2 has no graph entry$"):
        pure.apply_binop(st0, "and", 2, 3)


def test_hand_built_store_drops_memo_entries_it_cannot_see():
    st = pure.store_from_parts(
        {1: Node(LEAF_FALSE, 1, LEAF_TRUE)}, memo_and={(9, 1): 1}
    )
    assert st.memo.mand == {}
    with pytest.raises(DanglingRef, match=r"^node id 9 has no graph entry$"):
        pure.apply_binop(st, "and", 9, 1)


def test_hand_built_store_drops_a_memo_key_past_the_key_domain():
    # packed without the bound, (1, 2**32 + 2) would be the key of (1, 2)
    graph_ = {1: Node(LEAF_FALSE, 1, LEAF_TRUE), 2: Node(LEAF_FALSE, 2, LEAF_TRUE)}
    st = pure.store_from_parts(graph_, memo_and={(1, _engine.ID_LIMIT + 2): LEAF_TRUE})
    assert st.memo.mand == {}
    ref, st = pure.apply_binop(st, "and", 1, 2)
    assert st.graph[ref] == Node(LEAF_FALSE, 1, 2)
    assert st.memo.mand == {(1, 2): ref}


def test_read_only_operation_on_older_version_leaves_the_arena_alone():
    st_old = _not_x1()
    x1, st_old = pure.mk_node(st_old, LEAF_FALSE, 1, LEAF_TRUE)
    _, st_new = pure.mk_node(st_old, LEAF_FALSE, 2, LEAF_TRUE)
    stats, memo = pure.store_stats(st_new), st_new.memo
    ref, st = pure.neg(st_old, x1)
    assert ref == 1 and st is st_old
    assert pure.store_stats(st_new) == stats
    assert st_new.memo == memo
    assert st_old.memo.mneg == {}


def test_older_version_sees_memo_entries_a_newer_version_computed():
    # the memo tables are a cache shared across the arena's versions: an entry
    # a newer version computes over ids an older version sees shows in the
    # older version's view, which reads the same answer from it; its graph
    # and hash-consing map never change this way
    a, st0 = pure.mk_node(pure.empty_store(), LEAF_FALSE, 1, LEAF_TRUE)
    b, st0 = pure.neg(st0, a)
    assert (a, b) == (1, 2)
    graph0, hmap0 = st0.graph, st0.hmap
    _, st1 = pure.mk_node(st0, LEAF_FALSE, 2, LEAF_TRUE)
    assert st0.memo.mor == {}
    assert pure.apply_binop(st1, "or", a, b)[0] is LEAF_TRUE
    assert (st0.graph, st0.hmap) == (graph0, hmap0)
    assert st0.memo.mor == {(1, 2): LEAF_TRUE}
    assert pure.apply_binop(st0, "or", a, b) == (LEAF_TRUE, st0)


def test_memo_soundness_random_traces():
    rng = random.Random(7)
    for _ in range(10):
        ops = gen_trace(rng, 25, max_var=4)
        refs_a, _ = play_pure(ops)
        refs_b, _ = play_pure(ops, clear_between=True)
        assert refs_a == refs_b


def test_version_tree_stress_against_oracle():
    # grow a whole tree of store versions, repeatedly extending random old
    # snapshots; every result must still match the oracle and validate
    from bddhc.core import And as FAnd, Not as FNot, Or as FOr, Ref as FRef, Xor as FXor
    from bddhc.core import Const as FConst

    rng = random.Random(77)
    n = 4
    snapshots = [
        (pure.empty_store(), [(LEAF_TRUE, FConst(True)), (LEAF_FALSE, FConst(False))])
    ]
    for step in range(300):
        st, env = snapshots[rng.randrange(len(snapshots))]
        roll = rng.random()
        if roll < 0.3:
            v = rng.randint(1, n)
            ref, st2 = pure.mk_node(st, LEAF_FALSE, v, LEAF_TRUE)
            f = FRef(v)
        elif roll < 0.5:
            ref0, f0 = env[rng.randrange(len(env))]
            ref, st2 = pure.neg(st, ref0)
            f = FNot(f0)
        else:
            ref0, f0 = env[rng.randrange(len(env))]
            ref1, f1 = env[rng.randrange(len(env))]
            op = rng.choice(("and", "or", "xor"))
            ref, st2 = pure.apply_binop(st, op, ref0, ref1)
            f = {"and": FAnd, "or": FOr, "xor": FXor}[op](f0, f1)
        got = oracle.bdd_truth_table(ref, n, pure.expander(st2))
        want = oracle.formula_truth_table(f, n)
        assert oracle.tables_equal(got, want), (step, f)
        snapshots.append((st2, env + [(ref, f)]))
        if step % 50 == 0:
            assert pure.validate_store(st2, check_memo_semantics=True).ok
    # old snapshots still answer correctly after all that churn
    for st, env in rng.sample(snapshots, 25):
        ref, f = env[rng.randrange(len(env))]
        got = oracle.bdd_truth_table(ref, n, pure.expander(st))
        assert oracle.tables_equal(got, oracle.formula_truth_table(f, n))
        assert pure.validate_store(st).ok


def test_wellformed_after_random_traces():
    rng = random.Random(13)
    for _ in range(15):
        ops = gen_trace(rng, 30, max_var=4)
        checked = []

        def on_step(pre, post, ref):
            assert pure.validate_store(post).ok
            post_graph = post.graph
            for node_id, node in pre.graph.items():
                assert post_graph[node_id] == node
            checked.append(ref)

        play_pure(ops, on_step=on_step)
        assert len(checked) == 30


# -- stats --------------------------------------------------------------


def test_store_stats_counts():
    st = pure.empty_store()
    _, st = frontend.compile_pure(frontend.parse("x1 & x1"), st)
    stats = pure.store_stats(st)
    assert stats["intern_misses"] >= 1
    assert stats["intern_hits"] >= 1
    assert set(stats) == {
        "intern_hits", "intern_misses", "not_hits", "not_misses",
        "and_hits", "and_misses", "or_hits", "or_misses",
        "xor_hits", "xor_misses",
    }


def test_memo_hit_counted_on_repeat():
    st = pure.empty_store()
    a, st = frontend.compile_pure(frontend.parse("x1 & x2"), st)
    b, st = frontend.compile_pure(frontend.parse("x2 & x3"), st)
    before = pure.store_stats(st)["and_hits"]
    _, st = pure.apply_binop(st, "and", a, b)
    _, st = pure.apply_binop(st, "and", a, b)
    assert pure.store_stats(st)["and_hits"] > before


# -- packed memo keys ---------------------------------------------------


def test_memo_key_packing_round_trips():
    ids = (1, 2**31, 2**32 - 1)
    keys = {_engine.pack_key(a, b): (a, b) for a in ids for b in ids}
    assert len(keys) == 9
    for key, pair in keys.items():
        assert type(key) is int
        assert _engine.unpack_key(key) == pair


def test_compiled_store_keeps_no_tracked_binary_memo_key():
    # the gain of packed keys: the collector does not track an int
    _, st = frontend.compile_pure(frontend.queens_formula(5), pure.empty_store())
    sh = st.shared
    assert len(sh.mand) > 1000
    for table in (sh.mand, sh.mor, sh.mxor):
        assert not any(gc.is_tracked(key) for key in table)


# -- serialization ------------------------------------------------------


def test_store_text_round_trip():
    st = pure.empty_store()
    _, st = frontend.compile_pure(frontend.parse("(x1 | !x2) & (x3 ^ x1)"), st)
    text = pure.store_to_text(st)
    loaded = pure.store_from_text(text)
    assert loaded.next == st.next
    assert dict(loaded.graph.items()) == dict(st.graph.items())
    assert pure.validate_store(loaded).ok
    assert pure.store_to_text(loaded) == text


def test_store_text_format_shape():
    st = pure.empty_store()
    _, st = pure.mk_node(st, LEAF_FALSE, 2, LEAF_TRUE)
    lines = pure.store_to_text(st).splitlines()
    assert lines[0] == "bddhc-store 1"
    assert lines[1] == "next 2"
    assert lines[2] == "1 F 2 T"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "wrong header\n",
        "bddhc-store 1\nnope\n",
        "bddhc-store 1\nnext 0\n",
        "bddhc-store 1\nnext 2\n1 F T\n",
        "bddhc-store 1\nnext 2\n1 F 0 T\n",
        "bddhc-store 1\nnext 3\n1 F 1 T\n1 F 2 T\n",
        "bddhc-store 1\nnext 2\nx F 1 T\n",
        # numbers are ASCII decimal: no underscores, no plus sign, no other digits
        "bddhc-store 1\nnext 11\n1_0 F 1 T\n",
        "bddhc-store 1\nnext 2\n+1 F 1 T\n",
        "bddhc-store 1\nnext 2\n1 F \u0661 T\n",
        "bddhc-store 1\nnext 3 junk\n",
    ],
)
def test_store_text_rejects_malformed(text):
    with pytest.raises(BddError):
        pure.store_from_text(text)


@pytest.mark.parametrize(
    "text, line",
    [
        # an arena sized by the id would not fit in memory
        ("bddhc-store 1\nnext 5\n4611686018427387904 F 1 T\n", 3),
        # nor would the first node made on top of this store
        ("bddhc-store 1\nnext 4611686018427387904\n", 2),
    ],
    ids=["record-id", "next"],
)
def test_store_text_rejects_ids_above_the_record_count(text, line):
    with pytest.raises(BddError, match=f"^line {line}: .* is above the record count"):
        pure.store_from_text(text)


def test_loaded_corrupt_store_is_flagged_not_raised():
    text = "bddhc-store 1\nnext 2\n1 5 1 T\n"  # child 5 is not below next
    loaded = pure.store_from_text(text)
    assert not pure.validate_store(loaded).ok


def _mutate_one_token(rng, text, n):
    """``text`` with one of its ``next`` value, record children and record
    variables replaced by a random token the loader accepts."""
    lines = text.splitlines()
    bound = len(lines) - 1  # the record count + 1
    row = rng.randrange(1, len(lines))
    fields = lines[row].split()
    if row == 1:
        fields[1] = str(rng.randint(1, bound))
    else:
        field = rng.randrange(1, 4)
        if field == 2:
            fields[2] = str(rng.randint(1, n))
        else:
            fields[field] = rng.choice(["T", "F", str(rng.randint(1, bound))])
    lines[row] = " ".join(fields)
    return "\n".join(lines) + "\n"


def test_mutated_store_files_are_refused_or_answered_right():
    rng = random.Random(21)
    n = 4
    full = (1 << (1 << n)) - 1
    st = pure.empty_store()
    for _ in range(4):
        _, st = frontend.compile_pure(frontend.random_formula(rng, n, 5), st)
    text = pure.store_to_text(st)
    outcomes = {"refused": 0, "right": 0}
    for _ in range(1000):
        loaded = pure.store_from_text(_mutate_one_token(rng, text, n))
        loaded_graph = loaded.graph
        refs = [LEAF_TRUE, LEAF_FALSE, *loaded_graph]
        kind = rng.choice(("mk_node", "neg", "and", "or", "xor"))
        if kind == "mk_node":
            var = rng.randint(1, n)
            below = [LEAF_TRUE, LEAF_FALSE] + [
                i for i, node in loaded_graph.items()
                if i < loaded.next and node.var > var
            ]
            args = (rng.choice(below), var, rng.choice(below))
            run = lambda: pure.mk_node(loaded, *args)
        elif kind == "neg":
            args = (rng.choice(refs),)
            run = lambda: pure.neg(loaded, *args)
        else:
            args = (rng.choice(refs), rng.choice(refs))
            run = lambda: pure.apply_binop(loaded, kind, *args)
        report = pure.validate_store(loaded)
        if not report.ok:
            with pytest.raises(CorruptStore) as info:
                run()
            assert str(info.value) == report.violations[0].message
            outcomes["refused"] += 1
            continue
        ref, result = run()

        def table(ref):
            return oracle.bdd_truth_table(ref, n, pure.expander(loaded)).bits

        if kind == "mk_node":
            low, var, high = args
            chosen = sum(1 << k for k in range(1 << n) if k >> (var - 1) & 1)
            want = table(low) & ~chosen | table(high) & chosen
        elif kind == "neg":
            want = ~table(args[0]) & full
        else:
            a, b = map(table, args)
            want = {"and": a & b, "or": a | b, "xor": a ^ b}[kind]
        assert oracle.bdd_truth_table(ref, n, pure.expander(result)).bits == want
        assert pure.validate_store(result).ok
        outcomes["right"] += 1
    assert min(outcomes.values()) > 100, outcomes


# -- concurrency smoke ---------------------------------------------------


def test_concurrent_extension_from_one_tip():
    st = pure.empty_store()
    base, st = pure.mk_node(st, LEAF_FALSE, 9, LEAF_TRUE)
    results = []

    def worker(var):
        local_ref, local_st = pure.mk_node(st, LEAF_FALSE, var, base)
        results.append((var, local_ref, local_st))

    threads = [threading.Thread(target=worker, args=(v,)) for v in range(1, 9)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    for var, ref, local_st in results:
        assert local_st.graph[ref] == Node(LEAF_FALSE, var, base)
        assert pure.validate_store(local_st).ok


def test_concurrent_operations_from_one_version():
    """Eight threads compile and combine formulas from one shared version.

    Each operation on the shared version takes the arena's lock; once one
    thread has allocated, that version is no longer the arena's newest, and
    the other threads' operations on it run on clones.
    """
    rng = random.Random(11)
    g = frontend.random_formula(rng, max_var=6, max_depth=6)
    g_ref, st = frontend.compile_pure(g, pure.empty_store())
    text = pure.store_to_text(st)
    formulas = [frontend.random_formula(rng, max_var=6, max_depth=6) for _ in range(8)]
    ops = ["and", "or", "xor"]
    results = [None] * len(formulas)
    errors = []

    def worker(i):
        try:
            ref, local_st = frontend.compile_pure(formulas[i], st)
            results[i] = pure.apply_binop(local_st, ops[i % 3], ref, g_ref)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    want_g = oracle.formula_truth_table(g, 6)
    for i, (f, (ref, local_st)) in enumerate(zip(formulas, results)):
        want_f = oracle.formula_truth_table(f, 6).bits
        want = {"and": want_f & want_g.bits, "or": want_f | want_g.bits,
                "xor": want_f ^ want_g.bits}[ops[i % 3]]
        assert oracle.bdd_truth_table(ref, 6, pure.expander(local_st)).bits == want
        assert pure.validate_store(local_st, check_memo_semantics=True).ok
    assert pure.store_to_text(st) == text
    assert pure.validate_store(st, check_memo_semantics=True).ok
