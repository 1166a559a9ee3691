"""The shared read-only walk: order, cycles, depth, and both backends' views."""
import random

import pytest

from bddhc import frontend, graph, interned, oracle, pure
from bddhc.cli import count_models
from bddhc.core import LEAF_FALSE, LEAF_TRUE, BddError, DanglingRef, Node

CHAIN_VARS = 3000


def _looped():
    return pure.store_from_parts({1: Node(2, 1, 2), 2: Node(1, 2, 1)}, next_id=3)


def _pure_chain(n):
    # x1 & x2 & ... & xn, deeper than the interpreter's default recursion limit
    st = pure.empty_store()
    ref = LEAF_TRUE
    for var in range(n, 0, -1):
        ref, st = pure.mk_node(st, LEAF_FALSE, var, ref)
    return ref, st


# -- walk order -------------------------------------------------------------


def test_walk_is_postorder_low_branch_first():
    st = pure.empty_store()
    a, st = pure.mk_node(st, LEAF_FALSE, 3, LEAF_TRUE)  # id 1
    b, st = pure.mk_node(st, LEAF_TRUE, 3, LEAF_FALSE)  # id 2
    c, st = pure.mk_node(st, a, 2, b)  # id 3
    root, st = pure.mk_node(st, b, 1, c)  # id 4
    order = [ref for ref, _ in graph.walk(root, pure.expander(st))]
    assert order == [LEAF_TRUE, LEAF_FALSE, b, a, c, root]


def test_walk_visits_shared_nodes_once(manager):
    f = frontend.queens_formula(4)
    h = frontend.compile_interned(f, manager)
    refs = [ref for ref, _ in graph.walk(h, interned.expand)]
    assert len(refs) == len(set(refs)) == graph.size(h, interned.expand)
    position = {ref: i for i, ref in enumerate(refs)}
    for ref in refs:
        if ref.terminal < 0:
            assert position[ref.low] < position[ref] > position[ref.high]


def test_backends_give_the_same_graph_views(manager):
    rng = random.Random(41)
    for _ in range(30):
        f = frontend.random_formula(rng, max_var=6, max_depth=7)
        st = pure.empty_store()
        ref, st = frontend.compile_pure(f, st)
        h = frontend.compile_interned(f, manager)
        expand = pure.expander(st)
        assert graph.size(ref, expand) == graph.size(h, interned.expand)
        assert graph.cone_vars(ref, expand) == graph.cone_vars(h, interned.expand)
        assert graph.count_models(ref, 6, expand) == graph.count_models(
            h, 6, interned.expand
        )


# -- corrupt stores ----------------------------------------------------------


def test_cyclic_store_truth_table_raises():
    with pytest.raises(BddError, match="cycle"):
        oracle.bdd_truth_table(1, 2, pure.expander(_looped()))


def test_cyclic_store_import_raises(manager):
    with pytest.raises(BddError, match="cycle"):
        graph.copy(1, pure.expander(_looped()), manager)


def test_cyclic_store_size_raises():
    with pytest.raises(BddError, match="cycle"):
        graph.size(1, pure.expander(_looped()))


def test_dangling_child_is_a_typed_error(manager):
    broken = pure.store_from_parts({1: Node(LEAF_FALSE, 1, 7)}, next_id=8)
    with pytest.raises(DanglingRef, match="^node id 7 has no graph entry$"):
        graph.copy(1, pure.expander(broken), manager)
    with pytest.raises(DanglingRef):
        oracle.bdd_truth_table(1, 1, pure.expander(broken))


# -- deep diagrams -------------------------------------------------------------


def test_deep_chain_survives_import_and_rebuild(kernel):
    ref, st = _pure_chain(CHAIN_VARS)
    imported = graph.copy(ref, pure.expander(st), interned.new_manager(kernel))
    copied = graph.copy(imported, interned.expand, interned.new_manager(kernel))
    for h in (imported, copied):
        assert graph.size(h, interned.expand) == CHAIN_VARS + 2
        assert count_models(h, CHAIN_VARS) == 1
    assert graph.size(ref, pure.expander(st)) == CHAIN_VARS + 2


def test_copy_into_fresh_manager_numbers_uids_like_construction(kernel):
    f = frontend.queens_formula(4)
    m1 = interned.new_manager(kernel)
    h1 = frontend.compile_interned(f, m1)
    copied = graph.copy(h1, interned.expand, interned.new_manager(kernel))
    st = pure.empty_store()
    ref, st = frontend.compile_pure(f, st)
    mirrored = graph.copy(ref, pure.expander(st), interned.new_manager(kernel))
    assert sorted(h.uid for h, _ in graph.walk(copied, interned.expand)) == sorted(
        h.uid for h, _ in graph.walk(mirrored, interned.expand)
    )
    assert interned.to_dot(copied) == interned.to_dot(mirrored)


# -- memo semantics -------------------------------------------------------------


def test_memo_faults_names_the_first_wrong_assignment():
    st = pure.empty_store()
    x1, st = pure.mk_node(st, LEAF_FALSE, 1, LEAF_TRUE)
    x2, st = pure.mk_node(st, LEAF_FALSE, 2, LEAF_TRUE)
    expand = pure.expander(st)
    entries = [("and", (x1, x2), x1), ("not", (x1,), x1), ("or", (x1, x1), x1)]
    faults = list(graph.memo_faults(entries, expand))
    assert faults == [
        ("and", (x1, x2), x1, {1: True, 2: False}),
        ("not", (x1,), x1, {1: False}),
    ]
