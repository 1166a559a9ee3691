import gc
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from bddhc.core import (
    LEAF_FALSE,
    LEAF_TRUE,
    MAX_VAR,
    BddError,
    ForeignHandle,
    InvalidChild,
    Leaf,
    OrderViolation,
    Ref,
    VarOutOfRange,
)
import bddhc
from bddhc import frontend, graph, interned, oracle, pure
from bddhc._pykernel import Handle as PyHandle, Manager as PyManager

from util import UnreducedManager, gen_trace, play_interned, play_pure

needs_compiled = pytest.mark.usefixtures("compiled_kernel")


# -- manager construction ----------------------------------------------


def test_new_manager_pools_the_leaves(manager):
    assert manager.pool_size() == 2
    assert manager.true.uid != manager.false.uid
    assert manager.true.uid == 1
    assert manager.false.uid == 2


def test_leaves_are_interned(manager):
    assert manager.true.uid == manager.true.uid
    assert manager.constant(True) is manager.true
    assert manager.constant(False) is manager.false


# -- node constructor ---------------------------------------------------


def test_node_collapses_equal_children(manager):
    h = manager.node(3, manager.false, manager.true)
    assert manager.node(2, h, h) is h
    assert manager.pool_size() == 3


def test_reduction_cannot_be_switched_off(manager):
    # every kernel reduces; a manager class takes no arguments at all
    with pytest.raises(TypeError):
        interned.new_manager(manager.IMPL, reduce_nodes=False)
    with pytest.raises(TypeError):
        type(manager)(False)
    with pytest.raises(TypeError):
        type(manager)(reduce_nodes=False)
    assert not hasattr(manager, "reduce_nodes")


def test_node_is_shared(manager):
    before = manager.pool_size()
    h1 = manager.node(2, manager.false, manager.true)
    mid = manager.pool_size()
    h2 = manager.node(2, manager.false, manager.true)
    assert h1.uid == h2.uid
    assert mid == before + 1
    assert manager.pool_size() == mid


def test_shannon_expansion_collapses_to_one_node(manager):
    # f(0,0)=T, f(0,1)=F, f(1,0)=T, f(1,1)=F over (x1, x2)
    branch0 = manager.node(2, manager.true, manager.false)
    branch1 = manager.node(2, manager.true, manager.false)
    root = manager.node(1, branch0, branch1)
    assert root is branch0
    assert root.var == 2
    assert root.low.terminal == 1 and root.high.terminal == 0
    assert manager.pool_size() == 3


def test_node_order_violation(manager):
    h = manager.node(2, manager.false, manager.true)
    with pytest.raises(OrderViolation) as err:
        manager.node(2, h, manager.true)
    assert str(err.value) == "child variable x2 is not below x2"
    with pytest.raises(OrderViolation) as err:
        manager.node(5, manager.true, h)
    assert str(err.value) == "child variable x2 is not below x5"
    # both children out of order: low is checked first
    g = manager.node(3, manager.false, manager.true)
    with pytest.raises(OrderViolation) as err:
        manager.node(3, h, g)
    assert str(err.value) == "child variable x2 is not below x3"
    with pytest.raises(VarOutOfRange):
        manager.node(0, manager.false, manager.true)
    assert manager.pool_size() == 4


def test_foreign_handle_same_kernel(kernel):
    m1 = interned.new_manager(kernel)
    m2 = interned.new_manager(kernel)
    with pytest.raises(ForeignHandle):
        m1.node(1, m2.false, m1.true)
    with pytest.raises(ForeignHandle):
        m1.neg(m2.true)
    with pytest.raises(ForeignHandle):
        m1.apply_binop("and", m1.true, m2.true)
    with pytest.raises(ForeignHandle):
        m1.structural_eq(m1.true, m2.true)


@needs_compiled
def test_foreign_handle_across_kernels():
    mp = interned.new_manager("python")
    mc = interned.new_manager("compiled")
    with pytest.raises(ForeignHandle):
        mc.node(1, mp.false, mp.true)
    with pytest.raises(ForeignHandle):
        mp.node(1, mc.false, mc.true)
    with pytest.raises(ForeignHandle):
        interned.structural_eq(mp.true, mc.true)


def test_non_handle_rejected(manager):
    with pytest.raises(InvalidChild) as err:
        manager.node(1, "nope", manager.true)
    assert type(err.value) is InvalidChild
    assert str(err.value) == "not a handle: 'nope'"
    with pytest.raises(InvalidChild) as err:
        manager.node(1, manager.true, 5)
    assert str(err.value) == "not a handle: 5"


@pytest.mark.parametrize(
    "fields, error",
    [
        # an object with ``tag`` and ``uid`` is foreign, even with this tag
        ({"uid": 99, "terminal": -1, "var": 7}, ForeignHandle),
        ({"tag": 123}, InvalidChild),
        ({"tag": None, "uid": 5}, ForeignHandle),
    ],
    ids=["own-tag-and-uid", "tag-only", "tag-none-and-uid"],
)
def test_ownership_rule_is_the_same_on_every_kernel(manager, fields, error):
    h = manager.node(3, manager.false, manager.true)
    fake = SimpleNamespace(tag=h.tag, low=manager.false, high=manager.true)
    vars(fake).update(fields)
    calls = [
        lambda: manager.node(1, fake, manager.true),
        lambda: manager.node(1, manager.false, fake),
        lambda: manager.neg(fake),
        lambda: manager.structural_eq(h, fake),
    ]
    for call in calls:
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error
    assert manager.pool_size() == 3


# The constructor's exact exception types and messages; every kernel
# gives the same ones.


@pytest.mark.parametrize("var", [True, 0, -1, 1.0])
def test_node_bad_var_message(manager, var):
    with pytest.raises(VarOutOfRange) as err:
        manager.node(var, manager.false, manager.true)
    assert type(err.value) is VarOutOfRange
    assert str(err.value) == f"variable index must be a positive integer, got {var!r}"


@needs_compiled
@pytest.mark.parametrize("var", [MAX_VAR + 1, 2**40, 2**64])
def test_compiled_node_rejects_var_above_max_var(var):
    # a C int holds the variable; Ref gives the same error for the same index
    m = interned.new_manager("compiled")
    with pytest.raises(VarOutOfRange) as ref_err:
        Ref(var)
    with pytest.raises(VarOutOfRange) as err:
        m.node(var, m.false, m.true)
    assert type(err.value) is VarOutOfRange
    assert str(err.value) == str(ref_err.value)
    assert str(err.value) == f"variable index must be at most {MAX_VAR}, got {var}"
    # the bound is checked right after the variable, before the children
    with pytest.raises(VarOutOfRange):
        m.node(var, "nope", m.true)
    assert m.node(MAX_VAR, m.false, m.true).var == MAX_VAR


def test_node_accepts_int_subclass_var(manager):
    class MyInt(int):
        pass

    h = manager.node(MyInt(2), manager.false, manager.true)
    assert h.var == 2
    assert manager.node(2, manager.false, manager.true) is h
    assert manager.stats()["intern_hits"] == 1


def test_node_ownership_is_checked_before_order(kernel):
    m = interned.new_manager(kernel)
    other = interned.new_manager(kernel)
    h = m.node(3, m.false, m.true)
    with pytest.raises(ForeignHandle) as err:
        m.node(3, other.false, h)
    assert type(err.value) is ForeignHandle
    assert str(err.value) == "handle belongs to a different manager"


# -- structural equality -------------------------------------------------


def test_structural_eq_basics(manager):
    h = manager.node(1, manager.false, manager.true)
    assert manager.structural_eq(h, h)
    assert not manager.structural_eq(manager.true, manager.false)
    assert interned.structural_eq(manager.true, manager.true)


def test_structural_eq_tracks_truth_tables(manager):
    rng = random.Random(23)
    for _ in range(150):
        f = frontend.random_formula(rng, max_var=4, max_depth=5)
        g = frontend.random_formula(rng, max_var=4, max_depth=5)
        hf = frontend.compile_interned(f, manager)
        hg = frontend.compile_interned(g, manager)
        same = oracle.tables_equal(
            oracle.formula_truth_table(f, 4), oracle.formula_truth_table(g, 4)
        )
        assert manager.structural_eq(hf, hg) == same


# -- negation -------------------------------------------------------------


def test_neg_leaves(manager):
    assert manager.neg(manager.true) is manager.false
    assert manager.neg(manager.false) is manager.true


def test_double_negation_gives_same_uid(manager):
    rng = random.Random(4)
    for _ in range(25):
        f = frontend.random_formula(rng, max_var=5, max_depth=6)
        h = frontend.compile_interned(f, manager)
        assert manager.neg(manager.neg(h)).uid == h.uid


def test_neg_miss_count_bounded_by_inner_size(manager):
    f = frontend.parse("(x1 & x2) | (x3 ^ x4) | !x5")
    h = frontend.compile_interned(f, manager)
    inner = sum(1 for x, _ in graph.walk(h, interned.expand) if x.terminal < 0)
    before = manager.stats()["not_misses"]
    manager.neg(h)
    assert manager.stats()["not_misses"] - before <= inner


# -- binary operations ------------------------------------------------------


def test_binop_identities(manager):
    b = manager.node(3, manager.false, manager.true)
    assert manager.apply_binop("or", manager.false, b) is b
    assert manager.apply_binop("and", manager.true, b) is b
    assert manager.apply_binop("xor", manager.false, b) is b
    assert manager.apply_binop("and", b, manager.false) is manager.false
    assert manager.apply_binop("or", b, manager.true) is manager.true


def test_binop_contradiction_and_tautology(manager):
    a = manager.node(1, manager.false, manager.true)
    na = manager.neg(a)
    assert manager.apply_binop("and", a, na) is manager.false
    assert manager.apply_binop("or", a, na) is manager.true
    assert manager.apply_binop("xor", a, a) is manager.false


def test_binop_unknown_op(manager):
    with pytest.raises(ValueError):
        manager.apply_binop("implies", manager.true, manager.true)


@pytest.mark.parametrize("op", ["nand", "AND", None, ["and"]])
@pytest.mark.parametrize("backend", ["pure", *interned.available_kernels()])
def test_binop_rejects_unknown_name(backend, op):
    # an unhashable name must not leak a TypeError out of the dispatch
    message = re.escape(f"unknown operation {op!r}")
    if backend == "pure":
        st = pure.empty_store()
        a, st = pure.mk_node(st, LEAF_FALSE, 1, LEAF_TRUE)
        with pytest.raises(ValueError, match=message):
            pure.apply_binop(st, op, a, a)
    else:
        m = interned.new_manager(backend)
        a = m.node(1, m.false, m.true)
        with pytest.raises(ValueError, match=message):
            m.apply_binop(op, a, a)


def test_binop_miss_count_bounded(manager):
    rng = random.Random(6)
    for _ in range(30):
        f = frontend.random_formula(rng, max_var=5, max_depth=5)
        g = frontend.random_formula(rng, max_var=5, max_depth=5)
        a = frontend.compile_interned(f, manager)
        b = frontend.compile_interned(g, manager)
        op = rng.choice(("and", "or", "xor"))
        sa = graph.size(a, interned.expand)
        sb = graph.size(b, interned.expand)
        before = manager.stats()[f"{op}_misses"]
        manager.apply_binop(op, a, b)
        assert manager.stats()[f"{op}_misses"] - before <= sa * sb


# -- uids ---------------------------------------------------------------


def test_uid_accessors(manager):
    h = manager.node(1, manager.false, manager.true)
    uids = {manager.true.uid, manager.false.uid, h.uid}
    assert len(uids) == 3


def test_uid_order_is_topological(manager):
    f = frontend.parse("(x1 ^ x2) & (x2 | !x3)")
    h = frontend.compile_interned(f, manager)
    seen = set()
    nodes = sorted((x for x, _ in graph.walk(h, interned.expand)), key=lambda x: x.uid)
    for node in nodes:
        if node.terminal < 0:
            assert node.low.uid in seen
            assert node.high.uid in seen
        seen.add(node.uid)


# -- validation ----------------------------------------------------------


def test_validate_fresh_manager(manager):
    assert interned.validate_manager(manager).ok


def test_validate_after_random_trace(manager):
    rng = random.Random(17)
    ops = gen_trace(rng, 60, max_var=4)
    play_interned(manager, ops)
    assert interned.validate_manager(manager, check_cache_semantics=True).ok


def test_validate_detects_duplicate_pool_shapes():
    m = PyManager()
    h = m.node(1, m.false, m.true)
    clone = PyHandle(99, h.var, h.low, h.high, -1, h.tag)
    m._unique[("backdoor", 0, 0)] = clone
    assert "pool-unique" in interned.validate_manager(m).codes()


def test_validate_detects_dead_cache_entries():
    m = PyManager()
    m.memo_entries()["not"][123] = m.true
    assert "cache-liveness" in interned.validate_manager(m).codes()


def test_validate_detects_wrong_cache_semantics():
    m = PyManager()
    a = m.node(1, m.false, m.true)
    b = m.node(2, m.false, m.true)
    m.memo_entries()["and"][(a.uid, b.uid)] = m.true
    assert interned.validate_manager(m).ok
    report = interned.validate_manager(m, check_cache_semantics=True)
    assert "cache-semantics" in report.codes()


def test_validate_unreduced_pool_node():
    m = UnreducedManager()
    m.node(1, m.true, m.true)
    assert "reduced" in interned.validate_manager(m).codes()


# -- maximal sharing ------------------------------------------------------


def test_rebuild_reuses_identical_uids(manager):
    rng = random.Random(29)
    ops = gen_trace(rng, 50, max_var=4)
    handles = play_interned(manager, ops)
    pool_before = manager.pool_size()
    for h in handles:
        assert graph.copy(h, interned.expand, manager).uid == h.uid
    assert manager.pool_size() == pool_before


def test_pool_shapes_distinct_after_trace(manager):
    rng = random.Random(31)
    play_interned(manager, gen_trace(rng, 80, max_var=4))
    shapes = set()
    for h in manager.iter_pool():
        s = (h.terminal, h.var, h.low.uid if h.low else 0, h.high.uid if h.high else 0)
        assert s not in shapes
        shapes.add(s)


def test_rebuild_into_fresh_manager(kernel):
    m1 = interned.new_manager(kernel)
    f = frontend.parse("x1 ^ (x2 & !x3)")
    h1 = frontend.compile_interned(f, m1)
    m2 = interned.new_manager(kernel)
    h2 = graph.copy(h1, interned.expand, m2)
    assert oracle.tables_equal(
        oracle.bdd_truth_table(h1, 3, interned.expand),
        oracle.bdd_truth_table(h2, 3, interned.expand),
    )


# -- memo transparency -----------------------------------------------------


def test_clear_caches_does_not_change_uids(kernel):
    rng = random.Random(37)
    ops = gen_trace(rng, 40, max_var=4)
    m1 = interned.new_manager(kernel)
    m2 = interned.new_manager(kernel)
    h1 = play_interned(m1, ops)
    h2 = play_interned(m2, ops, clear_between=True)
    assert [h.uid for h in h1] == [h.uid for h in h2]


# -- cross-kernel parity -----------------------------------------------------


def _parity_traces():
    rng = random.Random(41)
    return [gen_trace(rng, 60, max_var=5) for _ in range(10)]


@needs_compiled
def test_kernels_agree_on_uids_and_stats():
    for ops in _parity_traces():
        mp = interned.new_manager("python")
        mc = interned.new_manager("compiled")
        hp = play_interned(mp, ops)
        hc = play_interned(mc, ops)
        assert [h.uid for h in hp] == [h.uid for h in hc]
        assert mp.stats() == mc.stats()
        assert mp.pool_size() == mc.pool_size()


def test_pure_store_agrees_with_kernel(kernel):
    # the pure store numbers its nodes from 1, a manager from 3 after the leaves
    for ops in _parity_traces():
        versions = []
        refs, st = play_pure(ops, on_step=lambda pre, post, ref: versions.append(post))
        m = interned.new_manager(kernel)
        handles = play_interned(m, ops)
        for ref, h in zip(refs, handles, strict=True):
            if isinstance(ref, Leaf):
                assert h.terminal == (ref is LEAF_TRUE)
            else:
                assert h.uid == ref + 2
        assert pure.store_stats(st) == m.stats()
        assert pure.node_count(st) + 2 == m.pool_size()
        # replay the second half from the midpoint version: it is no longer
        # its arena's newest, so each operation on it runs on a clone
        half = len(ops) // 2
        mid = versions[half - 1]
        assert st.next > mid.next
        forked, forked_st = play_pure(ops[half:], mid, refs=refs[: half + 2])
        assert forked_st.shared is not st.shared
        assert forked == refs
        assert pure.store_to_text(forked_st) == pure.store_to_text(st)


@needs_compiled
def test_kernel_selection():
    assert interned.kernel_name() == "compiled"
    assert interned.available_kernels() == ["python", "compiled"]
    assert interned.new_manager().IMPL == "compiled"
    assert interned.new_manager("python").IMPL == "python"
    assert interned.new_manager("compiled").IMPL == "compiled"
    with pytest.raises(ValueError):
        interned.new_manager("fortran")


# -- reset -------------------------------------------------------------------


def test_reset_invalidates_old_handles(manager):
    h = manager.node(1, manager.false, manager.true)
    manager.reset()
    assert manager.pool_size() == 2
    with pytest.raises(ForeignHandle):
        manager.neg(h)


# -- DOT export ---------------------------------------------------------------


def test_dot_single_node(manager):
    h = frontend.compile_interned(frontend.parse("!x2"), manager)
    text = interned.to_dot(h)
    assert text.startswith("digraph bdd {")
    assert f'n{h.uid} [label="x2", shape=circle];' in text
    assert f"n{h.uid} -> n{manager.true.uid} [style=dashed];" in text
    assert f"n{h.uid} -> n{manager.false.uid} [style=solid];" in text
    assert text.count("shape=circle") == 1
    assert text.count("shape=box") == 2


def test_dot_xor_shares_nodes(manager):
    h = frontend.compile_interned(frontend.parse("x1 ^ x2"), manager)
    text = interned.to_dot(h)
    assert text.count("shape=circle") == 3  # one x1 node, two x2 nodes
    assert text.count("shape=box") == 2


def test_dot_constant(manager):
    text = interned.to_dot(manager.true)
    assert text.count("label=") == 1
    assert '[label="T", shape=box];' in text
    assert "->" not in text


def test_dot_emits_children_first(manager):
    h = frontend.compile_interned(frontend.parse("(x1 & x2) | x3"), manager)
    text = interned.to_dot(h)
    declared = []
    for line in text.splitlines():
        line = line.strip()
        if "[label=" in line:
            declared.append(line.split()[0])
        elif "->" in line:
            src = line.split()[0]
            assert src in declared


def test_import_pure_matches_interned_compile(manager):
    from bddhc import pure

    f = frontend.parse("(x1 | x2) ^ !x3")
    st = pure.empty_store()
    ref, st = frontend.compile_pure(f, st)
    mirrored = graph.copy(ref, pure.expander(st), manager)
    direct = frontend.compile_interned(f, manager)
    assert manager.structural_eq(mirrored, direct)


# -- the compiled kernel's contract, memory and deep diagrams ----------------


def test_kernel_has_every_public_name_of_the_python_kernel(manager):
    def public(obj):
        return {name for name in dir(obj) if not name.startswith("_")}

    python = PyManager()
    h = manager.node(1, manager.false, manager.true)
    assert public(python) <= public(manager)
    assert public(python.node(1, python.false, python.true)) <= public(h)
    with pytest.raises(TypeError):
        type(h)()
    if manager.IMPL == "compiled":
        # handles are acyclic, so the cyclic collector never sees them
        assert not gc.is_tracked(h)
        # the kernel reads table entries as handles, so it checks their type
        manager.memo_entries()["not"][h.uid] = "junk"
        with pytest.raises(TypeError, match="is not a handle: 'junk'"):
            manager.neg(h)


def _exercise(m, other):
    """Compile, apply, every error path of the kernel's methods, reset."""
    f = frontend.parse("(x1 ^ x2) & (x3 | !x4) | (x2 & !x5)")
    h = frontend.compile_interned(f, m)
    for op in ("and", "or", "xor"):
        m.apply_binop(op, h, m.neg(h))
    failing = [
        lambda: m.node(0, m.false, m.true),
        lambda: m.node(MAX_VAR + 1, m.false, m.true),  # compiled kernel only
        lambda: m.node(1, "nope", m.true),
        lambda: m.node(1, other.false, m.true),
        lambda: m.node(h.var, h, m.true),
        lambda: m.neg(5),
        lambda: m.apply_binop("nand", h, h),
        lambda: m.apply_binop(["and"], h, h),
    ]
    for call in failing:
        try:
            call()
        except (BddError, ValueError):
            pass
    repr(h), m.stats(), m.memo_entries(), list(m.iter_pool()), m.structural_eq(h, h)
    m.reset()


def test_kernel_frees_what_it_allocates(kernel):
    m, other = interned.new_manager(kernel), interned.new_manager(kernel)
    _exercise(m, other)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(20):
        _exercise(m, other)
    gc.collect()
    # an object lost per round would show as at least 20 blocks
    assert sys.getallocatedblocks() - before < 20


_KERNEL_SCRIPT = """
import importlib, sys
sys.path.insert(0, sys.argv[2])
import bddhc
bddhc.__path__.insert(0, sys.argv[3])
m = importlib.import_module(sys.argv[1]).Manager()
"""


def _run_on_kernel(manager, script):
    """Run ``script`` in a fresh process where ``m`` is a new manager of the
    kernel ``manager`` comes from, so that a crash fails only this test."""
    # the module of the manager class that defines the hot path
    hot = next(cls for cls in type(manager).__mro__ if "node" in vars(cls))
    kernel = sys.modules[hot.__module__]
    src = Path(bddhc.__file__).parent.parent
    args = [kernel.__name__, str(src), str(Path(kernel.__file__).parent)]
    run = subprocess.run(
        [sys.executable, "-c", _KERNEL_SCRIPT + script, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr


def test_freeing_a_deep_diagram_keeps_the_c_stack_flat(manager):
    # each handle holds its child, so freeing the root frees a 10**6 chain
    _run_on_kernel(manager, """
h = m.true
for v in range(10**6, 0, -1):
    h = m.node(v, m.false, h)
del h
m.reset()
""")


def test_deep_recursion_raises_recursion_error(manager):
    # neg and apply_binop recurse once per level; on a 10**5-level chain
    # the compiled kernel would overflow the C stack without its limit
    _run_on_kernel(manager, """
a, b = m.true, m.false
for v in range(10**5, 0, -1):
    a, b = m.node(v, m.false, a), m.node(v, m.true, b)
for call in (lambda: m.neg(a), lambda: m.apply_binop("or", a, b)):
    try:
        call()
    except RecursionError:
        pass
    else:
        sys.exit("no RecursionError")
x = m.node(1, m.false, m.true)
assert m.neg(x) is m.node(1, m.true, m.false)
""")


@needs_compiled
def test_compiled_kernel_recurses_below_its_depth_limit():
    # far past the Python kernel's limit, within the compiled kernel's
    m = interned.new_manager("compiled")
    a = m.true
    for v in range(20000, 0, -1):
        a = m.node(v, m.false, a)
    not_a = m.neg(a)
    assert m.neg(not_a) is a
    assert m.apply_binop("and", a, not_a) is m.false
    assert m.apply_binop("or", a, not_a) is m.true
