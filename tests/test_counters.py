"""Golden counters: a change that only claims speed leaves these exact.

The values were recorded before the pure backend's hot path was
inlined.  Both backends must reproduce them, so they also pin that the
backends count the same work.
"""
import hashlib
import random

from bddhc import _engine, frontend, interned, pure
from bddhc.core import LEAF_TRUE

QUEENS_5 = {
    "stats": {
        "intern_hits": 2018, "intern_misses": 3817,
        "not_hits": 136, "not_misses": 184,
        "and_hits": 1147, "and_misses": 5515,
        "or_hits": 0, "or_misses": 40,
        "xor_hits": 0, "xor_misses": 0,
    },
    "nodes": 3817,
    "memo": {"not": 184, "and": 5515, "or": 40, "xor": 0},
}

# random_formula(Random(1), max_var=8, max_depth=9), twice, XORed together
RANDOM_PAIR_XOR = {
    "stats": {
        "intern_hits": 379, "intern_misses": 610,
        "not_hits": 205, "not_misses": 149,
        "and_hits": 70, "and_misses": 307,
        "or_hits": 52, "or_misses": 242,
        "xor_hits": 31, "xor_misses": 215,
    },
    "nodes": 610,
    "memo": {"not": 149, "and": 307, "or": 242, "xor": 215},
}

# every constructor call of the Python kernel, public ``node`` and the
# recursions' alike, in order, over queens 5, then 200
# random_formula(Random(5), max_var=8, max_depth=9), then the xor of each
# consecutive pair of those 200, all in one manager
NODE_CALL_LOG = {"calls": 56917, "sha256": "e6949eb908ac59c3"}

# the pure store after the same sequence as NODE_CALL_LOG, in one store:
# its node count, next id and a digest of its text form pin the arena order
PURE_ARENA = {"nodes": 25122, "next": 25123, "sha256": "da881a60947b1b40"}


def _random_pair():
    rng = random.Random(1)
    return [frontend.random_formula(rng, max_var=8, max_depth=9) for _ in range(2)]


def _pure_facts(formulas, xor):
    st = pure.empty_store()
    refs = []
    for f in formulas:
        ref, st = frontend.compile_pure(f, st)
        refs.append(ref)
    if xor:
        _, st = pure.apply_binop(st, "xor", refs[0], refs[1])
    memo = st.memo
    return {
        "stats": pure.store_stats(st),
        "nodes": pure.node_count(st),
        "memo": {
            "not": len(memo.mneg),
            "and": len(memo.mand),
            "or": len(memo.mor),
            "xor": len(memo.mxor),
        },
    }


def _interned_facts(formulas, xor, kernel):
    m = interned.new_manager(kernel)
    handles = [frontend.compile_interned(f, m) for f in formulas]
    if xor:
        m.apply_binop("xor", handles[0], handles[1])
    return {
        "stats": m.stats(),
        "nodes": m.pool_size() - 2,
        "memo": {op: len(table) for op, table in m.memo_entries().items()},
    }


def test_queens_5_counters_are_pinned(kernel):
    formulas = [frontend.queens_formula(5)]
    assert _pure_facts(formulas, xor=False) == QUEENS_5
    assert _interned_facts(formulas, False, kernel) == QUEENS_5


def test_random_pair_xor_counters_are_pinned(kernel):
    assert all(RANDOM_PAIR_XOR["stats"].values())
    assert _pure_facts(_random_pair(), xor=True) == RANDOM_PAIR_XOR
    assert _interned_facts(_random_pair(), True, kernel) == RANDOM_PAIR_XOR


def test_python_kernel_counts_public_calls_only():
    """A counting wrapper set on the instance sees the public calls only.

    perfbench's tracer shadows ``node``/``neg`` with instance attributes;
    a compile folds the whole formula on the arena and the recursions build
    through the engine, never through the instance, so the wrapper sees no
    call from ``compile_interned``, only the caller's own.
    """
    m = interned.new_manager("python")
    calls = {"node": 0, "neg": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    m.node = counting("node", m.node)
    m.neg = counting("neg", m.neg)
    f = frontend.queens_formula(5)
    root = frontend.compile_interned(f, m)
    assert calls == {"node": 0, "neg": 0}
    assert m.stats() == QUEENS_5["stats"]
    m.neg(m.node(1, m.false, m.true))
    assert calls == {"node": 1, "neg": 1}
    assert m.neg(root) is not root
    assert calls == {"node": 1, "neg": 2}


def test_counter_attributes_match_stats(kernel):
    m = interned.new_manager(kernel)
    frontend.compile_interned(frontend.queens_formula(5), m)
    assert {k: getattr(m, k) for k in m.stats()} == m.stats()


def _uid(ref):
    # the kernel's uid of an arena ref: the leaves are 1 and 2, then id + 2
    if type(ref) is int:
        return ref + 2
    return 1 if ref is LEAF_TRUE else 2


def test_python_kernel_node_call_order_is_pinned(monkeypatch):
    """Uids and counters only pin totals; this pins each constructor call,
    logged by wrapping the engine's constructor."""
    m = interned.new_manager("python")
    digest = hashlib.sha256()
    calls = 0
    mk = _engine.mk

    def logged(arena, low, var, high):
        nonlocal calls
        made = mk(arena, low, var, high)
        digest.update(f"{var},{_uid(low)},{_uid(high)},{_uid(made)}\n".encode())
        calls += 1
        return made

    monkeypatch.setattr(_engine, "mk", logged)
    frontend.compile_interned(frontend.queens_formula(5), m)
    rng = random.Random(5)
    handles = [
        frontend.compile_interned(
            frontend.random_formula(rng, max_var=8, max_depth=9), m
        )
        for _ in range(200)
    ]
    for a, b in zip(handles, handles[1:]):
        m.apply_binop("xor", a, b)
    got = {"calls": calls, "sha256": digest.hexdigest()[:16]}
    assert got == NODE_CALL_LOG


def test_pure_arena_order_is_pinned():
    """The pure counterpart of the node call log: every id in arena order."""
    st = pure.empty_store()
    _, st = frontend.compile_pure(frontend.queens_formula(5), st)
    rng = random.Random(5)
    refs = []
    for _ in range(200):
        f = frontend.random_formula(rng, max_var=8, max_depth=9)
        ref, st = frontend.compile_pure(f, st)
        refs.append(ref)
    for a, b in zip(refs, refs[1:]):
        _, st = pure.apply_binop(st, "xor", a, b)
    text = pure.store_to_text(st)
    got = {
        "nodes": pure.node_count(st),
        "next": st.next,
        "sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
    }
    assert got == PURE_ARENA
