"""Shared test machinery: reference stores, random operation traces,
formula strategies and a manager that does not reduce."""
from __future__ import annotations

import random

from hypothesis import strategies as st

from bddhc.core import LEAF_FALSE, LEAF_TRUE, And, Const, Node, Not, Or, Ref, Xor
from bddhc import _engine, _pykernel, pure


def ascending_chain_store():
    """Hand-numbered three-node chain: 1 -> (F, x1, 2), 2 -> (F, x2, 3),
    3 -> (F, x3, T).  Ids ascend toward the leaves, the opposite of what
    mk_node produces, so this store is useful for read-path tests and as
    a known validator offender."""
    graph = {
        1: Node(LEAF_FALSE, 1, 2),
        2: Node(LEAF_FALSE, 2, 3),
        3: Node(LEAF_FALSE, 3, LEAF_TRUE),
    }
    return pure.store_from_parts(graph)


_mk = _engine.mk


def _mk_unreduced(arena, low, var, high):
    """``_engine.mk`` without the collapse: a node with equal branches is
    hash-consed and allocated like any other."""
    if low != high:
        return _mk(arena, low, var, high)
    key = (low, var, high)
    found = arena.hmap.get(key)
    if found is not None:
        arena.intern_hits += 1
        return found
    arena.intern_misses += 1
    arena.cells.append(key)
    found = arena.hmap[key] = len(arena.cells)
    return found


class UnreducedManager(_pykernel.Manager):
    """A Python-kernel manager that keeps the nodes reduction collapses, in
    ``node``, ``compile`` and the recursions alike: the fault the validators
    and the selftest must catch.  Each call runs with ``_mk_unreduced`` in
    place of the engine's constructor."""

    def compile(self, f):
        return _unreduced(super().compile, f)

    def node(self, var, low, high):
        return _unreduced(super().node, var, low, high)

    def neg(self, a):
        return _unreduced(super().neg, a)

    def apply_binop(self, op, a, b):
        return _unreduced(super().apply_binop, op, a, b)


def _unreduced(method, *args):
    saved = _engine.mk
    _engine.mk = _mk_unreduced
    try:
        return method(*args)
    finally:
        _engine.mk = saved


def formulas(max_var: int, max_leaves: int):
    """Hypothesis strategy for formulas over ``x1..x{max_var}``."""
    return st.recursive(
        st.one_of(
            st.integers(1, max_var).map(Ref),
            st.sampled_from([Const(True), Const(False)]),
        ),
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Xor(*t)),
        ),
        max_leaves=max_leaves,
    )


def gen_trace(rng: random.Random, length: int, max_var: int = 4) -> list[tuple]:
    """Random operation trace; step k may reference any earlier result.

    Result slots 0 and 1 are pre-seeded with the true and false leaves.
    """
    ops = []
    produced = 2
    for _ in range(length):
        roll = rng.random()
        if roll < 0.3:
            ops.append(("var", rng.randint(1, max_var)))
        elif roll < 0.5:
            ops.append(("neg", rng.randrange(produced)))
        else:
            ops.append(
                (
                    "binop",
                    rng.choice(("and", "or", "xor")),
                    rng.randrange(produced),
                    rng.randrange(produced),
                )
            )
        produced += 1
    return ops


def play_pure(ops, st=None, on_step=None, clear_between=False, refs=None):
    """Run a trace on the pure backend; returns (refs, final store).

    ``on_step(pre, post, ref)`` is called after each operation.  ``refs``
    continues a trace: the results of its earlier steps, leaves first.
    """
    refs = [LEAF_TRUE, LEAF_FALSE] if refs is None else list(refs)
    if st is None:
        st = pure.empty_store()
    for op in ops:
        if clear_between:
            st = pure.clear_memo(st)
        pre = st
        if op[0] == "var":
            ref, st = pure.mk_node(st, LEAF_FALSE, op[1], LEAF_TRUE)
        elif op[0] == "neg":
            ref, st = pure.neg(st, refs[op[1]])
        else:
            ref, st = pure.apply_binop(st, op[1], refs[op[2]], refs[op[3]])
        refs.append(ref)
        if on_step is not None:
            on_step(pre, st, ref)
    return refs, st


def play_interned(m, ops, clear_between=False):
    """Run a trace on an interned manager; returns the produced handles."""
    handles = [m.true, m.false]
    for op in ops:
        if clear_between:
            m.clear_caches()
        if op[0] == "var":
            handles.append(m.node(op[1], m.false, m.true))
        elif op[0] == "neg":
            handles.append(m.neg(handles[op[1]]))
        else:
            handles.append(m.apply_binop(op[1], handles[op[2]], handles[op[3]]))
    return handles


def _chain(op, terms):
    # x1 op x2 op x3 op x4 op x1 ..., left-deep
    f = Ref(1)
    for i in range(1, terms):
        f = op(f, Ref(i % 4 + 1))
    return f


def _nested_not(depth):
    f = Ref(1)
    for _ in range(depth):
        f = Not(f)
    return f


def _nested_groups(depth):
    # 1 & (1 & (... (x1 | !x1))): each group is a right operand, so the
    # text nests ``depth`` parentheses and the AST is as deep
    f = Or(Ref(1), Not(Ref(1)))
    for _ in range(depth):
        f = And(Const(True), f)
    return f


# Valid formulas far deeper than the interpreter's default recursion limit
# allows a recursive walk, each with a BDD over at most four variables.
DEEP_FORMULAS = {
    "not10000": lambda: _nested_not(10_000),  # x1
    "groups2000": lambda: _nested_groups(2000),  # true
    "or5000": lambda: _chain(Or, 5000),  # x1 | x2 | x3 | x4
    "xor5000": lambda: _chain(Xor, 5000),  # false: each variable 1250 times
}
