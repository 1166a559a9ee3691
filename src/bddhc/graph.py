"""Read-only walks over a finished BDD, written once for both backends.

A backend describes its representation with one ``expand`` function:
``expand(ref)`` returns ``(value, var, low, high)``, where a leaf has
``var`` None and ``value`` its truth value, and a decision node has
``value`` None and its variable and branch references in the other three
fields.  References must be hashable, and two references to the same node
must be equal: pure node ids and leaves are, and so are interned handles,
which are pooled one object per node.  ``expand`` raises for a reference
its graph does not hold.

Nothing here builds nodes except :func:`copy`, which goes through the
target manager's own constructor.
"""
from __future__ import annotations

import operator
from itertools import product
from typing import Callable, Iterable, Iterator

from .core import OPS, BddError

_CYCLE = "BDD graph contains a cycle"

# the function each memoized operation must compute, by op name; the
# operands are the bools ``follow`` returns
_FUNCTIONS = dict(zip(OPS, (operator.not_, operator.and_, operator.or_, operator.xor)))


def walk(root, expand: Callable) -> Iterator[tuple]:
    """Yield ``(ref, expand(ref))`` for each node reachable from ``root``.

    Post-order with an explicit stack, so depth costs no interpreter
    frames: each node once, after its 0-branch's nodes and then its
    1-branch's nodes, which is the order a recursive ``f(low)``,
    ``f(high)``, then node walk takes.  A node met again while its own
    branches are still open means the graph has a cycle (a corrupt
    store, say), and raises ``BddError``.
    """
    done: dict = {}  # ref -> True once yielded, False while its branches are open
    stack: list = [(root, None)]
    while stack:
        ref, fields = stack.pop()
        if fields is not None:
            done[ref] = True
            yield ref, fields
            continue
        state = done.get(ref)
        if state:
            continue
        if state is False:
            raise BddError(_CYCLE)
        fields = expand(ref)
        _, var, low, high = fields
        if var is None:
            done[ref] = True
            yield ref, fields
            continue
        done[ref] = False
        stack.append((ref, fields))
        stack.append((high, None))
        stack.append((low, None))


def size(root, expand: Callable) -> int:
    """Distinct nodes reachable from ``root``, leaves included."""
    return sum(1 for _ in walk(root, expand))


def cone_vars(root, expand: Callable) -> set[int]:
    """Variables labeling the decision nodes reachable from ``root``."""
    return {var for _, (_, var, _, _) in walk(root, expand) if var is not None}


def follow(root, expand: Callable, choose: Callable[[int], object]) -> bool:
    """Value of the leaf reached from ``root``, one branch at a time.

    At a node labeled ``var`` the 1-branch is taken when ``choose(var)``
    is true.  Revisiting a node on the path raises ``BddError``.
    """
    path = set()
    ref = root
    value, var, low, high = expand(ref)
    while var is not None:
        if ref in path:
            raise BddError(_CYCLE)
        path.add(ref)
        ref = high if choose(var) else low
        value, var, low, high = expand(ref)
    return value


def count_models(root, n: int, expand: Callable) -> int:
    """Satisfying assignments of the BDD under ``root`` over ``x1..xn``.

    Path counting: a branch that skips ``g`` variable levels contributes
    its count times ``2**g``.  ``counts`` holds each node's models over
    the variables from its level down, with that level (``n + 1`` for a
    leaf).
    """
    counts: dict = {}
    for ref, (value, var, low, high) in walk(root, expand):
        if var is None:
            counts[ref] = (1 if value else 0, n + 1)
            continue
        if var > n:
            raise ValueError(f"node variable x{var} above the declared span {n}")
        low_count, low_level = counts[low]
        high_count, high_level = counts[high]
        count = (low_count << (low_level - var - 1)) + (
            high_count << (high_level - var - 1)
        )
        counts[ref] = (count, var)
    count, level = counts[root]
    return count << (level - 1)


def copy(root, expand: Callable, m):
    """Rebuild the BDD under ``root`` through manager ``m``'s constructor.

    Nodes are built children first, 0-branch before 1-branch, so a copy
    into a fresh manager hands out uids in the order a recursive copy
    would.
    """
    made: dict = {}
    for ref, (value, var, low, high) in walk(root, expand):
        if var is None:
            made[ref] = m.constant(value)
        else:
            made[ref] = m.node(var, made[low], made[high])
    return made[root]


def memo_faults(entries: Iterable[tuple], expand: Callable) -> Iterator[tuple]:
    """Memo entries whose result is not the operation applied to its operands.

    ``entries`` holds ``(op, operands, value)`` triples with ``op`` in
    ``not``/``and``/``or``/``xor``.  Each is checked under every
    assignment of the variables its operands and result depend on, which
    is exponential in that count; the first wrong assignment is yielded
    as ``(op, operands, value, assignment)``.
    """
    for op, operands, value in entries:
        fn = _FUNCTIONS[op]
        vars_ = sorted(set().union(*(cone_vars(r, expand) for r in (*operands, value))))
        for bits in product((False, True), repeat=len(vars_)):
            assignment = dict(zip(vars_, bits))
            choose = assignment.__getitem__
            want = fn(*[follow(ref, expand, choose) for ref in operands])
            if follow(value, expand, choose) != want:
                yield op, operands, value, assignment
                break
