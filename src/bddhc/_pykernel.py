"""Python kernel of the interned backend, and the API both kernels share.

``ManagerBase`` writes the manager methods off the hot path once, over
what each kernel provides (see its docstring).  ``Manager`` here and the
hand-written C kernel in ``_speedups.c`` add only the hot path: ``node``,
``neg``, ``apply_binop`` and ``reset``.  Given the same call sequence,
both assign identical uids, raise the same errors and report identical
statistics.  Only the compiled ``node`` also rejects a variable above
``core.MAX_VAR``, which its C ``int`` cannot hold.  Both kernels draw
manager tags from ``_manager_ids``, so a handle of one kernel is foreign
to every manager of the other.  ``bddhc.interned`` lists the kernels.

Hot path
========
``Manager.node`` keeps every check, in the same order and with the same
exception and message: the variable, ``low``'s then ``high``'s owner,
then ``low``'s then ``high``'s variable order.  It runs them inline on
``self._tag`` read once per call: ``type(var) is int and var >= 1`` and
``type(x) is Handle and x.tag == tag`` are the fast tests, and anything
else (bools, int subclasses, bad values, foreign or non-handle children)
goes to the full ``check_var``/``_check_owned``.  The apply and negation
recursions read ``uid``/``terminal``/``var`` into locals once and branch
on the smaller top variable inline.

and/or/xor share one memoized Shannon expansion, ``_apply_rec(op, a, b)``.
``op`` is the manager's record for that operation (``_Op``: its kind,
memo table and hit/miss counters), looked up once by ``apply_binop``;
the leaf rules read ``op.kind`` only when an operand is a leaf or both
are the same node.  ``_neg_rec`` keeps its own recursion on the ``not``
record.  Binding ``self._apply_rec`` to a local per call measured slower
and is not used.  The recursions call ``self.node`` and ``self._neg_rec``
through the instance, so a wrapper set as an instance attribute (a
tracer, say) sees every constructor call.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from .core import (
    BINOPS,
    OPS,
    STAT_KEYS,
    ForeignHandle,
    InvalidChild,
    OrderViolation,
    check_var,
)

_manager_ids = itertools.count(1)


class Handle:
    """Reference to one hash-consed node; compare via ``uid``.

    ``terminal`` is 1 for the true leaf, 0 for the false leaf and -1 for
    decision nodes.  Only decision nodes have a meaningful ``var`` (their
    branch variable) and non-None ``low``/``high``.
    """

    __slots__ = ("uid", "var", "low", "high", "terminal", "tag")

    def __init__(self, uid, var, low, high, terminal, tag):
        self.uid = uid
        self.var = var
        self.low = low
        self.high = high
        self.terminal = terminal
        self.tag = tag

    def __repr__(self):
        if self.terminal == 1:
            return f"<Handle {self.uid}: T>"
        if self.terminal == 0:
            return f"<Handle {self.uid}: F>"
        return f"<Handle {self.uid}: x{self.var} -> {self.low.uid}/{self.high.uid}>"


class _Op:
    """One memoized operation of a manager: its memo table and counters."""

    __slots__ = ("kind", "memo", "hits", "misses")

    def __init__(self, kind: str):
        self.kind = kind
        self.memo: dict = {}
        self.hits = self.misses = 0


class ManagerBase:
    """The manager methods off the hot path, written once for both kernels.

    A kernel provides the leaves ``true``/``false``, the unique table
    ``_unique``, ``_memos`` (a fixed dict from operation name to memo
    table), one readable counter per name in ``core.STAT_KEYS``, ``IMPL``
    and the hot methods ``node``, ``neg``, ``apply_binop`` and ``reset``.
    """

    __slots__ = ()

    def constant(self, value: bool) -> Handle:
        return self.true if value else self.false

    def structural_eq(self, a: Handle, b: Handle) -> bool:
        """Constant-time equality; equivalent to deep tree comparison."""
        self._check_owned(a)
        self._check_owned(b)
        return a.uid == b.uid

    def pool_size(self) -> int:
        """Live pool entries, the two leaves included."""
        return 2 + len(self._unique)

    def iter_pool(self) -> Iterator[Handle]:
        yield self.true
        yield self.false
        yield from list(self._unique.values())

    def stats(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in STAT_KEYS}

    def memo_entries(self) -> dict[str, dict]:
        """Live cache tables, keyed by operation.  Read-only use."""
        return dict(self._memos)

    def clear_caches(self) -> None:
        """Drop all memo tables (the pool is untouched)."""
        for memo in self._memos.values():
            memo.clear()

    def _check_owned(self, h) -> None:
        # another manager's or kernel's handle, or any other object with
        # both ``tag`` and ``uid``, is foreign; anything else is no handle
        true = self.true
        if type(h) is type(true) and h.tag == true.tag:
            return
        if hasattr(h, "tag") and hasattr(h, "uid"):
            raise ForeignHandle("handle belongs to a different manager")
        raise InvalidChild(f"not a handle: {h!r}")


class Manager(ManagerBase):
    """Mutable pool of hash-consed BDD nodes with memoized operations.

    One manager and its handles form a single-owner unit: constructing
    or memoizing operations must be externally serialized.  Distinct
    managers are fully independent; mixing their handles raises
    ``ForeignHandle``.
    """

    IMPL = "python"

    def __init__(self):
        self._unique: dict[tuple[int, int, int], Handle] = {}
        self._ops = {kind: _Op(kind) for kind in OPS}
        self._not = self._ops["not"]
        self._memos = {kind: op.memo for kind, op in self._ops.items()}
        self.reset()

    # -- construction -------------------------------------------------

    def node(self, var: int, low: Handle, high: Handle) -> Handle:
        """Reducing, hash-consing constructor for a decision node."""
        tag = self._tag
        if type(var) is not int or var < 1:
            check_var(var)
        if type(low) is not Handle or low.tag != tag:
            self._check_owned(low)
        if type(high) is not Handle or high.tag != tag:
            self._check_owned(high)
        if low.terminal < 0 and low.var <= var:
            raise OrderViolation(f"child variable x{low.var} is not below x{var}")
        if high.terminal < 0 and high.var <= var:
            raise OrderViolation(f"child variable x{high.var} is not below x{var}")
        lu, hu = low.uid, high.uid
        if lu == hu:
            return low
        key = (var, lu, hu)
        found = self._unique.get(key)
        if found is not None:
            self.intern_hits += 1
            return found
        self.intern_misses += 1
        made = Handle(self._next_uid, var, low, high, -1, tag)
        self._next_uid += 1
        self._unique[key] = made
        return made

    # -- operations ----------------------------------------------------

    def neg(self, a: Handle) -> Handle:
        """Pointwise complement, memoized per node."""
        self._check_owned(a)
        return self._neg_rec(a)

    def _neg_rec(self, a: Handle) -> Handle:
        t = a.terminal
        if t >= 0:
            return self.false if t == 1 else self.true
        u = a.uid
        op = self._not
        found = op.memo.get(u)
        if found is not None:
            op.hits += 1
            return found
        op.misses += 1
        made = self.node(a.var, self._neg_rec(a.low), self._neg_rec(a.high))
        op.memo[u] = made
        return made

    def apply_binop(self, op: str, a: Handle, b: Handle) -> Handle:
        """Pointwise and/or/xor via Shannon expansion, memoized on uid pairs."""
        self._check_owned(a)
        self._check_owned(b)
        if op not in BINOPS:
            raise ValueError(f"unknown operation {op!r}")
        return self._apply_rec(self._ops[op], a, b)

    def _apply_rec(self, op: _Op, a: Handle, b: Handle) -> Handle:
        au, bu = a.uid, b.uid
        if au == bu:
            return self.false if op.kind == "xor" else a
        at, bt = a.terminal, b.terminal
        if at >= 0 or bt >= 0:
            kind = op.kind
            if kind == "and":
                if at == 0 or bt == 0:
                    return self.false
                return b if at == 1 else a
            if kind == "or":
                if at == 1 or bt == 1:
                    return self.true
                return b if at == 0 else a
            # xor: false is its identity; against true it is negation,
            # which the not-cache carries
            if at == 0:
                return b
            if bt == 0:
                return a
            return self._neg_rec(b) if at == 1 else self._neg_rec(a)
        key = (au, bu)
        found = op.memo.get(key)
        if found is not None:
            op.hits += 1
            return found
        op.misses += 1
        av, bv = a.var, b.var
        if av == bv:
            low = self._apply_rec(op, a.low, b.low)
            high = self._apply_rec(op, a.high, b.high)
        elif av < bv:
            low = self._apply_rec(op, a.low, b)
            high = self._apply_rec(op, a.high, b)
        else:
            av = bv
            low = self._apply_rec(op, a, b.low)
            high = self._apply_rec(op, a, b.high)
        made = self.node(av, low, high)
        op.memo[key] = made
        return made

    def reset(self) -> None:
        """Empty the pool and caches; previously issued handles are dead."""
        self._tag = next(_manager_ids)
        self._unique.clear()
        self.intern_hits = self.intern_misses = 0
        for op in self._ops.values():
            op.memo.clear()
            op.hits = op.misses = 0
        self.true = Handle(1, 0, None, None, 1, self._tag)
        self.false = Handle(2, 0, None, None, 0, self._tag)
        self._next_uid = 3


def _counter(kind: str, field: str) -> property:
    return property(lambda m: getattr(m._ops[kind], field))


# the per-operation counters stay readable as ``not_hits``, ``and_misses``, ...
for _kind in OPS:
    setattr(Manager, f"{_kind}_hits", _counter(_kind, "hits"))
    setattr(Manager, f"{_kind}_misses", _counter(_kind, "misses"))
del _kind
