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

Handles as views
================
``Manager`` checks its arguments as the C kernel does, in the same order
and with the same exception and message (the variable, ``low``'s then
``high``'s owner, then their variable order), and runs the shared Python
engine (``_engine``) on its own arena.  A handle is a view of one arena
ref, made when first needed (``_Pool.handle``): node uid = arena id + 2,
and ``low``/``high`` are read from the arena that made it.  A wrapper set
as an instance attribute (a tracer, say) sees the public calls only; the
recursions build through ``_engine.mk``.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Iterator

from . import _engine
from .core import (
    BINOPS,
    LEAF_FALSE,
    LEAF_TRUE,
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
    branch variable) and non-None ``low``/``high``, read from their pool.
    """

    __slots__ = ("uid", "var", "terminal", "tag", "_ref", "_pool")

    def __init__(self, uid, var, terminal, tag, ref, pool):
        self.uid = uid
        self.var = var
        self.terminal = terminal
        self.tag = tag
        self._ref = ref
        self._pool = pool

    low = property(lambda h: h._child(0))
    high = property(lambda h: h._child(2))

    def _child(self, field: int):
        if self.terminal < 0:
            return self._pool.handle(self._pool.cells[self._ref - 1][field])

    def __repr__(self):
        if self.terminal == 1:
            return f"<Handle {self.uid}: T>"
        if self.terminal == 0:
            return f"<Handle {self.uid}: F>"
        return f"<Handle {self.uid}: x{self.var} -> {self.low.uid}/{self.high.uid}>"


class _Pool(_engine.Arena):
    """One manager's engine arena, from one ``reset`` to the next, and the
    handles made of its refs, kept so that ``is`` holds between the handles
    of one node.  A node handle holds the pool, so the two hold each other
    until ``retire``; the leaves hold no pool."""

    __slots__ = ("tag", "leaves", "handles")

    def __init__(self, tag: int):
        super().__init__()
        self.tag = tag
        self.leaves = (
            Handle(1, 0, 1, tag, LEAF_TRUE, None),
            Handle(2, 0, 0, tag, LEAF_FALSE, None),
        )
        self.retire()

    def retire(self) -> None:
        """Drop the node handles made so far, so that a pool no manager
        uses is freed without the cyclic collector once no handle holds it."""
        self.handles = {leaf._ref: leaf for leaf in self.leaves}

    def handle(self, ref) -> Handle:
        """The handle of ``ref``, a leaf or an arena id."""
        made = self.handles.get(ref)
        if made is None:
            var = self.cells[ref - 1][1]
            made = self.handles[ref] = Handle(ref + 2, var, -1, self.tag, ref, self)
        return made


class ManagerBase:
    """The manager methods off the hot path, written once for both kernels.

    A kernel provides the leaves ``true``/``false``, ``_memos`` (a dict
    from operation name to memo table, keyed by uids), one readable
    counter per name in ``core.STAT_KEYS``, ``IMPL`` and the hot methods
    ``node``, ``neg``, ``apply_binop`` and ``reset``, and the C kernel its
    unique table ``_unique``; the Python kernel reads its arena instead.
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
    _pool = None

    def __init__(self):
        self.reset()

    def __del__(self):
        # a pool and its node handles hold each other (see ``_Pool``)
        if self._pool is not None:
            self._pool.retire()

    def node(self, var: int, low: Handle, high: Handle) -> Handle:
        """Reducing, hash-consing constructor for a decision node."""
        pool = self._pool
        tag = pool.tag
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
        return pool.handle(_engine.mk(pool, low._ref, var, high._ref))

    def neg(self, a: Handle) -> Handle:
        """Pointwise complement, memoized per node."""
        self._check_owned(a)
        pool = self._pool
        return pool.handle(_engine.neg(pool, a._ref))

    def apply_binop(self, op: str, a: Handle, b: Handle) -> Handle:
        """Pointwise and/or/xor via Shannon expansion, memoized on uid pairs."""
        self._check_owned(a)
        self._check_owned(b)
        if op not in BINOPS:
            raise ValueError(f"unknown operation {op!r}")
        pool = self._pool
        return pool.handle(_engine.apply(pool, op, a._ref, b._ref))

    def reset(self) -> None:
        """Empty the pool and caches; previously issued handles are dead."""
        self.__del__()  # retire the pool this one replaces
        self._pool = pool = _Pool(next(_manager_ids))
        self.true, self.false = pool.leaves

    # -- views of the arena for ``ManagerBase`` and the validator ------

    def pool_size(self) -> int:
        return 2 + len(self._pool.cells)

    def iter_pool(self) -> Iterator[Handle]:
        # every id of the arena, so a pool that holds a node twice shows it
        pool = self._pool
        ids = range(1, len(pool.cells) + 1)
        return iter([self.true, self.false, *map(pool.handle, ids)])

    @property
    def _memos(self) -> dict[str, Mapping]:
        return {kind: _MemoView(self, kind) for kind in OPS}

    def clear_caches(self) -> None:
        """Drop all memo tables (the pool is untouched)."""
        for op in self._pool.ops.values():
            op.memo.clear()


class _MemoView(Mapping):
    """Live read-only view of one memo table of a manager's arena, with the
    C kernel's keys (a uid, or a pair of uids) and handle values.  A binary
    table's packed keys are decoded and encoded by ``_engine``'s helpers; a
    pair with a leaf uid or an id outside their domain finds nothing."""

    def __init__(self, m: Manager, kind: str):
        self._m, self._kind = m, kind

    def _memo(self) -> dict:
        return self._m._pool.ops[self._kind].memo

    def __len__(self) -> int:
        return len(self._memo())

    def __iter__(self):
        if self._kind == "not":
            return (k + 2 for k in self._memo())
        return ((a + 2, b + 2) for a, b in map(_engine.unpack_key, self._memo()))

    def __getitem__(self, key):
        if self._kind == "not":
            ref = key - 2
        else:
            a, b = key[0] - 2, key[1] - 2
            limit = _engine.ID_LIMIT
            ref = _engine.pack_key(a, b) if 0 < a < limit and 0 < b < limit else None
        found = self._memo().get(ref)
        if found is None:
            raise KeyError(key)
        return self._m._pool.handle(found)


# the counters stay readable as ``intern_hits``, ``not_hits``, ``and_misses``, ...
for _key in STAT_KEYS:
    setattr(Manager, _key, property(lambda m, key=_key: m._pool.stats[key]))
del _key
