"""Pure-Python kernel for the interned backend.

Same observable behavior as the compiled kernel in ``_speedups``: given
the same call sequence, both assign identical uids and report identical
statistics.  ``bddhc.interned`` picks one of the two at import time.

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
on the smaller top variable inline.  The three apply recursions stay
separate (one folded recursion with a per-op dispatch measured slower),
and they call ``self.node`` and ``self._neg_rec`` through the instance,
so a wrapper set as an instance attribute (a tracer, say) sees every
constructor call.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from .core import (
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


class Manager:
    """Mutable pool of hash-consed BDD nodes with memoized operations.

    One manager and its handles form a single-owner unit: constructing
    or memoizing operations must be externally serialized.  Distinct
    managers are fully independent; mixing their handles raises
    ``ForeignHandle``.

    ``reduce_nodes=False`` disables the equal-children collapse so
    self-tests can confirm the surrounding checks catch unreduced nodes.
    """

    IMPL = "python"

    def __init__(self, reduce_nodes: bool = True):
        self.reduce_nodes = reduce_nodes
        self._unique: dict[tuple[int, int, int], Handle] = {}
        self._not_cache: dict[int, Handle] = {}
        self._and_cache: dict[tuple[int, int], Handle] = {}
        self._or_cache: dict[tuple[int, int], Handle] = {}
        self._xor_cache: dict[tuple[int, int], Handle] = {}
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
        if lu == hu and self.reduce_nodes:
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

    def constant(self, value: bool) -> Handle:
        return self.true if value else self.false

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
        found = self._not_cache.get(u)
        if found is not None:
            self.not_hits += 1
            return found
        self.not_misses += 1
        made = self.node(a.var, self._neg_rec(a.low), self._neg_rec(a.high))
        self._not_cache[u] = made
        return made

    def apply_binop(self, op: str, a: Handle, b: Handle) -> Handle:
        """Pointwise and/or/xor via Shannon expansion, memoized on uid pairs."""
        self._check_owned(a)
        self._check_owned(b)
        if op == "and":
            return self._and_rec(a, b)
        if op == "or":
            return self._or_rec(a, b)
        if op == "xor":
            return self._xor_rec(a, b)
        raise ValueError(f"unknown operation {op!r}")

    def conj(self, a: Handle, b: Handle) -> Handle:
        return self.apply_binop("and", a, b)

    def disj(self, a: Handle, b: Handle) -> Handle:
        return self.apply_binop("or", a, b)

    def xor(self, a: Handle, b: Handle) -> Handle:
        return self.apply_binop("xor", a, b)

    def _and_rec(self, a: Handle, b: Handle) -> Handle:
        au, bu = a.uid, b.uid
        if au == bu:
            return a
        at, bt = a.terminal, b.terminal
        if at >= 0 or bt >= 0:
            if at == 0 or bt == 0:
                return self.false
            return b if at == 1 else a
        key = (au, bu)
        found = self._and_cache.get(key)
        if found is not None:
            self.and_hits += 1
            return found
        self.and_misses += 1
        av, bv = a.var, b.var
        if av == bv:
            made = self.node(
                av, self._and_rec(a.low, b.low), self._and_rec(a.high, b.high)
            )
        elif av < bv:
            made = self.node(av, self._and_rec(a.low, b), self._and_rec(a.high, b))
        else:
            made = self.node(bv, self._and_rec(a, b.low), self._and_rec(a, b.high))
        self._and_cache[key] = made
        return made

    def _or_rec(self, a: Handle, b: Handle) -> Handle:
        au, bu = a.uid, b.uid
        if au == bu:
            return a
        at, bt = a.terminal, b.terminal
        if at >= 0 or bt >= 0:
            if at == 1 or bt == 1:
                return self.true
            return b if at == 0 else a
        key = (au, bu)
        found = self._or_cache.get(key)
        if found is not None:
            self.or_hits += 1
            return found
        self.or_misses += 1
        av, bv = a.var, b.var
        if av == bv:
            made = self.node(
                av, self._or_rec(a.low, b.low), self._or_rec(a.high, b.high)
            )
        elif av < bv:
            made = self.node(av, self._or_rec(a.low, b), self._or_rec(a.high, b))
        else:
            made = self.node(bv, self._or_rec(a, b.low), self._or_rec(a, b.high))
        self._or_cache[key] = made
        return made

    def _xor_rec(self, a: Handle, b: Handle) -> Handle:
        au, bu = a.uid, b.uid
        if au == bu:
            return self.false
        at, bt = a.terminal, b.terminal
        if at >= 0 or bt >= 0:
            if at == 0:
                return b
            if bt == 0:
                return a
            # xor against true is negation; the not-cache carries it
            return self._neg_rec(b) if at == 1 else self._neg_rec(a)
        key = (au, bu)
        found = self._xor_cache.get(key)
        if found is not None:
            self.xor_hits += 1
            return found
        self.xor_misses += 1
        av, bv = a.var, b.var
        if av == bv:
            made = self.node(
                av, self._xor_rec(a.low, b.low), self._xor_rec(a.high, b.high)
            )
        elif av < bv:
            made = self.node(av, self._xor_rec(a.low, b), self._xor_rec(a.high, b))
        else:
            made = self.node(bv, self._xor_rec(a, b.low), self._xor_rec(a, b.high))
        self._xor_cache[key] = made
        return made

    # -- equality and inspection ---------------------------------------

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
        return {
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
            "not_hits": self.not_hits,
            "not_misses": self.not_misses,
            "and_hits": self.and_hits,
            "and_misses": self.and_misses,
            "or_hits": self.or_hits,
            "or_misses": self.or_misses,
            "xor_hits": self.xor_hits,
            "xor_misses": self.xor_misses,
        }

    def memo_entries(self) -> dict[str, dict]:
        """Live cache tables, keyed by operation.  Read-only use."""
        return {
            "not": self._not_cache,
            "and": self._and_cache,
            "or": self._or_cache,
            "xor": self._xor_cache,
        }

    def clear_caches(self) -> None:
        """Drop all memo tables (the pool is untouched)."""
        self._not_cache.clear()
        self._and_cache.clear()
        self._or_cache.clear()
        self._xor_cache.clear()

    def reset_stats(self) -> None:
        self.intern_hits = self.intern_misses = 0
        self.not_hits = self.not_misses = 0
        self.and_hits = self.and_misses = 0
        self.or_hits = self.or_misses = 0
        self.xor_hits = self.xor_misses = 0

    def reset(self) -> None:
        """Empty the pool and caches; previously issued handles are dead."""
        self._tag = next(_manager_ids)
        self._unique.clear()
        self.clear_caches()
        self.reset_stats()
        self.true = Handle(1, 0, None, None, 1, self._tag)
        self.false = Handle(2, 0, None, None, 0, self._tag)
        self._next_uid = 3

    def _check_owned(self, h: Handle) -> None:
        tag = getattr(h, "tag", None)
        if tag != self._tag:
            if tag is None:
                raise InvalidChild(f"not a handle: {h!r}")
            raise ForeignHandle("handle belongs to a different manager")


def uid(a: Handle) -> int:
    """The handle's stable unique identifier."""
    return a.uid
