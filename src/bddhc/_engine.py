"""The one Python Shannon engine, on arena ids, under both Python backends.

An ``Arena`` holds node ``i`` as the tuple ``(low, var, high)`` at
``cells[i - 1]``, a child being a ``core.Leaf`` or an older id; ``hmap``
maps each tuple to its id, and ``ops`` holds one ``Op`` (memo table and
counters) per operation in ``core.OPS``.  ``mk`` is the only Python node
constructor, and ``neg``/``apply`` the only Python recursions: ``pure``
threads store versions over an arena and ``_pykernel`` hands out handles
as views of one, so both build the same nodes in the same order with
the same counts.  Nothing here checks its arguments, except ``fold``,
which tests each variable of a formula as ``pure.mk_node`` does; the
callers check theirs and trust only an arena that keeps what ``mk``
enforces.  The recursions and ``compile`` call ``mk``, ``neg`` and
``_apply`` through this module's globals, so a wrapper set on the module
sees every call.

Compiling a formula
===================
``fold`` is the one compile loop of the package: a post-order fold of
``core.postorder``'s list with a stack of values, over four callbacks.
``compile`` runs it with this module's constructor and recursions on an
arena, inside one operation of the caller's (``pure.compile``,
``_pykernel.Manager.compile``); the compiled kernel runs it over its
public methods (``_pykernel.ManagerBase.compile``).

Memo keys
=========
The ``not`` table is keyed by one id.  The and/or/xor tables are keyed by
one int per id pair, ``a << 32 | b``, not by the tuple ``(a, b)``: an int
holds no reference, so the cyclic collector does not track it, and a
queens 7 compile keeps about 290,000 of these keys.  The rule is written
here only; code off the hot path reads and writes keys through
``pack_key`` and ``unpack_key``.  Its domain is the ids
``1 .. ID_LIMIT - 1`` (``ID_LIMIT`` is 2**32), where it is one-to-one: no
arena reaches 2**32 cells in memory, and ``pure.store_from_parts``, the
one place an arbitrary id comes in, refuses an id past the domain.
"""
from __future__ import annotations

from .core import (
    LEAF_FALSE,
    LEAF_TRUE,
    OPS,
    STAT_KEYS,
    And,
    Const,
    Formula,
    Leaf,
    Not,
    Or,
    Ref,
    Xor,
    check_var,
    postorder,
)

# one past the largest id a binary memo key can hold
ID_LIMIT = 1 << 32
_LOW_MASK = ID_LIMIT - 1


def pack_key(a: int, b: int) -> int:
    """The binary memo key of the ids ``a`` and ``b``, both in the domain."""
    return a << 32 | b


def unpack_key(key: int) -> tuple[int, int]:
    """The id pair ``(a, b)`` that ``pack_key`` made ``key`` of."""
    return key >> 32, key & _LOW_MASK


class Op:
    """One memoized operation of an arena: its memo table and counters."""

    __slots__ = ("kind", "memo", "hits", "misses")

    def __init__(self, kind: str):
        self.kind = kind
        self.memo: dict = {}
        self.hits = self.misses = 0


class Arena:
    """Append-only cells, their hash-consing map, the op records (with
    ``negation`` the ``not`` one) and the intern counters."""

    __slots__ = ("cells", "hmap", "ops", "negation", "intern_hits", "intern_misses")

    def __init__(self) -> None:
        self.cells: list = []
        self.hmap: dict = {}
        self.ops = {kind: Op(kind) for kind in OPS}
        self.negation = self.ops["not"]
        self.intern_hits = self.intern_misses = 0

    @property
    def counts(self) -> list[int]:
        """The counters' values, in ``core.STAT_KEYS`` order; settable."""
        counts = [self.intern_hits, self.intern_misses]
        for op in self.ops.values():
            counts += (op.hits, op.misses)
        return counts

    @counts.setter
    def counts(self, counts) -> None:
        self.intern_hits, self.intern_misses = counts[:2]
        for i, op in enumerate(self.ops.values(), 1):
            op.hits, op.misses = counts[2 * i : 2 * i + 2]

    @property
    def stats(self) -> dict[str, int]:
        """The counters, by their ``core.STAT_KEYS`` names."""
        return dict(zip(STAT_KEYS, self.counts))


def mk(arena: Arena, low, var: int, high):
    """The reducing, hash-consing constructor: ``low`` when both branches
    are equal, the existing id of ``(low, var, high)``, or a fresh id."""
    if low == high:
        return low
    key = (low, var, high)
    found = arena.hmap.get(key)
    if found is not None:
        arena.intern_hits += 1
        return found
    arena.intern_misses += 1
    cells = arena.cells
    cells.append(key)
    found = arena.hmap[key] = len(cells)
    return found


def neg(arena: Arena, ref):
    """Complement of ``ref``, memoized per node."""
    if type(ref) is Leaf:
        return LEAF_FALSE if ref is LEAF_TRUE else LEAF_TRUE
    op = arena.negation
    found = op.memo.get(ref)
    if found is not None:
        op.hits += 1
        return found
    op.misses += 1
    low, var, high = arena.cells[ref - 1]
    made = mk(arena, neg(arena, low), var, neg(arena, high))
    op.memo[ref] = made
    return made


def apply(arena: Arena, kind: str, a, b):
    """``a`` ``kind`` ``b`` for ``kind`` in and/or/xor."""
    return _apply(arena, arena.ops[kind], a, b)


def _apply(arena: Arena, op: Op, a, b):
    # Shannon expansion on the smaller top variable, memoized on id pairs
    # packed as ``pack_key`` does (inline here, where a call would show);
    # the leaf rules read ``op.kind`` only when an operand is a leaf
    if a == b:
        return LEAF_FALSE if op.kind == "xor" else a
    if type(a) is Leaf or type(b) is Leaf:
        kind = op.kind
        if kind == "and":
            if a is LEAF_FALSE or b is LEAF_FALSE:
                return LEAF_FALSE
            return b if a is LEAF_TRUE else a
        if kind == "or":
            if a is LEAF_TRUE or b is LEAF_TRUE:
                return LEAF_TRUE
            return b if a is LEAF_FALSE else a
        # xor: false is its identity; against true it is negation, which the
        # not-cache carries
        if a is LEAF_FALSE:
            return b
        if b is LEAF_FALSE:
            return a
        return neg(arena, b) if a is LEAF_TRUE else neg(arena, a)
    key = a << 32 | b
    found = op.memo.get(key)
    if found is not None:
        op.hits += 1
        return found
    op.misses += 1
    cells = arena.cells
    a_low, var, a_high = cells[a - 1]
    b_low, var_b, b_high = cells[b - 1]
    if var < var_b:
        b_low = b_high = b
    elif var_b < var:
        var = var_b
        a_low = a_high = a
    low = _apply(arena, op, a_low, b_low)
    made = mk(arena, low, var, _apply(arena, op, a_high, b_high))
    op.memo[key] = made
    return made


# the operation name of each binary formula class, as ``apply`` takes it
_BINOP = {And: "and", Or: "or", Xor: "xor"}


def fold(f: Formula, const, var, neg, binop):
    """``f`` evaluated bottom-up: ``const(value)`` for a constant,
    ``var(index)`` for a variable, ``neg(x)`` and ``binop(name, x, y)``
    (``name`` in and/or/xor) for the connectives over their operands'
    values.

    Each variable is tested as ``pure.mk_node`` tests it, with the same
    exception and message, before ``var`` sees it; anything that is not a
    formula raises ``TypeError`` before any callback runs.
    """
    values = []
    push = values.append
    for g in postorder(f):
        t = type(g)
        if t is Ref:
            index = g.var
            if type(index) is not int or index < 1:
                check_var(index)
            push(var(index))
        elif t is Not:
            values[-1] = neg(values[-1])
        elif t is Const:
            push(const(g.value))
        else:
            b = values.pop()
            values[-1] = binop(_BINOP[t], values[-1], b)
    return values[0]


def _leaf(value) -> Leaf:
    return LEAF_TRUE if value else LEAF_FALSE


def compile(arena: Arena, f: Formula):
    """The ref of the formula ``f``, built on ``arena``: a variable ``x``
    is the node (false, x, true), and the connectives run ``neg`` and
    ``_apply``, each looked up in this module when it is called."""
    ops = arena.ops
    return fold(
        f,
        _leaf,
        lambda index: mk(arena, LEAF_FALSE, index, LEAF_TRUE),
        lambda ref: neg(arena, ref),
        lambda name, a, b: _apply(arena, ops[name], a, b),
    )
