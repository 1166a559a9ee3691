"""Persistent-store BDD backend with explicit state threading.

Every operation takes a :class:`Store` and returns its result together
with a (possibly) extended store; no operation ever mutates a store a
caller can observe.  Old store values remain valid forever: they keep
answering lookups exactly as they did when created, which is what the
monotonicity tests rely on.

Representation
==============
A store is a small immutable record pointing into an append-only arena:

* ``cells`` -- list of decision nodes; node id ``i`` lives at ``cells[i-1]``.
* ``hmap``  -- dict from node triple to its id (the hash-consing map).
* one memo dict per operation; ``_MEMO_TABLES`` lists them.

A store value carries ``count`` (how many arena slots it can see) and
``next`` (the next fresh id), with ``count >= next - 1``: every version
sees a prefix of its arena.  The arena itself keeps the ``next`` and
``max_var`` of its newest version, the one that sees every slot.  An
operation on the newest version extends the arena in place, O(1); one on
any older version works on a clone of what that version sees, so earlier
versions are never disturbed.  Nodes and hash-consing entries added by
newer versions have ids above the ``count`` of every older version and
are filtered out of the older versions' views, which is what makes
sharing sound.  The memo tables are a cache shared across the arena's
versions: an older version's view shows any entry over ids it sees,
including one a newer version computed.  Results cannot differ, since a
memo entry over visible ids holds the one canonical answer (a leaf or a
visible id); only the hit/miss counters of an operation on an older
version depend on what newer versions computed.

That visibility rule (a leaf, or an id ``<= count``) is written once, in
``_visible``.  As in the paper's record of finite maps, a version hands
out its tables as plain dicts: ``Store.graph`` (id -> node),
``Store.hmap`` and the four ``Store.memo`` tables each return a new dict
of the entries whose value and key ids the version sees.  Cloning,
validation and serialization read those dicts; operations never apply
the rule (see Hot path).

Code that only reads a finished diagram (size, denotation, the memo
semantics check, the oracle, model counting, mirroring into a manager)
is a :mod:`bddhc.graph` function, called with :func:`expander`, which
gives it this version's nodes straight from the arena; this module writes
none of its own.

Hot path
========
The store is threaded at the API only.  Pristine extracted code would
return a new version from every recursive call; the paper contrasts that
with code fine-tuned with constructs Coq lacks, and this module uses the
fine-tuned form inside one operation.  ``mk_node``, ``neg`` and
``apply_binop`` each run through ``_operate``, which gives the operation
an arena holding only what its input version sees: the version's own
arena, under that arena's lock from start to end, when the version is
the newest; otherwise a private clone of the version.  So an operation on
an older version pays one copy of that version even when it allocates
nothing, and a clone it does not extend is dropped with what it memoized.
The operation advances that arena in place (its cells, ``next`` and
``max_var``), its recursions return refs only, and one ``Store`` is built
when it returns: the input store itself when nothing was allocated.
Nothing in the arena is hidden from the operation, so hash-consing and
memo hits need no visibility test and ``_alloc`` just appends.  An
operation that fails in its input version's own arena puts the arena
back to that version before the error propagates (``_restore``), so the
version stays the newest and later operations on it still run in place.

``mk_node`` is the public, checked constructor, and the recursions run
the same body, ``_mk``, in their arena: the variable and child-reference
shape checks, child visibility against ``next``, dangling ids and the
variable order, each with its own exception and message; ``neg`` and
``apply_binop`` check their operands on entry the same way.  The checks
run inline on locals read once per call, with a ``type(x) is int`` fast
test that falls back to the full test for anything else (bools, int
subclasses, bad values), because the call overhead of small helpers
costs more than the checks themselves.  ``core.Leaf`` hashes by
identity, so hashing a node triple with a leaf child stays in C, and the
hash-consing map is probed with a plain tuple, which hashes and compares
like its ``Node``.

Serialization
=============
``store_to_text``/``store_from_text`` use a line-based format::

    bddhc-store 1
    next <N>
    <id> <low> <var> <high>

with one record per node in increasing id order; ``<low>``/``<high>`` are
``T``, ``F`` or a node id.  Every number is ASCII decimal, so ``+1``,
``1_0`` or another script's digits fail to load, and so do a record id
or ``<N>`` above the record count + 1.  Memo tables are caches and are
not serialized.  Loading rebuilds the inverse map mechanically, so a corrupt
file yields a store whose defects ``validate_store`` reports rather than
an import error.
"""
from __future__ import annotations

import threading
from typing import Mapping, NamedTuple, Optional

from . import graph
from .core import (
    BINOPS,
    LEAF_FALSE,
    LEAF_TRUE,
    BddError,
    DanglingRef,
    InvalidChild,
    Leaf,
    Node,
    NodeRef,
    OrderViolation,
    OutOfFuel,
    STAT_KEYS,
    ValidationReport,
    check_var,
    parse_decimal,
)

# operation -> (``_Shared`` attribute, key arity) of each memo table, in the
# order validation reports them; binary keys are id pairs, ``not`` keys one id
_MEMO_TABLES = {**{op: ("m" + op, 2) for op in BINOPS}, "not": ("mneg", 1)}

# memo table attribute of ``_Shared`` and the hit/miss counter keys, per op
_BINOP_KEYS = {
    op: (_MEMO_TABLES[op][0], op + "_hits", op + "_misses") for op in BINOPS
}


class _Shared:
    """Append-only arena shared by every version of one store lineage.

    Every version sees a prefix of ``cells``.  The newest version sees all
    of it: its ``count`` is ``len(cells)``, and ``next`` and ``max_var``
    here are its own.  Only an operation on the newest version writes to
    the arena, and it holds ``lock`` from start to end; every other
    operation runs on a clone (``_operate``).  Reads need no lock: a slot
    a version sees is never reassigned, and reads of the dict tables go
    through ``dict.copy``, which the GIL makes atomic.  The stats counters
    are instrumentation: they count the work done in this arena.
    """

    __slots__ = (
        "cells", "hmap", *(attr for attr, _ in _MEMO_TABLES.values()),
        "next", "max_var", "lock", "stats",
    )

    def __init__(self) -> None:
        self.cells: list[Optional[Node]] = []
        self.hmap: dict[Node, int] = {}
        for attr, _ in _MEMO_TABLES.values():
            setattr(self, attr, {})
        self.next = 1
        self.max_var = 0
        self.lock = threading.Lock()
        self.stats = dict.fromkeys(STAT_KEYS, 0)


def _visible(ref: NodeRef, count: int) -> bool:
    """Whether a version that sees ``count`` arena slots sees ``ref``.

    Leaves are always visible.  Every version has ``count >= next - 1``,
    so this one bound also covers every id below ``next``.  The code that
    reads a version applies this rule: its views, and through them the
    clone, the validator and the serializer.  Operations need no test,
    because each runs on an arena that holds only what its input version
    sees (``_operate``).
    """
    return type(ref) is Leaf or ref <= count


# one dict per memo table, named by its ``_Shared`` attribute
Memo = NamedTuple("Memo", [(attr, dict) for attr, _ in _MEMO_TABLES.values()])


class Store(NamedTuple):
    """One immutable version of a BDD store.

    Treat instances as opaque values; read them through ``graph``,
    ``hmap`` and ``memo``.  Each read returns new dicts of what this
    version sees: they are the caller's own, so writing to one leaves the
    store as it was, and a held ``memo`` does not show entries that later
    operations add.  ``next`` is the next fresh node id.
    """

    shared: _Shared
    count: int
    next: int
    max_var: int

    @property
    def graph(self) -> dict[int, Node]:
        """The visible cells as an id -> Node dict, in id order."""
        cells = self.shared.cells[: self.count]
        return {i: node for i, node in enumerate(cells, 1) if node is not None}

    @property
    def hmap(self) -> dict[Node, int]:
        """The visible hash-consing entries, node -> id."""
        return _visible_entries(self, self.shared.hmap, 0)

    @property
    def memo(self) -> Memo:
        """The visible entries of each memo table."""
        return Memo(
            *(
                _visible_entries(self, getattr(self.shared, attr), arity)
                for attr, arity in _MEMO_TABLES.values()
            )
        )

    def __repr__(self) -> str:
        return f"<Store nodes={node_count(self)} next={self.next}>"


def _visible_entries(st: Store, table: dict, arity: int) -> dict:
    """The entries of ``table`` whose value and key ids ``st`` sees.

    ``arity`` is the key's id count: 0 for the hmap (node keys), 1 for
    ``not``, 2 for the binary memo tables.  One comprehension per arity
    keeps the per-entry cost to the ``_visible`` calls themselves.
    """
    count = st.count
    items = table.copy().items()
    if arity == 0:
        return {k: v for k, v in items if _visible(v, count)}
    if arity == 1:
        return {k: v for k, v in items if _visible(v, count) and _visible(k, count)}
    return {
        k: v
        for k, v in items
        if _visible(v, count) and _visible(k[0], count) and _visible(k[1], count)
    }


# ---------------------------------------------------------------------------
# Construction


def empty_store() -> Store:
    """A fresh store: no nodes, empty maps, next id 1."""
    return Store(_Shared(), 0, 1, 0)


def store_from_parts(
    graph: Mapping[int, Node],
    hmap: Optional[Mapping[Node, int]] = None,
    next_id: Optional[int] = None,
    memo_and: Optional[Mapping[tuple[int, int], NodeRef]] = None,
    memo_or: Optional[Mapping[tuple[int, int], NodeRef]] = None,
    memo_xor: Optional[Mapping[tuple[int, int], NodeRef]] = None,
    memo_neg: Optional[Mapping[int, NodeRef]] = None,
) -> Store:
    """Build a store directly from raw tables, without any checking.

    This is the loader's and the test suite's backdoor: it will happily
    build broken stores so ``validate_store`` has something to report.
    When ``hmap`` is omitted the exact inverse of ``graph`` is used; when
    ``next_id`` is omitted, one past the largest id mentioned anywhere.
    The store sees ``max(largest graph id, next_id - 1)`` arena slots, the
    ones without a graph entry empty, and its arena holds only what its
    views show: entries the store cannot see are dropped.
    """
    sh = _Shared()
    max_id = max(graph, default=0)
    if hmap is None:
        hmap = {node: node_id for node_id, node in graph.items()}
    if next_id is None:
        next_id = max([max_id, *hmap.values()]) + 1
    count = max(max_id, next_id - 1)
    sh.cells = [None] * count
    for node_id, node in graph.items():
        if node_id < 1:
            raise BddError(f"graph ids must be positive, got {node_id}")
        sh.cells[node_id - 1] = node
    sh.hmap = dict(hmap)
    # the memo keywords come in ``_MEMO_TABLES`` order
    memo = (memo_and, memo_or, memo_xor, memo_neg)
    for (attr, _), table in zip(_MEMO_TABLES.values(), memo):
        setattr(sh, attr, dict(table or {}))
    max_var = max((n.var for n in graph.values()), default=0)
    st = Store(sh, count, next_id, max_var)
    return Store(_clone_shared(st), count, next_id, max_var)


def clear_memo(st: Store) -> Store:
    """A store with the same graph but empty memo tables.

    The arena is cloned, so neither the original nor the cleared store
    can observe the other's future memoization.
    """
    sh = _clone_shared(st, copy_memo=False)
    return Store(sh, st.count, st.next, st.max_var)


def _clone_shared(st: Store, copy_memo: bool = True) -> _Shared:
    """Private copy of the prefix of the arena that ``st`` can see."""
    sh = _Shared()
    sh.stats = st.shared.stats.copy()
    return _restore(sh, st, copy_memo)


def _restore(sh: _Shared, st: Store, copy_memo: bool = True) -> _Shared:
    """Make ``st`` the newest version of ``sh``, filling ``sh`` from what
    ``st`` sees: its tables, then ``next`` and ``max_var``, then the cells.

    The cells go last, so an interrupted restore leaves ``len(sh.cells)``
    different from ``st.count``, and operations on ``st`` then clone it.
    """
    sh.hmap = st.hmap
    if copy_memo:
        for attr, table in st.memo._asdict().items():
            setattr(sh, attr, table)
    sh.next, sh.max_var = st.next, st.max_var
    sh.cells = st.shared.cells[: st.count]
    return sh


def store_stats(st: Store) -> dict[str, int]:
    """Snapshot of interning and memo hit/miss counters.

    Counters are instrumentation attached to the arena, not part of the
    store value: they count work done in this lineage, for reports and
    complexity tests.  An operation on an older version counts in its
    clone, which is dropped if the operation allocates nothing.
    """
    return st.shared.stats.copy()


def node_count(st: Store) -> int:
    """Number of decision nodes visible in this store version."""
    return st.count - st.shared.cells[: st.count].count(None)


def default_fuel(st: Store) -> int:
    """The recursion budget of ``neg`` and ``apply_binop``.

    One unit per variable level is always enough for a well-formed store,
    so only a corrupt one (a cycle of ids, say) runs out.
    """
    return st.max_var + 1


# ---------------------------------------------------------------------------
# Allocation


def _operate(st: Store, body, *args) -> tuple[NodeRef, Store]:
    """``body(arena, *args)`` with the version it reaches, run on an arena
    whose newest version is ``st``: the arena of ``st``, under its lock
    until the operation ends, if ``st`` is already its newest version, and
    otherwise a private clone of ``st``.  An operation that fails in the
    arena of ``st`` restores it to ``st`` before the error propagates.
    """
    sh = st.shared
    # acquire/release, not ``with``, which costs about twice as much per call
    # and shows on jobs made of many small operations
    lock = sh.lock
    lock.acquire()
    try:
        if len(sh.cells) == st.count:
            try:
                return body(sh, *args), _reached(st, sh)
            except BaseException:
                _restore(sh, st)
                raise
    finally:
        lock.release()
    sh = _clone_shared(st)
    return body(sh, *args), _reached(st, sh)


def _reached(st: Store, sh: _Shared) -> Store:
    """The newest version of ``sh`` after an operation on ``st``: ``st``
    itself if nothing was allocated."""
    if sh.next == st.next:
        return st
    return Store(sh, len(sh.cells), sh.next, sh.max_var)


def _alloc(sh: _Shared, node: Node) -> int:
    """Append ``node`` with the fresh id ``sh.next`` and advance the arena."""
    node_id, cells = sh.next, sh.cells
    if node_id <= len(cells):
        raise BddError(
            "store next counter is not past its allocated ids; "
            "refusing to allocate (run validate_store)"
        )
    cells.append(node)
    sh.hmap[node] = node_id
    sh.next = node_id + 1
    if node.var > sh.max_var:
        sh.max_var = node.var
    return node_id


# ---------------------------------------------------------------------------
# Operations


def mk_node(st: Store, low: NodeRef, var: int, high: NodeRef) -> tuple[NodeRef, Store]:
    """Hash-consing node constructor.

    Returns the collapsed branch when both branches are equal, the
    existing id when the triple is already allocated, and otherwise a
    fresh node under id ``st.next``.  The returned store extends ``st``
    monotonically; on the first two paths it *is* ``st``.
    """
    return _operate(st, _mk, low, var, high)


def _mk(sh: _Shared, low: NodeRef, var: int, high: NodeRef) -> NodeRef:
    """``mk_node`` in an arena: every check, then a hit or an allocation."""
    if type(var) is not int or var < 1:
        check_var(var)
    nxt, cells = sh.next, sh.cells
    for child in (low, high):
        if type(child) is not int:
            if type(child) is Leaf:  # an enum with members has no subclasses
                continue
            if not isinstance(child, int) or isinstance(child, bool):
                raise InvalidChild(f"not a node reference: {child!r}")
        if child < 1:
            raise InvalidChild(f"not a node reference: {child!r}")
        if child >= nxt:
            raise InvalidChild(f"child id {child} is not valid here (next={nxt})")
        node = cells[child - 1]
        if node is None:
            raise DanglingRef(f"child id {child} has no graph entry")
        if node.var <= var:
            raise OrderViolation(
                f"child {child} has variable x{node.var}, not below x{var}"
            )
    if low == high:
        return low
    # a plain tuple hashes and compares like the ``Node`` it would become
    node_id = sh.hmap.get((low, var, high))
    if node_id is not None:
        sh.stats["intern_hits"] += 1
        return node_id
    sh.stats["intern_misses"] += 1
    return _alloc(sh, Node(low, var, high))


def eq(a: NodeRef, b: NodeRef) -> bool:
    """Decidable equality of node references (leaf tags or ids).

    Within one store this coincides with semantic equality of the
    referenced functions, because construction is canonical.
    """
    return a == b


def _check_operand(st: Store, ref: NodeRef) -> None:
    """Raise unless ``ref`` is a leaf or a node ``st`` holds, with the
    types and messages of the recursions' own checks."""
    if type(ref) is Leaf:
        return
    if type(ref) is not int and (not isinstance(ref, int) or isinstance(ref, bool)):
        raise InvalidChild(f"not a node reference: {ref!r}")
    if not 1 <= ref <= st.count or st.shared.cells[ref - 1] is None:
        raise DanglingRef(f"node id {ref} has no graph entry")


def neg(st: Store, ref: NodeRef) -> tuple[NodeRef, Store]:
    """Complement: the result denotes the pointwise negation of ``ref``."""
    _check_operand(st, ref)
    return _operate(st, _neg_rec, ref, default_fuel(st))


def _neg_rec(sh: _Shared, ref: NodeRef, fuel: int) -> NodeRef:
    if fuel <= 0:
        raise OutOfFuel("negation ran out of fuel")
    if ref is LEAF_TRUE:
        return LEAF_FALSE
    if ref is LEAF_FALSE:
        return LEAF_TRUE
    hit = sh.mneg.get(ref)
    if hit is not None:
        sh.stats["not_hits"] += 1
        return hit
    sh.stats["not_misses"] += 1
    cells = sh.cells
    node = cells[ref - 1] if 1 <= ref <= len(cells) else None
    if node is None:
        raise DanglingRef(f"node id {ref} has no graph entry")
    low, var, high = node
    low = _neg_rec(sh, low, fuel - 1)
    high = _neg_rec(sh, high, fuel - 1)
    result = _mk(sh, low, var, high)
    sh.mneg[ref] = result
    return result


def apply_binop(st: Store, op: str, a: NodeRef, b: NodeRef) -> tuple[NodeRef, Store]:
    """Pointwise binary operation (``op`` in ``and``/``or``/``xor``).

    Shannon expansion on the smaller top variable, memoized per
    operation on pairs of node ids; leaf arguments are resolved before
    the memo table is consulted.
    """
    if op not in BINOPS:
        raise ValueError(f"unknown operation {op!r}")
    _check_operand(st, a)
    _check_operand(st, b)
    return _operate(st, _apply_rec, op, a, b, default_fuel(st))


def _apply_rec(sh: _Shared, op: str, a: NodeRef, b: NodeRef, fuel: int) -> NodeRef:
    if fuel <= 0:
        raise OutOfFuel(f"{op} ran out of fuel")
    if a == b:
        return LEAF_FALSE if op == "xor" else a
    if op == "and":
        if a is LEAF_FALSE or b is LEAF_FALSE:
            return LEAF_FALSE
        if a is LEAF_TRUE:
            return b
        if b is LEAF_TRUE:
            return a
    elif op == "or":
        if a is LEAF_TRUE or b is LEAF_TRUE:
            return LEAF_TRUE
        if a is LEAF_FALSE:
            return b
        if b is LEAF_FALSE:
            return a
    else:
        if a is LEAF_FALSE:
            return b
        if b is LEAF_FALSE:
            return a
        # xor against true is negation; mneg carries the memoization
        if a is LEAF_TRUE:
            return _neg_rec(sh, b, fuel)
        if b is LEAF_TRUE:
            return _neg_rec(sh, a, fuel)
    table, hits, misses = _BINOP_KEYS[op]
    key = (a, b)
    memo = getattr(sh, table)
    hit = memo.get(key)
    if hit is not None:
        sh.stats[hits] += 1
        return hit
    sh.stats[misses] += 1
    cells = sh.cells
    count = len(cells)
    node_a = cells[a - 1] if 1 <= a <= count else None
    if node_a is None:
        raise DanglingRef(f"node id {a} has no graph entry")
    node_b = cells[b - 1] if 1 <= b <= count else None
    if node_b is None:
        raise DanglingRef(f"node id {b} has no graph entry")
    a_low, var, a_high = node_a
    b_low, var_b, b_high = node_b
    if var < var_b:
        b_low = b_high = b
    elif var_b < var:
        var = var_b
        a_low = a_high = a
    low = _apply_rec(sh, op, a_low, b_low, fuel - 1)
    high = _apply_rec(sh, op, a_high, b_high, fuel - 1)
    result = _mk(sh, low, var, high)
    memo[key] = result
    return result


def expander(st: Store):
    """The :mod:`bddhc.graph` ``expand`` function of one store version.

    It reads the arena directly; an id the version cannot see raises
    ``DanglingRef``.
    """
    cells, count = st.shared.cells, st.count

    def expand(ref: NodeRef) -> tuple:
        if isinstance(ref, Leaf):
            return ref is LEAF_TRUE, None, None, None
        node = cells[ref - 1] if 1 <= ref <= count else None
        if node is None:
            raise DanglingRef(f"node id {ref} has no graph entry")
        low, var, high = node
        return None, var, low, high

    return expand


# ---------------------------------------------------------------------------
# Validation


def validate_store(st: Store, check_memo_semantics: bool = False) -> ValidationReport:
    """Check every store invariant; violations are reported, not raised.

    The memo semantic check compares each cached result against a truth
    table of its operands and is exponential in the number of variables
    involved, so it only runs on request.
    """
    report = ValidationReport()
    graph = st.graph
    nxt = st.next

    for node_id, node in graph.items():
        if node_id >= nxt:
            report.add("validity", f"graph id {node_id} is not below next={nxt}")
        for child in (node.low, node.high):
            if isinstance(child, Leaf):
                continue
            if child >= nxt:
                report.add(
                    "validity",
                    f"node {node_id} has child {child} not below next={nxt}",
                )
            if child not in graph:
                report.add(
                    "validity", f"node {node_id} has child {child} with no graph entry"
                )
            elif child >= node_id:
                report.add(
                    "acyclicity",
                    f"node {node_id} has child {child}, ids must decrease",
                )
        if node.low == node.high:
            report.add("reduced", f"node {node_id} has equal branches {node.low!r}")
        for child in (node.low, node.high):
            if isinstance(child, Leaf):
                continue
            child_node = graph.get(child)
            if child_node is not None and child_node.var <= node.var:
                report.add(
                    "ordered",
                    f"node {node_id} (x{node.var}) has child {child} "
                    f"labeled x{child_node.var}",
                )

    hmap = st.hmap
    for node_id, node in graph.items():
        if hmap.get(node) != node_id:
            report.add(
                "left-inverse",
                f"graph has {node_id} -> {node}, but hmap maps that node to "
                f"{hmap.get(node)}",
            )
    for node, node_id in hmap.items():
        if graph.get(node_id) != node:
            report.add(
                "left-inverse",
                f"hmap has {node} -> {node_id}, but graph({node_id}) = "
                f"{graph.get(node_id)}",
            )
    by_node: dict[Node, list[int]] = {}
    for node_id, node in graph.items():
        by_node.setdefault(node, []).append(node_id)
    for node, ids in by_node.items():
        if len(ids) > 1:
            report.add("no-duplicates", f"node {node} allocated at ids {sorted(ids)}")

    memo = st.memo
    for name, arity in _MEMO_TABLES.values():
        for key, value in getattr(memo, name).items():
            ids = key if arity == 2 else (key,)
            for i in ids:
                if i not in graph:
                    report.add(
                        "memo-domain", f"{name} key {key} references unknown id {i}"
                    )
            if not isinstance(value, Leaf) and value not in graph:
                report.add(
                    "memo-domain", f"{name}[{key}] = {value} references unknown id"
                )

    if check_memo_semantics and not report.violations:
        _check_memo_semantics(st, report)
    return report


def _check_memo_semantics(st: Store, report: ValidationReport) -> None:
    memo = st.memo
    entries = [
        (op, key if arity == 2 else (key,), value)
        for op, (attr, arity) in _MEMO_TABLES.items()
        for key, value in getattr(memo, attr).items()
    ]
    for op, operands, value, assignment in graph.memo_faults(entries, expander(st)):
        attr, arity = _MEMO_TABLES[op]
        key = operands if arity == 2 else operands[0]
        report.add(
            "memo-semantics", f"{attr}[{key}] = {value!r} is wrong under {assignment}"
        )


# ---------------------------------------------------------------------------
# Serialization


def _ref_token(ref: NodeRef) -> str:
    if ref is LEAF_TRUE:
        return "T"
    if ref is LEAF_FALSE:
        return "F"
    return str(ref)


def _parse_ref(token: str, lineno: int) -> NodeRef:
    if token == "T":
        return LEAF_TRUE
    if token == "F":
        return LEAF_FALSE
    value = parse_decimal(token)
    if value is None:
        raise BddError(f"line {lineno}: bad node reference {token!r}")
    if value < 1:
        raise BddError(f"line {lineno}: node ids must be positive, got {value}")
    return value


def store_to_text(st: Store) -> str:
    """Serialize the visible graph in the line format described above."""
    lines = ["bddhc-store 1", f"next {st.next}"]
    for node_id, node in st.graph.items():
        lines.append(
            f"{node_id} {_ref_token(node.low)} {node.var} {_ref_token(node.high)}"
        )
    return "\n".join(lines) + "\n"


def store_from_text(text: str) -> Store:
    """Parse the line format; the result may be invalid, validate it."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "bddhc-store 1":
        raise BddError("line 1: expected header 'bddhc-store 1'")
    if len(lines) < 2 or not lines[1].strip().startswith("next "):
        raise BddError("line 2: expected 'next <id>'")
    fields = lines[1].split()
    next_id = parse_decimal(fields[1]) if len(fields) == 2 else None
    if next_id is None:
        raise BddError("line 2: expected 'next <id>'")
    if next_id < 1:
        raise BddError("line 2: next must be positive")
    records = [
        (lineno, raw.split())
        for lineno, raw in enumerate(lines[2:], start=3)
        if raw.strip()
    ]
    # a file ``store_to_text`` writes of a store made by operations (dense
    # ids) or by this loader passes this bound, and it bounds the arena
    # ``store_from_parts`` allocates by the size of the file
    bound = len(records) + 1
    graph: dict[int, Node] = {}
    for lineno, fields in records:
        if len(fields) != 4:
            raise BddError(f"line {lineno}: expected 'id low var high'")
        node_id = _parse_ref(fields[0], lineno)
        if isinstance(node_id, Leaf):
            raise BddError(f"line {lineno}: record id must be a number")
        if node_id > bound:
            raise BddError(
                f"line {lineno}: record id {node_id} is above the record count + 1"
            )
        low = _parse_ref(fields[1], lineno)
        high = _parse_ref(fields[3], lineno)
        var = parse_decimal(fields[2])
        if var is None:
            raise BddError(f"line {lineno}: bad variable {fields[2]!r}")
        if var < 1:
            raise BddError(f"line {lineno}: variables are 1-based, got {var}")
        if node_id in graph:
            raise BddError(f"line {lineno}: duplicate record for id {node_id}")
        graph[node_id] = Node(low, var, high)
    if next_id > bound:
        raise BddError(f"line 2: next {next_id} is above the record count + 1")
    return store_from_parts(graph, next_id=next_id)
