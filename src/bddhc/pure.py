"""Persistent-store BDD backend with explicit state threading.

Every operation takes a :class:`Store` and returns its result together
with a (possibly) extended store; no operation ever mutates a store a
caller can observe.  Old store values remain valid forever: they keep
answering lookups exactly as they did when created, which is what the
monotonicity tests rely on.

Representation
==============
A store is a small immutable record pointing into an append-only arena
of the Python engine (``_engine.Arena``: node id ``i`` at ``cells[i-1]``,
the hash-consing map, one memo table per operation, the and/or/xor ones
keyed by id pairs packed into one int by ``_engine.pack_key``).  A store value
carries ``count`` (how many arena slots it can see) and ``next`` (the
next fresh id), with ``count >= next - 1``: every version sees a prefix
of its arena, and the newest version sees every slot.  An
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
out its tables as new plain dicts of what it sees (``Store.graph``,
``hmap``, ``memo``, whose binary keys are ``(id, id)`` tuples again);
operations never apply the rule (see Hot path).

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
fine-tuned form inside one operation: the engine (``_engine.mk``, ``neg``
and ``apply``, which the Python kernel runs too) advances an arena in
place and returns a ref, and one ``Store`` is built at the end, the input
store itself when nothing was allocated.  ``_operate`` gives the engine
an arena holding only what the input version sees, so hash-consing and
memo hits need no visibility test: the version's own arena, under its
lock, when the version is the newest, and otherwise a private clone,
which an operation that allocates nothing pays for and drops with what it
memoized.  An operation that fails in the version's own arena puts it
back to that version before the error propagates (``_restore``), so the
version stays the newest.

An arena is checked once, when ``store_from_parts`` builds it (the
loader builds through it): only there can a cell or a memo entry break a
rule that the engine keeps.  The first violation ``validate_store`` finds
stays on the arena and its copies, and ``_operate`` refuses every
operation on them with ``CorruptStore``.  In every other arena each child
is present and below its parent in id and in the variable order, and each
memo result tests no variable above its operands', so the engine checks
nothing.  Arguments are outside input: ``mk_node`` checks its variable
and children, and ``neg`` and ``apply_binop`` their operands
(``_check_operand``), each fault with its own exception and message.

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

from . import _engine, graph
from .core import (
    BINOPS,
    LEAF_FALSE,
    LEAF_TRUE,
    BddError,
    CorruptStore,
    DanglingRef,
    InvalidChild,
    Leaf,
    Node,
    NodeRef,
    OrderViolation,
    ValidationReport,
    check_var,
    parse_decimal,
)

# operation -> (view name, key arity) of each memo table, in the order
# validation reports them; a binary table is keyed by id pairs packed by
# ``_engine.pack_key`` (``Store.memo`` shows them as tuples), ``not`` by one id
_MEMO_TABLES = {**{op: ("m" + op, 2) for op in BINOPS}, "not": ("mneg", 1)}


class _Shared(_engine.Arena):
    """The engine arena shared by every version of one store lineage.

    Only an operation on the newest version writes to it, holding ``lock``
    from start to end (``_operate``).  Reads need no lock: a slot a version
    sees is never reassigned, and reads of the dict tables go through
    ``dict.copy``, which the GIL makes atomic.  ``defect`` is the message
    of the first violation ``store_from_parts`` found in the arena it
    built, or None.  The engine's memo tables, packed keys and all, also
    read as ``mand``, ..., ``mneg``.
    """

    __slots__ = ("lock", "defect")

    def __init__(self) -> None:
        super().__init__()
        self.lock = threading.Lock()
        self.defect: Optional[str] = None


for _op, (_name, _) in _MEMO_TABLES.items():
    setattr(_Shared, _name, property(lambda sh, op=_op: sh.ops[op].memo))
del _op, _name


def _visible(ref: NodeRef, count: int) -> bool:
    """Whether a version that sees ``count`` arena slots sees ``ref``.

    Leaves are always visible.  Every version has ``count >= next - 1``,
    so this one bound also covers every id below ``next``.
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
    operations add, and their nodes are ``Node`` values.  ``next`` is the
    next fresh node id.
    """

    shared: _Shared
    count: int
    next: int

    @property
    def graph(self) -> dict[int, Node]:
        """The visible cells as an id -> Node dict, in id order."""
        cells = self.shared.cells[: self.count]
        return {i: Node._make(c) for i, c in enumerate(cells, 1) if c is not None}

    @property
    def hmap(self) -> dict[Node, int]:
        """The visible hash-consing entries, node -> id."""
        entries = _visible_entries(self, self.shared.hmap, 0)
        return {Node._make(k): v for k, v in entries.items()}

    @property
    def memo(self) -> Memo:
        """The visible entries of each memo table, a binary key as the
        ``(id, id)`` tuple it packs."""
        unpack, tables = _engine.unpack_key, []
        for attr, arity in _MEMO_TABLES.values():
            entries = _visible_entries(self, getattr(self.shared, attr), arity)
            if arity == 2:
                entries = {unpack(k): v for k, v in entries.items()}
            tables.append(entries)
        return Memo(*tables)

    def __repr__(self) -> str:
        return f"<Store nodes={node_count(self)} next={self.next}>"


def _visible_entries(st: Store, table: dict, arity: int) -> dict:
    """The entries of ``table`` whose value and key ids ``st`` sees, with
    the table's own keys.

    ``arity`` is the key's id count: 0 for the hmap (node keys), 1 for
    ``not``, 2 for the binary memo tables (packed keys, whose ids are
    positive).  One comprehension per arity keeps the per-entry cost to the
    visibility tests themselves.
    """
    count = st.count
    items = table.copy().items()
    if arity == 0:
        return {k: v for k, v in items if _visible(v, count)}
    if arity == 1:
        return {k: v for k, v in items if _visible(v, count) and _visible(k, count)}
    unpack = _engine.unpack_key
    return {k: v for k, v in items if _visible(v, count) and max(unpack(k)) <= count}


# ---------------------------------------------------------------------------
# Construction


def empty_store() -> Store:
    """A fresh store: no nodes, empty maps, next id 1."""
    return Store(_Shared(), 0, 1)


def store_from_parts(
    graph: Mapping[int, Node],
    hmap: Optional[Mapping[Node, int]] = None,
    next_id: Optional[int] = None,
    memo_and: Optional[Mapping[tuple[int, int], NodeRef]] = None,
    memo_or: Optional[Mapping[tuple[int, int], NodeRef]] = None,
    memo_xor: Optional[Mapping[tuple[int, int], NodeRef]] = None,
    memo_neg: Optional[Mapping[int, NodeRef]] = None,
) -> Store:
    """Build a store directly from raw tables, checked once.

    This is the loader's and the test suite's backdoor: it builds broken
    stores too, so ``validate_store`` has something to report.  If
    ``validate_store`` (without the memo semantic check) finds a
    violation, every operation on the store or a copy of it raises
    ``CorruptStore`` with the first violation's message.  Memo entries
    over nodes the store has are trusted to hold the right answer.
    When ``hmap`` is omitted the exact inverse of ``graph`` is used; when
    ``next_id`` is omitted, one past the largest id mentioned anywhere.
    The store sees ``max(largest graph id, next_id - 1)`` arena slots, the
    ones without a graph entry empty, and its arena holds only what its
    views show: entries the store cannot see are dropped.

    A graph id or ``next_id`` outside ``1 .. _engine.ID_LIMIT - 1``, the ids
    a binary memo key can hold, and a binary memo key that is not a pair of
    positive ints raise ``BddError`` before anything is allocated.
    """
    for node_id in graph:
        _check_id("graph ids", node_id)
    max_id = max(graph, default=0)
    if hmap is None:
        hmap = {node: node_id for node_id, node in graph.items()}
    if next_id is None:
        next_id = max([max_id, *hmap.values()]) + 1
    _check_id("next", next_id)
    count = max(max_id, next_id - 1)
    sh = _Shared()
    # the memo keywords come in ``_MEMO_TABLES`` order
    memo = (memo_and, memo_or, memo_xor, memo_neg)
    for (op, (_, arity)), table in zip(_MEMO_TABLES.items(), memo):
        table = table or {}
        sh.ops[op].memo = _packed(table, count) if arity == 2 else dict(table)
    sh.cells = [None] * count
    for node_id, node in graph.items():
        sh.cells[node_id - 1] = node
    sh.hmap = dict(hmap)
    st = Store(_clone_shared(Store(sh, count, next_id)), count, next_id)
    report = validate_store(st)
    if not report.ok:
        st.shared.defect = report.violations[0].message
    return st


def _check_id(what: str, value: int) -> None:
    if value < 1:
        raise BddError(f"{what} must be positive, got {value}")
    if value >= _engine.ID_LIMIT:
        raise BddError(f"{what} must be below {_engine.ID_LIMIT}, got {value}")


def _packed(table: Mapping[tuple[int, int], NodeRef], count: int) -> dict:
    """A binary memo table with its keys packed, less the entries over an id
    above ``count``, which the store cannot see."""
    packed = {}
    for (a, b), value in table.items():
        if not (type(a) is int and type(b) is int and a >= 1 and b >= 1):
            raise BddError(f"memo key {(a, b)!r} is not a pair of node ids")
        if a <= count and b <= count:
            packed[_engine.pack_key(a, b)] = value
    return packed


def clear_memo(st: Store) -> Store:
    """A store with the same graph but empty memo tables.

    The arena is cloned, so neither the original nor the cleared store
    can observe the other's future memoization.
    """
    sh = _clone_shared(st, copy_memo=False)
    return Store(sh, st.count, st.next)


def _clone_shared(st: Store, copy_memo: bool = True) -> _Shared:
    """Private copy of the prefix of the arena that ``st`` can see, with
    the arena's counters and defect."""
    sh, src = _Shared(), st.shared
    sh.intern_hits, sh.intern_misses = src.intern_hits, src.intern_misses
    for op, record in src.ops.items():
        sh.ops[op].hits, sh.ops[op].misses = record.hits, record.misses
    sh.defect = src.defect
    return _restore(sh, st, copy_memo)


def _restore(sh: _Shared, st: Store, copy_memo: bool = True) -> _Shared:
    """Make ``st`` the newest version of ``sh``, filling ``sh`` from what
    ``st`` sees: its tables, then the cells.

    The cells go last, so an interrupted restore leaves ``len(sh.cells)``
    different from ``st.count``, and operations on ``st`` then clone it.
    """
    src = st.shared
    sh.hmap = _visible_entries(st, src.hmap, 0)
    if copy_memo:
        for op, (_, arity) in _MEMO_TABLES.items():
            sh.ops[op].memo = _visible_entries(st, src.ops[op].memo, arity)
    sh.cells = src.cells[: st.count]
    return sh


def store_stats(st: Store) -> dict[str, int]:
    """Snapshot of the arena's interning and memo hit/miss counters.

    They count the work done in this lineage, not the store value; an
    operation on an older version counts in its clone, which is dropped
    if the operation allocates nothing.
    """
    return st.shared.stats


def node_count(st: Store) -> int:
    """Number of decision nodes visible in this store version."""
    return st.count - st.shared.cells[: st.count].count(None)


# ---------------------------------------------------------------------------
# Operations


def _operate(st: Store, body, *args) -> tuple[NodeRef, Store]:
    """``body(arena, *args)`` and the version it reaches, run on the arena
    of ``st`` under its lock if ``st`` is its newest version (restored to
    ``st`` if the body fails), and otherwise on a private clone of ``st``.
    An arena with a defect is refused before anything runs.
    """
    sh = st.shared
    if sh.defect is not None:
        raise CorruptStore(sh.defect)
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
    itself if nothing was allocated.  The engine numbers a new node by its
    slot, so the next fresh id is one past the arena."""
    count = len(sh.cells)
    if count == st.count:
        return st
    return Store(sh, count, count + 1)


def mk_node(st: Store, low: NodeRef, var: int, high: NodeRef) -> tuple[NodeRef, Store]:
    """Hash-consing node constructor.

    Returns the collapsed branch when both branches are equal, the
    existing id when the triple is already allocated, and otherwise a
    fresh node under id ``st.next``.  The returned store extends ``st``
    monotonically; on the first two paths it *is* ``st``.

    The arguments are checked first, with a ``type(x) is int`` fast test
    that falls back to the full test for bools, int subclasses and the like.
    """
    if type(var) is not int or var < 1:
        check_var(var)
    nxt, cells = st.next, st.shared.cells
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
        if node[1] <= var:
            raise OrderViolation(
                f"child {child} has variable x{node[1]}, not below x{var}"
            )
    return _operate(st, _engine.mk, low, var, high)


def eq(a: NodeRef, b: NodeRef) -> bool:
    """Decidable equality of node references (leaf tags or ids).

    Within one store this coincides with semantic equality of the
    referenced functions, because construction is canonical.
    """
    return a == b


def _check_operand(st: Store, ref: NodeRef) -> None:
    """Raise unless ``ref`` is a leaf or a node ``st`` holds, with the
    exception types of ``mk_node``'s checks."""
    if type(ref) is Leaf:
        return
    if type(ref) is not int and (not isinstance(ref, int) or isinstance(ref, bool)):
        raise InvalidChild(f"not a node reference: {ref!r}")
    if not 1 <= ref <= st.count or st.shared.cells[ref - 1] is None:
        raise DanglingRef(f"node id {ref} has no graph entry")


def neg(st: Store, ref: NodeRef) -> tuple[NodeRef, Store]:
    """Complement: the result denotes the pointwise negation of ``ref``."""
    _check_operand(st, ref)
    return _operate(st, _engine.neg, ref)


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
    return _operate(st, _engine.apply, op, a, b)


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

    # a result tests no variable above its operands' top variables: the
    # recursions build on a memo hit as on a node they made, so an entry
    # that breaks this would break the variable order of the arena
    memo = st.memo
    for name, arity in _MEMO_TABLES.values():
        for key, value in getattr(memo, name).items():
            ids = key if arity == 2 else (key,)
            for i in ids:
                if i not in graph:
                    report.add(
                        "memo-domain", f"{name} key {key} references unknown id {i}"
                    )
            if isinstance(value, Leaf):
                continue
            if value not in graph:
                report.add(
                    "memo-domain", f"{name}[{key}] = {value} references unknown id"
                )
            elif all(i in graph for i in ids):
                top = min(graph[i].var for i in ids)
                if graph[value].var < top:
                    report.add(
                        "memo-order",
                        f"{name}[{key}] = {value} is labeled x{graph[value].var}, "
                        f"above its operands' top variable x{top}",
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
    """Parse the line format.

    The result may break an invariant: ``validate_store`` reports what,
    and operations on it raise ``CorruptStore``.
    """
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
