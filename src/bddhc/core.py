"""Shared domain types for the BDD backends.

Both backends represent boolean functions as reduced ordered binary
decision diagrams over 1-based integer variables.  The variable order is
the natural order on indices: smaller index closer to the root, so every
decision node's children are labeled with strictly larger variables (or
are leaves).  A node whose two branches are equal is never materialized.

This module owns the value types (node references, decision-node triples,
the formula AST) and the error hierarchy; it knows nothing about either
backend's state representation.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Union


class BddError(Exception):
    """Base class for all errors raised by this package."""


class InvalidChild(BddError):
    """A child reference points at an identifier the store has not allocated."""


class OrderViolation(BddError):
    """A child's variable index is not strictly larger than its parent's."""


class CorruptStore(BddError):
    """An operation was asked to run on a store that breaks an invariant."""


class DanglingRef(BddError):
    """A node identifier has no entry in the store's graph."""


class ForeignHandle(BddError):
    """A handle from one manager was passed to a different manager."""


class VarOutOfRange(BddError):
    """A variable index is outside the permitted range."""


class ArityMismatch(BddError):
    """Two truth tables with different variable counts were compared."""


class Leaf(enum.Enum):
    """Terminal node: the constant true or false function."""

    TRUE = "T"
    FALSE = "F"

    # Identity hash, computed in C.  ``Enum.__hash__`` is a Python-level
    # ``hash(self._name_)``, and every hash of a node triple with a leaf
    # child paid for it.  Both hashes vary per process (string hashing is
    # randomized), and every table iterates in insertion order, so no
    # result or counter depends on which one is used.
    __hash__ = object.__hash__

    def __bool__(self) -> bool:
        return self is Leaf.TRUE

    def __repr__(self) -> str:
        return f"Leaf.{self.name}"


LEAF_TRUE = Leaf.TRUE
LEAF_FALSE = Leaf.FALSE

# A reference to a BDD expression: a leaf, or the positive integer id of a
# decision node inside some store.
NodeRef = Union[Leaf, int]

# A total valuation of the variables consulted during evaluation.
Assignment = Mapping[int, bool]


# The largest variable index a formula may name: the compiled kernel's
# ``Handle`` stores its variable in a C ``int``.
MAX_VAR = 2**31 - 1


def check_var(index: int) -> int:
    """Validate a 1-based variable index, returning it unchanged."""
    if not isinstance(index, int) or isinstance(index, bool) or index < 1:
        raise VarOutOfRange(f"variable index must be a positive integer, got {index!r}")
    return index


def parse_decimal(token: str) -> Optional[int]:
    """``token`` as an ASCII decimal number with an optional ``-``, else None.

    ``int`` alone would also take ``+1``, ``1_0`` and non-ASCII digits.
    """
    digits = token[1:] if token.startswith("-") else token
    return int(token) if digits.isascii() and digits.isdigit() else None


class Node(NamedTuple):
    """Decision-node triple: 0-branch, variable, 1-branch.

    The branches are ``NodeRef`` values.  A well-formed node is reduced
    (``low != high``) and ordered (inner children have larger variables),
    but the type itself does not enforce this; backend validators do.
    """

    low: NodeRef
    var: int
    high: NodeRef


# The memoized operations as both backends name them, negation first, and
# their interning and per-operation counters in the order stats report them.
OPS = ("not", "and", "or", "xor")
BINOPS = OPS[1:]
STAT_KEYS = tuple(
    f"{name}_{kind}" for name in ("intern", *OPS) for kind in ("hits", "misses")
)


# ---------------------------------------------------------------------------
# Formula AST


class Formula:
    """Boolean expression over variables ``x1, x2, ...``.

    Connectives are provided both as constructors (`Not`, `And`, `Or`,
    `Xor`) and as operators (``~``, ``&``, ``|``, ``^``) for readable
    formula-building code.

    ``==``, ``hash`` and ``repr`` give what the dataclass-generated
    methods give, but walk the tree with an explicit stack, so a formula
    of any depth costs no interpreter frames.  Two formulas are equal
    when they have the same class at every position and equal leaf fields
    (so ``Const(1) == Const(True)``).
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return _shape(self) == _shape(other)

    def __hash__(self) -> int:
        return hash(tuple(_shape(self)))

    def __repr__(self) -> str:
        # text comes out root first, so this walk does not use ``postorder``;
        # a field that is not a formula is shown by its own ``repr``
        out = []
        todo = [self]
        while todo:
            g = todo.pop()
            if type(g) is str:
                out.append(g)
                continue
            out.append(type(g).__name__ + "(")
            todo.append(")")
            names = type(g).__slots__  # the dataclass fields, in order
            for i in reversed(range(len(names))):
                value = getattr(g, names[i])
                todo.append(value if isinstance(value, Formula) else repr(value))
                todo.append((", " if i else "") + names[i] + "=")
        return "".join(out)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __xor__(self, other: "Formula") -> "Formula":
        return Xor(self, other)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Const(Formula):
    value: bool


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Ref(Formula):
    var: int

    def __post_init__(self) -> None:
        if check_var(self.var) > MAX_VAR:
            message = f"variable index must be at most {MAX_VAR}, got {self.var}"
            raise VarOutOfRange(message)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Xor(Formula):
    left: Formula
    right: Formula


TRUE = Const(True)
FALSE = Const(False)


def var(index: int) -> Ref:
    """The formula consisting of the single variable ``x<index>``."""
    return Ref(index)


def eval_formula(f: Formula, a: Assignment) -> bool:
    """Evaluate a formula under one assignment by direct recursion."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Ref):
        return bool(a[f.var])
    if isinstance(f, Not):
        return not eval_formula(f.arg, a)
    if isinstance(f, And):
        return eval_formula(f.left, a) and eval_formula(f.right, a)
    if isinstance(f, Or):
        return eval_formula(f.left, a) or eval_formula(f.right, a)
    if isinstance(f, Xor):
        return eval_formula(f.left, a) != eval_formula(f.right, a)
    raise TypeError(f"not a formula: {f!r}")


def postorder(f: Formula) -> list[Formula]:
    """Every subformula occurrence of ``f``, operands before their node.

    The order is the one a left-to-right recursion finishes its calls in:
    the left operand's subtree, then the right operand's, then the node
    itself, so ``f`` comes last.  The walk keeps its own stack, so a
    formula of any depth costs no interpreter frames; callers fold the
    list with a stack of values.  Anything that is not a formula raises
    ``TypeError`` before the list is returned.
    """
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        out.append(g)
        t = type(g)
        if t is And or t is Or or t is Xor:
            todo.append(g.left)
            todo.append(g.right)
        elif t is Not:
            todo.append(g.arg)
        elif t is not Ref and t is not Const:
            raise TypeError(f"not a formula: {g!r}")
    # ``out`` lists each node before its right subtree, then its left one
    out.reverse()
    return out


def _shape(f: Formula) -> list[tuple]:
    """Class and leaf field of each occurrence in ``f``, in post-order.

    The arity of each class is fixed, so this list determines the tree.
    """
    out = []
    for g in postorder(f):
        t = type(g)
        out.append((t, g.var if t is Ref else g.value if t is Const else None))
    return out


def formula_max_var(f: Formula) -> int:
    """Largest variable index appearing in ``f`` (0 if none)."""
    return max((g.var for g in postorder(f) if type(g) is Ref), default=0)


def formula_size(f: Formula) -> int:
    """Number of AST nodes in ``f``."""
    return len(postorder(f))


# ---------------------------------------------------------------------------
# Validation reports


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with a witness for debugging."""

    code: str
    message: str


@dataclass
class ValidationReport:
    """Outcome of a backend validator run.  Violations are data, not errors."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(Violation(code, message))

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.code}] {v.message}" for v in self.violations]
        return "\n".join(lines)
