"""Brute-force truth tables, the ground truth the fast paths are tested against.

Everything here works by enumerating assignments and evaluating one at a
time; it never touches a backend's node constructors or apply machinery.
A compiled BDD is read through each backend's :mod:`bddhc.graph`
``expand`` function, the same read-only view every other walk uses.
Slow and obviously correct is the point.

Bit order: table index ``k`` encodes the assignment in which variable
``x(i+1)`` takes bit ``i`` of ``k`` (little-endian in the variable
index).  Hex output prints the table as one integer, bit ``k`` of the
integer being entry ``k``, zero-padded to ``2**n / 4`` digits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import graph, interned, pure
from .core import (
    ArityMismatch,
    Formula,
    VarOutOfRange,
    eval_formula,
    formula_max_var,
)

#: Largest supported variable count; 2**20 table bits is ~128 KiB as an int.
MAX_VARS = 20


@dataclass(frozen=True)
class TruthTable:
    """All ``2**n`` values of a boolean function, packed into an int."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VARS:
            raise VarOutOfRange(f"variable count must be in 0..{MAX_VARS}, got {self.n}")
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError("bits wider than 2**n entries")

    def value(self, k: int) -> bool:
        """Entry ``k``; ``k`` encodes the assignment as described above."""
        if not 0 <= k < (1 << self.n):
            raise IndexError(k)
        return bool((self.bits >> k) & 1)

    def to_hex(self) -> str:
        width = max(1, (1 << self.n) // 4)
        return f"{self.bits:0{width}x}"

    @classmethod
    def from_hex(cls, n: int, text: str) -> "TruthTable":
        return cls(n, int(text, 16))

    def __len__(self) -> int:
        return 1 << self.n


def assignment_for(k: int, n: int) -> dict[int, bool]:
    """The assignment encoded by table index ``k`` over ``n`` variables."""
    return {i + 1: bool((k >> i) & 1) for i in range(n)}


def formula_truth_table(f: Formula, n: int) -> TruthTable:
    """Evaluate ``f`` under every assignment of ``x1..xn``."""
    _check_n(n)
    if formula_max_var(f) > n:
        raise VarOutOfRange(
            f"formula uses x{formula_max_var(f)} but the table covers only {n} variables"
        )
    bits = 0
    for k in range(1 << n):
        if eval_formula(f, assignment_for(k, n)):
            bits |= 1 << k
    return TruthTable(n, bits)


def bdd_truth_table(root, n: int, store=None) -> TruthTable:
    """Evaluate a compiled BDD under every assignment, one path at a time.

    ``root`` is either a pure-backend node reference together with its
    ``store``, or an interned-backend handle (``store`` omitted).  The
    paths are followed by :func:`bddhc.graph.follow`, which only reads
    the graph: no constructor or operation of either backend runs.
    """
    _check_n(n)
    expand = interned.expand if store is None else pure.expander(store)
    bits = 0
    for k in range(1 << n):
        if graph.follow(root, expand, partial(_branch, k, n)):
            bits |= 1 << k
    return TruthTable(n, bits)


def _branch(k: int, n: int, var: int) -> int:
    """Bit of table index ``k`` that chooses ``var``'s branch."""
    if var > n:
        raise VarOutOfRange(f"node variable x{var} above table arity {n}")
    return (k >> (var - 1)) & 1


def tables_equal(a: TruthTable, b: TruthTable) -> bool:
    """Bitwise equality; comparing different arities is a caller bug."""
    if a.n != b.n:
        raise ArityMismatch(f"cannot compare tables over {a.n} and {b.n} variables")
    return a.bits == b.bits


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_VARS:
        raise VarOutOfRange(f"variable count must be in 0..{MAX_VARS}, got {n!r}")
