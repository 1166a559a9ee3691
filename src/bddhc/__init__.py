"""Reduced ordered binary decision diagrams, two ways.

``bddhc.pure`` threads an immutable store through every operation;
``bddhc.interned`` keeps a mutable hash-consing manager with constant
time equality.  Both produce the same canonical diagrams, and
``bddhc.oracle`` provides the brute-force semantics they are tested
against.  ``bddhc.frontend`` parses and compiles formula text, and
``bddhc.cli`` exposes the command-line tool.
"""
from .core import (
    LEAF_FALSE,
    LEAF_TRUE,
    And,
    ArityMismatch,
    Assignment,
    BddError,
    Const,
    CorruptStore,
    DanglingRef,
    FALSE,
    ForeignHandle,
    Formula,
    InvalidChild,
    Leaf,
    Node,
    NodeRef,
    Not,
    Or,
    OrderViolation,
    Ref,
    TRUE,
    ValidationReport,
    VarOutOfRange,
    Xor,
    eval_formula,
    formula_max_var,
    var,
)
from . import core, frontend, interned, oracle, pure

__version__ = "0.1.0"

__all__ = [
    "And",
    "ArityMismatch",
    "Assignment",
    "BddError",
    "Const",
    "CorruptStore",
    "DanglingRef",
    "FALSE",
    "ForeignHandle",
    "Formula",
    "InvalidChild",
    "LEAF_FALSE",
    "LEAF_TRUE",
    "Leaf",
    "Node",
    "NodeRef",
    "Not",
    "Or",
    "OrderViolation",
    "Ref",
    "TRUE",
    "ValidationReport",
    "VarOutOfRange",
    "Xor",
    "core",
    "eval_formula",
    "formula_max_var",
    "frontend",
    "interned",
    "oracle",
    "pure",
    "var",
    "__version__",
]
