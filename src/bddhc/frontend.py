"""Formula text frontend and formula generators.

Grammar (whitespace and ``#``-to-end-of-line comments are ignored)::

    formula := or
    or      := xor ('|' xor)*      lowest precedence
    xor     := and ('^' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | atom    highest precedence
    atom    := 'x' INT | '0' | '1' | '(' formula ')'

Binary operators are left-associative; variables are ``x1, x2, ...``.
``parse`` and ``format_formula`` round-trip exactly.

Compilation is bottom-up: constants become leaves, a variable ``x``
becomes the node (low=false, var=x, high=true), and connectives go
through the target backend's operations, so the result is canonical for
whatever the backend guarantees.
"""
from __future__ import annotations

import itertools
import random
from typing import Optional

from . import pure
from .core import (
    LEAF_FALSE,
    LEAF_TRUE,
    And,
    BddError,
    Const,
    Formula,
    Not,
    NodeRef,
    Or,
    Ref,
    Xor,
)


class ParseError(BddError):
    """Formula text is malformed; carries a 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class VarIndexZero(ParseError):
    """``x0`` is not a variable; indices start at 1."""


# ---------------------------------------------------------------------------
# Parsing


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "!&|^()":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in "01":
            tokens.append(_Token("const", ch == "1", line, col))
            i += 1
            col += 1
            continue
        if ch == "x":
            start_line, start_col = line, col
            i += 1
            col += 1
            digits = ""
            while i < n and text[i].isdigit():
                digits += text[i]
                i += 1
                col += 1
            if not digits:
                raise ParseError("expected digits after 'x'", start_line, start_col)
            index = int(digits)
            if index == 0:
                raise VarIndexZero(
                    "x0 is not a variable; indices start at 1", start_line, start_col
                )
            tokens.append(_Token("var", index, start_line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.or_expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"unexpected {tok.value!r} after the formula", tok.line, tok.column
            )
        return f

    def or_expr(self) -> Formula:
        f = self.xor_expr()
        while self.peek().kind == "|":
            self.take()
            f = Or(f, self.xor_expr())
        return f

    def xor_expr(self) -> Formula:
        f = self.and_expr()
        while self.peek().kind == "^":
            self.take()
            f = Xor(f, self.and_expr())
        return f

    def and_expr(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.take()
        if tok.kind == "var":
            return Ref(tok.value)
        if tok.kind == "const":
            return Const(tok.value)
        if tok.kind == "(":
            f = self.or_expr()
            closing = self.take()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.line, closing.column)
            return f
        if tok.kind == "eof":
            raise ParseError("expected a formula, found end of input", tok.line, tok.column)
        raise ParseError(f"expected a formula, found {tok.value!r}", tok.line, tok.column)


def parse(text: str) -> Formula:
    """Parse formula text into an AST; raises ParseError with position."""
    return _Parser(_tokenize(text)).parse()


def parse_file(path) -> Formula:
    """Parse a UTF-8 formula file (one formula, ``#`` comments allowed)."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


_PREC = {Or: 1, Xor: 2, And: 3, Not: 4}


def format_formula(f: Formula) -> str:
    """Render an AST in the grammar above with minimal parentheses."""
    if isinstance(f, Const):
        return "1" if f.value else "0"
    if isinstance(f, Ref):
        return f"x{f.var}"
    if isinstance(f, Not):
        arg = format_formula(f.arg)
        if isinstance(f.arg, (And, Or, Xor)):
            arg = f"({arg})"
        return f"!{arg}"
    op = {And: "&", Or: "|", Xor: "^"}[type(f)]
    prec = _PREC[type(f)]
    left = format_formula(f.left)
    if isinstance(f.left, (And, Or, Xor)) and _PREC[type(f.left)] < prec:
        left = f"({left})"
    right = format_formula(f.right)
    if isinstance(f.right, (And, Or, Xor)) and _PREC[type(f.right)] <= prec:
        right = f"({right})"
    return f"{left} {op} {right}"


# ---------------------------------------------------------------------------
# Compilation

_BINOP_NAMES = {And: "and", Or: "or", Xor: "xor"}


def compile_pure(
    f: Formula, st: pure.Store, fuel: Optional[int] = None
) -> tuple[NodeRef, pure.Store]:
    """Compile into the persistent store, threading it through."""
    if isinstance(f, Const):
        return (LEAF_TRUE if f.value else LEAF_FALSE), st
    if isinstance(f, Ref):
        return pure.mk_node(st, LEAF_FALSE, f.var, LEAF_TRUE)
    if isinstance(f, Not):
        ref, st = compile_pure(f.arg, st, fuel)
        return pure.neg(st, ref, fuel)
    op = _BINOP_NAMES.get(type(f))
    if op is None:
        raise TypeError(f"not a formula: {f!r}")
    a, st = compile_pure(f.left, st, fuel)
    b, st = compile_pure(f.right, st, fuel)
    return pure.apply_binop(st, op, a, b, fuel)


def compile_interned(f: Formula, m):
    """Compile into an interned manager, returning a handle."""
    if isinstance(f, Const):
        return m.constant(f.value)
    if isinstance(f, Ref):
        return m.node(f.var, m.false, m.true)
    if isinstance(f, Not):
        return m.neg(compile_interned(f.arg, m))
    op = _BINOP_NAMES.get(type(f))
    if op is None:
        raise TypeError(f"not a formula: {f!r}")
    return m.apply_binop(op, compile_interned(f.left, m), compile_interned(f.right, m))


def compile_formula(f: Formula, backend: str, state):
    """Uniform entry point: returns ``(result, state)`` for either backend.

    ``backend`` is ``"pure"`` (state: Store) or ``"interned"`` (state: a
    manager, returned as-is since it updates in place).
    """
    if backend == "pure":
        return compile_pure(f, state)
    if backend == "interned":
        return compile_interned(f, state), state
    raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# Benchmark families


def _conjoin(formulas: list[Formula]) -> Formula:
    """Balanced conjunction; keeps compiled intermediate results small."""
    if not formulas:
        return Const(True)
    layer = formulas
    while len(layer) > 1:
        nxt = [
            And(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
        layer = nxt
    return layer[0]


def _disjoin(formulas: list[Formula]) -> Formula:
    if not formulas:
        return Const(False)
    layer = formulas
    while len(layer) > 1:
        layer = [
            Or(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
    return layer[0]


def queens_var(n: int, row: int, col: int) -> int:
    """Variable index of the cell (row, col), 1-based, row-major."""
    return (row - 1) * n + col


def queens_formula(n: int) -> Formula:
    """Non-attacking placement of one queen per row on an n by n board.

    Satisfying assignments correspond exactly to n-queens solutions:
    each row holds exactly one queen and no two queens share a column
    or diagonal.
    """
    if n < 1:
        raise ValueError("board size must be >= 1")
    cell = lambda r, c: Ref(queens_var(n, r, c))
    constraints: list[Formula] = []
    for r in range(1, n + 1):
        constraints.append(_disjoin([cell(r, c) for c in range(1, n + 1)]))
        for c1, c2 in itertools.combinations(range(1, n + 1), 2):
            constraints.append(Not(And(cell(r, c1), cell(r, c2))))
    for c in range(1, n + 1):
        for r1, r2 in itertools.combinations(range(1, n + 1), 2):
            constraints.append(Not(And(cell(r1, c), cell(r2, c))))
    for r1 in range(1, n + 1):
        for c1 in range(1, n + 1):
            for r2 in range(r1 + 1, n + 1):
                dr = r2 - r1
                for c2 in (c1 - dr, c1 + dr):
                    if 1 <= c2 <= n:
                        constraints.append(Not(And(cell(r1, c1), cell(r2, c2))))
    return _conjoin(constraints)


def queens_solution_count(n: int) -> int:
    """Brute-force n-queens count by enumerating row-to-column permutations."""
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(
            abs(perm[i] - perm[j]) != j - i
            for i in range(n)
            for j in range(i + 1, n)
        ):
            count += 1
    return count


def pigeonhole_vars(holes: int) -> int:
    return (holes + 1) * holes


def pigeonhole_formula(holes: int) -> Formula:
    """``holes + 1`` pigeons into ``holes`` holes; unsatisfiable for all sizes.

    Variable ``x[(i-1)*holes + j]`` means pigeon ``i`` sits in hole ``j``.
    """
    if holes < 1:
        raise ValueError("hole count must be >= 1")
    pigeons = holes + 1
    slot = lambda i, j: Ref((i - 1) * holes + j)
    constraints: list[Formula] = []
    for i in range(1, pigeons + 1):
        constraints.append(_disjoin([slot(i, j) for j in range(1, holes + 1)]))
    for j in range(1, holes + 1):
        for i1, i2 in itertools.combinations(range(1, pigeons + 1), 2):
            constraints.append(Not(And(slot(i1, j), slot(i2, j))))
    return _conjoin(constraints)


# ---------------------------------------------------------------------------
# Random formulas (self-test and property-test input)


def random_formula(rng: random.Random, max_var: int = 6, max_depth: int = 8) -> Formula:
    """Random AST; depth and variable indices bounded as given."""
    if max_depth <= 0 or rng.random() < 0.12:
        if rng.random() < 0.9:
            return Ref(rng.randint(1, max_var))
        return Const(rng.random() < 0.5)
    pick = rng.randrange(5)
    if pick == 0:
        return Not(random_formula(rng, max_var, max_depth - 1))
    cls = (And, Or, Xor, And)[pick - 1]
    return cls(
        random_formula(rng, max_var, max_depth - 1),
        random_formula(rng, max_var, max_depth - 1),
    )


def random_equivalent(rng: random.Random, f: Formula, rounds: int = 3) -> Formula:
    """A syntactically different formula with the same truth table.

    Applies a few randomly placed meaning-preserving rewrites (double
    negation, De Morgan, commuting, xor expansion, identity padding).
    """
    for _ in range(max(1, rounds)):
        f = _rewrite_somewhere(rng, f)
    return f


def _rewrite_somewhere(rng: random.Random, f: Formula) -> Formula:
    if rng.random() < 0.45:
        return _rewrite_here(rng, f)
    if isinstance(f, Not):
        return Not(_rewrite_somewhere(rng, f.arg))
    if isinstance(f, (And, Or, Xor)):
        cls = type(f)
        if rng.random() < 0.5:
            return cls(_rewrite_somewhere(rng, f.left), f.right)
        return cls(f.left, _rewrite_somewhere(rng, f.right))
    return _rewrite_here(rng, f)


def _rewrite_here(rng: random.Random, f: Formula) -> Formula:
    rules = [
        lambda g: Not(Not(g)),
        lambda g: And(g, Const(True)),
        lambda g: Or(g, Const(False)),
        lambda g: Xor(g, Const(False)),
        lambda g: And(g, g),
        lambda g: Or(g, g),
        lambda g: Xor(Const(True), Not(g)),
    ]
    if isinstance(f, And):
        rules += [
            lambda g: And(g.right, g.left),
            lambda g: Not(Or(Not(g.left), Not(g.right))),
        ]
    elif isinstance(f, Or):
        rules += [
            lambda g: Or(g.right, g.left),
            lambda g: Not(And(Not(g.left), Not(g.right))),
        ]
    elif isinstance(f, Xor):
        rules += [
            lambda g: Xor(g.right, g.left),
            lambda g: Or(And(g.left, Not(g.right)), And(Not(g.left), g.right)),
        ]
    elif isinstance(f, Not):
        rules += [lambda g: Xor(g.arg, Const(True))]
    return rng.choice(rules)(f)
