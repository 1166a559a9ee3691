"""Formula text frontend and formula generators.

Grammar (whitespace and ``#``-to-end-of-line comments are ignored)::

    formula := or
    or      := xor ('|' xor)*      lowest precedence
    xor     := and ('^' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | atom    highest precedence
    atom    := 'x' INT | '0' | '1' | '(' formula ')'

Binary operators are left-associative; variables are ``x1, x2, ...``
with an index of ASCII digits.  ``parse`` and ``format_formula``
round-trip exactly.

``_BINARY`` (token to precedence and AST class) is the one definition of
the binary operators; the parser, the formatter and the compilers read
it.  ``parse`` is one operator-precedence loop that alternates between
an operand (``!`` and ``(`` prefixes, then an atom) and what follows it,
with the pending operators and their left operands on explicit stacks.
The formatter and the compilers fold ``core.postorder``'s list with a
stack of values, so no nesting depth costs interpreter frames.

Compilation is bottom-up: constants become leaves, a variable ``x``
becomes the node (low=false, var=x, high=true), and connectives go
through the target backend's operations, so the result is canonical for
whatever the backend guarantees.
"""
from __future__ import annotations

import itertools
import random

from . import pure
from .core import (
    LEAF_FALSE,
    LEAF_TRUE,
    And,
    BddError,
    Const,
    Formula,
    MAX_VAR,
    Not,
    NodeRef,
    Or,
    Ref,
    Xor,
    postorder,
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
# The grammar's operators

# Binary operator token -> (precedence, AST class); a larger precedence
# binds tighter.
_BINARY = {"|": (1, Or), "^": (2, Xor), "&": (3, And)}
# '!' binds tighter than every binary operator.
_NOT_PREC = 4

_SYMBOL = {cls: (token, prec) for token, (prec, cls) in _BINARY.items()}
# the backends name their binary operations after the class: "and", ...
_OP_NAME = {cls: cls.__name__.lower() for _, cls in _BINARY.values()}


# ---------------------------------------------------------------------------
# Parsing


def _error(message: str, text: str, offset: int, cls=ParseError) -> ParseError:
    """``cls(message)`` at the 1-based line and column of ``text[offset]``.

    Columns count characters, except that a comment does not advance them,
    which matters only for the end of input after a comment on the last line.
    """
    start = text.rfind("\n", 0, offset) + 1
    comment = text.find("#", start, offset)
    column = (offset if comment < 0 else comment) - start + 1
    return cls(message, text.count("\n", 0, offset) + 1, column)


def _tokenize(text: str) -> list[tuple]:
    """``(kind, value, offset)`` tuples, ending with an ``eof`` token.

    ``kind`` is the character for ``!&|^()``, ``"const"`` (value a bool) or
    ``"var"`` (value the index).
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == "#":
            i = text.find("\n", i)
            if i < 0:
                i = n
        elif ch in "!&|^()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch in "01":
            tokens.append(("const", ch == "1", i))
            i += 1
        elif ch == "x":
            j = i + 1
            # ASCII only: str.isdigit() also accepts '²' and '١', which
            # int() rejects or reads as another digit
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                raise _error("expected digits after 'x'", text, i)
            try:
                index = int(text[i + 1 : j])
            except ValueError:  # more digits than int() will convert
                index = MAX_VAR + 1
            if index == 0:
                message = "x0 is not a variable; indices start at 1"
                raise _error(message, text, i, VarIndexZero)
            if index > MAX_VAR:
                message = f"variable index too large; the largest is x{MAX_VAR}"
                raise _error(message, text, i)
            tokens.append(("var", index, i))
            i = j
        else:
            raise _error(f"unexpected character {ch!r}", text, i)
    tokens.append(("eof", None, n))
    return tokens


# An open group on the operator stack: it binds nothing, so it stops every
# reduction.  The whole text is the bottom group, closed by end of input.
_GROUP = (0, None)
_NOT = (_NOT_PREC, Not)


def parse(text: str) -> Formula:
    """Parse formula text into an AST; raises ParseError with position."""
    tokens = _tokenize(text)
    pending = [_GROUP]  # (precedence, class) of operators not yet applied
    lefts: list[Formula] = []  # the left operand of each pending binary
    i = 0
    while True:
        # an operand: '!' and '(' prefixes, then a variable or a constant
        kind, value, offset = tokens[i]
        i += 1
        while kind == "!" or kind == "(":
            pending.append(_NOT if kind == "!" else _GROUP)
            kind, value, offset = tokens[i]
            i += 1
        if kind == "var":
            f = Ref(value)
        elif kind == "const":
            f = Const(value)
        elif kind == "eof":
            raise _error("expected a formula, found end of input", text, offset)
        else:
            message = f"expected a formula, found {value!r}"
            raise _error(message, text, offset)
        # what follows: a binary operator, or the end of a group
        while True:
            kind, value, offset = tokens[i]
            i += 1
            op = _BINARY.get(kind)
            # left-associative: apply pending operators binding at least as
            # tight; anything else ends the group, applying all of them
            floor = op[0] if op is not None else 1
            while pending[-1][0] >= floor:
                cls = pending.pop()[1]
                f = Not(f) if cls is Not else cls(lefts.pop(), f)
            if op is not None:
                lefts.append(f)
                pending.append(op)
                break
            if len(pending) == 1:
                if kind != "eof":
                    message = f"unexpected {value!r} after the formula"
                    raise _error(message, text, offset)
                return f
            if kind != ")":
                raise _error("expected ')'", text, offset)
            pending.pop()


def parse_file(path) -> Formula:
    """Parse a UTF-8 formula file (one formula, ``#`` comments allowed)."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _grouped(text: str, g: Formula, prec: int) -> str:
    """``text`` of ``g``, parenthesized if ``g`` binds looser than ``prec``."""
    symbol = _SYMBOL.get(type(g))
    return f"({text})" if symbol is not None and symbol[1] < prec else text


def format_formula(f: Formula) -> str:
    """Render an AST in the grammar above with minimal parentheses."""
    texts: list[str] = []
    for g in postorder(f):
        t = type(g)
        if t is Ref:
            texts.append(f"x{g.var}")
        elif t is Const:
            texts.append("1" if g.value else "0")
        elif t is Not:
            texts[-1] = "!" + _grouped(texts[-1], g.arg, _NOT_PREC)
        else:
            token, prec = _SYMBOL[t]
            # left-associative: a right operand of equal precedence is grouped
            right = _grouped(texts.pop(), g.right, prec + 1)
            texts[-1] = f"{_grouped(texts[-1], g.left, prec)} {token} {right}"
    return texts[0]


# ---------------------------------------------------------------------------
# Compilation
#
# Both compilers look ``pure.<op>`` and the manager's methods up on every
# call, so wrappers installed on either see each call.


def compile_pure(f: Formula, st: pure.Store) -> tuple[NodeRef, pure.Store]:
    """Compile into the persistent store, threading it through."""
    refs: list[NodeRef] = []
    for g in postorder(f):
        t = type(g)
        if t is Ref:
            ref, st = pure.mk_node(st, LEAF_FALSE, g.var, LEAF_TRUE)
        elif t is Not:
            ref, st = pure.neg(st, refs.pop())
        elif t is Const:
            ref = LEAF_TRUE if g.value else LEAF_FALSE
        else:
            b = refs.pop()
            ref, st = pure.apply_binop(st, _OP_NAME[t], refs.pop(), b)
        refs.append(ref)
    return refs[0], st


def compile_interned(f: Formula, m):
    """Compile into an interned manager, returning a handle."""
    handles = []
    for g in postorder(f):
        t = type(g)
        if t is Ref:
            handles.append(m.node(g.var, m.false, m.true))
        elif t is Not:
            handles[-1] = m.neg(handles[-1])
        elif t is Const:
            handles.append(m.constant(g.value))
        else:
            b = handles.pop()
            handles[-1] = m.apply_binop(_OP_NAME[t], handles[-1], b)
    return handles[0]


# ---------------------------------------------------------------------------
# Benchmark families


def _balanced(cls, formulas: list[Formula]) -> Formula:
    """``cls`` (``And`` or ``Or``) of ``formulas`` as a balanced tree.

    Adjacent items are paired, layer by layer, which keeps compiled
    intermediate results small.  No items give the unit: true for ``And``,
    false for ``Or``.
    """
    if not formulas:
        return Const(cls is And)
    layer = formulas
    while len(layer) > 1:
        layer = [
            cls(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
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
        constraints.append(_balanced(Or, [cell(r, c) for c in range(1, n + 1)]))
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
    return _balanced(And, constraints)


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
        constraints.append(_balanced(Or, [slot(i, j) for j in range(1, holes + 1)]))
    for j in range(1, holes + 1):
        for i1, i2 in itertools.combinations(range(1, pigeons + 1), 2):
            constraints.append(Not(And(slot(i1, j), slot(i2, j))))
    return _balanced(And, constraints)


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


def random_equivalent(rng: random.Random, f: Formula) -> Formula:
    """A syntactically different formula with the same truth table.

    Applies three randomly placed meaning-preserving rewrites (double
    negation, De Morgan, commuting, xor expansion, identity padding).
    """
    for _ in range(3):
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
