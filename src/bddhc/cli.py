"""Command-line tool: checks, DOT export, benchmarks, self-test.

Exit codes: 0 for a positive verdict (tautology / satisfiable /
equivalent, or a passing self-test), 1 for the negative verdict or a
failed self-test, 2 for usage errors and for any exception.  An exception
is reported as one stderr line: ``error: <message>`` for an ``OSError``
or ``BddError`` (an unreadable file, a parse error, a variable above
``MAX_VAR``), ``error: <Type>: <message>`` for any other (a
``RecursionError``, say, or a bug).

``check`` compiles on the backends ``--backend`` names; ``dot``, whose
node names are uids, always compiles on the interned backend.

``bench`` writes comma-separated rows to stdout with the header::

    family,size,backend,kernel,wall_s,peak_nodes,intern_hits,intern_misses,memo_hits,memo_misses,models,verdict

``peak_nodes`` is the decision-node count of the state after compiling
(pools only grow, so this is the peak), and ``models`` counts satisfying
assignments over the family's full variable set.  When a size ran on both
backends, a ``#`` comment line reports the pure/interned wall-time ratio;
consumers should skip lines starting with ``#``.
"""
from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from functools import partial
from typing import Callable, NamedTuple, Optional

from . import frontend, graph, interned, oracle, pure
from .core import (
    And,
    BddError,
    Const,
    Formula,
    Not,
    OPS,
    Or,
    ValidationReport,
    Xor,
    formula_max_var,
    formula_size,
    parse_decimal,
)

BACKENDS = ("pure", "interned")
QUEENS_SIZE_CAP = 8
PIGEONHOLE_SIZE_CAP = 7


def _memo_totals(stats: dict[str, int]) -> tuple[int, int]:
    """Memo hits and misses, summed over the memoized operations."""
    return (
        sum(stats[op + "_hits"] for op in OPS),
        sum(stats[op + "_misses"] for op in OPS),
    )


def count_models(root, n: int, store: Optional[pure.Store] = None) -> int:
    """Satisfying assignments of a compiled BDD over variables ``x1..xn``.

    ``root`` is a pure node reference with its ``store``, or an interned
    handle; the count is :func:`bddhc.graph.count_models`.
    """
    expand = interned.expand if store is None else pure.expander(store)
    return graph.count_models(root, n, expand)


class _Compiled(NamedTuple):
    """Formulas compiled into one fresh pure store or interned manager.

    On either backend two roots are ``==`` exactly when they are the same
    node, and ``expand(root)[0]`` is a leaf root's truth value.
    """

    roots: list
    expand: Callable  # the state's :mod:`bddhc.graph` expand function
    stats: dict[str, int]
    nodes: int  # decision nodes in the state
    kernel: str
    seconds: float  # wall time of the compilation alone
    validate: Callable[[], ValidationReport]
    truth_table: Callable[[object, int], oracle.TruthTable]  # (root, n)


def _compile(backend, formulas, kernel="auto") -> _Compiled:
    """The only code of the tool that branches on the backend.

    ``kernel`` picks the interned kernel; the pure backend ignores it.
    """
    start = time.perf_counter()
    if backend == "pure":
        st = pure.empty_store()
        roots = []
        for f in formulas:
            root, st = frontend.compile_pure(f, st)
            roots.append(root)
        seconds = time.perf_counter() - start
        return _Compiled(
            roots, pure.expander(st), pure.store_stats(st), pure.node_count(st),
            "python", seconds, partial(pure.validate_store, st),
            partial(oracle.bdd_truth_table, store=st),
        )
    m = interned.new_manager(kernel)
    roots = [frontend.compile_interned(f, m) for f in formulas]
    seconds = time.perf_counter() - start
    return _Compiled(
        roots, interned.expand, m.stats(), m.pool_size() - 2, m.IMPL, seconds,
        partial(interned.validate_manager, m), oracle.bdd_truth_table,
    )


# ---------------------------------------------------------------------------
# check

_VERDICTS = {
    "taut": ("taut", "not-taut"),
    "sat": ("sat", "unsat"),
    "equiv": ("equiv", "not-equiv"),
}


def cmd_check(args) -> int:
    kind = args.kind
    count, need = (2, "two formula files") if kind == "equiv" else (1, "one formula file")
    if len(args.files) != count:
        print(f"{kind} needs exactly {need}", file=sys.stderr)
        return 2
    formulas = [frontend.parse_file(path) for path in args.files]
    backends = BACKENDS if args.backend == "both" else [args.backend]
    verdicts = set()
    for backend in backends:
        line, positive = _check_one(kind, formulas, backend)
        print(line)
        verdicts.add(positive)
    if len(verdicts) > 1:
        print("error: backends disagree on the verdict", file=sys.stderr)
        return 2
    return 0 if verdicts.pop() else 1


def _check_one(kind, formulas, backend) -> tuple[str, bool]:
    """The report line of one backend, and whether its verdict is positive."""
    start = time.perf_counter()
    c = _compile(backend, formulas)
    value = c.expand(c.roots[0])[0]
    if kind == "taut":
        positive = value is True
    elif kind == "sat":
        positive = value is not False
    else:
        positive = c.roots[0] == c.roots[1]
    result_nodes = graph.size(c.roots[0], c.expand)
    wall = time.perf_counter() - start
    memo_hits, memo_misses = _memo_totals(c.stats)
    line = (
        f"command=check:{kind} backend={backend} kernel={c.kernel} "
        f"verdict={_VERDICTS[kind][not positive]} result_nodes={result_nodes} "
        f"state_nodes={c.nodes} intern_hits={c.stats['intern_hits']} "
        f"intern_misses={c.stats['intern_misses']} "
        f"memo_hits={memo_hits} memo_misses={memo_misses} wall_s={wall:.6f}"
    )
    return line, positive


# ---------------------------------------------------------------------------
# dot


def cmd_dot(args) -> int:
    c = _compile("interned", [frontend.parse_file(args.file)])
    text = interned.to_dot(c.roots[0])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# bench

BENCH_HEADER = (
    "family,size,backend,kernel,wall_s,peak_nodes,intern_hits,intern_misses,"
    "memo_hits,memo_misses,models,verdict"
)


def _parse_size(text: str) -> int:
    text = text.strip()
    size = parse_decimal(text)
    if size is None:
        raise ValueError(f"not a decimal number: {text!r}")
    return size


def _parse_sizes(text: str) -> list[range]:
    """The size list as ranges, unexpanded, so that a huge one costs nothing."""
    ranges = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            ranges.append(range(_parse_size(lo), _parse_size(hi) + 1))
        elif part:
            size = _parse_size(part)
            ranges.append(range(size, size + 1))
    if not any(ranges):
        raise ValueError("empty size list")
    return ranges


def _bench_formula(family: str, size: int) -> tuple[Formula, int]:
    if family == "queens":
        return frontend.queens_formula(size), size * size
    return frontend.pigeonhole_formula(size), frontend.pigeonhole_vars(size)


def _bench_row(family, size, backend, kernel, formula, n_vars) -> tuple[str, float]:
    c = _compile(backend, [formula], kernel)
    models = graph.count_models(c.roots[0], n_vars, c.expand)
    memo_hits, memo_misses = _memo_totals(c.stats)
    verdict = "sat" if models else "unsat"
    row = (
        f"{family},{size},{backend},{c.kernel},{c.seconds:.4f},{c.nodes},"
        f"{c.stats['intern_hits']},{c.stats['intern_misses']},"
        f"{memo_hits},{memo_misses},{models},{verdict}"
    )
    return row, c.seconds


def cmd_bench(args) -> int:
    cap = args.size_cap
    if cap is None:
        cap = QUEENS_SIZE_CAP if args.family == "queens" else PIGEONHOLE_SIZE_CAP
    try:
        ranges = _parse_sizes(args.sizes)
    except ValueError as exc:
        print(f"error: bad size list: {exc}", file=sys.stderr)
        return 2
    if any(r and (r[0] < 1 or r[-1] > cap) for r in ranges):
        print(
            f"error: sizes for {args.family} must be within 1..{cap}",
            file=sys.stderr,
        )
        return 2
    backends = BACKENDS if args.backend == "both" else [args.backend]
    if args.kernel == "both":
        kernels = interned.available_kernels()
    elif args.kernel == "auto":
        kernels = [interned.kernel_name()]
    else:
        kernels = [args.kernel]
        if args.kernel not in interned.available_kernels():
            print("error: compiled kernel is not available", file=sys.stderr)
            return 2
    kernels_of = {"pure": ["python"], "interned": kernels}

    print(BENCH_HEADER)
    for size in itertools.chain.from_iterable(ranges):
        formula, n_vars = _bench_formula(args.family, size)
        walls = []
        for backend in backends:
            for kernel in kernels_of[backend]:
                row, wall = _bench_row(
                    args.family, size, backend, kernel, formula, n_vars
                )
                walls.append((kernel, wall))
                print(row)
        if args.backend == "both":
            (_, pure_wall), *interned_walls = walls
            for kernel, wall in interned_walls:
                ratio = pure_wall / wall if wall > 0 else float("inf")
                print(
                    f"# {args.family} size={size}: pure/interned[{kernel}] "
                    f"wall ratio = {ratio:.2f}"
                )
    return 0


# ---------------------------------------------------------------------------
# selftest


def _shrink(failing: Callable[[Formula], bool], f: Formula) -> Formula:
    """Greedy minimization: keep any smaller candidate that still fails."""

    def candidates(g):
        yield Const(False)
        yield Const(True)
        if isinstance(g, Not):
            yield g.arg
            for c in candidates(g.arg):
                yield Not(c)
        elif isinstance(g, (And, Or, Xor)):
            yield g.left
            yield g.right
            cls = type(g)
            for c in candidates(g.left):
                yield cls(c, g.right)
            for c in candidates(g.right):
                yield cls(g.left, c)

    for _ in range(80):
        size = formula_size(f)
        for cand in candidates(f):
            if formula_size(cand) < size and failing(cand):
                f = cand
                break
        else:
            return f
    return f


def run_selftest(
    seed: int = 0,
    cases: int = 300,
    max_vars: int = 6,
    echo: Callable[[str], None] = print,
) -> tuple[bool, Optional[str]]:
    """Randomized cross-backend oracle suite plus validator sweeps.

    Returns (ok, witness): on failure the witness is a minimized formula
    whose compilation disagrees with the truth-table oracle or breaks
    canonicity.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)

    def case_fails(f: Formula) -> bool:
        n = max(1, formula_max_var(f))
        want = oracle.formula_truth_table(f, n)
        for backend in BACKENDS:
            c = _compile(backend, [f])
            got = c.truth_table(c.roots[0], n)
            if not oracle.tables_equal(got, want) or not c.validate().ok:
                return True
        return False

    def pair_fails(pair: tuple[Formula, Formula]) -> bool:
        f, g = pair
        n = max(1, formula_max_var(f), formula_max_var(g))
        tables = [oracle.formula_truth_table(h, n) for h in (f, g)]
        semantically_equal = oracle.tables_equal(*tables)
        for backend in BACKENDS:
            c = _compile(backend, [f, g])
            if (c.roots[0] == c.roots[1]) != semantically_equal:
                return True
        return False

    for i in range(cases):
        f = frontend.random_formula(rng, max_var=max_vars, max_depth=8)
        if case_fails(f):
            small = _shrink(case_fails, f)
            echo(f"selftest: FAIL case {i}: oracle mismatch")
            echo(f"selftest: witness: {frontend.format_formula(small)}")
            return False, frontend.format_formula(small)
        if rng.random() < 0.5:
            g = frontend.random_equivalent(rng, f)
        else:
            g = frontend.random_formula(rng, max_var=max_vars, max_depth=8)
        if pair_fails((f, g)):
            small_g = _shrink(lambda x: pair_fails((f, x)), g)
            small_f = _shrink(lambda x: pair_fails((x, small_g)), f)
            echo(f"selftest: FAIL case {i}: canonicity mismatch")
            echo(
                "selftest: witness pair: "
                f"{frontend.format_formula(small_f)}  vs  "
                f"{frontend.format_formula(small_g)}"
            )
            return False, frontend.format_formula(small_f)
    echo(f"selftest: {cases} cases passed (seed={seed})")
    return True, None


def cmd_selftest(args) -> int:
    ok, _ = run_selftest(args.seed, args.cases, args.max_vars)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def decimal_int(text: str) -> int:
    """An option's value as ``core.parse_decimal`` reads it."""
    value = parse_decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
    return value


def positive_int(text: str) -> int:
    value = decimal_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bddhc",
        description="BDD-based tautology/satisfiability/equivalence checking, "
        "DOT export, and backend benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="compile and judge formula files")
    p_check.add_argument("kind", choices=["taut", "sat", "equiv"])
    p_check.add_argument("files", nargs="+", help="formula file(s)")
    p_check.add_argument(
        "--backend", choices=["pure", "interned", "both"], default="both"
    )
    p_check.set_defaults(func=cmd_check)

    p_dot = sub.add_parser("dot", help="export a formula's BDD as Graphviz text")
    p_dot.add_argument("file", help="formula file")
    p_dot.add_argument("--out", default=None, help="output path (default: stdout)")
    p_dot.set_defaults(func=cmd_dot)

    p_bench = sub.add_parser("bench", help="compare backends on formula families")
    p_bench.add_argument("family", choices=["queens", "pigeonhole"])
    p_bench.add_argument(
        "--sizes", default="4..6", help="comma list and/or ranges, e.g. 4..7 or 4,6"
    )
    p_bench.add_argument(
        "--backend", choices=["pure", "interned", "both"], default="both"
    )
    p_bench.add_argument(
        "--kernel",
        choices=["auto", "python", "compiled", "both"],
        default="auto",
        help="interned-backend kernel(s) to run",
    )
    p_bench.add_argument(
        "--size-cap", type=positive_int, default=None,
        help="override the family size cap",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="randomized cross-backend test suite")
    p_self.add_argument("--seed", type=decimal_int, default=0)
    p_self.add_argument("--cases", type=positive_int, default=300)
    p_self.add_argument("--max-vars", dest="max_vars", type=positive_int, default=6)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # exit codes 0 and 1 are verdicts, so a crash (RecursionError,
        # MemoryError, a bug) must not leave through them
        message = str(exc).replace("\n", " ")
        if not isinstance(exc, (OSError, BddError)):
            message = f"{type(exc).__name__}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
