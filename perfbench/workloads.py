"""Seeded inputs, timed jobs and independent answers for the two workloads.

Every workload is a stream of jobs numbered 0, 1, 2, ...  Job ``j`` of a
workload is a pure function of ``(seed, j)``: the worker that times it and
the parent that checks it regenerate the same formula text independently.

The timed part of a job goes only through bddhc's public functions, in the
order ``bddhc check`` / ``bddhc bench`` use them: ``frontend.parse``, then
``frontend.compile_pure`` or ``frontend.compile_interned`` (which call
``pure.apply_binop``/``pure.neg``/``pure.mk_node`` or the manager's
``apply_binop``/``neg``/``node``), then ``cli.count_models``.

The expected answers never come from BDD code: they are computed with
``core.eval_formula`` on the generated ASTs, or known by construction.
"""
from __future__ import annotations

import itertools
import random
import zlib

from bddhc import cli, core, frontend, interned, pure

QUEENS_N = 7
QUEENS_VARS = QUEENS_N * QUEENS_N
EQUIV_VARS = 12
EQUIV_DEPTH = 10
KERNEL = "python"
BACKENDS = ("pure", "interned")
OPS = ("not", "and", "or", "xor")
STAT_KEYS = ("intern_hits", "intern_misses") + tuple(
    f"{op}_{kind}" for op in OPS for kind in ("hits", "misses")
)


def _rng(workload: str, seed: int, j) -> random.Random:
    # str seeds are hashed with sha512, so every process draws the same stream
    return random.Random(f"{workload}:{seed}:{j}")


def text_crc(texts) -> int:
    return zlib.crc32("\x00".join(texts).encode())


# ---------------------------------------------------------------------------
# Inputs (shared by the worker and the checking parent)


def queens_text(seed: int, j) -> str:
    """The N=7 queens formula, laid out with seeded whitespace.

    Only the layout depends on the seed: every job parses to the same AST,
    so every queens job does the same BDD work.
    """
    rng = _rng("queens", seed, j)
    flat = frontend.format_formula(frontend.queens_formula(QUEENS_N))
    seps = [" ", " ", " ", "  ", "\n", "\n  "]
    parts = flat.split(" ")
    out = [f"# queens n={QUEENS_N} seed={seed} job={j}\n", parts[0]]
    for part in parts[1:]:
        out.append(rng.choice(seps))
        out.append(part)
    return "".join(out) + "\n"


def equiv_case(seed: int, j: int):
    """Formula pair for equiv job ``j``: ``(f, g, cube_literals)``.

    Even jobs pair ``f`` with a ``random_equivalent`` rewrite.  Odd jobs XOR
    that rewrite with a satisfiable random cube, so ``f ^ g`` is exactly the
    cube; ``cube_literals`` lists its ``(var, value)`` pairs (empty when even).
    """
    rng = _rng("equiv", seed, j)
    f = frontend.random_formula(rng, max_var=EQUIV_VARS, max_depth=EQUIV_DEPTH)
    g = frontend.random_equivalent(rng, f)
    literals = []
    if j % 2:
        size = rng.randint(1, 4)
        for v in sorted(rng.sample(range(1, EQUIV_VARS + 1), size)):
            literals.append((v, rng.random() < 0.5))
        cube = None
        for v, value in literals:
            lit = core.Ref(v) if value else core.Not(core.Ref(v))
            cube = lit if cube is None else core.And(cube, lit)
        g = core.Xor(g, cube)
    return f, g, literals


def equiv_texts(seed: int, j: int) -> tuple[str, str]:
    f, g, _ = equiv_case(seed, j)
    return frontend.format_formula(f), frontend.format_formula(g)


def job_texts(workload: str, seed: int, j: int) -> tuple[str, ...]:
    if workload == "queens":
        return (queens_text(seed, j),)
    return equiv_texts(seed, j)


# ---------------------------------------------------------------------------
# Independent answers (parent side, untimed)


def queens_solutions() -> list[dict]:
    """Assignments of the N=7 queens formula, by brute force.

    Enumerates row-to-column permutations and evaluates every constraint
    with ``core.eval_formula``.  An assignment that is not a permutation
    placement breaks a row or column constraint, so these are all models.
    """
    # reversed: the diagonal constraints come last and reject most placements
    constraints = _conjuncts(frontend.queens_formula(QUEENS_N))[::-1]
    sols = []
    for perm in itertools.permutations(range(1, QUEENS_N + 1)):
        a = dict.fromkeys(range(1, QUEENS_VARS + 1), False)
        for row, col in enumerate(perm, start=1):
            a[frontend.queens_var(QUEENS_N, row, col)] = True
        if all(core.eval_formula(c, a) for c in constraints):
            sols.append(a)
    return sols


def _conjuncts(f: core.Formula) -> list[core.Formula]:
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, core.And):
            stack += [g.right, g.left]
        else:
            out.append(g)
    return out


class Oracle:
    """Expected ``(sat_or_equiv, models)`` per job, without BDD code."""

    def __init__(self, workload: str, seed: int, corrupt: bool = False):
        self.workload = workload
        self.seed = seed
        self.corrupt = corrupt
        self.solutions = queens_solutions() if workload == "queens" else None

    def expected(self, j: int):
        verdict, models = self._expected(j)
        if self.corrupt and j == 0:
            models += 1
        return verdict, models

    def _expected(self, j: int):
        if self.workload == "queens":
            return True, len(self.solutions)
        f, g, literals = equiv_case(self.seed, j)
        if not literals:
            return True, 0
        witness = dict.fromkeys(range(1, EQUIV_VARS + 1), False)
        witness.update(literals)
        if core.eval_formula(f, witness) == core.eval_formula(g, witness):
            raise AssertionError(f"equiv job {j}: cube witness does not separate f and g")
        return False, 2 ** (EQUIV_VARS - len(literals))


# ---------------------------------------------------------------------------
# Timed jobs (worker side)


class Workload:
    """One backend's view of a workload: the job body and its accounting.

    ``run`` returns ``(verdict, models, state)``; everything between
    parsing the text and the model count is inside the caller's timer.
    ``tracer.attach``/``detach`` instrument a manager the job creates.
    """

    def __init__(self, name: str, backend: str):
        self.name = name
        self.backend = backend

    def _compile(self, f, st, tracer=None):
        if self.backend == "pure":
            return frontend.compile_pure(f, pure.empty_store() if st is None else st)
        if st is None:
            st = interned.new_manager(KERNEL)
            if tracer is not None:
                tracer.attach(st)
        return frontend.compile_interned(f, st), st

    def _apply(self, op, st, a, b):
        if self.backend == "pure":
            return pure.apply_binop(st, op, a, b)
        return st.apply_binop(op, a, b), st

    def _count(self, root, n, st):
        if self.backend == "pure":
            return cli.count_models(root, n, store=st)
        return cli.count_models(root, n)

    def _sat(self, root, st) -> bool:
        # the same root test ``bddhc check sat`` makes
        if self.backend == "pure":
            return root is not core.LEAF_FALSE
        return root.uid != st.false.uid

    def run(self, texts, tracer=None):
        if self.name == "queens":
            root, st = self._compile(frontend.parse(texts[0]), None, tracer)
            return self._sat(root, st), self._count(root, QUEENS_VARS, st), st
        f = frontend.parse(texts[0])
        g = frontend.parse(texts[1])
        a, st = self._compile(f, None, tracer)
        b, st = self._compile(g, st)
        diff, st = self._apply("xor", st, a, b)
        models = self._count(diff, EQUIV_VARS, st)
        # the same root test ``bddhc check equiv`` makes
        same = pure.eq(a, b) if self.backend == "pure" else interned.structural_eq(a, b)
        return same, models, st

    # -- untimed accounting -------------------------------------------

    def stats(self, st) -> dict:
        if self.backend == "pure":
            return pure.store_stats(st)
        return st.stats()

    def sizes(self, st) -> dict:
        """Node count and per-op memo-table sizes of a job's result state."""
        if self.backend == "pure":
            sh = st.shared
            tables = (sh.mneg, sh.mand, sh.mor, sh.mxor)
            out = {"nodes": pure.node_count(st)}
        else:
            memo = st.memo_entries()
            tables = tuple(memo[op] for op in OPS)
            out = {"nodes": st.pool_size() - 2}
        for op, table in zip(OPS, tables):
            out[f"memo_{op}"] = len(table)
        return out

    def validate(self, st) -> bool:
        if self.backend == "pure":
            return pure.validate_store(st).ok
        return interned.validate_manager(st).ok
