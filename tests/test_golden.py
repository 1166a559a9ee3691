"""Byte-for-byte pins of DOT text, serialized stores, formula text and bench rows.

Each expected value is the first 16 hex digits of the SHA-256 of the
output, recorded before the graph walks were shared between the two
backends.  ``bddhc dot`` compiles on the interned backend, so its digests
pin that backend's uid numbering.  Bench rows and ``check`` report lines
are compared without ``wall_s``, and bench rows without the ``#`` ratio
lines.  The ``check`` and ``selftest`` pins, and the error lines of
``check`` and ``dot``, were recorded before the CLI compiled both backends
through one function; the ``check`` pins also before its report line
stopped being a dataclass.
"""
import hashlib
import random
import re

import pytest

from bddhc import frontend, interned, pure
from bddhc.cli import main
from bddhc.core import LEAF_FALSE, LEAF_TRUE, Leaf
from util import UnreducedManager

FORMULAS = {
    "queens4": lambda: frontend.queens_formula(4),
    "random3": lambda: frontend.random_formula(
        random.Random(3), max_var=8, max_depth=9
    ),
}

DOT = {"queens4": "a88cd4af7e9883b3", "random3": "7b243d1dad645b60"}

STORE_TEXT = {"queens4": "f40c3ee7341aaf84", "random3": "258a36df773a365b"}

# ``format_formula`` text, recorded before the formatter stopped recursing
FORMULA_TEXT = {
    "queens7": (lambda: frontend.queens_formula(7), "0fcc4d72a9974aa7"),
    "random3": (FORMULAS["random3"], "35fa3b6c11348987"),
}

# ``bddhc bench queens --sizes 4..6 --kernel <k>``; the kernel is a column
BENCH = {"python": "a642701bb1d4b877", "compiled": "50b189b4b16419d9"}

# ``bddhc check <kind> <files> --backend both``: exit code and report lines,
# compared without ``kernel`` (the interned line names the default kernel)
CHECK = {
    "taut-positive": ("taut", ["tautology"], 0, "42ec6952997aac91"),
    "taut-negative": ("taut", ["contingent"], 1, "deecf0157fbebb2d"),
    "sat-positive": ("sat", ["queens4"], 0, "8a35bd32ed4d971f"),
    "sat-negative": ("sat", ["pigeonhole3"], 1, "ae748acbf94c15ef"),
    "equiv-positive": ("equiv", ["xor", "xor_spelled"], 0, "fc68f411f1c1d6c2"),
    "equiv-negative": ("equiv", ["random3", "queens4"], 1, "18a17755deae1313"),
}

CHECK_FORMULAS = {
    "tautology": lambda: frontend.parse("(x1 & x2) | !x1 | !x2"),
    "contingent": lambda: frontend.parse("x1 | x2 & x3"),
    "queens4": FORMULAS["queens4"],
    "pigeonhole3": lambda: frontend.pigeonhole_formula(3),
    "xor": lambda: frontend.parse("x1 ^ x2 ^ x3"),
    "xor_spelled": lambda: frontend.parse("(x1 | x2) & !(x1 & x2) ^ x3"),
    "random3": FORMULAS["random3"],
}

# ``bddhc selftest <args>``: exit code and stdout.  ``sabotage`` runs with the
# interned backend on a manager that does not reduce; its digest was recorded
# with a selftest option that switched reduction off in both backends, and
# the output is the same
SELFTEST = {
    "seed3": (["--seed", "3", "--cases", "60"], 0, "86967c267ec9b164"),
    "sabotage": (["--seed", "2", "--cases", "40"], 1, "205fc7ad545138d4"),
}

# every view of every version of ``_version_tree()``, recorded when each
# operation came to own the arena it writes: an operation on an older
# version that allocates nothing no longer leaves memo entries behind
VERSION_TREE = "e1a9d5fac05668a2"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# the ids keep the backend these digests were recorded on
@pytest.mark.parametrize("name", [pytest.param(n, id=f"{n}-interned") for n in DOT])
def test_dot_text(name, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(frontend.format_formula(FORMULAS[name]()) + "\n", encoding="utf-8")
    assert main(["dot", str(path)]) == 0
    assert _digest(capsys.readouterr().out) == DOT[name]


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_store_text(name):
    _, st = frontend.compile_pure(FORMULAS[name](), pure.empty_store())
    assert _digest(pure.store_to_text(st)) == STORE_TEXT[name]


@pytest.mark.parametrize("name", sorted(FORMULA_TEXT))
def test_formula_text(name):
    build, digest = FORMULA_TEXT[name]
    assert _digest(frontend.format_formula(build())) == digest


def test_bench_rows(kernel, capsys):
    assert main(["bench", "queens", "--sizes", "4..6", "--kernel", kernel]) == 0
    rows = []
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("#"):
            continue
        fields = line.split(",")
        del fields[4]  # wall_s
        rows.append(",".join(fields))
    assert _digest("\n".join(rows) + "\n") == BENCH[kernel]


def _version_tree():
    """About 60 store versions grown from random earlier ones.

    An operation on a version that is not its arena's newest runs on a
    clone of that version with its memo tables, kept only if the operation
    allocates, so later versions share, fork and outgrow earlier ones;
    ``clear_memo`` versions fork without memo.
    """
    rng = random.Random(8)
    versions = [(pure.empty_store(), [LEAF_FALSE, LEAF_TRUE])]
    for _ in range(60):
        st, refs = versions[-1] if rng.random() < 0.6 else rng.choice(versions)
        step = rng.random()
        if step < 0.05:
            versions.append((pure.clear_memo(st), refs))
            continue
        if step < 0.45:
            var = rng.randint(1, 6)
            below = [
                r for r in refs if isinstance(r, Leaf) or st.graph[r].var > var
            ]
            ref, st = pure.mk_node(st, rng.choice(below), var, rng.choice(below))
        elif step < 0.6:
            ref, st = pure.neg(st, rng.choice(refs))
        else:
            op = rng.choice(["and", "or", "xor"])
            ref, st = pure.apply_binop(st, op, rng.choice(refs), rng.choice(refs))
        versions.append((st, refs if ref in refs else refs + [ref]))
    return [st for st, _ in versions]


def test_version_tree_views():
    lines = []
    for st in _version_tree():
        memo = st.memo
        views = [st.graph, st.hmap, memo.mand, memo.mor, memo.mxor, memo.mneg]
        lines += [
            *(repr(list(view.items())) for view in views),
            str(pure.node_count(st)),
            pure.store_to_text(st),
            str(pure.validate_store(st, check_memo_semantics=True)),
        ]
    assert _digest("\n".join(lines)) == VERSION_TREE


def _without_wall_s_and_kernel(text):
    return re.sub(r" (wall_s|kernel)=\S+", "", text)


@pytest.mark.parametrize("case", sorted(CHECK))
def test_check_report_lines(case, tmp_path, capsys):
    kind, names, code, digest = CHECK[case]
    paths = []
    for name in names:
        path = tmp_path / f"{name}.txt"
        text = frontend.format_formula(CHECK_FORMULAS[name]())
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(str(path))
    assert main(["check", kind, *paths, "--backend", "both"]) == code
    out = capsys.readouterr().out
    kernels = re.findall(r" kernel=(\S+)", out)
    assert kernels == ["python", interned.kernel_name()]
    assert _digest(_without_wall_s_and_kernel(out)) == digest


@pytest.mark.parametrize("case", sorted(SELFTEST))
def test_selftest_output(case, monkeypatch, capsys):
    args, code, digest = SELFTEST[case]
    if case == "sabotage":
        monkeypatch.setattr(
            interned, "new_manager", lambda kernel="auto": UnreducedManager()
        )
    assert main(["selftest", *args]) == code
    assert _digest(capsys.readouterr().out) == digest


# one formula file and the error line; ``{path}`` stands for its path
ERRORS = {
    "parse": ("x1 &", "2:1: expected a formula, found end of input"),
    "missing": (None, "[Errno 2] No such file or directory: {path!r}"),
}


@pytest.mark.parametrize("command", ["check", "dot"])
@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_lines(command, case, tmp_path, capsys):
    text, message = ERRORS[case]
    path = tmp_path / "f.txt"
    if text is not None:
        path.write_text(text + "\n", encoding="utf-8")
    args = ["check", "taut"] if command == "check" else ["dot"]
    assert main([*args, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(path=str(path)) + "\n"
