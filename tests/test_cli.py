import argparse
import contextlib
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from bddhc import cli, frontend, interned, oracle, pure
from bddhc.core import (
    LEAF_FALSE,
    LEAF_TRUE,
    MAX_VAR,
    BddError,
    Node,
    formula_max_var,
)
from bddhc.cli import count_models, main
from util import DEEP_FORMULAS, UnreducedManager, formulas


@pytest.fixture
def formula_file(tmp_path):
    def write(text, name="f.txt"):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    return write


# -- model counting ------------------------------------------------------


def test_count_models_against_truth_tables():
    rng = random.Random(19)
    for _ in range(50):
        f = frontend.random_formula(rng, max_var=5, max_depth=6)
        n = 5
        want = bin(oracle.formula_truth_table(f, n).bits).count("1")
        st = pure.empty_store()
        ref, st = frontend.compile_pure(f, st)
        assert count_models(ref, n, store=st) == want
        m = interned.new_manager()
        h = frontend.compile_interned(f, m)
        assert count_models(h, n) == want


def test_count_models_leaves():
    from bddhc.core import LEAF_FALSE, LEAF_TRUE

    st = pure.empty_store()
    assert count_models(LEAF_TRUE, 3, store=st) == 8
    assert count_models(LEAF_FALSE, 3, store=st) == 0


def test_count_models_rejects_small_span():
    m = interned.new_manager()
    h = frontend.compile_interned(frontend.parse("x3"), m)
    with pytest.raises(ValueError):
        count_models(h, 2)


def test_count_models_deep_chain_both_forms():
    # x1 & x2 & ... & x3000, built bottom-up: deeper than the interpreter's
    # default recursion limit, and with exactly one model
    n = 3000
    st = pure.empty_store()
    ref = LEAF_TRUE
    for var in range(n, 0, -1):
        ref, st = pure.mk_node(st, LEAF_FALSE, var, ref)
    assert count_models(ref, n, store=st) == 1
    m = interned.new_manager()
    h = m.true
    for var in range(n, 0, -1):
        h = m.node(var, m.false, h)
    assert count_models(h, n) == 1


def test_count_models_rejects_cyclic_store():
    looped = pure.store_from_parts(
        {1: Node(LEAF_FALSE, 1, 2), 2: Node(LEAF_FALSE, 2, 1)}, next_id=3
    )
    with pytest.raises(BddError, match="cycle"):
        count_models(1, 2, store=looped)


# -- check ----------------------------------------------------------------


def test_check_taut_positive(formula_file, capsys):
    path = formula_file("x1 | !x1")
    assert main(["check", "taut", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2  # default backend is both
    assert all("verdict=taut" in line for line in out)
    assert any("backend=pure" in line for line in out)
    assert any("backend=interned" in line for line in out)


def test_check_taut_negative(formula_file, capsys):
    path = formula_file("x1 | x2")
    assert main(["check", "taut", path, "--backend", "interned"]) == 1
    assert "verdict=not-taut" in capsys.readouterr().out


def test_check_sat(formula_file, capsys):
    sat_path = formula_file("x1 & x2")
    unsat_path = formula_file("x1 & !x1", name="g.txt")
    assert main(["check", "sat", sat_path, "--backend", "pure"]) == 0
    assert main(["check", "sat", unsat_path]) == 1
    assert "verdict=unsat" in capsys.readouterr().out


def test_check_equiv(formula_file, capsys):
    a = formula_file("x1 ^ x2", name="a.txt")
    b = formula_file("(x1|x2) & !(x1&x2)", name="b.txt")
    c = formula_file("x1 & x2", name="c.txt")
    assert main(["check", "equiv", a, b]) == 0
    assert main(["check", "equiv", a, c]) == 1
    out = capsys.readouterr().out
    assert "verdict=equiv" in out and "verdict=not-equiv" in out


def test_check_equiv_needs_two_files(formula_file, capsys):
    path = formula_file("x1")
    assert main(["check", "equiv", path]) == 2
    assert main(["check", "taut", path, path]) == 2


def test_check_parse_error_exits_2(formula_file, capsys):
    path = formula_file("x1 &")
    assert main(["check", "taut", path]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["pure", "interned"])
def test_check_crash_exits_2_not_a_verdict(formula_file, capsys, monkeypatch, backend):
    # exit codes 0 and 1 are verdicts, so a crash while compiling (here a
    # forced one, on either kernel) must leave through 2
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(frontend, "compile_pure", boom)
    monkeypatch.setattr(frontend, "compile_interned", boom)
    path = formula_file("x1 & x2")
    assert main(["check", "sat", path, "--backend", backend]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: RuntimeError: boom"]


@pytest.mark.parametrize("backend", ["pure", "interned"])
@pytest.mark.parametrize(
    "name, kind, verdict, code",
    [
        ("not10000", "taut", "not-taut", 1),
        ("groups2000", "taut", "taut", 0),
        ("or5000", "sat", "sat", 0),
        ("xor5000", "sat", "unsat", 1),
    ],
)
def test_check_deep_formula_gets_its_verdict(
    formula_file, capsys, name, kind, verdict, code, backend
):
    # parsing and compiling keep their own stacks, so only the BDD's depth
    # (at most four variables here) reaches the apply recursion
    path = formula_file(frontend.format_formula(DEEP_FORMULAS[name]()))
    assert main(["check", kind, path, "--backend", backend]) == code
    captured = capsys.readouterr()
    assert f" verdict={verdict} " in captured.out
    assert captured.err == ""


def test_check_largest_variable_gets_its_verdict(formula_file, capsys):
    path = formula_file(f"x{MAX_VAR} & x1")
    assert main(["check", "sat", path, "--backend", "both"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count(" verdict=sat ") == 2
    assert captured.err == ""


def test_largest_variable_compiles_on_every_kernel(kernel):
    # the compiled kernel keeps a variable in a C int, so MAX_VAR is its limit
    formula = frontend.parse(f"x{MAX_VAR} & x1")
    for backend in cli.BACKENDS:
        c = cli._compile(backend, [formula], kernel)
        _, var, _, high = c.expand(c.roots[0])
        assert (var, c.expand(high)[1]) == (1, MAX_VAR)
        assert c.validate().ok


@pytest.mark.parametrize("backend", ["pure", "interned", "both"])
def test_check_variable_above_max_var_exits_2(formula_file, capsys, backend):
    path = formula_file(f"x{MAX_VAR + 1} & x1")
    assert main(["check", "sat", path, "--backend", backend]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: 1:1: variable index too large; the largest is x{MAX_VAR}"
    ]


ORACLE_VARS = 6

oracle_formulas = formulas(max_var=ORACLE_VARS, max_leaves=16)


def _run_check(kind, paths, backend):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", kind, *paths, "--backend", backend])
    assert err.getvalue() == ""
    return code, out.getvalue()


@settings(max_examples=40, deadline=None)
@given(oracle_formulas, oracle_formulas)
def test_check_verdicts_agree_with_the_oracle(tmp_path_factory, f, g):
    """``bddhc check`` exits 0 or 1 only with the truth table's verdict."""
    tables = [oracle.formula_truth_table(h, ORACLE_VARS) for h in (f, g)]
    every = (1 << (1 << ORACLE_VARS)) - 1
    directory = tmp_path_factory.mktemp("oracle")
    paths = []
    for name, h in (("f.txt", f), ("g.txt", g)):
        path = directory / name
        path.write_text(frontend.format_formula(h) + "\n", encoding="utf-8")
        paths.append(str(path))
    cases = [
        ("taut", paths[:1], tables[0].bits == every),
        ("sat", paths[:1], tables[0].bits != 0),
        ("equiv", paths, oracle.tables_equal(*tables)),
    ]
    for kind, args, positive in cases:
        verdict, code = cli._VERDICTS[kind][not positive], 0 if positive else 1
        for backend in ("pure", "interned"):
            got, out = _run_check(kind, args, backend)
            assert got == code, (kind, backend, out)
            assert f" verdict={verdict} " in out


def test_check_missing_file(capsys):
    assert main(["check", "taut", "/nonexistent/f.txt"]) == 2


def test_check_report_fields(formula_file, capsys):
    path = formula_file("x1 & x2")
    main(["check", "sat", path, "--backend", "pure"])
    line = capsys.readouterr().out.strip()
    for field in (
        "command=check:sat",
        "backend=pure",
        "verdict=sat",
        "result_nodes=",
        "state_nodes=",
        "intern_hits=",
        "intern_misses=",
        "memo_hits=",
        "memo_misses=",
        "wall_s=",
    ):
        assert field in line


# -- dot --------------------------------------------------------------------


def test_dot_not_x2(formula_file, capsys):
    path = formula_file("!x2")
    assert main(["dot", path]) == 0
    out = capsys.readouterr().out
    assert out.count("shape=circle") == 1
    assert out.count("shape=box") == 2
    assert "style=dashed" in out and "style=solid" in out


def test_dot_to_file(formula_file, tmp_path, capsys):
    path = formula_file("x1 ^ x2")
    out_path = tmp_path / "g.dot"
    assert main(["dot", path, "--out", str(out_path)]) == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.count("shape=circle") == 3
    assert capsys.readouterr().out == ""


def test_dot_constant(formula_file, capsys):
    path = formula_file("1")
    assert main(["dot", path]) == 0
    out = capsys.readouterr().out
    assert out.count("label=") == 1 and '"T"' in out


def test_dot_parse_error(formula_file):
    assert main(["dot", formula_file("((")]) == 2


def test_dot_unwritable_out_is_one_error_line(formula_file, tmp_path, capsys):
    out_path = tmp_path / "missing" / "g.dot"
    assert main(["dot", formula_file("x1"), "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"[Errno 2] No such file or directory: {str(out_path)!r}"
    assert captured.err == f"error: {message}\n"


# -- README --------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse():
    # every ``bddhc ...`` line of README's shell blocks, comment stripped,
    # so that a removed flag cannot stay documented
    commands, in_shell_block = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_shell_block = line == "```sh"
        elif in_shell_block and line.startswith("bddhc "):
            commands.append(line.split("#", 1)[0].split()[1:])
    assert {argv[0] for argv in commands} == {"check", "dot", "bench", "selftest"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_quick_tour_runs():
    # the ``python`` block under "## Library quick tour", run as written
    section = README.read_text(encoding="utf-8").split("## Library quick tour\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    exec(compile(code, "README.md quick tour", "exec"), {})


def test_readme_documents_every_option():
    # a switch the README does not name is a switch only the tests should use
    readme = README.read_text(encoding="utf-8")
    (commands,) = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    options = [
        opt
        for sub in commands.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
    ]
    assert {"--out", "--size-cap", "--seed"} <= set(options)
    for opt in options:
        assert re.search(re.escape(opt) + r"(?![\w-])", readme), opt


# -- bench --------------------------------------------------------------------


def _bench_rows(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == cli.BENCH_HEADER
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    comments = [l for l in lines[1:] if l.startswith("#")]
    return rows, comments


def test_bench_queens_small(capsys):
    assert main(["bench", "queens", "--sizes", "4,5", "--backend", "both"]) == 0
    rows, comments = _bench_rows(capsys)
    assert len(rows) == 4
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    assert by_key[("queens", "4", "pure")][10] == "2"
    assert by_key[("queens", "4", "interned")][10] == "2"
    assert by_key[("queens", "5", "pure")][10] == "10"
    assert all(r[11] == "sat" for r in rows)
    assert any("wall ratio" in c for c in comments)


def test_bench_pigeonhole_unsat(capsys):
    assert main(["bench", "pigeonhole", "--sizes", "1..3", "--backend", "interned"]) == 0
    rows, _ = _bench_rows(capsys)
    assert len(rows) == 3
    assert all(r[10] == "0" and r[11] == "unsat" for r in rows)


def test_bench_size_cap(capsys):
    assert main(["bench", "queens", "--sizes", "9"]) == 2
    assert "within 1..8" in capsys.readouterr().err
    assert main(["bench", "queens", "--sizes", "0"]) == 2


def test_bench_size_cap_override(capsys):
    assert main(["bench", "pigeonhole", "--sizes", "2", "--size-cap", "2",
                 "--backend", "interned"]) == 0


def test_bench_huge_range_is_checked_before_it_is_expanded(capsys):
    # expanded first, this range would need about 40 TB
    assert main(["bench", "queens", "--sizes", f"1..{10**12}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sizes for queens must be within 1..8\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_bench_size_cap_must_be_positive(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "queens", "--size-cap", cap])
    assert exc.value.code == 2
    assert "--size-cap" in capsys.readouterr().err


def test_bench_bad_sizes(capsys):
    assert main(["bench", "queens", "--sizes", ""]) == 2
    assert main(["bench", "queens", "--sizes", "x"]) == 2


@pytest.mark.parametrize("sizes", ["+3", "1_0", "\u0664", "4..+5"])
def test_bench_sizes_are_ascii_decimal(sizes, capsys):
    # ``int`` would read these as 3, 10, 4 and 4..5
    assert main(["bench", "queens", "--sizes", sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad size list: ")


def test_bench_kernel_both(capsys):
    assert main(["bench", "queens", "--sizes", "4", "--backend", "interned",
                 "--kernel", "both"]) == 0
    rows, _ = _bench_rows(capsys)
    kernels = {r[3] for r in rows}
    assert kernels == set(interned.available_kernels())


def test_bench_without_the_compiled_kernel_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(interned, "_KERNELS", {"python": interned._KERNELS["python"]})
    assert main(["bench", "queens", "--sizes", "4", "--kernel", "compiled"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: compiled kernel is not available\n"


def test_bench_identical_counters_across_backends(capsys):
    assert main(["bench", "queens", "--sizes", "4", "--backend", "both"]) == 0
    rows, _ = _bench_rows(capsys)
    pure_row = next(r for r in rows if r[2] == "pure")
    interned_row = next(r for r in rows if r[2] == "interned")
    # same formula, same algorithms: identical pool and memo counters
    assert pure_row[5:11] == interned_row[5:11]


# -- selftest --------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert main(["selftest", "--cases", "25", "--seed", "5"]) == 0
    assert "25 cases passed" in capsys.readouterr().out


def test_selftest_deterministic(capsys):
    main(["selftest", "--cases", "10", "--seed", "3"])
    first = capsys.readouterr().out
    main(["selftest", "--cases", "10", "--seed", "3"])
    assert capsys.readouterr().out == first


def _unreduced_interned(monkeypatch):
    """Compile the interned backend on a manager that does not reduce."""
    monkeypatch.setattr(
        interned, "new_manager", lambda kernel="auto": UnreducedManager()
    )


def test_selftest_sabotage_fails_with_witness(monkeypatch, capsys):
    _unreduced_interned(monkeypatch)
    assert main(["selftest", "--cases", "40", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness" in out


@pytest.mark.parametrize("option", ["--cases", "--max-vars"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_selftest_counts_must_be_positive(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be at least 1, got {value}" in captured.err


def test_selftest_witness_is_parseable(monkeypatch, capsys):
    _unreduced_interned(monkeypatch)
    ok, witness = cli.run_selftest(seed=2, cases=40)
    assert not ok
    frontend.parse(witness)
    assert f"selftest: witness: {witness}\n" in capsys.readouterr().out


def test_selftest_reports_canonicity_mismatch(monkeypatch, capsys):
    # every single-formula compile stays right, so only the pair check can fail:
    # a fresh object as the second root is equal to no root
    compile_ = cli._compile

    def second_root_fresh(backend, formulas, kernel="auto"):
        c = compile_(backend, formulas, kernel)
        return c._replace(roots=[c.roots[0], object()]) if len(formulas) == 2 else c

    monkeypatch.setattr(cli, "_compile", second_root_fresh)
    assert main(["selftest", "--cases", "40", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"selftest: FAIL case \d+: canonicity mismatch", lines[0])
    prefix = "selftest: witness pair: "
    assert lines[1].startswith(prefix)
    pair = [frontend.parse(h) for h in lines[1][len(prefix):].split("  vs  ")]
    # the shrunk pair is still equivalent, which the broken check denies
    n = max(1, *map(formula_max_var, pair))
    assert oracle.tables_equal(*(oracle.formula_truth_table(h, n) for h in pair))


def test_selftest_has_no_sabotage_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--sabotage", "no-reduce"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sabotage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--cases", "1_0"],
        ["selftest", "--cases", "\u0662"],  # ARABIC-INDIC DIGIT TWO
        ["selftest", "--max-vars", "+3"],
        ["selftest", "--seed", "+3"],
        ["selftest", "--seed", "1_0"],
        ["bench", "queens", "--size-cap", "1_0"],
    ],
    ids=["cases-underscore", "cases-arabic", "max-vars-plus", "seed-plus",
         "seed-underscore", "size-cap-underscore"],
)
def test_numeric_options_take_ascii_decimal_only(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: not a decimal number: {argv[-1]!r}" in captured.err


def test_selftest_seed_may_be_negative(capsys):
    assert main(["selftest", "--cases", "2", "--seed", "-3"]) == 0
    assert capsys.readouterr().out == "selftest: 2 cases passed (seed=-3)\n"
