"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All checks are exact (booleans, integer counters); there are no numeric
tolerances anywhere.
"""
import random
import time
from types import SimpleNamespace

import pytest

from bddhc.core import (
    LEAF_FALSE,
    LEAF_TRUE,
    And,
    Const,
    Node,
    Not,
    Or,
    Ref,
    Xor,
)
from bddhc import cli, frontend, graph, interned, oracle, pure

from util import gen_trace, play_interned, play_pure

SEED = 20240601


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE [{status}] {name}{suffix}")


# ---------------------------------------------------------------------------
# Shared instrumented oracle run (criteria: oracle equivalence, complexity)


def _compile_pure_instrumented(f, st, violations):
    if isinstance(f, Const):
        return (LEAF_TRUE if f.value else LEAF_FALSE), st
    if isinstance(f, Ref):
        return pure.mk_node(st, LEAF_FALSE, f.var, LEAF_TRUE)
    if isinstance(f, Not):
        a, st = _compile_pure_instrumented(f.arg, st, violations)
        sa = graph.size(a, pure.expander(st))
        before = st.shared.stats["not_misses"]
        r, st = pure.neg(st, a)
        if st.shared.stats["not_misses"] - before > sa:
            violations.append(("pure", "not", f))
        return r, st
    op = {And: "and", Or: "or", Xor: "xor"}[type(f)]
    a, st = _compile_pure_instrumented(f.left, st, violations)
    b, st = _compile_pure_instrumented(f.right, st, violations)
    sa, sb = graph.size(a, pure.expander(st)), graph.size(b, pure.expander(st))
    before = st.shared.stats[f"{op}_misses"]
    r, st = pure.apply_binop(st, op, a, b)
    if st.shared.stats[f"{op}_misses"] - before > sa * sb:
        violations.append(("pure", op, f))
    return r, st


def _compile_interned_instrumented(f, m, violations):
    if isinstance(f, Const):
        return m.constant(f.value)
    if isinstance(f, Ref):
        return m.node(f.var, m.false, m.true)
    if isinstance(f, Not):
        a = _compile_interned_instrumented(f.arg, m, violations)
        sa = graph.size(a, interned.expand)
        before = m.not_misses
        r = m.neg(a)
        if m.not_misses - before > sa:
            violations.append(("interned", "not", f))
        return r
    op = {And: "and", Or: "or", Xor: "xor"}[type(f)]
    a = _compile_interned_instrumented(f.left, m, violations)
    b = _compile_interned_instrumented(f.right, m, violations)
    sa, sb = graph.size(a, interned.expand), graph.size(b, interned.expand)
    before = m.stats()[f"{op}_misses"]
    r = m.apply_binop(op, a, b)
    if m.stats()[f"{op}_misses"] - before > sa * sb:
        violations.append(("interned", op, f))
    return r


@pytest.fixture(scope="module")
def oracle_suite():
    """5,000 random formulas, <= 6 vars, depth <= 8, run on both backends."""
    rng = random.Random(SEED)
    cases = 5000
    mismatches = []
    violations = []
    start = time.perf_counter()
    for _ in range(cases):
        f = frontend.random_formula(rng, max_var=6, max_depth=8)
        n = 6
        want = oracle.formula_truth_table(f, n)
        st = pure.empty_store()
        ref, st = _compile_pure_instrumented(f, st, violations)
        if not oracle.tables_equal(
            oracle.bdd_truth_table(ref, n, pure.expander(st)), want
        ):
            mismatches.append(("pure", f))
        m = interned.new_manager()
        h = _compile_interned_instrumented(f, m, violations)
        if not oracle.tables_equal(oracle.bdd_truth_table(h, n, interned.expand), want):
            mismatches.append(("interned", f))
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        cases=cases,
        mismatches=mismatches,
        violations=violations,
        elapsed=elapsed,
    )


def test_oracle_equivalence(oracle_suite):
    ok = not oracle_suite.mismatches
    _report(
        "oracle equivalence (5000 formulas, both backends)",
        ok,
        f"{oracle_suite.elapsed:.1f}s",
    )
    assert ok, oracle_suite.mismatches[:3]


def test_complexity_bounds(oracle_suite):
    ok = not oracle_suite.violations
    _report(
        "memo-miss bounds: binop <= |a|*|b|, negation <= |a|",
        ok,
        f"checked within the oracle suite, both backends",
    )
    assert ok, oracle_suite.violations[:3]


# ---------------------------------------------------------------------------
# Canonicity, both directions


def test_canonicity_both_directions():
    rng = random.Random(SEED + 1)
    pairs = 2000
    failures = []
    equal_pairs = 0
    for i in range(pairs):
        f = frontend.random_formula(rng, max_var=6, max_depth=8)
        if i % 2 == 0:
            g = frontend.random_equivalent(rng, f)
        else:
            g = frontend.random_formula(rng, max_var=6, max_depth=8)
        n = 6
        same = oracle.tables_equal(
            oracle.formula_truth_table(f, n), oracle.formula_truth_table(g, n)
        )
        equal_pairs += same
        st = pure.empty_store()
        rf, st = frontend.compile_pure(f, st)
        rg, st = frontend.compile_pure(g, st)
        if pure.eq(rf, rg) != same:
            failures.append(("pure", f, g))
        m = interned.new_manager()
        hf = frontend.compile_interned(f, m)
        hg = frontend.compile_interned(g, m)
        if interned.structural_eq(hf, hg) != same:
            failures.append(("interned", f, g))
    ok = not failures
    _report(
        "canonicity: eq/structural_eq iff equal truth tables",
        ok,
        f"{pairs} pairs, {equal_pairs} semantically equal",
    )
    assert equal_pairs >= pairs // 3  # both directions got real coverage
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# Well-formedness preservation on random traces (pure backend)


def _trace_length(rng):
    roll = rng.random()
    if roll < 0.7:
        return rng.randint(1, 25)
    if roll < 0.9:
        return rng.randint(26, 80)
    return rng.randint(81, 200)


def test_wellformedness_preservation_traces():
    rng = random.Random(SEED + 2)
    traces = 1000
    failures = []
    for t in range(traces):
        ops = gen_trace(rng, _trace_length(rng), max_var=4)

        def on_step(pre, post, ref):
            report = pure.validate_store(post)
            if not report.ok:
                failures.append((t, str(report)))
                return
            # monotonicity: every old binding survives unchanged
            post_graph = post.graph
            for node_id, node in pre.graph.items():
                if post_graph.get(node_id) != node:
                    failures.append((t, f"binding {node_id} changed"))
                    return
            if post.next < pre.next:
                failures.append((t, "next decreased"))
                return
            # denotation preservation, spot-checked
            old_ids = list(pre.graph)
            for ref_id in old_ids[:: max(1, len(old_ids) // 3)][:3]:
                for _ in range(2):
                    a = {v: rng.random() < 0.5 for v in range(1, 5)}
                    if graph.follow(ref_id, pure.expander(pre), a.__getitem__) != graph.follow(ref_id, pure.expander(post), a.__getitem__):
                        failures.append((t, f"denotation of {ref_id} changed"))
                        return

        play_pure(ops, on_step=on_step)
        if failures:
            break
    ok = not failures
    _report(
        "well-formedness + monotonicity after every step",
        ok,
        f"{traces} traces",
    )
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# Maximal sharing (interned backend)


def test_maximal_sharing_traces():
    rng = random.Random(SEED + 3)
    traces = 500
    failures = []
    for t in range(traces):
        m = interned.new_manager()
        handles = play_interned(m, gen_trace(rng, _trace_length(rng), max_var=4))
        shapes = set()
        for h in m.iter_pool():
            s = (
                h.terminal,
                h.var,
                h.low.uid if h.low is not None else 0,
                h.high.uid if h.high is not None else 0,
            )
            if s in shapes:
                failures.append((t, f"duplicate pooled shape {s}"))
            shapes.add(s)
        pool_before = m.pool_size()
        for h in handles:
            if graph.copy(h, interned.expand, m).uid != h.uid:
                failures.append((t, f"rebuild changed uid {h.uid}"))
        if m.pool_size() != pool_before:
            failures.append((t, "rebuild grew the pool"))
        if not interned.validate_manager(m).ok:
            failures.append((t, "validator"))
        if failures:
            break
    ok = not failures
    _report("maximal sharing: distinct shapes, rebuild reuses uids", ok,
            f"{traces} traces")
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# Memo transparency


def test_memo_transparency():
    rng = random.Random(SEED + 4)
    sequences = 500
    failures = []
    for t in range(sequences):
        ops = gen_trace(rng, rng.randint(1, 60), max_var=4)
        refs_plain, _ = play_pure(ops)
        refs_cleared, _ = play_pure(ops, clear_between=True)
        if refs_plain != refs_cleared:
            failures.append((t, "pure"))
        m1 = interned.new_manager()
        m2 = interned.new_manager()
        uids_plain = [h.uid for h in play_interned(m1, ops)]
        uids_cleared = [h.uid for h in play_interned(m2, ops, clear_between=True)]
        if uids_plain != uids_cleared:
            failures.append((t, "interned"))
        if failures:
            break
    ok = not failures
    _report("memo transparency: cleared caches, identical results", ok,
            f"{sequences} sequences")
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# The worked two-variable example


def test_worked_example_single_node():
    # f(0,0)=T, f(0,1)=F, f(1,0)=T, f(1,1)=F with arguments (x1, x2):
    # built by Shannon expansion over x1 then x2, the diagram collapses
    # to the single decision node (low=T, var=x2, high=F).
    st = pure.empty_store()
    low_half, st = pure.mk_node(st, LEAF_TRUE, 2, LEAF_FALSE)   # f with x1=0
    high_half, st = pure.mk_node(st, LEAF_TRUE, 2, LEAF_FALSE)  # f with x1=1
    root, st = pure.mk_node(st, low_half, 1, high_half)
    ok_pure = (
        root == low_half
        and st.graph[root] == Node(LEAF_TRUE, 2, LEAF_FALSE)
        and graph.size(root, pure.expander(st)) == 3
        and len(st.graph) == 1
    )

    m = interned.new_manager()
    low_half_h = m.node(2, m.true, m.false)
    high_half_h = m.node(2, m.true, m.false)
    root_h = m.node(1, low_half_h, high_half_h)
    ok_interned = (
        root_h is low_half_h
        and root_h.var == 2
        and root_h.low is m.true
        and root_h.high is m.false
        and m.pool_size() == 3
    )

    # the same function written as a formula compiles to the same node
    st2 = pure.empty_store()
    ref, st2 = frontend.compile_pure(Not(Ref(2)), st2)
    ok_formula = st2.graph[ref] == Node(LEAF_TRUE, 2, LEAF_FALSE)

    ok = ok_pure and ok_interned and ok_formula
    _report("worked example: one inner node (x2, low=T, high=F)", ok)
    assert ok


# ---------------------------------------------------------------------------
# Benchmarks


def test_queens_counts_match_brute_force():
    failures = []
    for n in (4, 5):
        expected = frontend.queens_solution_count(n)
        f = frontend.queens_formula(n)
        st = pure.empty_store()
        ref, st = frontend.compile_pure(f, st)
        got_pure = cli.count_models(ref, n * n, store=st)
        m = interned.new_manager()
        h = frontend.compile_interned(f, m)
        got_interned = cli.count_models(h, n * n)
        if not (got_pure == got_interned == expected):
            failures.append((n, expected, got_pure, got_interned))
    ok = not failures
    _report("queens models: N=4 -> 2, N=5 -> 10, vs brute force", ok)
    assert ok, failures
    assert frontend.queens_solution_count(4) == 2
    assert frontend.queens_solution_count(5) == 10


def test_pigeonhole_unsat_through_six():
    failures = []
    for holes in range(1, 7):
        f = frontend.pigeonhole_formula(holes)
        st = pure.empty_store()
        ref, st = frontend.compile_pure(f, st)
        m = interned.new_manager()
        h = frontend.compile_interned(f, m)
        if ref is not LEAF_FALSE or h is not m.false:
            failures.append(holes)
    ok = not failures
    _report("pigeonhole n+1 into n unsatisfiable for n <= 6", ok)
    assert ok, failures


def test_bench_budget_and_memo_ordering(capsys):
    code = cli.main(
        ["bench", "queens", "--sizes", "4..7", "--backend", "both",
         "--kernel", "auto"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [
        line.split(",")
        for line in out.strip().splitlines()[1:]
        if not line.startswith("#")
    ]
    walls = {(r[2], int(r[1])): float(r[4]) for r in rows}
    misses = {(r[2], int(r[1])): int(r[9]) for r in rows}
    over_budget = [k for k, w in walls.items() if w >= 60.0]
    miss_violations = [
        n for n in (4, 5, 6, 7) if misses[("interned", n)] > misses[("pure", n)]
    ]
    ratio_reported = "wall ratio" in out
    ok = not over_budget and not miss_violations and ratio_reported
    slowest = max(walls.values())
    _report(
        "bench: queens <= 7 within 60s per run, interned misses <= pure, "
        "ratio reported",
        ok,
        f"slowest run {slowest:.2f}s",
    )
    assert ok, (over_budget, miss_violations, ratio_reported)
