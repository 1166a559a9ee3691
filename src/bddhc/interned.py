"""Interned BDD backend: a mutable manager enforcing maximal sharing.

Handles carry unique identifiers, so equality of functions is one integer
comparison.  The hot path (node construction, the memoized operations and
``reset``) exists twice, with identical observable behavior: in the
hand-written C extension ``_speedups``, and in the Python kernel
``_pykernel``, whose handles are views of arena ids of ``_engine``.
Every other manager method is written once, in ``_pykernel.ManagerBase``,
which both kernels' manager classes inherit.  :func:`new_manager` uses
the C kernel when it is built, and ``kernel=`` picks one explicitly.

This module also hosts what does not need to be fast: validation, DOT
export, and :func:`expand`, the one function through which
:mod:`bddhc.graph` reads the handles of either kernel.  Every read of a
finished diagram (size, model counting, copying into a manager, the
oracle's paths, the cache-semantics check) is a :mod:`bddhc.graph`
function called with ``expand``; this module writes none of its own.
"""
from __future__ import annotations

from .core import BINOPS, ForeignHandle, ValidationReport
from . import _pykernel, graph

# name -> manager class of each built kernel
_KERNELS = {"python": _pykernel.Manager}
try:
    from . import _speedups  # type: ignore[attr-defined]
except ImportError:
    pass
else:

    class _CompiledManager(_speedups.Manager, _pykernel.ManagerBase):
        __slots__ = ()
        IMPL = "compiled"

    _KERNELS["compiled"] = _CompiledManager


def kernel_name() -> str:
    """The kernel ``new_manager`` uses by default: compiled when built."""
    return "compiled" if "compiled" in _KERNELS else "python"


def available_kernels() -> list[str]:
    return list(_KERNELS)


def new_manager(kernel: str = "auto"):
    """Fresh manager from the chosen kernel (``auto``/``python``/``compiled``)."""
    cls = _KERNELS.get(kernel_name() if kernel == "auto" else kernel)
    if cls is None:
        have = ", ".join(available_kernels())
        raise ValueError(f"kernel {kernel!r} not available (have: {have})")
    return cls()


def structural_eq(a, b) -> bool:
    """Uid comparison; coincides with deep equality for pooled handles."""
    if a.tag != b.tag:
        raise ForeignHandle("handles belong to different managers")
    return a.uid == b.uid


# ---------------------------------------------------------------------------
# The graph view (kernel-independent: it only reads handle fields)


def expand(h) -> tuple:
    """The :mod:`bddhc.graph` ``expand`` function for either kernel's handles."""
    if h.terminal >= 0:
        return h.terminal == 1, None, None, None
    return None, h.var, h.low, h.high


# ---------------------------------------------------------------------------
# Validation


def _shape(h) -> tuple:
    if h.terminal >= 0:
        return ("leaf", h.terminal)
    return ("node", h.var, h.low.uid, h.high.uid)


def validate_manager(m, check_cache_semantics: bool = False) -> ValidationReport:
    """Check pool and cache invariants; violations are reported, not raised.

    The cache semantic check evaluates every cached result against its
    operands over all assignments of the variables involved, so it is
    exponential and only runs on request.
    """
    report = ValidationReport()
    pool = list(m.iter_pool())

    by_uid: dict[int, object] = {}
    for h in pool:
        if h.uid in by_uid:
            report.add("uid-unique", f"uid {h.uid} used by two pool entries")
        by_uid[h.uid] = h
    by_shape: dict[tuple, int] = {}
    for h in pool:
        s = _shape(h)
        if s in by_shape:
            report.add(
                "pool-unique",
                f"shape {s} pooled twice (uids {by_shape[s]} and {h.uid})",
            )
        else:
            by_shape[s] = h.uid

    for h in pool:
        if h.terminal >= 0:
            continue
        if h.low.uid == h.high.uid:
            report.add("reduced", f"node uid {h.uid} has equal branches")
        for child in (h.low, h.high):
            if child.uid not in by_uid or by_uid[child.uid] is not child:
                report.add(
                    "liveness", f"node uid {h.uid} has a child outside the pool"
                )
            if child.terminal < 0 and child.var <= h.var:
                report.add(
                    "ordered",
                    f"node uid {h.uid} (x{h.var}) has child labeled x{child.var}",
                )

    caches = m.memo_entries()
    for op, table in caches.items():
        for key, value in list(table.items()):
            uids = (key,) if op == "not" else key
            for u in uids:
                if u not in by_uid:
                    report.add("cache-liveness", f"{op} cache key {key} is not live")
            if value.uid not in by_uid or by_uid[value.uid] is not value:
                report.add(
                    "cache-liveness", f"{op} cache value for {key} is not pooled"
                )

    if check_cache_semantics and not report.violations:
        _check_cache_semantics(m, by_uid, report)
    return report


def _check_cache_semantics(m, by_uid, report) -> None:
    caches = m.memo_entries()
    entries = [("not", (by_uid[u],), value) for u, value in caches["not"].items()]
    for op in BINOPS:
        entries += [
            (op, (by_uid[ua], by_uid[ub]), value)
            for (ua, ub), value in caches[op].items()
        ]
    for op, operands, _, _ in graph.memo_faults(entries, expand):
        if op == "not":
            where = f"uid {operands[0].uid}"
        else:
            where = f"({operands[0].uid}, {operands[1].uid})"
        report.add("cache-semantics", f"{op} cache wrong for {where}")


# ---------------------------------------------------------------------------
# DOT export


def to_dot(root) -> str:
    """Graphviz text for the BDD under ``root``.

    One record per reachable node, named ``n<uid>``; leaves are boxes
    labeled T/F, decision nodes are circles labeled with their variable.
    The 0-branch is a dashed edge, the 1-branch solid.  Shared nodes
    appear exactly once, children before parents.
    """
    lines = ["digraph bdd {"]
    # construction hands out child uids before parent uids, so uid order is
    # topological: every node's children come before it
    for h in sorted((h for h, _ in graph.walk(root, expand)), key=lambda h: h.uid):
        if h.terminal >= 0:
            label = "T" if h.terminal == 1 else "F"
            lines.append(f'  n{h.uid} [label="{label}", shape=box];')
        else:
            lines.append(f'  n{h.uid} [label="x{h.var}", shape=circle];')
            lines.append(f"  n{h.uid} -> n{h.low.uid} [style=dashed];")
            lines.append(f"  n{h.uid} -> n{h.high.uid} [style=solid];")
    lines.append("}")
    return "\n".join(lines) + "\n"
