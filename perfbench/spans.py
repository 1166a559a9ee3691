"""Span recorder that wraps bddhc's public entry points from outside.

Only traced jobs pay for it: ``install`` swaps module attributes for
recording wrappers and ``uninstall`` puts the originals back, and
``attach`` shadows a traced job's fresh manager's ``node``/``neg``/
``apply_binop`` with recording instance attributes.  The pure backend and the
Python kernel look these names up at call time, so the wrappers also see
the calls the apply recursion makes.

A span is (name, start, end, parent span, job id), kept in flat arrays
and written out by ``dump``.  A span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import array
import json
import time

from bddhc import cli, frontend, pure

MODULE_ENTRIES = (
    (frontend, "parse", "frontend.parse"),
    (frontend, "compile_pure", "frontend.compile_pure"),
    (frontend, "compile_interned", "frontend.compile_interned"),
    (pure, "mk_node", "pure.mk_node"),
    (pure, "neg", "pure.neg"),
    (pure, "apply_binop", "pure.apply_binop"),
    (cli, "count_models", "cli.count_models"),
)
MANAGER_ENTRIES = (
    ("node", "interned.node"),
    ("neg", "interned.neg"),
    ("apply_binop", "interned.apply_binop"),
)
JOB = "bench.job"
NAMES = (JOB,) + tuple(n for _, _, n in MODULE_ENTRIES) + tuple(
    n for _, n in MANAGER_ENTRIES
)


class Tracer:
    def __init__(self) -> None:
        self.name_id = {name: i for i, name in enumerate(NAMES)}
        self.names = array.array("B")
        self.parents = array.array("q")
        self.jobs = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack: list[int] = []
        self.job = -1
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as one span named ``name``."""
        nid = self.name_id[name]
        names, parents, jobs = self.names, self.parents, self.jobs
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self, job: int) -> None:
        self.job = job
        for module, attr, name in MODULE_ENTRIES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def attach(self, m) -> None:
        for attr, name in MANAGER_ENTRIES:
            setattr(m, attr, self.wrap(name, getattr(m, attr)))

    # -- derived numbers -----------------------------------------------

    def per_job(self) -> dict[int, dict[str, list]]:
        """``{job: {name: [self_seconds, calls]}}`` over all recorded spans."""
        n = len(self.names)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[int, dict[str, list]] = {}
        for i in range(n):
            per = out.setdefault(self.jobs[i], {})
            acc = per.setdefault(NAMES[self.names[i]], [0.0, 0])
            acc[0] += ends[i] - starts[i] - child[i]
            acc[1] += 1
        return out

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": list(NAMES),
            "count": len(self.names),
            "arrays": ["names:B", "parents:q", "jobs:q", "starts:d", "ends:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.jobs, self.starts, self.ends):
                arr.tofile(fh)
