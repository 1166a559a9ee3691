"""One benchmark worker: runs a single backend's jobs when told to, and reports.

Usage (the parent, ``run.py``, builds the argument and drives the pipes)::

    python3 perfbench/worker.py '<json config>'

The worker imports bddhc from the checkout's ``src`` and generates its
first input; that is its set-up.  Then it prints ``ready <clock>`` and
obeys one command per stdin line:

* ``run <seconds>``: run jobs one after another for about that long (at
  least one job; it stops where the total comes closest), then print
  ``done``.  The parent alternates short chunks of the two backends, so
  each backend's samples spread over the whole run rather than one
  stretch of it.
* ``finish``: run jobs until at least ``min_jobs`` have run, then, untimed,
  validate the last state once when asked and print one JSON object.

Only parse-to-model-count is timed.  The worker reads its own peak RSS
once ``min_jobs`` jobs have run.

With ``trace`` set, every job runs twice on the same input from a fresh
state, bare then through the span recorder, so that bare and traced times
come from the same process.
"""
from __future__ import annotations

import json
import os
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """High-water RSS of this process alone, in MiB.

    ``VmHWM`` starts afresh at exec.  ``ru_maxrss`` does not: on Linux it
    keeps the high-water mark of the parent the worker was spawned from.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Loop:
    """The worker's closed loop: job ``j`` after job ``j - 1``, never two."""

    def __init__(self, cfg: dict) -> None:
        import workloads
        from spans import JOB, Tracer

        self.cfg = cfg
        self.workloads = workloads
        self.wl = workloads.Workload(cfg["workload"], cfg["backend"])
        self.tracer = Tracer() if cfg["trace"] else None
        self.traced_run = self.tracer.wrap(JOB, self.wl.run) if self.tracer else None
        self.j = 0
        self.texts = workloads.job_texts(cfg["workload"], cfg["seed"], 0)
        self.jobs: list[dict] = []
        self.state = None
        self.rss_mb = None

    def one(self, traced: bool) -> None:
        """Run the current job once; keeps its record and result state."""
        wl, tracer, j = self.wl, self.tracer, self.j
        record = {"j": j, "crc": self.workloads.text_crc(self.texts), "traced": traced}
        self.state = None  # drop the previous result before the next run
        if traced:
            tracer.install(j)
        try:
            t0 = time.perf_counter()
            if traced:
                verdict, models, state = self.traced_run(self.texts, tracer)
            else:
                verdict, models, state = wl.run(self.texts)
            record["t"] = time.perf_counter() - t0
        except Exception as exc:  # a failing job is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
            state = None
        finally:
            if traced:
                tracer.uninstall()
        if state is not None:
            record["verdict"] = verdict
            record["models"] = models
            stats = wl.stats(state)
            record["stats"] = {k: stats[k] for k in self.workloads.STAT_KEYS}
            if j < self.cfg["min_jobs"]:
                record["sizes"] = wl.sizes(state)
        self.jobs.append(record)
        self.state = state

    def step(self) -> None:
        """Job ``j`` (bare, then traced when tracing), then the next input, untimed."""
        for traced in (False, True) if self.tracer else (False,):
            self.one(traced)
        self.j += 1
        if self.j == self.cfg["min_jobs"]:
            # a fixed job count, so the figure does not depend on speed
            self.rss_mb = peak_rss_mb()
        self.texts = self.workloads.job_texts(self.cfg["workload"], self.cfg["seed"], self.j)

    def run(self, seconds: float) -> None:
        """At least one job; stop where the chunk comes closest to ``seconds``."""
        start = clock()
        while True:
            t0 = clock()
            self.step()
            now = clock()
            if now - start + (now - t0) / 2 >= seconds:
                return

    def finish(self) -> dict:
        while self.j < self.cfg["min_jobs"]:
            self.step()
        out = {"backend": self.cfg["backend"], "rss_mb": self.rss_mb, "jobs": self.jobs}
        if self.cfg["validate"] and self.state is not None:
            t0 = time.perf_counter()
            out["valid"] = self.wl.validate(self.state)
            out["validate_s"] = time.perf_counter() - t0
        if self.tracer is not None:
            out["spans"] = {str(k): v for k, v in self.tracer.per_job().items()}
            self.tracer.dump(self.cfg["spans_path"])
        return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    loop = Loop(cfg)
    print(f"ready {clock()!r}", flush=True)
    for line in sys.stdin:
        command, *arg = line.split()
        if command == "run":
            loop.run(float(arg[0]))
            print("done", flush=True)
        elif command == "finish":
            print(json.dumps(loop.finish()), flush=True)
            return 0
        else:
            raise SystemExit(f"unknown command {line!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
