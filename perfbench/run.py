"""bddhc benchmark: time to verdict, throughput and peak memory per backend.

Run from the root of a checkout::

    python3 perfbench/run.py --workload queens --seed 1 --seconds 50 --trace 0

A single-process, closed-loop client: one job at a time, never two.  The
parent starts ``PAIRS`` pairs of workers, one worker per backend, one pair
after the other.  Within a pair the two workers take turns: ``ROUNDS``
chunks each, alternating, so only one process computes at any moment and
each backend's jobs are spread over the whole run.  A backend's chunks
share its part of ``--seconds`` (``PURE_SHARE``).  Afterwards the parent
checks every job against answers that do not come from BDD code, runs the
determinism gate, prints one row with every metric and its unit, and as
its last line the JSON result.  It exits 1 when any check fails and 2 when
the checkout has no bddhc sources.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: half the jobs run under the span recorder
(``spans.py``), the rest bare, and the difference is the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("queens", "equiv")
BACKENDS = ("pure", "interned")
# Worker pairs per run, one worker per backend in each pair.
PAIRS = 2
# Chunks each worker of a pair runs, alternating with the other backend's.
# After each chunk a throwaway worker of the same backend is started and
# stopped once ready, so set-up is measured PAIRS * (ROUNDS + 1) times per
# backend, spread over the run.
ROUNDS = 4
# Jobs every worker runs whatever its chunks.  Counters, table sizes and
# peak RSS are taken over these, so they do not depend on how fast the jobs
# ran.
MIN_JOBS = {"queens": 1, "equiv": 32}
# Share of the run's seconds given to the pure backend, whose jobs are the
# slower ones.
PURE_SHARE = {"queens": 2 / 3, "equiv": 1 / 2}
RUN_LIMIT_S = 170.0

END_TO_END = {}
for _b in BACKENDS:
    END_TO_END[f"jobs_per_s.{_b}"] = "1/s"
    END_TO_END[f"job_p50_s.{_b}"] = "s"
    END_TO_END[f"peak_rss_mb.{_b}"] = "MB"
END_TO_END["setup_s"] = "s"

OPS = ("not", "and", "or", "xor")
PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.parse_chars_per_s": "char/s",
    "frontend.compile_self_s.pure": "s",
    "frontend.compile_self_s.interned": "s",
    "pure.mk_node_s": "s",
    "pure.mk_node_calls": "count/job",
    "pure.apply_self_s": "s",
    "interned.node_s": "s",
    "interned.node_calls": "count/job",
    "interned.apply_self_s": "s",
}
for _b in BACKENDS:
    PER_LAYER[f"{_b}.intern_hits"] = "count/job"
    PER_LAYER[f"{_b}.intern_misses"] = "count/job"
    for _op in OPS:
        PER_LAYER[f"{_b}.{_op}_hits"] = "count/job"
        PER_LAYER[f"{_b}.{_op}_misses"] = "count/job"
    PER_LAYER[f"{_b}.memo_hit_ratio"] = "ratio"
PER_LAYER["pure.nodes"] = "count"
PER_LAYER["interned.pool_size"] = "count"
for _b in BACKENDS:
    for _op in OPS:
        PER_LAYER[f"{_b}.memo_entries.{_op}"] = "count"
for _b in BACKENDS:
    PER_LAYER[f"cli.count_models_s.{_b}"] = "s"
    PER_LAYER[f"{_b}.validate_s"] = "s"
    PER_LAYER[f"trace.overhead_s.{_b}"] = "s"
    PER_LAYER[f"trace.overhead_frac.{_b}"] = "ratio"


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and worker stamps compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_describe() -> str:
    # a checkout that is not a repository gets no git call at all, so the
    # run never reads outside it
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Worker:
    """One ``worker.py`` process, driven line by line over its pipes."""

    def __init__(self, cfg: dict, deadline: float) -> None:
        self.name = cfg["backend"]
        self.deadline = deadline
        self.spawned = clock()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )

    def _line(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, self.deadline - clock()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            if not ready:
                raise RuntimeError(f"{self.name} worker ran past the run's time limit")
            self.proc.kill()
            tail = self.proc.stderr.read().strip().splitlines()[-3:]
            raise RuntimeError(f"{self.name} worker exited {self.proc.wait()}: {tail}")
        return line

    def _send(self, command: str) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._line()

    def ready(self) -> float:
        """Seconds from spawning the worker to its first timed job."""
        return float(self._line().split()[1]) - self.spawned

    def run(self, seconds: float) -> None:
        self._send(f"run {seconds!r}")

    def finish(self) -> dict:
        report = json.loads(self._send("finish"))
        self.proc.wait(timeout=max(1.0, self.deadline - clock()))
        return report

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            pipe.close()


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(times: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(times)
    return best, ordered[math.ceil(best / 100 * n) - 1], n


def check_jobs(workload, seed, children, corrupt, problems):
    """Compare each job with the independent answer.

    Returns (attempted, failed, texts by job index)."""
    import workloads

    oracle = workloads.Oracle(workload, seed, corrupt)
    expected, texts = {}, {}
    attempted = failed = 0
    for child in children:
        for job in child["jobs"]:
            j = job["j"]
            if j not in expected:
                expected[j] = oracle.expected(j)
                texts[j] = workloads.job_texts(workload, seed, j)
            attempted += 1
            want = expected[j]
            if "error" in job:
                why = job["error"]
            elif job["crc"] != workloads.text_crc(texts[j]):
                why = "input text differs from the parent's"
            elif (job["verdict"], job["models"]) != want:
                why = f"got {(job['verdict'], job['models'])}, expected {want}"
            else:
                continue
            failed += 1
            problems.append(f"{child['backend']} job {j}: {why}")
    return attempted, failed, texts


def determinism(workload, children, problems) -> str:
    """Counters, sizes and answers must repeat; returns a digest of them."""
    seen: dict[tuple, tuple] = {}
    keyed = {}
    for child in children:
        b = child["backend"]
        for job in child["jobs"]:
            if "stats" not in job:
                continue
            facts = (job["stats"], job.get("sizes"), job["verdict"], job["models"])
            prev = seen.setdefault((b, job["j"]), facts)
            if prev != facts:
                problems.append(f"{b} job {job['j']}: counters differ between two workers")
            keyed.setdefault(job["j"], {})[b] = facts
    # the backends do the same work, so their counters must agree too
    for j, per in sorted(keyed.items()):
        if len(per) == 2 and per["pure"] != per["interned"]:
            problems.append(f"job {j}: pure and interned counters differ")
            break
    ref = {
        f"{b}:{j}": seen[(b, j)]
        for (b, j) in sorted(seen)
        if j < MIN_JOBS[workload]
    }
    return hashlib.sha256(json.dumps(ref, sort_keys=True).encode()).hexdigest()[:16]


def end_to_end(children, setups) -> dict:
    m = {}
    for b in BACKENDS:
        mine = [c for c in children if c["backend"] == b]
        times = [job["t"] for c in mine for job in c["jobs"] if "t" in job]
        m[f"jobs_per_s.{b}"] = len(times) / sum(times)
        m[f"job_p50_s.{b}"] = median(times)
        m[f"peak_rss_mb.{b}"] = median([c["rss_mb"] for c in mine])
    m["setup_s"] = sum(median(setups[b]) for b in BACKENDS)
    return m


def per_layer(children, texts) -> dict:
    m = {}
    parse_self, parse_chars = [], 0
    for b in BACKENDS:
        mine = [c for c in children if c["backend"] == b]
        traced = [
            (c["spans"].get(str(job["j"]), {}), job)
            for c in mine
            for job in c["jobs"]
            if job["traced"] and "t" in job
        ]

        def self_s(*names):
            return median([sum(sp.get(n, [0.0, 0])[0] for n in names) for sp, _ in traced])

        def calls(name):
            return median([sp.get(name, [0.0, 0])[1] for sp, _ in traced])

        for sp, job in traced:
            parse_self.append(sp.get("frontend.parse", [0.0, 0])[0])
            parse_chars += sum(len(t) for t in texts[job["j"]])
        m[f"frontend.compile_self_s.{b}"] = self_s(f"frontend.compile_{b}")
        if b == "pure":
            m["pure.mk_node_s"] = self_s("pure.mk_node")
            m["pure.mk_node_calls"] = calls("pure.mk_node")
            m["pure.apply_self_s"] = self_s("pure.apply_binop", "pure.neg")
        else:
            m["interned.node_s"] = self_s("interned.node")
            m["interned.node_calls"] = calls("interned.node")
            m["interned.apply_self_s"] = self_s("interned.apply_binop", "interned.neg")
        m[f"cli.count_models_s.{b}"] = self_s("cli.count_models")

        ref = [job for job in mine[0]["jobs"] if "sizes" in job]
        for key in ("intern_hits", "intern_misses"):
            m[f"{b}.{key}"] = statistics.fmean(job["stats"][key] for job in ref)
        hits = misses = 0
        for op in OPS:
            h = sum(job["stats"][f"{op}_hits"] for job in ref)
            x = sum(job["stats"][f"{op}_misses"] for job in ref)
            m[f"{b}.{op}_hits"] = h / len(ref)
            m[f"{b}.{op}_misses"] = x / len(ref)
            m[f"{b}.memo_entries.{op}"] = statistics.fmean(
                job["sizes"][f"memo_{op}"] for job in ref
            )
            hits, misses = hits + h, misses + x
        m[f"{b}.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        nodes = statistics.fmean(job["sizes"]["nodes"] for job in ref)
        if b == "pure":
            m["pure.nodes"] = nodes
        else:
            m["interned.pool_size"] = nodes + 2
        m[f"{b}.validate_s"] = mine[0].get("validate_s", float("nan"))
        bare = median([job["t"] for c in mine for job in c["jobs"] if not job["traced"] and "t" in job])
        with_spans = median([job["t"] for _, job in traced])
        m[f"trace.overhead_s.{b}"] = with_spans - bare
        m[f"trace.overhead_frac.{b}"] = with_spans / bare - 1
    m["frontend.parse_s"] = median(parse_self)
    m["frontend.parse_chars_per_s"] = parse_chars / sum(parse_self) if parse_self else float("nan")
    return m


def run(args) -> int:
    start = clock()
    if not (SRC / "bddhc" / "__init__.py").is_file():
        print(f"error: no bddhc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from bddhc import interned

    OUT.mkdir(exist_ok=True)
    share = PURE_SHARE[args.workload]
    chunk = {"pure": share * args.seconds / (PAIRS * ROUNDS),
             "interned": (1 - share) * args.seconds / (PAIRS * ROUNDS)}
    deadline = start + RUN_LIMIT_S
    children, setups = [], {b: [] for b in BACKENDS}
    problems: list[str] = []

    def config(b: str, k: int) -> dict:
        return {
            "src": str(SRC),
            "workload": args.workload,
            "backend": b,
            "seed": args.seed,
            "min_jobs": MIN_JOBS[args.workload],
            "trace": bool(args.trace),
            "validate": k == 0,
            "spans_path": str(OUT / f"spans-{args.workload}-{b}-{k}.bin"),
        }

    def probe(b: str) -> float:
        """Set-up time of a worker that is stopped as soon as it is ready."""
        w = Worker(config(b, -1), deadline)
        try:
            return w.ready()
        finally:
            w.stop()

    for k in range(PAIRS):
        workers = []
        try:
            for b in BACKENDS:
                workers.append(Worker(config(b, k), deadline))
                setups[b].append(workers[-1].ready())
            for _ in range(ROUNDS):
                for w in workers:
                    w.run(chunk[w.name])
                    setups[w.name].append(probe(w.name))
            for w in workers:
                report = w.finish()
                children.append(report)
                if report.get("valid") is False:
                    problems.append(f"{w.name}: validator reported violations")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for w in workers:
                w.stop()

    attempted, failed, texts = check_jobs(
        args.workload, args.seed, children, args.corrupt_expected, problems
    )
    digest = determinism(args.workload, children, problems)
    if args.trace:
        metrics = per_layer(children, texts)
        units = PER_LAYER
    else:
        metrics = end_to_end(children, setups)
        units = END_TO_END

    row = [
        f"workload={args.workload}",
        f"seed={args.seed}",
        f"trace={args.trace}",
        f"git={git_describe()}",
        f"python={platform.python_version()}",
        f"kernel={workloads.KERNEL}",
        f"kernel_name={interned.kernel_name()}",
        f"available_kernels={','.join(interned.available_kernels())}",
        f"attempted={attempted}",
        f"failed={failed}",
        f"failed_frac={failed / attempted:.6g}",
        f"digest={digest}",
    ]
    for b in BACKENDS:
        times = [job["t"] for c in children if c["backend"] == b for job in c["jobs"] if "t" in job]
        found = tail(times)
        if found is not None:
            p, value, n = found
            row.append(f"job_tail_s.{b}={value:.6g} s (p{p:g} of {n})")
    row += [f"{name}={metrics[name]:.6g} {unit}" for name, unit in units.items()]
    print(" ".join(row))
    for problem in problems[:10]:
        print(f"FAIL {problem}", file=sys.stderr)

    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the self-check's proof that a wrong expected answer fails the run
    parser.add_argument("--corrupt-expected", action="store_true", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
