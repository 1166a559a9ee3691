"""The benchmark's own check.  Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It makes short runs (3 s, seed 7) of every workload and fails unless:

* an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and a traced run every per-layer metric, both with ``correct`` true;
* the traced and untraced runs of a seed print the same counter digest (two
  runs, same seed, identical counters, node counts and memo-table sizes);
* a run whose first expected answer is deliberately wrong exits nonzero
  with ``correct`` false;
* a run in a directory holding only BENCHMARK.json and ``perfbench``
  exits nonzero without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402
SEED, SECONDS = 7, 3


def run(workload, trace, cwd=ROOT, extra=()):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def result_of(lines):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def digest_of(lines) -> str:
    fields = dict(f.split("=", 1) for f in lines[-2].split() if "=" in f)
    return fields.get("digest", "")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = run(w, trace)
            result = result_of(lines)
            expect(code == 0 and result is not None and result["correct"],
                   f"{w} trace={trace} exits 0 with a correct result {err.strip()[-300:]}")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace={trace} result has exactly the four keys")
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} trace={trace} attempted {result['attempted']}, failed {result['failed']}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{w} trace={trace} prints every {key} metric with its unit")
            finite = all(
                isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for v in result["metrics"].values()
            )
            expect(finite, f"{w} trace={trace} metric values are finite numbers")
            digests.append(digest_of(lines))
        expect(len(digests) == 2 and digests[0] == digests[1] != "",
               f"{w} counters repeat across two runs of seed {SEED}: {digests}")

    code, lines, _ = run("equiv", 0, extra=["--corrupt-expected"])
    result = result_of(lines)
    expect(code != 0 and result is not None and not result["correct"],
           "a wrong expected answer fails the run")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, _ = run("equiv", 0, cwd=bare)
    expect(code != 0 and result_of(lines) is None,
           "without the bddhc sources the run exits nonzero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
