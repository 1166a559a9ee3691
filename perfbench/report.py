"""Print every metric named in BENCHMARK.json, one row per workload.

Run from the root of a checkout::

    python3 perfbench/report.py                    # one seed, both run kinds
    python3 perfbench/report.py --seeds 10 --record perfbench/trajectory.jsonl

For each workload it runs ``run.py`` untraced once per seed (seeds 1..N)
and traced once (seed 1), sequentially.  Each end-to-end metric is shown as
the median over seeds with its spread, the distance between the first and
third quartile as a share of the median; each per-layer metric is shown
from the traced run.  It fails when a run fails, when a named metric is
missing or carries another unit, or when a spread exceeds its bound.  ``--record`` appends the medians as one trajectory
point.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    return json.loads(lines[-1]), lines[-2]


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=names)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--record", help="append the medians as one JSON line here")
    parser.add_argument("--note", default="", help="free text stored with the recorded point")
    args = parser.parse_args(argv)

    ok = True
    point = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": args.note,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, 0) for s in range(1, args.seeds + 1)]
        row_head = " ".join(
            f for f in runs[0][1].split() if f.split("=")[0] in
            ("git", "python", "kernel", "kernel_name", "available_kernels")
        )
        attempted = sum(r[0]["attempted"] for r in runs)
        failed = sum(r[0]["failed"] for r in runs)
        cells = [f"workload={workload}", row_head, f"seeds={args.seeds}",
                 f"failed_frac={failed / attempted:.6g} ({failed} of {attempted})"]
        cells += re.findall(r"job_tail_s\.\w+=\S+ s \(p[\d.]+ of \d+\)", runs[0][1])
        record = {"failed": failed, "attempted": attempted}
        for metric in bench["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            got = [r[0]["metrics"].get(name) for r in runs]
            if any(g is None or g["unit"] != unit for g in got):
                print(f"FAIL {workload}: {name} missing or not in {unit}", file=sys.stderr)
                ok = False
                continue
            values = [g["value"] for g in got]
            med = statistics.median(values)
            record[name] = {"median": med, "unit": unit, "values": values}
            cell = f"{name}={med:.6g} {unit}"
            if len(values) >= 2:
                s = spread(values)
                record[name]["spread"] = s
                cell += f" (spread {s:.3f} of bound {metric['bound']})"
                if s > metric["bound"]:
                    print(f"FAIL {workload}: {name} spread {s:.3f} > {metric['bound']}",
                          file=sys.stderr)
                    ok = False
            cells.append(cell)
        if not args.no_trace:
            traced, _ = run_once(workload, 1, args.seconds, 1)
            for metric in bench["per_layer"]:
                name, unit = metric["name"], metric["unit"]
                got = traced["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    print(f"FAIL {workload}: {name} missing or not in {unit}", file=sys.stderr)
                    ok = False
                    continue
                record[name] = {"value": got["value"], "unit": unit}
                cells.append(f"{name}={got['value']:.6g} {unit}")
        print(" ".join(cells), flush=True)
        point["workloads"][workload] = {"row": row_head, "metrics": record}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
