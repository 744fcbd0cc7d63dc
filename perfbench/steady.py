"""Steadiness check: runs the benchmark in sets of seeded runs on the same
code and reports, for every end-to-end and per-subcommand metric and
every workload, whether the two sets agree within the metric's bound.

Usage (from the repository root):

    python3 perfbench/steady.py

Each of the two sets runs every workload of BENCHMARK.json once per seed
(seeds 1 to 10), for its run_seconds.  A metric is steady in a set when
the distance between its first and third quartile is within its bound
as a share of the median, and the two sets agree when their medians
differ, either way, by no more than the bound.  The failed share of
operations must be the same in both sets.  Per-subcommand times have no
bound of their own and are held to the bound of wall_s; the as-measured
wall time and calibration time are shown without a verdict.  Raw values go
to .perfbench/steady.json.  Exit code 0 when everything agrees.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - began
    for line in lines:
        if line.startswith("metric\t"):
            _, name, value, unit = line.split("\t")
            result["metrics"].setdefault(name, {"value": float(value), "unit": unit})
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for _ in range(SETS):
        runs = {w: [] for w in workloads}
        for seed in range(1, RUNS + 1):
            for workload in workloads:
                runs[workload].append(run_once(workload, seed, bench["run_seconds"]))
                r = runs[workload][-1]
                print(f"ran {workload} seed {seed}: correct={r['correct']} "
                      f"failed {r['failed']}/{r['attempted']} in {r['elapsed_s']:.0f} s", flush=True)
        sets.append(runs)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "steady.json").write_text(json.dumps(sets))

    ok = True
    print("workload\tmetric\tbound\t" + "\t".join(f"median{i + 1}\tspread{i + 1}" for i in range(SETS))
          + "\tverdict")
    for workload in workloads:
        shares = {r["failed"] / r["attempted"] for s in sets for r in s[workload]}
        correct = all(r["correct"] for s in sets for r in s[workload])
        if len(shares) != 1 or not correct:
            ok = False
            print(f"{workload}\tfailed share {sorted(shares)}, all correct {correct}\tDISAGREE")
        for name, metric in sets[0][workload][0]["metrics"].items():
            if name in bounds:
                bound = bounds[name]
            elif metric["unit"] == "ref-s":
                bound = bounds["wall_s"]
            else:  # as-measured times, shown for the machine's drift
                bound = math.inf
            cols, medians, verdict = [], [], "agree" if bound < math.inf else "info"
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s[workload]]
                med, sp = statistics.median(values), spread(values)
                cols += [f"{med:.6g}", f"{sp:.3f}"]
                medians.append(med)
                if sp > bound:
                    verdict = "UNSTEADY"
            if any(abs(m / medians[0] - 1.0) > bound for m in medians[1:]):
                verdict = "DISAGREE"
            ok = ok and verdict in ("agree", "info")
            print(f"{workload}\t{name}\t{bound}\t" + "\t".join(cols) + f"\t{verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
