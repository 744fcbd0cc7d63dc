"""padic-fractal benchmark: runs one workload and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload gallery|measure|verify \
        [--seed 7] [--seconds 10] [--trace 0|1]

The workload runs in a fresh Python process (perfbench/worker.py) that
imports the package from ./src.  With --trace 0 the last line reports
the end-to-end metrics of that untraced run; with --trace 1 an untraced
run and a traced twin both run, and the last line reports the per-layer
metrics from the twin, the untraced per-subcommand times and
trace.overhead_s.  The lines before it list every metric by name and
unit.  Exit code 0 when the benchmark ran; 2 when the program is missing
or a worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from worker import calibrate, to_ref  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
E2E = ("setup_s", "wall_s", "peak_rss_mb", "points_per_s")
RUN_LIMIT_S = 170  # a run, set-up and both workers included, ends within this


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Time from starting a fresh interpreter to `import padic_fractal.cli`
    done: (median in reference seconds, median as measured).  Each sample
    is scaled by the calibration kernel timed just before and just after
    it, as the operation times are."""
    code = "import time, padic_fractal.cli; print(repr(time.time()))"
    argv = [sys.executable, "-c", code]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    samples = []
    calib = calibrate()
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        done = subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=60)
        took = float(done.stdout.split()[-1]) - t0
        before, calib = calib, calibrate()
        samples.append((to_ref(took, before, calib), took))
    return statistics.median(r for r, _ in samples), statistics.median(t for _, t in samples)


def run_worker(args, env, scratch: Path, traced: bool, deadline: float) -> dict:
    tag = "traced" if traced else "plain"
    out_dir = scratch / f"artifacts-{tag}"
    out_dir.mkdir()
    result = scratch / f"result-{tag}.json"
    span_file = scratch / "spans.npz"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(traced)), "--out-dir", str(out_dir), "--result", str(result)]
    if traced:
        argv += ["--spans", str(span_file)]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=max(deadline - time.monotonic(), 1.0))
    data = json.loads(result.read_text())
    if traced:
        with np.load(span_file) as archive:
            data["spans"] = dict(archive)
    return data


def accounting(data: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors).  An operation fails in a pass when it
    exits non-zero, fails its check, or its output differs from the
    warm-up pass.  Errors are the problems no known fault explains, and
    outputs that differ between passes."""
    passes, ops = data["passes"], data["ops"]
    failed = 0
    errors = []
    for i, op in enumerate(ops):
        for n, record in enumerate(passes):
            if record["rc"][i] != 0 or op["problems"] or n in op["unstable_passes"]:
                failed += 1
        if op["unstable_passes"]:
            errors.append(f"{' '.join(op['argv'])}: output differs in passes {op['unstable_passes']}")
        if op["errors"]:
            errors.append(f"{' '.join(op['argv'])}: {'; '.join(op['errors'])}")
    return len(ops) * len(passes), failed, errors


def timed(data: dict) -> list[dict]:
    return data["passes"][1:]


def median_of(data: dict, key) -> float:
    return statistics.median(key(p) for p in timed(data))


def end_to_end(data: dict, setup: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, then the times of the subcommands the workload runs."""
    passes = timed(data)
    wall = median_of(data, lambda p: p["wall_ref"])
    out = {
        "setup_s": (setup[0], "s"),
        "wall_s": (wall, "ref-s"),
        "peak_rss_mb": (data["peak_rss_kb"] / 1024.0, "MB"),
        "points_per_s": (passes[0]["points"] / wall, "points/ref-s"),
    }
    for sub in passes[0]["by_sub"]:
        out[f"{sub}_s"] = (median_of(data, lambda p: p["by_sub"][sub]), "ref-s")
    out["setup_measured_s"] = (setup[1], "s")
    out["wall_measured_s"] = (median_of(data, lambda p: p["wall"]), "s")
    out["calib_s"] = (median_of(data, lambda p: p["calib"]), "s")
    return out


def per_layer(plain: dict, traced: dict) -> dict[str, tuple[float, str]]:
    windows = [(p["start"], p["end"]) for p in timed(traced)]
    layer = spans.layer_metrics(traced["spans"], windows)
    out = {name: (value, spans.unit(name)) for name, value in layer.items()}
    overhead = median_of(traced, lambda p: p["wall_ref"]) - median_of(plain, lambda p: p["wall_ref"])
    out["trace.overhead_s"] = (overhead, "ref-s")
    for sub in spans.SUBCOMMANDS:
        out[f"{sub}_s"] = (median_of(plain, lambda p: p["by_sub"].get(sub, 0.0)), "ref-s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="padic-fractal benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "padic_fractal" / "cli.py").is_file():
        sys.stderr.write(f"error: no padic_fractal sources under {ROOT / 'src'}\n")
        return 2
    env = _env()
    bench_dir = ROOT / ".perfbench"
    bench_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_dir))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup = setup_seconds(env)
        plain = run_worker(args, env, scratch, False, deadline)
        traced = run_worker(args, env, scratch, True, deadline) if args.trace else None
        if traced is not None:
            shutil.copy(scratch / "spans.npz", bench_dir / f"spans-{args.workload}.npz")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: benchmark process failed: {exc}\n")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, errors = accounting(plain)
    if traced is not None:
        t_attempted, t_failed, t_errors = accounting(traced)
        attempted, failed, errors = attempted + t_attempted, failed + t_failed, errors + t_errors
    shown = end_to_end(plain, setup)
    if traced is not None:
        shown.update(per_layer(plain, traced))
    print(f"workload {args.workload} seed {args.seed}: {len(timed(plain))} timed passes, "
          f"{os.cpu_count()} CPUs, attempted {attempted}, failed {failed}")
    for line in errors:
        print(f"error\t{line}")
    for name, (value, unit) in shown.items():
        print(f"metric\t{name}\t{value:.6g}\t{unit}")
    names = E2E if traced is None else [n for n in shown if n not in E2E]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": shown[n][0], "unit": shown[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
