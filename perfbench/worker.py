"""One workload in one fresh Python process: a closed loop with a single
client that calls ``padic_fractal.cli.main(argv)`` for each operation in
turn, a warm-up pass and then timed passes.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 --out-dir DIR --result FILE [--spans FILE]

Writes the pass timings, the operation outcomes and the peak resident
memory to --result as JSON; with --trace 1 also the recorded spans to
--spans.  The checks run after the timed passes, with tracing off.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer, install

MIN_TIMED_PASSES = 3
CALIB_REF_S = 0.03  # calibration-kernel time that defines the reference speed


def reported_points(subcommand: str, report: str) -> int:
    """Points a command reports: render and orbit counts, dimension.points."""
    if subcommand in ("render2d", "render3d", "orbit"):
        m = re.search(r"\t(\d+) (?:points|samples)\t", report)
        return int(m.group(1)) if m else 0
    if subcommand == "dimension":
        m = re.search(r"^dimension\.points\t(\d+)\t", report, re.M)
        return int(m.group(1)) if m else 0
    return 0


def _artifact(out_dir: str, op) -> bytes | None:
    path = Path(out_dir, op.out) if op.out else None
    return path.read_bytes() if path and path.exists() else None


def calibrate() -> float:
    """Time a fixed reference computation: exact Fraction arithmetic and a
    vectorised complex exponential and sort, the two kinds of work the
    workloads do.  The machine's speed drifts by up to 2x over tens of
    seconds (other tenants share the cores), so operation times are
    reported relative to this kernel's time measured around each one."""
    start = time.perf_counter()
    for _ in range(3):
        acc = Fraction(0)
        for i in range(1, 1500):
            acc += Fraction(i % 7, i)
    z = np.exp(1j * np.arange(400_000) * 1e-3)
    np.unique(np.round(z.real, 3))
    return time.perf_counter() - start


def to_ref(seconds: float, before: float, after: float) -> float:
    """A time in reference seconds: as measured, times CALIB_REF_S over the
    mean of the kernel times just before and just after it."""
    return seconds * CALIB_REF_S * 2.0 / (before + after)


def run_pass(cli, ops, tracer, out_dir):
    """Run every operation once, with the calibration kernel timed before
    the first and after each; returns timings and output digests."""
    calib = [calibrate()]
    outcomes = []
    wall = wall_ref = 0.0
    by_sub: dict[str, float] = {}
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.main(list(op.argv))
                else:
                    with tracer.span(f"cli.{op.subcommand}", "cli"):
                        rc = cli.main(list(op.argv))
            except Exception as exc:  # a crash fails this operation, not the whole run
                rc = -1
                err.write(f"uncaught {exc!r}")
        took = time.perf_counter() - t0
        calib.append(calibrate())
        ref = to_ref(took, calib[-2], calib[-1])
        wall, wall_ref = wall + took, wall_ref + ref
        by_sub[op.subcommand] = by_sub.get(op.subcommand, 0.0) + ref
        outcomes.append((rc, out.getvalue(), err.getvalue()))
    end = time.perf_counter()
    digests = []
    for op, (_, report, _) in zip(ops, outcomes):
        h = hashlib.sha256(report.encode())
        h.update(_artifact(out_dir, op) or b"")
        digests.append(h.hexdigest())
    return {"start": start, "end": end, "wall": wall, "wall_ref": wall_ref,
            "calib": statistics.median(calib), "by_sub": by_sub,
            "points": sum(reported_points(op.subcommand, o[1]) for op, o in zip(ops, outcomes)),
            "rc": [o[0] for o in outcomes], "digests": digests}, outcomes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    from padic_fractal import cli

    ops = workloads.build(args.workload, args.seed, args.out_dir)
    passes = []
    warm, outcomes = run_pass(cli, ops, tracer, args.out_dir)
    passes.append(warm)
    began = time.perf_counter()
    while len(passes) <= MIN_TIMED_PASSES or time.perf_counter() - began < args.seconds:
        gc.collect()
        record, outcomes = run_pass(cli, ops, tracer, args.out_dir)
        passes.append(record)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.enabled = False
        tracer.save(args.spans)

    results = []
    for i, (op, (rc, report, err)) in enumerate(zip(ops, outcomes)):
        data = _artifact(args.out_dir, op)
        if op.out and data is None:
            problems = ["artifact missing"]
        else:
            try:
                problems = op.check(report, data, args.seed)
            except Exception as exc:  # a malformed output must fail its operation, not the run
                problems = [f"check raised {exc!r}"]
        if rc != 0:
            problems.append(f"exit code {rc}: {err.strip()[-300:]}")
        unstable = [n for n, p in enumerate(passes) if p["digests"][i] != passes[0]["digests"][i]]
        errors = op.known_fault.unexplained(problems) if op.known_fault else problems
        results.append({"argv": list(op.argv), "problems": problems, "errors": errors,
                        "unstable_passes": unstable})
    Path(args.result).write_text(json.dumps({"passes": passes, "ops": results,
                                             "peak_rss_kb": peak_rss_kb}))


if __name__ == "__main__":
    main()
