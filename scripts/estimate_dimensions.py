#!/usr/bin/env python3
"""Box-counting dimension of the reference clouds against their targets.

Runs the estimator calibration (segment, filled square) first, then the
Cantor, Sierpinski, and solid-torus presets; exits 1 when any slope is
outside its tolerance (a row marked OFF).
"""

import math
import sys

import numpy as np

from padic_fractal.analysis import box_dimension
from padic_fractal.render import build_cloud, preset


def row(name: str, est, target: float, tol: float) -> bool:
    ok = abs(est.slope - target) <= tol
    print(
        f"{name:<22} slope={est.slope:6.4f} target={target:6.4f} "
        f"tol={tol:.2f} r2={est.r2:.5f} [{'ok ' if ok else 'OFF'}]"
    )
    return ok


def main() -> int:
    seg = np.column_stack([np.linspace(0.0, 1.0, 10_000), np.zeros(10_000)])
    rng = np.random.default_rng(42)
    torus = preset("fig2a-t2")
    oks = [
        row("segment", box_dimension(seg), 1.0, 0.03),
        row("filled-square", box_dimension(rng.random((20_000, 2))), 2.0, 0.05),
        row(
            "fig1-1-cantor",
            box_dimension(build_cloud(preset("fig1-1-cantor")), n_scales=14),
            math.log(2) / math.log(3),
            0.05,
        ),
        row(
            "fig1-10-sierpinski",
            box_dimension(build_cloud(preset("fig1-10-sierpinski")), n_scales=14),
            math.log(3) / math.log(2),
            0.08,
        ),
        row(
            "fig2a-t2",
            box_dimension(build_cloud(torus)),
            torus.map_params().scaling_dimension + 1.0,
            0.12,
        ),
    ]
    return 0 if all(oks) else 1


if __name__ == "__main__":
    sys.exit(main())
