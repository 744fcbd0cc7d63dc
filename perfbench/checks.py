"""Checks of the CLI's reports and artifacts, computed apart from the
vectorised paths that produced them.

Every check takes (report, artifact bytes, seed) and returns a list of
problems; an empty list means the operation's output is correct.
Coordinates are recomputed on a seeded sample through the scalar
oracles ``PlaneMap.value`` and ``TorusMap.embed`` at a deeper series
truncation (60 levels) than the program uses, and must agree with the
9 significant digits the exporters print.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import numpy as np

from padic_fractal.complex_map import MapParams, PlaneMap
from padic_fractal.padic import expand, from_int
from padic_fractal.solenoid import SolenoidParams, SolenoidPoint, TorusMap

ORACLE_DEPTH = 60
SERIES_DEPTH = 40  # the program's series truncation for presets and orbits
SAMPLES = 24
RASTER = 800  # render2d's default raster width and height
SLOPE_TOL = 0.15
SUITES = ("scaling", "sandwich", "group", "j", "eq40", "ode", "kappa", "symmetry")


def _agree(printed: float, exact: float) -> bool:
    """Equal to 9 significant digits, with slack for float rounding."""
    return abs(printed - exact) <= 6e-9 * abs(exact) + 1e-11


def _rows(report: str) -> dict[str, list[str]]:
    return {f[0]: f[1:] for f in (ln.split("\t") for ln in report.splitlines()) if f}


def _failed_lines(report: str) -> list[str]:
    lines = [ln for ln in report.splitlines() if ln]
    if not lines:
        return ["empty report"]
    names = [ln.split("\t", 1)[0] for ln in lines]
    return [f"{name} not PASS: {ln!r}" for name, ln in zip(names, lines) if not ln.endswith("\tPASS")]


def _count_line(report: str, expected: int, unit: str) -> list[str]:
    m = re.search(rf"\t(\d+) {unit}\tPASS$", report.strip())
    if not m:
        return [f"no '{unit}' line in {report.strip()!r}"]
    if int(m.group(1)) != expected:
        return [f"reported {m.group(1)} {unit}, expected {expected}"]
    return []


def _sample(seed: int, n: int, k: int = SAMPLES) -> list[int]:
    return sorted(random.Random(seed).sample(range(n), min(k, n)))


def _oracle_map(ps) -> MapParams:
    return MapParams(p=ps.p, m=ps.m, s=ps.s, depth=ORACLE_DEPTH)


def _torus_oracle(p: int, m, s: float, a: complex) -> TorusMap:
    return TorusMap(SolenoidParams(map=MapParams(p=p, m=m, s=s, depth=ORACLE_DEPTH), a=a))


def _torus_radius(pts: np.ndarray, a: complex, s: float, depth: int) -> list[str]:
    """Every point within 1/(1-|s|) of the core circle, plus the tail."""
    limit = 1.0 / (1.0 - abs(s)) + 2.0 * abs(s) ** (depth + 1) / (1.0 - abs(s)) + 1e-6
    ring = np.hypot(pts[:, 0], pts[:, 2]) - abs(a)
    worst = float(np.max(np.hypot(ring, pts[:, 1])))
    return [] if worst <= limit else [f"point {worst:.6g} from the core circle, limit {limit:.6g}"]


def _torus_sample(pts: np.ndarray, ps, seed: int) -> list[str]:
    tmap = _torus_oracle(ps.p, ps.m, ps.s, ps.a)
    per = ps.p**ps.depth
    problems = []
    for i in _sample(seed, len(pts)):
        xi, r = divmod(i, per)
        want = tmap.embed(SolenoidPoint(Fraction(xi, ps.xi_count), from_int(r, ps.p, ps.depth)))
        if not all(_agree(g, w) for g, w in zip(pts[i], want)):
            problems.append(f"point {i} is {pts[i].tolist()}, oracle {want.tolist()}")
    return problems


# ---------------------------------------------------------------------------
# gallery


def pgm(points: int, report: str, data: bytes, seed: int) -> list[str]:
    problems = _count_line(report, points, "points")
    header = f"P5\n{RASTER} {RASTER}\n255\n".encode()
    if not data.startswith(header) or len(data) != len(header) + RASTER * RASTER:
        return problems + [f"bad PGM header or size ({len(data)} bytes)"]
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    lit = int(np.count_nonzero(pixels == 255))
    if lit + int(np.count_nonzero(pixels == 0)) != pixels.size:
        problems.append("binary raster holds values other than 0 and 255")
    if not 1 <= lit <= points:
        problems.append(f"{lit} lit pixels for {points} points")
    return problems


def svg(ps, report: str, data: bytes, seed: int) -> list[str]:
    problems = _count_line(report, ps.points, "points")
    text = data.decode("ascii")
    if not text.startswith('<?xml version="1.0"') or "<svg " not in text or not text.endswith("</svg>"):
        problems.append("bad SVG envelope")
    circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="[^"]+"/>', text)
    if len(circles) != ps.points:
        return problems + [f"{len(circles)} circles, expected {ps.points}"]
    pmap = PlaneMap(_oracle_map(ps))
    for k in _sample(seed, ps.points):
        want = pmap.value(expand(Fraction(k, ps.p**ps.ball_scale), ps.p, ps.depth + ps.ball_scale))
        cx, cy = (float(v) for v in circles[k])
        if not (_agree(cx, want.real) and _agree(cy, -want.imag)):
            problems.append(f"circle {k} at ({cx}, {cy}), oracle {want}")
    return problems


def ply(ps, report: str, data: bytes, seed: int) -> list[str]:
    problems = _count_line(report, ps.points, "points")
    head = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {ps.points}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    text = data.decode("ascii")
    if not text.startswith(head):
        return problems + ["bad PLY header"]
    body = text[len(head):].splitlines()
    if len(body) != ps.points:
        return problems + [f"{len(body)} vertex lines, expected {ps.points}"]
    pts = np.array(" ".join(body).split(), dtype=np.float64).reshape(-1, 3)
    return problems + _torus_radius(pts, ps.a, ps.s, SERIES_DEPTH) + _torus_sample(pts, ps, seed)


def csv(ps, report: str, data: bytes, seed: int) -> list[str]:
    problems = _count_line(report, ps.points, "points")
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != "x,y,z,label":
        return problems + ["bad CSV header"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != ps.points:
        return problems + [f"{len(rows)} CSV rows, expected {ps.points}"]
    per = ps.p**ps.depth
    bad = [i for i, row in enumerate(rows) if row[3] != f"{i // per}:{i % per}"]
    if bad:
        problems.append(f"{len(bad)} rows with wrong i:r labels, first at row {bad[0]}")
    pts = np.array([row[:3] for row in rows], dtype=np.float64)
    return problems + _torus_radius(pts, ps.a, ps.s, SERIES_DEPTH) + _torus_sample(pts, ps, seed)


# ---------------------------------------------------------------------------
# measure


def dimension(target: float, points: int, report: str, data, seed: int) -> list[str]:
    rows = _rows(report)
    if "dimension.slope" not in rows or "dimension.points" not in rows:
        return [f"incomplete dimension report {report!r}"]
    slope, printed_target = float(rows["dimension.slope"][0]), float(rows["dimension.slope"][1])
    problems = []
    if abs(slope - target) > SLOPE_TOL:
        problems.append(f"slope {slope} not within {SLOPE_TOL} of {target:.6f}")
    if abs(printed_target - target) > 1e-9 * target:
        problems.append(f"report compares against {printed_target}, target is {target:.12g}")
    if int(rows["dimension.points"][0]) != points:
        problems.append(f"{rows['dimension.points'][0]} points, expected {points}")
    return problems + _failed_lines(report)


def _complex(text: str) -> complex:
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def moments_closed_form(s: float, report: str, data, seed: int) -> list[str]:
    """p=2, m=inf: E[1]=1, E[f]=0, E[|f|^2]=1/(1-|s|^2), E[f^2]=1."""
    rows = _rows(report)
    closed = {"moment.0.0": 1.0, "moment.1.0": 0.0,
              "moment.1.1": 1.0 / (1.0 - abs(s) ** 2), "moment.2.0": 1.0}
    problems = []
    for name, want in closed.items():
        if name not in rows:
            problems.append(f"missing {name}")
            continue
        value, bound = _complex(rows[name][0]), float(rows[name][1])
        if abs(value - want) > bound:
            problems.append(f"{name} = {value}, closed form {want}, bound {bound}")
    return problems + _failed_lines(report)


# ---------------------------------------------------------------------------
# verify


def all_pass(report: str, data, seed: int) -> list[str]:
    return _failed_lines(report)


def all_suites(report: str, data, seed: int) -> list[str]:
    names = {ln.split(".", 1)[0] for ln in report.splitlines() if ln}
    missing = [s for s in SUITES if s not in names]
    return ([f"suites missing from the report: {missing}"] if missing else []) + _failed_lines(report)


def certify(p: int, s: float, report: str, data, seed: int) -> list[str]:
    rows = _rows(report)
    want = 2.0 * (math.sin(math.pi / p) - abs(s) / (1.0 - abs(s)))
    problems = []
    got = float(rows.get("certify.delta_lower", ["nan"])[0])
    if not abs(got - want) <= 1e-9 * abs(want):
        problems.append(f"delta_lower {got}, expected {want:.12g}")
    verdict = rows.get("certify.verdict", ["missing"])[0]
    if (verdict == "certified-embedding") != (want > 0):
        problems.append(f"verdict {verdict} with delta_lower {want:.6g}")
    return problems + _failed_lines(report)


def orbit(p: int, s: float, a: float, steps: int, report: str, data: bytes, seed: int) -> list[str]:
    """Orbit of the origin for t in [0, 3]: the point at time t is
    (t - floor t, floor t) exactly, so no group addition is needed."""
    problems = _count_line(report, steps + 1, "samples")
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != "x,y,z,label":
        return problems + ["bad orbit CSV header"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != steps + 1:
        return problems + [f"{len(rows)} orbit rows, expected {steps + 1}"]
    times = [Fraction(3 * k, steps) for k in range(steps + 1)]
    bad = [k for k, row in enumerate(rows) if row[3] != f"t={float(times[k]):.9g}"]
    if bad:
        problems.append(f"{len(bad)} orbit rows with wrong time labels, first at row {bad[0]}")
    pts = np.array([row[:3] for row in rows], dtype=np.float64)
    problems += _torus_radius(pts, a, s, SERIES_DEPTH)
    tmap = _torus_oracle(p, math.inf, s, a)
    for k in _sample(seed, len(rows), 16):
        whole = math.floor(times[k])
        want = tmap.embed(SolenoidPoint(times[k] - whole, from_int(whole, p)))
        if not all(_agree(g, w) for g, w in zip(pts[k], want)):
            problems.append(f"orbit sample t={times[k]} is {pts[k].tolist()}, oracle {want.tolist()}")
    return problems
