"""Command-line front end: renders, certificates, verification suites,
dimension estimates, moments, and orbit export.

Exit codes: 0 all checks passed, 1 a check failed (reports still
written), 2 usage or configuration error.  Every report line carries
the measured value and the bound it is compared against, tab-separated:
name<TAB>value<TAB>bound<TAB>PASS|FAIL.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .analysis import (
    box_dimension,
    character_order_gap,
    metric_divergence,
    moment,
    moment_series,
)
from .complex_map import (
    MapParams,
    PlaneMap,
    _sandwich_margins,
    _scaling_residuals,
    delta_certificate,
    residue_digit_matrix,
    rotate_digits,
    sandwich_check,
    scaling_residuals,
)
from .padic import expand, from_int
from .render import (
    RasterConfig,
    auto_viewport,
    build_cloud,
    export_csv,
    export_ply,
    preset,
    preset_names,
    rasterize,
    to_svg,
)
from .solenoid import (
    SolenoidParams,
    SolenoidPoint,
    TorusMap,
    add,
    delta_tilde_certificate,
    distance,
    from_padic,
    gamma_estimate,
    neg,
    orbit,
)

WORKING_EPS = 1e-12  # floating-point slack added to analytic series bounds

SUITES = ("scaling", "sandwich", "group", "j", "eq40", "ode", "kappa", "symmetry")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    p: int = 2
    m: int | float = 0
    s: complex = 0.3
    a: complex = 2.0
    alpha: float = 1.0
    depth: int | None = None
    seed: int = 7
    out: str | None = None
    fmt: str | None = None
    preset: str | None = None
    suite: str = "all"
    exhaustive: bool = False


def _parse_complex(text) -> complex:
    if isinstance(text, (int, float)):
        return complex(text)
    if isinstance(text, (list, tuple)):
        if len(text) != 2:
            raise UsageError(f"complex value needs [re, im], got {text!r}")
        return complex(float(text[0]), float(text[1]))
    text = str(text).strip()
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(text))


def _parse_m(text) -> int | float:
    if isinstance(text, (int, float)) and text != math.inf:
        return int(text)
    if text == math.inf or str(text).lower() in ("inf", "infinity"):
        return math.inf
    try:
        return int(text)
    except (TypeError, ValueError):
        raise UsageError(f"m must be a nonnegative integer or 'inf', got {text!r}")


def parse_config(raw: bytes) -> dict:
    """Validate a JSON config; returns a plain dict of parsed fields."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    out: dict = {}
    for key, val in data.items():
        if key == "p":
            out["p"] = int(val)
            if out["p"] < 2:
                raise UsageError(f"config field 'p': must be >= 2, got {val!r}")
        elif key == "m":
            out["m"] = _parse_m(val)
        elif key == "s":
            out["s"] = _parse_complex(val)
            if abs(out["s"]) >= 1.0 or out["s"] == 0:
                raise UsageError(f"config field 's': need 0 < |s| < 1, got {val!r}")
        elif key == "a":
            out["a"] = _parse_complex(val)
            if out["a"] == 0:
                raise UsageError("config field 'a': must be nonzero")
        elif key == "alpha":
            out["alpha"] = float(val)
            if out["alpha"] <= 0:
                raise UsageError("config field 'alpha': must be positive")
        elif key == "depth":
            out["depth"] = int(val)
        elif key == "seed":
            out["seed"] = int(val)
        elif key in ("out", "format", "preset", "suite"):
            out["fmt" if key == "format" else key] = str(val)
        elif key == "exhaustive":
            out["exhaustive"] = bool(val)
        else:
            raise UsageError(f"config field {key!r}: unknown")
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} does not exist")
        for key, val in parse_config(path.read_bytes()).items():
            setattr(cfg, key, val)
    # explicit flags override file values
    for name in ("p", "depth", "seed", "out", "preset", "suite", "alpha"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "m", None) is not None:
        cfg.m = _parse_m(args.m)
    if getattr(args, "s", None) is not None:
        cfg.s = _parse_complex(args.s)
        if abs(cfg.s) >= 1.0 or cfg.s == 0:
            raise UsageError(f"s must satisfy 0 < |s| < 1, got {cfg.s}")
    if getattr(args, "a", None) is not None:
        cfg.a = _parse_complex(args.a)
    if getattr(args, "format", None) is not None:
        cfg.fmt = args.format
    if getattr(args, "exhaustive", False):
        cfg.exhaustive = True
    if getattr(args, "run_all", False):
        cfg.suite = "all"
    return cfg


def _map_params(cfg: RunConfig, depth: int = 40) -> MapParams:
    return MapParams(p=cfg.p, m=cfg.m, s=cfg.s, depth=max(depth, cfg.depth or 0))


# ---------------------------------------------------------------------------
# report plumbing


class Report:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.failed = False

    def add(self, name: str, value, bound, ok: bool) -> None:
        status = "PASS" if ok else "FAIL"
        if not ok:
            self.failed = True
        self.lines.append(f"{name}\t{_fmt(value)}\t{_fmt(bound)}\t{status}")

    def emit(self, out: str | None) -> None:
        text = "\n".join(self.lines) + "\n"
        if out:
            Path(out).write_bytes(text.encode("ascii"))
        sys.stdout.write(text)


def _fmt(v) -> str:
    if isinstance(v, complex):
        if v.imag == 0:
            return f"{v.real:.12g}"
        return f"{v.real:.12g}{v.imag:+.12g}i"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# ---------------------------------------------------------------------------
# verification suites


def _suite_scaling(cfg: RunConfig, rep: Report) -> None:
    params = _map_params(cfg)
    if cfg.exhaustive:
        # every residue at a capped depth instead of a seeded sample
        depth = min(cfg.depth or 10, _exhaustive_depth_cap(cfg.p))
        res = _scaling_residuals(residue_digit_matrix(cfg.p, depth), params)
    else:
        res = scaling_residuals(params, n_samples=1000, digit_depth=cfg.depth or 30, seed=cfg.seed)
    bound = 2.0 * params.tail_bound + WORKING_EPS
    worst = float(res.max())
    rep.add("scaling.max_residual", worst, bound, worst <= bound)


def _exhaustive_depth_cap(p: int) -> int:
    depth = 1
    while p ** (depth + 1) <= 4096:
        depth += 1
    return depth


def _suite_sandwich(cfg: RunConfig, rep: Report) -> None:
    params = _map_params(cfg)
    if cfg.exhaustive:
        depth = min(cfg.depth or 6, _exhaustive_depth_cap(cfg.p))
        a, b = np.triu_indices(cfg.p**depth, k=1)
        vals = PlaneMap(params).values_on_residues(depth)
        out = _sandwich_margins(params, np.abs(vals[a] - vals[b]), a - b, depth)
    else:
        out = sandwich_check(params, n_pairs=10_000, residue_depth=cfg.depth or 14, seed=cfg.seed)
    rep.add("sandwich.lower_violations", out["lower_violations"], 0, out["lower_violations"] == 0)
    rep.add("sandwich.upper_violations", out["upper_violations"], 0, out["upper_violations"] == 0)
    rep.add("sandwich.worst_lower_margin", out["worst_lower_margin"], 0.0, out["worst_lower_margin"] >= 0)


def _suite_group(cfg: RunConfig, rep: Report) -> None:
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    depth = 8
    worst_assoc = 0.0
    worst_metric = 0.0
    n = 300
    pts = []
    for _ in range(3 * n):
        xi = Fraction(int(rng.integers(0, 997)), 997)
        x = from_int(int(rng.integers(0, p**depth)), p, depth)
        pts.append(SolenoidPoint(xi, x))
    for i in range(n):
        f, g, h = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        lhs, rhs = add(add(f, g), h), add(f, add(g, h))
        if lhs.xi != rhs.xi or lhs.x != rhs.x:
            worst_assoc = max(worst_assoc, 1.0)
        z = add(f, neg(f))
        if z.xi != 0 or not z.x.is_zero():
            worst_assoc = max(worst_assoc, 1.0)
        dfg = distance(f, g, cfg.alpha)
        worst_metric = max(worst_metric, abs(dfg - distance(g, f, cfg.alpha)))
        tri = distance(f, h, cfg.alpha) - (dfg + distance(g, h, cfg.alpha))
        worst_metric = max(worst_metric, tri)
        shift_gap = abs(distance(add(f, h), add(g, h), cfg.alpha) - dfg)
        worst_metric = max(worst_metric, shift_gap)
    rep.add("group.axiom_defect", worst_assoc, 0.0, worst_assoc == 0.0)
    rep.add("group.metric_defect", worst_metric, WORKING_EPS, worst_metric <= WORKING_EPS)


def _suite_j(cfg: RunConfig, rep: Report) -> None:
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    worst_hom = 0.0
    worst_iso = 0.0
    for _ in range(300):
        num_a = int(rng.integers(0, p**8))
        num_b = int(rng.integers(0, p**8))
        shift = int(rng.integers(0, 5))
        xa = expand(Fraction(num_a, p**shift), p, 16)
        xb = expand(Fraction(num_b, p**shift), p, 16)
        lhs = from_padic(xa + xb)
        rhs = add(from_padic(xa), from_padic(xb))
        worst_hom = max(worst_hom, distance(lhs, rhs, cfg.alpha))
        ya, yb = from_int(num_a, p, 10), from_int(num_b, p, 10)
        gap = abs(distance(from_padic(ya), from_padic(yb), cfg.alpha) - (ya - yb).norm(cfg.alpha))
        worst_iso = max(worst_iso, gap)
    rep.add("j.homomorphism_defect", worst_hom, WORKING_EPS, worst_hom <= WORKING_EPS)
    rep.add("j.isometry_defect", worst_iso, WORKING_EPS, worst_iso <= WORKING_EPS)


def _suite_eq40(cfg: RunConfig, rep: Report) -> None:
    params = MapParams(p=cfg.p, m=math.inf, s=cfg.s, depth=40)
    tmap = TorusMap(SolenoidParams(map=params, a=cfg.a))
    pmap = PlaneMap(params)
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    worst = 0.0
    for _ in range(200):
        num = int(rng.integers(0, p**10))
        x = expand(Fraction(num, p**4), p, 16)
        frac, integral_part = x.split()
        lhs = pmap.parts(x)[1]
        rhs = tmap.fiber_value(frac, integral_part)
        worst = max(worst, abs(lhs - rhs))
    bound = 2.0 * params.tail_bound + WORKING_EPS
    rep.add("eq40.max_residual", worst, bound, worst <= bound)


def _suite_ode(cfg: RunConfig, rep: Report) -> None:
    params = MapParams(p=cfg.p, m=math.inf, s=cfg.s, depth=50)
    tmap = TorusMap(SolenoidParams(map=params, a=cfg.a))
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    ratios = []
    for _ in range(10):
        f = SolenoidPoint(
            Fraction(int(rng.integers(0, 997)), 997),
            from_int(int(rng.integers(0, p**6)), p, 6),
        )
        gam = tmap.vector_field(f)

        def fd(h: float) -> float:
            plus = tmap.embed(orbit(f, Fraction(h).limit_denominator(10**12)))
            minus = tmap.embed(orbit(f, Fraction(-h).limit_denominator(10**12)))
            return float(np.linalg.norm((plus - minus) / (2 * h) - gam))

        ratios.append(fd(1e-3) / max(fd(1e-4), 1e-300))
    worst = min(ratios)
    rep.add("ode.fd_ratio_min", worst, 50.0, worst >= 50.0)
    sub = tmap.scaled(1.0 / p)
    spot = (2j * math.pi / p) * sub.fiber_value(0.0, from_int(0, p))
    closed = (2j * math.pi / p) / (1.0 - cfg.s / p)
    gap = abs(spot - closed)
    rep.add("ode.spot_value_gap", gap, 1e-6, gap <= 1e-6)


def _suite_kappa(cfg: RunConfig, rep: Report) -> None:
    m = cfg.m if cfg.m != math.inf and cfg.m and cfg.m >= 1 else 6
    fm = MapParams(p=cfg.p, m=int(m), s=cfg.s, depth=45)
    fi = MapParams(p=cfg.p, m=math.inf, s=cfg.s, depth=45)
    kappa, bound = metric_divergence(fm, fi, n_samples=300, sample_depth=14, seed=cfg.seed)
    rep.add(f"kappa.m{int(m)}", kappa, bound, kappa <= bound)
    gap = character_order_gap(fm, fi, depth=14)
    gap_bound = 2.0 * math.pi * cfg.p ** (-int(m))
    rep.add(f"kappa.char_gap_m{int(m)}", gap, gap_bound, gap < gap_bound)


def _suite_symmetry(cfg: RunConfig, rep: Report) -> None:
    params = MapParams(p=cfg.p, m=0, s=cfg.s, depth=40)
    pmap = PlaneMap(params)
    rng = np.random.default_rng(cfg.seed)
    phase = complex(math.cos(2 * math.pi / cfg.p), math.sin(2 * math.pi / cfg.p))
    worst = 0.0
    for _ in range(200):
        x = from_int(int(rng.integers(0, cfg.p**10)), cfg.p, 10)
        worst = max(worst, abs(pmap.value(rotate_digits(x)) - phase * pmap.value(x)))
    bound = 2.0 * params.tail_bound + WORKING_EPS
    rep.add("symmetry.max_residual", worst, bound, worst <= bound)


_SUITE_FUNCS = {
    "scaling": _suite_scaling,
    "sandwich": _suite_sandwich,
    "group": _suite_group,
    "j": _suite_j,
    "eq40": _suite_eq40,
    "ode": _suite_ode,
    "kappa": _suite_kappa,
    "symmetry": _suite_symmetry,
}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_certify(cfg: RunConfig) -> int:
    rep = Report()
    params = _map_params(cfg)
    cert = delta_certificate(params, search_depth=min(cfg.depth or 8, 10))
    rep.add("certify.delta_lower", cert.delta_lower, 0.0, True)
    rep.add("certify.delta_empirical", cert.delta_empirical, cert.allowance, True)
    rep.add(
        "certify.verdict",
        cert.verdict,
        "certified-embedding iff delta_lower>0",
        cert.verdict != "not-applicable",
    )
    if cfg.a:
        sp = SolenoidParams(map=params, a=cfg.a)
        tilde = delta_tilde_certificate(sp, xi_count=8, search_depth=min(cfg.depth or 6, 8))
        gamma, sufficient = gamma_estimate(sp, xi_count=64, depth=6)
        rep.add("certify.delta_tilde_lower", tilde.delta_lower, 0.0, True)
        rep.add("certify.delta_tilde_empirical", tilde.delta_empirical, tilde.allowance, True)
        rep.add("certify.gamma_estimate", gamma, 1.0, True)
        rep.add("certify.gamma_sufficient", str(sufficient).lower(), "a real > r_s", True)
    rep.emit(cfg.out)
    return 1 if rep.failed else 0


def _cmd_verify(cfg: RunConfig) -> int:
    rep = Report()
    names = list(SUITES) if cfg.suite in ("all", None) else [cfg.suite]
    for name in names:
        fn = _SUITE_FUNCS.get(name)
        if fn is None:
            raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
        fn(cfg, rep)
    rep.emit(cfg.out)
    return 1 if rep.failed else 0


def _cmd_render2d(cfg: RunConfig) -> int:
    if cfg.preset:
        fp = preset(cfg.preset)
        if fp.kind != "plane":
            raise UsageError(f"preset {fp.name} is a torus preset; use render3d")
        cloud = build_cloud(fp, depth=cfg.depth)
    else:
        pmap = PlaneMap(_map_params(cfg))
        cloud = pmap.cluster(0, 0, cfg.depth or 10)
    raster = RasterConfig(viewport=auto_viewport(cloud.values))
    fmt = cfg.fmt or "pgm"
    if fmt == "pgm":
        payload = rasterize(cloud, raster)
    elif fmt == "svg":
        payload = to_svg(cloud, raster)
    else:
        raise UsageError(f"render2d format must be pgm or svg, got {fmt!r}")
    if not cfg.out:
        raise UsageError("render2d requires --out")
    Path(cfg.out).write_bytes(payload)
    sys.stdout.write(f"render2d\t{cfg.out}\t{len(cloud)} points\tPASS\n")
    return 0


def _cmd_render3d(cfg: RunConfig) -> int:
    if cfg.preset:
        fp = preset(cfg.preset)
        if fp.kind != "torus":
            raise UsageError(f"preset {fp.name} is a plane preset; use render2d")
        cloud = build_cloud(fp, depth=cfg.depth)
    else:
        params = SolenoidParams(map=_map_params(cfg), a=cfg.a)
        cloud = TorusMap(params).cloud(64, cfg.depth or 6)
    fmt = cfg.fmt or "ply"
    if fmt == "ply":
        payload = export_ply(cloud)
    elif fmt == "csv":
        payload = export_csv(cloud)
    else:
        raise UsageError(f"render3d format must be ply or csv, got {fmt!r}")
    if not cfg.out:
        raise UsageError("render3d requires --out")
    Path(cfg.out).write_bytes(payload)
    sys.stdout.write(f"render3d\t{cfg.out}\t{len(cloud)} points\tPASS\n")
    return 0


def _cmd_dimension(cfg: RunConfig) -> int:
    rep = Report()
    if cfg.preset:
        fp = preset(cfg.preset)
        cloud = build_cloud(fp, depth=cfg.depth)
        params = fp.map_params()
        target = params.scaling_dimension + (1.0 if fp.kind == "torus" else 0.0)
    else:
        params = _map_params(cfg)
        cloud = PlaneMap(params).cluster(0, 0, cfg.depth or 12)
        target = params.scaling_dimension
    est = box_dimension(cloud)
    rep.add("dimension.slope", est.slope, target, abs(est.slope - target) <= 0.15)
    rep.add("dimension.r2", est.r2, 0.98, est.r2 >= 0.98)
    rep.add("dimension.points", est.point_count, 10_000, est.point_count >= 10_000)
    rep.emit(cfg.out)
    return 1 if rep.failed else 0


def _cmd_moments(cfg: RunConfig) -> int:
    rep = Report()
    params = _map_params(cfg)
    depth = cfg.depth or 12
    for L, Lbar in ((0, 0), (1, 0), (1, 1), (2, 0)):
        mres = moment(params, L, Lbar, depth)
        series = moment_series(params, L, Lbar, cutoff=16)
        gap = abs(mres.value - series)
        tol = mres.error_bound + 10.0 * abs(params.s) ** 17 + WORKING_EPS
        rep.add(f"moment.{L}.{Lbar}", mres.value, tol, gap <= tol)
    rep.emit(cfg.out)
    return 1 if rep.failed else 0


def _cmd_orbit(cfg: RunConfig) -> int:
    params = SolenoidParams(map=_map_params(cfg), a=cfg.a)
    tmap = TorusMap(params)
    steps = cfg.depth or 400
    f0 = SolenoidPoint(Fraction(0), from_int(0, cfg.p))
    rows = []
    for k in range(steps + 1):
        t = Fraction(3 * k, steps)
        pt = tmap.embed(orbit(f0, t))
        rows.append((float(t), pt))
    if not cfg.out:
        raise UsageError("orbit requires --out")
    fmt = cfg.fmt or "csv"
    if fmt == "csv":
        lines = ["x,y,z,label"]
        lines += [f"{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},t={t:.9g}" for t, p in rows]
        Path(cfg.out).write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    elif fmt == "ply":
        Path(cfg.out).write_bytes(export_ply(np.array([p for _, p in rows])))
    else:
        raise UsageError(f"orbit format must be csv or ply, got {fmt!r}")
    sys.stdout.write(f"orbit\t{cfg.out}\t{len(rows)} samples\tPASS\n")
    return 0


def _cmd_presets(cfg: RunConfig) -> int:
    for name in preset_names():
        fp = preset(name)
        extra = f" a={_fmt(fp.a)} xi_count={fp.xi_count}" if fp.kind == "torus" else ""
        if fp.ball_scale:
            extra += f" ball_scale={fp.ball_scale}"
        sys.stdout.write(
            f"{name}\tkind={fp.kind} p={fp.p} m={fp.m} s={_fmt(complex(fp.s))} "
            f"depth={fp.depth}{extra}\n"
        )
    return 0


_COMMANDS = {
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "render2d": _cmd_render2d,
    "render3d": _cmd_render3d,
    "dimension": _cmd_dimension,
    "moments": _cmd_moments,
    "orbit": _cmd_orbit,
    "presets": _cmd_presets,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-fractal",
        description="fractal images of base-p digit expansions: render, certify, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        c = sub.add_parser(name)
        c.add_argument("--p", type=int)
        c.add_argument("--m")
        c.add_argument("--s")
        c.add_argument("--a")
        c.add_argument("--alpha", type=float)
        c.add_argument("--depth", type=int)
        c.add_argument("--seed", type=int)
        c.add_argument("--out")
        c.add_argument("--format")
        c.add_argument("--preset")
        c.add_argument("--suite")
        c.add_argument("--all", dest="run_all", action="store_true")
        c.add_argument("--exhaustive", action="store_true")
        c.add_argument("--config")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _build_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
