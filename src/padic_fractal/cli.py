"""Command-line front end: renders, certificates, verification suites,
dimension estimates, moments, and orbit export.

Exit codes: 0 all checks passed, 1 a check failed (reports still
written), 2 usage or configuration error.  Every report line carries
the measured value and the bound it is compared against, tab-separated:
name<TAB>value<TAB>bound<TAB>PASS|FAIL.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable

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
    residue_bound,
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


# ---------------------------------------------------------------------------
# configuration: one parse-and-check function per field, applied once to
# the config-file values merged with the flags, before any work


def _integer(raw) -> int:
    if isinstance(raw, str):
        try:
            raw = int(raw)
        except ValueError:
            pass
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise UsageError("must be an integer")
    return raw


def _real(raw) -> float:
    if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except (ValueError, OverflowError):
            pass
    raise UsageError("must be a number")


def _complex(raw) -> complex:
    parts = raw.split(",", 1) if isinstance(raw, str) else raw
    try:
        pair = isinstance(parts, list) and len(parts) == 2
        z = complex(_real(parts[0]), _real(parts[1])) if pair else complex(_real(raw))
    except UsageError:
        raise UsageError("must be a number, 're,im' or [re, im]") from None
    if not cmath.isfinite(z):
        raise UsageError("must be finite")
    return z


def _order(raw) -> int | float:
    if raw == math.inf or (isinstance(raw, str) and raw.strip().lower() in ("inf", "infinity")):
        return math.inf
    return _checked(_integer, lambda m: m >= 0, "must be >= 0 or 'inf'")(raw)


def _text(raw) -> str:
    if not isinstance(raw, str) or not raw:
        raise UsageError("must be a nonempty string")
    return raw


def _checked(parse, ok, why: str):
    def check(raw):
        value = parse(raw)
        if not ok(value):
            raise UsageError(why)
        return value

    return check


def _field(default, parse):
    return field(default=default, metadata={"parse": parse})


def _one_of(*names: str):
    return _checked(_text, lambda v: v in names, f"choose from {', '.join(names)}")


def _boolean(raw) -> bool:
    if not isinstance(raw, bool):
        raise UsageError("must be true or false")
    return raw


def _out_path(raw) -> str:
    if not Path(_text(raw)).parent.is_dir() or Path(raw).is_dir():
        raise UsageError("must name a file in an existing directory")
    return raw


@dataclass(frozen=True)
class Config:
    """The settings of one run, after the config file and the flags are
    merged and every field is checked."""

    command: str
    p: int = _field(2, _checked(_integer, lambda p: p >= 2, "must be >= 2"))
    m: int | float = _field(0, _order)
    s: complex = _field(0.3, _checked(_complex, lambda s: 0 < abs(s) < 1, "need 0 < |s| < 1"))
    a: complex = _field(2.0, _checked(_complex, lambda a: a != 0, "must be nonzero"))
    alpha: float = _field(1.0, _checked(_real, lambda x: 0 < x < math.inf,
                                        "must be > 0 and finite"))
    depth: int | None = _field(None, _checked(_integer, lambda d: d >= 1, "must be >= 1"))
    seed: int = _field(7, _checked(_integer, lambda n: n >= 0, "must be >= 0"))
    out: str | None = _field(None, _out_path)
    format: str | None = _field(None, _text)
    preset: str | None = _field(None, _one_of(*preset_names()))
    suite: str = _field("all", _one_of(*SUITES, "all"))
    exhaustive: bool = _field(False, _boolean)


_FIELDS = {f.name: f.metadata["parse"] for f in fields(Config) if f.metadata}


def _parse_fields(raw: dict) -> dict:
    parsed = {}
    for name, value in raw.items():
        if name not in _FIELDS:
            raise UsageError(f"field {name!r}: unknown; fields are {', '.join(_FIELDS)}")
        try:
            parsed[name] = _FIELDS[name](value)
        except UsageError as exc:
            raise UsageError(f"field {name!r}: {exc}, got {value!r}") from None
    return parsed


def _read_config(raw: bytes) -> dict:
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    return data


def parse_config(raw: bytes) -> dict:
    """Parse and check a JSON config; returns the fields it sets."""
    return _parse_fields(_read_config(raw))


def _build_config(args: argparse.Namespace) -> Config:
    raw = {}
    if args.config is not None:
        if not Path(args.config).is_file():
            raise UsageError(f"config file {args.config} does not exist")
        raw = _read_config(Path(args.config).read_bytes())
    # explicit flags override file values
    raw.update({name: v for name in _FIELDS if (v := getattr(args, name)) is not None})
    values = _parse_fields(raw)
    command = _COMMANDS[args.command]
    if unread := [name for name in values if name not in command.reads.split()]:
        raise UsageError(f"field {unread[0]!r}: {args.command} does not read it; "
                         f"it reads {', '.join(command.reads.split())}")
    if command.formats and values.setdefault("format", command.formats[0]) not in command.formats:
        raise UsageError(f"field 'format': {args.command} takes {' or '.join(command.formats)}, "
                         f"got {values['format']!r}")
    if "preset" in values and (fp := preset(values["preset"])).kind not in command.kinds:
        raise UsageError(f"field 'preset': {args.command} takes a {' or '.join(command.kinds)} "
                         f"preset, {fp.name} is a {fp.kind} preset")
    if command.needs_out and "out" not in values:
        raise UsageError(f"{args.command} requires --out")
    return Config(command=args.command, **values)


def _map_params(cfg: Config, depth: int = 40) -> MapParams:
    return MapParams(p=cfg.p, m=cfg.m, s=cfg.s, depth=max(depth, cfg.depth or 0))


# ---------------------------------------------------------------------------
# report plumbing


class Report:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.failed = False

    def add(self, name: str, value, bound, ok: bool) -> None:
        self.failed |= not ok
        self.lines.append(f"{name}\t{_fmt(value)}\t{_fmt(bound)}\t{'PASS' if ok else 'FAIL'}")

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


def _suite_scaling(cfg: Config, rep: Report) -> None:
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


def _suite_sandwich(cfg: Config, rep: Report) -> None:
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


def _suite_group(cfg: Config, rep: Report) -> None:
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    depth = 8
    worst_assoc = 0.0
    worst_metric = 0.0
    n = 300
    pts = []
    for _ in range(3 * n):
        xi = Fraction(int(rng.integers(0, 997)), 997)
        x = from_int(int(rng.integers(0, residue_bound(p, depth))), p, depth)
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


def _suite_j(cfg: Config, rep: Report) -> None:
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    worst_hom = 0.0
    worst_iso = 0.0
    for _ in range(300):
        num_a = int(rng.integers(0, residue_bound(p, 8)))
        num_b = int(rng.integers(0, residue_bound(p, 8)))
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


def _suite_eq40(cfg: Config, rep: Report) -> None:
    params = MapParams(p=cfg.p, m=math.inf, s=cfg.s, depth=40)
    tmap = TorusMap(SolenoidParams(map=params, a=cfg.a))
    pmap = PlaneMap(params)
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    worst = 0.0
    for _ in range(200):
        num = int(rng.integers(0, residue_bound(p, 10)))
        x = expand(Fraction(num, p**4), p, 16)
        frac, integral_part = x.split()
        lhs = pmap.parts(x)[1]
        rhs = tmap.fiber_value(frac, integral_part)
        worst = max(worst, abs(lhs - rhs))
    bound = 2.0 * params.tail_bound + WORKING_EPS
    rep.add("eq40.max_residual", worst, bound, worst <= bound)


def _suite_ode(cfg: Config, rep: Report) -> None:
    params = MapParams(p=cfg.p, m=math.inf, s=cfg.s, depth=50)
    tmap = TorusMap(SolenoidParams(map=params, a=cfg.a))
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p
    ratios = []
    for _ in range(10):
        f = SolenoidPoint(
            Fraction(int(rng.integers(0, 997)), 997),
            from_int(int(rng.integers(0, residue_bound(p, 6))), p, 6),
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


def _suite_kappa(cfg: Config, rep: Report) -> None:
    m = cfg.m if cfg.m != math.inf and cfg.m and cfg.m >= 1 else 6
    fm = MapParams(p=cfg.p, m=int(m), s=cfg.s, depth=45)
    fi = MapParams(p=cfg.p, m=math.inf, s=cfg.s, depth=45)
    kappa, bound = metric_divergence(fm, fi, n_samples=300, sample_depth=14, seed=cfg.seed)
    rep.add(f"kappa.m{int(m)}", kappa, bound, kappa <= bound)
    gap = character_order_gap(fm, fi, depth=14)
    gap_bound = 2.0 * math.pi * cfg.p ** (-int(m))
    rep.add(f"kappa.char_gap_m{int(m)}", gap, gap_bound, gap < gap_bound)


def _suite_symmetry(cfg: Config, rep: Report) -> None:
    params = MapParams(p=cfg.p, m=0, s=cfg.s, depth=40)
    pmap = PlaneMap(params)
    rng = np.random.default_rng(cfg.seed)
    phase = complex(math.cos(2 * math.pi / cfg.p), math.sin(2 * math.pi / cfg.p))
    worst = 0.0
    for _ in range(200):
        x = from_int(int(rng.integers(0, residue_bound(cfg.p, 10))), cfg.p, 10)
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


def _cmd_certify(cfg: Config) -> int:
    rep = Report()
    params = _map_params(cfg)
    cert = delta_certificate(params, search_depth=min(cfg.depth or 8, 10))
    known = cert.verdict != "unknown"
    rep.add("certify.delta_lower", cert.delta_lower, 0.0, True)
    rep.add("certify.delta_empirical", cert.delta_empirical, cert.allowance, known)
    rep.add("certify.verdict", cert.verdict, "certified-embedding iff delta_lower>0", known)
    sp = SolenoidParams(map=params, a=cfg.a)
    tilde = delta_tilde_certificate(sp, xi_count=8, search_depth=min(cfg.depth or 6, 8))
    gamma, sufficient = gamma_estimate(sp, xi_count=64, depth=6)
    rep.add("certify.delta_tilde_lower", tilde.delta_lower, 0.0, True)
    rep.add("certify.delta_tilde_empirical", tilde.delta_empirical, tilde.allowance,
            tilde.verdict != "unknown")
    rep.add("certify.gamma_estimate", gamma, 1.0, gamma < 1.0)
    rep.add("certify.gamma_sufficient", str(sufficient).lower(), "a real > r_s", sufficient)
    rep.emit(cfg.out)
    return 1 if rep.failed else 0


def _cmd_verify(cfg: Config) -> int:
    rep = Report()
    for name in SUITES if cfg.suite == "all" else (cfg.suite,):
        _SUITE_FUNCS[name](cfg, rep)
    rep.emit(cfg.out)
    return 1 if rep.failed else 0


def _cmd_render2d(cfg: Config) -> int:
    if cfg.preset:
        cloud = build_cloud(preset(cfg.preset), depth=cfg.depth)
    else:
        cloud = PlaneMap(_map_params(cfg)).cluster(0, 0, cfg.depth or 10)
    raster = RasterConfig(viewport=auto_viewport(cloud.values))
    encode = rasterize if cfg.format == "pgm" else to_svg
    Path(cfg.out).write_bytes(encode(cloud, raster))
    sys.stdout.write(f"render2d\t{cfg.out}\t{len(cloud)} points\tPASS\n")
    return 0


def _cmd_render3d(cfg: Config) -> int:
    if cfg.preset:
        cloud = build_cloud(preset(cfg.preset), depth=cfg.depth)
    else:
        params = SolenoidParams(map=_map_params(cfg), a=cfg.a)
        cloud = TorusMap(params).cloud(64, cfg.depth or 6)
    encode = export_ply if cfg.format == "ply" else export_csv
    Path(cfg.out).write_bytes(encode(cloud))
    sys.stdout.write(f"render3d\t{cfg.out}\t{len(cloud)} points\tPASS\n")
    return 0


def _cmd_dimension(cfg: Config) -> int:
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


def _cmd_moments(cfg: Config) -> int:
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


def _cmd_orbit(cfg: Config) -> int:
    tmap = TorusMap(SolenoidParams(map=_map_params(cfg), a=cfg.a))
    steps = cfg.depth or 400
    f0 = SolenoidPoint(Fraction(0), from_int(0, cfg.p))
    times = [Fraction(3 * k, steps) for k in range(steps + 1)]
    pts = np.array([tmap.embed(orbit(f0, t)) for t in times])
    if cfg.format == "csv":
        data = export_csv(pts, [f"t={float(t):.9g}" for t in times])
    else:
        data = export_ply(pts)
    Path(cfg.out).write_bytes(data)
    sys.stdout.write(f"orbit\t{cfg.out}\t{len(pts)} samples\tPASS\n")
    return 0


def _cmd_presets(cfg: Config) -> int:
    rep = Report()
    for name in preset_names():
        fp = preset(name)
        extra = f" a={_fmt(fp.a)} xi_count={fp.xi_count}" if fp.kind == "torus" else ""
        if fp.ball_scale:
            extra += f" ball_scale={fp.ball_scale}"
        rep.lines.append(f"{name}\tkind={fp.kind} p={fp.p} m={fp.m} s={_fmt(complex(fp.s))} "
                         f"depth={fp.depth}{extra}")
    rep.emit(cfg.out)
    return 0


@dataclass(frozen=True)
class _Command:
    """A subcommand: its function, the fields it reads (any other is refused; all
    take seed, so one seeded argv suffix fits every command), its --format values
    (the first is the default), whether it needs --out, and its kinds of preset."""

    run: Callable[[Config], int]
    reads: str
    formats: tuple[str, ...] = ()
    needs_out: bool = False
    kinds: tuple[str, ...] = ()


_COMMANDS = {
    "certify": _Command(_cmd_certify, "p m s a depth seed out"),
    "verify": _Command(_cmd_verify, "suite exhaustive p m s a alpha depth seed out"),
    "render2d": _Command(_cmd_render2d, "preset p m s depth format seed out", ("pgm", "svg"),
                         needs_out=True, kinds=("plane",)),
    "render3d": _Command(_cmd_render3d, "preset p m s a depth format seed out", ("ply", "csv"),
                         needs_out=True, kinds=("torus",)),
    "dimension": _Command(_cmd_dimension, "preset p m s depth seed out", kinds=("plane", "torus")),
    "moments": _Command(_cmd_moments, "p m s depth seed out"),
    "orbit": _Command(_cmd_orbit, "p m s a depth format seed out", ("csv", "ply"), needs_out=True),
    "presets": _Command(_cmd_presets, "seed out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-fractal",
        description="fractal images of base-p digit expansions: render, certify, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        c = sub.add_parser(name)
        # values stay strings: the field table parses flags and config alike
        for name in (*_FIELDS, "config"):
            if name != "exhaustive":
                c.add_argument(f"--{name}")
        c.add_argument("--all", dest="suite", action="store_const", const="all")
        c.add_argument("--exhaustive", action="store_true", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command].run(_build_config(args))
    except (UsageError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
