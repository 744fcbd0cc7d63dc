"""Command-line front end: renders, certificates, verification suites,
dimension estimates, moments, and orbit export.

Every subcommand yields report rows and `main` alone writes them, one per
line: name<TAB>value<TAB>bound<TAB>PASS|FAIL, so each value carries its
bound (name<TAB>text in the preset listing).  Exit codes: 0 all checks
passed, 1 a check failed (reports still written), 2 usage error or a
config that cannot be read or an --out that cannot be written.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .analysis import (
    box_dimension,
    character_order_gap,
    delta_certificate,
    delta_tilde_certificate,
    divergence_bound,
    gamma_estimate,
    metric_divergence,
    moment,
    moment_series,
)
from .complex_map import (
    MAX_ROWS,
    MapParams,
    PlaneMap,
    _guard_rows,
    _widest,
    _window_cap,
    character_table,
    delta_lower,
    residue_digit_matrix,
    s_zero,
    sandwich_check,
    scaling_residuals,
    series_values,
)
from .padic import norm
from .render import (
    FigurePreset,
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
    distance,
    from_padic,
    neg,
    orbit,
)

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
    suite: str = _field("all", _text)  # checked against SUITES, below
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
        try:
            data = Path(args.config).read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read {args.config}: {exc.strerror or exc}") from None
        raw = _read_config(data)
    # explicit flags override file values
    raw.update({name: v for name in _FIELDS if (v := getattr(args, name)) is not None})
    values = _parse_fields(raw)
    command, who, suite = _COMMANDS[args.command], args.command, values.get("suite", "all")
    reads = set(command.reads.split())
    if "suite" in reads:  # verify also reads the fields of the suites it runs
        reads.update(*(SUITES[name].reads.split() for name in SUITES if suite in ("all", name)))
        if suite != "all":
            who += f" --suite {suite}"
    if "preset" in reads and "preset" in values:
        if (fp := preset(values["preset"])).kind not in command.kinds:
            raise UsageError(f"field 'preset': {who} takes a {' or '.join(command.kinds)} "
                             f"preset, {fp.name} is a {fp.kind} preset")
        reads -= {"p", "m", "s", "a"}  # the preset fixes the map
        who += f" --preset {fp.name}"
    if unread := [name for name in values if name not in reads]:
        raise UsageError(f"field {unread[0]!r}: {who} does not read it; "
                         f"it reads {', '.join(name for name in _FIELDS if name in reads)}")
    if command.formats and values.setdefault("format", command.formats[0]) not in command.formats:
        raise UsageError(f"field 'format': {args.command} takes {' or '.join(command.formats)}, "
                         f"got {values['format']!r}")
    if command.needs_out and "out" not in values:
        raise UsageError(f"{args.command} requires --out")
    return Config(command=args.command, **values)


def _write(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _map_params(cfg: Config) -> MapParams:
    """The map fields, summed to MapParams' own series depth."""
    return MapParams(p=cfg.p, m=cfg.m, s=cfg.s)


# ---------------------------------------------------------------------------
# report rows: (name, value, bound, ok) for a check, (name, text) for a
# listing; main alone formats and writes them


def _line(row: tuple) -> str:
    if len(row) == 2:
        return "\t".join(row)
    name, value, bound, ok = row
    return f"{name}\t{_fmt(value)}\t{_fmt(bound)}\t{'PASS' if ok else 'FAIL'}"


def _fmt(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.12g}" + (f"{v.imag:+.12g}i" if v.imag else "")
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _at_most(name: str, value, bound) -> tuple:
    return name, value, bound, value <= bound


@dataclass(frozen=True)
class _Command:
    """A subcommand or a verify suite: its function, which yields report rows;
    the fields it reads, any other being refused (all read seed, so one seeded
    argv suffix fits all); its --format values, the first the default; whether
    --out is its artifact, and required; its kinds of preset."""

    run: Callable[[Config], Iterator[tuple]]
    reads: str
    formats: tuple[str, ...] = ()
    needs_out: bool = False
    kinds: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# verification suites


def _samples(seed: int, bounds: list[int], n: int) -> Iterator[tuple[int, ...]]:
    """n tuples of ints 0 <= k_i < bounds[i], drawn from the seeded generator
    in one call: an array of bounds draws element by element from the stream
    that one call per integer reads, so the values are those of the calls."""
    flat = iter(np.random.default_rng(seed).integers(0, bounds * n).tolist())
    return zip(*[flat] * len(bounds))


def _sample_bound(p: int, depth: int) -> int:
    """p**depth, the exclusive upper end of sampled residue codes.  Samples
    are 64-bit integers, so a bound past 2^63 is refused as a field: depth
    if 2^depth passes 2^63, else p; p**64 alone passes it, so no larger
    power is formed."""
    if p ** min(depth, 64) > 1 << 63:
        raise UsageError(f"field {'depth' if depth > 63 else 'p'!r}: sampling residues below "
                         f"{p}^{depth} needs integers past the 64-bit limit 2^63")
    return p**depth


def _residues(cfg: Config) -> np.ndarray:
    """The 200 residues below p^10 that eq40 and symmetry sample."""
    drawn = _samples(cfg.seed, [_sample_bound(cfg.p, 10)], 200)
    return np.array([num for (num,) in drawn], dtype=np.int64)


def _suite_scaling(cfg: Config) -> Iterator[tuple]:
    """f(px) = 1 + s f(x).  To depth D, f_D(px) = 1 + s f_(D-1)(x) level by
    level, so the residual is s^(D+1) chi_D(x), within tail_bound, plus the
    (1 + |s|) rounding_bound of f(px) and s f(x); the last three roundings,
    a few 2^-53 r_s, fit in the (D+5) 2^-53 left of 2 rounding_bound (at
    |s| <= 0.95; beyond it, in the tail).  Both sides drop the same digits
    to the window cap, as at m = inf the closed-form tail, which has none,
    starts one level later for px than for x.  It can start elsewhere only
    where |s|^first is large against depth - first, and there tail_bound
    holds the cap's 2 pi p^-widest |s|^n at one level many times over (at
    most 2% of the bound, over p <= 10^6, depth <= 60 and |s| < 1)."""
    params = _map_params(cfg)
    if cfg.exhaustive:
        digits = residue_digit_matrix(cfg.p, _exhaustive_depth(cfg, 10))
    else:
        samples, depth = 1000, cfg.depth or 30
        if samples * depth > MAX_ROWS:  # the sampled digit matrix, refused before allocation
            raise UsageError(f"field 'depth': scaling samples {samples} rows of depth digits, "
                             f"at most {MAX_ROWS} in all, so depth at most "
                             f"{MAX_ROWS // samples}, got {depth}")
        digits = np.random.default_rng(cfg.seed).integers(0, _sample_bound(cfg.p, 1),
                                                          size=(samples, depth))
    res = scaling_residuals(digits, params)
    bound = params.tail_bound + 2.0 * params.rounding_bound
    yield _at_most("scaling.max_residual", float(res.max()), bound)


def _exhaustive_depth(cfg: Config, default: int) -> int:
    """--depth, else the default, capped to 4096 residues; a larger --depth,
    or a p past 4096, is refused."""
    cap = max((k for k in range(1, 13) if cfg.p**k <= 4096), default=0)
    if not cap:
        raise UsageError(f"field 'p': --exhaustive enumerates at most 4096 residues, "
                         f"so p at most 4096, got {cfg.p}")
    if (cfg.depth or 0) > cap:
        raise UsageError(f"field 'depth': --exhaustive enumerates at most 4096 residues, "
                         f"depth {cap} at p={cfg.p}, got {cfg.depth}")
    return cfg.depth or min(default, cap)


def _suite_sandwich(cfg: Config) -> Iterator[tuple]:
    params = _map_params(cfg)
    if cfg.exhaustive:
        depth = _exhaustive_depth(cfg, 6)
        a, b = np.triu_indices(cfg.p**depth, k=1)
        vals = PlaneMap(params).values_on_residues(depth)
        va, vb = vals[a], vals[b]
    else:
        hi = _sample_bound(cfg.p, depth := cfg.depth or 14)
        rng = np.random.default_rng(cfg.seed)
        a, b = (rng.integers(0, hi, size=10_000, dtype=np.int64) for _ in range(2))
        a, b = a[a != b], b[a != b]
        va, vb = (PlaneMap(params).values_on_residues(depth, codes=c) for c in (a, b))
    out = sandwich_check(params, np.abs(va - vb), a - b, depth)
    yield _at_most("sandwich.lower_violations", out["lower_violations"], 0)
    yield _at_most("sandwich.upper_violations", out["upper_violations"], 0)
    margin = out["worst_lower_margin"]
    yield "sandwich.worst_lower_margin", margin, 0.0, margin >= 0


def _suite_group(cfg: Config) -> Iterator[tuple]:
    """The exact group law and the metric.  Its symmetry and invariance
    compare floats of equal rationals: exactly 0.  A distance here, at most
    1, is a correctly rounded quotient or p^(-alpha v), whose rounded exponent
    and pow err by (1/e + 1) u, u = 2^-53; with the sum of two (at most 2,
    rounded by u) the triangle defect is at most 3 (1 + 1/e) u + u < 6 u."""
    p, worst_assoc, worst_metric = cfg.p, 0.0, 0.0
    pts = [SolenoidPoint(Fraction(k, 997), num)
           for k, num in _samples(cfg.seed, [997, _sample_bound(p, 8)], 900)]
    zero = SolenoidPoint(0, 0)
    for f, g, h in zip(pts[0::3], pts[1::3], pts[2::3]):
        lhs, rhs, z = add(add(f, g), h), add(f, add(g, h)), add(f, neg(f))
        if lhs != rhs or z != zero:
            worst_assoc = 1.0
        dfg = distance(f, g, p, cfg.alpha)
        worst_metric = max(worst_metric, abs(dfg - distance(g, f, p, cfg.alpha)),
                           distance(f, h, p, cfg.alpha) - (dfg + distance(g, h, p, cfg.alpha)),
                           abs(distance(add(f, h), add(g, h), p, cfg.alpha) - dfg))
    yield _at_most("group.axiom_defect", worst_assoc, 0.0)
    yield _at_most("group.metric_defect", worst_metric, 6 * 2.0**-53)


def _suite_j(cfg: Config) -> Iterator[tuple]:
    """j is an exact homomorphism and isometry: the distance of equal points
    is 0.0, and both sides of the isometry are the float of one norm."""
    p, bound, worst_hom, worst_iso = cfg.p, _sample_bound(cfg.p, 8), 0.0, 0.0
    for num_a, num_b, shift in _samples(cfg.seed, [bound, bound, 5], 300):
        xa, xb = (Fraction(num, p**shift) for num in (num_a, num_b))
        lhs, rhs = from_padic(xa + xb, p), add(from_padic(xa, p), from_padic(xb, p))
        worst_hom = max(worst_hom, distance(lhs, rhs, p, cfg.alpha))
        gap = abs(distance(from_padic(num_a, p), from_padic(num_b, p), p, cfg.alpha)
                  - norm(num_a - num_b, p, cfg.alpha))
        worst_iso = max(worst_iso, gap)
    yield _at_most("j.homomorphism_defect", worst_hom, 0.0)
    yield _at_most("j.isometry_defect", worst_iso, 0.0)


def _suite_eq40(cfg: Config) -> Iterator[tuple]:
    """The plane/solenoid identity at x = num / p^4: the integral part of
    f(x), sum_(n<=D) s^n chi_n(x), is the fiber value at split(x, p) =
    (xi, y), sum_(n<=D) s^n e(xi / p^(n+1)) chi_n(y), level by level.  So
    the residual is the rounding of the two values, 2 rounding_bound, and
    the window cap of the level loop: from level widest - 4 on, the plane
    side drops digits of xi that weigh less than p^-widest of a turn (both
    drop the same digits of y), _window_cap from level widest - 4."""
    params = MapParams(p=cfg.p, m=math.inf, s=cfg.s)
    p, nums = cfg.p, _residues(cfg)
    digits = residue_digit_matrix(p, 10, nums)  # x's digits from index -4, y's from 0
    chi_x = character_table(digits, -4, params)[4:]
    chi_y = character_table(digits[:, 4:], 0, params)
    turn = 2j * math.pi * (nums % p**4 / p**4)  # 2 pi i xi
    plane, fiber = np.zeros((2, len(nums)), dtype=np.complex128)
    for n in range(params.depth + 1):
        plane += cfg.s**n * chi_x[n]
        fiber += cfg.s**n * np.exp(turn / float(p ** (n + 1))) * chi_y[n]
    cap = _window_cap(params, _widest(p) - 4)
    yield _at_most("eq40.max_residual", float(np.abs(plane - fiber).max()),
                   2.0 * params.rounding_bound + cap)


def _suite_ode(cfg: Config) -> Iterator[tuple]:
    """Central differences of the embedded orbit against `vector_field`, and c F,
    c = 2 pi i/p, F the map at s' = s * (1/p) at (0, 0), against c/(1 - s/p).  F is
    within rounding_bound + tail_bound of 1/(1 - s'); s/p, 3 2^-53 |s'| from s', moves
    that by 3 2^-53 |s'| r^2, r = 1/(1 - |s'|); 1 - s/p, the division and c F round by
    8 2^-53 r.  As |s'| r < 1, the gap is within (2 pi/p) (tail_bound + rounding_bound
    + 11 2^-53 r^2); the 40 steps are one embedding call, which reads x = -1 at m = inf."""
    if cfg.s * (1.0 / cfg.p) == 0:  # as TorusMap.scaled computes it
        raise UsageError(f"field 's': ode evaluates the map at s/p, which rounds to 0 "
                         f"at p={cfg.p}, got {_fmt(cfg.s)}")
    params = MapParams(p=cfg.p, m=math.inf, s=cfg.s)
    tmap = TorusMap(SolenoidParams(map=params, a=cfg.a))
    # the flow's speed is at most 2 pi (|a| + r_s + 1/(p - |s|)), and a residual
    # of the difference quotient at most twice that
    r = params.contraction_radius
    if abs(cfg.a) > (top := sys.float_info.max / (4 * math.pi) - r - 1 / (cfg.p - abs(cfg.s))):
        raise UsageError(f"field 'a': ode subtracts flow velocities of size up to 2 pi (|a| + "
                         f"{r:.6g} + 1/(p - |s|)), which pass the float range unless "
                         f"|a| <= {top:.6g}, got {_fmt(cfg.a)}")
    # the ratio is unchanged by one power of two scaling both residuals, which
    # keeps their squares in range: 2^-k <= 1/(|a| + r_s)
    unit = 2.0 ** -math.frexp(abs(cfg.a) + r)[1]
    p, ratios, hs = cfg.p, [], (1e-3, 1e-4)
    times = [Fraction(t).limit_denominator(10**12) for h in hs for t in (h, -h)]
    fs = [SolenoidPoint(Fraction(k, 997), num)
          for k, num in _samples(cfg.seed, [997, _sample_bound(p, 6)], 10)]
    steps = tmap._embed_integral([orbit(f, t) for f in fs for t in times])
    for f, pairs in zip(fs, steps.reshape(len(fs), len(hs), 2, 3)):
        gam = tmap.vector_field(f)
        coarse, fine = (float(np.linalg.norm(((plus - minus) / (2 * h) - gam) * unit))
                        for h, (plus, minus) in zip(hs, pairs))
        ratios.append(coarse / max(fine, 1e-300))
    worst = min(ratios)
    yield "ode.fd_ratio_min", worst, 50.0, worst >= 50.0
    sub = tmap.scaled(1.0 / p)
    spot = (2j * math.pi / p) * sub.fiber_value(0.0, 0)
    closed = (2j * math.pi / p) / (1.0 - cfg.s / p)
    at = sub.params.map
    yield _at_most("ode.spot_value_gap", abs(spot - closed), 2 * math.pi / p * (
        at.tail_bound + at.rounding_bound + 11 * 2.0**-53 * at.contraction_radius**2))


def _suite_kappa(cfg: Config) -> Iterator[tuple]:
    m = cfg.m if cfg.m != math.inf and cfg.m and cfg.m >= 1 else 6
    fm = MapParams(p=cfg.p, m=int(m), s=cfg.s)
    fi = MapParams(p=cfg.p, m=math.inf, s=cfg.s)
    depth = max((k for k in range(2, 15) if cfg.p**k <= 1 << 63), default=1)  # int64 codes
    drawn = np.random.default_rng(cfg.seed).integers(0, _sample_bound(cfg.p, depth), size=300,
                                                     dtype=np.int64)
    kappa = metric_divergence(fm, fi, np.unique(drawn), depth)
    if delta_lower(cfg.p, cfg.s) > 0:
        yield _at_most(f"kappa.m{int(m)}", kappa, divergence_bound(fm, fi))
    else:  # past s_zero(p) no certified separation bounds the divergence
        yield f"kappa.m{int(m)}", kappa, f"|s| < s_zero({cfg.p}) = {_fmt(s_zero(cfg.p))}", False
    gap = character_order_gap(fm, fi, depth=14)
    gap_bound = 2.0 * math.pi * cfg.p ** (-int(m))
    yield f"kappa.char_gap_m{int(m)}", gap, gap_bound, gap < gap_bound


def _suite_symmetry(cfg: Config) -> Iterator[tuple]:
    """At order 0 level n reads one digit d through the table
    _turn(arange(p), p).  Adding 1 to each of the digits 0 .. D of x, its
    zero tail turned into ones, with no carries, takes each level
    from e(d/p) to e((d+1)/p) = e(1/p) e(d/p), so the two series to depth D
    agree level by level: the residual is their rounding, 2 rounding_bound."""
    params = MapParams(p=cfg.p, m=0, s=cfg.s)
    digits = residue_digit_matrix(cfg.p, params.depth + 1, _residues(cfg))
    phase = complex(math.cos(2 * math.pi / cfg.p), math.sin(2 * math.pi / cfg.p))
    worst = np.abs(series_values((digits + 1) % cfg.p, 0, params)
                   - phase * series_values(digits, 0, params)).max()
    yield _at_most("symmetry.max_residual", float(worst), 2.0 * params.rounding_bound)


# in the order `verify --all` runs them; a suite reads a field when its
# report can change with it
SUITES = {
    "scaling": _Command(_suite_scaling, "exhaustive p m s depth seed"),
    "sandwich": _Command(_suite_sandwich, "exhaustive p m s depth seed"),
    "group": _Command(_suite_group, "p alpha seed"),
    "j": _Command(_suite_j, "p alpha seed"),
    "eq40": _Command(_suite_eq40, "p s seed"),
    "ode": _Command(_suite_ode, "p s a seed"),
    "kappa": _Command(_suite_kappa, "p m s seed"),
    "symmetry": _Command(_suite_symmetry, "p s seed"),
}
_FIELDS["suite"] = _one_of(*SUITES, "all")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_certify(cfg: Config) -> Iterator[tuple]:
    # --depth sets both searches (default 8 and 6); MAX_ROWS and MAX_PAIRS bound them
    params = _map_params(cfg)
    cert = delta_certificate(params, search_depth=cfg.depth or 8)
    known = cert.verdict != "unknown"
    yield "certify.delta_lower", cert.delta_lower, 0.0, True
    yield "certify.delta_empirical", cert.delta_empirical, cert.allowance, known
    yield "certify.verdict", cert.verdict, "certified-embedding iff delta_lower>0", known
    sp = SolenoidParams(map=params, a=cfg.a)
    tilde = delta_tilde_certificate(sp, search_depth=cfg.depth or 6)
    yield "certify.delta_tilde_lower", tilde.delta_lower, 0.0, True
    yield ("certify.delta_tilde_empirical", tilde.delta_empirical, tilde.allowance,
           tilde.verdict != "unknown")
    gamma, sufficient = gamma_estimate(sp)
    yield "certify.gamma_estimate", gamma, 1.0, gamma < 1.0
    yield "certify.gamma_sufficient", str(sufficient).lower(), "a real > r_s", sufficient


def _cmd_verify(cfg: Config) -> Iterator[tuple]:
    for name in SUITES if cfg.suite == "all" else (cfg.suite,):
        yield from SUITES[name].run(cfg)


def _figure(cfg: Config, kind: str, depth: int) -> FigurePreset:
    """The preset, else the map fields' unit ball (on 64 fibers of a torus)."""
    if cfg.preset:
        return preset(cfg.preset)
    return FigurePreset("map fields", kind, cfg.p, cfg.m, cfg.s, depth, cfg.a, xi_count=64)


def _cmd_render2d(cfg: Config) -> Iterator[tuple]:
    cloud = build_cloud(_figure(cfg, "plane", 10), depth=cfg.depth)
    raster = RasterConfig(viewport=auto_viewport(cloud))
    encode = rasterize if cfg.format == "pgm" else to_svg
    _write(cfg.out, encode(cloud, raster))
    yield "render2d", cfg.out, f"{len(cloud)} points", True


def _cmd_render3d(cfg: Config) -> Iterator[tuple]:
    fp = _figure(cfg, "torus", 6)
    cloud = build_cloud(fp, depth=cfg.depth)
    if cfg.format == "ply":
        data = export_ply(cloud)
    else:  # row i is fiber i // p^depth at residue i % p^depth, labelled i:r
        per = fp.p ** (cfg.depth or fp.depth)
        data = export_csv(cloud, np.stack(np.divmod(np.arange(len(cloud)), per), axis=1))
    _write(cfg.out, data)
    yield "render3d", cfg.out, f"{len(cloud)} points", True


def _matched_torus_cloud(fp: FigurePreset, depth: int):
    """The preset's xi_count * p^depth torus points at the largest residue
    depth d <= depth whose n fibers lie no farther apart, 2 pi |a| / n, than
    a depth-d ball is wide, 2 |s|^d / (1 - |s|)."""
    _guard_rows(fp.p, depth, fp.xi_count)  # the budget, refused before any allocation
    budget, a_s, d = fp.xi_count * fp.p**depth, abs(fp.s), depth
    while d > 1 and budget // fp.p**d < math.pi * abs(fp.a) * (1.0 - a_s) / a_s**d:
        d -= 1
    return build_cloud(fp, depth=d, xi_count=budget // fp.p**d)


def _cmd_dimension(cfg: Config) -> Iterator[tuple]:
    fp = _figure(cfg, "plane", 12)
    cloud = (_matched_torus_cloud(fp, cfg.depth or fp.depth) if fp.kind == "torus"
             else build_cloud(fp, depth=cfg.depth))
    target = fp.map_params().scaling_dimension + (fp.kind == "torus")
    try:
        est = box_dimension(cloud)
    except ValueError as exc:  # too few points, or too few scales between them
        raise UsageError(f"field 'depth': {exc}, from {len(cloud)} points at depth "
                         f"{cfg.depth or fp.depth}") from None
    yield "dimension.slope", est.slope, target, abs(est.slope - target) <= 0.15
    yield "dimension.r2", est.r2, 0.98, est.r2 >= 0.98
    yield "dimension.points", est.point_count, 10_000, est.point_count >= 10_000


def _cmd_moments(cfg: Config) -> Iterator[tuple]:
    params = _map_params(cfg)
    depth = cfg.depth or 12
    vals = PlaneMap(params).values_on_residues(depth)
    for L, Lbar in ((0, 0), (1, 0), (1, 1), (2, 0)):
        mres = moment(params, L, Lbar, depth, vals=vals)
        series = moment_series(params, L, Lbar, cutoff=16)
        gap = abs(mres.value - series)
        tol = mres.error_bound + 10.0 * abs(params.s) ** 17
        yield f"moment.{L}.{Lbar}", mres.value, tol, gap <= tol


def _cmd_orbit(cfg: Config) -> Iterator[tuple]:
    # --depth counts the steps here
    tmap = TorusMap(SolenoidParams(map=_map_params(cfg), a=cfg.a))
    steps = cfg.depth or 400
    if steps >= MAX_ROWS:  # the steps + 1 samples, refused before the first is built
        raise UsageError(f"field 'depth': orbit samples depth + 1 times, at most {MAX_ROWS} "
                         f"in all, so depth at most {MAX_ROWS - 1}, got {steps}")
    f0 = SolenoidPoint(Fraction(0), 0)
    times = [Fraction(3 * k, steps) for k in range(steps + 1)]
    # orbit(f0, t) = (frac t, floor t): every x is an integer 0 .. 3, in the unit ball
    pts = tmap._embed_integral([orbit(f0, t) for t in times])
    _write(cfg.out, export_csv(pts, [f"t={float(t):.9g}" for t in times])
           if cfg.format == "csv" else export_ply(pts))
    yield "orbit", cfg.out, f"{len(pts)} samples", True


def _cmd_presets(cfg: Config) -> Iterator[tuple]:
    for name in preset_names():
        fp = preset(name)
        extra = f" a={_fmt(fp.a)} xi_count={fp.xi_count}" if fp.kind == "torus" else ""
        if fp.ball_scale:
            extra += f" ball_scale={fp.ball_scale}"
        yield name, (f"kind={fp.kind} p={fp.p} m={fp.m} s={_fmt(complex(fp.s))} "
                     f"depth={fp.depth}{extra}")


_COMMANDS = {
    "certify": _Command(_cmd_certify, "p m s a depth seed out"),
    "verify": _Command(_cmd_verify, "suite seed out"),
    "render2d": _Command(_cmd_render2d, "preset p m s depth format seed out", ("pgm", "svg"),
                         needs_out=True, kinds=("plane",)),
    "render3d": _Command(_cmd_render3d, "preset p m s a depth format seed out", ("ply", "csv"),
                         needs_out=True, kinds=("torus",)),
    "dimension": _Command(_cmd_dimension, "preset p m s depth seed out", kinds=("plane", "torus")),
    "moments": _Command(_cmd_moments, "p m s depth seed out"),
    "orbit": _Command(_cmd_orbit, "p m s a depth format seed out", ("csv", "ply"), needs_out=True),
    "presets": _Command(_cmd_presets, "seed out"),
}


@functools.cache  # parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-fractal",
        description="fractal images of base-p digit expansions: render, certify, verify",
    )
    parser.add_argument("command", choices=_COMMANDS)
    # values stay strings: the field table parses flags and config alike, and
    # each command's reads decide which fields it takes
    for name in (*_FIELDS, "config"):
        if name != "exhaustive":
            parser.add_argument(f"--{name}")
    parser.add_argument("--all", dest="suite", action="store_const", const="all")
    parser.add_argument("--exhaustive", action="store_true", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg, command = _build_config(args), _COMMANDS[args.command]
        rows = list(command.run(cfg))  # all of them before any is written
        report = "".join(f"{_line(row)}\n" for row in rows)
        if cfg.out and not command.needs_out:
            _write(cfg.out, report.encode("ascii"))
    except (UsageError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(report)
    return 1 if any(len(row) == 4 and not row[3] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
