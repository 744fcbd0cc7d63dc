"""Deterministic emitters: PGM rasters, SVG, ascii PLY, CSV, and the
named figure presets with their exact parameters."""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .complex_map import MapParams, PlaneMap, PointCloud2D, s_zero
from .solenoid import PointCloud3D, SolenoidParams, TorusMap

__all__ = [
    "RasterConfig",
    "FigurePreset",
    "PRESETS",
    "preset",
    "preset_names",
    "build_cloud",
    "rasterize",
    "to_svg",
    "export_ply",
    "export_csv",
    "auto_viewport",
]


@dataclass(frozen=True)
class RasterConfig:
    width: int = 800
    height: int = 800
    viewport: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("raster dimensions must be positive")
        re0, re1, im0, im1 = self.viewport
        if not (re0 < re1 and im0 < im1):
            raise ValueError("viewport must be a nonempty rectangle")


def auto_viewport(values: np.ndarray, margin: float = 0.05) -> tuple[float, float, float, float]:
    """Viewport around a complex cloud with a small margin.

    A degenerate axis (a line or a single point, up to rounding noise)
    widens to a band proportional to the other axis instead of trapping
    the rendering in a microscopic strip.
    """
    re, im = values.real, values.imag
    re0, re1 = float(re.min()), float(re.max())
    im0, im1 = float(im.min()), float(im.max())
    ref = max(re1 - re0, im1 - im0)
    if ref < 1e-9:
        ref = 1.0

    def padded(lo: float, hi: float) -> tuple[float, float]:
        if hi - lo < 1e-9 * ref:
            mid = 0.5 * (lo + hi)
            return mid - margin * ref, mid + margin * ref
        pad = (hi - lo) * margin
        return lo - pad, hi + pad

    re0, re1 = padded(re0, re1)
    im0, im1 = padded(im0, im1)
    return (re0, re1, im0, im1)


def rasterize(cloud, cfg: RasterConfig) -> bytes:
    """Grayscale PGM (binary P5, maxval 255): a pixel is 255 iff at least
    one point falls in it, else 0.  Byte-identical for identical inputs."""
    values = cloud.values if isinstance(cloud, PointCloud2D) else np.asarray(cloud)
    re0, re1, im0, im1 = cfg.viewport
    u = (values.real - re0) / (re1 - re0)
    v = (values.imag - im0) / (im1 - im0)
    keep = (u >= 0) & (u <= 1) & (v >= 0) & (v <= 1)
    img = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
    if not keep.any():
        warnings.warn("no points intersect the viewport; emitting a blank image")
    cols = np.minimum((u[keep] * cfg.width).astype(np.int64), cfg.width - 1)
    rows = cfg.height - 1 - np.minimum((v[keep] * cfg.height).astype(np.int64), cfg.height - 1)
    img.ravel()[rows * cfg.width + cols] = 255
    header = f"P5\n{cfg.width} {cfg.height}\n255\n".encode("ascii")
    return header + img.tobytes()


# The text emitters format their whole output with one bytes % over a flat
# tuple of numpy scalars: Python floats from tolist() were ~10% faster but made
# the peak RSS of a process rendering the gallery again and again creep.


def to_svg(cloud, cfg: RasterConfig, radius: float | None = None) -> bytes:
    """SVG 1.1 document with one circle per point (viewport units)."""
    values = cloud.values if isinstance(cloud, PointCloud2D) else np.asarray(cloud)
    re0, re1, im0, im1 = cfg.viewport
    w, h = re1 - re0, im1 - im0
    r = radius if radius is not None else min(w, h) / 800.0
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
            f'version="1.1" viewBox="{re0:.9g} {-im1:.9g} {w:.9g} {h:.9g}">\n')
    re, im = values.real, values.imag
    keep = (re0 <= re) & (re <= re1) & (im0 <= im) & (im <= im1)
    xy = np.column_stack((re[keep], -im[keep]))
    row = b'<circle cx="%%.9g" cy="%%.9g" r="%.9g"/>\n' % r
    return (head.encode("ascii") + row * len(xy) + b"</svg>") % tuple(xy.ravel())


def export_ply(cloud) -> bytes:
    """ascii PLY 1.0 with float x/y/z vertices in cloud order."""
    pts = cloud.points if isinstance(cloud, PointCloud3D) else np.asarray(cloud)
    head = (f"ply\nformat ascii 1.0\nelement vertex {len(pts)}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n")
    return (head.encode("ascii") + b"%.9g %.9g %.9g\n" * len(pts)) % tuple(pts.ravel())


def export_csv(cloud, labels: Sequence[str] | None = None) -> bytes:
    """CSV with header x,y,z,label; each label is one token: the given
    labels, one per point, else i:r for a PointCloud3D and the row index
    for an array."""
    pts = cloud.points if isinstance(cloud, PointCloud3D) else np.asarray(cloud)
    if labels is not None:
        if len(labels) != len(pts):
            raise ValueError(f"{len(labels)} labels for {len(pts)} points")
        tag, tags = b"%s", [[t.encode("ascii") for t in labels]]
    elif isinstance(cloud, PointCloud3D):
        tag, tags = b"%d:%d", cloud.labels.T
    else:
        tag, tags = b"%d", [range(len(pts))]
    row = b"%.9g,%.9g,%.9g," + tag + b"\n"
    args = tuple(chain.from_iterable(zip(*pts.T, *tags)))
    return (b"x,y,z,label\n" + row * len(pts)) % args


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class FigurePreset:
    """Named parameter set reproducing one of the reference figures."""

    name: str
    kind: str  # "plane" or "torus"
    p: int
    m: int | float
    s: complex
    depth: int
    a: complex | None = None
    xi_count: int | None = None
    ball_scale: int = 0
    notes: str = ""

    def map_params(self, depth: int | None = None) -> MapParams:
        d = self.depth if depth is None else depth
        return MapParams(p=self.p, m=self.m, s=self.s, depth=max(40, d + 4))

    def solenoid_params(self, depth: int | None = None) -> SolenoidParams:
        if self.a is None:
            raise ValueError(f"preset {self.name} has no torus parameter")
        return SolenoidParams(map=self.map_params(depth), a=self.a)


_S_FIG2B = s_zero(3) - 0.02

PRESETS: dict[str, FigurePreset] = {
    "fig1-1-cantor": FigurePreset(
        name="fig1-1-cantor", kind="plane", p=2, m=0, s=1.0 / 3.0, depth=16,
        notes="unit-ball image is a Cantor set on the real axis",
    ),
    "fig1-4-z4": FigurePreset(
        name="fig1-4-z4", kind="plane", p=4, m=0, s=1.0 / 3.0, depth=8,
        notes="base-4 unit ball, homeomorphic image of the base-2 one",
    ),
    "fig1-9-koch": FigurePreset(
        name="fig1-9-koch", kind="plane", p=6, m=0, s=1.0 / 3.0, depth=6,
        notes="complement components bounded by Koch-type curves",
    ),
    "fig1-10-sierpinski": FigurePreset(
        name="fig1-10-sierpinski", kind="plane", p=3, m=0, s=0.5, depth=10,
        notes="unit-ball image is the Sierpinski triangle",
    ),
    "fig1-12": FigurePreset(
        name="fig1-12", kind="plane", p=3, m=math.inf, s=_S_FIG2B, depth=10,
        ball_scale=4,
        notes="image of the radius-81 ball at infinite smoothing order",
    ),
    "fig2a-t2": FigurePreset(
        name="fig2a-t2", kind="torus", p=2, m=0, s=1.0 / 2.2, depth=9, a=2j,
        xi_count=512, notes="base-2 solenoid in the solid torus",
    ),
    "fig2b-t3": FigurePreset(
        name="fig2b-t3", kind="torus", p=3, m=math.inf, s=_S_FIG2B, depth=7,
        a=2.5, xi_count=81,
        notes="base-3 solenoid, fibers at multiples of 1/81",
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset(name: str) -> FigurePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def build_cloud(fp: FigurePreset, depth: int | None = None, xi_count: int | None = None):
    """Materialize the preset's point cloud (2D for plane, 3D for torus).

    depth and xi_count default to the preset's own; depth must be >= 1.
    """
    d = fp.depth if depth is None else depth
    if d < 1:
        raise ValueError(f"depth must be >= 1, got {d}")
    if fp.kind == "plane":
        return PlaneMap(fp.map_params(d)).cluster(0, -fp.ball_scale, d - fp.ball_scale)
    tmap = TorusMap(fp.solenoid_params(d))
    return tmap.cloud(xi_count or fp.xi_count, d)
