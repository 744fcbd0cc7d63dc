"""Deterministic emitters: PGM rasters, SVG, ascii PLY, CSV, and the
named figure presets with their exact parameters."""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

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
    values = (cloud.values if isinstance(cloud, PointCloud2D) else np.asarray(cloud)).ravel()
    re0, re1, im0, im1 = cfg.viewport
    img = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
    # a block of points at a time: full-length temporaries would double the
    # memory a deep cloud already holds
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        u = (block.real - re0) / (re1 - re0)
        v = (block.imag - im0) / (im1 - im0)
        keep = (u >= 0) & (u <= 1) & (v >= 0) & (v <= 1)
        cols = np.minimum((u[keep] * cfg.width).astype(np.int64), cfg.width - 1)
        rows = cfg.height - 1 - np.minimum((v[keep] * cfg.height).astype(np.int64),
                                           cfg.height - 1)
        img.ravel()[rows * cfg.width + cols] = 255
    if not img.any():  # every point kept lights a pixel
        warnings.warn("no points intersect the viewport; emitting a blank image")
    header = f"P5\n{cfg.width} {cfg.height}\n255\n".encode("ascii")
    return header + img.tobytes()


# The text emitters write their rows through _rows, a block of _BLOCK rows at a
# time.  Each value fills a fixed slot of uint32 words looked up in small
# tables, NUL-padded where its text is shorter; a float or int word that is
# NUL in every row of the block is left out, and the block's bytes lose their
# NULs in one bytes.translate.  A %.9g float is up to seven words: the sign
# and 0.000 prefix (two), its 9 significant digits as three 3-digit chunks
# that already hold the decimal point and the stripped trailing zeros
# (three), and the e+XX suffix (two).  The digits are M = rint(|x| * 10**(8 - e))
# with e = floor(log10 |x|), the power exact for 0 <= 8 - e <= 22 and M off by
# less than 3e-7 elsewhere, so M is the correctly rounded one unless |x| lies
# within 1e-6 of a tie.  Those rows, non-finite values, subnormals and ints
# outside [0, 10**9) are formatted by % alone and spliced back in place.
# Blocks of 2**13 rows keep the temporaries and the word buffer in cache;
# at 2**16 the exporters ran a third slower.

_BLOCK = 2**13
_TINY, _HUGE = 2.2250738585072014e-308, 1.7976931348623157e308  # the normal doubles
_EXP = 330  # the tables cover decimal exponents -_EXP .. _EXP


def _words(strings) -> np.ndarray:
    """NUL-padded byte strings as rows of uint32 words."""
    width = max(1, -(-max(map(len, strings)) // 4))
    return np.array(strings, dtype=f"S{4 * width}").view(np.uint32).reshape(len(strings), width)


@functools.cache
def _float_tables():
    """%.9g text by decimal exponent x: 10**(8 - x), which scales |v| to 9
    digits, correctly rounded; the prefix words of each sign; the offsets of
    the three digit chunks in the chunk table; the chunk table; and the
    suffix words."""
    xs = range(-_EXP, _EXP + 1)
    scale = np.array([float(f"1e{min(8 - x, 308)}") for x in xs])
    prefix = _words([sign * b"-" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
                     for x in xs for sign in (0, 1)])
    # the digit after which the point goes (0: before the first, in the prefix)
    point = np.array([min(max(x + 1, 0), 9) if -4 <= x < 9 else 1 for x in xs])
    # chunk c of 3 digits at 1000 * (2 * pos + last): pos = clip(point - 3 c, 0, 4)
    # and last = no nonzero digit after the chunk, always so after the third
    offsets = [np.clip(point - 3 * c, 0, 4) * 2000 + 1000 * (c == 2) for c in range(3)]
    chunks = []
    for pos in range(5):
        for last in (False, True):
            for v in range(1000):
                head, tail = b"%03d" % v, b""
                if 0 < pos < 4:
                    head, tail = head[:pos], head[pos:]
                elif pos == 0:
                    head, tail = b"", head
                if last:
                    tail = tail.rstrip(b"0")
                chunks.append(head + (b"." if 0 < pos < 4 and (tail or not last) else b"")
                              + tail)
    suffix = _words([b"" if -4 <= x < 9 else b"e%+03d" % x for x in xs])
    return (scale, prefix[:, 0].copy(), prefix[:, 1].copy(), offsets, _words(chunks)[:, 0],
            suffix[:, 0].copy(), suffix[:, 1].copy())


@functools.cache
def _int_table():
    """%d text of 3-digit chunks: with zeros, without leading zeros, and
    without leading zeros but at least one digit."""
    return _words([b"%03d" % v for v in range(1000)]
                  + [b"%d" % v if v else b"" for v in range(1000)]
                  + [b"%d" % v for v in range(1000)])[:, 0]


def _float_words(x: np.ndarray):
    """%.9g of each float as word columns, and the rows the tables cannot prove."""
    scale, prefix0, prefix1, offsets, chunk, suffix0, suffix1 = _float_tables()
    a = np.abs(x)
    bad = ~((a >= _TINY) & (a <= _HUGE))  # zeros, subnormals, non-finite values
    zero = a == 0 if bad.any() else None
    if zero is not None:
        a[bad] = 1.0
        bad ^= zero
    # log10 misses by one only a few ulps from a power of ten, where M is
    # 10**8 or carries to 10**9 either way
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * scale[e + _EXP]
    deep = e < -300  # 10**(8 - e) overflows
    if deep.any():
        y[deep] = a[deep] * 1e22 * scale[e[deep] + _EXP + 22]
    m = np.rint(y)
    bad |= np.abs(y - m) > 0.5 - 1e-6
    m = m.astype(np.intp)
    carry = m == 10**9
    if carry.any():
        m[carry] = 10**8
        e += carry
    if zero is not None:
        m[zero] = 0
        e[zero] = 0
    hi = m // 10**6
    rest = m - hi * 10**6
    mid = rest // 1000
    lo = rest - mid * 1000
    low, high = e.min(), e.max()
    e += _EXP
    signed = 2 * e + np.signbit(x)
    words = [prefix0[signed], prefix1[signed] if low < -2 else None,
             chunk[offsets[0][e] + 1000 * (rest == 0) + hi],
             chunk[offsets[1][e] + 1000 * (lo == 0) + mid],
             chunk[offsets[2][e] + lo],
             suffix0[e] if low < -4 or high > 8 else None,
             suffix1[e] if low < -99 or high > 99 else None]
    return [w for w in words if w is not None], bad


def _int_words(v: np.ndarray):
    """%d of each int as word columns, and the rows outside [0, 10**9)."""
    table = _int_table()
    bad = (v < 0) | (v >= 10**9)
    v = np.where(bad, 0, v)
    hi = v // 10**6
    rest = v - hi * 10**6
    mid = rest // 1000
    lo = rest - mid * 1000
    return [table[1000 + hi], table[1000 * (hi == 0) + mid],
            table[2000 * (lo == v) + lo]], bad


def _rows(n: int, *columns) -> list[bytes]:
    """The text of n rows, one bytes object per block of _BLOCK rows.

    A column is a float array (%.9g), an int array (%d), an array of byte
    tokens, or a bytes constant; the arrays hold one value per row.
    """
    arrays = [c for c in columns if not isinstance(c, bytes)]
    fmt = b"".join(c.replace(b"%", b"%%") if isinstance(c, bytes)
                   else {"f": b"%.9g", "S": b"%s"}.get(c.dtype.kind, b"%d") for c in columns)
    out = []
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        words, bad = [], np.zeros(stop - start, dtype=bool)
        for c in columns:
            if isinstance(c, bytes):
                words.extend(_words([c])[0])
                continue
            block = c[start:stop]
            if block.dtype.kind == "S":
                width = -(-block.dtype.itemsize // 4)
                words.extend(block.astype(f"S{4 * width}").view(np.uint32)
                             .reshape(-1, width).T)
                continue
            cw, cbad = (_float_words if block.dtype.kind == "f" else _int_words)(block)
            words.extend(w for w in cw if w.any())
            bad |= cbad
        buf = np.empty((stop - start, len(words)), dtype=np.uint32)
        for j, w in enumerate(words):
            buf[:, j] = w
        fallback = np.flatnonzero(bad)
        buf[fallback] = 0
        text = buf.tobytes().translate(None, b"\0")
        if fallback.size:
            ends = np.cumsum(np.count_nonzero(buf.view(np.uint8), axis=1))
            pieces, at = [], 0
            for i in fallback:
                pieces += (text[at:ends[i]], fmt % tuple(c[start + i] for c in arrays))
                at = ends[i]
            text = b"".join(pieces) + text[at:]
        out.append(text)
    return out


def _points(cloud) -> np.ndarray:
    """The (n, 3) float coordinates of a cloud; any empty array has none."""
    pts = cloud.points if isinstance(cloud, PointCloud3D) else np.asarray(cloud)
    if pts.size == 0:
        return np.empty((0, 3))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (n, 3) array, got shape {pts.shape}")
    if pts.dtype.kind == "c":
        raise TypeError("points must be real")
    return pts.astype(np.float64, copy=False)


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
    x, y = re[keep].astype(np.float64), -im[keep].astype(np.float64)
    rows = _rows(len(x), b'<circle cx="', x, b'" cy="', y, b'" r="%.9g"/>\n' % r)
    return b"".join([head.encode("ascii"), *rows, b"</svg>"])


def export_ply(cloud) -> bytes:
    """ascii PLY 1.0 with float x/y/z vertices in cloud order."""
    pts = _points(cloud)
    head = (f"ply\nformat ascii 1.0\nelement vertex {len(pts)}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n")
    x, y, z = pts.T
    return b"".join([head.encode("ascii"), *_rows(len(pts), x, b" ", y, b" ", z, b"\n")])


def export_csv(cloud, labels: Sequence[str] | None = None) -> bytes:
    """CSV with header x,y,z,label; each label is one token: the given
    labels, one per point, else i:r for a PointCloud3D and the row index
    for an array."""
    pts = _points(cloud)
    if labels is not None:
        if len(labels) != len(pts):
            raise ValueError(f"{len(labels)} labels for {len(pts)} points")
        tokens = [t.encode("ascii") for t in labels]
        if any(b"\0" in t for t in tokens):
            raise ValueError("labels must not hold NUL characters")
        tags = (np.array(tokens, dtype=bytes),)
    elif isinstance(cloud, PointCloud3D):
        tags = (cloud.labels[:, 0], b":", cloud.labels[:, 1])
    else:
        tags = (np.arange(len(pts)),)
    x, y, z = pts.T
    rows = _rows(len(pts), x, b",", y, b",", z, b",", *tags, b"\n")
    return b"".join([b"x,y,z,label\n", *rows])


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
