"""Deterministic emitters: PGM rasters, SVG, ascii PLY, CSV, and the
named figure presets with their exact parameters."""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .complex_map import _BLOCK, MapParams, PlaneMap, s_zero
from .solenoid import SolenoidParams, TorusMap

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


def auto_viewport(values: np.ndarray) -> tuple[float, float, float, float]:
    """Viewport around a complex cloud with a 5% margin.

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
            return mid - 0.05 * ref, mid + 0.05 * ref
        pad = (hi - lo) * 0.05
        return lo - pad, hi + pad

    re0, re1 = padded(re0, re1)
    im0, im1 = padded(im0, im1)
    return (re0, re1, im0, im1)


def rasterize(values: np.ndarray, cfg: RasterConfig) -> bytes:
    """Grayscale PGM (binary P5, maxval 255) of complex values: a pixel is
    255 iff at least one point falls in it, else 0.  Byte-identical for
    identical inputs."""
    values = np.asarray(values).ravel()
    re0, re1, im0, im1 = cfg.viewport
    img = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
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
# time, into a buffer that holds each word of a row as one uint32 array, filled
# in place from small tables; a value's text fills a fixed run of words,
# NUL-padded where it is shorter, and the block's bytes lose their NULs in one
# bytes.translate, whose time goes with the buffer's length.  The block's value
# range alone settles which words a column gets, so a word that every row
# leaves NUL costs its bytes but no scan.  An int takes as many 3-digit chunks
# as the block's max() has: one under 1000, two under 10**6, else three.  A %.9g float
# is the sign and 0.000 prefix (one word if a value is negative or below 1,
# two if one is below 1e-2), its 9 significant digits as three 3-digit chunks
# that already hold the decimal point and the stripped trailing zeros, and the
# exponent (one word if one lies outside [-4, 9)).  In exponent form the last
# chunk holds at most three digits, so the e of e+XX rides in it.
# A one-byte separator after a number (" ", ",", ":", "\n") rides in the free
# fourth byte of the number's last word, in tables cached by separator: an
# int's last chunk always has one, a float's when the block's exponents all lie
# in [-4, 6), and a float's exponent word when one takes exponent form (a
# second word if one lies outside [-99, 99]); otherwise the separator takes a
# word of its own.
# The digits are M = rint(|x| * 10**(8 - e)) with e = floor(log10 |x|), the
# power exact for 0 <= 8 - e <= 22 and M off by less than 3e-7 elsewhere, so M
# is the correctly rounded one unless |x| lies within 1e-6 of a tie.  Those
# rows, non-finite values, subnormals and ints outside [0, 10**9) are
# formatted by % alone and spliced back in place.
# _BLOCK rows keep the word buffer in cache too; at 2**16 the exporters ran a third slower.

_TINY, _HUGE = 2.2250738585072014e-308, 1.7976931348623157e308  # the normal doubles
_EXP = 330  # the tables cover decimal exponents -_EXP .. _EXP
_THOUSAND, _MILLION = np.uint32(1000), np.uint32(10**6)


def _words(strings, width: int = 0) -> np.ndarray:
    """NUL-padded byte strings as rows of uint32 words, at least width of them."""
    width = max(1, width, -(-max(map(len, strings)) // 4))
    return np.array(strings, dtype=f"S{4 * width}").view(np.uint32).reshape(len(strings), width)


@functools.cache
def _float_tables(sep: bytes):
    """%.9g text by decimal exponent x, followed by sep: 10**(8 - x), which
    scales |v| to 9 digits, correctly rounded; the two prefix words by
    2 x + sign; the chunk table; the offsets in it of the first two digit
    chunks by 2 x + (no nonzero digit follows), and of the last by x; and the
    two words of the exponent's sign and digits, followed by sep."""
    xs = range(-_EXP, _EXP + 1)
    scale = np.array([float(f"1e{min(8 - x, 308)}") for x in xs])
    prefix = _words([sign * b"-" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
                     for x in xs for sign in (0, 1)])
    exp = np.array([not -4 <= x < 9 for x in xs])
    # the digit after which the point goes (0: before the first, in the prefix)
    point = np.array([min(max(x + 1, 0), 9) if -4 <= x < 9 else 1 for x in xs])
    # chunk c of 3 digits in section 2 * pos + last: pos = clip(point - 3 c, 0, 4)
    # and last = no nonzero digit after the chunk, always so after the third;
    # sections 10 and 11: the last chunk of pos 0 followed by e, and by sep
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
    chunks += [c + b"e" for c in chunks[1000:2000]] + [c + sep for c in chunks[1000:2000]]
    flag = np.arange(2)
    at = [(2 * np.clip(point - 3 * c, 0, 4)[:, None] + flag).ravel() * 1000 for c in range(2)]
    last = np.where(exp, 10, 2 * np.clip(point - 6, 0, 4) + 1) * 1000
    suffix = _words([(b"%+03d" % x if e else b"") + sep for x, e in zip(xs, exp)], 2)
    return (scale, prefix[:, 0].copy(), prefix[:, 1].copy(), _words(chunks)[:, 0], *at, last,
            suffix[:, 0].copy(), suffix[:, 1].copy())


@functools.cache
def _int_table(sep: bytes) -> np.ndarray:
    """%d text of 3-digit chunks: with zeros, without leading zeros, and as
    the last chunk followed by sep: with zeros, and without leading zeros
    but at least one digit."""
    return _words([b"%03d" % v for v in range(1000)]
                  + [b"%d" % v if v else b"" for v in range(1000)]
                  + [b"%03d" % v + sep for v in range(1000)]
                  + [b"%d" % v + sep for v in range(1000)])[:, 0]


def _float_words(x: np.ndarray, sep: bytes):
    """%.9g of each float followed by sep as word columns, each a (table, index)
    pair or one word for every row, and the rows the tables cannot prove
    (None if none)."""
    scale, prefix0, prefix1, chunk, hi_at, mid_at, last_at, suffix0, suffix1 = _float_tables(sep)
    a = np.abs(x)
    bad = zero = None
    if not (a.min() >= _TINY and a.max() <= _HUGE):  # zeros, subnormals, non-finite values
        bad = ~((a >= _TINY) & (a <= _HUGE))
        zero = a == 0
        a[bad] = 1.0
        bad ^= zero
    # log10 misses by one only a few ulps from a power of ten, where M is
    # 10**8 or carries to 10**9 either way
    e = np.floor(np.log10(a)).astype(np.intp)
    e += _EXP  # the exponent's row in the tables
    low, high = e.min() - _EXP, e.max() - _EXP
    y = a * scale[e]
    if low < -300:  # 10**(8 - e) overflows
        deep = e < _EXP - 300
        y[deep] = a[deep] * 1e22 * scale[e[deep] + 22]
    m = np.rint(y)
    y -= m
    np.abs(y, out=y)
    if y.max() > 0.5 - 1e-6:
        tie = y > 0.5 - 1e-6
        bad = tie if bad is None else bad | tie
    m = m.astype(np.uint32)
    if m.max() == 10**9:
        carry = m == 10**9
        m[carry] = 10**8
        e += carry
        high = e.max() - _EXP
    if zero is not None:
        m[zero] = 0  # read as 1, which has exponent 0
    hi = m // _MILLION
    rest = m - hi * _MILLION
    mid = rest // _THOUSAND
    lo = rest - mid * _THOUSAND
    words = []
    neg = np.signbit(x)
    twice = 2 * e
    if low < 0 or neg.any():
        signed = twice + neg
        words.append((prefix0, signed))
        if low < -2:
            words.append((prefix1, signed))
    words += [(chunk, hi_at[twice + (rest == 0)] + hi), (chunk, mid_at[twice + (lo == 0)] + mid)]
    if sep and -4 <= low and high < 6:
        words.append((chunk, np.add(lo, 11_000, dtype=np.intp)))  # section 11
    else:
        words.append((chunk, last_at[e] + lo))
        if low < -4 or high > 8:
            words.append((suffix0, e))
            if sep and (low < -99 or high > 99):
                words.append((suffix1, e))
        elif sep:
            words.append(_words([sep])[0, 0])
    return words, bad


def _int_words(v: np.ndarray, sep: bytes):
    """%d of each int followed by sep as (table, index) word columns, and the
    rows outside [0, 10**9) (None if none)."""
    table = _int_table(sep)
    bad, high = None, v.max()
    if v.min() < 0 or high >= 10**9:
        bad = (v < 0) | (v >= 10**9)
        v = np.where(bad, 0, v)  # uint64 rows too
        high = v.max()
    v = v.astype(np.uint32)
    # the 3-digit chunks that the block's largest value has
    chunks = [v]
    while high >= 1000 ** len(chunks):
        top = chunks[0] // _THOUSAND
        chunks[:1] = [top, chunks[0] - top * _THOUSAND]
    # a chunk has no leading zeros where the chunks before it are all zero,
    # and the last one is followed by sep
    words = []
    for k, c in enumerate(chunks):
        at = np.intp(2000 if k == len(chunks) - 1 else 0)
        lead = v < 1000 ** (len(chunks) - k) if k else True
        words.append((table, np.add(c, np.where(lead, at + 1000, at), dtype=np.intp)))
    return words, bad


def _rows(n: int, *columns) -> list[bytes]:
    """The text of n rows, one bytes object per block of _BLOCK rows.

    A column is a float array (%.9g), an int array (%d), an array of byte
    tokens, or a bytes constant; the arrays hold one value per row.
    """
    arrays = [c for c in columns if not isinstance(c, bytes)]
    fmt = b"".join(c.replace(b"%", b"%%") if isinstance(c, bytes)
                   else {"f": b"%.9g", "S": b"%s"}.get(c.dtype.kind, b"%d") for c in columns)
    # each column with the one-byte separator after a number that its words hold
    plan = []
    for prev, c in zip((b"", *columns), columns):
        if (isinstance(c, bytes) and len(c) == 1 and not isinstance(prev, bytes)
                and prev.dtype.kind != "S"):
            plan[-1] = (prev, c)
        else:
            plan.append((c, b""))
    out = []
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        words, bad = [], None
        for c, sep in plan:
            if isinstance(c, bytes):
                words.extend(_words([c])[0])
                continue
            block = c[start:stop]
            if block.dtype.kind == "S":
                width = -(-block.dtype.itemsize // 4)
                words.extend(block.astype(f"S{4 * width}").view(np.uint32)
                             .reshape(-1, width).T)
                continue
            cw, cbad = (_float_words if block.dtype.kind == "f" else _int_words)(block, sep)
            words += cw
            if cbad is not None:
                bad = cbad if bad is None else bad | cbad
        # word j of every row is row j of buf: a contiguous row, which take fills
        # in place (its default mode would fill a copy)
        buf = np.empty((len(words), stop - start), dtype=np.uint32)
        for row, w in zip(buf, words):
            if isinstance(w, tuple):
                np.take(*w, out=row, mode="wrap")
            else:
                row[...] = w
        fallback = np.flatnonzero(bad) if bad is not None else ()
        if len(fallback):
            buf[:, fallback] = 0
        text = buf.T.tobytes().translate(None, b"\0")
        if len(fallback):
            lengths = np.count_nonzero(buf.view(np.uint8).reshape(len(buf), -1, 4), axis=(0, 2))
            ends = np.cumsum(lengths)
            pieces, at = [], 0
            for i in fallback:
                pieces += (text[at:ends[i]], fmt % tuple(c[start + i] for c in arrays))
                at = ends[i]
            text = b"".join(pieces) + text[at:]
        out.append(text)
    return out


def _points(points) -> np.ndarray:
    """The (n, 3) float coordinates of an array; any empty array has none."""
    pts = np.asarray(points)
    if pts.size == 0:
        return np.empty((0, 3))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (n, 3) array, got shape {pts.shape}")
    if pts.dtype.kind == "c":
        raise TypeError("points must be real")
    return pts.astype(np.float64, copy=False)


def to_svg(values: np.ndarray, cfg: RasterConfig) -> bytes:
    """SVG 1.1 document with one circle per complex value (viewport units),
    of radius 1/800 of the viewport's shorter side."""
    values = np.asarray(values)
    re0, re1, im0, im1 = cfg.viewport
    w, h = re1 - re0, im1 - im0
    r = min(w, h) / 800.0
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
            f'version="1.1" viewBox="{re0:.9g} {-im1:.9g} {w:.9g} {h:.9g}">\n')
    re, im = values.real, values.imag
    keep = (re0 <= re) & (re <= re1) & (im0 <= im) & (im <= im1)
    x, y = re[keep].astype(np.float64), -im[keep].astype(np.float64)
    rows = _rows(len(x), b'<circle cx="', x, b'" cy="', y, b'" r="%.9g"/>\n' % r)
    return b"".join([head.encode("ascii"), *rows, b"</svg>"])


def export_ply(points: np.ndarray) -> bytes:
    """ascii PLY 1.0 with float x/y/z vertices in row order."""
    pts = _points(points)
    head = (f"ply\nformat ascii 1.0\nelement vertex {len(pts)}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n")
    x, y, z = pts.T
    return b"".join([head.encode("ascii"), *_rows(len(pts), x, b" ", y, b" ", z, b"\n")])


def export_csv(points: np.ndarray, labels: Sequence[str] | np.ndarray) -> bytes:
    """CSV with header x,y,z,label; each label is one field, one per point:
    the given strings, or the rows (i, r) of an (n, 2) integer array
    written i:r."""
    pts = _points(points)
    if len(labels) != len(pts):
        raise ValueError(f"{len(labels)} labels for {len(pts)} points")
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iu":
        if labels.shape[1:] != (2,):
            raise ValueError(f"integer labels must be an (n, 2) array, got shape {labels.shape}")
        tags = (labels[:, 0], b":", labels[:, 1])
    else:
        tokens = [t.encode("ascii") for t in labels]
        bad = [t for t in tokens if len(t.translate(None, b"\0,\r\n")) < len(t)]
        if bad:
            raise ValueError(f"label {bad[0].decode()!r} holds a NUL, comma or line break")
        tags = (np.array(tokens, dtype=bytes),)
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

    def map_params(self) -> MapParams:
        return MapParams(p=self.p, m=self.m, s=self.s)

    def solenoid_params(self) -> SolenoidParams:
        if self.a is None:
            raise ValueError(f"preset {self.name} has no torus parameter")
        return SolenoidParams(map=self.map_params(), a=self.a)


_S_FIG2B = s_zero(3) - 0.02

PRESETS: dict[str, FigurePreset] = {fp.name: fp for fp in (
    FigurePreset("fig1-1-cantor", "plane", p=2, m=0, s=1.0 / 3.0, depth=16),
    FigurePreset("fig1-4-z4", "plane", p=4, m=0, s=1.0 / 3.0, depth=8),
    FigurePreset("fig1-9-koch", "plane", p=6, m=0, s=1.0 / 3.0, depth=6),
    FigurePreset("fig1-10-sierpinski", "plane", p=3, m=0, s=0.5, depth=10),
    FigurePreset("fig1-12", "plane", p=3, m=math.inf, s=_S_FIG2B, depth=10, ball_scale=4),
    FigurePreset("fig2a-t2", "torus", p=2, m=0, s=1.0 / 2.2, depth=9, a=2j, xi_count=512),
    FigurePreset("fig2b-t3", "torus", p=3, m=math.inf, s=_S_FIG2B, depth=7, a=2.5, xi_count=81),
)}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset(name: str) -> FigurePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def build_cloud(fp: FigurePreset, depth: int | None = None,
                xi_count: int | None = None) -> np.ndarray:
    """The preset's points: complex values of its ball for a plane preset,
    the (n, 3) xi-major TorusMap.cloud for a torus preset.

    depth and xi_count default to the preset's own; depth must be >= 1.
    """
    d = fp.depth if depth is None else depth
    if d < 1:
        raise ValueError(f"depth must be >= 1, got {d}")
    if fp.kind == "plane":
        return PlaneMap(fp.map_params()).cluster(0, -fp.ball_scale, d - fp.ball_scale)
    return TorusMap(fp.solenoid_params()).cloud(xi_count or fp.xi_count, d)
