"""Moments of the image measure, series-coefficient combinatorics,
box-counting dimension, and divergence between smoothing orders.

Integration against the image measure reduces to exhaustive averaging
over residue classes (exact uniform weights), which is reproducible and
carries a rigorous error bound from the map's Lipschitz modulus.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .complex_map import (
    _BLOCK,
    MapParams,
    PlaneMap,
    _class_separation,
    _guard_pairs,
    _guard_rows,
    _widest_cap,
    character_table,
    delta_lower,
    residue_digit_matrix,
)

__all__ = [
    "MomentResult",
    "DimensionEstimate",
    "MeasureReport",
    "moment",
    "tuple_coefficient",
    "moment_series",
    "box_dimension",
    "box_counts",
    "metric_divergence",
    "divergence_bound",
    "character_order_gap",
    "measure_consistency",
]


@dataclass(frozen=True)
class MomentResult:
    L: int
    Lbar: int
    value: complex
    depth: int
    error_bound: float

    def __post_init__(self) -> None:
        if self.L < 0 or self.Lbar < 0 or self.error_bound < 0:
            raise ValueError("degrees and error bound must be nonnegative")


def moment(params: MapParams, L: int, Lbar: int, depth: int, *, vals=None) -> MomentResult:
    """Average of value^L conj(value)^Lbar over all depth-level residues,
    reading vals (the values at every depth-level residue) when given.

    The average is the exact uniform-measure integral of the sampled
    step function.  The error bound propagates the ball-diameter Lipschitz
    modulus, the series tail and each value's rounding through the monomial
    of degree k = L + Lbar on the disk of radius r = contraction_radius; its
    k products (each within 3 2^-53) and numpy's pairwise mean of N = p^depth
    terms (at most log2 N + 20 roundings on a path) add (3k + log2 N + 20)
    2^-53 r^k.
    """
    if L == 0 and Lbar == 0:
        return MomentResult(0, 0, 1.0 + 0.0j, depth, 0.0)
    vals = PlaneMap(params).values_on_residues(depth) if vals is None else vals
    z = np.ones_like(vals)
    if L:
        z = vals**L
    if Lbar:
        z = z * np.conj(vals) ** Lbar
    value = complex(z.mean())
    a = abs(params.s)
    point_err = 2.0 * a**depth / (1.0 - a) + params.tail_bound + params.rounding_bound
    r, k = params.contraction_radius, L + Lbar
    rounding = (3 * k + depth * math.log2(params.p) + 20) * 2.0**-53 * r**k
    bound = k * r ** (k - 1) * point_err + rounding
    return MomentResult(L, Lbar, value, depth, bound)


def tuple_coefficient(
    p: int, L: int, Lbar: int, n: int, nbar: int, m: float = math.inf
) -> int | complex:
    """Weight of the ordered index tuples behind the (n, nbar) series term.

    Enumerates tuples (n_1..n_L) summing to n and (m_1..m_Lbar) summing
    to nbar and adds the integral of their character product.  chi_k
    reads digit x_l, max(0, k-m) <= l <= k, at frequency p^(l-k-1); the
    digits are independent and uniform, so the integral is the product
    over l of (1/p) sum_{x<p} e(x c_l), c_l the net frequency on digit l:
    1 where c_l is an integer, 0 where p c_l is one but c_l is not.  At
    m = inf every product is 0 or 1 and the weight is a count.
    """
    top = max(n, nbar)
    den = p ** (top + 1)  # every frequency is an integer over den

    def compositions(total: int, parts: int):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    def integral(tup: tuple[int, ...], tdn: tuple[int, ...]) -> int | complex:
        freq = [0] * (top + 1)
        for sign, levels in ((1, tup), (-1, tdn)):
            for k in levels:
                for ell in range(0 if m == math.inf else max(0, k - int(m)), k + 1):
                    freq[ell] += sign * p ** (top + ell - k)
        w: int | complex = 1
        for c in freq:
            c %= den
            if c and c * p % den == 0:
                return 0
            if c:
                w *= sum(cmath.exp(2j * math.pi * (x * c % den) / den) for x in range(p)) / p
        return w

    total: int | complex = 0
    for tup in compositions(n, L):
        for tdn in compositions(nbar, Lbar):
            total += integral(tup, tdn)
    return total


def moment_series(params: MapParams, L: int, Lbar: int, cutoff: int) -> complex:
    """Partial sum of the coefficient expansion, for cross-validation.

    Zero parts sum only to 0, so with L = 0 only n = 0 has tuples (and with
    Lbar = 0 only nbar = 0); the totals without any are skipped.  With
    L = Lbar = 1 only nbar = n has weight, at every order m: say n > nbar.
    chi_n reads digit n at frequency 1/p and chi_nbar reads no digit above
    nbar, so the net frequency on digit n is 1/p, whose factor
    (1/p) sum_{x<p} e(x/p) is 0 (nbar > n likewise, at -1/p).
    """
    s, sb = params.s, params.s.conjugate()
    total = 0.0 + 0.0j
    diagonal = L == Lbar == 1
    for n in range(cutoff + 1 if L else 1):
        for nbar in (n,) if diagonal else range(cutoff + 1 if Lbar else 1):
            c = tuple_coefficient(params.p, L, Lbar, n, nbar, params.m)
            if c:
                total += c * s**n * sb**nbar
    return total


# ---------------------------------------------------------------------------
# box counting
_SPREAD_BITS = 14  # the default 12-scale ladder's cells stay below 2^14: one gather an axis


@dataclass(frozen=True)
class DimensionEstimate:
    slope: float
    scale_window: tuple[float, float]
    r2: float
    point_count: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")
        if self.scale_window[0] >= self.scale_window[1]:
            raise ValueError("scale window must be increasing")


def _columns(points) -> list[np.ndarray]:
    """Coordinate columns of n complex values or an (n, d) array: float64 views."""
    pts = np.asarray(points)
    plane = np.iscomplexobj(pts)
    if pts.ndim != 2 - plane:
        raise ValueError("expected an (n, d) coordinate array or n complex values")
    return [c.astype(np.float64, copy=False) for c in ((pts.real, pts.imag) if plane else pts.T)]


@functools.cache
def _spread(d: int) -> np.ndarray:
    """Each 14-bit index with d-1 zero bits after each of its bits: bit i moves to bit d*i."""
    chunk = np.arange(1 << _SPREAD_BITS, dtype=np.int64)
    return sum(((chunk >> i) & 1) << (d * i) for i in range(_SPREAD_BITS))


def _extremes(cols: list[np.ndarray]) -> list[np.ndarray]:
    """The [min, max] of each column."""
    return [np.array([col.min(), col.max()]) for col in cols]


def _ladder_counts(cols: list[np.ndarray], eps0: float, n_scales: int, corner=None,
                   extremes=None) -> np.ndarray:
    """Occupied cells at each pitch eps0 * 2^-k, k < n_scales, of the grid anchored at
    corner (default: the bounding corner).  Halving eps is exact for normal floats, so a
    scale-k cell is a finest cell >> j, j = n_scales-1-k: with the axis bits interleaved
    into one Morton key, key >> d*j names it, and one sort of the keys serves all scales.
    Each column enters the key on its own, _BLOCK rows at a time through _spread(d).
    extremes are the columns' _extremes, read here when not given."""
    d, top, mask = len(cols), n_scales - 1, (1 << _SPREAD_BITS) - 1
    pitch, key = eps0 * 2.0**-top, np.zeros(len(cols[0]), dtype=np.int64)
    for a, (col, ends) in enumerate(zip(cols, extremes or _extremes(cols))):
        low = ends[0] if corner is None else np.broadcast_to(corner, d)[a]
        first, last = np.floor((ends - low) / pitch)  # the extreme cells: floor is monotone
        shift = np.floor(first * 2.0**-top) * 2.0**top  # whole coarsest cells: edges kept
        if not (hi := float(last - shift)) < 2.0 ** (63 // d):
            raise ValueError(f"cell index {hi:.6g} at pitch {pitch:.6g}: {d} axes of "
                             f"over {63 // d} bits each overflow the 63-bit cell key")
        chunks = [(b, _spread(d) << (d * b + a))
                  for b in range(0, int(hi).bit_length(), _SPREAD_BITS)]
        for start in range(0, len(key), _BLOCK):
            cells = np.floor((col[start:start + _BLOCK] - low) / pitch)
            cells = (cells - shift).astype(np.int64)
            for b, spread in chunks:
                key[start:start + _BLOCK] |= spread[cells >> b & mask]
    key.sort()
    change = key[1:] ^ key[:-1]
    if key[-1] >> 53:  # an L-bit XOR, L > 53, loses bit L-54: its float cannot round up to 2^L
        change &= ~(change >> 53)
    # XORs from 2^(d*j) up part scale-k cells; an L-bit XOR's biased float exponent is 1022 + L
    exponents = np.bincount(change.astype(np.float64).view(np.int64) >> 52, minlength=1087)
    return 1 + np.cumsum(exponents[::-1])[::-1][1023 + d * np.arange(top, -1, -1)]


def box_counts(points, eps: float, corner: np.ndarray | None = None) -> int:
    """Occupied cells of the grid of pitch eps anchored at corner (default: the bounding
    corner) of n complex values or an (n, d) array, read column by column."""
    return int(_ladder_counts(_columns(points), eps, 1, corner)[0])


def box_dimension(cloud, n_scales: int = 12) -> DimensionEstimate:
    """Least-squares slope of log N(eps) against log(1/eps).

    The ladder starts at a quarter of the widest column extent and descends
    geometrically; the extreme octaves are dropped, as are scales where the
    count passes a quarter of the point count (grid resolving individual
    samples rather than structure).  Complex values and their (n, 2) real
    coordinates give one estimate: each is read as views of its columns.
    """
    cols = _columns(cloud)
    if len(cols[0]) < 16:
        raise ValueError("too few points for a dimension estimate")
    extremes = _extremes(cols)
    diam = float(np.max([hi - lo for lo, hi in extremes]))
    if diam <= 0:
        raise ValueError("degenerate cloud: zero diameter")
    eps0 = diam / 4.0
    scales = eps0 * 2.0 ** (-np.arange(n_scales, dtype=np.float64))
    counts = _ladder_counts(cols, eps0, n_scales, extremes=extremes).astype(np.float64)
    keep = counts <= 0.25 * len(cols[0])
    keep[0] = False
    last = np.nonzero(keep)[0]
    if len(last):
        keep[last[-1]] = False
    if keep.sum() < 3:
        raise ValueError("degenerate scale window after trimming")
    xs = np.log(1.0 / scales[keep])
    ys = np.log(counts[keep])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    kept_scales = scales[keep]
    return DimensionEstimate(
        slope=float(slope),
        scale_window=(float(kept_scales.min()), float(kept_scales.max())),
        r2=r2,
        point_count=len(cols[0]),
    )


# ---------------------------------------------------------------------------
# divergence between smoothing orders


def _same_map(params_m: MapParams, params_inf: MapParams) -> None:
    if params_m.p != params_inf.p or params_m.s != params_inf.s:
        raise ValueError("orders must share p and s")


def divergence_bound(params_m: MapParams, params_inf: MapParams) -> float:
    """Analytic ceiling for the divergence of the two image pseudometrics,
    using the certified separation lower bounds in the denominator."""
    _same_map(params_m, params_inf)
    if params_inf.m != math.inf or params_m.m == math.inf:
        raise ValueError("expected one finite and one infinite order")
    lo_m = delta_lower(params_m.p, params_m.s)
    lo_inf = delta_lower(params_inf.p, params_inf.s)
    if lo_m + lo_inf <= 0:
        raise ValueError("bound needs certified separation (|s| below threshold)")
    a = abs(params_m.s)
    return 4.0 * math.pi * params_m.p ** (-int(params_m.m)) / ((1.0 - a) * (lo_m + lo_inf))


def metric_divergence(
    params_m: MapParams, params_inf: MapParams, codes: np.ndarray, depth: int
) -> float:
    """Sup of |rho_m - rho_inf| / (rho_m + rho_inf) over the pairs of
    depth-level residue codes.  A pair whose |rho_m - rho_inf| the rounding
    of its four values explains is left out: each distance carries 2
    rounding_bound and 2 _widest_cap of its order, as in sandwich_check.
    |a - b| is |b - a| bit for bit and a pair of equal codes reads 0, so the
    pairs i < j give the sup over all pairs."""
    _same_map(params_m, params_inf)
    vm = PlaneMap(params_m).values_on_residues(depth, codes=codes)
    vi = PlaneMap(params_inf).values_on_residues(depth, codes=codes)
    i, j = np.triu_indices(len(codes), k=1)
    dm = np.abs(vm[i] - vm[j])
    di = np.abs(vi[i] - vi[j])
    num = np.abs(dm - di)
    mask = num > sum(2.0 * (q.rounding_bound + _widest_cap(q)) for q in (params_m, params_inf))
    return float((num[mask] / (dm + di)[mask]).max()) if mask.any() else 0.0


def character_order_gap(
    params_m: MapParams, params_inf: MapParams, depth: int = 14
) -> float:
    """Largest pointwise gap between finite- and infinite-order characters
    at every level over the residues below min(p^depth, 4096); below 2 pi p^-m.

    The residues have D digits, D the least with p^D at least their count.
    From level D + m on the finite order's window holds only zeros, so its
    chi is 1 exactly, and the infinite order's angle 2 pi x / p^(n+1) <
    2 pi / p^(n+1-D) <= pi falls by a factor p a level (by about p where
    the window is capped), so |1 - chi| is largest at level D + m.  Only
    levels 0 .. min(series depth, D + m) are tabled.
    """
    p = params_m.p
    count = min(p**depth, 4096)
    digits = next(d for d in range(1, depth + 1) if p**d >= count)
    top = min(params_m.depth, digits + int(params_m.m))
    mat = residue_digit_matrix(p, digits, np.arange(count, dtype=np.int64))
    cm = character_table(mat, 0, replace(params_m, depth=top))
    ci = character_table(mat, 0, replace(params_inf, depth=top))
    return float(np.max(np.abs(cm - ci)))


# ---------------------------------------------------------------------------
# measure consistency


@dataclass(frozen=True)
class MeasureReport:
    level: int
    depth: int
    fraction: Fraction
    expected_fraction: Fraction
    separation_min: float
    separation_floor: float
    box_ratios: tuple[tuple[float, float], ...]
    ratio_median: float
    expected_ratio: float
    passes: tuple[tuple[str, bool], ...]

    def ok(self) -> bool:
        return all(flag for _, flag in self.passes)


def measure_consistency(
    params: MapParams,
    level: int,
    depth: int,
    separation_depth: int | None = None,
) -> MeasureReport:
    """Three checks tying counting measure to image geometry.

    (i)  the exact fraction of depth-level residues landing in one
         level-k cluster is p^-k;
    (ii) distinct level-k clusters stay at least
         delta_lower * |s|^max(k-1,0) - 2 tail apart (sampled pairs);
    (iii) box counts of a level-k cluster against the full unit-ball
         image sit near p^-k across the mid scale window.
    """
    if delta_lower(params.p, params.s) <= 0.0:
        raise ValueError("refusing: separation not certified, clusters may overlap")
    p = params.p
    pmap = PlaneMap(params)
    # (i) exact residue counting: residues congruent to 0 mod p^level
    total = p**depth
    in_cluster = len(range(0, total, p**level))
    fraction = Fraction(in_cluster, total)
    expected_fraction = Fraction(1, p**level)
    # (ii) cross-cluster separation on a sampled sub-depth
    sep_depth = min(depth, 12) if separation_depth is None else separation_depth
    _guard_rows(p, sep_depth)  # both limits before any value is built
    _guard_pairs(1, p**sep_depth, p**level)
    sep = _class_separation(pmap.values_on_residues(sep_depth), p, level)
    floor = (
        delta_lower(p, params.s) * abs(params.s) ** max(level - 1, 0)
        - 2.0 * params.tail_bound
    )
    # (iii) box-count ratio child/parent on the parent's grid anchor
    parent = _columns(pmap.cluster(0, 0, depth))
    child = _columns(pmap.cluster(0, level, depth)) if level else parent
    corner = [c.min() for c in parent]
    eps0 = float(np.max([c.max() - low for c, low in zip(parent, corner)])) / 4.0
    counts = zip(_ladder_counts(parent, eps0, 10, corner), _ladder_counts(child, eps0, 10, corner))
    ratios = [(eps0 / 2.0**k, int(nc) / int(npar)) for k, (npar, nc) in enumerate(counts)
              if 16 <= npar <= 0.25 * len(parent[0])]
    expected_ratio = float(p) ** (-level)
    median = float(np.median([r for _, r in ratios])) if ratios else math.nan
    passes = (
        ("fraction", fraction == expected_fraction),
        ("separation", sep >= floor),
        ("box_ratio", bool(ratios) and abs(median - expected_ratio) <= 0.2 * expected_ratio),
    )
    return MeasureReport(
        level=level,
        depth=depth,
        fraction=fraction,
        expected_fraction=expected_fraction,
        separation_min=sep,
        separation_floor=floor,
        box_ratios=tuple(ratios),
        ratio_median=median,
        expected_ratio=expected_ratio,
        passes=passes,
    )
