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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complex_map import (
    MapParams,
    PlaneMap,
    _class_separation,
    _guard_pairs,
    _guard_rows,
    character_table,
    delta_lower,
    residue_bound,
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


def moment(params: MapParams, L: int, Lbar: int, depth: int) -> MomentResult:
    """Average of value^L conj(value)^Lbar over all depth-level residues.

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
    vals = PlaneMap(params).values_on_residues(depth)
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
    Lbar = 0 only nbar = 0); the totals without any are skipped.  At m = inf
    characters of distinct levels are orthogonal: with L = Lbar = 1 only nbar = n.
    """
    s, sb = params.s, params.s.conjugate()
    total = 0.0 + 0.0j
    diagonal = params.m == math.inf and L == Lbar == 1
    for n in range(cutoff + 1 if L else 1):
        for nbar in (n,) if diagonal else range(cutoff + 1 if Lbar else 1):
            c = tuple_coefficient(params.p, L, Lbar, n, nbar, params.m)
            if c:
                total += c * s**n * sb**nbar
    return total


# ---------------------------------------------------------------------------
# box counting


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
    """Each byte with d-1 zero bits after each of its bits: bit i moves to bit d*i."""
    return sum(((np.arange(256, dtype=np.int64) >> i) & 1) << (d * i) for i in range(8))


def _ladder_counts(cols: list[np.ndarray], eps0: float, n_scales: int, corner=None) -> np.ndarray:
    """Occupied cells at each pitch eps0 * 2^-k, k < n_scales, of the grid anchored at
    corner (default: the bounding corner).  Halving eps is exact for normal floats, so a
    scale-k cell is a finest cell >> j, j = n_scales-1-k: with the axis bits interleaved
    into one Morton key, key >> d*j names it, and one sort of the keys serves all scales.
    Each column enters the key on its own, a byte at a time through _spread(d)."""
    d, top = len(cols), n_scales - 1
    table, key = _spread(d), np.zeros(len(cols[0]), dtype=np.int64)
    lows = [c.min() for c in cols] if corner is None else np.broadcast_to(corner, d)
    for a, (col, low) in enumerate(zip(cols, lows)):
        cells = np.floor((col - low) / (eps0 * 2.0**-top))
        cells -= np.floor(cells.min() * 2.0**-top) * 2.0**top  # whole coarsest cells: edges kept
        if not (hi := float(cells.max())) < 2.0 ** (63 // d):
            raise ValueError(f"cell index {hi:.6g} at pitch {eps0 * 2.0**-top:.6g}: {d} axes of "
                             f"over {63 // d} bits each overflow the 63-bit cell key")
        cells = cells.astype(np.int64)
        for b in range(0, int(hi).bit_length(), 8):
            key |= table[(cells >> b) & 255] << (d * b + a)
    key.sort()
    change = key[1:] ^ key[:-1]
    return np.array([1 + np.count_nonzero(change >= 1 << (d * j)) for j in range(top, -1, -1)])


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
    diam = float(np.max([np.ptp(c) for c in cols]))
    if diam <= 0:
        raise ValueError("degenerate cloud: zero diameter")
    eps0 = diam / 4.0
    scales = eps0 * 2.0 ** (-np.arange(n_scales, dtype=np.float64))
    counts = _ladder_counts(cols, eps0, n_scales).astype(np.float64)
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


def divergence_bound(params_m: MapParams, params_inf: MapParams) -> float:
    """Analytic ceiling for the divergence of the two image pseudometrics,
    using the certified separation lower bounds in the denominator."""
    if params_m.p != params_inf.p or params_m.s != params_inf.s:
        raise ValueError("orders must share p and s")
    if params_inf.m != math.inf or params_m.m == math.inf:
        raise ValueError("expected one finite and one infinite order")
    lo_m = delta_lower(params_m.p, params_m.s)
    lo_inf = delta_lower(params_inf.p, params_inf.s)
    if lo_m + lo_inf <= 0:
        raise ValueError("bound needs certified separation (|s| below threshold)")
    a = abs(params_m.s)
    return 4.0 * math.pi * params_m.p ** (-int(params_m.m)) / ((1.0 - a) * (lo_m + lo_inf))


def metric_divergence(
    params_m: MapParams,
    params_inf: MapParams,
    n_samples: int = 256,
    sample_depth: int = 14,
    seed: int = 7,
) -> tuple[float, float]:
    """Empirical sup of |rho_m - rho_inf| / (rho_m + rho_inf) over seeded
    residue pairs, together with the analytic bound."""
    bound = divergence_bound(params_m, params_inf)
    return _divergence(params_m, params_inf, n_samples, sample_depth, seed), bound


def _divergence(params_m: MapParams, params_inf: MapParams, n_samples: int,
                sample_depth: int, seed: int) -> float:
    """The sup of metric_divergence, with or without a bound to meet."""
    hi = residue_bound(params_m.p, sample_depth)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, hi, size=n_samples, dtype=np.int64)
    codes = np.unique(codes)
    vm = PlaneMap(params_m).values_on_residues(sample_depth, codes=codes)
    vi = PlaneMap(params_inf).values_on_residues(sample_depth, codes=codes)
    dm = np.abs(vm[:, None] - vm[None, :])
    di = np.abs(vi[:, None] - vi[None, :])
    denom = dm + di
    num = np.abs(dm - di)
    mask = denom > 0
    return float((num[mask] / denom[mask]).max()) if mask.any() else 0.0


def character_order_gap(
    params_m: MapParams, params_inf: MapParams, depth: int = 14
) -> float:
    """Largest pointwise gap between finite- and infinite-order characters
    at every level over the residues below min(p^depth, 4096); below 2 pi p^-m."""
    p = params_m.p
    codes = np.arange(min(p**depth, 4096), dtype=np.int64)
    mat = residue_digit_matrix(p, depth, codes)
    cm = character_table(mat, 0, params_m)
    ci = character_table(mat, 0, params_inf)
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
