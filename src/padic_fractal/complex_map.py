"""Character series mapping base-p digit expansions into the complex plane.

The map sends x to sum_n s^n chi_n(x), where chi_n reads a window of m+1
digits below index n (all of them for infinite order) as a phase.  For
|s| below the base-dependent threshold the map is a bi-Lipschitz
embedding and its image is a self-similar fractal of dimension
-log p / log|s|.  Both embedding certificates and the measure
consistency check share one separation search over residue classes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .padic import PAdic, _from_rational

__all__ = [
    "MapParams",
    "EmbeddingCertificate",
    "PointCloud2D",
    "PlaneMap",
    "s_zero",
    "delta_lower",
    "delta_certificate",
    "rotate_digits",
    "residue_digit_matrix",
    "series_values",
    "character_table",
    "sandwich_check",
    "scaling_residuals",
    "code_valuations",
    "residue_bound",
]

VERDICTS = ("certified-embedding", "empirically-injective", "unknown")


def s_zero(p: int) -> float:
    """Contraction threshold: below it the separation bound is positive."""
    sp = math.sin(math.pi / p)
    return sp / (1.0 + sp)


def delta_lower(p: int, s: complex) -> float:
    """Certified lower bound on the separation of images of unit-distance pairs."""
    a = abs(s)
    return max(0.0, 2.0 * (math.sin(math.pi / p) - a / (1.0 - a)))


@dataclass(frozen=True)
class MapParams:
    """Parameters of the series map.

    m is the smoothing order (math.inf uses every digit below the level,
    which makes each term a continuous additive character).  depth is
    the series truncation index; the geometric tail beyond it is bounded
    by tail_bound, and tol records the accuracy target the depth must
    support.
    """

    p: int
    m: int | float = 0
    s: complex = 0.3
    depth: int = 40
    tol: float | None = None

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.m != math.inf and (not isinstance(self.m, int) or self.m < 0):
            raise ValueError("m must be a nonnegative integer or math.inf")
        s = complex(self.s)
        object.__setattr__(self, "s", s)
        if s == 0 or abs(s) >= 1.0:
            raise ValueError(f"s must satisfy 0 < |s| < 1, got {s}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.tol is None:
            object.__setattr__(self, "tol", self.tail_bound)
        elif self.tail_bound > self.tol:
            raise ValueError(
                f"depth {self.depth} leaves tail {self.tail_bound:.3g} "
                f"above tol {self.tol:.3g}"
            )

    @property
    def tail_bound(self) -> float:
        """Rigorous bound on the dropped series tail, 2|s|^(depth+1)/(1-|s|)."""
        a = abs(self.s)
        return 2.0 * a ** (self.depth + 1) / (1.0 - a)

    @property
    def scaling_dimension(self) -> float:
        """Image dimension for embedding parameters: -log p / log|s|."""
        return -math.log(self.p) / math.log(abs(self.s))

    @property
    def contraction_radius(self) -> float:
        """Disk radius 1/(1-|s|) containing every unit-ball image point."""
        return 1.0 / (1.0 - abs(self.s))

    def infinite_order(self) -> bool:
        return self.m == math.inf

    def scaled_s(self, factor: complex) -> "MapParams":
        return replace(self, s=self.s * factor, tol=None)

    @classmethod
    def for_tolerance(cls, p: int, m: int | float, s: complex, tol: float) -> "MapParams":
        a = abs(complex(s))
        depth = 1
        while 2.0 * a ** (depth + 1) / (1.0 - a) > tol:
            depth += 1
        return cls(p=p, m=m, s=s, depth=depth, tol=tol)


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Outcome of a separation search plus the analytic bound.

    delta_lower is certified; delta_empirical is the search minimum over
    the enumerated pairs; allowance covers series truncation and the
    unexplored ball tails.  The verdict relies only on the bound.
    """

    delta_lower: float
    delta_empirical: float
    verdict: str
    allowance: float = 0.0
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.delta_lower > self.delta_empirical + self.allowance + 1e-12:
            raise ValueError("certified bound exceeds the observed minimum")


@dataclass(frozen=True)
class PointCloud2D:
    """Image points tagged with their integer preimages."""

    values: np.ndarray
    labels: np.ndarray
    level: int
    params: MapParams

    def __post_init__(self) -> None:
        if len(self.values) != len(self.labels):
            raise ValueError("values and labels must align")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite image point")
        labels = self.labels
        ascending = np.all(labels[1:] > labels[:-1])
        if not ascending and len(np.unique(labels)) != len(labels):
            raise ValueError("duplicate preimage labels")

    def __len__(self) -> int:
        return len(self.values)

    def points(self) -> np.ndarray:
        """(n, 2) array of real coordinates."""
        return np.column_stack([self.values.real, self.values.imag])


# ---------------------------------------------------------------------------
# scalar evaluation


class PlaneMap:
    """Evaluates the series map, its parts, and its self-similar structure."""

    def __init__(self, params: MapParams):
        self.params = params

    def _characters(self, x: PAdic, first: int, last: int) -> list[complex]:
        """chi_n(x) for n = first .. last, reading each digit of x once.

        A holds the integer A_n = sum_{v<=j<=n} x_j p^(j-v), and
        chi_n = e((A_n - A_{n-m-1}) / p^(n-v+1)): the phase is an exact
        fraction of a turn, rounded once.  A_{n-m-1} is 0 at infinite
        order and for n-m-1 < v; chi_n = 1 below the valuation.
        """
        p, m = self.params.p, self.params.m
        if x.p != p:
            raise ValueError(f"operand base {x.p} does not match params p={p}")
        v = x.valuation()  # +inf for zero: chi = 1 at every level
        digits = x.digit_run(v, last + 1) if v <= last else []
        chis = []
        sums, scale = [0], 1  # sums[k] = A_{v+k-1}; scale = p^(n-v+1)
        for n in range(min(first, v), last + 1):
            chi = 1.0 + 0.0j
            if n >= v:
                sums.append(sums[-1] + digits[n - v] * scale)
                scale *= p
                low = sums[n - v - m] if n - m >= v else 0
                chi = cmath.exp(2j * math.pi * ((sums[-1] - low) / scale))
            if n >= first:
                chis.append(chi)
        return chis

    def character(self, x: PAdic, n: int) -> complex:
        """Phase factor at level n: reads digits x_{n-k} weighted p^-k."""
        return self._characters(x, n, n)[0]

    def _weighted(self, x: PAdic, weight) -> tuple[complex, complex]:
        """Sums of weight(n) (chi_n - [n < 0]) over the negative levels
        and over the levels 0 .. depth."""
        levels = range(min(x.valuation(), 0), self.params.depth + 1)
        chis = self._characters(x, levels.start, levels.stop - 1)
        terms = list(zip(levels, chis))
        negative = sum((weight(n) * (chi - 1.0) for n, chi in terms if n < 0), 0j)
        return negative, sum((weight(n) * chi for n, chi in terms if n >= 0), 0j)

    def value(self, x: PAdic) -> complex:
        """Series value; negative levels contribute s^n (chi_n - 1).

        This unified form equals the prefix formulation
        (1 - s^v)/(1 - s) + sum_{n>=v} s^n chi_n and handles the zero
        element (empty negative part) without a valuation convention.
        """
        s = self.params.s
        return sum(self._weighted(x, lambda n: s**n))

    __call__ = value

    def parts(self, x: PAdic) -> tuple[complex, complex]:
        """(fractional, integral) split of the series value."""
        s = self.params.s
        return self._weighted(x, lambda n: s**n)

    def derivative_in_s(self, x: PAdic) -> complex:
        """Term-wise derivative of the series with respect to s."""
        s = self.params.s
        return sum(self._weighted(x, lambda n: n * s ** (n - 1)))

    def scaling_residual(self, x: PAdic) -> float:
        """|value(p x) - s value(x) - 1|; bounded by twice the tail."""
        s = self.params.s
        return abs(self.value(x.shift(1)) - s * self.value(x) - 1.0)

    # -- vectorized cloud generation --------------------------------------

    def values_on_residues(self, depth: int, *, codes: np.ndarray | None = None) -> np.ndarray:
        """Map values on the residues at the given depth.

        codes selects specific residues, each read digit by digit by the
        level loop; by default all p**depth of them are evaluated in
        ascending order, the values of cluster(0, 0, depth).
        """
        if codes is None:
            return _split(self.params, 0, 0, depth)
        return _series(_code_digits(codes, self.params.p, depth), depth, len(codes), 0, self.params)

    def cluster(self, center: int, level: int, depth: int) -> PointCloud2D:
        """Image of the ball |x - center| <= p^-level sampled to `depth`.

        Labels are the absolute integer preimages center + p^level k in
        ascending order; the point set therefore partitions into the p
        sub-clusters one level down, which share labels with this one.  A
        negative level is the ball of radius p^-level around 0, which
        holds every integer center; its points p^level k are labelled k.
        """
        step = self.params.p ** max(level, 0)
        center %= step
        vals = _split(self.params, center, level, depth)
        labels = center + step * np.arange(len(vals), dtype=np.int64)
        return PointCloud2D(values=vals, labels=labels, level=level, params=self.params)


# ---------------------------------------------------------------------------
# vectorized kernels


def residue_bound(p: int, depth: int) -> int:
    """p**depth, the exclusive upper end of sampled residue codes.

    Samples are drawn as 64-bit integers, so a bound past 2^63 raises
    ValueError instead of reaching the generator.
    """
    bound = p**depth
    if bound > 1 << 63:
        raise ValueError(
            f"sampling residues below {p}^{depth} needs integers past the 64-bit limit 2^63"
        )
    return bound


# A full enumeration peaks near 66 bytes per row for a plane cloud rendered
# to PGM and 215 for a torus cloud exported to PLY (peak RSS above an idle
# interpreter's, at 2^20 to 2^22 rows); the values alone take 16.
MAX_ROWS = 1 << 23


def _guard_rows(p: int, depth: int, fibers: int = 1) -> None:
    """Refuse fibers * p**depth rows past MAX_ROWS, before any allocation."""
    if fibers * p**depth > MAX_ROWS:
        size = f"{p}^{depth}" if fibers == 1 else f"{fibers} x {p}^{depth}"
        raise ValueError(
            f"enumerating {size} = {fibers * p**depth} rows exceeds the limit of {MAX_ROWS}"
        )


def residue_digit_matrix(
    p: int, depth: int, codes: np.ndarray | None = None
) -> np.ndarray:
    """int64 digit columns of residues: column j holds the digit of p**j."""
    if codes is None:
        _guard_rows(p, depth)
        codes = np.arange(p**depth, dtype=np.int64)
    digits = np.array(list(_code_digits(codes, p, depth)), dtype=np.int64)
    return digits.reshape(depth, len(codes)).T


def _code_digits(codes: np.ndarray, p: int, cols: int):
    """Digit columns 0 .. cols-1 of int64 codes, read one at a time."""
    rest = codes
    for _ in range(cols):
        quot = rest // p
        yield rest - quot * p
        rest = quot


def _int_digits(digit_mat: np.ndarray) -> np.ndarray:
    """An integer digit matrix as int64; any other dtype is refused."""
    if digit_mat.dtype.kind not in "iu":
        raise ValueError(f"digit matrix has dtype {digit_mat.dtype}; digits must be integers")
    return digit_mat.astype(np.int64, copy=False)


def _last_level(cols: int, start: int, params: MapParams) -> int:
    """Last level whose window reads a stored digit; chi_n = 1 above it
    at finite order, whose window is m+1 digits wide."""
    if params.m == math.inf:
        return params.depth
    return min(params.depth, start + cols - 1 + int(params.m))


def _levels(digits, rows: int, start: int, first: int, last: int, params: MapParams, lift):
    """The level loop behind every vectorized character evaluation.

    digits yields the digit columns of indices start, start+1, ...; the
    digits past them are zero.  At level n the int64 window w holds the k
    digits under the character, the newest on top, so chi_n = e(w / p**k).
    k is m+1 at finite order and n-start+1 at infinite order, capped at
    the widest window a float holds exactly: the digits cut off weigh
    less than 2**-53 of a turn.  While p**k <= rows the phase is read from
    a p**k-entry table, above that it is exponentiated.  Yields
    (n, lift(n, phases)) for n = first .. last; lift acts on the table
    when there is one, so weighting a level costs p**k operations.
    """
    p, finite = params.p, params.m != math.inf
    widest = 1
    while p ** (widest + 1) <= 2**53:
        widest += 1
    w = np.zeros(rows, dtype=np.int64)
    table_k = table = None
    for n in range(first, last + 1):
        k = min(int(params.m) + 1 if finite else max(n - start + 1, 0), widest)
        if finite or n - start + 1 > widest:
            w //= p  # the window is full: its lowest digit leaves
        digit = next(digits, None) if n >= start else None
        if digit is not None:
            w += digit * p ** (k - 1)
        if p**k > rows:
            yield n, lift(n, np.exp(w * (2j * math.pi / p**k)))
            continue
        if k != table_k:
            table_k, table = k, np.exp(2j * math.pi * np.arange(p**k) / p**k)
        yield n, lift(n, table)[w]


def _series(digits, cols: int, rows: int, start: int, params: MapParams) -> np.ndarray:
    s = params.s

    def lift(n: int, phases: np.ndarray) -> np.ndarray:
        return s**n * (phases - 1.0) if n < 0 else s**n * phases

    last = _last_level(cols, start, params)
    total = np.zeros(rows, dtype=np.complex128)
    for _, term in _levels(digits, rows, start, min(start, 0), last, params, lift):
        total += term
    return total + sum(s**n for n in range(max(last + 1, 0), params.depth + 1))


def _split(params: MapParams, center: int, level: int, depth: int) -> np.ndarray:
    """Values on x = center + p**level k for k < p**(depth-level), ascending.

    Write x = c + p**top y with c = x mod p**top, whose lowest digit has
    index lo = min(level, 0).  The levels below top read only c: the head
    is their sum, negative levels as s^n (chi_n - 1).  Level top+n reads
    y's window and, below m, the digits of c from index max(lo, top+n-m)
    up, as the phase phi_c(n) = (those digits) / p**(top+n+1).  So
    f(x) = head(c) + s**top g_c(y), g_c(y) = sum_n s^n e(phi_c(n)) chi_n(y),
    the plane/solenoid identity.  The uncoupled levels n >= m sum to one
    column, so g is one y-major (y x level) @ (level x c) product whose
    last coupling row is ones.  top sits halfway up the free digits.
    """
    if depth < level:
        raise ValueError("depth must reach at least the cluster level")
    p, s, m = params.p, params.s, params.m
    _guard_rows(p, depth - level)
    lo = min(level, 0)
    top = min(level + (depth - level) // 2, max(params.depth, level))
    cs = center + p ** max(level, 0) * np.arange(p ** (top - level), dtype=np.int64)  # c / p**lo
    ys = np.arange(p ** (depth - top), dtype=np.int64)

    def phase(codes: np.ndarray, low: int, width: int, j: int, k: int) -> np.ndarray:
        """e(w / p**(k-j)) for w the digits j .. k-1 of codes * p**low, whose
        width digits start at index low.  A window inside them is read as a
        signed residue, so no angle passes half a turn; one that passes
        their top reads under 1/p of a turn."""
        w = codes // p ** min(j - low, width)
        if k - low > width:
            return np.exp(w * (2j * math.pi * float(p) ** (j - k)))
        q = p ** (k - j)
        w %= q
        return np.exp(np.where(2 * w > q, w - q, w) * (2j * math.pi / q))

    head = np.zeros(len(cs), dtype=np.complex128)
    for n in reversed(range(lo, min(top, params.depth + 1))):  # Horner from the top level down
        head *= s
        head += phase(cs, lo, top - lo, max(lo, n - m), n + 1) - (n < 0)
    head *= s**lo
    head -= sum(s**n for n in range(top, 0))  # the -1 of g's negative levels
    levels = max(params.depth - top + 1, 0)
    coupled = min(m, levels)
    terms = np.zeros((len(ys), coupled + 1), dtype=np.complex128)
    for n in range(levels):
        terms[:, min(n, coupled)] += s ** (top + n) * phase(ys, 0, depth - top, max(0, n - m), n + 1)
    coupling = np.ones((coupled + 1, len(cs)), dtype=np.complex128)
    for n in range(coupled):
        coupling[n] = phase(cs, lo, top - lo, max(lo, top + n - m), top + n + 1)
    out = terms @ coupling
    out += head
    return out.ravel()


def series_values(digit_mat: np.ndarray, start: int, params: MapParams) -> np.ndarray:
    """Series value per digit row; column j is the digit at index start+j.

    Digits outside the stored columns are zero (rows represent exact
    scaled residues).  Levels below zero contribute s^n (chi_n - 1).
    """
    digit_mat = _int_digits(digit_mat)
    rows, cols = digit_mat.shape
    return _series(iter(digit_mat.T), cols, rows, start, params)


def character_table(
    digit_mat: np.ndarray, start: int, params: MapParams
) -> np.ndarray:
    """Character values chi_n per row, for n = start .. depth (row-major n)."""
    digit_mat = _int_digits(digit_mat)
    rows, cols = digit_mat.shape
    out = np.ones((params.depth + 1 - start, rows), dtype=np.complex128)
    last = _last_level(cols, start, params)
    levels = _levels(iter(digit_mat.T), rows, start, start, last, params, lambda n, ph: ph)
    for n, chi in levels:
        out[n - start] = chi
    return out


# ---------------------------------------------------------------------------
# certificates and structural checks


def _min_cross_distance(va: np.ndarray, vb: np.ndarray) -> float:
    """min |a - b| over a in va, b in vb, in blocks of about 2**20 pairs."""
    rows = max(1, 2**20 // max(len(vb), 1))
    best = math.inf
    for i in range(0, len(va), rows):
        block = np.abs(va[i : i + rows, None] - vb[None, :])
        best = min(best, float(block.min()))
    return best


def _class_separation(vals: np.ndarray, modulus: int) -> float:
    """min |a - b| over residues a, b in distinct classes mod modulus.

    Each row of vals holds the images of every residue at one depth, in
    ascending order, so row.reshape(-1, modulus).T lists the classes.
    Inf for a single class (modulus 1): there is nothing to separate.
    """
    vals = np.atleast_2d(vals)
    if vals.shape[1] % modulus:
        raise ValueError(f"the search depth must reach the class level: the residue "
                         f"count {vals.shape[1]} is not a multiple of {modulus}")
    best = math.inf
    for row in vals:
        classes = np.ascontiguousarray(row.reshape(-1, modulus).T)
        for a in range(modulus):
            for b in range(a + 1, modulus):
                best = min(best, _min_cross_distance(classes[a], classes[b]))
    return best


def _search_certificate(
    params: MapParams, empirical: float, search_depth: int, gamma: float | None = None
) -> EmbeddingCertificate:
    """Certificate from the analytic bound and a search minimum to the
    given depth; the allowance accounts for the series tail and for pairs
    hiding inside unexplored balls.  The verdict never relies on the
    search while the bound is positive."""
    lower = delta_lower(params.p, params.s)
    a_s = abs(params.s)
    allowance = 4.0 * a_s**search_depth / (1.0 - a_s) + 2.0 * params.tail_bound
    if lower > 0.0:
        verdict = "certified-embedding"
    elif empirical - allowance > 0.0:
        verdict = "empirically-injective"
    else:
        verdict = "unknown"
    return EmbeddingCertificate(lower, float(empirical), verdict, allowance, gamma)


def delta_certificate(params: MapParams, search_depth: int = 8) -> EmbeddingCertificate:
    """Analytic separation bound plus a search over the unit-ball pairs
    whose lowest digits differ, to the given depth."""
    vals = PlaneMap(params).values_on_residues(search_depth)
    return _search_certificate(params, _class_separation(vals, params.p), search_depth)


def code_valuations(diff: np.ndarray, p: int, cap: int) -> np.ndarray:
    """Multiplicity of p in each nonzero integer (capped; zero stays zero)."""
    vals = np.zeros(diff.shape, dtype=np.int64)
    work = np.abs(diff)
    for _ in range(cap):
        mask = (work % p == 0) & (work > 0)
        if not mask.any():
            break
        vals[mask] += 1
        work = np.where(mask, work // p, work)
    return vals


def sandwich_check(
    params: MapParams,
    n_pairs: int,
    residue_depth: int,
    seed: int,
) -> dict[str, float]:
    """Two-sided bi-Lipschitz test over seeded unit-ball pairs.

    Checks lower * |s|^v <= dist + allowance and
    dist <= 2 |s|^v / (1-|s|) + allowance, where v is the valuation of
    the difference of the integer preimages.
    """
    p = params.p
    hi = residue_bound(p, residue_depth)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, hi, size=n_pairs, dtype=np.int64)
    b = rng.integers(0, hi, size=n_pairs, dtype=np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    pmap = PlaneMap(params)
    dist = np.abs(
        pmap.values_on_residues(residue_depth, codes=a)
        - pmap.values_on_residues(residue_depth, codes=b)
    )
    return _sandwich_margins(params, dist, a - b, residue_depth)


def _sandwich_margins(
    params: MapParams, dist: np.ndarray, diff: np.ndarray, depth: int
) -> dict[str, float]:
    """Sandwich margins of explicit pairs: image distances and the
    differences of their depth-level integer preimages."""
    sv = abs(params.s) ** code_valuations(diff, params.p, depth)
    allowance = 2.0 * params.tail_bound
    lower_margin = dist + allowance - delta_lower(params.p, params.s) * sv
    upper_margin = 2.0 * sv / (1.0 - abs(params.s)) + allowance - dist
    return {
        "pairs": int(len(dist)),
        "lower_violations": int(np.sum(lower_margin < 0)),
        "upper_violations": int(np.sum(upper_margin < 0)),
        "worst_lower_margin": float(lower_margin.min()),
        "worst_upper_margin": float(upper_margin.min()),
        "allowance": allowance,
    }


def scaling_residuals(
    params: MapParams,
    n_samples: int,
    digit_depth: int,
    seed: int,
) -> np.ndarray:
    """|value(p x) - s value(x) - 1| over seeded random digit rows."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, residue_bound(params.p, 1), size=(n_samples, digit_depth))
    return _scaling_residuals(digits, params)


def _scaling_residuals(digit_mat: np.ndarray, params: MapParams) -> np.ndarray:
    """|value(p x) - s value(x) - 1| per explicit digit row."""
    base = series_values(digit_mat, 0, params)
    return np.abs(series_values(digit_mat, 1, params) - params.s * base - 1.0)


def rotate_digits(x: PAdic) -> PAdic:
    """Add one to every digit mod p, with no carries.

    This is a bijection of the unit ball under which the order-0 map
    picks up exactly one factor exp(2 pi i / p); note it is not addition
    of the all-ones element in the ring (carries would break the phase).
    """
    p = x.p
    if not x.is_zero() and x.v < 0:
        raise ValueError("digit rotation is defined on the unit ball")
    # from index `start` on the digits repeat `block` (zeros past a terminating
    # window); a truncated input has start = its top, so its result keeps the
    # head and drops the tail
    start = x.v + x.preperiod if x.period else x.window_top
    block = x.period or (0,)
    head = sum((d + 1) % p * p**n for n, d in enumerate(x.digit_run(0, start)))
    tail = sum((d + 1) % p * p**i for i, d in enumerate(block))
    return _from_rational(
        head + Fraction(tail * p**start, 1 - p ** len(block)), p, x._top, start + len(block),
        "rotation vanishes across a truncated window",
    )
