"""Character series mapping base-p digit expansions into the complex plane.

The map sends x to sum_n s^n chi_n(x), where chi_n reads a window of m+1
digits below index n (all of them for infinite order) as a phase.  For
|s| below the base-dependent threshold the map is a bi-Lipschitz
embedding and its image is a self-similar fractal of dimension
-log p / log|s|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .padic import Rational, _digit_run, _expansion

__all__ = [
    "MapParams",
    "PlaneMap",
    "s_zero",
    "delta_lower",
    "residue_digit_matrix",
    "series_values",
    "character_table",
    "sandwich_check",
    "scaling_residuals",
]


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
    the last series level summed; the geometric tail beyond it is bounded
    by tail_bound.
    """

    p: int
    m: int | float = 0
    s: complex = 0.3
    depth: int = 40

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

    @property
    def tail_bound(self) -> float:
        """Rigorous bound on the dropped series tail, 2|s|^(depth+1)/(1-|s|)."""
        a = abs(self.s)
        return 2.0 * a ** (self.depth + 1) / (1.0 - a)

    @property
    def rounding_bound(self) -> float:
        """Float error of one computed value, (depth + 5) 2^-53 r_s, to first
        order: its depth + 1 terms s^n chi_n, of moduli totalling at most
        r_s = contraction_radius, err by a few 2^-53 of their moduli (5 in
        all), and their additions by depth 2^-53 r_s."""
        return (self.depth + 5) * 2.0**-53 * self.contraction_radius

    @property
    def scaling_dimension(self) -> float:
        """Image dimension for embedding parameters: -log p / log|s|."""
        return -math.log(self.p) / math.log(abs(self.s))

    @property
    def contraction_radius(self) -> float:
        """Disk radius 1/(1-|s|) containing every unit-ball image point."""
        return 1.0 / (1.0 - abs(self.s))


# ---------------------------------------------------------------------------
# scalar evaluation


class PlaneMap:
    """Evaluates the series map, its parts, and its self-similar structure."""

    def __init__(self, params: MapParams):
        self.params = params
        self._powers = [params.s**n for n in range(params.depth + 1)]  # s^n, n = 0 .. depth

    def _phases(self, x: Rational, last: int) -> tuple[int | float, list[complex]]:
        """The valuation v of x (inf for zero) and chi_n(x) for n = v .. stop
        (none for zero or v > last); chi_n = 1 exactly at every other level.
        A phase is an exact fraction of a turn, rounded once: A_n / p^(n-v+1)
        at infinite order, A_n = sum_(v<=j<=n) x_j p^(j-v); W_n / p^(m+1) at
        finite order, W_n = W_(n-1) // p + x_n p^m, where a terminating x
        stops at its last nonzero window, v + len(digits) - 1 + m, if that is
        below last."""
        if not x:
            return math.inf, []
        p, m = self.params.p, self.params.m
        exp = _expansion(x, p)
        v, digits, _, period = exp
        if m != math.inf and not period:
            last = min(last, v + len(digits) - 1 + m)
        if v > last:
            return v, []
        turn, chis = 2j * math.pi, []
        if m == math.inf:
            total, scale = 0, 1
            for d in _digit_run(exp, v, last + 1):
                total += d * scale
                scale *= p
                chis.append(cmath.exp(turn * (total / scale)))
        else:
            window, low, scale = 0, p**m, p ** (m + 1)
            for d in _digit_run(exp, v, last + 1):
                window = window // p + d * low
                chis.append(cmath.exp(turn * (window / scale)))
        return v, chis

    def character(self, x: Rational, n: int) -> complex:
        """Phase factor at level n: reads digits x_{n-k} weighted p^-k."""
        v, chis = self._phases(x, n)  # ends at level n unless chi_n = 1
        return chis[-1] if chis and v + len(chis) - 1 == n else 1.0 + 0.0j

    @cached_property
    def _divisors(self) -> list[float]:
        """The fiber divisors p^(min(n, m)+1), n = 0 .. depth, rounded as complex / int does."""
        p, m = self.params.p, self.params.m
        return [float(p ** (min(n, m) + 1)) for n in range(self.params.depth + 1)]

    def _weighted(self, x: Rational, xi: float | None = None) -> tuple[complex, complex]:
        """Sums of s^n c_n (chi_n - [n < 0]) over the negative levels and
        over the levels 0 .. depth, in one pass.  c_n = 1 for the plane
        series (xi None); the fiber at circle coordinate xi couples level
        n <= m + v, v the valuation of x, by c_n = e(xi / p^(min(n, m) + 1)).
        A factor 1, c_n or chi_n, is not multiplied in: w * (1+0j) differs
        from w only in the sign of a zero, which no sum from 0j keeps."""
        s, depth, powers = self.params.s, self.params.depth, self._powers
        v, chis = self._phases(x, depth)
        _check_negative_levels(s, lo := min(v, 0))
        first, stop = (v, v + len(chis) - 1) if chis else (depth + 1, depth)
        if xi is not None:
            p, m = self.params.p, self.params.m
            turn, top, divisors = 2j * math.pi * xi, m + v, self._divisors
        frac = integral = 0j
        for n in range(lo, depth + 1):
            weight = powers[n] if n >= 0 else s**n
            if xi is not None and n <= top:
                divisor = divisors[n] if n >= 0 else p ** (min(n, m) + 1)
                weight = weight * cmath.exp(turn / divisor)
            if n < first or n > stop:
                if n >= 0:
                    integral += weight
            elif n < 0:
                frac += weight * (chis[n - first] - 1.0)
            else:
                integral += weight * chis[n - first]
        return frac, integral

    def value(self, x: Rational) -> complex:
        """Series value; negative levels contribute s^n (chi_n - 1).  This
        equals (1 - s^v)/(1 - s) + sum_{n>=v} s^n chi_n, and zero needs no
        valuation convention."""
        return sum(self.parts(x))

    def parts(self, x: Rational) -> tuple[complex, complex]:
        """(fractional, integral) split of the series value."""
        return self._weighted(x)

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

    def cluster(self, center: int, level: int, depth: int) -> np.ndarray:
        """Image of the ball |x - center| <= p^-level sampled to `depth`.

        Value k is the image of center + p^level k (center reduced mod
        p^level), k < p^(depth-level) ascending; so the point set
        partitions into the p sub-clusters one level down.  A negative
        level is the ball of radius p^-level around 0, which holds every
        integer center; its value k is the image of p^level k.
        """
        return _split(self.params, center % self.params.p ** max(level, 0), level, depth)


# ---------------------------------------------------------------------------
# vectorized kernels


# A full enumeration peaks near 66 bytes per row for a plane cloud rendered
# to PGM and 215 for a torus cloud exported to PLY (peak RSS above an idle
# interpreter's, at 2^20 to 2^22 rows); the values alone take 16.
MAX_ROWS = 1 << 23
_BLOCK = 2**13  # rows a blocked kernel takes at a time: temporaries in cache, not cloud-sized


def _guard_rows(p: int, depth: int, fibers: int = 1) -> None:
    """Refuse fibers * p**depth rows past MAX_ROWS, before any allocation;
    p**MAX_ROWS.bit_length() alone passes it, so no larger power is formed."""
    if fibers * p ** min(depth, MAX_ROWS.bit_length()) > MAX_ROWS:
        size = f"{p}^{depth}" if fibers == 1 else f"{fibers} x {p}^{depth}"
        raise ValueError(f"enumerating {size} rows exceeds the limit of {MAX_ROWS}")


def _check_negative_levels(s: complex, lo: int) -> None:
    """Refuse a lowest level lo < 0 whose terms s^n (chi_n - 1), n = lo .. -1,
    may pass the float range, before any allocation: they total at most
    2|s|^lo / (1 - |s|)."""
    if lo < 0:
        a = abs(s)
        try:
            total = 2.0 * a**lo / (1.0 - a)
        except OverflowError:
            total = math.inf
        if math.isinf(total):
            raise ValueError(f"the weight of level {lo} at s={s} is past the float range")


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


def _int_digits(digit_mat: np.ndarray, p: int) -> np.ndarray:
    """An integer digit matrix as int64; any other dtype, and any digit
    outside 0 .. p-1, is refused."""
    if digit_mat.dtype.kind not in "iu":
        raise ValueError(f"digit matrix has dtype {digit_mat.dtype}; digits must be integers")
    if digit_mat.size and not 0 <= (low := digit_mat.min()) <= (high := digit_mat.max()) < p:
        raise ValueError(f"digit {low if low < 0 else high} lies outside 0 .. {p - 1} for p={p}")
    return digit_mat.astype(np.int64, copy=False)


def _last_level(cols: int, start: int, params: MapParams) -> int:
    """Last level whose window reads a stored digit: level n reads from
    index max(start, n - m) up, so chi_n = 1 past start + cols - 1 + m."""
    return min(params.depth, start + cols - 1 + params.m)


def _turn(w: np.ndarray, q: int) -> np.ndarray:
    """e(w / q), w read as its residue in (-q/2, q/2] so that no angle
    passes half a turn: the phase of an integer window.  Needs 0 <= w < q,
    which _levels keeps: its k never decreases, w //= p when k repeats,
    then a digit 0 .. p-1 is added at p**(k-1)."""
    return np.exp(np.where(2 * w > q, w - q, w) * (2j * math.pi / q))


def _widest(p: int) -> int:
    """The most digits of a window whose value a float holds exactly."""
    return max((k for k in range(2, 54) if p**k <= 2**53), default=1)


def _window_cap(params: MapParams, first: int) -> float:
    """What the window cap of _levels can take from one value over levels
    first .. depth: 2 pi p^-widest sum_n |s|^n, as each capped window drops
    digits that weigh less than p^-widest of a turn."""
    return 2 * math.pi * params.p**-_widest(params.p) * sum(
        abs(params.s) ** n for n in range(first, params.depth + 1))


def _levels(digits, rows: int, start: int, first: int, last: int, params: MapParams):
    """The level loop behind every vectorized character evaluation.

    digits yields the digit columns of indices start, start+1, ...; the
    digits past them are zero.  Level n reads the k digits of indices
    max(start, n-m) .. n, capped at _widest(p) (the digits cut off weigh
    less than p**-widest of a turn, below p 2**-53), into an int64 window
    w, the newest on top, so chi_n = _turn(w, p**k).  While p**k <= rows
    the phases are looked up in the table _turn(arange(p**k)), which
    returns the same bits.  Yields (n, chi_n) for n = first .. last.
    """
    p = params.p
    widest = _widest(p)
    w = np.zeros(rows, dtype=np.int64)
    k = table_q = table = 0
    for n in range(first, last + 1):
        prev, k = k, min(max(min(n - start, params.m) + 1, 0), widest)
        if k == prev:
            w //= p  # the window did not grow: its lowest digit leaves
        digit = next(digits, None) if n >= start else None
        if digit is not None:
            w += digit * p ** (k - 1)
        q = p**k
        if q <= rows and q != table_q:
            table_q, table = q, _turn(np.arange(q), q)
        yield n, table[w] if q <= rows else _turn(w, q)


def _series(digits, cols: int, rows: int, start: int, params: MapParams) -> np.ndarray:
    s, p = params.s, params.p
    _check_negative_levels(s, start)
    if params.m != math.inf:
        last = _last_level(cols, start, params)
    elif (last := _tail_start(cols, start, params) - 1) < params.depth:
        angle = np.zeros(rows)  # 2 pi x / p^(last+2), summed as _levels reads the digits
        digits = _stream_angle(digits, angle, start - last - 2, p)
    total = np.zeros(rows, dtype=np.complex128)
    for n, chi in _levels(digits, rows, start, min(start, 0), last, params):
        total += s**n * (chi - 1.0) if n < 0 else s**n * chi
    if params.m != math.inf:
        return total + sum(s**n for n in range(max(last + 1, 0), params.depth + 1))
    if last < params.depth:
        total += _tail(angle, 2 * math.pi * float(p) ** (start + cols - last - 2), last + 1, params)
    return total


# The rounding of the closed-form tail is at most TAIL_ROUNDINGS 2^-53 |s|^first
# per row, to first order (derived in _tail).
TAIL_ROUNDINGS = 60


def _tail_start(cols: int, start: int, params: MapParams) -> int:
    """First level of the closed-form tail of an infinite-order series over
    digits at indices start .. L-1, L = start + cols; depth + 1 for none.

    Past the stored digits chi_n = e(x / p^(n+1)), x < p^L the rows' value,
    so _tail sums the levels first .. depth of it, first >= max(L, 0), in
    one polynomial in t = 2 pi x / p^(first+1), |t| < zeta = 2 pi
    p^(L-first-1).  first is the lowest level where two things hold:
    - zeta <= 1: for L >= 0 that is first = L + 2 at p = 2, L + 1 at
      p = 3 .. 6 and L from p = 7 on;
    - the tail fits the share of rounding_bound of the N = depth - first + 1
      levels it replaces.  Those levels' terms and additions have
      (N + 5 b) 2^-53 r_s, b = |s|^first.  The tail takes one addition,
      2^-53 r_s; its constant G_0, of modulus at most b (1 + |s|^N) / |1 - s|
      <= 2 b r_s, and the Horner addition of it, to first order four
      roundings of that, 8 b 2^-53 r_s; and TAIL_ROUNDINGS 2^-53 b for the
      rest.  So b (TAIL_ROUNDINGS (1 - |s|) + 3) <= N - 1.
    """
    p, a, depth = params.p, abs(params.s), params.depth
    top = start + cols
    for first in range(max(top, 0), depth + 1):
        b = a**first
        if (2 * math.pi * float(p) ** (top - first - 1) <= 1
                and b * (TAIL_ROUNDINGS * (1 - a) + 3) <= depth - first):
            return first
    return depth + 1


def _stream_angle(digits, angle: np.ndarray, power: int, p: int):
    """Yield the digit columns, adding column j times 2 pi p^(power+j) into
    angle as it passes: angle = 2 pi x / p^(first+1) once all have passed,
    power = start - first - 1.  Each weight is rounded twice, each product
    and sum once; the terms ascend, so the sums err by at most 3 2^-53 of
    angle, and angle by 6 2^-53 of itself."""
    for j, column in enumerate(digits):
        angle += column * (2 * math.pi * float(p) ** (power + j))
        yield column


def _tail(angle: np.ndarray, zeta: float, first: int, params: MapParams) -> np.ndarray:
    """sum_(n = first .. depth) s^n e(x / p^(n+1)) per row, in closed form.

    With t = angle = 2 pi x / p^(first+1), |t| <= zeta <= 1, level first+j
    is exp(i t p^-j), so the sum is sum_k c_k t^k, c_k = i^k G_k / k!,
    G_k = s^first sum_(j < N) (s p^-k)^j = s^first (1 - r^N) / (1 - r),
    r = s p^-k, N = depth - first + 1: one constant per k, evaluated by
    Horner over the rows.  From k = 1 on |G_k| <= b / (1 - |s|/2) <= 2b,
    b = |s|^first, so sum_(k>=1) |c_k| zeta^k <= 2b (e - 1) = 3.44 b and
    sum_(k>=1) (k+1) |c_k| zeta^k <= 2b (2e - 1) = 8.87 b.  In 2^-53 b:
    - truncation past k = K: 2 zeta^(K+1) / (K+1)! (K+2)/(K+2-zeta) <= 1,
      which picks K (16 at zeta = 0.79, 9 at 0.08);
    - eight roundings of each c_k, k >= 1: 8 x 3.44 = 27.5;
    - angle's 6 2^-53 (_stream_angle) times |t d/dt tail| <= sum_n |s|^n
      zeta p^-(n-first) <= 2 b: 12;
    - Horner's two roundings a step, each of a partial value:
      2 x 8.87 = 17.7 (the addition of G_0 counts with G_0, in _tail_start).
    That is 58.2, within TAIL_ROUNDINGS.
    """
    p, s = params.p, params.s
    n = params.depth - first + 1
    last = 1
    while 2 * zeta ** (last + 1) / math.factorial(last + 1) * (last + 2) / (last + 2 - zeta) \
            > 2.0**-53:
        last += 1
    coeffs = []
    for k in range(last + 1):
        r = s / float(p) ** k
        coeffs.append((1, 1j, -1, -1j)[k % 4] * (s**first * (1 - r**n) / (1 - r))
                      / math.factorial(k))
    out = np.full(len(angle), coeffs[-1], dtype=np.complex128)
    for c in reversed(coeffs[:-1]):
        out *= angle
        out += c
    return out


def _split(params: MapParams, center: int, level: int, depth: int) -> np.ndarray:
    """Values on x = center + p**level k for k < p**(depth-level), ascending.

    Write x = c + p**top y with c = x mod p**top, whose lowest digit has
    index lo = min(level, 0).  No carry crosses top, so every window splits
    into c's digits and y's: chi_(top+n)(x) = chi_(top+n)(c) chi_n(y).  One
    character table of c serves twice: its levels below top sum to the
    head, negative levels as s^n (chi_n - 1), and its levels top+n are the
    couplings, 1 from n = m on, as c has no digit at or above top.  So
    f(x) = head(c) + s**top g_c(y), g_c(y) = sum_n s^n chi_(top+n)(c) chi_n(y),
    the plane/solenoid identity.  The levels n >= m sum to one column, so
    g is one y-major (y x level) @ (level x c) product whose terms come
    from the level loop over y's digits.  top sits halfway up the free digits.
    """
    if depth < level:
        raise ValueError("depth must reach at least the cluster level")
    p, s, m = params.p, params.s, params.m
    _guard_rows(p, depth - level)
    lo = min(level, 0)
    _check_negative_levels(s, lo)
    top = min(level + (depth - level) // 2, max(params.depth, level))
    cs = center + p ** max(level, 0) * np.arange(p ** (top - level), dtype=np.int64)  # c / p**lo
    ys = np.arange(p ** (depth - top), dtype=np.int64)
    chars = character_table(residue_digit_matrix(p, top - lo, cs), lo, params)
    head = np.zeros(len(cs), dtype=np.complex128)
    for n in reversed(range(lo, min(top, params.depth + 1))):  # Horner from the top level down
        head *= s
        head += chars[n - lo] - (n < 0)
    head *= s**lo
    head -= sum(s**n for n in range(top, 0))  # the -1 of g's negative levels
    levels = max(params.depth - top + 1, 0)
    coupled = min(m, levels)
    coupling = chars[top - lo : top - lo + coupled + 1]  # last row ones if a level is uncoupled
    terms = np.zeros((len(ys), len(coupling)), dtype=np.complex128)
    for n, chi in _levels(_code_digits(ys, p, depth - top), len(ys), 0, 0, levels - 1, params):
        terms[:, min(n, coupled)] += s ** (top + n) * chi
    out = terms @ coupling
    out += head
    return out.ravel()


def series_values(digit_mat: np.ndarray, start: int, params: MapParams) -> np.ndarray:
    """Series value per digit row; column j is the digit at index start+j.

    Digits outside the stored columns are zero (rows represent exact
    scaled residues).  Levels below zero contribute s^n (chi_n - 1).
    """
    digit_mat = _int_digits(digit_mat, params.p)
    rows, cols = digit_mat.shape
    return _series(iter(digit_mat.T), cols, rows, start, params)


def character_table(digit_mat: np.ndarray, start: int, params: MapParams) -> np.ndarray:
    """Character values chi_n per row, for n = start .. depth (row-major n)."""
    digit_mat = _int_digits(digit_mat, params.p)
    rows, cols = digit_mat.shape
    out = np.ones((params.depth + 1 - start, rows), dtype=np.complex128)
    last = _last_level(cols, start, params)
    for n, chi in _levels(iter(digit_mat.T), rows, start, start, last, params):
        out[n - start] = chi
    return out


# ---------------------------------------------------------------------------
# structural checks


def _widest_cap(params: MapParams) -> float:
    """What the window cap takes from one value: at m >= widest,
    _window_cap from level widest on, where level n's window outgrows
    widest digits; at lower orders nothing."""
    widest = _widest(params.p)
    return _window_cap(params, widest) if params.m >= widest else 0.0


def sandwich_check(
    params: MapParams, dist: np.ndarray, diff: np.ndarray, depth: int
) -> dict[str, float]:
    """Two-sided bi-Lipschitz test over explicit unit-ball pairs: their
    image distances and the differences of their depth-level integer
    preimages.

    Checks lower * |s|^v <= dist + allowance and
    dist <= 2 |s|^v / (1-|s|) + allowance, where v is the valuation of
    the difference.  Besides the two tails, 2 tail_bound, a distance
    carries the rounding of its two values, 2 rounding_bound, and their
    window caps, 2 _widest_cap (_split caps the windows of c and of y
    apart, and the digits the two drop are those that one window of x
    drops).  The multiplicity of p in a nonzero difference below p^depth
    counts the powers p^k, k < depth, dividing it.
    """
    sv = abs(params.s) ** sum(diff % params.p**k == 0 for k in range(1, depth))
    allowance = 2.0 * params.tail_bound + 2.0 * params.rounding_bound + 2.0 * _widest_cap(params)
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


def scaling_residuals(digit_mat: np.ndarray, params: MapParams) -> np.ndarray:
    """|value(p x) - s value(x) - 1| per digit row."""
    base = series_values(digit_mat, 0, params)
    return np.abs(series_values(digit_mat, 1, params) - params.s * base - 1.0)
