"""Independent definitions that the tests hold the package to.

Each is written from its definition, not from the package's code:

- long division: the valuation, the base-p digits of a rational and where
  they repeat, in Fraction arithmetic;
- the solenoid group law on (xi, x) pairs of rationals, with the carry read
  from xi >= 1, and the distance from its definition, the shorter of the two
  gauge lengths max(xi, |x|^alpha) of f - g and g - f;
- the series map summed level by level from lists of characters and terms,
  each character read from the digits under its level: the bit-level
  reference of the scalar series, its parts and the torus fibers;
- the digit rotation, each digit plus one mod p with no carries.

Two predicates, `reads_long_division` and `same_value`, read a value
through the package and hold it to the long division.  The draws that
several test modules share close the file, so that no test module imports
another; `sandwich` draws seeded pairs as `verify --suite sandwich` does.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import hypothesis.strategies as st
import numpy as np

from padic_fractal import padic
from padic_fractal.complex_map import PlaneMap, sandwich_check


# ---------------------------------------------------------------------------
# long division


def in_ball(q: Fraction, p: int) -> bool:
    """q lies in Z_(p): its lowest-terms denominator is prime to p."""
    return math.gcd(Fraction(q).denominator, p) == 1


@lru_cache(maxsize=1 << 12)
def valuation(q, p: int):
    """The largest v with q / p^v in Z_(p); +inf for zero."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    v = 0
    while not in_ball(q / Fraction(p) ** v, p):
        v -= 1
    while in_ball(q / Fraction(p) ** (v + 1), p):
        v += 1
    return v


@lru_cache(maxsize=1 << 12)
def long_division(q, p: int) -> tuple:
    """(v, digits, preperiod, period) of q in base p, v = 0 for zero.

    The remainders u_0 = q / p^v = n_0 / d, u_(k+1) = (u_k - a_k) / p give
    the digits a_k = u_k mod p, and the expansion repeats from the first
    remainder that recurs.  `digits` runs through the first period; when the
    remainder 0 recurs the expansion terminates, and `digits` ends at its
    last nonzero digit, where the (empty) period starts.
    """
    q = Fraction(q)
    if q == 0:
        return 0, (), 0, ()
    v = valuation(q, p)
    u = q / Fraction(p) ** v
    n, d, seen, stream = u.numerator, u.denominator, {}, []
    while n not in seen:  # u_k = n / d
        seen[n] = len(stream)
        a = n * pow(d, -1, p) % p
        stream.append(a)
        n = (n - a * d) // p
    start = seen[n]
    if n == 0:
        return v, tuple(stream[:start]), start, ()
    return v, tuple(stream), start, tuple(stream[start:])


def digits(q, p: int, lo: int, hi: int) -> list[int]:
    """The digits of q at indices lo .. hi-1, read from its long division:
    zeros below the valuation, the listed digits, then the period (or zeros)."""
    v, head, preperiod, period = long_division(q, p)
    tail = period or (0,)
    return [0 if n < v else head[n - v] if n - v < len(head)
            else tail[(n - v - preperiod) % len(tail)] for n in range(lo, hi)]


def from_digits(p: int, v: int, ds) -> Fraction:
    """The terminating rational whose digits from index v upward are ds."""
    return sum((d * Fraction(p) ** (v + i) for i, d in enumerate(ds)), Fraction(0))


def norm(q, p: int, alpha: float = 1.0) -> float:
    """p^(-alpha v), v the valuation; 0 for zero."""
    return 0.0 if Fraction(q) == 0 else float(p) ** (-alpha * valuation(q, p))


def rotate_digits(q, p: int):
    """Each base-p digit of q in the unit ball plus one mod p, with no
    carries (the zero tail of a terminating q turns into ones): the
    listed digits below the period, then the turned period summed as a
    geometric series.  An int exactly when integral."""
    if not in_ball(q, p):
        raise ValueError("digit rotation is defined on the unit ball")
    v, _, preperiod, period = long_division(q, p)
    start, block = v + preperiod, period or (0,)
    head = sum((d + 1) % p * p**n for n, d in enumerate(digits(q, p, 0, start)))
    tail = sum((d + 1) % p * p**i for i, d in enumerate(block))
    r = head + Fraction(tail * p**start, 1 - p ** len(block))
    return r.numerator if r.denominator == 1 else r


# ---------------------------------------------------------------------------
# the solenoid group law and its metric


def group_add(f: tuple, g: tuple) -> tuple:
    """(xi, x) + (eta, y): the circle sum, its carry moved into the ball."""
    t, x = f[0] + g[0], f[1] + g[1]
    return (t - 1, x + 1) if t >= 1 else (t, x)


def group_neg(f: tuple) -> tuple:
    """The inverse: (0, -x) on the seam, (1 - xi, -(x + 1)) off it."""
    return (f[0], -f[1]) if f[0] == 0 else (1 - f[0], -(f[1] + 1))


def group_distance(f: tuple, g: tuple, p: int, alpha: float) -> float:
    """The shorter of the gauge lengths max(xi, |x|^alpha) of f - g and g - f."""
    def gauge(h: tuple) -> float:
        return max(float(h[0]), norm(h[1], p, alpha))

    return min(gauge(group_add(f, group_neg(g))), gauge(group_add(g, group_neg(f))))


# ---------------------------------------------------------------------------
# the series map, level by level


def characters(params, q, first: int, last: int) -> list[complex]:
    """chi_n(q) for n = first .. last: 1 below the valuation v, else
    e(A / p^(n-v+1)), A the integer formed by the digits at v .. n less
    those below n - m."""
    p, m = params.p, params.m
    v = valuation(q, p)
    ds = digits(q, p, v, last + 1) if v <= last else []
    chis = []
    sums, scale = [0], 1
    for n in range(min(first, v), last + 1):
        chi = 1.0 + 0.0j
        if n >= v:
            sums.append(sums[-1] + ds[n - v] * scale)
            scale *= p
            low = sums[n - v - m] if n - m >= v else 0
            chi = cmath.exp(2j * math.pi * ((sums[-1] - low) / scale))
        if n >= first:
            chis.append(chi)
    return chis


def left_sum(terms) -> complex:
    """sum(terms, 0j) as Python 3.10 to 3.12 compute it: left to right from 0j."""
    total = 0j
    for term in terms:
        total = total + term
    return total


def weighted(params, q, weight) -> tuple[complex, complex]:
    """(levels below 0, levels 0 .. depth) sums of weight(n) (chi_n - [n < 0])."""
    levels = range(min(valuation(q, params.p), 0), params.depth + 1)
    chis = characters(params, q, levels.start, levels.stop - 1)
    terms = [weight(n) * (chi - 1.0 if n < 0 else chi) for n, chi in zip(levels, chis)]
    return left_sum(terms[: -levels.start]), left_sum(terms[-levels.start :])


def parts(params, q) -> tuple[complex, complex]:
    """The (fractional, integral) parts of the series value at q."""
    s = params.s
    return weighted(params, q, lambda n: s**n)


def fiber_value(params, xi, q) -> complex:
    """The fiber series at (xi, q), its representative reduced to xi in
    [0, 1): level n couples by e(xi / p^(min(n, m)+1)) while n <= m + v."""
    whole = math.floor(xi)
    if whole:
        xi, q = xi - whole, q + whole
    p, m, s = params.p, params.m, params.s
    turn, top = 2j * math.pi * float(xi), m + valuation(q, p)

    def weight(n: int) -> complex:
        return s**n * (1.0 + 0.0j if n > top else cmath.exp(turn / p ** (min(n, m) + 1)))

    return weighted(params, q, weight)[1]


def same_bits(a: complex, b: complex) -> bool:
    """Equal, and equal in the sign of every zero part."""
    return a == b and all(math.copysign(1.0, u) == math.copysign(1.0, w)
                          for u, w in ((a.real, b.real), (a.imag, b.imag)))


def canonical(x) -> bool:
    """An int exactly when integral, as the package builds every value."""
    return (type(x) is int) is (Fraction(x).denominator == 1)


def reads_long_division(x, q, p: int) -> bool:
    """x is the rational q and the package reads q's valuation, expansion
    and digits at indices -12 .. 39 from its long division."""
    _, ds, preperiod, period = long_division(q, p)
    return (x == q and padic.valuation(x, p) == valuation(q, p)
            and padic.expansion(x, p) == (ds, preperiod, period)
            and padic.digit_run(x, p, -12, 40) == digits(q, p, -12, 40))


def same_value(x, q, p: int) -> bool:
    """reads_long_division, of a value the package built: an int exactly
    when integral."""
    return reads_long_division(x, q, p) and canonical(x)


# ---------------------------------------------------------------------------
# draws


BASES = st.sampled_from([2, 3, 5, 6])
ORDERS = st.sampled_from([0, 1, 3, 60, math.inf])  # m = 60 windows pass 2^53


@lru_cache(maxsize=None)
def rationals(p: int, unit_ball: bool = False):
    """Zero, integers held as int and as Fraction, periodic tails
    (denominators prime to p) and, off the unit ball, negative valuations
    (denominators sharing a factor with p)."""
    dens = [1, 7, 11, 13] if unit_ball else [1, 2, 3, 7, 9, 11, 12, 25, 49, p, p * p, 9 * p]
    return st.one_of(
        st.just(0),
        st.integers(-10**6, 10**6),
        st.builds(Fraction, st.integers(-10**6, 10**6)),
        st.builds(lambda n, d, k: Fraction(n * p**k, d), st.integers(-10**4, 10**4),
                  st.sampled_from(dens), st.integers(0, 3)),
        st.builds(lambda n, d, k: Fraction(n, d * p**k), st.integers(-500, 500),
                  st.sampled_from(dens), st.integers(0, 0 if unit_ball else 4)),
    )


@lru_cache(maxsize=None)
def terminating(p: int, low: int, high: int, digit=None, min_size: int = 0, max_size: int = 8):
    """Terminating values: a nonzero digit at an index in [low, high], then
    min_size to max_size digits drawn from `digit` (any digit by default)."""
    rest = st.integers(0, p - 1) if digit is None else digit
    return st.builds(lambda v, lead, tail: from_digits(p, v, (lead, *tail)),
                     st.integers(low, high), st.integers(1, p - 1),
                     st.lists(rest, min_size=min_size, max_size=max_size))


@st.composite
def window_edges(draw, p: int, m, depth: int) -> Fraction:
    """Terminating values whose lowest and highest digits are nonzero.  At
    finite order the last window, which ends at v + width - 1 + m, ends up
    to 4 levels below or past the depth, or at it."""
    width = draw(st.integers(1, 12))
    if m == math.inf:
        v = draw(st.integers(-3, 5))
    else:
        v = depth + draw(st.integers(-4, 4)) - m - width + 1
    ds = draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))
    ds[0], ds[-1] = ds[0] or 1, ds[-1] or p - 1
    return from_digits(p, v, ds)


@lru_cache(maxsize=None)
def high_digits(p: int, low: int, high: int):
    """Terminating values of the digits 0, 1 and p - 1, whose sums and
    rotations carry far or vanish."""
    return terminating(p, low, high, st.sampled_from([0, 1, p - 1]), max_size=6)


CIRCLE = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda den: Fraction(den - 1, den), st.sampled_from([2, 997, 10**9])),
    st.fractions(min_value=0, max_value=Fraction(996, 997), max_denominator=997),
)  # circle coordinates: the seam, just below one, and grid points

_GRID = st.builds(lambda den, num: Fraction(num % (den - 1) + 1, den),
                  st.sampled_from([2, 3, 10, 997]), st.integers(0, 995))
_SEAMS = st.sampled_from(["off", "equal", "f", "g", "both"])
_FIRST_XI = st.one_of(_GRID, CIRCLE)


@lru_cache(maxsize=None)
def _ball(p: int):
    """Unit-ball rationals and high-digit strings, whose sums carry far."""
    return st.one_of(rationals(p, unit_ball=True), high_digits(p, 0, 3))


@st.composite
def point_pairs(draw):
    """A base and two (xi, x) points of its solenoid: circle coordinates on a
    shared or a differing denominator, off the seam, equal, or with either
    one on the seam; x in the unit ball, an int exactly when integral."""
    p = draw(BASES)
    fxi = draw(_FIRST_XI)
    gxi = (fxi + draw(_GRID)) % 1
    seam = draw(_SEAMS)
    fxi = Fraction(0) if seam in ("f", "both") else fxi
    gxi = {"equal": fxi, "g": Fraction(0), "both": Fraction(0)}.get(seam, gxi)
    points = []
    for xi in (fxi, gxi):
        q = draw(_ball(p))
        points.append((xi, q.numerator if q.denominator == 1 else q))
    return p, points


def sandwich(params, n_pairs: int, depth: int, seed: int) -> dict:
    """sandwich_check over n_pairs seeded residue pairs below p^depth, the
    equal ones dropped: the draw of `verify --suite sandwich`."""
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(0, params.p**depth, size=n_pairs, dtype=np.int64) for _ in range(2))
    a, b = a[a != b], b[a != b]
    va, vb = (PlaneMap(params).values_on_residues(depth, codes=c) for c in (a, b))
    return sandwich_check(params, np.abs(va - vb), a - b, depth)
