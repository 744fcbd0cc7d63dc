"""Independent definitions that the tests hold the package to.

Each is written from its definition, not from the package's code:

- long division: the valuation, the base-p digits of a rational and where
  they repeat, in Fraction arithmetic;
- the solenoid group law on (xi, x) pairs of rationals, with the carry read
  from xi >= 1, and the distance from its definition, the shorter of the two
  gauge lengths max(xi, |x|^alpha) of f - g and g - f;
- the series map summed level by level from lists of characters and terms,
  each character read from the digits under its level: the bit-level
  reference of the scalar series, its parts and the torus fibers.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache


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
