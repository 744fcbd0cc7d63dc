"""Exact agreement with the paths that integral int values, the one-pass
series sum and the numerator/denominator comparisons replaced.

The references below are copies of the earlier code: a p-adic value that
always holds a Fraction, the group law and metric that compare Fractions
through their operators, and the series summed from a list of characters
and a list of terms.  Every result must be equal, not close.
"""

import cmath
import math
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from padic_fractal.complex_map import MapParams, PlaneMap
from padic_fractal.padic import PAdic, expand
from padic_fractal.solenoid import SolenoidParams, SolenoidPoint, TorusMap, add, distance, neg


# ---------------------------------------------------------------------------
# the Fraction-valued p-adic value


class FractionPAdic:
    """Reference: a base-p value whose `value` is always a Fraction."""

    def __init__(self, q, p: int, window: int):
        q = Fraction(q)
        v, num, den = 0, q.numerator, q.denominator
        g = math.gcd(den, p)
        while g > 1:
            num *= p // g
            den //= g
            v -= 1
            g = math.gcd(den, p)
        while num and num % p == 0:
            num //= p
            v += 1
        self.p, self.v, self.value, self._width = p, v, q, window

    def expansion(self):
        if self.is_zero():
            return (), 0, ()
        p = self.p
        unit = self.value / Fraction(p) ** self.v
        num, den = unit.numerator, unit.denominator
        binv = pow(den, -1, p)
        seen: dict[int, int] = {}
        stream: list[int] = []
        while num not in seen:
            seen[num] = len(stream)
            d = (num * binv) % p
            stream.append(d)
            num = (num - d * den) // p
        start = seen[num]
        block = stream[start:]
        width = max(self._width, start)
        digits = tuple((stream + block * width)[:width])
        if not any(block):
            return digits, 0, ()
        return digits, start, tuple(block)

    def is_zero(self) -> bool:
        return not self.value

    def valuation(self):
        return math.inf if self.is_zero() else self.v

    def norm(self, alpha: float = 1.0) -> float:
        if self.is_zero():
            return 0.0
        return float(self.p) ** (-alpha * self.v)

    def digit_run(self, lo: int, hi: int) -> list[int]:
        v = self.v
        if hi <= v:
            return [0] * max(hi - lo, 0)
        digits, preperiod, period = self.expansion()
        run = [0] * (v - lo) if lo < v else []
        start, stop = max(lo - v, 0), hi - v
        run += digits[start:stop]
        past = max(start, len(digits))
        if past < stop:
            if period:
                run += [period[(i - preperiod) % len(period)] for i in range(past, stop)]
            else:
                run += [0] * (stop - past)
        return run

    def split(self):
        if self.is_zero() or self.v >= 0:
            return Fraction(0), self
        unit, mod = self.value * self.p ** -self.v, self.p ** -self.v
        frac = Fraction(unit.numerator * pow(unit.denominator, -1, mod) % mod, mod)
        return frac, FractionPAdic(self.value - frac, self.p, max(self.v + self._width, 1))

    def _combine(self, other, q):
        if other.is_zero():
            return self
        a = other if self.is_zero() else self
        lo, hi = min(a.v, other.v), max(a.v + a._width, other.v + other._width)
        return FractionPAdic(q, self.p, max(hi - lo, 1))

    def __add__(self, other):
        return self._combine(other, self.value + other.value)

    def __sub__(self, other):
        return self._combine(other, self.value - other.value)

    def __neg__(self):
        return FractionPAdic(-self.value, self.p, self._width)


def old_one(p: int) -> FractionPAdic:
    return FractionPAdic(1, p, 1)


def same_value(x: PAdic, ref: FractionPAdic) -> bool:
    """Equal valuation, tail, value and digits at indices -12 .. 39, and the
    value type the contract names: the fields that no digit window moves."""
    _, preperiod, period = ref.expansion()
    integral = ref.value.denominator == 1
    return ((x.v, x.preperiod, x.period, x.value, x.digit_run(-12, 40))
            == (ref.v, preperiod, period, ref.value, ref.digit_run(-12, 40))
            and (type(x.value) is int) is integral and (type(x.value) is Fraction) is not integral)


def same(x: PAdic, ref: FractionPAdic) -> bool:
    """same_value, and the same digit window."""
    return same_value(x, ref) and x.digits == ref.expansion()[0]


# ---------------------------------------------------------------------------
# the group law and metric comparing Fractions through their operators


def old_add(f, g):
    """(xi, x) pairs: the sum with the carry read from t >= 1."""
    t = f[0] + g[0]
    x = f[1] + g[1]
    if t >= 1:
        return t - 1, x + old_one(x.p)
    return t, x


def old_neg(f):
    if f[0] == 0:
        return f[0], -f[1]
    return 1 - f[0], -(f[1] + old_one(f[1].p))


def old_distance(f, g, alpha: float) -> float:
    xi = (f[0] - g[0]) % 1
    x = f[1] - g[1]
    if f[0] < g[0]:
        x = x - old_one(x.p)
    length = max(float(xi), x.norm(alpha))
    if xi == 0:
        return length
    return min(length, max(float(1 - xi), (x + old_one(x.p)).norm(alpha)))


# ---------------------------------------------------------------------------
# the series summed from a list of characters and a list of terms


def old_characters(params: MapParams, x, first: int, last: int) -> list[complex]:
    p, m = params.p, params.m
    v = x.valuation()
    digits = x.digit_run(v, last + 1) if v <= last else []
    chis = []
    sums, scale = [0], 1
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


def left_sum(terms) -> complex:
    """sum(terms, 0j) as Python 3.10 to 3.12 compute it: left to right from 0j."""
    total = 0j
    for term in terms:
        total = total + term
    return total


def old_weighted(params: MapParams, x, weight) -> tuple[complex, complex]:
    levels = range(min(x.valuation(), 0), params.depth + 1)
    chis = old_characters(params, x, levels.start, levels.stop - 1)
    terms = [weight(n) * (chi - 1.0 if n < 0 else chi) for n, chi in zip(levels, chis)]
    return left_sum(terms[: -levels.start]), left_sum(terms[-levels.start :])


def old_parts(params: MapParams, x) -> tuple[complex, complex]:
    s = params.s
    return old_weighted(params, x, lambda n: s**n)


def old_fiber_value(params: MapParams, xi, x) -> complex:
    whole = math.floor(xi)
    if whole:
        xi = xi - whole
        x = x + FractionPAdic(whole, x.p, 1)
    p, m, s = params.p, params.m, params.s
    turn, top = 2j * math.pi * float(xi), m + x.valuation()

    def weight(n: int) -> complex:
        return s**n * (1.0 + 0.0j if n > top else cmath.exp(turn / p ** (min(n, m) + 1)))

    return old_weighted(params, x, weight)[1]


# ---------------------------------------------------------------------------
# draws


BASES = st.sampled_from([2, 3, 5, 6])
ORDERS = st.sampled_from([0, 1, 3, 60, math.inf])  # m = 60 windows pass 2^53


def rationals(p: int, unit_ball: bool = False):
    # zero, integers, periodic tails (denominators coprime to p) and, off the
    # unit ball, negative valuations (denominators sharing a factor with p)
    dens = [1, 7, 11, 13] if unit_ball else [1, 2, 3, 7, 9, 11, p, p * p, 9 * p]
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-10**6, 10**6)),
        st.builds(lambda n, d, k: Fraction(n * p**k, d), st.integers(-500, 500),
                  st.sampled_from(dens), st.integers(0, 3)),
        st.builds(lambda n, d, k: Fraction(n, d * p**k), st.integers(-500, 500),
                  st.sampled_from(dens), st.integers(0, 0 if unit_ball else 3)),
    )


def circle():
    # the seam, just below one, and grid points
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(lambda den: Fraction(den - 1, den), st.sampled_from([2, 997, 10**9])),
        st.fractions(min_value=0, max_value=Fraction(996, 997), max_denominator=997),
    )


def both(q, p: int, window: int):
    return expand(q, p, window), FractionPAdic(q, p, window)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_padic_arithmetic_matches_fraction_values(data):
    p = data.draw(BASES)
    a, b = data.draw(rationals(p)), data.draw(rationals(p))
    (xa, ra), (xb, rb) = (both(q, p, data.draw(st.integers(1, 12))) for q in (a, b))
    assert same(xa, ra) and same(xb, rb)
    assert same_value(xa + xb, ra + rb) and same_value(xa - xb, ra - rb) and same_value(-xa, -ra)
    (frac, integral), (old_frac, old_integral) = xa.split(), ra.split()
    assert frac == old_frac and type(frac) is Fraction and same_value(integral, old_integral)


def same_bits(a: complex, b: complex) -> bool:
    """Equal, and equal in the sign of every zero part."""
    return a == b and all(math.copysign(1.0, u) == math.copysign(1.0, w)
                          for u, w in ((a.real, b.real), (a.imag, b.imag)))


def terminating(data, p: int, m, depth: int) -> tuple[Fraction, int]:
    """A terminating value and its window width.  At finite order its last
    window, which ends at v + width - 1 + m, ends up to 4 levels below or
    past the depth, or at it; the lowest and the highest digit are nonzero."""
    width = data.draw(st.integers(1, 12))
    if m == math.inf:
        v = data.draw(st.integers(-3, 5))
    else:
        v = depth + data.draw(st.integers(-4, 4)) - m - width + 1
    digits = data.draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))
    digits[0], digits[-1] = digits[0] or 1, digits[-1] or p - 1
    return sum(Fraction(d) * Fraction(p) ** (v + i) for i, d in enumerate(digits)), width


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_series_matches_two_pass_sums(data):
    # depth 60 is the benchmark checks' oracle depth
    p, m = data.draw(BASES), data.draw(ORDERS)
    s = data.draw(st.sampled_from([0.25, 0.3 + 0.2j, -0.35, 0.1 - 0.45j]))
    params = MapParams(p=p, m=m, s=s, depth=data.draw(st.integers(1, 60)))
    if data.draw(st.booleans()):
        q, width = terminating(data, p, m, params.depth)
    else:
        q, width = data.draw(rationals(p)), data.draw(st.integers(1, 16))
    xi = data.draw(st.one_of(circle(), st.fractions(-2, 3, max_denominator=997),
                             st.floats(0, 1, exclude_max=True)))
    pm, tm = PlaneMap(params), TorusMap(SolenoidParams(map=params, a=2.0))
    for x, ref in (both(q, p, width), both(0, p, 1)):
        parts, want = pm.parts(x), old_parts(params, ref)
        assert same_bits(parts[0], want[0]) and same_bits(parts[1], want[1])
        assert same_bits(pm.value(x), sum(want))
        for n in range(min(x.valuation(), 0) - 1, params.depth + 3):
            assert same_bits(pm.character(x, n), old_characters(params, ref, n, n)[0])
        assert same_bits(tm.fiber_value(xi, x), old_fiber_value(params, xi, ref))


@given(data=st.data(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=200, deadline=None)
def test_group_law_and_metric_match_fraction_operators(data, alpha):
    p = data.draw(BASES)
    pts = []
    for _ in range(2):
        xi, q = data.draw(circle()), data.draw(rationals(p, unit_ball=True))
        x, ref = both(q, p, data.draw(st.integers(1, 12)))
        pts.append((SolenoidPoint(xi, x), (xi, ref)))
    (f, rf), (g, rg) = pts
    for got, want in ((add(f, g), old_add(rf, rg)), (neg(f), old_neg(rf)),
                      (add(f, neg(g)), old_add(rf, old_neg(rg)))):
        assert got.xi == want[0] and type(got.xi) is Fraction and same_value(got.x, want[1])
    assert distance(f, g, alpha) == old_distance(rf, rg, alpha)
    assert distance(g, f, alpha) == old_distance(rg, rf, alpha)


@given(p=BASES, q=st.fractions(max_denominator=10**4), window=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_value_is_an_int_exactly_when_integral(p, q, window):
    value = expand(q, p, window).value
    if q.denominator == 1:
        assert type(value) is int and value == q.numerator
    else:
        assert type(value) is Fraction and (value.numerator, value.denominator) == (
            q.numerator, q.denominator)


@given(p=BASES, n=st.integers(-10**6, 10**6), window=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_int_and_fraction_values_read_alike(p, n, window):
    x = expand(n, p, window)
    y = object.__new__(PAdic)
    vars(y).update(vars(x), value=Fraction(n))  # the same value held as a Fraction
    assert type(x.value) is int and type(y.value) is Fraction
    assert x == y and hash(x) == hash(y) and str(x) == str(y) and repr(x) == repr(y)
    assert x == expand(Fraction(n * 3, 3), p, window) and x.value == n
