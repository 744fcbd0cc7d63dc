"""Base-p digit expansions of rational numbers.

A value is its exact rational: an int exactly when it is integral, else a
lowest-terms Fraction.  The rationals are exactly the numbers whose base-p
expansions are eventually periodic, so the base-p structure of a value q is
a set of functions of (q, p), all built on one routine, `_valuation`: the
valuation and the norm, the expansion (digits, preperiod and period, by
long division), a run of digits, and the split into fractional and
integral parts.

The base p may be any integer >= 2; nothing here requires inverses of p,
so composite bases work throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]
Expansion = tuple[int, tuple[int, ...], int, tuple[int, ...]]

__all__ = ["expand", "from_int", "valuation", "norm", "expansion", "digit_run", "split"]


def _valuation(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(v, num', den') with num/den = p^v num'/den', den' prime to p and p not
    dividing num' (v = 0 at zero), for num/den in any terms: a factor g of den
    shared with p is absorbed through p/g, lowering v; p in num raises it."""
    v, g = 0, math.gcd(den, p)
    while g > 1:
        num, den, v = num * (p // g), den // g, v - 1
        g = math.gcd(den, p)
    while num and num % p == 0:
        num, v = num // p, v + 1
    return v, num, den


def valuation(q: Rational, p: int) -> int | float:
    """Index of the lowest nonzero digit; +inf for zero."""
    return _valuation(q.numerator, q.denominator, p)[0] if q else math.inf


def _norm(num: int, den: int, p: int, alpha: float) -> float:
    """p**(-alpha * v) of num/den in any terms, v its valuation; 0 for zero."""
    return float(p) ** (-alpha * _valuation(num, den, p)[0]) if num else 0.0


def norm(q: Rational, p: int, alpha: float = 1.0) -> float:
    """p**(-alpha * valuation); zero maps to 0 by convention."""
    return _norm(q.numerator, q.denominator, p, alpha)


def _expansion(q: Rational, p: int) -> Expansion:
    """(v, digits, preperiod, period) of q, v = 0 for zero.

    Long division of the unit part num/den (den prime to p) yields the
    digits; the repeating block starts where a remainder recurs, and the
    remainder 0 recurring means the expansion terminates.
    """
    if not q:
        return 0, (), 0, ()
    v, num, den = _valuation(q.numerator, q.denominator, p)
    binv = pow(den, -1, p)
    seen: dict[int, int] = {}
    stream: list[int] = []
    while num not in seen:
        seen[num] = len(stream)
        d = num * binv % p
        stream.append(d)
        num = (num - d * den) // p
    start = seen[num]
    if not num:  # stream[start] is the first of the zeros
        return v, tuple(stream[:start]), start, ()
    return v, tuple(stream), start, tuple(stream[start:])


def expansion(q: Rational, p: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(digits, preperiod, period) of q from its valuation upward.

    From offset preperiod on the digits repeat `period`, or are all zero when
    period is empty (a terminating expansion, whose preperiod is its length).
    `digits` runs through the first copy of the period: it is every digit
    before the repeating zeros or the second copy.  Zero has none.
    """
    return _expansion(q, p)[1:]


def _digit_run(exp: Expansion, lo: int, hi: int) -> list[int]:
    """digit_run of the value whose _expansion is exp."""
    v, digits, preperiod, period = exp
    if hi <= v:
        return [0] * max(hi - lo, 0)
    run = [0] * (v - lo) if lo < v else []
    start, stop = max(lo - v, 0), hi - v
    run += digits[start:stop]
    past = max(start, len(digits))  # first offset past the listed digits
    if past < stop:
        if period:
            run += [period[(i - preperiod) % len(period)] for i in range(past, stop)]
        else:
            run += [0] * (stop - past)
    return run


def digit_run(q: Rational, p: int, lo: int, hi: int) -> list[int]:
    """The digits of q at indices lo .. hi-1: zeros below the valuation, then
    the listed digits, then the tail (the period, or zeros)."""
    return _digit_run(_expansion(q, p), lo, hi)


def split(q: Rational, p: int) -> tuple[Fraction, Rational]:
    """Fractional part in Q intersect [0, 1) and the integral remainder: of
    q = num/(den p^-v), with r = num/den mod p^-v its digits below p^0, they
    are r/p^-v and whole/den, whole = (num - r den)/p^-v exactly."""
    v, num, den = _valuation(q.numerator, q.denominator, p)
    if v >= 0:  # zero has v = 0
        return Fraction(0), q.numerator if q.denominator == 1 else q
    mod = p**-v
    r = num * pow(den, -1, mod) % mod
    whole = (num - r * den) // mod
    return Fraction(r, mod), Fraction(whole, den) if den > 1 else whole


def expand(q: Rational, p: int, window: int) -> Rational:
    """The rational q as a base-p value: an int exactly when it is integral,
    else a lowest-terms Fraction.  The base must be >= 2 and the window
    >= 1; the window has no other effect, as every digit is read from the
    rational.  The package builds its values as ints and Fractions directly;
    this and `from_int` remain for the benchmark's checks
    (perfbench/checks.py)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if p < 2:
        raise ValueError("base must be >= 2")
    if isinstance(q, int):
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def from_int(n: int, p: int, window: int | None = None) -> Rational:
    """The integer n as a base-p value (negative ints repeat p-1), with
    expand's checks; window defaults to 1.  Kept, as `expand` is, for the
    benchmark's checks."""
    return expand(n, p, 1 if window is None else window)
