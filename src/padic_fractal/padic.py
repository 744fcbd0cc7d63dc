"""Base-p digit expansions of rational numbers.

Every value is its exact rational (an int when integral, so integers stay
on int arithmetic).  The valuation comes from the p-multiplicity of the
rational, and the digits, the preperiod and the repeating block are derived
from it by long division on first use.  So each arithmetic operation
computes one rational.

The base p may be any integer >= 2; nothing here requires inverses of p,
so composite bases work throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Union

Rational = Union[int, Fraction]

__all__ = ["PAdic", "expand", "from_int"]


class PAdic:
    """One base-p number: a digit window from the valuation upward.

    digits[i] is the coefficient of p**(v + i) and `value` is the exact
    rational: an int exactly when it is integral, else a lowest-terms
    Fraction (the two agree in ==, hash, str and repr).  For periodic
    tails, `period` repeats starting at window offset `preperiod`.  Values
    come from expand() and from_int(), whose window width `_width` pads
    the digits; sums, differences, negations and splits have width 1, so
    their digits run from the valuation through the preperiod.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PAdic is immutable; cannot set {name!r}")

    @cached_property
    def _expansion(self) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
        """(digits, preperiod, period) of the rational.

        Long division of the unit part num/den (den coprime to p) yields
        the digits; the repeating block starts where a remainder recurs,
        and an all-zero block means the expansion terminates.
        """
        if self.is_zero():
            return (), 0, ()
        p = self.p
        num, den = self._unit
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

    @property
    def digits(self) -> tuple[int, ...]:
        return self._expansion[0]

    @property
    def preperiod(self) -> int:
        return self._expansion[1]

    @property
    def period(self) -> tuple[int, ...]:
        return self._expansion[2]

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.value

    def valuation(self) -> int | float:
        """Index of the lowest nonzero digit; +inf for the zero element."""
        return math.inf if self.is_zero() else self.v

    def norm(self, alpha: float = 1.0) -> float:
        """p**(-alpha * valuation); zero maps to 0 by convention."""
        if self.is_zero():
            return 0.0
        return float(self.p) ** (-alpha * self.v)

    def digit(self, n: int) -> int:
        """Digit at index n, extending through a known tail if needed."""
        return self.digit_run(n, n + 1)[0]

    def digit_run(self, lo: int, hi: int) -> list[int]:
        """The digits at indices lo .. hi-1, as digit(n) gives them one by
        one: zeros below the valuation, then the stored window, then the
        tail (the period, or zeros)."""
        v = self.v
        if hi <= v:
            return [0] * max(hi - lo, 0)
        digits, preperiod, period = self._expansion
        run = [0] * (v - lo) if lo < v else []
        start, stop = max(lo - v, 0), hi - v
        run += digits[start:stop]
        past = max(start, len(digits))  # first window offset not stored
        if past < stop:
            if period:
                run += [period[(i - preperiod) % len(period)] for i in range(past, stop)]
            else:
                run += [0] * (stop - past)
        return run

    # -- structure -------------------------------------------------------

    def split(self) -> tuple[Fraction, "PAdic"]:
        """Fractional part in Q intersect [0, 1) and the integral remainder."""
        if self.v >= 0:  # zero has v = 0
            return Fraction(0), _from_rational(self.value, self.p)
        # the -v digits below p^0 are the unit part's residue mod p^-v
        (num, den), mod = self._unit, self.p ** -self.v
        frac = Fraction(num * pow(den, -1, mod) % mod, mod)
        return frac, _from_rational(self.value - frac, self.p)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "PAdic") -> None:
        if not isinstance(other, PAdic):
            raise TypeError(f"expected PAdic, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"incompatible bases {self.p} and {other.p}")

    def __add__(self, other: "PAdic") -> "PAdic":
        self._check_compatible(other)
        return _from_rational(self.value + other.value, self.p)

    def __sub__(self, other: "PAdic") -> "PAdic":
        self._check_compatible(other)
        return _from_rational(self.value - other.value, self.p)

    def __neg__(self) -> "PAdic":
        return _from_rational(-self.value, self.p)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PAdic):
            return NotImplemented
        return (self.p, self.value) == (other.p, other.value)

    def __hash__(self) -> int:
        return hash((self.p, self.value))

    def __str__(self) -> str:
        if self.is_zero():
            return f"0 (base {self.p})"
        body = " ".join(str(d) for d in self.digits)
        tail = " period " + " ".join(str(d) for d in self.period) if self.period else ""
        return f"({body}){tail} * {self.p}^{self.v}"

    def __repr__(self) -> str:
        return f"PAdic(p={self.p}, v={self.v}, digits={self.digits}, value={self.value})"


def _from_rational(q: Rational, p: int, window: int = 1) -> PAdic:
    """The value q, an int when integral, with the given window width.

    The valuation v is pulled out of q: denominator factors sharing a
    divisor g with p are absorbed by multiplying through with p/g, each
    lowering v, and factors of p left in the numerator raise it.  After
    that q = p^v num/den with den coprime to p and num/den in lowest
    terms: the unit part that the long division and split() read.
    """
    v = 0
    if type(q) is int:  # den = 1 shares no factor with p
        num, den = q, 1
    else:
        num, den = q.numerator, q.denominator
        q = num if den == 1 else q
        g = math.gcd(den, p)
        while g > 1:
            num *= p // g
            den //= g
            v -= 1
            g = math.gcd(den, p)
    while num and num % p == 0:
        num //= p
        v += 1
    x = object.__new__(PAdic)
    fields = x.__dict__  # PAdic refuses attribute assignment
    fields["p"], fields["v"], fields["value"] = p, v, q
    fields["_width"], fields["_unit"] = window, (num, den)
    return x


def expand(q: Rational, p: int, window: int) -> PAdic:
    """Digit expansion of a rational in base p with the given window width.

    The window holds at least `window` digits from the valuation upward,
    and at least the whole preperiod; the repeating block is detected
    from the remainder cycle of the long division.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if p < 2:
        raise ValueError("base must be >= 2")
    return _from_rational(q if isinstance(q, int) else Fraction(q), p, window)


def from_int(n: int, p: int, window: int | None = None) -> PAdic:
    """Construction from an integer (negative ints repeat p-1): the
    window holds the integer's digits, padded to `window` (default 1)."""
    return expand(n, p, 1 if window is None else window)

