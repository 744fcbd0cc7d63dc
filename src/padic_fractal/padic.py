"""Base-p digit expansions of rational numbers.

Every value is a rational q and the first digit index `top` that is not
known.  An exact value knows every digit (top = inf) and also keeps the
window width it was requested with; a truncated value is the digit
window below top, and q is the value of that window.  The valuation
comes from the p-multiplicity of q, and the digit window, the preperiod
and the repeating block are derived from q by long division on first
use.  So arithmetic is rational arithmetic for both kinds: each
operation computes one rational, and a truncated result keeps only the
digits below the lowest top its operands know.

The base p may be any integer >= 2; nothing here requires inverses of p,
so composite bases work throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Union

Rational = Union[int, Fraction]

__all__ = ["PAdic", "PrecisionError", "expand", "from_int", "residues"]


class PrecisionError(Exception):
    """An operation needed digits beyond a truncated window."""


class PAdic:
    """One base-p number: a digit window from the valuation upward.

    digits[i] is the coefficient of p**(v + i).  `value` is the exact
    rational when the tail is known, None when truncated.  For periodic
    tails, `period` repeats starting at window offset `preperiod`.
    PAdic(p, v, digits) builds a truncated value; exact values come from
    expand() and from_int().  Either kind holds its rational `_q` (for a
    truncated value, the value of its window) and `_top`, the first digit
    index not known, and its digits come only from those two.
    """

    def __init__(self, p: int, v: int, digits: tuple[int, ...]) -> None:
        digits = tuple(digits)
        if p < 2:
            raise ValueError(f"base must be >= 2, got {p}")
        if any(not 0 <= d < p for d in digits):
            raise ValueError("digit out of range for the base")
        if not digits:
            raise ValueError("empty digit window is reserved for exact zero")
        if digits[0] == 0:
            raise ValueError("lowest stored digit must be nonzero")
        r = 0
        for d in reversed(digits):
            r = r * p + d
        vars(self).update(
            p=p, v=v, value=None, _q=r * Fraction(p) ** v, _top=v + len(digits),
            _width=len(digits), _zero=False, _expansion=(digits, 0, ()),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PAdic is immutable; cannot set {name!r}")

    @cached_property
    def _expansion(self) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
        """(digits, preperiod, period) of the rational.

        Long division of the unit part num/den (den coprime to p) yields
        the digits; the repeating block starts where a remainder recurs,
        and an all-zero block means the expansion terminates (as it does
        for a truncated value, whose width reaches its top).
        """
        if self.is_zero():
            return (), 0, ()
        p = self.p
        unit = self._q / Fraction(p) ** self.v
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
        return self._zero

    @property
    def exactness(self) -> str:
        if self.value is None:
            return "truncated"
        return "periodic" if self.period else "zero"

    def valuation(self) -> int | float:
        """Index of the lowest nonzero digit; +inf for the zero element."""
        return math.inf if self.is_zero() else self.v

    def norm(self, alpha: float = 1.0) -> float:
        """p**(-alpha * valuation); zero maps to 0 by convention."""
        if self.is_zero():
            return 0.0
        return float(self.p) ** (-alpha * self.v)

    @property
    def window_top(self) -> int:
        """First digit index not covered by the stored window."""
        return self.v + len(self.digits)

    def digit(self, n: int) -> int:
        """Digit at index n, extending through a known tail if needed."""
        return self.digit_run(n, n + 1)[0]

    def digit_run(self, lo: int, hi: int) -> list[int]:
        """The digits at indices lo .. hi-1, as digit(n) gives them one by
        one: zeros below the valuation, then the stored window, then the
        known tail; past a truncated window it raises PrecisionError."""
        v, top = self.v, self._top
        if hi > top and hi > lo:
            raise PrecisionError(
                f"digit at p^{max(lo, top)} lies beyond the truncated window [{v}, {top})"
            )
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
        if self.is_zero() or self.v >= 0:
            return Fraction(0), self
        if self._top < 0:
            self.digit_run(self.v, 0)  # raises at the first unknown digit below p^0
        # the -v digits below p^0 are the unit part's residue mod p^-v
        unit, mod = self._q * self.p ** -self.v, self.p ** -self.v
        frac = Fraction(unit.numerator * pow(unit.denominator, -1, mod) % mod, mod)
        return frac, _from_rational(
            self._q - frac, self.p, self._top, max(self.v + self._width, 1),
            "integral part vanishes across the window",
        )

    def residue(self, depth: int) -> int:
        """The integer in [0, p^depth) congruent to this unit-ball element."""
        if self.v < 0:  # zero has v = 0
            raise ValueError("residue is defined on the unit ball only")
        return sum(d * self.p**n for n, d in enumerate(self.digit_run(0, depth)))

    def shift(self, k: int) -> "PAdic":
        """Multiply by p**k (digit shift; the window moves with it)."""
        if self.is_zero() or k == 0:
            return self
        return _from_rational(self._q * Fraction(self.p) ** k, self.p, self._top + k, self._width)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "PAdic") -> None:
        if not isinstance(other, PAdic):
            raise TypeError(f"expected PAdic, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"incompatible bases {self.p} and {other.p}")

    def __add__(self, other: "PAdic") -> "PAdic":
        self._check_compatible(other)
        return self._combine(other, self._q + other._q)

    def __sub__(self, other: "PAdic") -> "PAdic":
        self._check_compatible(other)
        return self._combine(other, self._q - other._q)

    def _combine(self, other: "PAdic", q: Fraction) -> "PAdic":
        """The sum or difference q of self and other, known below the lower
        window top of the two (each top lies above its own valuation, so
        the windows always share digits).  A zero operand adds nothing; a
        zero self takes other's valuation, width and top, which negation
        keeps."""
        if other.is_zero():
            return self
        a = other if self.is_zero() else self
        lo, hi = min(a.v, other.v), max(a.v + a._width, other.v + other._width)
        return _from_rational(
            q, self.p, min(a._top, other._top), max(hi - lo, 1),
            "sum vanishes across the shared window; valuation undetermined",
        )

    def __neg__(self) -> "PAdic":
        return _from_rational(-self._q, self.p, self._top, self._width)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PAdic):
            return NotImplemented
        return (self.p, self._q, self._top) == (other.p, other._q, other._top)

    def __hash__(self) -> int:
        return hash((self.p, self._q, self._top))

    def __str__(self) -> str:
        if self.is_zero():
            return f"0 (base {self.p})"
        body = " ".join(str(d) for d in self.digits)
        tail = {"zero": "", "truncated": " ...?", "periodic": ""}[self.exactness]
        if self.period:
            tail = " period " + " ".join(str(d) for d in self.period)
        return f"({body}){tail} * {self.p}^{self.v}"

    def __repr__(self) -> str:
        return (
            f"PAdic(p={self.p}, v={self.v}, digits={self.digits}, "
            f"exactness={self.exactness!r})"
        )


def _from_rational(q: Fraction, p: int, top: float, window: int, why: str = "") -> PAdic:
    """The value q known below p^top: exact with the given window width
    when top is inf, else truncated to its digits below top.

    The valuation v is pulled out of q: denominator factors sharing a
    divisor g with p are absorbed by multiplying through with p/g, each
    lowering v, and factors of p left in the numerator raise it.  After
    that q = p^v num/den with den coprime to p, which is what the long
    division behind the digits needs.  The digits of q below top are the
    unit part's residue mod p^(top - v); with none of them nonzero the
    valuation is unknown, and PrecisionError(why) is raised.
    """
    v = 0
    num, den = q.numerator, q.denominator
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
    if top == math.inf:
        vars(x).update(p=p, v=v, value=q, _q=q, _top=top, _width=window, _zero=not num)
        return x
    if not num or v >= top:
        raise PrecisionError(why)
    mod = p ** (top - v)
    r = num * pow(den, -1, mod) % mod
    vars(x).update(
        p=p, v=v, value=None, _q=r * Fraction(p) ** v, _top=top, _width=top - v, _zero=False,
    )
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
    return _from_rational(Fraction(q), p, math.inf, window)


def from_int(n: int, p: int, window: int | None = None) -> PAdic:
    """Construction from an integer (negative ints repeat p-1): the
    window holds the integer's digits, padded to `window` (default 1)."""
    return expand(n, p, 1 if window is None else window)


def residues(p: int, depth: int) -> Iterator[PAdic]:
    """Every residue class mod p^depth exactly once, in ascending order.

    This is the uniform sampling of the unit ball at resolution
    p**(-depth): each ball l + p^k Z_p with k <= depth receives exactly
    p^(depth-k) of the enumerated points.
    """
    for r in range(p**depth):
        yield from_int(r, p, depth)
