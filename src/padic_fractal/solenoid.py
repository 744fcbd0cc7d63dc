"""The base-p solenoid: carry group on [0,1) x (unit ball), its metric,
the series map into the solid torus, and the flow vector field.

Points keep the circle coordinate as a lowest-terms pair of ints and the
ball coordinate as an exact rational, so the group axioms hold exactly and
need no base.  The group law computes on those ints and builds each result
through one constructor, which reduces the pair by one gcd; floats appear
only when distances or embeddings are evaluated, which read p from their
arguments or their map.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .complex_map import (
    EmbeddingCertificate,
    MapParams,
    PlaneMap,
    character_table,
    residue_digit_matrix,
    _class_separation,
    _guard_pairs,
    _guard_rows,
    _search_certificate,
)
from .padic import Rational, _norm, _split

__all__ = [
    "SolenoidPoint",
    "SolenoidParams",
    "TorusMap",
    "add",
    "neg",
    "distance",
    "from_padic",
    "orbit",
    "limit_to_space",
    "gamma_estimate",
    "delta_tilde_certificate",
]


class SolenoidPoint:
    """A pair (circle coordinate xi in [0,1), rational x of the unit ball),
    immutable.  xi is held as its lowest-terms numerator and denominator and
    read as a Fraction; x is an int exactly when integral, else a lowest-terms
    Fraction.  Both are read exactly: numpy ints as ints and floats as the
    rationals they hold.  The unit ball depends on the base, so `distance`
    and `TorusMap.embed`, which know it, check the second coordinate."""

    __slots__ = ("_n", "_d", "_x")

    def __init__(self, xi: Rational | float, x: Rational | float) -> None:
        xi = _exact(xi, "circle")
        n, d = (xi, 1) if type(xi) is int else (xi.numerator, xi.denominator)
        if not 0 <= n < d:
            raise ValueError(f"circle coordinate must lie in [0,1), got {xi}")
        self._n, self._d, self._x = n, d, _exact(x, "second")

    @property
    def xi(self) -> Fraction:
        return Fraction(self._n, self._d)

    @property
    def x(self) -> Rational:
        return self._x

    def __eq__(self, other: object) -> bool:
        if type(other) is not SolenoidPoint:
            return NotImplemented
        return self._n == other._n and self._d == other._d and self._x == other._x

    def __hash__(self) -> int:
        return hash((self._n, self._d, self._x))

    def __repr__(self) -> str:
        return f"SolenoidPoint(xi={self.xi!r}, x={self._x!r})"


def _exact(v, name: str) -> Rational:
    """v as an exact rational, an int exactly when integral: ints and
    Fractions as they are, numpy ints as ints, floats of any width as the
    rationals they hold; NaN and the infinities are refused."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        if isinstance(v, numbers.Integral):
            return int(v)
        if not isinstance(v, numbers.Rational):
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"{name} coordinate must be finite, got {v}")
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _point(n: int, d: int, x: Rational) -> SolenoidPoint:
    """The point (n/d, x) of 0 <= n < d in any terms and x a sum of canonical
    values, built as the constructor would without its checks: n/d reduced by
    one gcd, x an int when integral."""
    g = math.gcd(n, d)
    f = object.__new__(SolenoidPoint)
    f._n, f._d = n // g, d // g
    f._x = x if type(x) is int or x.denominator != 1 else x.numerator
    return f


def _check_ball(x: Rational, p: int) -> None:
    """Refuse x off the unit ball of base p: its valuation is negative
    exactly when its lowest-terms denominator shares a factor with p."""
    if math.gcd(x.denominator, p) > 1:
        raise ValueError("second coordinate must lie in the unit ball")


def _circle_sum(f: SolenoidPoint, g: SolenoidPoint, sign: int) -> tuple[int, int]:
    """f.xi + sign g.xi as an unreduced pair of ints, over a shared denominator as is."""
    n, d, m, e = f._n, f._d, g._n, g._d
    return (n + sign * m, d) if d == e else (n * e + sign * m * d, d * e)


def add(f: SolenoidPoint, g: SolenoidPoint) -> SolenoidPoint:
    """Component sum with the real carry moved into the ball coordinate: the
    circle sum n/d in [0, 2) carries when n >= d."""
    n, d = _circle_sum(f, g, 1)
    if n >= d:
        return _point(n - d, d, f._x + g._x + 1)
    return _point(n, d, f._x + g._x)


def neg(f: SolenoidPoint) -> SolenoidPoint:
    """Group inverse: (1-xi, -x-1) off the seam, (0, -x) on it."""
    n, d = f._n, f._d
    return _point(d - n, d, -1 - f._x) if n else _point(0, 1, -f._x)


def distance(f: SolenoidPoint, g: SolenoidPoint, p: int, alpha: float = 1.0) -> float:
    """Invariant metric: the shorter of the two one-sided gauge lengths.

    The difference f - g is (xi, x) with xi = frac(f.xi - g.xi) and
    x = f.x - g.x - [f.xi < g.xi]; its group inverse is (0, -x) on the
    seam and (1 - xi, -(x + 1)) off it, and -y has the norm of y.  Both
    are read from unreduced ints, building nothing: int / int is correctly
    rounded, and a valuation does not depend on the representation.  Both
    second coordinates must lie in the unit ball of base p.
    """
    _check_ball(f._x, p)
    _check_ball(g._x, p)
    num, den = _circle_sum(f, g, -1)
    q = f._x - g._x
    n, d = q.numerator, q.denominator
    if num < 0:  # f.xi < g.xi: frac(xi) = xi + 1
        num, n = num + den, n - d
    length = max(num / den, _norm(n, d, p, alpha))
    if not num:
        return length
    return min(length, max((den - num) / den, _norm(n + d, d, p, alpha)))


def from_padic(q: Rational, p: int) -> SolenoidPoint:
    """Injective homomorphism: split into (fractional part, integral part)."""
    return _point(*_split(q, p))


def orbit(f: SolenoidPoint, t: float | Fraction) -> SolenoidPoint:
    """Time-t translate along the line winding through the solenoid."""
    t = Fraction(t)
    whole, r = divmod(t.numerator, t.denominator)
    return add(f, _point(r, t.denominator, whole))


@dataclass(frozen=True)
class SolenoidParams:
    """The series map and the torus radius a.

    The chart scales a fiber value z, |z| <= r_s = 1/(1-|s|), by 1/a and
    its coordinates lie within |a| + r_s of the axis; so r_s/|a| and the
    image's diameter 2 (|a| + r_s) must stay in the float range.
    """

    map: MapParams
    a: complex = 2.0

    def __post_init__(self) -> None:
        a = complex(self.a)
        object.__setattr__(self, "a", a)
        r, top = self.map.contraction_radius, sys.float_info.max
        if not r / top <= math.hypot(a.real, a.imag) <= top / 2 - r:
            raise ValueError(f"torus radius a={a} is outside the range the chart represents "
                             f"at |s|={abs(self.map.s):.6g}: {r / top:.6g} <= |a| <= "
                             f"{top / 2 - r:.6g}")


def limit_to_space(xi: float, z: complex, direction: complex) -> np.ndarray:
    """Small-radius limit of the torus chart: the tube collapses onto
    the plane through the vertical axis at angle 2 pi xi."""
    if abs(abs(direction) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit complex number")
    w = z * direction.conjugate()
    ring = cmath.exp(2j * math.pi * xi) * w.real
    return np.array([ring.real, w.imag, ring.imag])


class TorusMap:
    """Series map of the solenoid into a solid torus in 3-space."""

    def __init__(self, params: SolenoidParams):
        self.params = params
        self.plane = PlaneMap(params.map)

    # -- the complex-valued layer ------------------------------------------

    def fiber_value(self, xi: float | Fraction, x: Rational) -> complex:
        """Fiberwise series value; representatives are reduced first, so
        the result is constant on cosets (xi+l, x-l) by construction.  Level
        n couples to the circle by e(xi / p^(min(n, m)+1)) while n <= m + v,
        the window the ball coordinate can feel (always at m = inf or for 0)."""
        whole = math.floor(xi)
        if whole:
            xi = xi - whole
            x = x + whole
        return self.plane._weighted(x, float(xi))[1]

    def _fibers(self, xis: np.ndarray, depth: int) -> np.ndarray:
        """Fiber series at each circle coordinate (rows) over every
        residue at the given depth (columns).

        The characters do not depend on xi, so one table of s^n chi_n
        serves every fiber: the fibers are coupling(xi x level) @ terms.
        The coupling of level n is on while n <= m + v, v the residue's
        valuation: while p^(n-m) divides it (only zero, below p^depth, is
        divisible by p^depth), so always at infinite order.
        """
        params = self.params.map
        p, m = params.p, params.m
        _guard_rows(p, depth, len(xis))
        ns = np.arange(params.depth + 1)
        chars = character_table(residue_digit_matrix(p, depth), 0, params)
        terms = params.s ** ns[:, None] * chars
        turns = 2j * math.pi * np.asarray(xis, dtype=np.float64)[:, None]
        shift = np.clip(ns - m, 0, depth).astype(np.int64)
        on = np.arange(p**depth, dtype=np.int64) % p ** shift[:, None] == 0
        top = int(min(params.depth, m))  # the levels past m share the divisor p^(m+1)
        coupling = np.exp(turns / float(p) ** np.arange(1, top + 2))[:, np.minimum(ns, top)]
        return coupling @ np.where(on, terms, 0) + np.where(on, 0, terms).sum(axis=0)

    # -- the chart into 3-space ---------------------------------------------

    def to_space(self, xi, z) -> np.ndarray:
        """Torus chart: ring angle 2 pi xi, tube displacement z measured
        relative to the complex parameter a.  xi broadcasts against z and
        the coordinates go on a new last axis."""
        a = self.params.a
        w = np.asarray(z) / a
        out = np.empty(np.broadcast_shapes(np.shape(xi), w.shape) + (3,))
        np.multiply(abs(a), w.imag, out=out[..., 1])
        w = np.add(w.real, 1.0, out=out[..., 0])  # 1 + Re w in place; the quotient is freed
        ring = np.exp(2j * math.pi * np.asarray(xi, dtype=np.float64)) * abs(a) * w
        out[..., 0], out[..., 2] = ring.real, ring.imag
        return out

    def embed(self, f: SolenoidPoint) -> np.ndarray:
        """Full embedding of one solenoid point of the unit ball."""
        _check_ball(f.x, self.params.map.p)
        return self.to_space(float(f.xi), self.fiber_value(f.xi, f.x))

    def cloud(self, xi_count: int, depth: int) -> np.ndarray:
        """(xi_count * p^depth, 3) points of the fibers at xi = i/xi_count over
        every residue below p^depth, xi-major: row i is fiber i // p^depth at
        residue i % p^depth."""
        xis = np.arange(xi_count) / xi_count
        return self.to_space(xis[:, None], self._fibers(xis, depth)).reshape(-1, 3)

    # -- dynamics -------------------------------------------------------------

    def scaled(self, factor: complex) -> "TorusMap":
        prm = self.params.map
        return TorusMap(replace(self.params, map=replace(prm, s=prm.s * factor)))

    def vector_field(self, f: SolenoidPoint) -> np.ndarray:
        """Velocity of the embedded flow at the image of f.

        Composed of the rigid rotation about the vertical axis plus the
        collapsed-tube image of the scaled map (series parameter s/p)
        weighted by the level -1 circle character exp(2 pi i xi).  The
        relative sign of the two terms is fixed by the central-difference
        oracle on exactly computed orbits.
        """
        prm = self.params.map
        if prm.m != math.inf:
            raise ValueError("the flow field needs the infinite smoothing order")
        p = prm.p
        r = self.embed(f)
        sub_map = self.scaled(1.0 / p)
        w = sub_map.fiber_value(f.xi, f.x)
        a = self.params.a
        u = limit_to_space(float(f.xi), w, a / abs(a))
        c = cmath.exp(2j * math.pi * float(f.xi))
        term_ring = 2.0 * math.pi * np.array([-r[2], 0.0, r[0]])
        term_tube = (2.0 * math.pi / p) * np.array(
            [
                -c.real * u[1],
                c.real * u[0] + c.imag * u[2],
                -c.imag * u[1],
            ]
        )
        return term_ring + term_tube


# ---------------------------------------------------------------------------
# certificates


def gamma_estimate(
    params: SolenoidParams, xi_count: int = 64, depth: int = 6
) -> tuple[float, bool]:
    """Sampled estimate of the tube-clearance number, with the analytic
    sufficient condition (real a beyond the contraction radius)."""
    vals = TorusMap(params)._fibers(np.arange(xi_count) / xi_count, depth)
    worst = float(np.max(-np.real(vals / params.a)))
    a = params.a
    sufficient = a.imag == 0 and a.real > params.map.contraction_radius
    return worst, sufficient


def delta_tilde_certificate(
    params: SolenoidParams, xi_count: int = 8, search_depth: int = 6
) -> EmbeddingCertificate:
    """Separation certificate for the fiberwise map.

    The analytic lower bound is the same as for the plane map.  Each fiber
    of a circle grid is one row of _class_separation's ball-pair search over
    residues with differing lowest digits; its rounding slack only keeps
    more pairs, so the minimum is exact.  Rows, then pairs, past their
    limits are refused before any fiber is built.
    """
    p = params.map.p
    _guard_rows(p, search_depth, xi_count)
    _guard_pairs(xi_count, p**search_depth, p)
    fibers = TorusMap(params)._fibers(np.arange(xi_count) / xi_count, search_depth)
    empirical = _class_separation(fibers, p)
    return _search_certificate(params.map, empirical, search_depth)

