"""The base-p solenoid: carry group on [0,1) x (unit ball), its metric,
the series map into the solid torus, and the flow vector field.

Points keep the circle coordinate as an exact Fraction so the group
axioms hold exactly; floats appear only when distances or embeddings
are evaluated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

import numpy as np

from .complex_map import (
    EmbeddingCertificate,
    MapParams,
    PlaneMap,
    character_table,
    code_valuations,
    residue_digit_matrix,
    _class_separation,
    _guard_rows,
    _search_certificate,
)
from .padic import PAdic, from_int

__all__ = [
    "SolenoidPoint",
    "SolenoidParams",
    "PointCloud3D",
    "TorusMap",
    "add",
    "neg",
    "distance",
    "from_padic",
    "orbit",
    "limit_to_space",
    "gamma_estimate",
    "delta_tilde_certificate",
    "integrate_field",
]


@dataclass(frozen=True)
class SolenoidPoint:
    """A pair (circle coordinate in [0,1), unit-ball digit expansion)."""

    xi: Fraction
    x: PAdic

    def __post_init__(self) -> None:
        xi = self.xi
        if not isinstance(xi, Fraction):
            xi = Fraction(xi)
            object.__setattr__(self, "xi", xi)
        if not 0 <= xi < 1:
            raise ValueError(f"circle coordinate must lie in [0,1), got {xi}")
        if not self.x.is_zero() and self.x.v < 0:
            raise ValueError("second coordinate must lie in the unit ball")


@cache
def _one(p: int) -> PAdic:
    """The unit of base p, shared by every carry."""
    return from_int(1, p)


def add(f: SolenoidPoint, g: SolenoidPoint) -> SolenoidPoint:
    """Component sum with the real carry moved into the ball coordinate."""
    t = f.xi + g.xi
    x = f.x + g.x
    if t >= 1:  # t in [0,2): the carry is 1
        return SolenoidPoint(t - 1, x + _one(x.p))
    return SolenoidPoint(t, x)


def neg(f: SolenoidPoint) -> SolenoidPoint:
    """Group inverse: (1-xi, -x-1) off the seam, (0, -x) on it."""
    if f.xi == 0:
        return SolenoidPoint(f.xi, -f.x)
    return SolenoidPoint(1 - f.xi, -(f.x + _one(f.x.p)))


def distance(f: SolenoidPoint, g: SolenoidPoint, alpha: float = 1.0) -> float:
    """Invariant metric: the shorter of the two one-sided gauge lengths.

    The difference f - g is (xi, x) with xi = frac(f.xi - g.xi) and
    x = f.x - g.x - [f.xi < g.xi]; its group inverse is (0, -x) on the
    seam and (1 - xi, -(x + 1)) off it, and -y has the norm of y.
    """
    xi = (f.xi - g.xi) % 1
    x = f.x - g.x
    if f.xi < g.xi:
        x = x - _one(x.p)
    length = max(float(xi), x.norm(alpha))
    if xi == 0:
        return length
    return min(length, max(float(1 - xi), (x + _one(x.p)).norm(alpha)))


def from_padic(x: PAdic) -> SolenoidPoint:
    """Injective homomorphism: split into (fractional part, integral part)."""
    frac, integral = x.split()
    return SolenoidPoint(frac, integral)


def orbit(f: SolenoidPoint, t: float | Fraction) -> SolenoidPoint:
    """Time-t translate along the line winding through the solenoid."""
    tf = Fraction(t)
    whole = math.floor(tf)
    return add(f, SolenoidPoint(tf - whole, from_int(whole, f.x.p)))


@dataclass(frozen=True)
class SolenoidParams:
    map: MapParams
    a: complex = 2.0

    def __post_init__(self) -> None:
        a = complex(self.a)
        object.__setattr__(self, "a", a)
        if a == 0:
            raise ValueError("torus radius parameter a must be nonzero")


@dataclass(frozen=True)
class PointCloud3D:
    """Embedded points tagged with (circle index, residue) preimages."""

    points: np.ndarray
    labels: np.ndarray
    params: SolenoidParams

    def __post_init__(self) -> None:
        if self.points.shape[0] != self.labels.shape[0]:
            raise ValueError("points and labels must align")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite embedded point")
        prev, nxt = self.labels[:-1], self.labels[1:]
        same_fiber = nxt[:, 0] == prev[:, 0]
        ascending = np.all((nxt[:, 0] > prev[:, 0]) | (same_fiber & (nxt[:, 1] > prev[:, 1])))
        if not ascending and len(np.unique(self.labels, axis=0)) != len(self.labels):
            raise ValueError("duplicate preimage labels")

    def __len__(self) -> int:
        return len(self.points)


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

    def fiber_value(self, xi: float | Fraction, x: PAdic) -> complex:
        """Fiberwise series value; representatives are reduced first, so
        the result is constant on cosets (xi+l, x-l) by construction.

        Level n carries the circle phase e(xi / p^(min(n, m)+1)), switched
        off once the level outruns the digit window that the ball
        coordinate can feel (n > m + v: never at infinite order or for zero).
        """
        whole = math.floor(xi)
        if whole:
            xi = xi - whole
            x = x + from_int(whole, x.p)
        p, m, s = self.params.map.p, self.params.map.m, self.params.map.s
        turn, top = 2j * math.pi * float(xi), m + x.valuation()

        def weight(n: int) -> complex:
            return s**n * (1.0 + 0.0j if n > top else cmath.exp(turn / p ** (min(n, m) + 1)))

        return self.plane._weighted(x, weight)[1]

    def fiber_values(self, xi: float | Fraction, depth: int) -> np.ndarray:
        """Fiber series over every residue at the given depth, ascending.

        Expects the canonical circle coordinate in [0,1); the scalar
        fiber_value() reduces arbitrary representatives.
        """
        if not 0 <= xi < 1:
            raise ValueError("fiber coordinate must lie in [0,1)")
        return self._fibers(np.array([float(xi)]), depth)[0]

    def _fibers(self, xis: np.ndarray, depth: int) -> np.ndarray:
        """Fiber series at each circle coordinate (rows) over every
        residue at the given depth (columns).

        The characters do not depend on xi, so one table of s^n chi_n
        serves every fiber: the fibers are coupling(xi x level) @ terms.
        At finite order the coupling of level n is on only while
        n <= m + v, v the residue's valuation.
        """
        params = self.params.map
        p, m = params.p, params.m
        _guard_rows(p, depth, len(xis))
        ns = np.arange(params.depth + 1)
        chars = character_table(residue_digit_matrix(p, depth), 0, params)
        terms = params.s ** ns[:, None] * chars
        turns = 2j * math.pi * np.asarray(xis, dtype=np.float64)[:, None]
        if m == math.inf:
            return np.exp(turns / float(p) ** (ns + 1)) @ terms
        codes = np.arange(p**depth, dtype=np.int64)
        v = code_valuations(codes, p, depth)
        v[codes == 0] = depth + 64  # zero has infinite valuation: coupling stays on
        on = ns[:, None] <= int(m) + v
        coupling = np.exp(turns / float(p) ** (np.minimum(ns, int(m)) + 1))
        return coupling @ np.where(on, terms, 0) + np.where(on, 0, terms).sum(axis=0)

    # -- the chart into 3-space ---------------------------------------------

    def to_space(self, xi, z) -> np.ndarray:
        """Torus chart: ring angle 2 pi xi, tube displacement z measured
        relative to the complex parameter a.  xi broadcasts against z and
        the coordinates go on a new last axis."""
        a = self.params.a
        w = np.asarray(z) / a
        ring = np.exp(2j * math.pi * np.asarray(xi, dtype=np.float64)) * abs(a) * (1.0 + w.real)
        height = np.broadcast_to(abs(a) * w.imag, ring.shape)
        return np.stack([ring.real, height, ring.imag], axis=-1)

    def embed(self, f: SolenoidPoint) -> np.ndarray:
        """Full embedding of one solenoid point."""
        return self.to_space(float(f.xi), self.fiber_value(f.xi, f.x))

    def push_plane(self, x: PAdic) -> np.ndarray:
        """Embed a plane-map preimage through the solenoid: the composite
        agrees fiberwise with the integral part of the plane series."""
        return self.embed(from_padic(x))

    def cloud(self, xi_count: int, depth: int) -> PointCloud3D:
        """Fibers at xi = i/xi_count for all residues; xi-major order."""
        per = self.params.map.p**depth
        xis = np.arange(xi_count) / xi_count
        pts = self.to_space(xis[:, None], self._fibers(xis, depth)).reshape(-1, 3)
        labels = np.column_stack(
            [np.repeat(np.arange(xi_count), per), np.tile(np.arange(per), xi_count)]
        )
        return PointCloud3D(points=pts, labels=labels, params=self.params)

    # -- dynamics -------------------------------------------------------------

    def scaled(self, factor: complex) -> "TorusMap":
        return TorusMap(replace(self.params, map=self.params.map.scaled_s(factor)))

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
    params: SolenoidParams, xi_count: int = 256, depth: int = 8
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

    The analytic lower bound is the same as for the plane map; the
    search scans residue pairs with differing lowest digits across a
    circle grid, recording the gamma estimate alongside.
    """
    fibers = TorusMap(params)._fibers(np.arange(xi_count) / xi_count, search_depth)
    empirical = _class_separation(fibers, params.map.p)
    gamma, _ = gamma_estimate(params, xi_count=max(xi_count, 16), depth=search_depth)
    return _search_certificate(params.map, empirical, search_depth, gamma)


# ---------------------------------------------------------------------------
# flow integration against the sampled image


def integrate_field(
    tmap: TorusMap,
    start: SolenoidPoint,
    t_end: float,
    steps: int,
    xi_count: int = 64,
    depth: int = 5,
) -> dict[str, float]:
    """Fourth-order integration of the flow using the nearest sampled
    preimage to evaluate the field off the exact image.

    Returns the maximum distance of the numeric trajectory from the
    sampled image and its final deviation from the exactly computed
    orbit.  The field away from the image is only defined up to an
    extension, so this is a monitoring tool rather than a certificate.
    """
    cloud = tmap.cloud(xi_count, depth)
    pts = cloud.points
    p = tmap.params.map.p
    field_cache: dict[int, np.ndarray] = {}

    def field(r: np.ndarray) -> np.ndarray:
        idx = int(np.argmin(np.sum((pts - r) ** 2, axis=1)))
        if idx not in field_cache:
            i, res = (int(c) for c in cloud.labels[idx])
            sample = SolenoidPoint(Fraction(i, xi_count), from_int(res, p, depth))
            field_cache[idx] = tmap.vector_field(sample)
        return field_cache[idx]

    h = t_end / steps
    r = tmap.embed(start)
    max_drift = 0.0
    for _ in range(steps):
        k1 = field(r)
        k2 = field(r + 0.5 * h * k1)
        k3 = field(r + 0.5 * h * k2)
        k4 = field(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = float(np.min(np.linalg.norm(pts - r, axis=1)))
        max_drift = max(max_drift, drift)
    exact = tmap.embed(orbit(start, Fraction(t_end).limit_denominator(10**9)))
    return {
        "max_image_drift": max_drift,
        "final_error": float(np.linalg.norm(r - exact)),
    }
