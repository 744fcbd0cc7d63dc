import cmath
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from padic_fractal.padic import PAdic, expand, from_int
from padic_fractal.complex_map import MapParams, PlaneMap
from padic_fractal.solenoid import (
    SolenoidParams,
    SolenoidPoint,
    TorusMap,
    add,
    delta_tilde_certificate,
    distance,
    from_padic,
    gamma_estimate,
    limit_to_space,
    neg,
    orbit,
)
from test_replaced_paths import (
    BASES, both, circle, old_add, old_distance, old_neg, rationals, same_value,
)

EPS = 1e-12


def pt(xi, r, p=2, depth=8) -> SolenoidPoint:
    return SolenoidPoint(Fraction(xi), from_int(r, p, depth))


solenoid_points = st.builds(
    pt,
    st.fractions(min_value=0, max_value=Fraction(996, 997), max_denominator=997),
    st.integers(min_value=0, max_value=255),
)


class TestGroup:
    def test_carry_example(self):
        f = add(pt(Fraction(7, 10), 0), pt(Fraction(6, 10), 0))
        assert f.xi == Fraction(3, 10) and f.x.value == 1

    def test_no_carry_on_ball_side(self):
        f = add(pt(0, 3), pt(0, 5))
        assert f.xi == 0 and f.x.value == 8

    def test_inverse_example(self):
        f = pt(Fraction(1, 4), 3)
        z = add(f, neg(f))
        assert z.xi == 0 and z.x.is_zero()

    def test_inverse_on_seam(self):
        f = pt(0, 5)
        z = add(f, neg(f))
        assert z.xi == 0 and z.x.is_zero()

    def test_range_validation(self):
        # refused whether xi arrives as a Fraction, an int or a float
        for xi in (Fraction(3, 2), Fraction(-1, 5), 1.5, -0.2, 1, -1):
            with pytest.raises(ValueError, match="circle coordinate"):
                SolenoidPoint(xi, from_int(0, 2))
        for xi in (Fraction(0), Fraction(1, 4), 0, 0.25):
            with pytest.raises(ValueError, match="unit ball"):
                SolenoidPoint(xi, expand(Fraction(1, 2), 2, 4))
            with pytest.raises(ValueError, match="unit ball"):
                SolenoidPoint(xi, expand(Fraction(5, 3), 3, 2))  # 2/3 + 1

    def test_mixed_bases_refused(self):
        f, g = pt(Fraction(1, 2), 1, p=2), pt(Fraction(1, 2), 1, p=3)
        for call, bases in ((lambda: add(f, g), "2 and 3"), (lambda: add(g, f), "3 and 2"),
                            (lambda: distance(f, g), "2 and 3"),
                            (lambda: distance(g, f, 0.5), "3 and 2")):
            with pytest.raises(ValueError, match=f"^incompatible bases {bases}$"):
                call()

    @given(f=solenoid_points, g=solenoid_points, h=solenoid_points)
    @settings(max_examples=150, deadline=None)
    def test_axioms(self, f, g, h):
        lhs = add(add(f, g), h)
        rhs = add(f, add(g, h))
        assert lhs.xi == rhs.xi and lhs.x == rhs.x
        zero = pt(0, 0)
        idd = add(f, zero)
        assert idd.xi == f.xi and idd.x == f.x
        z = add(f, neg(f))
        assert z.xi == 0 and z.x.is_zero()
        ab = add(f, g)
        ba = add(g, f)
        assert ab.xi == ba.xi and ab.x == ba.x


class TestMetric:
    def test_identity(self):
        f = pt(Fraction(1, 3), 9)
        assert distance(f, f) == 0.0

    def test_wraparound_example(self):
        d = distance(pt(Fraction(9, 10), 0), pt(0, 0))
        assert d == pytest.approx(0.9, abs=1e-15)

    @given(f=solenoid_points, g=solenoid_points, h=solenoid_points)
    @settings(max_examples=120, deadline=None)
    def test_axioms_and_invariance(self, f, g, h):
        dfg = distance(f, g)
        assert dfg >= 0
        assert abs(dfg - distance(g, f)) <= EPS
        assert distance(f, h) <= dfg + distance(g, h) + EPS
        assert abs(distance(add(f, h), add(g, h)) - dfg) <= EPS

    @given(p=st.sampled_from([2, 3, 6]), alpha=st.sampled_from([0.5, 1.0, 2.0]),
           xis=st.lists(st.fractions(0, Fraction(996, 997), max_denominator=997),
                        min_size=2, max_size=2),
           nums=st.lists(st.integers(-400, 400), min_size=2, max_size=2),
           dens=st.lists(st.sampled_from([1, 7, 11, 13]), min_size=2, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_distance_equals_two_sided_formula(self, p, alpha, xis, nums, dens):
        # exact points: integers and rationals with denominators prime to p
        f, g = (SolenoidPoint(xi, expand(Fraction(n, d), p, 12))
                for xi, n, d in zip(xis, nums, dens))
        one_sided = (add(f, neg(g)), add(g, neg(f)))
        expected = min(max(float(h.xi), h.x.norm(alpha)) for h in one_sided)
        assert distance(f, g, alpha) == expected

    @given(f=solenoid_points, g=solenoid_points)
    @settings(max_examples=80, deadline=None)
    def test_indiscernible(self, f, g):
        if distance(f, g) == 0.0:
            # at working precision the representations coincide
            assert f.xi == g.xi and (f.x - g.x).norm() <= EPS


class TestEmbedJ:
    def test_unit_ball_fixed(self):
        x = from_int(9, 2, 6)
        j = from_padic(x)
        assert j.xi == 0 and j.x == x

    def test_half_plus_half_carries(self):
        jh = from_padic(expand(Fraction(1, 2), 2, 6))
        assert jh.xi == Fraction(1, 2) and jh.x.is_zero()
        s = add(jh, jh)
        assert s.xi == 0 and s.x.value == 1

    @given(
        na=st.integers(min_value=0, max_value=2**10 - 1),
        nb=st.integers(min_value=0, max_value=2**10 - 1),
        shift=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_homomorphism(self, na, nb, shift):
        xa = expand(Fraction(na, 2**shift), 2, 16)
        xb = expand(Fraction(nb, 2**shift), 2, 16)
        lhs = from_padic(xa + xb)
        rhs = add(from_padic(xa), from_padic(xb))
        assert lhs.xi == rhs.xi and lhs.x == rhs.x

    @given(
        na=st.integers(min_value=0, max_value=3**7 - 1),
        nb=st.integers(min_value=0, max_value=3**7 - 1),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_ball_isometry(self, na, nb, alpha):
        xa, xb = from_int(na, 3, 8), from_int(nb, 3, 8)
        d = distance(from_padic(xa), from_padic(xb), alpha)
        assert d == pytest.approx((xa - xb).norm(alpha), abs=EPS)


class TestOrbit:
    def test_time_zero(self):
        f = pt(Fraction(1, 3), 7)
        o = orbit(f, 0)
        assert o.xi == f.xi and o.x == f.x

    def test_integer_time_shifts_ball(self):
        o = orbit(pt(0, 0), 1)
        assert o.xi == 0 and o.x.value == 1

    def test_negative_time_floors(self):
        o = orbit(pt(0, 0), Fraction(-3, 10))
        assert o.xi == Fraction(7, 10) and o.x.value == -1

    @pytest.mark.parametrize("target,depth", [(5, 3), (11, 4), (2, 5)])
    def test_density_probe(self, target, depth):
        # integer times reach any residue class to prescribed accuracy
        p = 2
        t = target % p**depth
        o = orbit(pt(0, 0), t)
        d = distance(o, pt(0, target, p=p, depth=8), alpha=1.0)
        assert d <= p ** (-depth) + EPS


class TestOmega:
    def test_restricts_to_plane_map(self):
        mp = MapParams(p=2, m=math.inf, s=0.3)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        pm = PlaneMap(mp)
        for r in (0, 1, 5, 9, 14):
            x = from_int(r, 2, 6)
            assert tm.fiber_value(0, x) == pytest.approx(pm.value(x), abs=EPS)

    def test_fiber_of_zero_closed_form(self):
        mp = MapParams(p=2, m=math.inf, s=0.3)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        xi = 0.37
        expected = sum(
            0.3**n * cmath.exp(2j * math.pi * xi / 2 ** (n + 1)) for n in range(41)
        )
        assert tm.fiber_value(xi, from_int(0, 2)) == pytest.approx(expected, abs=EPS)
        assert tm.fiber_value(0, from_int(0, 2)) == pytest.approx(1 / 0.7, abs=EPS)

    def test_bounded_by_contraction_radius(self):
        mp = MapParams(p=3, m=2, s=0.4)
        tm = TorusMap(SolenoidParams(map=mp, a=1.0))
        for i in range(7):
            vals = tm._fibers(np.array([i / 7]), 4)[0]
            assert np.max(np.abs(vals)) <= mp.contraction_radius + EPS

    @pytest.mark.parametrize("m", [math.inf, 0, 2])
    def test_coset_constancy(self, m):
        mp = MapParams(p=3, m=m, s=0.2)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        x = from_int(7, 3, 6)
        base = tm.fiber_value(0.42, x)
        for l in (1, 2, -1, 3):
            shifted = tm.fiber_value(0.42 + l, x + from_int(-l, 3))
            assert shifted == pytest.approx(base, abs=EPS)

    @pytest.mark.parametrize("m", [math.inf, 0, 2])
    def test_fiber_matches_scalar(self, m):
        mp = MapParams(p=3, m=m, s=0.2, depth=30)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        vals = tm._fibers(np.array([1 / 3]), 3)[0]
        for r in range(27):
            assert vals[r] == pytest.approx(
                tm.fiber_value(Fraction(1, 3), from_int(r, 3, 3)), abs=1e-10
            )


class TestChart:
    def test_quarter_turn(self):
        tm = TorusMap(SolenoidParams(map=MapParams(p=2, m=0, s=0.3), a=2.0))
        assert np.allclose(tm.to_space(0.25, 0j), [0, 0, 2], atol=1e-12)

    def test_real_axis(self):
        tm = TorusMap(SolenoidParams(map=MapParams(p=2, m=0, s=0.3), a=2.0))
        assert np.allclose(tm.to_space(0.0, 0.5 + 0j), [2.5, 0, 0])

    def test_half_turn_mirrors_first_coordinate(self):
        tm = TorusMap(SolenoidParams(map=MapParams(p=2, m=0, s=0.3), a=2.0))
        z = 0.3 + 0.4j
        a0 = tm.to_space(0.0, z)
        a5 = tm.to_space(0.5, z)
        assert a5[0] == pytest.approx(-a0[0], abs=EPS)
        assert a5[1] == pytest.approx(a0[1], abs=EPS)

    def test_chart_broadcasts(self):
        # one chart for single points and clouds: entries of a broadcast
        # call are the single-point results, coordinates on the last axis
        tm = TorusMap(SolenoidParams(map=MapParams(p=2, m=0, s=0.3), a=2.0 + 0.5j))
        xis = np.array([0.0, 0.13, 0.5])
        zs = np.array([0.3 + 0.4j, -0.2j, 0.7, 1.1 - 0.1j])
        pts = tm.to_space(xis[:, None], zs)
        assert pts.shape == (3, 4, 3)
        for i, xi in enumerate(xis):
            for j, z in enumerate(zs):
                one = tm.to_space(float(xi), complex(z))
                assert np.allclose(pts[i, j], one, rtol=0, atol=1e-14)

    def test_limit_examples(self):
        assert np.allclose(limit_to_space(0.0, 1 + 2j, 1.0), [1, 2, 0])
        assert np.allclose(limit_to_space(0.25, 1 + 0j, 1.0), [0, 0, 1], atol=1e-12)
        with pytest.raises(ValueError):
            limit_to_space(0.0, 1j, 2.0)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_small_radius_oracle(self, eps):
        # the chart at radius eps*a equals the ring offset plus the limit chart
        a = 1.5 * cmath.exp(0.3j)
        mp = MapParams(p=2, m=0, s=0.3)
        tme = TorusMap(SolenoidParams(map=mp, a=eps * a))
        xi, z = 0.13, 0.4 - 0.7j
        ring = eps * abs(a) * np.array(
            [math.cos(2 * math.pi * xi), 0.0, math.sin(2 * math.pi * xi)]
        )
        assert np.allclose(
            tme.to_space(xi, z), ring + limit_to_space(xi, z, a / abs(a)), atol=1e-12
        )


def test_torus_radius_range_follows_from_the_contraction_radius():
    # r_s = 2: the chart holds r_s/M <= |a| <= M/2 - r_s, M the largest float
    mp, top = MapParams(p=2, m=0, s=0.5), sys.float_info.max
    for a in (2 / top, 2j / top, 0.999 * top / 2, -0.999j * top / 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = TorusMap(SolenoidParams(map=mp, a=a)).cloud(4, 3)
        assert np.all(np.isfinite(pts)) and np.all(np.isfinite(np.ptp(pts, axis=0)))
    for a in (0, 1.9 / top, 1e-320, 0.6 * top, complex(top, top)):
        with pytest.raises(ValueError, match=r"^torus radius a=.* <= \|a\| <= "):
            SolenoidParams(map=mp, a=a)


class TestEmbedding:
    def test_base_point_real_a(self):
        tm = TorusMap(SolenoidParams(map=MapParams(p=2, m=0, s=0.3), a=2.0))
        assert np.allclose(tm.embed(pt(0, 0)), [2 + 1 / 0.7, 0, 0], atol=1e-10)

    def test_coset_invariance_of_embedding(self):
        tm = TorusMap(SolenoidParams(map=MapParams(p=3, m=0, s=0.2), a=2.0))
        x = from_int(4, 3, 6)
        f = SolenoidPoint(Fraction(2, 5), x)
        rep = tm.to_space(float(f.xi), tm.fiber_value(f.xi, f.x))
        alt = tm.to_space(
            float(f.xi), tm.fiber_value(f.xi + 1, x + from_int(-1, 3))
        )
        assert np.allclose(rep, alt, atol=EPS)

    def test_solid_torus_containment(self):
        mp = MapParams(p=2, m=0, s=1 / 2.2)
        a = 2.0 * mp.contraction_radius
        tm = TorusMap(SolenoidParams(map=mp, a=a))
        cloud = tm.cloud(16, 6)
        ring = np.hypot(cloud[:, 0], cloud[:, 2])
        tube = np.hypot(ring - a, cloud[:, 1])
        assert float(tube.max()) <= mp.contraction_radius + 1e-9

    def test_fibers_live_in_rotated_planes(self):
        mp = MapParams(p=2, m=0, s=0.3)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        for i in range(1, 8):
            xi = i / 8
            vals = tm._fibers(np.array([xi]), 5)[0]
            pts = tm.to_space(xi, vals)
            normal = np.array([math.sin(2 * math.pi * xi), 0.0, -math.cos(2 * math.pi * xi)])
            assert float(np.max(np.abs(pts @ normal))) < 1e-9

    def test_fiber_at_zero_is_plane_image(self):
        mp = MapParams(p=2, m=math.inf, s=0.3)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        fib = tm._fibers(np.array([0.0]), 6)[0]
        plane = PlaneMap(mp).values_on_residues(6)
        assert np.max(np.abs(fib - plane)) < EPS

    def test_contraction_and_lower_ratio(self):
        mp = MapParams(p=2, m=math.inf, s=0.3, depth=40)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        alpha = 1.0 / mp.scaling_dimension
        rng = np.random.default_rng(11)
        ratios = []
        for _ in range(60):
            f = pt(Fraction(int(rng.integers(0, 97)), 97), int(rng.integers(0, 256)))
            g = pt(Fraction(int(rng.integers(0, 97)), 97), int(rng.integers(0, 256)))
            rho = distance(f, g, alpha)
            if rho == 0:
                continue
            d3 = float(np.linalg.norm(tm.embed(f) - tm.embed(g)))
            ratios.append(d3 / rho)
        assert ratios and max(ratios) < 1e3 and min(ratios) > 1e-3

    def test_cloud_labels_and_order(self):
        # xi-major: row i is fiber i // p^depth at residue i % p^depth
        tm = TorusMap(SolenoidParams(map=MapParams(p=2, m=0, s=0.3), a=2.0))
        cloud = tm.cloud(4, 3)
        assert cloud.shape == (32, 3)
        fibers = tm._fibers(np.arange(4) / 4, 3)
        for i in range(4):
            assert np.array_equal(cloud[8 * i : 8 * i + 8], tm.to_space(i / 4, fibers[i]))


class TestGammaDeltaTilde:
    def test_gamma_safe_radius(self):
        mp = MapParams(p=2, m=0, s=0.3)
        g, suff = gamma_estimate(
            SolenoidParams(map=mp, a=2 * mp.contraction_radius), xi_count=32, depth=5
        )
        assert suff and g <= 0.5 + 1e-9

    def test_gamma_tight_radius_not_sufficient(self):
        mp = MapParams(p=2, m=0, s=0.3)
        g, suff = gamma_estimate(
            SolenoidParams(map=mp, a=mp.contraction_radius / 2), xi_count=32, depth=5
        )
        assert not suff and g > 1.0

    def test_gamma_fig2b_parameters(self):
        from padic_fractal.complex_map import s_zero

        mp = MapParams(p=3, m=math.inf, s=s_zero(3) - 0.02)
        g, suff = gamma_estimate(SolenoidParams(map=mp, a=2.5), xi_count=64, depth=5)
        assert suff and g < 1.0

    def test_delta_tilde_matches_plane_bound(self):
        mp = MapParams(p=2, m=0, s=0.3)
        cert = delta_tilde_certificate(SolenoidParams(map=mp, a=2.0), xi_count=4, search_depth=6)
        assert cert.delta_lower == pytest.approx(8 / 7, abs=1e-12)
        assert cert.verdict == "certified-embedding"

    def test_delta_tilde_equals_delta_infinite_order(self):
        from padic_fractal.complex_map import delta_certificate

        mp = MapParams(p=2, m=math.inf, s=0.3)
        plane = delta_certificate(mp, search_depth=7)
        # searching only the zero fiber reproduces the plane search exactly
        matched = delta_tilde_certificate(SolenoidParams(map=mp, a=2.0), xi_count=1, search_depth=7)
        assert matched.delta_empirical == pytest.approx(plane.delta_empirical, abs=1e-12)
        # a wider circle grid can only find smaller minima, never below the bound
        tor = delta_tilde_certificate(SolenoidParams(map=mp, a=2.0), xi_count=6, search_depth=7)
        assert tor.delta_empirical <= plane.delta_empirical + 1e-9
        assert tor.delta_empirical >= tor.delta_lower - 1e-9

    def test_above_threshold_unknown(self):
        mp = MapParams(p=2, m=0, s=0.6)
        cert = delta_tilde_certificate(SolenoidParams(map=mp, a=2.0), xi_count=3, search_depth=5)
        assert cert.delta_lower == 0.0
        assert cert.verdict in ("unknown", "empirically-injective")


class TestFlow:
    def setup_method(self):
        from padic_fractal.complex_map import s_zero

        self.params = SolenoidParams(
            map=MapParams(p=3, m=math.inf, s=s_zero(3) - 0.02, depth=55), a=2.5
        )
        self.tm = TorusMap(self.params)

    def _fd(self, f, h):
        plus = self.tm.embed(orbit(f, Fraction(h).limit_denominator(10**12)))
        minus = self.tm.embed(orbit(f, Fraction(-h).limit_denominator(10**12)))
        return (plus - minus) / (2 * h)

    def test_requires_infinite_order(self):
        tm = TorusMap(SolenoidParams(map=MapParams(p=2, m=0, s=0.3), a=2.0))
        with pytest.raises(ValueError):
            tm.vector_field(pt(0, 0))

    def test_central_difference_second_order(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = SolenoidPoint(
                Fraction(int(rng.integers(0, 997)), 997),
                from_int(int(rng.integers(0, 3**6)), 3, 6),
            )
            gam = self.tm.vector_field(f)
            r1 = float(np.linalg.norm(self._fd(f, 1e-3) - gam))
            r2 = float(np.linalg.norm(self._fd(f, 1e-4) - gam))
            assert r1 / max(r2, 1e-300) > 50.0

    def test_fiber_time_derivative_identity(self):
        # d/dt of the fiber series equals (2 pi i / p) times the s/p series
        sub_map = self.tm.scaled(1.0 / 3.0)
        x = from_int(17, 3, 6)
        for t0 in (0.21, 0.73):
            rhs = (2j * math.pi / 3) * sub_map.fiber_value(t0, x)
            res = []
            for h in (1e-3, 1e-4):
                fd = (self.tm.fiber_value(t0 + h, x) - self.tm.fiber_value(t0 - h, x)) / (2 * h)
                res.append(abs(fd - rhs))
            assert res[0] / max(res[1], 1e-300) > 50.0

    def test_closed_form_spot_value(self):
        mp = MapParams(p=2, m=math.inf, s=0.3, depth=60)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        spot = (2j * math.pi / 2) * tm.scaled(0.5).fiber_value(0, from_int(0, 2))
        assert spot == pytest.approx(1j * math.pi / (1 - 0.15), abs=1e-10)

    def test_flow_compatibility_along_orbit(self):
        f = pt(Fraction(1, 5), 7, p=3, depth=6)
        for t in (Fraction(1, 3), Fraction(7, 4)):
            ft = orbit(f, t)
            gam = self.tm.vector_field(ft)
            r1 = float(np.linalg.norm(self._fd(ft, 1e-3) - gam))
            assert r1 < 1e-3


class TestPushThrough:
    def setup_method(self):
        self.mp = MapParams(p=3, m=math.inf, s=0.2, depth=40)
        self.tm = TorusMap(SolenoidParams(map=self.mp, a=2.5))
        self.pm = PlaneMap(self.mp)

    def test_unit_ball_composition(self):
        for r in (0, 5, 11):
            x = from_int(r, 3, 6)
            via_j = self.tm.embed(from_padic(x))
            direct = self.tm.embed(SolenoidPoint(Fraction(0), x))
            assert np.allclose(via_j, direct, atol=EPS)
            assert self.tm.fiber_value(0, x) == pytest.approx(self.pm.value(x), abs=EPS)

    def test_integral_series_equals_fiber_series(self):
        # the integral part of the plane series at x equals the fiber
        # series at (fractional part, integral part): 200 seeded points
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(200):
            num = int(rng.integers(0, 3**10))
            x = expand(Fraction(num, 81), 3, 16)
            frac, integral_part = x.split()
            lhs = self.pm.parts(x)[1]
            rhs = self.tm.fiber_value(frac, integral_part)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 2 * self.mp.tail_bound + EPS

    def test_local_isometry_within_unit_ball(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            shift = Fraction(int(rng.integers(0, 81)), 81)
            ra, rb = int(rng.integers(0, 3**6)), int(rng.integers(0, 3**6))
            xa = expand(shift + ra, 3, 14)
            xb = expand(shift + rb, 3, 14)
            ya, yb = (self.tm.embed(from_padic(x)) for x in (xa, xb))
            d3 = float(np.linalg.norm(ya - yb))
            d2 = abs(self.pm.value(xa) - self.pm.value(xb))
            assert d3 == pytest.approx(d2, abs=1e-9)


@pytest.mark.parametrize("p,m", [(2, 0), (3, 0), (2, math.inf), (3, math.inf)])
def test_cloud_matches_scalar_embedding(p, m):
    tm = TorusMap(SolenoidParams(map=MapParams(p=p, m=m, s=0.3 + 0.1j, depth=30), a=2.5))
    xi_count, depth = 6, 4
    cloud = tm.cloud(xi_count, depth)
    rng = np.random.default_rng(11)
    for idx in rng.choice(len(cloud), size=25, replace=False):
        i, r = divmod(int(idx), p**depth)
        want = tm.embed(SolenoidPoint(Fraction(i, xi_count), from_int(r, p, depth)))
        assert np.max(np.abs(cloud[idx] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# the group law, the metric and the fiber series against the code they replaced


def digit_window(p: int, v: int, digits: tuple[int, ...]) -> PAdic:
    """The terminating value whose digits from p^v upward are `digits`."""
    return expand(sum(d * Fraction(p) ** (v + i) for i, d in enumerate(digits)), p, len(digits))


def ball(p: int):
    """(q, window) of the unit ball: `rationals(p, unit_ball=True)`, or short terminating
    windows of high digits, whose sums in the group law vanish or carry far."""
    def window(v: int, digits: tuple[int, ...]) -> tuple[Fraction, int]:
        return sum(Fraction(d) * Fraction(p) ** (v + i) for i, d in enumerate(digits)), len(digits)

    return st.one_of(
        st.tuples(rationals(p, unit_ball=True), st.integers(1, 12)),
        st.builds(lambda v, lead, rest: window(v, (lead, *rest)), st.integers(0, 3),
                  st.integers(1, p - 1), st.lists(st.sampled_from([0, 1, p - 1]), max_size=6)),
    )


@st.composite
def point_pairs(draw):
    """Two points of one base, each with its Fraction-valued reference: circle
    coordinates on a shared or a differing denominator, off the seam, equal,
    or with either one on the seam."""
    p = draw(BASES)
    grid = st.builds(lambda den, num: Fraction(num % (den - 1) + 1, den),
                     st.sampled_from([2, 3, 10, 997]), st.integers(0, 995))
    fxi = draw(st.one_of(grid, circle()))
    gxi = (fxi + draw(grid)) % 1
    seam = draw(st.sampled_from(["off", "equal", "f", "g", "both"]))
    fxi = Fraction(0) if seam in ("f", "both") else fxi
    gxi = {"equal": fxi, "g": Fraction(0), "both": Fraction(0)}.get(seam, gxi)
    points = []
    for xi in (fxi, gxi):
        q, width = draw(ball(p))
        x, ref = both(q, p, width)
        points.append((SolenoidPoint(xi, x), (xi, ref)))
    return points


class TestReplacedPaths:
    """The group law and the metric against the Fraction-operator oracle of
    `test_replaced_paths`, driven by `point_pairs`."""

    @given(pair=point_pairs(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_distance_matches_built_difference(self, pair, alpha):
        (f, rf), (g, rg) = pair
        assert distance(f, g, alpha) == old_distance(rf, rg, alpha)
        assert distance(g, f, alpha) == old_distance(rg, rf, alpha)

    @given(pair=point_pairs())
    @settings(max_examples=200, deadline=None)
    def test_add_and_neg_match_fresh_carries(self, pair):
        (f, rf), (g, rg) = pair
        for got, want in ((add(f, g), old_add(rf, rg)), (neg(f), old_neg(rf)),
                          (add(f, neg(g)), old_add(rf, old_neg(rg)))):
            assert got.xi == want[0] and type(got.xi) is Fraction and same_value(got.x, want[1])
            built = SolenoidPoint(want[0], expand(want[1].value, f.x.p, 1))
            assert got == built and hash(got) == hash(built)

    @pytest.mark.parametrize("xi, want", [(0, Fraction(0)), (0.25, Fraction(1, 4)),
                                          (Fraction(2, 7), Fraction(2, 7))])
    def test_point_keeps_circle_coordinates_as_fractions(self, xi, want):
        f = SolenoidPoint(xi, from_int(3, 2))
        assert type(f.xi) is Fraction and f.xi == want
        assert f == SolenoidPoint(want, from_int(3, 2)) and hash(f) == hash(pt(want, 3))


def old_fiber_value(tm: TorusMap, xi, x: PAdic) -> complex:
    """Reference: the fiber series with one coupling call per level."""
    p, m, s = tm.params.map.p, tm.params.map.m, tm.params.map.s

    def coupling(xi_f: float, n: int) -> complex:
        if n > m + x.valuation():
            return 1.0 + 0.0j
        return cmath.exp(2j * math.pi * xi_f / p ** (min(n, m) + 1))

    whole = math.floor(xi)
    if whole:
        xi = xi - whole
        x = x + from_int(whole, x.p)
    xi_f = float(xi)
    chis = ((n, tm.plane.character(x, n)) for n in range(tm.params.map.depth + 1))
    return sum((s**n * coupling(xi_f, n) * chi for n, chi in chis), 0j)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fiber_value_matches_per_level_coupling(data):
    p = data.draw(st.sampled_from([2, 3, 6]))
    m = data.draw(st.sampled_from([0, 1, 3, math.inf]))
    s = data.draw(st.sampled_from([0.25, 0.3 + 0.2j, -0.35]))
    depth = data.draw(st.integers(1, 30))
    tm = TorusMap(SolenoidParams(map=MapParams(p=p, m=m, s=s, depth=depth), a=2.0))
    x = data.draw(st.one_of(
        st.builds(lambda n, d: expand(Fraction(n, d), p, 12),
                  st.integers(-500, 500), st.integers(1, 60)),
        st.builds(lambda v, lead, rest: digit_window(p, v, (lead, *rest)),
                  st.integers(-2, 3), st.integers(1, p - 1),
                  st.lists(st.integers(0, p - 1), min_size=max(depth - 2, 0), max_size=depth + 6)),
    ))
    xi = data.draw(st.one_of(
        st.fractions(-2, 3, max_denominator=997),
        st.floats(0, 1, exclude_max=True),
    ))
    assert tm.fiber_value(xi, x) == old_fiber_value(tm, xi, x)
