import cmath
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
from padic_fractal.padic import expand, norm, split
from padic_fractal import solenoid
from padic_fractal.complex_map import (
    _BLOCK,
    MapParams,
    PlaneMap,
    _widest_cap,
    character_table,
    residue_digit_matrix,
)
from padic_fractal.solenoid import (
    SolenoidParams,
    SolenoidPoint,
    TorusMap,
    add,
    distance,
    from_padic,
    limit_to_space,
    neg,
    orbit,
)
from padic_fractal.analysis import delta_certificate, delta_tilde_certificate, gamma_estimate

EPS = 1e-12


solenoid_points = st.builds(
    SolenoidPoint,
    st.fractions(min_value=0, max_value=Fraction(996, 997), max_denominator=997),
    st.integers(min_value=0, max_value=255),
)


class TestGroup:
    def test_carry_example(self):
        f = add(SolenoidPoint(Fraction(7, 10), 0), SolenoidPoint(Fraction(6, 10), 0))
        assert f.xi == Fraction(3, 10) and f.x == 1

    def test_no_carry_on_ball_side(self):
        f = add(SolenoidPoint(0, 3), SolenoidPoint(0, 5))
        assert f.xi == 0 and f.x == 8

    def test_inverse_example(self):
        f = SolenoidPoint(Fraction(1, 4), 3)
        z = add(f, neg(f))
        assert z.xi == 0 and z.x == 0

    def test_inverse_on_seam(self):
        f = SolenoidPoint(0, 5)
        z = add(f, neg(f))
        assert z.xi == 0 and z.x == 0

    def test_integral_ball_coordinates_are_ints(self):
        # an integral Fraction in comes back an int, as from add; other values
        # keep their Fraction
        assert type(from_padic(Fraction(10, 2), 2).x) is int
        assert from_padic(Fraction(10, 2), 2).x == 5
        assert type(split(Fraction(7), 3)[1]) is int
        for xi, x, want in ((Fraction(1, 3), Fraction(5), -6), (Fraction(0), Fraction(5), -5)):
            got = neg(SolenoidPoint(xi, x)).x
            assert type(got) is int and got == want
        assert neg(SolenoidPoint(Fraction(1, 3), Fraction(1, 3))).x == Fraction(-4, 3)
        assert from_padic(Fraction(1, 3), 2).x == Fraction(1, 3)

    def test_range_validation(self):
        # refused whether xi arrives as a Fraction, an int or a float
        for xi in (Fraction(3, 2), Fraction(-1, 5), 1.5, -0.2, 1, -1):
            with pytest.raises(ValueError, match="circle coordinate"):
                SolenoidPoint(xi, 0)

    def test_coordinates_are_read_exactly(self):
        # numpy ints become ints, so a sum past 2^63 stays exact; floats, numpy's
        # too, become the rationals they hold, which the group law then reads
        big = SolenoidPoint(0, np.int64(2**62))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = add(big, big)
        assert type(big.x) is int and type(total.x) is int and total.x == 2**63
        half = SolenoidPoint(np.float64(0.25), 0.5)
        assert half == SolenoidPoint(Fraction(1, 4), Fraction(1, 2))
        three = SolenoidPoint(0.5, np.float32(3.0)).x
        assert type(three) is int and three == 3
        assert add(half, half) == SolenoidPoint(Fraction(1, 2), 1)
        assert neg(half) == SolenoidPoint(Fraction(3, 4), Fraction(-3, 2))
        want = oracles.group_distance((Fraction(1, 4), Fraction(1, 2)), (0, 0), 3, 1.0)
        assert distance(half, SolenoidPoint(0, 0), 3) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float32("inf")])
    def test_non_finite_coordinates_refused(self, bad):
        for xi, x, name in ((bad, 0, "circle"), (0, bad, "second")):
            with pytest.raises(ValueError, match=f"^{name} coordinate must be finite, got "):
                SolenoidPoint(xi, x)

    def test_unit_ball_refusal_depends_on_the_base(self):
        # a point holds any rational; distance and embed, which know p, refuse
        # one off the unit ball of p, and 1/2 lies in the unit ball of 3
        tm2, tm3 = (TorusMap(SolenoidParams(map=MapParams(p=p, m=0, s=0.3))) for p in (2, 3))
        other = SolenoidPoint(Fraction(1, 3), 1)
        for xi in (Fraction(0), Fraction(1, 4), 0, 0.25):
            half = SolenoidPoint(xi, Fraction(1, 2))
            for call in (lambda: distance(half, other, 2), lambda: distance(other, half, 2, 0.5),
                         lambda: tm2.embed(half)):
                with pytest.raises(ValueError, match="^second coordinate must lie in the unit ball$"):
                    call()
            assert distance(half, other, 3) > 0 and np.all(np.isfinite(tm3.embed(half)))
            with pytest.raises(ValueError, match="unit ball"):
                distance(SolenoidPoint(xi, Fraction(5, 3)), other, 3)  # 2/3 + 1

    @given(f=solenoid_points, g=solenoid_points, h=solenoid_points)
    @settings(max_examples=150, deadline=None)
    def test_axioms(self, f, g, h):
        lhs = add(add(f, g), h)
        rhs = add(f, add(g, h))
        assert lhs.xi == rhs.xi and lhs.x == rhs.x
        zero = SolenoidPoint(0, 0)
        idd = add(f, zero)
        assert idd.xi == f.xi and idd.x == f.x
        z = add(f, neg(f))
        assert z.xi == 0 and z.x == 0
        ab = add(f, g)
        ba = add(g, f)
        assert ab.xi == ba.xi and ab.x == ba.x


class TestMetric:
    def test_identity(self):
        f = SolenoidPoint(Fraction(1, 3), 9)
        assert distance(f, f, 2) == 0.0

    def test_wraparound_example(self):
        d = distance(SolenoidPoint(Fraction(9, 10), 0), SolenoidPoint(0, 0), 2)
        assert d == pytest.approx(0.9, abs=1e-15)

    @given(f=solenoid_points, g=solenoid_points, h=solenoid_points)
    @settings(max_examples=120, deadline=None)
    def test_axioms_and_invariance(self, f, g, h):
        dfg = distance(f, g, 2)
        assert dfg >= 0
        assert abs(dfg - distance(g, f, 2)) <= EPS
        assert distance(f, h, 2) <= dfg + distance(g, h, 2) + EPS
        assert abs(distance(add(f, h), add(g, h), 2) - dfg) <= EPS

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
        expected = min(max(float(h.xi), norm(h.x, p, alpha)) for h in one_sided)
        assert distance(f, g, p, alpha) == expected

    @given(f=solenoid_points, g=solenoid_points)
    @settings(max_examples=80, deadline=None)
    def test_indiscernible(self, f, g):
        if distance(f, g, 2) == 0.0:
            # at working precision the representations coincide
            assert f.xi == g.xi and norm(f.x - g.x, 2) <= EPS


class TestEmbedJ:
    def test_unit_ball_fixed(self):
        x = 9
        j = from_padic(x, 2)
        assert j.xi == 0 and j.x == x

    def test_half_plus_half_carries(self):
        jh = from_padic(Fraction(1, 2), 2)
        assert jh.xi == Fraction(1, 2) and jh.x == 0
        s = add(jh, jh)
        assert s.xi == 0 and s.x == 1 and type(s.x) is int

    @given(
        na=st.integers(min_value=0, max_value=2**10 - 1),
        nb=st.integers(min_value=0, max_value=2**10 - 1),
        shift=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_homomorphism(self, na, nb, shift):
        xa = Fraction(na, 2**shift)
        xb = Fraction(nb, 2**shift)
        lhs = from_padic(xa + xb, 2)
        rhs = add(from_padic(xa, 2), from_padic(xb, 2))
        assert lhs.xi == rhs.xi and lhs.x == rhs.x

    @given(
        na=st.integers(min_value=0, max_value=3**7 - 1),
        nb=st.integers(min_value=0, max_value=3**7 - 1),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_ball_isometry(self, na, nb, alpha):
        xa, xb = na, nb
        d = distance(from_padic(xa, 3), from_padic(xb, 3), 3, alpha)
        assert d == pytest.approx(norm(xa - xb, 3, alpha), abs=EPS)


class TestOrbit:
    def test_time_zero(self):
        f = SolenoidPoint(Fraction(1, 3), 7)
        o = orbit(f, 0)
        assert o.xi == f.xi and o.x == f.x

    def test_integer_time_shifts_ball(self):
        o = orbit(SolenoidPoint(0, 0), 1)
        assert o.xi == 0 and o.x == 1

    def test_negative_time_floors(self):
        o = orbit(SolenoidPoint(0, 0), Fraction(-3, 10))
        assert o.xi == Fraction(7, 10) and o.x == -1

    @pytest.mark.parametrize("target,depth", [(5, 3), (11, 4), (2, 5)])
    def test_density_probe(self, target, depth):
        # integer times reach any residue class to prescribed accuracy
        p = 2
        t = target % p**depth
        o = orbit(SolenoidPoint(0, 0), t)
        d = distance(o, SolenoidPoint(0, target), p, alpha=1.0)
        assert d <= p ** (-depth) + EPS

    def test_float32_time_is_the_rational_it_holds(self):
        # read as the constructor reads a coordinate, not refused by Fraction
        o = orbit(SolenoidPoint(0, 0), np.float32(2.5))
        assert (o.xi, o.x) == (Fraction(1, 2), 2) and type(o.x) is int

    def test_int64_time_is_an_int(self):
        # no int64 sum wraps to -2^63, and no numpy int is left in the point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            o = orbit(SolenoidPoint(0, 2**62), np.int64(2**62))
        assert (o.xi, o.x) == (0, 2**63) and type(o.x) is int


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,call", [
    ("time", lambda t: orbit(SolenoidPoint(0, 0), t)),
    ("circle coordinate", lambda xi: TorusMap(
        SolenoidParams(map=MapParams(p=2, m=math.inf, s=0.3))).fiber_value(xi, 0)),
], ids=["orbit", "fiber_value"])
def test_non_finite_time_or_circle_coordinate_refused(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        call(bad)


class TestOmega:
    def test_restricts_to_plane_map(self):
        mp = MapParams(p=2, m=math.inf, s=0.3)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        pm = PlaneMap(mp)
        for x in (0, 1, 5, 9, 14):
            assert tm.fiber_value(0, x) == pytest.approx(pm.value(x), abs=EPS)

    def test_fiber_of_zero_closed_form(self):
        mp = MapParams(p=2, m=math.inf, s=0.3)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        xi = 0.37
        expected = sum(
            0.3**n * cmath.exp(2j * math.pi * xi / 2 ** (n + 1)) for n in range(41)
        )
        assert tm.fiber_value(xi, 0) == pytest.approx(expected, abs=EPS)
        assert tm.fiber_value(0, 0) == pytest.approx(1 / 0.7, abs=EPS)

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
        x = 7
        base = tm.fiber_value(0.42, x)
        for l in (1, 2, -1, 3):
            shifted = tm.fiber_value(0.42 + l, x - l)
            assert shifted == pytest.approx(base, abs=EPS)

    @pytest.mark.parametrize("m", [math.inf, 0, 2])
    def test_fiber_matches_scalar(self, m):
        mp = MapParams(p=3, m=m, s=0.2, depth=30)
        tm = TorusMap(SolenoidParams(map=mp, a=2.0))
        vals = tm._fibers(np.array([1 / 3]), 3)[0]
        for r in range(27):
            assert vals[r] == pytest.approx(
                tm.fiber_value(Fraction(1, 3), r), abs=1e-10
            )


class TestSelectedFibers:
    """`_fibers` over chosen residue codes, and `_embed_integral`, which
    evaluates the fibers of a list of points through it block by block."""

    @pytest.mark.parametrize("p", [2, 3, 5, 6])
    @pytest.mark.parametrize("m", [0, 1, 3, math.inf])
    def test_codes_are_the_full_grid_columns(self, p, m):
        # the same terms and couplings, summed by a product of another shape, in
        # an order BLAS picks by shape: each sum of the depth + 1 terms, of
        # moduli totalling at most r_s, is within rounding_bound of their exact sum
        params = MapParams(p=p, m=m, s=0.37 * cmath.exp(0.4j))
        tm = TorusMap(SolenoidParams(map=params, a=2.0))
        xis, depth = np.append(np.arange(8) / 8, 0.7071), 4
        rng = np.random.default_rng(p)
        codes = np.concatenate([[p**depth - 1, 0], rng.integers(0, p**depth, 9), [0]])
        full = tm._fibers(xis, depth)
        got = tm._fibers(xis, depth, codes)
        assert got.shape == (len(xis), len(codes))
        assert np.abs(got - full[:, codes]).max() <= 2 * params.rounding_bound

    def test_codes_are_counted_before_any_allocation(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("characters built before the row count")

        monkeypatch.setattr(solenoid, "character_table", unreached)
        tm = TorusMap(SolenoidParams(map=MapParams(p=2, m=math.inf, s=0.3)))
        with pytest.raises(ValueError, match=r"^4096 fibers x 2049 residues exceed 8388608 rows$"):
            tm._fibers(np.zeros(4096), 12, np.arange(2049, dtype=np.int64))

    @pytest.mark.parametrize("p, m", [(2, math.inf), (3, 1), (5, 0), (6, 3), (3, math.inf)])
    def test_blocked_embedding_is_the_scalar_embed(self, p, m):
        # _BLOCK + 5 points: a second block of 5; x = -1 at m = inf, read at
        # (xi - 1, 0).  The fibers are within rounding_bound of the exact series
        # each, and the kernel's within the window cap of its capped windows;
        # the chart is an isometry in z at a fixed xi, and each of its two
        # evaluations rounds its coordinates, of modulus up to |a| + r_s, by
        # at most 16 2^-53 of that
        params = MapParams(p=p, m=m, s=0.3 * cmath.exp(1j))
        a = 1.5 - 0.5j
        tm = TorusMap(SolenoidParams(map=params, a=a))
        rng = np.random.default_rng(p)
        n = _BLOCK + 5
        low = -1 if m == math.inf else 0
        pts = [SolenoidPoint(Fraction(int(k), 997), int(x))
               for k, x in zip(rng.integers(0, 997, n), rng.integers(low, 40, n))]
        pts[_BLOCK - 1] = SolenoidPoint(Fraction(996, 997), p**6 + 1)
        got = tm._embed_integral(pts)
        assert got.shape == (n, 3)
        bound = (2 * params.rounding_bound + _widest_cap(params)
                 + 32 * 2.0**-53 * (abs(a) + params.contraction_radius))
        check = [*range(_BLOCK - 10, n), *rng.integers(0, n, 200).tolist()]
        if low:
            check += [i for i, f in enumerate(pts[:200]) if f.x == -1]
            assert any(pts[i].x == -1 for i in check)
        for i in check:
            assert np.linalg.norm(got[i] - tm.embed(pts[i])) <= bound

    def test_negative_x_is_refused_at_finite_order(self):
        # (xi, -1) and (xi - 1, 0) are one point only at m = inf: at p = 3,
        # m = 1 the levels past m read e(-1/p^2) from x = -1 but
        # e((xi - 1)/p^2) from the coupling, so the kernel would misread it
        params = MapParams(p=3, m=1, s=0.3)
        tm = TorusMap(SolenoidParams(map=params))
        xi = Fraction(1, 3)
        moved = tm._fibers(np.array([float(xi) - 1]), 1, np.array([0]))[0, 0]
        assert abs(moved - tm.fiber_value(xi, -1)) > 1e-6
        with pytest.raises(ValueError, match="negative second coordinate needs the infinite"):
            tm._embed_integral([SolenoidPoint(0, 2), SolenoidPoint(xi, -1)])

    def test_negative_x_at_infinite_order_is_read_at_xi_plus_x(self):
        params = MapParams(p=3, m=math.inf, s=0.3)
        tm = TorusMap(SolenoidParams(map=params))
        xi = 1 - Fraction(1, 1000)  # the step back from (0, 0) by h = 1e-3
        bound = 2 * params.rounding_bound + _widest_cap(params)
        assert abs(tm._fibers(np.array([float(xi) - 1]), 1, np.array([0]))[0, 0]
                   - tm.fiber_value(xi, -1)) <= bound
        (got,) = tm._embed_integral([SolenoidPoint(xi, -1)])
        assert np.linalg.norm(got - tm.embed(SolenoidPoint(xi, -1))) <= bound + 32 * 2.0**-53 * (
            2.0 + params.contraction_radius)


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

    @pytest.mark.parametrize("a", [3, 2.5, 2j, 1 + 1j, 0.7 - 2.2j])
    def test_one_chart_call_is_the_embedding_of_each_point(self, a):
        # the orbit export's batch: fiber values one by one, then one chart
        # call over all of them, bit for bit the per-point embeddings
        rng = np.random.default_rng(41)
        tm = TorusMap(SolenoidParams(map=MapParams(p=3, m=math.inf, s=0.3 - 0.2j), a=a))
        pts = [SolenoidPoint(Fraction(int(k), 997), int(x) - 500)
               for k, x in zip(rng.integers(0, 997, 500), rng.integers(0, 1000, 500))]
        batch = tm.to_space(np.array([float(f.xi) for f in pts]),
                            np.array([tm.fiber_value(f.xi, f.x) for f in pts]))
        one = np.array([tm.embed(f) for f in pts])
        assert batch.shape == (500, 3)
        assert np.array_equal(batch.view(np.uint64), one.view(np.uint64))

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
        assert np.allclose(tm.embed(SolenoidPoint(0, 0)), [2 + 1 / 0.7, 0, 0], atol=1e-10)

    def test_coset_invariance_of_embedding(self):
        tm = TorusMap(SolenoidParams(map=MapParams(p=3, m=0, s=0.2), a=2.0))
        x = 4
        f = SolenoidPoint(Fraction(2, 5), x)
        rep = tm.to_space(float(f.xi), tm.fiber_value(f.xi, f.x))
        alt = tm.to_space(
            float(f.xi), tm.fiber_value(f.xi + 1, x - 1)
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
            f = SolenoidPoint(Fraction(int(rng.integers(0, 97)), 97), int(rng.integers(0, 256)))
            g = SolenoidPoint(Fraction(int(rng.integers(0, 97)), 97), int(rng.integers(0, 256)))
            rho = distance(f, g, 2, alpha)
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

    @pytest.mark.parametrize("m", [0, 1, 3, 60, math.inf])
    def test_shared_coupling_and_direct_chart_match_per_level_forms(self, m):
        # one exponential per distinct divisor p^(min(n, m) + 1), and the chart's
        # coordinates written in place: bit for bit the per-level coupling and the
        # stacked chart they replace
        p, depth, a = 3, 4, 2.5 - 0.5j
        tm = TorusMap(SolenoidParams(map=MapParams(p=p, m=m, s=0.37 * cmath.exp(0.4j)), a=a))
        params, xis = tm.params.map, np.append(np.arange(8) / 8, 0.7071)
        ns = np.arange(params.depth + 1)
        turns = 2j * math.pi * xis[:, None]
        coupling = np.exp(turns / float(p) ** (np.minimum(ns, m) + 1))
        terms = params.s ** ns[:, None] * character_table(residue_digit_matrix(p, depth), 0,
                                                          params)
        shift = np.clip(ns - m, 0, depth).astype(np.int64)
        on = np.arange(p**depth) % p ** shift[:, None] == 0
        fibers = coupling @ np.where(on, terms, 0) + np.where(on, 0, terms).sum(axis=0)
        assert tm._fibers(xis, depth).tobytes() == fibers.tobytes()

        def stacked(xi, z):
            w = np.asarray(z) / a
            ring = np.exp(2j * math.pi * np.asarray(xi)) * abs(a) * (1.0 + w.real)
            height = np.broadcast_to(abs(a) * w.imag, ring.shape)
            return np.stack([ring.real, height, ring.imag], axis=-1)

        for xi, z in ((xis[:, None], fibers), (0.3, fibers[1, 5]), (xis, 0.25 - 0.5j)):
            assert tm.to_space(xi, z).tobytes() == stacked(xi, z).tobytes()
        cloud = stacked(xis[:8, None], fibers[:8]).reshape(-1, 3)  # xi = i/8
        assert tm.cloud(8, depth).tobytes() == cloud.tobytes()


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
            tm.vector_field(SolenoidPoint(0, 0))

    def test_central_difference_second_order(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = SolenoidPoint(
                Fraction(int(rng.integers(0, 997)), 997),
                int(rng.integers(0, 3**6)),
            )
            gam = self.tm.vector_field(f)
            r1 = float(np.linalg.norm(self._fd(f, 1e-3) - gam))
            r2 = float(np.linalg.norm(self._fd(f, 1e-4) - gam))
            assert r1 / max(r2, 1e-300) > 50.0

    def test_fiber_time_derivative_identity(self):
        # d/dt of the fiber series equals (2 pi i / p) times the s/p series
        sub_map = self.tm.scaled(1.0 / 3.0)
        x = 17
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
        spot = (2j * math.pi / 2) * tm.scaled(0.5).fiber_value(0, 0)
        assert spot == pytest.approx(1j * math.pi / (1 - 0.15), abs=1e-10)

    def test_flow_compatibility_along_orbit(self):
        f = SolenoidPoint(Fraction(1, 5), 7)
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
        for x in (0, 5, 11):
            via_j = self.tm.embed(from_padic(x, 3))
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
            x = Fraction(num, 81)
            frac, integral_part = split(x, 3)
            lhs = self.pm.parts(x)[1]
            rhs = self.tm.fiber_value(frac, integral_part)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 2 * self.mp.tail_bound + EPS

    def test_local_isometry_within_unit_ball(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            shift = Fraction(int(rng.integers(0, 81)), 81)
            ra, rb = int(rng.integers(0, 3**6)), int(rng.integers(0, 3**6))
            xa = shift + ra
            xb = shift + rb
            ya, yb = (self.tm.embed(from_padic(x, 3)) for x in (xa, xb))
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
        want = tm.embed(SolenoidPoint(Fraction(i, xi_count), r))
        assert np.max(np.abs(cloud[idx] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# the group law, the metric and the fiber series against the code they replaced


class TestReplacedPaths:
    """The group law and the metric against the Fraction group law of
    `oracles`, driven by `oracles.point_pairs`, and `from_padic` against the
    point of `split`."""

    @given(pair=oracles.point_pairs(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_distance_matches_built_difference(self, pair, alpha):
        p, (rf, rg) = pair
        f, g = SolenoidPoint(*rf), SolenoidPoint(*rg)
        assert distance(f, g, p, alpha) == oracles.group_distance(rf, rg, p, alpha)
        assert distance(g, f, p, alpha) == oracles.group_distance(rg, rf, p, alpha)

    @given(pair=oracles.point_pairs())
    @settings(max_examples=300, deadline=None)
    def test_add_and_neg_match_fresh_carries(self, pair):
        p, (rf, rg) = pair
        f, g = SolenoidPoint(*rf), SolenoidPoint(*rg)
        for got, want in ((add(f, g), oracles.group_add(rf, rg)), (neg(f), oracles.group_neg(rf)),
                          (add(f, neg(g)), oracles.group_add(rf, oracles.group_neg(rg)))):
            assert got.xi == want[0] and type(got.xi) is Fraction
            assert oracles.same_value(got.x, want[1], p)
            built = SolenoidPoint(*want)
            assert got == built and hash(got) == hash(built)
        for name in ("xi", "x"):
            with pytest.raises(AttributeError):
                setattr(f, name, 0)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_from_padic_is_the_point_of_split(self, data):
        p = data.draw(oracles.BASES)
        q = data.draw(oracles.rationals(p))
        got, want = from_padic(q, p), SolenoidPoint(*split(q, p))
        assert got == want and hash(got) == hash(want) and type(got.x) is type(want.x)

    @pytest.mark.parametrize("xi, want", [(0, Fraction(0)), (0.25, Fraction(1, 4)),
                                          (Fraction(2, 7), Fraction(2, 7))])
    def test_point_keeps_circle_coordinates_as_fractions(self, xi, want):
        f = SolenoidPoint(xi, 3)
        assert type(f.xi) is Fraction and f.xi == want
        assert f == SolenoidPoint(want, 3) and hash(f) == hash(SolenoidPoint(want, 3))
