import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
import hypothesis.strategies as st

from padic_fractal.padic import PAdic, PrecisionError, expand, from_int
from padic_fractal.complex_map import (
    EmbeddingCertificate,
    MapParams,
    PlaneMap,
    PointCloud2D,
    _class_separation,
    _min_cross_distance,
    character_table,
    delta_certificate,
    delta_lower,
    residue_bound,
    residue_digit_matrix,
    rotate_digits,
    s_zero,
    sandwich_check,
    scaling_residuals,
    series_values,
)
from padic_fractal.solenoid import SolenoidParams, TorusMap, delta_tilde_certificate
from padic_fractal.analysis import measure_consistency
from padic_fractal.render import preset

EPS = 1e-12


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MapParams(p=1, m=0, s=0.3)
        with pytest.raises(ValueError):
            MapParams(p=2, m=-1, s=0.3)
        with pytest.raises(ValueError):
            MapParams(p=2, m=0, s=1.2)
        with pytest.raises(ValueError):
            MapParams(p=2, m=0, s=0.0)
        with pytest.raises(ValueError):
            MapParams(p=2, m=0, s=0.9, depth=2, tol=1e-9)

    def test_derived_quantities(self):
        mp = MapParams(p=2, m=0, s=0.5)
        assert mp.scaling_dimension == pytest.approx(1.0)
        assert mp.contraction_radius == pytest.approx(2.0)
        mp = MapParams(p=2, m=0, s=1 / 3)
        assert mp.scaling_dimension == pytest.approx(math.log(2) / math.log(3))

    def test_for_tolerance_picks_depth(self):
        mp = MapParams.for_tolerance(2, 0, 0.3, 1e-10)
        assert mp.tail_bound <= 1e-10
        assert MapParams.for_tolerance(2, 0, 0.3, 1e-10).depth < 50

    def test_threshold_values(self):
        assert s_zero(2) == 0.5
        assert s_zero(3) == pytest.approx(0.464101615137754, abs=1e-12)
        assert s_zero(6) == pytest.approx(1 / 3, abs=1e-12)


class TestCharacter:
    def test_zero_is_unity(self):
        pm = PlaneMap(MapParams(p=5, m=3, s=0.2))
        assert pm.character(expand(0, 5, 1), 7) == 1.0

    def test_order_zero_sign(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
        assert pm.character(from_int(1, 2), 0) == pytest.approx(-1.0)

    def test_infinite_order_example(self):
        # at base 2 the level-1 full character of 1 is exp(i pi / 2) = i
        pm = PlaneMap(MapParams(p=2, m=math.inf, s=0.3))
        assert pm.character(from_int(1, 2), 1) == pytest.approx(1j)
        # matches exp(2 pi i {x / p^(n+1)}) additive form
        for r in (1, 3, 5, 11):
            for n in range(5):
                frac = (r % 2 ** (n + 1)) / 2 ** (n + 1)
                assert pm.character(from_int(r, 2, 6), n) == pytest.approx(
                    cmath.exp(2j * math.pi * frac)
                )

    def test_truncated_window_raises(self):
        pm = PlaneMap(MapParams(p=2, m=math.inf, s=0.3))
        x = PAdic(2, 0, (1, 0, 1))
        with pytest.raises(PrecisionError):
            pm.character(x, 5)

    def test_unit_modulus(self):
        pm = PlaneMap(MapParams(p=3, m=2, s=0.2))
        for r in range(20):
            for n in range(6):
                assert abs(pm.character(from_int(r, 3, 6), n)) == pytest.approx(1.0)


class TestSeriesMap:
    def test_zero_maps_to_geometric_sum(self):
        for s in (1 / 3, 0.25 + 0.1j):
            pm = PlaneMap(MapParams(p=2, m=0, s=s))
            assert pm.value(expand(0, 2, 1)) == pytest.approx(1.0 / (1.0 - s), abs=1e-10)

    def test_minus_one(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
        assert pm.value(expand(-1, 2, 60)) == pytest.approx(-1.0 / 0.7, abs=1e-10)

    def test_one_at_s_third(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=1 / 3))
        assert pm.value(from_int(1, 2)) == pytest.approx(-0.5, abs=1e-12)

    def test_lacunary_digit_example(self):
        # digits set exactly at indices 1, 2, 4, 8, 16, 32: the image is
        # the geometric base point minus twice the sparse subseries
        s = 0.41
        depth = 40
        digits = [0] * (depth + 1)
        for k in (1, 2, 4, 8, 16, 32):
            digits[k] = 1
        digits[1] = 1
        x = PAdic(2, 1, tuple(digits[1:]))
        pm = PlaneMap(MapParams(p=2, m=0, s=s, depth=depth))
        expected = 1.0 / (1.0 - s) - 2.0 * sum(s ** (2**k) for k in range(6))
        assert pm.value(x) == pytest.approx(expected, abs=4 * pm.params.tail_bound + EPS)

    def test_parts_examples(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.37))
        frac, integral = pm.parts(from_int(3, 2, 5))
        assert frac == 0
        x = expand(Fraction(1, 2), 2, 8)
        frac, integral = pm.parts(x)
        assert frac == pytest.approx(-2.0 / 0.37, abs=EPS)
        total = pm.value(x)
        assert frac + integral == pytest.approx(total, abs=2 * pm.params.tail_bound + EPS)

    def test_fractional_part_depends_on_fraction_only(self):
        pm = PlaneMap(MapParams(p=3, m=math.inf, s=0.2))
        x = expand(Fraction(7, 9), 3, 12)
        f, _ = x.split()
        fx = pm.parts(x)[0]
        fy = pm.parts(expand(f, 3, 12))[0]
        assert fx == pytest.approx(fy, abs=EPS)

    def test_integral_arguments_have_no_fraction(self):
        pm = PlaneMap(MapParams(p=3, m=math.inf, s=0.2))
        y = from_int(7, 3, 6)
        assert pm.parts(y)[0] == 0
        assert pm.value(y) == pytest.approx(pm.parts(y)[1], abs=EPS)


class TestVectorized:
    @pytest.mark.parametrize("p,m", [(2, 0), (3, 2), (6, math.inf), (4, 1)])
    def test_matches_scalar(self, p, m):
        params = MapParams(p=p, m=m, s=0.25 + 0.1j, depth=32)
        pm = PlaneMap(params)
        vals = pm.values_on_residues(4)
        for r in range(p**4):
            assert vals[r] == pytest.approx(pm.value(from_int(r, p, 4)), abs=1e-10)

    def test_scaled_ball_matches_scalar(self):
        params = MapParams(p=3, m=math.inf, s=0.2, depth=30)
        pm = PlaneMap(params)
        codes = np.array([0, 1, 5, 80, 81, 1234], dtype=np.int64)
        mat = residue_digit_matrix(3, 8, codes)
        vec = series_values(mat, -4, params)
        for i, c in enumerate(codes):
            x = expand(Fraction(int(c), 81), 3, 16)
            assert vec[i] == pytest.approx(pm.value(x), abs=1e-10)

    def test_shift_start_includes_constant_levels(self):
        params = MapParams(p=2, m=0, s=0.3, depth=30)
        mat = residue_digit_matrix(2, 5)
        shifted = series_values(mat, 1, params)
        base = series_values(mat, 0, params)
        assert np.max(np.abs(shifted - (0.3 * base + 1.0))) < 1e-12

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            residue_digit_matrix(2, 64)

    def test_digit_matrix_is_int64(self):
        mat = residue_digit_matrix(3, 4)
        assert mat.dtype == np.int64
        assert mat.shape == (81, 4)
        assert [int(d) for d in mat[47]] == [2, 0, 2, 1]  # 47 = 2 + 2*9 + 27
        empty = residue_digit_matrix(3, 0, np.arange(5, dtype=np.int64))
        assert empty.shape == (5, 0) and empty.dtype == np.int64

    @pytest.mark.parametrize("kernel", [series_values, character_table])
    def test_non_integer_digits_refused(self, kernel):
        params = MapParams(p=2, m=0, s=0.3, depth=8)
        mat = residue_digit_matrix(2, 4)
        with pytest.raises(ValueError, match="float64"):
            kernel(mat.astype(np.float64), 0, params)
        assert np.array_equal(kernel(mat.astype(np.int32), 0, params), kernel(mat, 0, params))


class TestScalingLaw:
    def test_fixed_point_zero(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
        assert pm.scaling_residual(expand(0, 2, 1)) < 1e-12

    def test_explicit_value(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=1 / 3))
        assert pm.value(from_int(2, 2)) == pytest.approx(5 / 6, abs=1e-12)
        assert pm.value(from_int(2, 2)) == pytest.approx(
            pm.params.s * pm.value(from_int(1, 2)) + 1.0, abs=1e-12
        )

    def test_thousand_random_residues(self):
        params = MapParams(p=3, m=math.inf, s=0.25 + 0.1j, depth=40)
        res = scaling_residuals(params, n_samples=1000, digit_depth=30, seed=11)
        assert float(res.max()) < 1e-9

    def test_polar_form_of_s(self):
        mp = MapParams(p=3, m=0, s=0.25 + 0.1j)
        rebuilt = mp.p ** (-1.0 / mp.scaling_dimension) * cmath.exp(
            1j * cmath.phase(mp.s)
        )
        assert rebuilt == pytest.approx(mp.s, abs=1e-12)


class TestCertificates:
    def test_lower_bound_values(self):
        assert delta_lower(2, 0.3) == pytest.approx(8 / 7, abs=1e-12)
        assert delta_lower(2, 0.5) == 0.0
        assert delta_lower(3, 0.2) == pytest.approx(2 * (math.sqrt(3) / 2 - 0.25), abs=1e-9)

    def test_certified_case(self):
        cert = delta_certificate(MapParams(p=2, m=0, s=0.3), search_depth=8)
        assert cert.verdict == "certified-embedding"
        assert cert.delta_lower == pytest.approx(8 / 7, abs=1e-12)
        assert cert.delta_empirical + cert.allowance >= cert.delta_lower

    def test_threshold_case_unknown(self):
        cert = delta_certificate(MapParams(p=2, m=0, s=0.5), search_depth=8)
        assert cert.delta_lower == 0.0
        assert cert.verdict == "unknown"

    def test_p3_infinite_order(self):
        cert = delta_certificate(MapParams(p=3, m=math.inf, s=0.2), search_depth=6)
        assert cert.delta_lower == pytest.approx(1.2320508, abs=1e-6)
        assert cert.delta_empirical >= cert.delta_lower - 1e-9

    def test_invalid_verdict_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingCertificate(1.0, 2.0, "sure")
        with pytest.raises(ValueError):
            EmbeddingCertificate(2.0, 1.0, "unknown", allowance=0.0)


class TestSandwich:
    def test_no_violations_certified(self):
        out = sandwich_check(MapParams(p=2, m=0, s=0.3), 10_000, 14, seed=7)
        assert out["lower_violations"] == 0
        assert out["upper_violations"] == 0

    def test_complex_s(self):
        out = sandwich_check(MapParams(p=3, m=math.inf, s=0.25 + 0.1j), 4000, 10, seed=3)
        assert out["lower_violations"] == 0
        assert out["upper_violations"] == 0

    def test_sample_range_past_64_bits(self):
        assert residue_bound(2, 63) == 2**63
        with pytest.raises(ValueError, match=r"1000\^7 .* 2\^63"):
            sandwich_check(MapParams(p=1000, m=0, s=0.3), 10, 7, seed=0)


class TestClusters:
    def test_count_and_realness(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=1 / 3, depth=40))
        cloud = pm.cluster(0, 0, 10)
        assert len(cloud) == 1024
        assert np.max(np.abs(cloud.values.imag)) < 1e-12

    def test_partition_property(self):
        pm = PlaneMap(MapParams(p=3, m=0, s=0.2, depth=30))
        parent = pm.cluster(0, 1, 7)
        kids = [pm.cluster(0 + d * 3, 2, 7) for d in range(3)]
        union_labels = np.sort(np.concatenate([k.labels for k in kids]))
        assert np.array_equal(union_labels, np.sort(parent.labels))
        by_label = {}
        for k in kids:
            for lab, val in zip(k.labels, k.values):
                by_label[int(lab)] = val
        for lab, val in zip(parent.labels, parent.values):
            assert by_label[int(lab)] == pytest.approx(val, abs=1e-12)

    def test_ifs_decomposition_order_zero(self):
        # one-level refinement acts as z -> s z + exp(2 pi i d / p)
        pm = PlaneMap(MapParams(p=5, m=0, s=0.21, depth=35))
        parent = pm.cluster(0, 0, 5)
        for d in range(5):
            child = pm.cluster(d, 1, 6)
            pred = cmath.exp(2j * math.pi * d / 5) + 0.21 * parent.values
            assert np.max(np.abs(child.values - pred)) < 1e-9

    def test_cluster_separation_certified(self):
        params = MapParams(p=2, m=0, s=0.3, depth=40)
        pm = PlaneMap(params)
        a = pm.cluster(0, 1, 9).values
        b = pm.cluster(1, 1, 9).values
        gap = np.min(np.abs(a[:, None] - b[None, :]))
        assert gap >= delta_lower(2, 0.3) - 2 * params.tail_bound

    def test_depth_validation(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
        with pytest.raises(ValueError):
            pm.cluster(0, 5, 3)

    def test_row_guard_counts_the_rows_built(self):
        # a level-5 ball to depth 25 holds 2^20 points; the unit ball to
        # depth 24 holds 2^24, past the 2^23 limit
        pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
        assert len(pm.cluster(0, 5, 25)) == 2**20
        with pytest.raises(ValueError, match=r"2\^24 = 16777216 rows"):
            pm.cluster(0, 0, 24)


class TestSymmetries:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_digit_rotation_phase(self, p):
        params = MapParams(p=p, m=0, s=0.3, depth=45)
        pm = PlaneMap(params)
        phase = cmath.exp(2j * math.pi / p)
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = from_int(int(rng.integers(0, p**9)), p, 9)
            assert pm.value(rotate_digits(x)) == pytest.approx(
                phase * pm.value(x), abs=4 * params.tail_bound + 1e-10
            )

    def test_rotation_is_involution_power(self):
        # rotating p times returns to the start
        x = from_int(7, 3, 5)
        y = x
        for _ in range(3):
            y = rotate_digits(y)
        assert y.value == x.value

    def test_rotation_of_negative_one_is_zero(self):
        assert rotate_digits(expand(-1, 2, 6)).is_zero()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_rotation_matches_per_index_digits(self, data):
        p = data.draw(st.sampled_from([2, 3, 6]))
        x = data.draw(st.one_of(
            st.builds(lambda n, d, k: expand(Fraction(n * p**k, d), p, 6),
                      st.integers(-300, 300), st.sampled_from([1, 7, 11, 13]), st.integers(0, 3)),
            st.builds(lambda v, lead, rest: PAdic(p, v, (lead, *rest)),
                      st.integers(0, 3), st.integers(1, p - 1),
                      st.lists(st.sampled_from([0, p - 1]), max_size=6)),
        ))
        try:
            want = per_index_rotation(x)
        except PrecisionError as exc:
            with pytest.raises(PrecisionError, match=str(exc)):
                rotate_digits(x)
            return
        got = rotate_digits(x)
        assert got == want and (got.value, got.window_top) == (want.value, want.window_top)

    def test_image_rotation_invariance_as_set(self):
        params = MapParams(p=3, m=0, s=0.2, depth=35)
        pm = PlaneMap(params)
        depth = 5
        vals = pm.values_on_residues(depth)
        rotated = vals * cmath.exp(2j * math.pi / 3)
        # every rotated point lands inside the sampled image up to the
        # level-depth ball diameter (its preimage tail leaves the sample)
        ball = 2 * 0.2**depth / 0.8
        dists = np.abs(rotated[:, None] - vals[None, :]).min(axis=1)
        assert float(dists.max()) < ball + 4 * params.tail_bound + 1e-9

    def test_realness_base_two_order_zero(self):
        params = MapParams(p=2, m=0, s=0.47, depth=45)
        vals = PlaneMap(params).values_on_residues(10)
        assert np.max(np.abs(vals.imag)) < 1e-12


class TestHolomorphy:
    def test_first_order_taylor_residual(self):
        x = expand(Fraction(11, 4), 2, 40)
        s0 = 0.3 + 0.05j
        residuals = []
        for h in (1e-3, 1e-4):
            pm0 = PlaneMap(MapParams(p=2, m=math.inf, s=s0, depth=60))
            pm1 = PlaneMap(MapParams(p=2, m=math.inf, s=s0 + h, depth=60))
            lin = pm0.value(x) + h * pm0.derivative_in_s(x)
            residuals.append(abs(pm1.value(x) - lin))
        assert residuals[0] / max(residuals[1], 1e-300) > 50.0


@given(
    r=st.integers(min_value=0, max_value=3**6 - 1),
    t=st.integers(min_value=0, max_value=3**6 - 1),
)
@settings(max_examples=60, deadline=None)
def test_distance_never_exceeds_diameter_bound(r, t):
    params = MapParams(p=3, m=0, s=0.2, depth=30)
    pm = PlaneMap(params)
    va, vb = pm.value(from_int(r, 3, 6)), pm.value(from_int(t, 3, 6))
    if r != t:
        diff = r - t
        v = 0
        while diff % 3 == 0:
            diff //= 3
            v += 1
        assert abs(va - vb) <= 2 * 0.2**v / 0.8 + 2 * params.tail_bound + EPS


# -- the level loop against the scalar oracle and the digit-matrix path -----

LOOP_P = st.sampled_from([2, 3, 6])
LOOP_M = st.sampled_from([0, 1, 3, math.inf])
LOOP_S = st.builds(
    cmath.rect, st.floats(min_value=0.15, max_value=0.6), st.floats(min_value=-3.1, max_value=3.1)
)
LOOP_SCALE = st.sampled_from([0, 1, -4])


def _scalar(pm: PlaneMap, code: int, scale: int) -> complex:
    p = pm.params.p
    return pm.value(expand(Fraction(code) * Fraction(p) ** scale, p, 12))


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@given(p=LOOP_P, m=LOOP_M, s=LOOP_S, scale=LOOP_SCALE, data=st.data())
@settings(max_examples=60, deadline=None)
def test_level_loop_table_regime_matches_oracles(p, m, s, scale, data):
    # every residue at a depth whose row count holds the p**(m+1) table
    depth = {2: 6, 3: 5, 6: 4}[p]
    params = MapParams(p=p, m=m, s=s, depth=24)
    pm = PlaneMap(params)
    vals = pm.cluster(0, scale, depth + scale).values
    via_matrix = series_values(residue_digit_matrix(p, depth), scale, params)
    assert all(_close(g, w) for g, w in zip(vals, via_matrix))
    for code in data.draw(st.lists(st.integers(0, p**depth - 1), min_size=1, max_size=4)):
        assert _close(vals[code], _scalar(pm, code, scale))


@given(p=LOOP_P, m=LOOP_M, s=LOOP_S, scale=LOOP_SCALE, data=st.data())
@settings(max_examples=60, deadline=None)
def test_level_loop_exp_regime_matches_oracles(p, m, s, scale, data):
    # a single row: every window wider than one entry is exponentiated
    depth = 9
    params = MapParams(p=p, m=m, s=s, depth=24)
    pm = PlaneMap(params)
    code = data.draw(st.integers(0, p**depth - 1))
    codes = np.array([code], dtype=np.int64)
    got = series_values(residue_digit_matrix(p, depth, codes), scale, params)[0]
    assert _close(got, _scalar(pm, code, scale))
    if scale >= 0:
        assert _close(pm.values_on_residues(depth + scale, codes=codes * p**scale)[0], got)


@pytest.mark.parametrize("p,m", [(2, math.inf), (2, 60), (6, math.inf), (6, 30)])
def test_level_loop_windows_wider_than_a_float(p, m):
    # 70 sampled digits: the codes overflow int64 and the windows outgrow
    # the 53 bits a float holds exactly
    params = MapParams(p=p, m=m, s=0.9j, depth=80)
    pm = PlaneMap(params)
    mat = np.random.default_rng(5).integers(0, p, size=(3, 70))
    got = series_values(mat, 0, params)
    for row, value in zip(mat, got):
        code = sum(int(d) * p**j for j, d in enumerate(row))
        assert _close(value, pm.value(from_int(code, p, 70)))


# -- the split product against the level loop and the scalar oracle ---------

RECURSION_M = st.sampled_from([0, 1, 3])
ENUM_DEPTH = {2: 8, 3: 5, 5: 4, 6: 3}


def _geometric_bound(params: MapParams, low: int = 0) -> float:
    return 1e-14 * sum(abs(params.s) ** n for n in range(low, params.depth + 1))


@given(p=LOOP_P, m=RECURSION_M, s=LOOP_S, series_depth=st.integers(1, 40), data=st.data())
@settings(max_examples=80, deadline=None)
def test_recursion_matches_level_loop_and_scalar(p, m, s, series_depth, data):
    # series depths from 1 up cover truncations below depth + m - 1
    depth = ENUM_DEPTH[p]
    params = MapParams(p=p, m=m, s=s, depth=series_depth)
    pm = PlaneMap(params)
    bound = _geometric_bound(params)
    vals = pm.values_on_residues(depth)
    loop = pm.values_on_residues(depth, codes=np.arange(p**depth, dtype=np.int64))
    assert np.max(np.abs(vals - loop)) <= bound
    for code in data.draw(st.lists(st.integers(0, p**depth - 1), min_size=1, max_size=4)):
        assert abs(vals[code] - pm.value(from_int(code, p, depth))) <= bound


@given(p=LOOP_P, m=RECURSION_M, s=LOOP_S, series_depth=st.integers(1, 40),
       level=st.integers(0, 2), corner=st.sampled_from(["zero", "one", "top"]))
@settings(max_examples=80, deadline=None)
def test_recursion_clusters_match_level_loop(p, m, s, series_depth, level, corner):
    depth = ENUM_DEPTH[p]
    center = {"zero": 0, "one": 1, "top": p**level - 1}[corner]
    params = MapParams(p=p, m=m, s=s, depth=series_depth)
    pm = PlaneMap(params)
    cloud = pm.cluster(center, level, depth)
    loop = pm.values_on_residues(depth, codes=cloud.labels)
    assert np.max(np.abs(cloud.values - loop)) <= _geometric_bound(params)


@pytest.mark.parametrize("p", [2, 3, 6])
def test_level_loop_paths_unchanged_by_recursion(p):
    # explicit codes still read every digit of every row: bit-identical to
    # the digit-matrix kernel
    depth = ENUM_DEPTH[p]
    finite = MapParams(p=p, m=1, s=0.3 - 0.2j, depth=30)
    codes = np.array([0, 5, p**depth - 1], dtype=np.int64)
    assert np.array_equal(PlaneMap(finite).values_on_residues(depth, codes=codes),
                          series_values(residue_digit_matrix(p, depth, codes), 0, finite))


@given(p=st.sampled_from([2, 3, 5, 6]), m=LOOP_M, s=LOOP_S, series_depth=st.integers(1, 40),
       corner=st.sampled_from(["zero", "one", "top"]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_split_matches_level_loop_and_scalar(p, m, s, series_depth, corner, data):
    # every order, series depths from 1 up, and balls from radius p^3 down
    # to single points, whose split may fall below level 0; a negative
    # level is the ball around 0, labelled by p^-level x
    level = data.draw(st.integers(-3, ENUM_DEPTH[p]))
    depth = level + data.draw(st.integers(0, ENUM_DEPTH[p]))
    step = p ** max(level, 0)
    center = {"zero": 0, "one": 1, "top": step - 1}[corner]
    params = MapParams(p=p, m=m, s=s, depth=series_depth)
    pm = PlaneMap(params)
    low = min(level, 0)
    bound = _geometric_bound(params, low)
    cloud = pm.cluster(center, level, depth)
    assert cloud.level == level
    # at level <= 0 every integer center lies in the ball around 0
    assert np.array_equal(cloud.labels, center % step + step * np.arange(p ** (depth - level)))
    loop = series_values(residue_digit_matrix(p, depth - low, cloud.labels), low, params)
    assert np.max(np.abs(cloud.values - loop)) <= bound
    for k in data.draw(st.lists(st.integers(0, len(cloud) - 1), min_size=1, max_size=4)):
        x = expand(Fraction(int(cloud.labels[k])) * Fraction(p) ** low, p, depth - low + 1)
        assert abs(cloud.values[k] - pm.value(x)) <= bound


def test_recursion_on_z4_within_a_few_ulps_of_exact():
    # s is the double nearest 1/3 and the phases are +-1, +-i: every value lies in Q(i)
    fp = preset("fig1-4-z4")
    params = fp.map_params(4)
    vals = PlaneMap(params).values_on_residues(4)
    s, units = Fraction(params.s.real), [(1, 0), (0, 1), (-1, 0), (0, -1)]
    worst = 0.0
    for code, got in enumerate(vals):
        re = im = Fraction(0)
        for n in range(params.depth + 1):
            ur, ui = units[code // 4**n % 4]
            re, im = re + s**n * ur, im + s**n * ui
        worst = max(worst, math.hypot(Fraction(got.real) - re, Fraction(got.imag) - im))
    assert worst <= 4 * 2.0**-52 * params.contraction_radius


class TestPointCloud2D:
    def _cloud(self, labels) -> PointCloud2D:
        params = MapParams(p=2, m=0, s=0.3)
        vals = np.arange(len(labels), dtype=np.complex128)
        return PointCloud2D(values=vals, labels=np.array(labels), level=0, params=params)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            self._cloud([0, 3, 1, 3])

    def test_accepts_unsorted_unique_labels(self):
        assert len(self._cloud([5, 0, 2, 1])) == 4


def test_min_cross_distance_matches_brute_force():
    # sizes that split both orders into several blocks of about 2**20 pairs
    rng = np.random.default_rng(3)
    va = rng.normal(size=70) + 1j * rng.normal(size=70)
    vb = rng.normal(size=40_000) + 1j * rng.normal(size=40_000)
    brute = float(np.abs(va[:, None] - vb[None, :]).min())
    assert _min_cross_distance(va, vb) == brute
    assert _min_cross_distance(vb, va) == brute


def brute_class_separation(vals: np.ndarray, modulus: int) -> float:
    """Reference: every pair of residues in distinct classes, one row at a time."""
    best = math.inf
    cls = np.arange(vals.shape[1]) % modulus
    for row in vals:
        dist = np.abs(row[:, None] - row[None, :])
        dist[cls[:, None] == cls[None, :]] = math.inf
        best = min(best, float(dist.min()))
    return best


@given(
    case=st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (6, 1), (6, 2)]),
    extra=st.integers(0, 2),
    rows=st.integers(1, 3),
    span=st.sampled_from([1, 3, 100]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_class_separation_matches_brute_force(case, extra, rows, span, data):
    # classes mod p or p**2; values on an integer grid, so exact ties (and,
    # on the small grids, coincident points) are common
    p, level = case
    n = p ** (level + (extra if p < 6 else min(extra, 1)))
    grid = st.integers(-span, span)
    real, imag = data.draw(arrays(np.int64, (2, rows, n), elements=grid, fill=st.nothing()))
    vals = real + 1j * imag
    assert _class_separation(vals, p**level) == brute_class_separation(vals, p**level)
    assert _class_separation(vals[0], p**level) == brute_class_separation(vals[:1], p**level)


def test_class_separation_of_one_class_is_inf():
    assert _class_separation(np.arange(8, dtype=complex), 1) == math.inf


def test_shallow_searches_name_the_class_level():
    # each search depth below its class level
    params = MapParams(p=2, m=0, s=0.3)
    calls = [
        lambda: delta_certificate(params, search_depth=0),
        lambda: delta_tilde_certificate(SolenoidParams(map=params, a=2.0), search_depth=0),
        lambda: measure_consistency(params, level=5, depth=4),
        lambda: measure_consistency(params, level=3, depth=10, separation_depth=2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="search depth must reach the class level"):
            call()


def per_index_rotation(x: PAdic) -> PAdic:
    """Reference: digit rotation reading one digit(n) per index."""
    p = x.p
    if x.value is None:
        rles = [(x.digit(n) + 1) % p for n in range(x.window_top)]
        lead = next((i for i, d in enumerate(rles) if d), None)
        if lead is None:
            raise PrecisionError("rotation vanishes across a truncated window")
        return PAdic(p, lead, tuple(rles[lead:]))
    start = x.v + x.preperiod if x.period else x.window_top
    block = x.period or (0,)
    head = sum((x.digit(n) + 1) % p * p**n for n in range(start))
    tail = sum((d + 1) % p * p**i for i, d in enumerate(block))
    return expand(head + Fraction(tail * p**start, 1 - p ** len(block)), p, start + len(block))


def per_level_character(x: PAdic, n: int, p: int, m) -> complex:
    """Reference: the per-level character loop the scalar oracle used,
    re-reading the digits under level n as a float sum of p^-k weights."""
    if x.is_zero() or n < x.v:
        return 1.0 + 0.0j
    kmax = n - x.v if m == math.inf else min(m, n - x.v)
    units = 0.0
    for k in range(int(kmax) + 1):
        d = x.digit(n - k)
        if d:
            units += d * float(p) ** (-k)
    return cmath.exp(2j * math.pi * units / p)


def per_level_coupling(xi: float, x: PAdic, n: int, p: int, m) -> complex:
    """Reference: the circle phase of level n in the fiber series."""
    if m == math.inf:
        return cmath.exp(2j * math.pi * xi / p ** (n + 1))
    if n > m + x.valuation():
        return 1.0 + 0.0j
    return cmath.exp(2j * math.pi * xi / p ** (min(n, int(m)) + 1))


def per_level_sums(x: PAdic, params: MapParams, weight):
    """(negative levels, levels 0 .. depth) sums of weight(n) (chi_n - [n < 0])
    and the sum of |weight(n)|, the scale of their rounding."""
    lo = 0 if x.is_zero() else min(x.v, 0)
    frac = integral = 0.0 + 0.0j
    scale = 0.0
    for n in range(lo, params.depth + 1):
        chi = per_level_character(x, n, params.p, params.m)
        if n < 0:
            frac += weight(n) * (chi - 1.0)
        else:
            integral += weight(n) * chi
        scale += abs(weight(n))
    return frac, integral, scale


def exact_points(p: int):
    # negative valuations, periodic tails and composite-base denominators
    return st.builds(
        lambda num, den, k: expand(Fraction(num, den * p**k), p, 12),
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=3),
    )


def truncated_points(p: int, depth: int):
    # a stored window that reaches past the series depth
    return st.builds(
        lambda v, lead, rest: PAdic(p, v, (lead, *rest)),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=p - 1),
        st.lists(st.integers(min_value=0, max_value=p - 1), min_size=depth + 4, max_size=depth + 8),
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_single_digit_pass_matches_per_level_loop(data):
    p = data.draw(st.sampled_from([2, 3, 6]))
    m = data.draw(st.sampled_from([0, 1, 3, math.inf]))
    s = data.draw(st.sampled_from([0.25, 0.4, 0.3 + 0.2j, -0.35]))
    depth = data.draw(st.integers(min_value=1, max_value=30))
    params = MapParams(p=p, m=m, s=s, depth=depth)
    x = data.draw(st.one_of(exact_points(p), truncated_points(p, depth)))
    pm = PlaneMap(params)
    for n in range(min(x.valuation(), 0) - 2, depth + 1):
        assert abs(pm.character(x, n) - per_level_character(x, n, p, m)) <= 1e-12
    frac, integral, scale = per_level_sums(x, params, lambda n: s**n)
    got_frac, got_integral = pm.parts(x)
    assert abs(got_frac - frac) <= 1e-12 * scale
    assert abs(got_integral - integral) <= 1e-12 * scale
    assert abs(pm.value(x) - (frac + integral)) <= 1e-12 * scale
    frac, integral, scale = per_level_sums(x, params, lambda n: n * s ** (n - 1))
    assert abs(pm.derivative_in_s(x) - (frac + integral)) <= 1e-12 * scale
    tm = TorusMap(SolenoidParams(map=params, a=2.0))
    xi = data.draw(st.fractions(min_value=0, max_value=Fraction(996, 997), max_denominator=997))
    want = sum(
        s**n * per_level_coupling(float(xi), x, n, p, m) * per_level_character(x, n, p, m)
        for n in range(depth + 1)
    )
    assert abs(tm.fiber_value(xi, x) - want) <= 1e-12 * sum(abs(s) ** n for n in range(depth + 1))
    if x.value is None:
        # the stored digits end at window_top: nothing reads past them
        with pytest.raises(PrecisionError):
            pm.character(x, x.window_top)
        with pytest.raises(PrecisionError):
            PlaneMap(replace(params, depth=x.window_top)).value(x)


def test_exact_value_reads_the_digits_of_its_rational():
    pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
    # 5 = 1 + 4: chi_n = -1, 1, -1 at levels 0, 1, 2 and 1 above
    assert pm.value(expand(5, 2, 3)) == pytest.approx(-1 + 0.3 - 0.09 + 0.027 / 0.7, abs=EPS)
