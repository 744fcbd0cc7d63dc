import cmath
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
import hypothesis.strategies as st

from padic_fractal import complex_map
import oracles
from padic_fractal.padic import split, valuation
from padic_fractal.complex_map import (
    MapParams,
    PlaneMap,
    character_table,
    delta_lower,
    residue_digit_matrix,
    s_zero,
    sandwich_check,
    scaling_residuals,
    series_values,
)
from padic_fractal.solenoid import SolenoidParams, TorusMap
from padic_fractal.analysis import (
    MAX_PAIRS,
    EmbeddingCertificate,
    _class_separation,
    delta_certificate,
    delta_tilde_certificate,
    measure_consistency,
)
from padic_fractal.render import preset

EPS = 1e-12


def preimages(p: int, center: int, level: int, depth: int) -> np.ndarray:
    """The integer preimages of the values of PlaneMap.cluster(center,
    level, depth), in its order: center mod p^level plus p^level k; at a
    negative level k itself, which stands for the preimage p^level k."""
    step = p ** max(level, 0)
    return center % step + step * np.arange(p ** (depth - level), dtype=np.int64)


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

    def test_derived_quantities(self):
        mp = MapParams(p=2, m=0, s=0.5)
        assert mp.scaling_dimension == pytest.approx(1.0)
        assert mp.contraction_radius == pytest.approx(2.0)
        mp = MapParams(p=2, m=0, s=1 / 3)
        assert mp.scaling_dimension == pytest.approx(math.log(2) / math.log(3))

    def test_threshold_values(self):
        assert s_zero(2) == 0.5
        assert s_zero(3) == pytest.approx(0.464101615137754, abs=1e-12)
        assert s_zero(6) == pytest.approx(1 / 3, abs=1e-12)


class TestCharacter:
    def test_zero_is_unity(self):
        pm = PlaneMap(MapParams(p=5, m=3, s=0.2))
        assert pm.character(0, 7) == 1.0

    def test_order_zero_sign(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
        assert pm.character(1, 0) == pytest.approx(-1.0)

    def test_infinite_order_example(self):
        # at base 2 the level-1 full character of 1 is exp(i pi / 2) = i
        pm = PlaneMap(MapParams(p=2, m=math.inf, s=0.3))
        assert pm.character(1, 1) == pytest.approx(1j)
        # matches exp(2 pi i {x / p^(n+1)}) additive form
        for r in (1, 3, 5, 11):
            for n in range(5):
                frac = (r % 2 ** (n + 1)) / 2 ** (n + 1)
                assert pm.character(r, n) == pytest.approx(
                    cmath.exp(2j * math.pi * frac)
                )

    def test_unit_modulus(self):
        pm = PlaneMap(MapParams(p=3, m=2, s=0.2))
        for r in range(20):
            for n in range(6):
                assert abs(pm.character(r, n)) == pytest.approx(1.0)


class TestSeriesMap:
    def test_zero_maps_to_geometric_sum(self):
        for s in (1 / 3, 0.25 + 0.1j):
            pm = PlaneMap(MapParams(p=2, m=0, s=s))
            assert pm.value(0) == pytest.approx(1.0 / (1.0 - s), abs=1e-10)

    def test_minus_one(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
        assert pm.value(-1) == pytest.approx(-1.0 / 0.7, abs=1e-10)

    def test_one_at_s_third(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=1 / 3))
        assert pm.value(1) == pytest.approx(-0.5, abs=1e-12)

    def test_lacunary_digit_example(self):
        # digits set exactly at indices 1, 2, 4, 8, 16, 32: the image is
        # the geometric base point minus twice the sparse subseries
        s = 0.41
        depth = 40
        x = sum(2**k for k in (1, 2, 4, 8, 16, 32))
        pm = PlaneMap(MapParams(p=2, m=0, s=s, depth=depth))
        expected = 1.0 / (1.0 - s) - 2.0 * sum(s ** (2**k) for k in range(6))
        assert pm.value(x) == pytest.approx(expected, abs=4 * pm.params.tail_bound + EPS)

    def test_parts_examples(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.37))
        frac, integral = pm.parts(3)
        assert frac == 0
        x = Fraction(1, 2)
        frac, integral = pm.parts(x)
        assert frac == pytest.approx(-2.0 / 0.37, abs=EPS)
        total = pm.value(x)
        assert frac + integral == pytest.approx(total, abs=2 * pm.params.tail_bound + EPS)

    def test_fractional_part_depends_on_fraction_only(self):
        pm = PlaneMap(MapParams(p=3, m=math.inf, s=0.2))
        x = Fraction(7, 9)
        f, _ = split(x, 3)
        fx = pm.parts(x)[0]
        fy = pm.parts(f)[0]
        assert fx == pytest.approx(fy, abs=EPS)

    def test_integral_arguments_have_no_fraction(self):
        pm = PlaneMap(MapParams(p=3, m=math.inf, s=0.2))
        y = 7
        assert pm.parts(y)[0] == 0
        assert pm.value(y) == pytest.approx(pm.parts(y)[1], abs=EPS)


class TestVectorized:
    @pytest.mark.parametrize("p,m", [(2, 0), (3, 2), (6, math.inf), (4, 1)])
    def test_matches_scalar(self, p, m):
        params = MapParams(p=p, m=m, s=0.25 + 0.1j, depth=32)
        pm = PlaneMap(params)
        vals = pm.values_on_residues(4)
        for r in range(p**4):
            assert vals[r] == pytest.approx(pm.value(r), abs=1e-10)

    def test_scaled_ball_matches_scalar(self):
        params = MapParams(p=3, m=math.inf, s=0.2, depth=30)
        pm = PlaneMap(params)
        codes = np.array([0, 1, 5, 80, 81, 1234], dtype=np.int64)
        mat = residue_digit_matrix(3, 8, codes)
        vec = series_values(mat, -4, params)
        for i, c in enumerate(codes):
            x = Fraction(int(c), 81)
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

    @pytest.mark.parametrize("kernel", [series_values, character_table])
    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("digit", [5, 2, -1])
    def test_out_of_range_digits_refused_at_any_row_count(self, kernel, rows, digit):
        # one row would read its phase from the window, four from the table
        with pytest.raises(ValueError, match=rf"digit {digit} lies outside 0 \.\. 1 for p=2"):
            kernel(np.full((rows, 1), digit), 0, MapParams(p=2))


class TestScalingLaw:
    def test_fixed_point_zero(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
        assert pm.value(0) == pytest.approx(1 / (1 - 0.3), abs=1e-12)

    def test_explicit_value(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=1 / 3))
        assert pm.value(2) == pytest.approx(5 / 6, abs=1e-12)
        assert pm.value(2) == pytest.approx(
            pm.params.s * pm.value(1) + 1.0, abs=1e-12
        )

    def test_thousand_random_residues(self):
        params = MapParams(p=3, m=math.inf, s=0.25 + 0.1j, depth=40)
        res = scaling_residuals(np.random.default_rng(11).integers(0, 3, size=(1000, 30)), params)
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
        out = oracles.sandwich(MapParams(p=2, m=0, s=0.3), 10_000, 14, seed=7)
        assert out["lower_violations"] == 0
        assert out["upper_violations"] == 0

    @pytest.mark.parametrize("s", [0.05, 0.02, 0.01])
    def test_no_violations_below_rounding(self, s):
        # certified, and the distances of deep pairs fall below rounding
        out = oracles.sandwich(MapParams(p=2, m=0, s=s), 10_000, 14, seed=7)
        assert out["lower_violations"] == 0
        assert out["upper_violations"] == 0

    def test_inflated_lower_bound_fails(self, monkeypatch):
        # the rounding allowance leaves the check its power: 1.2 delta is refuted
        true_bound = complex_map.delta_lower
        monkeypatch.setattr(complex_map, "delta_lower", lambda p, s: 1.2 * true_bound(p, s))
        out = oracles.sandwich(MapParams(p=2, m=0, s=0.3), 10_000, 14, seed=7)
        assert out["lower_violations"] > 0

    def test_complex_s(self):
        out = oracles.sandwich(MapParams(p=3, m=math.inf, s=0.25 + 0.1j), 4000, 10, seed=3)
        assert out["lower_violations"] == 0
        assert out["upper_violations"] == 0

    @pytest.mark.parametrize("m", [math.inf, 8, 7])
    def test_allowance_holds_the_window_cap(self, m):
        # at p = 77 a window outgrows widest = 8 digits from level 8 on once
        # m >= 8, and drops digits that weigh less than 77^-8 of a turn: at
        # |s| = 0.95 that is over half a rounding_bound per value
        params = MapParams(p=77, m=m, s=0.95j)
        cap = 2 * math.pi * 77.0**-8 * sum(0.95**n for n in range(8, params.depth + 1))
        base = 2 * params.tail_bound + 2 * params.rounding_bound
        out = sandwich_check(params, np.array([1.0]), np.array([77]), 4)
        assert out["allowance"] == pytest.approx(base + (2 * cap if m >= 8 else 0.0), rel=1e-12)
        assert cap > 0.5 * params.rounding_bound
        sampled = oracles.sandwich(params, 2000, 8, seed=5)
        assert sampled["lower_violations"] == sampled["upper_violations"] == 0


# levels below 0 weigh s^n (chi_n - 1): at tiny s their terms pass the float range
PAST_THE_FLOAT_RANGE = {
    "cluster-1e-77": lambda: PlaneMap(MapParams(p=2, s=1e-77)).cluster(0, -4, 2),
    "cluster-1e-78": lambda: PlaneMap(MapParams(p=2, s=1e-78)).cluster(0, -4, 2),
    "cluster-1e-200": lambda: PlaneMap(MapParams(p=2, s=1e-200)).cluster(0, -4, 2),
    "series-1e-200": lambda: series_values(np.ones((2, 6), int), -4, MapParams(p=2, s=1e-200)),
    "value-1e-77": lambda: PlaneMap(MapParams(p=2, s=1e-77)).value(Fraction(1, 16)),
}


@pytest.mark.parametrize("call", PAST_THE_FLOAT_RANGE.values(), ids=PAST_THE_FLOAT_RANGE)
def test_negative_levels_past_the_float_range_are_refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the weight of level -4 at s=\(1e-\d+\+0j\) is "
                                             r"past the float range$"):
            call()


def test_negative_levels_inside_the_float_range_agree():
    # 2|s|^-4/(1-|s|) = 2e304 is finite: the scalar and vectorized paths both run
    pm = PlaneMap(MapParams(p=2, s=1e-76))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cloud = pm.cluster(0, -4, 2)
        one = pm.value(Fraction(1, 16))
    assert np.all(np.isfinite(cloud)) and abs(one) > 1e304
    assert abs(cloud[1] - one) <= 1e-12 * abs(one)


class TestClusters:
    def test_count_and_realness(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=1 / 3, depth=40))
        cloud = pm.cluster(0, 0, 10)
        assert len(cloud) == 1024
        assert np.max(np.abs(cloud.imag)) < 1e-12

    def test_partition_property(self):
        pm = PlaneMap(MapParams(p=3, m=0, s=0.2, depth=30))
        parent = pm.cluster(0, 1, 7)
        centers = [0 + d * 3 for d in range(3)]
        kids = [pm.cluster(c, 2, 7) for c in centers]
        union_labels = np.sort(np.concatenate([preimages(3, c, 2, 7) for c in centers]))
        assert np.array_equal(union_labels, preimages(3, 0, 1, 7))
        by_label = {}
        for c, k in zip(centers, kids):
            for lab, val in zip(preimages(3, c, 2, 7), k):
                by_label[int(lab)] = val
        for lab, val in zip(preimages(3, 0, 1, 7), parent):
            assert by_label[int(lab)] == pytest.approx(val, abs=1e-12)

    def test_ifs_decomposition_order_zero(self):
        # one-level refinement acts as z -> s z + exp(2 pi i d / p)
        pm = PlaneMap(MapParams(p=5, m=0, s=0.21, depth=35))
        parent = pm.cluster(0, 0, 5)
        for d in range(5):
            child = pm.cluster(d, 1, 6)
            pred = cmath.exp(2j * math.pi * d / 5) + 0.21 * parent
            assert np.max(np.abs(child - pred)) < 1e-9

    def test_cluster_separation_certified(self):
        params = MapParams(p=2, m=0, s=0.3, depth=40)
        pm = PlaneMap(params)
        a = pm.cluster(0, 1, 9)
        b = pm.cluster(1, 1, 9)
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
        with pytest.raises(ValueError, match=r"enumerating 2\^24 rows exceeds the limit of 8388608"):
            pm.cluster(0, 0, 24)


class TestSymmetries:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_digit_rotation_phase(self, p):
        params = MapParams(p=p, m=0, s=0.3, depth=45)
        pm = PlaneMap(params)
        phase = cmath.exp(2j * math.pi / p)
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = int(rng.integers(0, p**9))
            assert pm.value(oracles.rotate_digits(x, p)) == pytest.approx(
                phase * pm.value(x), abs=4 * params.tail_bound + 1e-10
            )

    def test_rotation_is_involution_power(self):
        # rotating p times returns to the start
        y = 7
        for _ in range(3):
            y = oracles.rotate_digits(y, 3)
        assert y == 7

    def test_rotation_of_negative_one_is_zero(self):
        assert oracles.rotate_digits(-1, 2) == 0

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rotation_matches_per_index_digits(self, data):
        # every digit of the long division turns by one, through the period;
        # off the unit ball the rotation is refused
        p = data.draw(st.sampled_from([2, 3, 6]))
        x = data.draw(st.one_of(oracles.rationals(p), oracles.high_digits(p, -2, 3)))
        if not oracles.in_ball(x, p):
            with pytest.raises(ValueError, match="unit ball"):
                oracles.rotate_digits(x, p)
            return
        v, _, preperiod, period = oracles.long_division(x, p)
        top = v + preperiod + 2 * len(period) + 3
        got = oracles.rotate_digits(x, p)
        assert oracles.digits(got, p, 0, top) == [(d + 1) % p for d in oracles.digits(x, p, 0, top)]
        assert oracles.canonical(got)

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


@given(
    r=st.integers(min_value=0, max_value=3**6 - 1),
    t=st.integers(min_value=0, max_value=3**6 - 1),
)
@settings(max_examples=60, deadline=None)
def test_distance_never_exceeds_diameter_bound(r, t):
    params = MapParams(p=3, m=0, s=0.2, depth=30)
    pm = PlaneMap(params)
    va, vb = pm.value(r), pm.value(t)
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
    return pm.value(Fraction(code) * Fraction(p) ** scale)


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@given(p=LOOP_P, m=LOOP_M, s=LOOP_S, scale=LOOP_SCALE, data=st.data())
@settings(max_examples=60, deadline=None)
def test_level_loop_table_regime_matches_oracles(p, m, s, scale, data):
    # every residue at a depth whose row count holds the p**(m+1) table
    depth = {2: 6, 3: 5, 6: 4}[p]
    params = MapParams(p=p, m=m, s=s, depth=24)
    pm = PlaneMap(params)
    vals = pm.cluster(0, scale, depth + scale)
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
    # the same row in a batch whose narrow windows read the phase tables
    batch = np.append(np.arange(4095, dtype=np.int64), code)
    whole = character_table(residue_digit_matrix(p, depth, batch), scale, params)
    alone = character_table(residue_digit_matrix(p, depth, codes), scale, params)
    assert np.array_equal(alone[:, 0], whole[:, -1])


@pytest.mark.parametrize("p", [3, 5, 7, 9])
def test_characters_of_negatives_are_exact_conjugates(p):
    # every window is read as a signed residue, so -x turns by exactly the opposite angle
    params = MapParams(p=p, m=math.inf, s=0.3, depth=2)
    codes = np.arange(p**3, dtype=np.int64)
    chars = character_table(residue_digit_matrix(p, 3, codes), 0, params)
    negated = character_table(residue_digit_matrix(p, 3, -codes % p**3), 0, params)
    assert np.array_equal(negated, np.conj(chars))


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
        assert _close(value, pm.value(code))


# -- the closed-form tail of the infinite-order series -----------------------

@pytest.mark.parametrize("p", [2, 3, 5, 6, 13, 14, 77])
def test_tail_matches_level_loop_and_direct_sum(p):
    # series_values sums the levels past the stored digits in closed form;
    # the level loop of character_table and the oracle's direct sum still
    # take the levels one by one.  The negative levels' terms reach
    # 2 |s|^start r_s, and each later addition rounds a partial sum that large.
    widest = complex_map._widest(p)
    rng = np.random.default_rng(p)
    for s in (0.95, 0.3, -0.55 + 0.75j, 0.1j):
        params = MapParams(p=p, m=math.inf, s=s)
        for start in (-2, 0, 3):
            bound = params.rounding_bound * (1 + 2 * abs(s) ** min(start, 0))
            # the level loop caps its windows from level start + widest on
            cap = complex_map._window_cap(params, start + widest)
            for cols in (1, 14, widest, widest + 1, 30):
                for rows in (5, 300):
                    mat = rng.integers(0, p, size=(rows, cols))
                    got = series_values(mat, start, params)
                    chars = character_table(mat, start, params)
                    loop = np.zeros(rows, dtype=np.complex128)
                    for n in range(min(start, 0), params.depth + 1):
                        loop += s**n * ((chars[n - start] if n >= start else 1.0) - (n < 0))
                    assert np.abs(got - loop).max() <= bound + cap
                    for row, value in zip(mat[:3], got):
                        q = oracles.from_digits(p, start, [int(d) for d in row])
                        assert abs(value - sum(oracles.parts(params, q))) <= bound


def _reducing_turn(w: np.ndarray, q: int) -> np.ndarray:
    """The window phase as it was before _levels' 0 <= w < q was relied on."""
    w = w % q
    return np.exp(np.where(2 * w > q, w - q, w) * (2j * math.pi / q))


@pytest.mark.parametrize("p", [2, 3, 6])
@pytest.mark.parametrize("m", [0, 1, 3, math.inf])
def test_turn_needs_no_reduction(monkeypatch, p, m):
    # 70 digit columns outgrow the widest window of each base (53, 33 and 20
    # digits); 5 rows take every phase from _turn and 300 rows read the
    # narrow windows from a table; levels from -2, 0 and 3 up
    params = MapParams(p=p, m=m, s=0.3 - 0.4j, depth=75)
    rng = np.random.default_rng(11)
    cases = [(rng.integers(0, p, size=(rows, 70)), start)
             for rows in (5, 300) for start in (-2, 0, 3)]
    got = [(series_values(mat, start, params), character_table(mat, start, params))
           for mat, start in cases]
    monkeypatch.setattr(complex_map, "_turn", _reducing_turn)
    for (mat, start), arrays in zip(cases, got):
        want = (series_values(mat, start, params), character_table(mat, start, params))
        for a, b in zip(arrays, want):  # bit for bit, the signs of zeros included
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
        assert abs(vals[code] - pm.value(code)) <= bound


@given(p=LOOP_P, m=RECURSION_M, s=LOOP_S, series_depth=st.integers(1, 40),
       level=st.integers(0, 2), corner=st.sampled_from(["zero", "one", "top"]))
@settings(max_examples=80, deadline=None)
def test_recursion_clusters_match_level_loop(p, m, s, series_depth, level, corner):
    depth = ENUM_DEPTH[p]
    center = {"zero": 0, "one": 1, "top": p**level - 1}[corner]
    params = MapParams(p=p, m=m, s=s, depth=series_depth)
    pm = PlaneMap(params)
    cloud = pm.cluster(center, level, depth)
    loop = pm.values_on_residues(depth, codes=preimages(p, center, level, depth))
    assert np.max(np.abs(cloud - loop)) <= _geometric_bound(params)


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
    # level is the ball around 0, whose value k is the image of p^level k
    level = data.draw(st.integers(-3, ENUM_DEPTH[p]))
    depth = level + data.draw(st.integers(0, ENUM_DEPTH[p]))
    center = {"zero": 0, "one": 1, "top": p ** max(level, 0) - 1}[corner]
    params = MapParams(p=p, m=m, s=s, depth=series_depth)
    pm = PlaneMap(params)
    low = min(level, 0)
    bound = _geometric_bound(params, low)
    cloud = pm.cluster(center, level, depth)
    assert len(cloud) == p ** (depth - level)
    # at level <= 0 every integer center lies in the ball around 0
    labels = preimages(p, center, level, depth)
    loop = series_values(residue_digit_matrix(p, depth - low, labels), low, params)
    assert np.max(np.abs(cloud - loop)) <= bound
    for k in data.draw(st.lists(st.integers(0, len(cloud) - 1), min_size=1, max_size=4)):
        x = Fraction(int(labels[k])) * Fraction(p) ** low
        assert abs(cloud[k] - pm.value(x)) <= bound


def test_recursion_on_z4_within_a_few_ulps_of_exact():
    # s is the double nearest 1/3 and the phases are +-1, +-i: every value lies in Q(i)
    fp = preset("fig1-4-z4")
    params = fp.map_params()
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


def brute_class_separation(vals: np.ndarray, modulus: int) -> float:
    """Reference: every pair of residues in distinct classes, one row and
    512 residues at a time."""
    best = math.inf
    cls = np.arange(vals.shape[1]) % modulus
    for row in vals:
        for k in range(0, len(row), 512):
            dist = np.abs(row[k : k + 512, None] - row[None, :])
            dist[cls[k : k + 512, None] == cls[None, :]] = math.inf
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
    assert _class_separation(vals, p, level) == brute_class_separation(vals, p**level)
    assert _class_separation(vals[0], p, level) == brute_class_separation(vals[:1], p**level)


# per base: the residue depth at class level 1 and 2, for 36 to 256 residues per class
MAP_ROW_DEPTHS = {2: (9, 10), 3: (6, 7), 4: (5, 6), 6: (4, 4)}


@pytest.mark.parametrize("m", [0, 1, 3, math.inf])
@pytest.mark.parametrize("p", sorted(MAP_ROW_DEPTHS))
def test_class_separation_matches_brute_force_on_map_rows(p, m):
    # map images, where the search prunes most ball pairs: real s below and
    # above s_zero (real rows are collinear, so the ball bounds are often
    # tight), a complex s, one plane row and four torus fibers
    for s in (0.5 * s_zero(p), min(1.5 * s_zero(p), 0.9), 0.3 + 0.25j):
        params = MapParams(p=p, m=m, s=s)
        torus = TorusMap(SolenoidParams(map=params, a=2.0))
        for level, depth in enumerate(MAP_ROW_DEPTHS[p], 1):
            row = PlaneMap(params).values_on_residues(depth)
            assert _class_separation(row, p, level) == brute_class_separation(row[None, :], p**level)
            fibers = torus._fibers(np.arange(4) / 4, depth - 1)
            assert _class_separation(fibers, p, level) == brute_class_separation(fibers, p**level)


def test_class_separation_keeps_a_pair_whose_bound_rounds_past_the_best():
    # two points per class mod 4, on a line: the closest pair (residues 4
    # and 5, 1.5 apart) lies in the ball pair of residues 0 and 1, whose
    # lower bound rounds to above the best center distance 1.75 (residues
    # 2 and 3) at this magnitude; only the rounding slack keeps that pair
    row = np.array([0.0, 4790092359390103.0, -10.0, -11.75, 2231561033556955.25,
                    2231561033556956.75, -10.0, -11.75], dtype=complex)
    assert _class_separation(row, 2, 2) == brute_class_separation(row[None, :], 4) == 1.5


def test_class_separation_of_constant_rows_is_zero():
    # every ball pair touches, so nothing prunes and every leaf pair is compared
    vals = np.full((2, 2**10), 0.25 - 1.5j)
    assert _class_separation(vals, 2) == brute_class_separation(vals, 2) == 0.0
    assert _class_separation(vals, 2, 2) == 0.0


def test_class_separation_refuses_a_search_past_the_pair_budget():
    # two classes of 2^16 residues: 2^32 pairs, refused before the search
    with pytest.raises(ValueError, match=f"compares {2**32} pairs, past the limit of {MAX_PAIRS}"):
        _class_separation(np.zeros((1, 2**17), dtype=complex), 2)
    # three rows of 2^15-residue classes, 3 x 2^28 pairs; two rows fit
    with pytest.raises(ValueError, match="pairs, past the limit"):
        _class_separation(np.zeros((3, 2**16), dtype=complex), 2)
    assert MAX_PAIRS == 2**31


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


SCALAR_S = st.sampled_from([0.25, 0.4, 0.3 + 0.2j, -0.35, 0.1 - 0.45j])
CIRCLE_POINTS = st.one_of(oracles.CIRCLE, st.fractions(-2, 3, max_denominator=997),
                          st.floats(0, 1, exclude_max=True))


@lru_cache(maxsize=None)
def any_denominator(p: int):
    """n / (d p^k): periodic tails of every denominator d up to 60, below p^0 too."""
    return st.builds(lambda n, d, k: Fraction(n, d * p**k), st.integers(-500, 500),
                     st.integers(1, 60), st.integers(0, 3))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_single_digit_pass_matches_per_level_loop(data):
    # the characters, the parts, the value and the torus fiber, bit for bit
    # against the per-level sums of `oracles`: series depths up to 60 (the
    # benchmark checks' oracle depth), values whose last window ends near the
    # depth, digits reaching past it, and integers held as int or as Fraction
    p, m, s = data.draw(oracles.BASES), data.draw(oracles.ORDERS), data.draw(SCALAR_S)
    params = MapParams(p=p, m=m, s=s, depth=data.draw(st.integers(1, 60)))
    past_depth = oracles.terminating(p, -3, 3, min_size=max(params.depth - 2, 0),
                                     max_size=params.depth + 8)
    x = data.draw(st.one_of(oracles.rationals(p), any_denominator(p), past_depth,
                            oracles.window_edges(p, m, params.depth)))
    pm, tm = PlaneMap(params), TorusMap(SolenoidParams(map=params, a=2.0))
    for n in range(min(valuation(x, p), 0) - 2, params.depth + 3):
        assert oracles.same_bits(pm.character(x, n), oracles.characters(params, x, n, n)[0])
    frac, integral = oracles.parts(params, x)
    got_frac, got_integral = pm.parts(x)
    assert oracles.same_bits(got_frac, frac) and oracles.same_bits(got_integral, integral)
    assert oracles.same_bits(pm.value(x), sum((frac, integral)))
    xi = data.draw(CIRCLE_POINTS)
    assert oracles.same_bits(tm.fiber_value(xi, x), oracles.fiber_value(params, xi, x))


def test_exact_value_reads_the_digits_of_its_rational():
    pm = PlaneMap(MapParams(p=2, m=0, s=0.3))
    # 5 = 1 + 4: chi_n = -1, 1, -1 at levels 0, 1, 2 and 1 above
    assert pm.value(5) == pytest.approx(-1 + 0.3 - 0.09 + 0.027 / 0.7, abs=EPS)


def valuation_counter(diff: np.ndarray, p: int, cap: int) -> np.ndarray:
    """Reference: the multiplicity of p in each nonzero integer, divided out
    one factor at a time (capped; zero stays zero)."""
    vals = np.zeros(diff.shape, dtype=np.int64)
    work = np.abs(diff)
    for _ in range(cap):
        mask = (work % p == 0) & (work > 0)
        if not mask.any():
            break
        vals[mask] += 1
        work = np.where(mask, work // p, work)
    return vals


def two_branch_fibers(tm: TorusMap, xis: np.ndarray, depth: int) -> np.ndarray:
    """Reference: the fibers with the coupling switched by residue valuations,
    and a separate product at infinite order."""
    params = tm.params.map
    p, m = params.p, params.m
    ns = np.arange(params.depth + 1)
    chars = character_table(residue_digit_matrix(p, depth), 0, params)
    terms = params.s ** ns[:, None] * chars
    turns = 2j * math.pi * np.asarray(xis, dtype=np.float64)[:, None]
    if m == math.inf:
        return np.exp(turns / float(p) ** (ns + 1)) @ terms
    codes = np.arange(p**depth, dtype=np.int64)
    v = valuation_counter(codes, p, depth)
    v[codes == 0] = depth + 64
    on = ns[:, None] <= int(m) + v
    coupling = np.exp(turns / float(p) ** (np.minimum(ns, int(m)) + 1))
    return coupling @ np.where(on, terms, 0) + np.where(on, 0, terms).sum(axis=0)


@pytest.mark.parametrize("s", [0.37 * cmath.exp(0.4j), 0.3, 0.45])
@pytest.mark.parametrize("p", [2, 3, 5, 6])
@pytest.mark.parametrize("m", [0, 1, 2, 3, math.inf])
def test_fibers_divisibility_coupling_matches_valuations(s, p, m):
    # level n couples while p^(n-m) divides the residue: the same bits as
    # comparing n with m + v, zero's valuation infinite, at every order
    tm = TorusMap(SolenoidParams(map=MapParams(p=p, m=m, s=s), a=2.0))
    xis = np.append(np.arange(8) / 8, 0.7071)
    for depth in (1, 3, 5):
        got = tm._fibers(xis, depth)
        assert got.tobytes() == two_branch_fibers(tm, xis, depth).tobytes()


@pytest.mark.parametrize("p, depth", [(2, 1), (2, 14), (2, 63), (3, 9), (3, 39), (5, 27), (6, 24)])
def test_sandwich_divisibility_count_matches_valuation_counter(p, depth):
    # the multiplicity of p in a nonzero difference below p^depth counts the
    # powers p^k, k < depth, that divide it; at |s| = 0.9 and a series past
    # any tail, the upper margin 2 |s|^v / (1-|s|) + allowance shows v
    params = MapParams(p=p, m=0, s=0.9, depth=2000)
    rng = np.random.default_rng(depth)
    a, b = (rng.integers(0, p**depth, size=300, dtype=np.int64) for _ in range(2))
    units, powers = rng.integers(1, p, 60), rng.integers(0, depth, 60)
    deep = [int(c) * p ** int(k) for c, k in zip(units, powers)]
    top, edge = p**depth - 1, p ** (depth - 1)
    diffs = [d for d in (a - b).tolist() if d] + deep + [top, -top, edge, -edge, 1, -1]
    for d in diffs:
        out = sandwich_check(params, np.zeros(1), np.array([d], dtype=np.int64), depth)
        sv = 0.9 ** valuation_counter(np.array([d]), p, depth)
        assert out["worst_upper_margin"] == pytest.approx(2.0 * sv[0] / 0.1 + out["allowance"],
                                                          rel=1e-12)


def test_series_weights_past_the_float_range_name_s_and_the_level():
    # x = 1/81 reaches level -4, weighed s^-4 = 1e320
    pm = PlaneMap(MapParams(p=3, s=1e-80))
    x = Fraction(1, 81)
    for evaluate in (pm.value, pm.parts):
        with pytest.raises(ValueError, match=r"level -4 at s=\(1e-80\+0j\)"):
            evaluate(x)
    # the same s weighs the unit ball's levels 0 .. depth without trouble
    assert pm.value(1) == pytest.approx(-0.5 + 0.8660254037844386j)
