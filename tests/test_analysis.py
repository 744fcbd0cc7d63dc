import cmath
import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from padic_fractal.complex_map import (
    _BLOCK,
    _widest_cap,
    MapParams,
    PlaneMap,
    character_table,
    residue_digit_matrix,
)
from padic_fractal.render import build_cloud, preset
from padic_fractal.analysis import (
    DimensionEstimate,
    _columns,
    _SPREAD_BITS,
    _ladder_counts,
    _spread,
    box_counts,
    box_dimension,
    character_order_gap,
    divergence_bound,
    measure_consistency,
    metric_divergence,
    moment,
    moment_series,
    tuple_coefficient,
)


def brute_moment(p: int, s: complex, L: int, Lbar: int, depth: int, levels: int) -> complex:
    """Straight-from-definition average at infinite smoothing order:
    characters built from exact fractional parts, no shared code paths."""
    total = 0.0 + 0.0j
    for r in range(p**depth):
        z = 0.0 + 0.0j
        for n in range(levels + 1):
            frac = (r % p ** (n + 1)) / p ** (n + 1)
            z += s**n * cmath.exp(2j * math.pi * frac)
        total += z**L * np.conj(z) ** Lbar
    return total / p**depth


class TestMoments:
    def test_normalization_exact(self):
        res = moment(MapParams(p=2, m=math.inf, s=0.3), 0, 0, 8)
        assert res.value == 1.0 and res.error_bound == 0.0

    def test_second_mixed_moment_base_two(self):
        res = moment(MapParams(p=2, m=math.inf, s=0.3, depth=40), 1, 1, 14)
        assert abs(res.value - 1 / 0.91) <= 1e-3
        assert abs(res.value - 1 / 0.91) <= res.error_bound + 1e-12

    def test_first_moment_vanishes(self):
        res = moment(MapParams(p=2, m=math.inf, s=0.3, depth=40), 1, 0, 14)
        assert abs(res.value) <= 1e-3

    def test_square_moment_is_one_base_two(self):
        res = moment(MapParams(p=2, m=math.inf, s=0.3, depth=40), 2, 0, 14)
        assert abs(res.value - 1.0) <= 1e-3

    def test_cube_moment_is_one_base_three(self):
        res = moment(MapParams(p=3, m=math.inf, s=0.2, depth=40), 3, 0, 9)
        assert abs(res.value - 1.0) <= 1e-3

    def test_off_diagonal_vanishes_base_three(self):
        res = moment(MapParams(p=3, m=math.inf, s=0.2, depth=40), 1, 0, 10)
        assert abs(res.value) <= 1e-3

    def test_conjugation_symmetry(self):
        params = MapParams(p=2, m=math.inf, s=0.25 + 0.1j, depth=40)
        a = moment(params, 2, 1, 10)
        b = moment(params, 1, 2, 10)
        assert a.value == pytest.approx(b.value.conjugate(), abs=1e-12)

    def test_depth_convergence(self):
        params = MapParams(p=2, m=math.inf, s=0.3, depth=40)
        a = moment(params, 1, 1, 10)
        b = moment(params, 1, 1, 12)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_matches_brute_force_oracle(self):
        # independent evaluation from the raw character definition
        val = moment(MapParams(p=3, m=math.inf, s=0.2, depth=30), 1, 1, 6).value
        oracle = brute_moment(3, 0.2, 1, 1, 6, 25)
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_fourth_moment_true_value(self):
        # the (2,2) moment equals 2 S^2 - T with S, T the geometric sums of
        # |s|^2 and |s|^4: confirmed by the brute-force oracle and by the
        # tuple-count series; it does NOT equal (1-|s|^2)^-2
        s = 0.2
        S = 1 / (1 - s**2)
        T = 1 / (1 - s**4)
        expected = 2 * S * S - T
        val = moment(MapParams(p=3, m=math.inf, s=s, depth=30), 2, 2, 9).value
        oracle = brute_moment(3, s, 2, 2, 7, 22)
        assert val == pytest.approx(expected, abs=2e-3)
        assert oracle == pytest.approx(expected, abs=2e-3)
        assert abs(val - S * S) > 0.05


class TestTupleCoefficients:
    def test_diagonal_single_factor(self):
        for k in (0, 1, 3, 6):
            assert tuple_coefficient(2, 1, 1, k, k) == 1

    def test_off_diagonal_single_factor(self):
        assert tuple_coefficient(2, 1, 1, 3, 4) == 0
        assert tuple_coefficient(5, 1, 1, 0, 2) == 0

    @pytest.mark.parametrize("p", [2, 3, 6])
    @pytest.mark.parametrize("m", [0, 1, 3, math.inf])
    def test_off_diagonal_single_factor_at_every_order(self, p, m):
        # digit max(n, nbar) carries net frequency +-1/p: moment_series skips these
        for n, nbar in itertools.permutations(range(9), 2):
            assert tuple_coefficient(p, 1, 1, n, nbar, m) == 0

    def test_degree_zero(self):
        assert tuple_coefficient(3, 0, 0, 0, 0) == 1
        assert tuple_coefficient(3, 0, 0, 1, 0) == 0

    def test_base_two_square_constant_term(self):
        # the only contribution to the plain square moment sits at (0, 0)
        assert tuple_coefficient(2, 2, 0, 0, 0) == 1
        assert tuple_coefficient(2, 2, 0, 1, 0) == 0
        assert tuple_coefficient(2, 2, 0, 2, 0) == 0

    def test_series_reproduces_mixed_moment(self):
        params = MapParams(p=2, m=math.inf, s=0.3, depth=40)
        series = moment_series(params, 1, 1, cutoff=20)
        assert series == pytest.approx(1 / 0.91, abs=1e-6)

    def test_series_reproduces_fourth_moment(self):
        params = MapParams(p=3, m=math.inf, s=0.2, depth=30)
        series = moment_series(params, 2, 2, cutoff=12)
        direct = moment(params, 2, 2, 9).value
        assert series == pytest.approx(direct, abs=2e-3)


class TestBoxDimension:
    def test_segment_calibration(self):
        seg = np.column_stack([np.linspace(0.0, 1.0, 10_000), np.zeros(10_000)])
        est = box_dimension(seg)
        assert abs(est.slope - 1.0) <= 0.03
        assert est.r2 > 0.99

    def test_filled_square_calibration(self):
        rng = np.random.default_rng(42)
        est = box_dimension(rng.random((20_000, 2)))
        assert abs(est.slope - 2.0) <= 0.05

    def test_cantor_cloud(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=1 / 3, depth=45))
        est = box_dimension(pm.cluster(0, 0, 14), n_scales=13)
        assert abs(est.slope - math.log(2) / math.log(3)) <= 0.05

    def test_sierpinski_cloud(self):
        pm = PlaneMap(MapParams(p=3, m=0, s=0.5, depth=45))
        est = box_dimension(pm.cluster(0, 0, 9), n_scales=12)
        assert abs(est.slope - math.log(3) / math.log(2)) <= 0.08

    def test_complex_values_accepted(self):
        pm = PlaneMap(MapParams(p=2, m=0, s=1 / 3, depth=40))
        vals = pm.values_on_residues(12)
        est = box_dimension(vals)
        assert abs(est.slope - 0.6309) < 0.06

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            box_dimension(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            box_dimension(np.zeros((100, 2)))  # zero diameter

    def test_box_counts_monotone_in_scale(self):
        rng = np.random.default_rng(1)
        pts = rng.random((5000, 2))
        assert box_counts(pts, 0.1) <= box_counts(pts, 0.05)

    def test_box_counts_corner(self):
        pts = np.array([[0.05, 0.05], [0.15, 0.05], [0.95, 0.95]])
        assert box_counts(pts, 0.2) == 2
        assert box_counts(pts, 0.2, corner=np.array([0.0, 0.0])) == 2
        assert box_counts(pts, 0.2, corner=np.array([-0.1, 0.0])) == 3

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            DimensionEstimate(math.nan, (0.1, 1.0), 0.9, 10)
        with pytest.raises(ValueError):
            DimensionEstimate(1.0, (1.0, 0.1), 0.9, 10)


class TestDivergence:
    def test_bound_and_monotone(self):
        inf_p = MapParams(p=2, m=math.inf, s=0.3, depth=45)
        codes, kappas = np.random.default_rng(7).integers(0, 2**14, size=300), []
        for m in (3, 6, 9):
            fm = MapParams(p=2, m=m, s=0.3, depth=45)
            kappa = metric_divergence(fm, inf_p, codes, 14)
            assert 0.0 <= kappa <= divergence_bound(fm, inf_p)
            kappas.append(kappa)
        assert kappas[2] < kappas[0]

    def test_character_gap_premise(self):
        inf_p = MapParams(p=2, m=math.inf, s=0.3, depth=45)
        for m in (3, 6):
            fm = MapParams(p=2, m=m, s=0.3, depth=45)
            gap = character_order_gap(fm, inf_p, depth=14)
            assert gap < 2 * math.pi * 2**-m

    @pytest.mark.parametrize("p", range(2, 14))
    def test_character_gap_is_the_maximum_over_every_level(self, p):
        # the gap tables levels 0 .. D + m only; the full tables of every
        # level give the same float, bit for bit
        for m in (0, 1, 3, 6, 30):
            finite, infinite = (MapParams(p=p, m=order, s=0.3) for order in (m, math.inf))
            for depth in range(1, 15):
                mat = residue_digit_matrix(p, depth, np.arange(min(p**depth, 4096)))
                full = np.abs(character_table(mat, 0, finite) - character_table(mat, 0, infinite))
                assert character_order_gap(finite, infinite, depth) == float(full.max())

    def test_identical_pseudometrics_diverge_zero(self):
        # the divergence of a pseudometric with itself is exactly zero
        # (including the 0/0 = 0 convention on coincident points)
        vals = PlaneMap(MapParams(p=2, m=0, s=0.3)).values_on_residues(5)
        d = np.abs(vals[:, None] - vals[None, :])
        num, den = np.abs(d - d), d + d
        mask = den > 0
        assert float((num[mask] / den[mask]).max()) == 0.0

    @pytest.mark.parametrize("p, m, s", [(2, 0, 0.3), (3, 1, 0.25), (6, 1, 0.2),
                                         (5, 2, 0.1 + 0.2j), (2, 60, 0.3)])
    def test_pairs_below_the_diagonal_give_the_full_square_sup(self, p, m, s):
        # the sup over the pairs i < j is the sup over the full square, bit for
        # bit, with repeated codes and where no pair is kept (m = 60)
        fm, fi = (MapParams(p=p, m=order, s=s) for order in (m, math.inf))
        codes = np.random.default_rng(p).integers(0, p**6, size=300)
        dm, di = (np.abs(v[:, None] - v[None, :])
                  for v in (PlaneMap(q).values_on_residues(14, codes=codes) for q in (fm, fi)))
        num = np.abs(dm - di)
        mask = num > sum(2.0 * (q.rounding_bound + _widest_cap(q)) for q in (fm, fi))
        want = float((num[mask] / (dm + di)[mask]).max()) if mask.any() else 0.0
        assert metric_divergence(fm, fi, codes, 14) == want

    def test_high_order_divergence_tiny(self):
        a = MapParams(p=2, m=12, s=0.3, depth=45)
        b = MapParams(p=2, m=math.inf, s=0.3, depth=45)
        kappa = metric_divergence(a, b, np.random.default_rng(1).integers(0, 2**8, size=60), 8)
        assert kappa <= divergence_bound(a, b) and kappa < 1e-4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            divergence_bound(
                MapParams(p=2, m=3, s=0.3), MapParams(p=3, m=math.inf, s=0.3)
            )
        with pytest.raises(ValueError):
            divergence_bound(
                MapParams(p=2, m=3, s=0.3), MapParams(p=2, m=5, s=0.3)
            )
        with pytest.raises(ValueError):
            divergence_bound(
                MapParams(p=2, m=3, s=0.6), MapParams(p=2, m=math.inf, s=0.6)
            )
        with pytest.raises(ValueError, match="share p and s"):  # also past s_zero, with no bound
            metric_divergence(MapParams(p=2, m=3, s=0.6), MapParams(p=2, m=math.inf, s=0.5),
                              np.arange(4), 2)


class TestMeasureConsistency:
    def test_level_zero_trivial(self):
        rep = measure_consistency(MapParams(p=2, m=0, s=0.3, depth=40), 0, 10)
        assert rep.fraction == 1
        assert rep.ratio_median == pytest.approx(1.0)
        assert rep.ok()

    def test_level_one_base_two(self):
        params = MapParams(p=2, m=0, s=0.3, depth=40)
        rep = measure_consistency(params, 1, 16)
        assert rep.fraction == Fraction(1, 2)
        assert rep.separation_min >= 8 / 7 - 2 * params.tail_bound
        assert abs(rep.ratio_median - 0.5) <= 0.1
        assert rep.ok()

    def test_refuses_uncertified(self):
        with pytest.raises(ValueError):
            measure_consistency(MapParams(p=2, m=0, s=0.6), 1, 10)

    def test_level_two_fraction(self):
        rep = measure_consistency(MapParams(p=3, m=0, s=0.2, depth=40), 2, 8)
        assert rep.fraction == Fraction(1, 9)
        assert rep.ok()

    def test_counts_the_pair_budget_before_enumerating(self, monkeypatch):
        # 2^23 residues pass MAX_ROWS but their 2^44 pairs do not: refused
        # with the search's own message before any value is built
        def unreached(*args, **kwargs):
            raise AssertionError("values built before the pair count")

        monkeypatch.setattr(PlaneMap, "values_on_residues", unreached)
        with pytest.raises(ValueError, match=rf"^separating 2 residue classes compares "
                           rf"{2**44} pairs, past the limit of {2**31}; lower the search depth$"):
            measure_consistency(MapParams(p=2, m=0, s=0.3), 1, 10, separation_depth=23)
        with pytest.raises(ValueError, match=r"^enumerating 2\^24 rows exceeds the limit"):
            measure_consistency(MapParams(p=2, m=0, s=0.3), 1, 10, separation_depth=24)


# -- finite smoothing order in the tuple weights ------------------------------


@pytest.mark.parametrize("p, depth", [(2, 12), (3, 8)])
@pytest.mark.parametrize("m", [0, 1, 2, math.inf])
@pytest.mark.parametrize("L, Lbar", [(1, 0), (1, 1), (2, 0)])
def test_series_matches_sampled_moment_at_every_order(p, depth, m, L, Lbar):
    params = MapParams(p=p, m=m, s=0.3)
    res = moment(params, L, Lbar, depth)
    series = moment_series(params, L, Lbar, cutoff=16)
    assert abs(res.value - series) <= res.error_bound + 10 * 0.3**17


def test_order_zero_square_moment_base_two():
    # chi_n = (-1)^(x_n) at p=2, m=0: only the diagonal survives, 1/(1-s^2)
    params = MapParams(p=2, m=0, s=0.3)
    # the cutoff keeps n_1 = n_2 <= 8, so the tail is s^18 / (1 - s^2)
    assert moment_series(params, 2, 0, cutoff=16) == pytest.approx(1 / 0.91, abs=1e-9)
    assert tuple_coefficient(2, 2, 0, 2, 0, 0) == 1
    assert tuple_coefficient(2, 2, 0, 2, 0) == 0


def test_composite_base_cube_moment():
    # at p=6 three frequencies 1/6 sum to 1/2: no p divides its denominator,
    # yet E[e(3 x_0 / 6)] = 0, so the series must not count that tuple
    params = MapParams(p=6, m=math.inf, s=0.2)
    res = moment(params, 3, 0, 5)
    assert tuple_coefficient(6, 3, 0, 0, 0) == 0
    assert abs(res.value - moment_series(params, 3, 0, cutoff=10)) <= res.error_bound


def full_moment_series(params: MapParams, L: int, Lbar: int, cutoff: int) -> complex:
    """The series summed over every (n, nbar) total, with or without tuples."""
    s, sb = params.s, params.s.conjugate()
    total = 0.0 + 0.0j
    for n in range(cutoff + 1):
        for nbar in range(cutoff + 1):
            c = tuple_coefficient(params.p, L, Lbar, n, nbar, params.m)
            if c:
                total += c * s**n * sb**nbar
    return total


# cutoff 16 at m = inf covers the diagonal loop of L = Lbar = 1 deep into the levels
@pytest.mark.parametrize(
    "m, cutoff", [(m, c) for m in (0, 1, math.inf) for c in (6, 10)] + [(math.inf, 16)]
)
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("L, Lbar", [(L, Lbar) for L in range(3) for Lbar in range(3)])
def test_series_skips_only_totals_without_tuples(L, Lbar, p, m, cutoff):
    params = MapParams(p=p, m=m, s=0.3 + 0.2j)
    assert moment_series(params, L, Lbar, cutoff) == full_moment_series(params, L, Lbar, cutoff)


# -- the box-counting ladder against a per-scale count -----------------------


def brute_counts(pts: np.ndarray, eps0: float, n_scales: int, corner=None) -> list[int]:
    """One floor and one row-unique per scale, straight from the definition."""
    if corner is None:
        corner = pts.min(axis=0)
    return [
        len(np.unique(np.floor((pts - corner) / (eps0 * 2.0**-k)), axis=0))
        for k in range(n_scales)
    ]


# multiples of 1/16 sit on the cell edges of every dyadic pitch of 1/16 or more
EDGE_COORD = st.integers(-64, 64).map(lambda i: i / 16.0)
# halving is exact only for normal floats: keep every difference out of the subnormal range
FREE_COORD = st.floats(-4.0, 4.0, allow_nan=False).map(lambda x: x if abs(x) >= 1e-6 else 0.0)


LAYOUTS = {
    "C": lambda pts: pts,
    "Fortran": np.asfortranarray,
    "strided": lambda pts: np.repeat(pts, 2, axis=0)[::2],  # every other row of a twice-longer array
}


@given(
    d=st.sampled_from([1, 2, 3]),
    n_scales=st.integers(1, 16),  # from 15 scales on, finest cells pass 2^14
    on_edges=st.booleans(),
    explicit_corner=st.booleans(),
    eps0=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.25, 4.0)),
    layout=st.sampled_from(sorted(LAYOUTS)),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_ladder_counts_match_per_scale_count(d, n_scales, on_edges, explicit_corner, eps0,
                                             layout, data):
    coord = EDGE_COORD if on_edges else FREE_COORD
    pts = data.draw(arrays(np.float64, (data.draw(st.integers(1, 120)), d), elements=coord))
    corner = data.draw(arrays(np.float64, d, elements=coord)) if explicit_corner else None
    laid = LAYOUTS[layout](pts)
    cols = _columns(laid)
    assert np.array_equal(laid, pts) and all(np.shares_memory(c, laid) for c in cols)
    got = _ladder_counts(cols, eps0, n_scales, corner)
    assert list(got) == brute_counts(pts, eps0, n_scales, corner)


@pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ladder_counts_match_across_blocks_and_spreading_chunks(rows, d):
    # clouds that end just short of, on and past a block edge, at the default 12
    # scales (finest cells below 2^14, one spreading chunk) and at 16 (past 2^14)
    rng = np.random.default_rng(rows + d)
    pts = rng.uniform(-4.0, 4.0, size=(rows, d))
    pts[::5] = np.round(pts[::5] * 16.0) / 16.0  # some on cell edges
    cols = _columns(pts)
    for n_scales, eps0, corner in ((12, float(np.ptp(pts, axis=0).max()) / 4.0, None),
                                   (16, 2.0, np.full(d, -4.5)), (13, 2.0**-5, None)):
        got = _ladder_counts(cols, eps0, n_scales, corner)
        assert list(got) == brute_counts(pts, eps0, n_scales, corner)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ladder_counts_from_a_far_corner(d):
    # counted from a corner 2^70 below the cloud, finest cells pass 2^63 while the cloud
    # spans under 2^20 of them: the key holds the cells from the corner's coarsest cell on
    pts = np.random.default_rng(d).uniform(0.0, 2.0**24, size=(300, d))
    corner = np.full(d, -(2.0**70))
    want = brute_counts(pts, 2.0**11, 8, corner)
    assert want[-1] > 1 and list(_ladder_counts(_columns(pts), 2.0**11, 8, corner)) == want


@pytest.mark.parametrize("d, cells", [
    (1, [[0], [511], [2**62 - 512]]),  # XOR 2^62 - 1
    (2, [[0, 0], [2**31 - 1, 2**31 - 1], [0, 0]]),  # XOR 2^62 - 1
    (3, [[0, 0, 0], [2**21 - 1] * 3, [0, 0, 0]]),  # XOR 2^63 - 1
])
def test_ladder_counts_at_the_widest_key(d, cells):
    # a float of an XOR with 54 or more significant bits may round up to the next
    # power of two, past a scale threshold 2^(d*j); the counts must read the XOR's
    # own bit length.  Pitch 1 with 63 // d halvings above it: the widest key.
    pts = np.array(cells, dtype=np.float64)
    n_scales = 63 // d + 1
    eps0 = 2.0 ** (n_scales - 1)
    got = _ladder_counts(_columns(pts), eps0, n_scales)
    assert list(got) == brute_counts(pts, eps0, n_scales)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spreading_table_matches_bit_loop(d):
    table = _spread(d)
    assert len(table) == 1 << _SPREAD_BITS == 2**14
    for chunk in range(1 << _SPREAD_BITS):
        want = 0
        for b in range(_SPREAD_BITS):
            want |= ((chunk >> b) & 1) << (d * b)
        assert table[chunk] == want


def test_one_estimate_for_every_form_of_a_cloud():
    # complex values and their (n, 2) coordinates: views of the same columns
    plane = PlaneMap(MapParams(p=3, m=0, s=0.5, depth=45)).cluster(0, 0, 8)
    assert all(np.shares_memory(c, plane) for c in _columns(plane))
    est = box_dimension(plane)
    assert box_dimension(np.column_stack([plane.real, plane.imag])) == est
    torus = build_cloud(preset("fig2a-t2"), depth=7)
    assert all(np.shares_memory(c, torus) for c in _columns(torus))
    assert box_dimension(torus.copy(order="F")) == box_dimension(torus)


def test_box_counts_refuses_key_overflow():
    # 2^33 cells per axis: two axes need 68 bits, more than one int64 key holds
    pts = [[0, 0], [1, 1], [0.25, 0], [0, 0.5]]
    with pytest.raises(ValueError, match="63-bit cell key"):
        box_counts(pts, 2**-33)
    assert box_counts(pts, 2**-30) == 4


def per_scale_ratios(params: MapParams, level: int, depth: int) -> tuple:
    pm = PlaneMap(params)
    ppts, cpts = (np.column_stack([v.real, v.imag]) for v in
                  (pm.cluster(0, 0, depth), pm.cluster(0, level, depth)))
    corner = ppts.min(axis=0)
    span = float(np.max(ppts.max(axis=0) - corner))
    ratios = []
    for j in range(2, 12):
        eps = span / 2.0**j
        n_parent = brute_counts(ppts, eps, 1, corner)[0]
        n_child = brute_counts(cpts, eps, 1, corner)[0]
        if 16 <= n_parent <= 0.25 * len(ppts):
            ratios.append((eps, n_child / n_parent))
    return tuple(ratios)


MEASURE_CASES = [
    (MapParams(p=2, m=0, s=0.3, depth=40), 0, 10),
    (MapParams(p=2, m=0, s=0.3, depth=40), 1, 16),
    (MapParams(p=3, m=0, s=0.2, depth=40), 2, 8),
]

# The reports as the per-class-pair loop of step (ii) gave them, before the
# certificates and this check shared one separation search.  A moved pin
# is a change of results to explain, not a value to re-pin.  The level-0
# box scales and the level-1 separation are the correctly rounded values
# proved by test_measure_report_values_are_exact_rationals, and the
# level-1 box scales the faithfully rounded ones it bounds.
MEASURE_REPRS = [
    (
        'MeasureReport(level=0, depth=10, fraction=Fraction(1, 1), '
        'expected_fraction=Fraction(1, 1), separation_min=inf, '
        'separation_floor=1.1428571428571428, box_ratios=((0.04464259353125, 1.0), '
        '(0.022321296765625, 1.0), (0.0111606483828125, 1.0), (0.00558032419140625, '
        '1.0), (0.002790162095703125, 1.0), (0.0013950810478515624, 1.0)), ratio_median=1.0,'
        " expected_ratio=1.0, passes=(('fraction', True), ('separation', True), ('box_ratio',"
        ' True)))'
    ),
    (
        'MeasureReport(level=1, depth=16, fraction=Fraction(1, 2), '
        'expected_fraction=Fraction(1, 2), separation_min=1.14285866126, '
        'separation_floor=1.1428571428571428, box_ratios=((0.044642856950684276, '
        '0.5238095238095238), (0.022321428475342138, 0.5151515151515151), '
        '(0.011160714237671069, 0.5098039215686274), (0.0055803571188355345, '
        '0.5068493150684932), (0.0027901785594177672, 0.504424778761062), '
        '(0.0013950892797088836, 0.5031446540880503)), ratio_median=0.5083266183185603, '
        "expected_ratio=0.5, passes=(('fraction', True), ('separation', True), ('box_ratio', "
        'True)))'
    ),
    (
        'MeasureReport(level=2, depth=8, fraction=Fraction(1, 9), '
        'expected_fraction=Fraction(1, 9), separation_min=0.25981316369791574, '
        'separation_floor=0.24641016151377546, box_ratios=((0.06765806146557851, '
        '0.12903225806451613), (0.033829030732789256, 0.16326530612244897), '
        '(0.016914515366394628, 0.1518987341772152), (0.008457257683197314, '
        '0.16296296296296298), (0.004228628841598657, 0.11981566820276497), '
        '(0.0021143144207993285, 0.1046831955922865), (0.0010571572103996642, '
        '0.12571428571428572)), ratio_median=0.12903225806451613, '
        "expected_ratio=0.1111111111111111, passes=(('fraction', True), ('separation', True),"
        " ('box_ratio', True)))"
    ),
]


@pytest.mark.parametrize("params, level, depth", MEASURE_CASES)
def test_measure_box_ratios_match_per_scale_count(params, level, depth):
    rep = measure_consistency(params, level, depth)
    assert rep.box_ratios == per_scale_ratios(params, level, depth)


@pytest.mark.parametrize(
    "case, want", list(zip(MEASURE_CASES, MEASURE_REPRS)), ids=["level0", "level1", "level2"]
)
def test_measure_report_pinned(case, want):
    assert repr(measure_consistency(*case)) == want


def test_measure_report_values_are_exact_rationals():
    # at p=2, m=0 every phase is +-1 (imaginary parts below 1e-15), so the
    # cloud spans 2 sum_{n<depth} s^n on the real axis, the box scales are
    # that span / 4 / 2^k, and the classes mod 2 at the separation depth 12
    # sit 2 (1 - sum_{n=1}^{11} s^n) apart
    s = Fraction(0.3)

    def scales(depth):
        eps0 = 2 * sum(s**n for n in range(depth)) / 4
        return [eps0 / 2**k for k in range(10)]

    level0 = measure_consistency(*MEASURE_CASES[0])
    assert level0.box_ratios
    assert {e for e, _ in level0.box_ratios} <= {float(e) for e in scales(10)}
    level1 = measure_consistency(*MEASURE_CASES[1])
    assert level1.separation_min == float(2 * (1 - sum(s**n for n in range(1, 12))))
    # the depth-16 span comes from two rounded extremes: faithful, not exact
    for got, _ in level1.box_ratios:
        want = min(scales(16), key=lambda e: abs(e - Fraction(got)))
        assert abs(Fraction(got) - want) < math.ulp(got)


def test_measure_zero_separation_depth_is_a_search_depth():
    # 0 is a depth below the class level, not a request for the default
    params = MapParams(p=2, m=0, s=0.3, depth=40)
    with pytest.raises(ValueError, match="search depth must reach the class level"):
        measure_consistency(params, 1, 10, separation_depth=0)
