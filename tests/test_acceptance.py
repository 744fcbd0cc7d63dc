"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with the measured value against its stated tolerance.

Criterion 4's final clause (the closed form quoted for the (2,2) moment
at base 3) is marked xfail: the value demanded there contradicts the
exhaustive Haar-average oracle and the independent tuple-count series,
both of which agree with each other; test_analysis.py::TestMoments pins
the confirmed value.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from padic_fractal.padic import norm, split
from padic_fractal.complex_map import (
    MapParams,
    PlaneMap,
    delta_lower,
    s_zero,
    scaling_residuals,
)
from padic_fractal.solenoid import (
    SolenoidParams,
    SolenoidPoint,
    TorusMap,
    add,
    distance,
    from_padic,
    neg,
    orbit,
)
from padic_fractal.analysis import (
    box_dimension,
    divergence_bound,
    measure_consistency,
    metric_divergence,
    moment,
)
from padic_fractal.render import build_cloud, preset
from padic_fractal.cli import main


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_threshold_formula():
    exact2 = s_zero(2) == 0.5
    err3 = abs(s_zero(3) - 0.464101615137754587)
    ok = exact2 and err3 <= 1e-9
    report(1, "threshold formula", ok, f"s0(2) exact={exact2}, s0(3) err={err3:.2e}")
    assert ok


def test_criterion_02_scaling_law():
    worst = 0.0
    for p in (2, 3, 6):
        for m in (0, 2, math.inf):
            for s in (0.3, 0.25 + 0.1j):
                params = MapParams(p=p, m=m, s=s, depth=40)
                res = scaling_residuals(np.random.default_rng(7).integers(0, p, size=(1000, 30)),
                                        params)
                worst = max(worst, float(res.max()))
    ok = worst <= 1e-8
    report(2, "scaling law", ok, f"max residual {worst:.3e} <= 1e-8 over 18 combos")
    assert ok


def test_criterion_03_bilipschitz_sandwich():
    params = MapParams(p=2, m=0, s=0.3, depth=40)
    assert delta_lower(2, 0.3) == pytest.approx(8 / 7, abs=1e-15)
    out = oracles.sandwich(params, n_pairs=10_000, depth=14, seed=7)
    ok = out["lower_violations"] == 0 and out["upper_violations"] == 0
    report(
        3,
        "bi-Lipschitz sandwich",
        ok,
        f"{out['pairs']} pairs, violations {out['lower_violations']}+{out['upper_violations']}, "
        f"worst margins {out['worst_lower_margin']:.2e}/{out['worst_upper_margin']:.2e}",
    )
    assert ok


def test_criterion_04_moments_base_two():
    params = MapParams(p=2, m=math.inf, s=0.3, depth=40)
    m11 = moment(params, 1, 1, 14).value
    m10 = moment(params, 1, 0, 14).value
    m20 = moment(params, 2, 0, 14).value
    errs = (abs(m11 - 1 / 0.91), abs(m10), abs(m20 - 1.0))
    ok = errs[0] <= 1e-3 and errs[1] <= 1e-3 and errs[2] <= 1e-3
    report(4, "moments (base 2 closed forms)", ok, f"errors {errs[0]:.1e}, {errs[1]:.1e}, {errs[2]:.1e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the quoted closed form (1-|s|^2)^-2 for the (2,2) moment is "
    "contradicted by the exhaustive enumeration oracle and the tuple-count "
    "series (both give 2S^2-T = 1.16854 at p=3, s=0.2, vs 1.08507 quoted); "
    "asserted faithfully as stated and left failing by design",
)
def test_criterion_04_moment22_base_three_closed_form():
    params = MapParams(p=3, m=math.inf, s=0.2, depth=40)
    m22 = moment(params, 2, 2, 12).value
    err = abs(m22 - (1 - 0.04) ** -2)
    report(4, "moment (2,2) quoted closed form", err <= 2e-3, f"error {err:.3e} vs 2e-3")
    assert err <= 2e-3


def test_criterion_05_box_dimensions():
    seg = np.column_stack([np.linspace(0.0, 1.0, 10_000), np.zeros(10_000)])
    est_seg = box_dimension(seg)
    cantor = box_dimension(build_cloud(preset("fig1-1-cantor"), depth=16), n_scales=14)
    sier = box_dimension(build_cloud(preset("fig1-10-sierpinski"), depth=10), n_scales=14)
    torus = box_dimension(build_cloud(preset("fig2a-t2"), depth=9, xi_count=512))
    d_torus = 1.0 / math.log2(2.2) + 1.0
    checks = [
        ("segment", est_seg.slope, 1.0, 0.03),
        ("cantor", cantor.slope, 0.631, 0.05),
        ("sierpinski", sier.slope, 1.585, 0.08),
        ("solenoid", torus.slope, d_torus, 0.12),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    detail = "; ".join(f"{n} {got:.3f} vs {want:.3f}±{tol}" for n, got, want, tol in checks)
    report(5, "box dimensions", ok, detail)
    assert cantor.point_count == 65_536 and sier.point_count == 59_049
    assert torus.point_count == 512 * 512
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, name


def test_criterion_06_cross_module_identity():
    params = MapParams(p=3, m=math.inf, s=0.2, depth=40)
    tmap = TorusMap(SolenoidParams(map=params, a=2.5))
    pmap = PlaneMap(params)
    rng = np.random.default_rng(7)
    bound = 2.0 * params.tail_bound + 1e-12
    worst, violations = 0.0, 0
    for _ in range(200):
        num = int(rng.integers(0, 3**10))
        x = Fraction(num, 81)
        frac, integral_part = split(x, 3)
        gap = abs(pmap.parts(x)[1] - tmap.fiber_value(frac, integral_part))
        worst = max(worst, gap)
        violations += gap > bound
    ok = violations == 0
    report(6, "cross-module identity", ok, f"200 points, worst residual {worst:.2e} <= {bound:.2e}")
    assert ok


def test_criterion_07_ode_checks():
    params = SolenoidParams(
        map=MapParams(p=3, m=math.inf, s=s_zero(3) - 0.02, depth=55), a=2.5
    )
    tmap = TorusMap(params)
    rng = np.random.default_rng(7)
    worst_ratio = math.inf
    for _ in range(20):
        f = SolenoidPoint(
            Fraction(int(rng.integers(0, 997)), 997),
            int(rng.integers(0, 3**6)),
        )
        gam = tmap.vector_field(f)

        def fd(h: float) -> float:
            plus = tmap.embed(orbit(f, Fraction(h).limit_denominator(10**12)))
            minus = tmap.embed(orbit(f, Fraction(-h).limit_denominator(10**12)))
            return float(np.linalg.norm((plus - minus) / (2 * h) - gam))

        worst_ratio = min(worst_ratio, fd(1e-3) / max(fd(1e-4), 1e-300))
    spot_map = TorusMap(SolenoidParams(map=MapParams(p=2, m=math.inf, s=0.3, depth=60), a=2.0))
    spot = (2j * math.pi / 2) * spot_map.scaled(0.5).fiber_value(0, 0)
    spot_err = abs(spot - 1j * math.pi / (1 - 0.15))
    ok = worst_ratio >= 50.0 and spot_err <= 1e-6
    report(
        7,
        "flow/derivative checks",
        ok,
        f"20 points, min h->h/10 ratio {worst_ratio:.1f} >= 50; spot error {spot_err:.2e}",
    )
    assert ok


def test_criterion_08_divergence_bounds():
    inf_params = MapParams(p=2, m=math.inf, s=0.3, depth=45)
    kappas, bounds = {}, {}
    codes = np.random.default_rng(7).integers(0, 2**14, size=400)
    for m in (3, 6, 9):
        params_m = MapParams(p=2, m=m, s=0.3, depth=45)
        kappas[m] = metric_divergence(params_m, inf_params, codes, 14)
        bounds[m] = divergence_bound(params_m, inf_params)
    ok = all(kappas[m] <= bounds[m] for m in kappas) and kappas[9] < kappas[3]
    detail = "; ".join(f"m={m}: {kappas[m]:.2e} <= {bounds[m]:.2e}" for m in (3, 6, 9))
    report(8, "order divergence", ok, detail)
    assert ok


def test_criterion_09_solenoid_algebra():
    rng = np.random.default_rng(7)
    eps = 1e-12
    p = 2

    def rand_point() -> SolenoidPoint:
        xi = Fraction(int(rng.integers(0, 9973)), 9973)
        return SolenoidPoint(xi, int(rng.integers(0, p**10)))

    group_bad = metric_bad = j_bad = 0
    for _ in range(10_000):
        f, g, h = rand_point(), rand_point(), rand_point()
        l, r = add(add(f, g), h), add(f, add(g, h))
        if l.xi != r.xi or l.x != r.x:
            group_bad += 1
        z = add(f, neg(f))
        if z.xi != 0 or z.x != 0:
            group_bad += 1
        dfg = distance(f, g, p)
        if abs(dfg - distance(g, f, p)) > eps:
            metric_bad += 1
        if distance(f, h, p) > dfg + distance(g, h, p) + eps:
            metric_bad += 1
        if abs(distance(add(f, h), add(g, h), p) - dfg) > eps:
            metric_bad += 1
    for _ in range(2_000):
        na, nb = int(rng.integers(0, p**10)), int(rng.integers(0, p**10))
        shift = int(rng.integers(0, 5))
        xa, xb = Fraction(na, p**shift), Fraction(nb, p**shift)
        lhs = from_padic(xa + xb, p)
        rhs = add(from_padic(xa, p), from_padic(xb, p))
        if lhs.xi != rhs.xi or lhs.x != rhs.x:
            j_bad += 1
        if abs(distance(from_padic(na, p), from_padic(nb, p), p) - norm(na - nb, p)) > eps:
            j_bad += 1
    ok = group_bad == metric_bad == j_bad == 0
    report(
        9,
        "solenoid algebra",
        ok,
        f"10000 triples + 2000 pairs: group {group_bad}, metric {metric_bad}, j {j_bad} violations",
    )
    assert ok


def test_criterion_10_measure_consistency():
    params = MapParams(p=2, m=0, s=0.3, depth=40)
    rep = measure_consistency(params, level=1, depth=16)
    ok = (
        rep.fraction == Fraction(1, 2)
        and rep.separation_min >= 8 / 7 - 2 * params.tail_bound
        and abs(rep.ratio_median - 0.5) <= 0.1
    )
    report(
        10,
        "measure consistency",
        ok,
        f"fraction {rep.fraction}, separation {rep.separation_min:.6f}, "
        f"box ratio {rep.ratio_median:.3f}",
    )
    assert ok


def test_criterion_11_determinism(tmp_path):
    reports = []
    for name in ("d1.txt", "d2.txt"):
        out = tmp_path / name
        code = main(["verify", "--all", "--seed", "7", "--p", "2", "--m", "0",
                     "--s", "0.3", "--out", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    renders = []
    for name in ("r1.pgm", "r2.pgm"):
        out = tmp_path / name
        assert main(["render2d", "--preset", "fig1-1-cantor", "--depth", "12",
                     "--out", str(out)]) == 0
        renders.append(out.read_bytes())
    plys = []
    for name in ("p1.ply", "p2.ply"):
        out = tmp_path / name
        assert main(["render3d", "--preset", "fig2a-t2", "--depth", "5",
                     "--out", str(out)]) == 0
        plys.append(out.read_bytes())
    ok = reports[0] == reports[1] and renders[0] == renders[1] and plys[0] == plys[1]
    report(
        11,
        "determinism",
        ok,
        f"verify report {len(reports[0])}B, PGM {len(renders[0])}B, PLY {len(plys[0])}B "
        "all byte-identical across reruns",
    )
    assert ok
