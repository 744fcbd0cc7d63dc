import math

import numpy as np
import pytest

from padic_fractal.complex_map import s_zero
from padic_fractal.render import (
    PRESETS,
    RasterConfig,
    auto_viewport,
    build_cloud,
    export_csv,
    export_ply,
    preset,
    preset_names,
    rasterize,
    to_svg,
)
from padic_fractal.solenoid import SolenoidParams, TorusMap


def lit_pixels(pgm: bytes, cfg: RasterConfig) -> np.ndarray:
    header_end = pgm.index(b"255\n") + 4
    img = np.frombuffer(pgm[header_end:], dtype=np.uint8)
    return img.reshape(cfg.height, cfg.width)


class TestRaster:
    def test_single_center_point_single_pixel(self):
        cfg = RasterConfig(width=11, height=11, viewport=(-1, 1, -1, 1))
        pgm = rasterize(np.array([0.0 + 0.0j]), cfg)
        img = lit_pixels(pgm, cfg)
        assert int((img > 0).sum()) == 1
        assert img[5, 5] == 255

    def test_header_format(self):
        cfg = RasterConfig(width=16, height=9, viewport=(-1, 1, -1, 1))
        pgm = rasterize(np.array([0.0 + 0.0j]), cfg)
        assert pgm.startswith(b"P5\n16 9\n255\n")
        assert len(pgm) == len(b"P5\n16 9\n255\n") + 16 * 9

    def test_cantor_confined_to_real_axis_rows(self):
        cloud = build_cloud(preset("fig1-1-cantor"), depth=10)
        cfg = RasterConfig(width=64, height=64, viewport=auto_viewport(cloud.values))
        img = lit_pixels(rasterize(cloud, cfg), cfg)
        rows = np.nonzero(img.any(axis=1))[0]
        # everything lands in the band of rows around Im = 0
        assert len(rows) <= 2

    def test_reorder_invariance(self):
        cloud = build_cloud(preset("fig1-1-cantor"), depth=8)
        cfg = RasterConfig(width=32, height=32, viewport=auto_viewport(cloud.values))
        a = rasterize(cloud.values, cfg)
        b = rasterize(cloud.values[::-1].copy(), cfg)
        assert a == b

    def test_determinism(self):
        cloud = build_cloud(preset("fig1-10-sierpinski"), depth=6)
        cfg = RasterConfig(width=48, height=48, viewport=auto_viewport(cloud.values))
        assert rasterize(cloud, cfg) == rasterize(cloud, cfg)

    def test_density_mode_scales_counts(self):
        cfg = RasterConfig(width=4, height=4, viewport=(0, 1, 0, 1), mode="density")
        pts = np.array([0.1 + 0.1j, 0.1 + 0.1j, 0.9 + 0.9j])
        img = lit_pixels(rasterize(pts, cfg), cfg)
        assert img.max() == 255 and 0 < img[0, 3] < 255 or img[0, 3] == 127

    def test_blank_on_empty_intersection(self):
        cfg = RasterConfig(width=8, height=8, viewport=(10, 11, 10, 11))
        with pytest.warns(UserWarning):
            pgm = rasterize(np.array([0.0 + 0.0j]), cfg)
        assert lit_pixels(pgm, cfg).sum() == 0

    def test_resolution_refinement_preserves_lit_regions(self):
        cloud = build_cloud(preset("fig1-1-cantor"), depth=9)
        vp = auto_viewport(cloud.values)
        lo_cfg = RasterConfig(width=32, height=32, viewport=vp)
        hi_cfg = RasterConfig(width=64, height=64, viewport=vp)
        lo = lit_pixels(rasterize(cloud, lo_cfg), lo_cfg) > 0
        hi = lit_pixels(rasterize(cloud, hi_cfg), hi_cfg) > 0
        pooled = hi.reshape(32, 2, 32, 2).any(axis=(1, 3))
        assert np.array_equal(pooled, lo)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RasterConfig(width=0, height=4)
        with pytest.raises(ValueError):
            RasterConfig(viewport=(1, 0, 0, 1))
        with pytest.raises(ValueError):
            RasterConfig(mode="technicolor")


class TestVectorAndMeshFormats:
    def test_ply_single_vertex(self):
        payload = export_ply(np.array([[1.0, 2.0, 3.0]]))
        text = payload.decode("ascii")
        assert text.splitlines()[:7] == [
            "ply",
            "format ascii 1.0",
            "element vertex 1",
            "property float x",
            "property float y",
            "property float z",
            "end_header",
        ]
        assert text.splitlines()[7] == "1 2 3"

    def test_ply_vertex_count_matches_cloud(self):
        cloud = build_cloud(preset("fig2a-t2"), depth=5)
        payload = export_ply(cloud)
        assert f"element vertex {len(cloud)}".encode() in payload

    def test_reexport_byte_identical(self):
        cloud = build_cloud(preset("fig2a-t2"), depth=4)
        assert export_ply(cloud) == export_ply(cloud)
        assert export_csv(cloud) == export_csv(cloud)

    def test_csv_header_and_labels(self):
        cloud = build_cloud(preset("fig2b-t3"), depth=2)
        lines = export_csv(cloud).decode("ascii").splitlines()
        assert lines[0] == "x,y,z,label"
        assert lines[1].endswith("0:0")
        assert len(lines) == len(cloud) + 1

    def test_svg_structure(self):
        cloud = build_cloud(preset("fig1-1-cantor"), depth=6)
        cfg = RasterConfig(viewport=auto_viewport(cloud.values))
        svg = to_svg(cloud, cfg).decode("ascii")
        assert svg.startswith("<?xml")
        assert svg.count("<circle") == len(cloud)
        assert svg.rstrip().endswith("</svg>")


class TestPresets:
    def test_exact_parameters(self):
        assert preset("fig1-1-cantor").s == pytest.approx(1 / 3)
        assert preset("fig1-1-cantor").p == 2 and preset("fig1-1-cantor").m == 0
        assert preset("fig1-10-sierpinski").p == 3
        assert preset("fig1-10-sierpinski").s == 0.5
        assert preset("fig1-9-koch").p == 6 and preset("fig1-9-koch").s == pytest.approx(1 / 3)
        assert preset("fig1-4-z4").p == 4 and preset("fig1-4-z4").m == 0
        assert preset("fig2a-t2").s == pytest.approx(1 / 2.2)
        assert preset("fig2a-t2").a == 2j
        assert preset("fig2b-t3").a == 2.5
        assert preset("fig2b-t3").s == pytest.approx(s_zero(3) - 0.02)
        assert preset("fig2b-t3").xi_count == 81
        assert preset("fig2b-t3").m == math.inf
        assert preset("fig1-12").ball_scale == 4
        assert preset("fig1-12").s == pytest.approx(s_zero(3) - 0.02)

    def test_seven_presets_listed_on_error(self):
        assert len(preset_names()) == 7
        with pytest.raises(KeyError) as exc:
            preset("nope")
        for name in PRESETS:
            assert name in str(exc.value)

    def test_preset_separation_regimes(self):
        from padic_fractal.complex_map import delta_lower

        # certified: strictly inside the threshold
        for name in ("fig1-1-cantor", "fig1-4-z4", "fig2b-t3", "fig1-12", "fig2a-t2"):
            fp = preset(name)
            assert delta_lower(fp.p, fp.s) > 0, name
        # the Koch preset sits exactly on the threshold (touching curves)
        assert delta_lower(6, preset("fig1-9-koch").s) == pytest.approx(0.0, abs=1e-12)
        # the Sierpinski preset lies above it (touching corner points)
        assert preset("fig1-10-sierpinski").s > s_zero(3)

    def test_build_cloud_sizes(self):
        assert len(build_cloud(preset("fig1-1-cantor"), depth=8)) == 256
        assert len(build_cloud(preset("fig2a-t2"), depth=3, xi_count=10)) == 80
        scaled = build_cloud(preset("fig1-12"), depth=4)
        assert len(scaled) == 81
        assert scaled.level == -4

    def test_build_cloud_depth(self):
        fp = preset("fig1-4-z4")
        assert len(build_cloud(fp)) == fp.p**fp.depth
        assert len(build_cloud(fp, depth=1)) == fp.p
        assert fp.map_params() == fp.map_params(fp.depth)
        for depth in (0, -3):
            with pytest.raises(ValueError, match="depth must be >= 1"):
                build_cloud(fp, depth=depth)
        assert len(build_cloud(preset("fig2b-t3"), depth=1)) == 81 * 3

    def test_fig2a_matches_manual_construction(self):
        fp = preset("fig2a-t2")
        cloud = build_cloud(fp, depth=3, xi_count=4)
        tm = TorusMap(SolenoidParams(map=fp.map_params(3), a=fp.a))
        manual = tm.cloud(4, 3)
        assert np.allclose(cloud.points, manual.points)
