import hashlib
import math
import re
import warnings
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from padic_fractal.cli import main
from padic_fractal.complex_map import MapParams, PlaneMap, s_zero
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
        cfg = RasterConfig(width=64, height=64, viewport=auto_viewport(cloud))
        img = lit_pixels(rasterize(cloud, cfg), cfg)
        rows = np.nonzero(img.any(axis=1))[0]
        # everything lands in the band of rows around Im = 0
        assert len(rows) <= 2

    def test_reorder_invariance(self):
        cloud = build_cloud(preset("fig1-1-cantor"), depth=8)
        cfg = RasterConfig(width=32, height=32, viewport=auto_viewport(cloud))
        a = rasterize(cloud, cfg)
        b = rasterize(cloud[::-1].copy(), cfg)
        assert a == b

    def test_determinism(self):
        cloud = build_cloud(preset("fig1-10-sierpinski"), depth=6)
        cfg = RasterConfig(width=48, height=48, viewport=auto_viewport(cloud))
        assert rasterize(cloud, cfg) == rasterize(cloud, cfg)

    def test_blank_on_empty_intersection(self):
        cfg = RasterConfig(width=8, height=8, viewport=(10, 11, 10, 11))
        with pytest.warns(UserWarning):
            pgm = rasterize(np.array([0.0 + 0.0j]), cfg)
        assert lit_pixels(pgm, cfg).sum() == 0

    def test_resolution_refinement_preserves_lit_regions(self):
        cloud = build_cloud(preset("fig1-1-cantor"), depth=9)
        vp = auto_viewport(cloud)
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
        labels = fiber_labels(len(cloud), 2**4)
        assert export_ply(cloud) == export_ply(cloud)
        assert export_csv(cloud, labels) == export_csv(cloud, labels)

    def test_csv_header_and_labels(self):
        cloud = build_cloud(preset("fig2b-t3"), depth=2)
        lines = export_csv(cloud, fiber_labels(len(cloud), 3**2)).decode("ascii").splitlines()
        assert lines[0] == "x,y,z,label"
        assert lines[1].endswith(",0:0") and lines[10].endswith(",1:0")
        assert len(lines) == len(cloud) + 1

    def test_svg_structure(self):
        cloud = build_cloud(preset("fig1-1-cantor"), depth=6)
        cfg = RasterConfig(viewport=auto_viewport(cloud))
        svg = to_svg(cloud, cfg).decode("ascii")
        assert svg.startswith("<?xml")
        assert svg.count("<circle") == len(cloud)
        assert svg.rstrip().endswith("</svg>")


def fiber_labels(n: int, per: int) -> np.ndarray:
    """(fiber, residue) of each row of an xi-major torus cloud of n points
    with per residues on each fiber."""
    return np.stack(np.divmod(np.arange(n), per), axis=1)


# The per-row f-string emitters that the bulk ones replaced, kept as the
# reference their bytes must equal.


def reference_ply(points) -> bytes:
    pts = np.asarray(points)
    out = ["ply", "format ascii 1.0", f"element vertex {len(pts)}", "property float x",
           "property float y", "property float z", "end_header"]
    for x, y, z in pts:
        out.append(f"{x:.9g} {y:.9g} {z:.9g}")
    return ("\n".join(out) + "\n").encode("ascii")


def reference_csv(points, labels) -> bytes:
    pts = np.asarray(points)
    if isinstance(labels, np.ndarray):
        tags = [f"{int(i)}:{int(r)}" for i, r in labels]
    else:
        tags = labels
    out = ["x,y,z,label"]
    for (x, y, z), tag in zip(pts, tags):
        out.append(f"{x:.9g},{y:.9g},{z:.9g},{tag}")
    return ("\n".join(out) + "\n").encode("ascii")


def reference_svg(values, cfg: RasterConfig) -> bytes:
    values = np.asarray(values)
    re0, re1, im0, im1 = cfg.viewport
    w, h = re1 - re0, im1 - im0
    r = min(w, h) / 800.0
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'viewBox="{re0:.9g} {-im1:.9g} {w:.9g} {h:.9g}">']
    for z in values:
        if re0 <= z.real <= re1 and im0 <= z.imag <= im1:
            lines.append(f'<circle cx="{z.real:.9g}" cy="{-z.imag:.9g}" r="{r:.9g}"/>')
    lines.append("</svg>")
    return "\n".join(lines).encode("ascii")


def reference_pgm(values, cfg: RasterConfig) -> bytes:
    """The count-grid raster: points per pixel, then 255 where the count is positive."""
    values = np.asarray(values)
    re0, re1, im0, im1 = cfg.viewport
    u = (values.real - re0) / (re1 - re0)
    v = (values.imag - im0) / (im1 - im0)
    keep = (u >= 0) & (u <= 1) & (v >= 0) & (v <= 1)
    grid = np.zeros((cfg.height, cfg.width), dtype=np.int64)
    cols = np.minimum((u[keep] * cfg.width).astype(np.int64), cfg.width - 1)
    rows = np.minimum((v[keep] * cfg.height).astype(np.int64), cfg.height - 1)
    np.add.at(grid, (cfg.height - 1 - rows, cols), 1)
    img = np.where(grid > 0, 255, 0).astype(np.uint8)
    return f"P5\n{cfg.width} {cfg.height}\n255\n".encode("ascii") + img.tobytes()


# zeros of both signs, subnormals, non-finite values, the values on either
# side of where %.9g switches to exponent notation (1e-4, 1e9), exact ties at
# the 9th digit that round down and up, decade carries, the neighbours of the
# powers of ten, and the rounding noise of the torus coordinates
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, math.nan, math.inf,
           -math.inf, 1e-4, -1e-4, 9.99999999e-5, 9.999999995e-5, 9.9999999949e-5, 1.00000001e-4,
           1e9, -1e9, 999999999.0, 999999999.4, 999999999.5, 999999999.6, 1000000001.0, 1.5,
           123456788.5, 123456789.5, 9.9999999951, 99999.99995,
           *[float(np.nextafter(10.0**k, edge)) for k in range(-5, 10) for edge in (0, math.inf)],
           1e-16, -2.0e-16, 1.1102230246251565e-16, 2.220446049250313e-16, -4.440892098500626e-16]
# ints on either side of the 10**9 that the label path writes from its tables
LABEL_INTS = [0, 1, 999, 1000, 999_999, 1_000_000, 999_999_999, 10**9, -1]


def coordinates(finite: bool = False):
    special = [x for x in SPECIAL if math.isfinite(x) or not finite]
    near = st.floats(9e-5, 1.1e-4) | st.floats(9.99e8, 1.001e9)
    return (st.sampled_from(special) | near | near.map(lambda x: -x)
            | st.floats(allow_nan=not finite, allow_infinity=not finite))


def point_arrays(finite: bool = False):
    rows = st.lists(st.tuples(*[coordinates(finite)] * 3), max_size=24)
    return rows.map(lambda r: np.array(r, dtype=np.float64).reshape(-1, 3))


@st.composite
def solenoid_clouds(draw):
    """Points and an (n, 2) integer array of (fiber, residue) labels."""
    pts = draw(point_arrays(finite=True))
    label = st.sampled_from(LABEL_INTS) | st.integers(0, 2**62)
    labels = draw(st.lists(st.tuples(label, label), min_size=len(pts), max_size=len(pts)))
    return pts, np.array(labels, dtype=np.int64).reshape(-1, 2)


@st.composite
def svg_cases(draw):
    """A viewport, and points on each of its edges, inside it and outside it."""
    re0, re1, im0, im1 = (draw(st.floats(-1e3, 1e3)) for _ in range(4))
    re0, re1 = sorted((re0, re1))
    im0, im1 = sorted((im0, im1))
    if not (re0 < re1 and im0 < im1):
        re0, re1, im0, im1 = -1.0, 1.0, -0.5, 2.0
    outside = st.sampled_from([math.nan, math.inf, -math.inf])

    def axis(lo, hi):
        return (st.sampled_from([lo, hi, -0.0, 0.0]) | st.floats(lo, hi)
                | st.floats(max_value=lo, exclude_max=True)
                | st.floats(min_value=hi, exclude_min=True)
                | outside | st.sampled_from(SPECIAL))

    pts = draw(st.lists(st.tuples(axis(re0, re1), axis(im0, im1)), max_size=24))
    values = np.array([complex(x, y) for x, y in pts], dtype=np.complex128)
    with np.errstate(over="ignore"):
        values = values.astype(draw(st.sampled_from([np.complex128, np.complex64])))
    if draw(st.booleans()):
        values = values.real.copy()
    return values, RasterConfig(viewport=(re0, re1, im0, im1))


class TestBulkEmitters:
    """Each emitter's bytes equal the per-row reference formatter's."""

    @given(pts=point_arrays())
    @settings(max_examples=150, deadline=None)
    def test_plain_arrays(self, pts):
        assert export_ply(pts) == reference_ply(pts)

    @given(cloud=solenoid_clouds())
    @settings(max_examples=100, deadline=None)
    def test_solenoid_clouds(self, cloud):
        pts, labels = cloud
        assert export_ply(pts) == reference_ply(pts)
        assert export_csv(pts, labels) == reference_csv(pts, labels)
        unsigned = labels.astype(np.uint64)
        assert export_csv(pts, unsigned) == reference_csv(pts, unsigned)

    @given(pts=point_arrays(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_given_labels(self, pts, data):
        token = st.text(st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters=","),
                        max_size=8)
        labels = data.draw(st.lists(token, min_size=len(pts), max_size=len(pts)))
        assert export_csv(pts, labels) == reference_csv(pts, labels)

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="2 labels for 3 points"):
            export_csv(np.zeros((3, 3)), ["a", "b"])
        with pytest.raises(ValueError, match="2 labels for 3 points"):
            export_csv(np.zeros((3, 3)), fiber_labels(2, 2))

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 3), (3, 2, 1)])
    def test_integer_labels_are_pairs(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"(n, 2) array, got shape {shape}")):
            export_csv(np.zeros((3, 3)), np.zeros(shape, dtype=np.int64))

    @given(case=svg_cases())
    @settings(max_examples=150, deadline=None)
    def test_svg(self, case):
        values, cfg = case
        assert to_svg(values, cfg) == reference_svg(values, cfg)

    def test_svg_plane_cloud_with_points_on_every_edge(self):
        cfg = RasterConfig(viewport=(-1.0, 1.0, 0.0, 2.0))
        values = np.array([-1 + 0j, 1 + 0j, 1j, 2j, -1 + 2j, 1 + 2j, 0.5 + 1j,
                           -1.5 + 0j, 1 + 2.5j, 0.5 - 1e-300j])
        svg = to_svg(values, cfg)
        assert svg == reference_svg(values, cfg)
        assert svg.count(b"<circle") == 7 and b'cy="-0"' in svg

    @pytest.mark.parametrize("empty", [np.empty(0), np.empty((0, 3)), np.empty(0, complex)])
    def test_empty_input(self, empty):
        cfg = RasterConfig()
        assert export_ply(empty) == reference_ply(empty)
        assert export_csv(empty, []) == reference_csv(empty, [])
        assert to_svg(empty, cfg) == reference_svg(empty, cfg)

    @given(case=svg_cases(), width=st.integers(1, 40), height=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_pgm(self, case, width, height):
        values, cfg = case
        cfg = RasterConfig(width=width, height=height, viewport=cfg.viewport)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert rasterize(values, cfg) == reference_pgm(values, cfg)

    @pytest.mark.parametrize("name", [n for n in preset_names() if preset(n).kind == "plane"])
    def test_pgm_plane_presets(self, name):
        cloud = build_cloud(preset(name))
        cfg = RasterConfig(viewport=auto_viewport(cloud))
        assert rasterize(cloud, cfg) == reference_pgm(cloud, cfg)

    def test_pgm_points_on_the_far_edges_and_outside(self):
        cfg = RasterConfig(width=5, height=3, viewport=(0.0, 1.0, 0.0, 1.0))
        # u = 1 lands in the last column and v = 1 in the top row, two points at 0
        # light one pixel, and the last five lie outside
        values = np.array([1 + 0.5j, 0.5 + 1j, 1 + 1j, 0j, 0j, 1.5 + 0.5j, -0.1 + 0.5j,
                           0.5 + 1.5j, 0.5 - 1e-300j, complex(math.nan, 0.5)])
        pgm = rasterize(values, cfg)
        assert pgm == reference_pgm(values, cfg)
        assert np.argwhere(lit_pixels(pgm, cfg)).tolist() == [[0, 2], [0, 4], [1, 4], [2, 0]]

    def test_pgm_empty_intersection(self):
        cfg = RasterConfig(width=8, height=8, viewport=(10, 11, 10, 11))
        for values in (np.array([0j, 12 + 10.5j]), np.empty(0, complex)):
            with pytest.warns(UserWarning, match="no points intersect the viewport"):
                pgm = rasterize(values, cfg)
            assert pgm == reference_pgm(values, cfg)

    @pytest.mark.parametrize("name, depth, emit, digest", [
        ("fig2a-t2", 3, export_ply,
         "81fe92c631f623204217f0ada615ef637f948eea99db40a53c3eda5530d877b2"),
        ("fig2a-t2", 3, export_csv,
         "c02cadd9ff2c6a8073f061b49c251fecc0e134b4d7ad14d90e9f74ec0d168177"),
        ("fig2b-t3", 2, export_ply,
         "a9d036c792f6853ea1b73d1e8585ae326c927ef5ca9d5928d437a548d0c8a618"),
        ("fig2b-t3", 2, export_csv,
         "a8b564ae64275e7669d933c5120e7d6e248dcb84ca053c73c80e15c82c20edc0"),
        ("fig1-12", 4, to_svg,
         "82502a9382957507e9655505ed0721b6989c28cd85efbc75bb9d467b2eda254f"),
    ])
    def test_preset_bytes_pinned(self, name, depth, emit, digest):
        fp = preset(name)
        cloud = build_cloud(fp, depth=depth)
        if emit is to_svg:
            cfg = RasterConfig(viewport=auto_viewport(cloud))
            data, ref = to_svg(cloud, cfg), reference_svg(cloud, cfg)
        elif emit is export_csv:
            labels = fiber_labels(len(cloud), fp.p**depth)
            data, ref = export_csv(cloud, labels), reference_csv(cloud, labels)
        else:
            data, ref = export_ply(cloud), reference_ply(cloud)
        assert data == ref
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("emit, shape", [
        (export_ply, (3, 2)), (export_csv, (3, 2)), (export_csv, (6,)), (export_ply, (2, 3, 1)),
        (export_ply, (6,)), (export_csv, (2, 3, 1)),
    ])
    def test_rejects_points_that_are_not_n_by_3(self, emit, shape):
        labels = () if emit is export_ply else (["a"] * shape[0],)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            emit(np.zeros(shape), *labels)

    def test_rows_past_one_block(self):
        cloud = build_cloud(preset("fig2a-t2"), depth=8)
        assert len(cloud) == 131_072
        assert export_ply(cloud) == reference_ply(cloud)
        cloud = build_cloud(preset("fig2b-t3"), depth=5)
        labels = fiber_labels(len(cloud), 3**5)
        assert export_csv(cloud, labels) == reference_csv(cloud, labels)
        cloud = build_cloud(preset("fig1-12"), depth=9)
        cfg = RasterConfig(viewport=auto_viewport(cloud))
        assert to_svg(cloud, cfg) == reference_svg(cloud, cfg)

    def test_formatted_rows_spliced_in_place_across_blocks(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((50_000, 3)) * 10.0 ** rng.integers(-20, 20, (50_000, 3))
        rows = rng.choice(len(pts), 400, replace=False)
        pts[rows, rng.integers(0, 3, 400)] = rng.choice(SPECIAL, 400)
        pts[[0, -1], 1] = math.nan, 123456789.5
        assert export_ply(pts) == reference_ply(pts)
        labels = [f"t={i}" for i in range(len(pts))]
        assert export_csv(pts, labels) == reference_csv(pts, labels)

    def test_refuses_complex_points_and_nul_labels(self):
        with pytest.raises(TypeError, match="real"):
            export_ply(np.ones((2, 3), dtype=complex))
        with pytest.raises(TypeError, match="real"):
            export_csv(np.ones((2, 3), dtype=complex), ["a", "b"])
        with pytest.raises(ValueError, match="NUL"):
            export_csv(np.zeros((2, 3)), ["a", "b\0"])

    @pytest.mark.parametrize("labels, bad", [
        (["a,b", "c\nd"], "'a,b'"), (["a", "c\nd"], "'c\\nd'"), (["a\r", "b"], "'a\\r'"),
        (["t=1", ","], "','"),
    ])
    def test_refuses_labels_holding_a_separator(self, labels, bad):
        # a comma would add a field and a line break a row
        with pytest.raises(ValueError, match=re.escape(f"label {bad} holds a NUL, comma or line break")):
            export_csv(np.zeros((2, 3)), labels)

    # the artifacts of the README's gallery commands, at full size
    @pytest.mark.parametrize("argv, digest", [
        (["render3d", "--preset", "fig2a-t2"],
         "e25ac7ee2579e2e6e4abd38891777daff62f3e4d287a4660ce0344a21fffb67f"),
        (["render3d", "--preset", "fig2b-t3", "--format", "csv"],
         "ad33ee75f3c314146433ed1fdec6b1368b4ec88881be0756ecea3560e94b5ade"),
        (["render2d", "--preset", "fig1-12", "--format", "svg"],
         "60ef9e322051503b2349d870aa8782e5f70a33a33f283db243e37e09d4b5d5f2"),
        # the gallery's finite-order cluster: narrow windows read the phase table
        (["render2d", "--p", "3", "--m", "2", "--s", "0.4", "--depth", "12"],
         "21138e0bc5462253ddef5a23eb7f65dcb8126ff783b5b2271611c31ded206380"),
    ])
    def test_full_size_artifacts_pinned(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "artifact"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
        fp = preset("fig1-12")
        scaled = build_cloud(fp, depth=4)
        assert len(scaled) == 81
        # the radius-81 ball: value k is the image of k / 3^4
        one = PlaneMap(fp.map_params()).value(Fraction(5, 81))
        assert abs(scaled[5] - one) <= 1e-12

    def test_build_cloud_depth(self):
        fp = preset("fig1-4-z4")
        assert len(build_cloud(fp)) == fp.p**fp.depth
        assert len(build_cloud(fp, depth=1)) == fp.p
        assert fp.map_params() == MapParams(p=fp.p, m=fp.m, s=fp.s)
        for depth in (0, -3):
            with pytest.raises(ValueError, match="depth must be >= 1"):
                build_cloud(fp, depth=depth)
        assert len(build_cloud(preset("fig2b-t3"), depth=1)) == 81 * 3

    def test_fig2a_matches_manual_construction(self):
        fp = preset("fig2a-t2")
        cloud = build_cloud(fp, depth=3, xi_count=4)
        tm = TorusMap(SolenoidParams(map=fp.map_params(), a=fp.a))
        manual = tm.cloud(4, 3)
        assert np.allclose(cloud, manual)
