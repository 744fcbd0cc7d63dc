import io
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from padic_fractal.cli import _COMMANDS, SUITES, UsageError, main, parse_config
from padic_fractal.render import preset, preset_names


def run_cli(args, tmp_path=None, capsys=None):
    code = main(args)
    return code


class TestParseConfig:
    def test_valid_minimal(self):
        cfg = parse_config(b'{"p": 2, "s": 0.3, "m": 0}')
        assert cfg == {"p": 2, "s": complex(0.3), "m": 0}

    def test_rejects_s_outside_disk(self):
        with pytest.raises(UsageError, match="'s'"):
            parse_config(b'{"p": 2, "s": 1.5}')

    def test_complex_and_infinite_order(self):
        cfg = parse_config(b'{"s": [0.25, 0.1], "m": "inf", "p": 3}')
        assert cfg["s"] == complex(0.25, 0.1)
        assert cfg["m"] == math.inf

    def test_rejects_malformed_json(self):
        with pytest.raises(UsageError, match="JSON"):
            parse_config(b"{nope}")

    def test_rejects_unknown_field(self):
        with pytest.raises(UsageError, match="mystery"):
            parse_config(b'{"mystery": 1}')

    def test_rejects_bad_base(self):
        with pytest.raises(UsageError, match="'p'"):
            parse_config(b'{"p": 1}')


class TestExitCodes:
    def test_certify_success(self, capsys):
        assert main(["certify", "--p", "2", "--m", "0", "--s", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "certify.delta_lower\t1.14285714286" in out
        assert "certified-embedding" in out

    def test_usage_error_is_two(self, capsys):
        assert main(["verify", "--s", "1.7"]) == 2
        assert main(["verify", "--suite", "bogus"]) == 2
        assert main(["render2d", "--preset", "nope", "--out", "/tmp/x.pgm"]) == 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"p": 3, "s": 0.2, "m": 0}))
        code = main(
            ["verify", "--suite", "scaling", "--config", str(cfg), "--s", "0.3", "--depth", "12"]
        )
        assert code == 0

    def test_missing_config_file(self, capsys):
        assert main(["verify", "--config", "/nonexistent.json"]) == 2


class TestSuites:
    def test_scaling_suite_line_format(self, capsys):
        assert main(["verify", "--suite", "scaling", "--p", "3", "--s", "0.25",
                     "--m", "inf", "--depth", "24"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        name, value, bound, status = line.split("\t")
        assert name == "scaling.max_residual"
        assert float(value) <= float(bound)
        assert status == "PASS"

    def test_every_line_carries_bound(self, capsys):
        assert main(["verify", "--p", "2", "--m", "0", "--s", "0.3", "--seed", "7"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            parts = line.split("\t")
            assert len(parts) == 4
            assert parts[3] in ("PASS", "FAIL")

    def test_symmetry_suite(self, capsys):
        assert main(["verify", "--suite", "symmetry", "--p", "5", "--s", "0.2"]) == 0

    def test_kappa_suite(self, capsys):
        assert main(["verify", "--suite", "kappa", "--p", "2", "--m", "6", "--s", "0.3"]) == 0


class TestArtifacts:
    def test_render2d_pgm(self, tmp_path, capsys):
        out = tmp_path / "cantor.pgm"
        assert main(["render2d", "--preset", "fig1-1-cantor", "--depth", "10",
                     "--out", str(out)]) == 0
        payload = out.read_bytes()
        assert payload.startswith(b"P5\n")

    def test_render2d_svg(self, tmp_path):
        out = tmp_path / "z4.svg"
        assert main(["render2d", "--preset", "fig1-4-z4", "--depth", "5",
                     "--format", "svg", "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"<?xml")

    def test_render3d_ply_and_csv(self, tmp_path):
        ply = tmp_path / "t2.ply"
        assert main(["render3d", "--preset", "fig2a-t2", "--depth", "4",
                     "--out", str(ply)]) == 0
        assert ply.read_bytes().startswith(b"ply\nformat ascii 1.0\n")
        csv = tmp_path / "t3.csv"
        assert main(["render3d", "--preset", "fig2b-t3", "--depth", "2",
                     "--format", "csv", "--out", str(csv)]) == 0
        assert csv.read_text().splitlines()[0] == "x,y,z,label"

    def test_render_requires_out(self):
        assert main(["render2d", "--preset", "fig1-1-cantor", "--depth", "6"]) == 2

    def test_kind_mismatch_rejected(self, tmp_path):
        assert main(["render2d", "--preset", "fig2a-t2", "--out", str(tmp_path / "x.pgm")]) == 2
        assert main(["render3d", "--preset", "fig1-1-cantor", "--out", str(tmp_path / "x.ply")]) == 2

    def test_orbit_export(self, tmp_path):
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--p", "2", "--s", "0.3", "--m", "inf", "--a", "3",
                     "--depth", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,z,label"
        assert len(lines) == 52

    def test_moments_command(self, capsys):
        assert main(["moments", "--p", "2", "--s", "0.3", "--m", "inf", "--depth", "12"]) == 0
        out = capsys.readouterr().out
        assert "moment.1.1" in out and "FAIL" not in out

    def test_dimension_command(self, capsys):
        assert main(["dimension", "--preset", "fig1-1-cantor", "--depth", "14"]) == 0

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 7
        assert "fig2b-t3" in out


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for target in (a, b):
            code = main(["verify", "--p", "2", "--m", "0", "--s", "0.3",
                         "--seed", "7", "--out", str(target)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_renders_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1.pgm", "r2.pgm"):
            out = tmp_path / name
            main(["render2d", "--preset", "fig1-10-sierpinski", "--depth", "7",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_subprocess_entry_point(self, tmp_path):
        # the module also runs as a console program
        proc = subprocess.run(
            [sys.executable, "-m", "padic_fractal.cli", "certify",
             "--p", "2", "--m", "0", "--s", "0.3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "certified-embedding" in proc.stdout


class TestExhaustiveModes:
    def test_exhaustive_sandwich(self, capsys):
        assert main(["verify", "--suite", "sandwich", "--exhaustive",
                     "--p", "2", "--s", "0.3", "--m", "0", "--depth", "6"]) == 0
        out = capsys.readouterr().out
        assert "sandwich.lower_violations\t0" in out

    def test_exhaustive_scaling(self, capsys):
        assert main(["verify", "--suite", "scaling", "--exhaustive",
                     "--p", "3", "--s", "0.2", "--m", "2"]) == 0

    def test_all_flag_aliases_every_suite(self, capsys):
        assert main(["verify", "--all", "--seed", "7", "--p", "2",
                     "--m", "0", "--s", "0.3"]) == 0
        out = capsys.readouterr().out
        for token in ("scaling.", "sandwich.", "group.", "j.", "eq40.",
                      "ode.", "kappa.", "symmetry."):
            assert token in out


# words of numpy or of the Python runtime that must never reach a user
FOREIGN = re.compile(
    r"Traceback|numpy|int64|invalid literal|could not convert|NoneType|has no attribute"
    r"|unsupported operand|not supported between|out of bounds|zero-size array"
    r"|negative dimensions|division by zero|math domain"
)


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFieldChecks:
    """Flags and config files pass one check per field, before any work."""

    @pytest.mark.parametrize("argv, name", [
        (["render3d", "--depth", "0"], "depth"),
        (["orbit", "--depth", "-5"], "depth"),
        (["verify", "--suite", "group", "--alpha", "-1"], "alpha"),
        (["verify", "--suite", "group", "--alpha", "0"], "alpha"),
        (["certify", "--a", "0"], "a"),
        (["certify", "--s", "nan"], "s"),
        (["certify", "--s", "0.2,inf"], "s"),
        (["verify", "--suite", "group", "--seed", "-1"], "seed"),
        (["verify", "--depth", "abc"], "depth"),
        (["verify", "--p", "2.5"], "p"),
        (["verify", "--m", "-1"], "m"),
        (["verify", "--suite", "bogus"], "suite"),
        (["render2d", "--preset", "nope"], "preset"),
        (["render2d", "--preset", "fig2a-t2"], "preset"),
        (["render3d", "--preset", "fig1-1-cantor"], "preset"),
        (["render2d", "--format", "ply"], "format"),
        (["verify", "--format", "svg"], "format"),
        (["orbit", "--out", "missing-dir/orbit.csv"], "out"),
        (["certify", "--preset", "fig1-9-koch"], "preset"),
        (["verify", "--suite", "group", "--preset", "fig2a-t2"], "preset"),
        (["moments", "--preset", "fig1-1-cantor"], "preset"),
        (["orbit", "--preset", "fig2b-t3"], "preset"),
        (["presets", "--preset", "fig1-12"], "preset"),
    ])
    def test_bad_flag_exits_two_naming_field(self, argv, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if "--out" not in argv:
            argv = argv + ["--out", "artifact"]
        code, out, err = run_captured(argv)
        assert code == 2
        assert err.startswith(f"error: field {name!r}: ")
        assert not FOREIGN.search(err)
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config, name", [
        ({"exhaustive": "false"}, "exhaustive"),
        ({"p": 2.7}, "p"),
        ({"out": None}, "out"),
        ({"s": None}, "s"),
        ({"s": "nan"}, "s"),
        ({"depth": "abc"}, "depth"),
        ({"depth": 0}, "depth"),
        ({"alpha": 0}, "alpha"),
        ({"a": [0, 0]}, "a"),
        ({"seed": -1}, "seed"),
        ({"preset": "fig1-10-sierpinski"}, "preset"),
    ])
    def test_bad_config_value_exits_two_naming_field(self, config, name, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code, out, err = run_captured(["verify", "--suite", "group", "--config", str(path)])
        assert code == 2
        assert err.startswith(f"error: field {name!r}: ")
        assert not FOREIGN.search(err)
        assert out == ""

    def test_same_message_from_flag_and_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"alpha": "-1"}))
        from_config = run_captured(["verify", "--config", str(path)])
        from_flag = run_captured(["verify", "--alpha", "-1"])
        assert from_config == from_flag
        assert from_flag[2] == "error: field 'alpha': must be > 0 and finite, got '-1'\n"

    def test_config_booleans_are_json_booleans(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"exhaustive": True, "p": 2, "s": 0.3, "depth": 4}))
        assert main(["verify", "--suite", "sandwich", "--config", str(path)]) == 0
        assert parse_config(b'{"exhaustive": false}') == {"exhaustive": False}

    def test_format_and_out_checked_before_the_cloud(self, monkeypatch):
        def no_cloud(*args, **kwargs):
            raise AssertionError("cloud built before the checks")

        monkeypatch.setattr("padic_fractal.cli.build_cloud", no_cloud)
        code, _, err = run_captured(["render2d", "--preset", "fig1-1-cantor", "--depth", "22"])
        assert code == 2 and "requires --out" in err
        code, _, err = run_captured(["render3d", "--preset", "fig2a-t2", "--format", "pgm",
                                     "--out", "x.pgm"])
        assert code == 2 and "field 'format'" in err

    @pytest.mark.parametrize("argv, bound", [
        (["--suite", "sandwich", "--p", "1000", "--depth", "7"], "1000^7"),
        (["--suite", "symmetry", "--p", "100"], "100^10"),
        (["--suite", "eq40", "--p", "100"], "100^10"),
        (["--suite", "group", "--p", "300"], "300^8"),
        (["--suite", "j", "--p", "300"], "300^8"),
        (["--suite", "ode", "--p", "1500"], "1500^6"),
        (["--suite", "scaling", "--p", str(2**64)], f"{2**64}^1"),
    ])
    def test_samples_past_64_bits(self, argv, bound):
        code, out, err = run_captured(["verify", *argv])
        assert code == 2
        assert bound in err and "int64" not in err
        assert out == ""

    @pytest.mark.parametrize("argv, size", [
        (["render2d", "--p", "1000", "--depth", "3"], "1000^3 = 1000000000 rows"),
        (["render3d", "--p", "10", "--depth", "7"], "64 x 10^7 = 640000000 rows"),
        (["moments", "--p", "6", "--m", "0", "--depth", "12"], "6^12 = 2176782336 rows"),
    ])
    def test_enumeration_past_row_limit(self, argv, size, tmp_path, monkeypatch):
        # each would ask for many GB; the row count is refused before any allocation
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = run_captured(argv + ["--out", "artifact"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert size in err and not FOREIGN.search(err)
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_presets_listing_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "presets.txt"
        assert main(["presets", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out


# field: (valid values, invalid values).  A string goes in as a flag or
# as a config value; any other JSON value goes in the config file.
FIELD_VALUES = {
    "p": (["2", "3", "5", 3], ["1", "0", "-2", "x", "2.5", "", 2.7, 1, True, None]),
    "m": (["0", "1", "inf", 2, "Infinity"], ["-1", "x", "1.5", -1, 1.5, None]),
    "s": (["0.3", "-0.2", "0.25,0.1", 0.3, [0.25, 0.1]],
          ["0", "1.5", "nan", "inf", "x", "0.3,nan", 1.5, [0.1], None]),
    "a": (["3", "2.5", "0,2", 3, [0, 2]], ["0", "nan", "x", "0,0", 0, None]),
    "alpha": (["1", "0.5", 2], ["0", "-1", "nan", "inf", "x", 0, None]),
    "seed": (["0", "7", 7], ["-1", "x", "1.5", 1.5, None]),
    "suite": ([*SUITES, "all"], ["bogus", "", None, 3]),
    "exhaustive": ([True, False], ["false", 1, None]),
    "mystery": ([], [1]),
}
# every draw passes --depth, and a valid one is small, so no draw reaches
# a large enumeration (certify --p 6 at its default depth is ~10^12 pairs)
DEPTHS = (["1", "2", "3", "4"], ["0", "-5", "abc", "2.5", ""])


def has_body(data: bytes) -> bool:
    """An artifact holds more than its header."""
    if data.startswith(b"P5\n"):
        return len(data.split(b"\n", 3)[3]) > 0
    if data.startswith(b"ply\n"):
        return data.split(b"end_header\n", 1)[1].strip() != b""
    if data.startswith(b"<?xml"):
        return b"<circle" in data
    lines = data.strip().splitlines()
    return len(lines) > (1 if lines[:1] == [b"x,y,z,label"] else 0)


class TestRandomArgv:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_argv_exits_cleanly(self, data):
        command = data.draw(st.sampled_from(sorted(_COMMANDS)))
        spec = _COMMANDS[command]
        with tempfile.TemporaryDirectory() as tmp:
            out_path = str(Path(tmp, "artifact"))
            fields = dict(
                FIELD_VALUES,
                depth=DEPTHS,
                format=(list(spec.formats), [f for f in ("pgm", "ply", "txt", None)
                                             if f not in spec.formats]),
                # a command that takes no preset draws one only as the broken field
                preset=([n for n in preset_names() if preset(n).kind in spec.kinds],
                        ["nope", None] + [n for n in preset_names()
                                          if preset(n).kind not in spec.kinds]),
                out=([out_path], [str(Path(tmp, "no", "artifact")), tmp, "", None]),
            )
            # at most one field carries an invalid value
            broken = data.draw(st.sampled_from([None, None, None, *fields]))
            argv, config = [command], {}
            for name, (valid, invalid) in fields.items():
                pool = invalid if name == broken else valid
                if not pool or (name != broken and name != "depth" and data.draw(st.booleans())):
                    continue
                value = data.draw(st.sampled_from(pool))
                if isinstance(value, str) and name != "exhaustive" and data.draw(st.booleans()):
                    argv += [f"--{name}", value]
                else:
                    config[name] = value
            if "--depth" not in argv and "depth" not in config:
                argv += ["--depth", data.draw(st.sampled_from(DEPTHS[0]))]
            # these flags would override a broken config value
            if broken not in ("suite", "exhaustive") and data.draw(st.booleans()):
                argv.append(data.draw(st.sampled_from(["--exhaustive", "--all"])))
            if config:
                Path(tmp, "c.json").write_text(json.dumps(config))
                argv += ["--config", str(Path(tmp, "c.json"))]
            code, _, err = run_captured(argv)
            assert code in (0, 1, 2)
            assert not FOREIGN.search(err), err
            if broken is not None:
                assert code == 2 and err.startswith(f"error: field {broken!r}: "), err
            out = argv[argv.index("--out") + 1] if "--out" in argv else config.get("out")
            if code == 0 and out is not None:
                assert has_body(Path(out).read_bytes())


def readme_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0] for line in block.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("padic-fractal ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
