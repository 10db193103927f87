"""Configuration validation, report determinism, and spectrum tables."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rotalab
from rotalab import checks
from rotalab.cli import (
    RunConfig,
    build_config,
    main,
    make_parser,
    nearest_rational_denominator,
    read_config_file,
    spectrum_rows,
    validate_config,
)
from rotalab.errors import ConfigInvalid

TWO_PI = 2.0 * math.pi


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _blas_kernels():
    """OpenBLAS kernels to force: SkylakeX executes AVX-512, so only on a CPU that has it."""
    cpuinfo = Path("/proc/cpuinfo")
    avx512 = cpuinfo.exists() and "avx512f" in cpuinfo.read_text()
    return ("SkylakeX",) * avx512 + ("Haswell", "Sandybridge", "Nehalem")


class TestConfigValidation:
    def test_default_config_is_valid(self):
        validate_config(RunConfig(), suite="all")

    def test_rational_angle_rejected(self):
        with pytest.raises(ConfigInvalid):
            validate_config(RunConfig(theta=0.5))
        with pytest.raises(ConfigInvalid):
            validate_config(RunConfig(theta=41 / 64))

    def test_angle_near_rational_rejected(self):
        with pytest.raises(ConfigInvalid):
            validate_config(RunConfig(theta=1 / 3 + 1e-12))

    def test_generic_angle_passes_the_scan(self):
        assert nearest_rational_denominator(0.7071067811865476) is None
        assert nearest_rational_denominator(0.618033988749895) is None
        assert nearest_rational_denominator(0.5) == 2

    def test_zero_twist_rejected_where_needed(self):
        for suite in ("bimodules", "duality", "all"):
            with pytest.raises(ConfigInvalid):
                validate_config(RunConfig(b=0), suite=suite)
        validate_config(RunConfig(b=0), suite="algebra")

    def test_empty_truncation_rejected(self):
        with pytest.raises(ConfigInvalid):
            validate_config(RunConfig(level_cut=0))
        with pytest.raises(ConfigInvalid):
            validate_config(RunConfig(mode_cut=0))

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"mode_cut": 64},
            {"b": 3, "seed": 5},
            {"grid_nodes": 1448},
            {"grid_nodes": 1448, "radius": 113.0},
            {"b": 682},
            {"b": -682},
            {"level_cut": 2048},
            {"mode_cut": 90},
        ],
    )
    def test_cost_caps_accept_values_in_use_and_at_the_cap(self, overrides):
        validate_config(RunConfig(**overrides), suite="all")
        validate_config(RunConfig(**overrides), target="d_lambda")

    def test_radius_cap_binds_where_r_is_not_read(self):
        # where R is read, the resolution rule bounds it by 5 grid/64 first: R = 10 at grid 128
        validate_config(RunConfig(radius=4091.0), suite="algebra")
        validate_config(RunConfig(radius=4091.0), target="d_lambda")
        validate_config(RunConfig(radius=10.0), suite="all")
        with pytest.raises(ConfigInvalid, match="--R"):
            validate_config(RunConfig(radius=10.001), suite="all")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"grid_nodes": 1449},
            {"radius": 4091.001},
            {"b": 683},
            {"b": -683},
            {"level_cut": 2049},
            {"mode_cut": 91},
        ],
    )
    def test_cost_caps_reject_one_step_above(self, overrides):
        with pytest.raises(ConfigInvalid, match="cap"):
            validate_config(RunConfig(**overrides), suite="all")


class TestResolutionRule:
    """R >= 5, grid >= 96 and 2R/grid <= 5/32 for the suites that read R and the grid."""

    @pytest.mark.parametrize("suite", ["bimodules", "duality"])
    @pytest.mark.parametrize(
        "flags", [["--R", "12"], ["--grid", "64"], ["--grid", "256", "--R", "30"], ["--R", "4"]]
    )
    def test_unresolved_pair_exits_two_with_one_line(self, capsys, suite, flags):
        assert main(["verify", suite, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--R" in err and "--grid" in err

    @pytest.mark.parametrize("suite", ["bimodules", "duality"])
    @pytest.mark.parametrize(
        "flags", [["--R", "5"], ["--grid", "96", "--R", "7.5"], ["--grid", "256", "--R", "20"]]
    )
    def test_resolved_pair_passes(self, capsys, suite, flags):
        assert main(["verify", suite, *flags]) == 0

    def test_only_the_suites_that_read_the_grid_are_held_to_it(self, capsys):
        coarse = RunConfig(radius=4.0, grid_nodes=64)
        for suite in ("algebra", "oscillator", "groupoids", "ktheory"):
            validate_config(coarse, suite=suite)
        for suite in ("bimodules", "duality", "all"):
            with pytest.raises(ConfigInvalid):
                validate_config(coarse, suite=suite)
        assert main(["spectrum", "d_dolbeault", "--R", "4", "--grid", "64"]) == 0


class TestConfigSources:
    def test_file_values_are_applied(self, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("theta = 0.618033988749895\nb = 3  # twist\nseed = 7\n")
        overrides = read_config_file(str(path))
        assert overrides == {"theta": 0.618033988749895, "b": 3, "seed": 7}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigInvalid):
            read_config_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("b = two\n")
        with pytest.raises(ConfigInvalid):
            read_config_file(str(path))

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("# lab settings\n\nb = 3\n   \n# seed = 7\n")
        assert read_config_file(str(path)) == {"b": 3}

    def test_line_without_equals_exits_two_with_its_location(self, tmp_path, capsys):
        path = tmp_path / "lab.cfg"
        path.write_text("b = 3\nseed 7\n")
        assert main(["verify", "ktheory", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}:2: expected key = value")

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigInvalid):
            read_config_file("/no/such/file.cfg")

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "lab.cfg"
        path.write_bytes(b"theta = 0.7\xff\n")
        with pytest.raises(ConfigInvalid):
            read_config_file(str(path))
        assert main(["verify", "ktheory", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read config file") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["tol_quad = 0.5", "tol-exact = 1e-3"])
    def test_retired_tolerance_key_exits_two(self, tmp_path, capsys, line):
        # each check fixes its own tolerance; no config key loosens it
        path = tmp_path / "lab.cfg"
        path.write_text(line + "\n")
        assert main(["verify", "duality", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unknown config key" in err and "Traceback" not in err

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("b = 3\nseed = 7\n")
        parser = make_parser()
        args = parser.parse_args(
            ["verify", "ktheory", "--config", str(path), "--b", "5"]
        )
        config = build_config(args)
        assert config.b == 5
        assert config.seed == 7

    def test_defaults_fill_the_rest(self):
        parser = make_parser()
        args = parser.parse_args(["verify", "ktheory"])
        config = build_config(args)
        assert config == RunConfig()


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "ktheory", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "ktheory"
        assert report["all_pass"] is True
        assert all(check["pass"] for check in report["checks"])

    def test_reports_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "algebra", "--output", str(out1), "--seed", "3"]) == 0
        assert main(["verify", "algebra", "--output", str(out2), "--seed", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_bytes_do_not_depend_on_the_blas_kernel(self):
        # each run in its own child process, which alone sees OPENBLAS_CORETYPE
        src = str(Path(rotalab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        children = {
            kernel: subprocess.Popen(
                [sys.executable, "-m", "rotalab", "verify", "all", "--seed", "0"],
                env=dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for kernel in _blas_kernels()
        }
        reports = {}
        for kernel, child in children.items():
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, (kernel, err.decode())
            reports[kernel] = out
        assert len(set(reports.values())) == 1, sorted(reports)
        assert json.loads(reports["Nehalem"])["all_pass"] is True

    def test_seed_changes_sampled_numbers(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", "algebra", "--output", str(out1), "--seed", "3"])
        main(["verify", "algebra", "--output", str(out2), "--seed", "4"])
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        errs1 = [c["max_error"] for c in r1["checks"]]
        errs2 = [c["max_error"] for c in r2["checks"]]
        assert errs1 != errs2

    def test_checks_sorted_by_identifier(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", "oscillator", "--output", str(out)])
        ids = [c["check_id"] for c in json.loads(out.read_text())["checks"]]
        assert ids == sorted(ids)

    def test_failing_tolerance_exits_one(self, tmp_path, monkeypatch, capsys):
        planted = ("ktheory.planted_fail", lambda cfg, rng: ("planted", {}, 1.0, 0.0))
        kept = list(checks._REGISTRY["ktheory"])
        monkeypatch.setitem(checks._REGISTRY, "ktheory", [planted] + kept)
        out = tmp_path / "report.json"
        assert main(["verify", "ktheory", "--output", str(out)]) == 1
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["all_pass"] is False
        entries = {entry["check_id"]: entry for entry in report["checks"]}
        assert entries.pop("ktheory.planted_fail")["pass"] is False
        assert all(entry["pass"] for entry in entries.values())

    def test_retired_tolerance_flag_is_refused(self, capsys):
        # duality fails at --b 28, and no flag may turn that into a pass
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "duality", "--b", "28", "--tol-quad", "0.99"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--tol-quad" in err

    def test_invalid_config_exits_two(self, capsys):
        assert main(["verify", "duality", "--b", "0"]) == 2
        assert "twist degree" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["verify", "oscillator", "--lambda", "nan"], "slope"),
            (["verify", "oscillator", "--lambda", "inf"], "slope"),
            (["verify", "bimodules", "--R", "nan"], "radius"),
            (["verify", "bimodules", "--R", "inf"], "radius"),
            (["verify", "oscillator", "--lambda=1e308"], "slope"),
            (["verify", "oscillator", "--lambda=-1e308"], "slope"),
            (["verify", "oscillator", "--lambda=1e307", "--L=2"], "slope"),
        ],
    )
    def test_non_finite_value_exits_two(self, capsys, argv, field):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "bimodules", "--grid", "1449"], "--grid 1449"),
            (["verify", "bimodules", "--grid", "100000000"], "--grid 100000000"),
            (["verify", "duality", "--R", "4091.001"], "--R 4091.001"),
            (["verify", "duality", "--R", "1e300"], "--R 1e+300"),
            (["verify", "duality", "--b", "683"], "--b 683"),
            (["verify", "all", "--L", "2049"], "--L 2049"),
            (["spectrum", "d_lambda", "--L", "2049"], "--L 2049"),
            (["spectrum", "d_dolbeault", "--K", "91"], "--K 91"),
        ],
    )
    def test_value_above_a_cost_cap_exits_two(self, capsys, argv, flag):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err and "cap" in err
        assert "Traceback" not in err

    def test_nan_error_renders_null(self, tmp_path, monkeypatch):
        planted = ("ktheory.planted_nan", lambda cfg, rng: ("planted", {}, math.nan, 1e-10))
        monkeypatch.setitem(checks._REGISTRY, "ktheory", [planted])
        out = tmp_path / "report.json"
        assert main(["verify", "ktheory", "--output", str(out)]) == 1
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        (entry,) = report["checks"]
        assert entry["max_error"] is None
        assert entry["pass"] is False
        assert "error" not in entry

    def test_raising_check_exits_three_and_the_rest_still_run(self, tmp_path, monkeypatch, capsys):
        def raising(cfg, rng):
            raise ZeroDivisionError("planted")

        kept = list(checks._REGISTRY["ktheory"])
        monkeypatch.setitem(checks._REGISTRY, "ktheory", [("ktheory.planted_raise", raising)] + kept)
        out = tmp_path / "report.json"
        assert main(["verify", "ktheory", "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "ktheory.planted_raise raised ZeroDivisionError: planted" in err
        assert "Traceback" not in err
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        entries = {entry["check_id"]: entry for entry in report["checks"]}
        assert set(entries) == {"ktheory.planted_raise"} | {cid for cid, _ in kept}
        raised = entries.pop("ktheory.planted_raise")
        assert raised["error"] == "ZeroDivisionError: planted"
        assert raised["max_error"] is None and raised["pass"] is False
        assert all(entry["pass"] and "error" not in entry for entry in entries.values())
        assert report["all_pass"] is False

    def test_unwritable_output_exits_two(self, capsys):
        code = main(["verify", "ktheory", "--output", "/no/such/dir/report.json"])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["verify", "ktheory", "--output", str(out), "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check_id,anchor,max_error,tolerance,pass"
        assert len(lines) == 4


class TestSpectrumCommand:
    def test_squared_rows_interleave(self):
        rows = spectrum_rows("d_squared", RunConfig(level_cut=4, lam=1.0))
        assert [value for _, value in rows] == [0.0, 2.0, 2.0, 4.0, 4.0, 6.0, 6.0, 8.0]

    def test_flat_torus_rows(self):
        rows = spectrum_rows("d_dolbeault", RunConfig(mode_cut=1))
        values = [value for _, value in rows]
        expected = [0.0] + [TWO_PI] * 4 + [TWO_PI * math.sqrt(2.0)] * 4
        assert values == pytest.approx(expected, abs=1e-12)
        assert rows[0][0] == "l=0,k=0"

    def test_flat_torus_rows_allocate_no_dense_operator(self):
        # 625 basis vectors: a dense doubled operator would take 25 MB
        tracemalloc.start()
        try:
            rows = spectrum_rows("d_dolbeault", RunConfig(mode_cut=12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 25 * 25
        assert peak < 2 * 1024 * 1024

    def test_ladder_singular_values(self):
        rows = spectrum_rows("d_lambda", RunConfig(level_cut=8, lam=2.0))
        values = [value for _, value in rows]
        assert sorted(values) == values
        # read off the ladder entries, so each value is the entry itself
        expected = sorted(
            [0.0] + [math.sqrt(2.0 * 2.0 * l) for l in range(1, 8) for _ in (0, 1)]
        )
        assert values == expected

    def test_csv_output(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", "d_squared", "--L", "3", "--format", "csv", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,value"
        assert lines[1] == "plus l=0,0.0"

    def test_json_output(self, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "d_dolbeault", "--K", "1", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["target"] == "d_dolbeault"
        assert len(payload["values"]) == 9

    def test_empty_truncation_rejected(self, capsys):
        assert main(["spectrum", "d_squared", "--L", "0"]) == 2
        capsys.readouterr()
        assert main(["spectrum", "d_dolbeault", "--K", "0"]) == 2
        capsys.readouterr()

    def test_single_level_rejected(self, capsys):
        assert main(["spectrum", "d_lambda", "--L", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "at least two levels" in err
