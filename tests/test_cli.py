"""Config validation, file emission contracts, determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spinfringe import ConfigError, SimulationConfig, SternGerlachStage, default_config
from spinfringe.cli import main, run_compare, run_geometry_dump, run_simulate
from spinfringe.config import load_config, merge_overrides, resolve_output_path


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


class TestConfigValidation:
    def test_default_is_valid(self):
        default_config().validate()

    @pytest.mark.parametrize(
        "fields,field",
        [
            ({"wavelength": -1.0}, "wavelength"),
            ({"wavelength": 0.0}, "wavelength"),
            ({"screen_distance": 0.0}, "screen_distance"),
            ({"slit_count": 1}, "slit_count"),
            ({"separation": -2e-6}, "separation"),
            ({"theta_min": -2.0}, "theta_min"),
            ({"theta_max": 2.0}, "theta_max"),
            ({"theta_min": 0.2, "theta_max": 0.1}, "theta_max"),
            ({"samples": 1}, "samples"),
            ({"phase_convention": "full"}, "phase_convention"),
            ({"transmitted": "w"}, "transmitted"),
            ({"detection": [3]}, "detection"),
            ({"i0": 0.0}, "i0"),
            ({"output_format": "xml"}, "output_format"),
            ({"output_path": ""}, "output_path"),
        ],
    )
    def test_each_violation_names_its_field(self, fields, field):
        config = merge_overrides(default_config(), fields)
        with pytest.raises(ConfigError) as excinfo:
            config.validate()
        assert excinfo.value.field == field
        assert field in str(excinfo.value)

    def test_positions_not_increasing(self):
        config = merge_overrides(default_config(), {"slit_positions": [1e-6, -1e-6]})
        with pytest.raises(ConfigError) as excinfo:
            config.validate()
        assert excinfo.value.field == "slit_positions"

    def test_both_slit_forms_rejected(self):
        config = SimulationConfig(slit_positions=(-1e-6, 1e-6), slit_count=2, separation=2e-6)
        with pytest.raises(ConfigError):
            config.validate()

    def test_sg_stage_rules(self):
        bad_factor = merge_overrides(default_config(), {"sg_stage": {"factor": 3}})
        with pytest.raises(ConfigError) as excinfo:
            bad_factor.validate()
        assert excinfo.value.field == "sg_stage"

        with_detection = merge_overrides(
            default_config(), {"sg_stage": {"factor": 1}, "detection": [1]}
        )
        with pytest.raises(ConfigError, match="detection"):
            with_detection.validate()

        three_slits = merge_overrides(
            default_config(), {"slit_count": 3, "sg_stage": {"factor": 1}}
        )
        with pytest.raises(ConfigError, match="2 slits"):
            three_slits.validate()

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path, wavelenght=500e-9)
        with pytest.raises(ConfigError, match="wavelenght"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


class TestConfigMerging:
    def test_file_values_loaded(self, tmp_path):
        path = write_config(
            tmp_path,
            wavelength=600e-9,
            slit_positions=[-2e-6, 0.0, 2e-6],
            samples=11,
            sg_stage=None,
        )
        config = load_config(path)
        assert config.wavelength == 600e-9
        assert config.slit_positions == (-2e-6, 0.0, 2e-6)
        assert config.slit_count is None and config.separation is None
        assert config.samples == 11

    def test_overrides_win_over_file(self, tmp_path):
        path = write_config(tmp_path, wavelength=600e-9, samples=11)
        config = merge_overrides(load_config(path), {"samples": 21})
        assert config.samples == 21
        assert config.wavelength == 600e-9

    def test_position_override_clears_count_form(self):
        config = merge_overrides(default_config(), {"slit_positions": (-1e-6, 1e-6)})
        assert config.slit_count is None and config.separation is None
        config.validate()

    def test_count_override_clears_positions(self):
        base = merge_overrides(default_config(), {"slit_positions": (-1e-6, 1e-6)})
        config = merge_overrides(base, {"slit_count": 4, "separation": 1e-6})
        assert config.slit_positions is None
        config.validate()
        assert config.geometry().n_slits == 4

    def test_sg_stage_partial_update(self):
        base = merge_overrides(default_config(), {"sg_stage": {"factor": 2}})
        updated = merge_overrides(base, {"sg_stage": {"axis_angle": 0.5}})
        assert updated.sg_stage == SternGerlachStage(factor=2, axis_angle=0.5)


class TestSimulate:
    def test_default_run_shape_and_peak(self, tmp_path):
        config = merge_overrides(default_config(), {"output_path": str(tmp_path / "out.csv")})
        path = run_simulate(config)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,intensity"
        assert len(lines) == 1002  # header + 1001 samples
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        # global maximum at theta = 0
        assert abs(data[np.argmax(data[:, 1]), 0]) <= 1e-12
        # half convention: maxima at d sin(theta) = m lambda, within a grid step
        step = data[1, 0] - data[0, 0]
        peaks = [
            i
            for i in range(1, len(data) - 1)
            if data[i, 1] >= data[i - 1, 1] and data[i, 1] >= data[i + 1, 1] and data[i, 1] > 0.9
        ]
        assert len(peaks) == 3
        for i in peaks:
            m = round(math.sin(data[i, 0]) * 2e-6 / 500e-9)
            assert abs(data[i, 0] - math.asin(m * 500e-9 / 2e-6)) <= step

    def test_byte_identical_reruns(self, tmp_path):
        config = merge_overrides(
            default_config(), {"samples": 101, "output_path": str(tmp_path / "a.csv")}
        )
        first = run_simulate(config).read_bytes()
        second = run_simulate(config).read_bytes()
        assert first == second

    def test_detection_flattens_output(self, tmp_path):
        config = merge_overrides(
            default_config(),
            {"detection": [1], "samples": 301, "output_path": str(tmp_path / "flat.csv")},
        )
        path = run_simulate(config)
        values = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
        assert max(values) - min(values) <= 1e-12

    def test_two_sample_grid(self, tmp_path):
        config = merge_overrides(
            default_config(),
            {"samples": 2, "theta_min": 0.0, "theta_max": 1e-3,
             "output_path": str(tmp_path / "two.csv")},
        )
        lines = run_simulate(config).read_text().splitlines()
        assert len(lines) == 3

    def test_json_output_mirrors_profile(self, tmp_path):
        config = merge_overrides(
            default_config(),
            {"samples": 5, "output_format": "json", "output_path": str(tmp_path / "out.json")},
        )
        document = json.loads(run_simulate(config).read_text())
        assert set(document) == {"i0", "samples"}
        assert document["i0"] == 1.0
        assert len(document["samples"]) == 5
        assert set(document["samples"][0]) == {"theta", "intensity"}

    def test_sg_stage_attenuates(self, tmp_path):
        config = merge_overrides(
            default_config(),
            {"sg_stage": {"factor": 1}, "samples": 201,
             "output_path": str(tmp_path / "sg.csv")},
        )
        path = run_simulate(config)
        data = np.array(
            [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]
        )
        thetas, values = data[:, 0], data[:, 1]
        phase = 2 * np.pi * 2e-6 * np.sin(thetas) / 500e-9
        assert np.max(np.abs(values - np.cos(phase / 2) ** 2 / 2)) <= 1e-12

    def test_csv_precision_at_least_15_digits(self, tmp_path):
        config = merge_overrides(
            default_config(), {"samples": 3, "output_path": str(tmp_path / "digits.csv")}
        )
        lines = run_simulate(config).read_text().splitlines()
        for cell in lines[1].split(","):
            mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) >= 15

    def test_env_var_redirects_relative_paths(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "redirected"
        monkeypatch.setenv("SPINFRINGE_OUTPUT_DIR", str(out_dir))
        config = merge_overrides(default_config(), {"samples": 3, "output_path": "env.csv"})
        path = run_simulate(config)
        assert path == out_dir / "env.csv"
        assert path.exists()

    def test_env_var_resolution(self, monkeypatch, tmp_path):
        monkeypatch.delenv("SPINFRINGE_OUTPUT_DIR", raising=False)
        assert resolve_output_path(default_config()).name == "fringe.csv"
        absolute = merge_overrides(default_config(), {"output_path": str(tmp_path / "abs.csv")})
        monkeypatch.setenv("SPINFRINGE_OUTPUT_DIR", "/elsewhere")
        assert resolve_output_path(absolute) == tmp_path / "abs.csv"


class TestCompare:
    def test_half_convention_matches_oracle(self, tmp_path):
        config = merge_overrides(
            default_config(), {"samples": 501, "output_path": str(tmp_path / "cmp.csv")}
        )
        path, max_abs_diff = run_compare(config)
        assert max_abs_diff <= 1e-9
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,intensity,oracle,abs_diff"
        assert len(lines) == 502

    def test_paper_convention_disagrees_but_table_well_formed(self, tmp_path):
        config = merge_overrides(
            default_config(),
            {"samples": 501, "phase_convention": "paper",
             "output_path": str(tmp_path / "cmp.csv")},
        )
        path, max_abs_diff = run_compare(config)
        assert max_abs_diff > 0.1
        lines = path.read_text().splitlines()
        assert len(lines) == 502
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_three_slit_half_matches(self, tmp_path):
        config = merge_overrides(
            default_config(),
            {"slit_count": 3, "samples": 301, "output_path": str(tmp_path / "cmp3.csv")},
        )
        _, max_abs_diff = run_compare(config)
        assert max_abs_diff <= 1e-9

    def test_detection_compares_against_incoherent_oracle(self, tmp_path):
        config = merge_overrides(
            default_config(),
            {"detection": [2], "samples": 51, "output_path": str(tmp_path / "det.csv")},
        )
        _, max_abs_diff = run_compare(config)
        assert max_abs_diff <= 1e-12


class TestGeometryDump:
    def test_columns_and_values(self, tmp_path):
        config = merge_overrides(
            default_config(),
            {"slit_count": 3, "samples": 5, "output_path": str(tmp_path / "geo.csv")},
        )
        lines = run_geometry_dump(config).read_text().splitlines()
        assert lines[0] == "theta,alpha_1,alpha_2,alpha_3,phi_1_2,phi_1_3,phi_2_3"
        assert len(lines) == 6
        from spinfringe import ScreenPoint, incidence_angles, pair_phase

        layout = config.geometry()
        row = [float(x) for x in lines[3].split(",")]
        point = ScreenPoint(row[0])
        assert np.allclose(row[1:4], incidence_angles(layout, point), atol=1e-15)
        assert row[4] == pytest.approx(pair_phase(layout, point, 1, 2), abs=1e-15)


class TestMainEntry:
    def test_simulate_via_flags(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(["simulate", "--samples", "11", "-o", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_flag_overrides_beat_config_file(self, tmp_path):
        cfg = write_config(tmp_path, samples=11, output_path=str(tmp_path / "a.csv"))
        code = main(["simulate", "--config", str(cfg), "--samples", "5",
                     "-o", str(tmp_path / "b.csv")])
        assert code == 0
        assert len((tmp_path / "b.csv").read_text().splitlines()) == 6

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--wavelength", "-1", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "wavelength" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = main(["simulate", "--samples", "3", "-o", str(target / "out.csv")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_compare_prints_summary(self, tmp_path, capsys):
        code = main(["compare", "--samples", "11", "-o", str(tmp_path / "c.csv")])
        assert code == 0
        assert "max_abs_diff" in capsys.readouterr().out

    def test_geometry_command(self, tmp_path):
        code = main(["geometry", "--samples", "3", "-o", str(tmp_path / "g.csv")])
        assert code == 0

    def test_detection_flag_parsing(self, tmp_path):
        out = tmp_path / "det.csv"
        code = main(["simulate", "--samples", "5", "--detection", "1,2", "-o", str(out)])
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert max(values) - min(values) <= 1e-12

    def test_module_entry_point(self, tmp_path, subprocess_env):
        out = tmp_path / "module.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spinfringe", "simulate", "--samples", "3", "-o", str(out)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=subprocess_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--phase-convention", "bogus"])
        assert excinfo.value.code == 2
