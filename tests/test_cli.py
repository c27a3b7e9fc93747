"""Config validation, file emission contracts, determinism, and exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinfringe
from spinfringe import ConfigError, SimulationConfig, SternGerlachStage, cli, default_config, fringe
from spinfringe.cli import (
    _config_from_args,
    _write_table,
    build_parser,
    main,
    run_compare,
    run_geometry_dump,
    run_simulate,
)
from spinfringe.config import _FIELD_NAMES, MAX_CELLS, MAX_PHASE_ERROR, MAX_SAMPLES, MAX_SLITS, OUTPUT_FORMATS, config_from_dict, load_config, merge_overrides, resolve_output_path
from spinfringe.fringe import _BLOCK_CELLS, _BLOCK_ROWS, _row_blocks


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
            ({"samples": MAX_SAMPLES + 1}, "samples"),
            ({"slit_count": MAX_SLITS + 1}, "slit_count"),
            ({"slit_positions": [k * 1e-6 for k in range(MAX_SLITS + 1)]}, "slit_positions"),
        ],
    )
    def test_each_violation_names_its_field(self, fields, field):
        config = merge_overrides(default_config(), fields)
        with pytest.raises(ConfigError) as excinfo:
            config.validate()
        assert excinfo.value.field == field
        assert field in str(excinfo.value)

    def test_samples_cap_itself_validates(self):
        merge_overrides(default_config(), {"samples": MAX_SAMPLES}).validate()

    @pytest.mark.parametrize("form", ["slit_count", "slit_positions"])
    def test_slit_cap_checked_before_the_layout_is_built(self, form, monkeypatch):
        count = {"slit_count": MAX_SLITS + 1}
        positions = {"slit_positions": [k * 1e-6 for k in range(MAX_SLITS + 1)]}
        config = merge_overrides(default_config(), count if form == "slit_count" else positions)
        monkeypatch.setattr(SimulationConfig, "geometry", lambda self: pytest.fail("layout built"))
        with pytest.raises(ConfigError) as excinfo:
            config.validate()
        assert excinfo.value.field == form

    def test_slit_cap_itself_validates(self):
        merge_overrides(default_config(), {"slit_count": MAX_SLITS}).validate()
        positions = [k * 1e-6 for k in range(MAX_SLITS)]
        merge_overrides(default_config(), {"slit_positions": positions}).validate()

    def test_work_budget_admits_its_largest_grid(self):
        # S x (1 + N + N(N-1)/2) cells of the geometry dump: 1,997 x 500,501 <= 10^9 < 1,998 x 500,501
        assert 1997 * _cells(MAX_SLITS) <= MAX_CELLS < 1998 * _cells(MAX_SLITS)
        merge_overrides(default_config(), {"slit_count": MAX_SLITS, "samples": 1997}).validate()

    @pytest.mark.parametrize("samples", [1998, 2000])
    def test_work_budget_names_samples_before_any_grid(self, samples, tmp_path, capsys, monkeypatch):
        config = merge_overrides(default_config(), {"slit_count": MAX_SLITS, "samples": samples})
        with pytest.raises(ConfigError) as excinfo:
            config.validate()
        assert excinfo.value.field == "samples"
        monkeypatch.setattr(SimulationConfig, "theta_grid", lambda self: pytest.fail("grid built"))
        out = tmp_path / "dump.csv"
        code = main(["geometry", "--slit-count", str(MAX_SLITS), "--samples", str(samples), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: samples:")
        assert not out.exists()

    def test_theta_range_without_samples_distinct_angles_names_samples(self):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"theta_min": 0.0, "theta_max": 5e-324})
        assert excinfo.value.field == "samples"

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


class TestMalformedInput:
    """A malformed value exits 2 naming its field; it is never truncated and never a traceback."""

    @pytest.mark.parametrize(
        "fields,field",
        [
            ({"slit_count": 2.7}, "slit_count"),
            ({"slit_count": "abc"}, "slit_count"),
            ({"samples": True}, "samples"),
            ({"detection": [1.5]}, "detection"),
            ({"detection": [True]}, "detection"),
            ({"detection": ["x"]}, "detection"),
            ({"slit_positions": ["a", 1]}, "slit_positions"),
            ({"slit_positions": 5}, "slit_positions"),
            ({"wavelength": "abc"}, "wavelength"),
            # strings, which float() would parse and iteration would split into items
            ({"wavelength": "5e-7"}, "wavelength"),
            ({"slit_positions": "12"}, "slit_positions"),
            ({"detection": ""}, "detection"),
            ({"sg_stage": {"factor": 1.5}}, "sg_stage"),
            ({"slit_positions": [False, True]}, "slit_positions"),
            ({"wavelength": True}, "wavelength"),
            ({"sg_stage": {"factor": 1, "axis_angle": True}}, "sg_stage"),
            ({"output_path": True}, "output_path"),
            ({"sg_stage": 1}, "sg_stage"),
            ({"sg_stage": {"factor": 1, "axis": 0.3}}, "sg_stage"),
        ],
    )
    def test_config_file_value(self, tmp_path, capsys, fields, field):
        path = write_config(tmp_path, **fields)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.field == field
        code = main(["simulate", "--config", str(path), "-o", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {field}:")
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_config_document_that_is_not_an_object_names_config(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]", encoding="utf-8")
        code = main(["simulate", "--config", str(path), "-o", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: config:")
        assert str(path) in err and "JSON object, got list" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["--detection", "1.7"], "detection"),
            (["--detection", "3"], "detection"),  # the default layout has two slits
            (["--slit-positions", ""], "slit_positions"),
            (["--sg-axis-angle", "0.3"], "sg_stage"),
        ],
    )
    def test_flag_value(self, tmp_path, capsys, argv, name):
        code = main(["simulate", *argv, "-o", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {name}:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "compare", "geometry"])
    @pytest.mark.parametrize(
        "argv,name",
        [
            # fewer distinct float64 angles in the range than samples
            (["--theta-min", "0.1", "--theta-max", "0.10000000000000003", "--samples", "10"], "samples"),
            # k = 2*pi*sin(theta)/wavelength overflows
            (["--wavelength", "1e-320"], "wavelength"),
            # k*(a_j - a_i) overflows, far past the phase-error bound
            (["--slit-count", "3", "--separation", "1e308"], "separation"),
            (["--slit-positions=-4e307,4e307", "--wavelength", "1.238", "--phase-convention", "paper"],
             "slit_positions"),
        ],
    )
    def test_unrepresentable_grid_or_phase_is_config_error(self, tmp_path, capsys, command, argv, name):
        code = main([command, *argv, "-o", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {name}:")
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "geometry"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--screen-distance", "1e-320"],  # (x - a_k)/L overflows in the divide
            ["--screen-distance", "1e308", "--theta-max", "1.5"],  # x = L*tan(theta) overflows
        ],
    )
    def test_overflowing_screen_offsets_are_config_error(self, tmp_path, capsys, command, argv):
        code = main([command, *argv, "-o", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert re.fullmatch(r"config error: screen_distance: [^\n]*\n", captured.err)
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "compare", "geometry"])
    @pytest.mark.parametrize(
        "argv,name",
        [
            # at 500 nm and |theta| <= 0.3, eps*max|k| is 8.2e-10 per meter of span, so 1.25 m is over 1e-9
            (["--slit-positions", "0,1.25"], "slit_positions"),
            (["--slit-count", "6", "--separation", "0.25"], "separation"),
            # half the paper convention's rotation angle fits in a float here, but the phases are meaningless
            (["--slit-positions=-4e307,4e307", "--wavelength", "1.238"], "slit_positions"),
        ],
    )
    def test_a_span_past_the_phase_error_bound_is_config_error(self, tmp_path, capsys, command, argv, name):
        code = main([command, *argv, "--samples", "11", "-o", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert re.fullmatch(rf"config error: {name}: pair phase error bound [^\n]*\n", captured.err)
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("positions", ["0,1.2", "1000,1001.2"])
    def test_a_span_inside_the_phase_error_bound_is_accepted_at_any_offset(self, tmp_path, capsys, positions):
        assert main(["compare", "--slit-positions", positions, "--samples", "11", "-o", str(tmp_path / "c.csv")]) == 0
        assert float(capsys.readouterr().out.split("max_abs_diff = ")[1]) <= 1e-9

    @pytest.mark.parametrize("argv,flag", [(["--detection", "x"], "--detection"),
                                           (["--slit-positions", "1e-6,b"], "--slit-positions")])
    def test_unparsable_flag_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", *argv])
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--theta-min", "-1e-1"),
            ("--theta-max", "-2.5E-2"),
            ("--slit-positions", "-1e-6,1e-6"),
            ("--detection", "-1,2"),
            ("--sg-axis-angle", "-.5e-1"),
        ],
    )
    def test_negative_values_parse_in_the_space_form(self, flag, value):
        spaced = build_parser().parse_args(["simulate", flag, value])
        joined = build_parser().parse_args(["simulate", f"{flag}={value}"])
        assert spaced == joined
        assert vars(spaced)[flag[2:].replace("-", "_")] is not None

    def test_integral_floats_accepted(self, tmp_path):
        config = load_config(write_config(tmp_path, slit_count=3.0, samples=11.0, detection=[2.0]))
        assert (config.slit_count, config.samples, config.detection) == (3, 11, (2,))
        assert all(type(v) is int for v in (config.slit_count, config.samples, *config.detection))

    @pytest.mark.parametrize("count", [True, 2.5, "3"], ids=repr)
    def test_hand_built_slit_count_names_its_field(self, count):
        # SlitGeometry.evenly_spaced reads the count as an exact integer; validate() names the field it came from
        with pytest.raises(ConfigError) as excinfo:
            SimulationConfig(slit_count=count).validate()
        assert excinfo.value.field == "slit_count"

    @pytest.mark.parametrize("field", ["wavelength", "separation", "i0", "slit_positions"])
    def test_numpy_bool_is_not_a_number(self, field):
        # np.True_ is no bool subclass, but it is no more a number than True is: it must not read as 1.0
        with pytest.raises(ConfigError) as excinfo:
            merge_overrides(default_config(), {field: [np.True_, 1.0] if field == "slit_positions" else np.True_})
        assert excinfo.value.field == field

    def test_one_error_class(self):
        assert spinfringe.ConfigError is spinfringe.config.ConfigError is spinfringe.geometry.ConfigError
        assert issubclass(ConfigError, ValueError)


class TestFlagsAndFilesAlike:
    @pytest.mark.parametrize(
        "document,argv,field",
        [
            # a bad value fails with the same config error line from either
            ({"samples": 2.5}, ["--samples", "2.5"], "samples"),
            ({"slit_count": 2.5}, ["--slit-count", "2.5"], "slit_count"),
            ({"phase_convention": "full"}, ["--phase-convention", "full"], "phase_convention"),
            ({"transmitted": "w"}, ["--transmitted", "w"], "transmitted"),
            ({"output_format": "xml"}, ["--output-format", "xml"], "output_format"),
            ({"sg_stage": {"factor": 3}}, ["--sg-factor", "3"], "sg_stage"),
            ({"sg_stage": {"factor": 1.5}}, ["--sg-factor", "1.5"], "sg_stage"),
            # an integral float is its integer in either
            ({"samples": 11.0}, ["--samples=11.0"], None),
            ({"slit_count": 3.0, "separation": 2e-6}, ["--slit-count=3.0", "--separation=2e-6"], None),
            ({"sg_stage": {"factor": 1.0}}, ["--sg-factor=1.0"], None),
        ],
    )
    def test_a_flag_and_a_file_accept_and_reject_alike(self, tmp_path, capsys, document, argv, field):
        out = tmp_path / "out.csv"
        outcomes = []
        for args in ([f"--config={write_config(tmp_path, **document)}"], argv):
            code = main(["simulate", *args, "-o", str(out)])
            outcomes.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        assert outcomes[0] == outcomes[1]
        code, err, written = outcomes[0]
        if field is None:
            assert (code, err) == (0, "") and written
        else:
            assert code == 2 and re.fullmatch(rf"config error: {field}: [^\n]*\n", err) and written is None

    @pytest.mark.parametrize("command", ["simulate", "compare", "geometry"])
    def test_help_names_the_accepted_values(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        text = capsys.readouterr().out
        assert excinfo.value.code == 0
        for values in (fringe.PHASE_CONVENTIONS, fringe.TRANSMITTED_CHOICES, OUTPUT_FORMATS, ("1", "2")):
            assert "|".join(values) in text


def _finite(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _flag_and_file_inputs():
    """Valid values for every scalar field and either layout form, as argv and as a document."""
    positions = st.lists(_finite(-1e-4, 1e-4), min_size=2, max_size=5, unique=True).map(sorted)
    count_form = st.tuples(st.integers(2, 6), _finite(1e-7, 1e-5))
    return st.fixed_dictionaries(
        {"layout": st.one_of(positions, count_form),
         "thetas": st.lists(_finite(-1.5, 1.5), min_size=2, max_size=2, unique=True).map(sorted),
         "extra": st.tuples(st.integers(0, 2), _finite(-3.0, 3.0))},
        optional={
            "wavelength": _finite(1e-8, 1e-5),
            "screen_distance": _finite(1e-3, 10.0),
            "samples": st.one_of(st.integers(2, MAX_SAMPLES), st.integers(2, MAX_SAMPLES).map(float)),
            "phase_convention": st.sampled_from(["half", "paper"]),
            "transmitted": st.sampled_from(["u", "v"]),
            "i0": _finite(1e-3, 1e3),
            "output_format": st.sampled_from(["csv", "json"]),
            "output_path": st.sampled_from(["out.csv", "sub/out.json", "/abs/path.csv"]),
        },
    )


def _outcome(build):
    """What ``build()`` gives: its config, or the field its ConfigError names."""
    try:
        return build()
    except ConfigError as exc:
        return exc.field


class TestFlagsMatchFiles:
    @settings(max_examples=100, deadline=None)
    @given(_flag_and_file_inputs())
    def test_flags_and_file_give_the_same_config(self, drawn):
        layout, (theta_min, theta_max), (extra, angle) = (drawn.pop(k) for k in ("layout", "thetas", "extra"))
        document = {**drawn, "theta_min": theta_min, "theta_max": theta_max}
        if isinstance(layout, tuple):
            document["slit_count"], document["separation"] = layout
            n = layout[0]
        else:
            document["slit_positions"] = layout
            n = len(layout)
        if extra == 1:  # which-way detection on every slit
            document["detection"] = list(range(1, n + 1))
        elif extra == 2 and n == 2:
            document["sg_stage"] = {"factor": 1 + (angle > 0), "axis_angle": angle}

        argv = ["simulate"]
        for name, value in document.items():
            if name == "sg_stage":
                argv += [f"--sg-factor={value['factor']}", f"--sg-axis-angle={value['axis_angle']!r}"]
            elif name == "output_path":
                argv.append(f"--output={value}")
            elif isinstance(value, list):
                argv.append(f"--{name.replace('_', '-')}={','.join(map(repr, value))}")
            else:
                argv.append(f"--{name.replace('_', '-')}={value if isinstance(value, str) else repr(value)}")

        def from_flags():
            config = _config_from_args(build_parser().parse_args(argv))
            config.validate()
            return config

        # equal configs, or a ConfigError naming the same field (a theta range too narrow for samples)
        assert _outcome(from_flags) == _outcome(lambda: config_from_dict(json.loads(json.dumps(document))))


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

    def test_none_keeps_the_sg_stage(self):
        base = merge_overrides(default_config(), {"sg_stage": {"factor": 2, "axis_angle": 0.5}})
        assert merge_overrides(base, {"sg_stage": None}) == base

    def test_a_stage_object_is_kept_and_replaces_a_stage_whole(self):
        stage = SternGerlachStage(2, 0.5)
        config = merge_overrides(default_config(), {"sg_stage": stage})
        assert config.sg_stage is stage
        # only a mapping is merged field by field, so the new stage's default axis wins over 0.5
        replaced = merge_overrides(config, {"sg_stage": SternGerlachStage(1)})
        assert replaced.sg_stage == SternGerlachStage(factor=1, axis_angle=0.0)
        config.validate()
        replaced.validate()


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

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("transmitted", ["u", "v"])
    def test_sg_stage_in_row_blocks_matches_per_angle_reference(
        self, tmp_path, monkeypatch, factor, transmitted
    ):
        # validate's one-row probe, then 2,501 samples as two full 1,000-row blocks and a partial one
        rows = []
        stacked = spinfringe.fringe.measure_factor

        def recording(state, *args):
            rows.append(np.shape(state)[0])
            return stacked(state, *args)

        monkeypatch.setattr(spinfringe.fringe, "measure_factor", recording)
        i0, axis = 2.5, 0.7
        config = merge_overrides(
            default_config(),
            {"sg_stage": {"factor": factor, "axis_angle": axis}, "samples": 2501,
             "transmitted": transmitted, "i0": i0, "output_path": str(tmp_path / "sg.csv")},
        )
        data = np.loadtxt(run_simulate(config), delimiter=",", skiprows=1)
        layout = config.geometry()
        reference = [
            spinfringe.ensemble_transmission(
                spinfringe.measure_factor(
                    spinfringe.two_slit_state_at(
                        layout, spinfringe.ScreenPoint(theta), config.phase_convention
                    ).as_state(),
                    factor,
                    axis,
                ),
                transmitted,
            )
            for theta in data[:, 0]
        ]
        expected = np.clip(i0 * np.array(reference), 0.0, i0)
        assert np.max(np.abs(data[:, 1] - expected)) <= 4 * np.finfo(float).eps * i0
        assert rows == [1, 1000, 1000, 501]

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

    def test_the_oracle_computes_every_row_the_model_copies_from_its_mirror(self, tmp_path, monkeypatch):
        counted = {"model": 0, "oracle": 0}

        def counting(name, function):
            def wrapper(phases, *args):
                counted[name] += phases.shape[0]
                return function(phases, *args)
            return wrapper

        monkeypatch.setattr(fringe, "_cosine_sum", counting("model", fringe._cosine_sum))
        monkeypatch.setattr(cli, "classical_intensity", counting("oracle", cli.classical_intensity))
        config = merge_overrides(
            default_config(), {"slit_count": 5, "samples": 2001, "output_path": str(tmp_path / "cmp.csv")}
        )
        _, max_abs_diff = run_compare(config)
        assert max_abs_diff <= 1e-9
        assert counted["model"] < 2001
        assert counted["oracle"] == 2001

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_peak_memory_holds_no_second_theta_column(self, tmp_path, output_format):
        samples = 100_001
        config = merge_overrides(
            default_config(),
            {"samples": samples, "output_format": output_format, "output_path": str(tmp_path / "out.table")},
        )

        def traced_peak(run):
            run(config)  # first calls allocate once-only state; keep it out of the trace
            tracemalloc.start()
            try:
                run(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # compare writes four columns and joins the oracle's blocks as it computes them; the profile's copy of
        # the grid would be one more 8-byte value per row on top of simulate's peak
        per_row = (traced_peak(run_compare) - traced_peak(run_simulate)) / samples
        assert per_row < 8

    def test_oracle_in_row_blocks_equals_one_table(self, tmp_path):
        positions = np.sort(np.random.default_rng(5).uniform(-6e-5, 6e-5, 64))
        config = merge_overrides(
            default_config(),
            {"slit_positions": positions.tolist(), "samples": 2001, "output_format": "json",
             "output_path": str(tmp_path / "grating.json")},
        )
        path, _ = run_compare(config)
        oracle = [row["oracle"] for row in json.loads(path.read_text())["samples"]]
        # the oracle sees the layout moved to its midpoint
        centred = spinfringe.SlitGeometry(positions - (positions[0] + positions[-1]) / 2, config.wavelength,
                                          config.screen_distance)
        whole = spinfringe.classical_intensity(spinfringe.slit_phases(centred, config.theta_grid()))
        assert np.array_equal(oracle, config.i0 * whole)

    @pytest.mark.parametrize("offset", [0.01, 1.0, 100.0, 1000.0])
    def test_a_layout_far_off_axis_matches_the_oracle(self, tmp_path, offset):
        # given the raw layout's phases k*a_k, the oracle is off the model by 1.97e-8 at 100 m and 1.78e-7 at 1 km
        config = merge_overrides(
            default_config(),
            {"slit_positions": [offset + d for d in (0.0, 3e-6, 7.5e-6)], "samples": 2001,
             "output_path": str(tmp_path / "cmp.csv")},
        )
        _, max_abs_diff = run_compare(config)
        assert max_abs_diff <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        offset=st.floats(-1e3, 1e3),
        span=st.floats(-6.0, 1.0).map(lambda e: 10.0**e),
        inner=st.lists(st.floats(0.0, 1.0), max_size=6),
        wavelength=st.floats(-9.0, -6.0).map(lambda e: 10.0**e),
    )
    def test_every_layout_inside_the_phase_error_bound_meets_both_tolerances(self, offset, span, inner, wavelength):
        positions = sorted({offset + span * fraction for fraction in (0.0, 1.0, *inner)})
        bound = sys.float_info.epsilon * 2.0 * math.pi * math.sin(0.3) / wavelength * (positions[-1] - positions[0])
        with tempfile.TemporaryDirectory() as tmp:
            config = merge_overrides(
                default_config(),
                {"slit_positions": positions, "wavelength": wavelength, "samples": 101,
                 "output_path": os.path.join(tmp, "cmp.csv")},
            )
            try:
                layout, grid = config.validate()
            except ConfigError as exc:
                assert exc.field == "slit_positions" and bound > MAX_PHASE_ERROR
                return
            assert bound <= MAX_PHASE_ERROR
            _, max_abs_diff = run_compare(config)
        assert max_abs_diff <= 1e-9
        # the pairwise rule over the separations a_j - a_i, with the offset gone before any phase is formed
        pos, k = np.array(positions), 2.0 * math.pi * np.sin(grid) / wavelength
        first, second = np.triu_indices(pos.size, 1)
        cosines = np.cos(np.multiply.outer(np.abs(k), pos[second] - pos[first]))
        reference = (pos.size + 2.0 * cosines.sum(-1)) / pos.size**2
        assert np.abs(spinfringe.intensity_profile(layout, grid).intensities - reference).max() <= 1e-12

    def test_slits_that_centring_would_merge_keep_their_raw_positions(self, tmp_path):
        # 1e-30 - 0.5 and 2e-30 - 0.5 both round to -0.5, which no layout may hold twice
        config = merge_overrides(
            default_config(),
            {"slit_positions": [1e-30, 2e-30, 1.0], "samples": 11, "output_path": str(tmp_path / "cmp.csv")},
        )
        _, max_abs_diff = run_compare(config)
        assert max_abs_diff <= 1e-9


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

    @settings(max_examples=30, deadline=None)
    @given(
        positions=st.lists(st.floats(-1e-4, 1e-4), min_size=2, max_size=5, unique=True),
        samples=st.integers(2, 9),
        output_format=st.sampled_from(["csv", "json"]),
    )
    def test_pair_phase_columns_are_pair_phase(self, positions, samples, output_format):
        with tempfile.TemporaryDirectory() as tmp:
            config = merge_overrides(
                default_config(),
                {"slit_positions": sorted(positions), "samples": samples, "output_format": output_format,
                 "output_path": os.path.join(tmp, "geo." + output_format)},
            )
            text = run_geometry_dump(config).read_text()
        if output_format == "csv":
            lines = text.splitlines()
            header, rows = lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]
        else:
            document = json.loads(text)
            header, rows = document["columns"], document["rows"]
        table = dict(zip(header, np.array(rows).T))
        layout, grid = config.geometry(), config.theta_grid()
        n = layout.n_slits
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        assert [name for name in header if name.startswith("phi_")] == [f"phi_{i}_{j}" for i, j in pairs]
        for i, j in pairs:
            assert np.array_equal(table[f"phi_{i}_{j}"], spinfringe.pair_phase(layout, grid, i, j))

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_wide_dump_spans_cell_limited_blocks(self, tmp_path, monkeypatch, output_format):
        # N = 40 gives 1 + 40 + 780 = 821 columns, so a block of _CHUNK_CELLS cells holds 9 rows
        blocks, render = [], cli.render_profile
        per_block = cli._CHUNK_CELLS // 821
        assert 1 < per_block < 700

        def recording(columns, column_arrays, *args, **kwargs):
            blocks.append(len(column_arrays[0]))
            return render(columns, column_arrays, *args, **kwargs)

        monkeypatch.setattr(cli, "render_profile", recording)
        config = merge_overrides(
            default_config(),
            {"slit_count": 40, "samples": 700, "output_format": output_format,
             "output_path": str(tmp_path / f"wide.{output_format}")},
        )
        text = run_geometry_dump(config).read_text()
        assert blocks == [per_block] * (700 // per_block) + [700 % per_block] * (700 % per_block > 0)
        if output_format == "csv":
            lines = text.splitlines()
            header, rows = lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]
        else:
            document = json.loads(text)
            header, rows = document["columns"], document["rows"]
        table = dict(zip(header, np.array(rows).T))
        assert len(header) == 821 and len(rows) == 700
        layout, grid = config.geometry(), config.theta_grid()
        assert np.array_equal(table["theta"], grid)
        angles = spinfringe.incidence_angles(layout, grid)
        for i in range(1, 41):
            assert np.array_equal(table[f"alpha_{i}"], angles[:, i - 1])
            for j in range(i + 1, 41):
                assert np.array_equal(table[f"phi_{i}_{j}"], spinfringe.pair_phase(layout, grid, i, j))

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_a_row_wider_than_a_block_is_rendered_as_one_row_blocks(self, tmp_path, monkeypatch, output_format):
        # N = 130 gives 1 + 130 + 8,385 = 8,516 columns, more than one block of _CHUNK_CELLS cells
        blocks, render = [], cli.render_profile
        assert 1 + 130 + 130 * 129 // 2 == 8516 > cli._CHUNK_CELLS

        def recording(columns, column_arrays, *args, **kwargs):
            blocks.append(len(column_arrays[0]))
            return render(columns, column_arrays, *args, **kwargs)

        monkeypatch.setattr(cli, "render_profile", recording)
        config = merge_overrides(
            default_config(),
            {"slit_count": 130, "separation": 2e-6, "samples": 3, "output_format": output_format,
             "output_path": str(tmp_path / f"wide.{output_format}")},
        )
        text = run_geometry_dump(config).read_text()
        assert blocks == [1, 1, 1]
        layout, grid = config.geometry(), config.theta_grid()
        first, second = (index + 1 for index in np.triu_indices(130, 1))
        table = np.column_stack([grid, spinfringe.incidence_angles(layout, grid),
                                 spinfringe.pair_phase(layout, grid, first, second)])
        if output_format == "csv":
            lines = text.splitlines()
            assert len(lines) == 4 and len(lines[0].split(",")) == 8516
            assert [line.split(",") for line in lines[1:]] == [["%.16e" % value for value in row] for row in table]
        else:
            document = json.loads(text)
            assert text == json.dumps(document, sort_keys=True, indent=2) + "\n"
            assert len(document["columns"]) == 8516 and document["rows"] == table.tolist()

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_peak_memory_grows_by_the_grid_not_the_pair_table(self, tmp_path, output_format):
        def config(samples):
            return merge_overrides(
                default_config(),
                {"slit_count": 60, "samples": samples, "output_format": output_format,
                 "output_path": str(tmp_path / f"geo.{output_format}")},
            )

        def traced_peak(samples):
            tracemalloc.start()
            try:
                run_geometry_dump(config(samples))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_geometry_dump(config(3))  # first calls allocate once-only state; keep it out of the trace
        # 60 slits give 1,831 columns, 4 rows a block; a whole table costs tens of KB per row
        per_row = (traced_peak(300) - traced_peak(150)) / 150
        assert per_row < 100

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_wide_dump_peak_memory_is_bounded_by_the_chunk(self, tmp_path, output_format):
        config = merge_overrides(
            default_config(),
            {"slit_count": 60, "samples": 300, "output_format": output_format,
             "output_path": str(tmp_path / f"geo.{output_format}")},
        )
        run_geometry_dump(config)  # first calls allocate once-only state; keep it out of the trace
        tracemalloc.start()
        try:
            run_geometry_dump(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1,831 columns: blocks of 2^18 cells held 19 MB (CSV) and 36 MB (JSON) of cells and text at once
        assert peak < 4e6


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(count=st.integers(0, 5000), width=st.integers(1, 2**20))
    def test_blocks_tile_the_rows_in_order_within_both_limits(self, count, width):
        blocks = _row_blocks(count, width)
        assert [index for rows in blocks for index in range(count)[rows]] == list(range(count))
        assert all(rows.step is None for rows in blocks)
        for rows in blocks:
            size = rows.stop - rows.start
            assert 1 <= size <= _BLOCK_ROWS
            assert size * width <= _BLOCK_CELLS or size == 1


#: Floats whose shortest repr has an exponent, a sign or all 17 digits.
_EDGE_VALUES = (-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.7976931348623157e308)
#: Pieces of string scalars that JSON escapes, a ``%`` template would read, or that spell the table's placeholder.
_JSON_HAZARDS = ('"', "\\", "%", "%r", "\n", "Infinity", '"samples": Infinity', '"rows": Infinity')


def _one_shot_text(columns, arrays, output_format, scalars):
    """The whole table rendered at once: ``%.16e`` CSV, or ``json.dumps`` of the document."""
    rows = list(zip(*(array.tolist() for array in arrays)))
    if output_format == "csv":
        row_format = ",".join(["%.16e"] * len(columns))
        return "\n".join([",".join(columns), *(row_format % row for row in rows)]) + "\n"
    if scalars:
        document = {**scalars, "samples": [dict(zip(columns, row)) for row in rows]}
    else:
        document = {"columns": columns, "rows": [list(row) for row in rows]}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


class TestStreamedTables:
    @settings(max_examples=40, deadline=None)
    @given(
        layout=st.sampled_from(["csv", "samples", "rows"]),
        blocks=st.sampled_from([0, 1, 2]),
        offset=st.sampled_from([-1, 0, 1]),
        columns=st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
            min_size=2, max_size=6, unique=True,
        ),
        drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
        scalar_keys=st.lists(st.sampled_from(["a", "i0", "max_abs_diff", "samplea", "samplez", "zeta"]),
                             min_size=1, max_size=3, unique=True),
        scalar_texts=st.lists(
            st.one_of(st.none(), st.text(), st.lists(st.sampled_from(_JSON_HAZARDS), max_size=4).map("".join)),
            min_size=3, max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_text_equals_the_one_shot_text(
        self, layout, blocks, offset, columns, drawn, scalar_keys, scalar_texts, seed
    ):
        # just below, at and just above one and two whole row blocks of the drawn width, or 2 rows
        rows = max(2, blocks * (cli._CHUNK_CELLS // len(columns)) + offset)
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((rows, len(columns))) * 10.0 ** rng.integers(-300, 300, (rows, len(columns)))
        planted = [*_EDGE_VALUES, *drawn][:table.size]
        table.flat[rng.choice(table.size, len(planted), replace=False)] = planted
        arrays = list(table.T)
        # a scalar is a number or a string; None draws a number
        scalars = {key: float(rng.standard_normal()) if text is None else text
                   for key, text in zip(scalar_keys, scalar_texts)} if layout == "samples" else {}
        output_format = "csv" if layout == "csv" else "json"
        with tempfile.TemporaryDirectory() as tmp:
            config = merge_overrides(
                default_config(),
                {"output_format": output_format, "output_path": os.path.join(tmp, "table." + output_format)},
            )
            written = _write_table(config, columns, arrays, **scalars).read_bytes()
        assert written == _one_shot_text(columns, arrays, output_format, scalars).encode("utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["simulate", "--sg-factor", "2", "--sg-axis-angle", "0.3"],
            ["compare", "--slit-count", "3", "--separation", "2e-6"],
            ["compare", "--slit-count", "3", "--separation", "2e-6", "--detection", "1,3"],
            ["geometry", "--slit-count", "40", "--separation", "1e-6", "--samples", "700"],  # several blocks
        ],
    )
    def test_command_json_is_json_dumps_of_its_document(self, tmp_path, argv):
        out = tmp_path / "out.json"
        assert main([*argv, "--output-format", "json", "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_failure_mid_stream_leaves_the_old_file(self, tmp_path, monkeypatch, capsys, output_format):
        out = tmp_path / f"profile.{output_format}"
        out.write_bytes(b"old bytes\n")
        render, calls = cli.render_profile, []

        def fail_on_second_block(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise OSError("device full")
            return render(*args, **kwargs)

        monkeypatch.setattr(cli, "render_profile", fail_on_second_block)
        samples = 2 * (cli._CHUNK_CELLS // 2) + 1  # three blocks of the two-column profile
        code = main(["simulate", "--samples", str(samples), "--output-format", output_format, "-o", str(out)])
        assert code == 3
        assert "device full" in capsys.readouterr().err
        assert len(calls) == 2
        assert out.read_bytes() == b"old bytes\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_non_finite_value_raises_and_writes_nothing(self, tmp_path, output_format):
        config = merge_overrides(
            default_config(),
            {"output_format": output_format, "output_path": str(tmp_path / f"table.{output_format}")},
        )
        block = cli._CHUNK_CELLS // 2  # rows of a two-column block
        column = np.linspace(0.0, 1.0, block + 500)
        column[block + 200] = np.nan  # in the second block, after the first was written
        with pytest.raises(ValueError, match="finite"):
            _write_table(config, ["theta", "intensity"], [np.linspace(-0.1, 0.1, block + 500), column], i0=1.0)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output_format", ["xml", "CSV", ""])
    def test_an_unknown_format_raises_and_writes_nothing(self, tmp_path, output_format):
        message = re.escape(f"must be one of ['csv', 'json'], got {output_format!r}")
        with pytest.raises(ValueError, match=message):
            cli.render_profile(["a"], [np.arange(3.0)], output_format)
        config = merge_overrides(
            default_config(), {"output_format": output_format, "output_path": str(tmp_path / "table.out")}
        )
        with pytest.raises(ValueError, match=message):
            _write_table(config, ["theta", "intensity"], [np.linspace(-0.1, 0.1, 5), np.ones(5)], i0=1.0)
        assert list(tmp_path.iterdir()) == []  # neither the path nor a *.tmp file

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_peak_memory_grows_by_the_arrays_not_the_text(self, tmp_path, output_format):
        def traced_peak(samples):
            config = merge_overrides(
                default_config(),
                {"samples": samples, "output_format": output_format,
                 "output_path": str(tmp_path / f"profile.{output_format}")},
            )
            run_simulate(config)  # first calls allocate once-only state; keep it out of the trace
            tracemalloc.start()
            try:
                run_simulate(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_row = (traced_peak(100_001) - traced_peak(20_001)) / 80_000
        assert per_row < 100

    @pytest.mark.parametrize("width", [2, 4])
    def test_a_block_text_chain_holds_at_most_two_copies_of_the_record(self, width):
        # a keyed JSON record is about twice its text; a third copy alive at once passes 6 times the text
        columns = [f"c{k}" for k in range(width)]
        arrays = list(np.random.default_rng(width).standard_normal((cli._CHUNK_CELLS // width, width)).T)
        cli.render_profile(columns, arrays, "json", i0=1.0)  # the first call builds the cached tables
        tracemalloc.start()
        try:
            text = cli.render_profile(columns, arrays, "json", i0=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * len(text)


def _csv_text(block):
    """A finite (rows, columns) block's CSV text, as ``render_profile`` writes it."""
    return cli.render_profile(["x"] * block.shape[1], [block], "csv")


def _csv_cells(values):
    """``_csv_text`` of the values as one row, split back into cells."""
    return _csv_text(np.array(values, dtype=float).reshape(1, -1)).split(",")


#: Powers of ten over the whole float range, each with its two neighbours.
_POWERS_OF_TEN = [
    neighbour
    for power in (float(f"1e{e}") for e in range(-323, 309))
    for neighbour in (np.nextafter(power, 0.0), power, np.nextafter(power, np.inf))
]


class TestColumnBlocks:
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("scalars", [{}, {"i0": 1.0}])
    def test_two_dimensional_blocks_render_as_their_columns(self, output_format, scalars):
        rng = np.random.default_rng(8)
        first, middle, last = rng.standard_normal(7), rng.standard_normal((7, 3)), rng.standard_normal((7, 2))
        columns = [f"c{k}" for k in range(6)]
        split = [first, *middle.T, *last.T]
        assert cli.render_profile(columns, [first, middle, last], output_format, **scalars) == cli.render_profile(
            columns, split, output_format, **scalars)


class TestCsvDigits:
    """CSV cells are ``_FMT`` text: the digit engine's fast path and fallback both give its bytes."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    def test_cells_are_percent_16e(self, values):
        assert _csv_cells(values) == ["%.16e" % value for value in values]

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
        1e-280, np.nextafter(1e-280, 0.0), 1e280, np.nextafter(1e280, 0.0), np.nextafter(1e280, np.inf),
        1.7976931348623157e308, 9.999999999999999e22, 9.9999999999999999e-5, 0.1, 1.0 / 3.0,
        0.5, 2.0**-60, 5.0 * 2.0**-55, 1.0 + 2.0**-52, 2.0**60 + 2.0**8,
    ])
    def test_edge_values(self, value):
        assert _csv_cells([value, -value]) == ["%.16e" % value, "%.16e" % -value]

    def test_powers_of_ten_and_their_neighbours(self):
        assert _csv_cells(_POWERS_OF_TEN) == ["%.16e" % value for value in _POWERS_OF_TEN]

    def test_exact_decimal_ties_round_half_even(self):
        # dyadic m * 2**-k whose exact expansion has 18 significant digits, the last a 5
        candidates = [m * 2.0**-k for k in range(1, 80) for m in range(1, 200, 2)]
        ties = [value for value in candidates if Decimal(value).as_tuple().digits[17:] == (5,)]
        last_kept = {int(("%.17e" % value)[17]) % 2 for value in ties}
        assert len(ties) > 50 and last_kept == {0, 1}  # ties toward both an even and an odd digit
        assert _csv_cells(ties) == ["%.16e" % value for value in ties]

    def test_a_million_random_bit_patterns(self):
        values = np.random.default_rng(20240811).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)][:999_000].reshape(-1, 4)
        expected = "\n".join(",".join(["%.16e"] * 4) % tuple(row) for row in values.tolist())
        assert _csv_text(values) == expected

    def test_fallback_catches_what_the_fast_path_cannot_prove(self):
        # powers of ten, a carry into the next power and out-of-range cells take the fallback
        values = np.array([1.0, 1e22, 9.999999999999999e22, 5e-324, 1e300, 0.1])
        assert cli._decimal_parts(values)[2].tolist() == [0, 1, 2, 3, 4]
        assert _csv_cells(values) == ["%.16e" % value for value in values]

    def test_an_empty_block_renders_as_no_text(self):
        assert cli.render_profile(["theta", "intensity"], [np.array([]), np.array([])], "csv") == ""

    def test_forced_fallback_writes_the_same_bytes(self, monkeypatch):
        # a margin of one half sends every nonzero cell to the fallback
        values = np.random.default_rng(3).standard_normal((50, 3)) * 10.0 ** np.arange(-2, 1)
        values[0, 0] = -0.0
        fast_text = _csv_text(values)
        monkeypatch.setattr(cli, "_TIE_MARGIN", 0.5)
        assert cli._decimal_parts(values.ravel())[2].size == values.size - 1
        assert _csv_text(values) == fast_text
        assert fast_text == "\n".join(",".join(["%.16e"] * 3) % tuple(row) for row in values.tolist())


def _json_numbers(values):
    """The values rendered as one JSON column of array rows, split back into numbers."""
    text = cli.render_profile(["x"], [np.array(values, dtype=float)], "json")
    return [line.strip() for line in text.split("\n") if line.startswith("      ")]


def _json_rows(values):
    """A (rows, columns) table as ``render_profile``'s JSON array rows, one block per ``_row_blocks`` slice."""
    columns = [f"c{k}" for k in range(values.shape[1])]
    blocks = _row_blocks(len(values), values.shape[1])
    return ",\n".join(cli.render_profile(columns, list(values[rows].T), "json") for rows in blocks)


def _repr_rows(values):
    """The same rows with every number ``%r``, as ``json.dumps`` writes them."""
    row = "    [\n" + ",\n".join(["      %r"] * values.shape[1]) + "\n    ]"
    return ",\n".join([row] * len(values)) % tuple(values.ravel().tolist())


#: Powers of two over the whole float range, each with its two neighbours.
_POWERS_OF_TWO = [
    neighbour
    for power in (2.0**e for e in range(-1074, 1024))
    for neighbour in (np.nextafter(power, 0.0), power, np.nextafter(power, np.inf))
    if np.isfinite(neighbour)
]


class TestJsonDigits:
    """JSON numbers are ``repr`` text: the shortest-digit engine's fast path and fallback both give its bytes."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    def test_numbers_are_repr(self, values):
        assert _json_numbers(values) == [repr(value) for value in values]

    @pytest.mark.parametrize("value", [
        0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
        1e15, np.nextafter(1e15, 0.0), np.nextafter(1e15, np.inf), 1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
        1.0, 12345.0, 12345.678, 2.0**53, 2.0**53 + 2.0, 1e100, 1.5e-200, 3e-250, 1e200, 0.1, 0.1 + 0.2, 1.0 / 3.0,
        2.0**-60, 1e-280, np.nextafter(1e280, 0.0), 9.999999999999999e22, 0.30000000000000004,
    ])
    def test_edge_values(self, value):
        value = float(value)
        assert _json_numbers([value, -value]) == [repr(value), repr(-value)]

    def test_powers_of_ten_and_two_and_their_neighbours(self):
        values = [float(value) for value in _POWERS_OF_TEN + _POWERS_OF_TWO]
        assert _json_numbers(values) == [repr(value) for value in values]

    def test_exact_sixteen_digit_ties(self):
        # dyadic m * 2**-k whose exact expansion has 17 significant digits, the last a 5
        candidates = [m * 2.0**-k for k in range(1, 80) for m in range(1, 400, 2)]
        ties = [value for value in candidates if len(Decimal(value).as_tuple().digits) == 17
                and Decimal(value).as_tuple().digits[-1] == 5]
        assert len(ties) > 20
        assert _json_numbers(ties) == [repr(value) for value in ties]

    def test_a_million_random_bit_patterns(self):
        values = np.random.default_rng(20240812).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)][:999_000].reshape(-1, 4)
        assert _json_rows(values) == _repr_rows(values)

    def test_forced_fallback_writes_the_same_bytes(self, monkeypatch):
        # a margin of one half sends every nonzero cell to the fallback
        values = np.random.default_rng(4).standard_normal((50, 3)) * 10.0 ** np.arange(-2, 1)
        values[0, 0] = -0.0
        fast_text = _json_rows(values)
        monkeypatch.setattr(cli, "_TIE_MARGIN", 0.5)
        assert cli._shortest_parts(values.ravel())[2].size == values.size - 1
        assert _json_rows(values) == fast_text
        assert fast_text == _repr_rows(values)

    def test_a_round_up_into_the_next_power_of_ten_reads_repr(self, monkeypatch):
        # a log10 a little low puts 1e24, which lies below 10**24, at E = 23 with D = 99999999999999998;
        # its shortest form rounds up to 10**17, that is, into the next exponent
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) * (1 - 2.0**-50))
        values = [1e24, 1e23, 1e25, 1e-5, 0.3, 123.0]
        assert 0 in cli._shortest_parts(np.array(values))[2]
        assert 0 not in cli._decimal_parts(np.array(values))[2]
        assert _json_numbers(values) == [repr(value) for value in values]

    def test_zeros_and_small_powers_of_two_stay_on_the_fast_path(self):
        # like compare's abs_diff column: zeros, small multiples of 2**-53 and powers of two
        values = np.concatenate([np.zeros(1000), np.arange(1, 2**14) * 2.0**-53, 2.0 ** -np.arange(40, 60)])
        assert cli._shortest_parts(values)[2].size == 0
        assert _json_numbers(values) == [repr(value) for value in values.tolist()]

    def test_an_empty_block_renders_as_no_text(self):
        assert cli.render_profile(["theta", "intensity"], [np.array([]), np.array([])], "json", i0=1.0) == ""
        assert cli.render_profile(["theta", "intensity"], [np.array([]), np.array([])], "json") == ""


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

    def test_an_output_command_leaves_the_check_battery_unimported(self, tmp_path, subprocess_env):
        # only `verify` needs spinfringe.verify, so start-up and the output commands skip compiling it
        out = tmp_path / "lazy.csv"
        child = (
            "import sys\n"
            "from spinfringe.cli import main\n"
            f"assert main(['simulate', '--samples', '3', '-o', {str(out)!r}]) == 0\n"
            "print('spinfringe.verify' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, cwd=tmp_path, env=subprocess_env
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.splitlines()[-1] == "False" and out.exists()

    @pytest.mark.parametrize(
        "umask,existing,expected",
        [(0o022, None, 0o644), (0o077, None, 0o600), (0o022, 0o640, 0o640), (0o077, 0o640, 0o640)],
        ids=["new-022", "new-077", "0640-022", "0640-077"],
    )
    def test_output_file_mode(self, tmp_path, subprocess_env, umask, existing, expected):
        # a new file gets the mode open(path, "w") gives, an overwritten one keeps its own;
        # the umask is never changed, and the temp file sits beside the output as *.tmp
        out = tmp_path / "profile.csv"
        if existing is not None:
            out.write_text("old\n")
            out.chmod(existing)
        child = (
            "import os, sys\n"
            f"os.umask({umask})\n"
            "def no_umask(mask): raise AssertionError('umask changed')\n"
            "os.umask = no_umask\n"
            "replace = os.replace\n"
            "def traced_replace(src, dst): print('temp', src); replace(src, dst)\n"
            "os.replace = traced_replace\n"
            "from spinfringe.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "simulate", "--samples", "3", "-o", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=subprocess_env,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        temp = Path(proc.stdout.splitlines()[0].removeprefix("temp "))
        assert temp.parent == out.parent and temp.name.startswith("profile.csv.") and temp.suffix == ".tmp"
        assert out.stat().st_mode & 0o7777 == expected
        assert sorted(tmp_path.iterdir()) == [out]

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--samples", "x"])
        assert excinfo.value.code == 2


class TestOneParser:
    def test_every_caller_gets_the_same_parser(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_an_sg_run_leaves_nothing_for_the_next_run(self, tmp_path, output_format):
        argv = ["simulate", "--samples", "11", "--output-format", output_format, "-o"]
        assert main([*argv, str(tmp_path / "before")]) == 0
        assert main(["simulate", "--sg-factor", "1", "--sg-axis-angle", "0.3", "--samples", "11",
                     "--output-format", output_format, "-o", str(tmp_path / "sg")]) == 0
        assert main([*argv, str(tmp_path / "after")]) == 0
        assert (tmp_path / "sg").read_bytes() != (tmp_path / "before").read_bytes()
        assert (tmp_path / "after").read_bytes() == (tmp_path / "before").read_bytes()

    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--samples", "x"])
        assert excinfo.value.code == 2
        assert main(["simulate", "--samples", "11", "-o", str(tmp_path / "ok.csv")]) == 0
        assert capsys.readouterr().out.startswith("wrote ")

    def test_the_output_commands_share_one_flag_set(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        options = [set(commands[name]._option_string_actions) for name in ("simulate", "compare", "geometry")]
        assert options[0] == options[1] == options[2]
        assert len(options[0]) == 20  # 17 config flags, -o beside --output, and -h, --help
        # every flag but --config and the two SG flags sets the config field of its dest
        dests = {action.dest for action in commands["simulate"]._actions} - {"help", "config"}
        assert dests - _FIELD_NAMES == {"sg_factor", "sg_axis_angle"}


def _flag(name, valid, invalid):
    """(valid, invalid) argv strategies of one flag from strategies of its value text."""
    return tuple(values.map(lambda value: [f"{name}={value}"]) for values in (valid, invalid))


def _float_text(low, high):
    return _finite(low, high).map(repr)


_BAD_NUMBERS = st.sampled_from(["0", "-1e-6", "nan", "inf", "-inf", "x", ""])

#: Every output-command flag, or a group drawn together (one layout form; an SG axis with its
#: factor): a strategy of valid argv pieces and one of invalid pieces.
_FLAGS = {
    "--wavelength": _flag("--wavelength", _float_text(1e-8, 1e-5), _BAD_NUMBERS),
    "--screen-distance": _flag("--screen-distance", _float_text(1e-3, 10.0), _BAD_NUMBERS),
    "--separation": _flag("--separation", _float_text(1e-7, 1e-5), _BAD_NUMBERS),
    "--theta-min": _flag("--theta-min", _float_text(-1.5, 0.0), st.sampled_from(["-2", "1.6", "nan", "-inf", "x"])),
    "--theta-max": _flag("--theta-max", _float_text(1e-3, 1.5), st.sampled_from(["2", "-1.6", "nan", "inf", "x"])),
    "--samples": _flag("--samples", st.integers(2, 64).map(str), st.sampled_from(["1", "0", "-5", "2.5", "x"])),
    "--phase-convention": _flag("--phase-convention", st.sampled_from(["half", "paper"]), st.just("full")),
    "--transmitted": _flag("--transmitted", st.sampled_from(["u", "v"]), st.just("w")),
    "--detection": _flag(
        "--detection",
        st.lists(st.integers(1, 2), max_size=2).map(lambda ks: ",".join(map(str, ks))),
        st.sampled_from(["0", "7", "-1", "1.5", "x"]),
    ),
    "--i0": _flag("--i0", _float_text(1e-3, 1e3), _BAD_NUMBERS),
    "--output-format": _flag("--output-format", st.sampled_from(["csv", "json"]), st.just("xml")),
    "layout": (
        st.one_of(
            st.integers(2, 6).map(lambda n: [f"--slit-count={n}"]),
            st.lists(_finite(-1e-4, 1e-4), min_size=2, max_size=6, unique=True).map(
                lambda positions: [f"--slit-positions={','.join(map(repr, sorted(positions)))}"]),
        ),
        st.sampled_from([["--slit-count=1"], ["--slit-count=2.5"], ["--slit-positions="],
                         ["--slit-positions=2e-6,1e-6"], ["--slit-positions=1e-6,x"],
                         ["--slit-count=3", "--slit-positions=-1e-6,1e-6"]]),
    ),
    "sg": (
        st.tuples(st.sampled_from(["1", "2"]), st.one_of(st.none(), _float_text(-10.0, 10.0))).map(
            lambda drawn: [f"--sg-factor={drawn[0]}"] + ([f"--sg-axis-angle={drawn[1]}"] if drawn[1] else [])),
        st.sampled_from([["--sg-factor=3"], ["--sg-factor=x"], ["--sg-axis-angle=0.3"],
                         ["--sg-factor=1", "--sg-axis-angle=nan"], ["--sg-factor=2", "--sg-axis-angle=inf"]]),
    ),
}


def _cells(n: int) -> int:
    """Columns of the geometry dump at n slits, the width the work budget counts."""
    return 1 + n + n * (n - 1) // 2


#: A slit count and sample count past MAX_CELLS (N >= 45, as fewer slits fit MAX_SAMPLES), or samples past MAX_SAMPLES.
_OVER_CAP = st.one_of(
    st.integers(45, MAX_SLITS).flatmap(
        lambda n: st.integers(MAX_CELLS // _cells(n) + 1, MAX_SAMPLES).map(
            lambda samples: [f"--slit-count={n}", f"--samples={samples}"])),
    st.integers(MAX_SAMPLES + 1, 10**12).map(lambda samples: [f"--samples={samples}"]),
)


@st.composite
def _output_argv(draw):
    """argv of an output command (without -o), whether it was drawn over a cap, and its --config choice.

    Each flag or flag group is absent, valid or (for at most two of them) invalid.
    """
    spoiled = draw(st.sets(st.sampled_from(sorted(_FLAGS)), max_size=2)) if draw(st.booleans()) else set()
    argv = [draw(st.sampled_from(["simulate", "compare", "geometry"]))]
    for name, (valid, invalid) in _FLAGS.items():
        if name in spoiled:
            argv += draw(invalid)
        elif draw(st.integers(0, 2)) == 0:
            argv += draw(valid)
    over_cap = draw(st.integers(0, 4)) == 0
    if over_cap:
        argv += draw(_OVER_CAP)
    return argv, over_cap, draw(st.sampled_from([None, None, "valid", "broken", "missing", "unknown-field"]))


def _read_table(path, output_format: str) -> dict:
    """The columns of a written table, by name."""
    text = path.read_text(encoding="utf-8")
    if output_format == "csv":
        header, *lines = text.splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines]
        return dict(zip(header.split(","), np.array(rows, ndmin=2).T))
    document = json.loads(text)
    if "columns" in document:
        return dict(zip(document["columns"], np.array(document["rows"], ndmin=2).T))
    rows = document["samples"]
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


_CONFIG_FILES = {
    "valid": '{"samples": 17, "i0": 2.5, "phase_convention": "paper"}',
    "broken": "{not json",
    "unknown-field": '{"wavelenght": 5e-7}',
}


class TestOneBuild:
    @pytest.mark.parametrize("command", ["simulate", "compare", "geometry"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_a_command_validates_and_builds_its_inputs_once_per_config(
        self, tmp_path, monkeypatch, command, from_file
    ):
        calls = {}

        def counting(name, method):
            def wrapper(config):
                calls[name] = calls.get(name, 0) + 1
                return method(config)
            return wrapper

        names = ("validate", "geometry", "theta_grid")
        for name in names:
            monkeypatch.setattr(SimulationConfig, name, counting(name, getattr(SimulationConfig, name)))
        argv = [command, "--sg-factor", "1"] if command == "simulate" else [command]
        if from_file:  # load_config validates the file before the flags apply, as README says
            argv.append(f"--config={write_config(tmp_path, samples=17)}")
        assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 0
        assert calls == dict.fromkeys(names, 2 if from_file else 1)


class TestCliProperty:
    """Any argv either writes a finite, reproducible table in [0, i0] or exits 2 naming what it rejects."""

    @settings(max_examples=150, deadline=None)
    @given(_output_argv())
    def test_every_run_succeeds_cleanly_or_exits_2_naming_its_input(self, drawn):
        argv, over_cap, config_file = drawn
        with tempfile.TemporaryDirectory() as tmp:
            if config_file is not None:
                path = os.path.join(tmp, "config.json")
                if config_file != "missing":
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(_CONFIG_FILES[config_file])
                argv = [argv[0], f"--config={path}", *argv[1:]]
            out = Path(tmp) / "out.table"
            argv = [*argv, f"--output={out}"]

            def run():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse usage error
                        code = exc.code
                return code, stderr.getvalue()

            theta_grid = SimulationConfig.theta_grid

            def grid_within_the_caps(config):  # a --config file's own config is within them and builds its grid
                n = config.slit_count if config.slit_positions is None else len(config.slit_positions)
                assert config.samples <= MAX_SAMPLES and config.samples * _cells(n) <= MAX_CELLS, "grid built"
                return theta_grid(config)

            no_grid = mock.patch.object(SimulationConfig, "theta_grid", grid_within_the_caps)
            with no_grid if over_cap else contextlib.nullcontext():
                code, err = run()
            if code == 2:
                # a config error names a field, or the unknown key of the file; a usage error its flag
                named = re.match(r"config error: (\w+):", err)
                usage = re.search(r"error: argument (--[\w-]+|-o/--output)", err)
                assert (named and named.group(1) in _FIELD_NAMES | {"config", "wavelenght"}
                        or usage and usage.group(1) in " ".join(argv)), err
                assert "Traceback" not in err
                assert not out.exists()
                return
            assert code == 0 and not over_cap, (code, err)
            config = _config_from_args(build_parser().parse_args(argv))
            first = out.read_bytes()
            table = _read_table(out, config.output_format)
            assert all(len(column) == config.samples and np.isfinite(column).all() for column in table.values())
            if "intensity" in table:  # not the compare oracle: unclipped, it may pass i0 by a few ulp
                assert np.all((table["intensity"] >= 0.0) & (table["intensity"] <= config.i0))
            assert run() == (0, "")
            assert out.read_bytes() == first
