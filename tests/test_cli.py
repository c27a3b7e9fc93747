"""Config validation, file emission contracts, determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinfringe
from spinfringe import ConfigError, SimulationConfig, SternGerlachStage, cli, default_config
from spinfringe.cli import (
    _config_from_args,
    _write_table,
    build_parser,
    main,
    run_compare,
    run_geometry_dump,
    run_simulate,
)
from spinfringe.config import MAX_SAMPLES, MAX_SLITS, config_from_dict, load_config, merge_overrides, resolve_output_path


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
            ({"sg_stage": {"factor": 1.5}}, "sg_stage"),
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

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["--detection", "1.7"], "detection"),
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

    def test_one_error_class(self):
        assert spinfringe.ConfigError is spinfringe.config.ConfigError is spinfringe.geometry.ConfigError
        assert issubclass(ConfigError, ValueError)


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
            "samples": st.integers(2, MAX_SAMPLES),
            "phase_convention": st.sampled_from(["half", "paper"]),
            "transmitted": st.sampled_from(["u", "v"]),
            "i0": _finite(1e-3, 1e3),
            "output_format": st.sampled_from(["csv", "json"]),
            "output_path": st.sampled_from(["out.csv", "sub/out.json", "/abs/path.csv"]),
        },
    )


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

        from_flags = _config_from_args(build_parser().parse_args(argv))
        from_file = config_from_dict(json.loads(json.dumps(document)))
        assert from_flags == from_file


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

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("transmitted", ["u", "v"])
    def test_sg_stage_in_row_blocks_matches_per_angle_reference(
        self, tmp_path, monkeypatch, factor, transmitted
    ):
        # 2,501 samples are two full 1,000-row blocks and a partial one
        rows = []
        stacked = spinfringe.cli.measure_factor

        def recording(state, *args):
            rows.append(np.shape(state)[0])
            return stacked(state, *args)

        monkeypatch.setattr(spinfringe.cli, "measure_factor", recording)
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
        assert rows == [1000, 1000, 501]

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

    def test_oracle_in_row_blocks_equals_one_table(self, tmp_path):
        positions = np.sort(np.random.default_rng(5).uniform(-6e-5, 6e-5, 64))
        config = merge_overrides(
            default_config(),
            {"slit_positions": positions.tolist(), "samples": 2001, "output_format": "json",
             "output_path": str(tmp_path / "grating.json")},
        )
        path, _ = run_compare(config)
        oracle = [row["oracle"] for row in json.loads(path.read_text())["samples"]]
        whole = spinfringe.classical_intensity(spinfringe.slit_phases(config.geometry(), config.theta_grid()))
        assert np.array_equal(oracle, config.i0 * whole)


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


#: Floats whose shortest repr has an exponent, a sign or all 17 digits.
_EDGE_VALUES = (-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.7976931348623157e308)


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
        rows=st.sampled_from([2, 999, 1000, 1001, 2001]),
        columns=st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
            min_size=2, max_size=6, unique=True,
        ),
        drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
        scalar_keys=st.lists(st.sampled_from(["a", "i0", "max_abs_diff", "samplea", "samplez", "zeta"]),
                             min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_text_equals_the_one_shot_text(self, layout, rows, columns, drawn, scalar_keys, seed):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((rows, len(columns))) * 10.0 ** rng.integers(-300, 300, (rows, len(columns)))
        planted = [*_EDGE_VALUES, *drawn][:table.size]
        table.flat[rng.choice(table.size, len(planted), replace=False)] = planted
        arrays = list(table.T)
        scalars = {key: float(rng.standard_normal()) for key in scalar_keys} if layout == "samples" else {}
        output_format = "csv" if layout == "csv" else "json"
        with tempfile.TemporaryDirectory() as tmp:
            config = merge_overrides(
                default_config(),
                {"output_format": output_format, "output_path": os.path.join(tmp, "table." + output_format)},
            )
            written = _write_table(config, columns, arrays, **scalars).read_bytes()
        assert written == _one_shot_text(columns, arrays, output_format, scalars).encode("utf-8")

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
        code = main(["simulate", "--samples", "2001", "--output-format", output_format, "-o", str(out)])
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
        column = np.linspace(0.0, 1.0, 1500)
        column[1200] = np.nan  # in the second block, after the first was written
        with pytest.raises(ValueError, match="finite"):
            _write_table(config, ["theta", "intensity"], [np.linspace(-0.1, 0.1, 1500), column], i0=1.0)
        assert list(tmp_path.iterdir()) == []

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
