"""Run configuration: a JSON document plus flag overrides, validated field by field.

All quantities are fixed SI units (meters, radians); no unit inference.  The
slit layout is given either as explicit ``slit_positions`` or as
``slit_count`` + ``separation`` (centered, evenly spaced) -- exactly one
form.  Flag overrides win over file values; overriding one slit form clears
the other.  Each field is converted once, by its entry in ``_CONVERTERS``:
number fields by ``geometry._number``, the one reader of a real number, which
the layout and ``i0`` checks share; list fields reject a bare string, string
fields reject non-strings, and ``sg_stage`` takes a mapping of ``factor`` and
``axis_angle`` that updates the current stage.  A None value leaves any field
as it is.  A rule the model already enforces is checked by calling the
model's check, among them the theta-grid and SG-stage rules.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fringe
from .fringe import SternGerlachStage
from .geometry import (ConfigError, SlitGeometry, _as_field, _check_positive, _checked_thetas, _exact_int, _number,
                       _slit_indices)

#: Environment variable that redirects relative output paths to a directory.
OUTPUT_DIR_ENV = "SPINFRINGE_OUTPUT_DIR"

OUTPUT_FORMATS = ("csv", "json")

#: Largest accepted ``samples``: ten times the largest grid the benchmark runs.
MAX_SAMPLES = 1_000_000

#: Largest accepted slit count in either layout form, about 15x the benchmark's
#: 64; checked before the layout is built, as the pair rule is O(N^2).
MAX_SLITS = 1_000

#: Largest accepted S x (1 + N + N(N-1)/2): the cells of the widest table any
#: command builds, the ``geometry`` dump's.  It also bounds the kernel's
#: S x (distinct baselines) and the oracle's S x N, so one cap covers every
#: command; 1,000 slits still fit at the default 1,001 samples (5.01e8 cells).
MAX_CELLS = 10**9

#: Largest accepted a-priori phase error eps * max|k| * (a_N - a_1) of the pair phases k*(a_j - a_i): past
#: it the model's own cosine arguments lose the 1e-9 to which the model is checked against the oracle.
MAX_PHASE_ERROR = 1e-9


@dataclass(frozen=True)
class SimulationConfig:
    wavelength: float = 500e-9
    screen_distance: float = 1.0
    slit_positions: tuple[float, ...] | None = None
    slit_count: int | None = 2
    separation: float | None = 2e-6
    theta_min: float = -0.3
    theta_max: float = 0.3
    samples: int = 1001
    phase_convention: str = "half"
    transmitted: str = "u"
    detection: tuple[int, ...] = ()
    sg_stage: SternGerlachStage | None = None
    i0: float = 1.0
    output_format: str = "csv"
    output_path: str = "fringe.csv"

    def validate(self) -> tuple[SlitGeometry, np.ndarray]:
        """The checked ``(layout, grid)`` a command computes on; raise ConfigError naming the offending field.

        Only the rules that belong to the config itself are written here.
        The layout, angle, grid, convention, choice, detection and SG-stage
        rules are the model's own checks, run on the config's values: the
        grid is ``_theta_grid`` on ``theta_grid()``, and the SG stage runs
        ``intensity_profile`` at theta = 0 with its ``stage`` and the
        config's detection, which that stage may not be combined with.
        """
        if self.slit_positions is not None:
            _require(self.slit_count is None and self.separation is None, "slit_positions",
                     "give either slit_positions or slit_count+separation, not both")
            count, field, span_field = len(self.slit_positions), "slit_positions", "slit_positions"
        else:
            _require(self.slit_count is not None and self.separation is not None,
                     "slit_count", "slit_count and separation must be given together")
            count, field, span_field = _as_field("slit_count", _exact_int, self.slit_count), "slit_count", "separation"
        _require(count <= MAX_SLITS, field, f"at most {MAX_SLITS} slits, got {count}")
        layout = self.geometry()
        n = layout.n_slits

        _as_field("theta_min", _checked_thetas, self.theta_min)
        _as_field("theta_max", _checked_thetas, self.theta_max)
        _require(self.theta_min < self.theta_max,
                 "theta_max", f"must exceed theta_min, got [{self.theta_min}, {self.theta_max}]")
        _require(isinstance(self.samples, int) and 2 <= self.samples <= MAX_SAMPLES,
                 "samples", f"must be an integer in [2, {MAX_SAMPLES}], got {self.samples}")
        cells = self.samples * (1 + n + n * (n - 1) // 2)
        _require(cells <= MAX_CELLS, "samples",
                 f"{self.samples} samples at {n} slits make {cells} table cells, over {MAX_CELLS}")
        grid = _as_field("samples", fringe._theta_grid, self.theta_grid())
        _as_field("phase_convention", fringe._rotation_scale, self.phase_convention)
        # the largest numbers the model forms: k, then the pair phases k*(a_j - a_i), whose rounding is
        # bounded by eps*|k|*(a_N - a_1) whatever the offset; under the bound the rotation angles are finite
        theta = max(abs(self.theta_min), abs(self.theta_max))
        k_max = 2.0 * math.pi * math.sin(theta) / self.wavelength
        _require(math.isfinite(k_max), "wavelength", f"k = 2*pi*sin(theta)/wavelength overflows: {k_max}")
        error = sys.float_info.epsilon * k_max * (layout.slit_positions[-1] - layout.slit_positions[0])
        _require(error <= MAX_PHASE_ERROR, span_field,
                 f"pair phase error bound eps*k*(a_N - a_1) is {error:.3g} at k = {k_max:g}, over {MAX_PHASE_ERROR:g}")
        span = 2.0 * max(map(abs, layout.slit_positions))
        # 2*(L*tan(theta) + max|a_k|)/L bounds every (x - a_k)/L, with room for ulps of np.tan
        reach = (2.0 * self.screen_distance * math.tan(theta) + span) / self.screen_distance
        _require(math.isfinite(reach), "screen_distance", f"screen offsets (x - a_k)/L overflow: {reach}")
        _as_field("transmitted", fringe._check_choice, self.transmitted)
        _as_field("detection", lambda d: len(d) and _slit_indices(d, n, "detection"), self.detection)  # a sequence

        if self.sg_stage is not None:
            _as_field("sg_stage", fringe.intensity_profile, layout, [0.0], "half", "u", self.detection, 1.0,
                      self.sg_stage)

        _check_positive("i0", self.i0)
        _require(self.output_format in OUTPUT_FORMATS,
                 "output_format", f"must be one of {list(OUTPUT_FORMATS)}, got {self.output_format!r}")
        _require(isinstance(self.output_path, str) and self.output_path != "",
                 "output_path", "must be a non-empty path")
        return layout, grid

    def geometry(self) -> SlitGeometry:
        if self.slit_positions is not None:
            return SlitGeometry(self.slit_positions, self.wavelength, self.screen_distance)
        return SlitGeometry.evenly_spaced(
            self.slit_count, self.separation, self.wavelength, self.screen_distance
        )

    def theta_grid(self) -> np.ndarray:
        """The screen-angle grid of ``samples`` evenly spaced angles; ``validate()`` checks and returns it."""
        return np.linspace(self.theta_min, self.theta_max, self.samples)


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(field, message)


def default_config() -> SimulationConfig:
    """Two slits 2 um apart, 500 nm wavelength, 1 m screen, 1001 samples, half convention."""
    return SimulationConfig()


_FIELD_NAMES = {f.name for f in fields(SimulationConfig)}


def config_from_dict(data: dict, source: str = "the document") -> SimulationConfig:
    """Build a validated config from a parsed JSON document; ``source`` names it in errors."""
    if not isinstance(data, dict):
        raise ConfigError("config", f"{source} must hold a JSON object, got {type(data).__name__}")
    merged = merge_overrides(default_config(), data)
    merged.validate()
    return merged


def load_config(path: str | Path) -> SimulationConfig:
    """Load and validate a JSON config file."""
    try:  # a ValueError: not UTF-8, not JSON, or an integer past int's digit limit
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError("config", f"cannot read {path} as JSON: {exc}") from exc
    return config_from_dict(data, source=str(path))


def _text(value) -> str:
    """A string as given; any other value raises TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _sg_stage(value) -> SternGerlachStage:
    """A stage as given, or one from a mapping of ``factor`` and an optional ``axis_angle`` (default 0)."""
    if isinstance(value, SternGerlachStage):
        return value
    if not isinstance(value, dict) or "factor" not in value or value.keys() - {"factor", "axis_angle"}:
        raise TypeError("not an object of a factor and an optional axis_angle")
    return SternGerlachStage(_exact_int(value["factor"]), _number(value.get("axis_angle", 0.0)))


#: The one conversion of each field from a JSON value or a parsed flag; a list field
#: takes a bare string as one item, which its item conversion rejects, not as characters.
_CONVERTERS = {
    **dict.fromkeys(("wavelength", "screen_distance", "separation", "theta_min", "theta_max", "i0"), _number),
    **dict.fromkeys(("phase_convention", "transmitted", "output_format", "output_path"), _text),
    **dict.fromkeys(("slit_count", "samples"), _exact_int),
    "slit_positions": lambda values: tuple(map(_number, [values] if isinstance(values, str) else values)),
    "detection": lambda values: tuple(map(_exact_int, [values] if isinstance(values, str) else values)),
    "sg_stage": _sg_stage,
}


def merge_overrides(config: SimulationConfig, overrides: dict) -> SimulationConfig:
    """Apply a partial field dict on top of a config; later values win.

    Each value goes through its field's entry in ``_CONVERTERS``; a value it
    cannot convert raises ConfigError naming the field.  A None value leaves
    the field as it is, ``sg_stage`` too.  Setting ``slit_positions`` clears
    the count form and vice versa, so a flag can switch layout form without
    editing the file.  ``sg_stage`` takes a SternGerlachStage or a mapping of
    ``factor`` and ``axis_angle``, which updates the existing stage's fields.
    """
    updates: dict = {}
    for name, value in overrides.items():
        if name not in _FIELD_NAMES:
            raise ConfigError(name, "unknown field")
        if name == "sg_stage" and isinstance(value, dict) and config.sg_stage is not None:
            value = {**vars(config.sg_stage), **value}
        if value is not None:
            try:
                updates[name] = _CONVERTERS[name](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(name, f"cannot convert {value!r}: {exc}") from None
    if "slit_positions" in updates:
        updates = {"slit_count": None, "separation": None, **updates}
    elif updates.keys() & {"slit_count", "separation"}:
        updates = {"slit_positions": None, **updates}
    return replace(config, **updates)


def resolve_output_path(config: SimulationConfig) -> Path:
    """Final output location, honoring the output-directory environment override.

    Relative paths resolve against ``$SPINFRINGE_OUTPUT_DIR`` when it is set
    (the current directory otherwise); absolute paths are used as given.
    """
    path = Path(config.output_path)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    return path
