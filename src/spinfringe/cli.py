"""Command-line interface: simulate fringe profiles, verify laws, compare with the oracle.

Subcommands
-----------
simulate   compute a fringe profile and write it as CSV or JSON
verify     run the self-check battery; exit 0 iff every law holds
compare    write per-angle model vs classical-oracle intensities
geometry   dump per-angle incidence angles and pair phases

Exit codes: 0 success, 1 verification failure, 2 config error, 3 I/O error.
Output files are written atomically (temp file + rename) and identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .config import (
    _FIELD_NAMES,
    ConfigError,
    SimulationConfig,
    default_config,
    load_config,
    merge_overrides,
    resolve_output_path,
)
from .fringe import (
    _BLOCK_ROWS,
    FringeProfile,
    ensemble_transmission,
    intensity_profile,
    measure_factor,
    two_slit_state_at,
)
from .geometry import incidence_angles, pair_phase, slit_phases
from .oracle import classical_intensity, independent_intensity


#: Fixed 17-significant-digit decimal form; deterministic and lossless.
_FMT = "%.16e"
#: What joins consecutive rows of a table, and so consecutive row blocks, per output format.
_ROW_SEPARATOR = {"csv": "\n", "json": ",\n"}


def compute_profile(config: SimulationConfig) -> FringeProfile:
    """Fringe profile for a validated config, including the optional SG stage."""
    layout = config.geometry()
    grid = config.theta_grid()
    if config.sg_stage is None:
        return intensity_profile(
            layout,
            grid,
            convention=config.phase_convention,
            choice=config.transmitted,
            detection=config.detection,
            i0=config.i0,
        )
    stage = config.sg_stage
    values = np.empty(grid.shape)
    for start in range(0, grid.size, _BLOCK_ROWS):  # row blocks bound the stacked temporaries
        part = grid[start:start + _BLOCK_ROWS]
        states = two_slit_state_at(layout, part, config.phase_convention).as_state()
        ensemble = measure_factor(states, stage.factor, stage.axis_angle)
        values[start:start + _BLOCK_ROWS] = ensemble_transmission(ensemble, config.transmitted)
    return FringeProfile(grid, np.clip(config.i0 * values, 0.0, config.i0), config.i0)


def render_profile(columns, column_arrays, output_format: str, **scalars) -> str:
    """Render one row block of equal-length 1-D float columns as output-file text.

    Rows are joined by ``_ROW_SEPARATOR[output_format]``, with none before the
    first or after the last, so consecutive blocks join by it too.  A CSV row
    is one line, every number in ``_FMT``.  A JSON row is indented as
    ``json.dumps(document, sort_keys=True, indent=2)`` places it: with
    ``scalars``, an object keyed by column name (the ``samples`` of the
    document); without, an array (the ``rows`` of ``{"columns", "rows"}``).
    JSON numbers are ``%r``, the ``float.__repr__`` that ``json`` writes, so
    the text is byte-identical to ``json.dumps``.  A non-finite value, which
    ``json`` would spell otherwise, raises ``ValueError`` in either format.
    """
    if output_format == "csv":
        record = ",".join([_FMT] * len(columns))
    elif scalars:
        order = sorted(range(len(columns)), key=columns.__getitem__)
        fields = ",\n".join(f"      {json.dumps(columns[k]).replace('%', '%%')}: %r" for k in order)
        record = f"    {{\n{fields}\n    }}"
        column_arrays = [column_arrays[k] for k in order]
    else:
        record = "    [\n" + ",\n".join(["      %r"] * len(columns)) + "\n    ]"
    block = np.column_stack(column_arrays)
    if not np.isfinite(block).all():
        raise ValueError("output tables hold finite numbers only")
    return _ROW_SEPARATOR[output_format].join([record] * len(block)) % tuple(block.ravel().tolist())


def _frame(columns, output_format: str, scalars: dict) -> tuple[str, str]:
    """The text before and after a table's rows: the CSV header, or the JSON opening and closing.

    JSON ``scalars`` are numbers or strings; those whose keys sort before the
    table's key (``samples``, or ``rows`` beside ``columns``) open the
    document, the rest close it, as ``json.dumps(sort_keys=True)`` orders them.
    """
    if output_format == "csv":
        return ",".join(columns) + "\n", "\n"
    if scalars:
        table_key, fields = "samples", {key: json.dumps(value) for key, value in scalars.items()}
    else:
        names = ",\n".join(f"    {json.dumps(name)}" for name in columns)
        table_key, fields = "rows", {"columns": f"[\n{names}\n  ]"}
    fields = sorted(fields.items())
    head = "".join(f"  {json.dumps(key)}: {text},\n" for key, text in fields if key < table_key)
    tail = "".join(f",\n  {json.dumps(key)}: {text}" for key, text in fields if key > table_key)
    return f'{{\n{head}  "{table_key}": [\n', f"\n  ]{tail}\n}}\n"


def _write_table(config: SimulationConfig, columns, column_arrays, **scalars) -> Path:
    """Write a table in the config's output format atomically (temp file + rename).

    The head, one ``render_profile`` chunk per block of ``_BLOCK_ROWS`` rows,
    and the tail are written into the temp file in turn, so the whole text is
    never held at once.  Any failure removes the temp file and leaves a file
    already at the path as it was.
    """
    head, tail = _frame(columns, config.output_format, scalars)
    path = resolve_output_path(config)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(head)
            for start in range(0, len(column_arrays[0]), _BLOCK_ROWS):
                if start:
                    handle.write(_ROW_SEPARATOR[config.output_format])
                block = [column[start:start + _BLOCK_ROWS] for column in column_arrays]
                handle.write(render_profile(columns, block, config.output_format, **scalars))
            handle.write(tail)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def run_simulate(config: SimulationConfig) -> Path:
    """Compute and atomically write the profile; returns the output path."""
    config.validate()
    profile = compute_profile(config)
    table = [profile.thetas, profile.intensities]
    return _write_table(config, ["theta", "intensity"], table, i0=profile.i0)


def run_compare(config: SimulationConfig) -> tuple[Path, float]:
    """Write the per-angle model/oracle table; returns (path, max abs difference)."""
    config.validate()
    profile = compute_profile(config)
    oracle = independent_intensity if config.detection else classical_intensity
    layout, thetas = config.geometry(), profile.thetas
    # row blocks: no (S, N) phase table; the oracle reduces each row on its own
    blocks = [oracle(slit_phases(layout, thetas[start:start + _BLOCK_ROWS]))
              for start in range(0, thetas.size, _BLOCK_ROWS)]
    reference = config.i0 * np.concatenate(blocks)
    diffs = np.abs(profile.intensities - reference)
    max_abs_diff = float(diffs.max())
    header = ["theta", "intensity", "oracle", "abs_diff"]
    table = [profile.thetas, profile.intensities, reference, diffs]
    return _write_table(config, header, table, max_abs_diff=max_abs_diff), max_abs_diff


def run_geometry_dump(config: SimulationConfig) -> Path:
    """Write per-angle incidence angles alpha_i and pair phases phi_i_j."""
    config.validate()
    layout = config.geometry()
    grid = config.theta_grid()
    n = layout.n_slits
    first, second = (index + 1 for index in np.triu_indices(n, 1))
    header = ["theta"] + [f"alpha_{i}" for i in range(1, n + 1)]
    header += [f"phi_{i}_{j}" for i, j in zip(first, second)]
    table = [grid, *incidence_angles(layout, grid).T, *pair_phase(layout, grid, first, second).T]
    return _write_table(config, header, table)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--wavelength", type=float, help="wavelength in meters")
    parser.add_argument("--screen-distance", type=float, help="aperture-to-screen distance in meters")
    parser.add_argument(
        "--slit-positions",
        type=_float_list,
        metavar="A1,A2,...",
        help="comma-separated transverse slit positions in meters",
    )
    parser.add_argument("--slit-count", type=int, help="number of evenly spaced slits")
    parser.add_argument("--separation", type=float, help="center-to-center slit separation in meters")
    parser.add_argument("--theta-min", type=float, help="lower screen angle in radians")
    parser.add_argument("--theta-max", type=float, help="upper screen angle in radians")
    parser.add_argument("--samples", type=int, help="number of grid points (>= 2)")
    parser.add_argument("--phase-convention", choices=["paper", "half"], help="fringe phase convention")
    parser.add_argument("--transmitted", choices=["u", "v"], help="which invariant state reaches the screen")
    parser.add_argument(
        "--detection",
        type=_float_list,
        metavar="I,J,...",
        help="comma-separated which-way detector slit indices ('' for none)",
    )
    parser.add_argument("--sg-factor", type=int, choices=[1, 2], help="tensor factor measured by the SG stage")
    parser.add_argument("--sg-axis-angle", type=float, help="SG stage measurement axis in radians")
    parser.add_argument("--i0", type=float, help="intensity scale")
    parser.add_argument("--output-format", choices=["csv", "json"], help="output file format")
    parser.add_argument("-o", "--output", dest="output_path", metavar="PATH", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfringe",
        description="Spin-pair correlation model of multi-slit interference.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("simulate", "compute a fringe profile and write it to a file"),
        ("compare", "tabulate model vs classical-oracle intensities"),
        ("geometry", "dump incidence angles and pair phases over the grid"),
    ):
        sub = commands.add_parser(name, help=doc)
        _add_config_arguments(sub)
    commands.add_parser("verify", help="run the self-check battery")
    # no option starts "-" then a digit, so such a token (-1e-6, -.5,1) is a value
    for each in (parser, *commands.choices.values()):
        each._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _float_list(text: str) -> tuple[float, ...]:
    """A comma-separated flag value as numbers; blank entries are skipped."""
    return tuple(float(piece) for piece in text.split(",") if piece.strip() != "")


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The config fields given as flags; every flag's ``dest`` is its field name."""
    overrides = {name: value for name, value in vars(args).items() if name in _FIELD_NAMES}
    stage = {"factor": args.sg_factor, "axis_angle": args.sg_axis_angle}
    stage = {key: value for key, value in stage.items() if value is not None}
    if stage:
        overrides["sg_stage"] = stage
    return overrides


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    config = load_config(args.config) if args.config else default_config()
    config = merge_overrides(config, _overrides_from_args(args))
    config.validate()
    return config


def run_verify(stream=None) -> int:
    """Print the law-check report; return 0 iff every check passed."""
    stream = stream if stream is not None else sys.stdout
    results = verify_mod.run_checks()
    print(verify_mod.format_report(results), file=stream)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify()
        config = _config_from_args(args)
        if args.command == "simulate":
            path = run_simulate(config)
            print(f"wrote {path} ({config.samples} samples)")
        elif args.command == "compare":
            path, max_abs_diff = run_compare(config)
            print(f"wrote {path} ({config.samples} samples)")
            print(f"max_abs_diff = {_FMT % max_abs_diff}")
        elif args.command == "geometry":
            path = run_geometry_dump(config)
            print(f"wrote {path} ({config.samples} samples)")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
