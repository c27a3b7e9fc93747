"""Output checks that share no code with the model.

Every output file is parsed and compared with a vectorized numpy reference
written from the physics, not from ``spinfringe``:

* ``simulate``: the coherent sum |sum_k exp(i*2s*k*a_k)|^2 / N^2 with
  k = 2*pi*sin(theta)/lambda and s the convention scale (1/2 for "half",
  1 for "paper");
* the Stern-Gerlach stage: i0 * cos^2(s*phi) / 2 with phi the optical
  two-slit pair phase;
* ``geometry``: incidence angles and pair phases recomputed from the slit
  positions;
* ``compare``: both columns against the coherent sum, and the reported
  ``max_abs_diff`` at most 1e-9;
* ``verify``: exit 0 with 22 PASS lines.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

#: Oracle tolerance pinned by the project, scaled by i0 for intensities.
TOL = 1e-9
#: Allowed deviation of the written theta grid from the requested one (radians).
GRID_TOL = 1e-12
VERIFY_CHECKS = 22

_SCALE = {"half": 0.5, "paper": 1.0}
_PASS_LINE = re.compile(r"^PASS  \S")
_WROTE = re.compile(r"^wrote (.+) \((\d+) samples\)$")


def coherent_intensity(thetas: np.ndarray, positions, wavelength: float, convention: str) -> np.ndarray:
    """|sum_k exp(i * 2s * k * a_k)|^2 / N^2 on every theta."""
    pos = np.asarray(positions, dtype=float)
    k = 2.0 * np.pi * np.sin(thetas) / wavelength
    phasors = np.exp(1j * (2.0 * _SCALE[convention]) * k[:, None] * pos[None, :])
    return np.abs(phasors.sum(axis=1)) ** 2 / pos.size**2


def sg_intensity(thetas: np.ndarray, positions, wavelength: float, convention: str) -> np.ndarray:
    """cos^2(s * phi) / 2, phi = 2*pi*(a_2 - a_1)*sin(theta)/lambda."""
    phi = 2.0 * np.pi * (positions[1] - positions[0]) * np.sin(thetas) / wavelength
    return np.cos(_SCALE[convention] * phi) ** 2 / 2.0


def _read_csv(path: Path, header: list[str]) -> tuple[np.ndarray, list[str]]:
    problems = []
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n").split(",")
        if first != header:
            problems.append(f"{path.name}: header {first[:6]} does not match {header[:6]}")
            return np.empty((0, len(header))), problems
        table = np.loadtxt(handle, delimiter=",", ndmin=2)
    if table.shape[1] != len(header):
        problems.append(f"{path.name}: {table.shape[1]} columns, expected {len(header)}")
    return table, problems


def _check_grid(name: str, thetas: np.ndarray, command) -> list[str]:
    if thetas.size != command.samples:
        return [f"{name}: {thetas.size} samples, expected {command.samples}"]
    want = np.linspace(command.theta_min, command.theta_max, command.samples)
    err = float(np.max(np.abs(thetas - want)))
    return [f"{name}: theta grid off by {err:.3e}"] if err > GRID_TOL else []


def _check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite values"]
    err = np.abs(got - want)
    worst = np.unravel_index(np.argmax(err), err.shape)
    if err[worst] > tol:
        return [f"{name}: max error {err[worst]:.3e} > {tol:.1e} at row {worst[0]}"]
    return []


def model_reference(command, thetas: np.ndarray) -> np.ndarray:
    if command.sg_factor is None:
        values = coherent_intensity(thetas, command.positions, command.wavelength, command.convention)
    else:
        values = sg_intensity(thetas, command.positions, command.wavelength, command.convention)
    return command.i0 * values


def check_simulate(command, path: Path) -> list[str]:
    if command.output_format == "json":
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("i0") != command.i0:
            return [f"{path.name}: i0 {document.get('i0')!r}, expected {command.i0}"]
        samples = document["samples"]
        thetas = np.array([row["theta"] for row in samples], dtype=float)
        values = np.array([row["intensity"] for row in samples], dtype=float)
    else:
        table, problems = _read_csv(path, ["theta", "intensity"])
        if problems:
            return problems
        thetas, values = table[:, 0], table[:, 1]
    problems = _check_grid(path.name, thetas, command)
    if problems:
        return problems
    return _check_close(f"{path.name} intensity", values, model_reference(command, thetas),
                        TOL * command.i0)


def check_compare(command, path: Path, stdout: str) -> list[str]:
    table, problems = _read_csv(path, ["theta", "intensity", "oracle", "abs_diff"])
    if problems:
        return problems
    thetas, model, oracle, diff = table.T
    problems = _check_grid(path.name, thetas, command)
    if problems:
        return problems
    want = model_reference(command, thetas)
    tol = TOL * command.i0
    problems += _check_close(f"{path.name} intensity", model, want, tol)
    problems += _check_close(f"{path.name} oracle", oracle, want, tol)
    problems += _check_close(f"{path.name} abs_diff", diff, np.abs(model - oracle), 0.0)
    match = re.search(r"^max_abs_diff = (\S+)$", stdout, re.MULTILINE)
    if match is None:
        problems.append("compare: stdout has no max_abs_diff line")
    else:
        reported = float(match.group(1))
        if not reported <= TOL:
            problems.append(f"compare: max_abs_diff {reported:.3e} > {TOL:.0e}")
        if diff.size and reported != float(diff.max()):
            problems.append(f"compare: max_abs_diff {reported!r} is not the column maximum {diff.max()!r}")
    return problems


def check_geometry(command, path: Path) -> list[str]:
    pos = np.asarray(command.positions, dtype=float)
    n = pos.size
    i, j = np.triu_indices(n, 1)
    header = (["theta"] + [f"alpha_{k}" for k in range(1, n + 1)]
              + [f"phi_{a + 1}_{b + 1}" for a, b in zip(i, j)])
    table, problems = _read_csv(path, header)
    if problems:
        return problems
    thetas = table[:, 0]
    problems = _check_grid(path.name, thetas, command)
    if problems:
        return problems
    distance = command.screen_distance
    x = distance * np.tan(thetas)
    alphas = np.arctan((x[:, None] - pos[None, :]) / distance)
    phases = 2.0 * np.pi * np.sin(thetas)[:, None] * (pos[j] - pos[i])[None, :] / command.wavelength
    problems += _check_close(f"{path.name} alphas", table[:, 1:1 + n], alphas, TOL)
    problems += _check_close(f"{path.name} pair phases", table[:, 1 + n:], phases, TOL)
    return problems


def check_verify(code, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passed = sum(bool(_PASS_LINE.match(line)) for line in lines)
    problems = []
    if code != 0:
        problems.append(f"verify: exit code {code}")
    if passed != VERIFY_CHECKS:
        problems.append(f"verify: {passed} PASS lines, expected {VERIFY_CHECKS}")
    if f"all {VERIFY_CHECKS} checks passed" not in lines:
        problems.append("verify: no 'all checks passed' line")
    return problems


def check_command(command, code, stdout: str, output_dir: Path) -> list[str]:
    """Problems with one command's exit code, stdout and output file."""
    if command.kind == "verify":
        return check_verify(code, stdout)
    if code != 0:
        return [f"{command.kind}: exit code {code}"]
    match = _WROTE.match(stdout.splitlines()[0] if stdout else "")
    if match is None or int(match.group(2)) != command.samples:
        return [f"{command.kind}: unexpected stdout {stdout[:120]!r}"]
    path = output_dir / command.output
    if not path.is_file():
        return [f"{command.kind}: output {command.output} missing"]
    if command.kind == "simulate":
        return check_simulate(command, path)
    if command.kind == "compare":
        return check_compare(command, path, stdout)
    return check_geometry(command, path)
