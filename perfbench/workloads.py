"""Workload definitions: seeded CLI command lists and the inputs they read.

A workload is a list of ``spinfringe`` command lines run one after another.
The program sees only the generated argv and config files; every command
also carries the expectation (layout, grid, convention) that the
independent checker in ``check.py`` needs to validate its output.

The seed picks the wavelength of every workload and the slit positions of
``grating-irregular``.  Sizes are fixed per workload; ``tiny=True`` shrinks
them for the self-test only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import VERIFY_CHECKS

THETA_MIN = -0.3
THETA_MAX = 0.3
SCREEN_DISTANCE = 1.0
DEFAULT_SEPARATION = 2e-6  # the CLI's default two-slit layout

WHY = {
    "grating-even": (
        "64 evenly spaced slits: the O(N^2 S) pair loop in fringe.intensity_profile "
        "dominates, and 2,016 pairs share 137 baselines, which a baseline-grouping kernel exploits"
    ),
    "grating-irregular": (
        "64 seeded irregular slits via --config: the same kernel with no shared baselines, "
        "so a gain that relies on sharing must not show here; also exercises config.load_config"
    ),
    "two-slit-fine": (
        "2 slits at S=100,001: the kernel is negligible and time goes to CLI rendering and "
        "writing and the per-theta geometry and oracle loops"
    ),
    "state-algebra": (
        "verify plus the Stern-Gerlach simulate: the only workload where qstate and rotor "
        "do the work (scalar verify loops, per-sample measure_factor)"
    ),
}

#: Span names that must be called at least once per pass in a traced run.
MUST_CALL = {
    "grating-even": (
        "fringe.intensity_profile",
        "geometry.slit_phases",
        "oracle.classical_intensity",
    ),
    "grating-irregular": (
        "fringe.intensity_profile",
        "geometry.slit_phases",
        "oracle.classical_intensity",
        "config.load_config",
    ),
    "two-slit-fine": (
        "fringe.intensity_profile",
        "geometry.slit_phases",
        "geometry.incidence_angles",
        "oracle.classical_intensity",
        "cli.render_profile",
    ),
    "state-algebra": (
        "fringe.measure_factor",
        "fringe.ensemble_transmission",
        "fringe.two_slit_state_at",
        "fringe.intensity_profile",
        "qstate.decompose_uv",
        "qstate.TwoSpinState.from_vector",
        "rotor.apply_pair",
        "rotor.rotation_matrix",
        "oracle.classical_intensity",
        "oracle.pairwise_identity_check",
        "geometry.slit_phases",
    ) + tuple(f"verify.{name}" for name in VERIFY_CHECKS),
}

NAMES = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    kind: str  # simulate | compare | geometry | verify
    output: str | None = None  # file name relative to the output directory
    output_format: str = "csv"
    positions: tuple[float, ...] = ()
    wavelength: float = 0.0
    samples: int = 0
    convention: str = "half"
    sg_factor: int | None = None  # set for the Stern-Gerlach stage, whose reference ignores the axis
    i0: float = 1.0
    theta_min: float = THETA_MIN
    theta_max: float = THETA_MAX
    screen_distance: float = SCREEN_DISTANCE

    def as_dict(self) -> dict:
        return {"argv": list(self.argv), "kind": self.kind, "output": self.output}


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[Command]
    configs: dict[str, dict] = field(default_factory=dict)  # file name -> JSON document

    def properties(self) -> dict:
        """Sizes and layout statistics of the generated inputs."""
        layouts = [c for c in self.commands if c.positions]
        pos = np.asarray(layouts[0].positions)
        i, j = np.triu_indices(pos.size, 1)
        return {
            "workload": self.name,
            "seed": self.seed,
            "N": int(pos.size),
            "S": max(c.samples for c in layouts),
            "pairs": int(i.size),
            "distinct_baselines": int(np.unique(pos[j] - pos[i]).size),
            "commands": [list(c.argv) for c in self.commands],
            "why": WHY[self.name],
        }

    def write_configs(self, directory: Path) -> list[str]:
        """Write the config files into ``directory``; returns their paths."""
        paths = []
        for name, document in self.configs.items():
            path = directory / name
            path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
            paths.append(str(path))
        return paths


def evenly_spaced(count: int, separation: float) -> tuple[float, ...]:
    """Centred layout, positions (k - (count-1)/2) * separation as a user states it."""
    offset = 0.5 * (count - 1)
    return tuple((k - offset) * separation for k in range(count))


def irregular_positions(rng: np.random.Generator, count: int, half_width: float) -> tuple[float, ...]:
    """Sorted uniform positions in [-half_width, half_width], at least 50 nm apart."""
    while True:
        pos = np.sort(rng.uniform(-half_width, half_width, size=count))
        if np.min(np.diff(pos)) > 5e-8:
            return tuple(float(a) for a in pos)


def _wavelength(rng: np.random.Generator) -> float:
    # a short decimal so argv and the checker read the same float
    return float(f"{rng.uniform(450.0, 550.0):.3f}e-9")


def build(name: str, seed: int, config_dir: Path, tiny: bool = False) -> Workload:
    """Generate workload ``name`` for ``seed``; config paths point into ``config_dir``."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = np.random.default_rng(seed)
    lam = _wavelength(rng)
    grid = ("--theta-min", repr(THETA_MIN), "--theta-max", repr(THETA_MAX))
    if name == "grating-even":
        n, s = (8, 101) if tiny else (64, 20001)
        base = ("--slit-count", str(n), "--separation", repr(DEFAULT_SEPARATION),
                "--wavelength", repr(lam), "--samples", str(s)) + grid
        expect = dict(positions=evenly_spaced(n, DEFAULT_SEPARATION), wavelength=lam, samples=s)
        return Workload(name, seed, _grating_commands("even", base, expect))
    if name == "grating-irregular":
        n, s = (8, 101) if tiny else (64, 20001)
        positions = irregular_positions(rng, n, 64e-6)
        config_name = "grating-irregular.json"
        document = {
            "wavelength": lam,
            "screen_distance": SCREEN_DISTANCE,
            "slit_positions": list(positions),
            "theta_min": THETA_MIN,
            "theta_max": THETA_MAX,
            "samples": s,
        }
        base = ("--config", str(config_dir / config_name))
        expect = dict(positions=positions, wavelength=lam, samples=s)
        return Workload(name, seed, _grating_commands("irregular", base, expect),
                        {config_name: document})
    positions = evenly_spaced(2, DEFAULT_SEPARATION)
    if name == "two-slit-fine":
        s = 101 if tiny else 100001
        base = ("--wavelength", repr(lam), "--samples", str(s))
        expect = dict(positions=positions, wavelength=lam, samples=s)
        return Workload(name, seed, [
            Command(("simulate",) + base + ("-o", "fine.csv"), "simulate", "fine.csv", **expect),
            Command(("simulate",) + base + ("--output-format", "json", "-o", "fine.json"),
                    "simulate", "fine.json", output_format="json", **expect),
            Command(("compare",) + base + ("-o", "fine-compare.csv"), "compare",
                    "fine-compare.csv", **expect),
            Command(("geometry",) + base + ("-o", "fine-geometry.csv"), "geometry",
                    "fine-geometry.csv", **expect),
        ])
    s = 101 if tiny else 10001
    sg = ("--sg-factor", "1", "--sg-axis-angle", "0.3")
    return Workload(name, seed, [
        Command(("verify",), "verify"),
        Command(("simulate", "--wavelength", repr(lam), "--samples", str(s)) + sg + ("-o", "sg.csv"),
                "simulate", "sg.csv", positions=positions, wavelength=lam, samples=s,
                sg_factor=1),
    ])


def _grating_commands(tag: str, base: tuple[str, ...], expect: dict) -> list[Command]:
    return [
        Command(("simulate",) + base + ("--phase-convention", "half", "-o", f"{tag}-half.csv"),
                "simulate", f"{tag}-half.csv", **expect),
        Command(("simulate",) + base + ("--phase-convention", "paper", "-o", f"{tag}-paper.csv"),
                "simulate", f"{tag}-paper.csv", convention="paper", **expect),
        Command(("compare",) + base + ("-o", f"{tag}-compare.csv"), "compare",
                f"{tag}-compare.csv", **expect),
    ]
