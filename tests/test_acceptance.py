"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one line; run with ``pytest -s tests/test_acceptance.py``
to see the roll-up.  Expected values are computed by independent oracle code
inside each test (direct trigonometry, explicit projectors, density
matrices, the classical-wave identity), never by the routines under test.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import spinfringe.rotor
from spinfringe import (
    PairState,
    ScreenPoint,
    SlitGeometry,
    apply_pair,
    basis_u,
    basis_v,
    classical_intensity,
    decompose_uv,
    default_config,
    ensemble_transmission,
    intensity_profile,
    measure_factor,
    merge_overrides,
    multi_slit_intensity,
    pairwise_identity_check,
    transmission_probability,
    two_slit_state_at,
)
from spinfringe.cli import main, run_simulate
from spinfringe.verify import run_checks


def report(label: str, worst: float, tolerance: float) -> None:
    status = "pass" if worst <= tolerance else "FAIL"
    print(f"acceptance {status}: {label} (max error {worst:.3e}, tol {tolerance:.1e})")
    assert worst <= tolerance, f"{label}: {worst:.3e} > {tolerance:.1e}"


def test_c01_rotational_invariance_at_equal_angles():
    rng = np.random.default_rng(101)
    worst = 0.0
    for state in (basis_u(), basis_v()):
        reference = state.vector()
        for alpha in rng.uniform(-10, 10, size=10_000):
            moved = apply_pair((alpha, alpha), state).vector()
            worst = max(worst, float(np.max(np.abs(moved - reference))))
    report("equal-angle rotations fix u and v", worst, 1e-12)


def test_c02_uv_transformation_law():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        alpha, beta = rng.uniform(-10, 10, size=2)
        d = beta - alpha
        c_u, c_v, residual = decompose_uv(apply_pair((alpha, beta), basis_u()))
        worst = max(worst, abs(c_u - math.cos(d)), abs(c_v + math.sin(d)), residual)
        c_u, c_v, residual = decompose_uv(apply_pair((alpha, beta), basis_v()))
        worst = max(worst, abs(c_u - math.sin(d)), abs(c_v - math.cos(d)), residual)
    report("u/v transformation coordinates", worst, 1e-12)


def test_c03_single_sided_amplitudes_termwise():
    rng = np.random.default_rng(103)
    worst = 0.0
    root_half = math.sqrt(0.5)
    for alpha in rng.uniform(-10, 10, size=1000):
        moved = apply_pair((0.0, alpha), basis_u()).vector()
        expected = root_half * np.array(
            [math.cos(alpha), -math.sin(alpha), math.sin(alpha), math.cos(alpha)]
        )
        worst = max(worst, float(np.max(np.abs(moved - expected))))
    report("single-sided action amplitudes", worst, 1e-12)


def test_c04_pair_state_composition():
    rng = np.random.default_rng(104)
    u, v = basis_u().vector(), basis_v().vector()
    worst = 0.0
    for _ in range(10_000):
        alpha, beta, gamma = rng.uniform(-10, 10, size=3)
        psi_12 = spinfringe.TwoSpinState.from_vector(
            math.cos(beta - alpha) * u - math.sin(beta - alpha) * v
        )
        moved = spinfringe.compose_pair_state(psi_12, beta, gamma).vector()
        expected = math.cos(gamma - alpha) * u - math.sin(gamma - alpha) * v
        worst = max(worst, float(np.max(np.abs(moved - expected))))
    report("pair-state composition", worst, 1e-12)


def test_c05_two_slit_oracle_and_paper_maxima():
    layout = SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1.0)
    grid = np.linspace(-0.3, 0.3, 10_000)
    d, lam = 2e-6, 500e-9

    profile = intensity_profile(layout, grid, convention="half")
    phase = 2 * np.pi * d * np.sin(grid) / lam
    worst = float(np.max(np.abs(profile.intensities - np.cos(phase / 2) ** 2)))
    report("two-slit agreement with cos^2(phase/2) oracle", worst, 1e-9)

    step = float(grid[1] - grid[0])
    paper = intensity_profile(layout, grid, convention="paper").intensities
    peaks = [
        i
        for i in range(1, len(grid) - 1)
        if paper[i] >= paper[i - 1] and paper[i] >= paper[i + 1] and paper[i] > 0.5
    ]
    assert peaks, "no interior maxima detected"
    worst = 0.0
    for i in peaks:
        m = round(math.sin(grid[i]) * d / (lam / 2))
        worst = max(worst, abs(grid[i] - math.asin(m * lam / (2 * d))))
    report("paper-convention maxima at d sin(theta) = m lambda/2", worst, step)


def test_c06_pairwise_identity_and_multi_slit_oracle():
    rng = np.random.default_rng(106)
    worst = 0.0
    for n in range(2, 7):
        for _ in range(10_000):
            _, _, diff = pairwise_identity_check(rng.uniform(-20, 20, size=n))
            worst = max(worst, diff)
    report("pairwise identity N=2..6", worst, 1e-9)

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        positions = np.sort(rng.uniform(-5e-5, 5e-5, size=n)) + np.arange(n) * 2e-9
        layout = SlitGeometry(tuple(positions), rng.uniform(2e-7, 8e-7), rng.uniform(0.5, 2.0))
        theta = rng.uniform(-1.2, 1.2)
        model = multi_slit_intensity(layout, ScreenPoint(theta), "half")
        phases = [2 * math.pi * a * math.sin(theta) / layout.wavelength for a in positions]
        worst = max(worst, abs(model - classical_intensity(phases)))
    report("multi-slit intensity vs classical oracle", worst, 1e-9)


def test_c07_detection_kills_fringes():
    grid = np.linspace(-0.3, 0.3, 2001)
    worst = 0.0
    for n, detection in ((2, (1,)), (2, (2,)), (2, (1, 2)), (3, (1,)), (4, (2, 3))):
        layout = SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)
        profile = intensity_profile(layout, grid, detection=detection)
        worst = max(worst, float(profile.intensities.max() - profile.intensities.min()))
    report("which-way detection flattens the profile", worst, 1e-12)


def test_c08_measurement_ensembles_match_density_matrix():
    rng = np.random.default_rng(108)
    u = basis_u().vector()
    eye = np.eye(2, dtype=complex)
    worst = 0.0
    for phi in rng.uniform(-10, 10, size=1000):
        state = PairState.from_rotation(phi).as_state()
        ensemble = measure_factor(state, 1, 0.0)
        for weight, _ in ensemble.entries:
            worst = max(worst, abs(weight - 0.5))
        value = ensemble_transmission(ensemble, "u")
        worst = max(worst, abs(value - math.cos(phi) ** 2 / 2))
        # independent oracle: explicit projectors on the density matrix
        vec = state.vector()
        rho = np.outer(vec, vec.conj())
        rho_post = np.zeros_like(rho)
        for b in (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)):
            projector = np.kron(np.outer(b, b.conj()), eye)
            rho_post += projector @ rho @ projector
        worst = max(worst, abs(value - float(np.real(u.conj() @ rho_post @ u))))
    report("single-factor measurement vs density-matrix oracle", worst, 1e-12)


def test_c09_transmitted_absorbed_symmetry():
    grid = np.linspace(-0.3, 0.3, 2001)
    worst = 0.0
    for n in (2, 3):
        layout = SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)
        for convention in ("half", "paper"):
            u_side = intensity_profile(layout, grid, convention, "u").intensities
            v_side = intensity_profile(layout, grid, convention, "v").intensities
            worst = max(worst, float(np.max(np.abs(u_side + v_side - 1.0))))
    rng = np.random.default_rng(109)
    for phi in rng.uniform(-10, 10, size=1000):
        ps = PairState.from_rotation(phi)
        total = transmission_probability(ps, "u") + transmission_probability(ps, "v")
        worst = max(worst, abs(total - 1.0))
    report("transmitted + absorbed = 1 at every angle", worst, 1e-12)


def test_c10_cli_determinism_and_verify_gate(tmp_path, monkeypatch, capsys, subprocess_env):
    config = merge_overrides(
        default_config(), {"samples": 401, "output_path": str(tmp_path / "once.csv")}
    )
    first = run_simulate(config).read_bytes()
    second = run_simulate(config).read_bytes()
    assert first == second

    proc = subprocess.run(
        [sys.executable, "-m", "spinfringe", "verify"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all" in proc.stdout and "passed" in proc.stdout

    true_law = spinfringe.rotor.pair_on_u

    def skewed(alpha, beta):
        c_u, c_v = true_law(alpha, beta)
        return (c_u + 5e-12, c_v)

    monkeypatch.setattr(spinfringe.rotor, "pair_on_u", skewed)
    code = main(["verify"])
    assert code == 1
    monkeypatch.undo()
    results = run_checks(scale=0.02)
    assert all(r.passed for r in results)
    capsys.readouterr()
    print("acceptance pass: simulate reruns are byte-identical")
    print("acceptance pass: verify exits 0 on a correct build")
    print("acceptance pass: verify exits nonzero under an injected tolerance violation")
