"""Self-check battery: every algebraic and geometric law the library relies on.

Each check exercises one law over seeded random samples and reports the
maximum observed error against its tolerance.  The battery is deterministic,
so a fresh build either passes everywhere or a real defect is present.
Checks call into the library through module attributes, which keeps them
honest under fault-injection (replace an operation and the battery fails).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fringe, geometry, oracle, qstate, rotor
from .fringe import _BLOCK_ROWS, _row_blocks  # _BLOCK_ROWS: the checks' block size, bound here too

DEFAULT_SEED = 20240811


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def _count(n: int, scale: float) -> int:
    return max(10, int(round(n * scale)))


def _block_sizes(n: int, scale: float) -> list[int]:
    return [rows.stop - rows.start for rows in _row_blocks(_count(n, scale))]


def _worst(*errors) -> float:
    """Largest absolute entry of the given error arrays."""
    return max(float(np.max(np.abs(e))) for e in errors)


def _uv_states(c_u, c_v) -> np.ndarray:
    """Amplitude rows c_u * u + c_v * v, one per entry of the coordinate arrays."""
    u, v = qstate.basis_u().vector(), qstate.basis_v().vector()
    return np.multiply.outer(c_u, u) + np.multiply.outer(c_v, v)


def _index_tuples(n: int, size: int) -> np.ndarray:
    """Every increasing tuple of ``size`` 1-based slit indices out of n, as ``size`` index rows."""
    return np.array(list(itertools.combinations(range(1, n + 1), size)), dtype=int).reshape(-1, size).T


def _random_geometry(rng) -> tuple[geometry.SlitGeometry, geometry.ScreenPoint]:
    n = int(rng.integers(2, 7))
    positions = np.sort(rng.uniform(-5e-5, 5e-5, size=n))
    spacings = np.diff(positions)
    if np.any(spacings <= 1e-9):
        positions = positions + np.arange(n) * 2e-9
    layout = geometry.SlitGeometry(tuple(positions), rng.uniform(2e-7, 8e-7), rng.uniform(0.5, 2.0))
    return layout, geometry.ScreenPoint(rng.uniform(-1.2, 1.2))  # the angle is drawn after the layout


def _random_layout_stacks(rng, count: int) -> list[tuple[np.ndarray, list, np.ndarray]]:
    """``count`` draws of ``_random_geometry`` as one (rows, layouts, thetas) stack per slit count."""
    layouts, points = zip(*(_random_geometry(rng) for _ in range(count)))
    return geometry._by_slit_count(layouts, [point.theta for point in points])


def check_basis_orthonormality() -> CheckResult:
    u, v = qstate.basis_u(), qstate.basis_v()
    err = max(
        abs(qstate.inner(u, u) - 1.0),
        abs(qstate.inner(v, v) - 1.0),
        abs(qstate.inner(u, v)),
    )
    return CheckResult("u/v orthonormality", err, 1e-12)


def check_tensor_norm_product(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(1000, scale):
        parts = rng.normal(size=(rows, 2, 4))
        a, b = np.split(parts[:, 0] + 1j * parts[:, 1], 2, axis=-1)  # |z| via hypot, as abs() of a complex
        norm2 = [np.sum(np.hypot(s.real, s.imag) ** 2, axis=-1) for s in (qstate.tensor(a, b), a, b)]
        err = max(err, _worst(norm2[0] - norm2[1] * norm2[2]))
    return CheckResult("tensor norm product", err, 1e-12)


def check_uv_reconstruction(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(1000, scale):
        parts = rng.normal(size=(rows, 2, 4))
        states = parts[:, 0] + 1j * parts[:, 1]
        c_u, c_v, residual = qstate.decompose_uv(states)
        remainder = states - _uv_states(c_u, c_v)
        err = max(err, _worst(np.linalg.norm(remainder, axis=-1) - residual,
                              _uv_states(c_u, c_v) + remainder - states))
    return CheckResult("u/v decomposition reconstruction", err, 1e-12)


def check_rotation_orthogonality(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(1000, scale):
        a = rng.uniform(-10, 10, size=rows)
        r = rotor.rotation_matrix(a)
        err = max(err, _worst(np.swapaxes(r, -1, -2) @ r - np.eye(2), np.linalg.det(r) - 1.0,
                              rotor.rotation_matrix(-a) @ r - np.eye(2)))
    return CheckResult("rotation matrix orthogonality", err, 1e-12)


def check_equal_angle_invariance(rng, scale: float) -> CheckResult:
    states = np.array([qstate.basis_u().vector(), qstate.basis_v().vector()])
    err = 0.0
    for rows in _block_sizes(10_000, scale):
        a = rng.uniform(-10, 10, size=(rows, 1))
        err = max(err, _worst(rotor.apply_pair((a, a), states) - states))
    return CheckResult("equal-angle invariance of u and v", err, 1e-12)


def check_uv_transformation_law(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(10_000, scale):
        alpha, beta = rng.uniform(-10, 10, size=(rows, 2)).T
        cos_d, sin_d = np.cos(beta - alpha), np.sin(beta - alpha)
        for state, law, (want_u, want_v) in (
            (qstate.basis_u(), rotor.pair_on_u, (cos_d, -sin_d)),
            (qstate.basis_v(), rotor.pair_on_v, (sin_d, cos_d)),
        ):
            c_u, c_v, residual = qstate.decompose_uv(rotor.apply_pair((alpha, beta), state.vector()))
            law_u, law_v = law(alpha, beta)
            err = max(err, _worst(c_u - want_u, c_v - want_v, residual, law_u - want_u, law_v - want_v))
    return CheckResult("u/v transformation law", err, 1e-12)


def check_single_sided_terms(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(1000, scale):
        a = rng.uniform(-10, 10, size=rows)
        expected = np.stack([np.cos(a), -np.sin(a), np.sin(a), np.cos(a)], axis=-1) * math.sqrt(0.5)
        err = max(err, _worst(rotor.apply_pair((0.0, a), qstate.basis_u().vector()) - expected))
    return CheckResult("single-sided action termwise", err, 1e-12)


def check_composition_law(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(10_000, scale):
        alpha, beta, gamma = rng.uniform(-10, 10, size=(rows, 3)).T
        psi12 = _uv_states(np.cos(beta - alpha), -np.sin(beta - alpha))
        expected = _uv_states(np.cos(gamma - alpha), -np.sin(gamma - alpha))
        err = max(err, _worst(rotor.compose_pair_state(psi12, beta, gamma) - expected))
    return CheckResult("pair-state composition", err, 1e-12)


def check_group_action(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(10_000, scale):
        a1, b1, a2, b2, phi = rng.uniform(-10, 10, size=(rows, 5)).T
        state = _uv_states(np.cos(phi), np.sin(phi))
        chained = rotor.apply_pair((a2, b2), rotor.apply_pair((a1, b1), state))
        err = max(err, _worst(chained - rotor.apply_pair((a1 + a2, b1 + b2), state)))
    return CheckResult("pair action group law", err, 1e-12)


def check_reduction_law(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(10_000, scale):
        alpha, beta, phi = rng.uniform(-10, 10, size=(rows, 3)).T
        state = _uv_states(np.cos(phi), np.sin(phi))
        reduced = rotor.apply_pair((0.0, beta - alpha), state)
        err = max(err, _worst(rotor.apply_pair((alpha, beta), state) - reduced))
    return CheckResult("single-sided reduction law", err, 1e-12)


def check_norm_preservation(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(1000, scale):
        alpha, beta = rng.uniform(-10, 10, size=(rows, 2)).T
        parts = rng.normal(size=(rows, 2, 4))
        state = parts[:, 0] + 1j * parts[:, 1]
        moved = rotor.apply_pair((alpha, beta), state)
        err = max(err, _worst((np.abs(moved) ** 2).sum(-1) - (np.abs(state) ** 2).sum(-1)))
    return CheckResult("pair action norm preservation", err, 1e-12)


def check_two_slit_oracle(scale: float) -> CheckResult:
    layout = geometry.SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1.0)
    grid = np.linspace(-0.3, 0.3, _count(10_000, scale))
    profile = fringe.intensity_profile(layout, grid, convention="half")
    d = layout.slit_positions[1] - layout.slit_positions[0]
    phase = 2.0 * np.pi * d * np.sin(grid) / layout.wavelength
    reference = np.cos(phase / 2.0) ** 2
    err = float(np.max(np.abs(profile.intensities - reference)))
    return CheckResult("two-slit classical agreement (half)", err, 1e-9)


def check_fringe_maxima_paper(scale: float) -> CheckResult:
    layout = geometry.SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1.0)
    grid = np.linspace(-0.3, 0.3, _count(10_000, scale))
    step = float(grid[1] - grid[0])
    profile = fringe.intensity_profile(layout, grid, convention="paper")
    values = profile.intensities
    inner = values[1:-1]
    peaks = grid[1:-1][(inner >= values[:-2]) & (inner >= values[2:]) & (inner > 0.5)]
    d = layout.slit_positions[1] - layout.slit_positions[0]
    half_wave = layout.wavelength / (2.0 * d)
    orders = np.round(np.sin(peaks) / half_wave)  # an odd order: a maximum only "paper" has
    err = float(np.max(np.abs(peaks - np.arcsin(orders * half_wave)))) if np.any(orders % 2) else math.inf
    return CheckResult("fringe maxima at half-wave orders (paper)", err, step)


def check_pairwise_identity(rng, scale: float) -> CheckResult:
    err = 0.0
    for n in range(2, 7):
        for rows in _block_sizes(10_000, scale):
            _, _, diff = oracle.pairwise_identity_check(rng.uniform(-20, 20, size=(rows, n)))
            err = max(err, _worst(diff))
    return CheckResult("pairwise identity N=2..6", err, 1e-9)


def check_multi_slit_oracle(rng, scale: float) -> CheckResult:
    err = 0.0
    for _, layouts, thetas in _random_layout_stacks(rng, _count(1000, scale)):
        model = fringe.multi_slit_intensity(layouts, thetas, convention="half")
        reference = oracle.classical_intensity(geometry.slit_phases(layouts, thetas))
        err = max(err, _worst(model - reference))
    return CheckResult("multi-slit vs classical oracle (half)", err, 1e-9)


def check_detection_flatness(scale: float) -> CheckResult:
    grid = np.linspace(-0.3, 0.3, _count(2001, scale))
    err = 0.0
    for n, detection in ((2, (1,)), (2, (2,)), (2, (1, 2)), (3, (2,))):
        layout = geometry.SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)
        profile = fringe.intensity_profile(layout, grid, detection=detection)
        err = max(err, float(profile.intensities.max() - profile.intensities.min()))
    return CheckResult("detection flattens the profile", err, 1e-12)


def check_measurement_weights(rng, scale: float) -> CheckResult:
    err = 0.0
    for rows in _block_sizes(1000, scale):
        phi, factors = np.array([(rng.uniform(-10, 10), rng.integers(1, 3)) for _ in range(rows)]).T
        # one sample per block through the scalar Ensemble form, the rest one stacked call per factor
        ensemble = fringe.measure_factor(fringe.PairState.from_rotation(phi[0]).as_state(), int(factors[0]))
        weights, norms = zip(*((w, entry.norm2()) for w, entry in ensemble.entries))
        err = max(err, _worst(np.subtract(weights, 0.5), sum(weights) - 1.0, np.subtract(norms, 1.0)))
        for factor in sorted(set(factors[1:].tolist())):
            states = fringe.PairState.from_rotation(phi[1:][factors[1:] == factor]).as_state()
            weights, branches = fringe.measure_factor(states, int(factor))
            squares = np.hypot(branches.real, branches.imag) ** 2  # abs() per amplitude, summed as norm2 sums
            norms = ((squares[..., 0] + squares[..., 1]) + squares[..., 2]) + squares[..., 3]
            sums, kept_norms = weights[:, 0] + weights[:, 1], np.where(weights > 0, norms, 1.0)
            err = max(err, _worst(weights - 0.5, sums - 1.0, kept_norms - 1.0))
    return CheckResult("measurement ensemble weights", err, 1e-12)


def check_measurement_transmission(rng, scale: float) -> CheckResult:
    err = 0.0
    eye = np.eye(2)
    u = qstate.basis_u().vector()
    for rows in _block_sizes(1000, scale):
        phi, axis = rng.uniform([-10, -math.pi], [10, math.pi], size=(rows, 2)).T
        states = fringe.PairState.from_rotation(phi).as_state()
        model = fringe.ensemble_transmission(fringe.measure_factor(states, 1, axis), "u")
        # density-matrix route: rho' = sum_k P_k rho P_k with P_k = b_k b_k^T (x) 1 for the
        # columns b_k of R(axis); transmission = <u|rho'|u>
        rho = states[:, :, None] * states[:, None, :].conj()
        c, s = np.cos(axis), np.sin(axis)
        rho_post = 0.0
        for b in (np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)):
            projector = np.kron(b[:, :, None] * b[:, None, :], eye)
            rho_post = rho_post + projector @ rho @ projector
        reference = np.einsum("i,rij,j->r", u.conj(), rho_post, u).real
        err = max(err, _worst(model - np.cos(phi) ** 2 / 2.0, model - reference))
    return CheckResult("measurement transmission vs density matrix", err, 1e-12)


def check_complementarity(scale: float) -> CheckResult:
    grid = np.linspace(-0.3, 0.3, _count(2001, scale))
    err = 0.0
    for n in (2, 3, 4):
        layout = geometry.SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)
        for convention in fringe.PHASE_CONVENTIONS:
            transmitted = fringe.intensity_profile(layout, grid, convention, "u")
            absorbed = fringe.intensity_profile(layout, grid, convention, "v")
            total = transmitted.intensities + absorbed.intensities
            err = max(err, float(np.max(np.abs(total - 1.0))))
    return CheckResult("transmitted/absorbed complementarity", err, 1e-12)


def check_profile_center_peak(scale: float) -> CheckResult:
    grid = np.linspace(-0.3, 0.3, _count(2001, scale) // 2 * 2 + 1)
    err = 0.0
    for n in (2, 3, 5):
        layout = geometry.SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)
        for convention in fringe.PHASE_CONVENTIONS:
            profile = fringe.intensity_profile(layout, grid, convention, "u", i0=1.0)
            center = profile.intensities[len(grid) // 2]
            err = max(err, abs(center - 1.0))
            if profile.intensities.max() > 1.0:
                err = max(err, float(profile.intensities.max() - 1.0))
    return CheckResult("profile peaks at center with i0", err, 1e-12)


def check_phase_antisymmetry(rng, scale: float) -> CheckResult:
    err = 0.0
    for _, layouts, thetas in _random_layout_stacks(rng, _count(300, scale)):
        pairs = _index_tuples(layouts[0].n_slits, 2)
        phases = geometry.pair_phase(layouts, thetas, pairs, pairs[::-1])  # phi_ij, phi_ji per layout
        err = max(err, _worst(phases[:, 0] + phases[:, 1]))
    return CheckResult("pair phase antisymmetry", err, 0.0)


def check_phase_additivity(rng, scale: float) -> CheckResult:
    err = bound = 0.0
    for _, layouts, thetas in _random_layout_stacks(rng, _count(300, scale)):
        bound = max(bound, float(np.max(np.abs(geometry.slit_phases(layouts, thetas)))))
        triples = _index_tuples(layouts[0].n_slits, 3)
        phases = geometry.pair_phase(layouts, thetas, triples[[0, 0, 1]], triples[[2, 1, 2]])  # ik, ij, jk
        err = max(err, float(np.max(np.abs(phases[:, 0] - (phases[:, 1] + phases[:, 2])), initial=0.0)))
    # exact in real arithmetic; float64 leaves a few last-bit units
    tolerance = 8.0 * np.finfo(float).eps * max(bound, 1.0)
    return CheckResult("pair phase additivity", err, tolerance)


def run_checks(seed: int = DEFAULT_SEED, scale: float = 1.0) -> list[CheckResult]:
    """Run the whole battery; ``scale`` shrinks sample counts for quick runs."""
    rng = np.random.default_rng(seed)
    return [
        check_basis_orthonormality(),
        check_tensor_norm_product(rng, scale),
        check_uv_reconstruction(rng, scale),
        check_rotation_orthogonality(rng, scale),
        check_equal_angle_invariance(rng, scale),
        check_uv_transformation_law(rng, scale),
        check_single_sided_terms(rng, scale),
        check_composition_law(rng, scale),
        check_group_action(rng, scale),
        check_reduction_law(rng, scale),
        check_norm_preservation(rng, scale),
        check_two_slit_oracle(scale),
        check_fringe_maxima_paper(scale),
        check_pairwise_identity(rng, scale),
        check_multi_slit_oracle(rng, scale),
        check_detection_flatness(scale),
        check_measurement_weights(rng, scale),
        check_measurement_transmission(rng, scale),
        check_complementarity(scale),
        check_profile_center_peak(scale),
        check_phase_antisymmetry(rng, scale),
        check_phase_additivity(rng, scale),
    ]


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
        f"max_error={r.max_error:.3e}  tol={r.tolerance:.3e}"
        for r in results
    ]
    failed = sum(not r.passed for r in results)
    if failed:
        lines.append(f"{failed} of {len(results)} checks FAILED")
    else:
        lines.append(f"all {len(results)} checks passed")
    return "\n".join(lines)
