"""Self-check battery: every algebraic and geometric law the library relies on.

Each check exercises one law over seeded random samples and reports the
maximum observed error against its tolerance.  Every check reduces its
errors with the one fold ``_max_error`` (``_sampled`` feeds it row block by
row block), which keeps NaN: a law that yields NaN anywhere fails its check
with ``max_error=nan``.  The battery is deterministic, so a fresh build
either passes everywhere or a real defect is present.  Checks call into the
library through module attributes, which keeps them honest under
fault-injection (replace an operation and the battery fails).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fringe, geometry, oracle, qstate, rotor

DEFAULT_SEED = 20240811
#: Rows per ``_sampled`` block; the checks draw from one shared generator block by block, so the report depends on it.
_BLOCK_ROWS = 1000


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


def _max_error(errors) -> float:
    """Largest absolute entry of an iterable of error arrays or floats; NaN if any entry is, 0.0 if none."""
    return float(np.max([np.max(np.abs(e), initial=0.0) for e in errors], initial=0.0))


def _sampled(n: int, scale: float, law) -> float:
    """``_max_error`` of the error arrays ``law(rows)`` yields for each row block of ``_count(n, scale)``."""
    count = _count(n, scale)
    return _max_error(e for start in range(0, count, _BLOCK_ROWS) for e in law(min(_BLOCK_ROWS, count - start)))


def _evenly_spaced(n: int) -> geometry.SlitGeometry:
    """The battery's fixed layout: n slits 2 um apart, 500 nm light, a 1 m screen."""
    return geometry.SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)


def _uv_states(c_u, c_v) -> np.ndarray:
    """Amplitude rows c_u * u + c_v * v, one per entry of the coordinate arrays."""
    u, v = qstate.basis_u().vector(), qstate.basis_v().vector()
    return np.multiply.outer(c_u, u) + np.multiply.outer(c_v, v)


def _index_tuples(n: int, size: int) -> np.ndarray:
    """Every increasing tuple of ``size`` 1-based slit indices out of n, as ``size`` index rows."""
    return np.array(list(itertools.combinations(range(1, n + 1), size)), dtype=int).reshape(-1, size).T


def _random_geometry(rng) -> tuple[geometry.SlitGeometry, float]:
    n = int(rng.integers(2, 7))
    positions = sorted(rng.uniform(-5e-5, 5e-5, size=n).tolist())  # on 2-6 values a numpy call costs more than its work
    if any(b - a <= 1e-9 for a, b in zip(positions, positions[1:])):
        positions = [a + k * 2e-9 for k, a in enumerate(positions)]
    layout = geometry.SlitGeometry(positions, rng.uniform(2e-7, 8e-7), rng.uniform(0.5, 2.0))
    return layout, rng.uniform(-1.2, 1.2)  # the angle theta is drawn after the layout


def _random_layout_stacks(rng, count: int) -> list[tuple[np.ndarray, list, np.ndarray]]:
    """``count`` draws of ``_random_geometry`` as one (rows, layouts, thetas) stack per slit count."""
    layouts, thetas = zip(*(_random_geometry(rng) for _ in range(count)))
    return geometry._by_slit_count(layouts, thetas)


def check_basis_orthonormality() -> CheckResult:
    u, v = qstate.basis_u(), qstate.basis_v()
    err = _max_error((qstate.inner(u, u) - 1.0, qstate.inner(v, v) - 1.0, qstate.inner(u, v)))
    return CheckResult("u/v orthonormality", err, 1e-12)


def check_tensor_norm_product(rng, scale: float) -> CheckResult:
    def law(rows):
        parts = rng.normal(size=(rows, 2, 4))
        a, b = np.split(parts[:, 0] + 1j * parts[:, 1], 2, axis=-1)  # |z| via hypot, as abs() of a complex
        norm2 = [np.sum(np.hypot(s.real, s.imag) ** 2, axis=-1) for s in (qstate.tensor(a, b), a, b)]
        return (norm2[0] - norm2[1] * norm2[2],)
    return CheckResult("tensor norm product", _sampled(1000, scale, law), 1e-12)


def check_uv_reconstruction(rng, scale: float) -> CheckResult:
    def law(rows):
        parts = rng.normal(size=(rows, 2, 4))
        states = parts[:, 0] + 1j * parts[:, 1]
        c_u, c_v, residual = qstate.decompose_uv(states)
        remainder = states - _uv_states(c_u, c_v)
        return np.linalg.norm(remainder, axis=-1) - residual, _uv_states(c_u, c_v) + remainder - states
    return CheckResult("u/v decomposition reconstruction", _sampled(1000, scale, law), 1e-12)


def check_rotation_orthogonality(rng, scale: float) -> CheckResult:
    def law(rows):
        a = rng.uniform(-10, 10, size=rows)
        r = rotor.rotation_matrix(a)
        return (np.swapaxes(r, -1, -2) @ r - np.eye(2), np.linalg.det(r) - 1.0,
                rotor.rotation_matrix(-a) @ r - np.eye(2))
    return CheckResult("rotation matrix orthogonality", _sampled(1000, scale, law), 1e-12)


def check_equal_angle_invariance(rng, scale: float) -> CheckResult:
    states = np.array([qstate.basis_u().vector(), qstate.basis_v().vector()])

    def law(rows):
        a = rng.uniform(-10, 10, size=(rows, 1))
        return (rotor.apply_pair((a, a), states) - states,)
    return CheckResult("equal-angle invariance of u and v", _sampled(10_000, scale, law), 1e-12)


def check_uv_transformation_law(rng, scale: float) -> CheckResult:
    def law(rows):
        alpha, beta = rng.uniform(-10, 10, size=(rows, 2)).T
        cos_d, sin_d = np.cos(beta - alpha), np.sin(beta - alpha)
        for state, pair_law, (want_u, want_v) in (
            (qstate.basis_u(), rotor.pair_on_u, (cos_d, -sin_d)),
            (qstate.basis_v(), rotor.pair_on_v, (sin_d, cos_d)),
        ):
            c_u, c_v, residual = qstate.decompose_uv(rotor.apply_pair((alpha, beta), state.vector()))
            law_u, law_v = pair_law(alpha, beta)
            yield from (c_u - want_u, c_v - want_v, residual, law_u - want_u, law_v - want_v)
    return CheckResult("u/v transformation law", _sampled(10_000, scale, law), 1e-12)


def check_single_sided_terms(rng, scale: float) -> CheckResult:
    def law(rows):
        a = rng.uniform(-10, 10, size=rows)
        expected = np.stack([np.cos(a), -np.sin(a), np.sin(a), np.cos(a)], axis=-1) * math.sqrt(0.5)
        return (rotor.apply_pair((0.0, a), qstate.basis_u().vector()) - expected,)
    return CheckResult("single-sided action termwise", _sampled(1000, scale, law), 1e-12)


def check_composition_law(rng, scale: float) -> CheckResult:
    def law(rows):
        alpha, beta, gamma = rng.uniform(-10, 10, size=(rows, 3)).T
        psi12 = _uv_states(np.cos(beta - alpha), -np.sin(beta - alpha))
        expected = _uv_states(np.cos(gamma - alpha), -np.sin(gamma - alpha))
        return (rotor.compose_pair_state(psi12, beta, gamma) - expected,)
    return CheckResult("pair-state composition", _sampled(10_000, scale, law), 1e-12)


def check_group_action(rng, scale: float) -> CheckResult:
    def law(rows):
        a1, b1, a2, b2, phi = rng.uniform(-10, 10, size=(rows, 5)).T
        state = _uv_states(np.cos(phi), np.sin(phi))
        chained = rotor.apply_pair((a2, b2), rotor.apply_pair((a1, b1), state))
        return (chained - rotor.apply_pair((a1 + a2, b1 + b2), state),)
    return CheckResult("pair action group law", _sampled(10_000, scale, law), 1e-12)


def check_reduction_law(rng, scale: float) -> CheckResult:
    def law(rows):
        alpha, beta, phi = rng.uniform(-10, 10, size=(rows, 3)).T
        state = _uv_states(np.cos(phi), np.sin(phi))
        reduced = rotor.apply_pair((0.0, beta - alpha), state)
        return (rotor.apply_pair((alpha, beta), state) - reduced,)
    return CheckResult("single-sided reduction law", _sampled(10_000, scale, law), 1e-12)


def check_norm_preservation(rng, scale: float) -> CheckResult:
    def law(rows):
        alpha, beta = rng.uniform(-10, 10, size=(rows, 2)).T
        parts = rng.normal(size=(rows, 2, 4))
        state = parts[:, 0] + 1j * parts[:, 1]
        moved = rotor.apply_pair((alpha, beta), state)
        return ((np.abs(moved) ** 2).sum(-1) - (np.abs(state) ** 2).sum(-1),)
    return CheckResult("pair action norm preservation", _sampled(1000, scale, law), 1e-12)


def check_two_slit_oracle(scale: float) -> CheckResult:
    layout = _evenly_spaced(2)
    grid = np.linspace(-0.3, 0.3, _count(10_000, scale))
    profile = fringe.intensity_profile(layout, grid, convention="half")
    d = layout.slit_positions[1] - layout.slit_positions[0]
    phase = 2.0 * np.pi * d * np.sin(grid) / layout.wavelength
    err = _max_error((profile.intensities - np.cos(phase / 2.0) ** 2,))
    return CheckResult("two-slit classical agreement (half)", err, 1e-9)


def check_fringe_maxima_paper(scale: float) -> CheckResult:
    layout = _evenly_spaced(2)
    grid = np.linspace(-0.3, 0.3, _count(10_000, scale))
    step = float(grid[1] - grid[0])
    values = fringe.intensity_profile(layout, grid, convention="paper").intensities
    inner = values[1:-1]
    peaks = grid[1:-1][(inner >= values[:-2]) & (inner >= values[2:]) & (inner > 0.5)]
    d = layout.slit_positions[1] - layout.slit_positions[0]
    half_wave = layout.wavelength / (2.0 * d)
    orders = np.round(np.sin(peaks) / half_wave)  # an odd order: a maximum only "paper" has
    err = _max_error((peaks - np.arcsin(orders * half_wave),)) if np.any(orders % 2) else math.inf
    return CheckResult("fringe maxima at half-wave orders (paper)", err, step)


def check_pairwise_identity(rng, scale: float) -> CheckResult:
    def law(n):  # the (|lhs - rhs|,) of one block of n-slit phase sets
        return lambda rows: oracle.pairwise_identity_check(rng.uniform(-20, 20, size=(rows, n)))[2:]
    err = _max_error(_sampled(10_000, scale, law(n)) for n in range(2, 7))
    return CheckResult("pairwise identity N=2..6", err, 1e-9)


def check_multi_slit_oracle(rng, scale: float) -> CheckResult:
    err = _max_error(
        fringe.multi_slit_intensity(layouts, thetas, convention="half")
        - oracle.classical_intensity(geometry.slit_phases(layouts, thetas))
        for _, layouts, thetas in _random_layout_stacks(rng, _count(1000, scale))
    )
    return CheckResult("multi-slit vs classical oracle (half)", err, 1e-9)


def check_detection_flatness(scale: float) -> CheckResult:
    grid = np.linspace(-0.3, 0.3, _count(2001, scale))
    profiles = (fringe.intensity_profile(_evenly_spaced(n), grid, detection=detection).intensities
                for n, detection in ((2, (1,)), (2, (2,)), (2, (1, 2)), (3, (2,))))
    err = _max_error(intensities.max() - intensities.min() for intensities in profiles)
    return CheckResult("detection flattens the profile", err, 1e-12)


def check_measurement_weights(rng, scale: float) -> CheckResult:
    def law(rows):
        phi, factors = np.array([(rng.uniform(-10, 10), rng.integers(1, 3)) for _ in range(rows)]).T
        # one sample per block through the scalar Ensemble form, the rest one stacked call per factor
        ensemble = fringe.measure_factor(fringe.PairState.from_rotation(phi[0]).as_state(), int(factors[0]))
        weights, norms = zip(*((w, entry.norm2()) for w, entry in ensemble.entries))
        yield from (np.subtract(weights, 0.5), sum(weights) - 1.0, np.subtract(norms, 1.0))
        for factor in sorted(set(factors[1:].tolist())):
            states = fringe.PairState.from_rotation(phi[1:][factors[1:] == factor]).as_state()
            weights, branches = fringe.measure_factor(states, int(factor))
            squares = np.hypot(branches.real, branches.imag) ** 2  # abs() per amplitude, summed as norm2 sums
            norms = ((squares[..., 0] + squares[..., 1]) + squares[..., 2]) + squares[..., 3]
            sums, kept_norms = weights[:, 0] + weights[:, 1], np.where(weights > 0, norms, 1.0)
            yield from (weights - 0.5, sums - 1.0, kept_norms - 1.0)
    return CheckResult("measurement ensemble weights", _sampled(1000, scale, law), 1e-12)


def check_measurement_transmission(rng, scale: float) -> CheckResult:
    eye = np.eye(2)
    u = qstate.basis_u().vector()

    def law(rows):
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
        return model - np.cos(phi) ** 2 / 2.0, model - reference
    return CheckResult("measurement transmission vs density matrix", _sampled(1000, scale, law), 1e-12)


def check_complementarity(scale: float) -> CheckResult:
    grid = np.linspace(-0.3, 0.3, _count(2001, scale))
    totals = (fringe.intensity_profile(layout, grid, convention, "u").intensities
              + fringe.intensity_profile(layout, grid, convention, "v").intensities - 1.0
              for layout in map(_evenly_spaced, (2, 3, 4)) for convention in fringe.PHASE_CONVENTIONS)
    return CheckResult("transmitted/absorbed complementarity", _max_error(totals), 1e-12)


def check_profile_center_peak(scale: float) -> CheckResult:
    grid = np.linspace(-0.3, 0.3, _count(2001, scale) // 2 * 2 + 1)
    profiles = (fringe.intensity_profile(layout, grid, convention, "u", i0=1.0).intensities
                for layout in map(_evenly_spaced, (2, 3, 5)) for convention in fringe.PHASE_CONVENTIONS)
    err = _max_error(error for intensities in profiles  # off 1 at the center, or above 1 anywhere
                     for error in (intensities[len(grid) // 2] - 1.0, np.maximum(intensities.max() - 1.0, 0.0)))
    return CheckResult("profile peaks at center with i0", err, 1e-12)


def check_phase_antisymmetry(rng, scale: float) -> CheckResult:
    stacks = [(layouts, thetas, _index_tuples(layouts[0].n_slits, 2))
              for _, layouts, thetas in _random_layout_stacks(rng, _count(300, scale))]
    phases = (geometry.pair_phase(layouts, thetas, pairs, pairs[::-1]) for layouts, thetas, pairs in stacks)
    err = _max_error(phase[:, 0] + phase[:, 1] for phase in phases)  # phi_ij + phi_ji per layout
    return CheckResult("pair phase antisymmetry", err, 0.0)


def check_phase_additivity(rng, scale: float) -> CheckResult:
    stacks = [(layouts, thetas, _index_tuples(layouts[0].n_slits, 3))
              for _, layouts, thetas in _random_layout_stacks(rng, _count(300, scale))]
    phases = (geometry.pair_phase(layouts, thetas, triples[[0, 0, 1]], triples[[2, 1, 2]])  # ik, ij, jk
              for layouts, thetas, triples in stacks)
    err = _max_error(phase[:, 0] - (phase[:, 1] + phase[:, 2]) for phase in phases)
    # exact in real arithmetic; float64 leaves a few last-bit units
    bound = _max_error(geometry.slit_phases(layouts, thetas) for layouts, thetas, _ in stacks)
    return CheckResult("pair phase additivity", err, 8.0 * np.finfo(float).eps * max(bound, 1.0))


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
