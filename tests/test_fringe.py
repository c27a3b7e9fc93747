"""Model layer: pair states at the screen, profiles, detection, measurement."""

import math
import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinfringe import (
    PHASE_CONVENTIONS,
    TRANSMITTED_CHOICES,
    ConfigError,
    Ensemble,
    FringeProfile,
    GeometryError,
    PairState,
    ScreenPoint,
    SimulationConfig,
    SlitGeometry,
    Spinor,
    SternGerlachStage,
    TwoSpinState,
    UnsupportedCollapseError,
    apply_pair,
    basis_u,
    basis_v,
    cli,
    decompose_uv,
    detect_at_slit,
    ensemble_transmission,
    fringe,
    intensity_profile,
    measure_factor,
    multi_slit_intensity,
    pair_phase,
    rotation_matrix,
    slit_phases,
    subtended_angle,
    transmission_probability,
    two_slit_state_at,
)
from spinfringe.config import default_config, merge_overrides
from spinfringe.geometry import _slit_indices


def projector_oracle(state_vec: np.ndarray, factor: int, axis: float):
    """Brute-force projective measurement: explicit 4x4 projectors."""
    c, s = math.cos(axis), math.sin(axis)
    vectors = [np.array([c, -s], dtype=complex), np.array([s, c], dtype=complex)]
    eye = np.eye(2, dtype=complex)
    outcomes = []
    for b in vectors:
        proj = np.outer(b, b.conj())
        op = np.kron(proj, eye) if factor == 1 else np.kron(eye, proj)
        branch = op @ state_vec
        weight = float(np.vdot(branch, branch).real)
        outcomes.append((weight, branch))
    return outcomes


def density_matrix_transmission(state_vec: np.ndarray, factor: int, axis: float, target: np.ndarray) -> float:
    """Brute-force post-measurement transmission via the density matrix."""
    rho = np.outer(state_vec, state_vec.conj())
    rho_post = np.zeros_like(rho)
    for _, branch in projector_oracle(state_vec, factor, axis):
        rho_post += np.outer(branch, branch.conj())
    return float(np.real(target.conj() @ rho_post @ target))


class TestPairState:
    def test_from_rotation(self):
        ps = PairState.from_rotation(0.3)
        assert ps.c_u == pytest.approx(math.cos(0.3))
        assert ps.c_v == pytest.approx(-math.sin(0.3))

    def test_unit_circle_enforced(self):
        with pytest.raises(ValueError, match="unit circle"):
            PairState(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("c_u", [math.nan, np.array([1.0, math.nan]), np.array([1.0, 2.0])])
    def test_unit_circle_check_fails_on_nan_and_on_any_row(self, c_u):
        with pytest.raises(ValueError, match="unit circle"):
            PairState(np.zeros(np.shape(c_u)), c_u, np.zeros(np.shape(c_u)))
        assert PairState(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, -1.0])).c_u.shape == (2,)

    def test_as_state_matches_basis_combination(self):
        ps = PairState.from_rotation(1.1)
        expected = math.cos(1.1) * basis_u().vector() - math.sin(1.1) * basis_v().vector()
        assert np.allclose(ps.as_state().vector(), expected, atol=1e-15)

    def test_grid_states_compare_by_identity_and_are_read_only(self):
        a = PairState.from_rotation(np.array([0.1, 0.2]))
        b = PairState.from_rotation(np.array([0.1, 0.2]))
        assert a == a and a != b  # no element-wise comparison, so no "truth value ... ambiguous"
        for field in (a.phi, a.c_u, a.c_v):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0.0
        c_u = np.array([1.0, 0.0])
        PairState(np.zeros(2), c_u, np.array([0.0, -1.0]))
        c_u[0] = 1.0  # the caller's array is copied, not frozen

    @pytest.mark.parametrize(
        "phi,c_u,c_v",
        [
            (np.zeros(3), np.array([1.0, 0.0]), np.array([0.0, -1.0])),
            (0.0, np.array([1.0, 0.0]), np.array([0.0, -1.0])),
            (np.zeros(2), np.array([1.0, 1.0]), 0.0),
            (np.zeros(2), np.array([[1.0, 0.0]]), np.array([[0.0, -1.0]])),
        ],
    )
    def test_fields_must_share_one_shape(self, phi, c_u, c_v):
        # each case lies on the unit circle, so only the shapes are wrong
        shapes = [np.shape(phi), np.shape(c_u), np.shape(c_v)]
        with pytest.raises(ValueError, match=re.escape(f"phi, c_u and c_v must share one shape, got shapes {shapes}")):
            PairState(phi, c_u, c_v)


class TestTwoSlitStateAt:
    def test_pure_u_at_center(self, two_slit):
        ps = two_slit_state_at(two_slit, ScreenPoint(0.0))
        assert ps.phi == 0.0
        assert (ps.c_u, ps.c_v) == (1.0, 0.0)

    def test_pure_singlet_at_quarter_rotation(self, two_slit):
        # half convention: optical phase pi <=> rotation angle pi/2
        # d sin(theta) = lambda/2 => sin(theta) = 500e-9 / (2 * 2e-6) = 0.125
        ps = two_slit_state_at(two_slit, ScreenPoint(math.asin(0.125)), "half")
        assert ps.phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert ps.c_u == pytest.approx(0.0, abs=1e-12)
        assert ps.c_v == pytest.approx(-1.0, abs=1e-12)

    def test_generic_rotation(self, two_slit):
        theta = math.asin(0.3 * 500e-9 / (2 * math.pi * 2e-6))
        ps = two_slit_state_at(two_slit, ScreenPoint(theta), "paper")
        assert ps.c_u == pytest.approx(math.cos(0.3), abs=1e-12)
        assert ps.c_v == pytest.approx(-math.sin(0.3), abs=1e-12)

    def test_requires_two_slits(self, three_slit):
        with pytest.raises(GeometryError):
            two_slit_state_at(three_slit, ScreenPoint(0.0))

    def test_agrees_with_pair_rotation(self, rng):
        # same state via the operator route: decompose(apply_pair((a, b), u))
        for _ in range(1000):
            separation = rng.uniform(5e-7, 5e-6)
            wavelength = rng.uniform(2e-7, 8e-7)
            g = SlitGeometry.evenly_spaced(2, separation, wavelength, rng.uniform(0.5, 2.0))
            point = ScreenPoint(rng.uniform(-1.2, 1.2))
            convention = ("half", "paper")[int(rng.integers(2))]
            ps = two_slit_state_at(g, point, convention)
            alpha = rng.uniform(-3, 3)
            c_u, c_v, residual = decompose_uv(apply_pair((alpha, alpha + ps.phi), basis_u()))
            assert abs(ps.c_u - c_u) <= 1e-12
            assert abs(ps.c_v - c_v) <= 1e-12
            assert residual <= 1e-12


class TestTransmissionProbability:
    def test_center_transmits_fully(self):
        assert transmission_probability(PairState(0.0, 1.0, 0.0), "u") == 1.0

    def test_singlet_blocks_u(self):
        assert transmission_probability(PairState(math.pi / 2, 0.0, -1.0), "u") == 0.0

    def test_absorbed_share(self):
        ps = PairState.from_rotation(0.3)
        assert transmission_probability(ps, "v") == pytest.approx(math.sin(0.3) ** 2)

    def test_choices_sum_to_one(self, rng):
        for phi in rng.uniform(-10, 10, size=200):
            ps = PairState.from_rotation(phi)
            total = transmission_probability(ps, "u") + transmission_probability(ps, "v")
            assert abs(total - 1.0) <= 1e-12

    def test_bad_choice(self):
        with pytest.raises(ValueError):
            transmission_probability(PairState(0.0, 1.0, 0.0), "w")


class TestIntensityProfile:
    def test_matches_classical_half_wave(self, two_slit):
        grid = np.linspace(-0.3, 0.3, 2001)
        profile = intensity_profile(two_slit, grid, convention="half")
        phase = 2 * np.pi * 2e-6 * np.sin(grid) / 500e-9
        assert np.max(np.abs(profile.intensities - np.cos(phase / 2) ** 2)) <= 1e-9

    def test_detection_flattens(self, two_slit):
        grid = np.linspace(-0.3, 0.3, 501)
        for detection in ((1,), (2,), (1, 2)):
            profile = intensity_profile(two_slit, grid, detection=detection)
            assert profile.intensities.max() - profile.intensities.min() <= 1e-12
            assert profile.intensities[0] == pytest.approx(0.5)
            assert profile.visibility() == pytest.approx(0.0, abs=1e-12)

    def test_detection_flat_value_scales_with_slits(self, three_slit):
        profile = intensity_profile(three_slit, np.linspace(-0.1, 0.1, 11), detection=(2,))
        assert np.allclose(profile.intensities, 1.0 / 3.0)

    def test_single_point_grid(self, two_slit):
        profile = intensity_profile(two_slit, np.array([0.0]))
        assert (profile.thetas.tolist(), profile.intensities.tolist()) == ([0.0], [1.0])

    def test_grid_must_increase(self, two_slit):
        with pytest.raises(ValueError, match="increasing"):
            intensity_profile(two_slit, np.array([0.1, 0.0]))

    def test_grid_must_be_in_range(self, two_slit):
        with pytest.raises(ValueError, match="pi/2"):
            intensity_profile(two_slit, np.array([0.0, 2.0]))

    def test_empty_grid_rejected(self, two_slit):
        with pytest.raises(ValueError, match="non-empty"):
            intensity_profile(two_slit, np.array([]))

    def test_detection_index_validated(self, two_slit):
        with pytest.raises(IndexError):
            intensity_profile(two_slit, np.array([0.0]), detection=(3,))

    @pytest.mark.parametrize("index", [2.9, 1.5, True, "2"])
    def test_detection_index_is_never_truncated(self, three_slit, index):
        # the library and the config share one exact-integer rule
        with pytest.raises(TypeError, match="integer"):
            intensity_profile(three_slit, np.array([0.0]), detection=(index,))
        with pytest.raises(ConfigError, match="detection"):
            SimulationConfig(slit_count=3, detection=(index,)).validate()

    @pytest.mark.parametrize("detection", [1, np.int64(1), "1"], ids=repr)
    def test_detection_is_a_sequence(self, three_slit, detection):
        # a bare number is not a detection set, in the library as in a hand-built config
        with pytest.raises(TypeError):
            intensity_profile(three_slit, np.array([0.0]), detection=detection)
        with pytest.raises(ConfigError, match="^detection: "):
            SimulationConfig(slit_count=3, detection=detection).validate()

    def test_detection_index_accepts_integral_numbers(self, three_slit):
        for index in (2, 2.0, np.int64(2)):
            profile = intensity_profile(three_slit, np.array([0.0]), detection=(index,))
            assert profile.intensities[0] == pytest.approx(1.0 / 3.0)

    def test_absorbed_choice_is_complement(self, two_slit, three_slit):
        grid = np.linspace(-0.3, 0.3, 301)
        for layout in (two_slit, three_slit):
            u_side = intensity_profile(layout, grid, choice="u")
            v_side = intensity_profile(layout, grid, choice="v")
            assert np.max(np.abs(u_side.intensities + v_side.intensities - 1.0)) <= 1e-12

    def test_i0_scales_and_bounds(self, two_slit):
        grid = np.linspace(-0.3, 0.3, 301)
        profile = intensity_profile(two_slit, grid, i0=2.5)
        assert profile.i0 == 2.5
        assert profile.intensities.max() == pytest.approx(2.5, abs=1e-12)
        assert profile.intensities.min() >= 0.0

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_i0_rejected(self, two_slit, flag):
        # a bool is not a number here, as in the config: True would otherwise read as i0 = 1
        for make in (lambda: intensity_profile(two_slit, [0.0], i0=flag),
                     lambda: FringeProfile(np.array([0.0]), np.array([0.5]), i0=flag)):
            with pytest.raises(ConfigError) as excinfo:
                make()
            assert excinfo.value.field == "i0"

    def test_center_peak_under_both_conventions(self, two_slit):
        grid = np.linspace(-0.3, 0.3, 301)
        for convention in ("half", "paper"):
            profile = intensity_profile(two_slit, grid, convention=convention)
            center = np.argmin(np.abs(grid))
            assert profile.intensities[center] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        first=st.floats(min_value=-1e-3, max_value=1e-3),
        separation=st.floats(min_value=1e-7, max_value=1e-4),
        wavelength=st.floats(min_value=2e-7, max_value=8e-7),
        convention=st.sampled_from(PHASE_CONVENTIONS),
        choice=st.sampled_from(TRANSMITTED_CHOICES),
    )
    def test_two_slit_pairwise_rule_is_cos_squared(
        self, first, separation, wavelength, convention, choice
    ):
        # the pairwise rule at N = 2 against i0*cos^2(s*delta) / i0*sin^2(s*delta),
        # delta the optical pair phase; the rule takes cos(2s*p_2 - 2s*p_1) from
        # absolute per-slit phases, so the bound scales with their size
        layout = SlitGeometry((first, first + separation), wavelength, 1.0)
        grid = np.linspace(-1.2, 1.2, 241)
        i0 = 2.5
        profile = intensity_profile(layout, grid, convention, choice, i0=i0)
        phases = slit_phases(layout, grid)
        angle = (0.5 if convention == "half" else 1.0) * (phases[:, 1] - phases[:, 0])
        expected = i0 * (np.cos(angle) ** 2 if choice == "u" else np.sin(angle) ** 2)
        tolerance = i0 * (1e-12 + 8 * np.finfo(float).eps * float(np.max(np.abs(phases))))
        assert np.max(np.abs(profile.intensities - expected)) <= tolerance

    def test_two_slit_path_equals_scalar_ops(self, two_slit, rng):
        grid = np.sort(rng.uniform(-1.2, 1.2, size=64))
        for convention in ("half", "paper"):
            for choice in ("u", "v"):
                profile = intensity_profile(two_slit, grid, convention, choice)
                for theta, value in zip(profile.thetas.tolist(), profile.intensities.tolist()):
                    ps = two_slit_state_at(two_slit, ScreenPoint(theta), convention)
                    assert abs(value - transmission_probability(ps, choice)) <= 1e-12

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("choice", TRANSMITTED_CHOICES)
    def test_sg_stage_equals_the_per_angle_scalar_path(self, two_slit, factor, choice):
        # 1,201 angles are a full row block and a partial one
        grid, axis, i0 = np.linspace(-0.3, 0.3, 1201), 0.7, 2.5
        profile = intensity_profile(two_slit, grid, "paper", choice, i0=i0, stage=SternGerlachStage(factor, axis))
        reference = [
            ensemble_transmission(
                measure_factor(two_slit_state_at(two_slit, ScreenPoint(theta), "paper").as_state(), factor, axis),
                choice,
            )
            for theta in grid
        ]
        expected = np.clip(i0 * np.array(reference), 0.0, i0)
        assert np.max(np.abs(profile.intensities - expected)) <= 4 * np.finfo(float).eps * i0

    @pytest.mark.parametrize("choice", TRANSMITTED_CHOICES)
    def test_peak_memory_stays_below_four_grid_arrays(self, two_slit, choice):
        # the values are complemented, scaled and clipped in the array that holds |k|, so no copy of them is alive
        grid = np.linspace(-0.3, 0.3, 100_001)
        intensity_profile(two_slit, grid, choice=choice, i0=2.0)  # once-only state stays out of the trace
        tracemalloc.start()
        try:
            intensity_profile(two_slit, grid, choice=choice, i0=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * grid.nbytes

    @pytest.mark.parametrize("factor", (1, 2))
    def test_sg_stage_peak_memory_stays_below_eight_row_blocks(self, two_slit, factor):
        # a 1,000-row block's (..., 2, 4) complex branches take 128,000 B; the branch sum is added in place
        grid, stage = np.linspace(-0.3, 0.3, 10_001), SternGerlachStage(factor, 0.3)
        intensity_profile(two_slit, grid, stage=stage)  # once-only state stays out of the trace
        tracemalloc.start()
        try:
            intensity_profile(two_slit, grid, stage=stage)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sg_stage_needs_two_slits_and_no_detection(self, two_slit, three_slit):
        with pytest.raises(GeometryError, match="exactly 2 slits, got 3"):
            intensity_profile(three_slit, [0.0], stage=SternGerlachStage(1))
        with pytest.raises(ValueError, match="cannot be combined with detection"):
            intensity_profile(two_slit, [0.0], detection=(1,), stage=SternGerlachStage(1))


class TestMultiSlitIntensity:
    def test_center_is_unity(self):
        for n in (2, 3, 4, 5, 6):
            g = SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)
            assert multi_slit_intensity(g, ScreenPoint(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_two_slit_reduces_to_transmission(self, two_slit, rng):
        for theta in rng.uniform(-1.2, 1.2, size=200):
            point = ScreenPoint(theta)
            for convention in ("half", "paper"):
                ps = two_slit_state_at(two_slit, point, convention)
                value = multi_slit_intensity(two_slit, point, convention)
                assert abs(value - transmission_probability(ps, "u")) <= 1e-12

    def test_three_slit_matches_classical_oracle(self, three_slit, rng):
        from spinfringe import classical_intensity, slit_phases

        for theta in rng.uniform(-1.2, 1.2, size=500):
            point = ScreenPoint(theta)
            model = multi_slit_intensity(three_slit, point, "half")
            assert abs(model - classical_intensity(slit_phases(three_slit, point))) <= 1e-9

    def test_profile_uses_pairwise_rule(self, rng):
        # the scalar form is the one-point profile, so the two agree exactly
        grid = np.sort(rng.uniform(-1.2, 1.2, size=32))
        for n in (2, 3, 4):
            g = SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)
            for convention in PHASE_CONVENTIONS:
                profile = intensity_profile(g, grid, convention)
                for theta, value in zip(profile.thetas.tolist(), profile.intensities.tolist()):
                    assert multi_slit_intensity(g, ScreenPoint(theta), convention) == value

    @pytest.mark.parametrize("theta", [0.1, -0.3, 0, 1e-9, np.float64(0.7), np.float32(-0.2), np.array(1.2)])
    def test_a_bare_angle_reads_as_its_screen_point(self, three_slit, theta):
        for convention in PHASE_CONVENTIONS:
            value = multi_slit_intensity(three_slit, theta, convention)
            assert type(value) is float and value == multi_slit_intensity(three_slit, ScreenPoint(theta), convention)

    @pytest.mark.parametrize("theta", [True, np.bool_(False), "0.1", None, 0.1j])
    def test_a_bool_or_non_number_angle_raises_type_error(self, three_slit, theta):
        with pytest.raises(TypeError, match="theta must be real"):
            multi_slit_intensity(three_slit, theta)

    @pytest.mark.parametrize("thetas", [[0.1], np.zeros(2), np.zeros((2, 2))])
    def test_angles_with_one_layout_raise_value_error(self, three_slit, thetas):
        with pytest.raises(ValueError, match=r"one layout takes one angle, got shape .*; pass one layout per angle"):
            multi_slit_intensity(three_slit, thetas)


def _lattice_layouts(max_slits=6):
    """Sorted distinct slit positions on a 2^-20 m lattice, within about 0.2 mm of 0."""
    return st.lists(st.integers(-200, 200), min_size=2, max_size=max_slits, unique=True).map(
        lambda steps: tuple(sorted(k * 2.0**-20 for k in steps))
    )


def _irregular_layouts(max_slits=8):
    return st.lists(
        st.floats(-1e-4, 1e-4, allow_subnormal=False), min_size=2, max_size=max_slits, unique=True
    ).map(lambda positions: tuple(sorted(positions)))


_WAVELENGTHS = st.floats(min_value=2e-7, max_value=8e-7)


def _distinct_separations(positions) -> bool:
    pos = np.asarray(positions)
    i, j = np.triu_indices(pos.size, 1)
    return np.unique(pos[j] - pos[i]).size == i.size


class TestMultiSlitIntensityStacks:
    """m layouts of any slit counts with m angles: row k is the one-layout value of layout k at angle k."""

    @settings(max_examples=60, deadline=None)
    @given(
        layouts=st.lists(
            st.builds(SlitGeometry, _irregular_layouts(6).filter(_distinct_separations), _WAVELENGTHS, st.just(1.0)),
            min_size=1, max_size=12,
        ),
        data=st.data(),
        convention=st.sampled_from(PHASE_CONVENTIONS),
    )
    def test_rows_equal_the_scalar_calls_bit_for_bit_on_distinct_separations(self, layouts, data, convention):
        thetas = np.array(data.draw(st.lists(st.floats(-1.2, 1.2), min_size=len(layouts), max_size=len(layouts))))
        values = multi_slit_intensity(layouts, thetas, convention)
        assert values.shape == (len(layouts),)
        for value, layout, theta in zip(values, layouts, thetas):
            assert value == multi_slit_intensity(layout, ScreenPoint(theta), convention)

    @settings(max_examples=60, deadline=None)
    @given(
        layouts=st.lists(
            st.builds(
                SlitGeometry.evenly_spaced,
                st.integers(2, 12),
                st.floats(min_value=5e-7, max_value=2e-5),
                _WAVELENGTHS,
                st.just(1.0),
            ),
            min_size=1, max_size=12,
        ),
        data=st.data(),
        convention=st.sampled_from(PHASE_CONVENTIONS),
    )
    def test_rows_equal_the_scalar_calls_within_rounding_on_shared_baselines(self, layouts, data, convention):
        # the one-layout kernel sums a shared baseline once, times its count; the stack sums every pair
        thetas = np.array(data.draw(st.lists(st.floats(-1.2, 1.2), min_size=len(layouts), max_size=len(layouts))))
        values = multi_slit_intensity(layouts, thetas, convention)
        for value, layout, theta in zip(values, layouts, thetas):
            assert abs(value - multi_slit_intensity(layout, ScreenPoint(theta), convention)) <= 1e-12

    def test_length_mismatch_and_empty_stack(self):
        layouts = [SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0) for n in (2, 3)]
        with pytest.raises(ValueError, match="2 stacked layouts need 2 angles, got shape"):
            multi_slit_intensity(layouts, np.zeros(3))
        with pytest.raises(ValueError, match="phase convention"):
            multi_slit_intensity(layouts, np.zeros(2), "full")
        assert multi_slit_intensity([], np.zeros(0)).shape == (0,)

    def test_cosine_sum_gives_an_f_ordered_table_the_c_order_result(self, rng):
        # numpy sums the rows of an F-ordered table in another order; pair_phase's stacks come out F-ordered
        phases = rng.uniform(0.0, 1e3, size=(64, 45))
        expected = fringe._cosine_sum(phases.copy(), 10)
        assert np.array_equal(fringe._cosine_sum(np.asfortranarray(phases), 10), expected)


@st.composite
def _mirror_grids(draw):
    """An angle grid of a kind the mirror rule meets, and whether it is exactly antisymmetric."""
    kind = draw(st.sampled_from(("linspace", "one-sided", "antisymmetric", "ulp-apart")))
    size = draw(st.integers(1, 41))
    width = draw(st.floats(0.01, 1.5))
    if kind == "linspace":
        return np.linspace(-width, width, size), False
    if kind == "one-sided":
        return np.linspace(draw(st.floats(0.0, width / 2)), width, size), False
    if kind == "ulp-apart":
        grid = np.linspace(-width, width, size)
        return np.unique(np.concatenate([grid, np.nextafter(grid, np.inf)])), False
    half = np.unique(draw(st.lists(st.floats(0.0, width, exclude_min=True), min_size=1, max_size=20)))
    middle = [0.0] if draw(st.booleans()) else []
    return np.concatenate([-half[::-1], middle, half]), True


class TestMirrorRows:
    """A row copied from its mirror row is the row evaluated on its own, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        layout=st.one_of(
            st.builds(
                SlitGeometry.evenly_spaced,
                st.integers(2, 12),
                st.floats(min_value=5e-7, max_value=2e-5),
                _WAVELENGTHS,
                st.just(1.0),
            ),
            st.builds(SlitGeometry, _irregular_layouts(12), _WAVELENGTHS, st.just(1.0)),
        ),
        grid=_mirror_grids(),
        convention=st.sampled_from(PHASE_CONVENTIONS),
        choice=st.sampled_from(TRANSMITTED_CHOICES),
        i0=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_every_row_equals_its_one_angle_profile(self, layout, grid, convention, choice, i0):
        grid, antisymmetric = grid
        profile = intensity_profile(layout, grid, convention, choice, i0=i0).intensities
        alone = [intensity_profile(layout, [theta], convention, choice, i0=i0).intensities[0] for theta in grid]
        assert np.array_equal(profile, alone)
        if antisymmetric:
            assert np.array_equal(profile, profile[::-1])

    @staticmethod
    def _rows_evaluated(monkeypatch, layout, grid) -> int:
        rows, cosine_sum = [], fringe._cosine_sum

        def counting(phases, *args):
            rows.append(phases.shape[0])
            return cosine_sum(phases, *args)

        monkeypatch.setattr(fringe, "_cosine_sum", counting)
        intensity_profile(layout, grid)
        return sum(rows)

    def test_a_symmetric_grid_evaluates_each_exact_mirror_pair_once(self, monkeypatch):
        positions = np.sort(np.random.default_rng(7).uniform(-6e-5, 6e-5, 64))
        layout = SlitGeometry(tuple(positions), 5e-7, 1.0)
        grid = np.linspace(-0.3, 0.3, 20001)
        k = np.abs(2.0 * np.pi * np.sin(grid) / layout.wavelength)
        second_half = np.arange(grid.size) > (grid.size - 1) / 2
        mirrored = int(np.count_nonzero(second_half & (k == k[::-1])))
        evaluated = self._rows_evaluated(monkeypatch, layout, grid)
        assert evaluated == grid.size - mirrored
        assert evaluated < 0.85 * grid.size

    def test_a_one_sided_grid_evaluates_every_row(self, monkeypatch):
        positions = np.sort(np.random.default_rng(7).uniform(-6e-5, 6e-5, 64))
        grid = np.linspace(0.05, 0.3, 2001)
        assert self._rows_evaluated(monkeypatch, SlitGeometry(tuple(positions), 5e-7, 1.0), grid) == grid.size


def _distinct_baselines(layout) -> int:
    pos = np.asarray(layout.slit_positions)
    i, j = np.triu_indices(pos.size, 1)
    return np.unique(pos[j] - pos[i]).size


class TestRowBlocks:
    """Each row is summed in one order in one block, so no block size changes a bit of a profile."""

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.one_of(
            st.builds(
                SlitGeometry.evenly_spaced,
                st.integers(2, 40),
                st.floats(min_value=5e-7, max_value=2e-5),
                _WAVELENGTHS,
                st.just(1.0),
            ),
            st.builds(SlitGeometry, _irregular_layouts(40), _WAVELENGTHS, st.just(1.0)),
        ),
        grid=_mirror_grids(),
        convention=st.sampled_from(PHASE_CONVENTIONS),
        choice=st.sampled_from(TRANSMITTED_CHOICES),
    )
    def test_profile_is_bit_identical_whatever_the_block_size(self, layout, grid, convention, choice):
        grid = grid[0]
        default = intensity_profile(layout, grid, convention, choice).intensities
        for rows in (1, 3):  # one row's cells, then a few rows' cells, per block
            with mock.patch.object(fringe, "_BLOCK_CELLS", rows * _distinct_baselines(layout)):
                assert np.array_equal(intensity_profile(layout, grid, convention, choice).intensities, default)


class TestPooledRowBlocks:
    """The row blocks of one profile run on ``_workers`` threads; the bytes do not depend on how many."""

    _IRREGULAR = SlitGeometry(tuple(np.sort(np.random.default_rng(7).uniform(-6e-5, 6e-5, 64))), 5e-7, 1.0)
    _EVEN = SlitGeometry.evenly_spaced(64, 2e-6, 5e-7, 1.0)

    @staticmethod
    def _threads_of_blocks(monkeypatch, workers: int | None = None) -> list[int]:
        """Force ``workers`` threads (None: the sizing function's own) and record each block's thread.

        Each thread's first block waits until every forced worker holds one, so with at least as many blocks as
        workers, every worker, the caller's thread among them, runs a block.
        """
        idents, cosine_sum = [], fringe._cosine_sum
        barrier = threading.Barrier(workers or 1, timeout=10)  # a worker that never comes breaks it, not hangs

        def recording(*args):
            ident = threading.get_ident()
            if ident not in idents:  # only this thread appends its ident
                barrier.wait()
            idents.append(ident)  # list.append holds the GIL, so no record is lost
            return cosine_sum(*args)

        monkeypatch.setattr(fringe, "_cosine_sum", recording)
        if workers is not None:
            monkeypatch.setattr(fringe, "_workers", lambda blocks: workers)
        return idents

    @pytest.mark.parametrize(
        "layout,grid",
        [
            (_EVEN, np.linspace(-0.3, 0.3, 6001)),  # 137 baselines: 4 blocks
            (_IRREGULAR, np.linspace(-0.3, 0.3, 2001)),  # 2,016 baselines: 16 blocks, 18% of rows mirrored
            (_IRREGULAR, np.linspace(0.05, 0.3, 2001)),  # one-sided: every row evaluated
        ],
        ids=["even", "irregular-mirror", "irregular-one-sided"],
    )
    @pytest.mark.parametrize("convention", PHASE_CONVENTIONS)
    def test_profiles_are_bit_equal_on_one_two_and_three_threads(self, monkeypatch, layout, grid, convention):
        profiles = []
        for workers in (1, 2, 3):
            started, start = [], threading.Thread.start
            with monkeypatch.context() as patch:
                idents = self._threads_of_blocks(patch, workers)
                patch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
                profiles.append(intensity_profile(layout, grid, convention).intensities)
            assert len(started) == workers - 1 and not any(thread.is_alive() for thread in started)
            assert len(idents) >= 4 and threading.get_ident() in idents and len(set(idents)) == workers
        assert all(np.array_equal(profile, profiles[0]) for profile in profiles[1:])

    def test_an_error_in_a_block_reaches_the_caller_and_cancels_the_rest(self, monkeypatch, tmp_path):
        calls, cosine_sum = [], fringe._cosine_sum

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("block failed")
            return cosine_sum(*args)

        monkeypatch.setattr(fringe, "_cosine_sum", failing)
        monkeypatch.setattr(fringe, "_workers", lambda blocks: 2)
        monkeypatch.setattr(fringe, "_BLOCK_CELLS", 1)  # one row a block: 20,001 blocks
        config = tmp_path / "config.json"
        config.write_text('{"slit_positions": [-3e-6, 0.5e-6, 2e-6, 7e-6], "samples": 20001}', encoding="utf-8")
        with pytest.raises(RuntimeError, match="block failed"):
            cli.main(["simulate", "--config", str(config), "-o", str(tmp_path / "out.csv")])
        assert len(calls) < 20001 / 2  # the blocks queued behind the failure never ran
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    def test_the_pool_is_capped_whatever_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", mock.Mock(side_effect=AssertionError("thread started")))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(10**6), raising=False)
        assert fringe._workers(10**6) == fringe._MAX_WORKERS
        assert fringe._workers(3) == 3 and fringe._workers(1) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 10**6)
        assert fringe._workers(10**6) == fringe._MAX_WORKERS
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
        assert fringe._workers(10**6) == 1

    def test_one_cpu_runs_the_blocks_on_the_caller_with_no_pool(self, monkeypatch):
        grid = np.linspace(-0.3, 0.3, 2001)
        expected = intensity_profile(self._IRREGULAR, grid).intensities
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", mock.Mock(side_effect=AssertionError("thread started")))
        idents = self._threads_of_blocks(monkeypatch)
        assert np.array_equal(intensity_profile(self._IRREGULAR, grid).intensities, expected)
        assert len(idents) == 16 and set(idents) == {threading.get_ident()}


class TestPairPhaseInvariances:
    """The profile depends on the layout only through its separations and on theta through sin."""

    @settings(max_examples=60, deadline=None)
    @given(
        positions=_lattice_layouts(),
        shift=st.integers(-100, 100),
        wavelength=_WAVELENGTHS,
        convention=st.sampled_from(PHASE_CONVENTIONS),
    )
    def test_translation_by_exact_shift_is_bit_identical(self, positions, shift, wavelength, convention):
        # lattice positions plus whole metres are exact in float64, so every separation is too
        grid = np.linspace(-1.2, 1.2, 61)
        shifted = tuple(a + shift for a in positions)
        assert all(b - a == d - c for a, b, c, d in zip(positions, positions[1:], shifted, shifted[1:]))
        before = intensity_profile(SlitGeometry(positions, wavelength, 1.0), grid, convention, i0=2.0)
        after = intensity_profile(SlitGeometry(shifted, wavelength, 1.0), grid, convention, i0=2.0)
        assert np.array_equal(before.intensities, after.intensities)

    @settings(max_examples=60, deadline=None)
    @given(
        positions=_irregular_layouts(),
        wavelength=_WAVELENGTHS,
        convention=st.sampled_from(PHASE_CONVENTIONS),
        half_width=st.floats(min_value=0.01, max_value=1.5),
        i0=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_mirror_symmetry(self, positions, wavelength, convention, half_width, i0):
        layout = SlitGeometry(positions, wavelength, 1.0)
        mirrored = SlitGeometry(tuple(sorted(-a for a in positions)), wavelength, 1.0)
        grid = np.linspace(-half_width, half_width, 41)
        profile = intensity_profile(layout, grid, convention, i0=i0).intensities
        assert np.max(np.abs(intensity_profile(mirrored, grid, convention, i0=i0).intensities - profile)) <= 1e-12 * i0
        # theta -> -theta on the symmetric grid reverses the profile
        assert np.max(np.abs(intensity_profile(layout, -grid[::-1], convention, i0=i0).intensities - profile[::-1])) <= 1e-12 * i0

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.one_of(
            st.builds(
                SlitGeometry.evenly_spaced,
                st.integers(2, 12),
                st.floats(min_value=5e-7, max_value=2e-5),
                _WAVELENGTHS,
                st.just(1.0),
            ),
            st.builds(SlitGeometry, _irregular_layouts(), _WAVELENGTHS, st.just(1.0)),
        ),
        thetas=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=40, unique=True),
        convention=st.sampled_from(PHASE_CONVENTIONS),
        choice=st.sampled_from(TRANSMITTED_CHOICES),
        i0=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_grouped_kernel_matches_per_pair_sum(self, layout, thetas, convention, choice, i0):
        # evenly spaced layouts share baselines, irregular ones mostly do not
        grid = np.sort(np.asarray(thetas))
        scale = 1.0 if convention == "paper" else 0.5
        n = layout.n_slits
        acc = np.zeros(grid.shape)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                acc += np.cos(2.0 * scale * pair_phase(layout, grid, i, j))
        values = (n + 2.0 * acc) / n**2
        expected = np.clip(i0 * (values if choice == "u" else 1.0 - values), 0.0, i0)
        profile = intensity_profile(layout, grid, convention, choice, i0=i0)
        assert np.max(np.abs(profile.intensities - expected)) <= 1e-12 * i0


class TestProfileInvariants:
    """Transmitted plus absorbed is i0, profiles lie in [0, i0], detection is flat, an SG stage halves
    either share, for any layout."""

    @settings(max_examples=60, deadline=None)
    @given(
        positions=_irregular_layouts(),
        wavelength=_WAVELENGTHS,
        thetas=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=40, unique=True),
        convention=st.sampled_from(PHASE_CONVENTIONS),
        i0=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_u_plus_v_is_i0_and_both_lie_in_range(self, positions, wavelength, thetas, convention, i0):
        layout, grid = SlitGeometry(positions, wavelength, 1.0), np.sort(thetas)
        u_side = intensity_profile(layout, grid, convention, "u", i0=i0).intensities
        v_side = intensity_profile(layout, grid, convention, "v", i0=i0).intensities
        assert np.max(np.abs(u_side + v_side - i0)) <= 1e-12 * i0
        for values in (u_side, v_side):
            assert np.all((values >= 0.0) & (values <= i0))

    @settings(max_examples=60, deadline=None)
    @given(
        positions=_irregular_layouts(),
        wavelength=_WAVELENGTHS,
        thetas=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=40, unique=True),
        convention=st.sampled_from(PHASE_CONVENTIONS),
        choice=st.sampled_from(TRANSMITTED_CHOICES),
        i0=st.floats(min_value=1e-6, max_value=1e6),
        detectors=st.lists(st.integers(0, 7), min_size=1, max_size=4),
    )
    def test_any_detection_is_flat_at_i0_over_n(
        self, positions, wavelength, thetas, convention, choice, i0, detectors
    ):
        n = len(positions)
        detection = tuple(k % n + 1 for k in detectors)
        profile = intensity_profile(
            SlitGeometry(positions, wavelength, 1.0), np.sort(thetas), convention, choice, detection, i0
        )
        assert np.all(profile.intensities == profile.intensities[0])
        assert abs(profile.intensities[0] - i0 / n) <= 1e-12 * i0


    @settings(max_examples=100, deadline=None)
    @given(
        positions=_irregular_layouts(max_slits=2),
        wavelength=_WAVELENGTHS,
        thetas=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=40, unique=True),
        factor=st.sampled_from((1, 2)),
        axis=st.floats(-10.0, 10.0),
        convention=st.sampled_from(PHASE_CONVENTIONS),
        choice=st.sampled_from(TRANSMITTED_CHOICES),
    )
    def test_sg_stage_transmits_half_of_either_invariant_share_at_any_axis(
        self, positions, wavelength, thetas, factor, axis, convention, choice
    ):
        layout, grid = SlitGeometry(positions, wavelength, 1.0), np.sort(thetas)
        states = two_slit_state_at(layout, grid, convention).as_state()
        transmitted = ensemble_transmission(measure_factor(states, factor, axis), choice)
        phi = (1.0 if convention == "paper" else 0.5) * pair_phase(layout, grid, 1, 2)
        expected = (np.cos(phi) if choice == "u" else np.sin(phi)) ** 2 / 2.0
        assert np.max(np.abs(transmitted - expected)) <= 1e-12


class TestDetectAtSlit:
    def test_collapse_at_each_aperture(self):
        for aperture in (1, 2):
            result = detect_at_slit(basis_u(), aperture)
            assert result.aperture == aperture
            assert np.allclose(result.state.vector(), [math.sqrt(0.5), math.sqrt(0.5)])
            assert result.state.is_normalized()

    def test_rejects_singlet(self):
        with pytest.raises(UnsupportedCollapseError):
            detect_at_slit(basis_v(), 1)

    def test_rejects_generic_state(self):
        with pytest.raises(UnsupportedCollapseError):
            detect_at_slit(PairState.from_rotation(0.5).as_state(), 1)

    def test_accepts_state_within_tolerance(self):
        vec = basis_u().vector()
        vec[0] += 1e-12
        result = detect_at_slit(TwoSpinState.from_vector(vec), 2)
        assert result.aperture == 2

    def test_aperture_index_validated(self):
        with pytest.raises(IndexError):
            detect_at_slit(basis_u(), 3)

    @pytest.mark.parametrize("index", [np.array([1]), np.array(1.5), [1]], ids=repr)
    def test_aperture_is_one_number(self, index):
        with pytest.raises(TypeError):
            detect_at_slit(basis_u(), index)


_THREE_SLITS = SlitGeometry.evenly_spaced(3, 2e-6, 500e-9, 1.0)
_INDEX_GRID = np.linspace(-0.2, 0.2, 5)


def _detection(index):
    """The detection a table value names: a tuple or an array as given, a number as the one detector."""
    return index if isinstance(index, (tuple, np.ndarray)) else (index,)


#: Every reader of 1-based slit indices: the call on one index, the slits it reads into, the name its IndexError gives.
_SLIT_INDEX_READERS = {
    "pair_phase i": (lambda index: pair_phase(_THREE_SLITS, _INDEX_GRID, index, 2), 3, "i"),
    "pair_phase j": (lambda index: pair_phase(_THREE_SLITS, _INDEX_GRID, 3, index), 3, "j"),
    "pair_phase point": (lambda index: pair_phase(_THREE_SLITS, ScreenPoint(0.1), index, 3), 3, "i"),
    "subtended_angle": (lambda index: subtended_angle(_THREE_SLITS, ScreenPoint(0.1), 2, index), 3, "j"),
    "detection": (
        lambda index: intensity_profile(_THREE_SLITS, _INDEX_GRID, detection=_detection(index)).intensities, 3,
        "detection",
    ),
    "config detection": (
        lambda index: SimulationConfig(slit_count=3, detection=_detection(index)).validate()[1], 3, "detection"
    ),
    "detect_at_slit": (lambda index: detect_at_slit(basis_u(), index), 2, "i"),
}


class TestSlitIndexReaders:
    """One rule for every 1-based slit index: an exact integer in 1..n, whatever reads it."""

    @pytest.mark.parametrize("reader", _SLIT_INDEX_READERS)
    @pytest.mark.parametrize("index", [1, np.int64(1), 1.0, np.float64(1.0)], ids=repr)
    def test_an_integral_number_reads_as_the_int(self, reader, index):
        read = _SLIT_INDEX_READERS[reader][0]
        expected, result = read(1), read(index)
        assert type(result) is type(expected)
        if reader == "detect_at_slit":
            assert type(result.aperture) is int
            assert result == expected
        else:
            assert np.array_equal(result, expected)

    @pytest.mark.parametrize("reader", ["pair_phase i", "pair_phase j", "pair_phase point", "detection",
                                        "config detection"])
    @pytest.mark.parametrize(
        "index", [np.array([1, 1]), np.array([[1]], dtype=np.uint8), np.array([1.0, 1.0]), [1, 1.0]], ids=repr
    )
    def test_an_index_array_reads_entry_by_entry(self, reader, index):
        read = _SLIT_INDEX_READERS[reader][0]
        expected = read(1)
        if reader.startswith("pair_phase"):  # one column per index
            expected = np.multiply.outer(expected, np.ones(np.shape(index)))
        assert np.array_equal(read(index), expected)

    def test_an_integer_array_passes_unchanged(self):
        for index in (np.array([1, 3, 2]), np.array([[2]], dtype=np.uint8)):
            assert _slit_indices(index, 3, "i") is index

    @pytest.mark.parametrize("reader", _SLIT_INDEX_READERS)
    @pytest.mark.parametrize("index", [True, np.True_, 1.5, "1", (2, True)], ids=repr)
    def test_a_bool_fraction_or_non_number_raises_type_error(self, reader, index):
        read = _SLIT_INDEX_READERS[reader][0]
        if reader == "config detection":
            with pytest.raises(ConfigError) as excinfo:
                read(index)
            assert excinfo.value.field == "detection"
        else:
            with pytest.raises(TypeError):
                read(index)

    @pytest.mark.parametrize("reader", _SLIT_INDEX_READERS)
    @pytest.mark.parametrize("past", [False, True])
    def test_an_index_outside_the_slits_names_its_reader(self, reader, past):
        read, n, name = _SLIT_INDEX_READERS[reader]
        bad = n + 1 if past else 0
        message = f"slit index {name}={bad} out of range 1..{n}"
        if reader == "config detection":
            message = f"^detection: {message}$"
        with pytest.raises(ConfigError if reader == "config detection" else IndexError, match=message):
            read(bad)

    @pytest.mark.parametrize("reader", _SLIT_INDEX_READERS)
    @pytest.mark.parametrize("bad", [10**20, -(10**20), 1e20], ids=repr)
    def test_an_index_past_int64_is_out_of_range(self, reader, bad):
        # read as an int, not cast to int64 first, so it is refused as any other index outside the slits
        read, n, name = _SLIT_INDEX_READERS[reader]
        message = f"slit index {name}={int(bad)} out of range 1..{n}"
        if reader == "config detection":
            message = f"^detection: {message}$"
        with pytest.raises(ConfigError if reader == "config detection" else IndexError, match=message):
            read(bad)
        if reader != "detect_at_slit":  # one detector: a number, not an array
            with pytest.raises(ConfigError if reader == "config detection" else IndexError, match=message):
                read((1, bad))

    @pytest.mark.parametrize("reader", ["pair_phase i", "detection", "config detection"])
    def test_an_index_too_long_to_print_is_out_of_range(self, reader):
        read, n, name = _SLIT_INDEX_READERS[reader]
        message = re.escape(f"slit index {name}=<int too long to show> out of range 1..{n}")
        with pytest.raises(ConfigError if reader == "config detection" else IndexError, match=message):
            read((10**5000,))


def _layout_and_grid(checked):
    """``validate()``'s (layout, grid) as plain values, so that a comparison sees the types too."""
    layout, grid = checked
    return layout.slit_positions, layout.wavelength, layout.screen_distance, grid


def _config_reader(field):
    """``SimulationConfig(...).validate()`` with ``field`` set from a value; positions take it as slit 2."""
    def read(value):
        fields = {"theta_max": 1.5} if field == "theta_min" else {}  # so theta_min = 1 stays below theta_max
        fields[field] = value
        if field == "slit_positions":
            fields.update(slit_positions=(0.0, value), slit_count=None, separation=None)
        return _layout_and_grid(SimulationConfig(samples=11, **fields).validate())
    return read


def _merge_reader(field):
    """``merge_overrides`` of one file or flag value into ``field``; positions take it as slit 2."""
    return lambda value: getattr(
        merge_overrides(default_config(), {field: [0.0, value] if field == "slit_positions" else value}), field
    )


_NUMBER_FIELDS = ("wavelength", "screen_distance", "separation", "theta_min", "theta_max", "i0", "slit_positions")

#: Every reader of a real number: the call on one value and the field its ConfigError names (None: a TypeError).
_NUMBER_READERS = {
    "SlitGeometry position": (lambda value: SlitGeometry((0.0, value), 5e-7, 1.0).slit_positions, "slit_positions"),
    "SlitGeometry wavelength": (lambda value: SlitGeometry((0.0, 1e-6), value, 1.0).wavelength, "wavelength"),
    "SlitGeometry screen_distance": (
        lambda value: SlitGeometry((0.0, 1e-6), 5e-7, value).screen_distance, "screen_distance"
    ),
    "evenly_spaced separation": (
        lambda value: SlitGeometry.evenly_spaced(2, value, 5e-7, 1.0).slit_positions, "separation"
    ),
    "FringeProfile i0": (lambda value: FringeProfile(np.array([0.0]), np.array([0.5]), i0=value).i0, "i0"),
    "intensity_profile i0": (
        lambda value: (lambda profile: (profile.i0, profile.intensities))(
            intensity_profile(_THREE_SLITS, _INDEX_GRID, i0=value)), "i0"
    ),
    "ScreenPoint": (lambda value: ScreenPoint(value).theta, None),
    "intensity_profile grid": (lambda value: intensity_profile(_THREE_SLITS, [value]).intensities, None),
    **{f"config {field}": (_config_reader(field), field) for field in _NUMBER_FIELDS},
    **{f"merge {field}": (_merge_reader(field), field) for field in _NUMBER_FIELDS},
}


def _same(result, expected) -> bool:
    """Equal values of equal types, entry by entry; arrays of one dtype."""
    if isinstance(expected, tuple):
        return type(result) is tuple and len(result) == len(expected) and all(map(_same, result, expected))
    if isinstance(expected, np.ndarray):
        return type(result) is np.ndarray and result.dtype == expected.dtype and np.array_equal(result, expected)
    return type(result) is type(expected) and result == expected


#: Values no reader takes: bools (numpy's too), strings, None, a complex and an integer past the float range.
_NOT_NUMBERS = [True, np.True_, "1", b"1", None, np.complex128(1), 10**400]


class TestNumberReaders:
    """One rule for every real number, whatever reads it: ``geometry._number``'s."""

    @pytest.mark.parametrize("reader", _NUMBER_READERS)
    @pytest.mark.parametrize("value", [1, np.int64(1), np.float64(1.0)], ids=repr)
    def test_a_number_reads_as_its_float(self, reader, value):
        read = _NUMBER_READERS[reader][0]
        assert _same(read(value), read(1.0))

    @pytest.mark.parametrize(
        "reader,value",
        [
            (reader, value)
            for reader in _NUMBER_READERS
            for value in _NOT_NUMBERS
            # a None override leaves a field as it is, and separation=None leaves out the count form
            if not (value is None and (reader.startswith("merge") and reader != "merge slit_positions"
                                       or reader == "config separation"))
        ],
        ids=repr,
    )
    def test_a_non_number_names_its_field(self, reader, value):
        read, field = _NUMBER_READERS[reader]
        with pytest.raises(TypeError if field is None else ConfigError) as excinfo:
            read(value)
        if field is not None:
            assert excinfo.value.field == field

    @pytest.mark.parametrize(
        "fields,field",
        [
            ({"wavelength": "5e-7"}, "wavelength"),
            ({"screen_distance": None}, "screen_distance"),
            ({"separation": "2e-6"}, "separation"),
            ({"i0": "2"}, "i0"),
            ({"theta_min": "-0.3"}, "theta_min"),
            ({"slit_positions": (False, True), "slit_count": None, "separation": None}, "slit_positions"),
            ({"slit_positions": ("0", "1e-6"), "slit_count": None, "separation": None}, "slit_positions"),
        ],
        ids=repr,
    )
    def test_a_hand_built_config_names_its_field(self, fields, field):
        # read by the model's own checks, which name the field; (False, True) must not read as slits at 0 and 1 m
        with pytest.raises(ConfigError) as excinfo:
            SimulationConfig(**fields).validate()
        assert excinfo.value.field == field

    @pytest.mark.parametrize("grid", [np.array([0.1, 0.2], dtype=complex), np.array(["0.1", "0.2"]),
                                      np.array([False, True]), [0.1, None],
                                      # numpy would read these bools as 1.0 and 1 among numbers
                                      [0.0, True], (0, np.True_)], ids=repr)
    def test_a_grid_of_non_numbers_raises_type_error(self, grid):
        with pytest.raises(TypeError, match="theta must be real"):
            intensity_profile(_THREE_SLITS, grid)
        with pytest.raises(TypeError, match="theta must be real"):
            FringeProfile(grid, np.full(len(grid), 0.5))


class TestSternGerlachStage:
    """The stage reads its own fields by the number rules, so a bad one fails where the stage is built."""

    @pytest.mark.parametrize("fields", [(1, "0.3"), (1, True), (1, np.True_), ("x", None), (True, 0.0), (1.5, 0.0)],
                             ids=repr)
    def test_a_bad_field_raises_type_error_at_construction(self, fields):
        with pytest.raises(TypeError):
            SternGerlachStage(*fields)

    @pytest.mark.parametrize("fields,expected", [((1.0, np.float64(0.3)), (1, 0.3)), ((np.int64(2), 1), (2, 1.0))],
                             ids=repr)
    def test_fields_read_as_int_and_float(self, fields, expected):
        stage = SternGerlachStage(*fields)
        assert (stage.factor, stage.axis_angle) == expected
        assert (type(stage.factor), type(stage.axis_angle)) == (int, float)

    def test_the_factor_range_is_the_measurements_check(self):
        # any whole factor constructs; measure_factor refuses one that is not 1 or 2, as for a config's probe
        stage = SternGerlachStage(3)
        with pytest.raises(ValueError, match="factor must be 1 or 2, got 3"):
            intensity_profile(SlitGeometry((-1e-6, 1e-6), 5e-7, 1.0), [0.0], stage=stage)


class TestMeasureFactor:
    def test_singlet_anticorrelation(self):
        ensemble = measure_factor(basis_v(), 1, 0.0)
        outcomes = {tuple(np.round(s.vector(), 12)): w for w, s in ensemble.entries}
        assert outcomes[(0, 1, 0, 0)] == pytest.approx(0.5)
        assert outcomes[(0, 0, -1, 0)] == pytest.approx(0.5)

    def test_u_correlation(self):
        ensemble = measure_factor(basis_u(), 1, 0.0)
        outcomes = {tuple(np.round(s.vector(), 12)): w for w, s in ensemble.entries}
        assert outcomes[(1, 0, 0, 0)] == pytest.approx(0.5)
        assert outcomes[(0, 0, 0, 1)] == pytest.approx(0.5)

    def test_generic_state_matches_projector_oracle(self, rng):
        for _ in range(300):
            phi = rng.uniform(-10, 10)
            factor = int(rng.integers(1, 3))
            axis = rng.uniform(-math.pi, math.pi)
            state = PairState.from_rotation(phi).as_state()
            ensemble = measure_factor(state, factor, axis)
            expected = [
                (w, branch / math.sqrt(w))
                for w, branch in projector_oracle(state.vector(), factor, axis)
                if w > 1e-14
            ]
            assert len(ensemble.entries) == len(expected)
            for (w, entry), (w_ref, vec_ref) in zip(ensemble.entries, expected):
                assert abs(w - w_ref) <= 1e-12
                assert np.max(np.abs(entry.vector() - vec_ref)) <= 1e-12
                assert entry.is_normalized()

    def test_collapsed_states_from_mixed_state(self):
        phi = 0.8
        ensemble = measure_factor(PairState.from_rotation(phi).as_state(), 1, 0.0)
        expected_plus = np.array([math.cos(phi), -math.sin(phi), 0, 0])
        expected_minus = np.array([0, 0, math.sin(phi), math.cos(phi)])
        vectors = [entry.vector() for _, entry in ensemble.entries]
        assert np.allclose(vectors[0], expected_plus, atol=1e-12)
        assert np.allclose(vectors[1], expected_minus, atol=1e-12)
        assert [w for w, _ in ensemble.entries] == pytest.approx([0.5, 0.5])

    def test_repeat_measurement_idempotent(self):
        ensemble = measure_factor(PairState.from_rotation(0.4).as_state(), 2, 0.3)
        for _, entry in ensemble.entries:
            again = measure_factor(entry, 2, 0.3)
            assert len(again.entries) == 1
            weight, repeated = again.entries[0]
            assert weight == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(repeated.vector() - entry.vector())) <= 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            measure_factor(TwoSpinState((0, 0, 0, 0)), 1, 0.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            measure_factor(TwoSpinState((1, 0, 0, 1)), 1, 0.0)

    def test_factor_validated(self):
        with pytest.raises(ValueError, match="factor"):
            measure_factor(basis_u(), 3, 0.0)

    @pytest.mark.parametrize("factor", (True, False, np.True_))
    def test_bool_factor_rejected(self, factor):
        # True == 1, so only a type check keeps a bool from being read as factor 1, as config rejects it
        for state in (basis_u(), basis_u().vector()[None, :]):
            with pytest.raises(ValueError, match=f"factor must be 1 or 2, got {factor}"):
                measure_factor(state, factor, 0.0)

    @pytest.mark.parametrize("axis", ([0.1, 0.2], [0.1], [[0.3]]))
    def test_array_axis_with_a_single_state_rejected(self, axis):
        # the same error apply_pair gives, raised before the contraction, not numpy's ambiguous truth value
        for factor in (1, 2):
            with pytest.raises(ValueError, match=r"a TwoSpinState takes scalar angles, got angles of shape \("):
                measure_factor(basis_u(), factor, np.array(axis))
        weights, states = measure_factor(basis_u().vector(), 1, np.array(axis))
        assert weights.shape == np.shape(axis) + (2,) and states.shape == np.shape(axis) + (2, 4)

    def test_zero_d_axis_measures_as_the_float(self):
        state = PairState.from_rotation(0.7).as_state()
        for factor in (1, 2):
            assert measure_factor(state, factor, np.array(0.3)) == measure_factor(state, factor, 0.3)

    @pytest.mark.parametrize(
        "bad_row,message",
        [([math.nan, 0, 0, 0], "normalized"), ([1, 0, 0, 1], "normalized"), ([0, 0, 0, 0], "zero-norm")],
    )
    def test_one_bad_row_rejects_the_stack(self, bad_row, message):
        stack = np.array([basis_u().vector(), basis_v().vector(), bad_row])
        with pytest.raises(ValueError, match=message):
            measure_factor(stack, 1, 0.0)
        weights, states = measure_factor(stack[:2], 1, 0.0)
        assert weights.shape == (2, 2) and states.shape == (2, 2, 4)

    def test_norm_within_input_tolerance_measured_by_both_forms(self):
        # norm^2 = 1 + 1e-10 passes the 1e-9 input check; the weights must still sum to 1
        vector = math.sqrt(1.0 + 1e-10) * PairState.from_rotation(0.3).as_state().vector()
        state = TwoSpinState.from_vector(vector)
        assert abs(state.norm2() - 1.0 - 1e-10) <= 1e-15
        for factor in (1, 2):
            ensemble = measure_factor(state, factor, 0.4)
            weights, branches = measure_factor(vector[None, :], factor, 0.4)
            assert abs(sum(w for w, _ in ensemble.entries) - 1.0) <= 1e-12
            assert abs(weights.sum() - 1.0) <= 1e-12
            for w, branch, (w_ref, entry) in zip(weights[0], branches[0], ensemble.entries):
                assert abs(w - w_ref) <= 1e-12
                assert np.max(np.abs(branch - entry.vector())) <= 1e-12

    def test_basis_state_measurement_single_branch(self):
        ensemble = measure_factor(TwoSpinState((1, 0, 0, 0)), 1, 0.0)
        assert len(ensemble.entries) == 1
        assert ensemble.entries[0][0] == pytest.approx(1.0)


class TestEnsembleTransmission:
    def test_pure_u_transmits(self):
        assert ensemble_transmission(Ensemble(((1.0, basis_u()),)), "u") == pytest.approx(1.0)

    def test_post_measurement_attenuation(self, rng):
        # after measuring one factor, transmission halves: cos(phi)^2 / 2
        u = basis_u().vector()
        for phi in rng.uniform(-10, 10, size=300):
            state = PairState.from_rotation(phi).as_state()
            ensemble = measure_factor(state, 1, 0.0)
            value = ensemble_transmission(ensemble, "u")
            assert abs(value - math.cos(phi) ** 2 / 2) <= 1e-12
            reference = density_matrix_transmission(state.vector(), 1, 0.0, u)
            assert abs(value - reference) <= 1e-12

    def test_axis_angle_does_not_change_transmission(self, rng):
        # u and v are invariant under equal rotations, so the measurement
        # axis drops out of the transmitted weight
        for _ in range(100):
            phi = rng.uniform(-10, 10)
            state = PairState.from_rotation(phi).as_state()
            baseline = ensemble_transmission(measure_factor(state, 1, 0.0), "u")
            rotated = ensemble_transmission(
                measure_factor(state, 1, rng.uniform(-math.pi, math.pi)), "u"
            )
            assert abs(baseline - rotated) <= 1e-12

    def test_product_mixture_absorbed_half(self):
        mixture = Ensemble(
            ((0.5, TwoSpinState((0, 1, 0, 0))), (0.5, TwoSpinState((0, 0, 1, 0))))
        )
        # projector arithmetic: |<v|+->|^2 = |<v|-+>|^2 = 1/2
        assert ensemble_transmission(mixture, "v") == pytest.approx(0.5)

    def test_spinor_entries_rejected(self):
        mixed = Ensemble(((0.5, basis_u()), (0.5, Spinor(1.0, 0.0))))
        with pytest.raises(ValueError, match="two-spin"):
            ensemble_transmission(mixed, "u")


def _bounded(shape, bound):
    return hnp.arrays(np.float64, shape, elements=st.floats(-bound, bound))


class TestStackedForms:
    """Each row of a stacked measurement or grid state equals the scalar call on that row."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
        factor=st.sampled_from([1, 2]),
        axis_form=st.sampled_from(["scalar", "full", "trailing"]),
    )
    def test_measurement_rows_match_scalar_calls(self, data, shape, factor, axis_form):
        phi = data.draw(_bounded(shape, 20.0))
        axis_shape = {"scalar": (), "full": shape, "trailing": shape[-1:]}[axis_form]
        axis = data.draw(_bounded(axis_shape, math.pi))
        # product-state rows |++> lose a branch when the axis is 0
        product = data.draw(hnp.arrays(bool, shape))
        states = PairState.from_rotation(phi).as_state()
        states[product] = TwoSpinState((1, 0, 0, 0)).vector()

        weights, branches = measure_factor(states, factor, axis)
        assert weights.shape == shape + (2,) and branches.shape == shape + (2, 4)
        transmitted = {c: ensemble_transmission((weights, branches), c) for c in TRANSMITTED_CHOICES}
        assert all(values.shape == shape for values in transmitted.values())
        axes = np.broadcast_to(axis, shape)
        for k in np.ndindex(shape):
            ensemble = measure_factor(TwoSpinState.from_vector(states[k]), factor, float(axes[k]))
            kept = weights[k] > 0
            assert np.all(branches[k][~kept] == 0)
            assert kept.sum() == len(ensemble.entries)
            for w, branch, (w_ref, entry) in zip(weights[k][kept], branches[k][kept], ensemble.entries):
                assert abs(w - w_ref) <= 1e-12
                assert np.max(np.abs(branch - entry.vector())) <= 1e-12
            for choice, values in transmitted.items():
                assert abs(values[k] - ensemble_transmission(ensemble, choice)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
        convention=st.sampled_from(PHASE_CONVENTIONS),
        separation=st.floats(min_value=5e-7, max_value=5e-6),
        wavelength=st.floats(min_value=2e-7, max_value=8e-7),
    )
    def test_grid_states_equal_screen_point_calls(self, data, shape, convention, separation, wavelength):
        layout = SlitGeometry.evenly_spaced(2, separation, wavelength, 1.0)
        thetas = data.draw(_bounded(shape, 1.2))
        grid = two_slit_state_at(layout, thetas, convention)
        amplitudes = grid.as_state()
        assert grid.phi.shape == grid.c_u.shape == grid.c_v.shape == shape
        assert amplitudes.shape == shape + (4,)
        for k in np.ndindex(shape):
            point = two_slit_state_at(layout, ScreenPoint(thetas[k]), convention)
            assert (grid.phi[k], grid.c_u[k], grid.c_v[k]) == (point.phi, point.c_u, point.c_v)
            assert np.array_equal(amplitudes[k], point.as_state().vector())

    def test_scalar_calls_keep_their_types(self, two_slit):
        point = two_slit_state_at(two_slit, ScreenPoint(0.1))
        rotated = PairState.from_rotation(0.3)
        for state in (point, rotated):
            assert all(type(x) is float for x in (state.phi, state.c_u, state.c_v))
            assert isinstance(state.as_state(), TwoSpinState)
        ensemble = measure_factor(rotated.as_state(), 2, 0.4)
        assert isinstance(ensemble, Ensemble)
        assert type(ensemble_transmission(ensemble, "v")) is float


def _unit_rows(rng, shape, dtype=complex):
    parts = rng.normal(size=(2,) + shape + (4,))
    rows = parts[0] + 1j * parts[1] if dtype is complex else parts[0]
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _bits(values):
    """An array's float64 bit patterns, which tell -0.0 from 0.0 where ``array_equal`` cannot."""
    return np.ascontiguousarray(values).view(np.uint64)


def _broadcast_branches(amps, factor, axis):
    """measure_factor's (..., 2, 4) branches as broadcast products of (2, 2, 1) basis terms and (..., 1, 1, 2)
    amplitude slices form them, in the same term order: the measurement's reference form on every layout."""
    cols, grid = np.swapaxes(rotation_matrix(axis), -1, -2), amps.reshape(amps.shape[:-1] + (2, 2))
    if factor == 1:
        terms = [(cols[..., :, :, None] * cols[..., :, j, None, None]) * grid[..., None, None, j, :] for j in (0, 1)]
    else:
        terms = [(cols[..., :, None, :] * cols[..., :, j, None, None]) * grid[..., None, :, j, None] for j in (0, 1)]
    branches = (0.0 + terms[0]) + terms[1]
    return branches.reshape(branches.shape[:-2] + (4,))


def _renormalized(branches, amps):
    """``(weights, states)`` from (..., 2, 4) branches: |branch|^2 by ``np.sum``, then the documented cut-off."""
    raw = np.sum(np.abs(branches) ** 2, axis=-1)
    weights = raw / np.sum(np.abs(amps) ** 2, axis=-1)[..., None]
    kept = weights > fringe._WEIGHT_CUTOFF
    return weights * kept, branches / np.sqrt(raw * kept + ~kept)[..., None] * kept[..., None]


class TestEinsumTermOrder:
    """The written-out 2x2 sums add their terms in the order of the einsum forms kept here as the reference.

    The rounding of a sum depends on the order of its terms, and the output
    bytes rest on these sums, so complex128 stacks must match bit for bit.
    """

    PAIR_SPEC = "...ij,...kl,...jl->...ik"
    MEASURE_SPECS = {1: "...ik,...jk,...jl->...kil", 2: "...lk,...jk,...ij->...kil"}
    # (alpha, beta, stack) shapes that the program passes: scalar angles, (m,) rows, (m, 1) angles over a 2-row
    # stack, a scalar angle beside an (m,) one, and a grid.  einsum's own order is not fixed across all layouts:
    # on an (m, 1) by (m,) outer broadcast, which no caller makes, about half its sums differ in the last bit
    SHAPES = [
        ((), (), ()),
        ((), (), (50,)),
        ((50,), (50,), (50,)),
        ((50, 1), (50, 1), (2,)),
        ((), (50,), (50,)),
        ((50,), (), (50,)),
        ((2, 2, 2), (2, 2, 2), (2, 2, 2)),
    ]

    def _angles(self, rng, *shapes):
        return [rng.uniform(-10, 10, size=shape or None) for shape in shapes]

    def _einsum_pair(self, alpha, beta, amps):
        grid = amps.reshape(amps.shape[:-1] + (2, 2))
        moved = np.einsum(self.PAIR_SPEC, rotation_matrix(alpha), rotation_matrix(beta), grid)
        return moved.reshape(moved.shape[:-2] + (4,))

    @pytest.mark.parametrize("alpha_shape,beta_shape,stack_shape", SHAPES)
    def test_apply_pair_on_complex_stacks_equals_einsum(self, rng, alpha_shape, beta_shape, stack_shape):
        alpha, beta = self._angles(rng, alpha_shape, beta_shape)
        amps = _unit_rows(rng, stack_shape)
        moved = apply_pair((alpha, beta), amps)
        assert moved.dtype == complex and np.array_equal(moved, self._einsum_pair(alpha, beta, amps))
        if not stack_shape and not alpha_shape and not beta_shape:
            state = apply_pair((alpha, beta), TwoSpinState.from_vector(amps))
            assert np.array_equal(state.vector(), moved)

    @pytest.mark.parametrize("alpha_shape,beta_shape,stack_shape", SHAPES)
    def test_apply_pair_on_real_stacks_within_an_ulp_pair(self, rng, alpha_shape, beta_shape, stack_shape):
        # einsum's float64 loop may pair the terms, (t00 + t01) + (t10 + t11), where the written-out sum adds in turn
        alpha, beta = self._angles(rng, alpha_shape, beta_shape)
        amps = _unit_rows(rng, stack_shape, float)
        moved = apply_pair((alpha, beta), amps)
        expected = self._einsum_pair(alpha, beta, amps)
        assert moved.dtype == expected.dtype == float and moved.shape == expected.shape
        assert np.max(np.abs(moved - expected)) <= 4e-16

    def test_sums_start_from_zero_as_einsum_does(self):
        # einsum adds into a zeroed output, so a sum of negative zeros is +0.0; array_equal cannot tell -0.0 from 0.0
        signed = np.full((1, 4), complex(-0.5, -0.0))  # each product's imaginary part is -0.0
        assert np.array_equal(_bits(apply_pair((0.0, 0.0), signed)), _bits(self._einsum_pair(0.0, 0.0, signed)))
        for factor in (1, 2):
            branches = np.einsum(self.MEASURE_SPECS[factor], *[rotation_matrix(0.0)] * 2, signed.reshape(1, 2, 2))
            _, states = measure_factor(signed, factor, 0.0)
            assert np.array_equal(_bits(states), _bits(branches.reshape(1, 2, 4) / math.sqrt(0.5)))

    @pytest.mark.parametrize("factor", (1, 2))
    @pytest.mark.parametrize("axis_shape,stack_shape", [((), ()), ((), (50,)), ((50,), (50,)), ((50,), ()),
                                                        ((50, 1), (2,)), ((2, 2, 2), (2, 2, 2))])
    def test_measure_factor_equals_einsum(self, rng, factor, axis_shape, stack_shape):
        (axis,) = self._angles(rng, axis_shape)
        amps = _unit_rows(rng, stack_shape)
        branches = self._einsum_measure(amps, factor, axis)
        raw = np.sum(np.abs(branches) ** 2, axis=-1)
        weights, states = measure_factor(amps, factor, axis)
        assert np.all(raw > 0)  # so no branch is dropped and each state is its branch over its norm
        assert np.array_equal(_bits(weights), _bits(raw / np.sum(np.abs(amps) ** 2, axis=-1)[..., None]))
        assert np.array_equal(_bits(states), _bits(branches / np.sqrt(raw)[..., None]))
        for got, expected in zip((weights, states), _renormalized(_broadcast_branches(amps, factor, axis), amps)):
            assert np.array_equal(_bits(got), _bits(expected))

    def _einsum_measure(self, amps, factor, axis):
        basis = rotation_matrix(axis)
        branches = np.einsum(self.MEASURE_SPECS[factor], basis, basis, amps.reshape(amps.shape[:-1] + (2, 2)))
        return branches.reshape(branches.shape[:-2] + (4,))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
        factor=st.sampled_from([1, 2]),
        axis_form=st.sampled_from(["scalar", "zero-d", "trailing"]),
    )
    def test_measure_factor_bits_on_drawn_stacks(self, data, shape, factor, axis_form):
        angle = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
        axis = data.draw(hnp.arrays(np.float64, shape[-1:], elements=angle) if axis_form == "trailing" else angle)
        axis = np.array(axis) if axis_form == "zero-d" else axis
        parts = data.draw(hnp.arrays(np.float64, (2,) + shape + (4,), elements=st.floats(-1.0, 1.0)))
        amps = parts[0] + 1j * parts[1]
        # basis-aligned rows, spin + on the measured factor, lose the second branch wherever their axis is 0
        aligned = data.draw(hnp.arrays(bool, shape)) | (np.linalg.norm(amps, axis=-1) < 0.1)
        amps[aligned] = 0.0
        amps[aligned, data.draw(st.sampled_from([0, factor]))] = data.draw(st.sampled_from([1, -1, 1j, -1j]))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)

        weights, states = measure_factor(amps, factor, axis)
        out = np.broadcast_shapes(shape, np.shape(axis))
        assert weights.shape == out + (2,) and states.shape == out + (2, 4)
        for reference in (self._einsum_measure(amps, factor, axis), _broadcast_branches(amps, factor, axis)):
            for got, expected in zip((weights, states), _renormalized(reference, amps)):
                assert np.array_equal(_bits(got), _bits(expected))
        dropped = np.broadcast_to(aligned, out) & (np.broadcast_to(axis, out) == 0.0)
        assert np.all(weights[dropped][:, 1] == 0.0) and np.all(states[dropped][:, 1] == 0.0)
        if not out:  # the TwoSpinState form runs the same columns, 0-d, and keeps the branches that weigh
            ensemble = measure_factor(TwoSpinState.from_vector(amps), factor, float(axis))
            kept = weights > 0.0
            assert [w for w, _ in ensemble.entries] == weights[kept].tolist()
            assert np.array_equal(_bits([entry.vector() for _, entry in ensemble.entries]), _bits(states[kept]))

    def test_four_term_sums_take_the_order_of_np_sum(self, rng):
        # measure_factor writes each |branch|^2 sum out as ((s0 + s1) + s2) + s3, the order numpy 2.4.6's np.sum
        # takes over the last, length-4 axis of a (..., 2, 4) stack; a numpy that sums otherwise fails here by name
        squares = np.abs(_unit_rows(rng, (4000, 2)) * 10.0 ** rng.integers(-6, 7, size=(4000, 2, 4))) ** 2
        s0, s1, s2, s3 = np.moveaxis(squares, -1, 0)
        assert np.array_equal(_bits(((s0 + s1) + s2) + s3), _bits(np.sum(squares, axis=-1)))
        assert not np.array_equal(_bits((s0 + s1) + (s2 + s3)), _bits(np.sum(squares, axis=-1)))  # orders differ here


class TestFringeProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            FringeProfile(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="match"):
            FringeProfile(np.array([0.0, 0.1]), np.array([1.0]))
        with pytest.raises(ValueError, match="\\[0, i0\\]"):
            FringeProfile(np.array([0.0, 0.1]), np.array([0.5, 1.5]), i0=1.0)
        with pytest.raises(ValueError, match="i0"):
            FringeProfile(np.array([0.0]), np.array([0.0]), i0=0.0)
        with pytest.raises(ValueError, match="\\[0, i0\\]"):
            FringeProfile(np.array([0.0, 0.1]), np.array([np.nan, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            FringeProfile(np.array([np.nan]), np.array([0.5]))
        with pytest.raises(ValueError, match="finite"):
            FringeProfile(np.array([0.0, np.inf]), np.array([0.5, 0.5]))

    def test_arrays_read_only(self):
        profile = FringeProfile(np.array([0.0, 0.1]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            profile.intensities[0] = 2.0

    def test_visibility(self):
        profile = FringeProfile(np.array([0.0, 0.1]), np.array([1.0, 0.0]))
        assert profile.visibility() == pytest.approx(1.0)

    def test_an_all_zero_profile_has_visibility_zero(self):
        assert FringeProfile(np.array([0.0, 0.1]), np.zeros(2)).visibility() == 0.0
