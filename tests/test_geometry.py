"""Slit layouts, screen points, incidence angles, and pair phases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfringe import (
    ConfigError,
    ScreenPoint,
    SlitGeometry,
    incidence_angles,
    pair_phase,
    slit_phases,
    subtended_angle,
)


class TestSlitGeometry:
    def test_evenly_spaced_two(self):
        g = SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1.0)
        assert g.slit_positions == (-1e-6, 1e-6)
        assert g.n_slits == 2

    def test_evenly_spaced_three_centered(self):
        g = SlitGeometry.evenly_spaced(3, 1e-6, 500e-9, 1.0)
        assert g.slit_positions == (-1e-6, 0.0, 1e-6)

    def test_evenly_spaced_count_is_an_exact_integer(self):
        # read as the config reads slit_count: 3.0 is 3, and a bool or a fraction is refused
        assert SlitGeometry.evenly_spaced(3.0, 1e-6, 500e-9, 1.0) == SlitGeometry.evenly_spaced(3, 1e-6, 500e-9, 1.0)
        for count in (True, np.True_, 2.5, "3"):
            with pytest.raises(TypeError):
                SlitGeometry.evenly_spaced(count, 1e-6, 500e-9, 1.0)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_numbers_rejected(self, flag):
        # True > 0, so without the bool check it would build a 1 m wavelength, distance or separation
        for field, make in (
            ("wavelength", lambda: SlitGeometry((0.0, 1e-6), flag, 1.0)),
            ("screen_distance", lambda: SlitGeometry((0.0, 1e-6), 500e-9, flag)),
            ("separation", lambda: SlitGeometry.evenly_spaced(2, flag, 500e-9, 1.0)),
        ):
            with pytest.raises(ConfigError) as excinfo:
                make()
            assert excinfo.value.field == field

    def test_too_few_slits(self):
        with pytest.raises(ValueError, match="at least 2"):
            SlitGeometry((0.0,), 500e-9, 1.0)

    def test_positions_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SlitGeometry((1e-6, -1e-6), 500e-9, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            SlitGeometry((0.0, 0.0), 500e-9, 1.0)

    def test_positive_wavelength_and_distance(self):
        with pytest.raises(ValueError, match="wavelength"):
            SlitGeometry((-1e-6, 1e-6), 0.0, 1.0)
        with pytest.raises(ValueError, match="distance"):
            SlitGeometry((-1e-6, 1e-6), 500e-9, -1.0)


    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: SlitGeometry((0.0,), 500e-9, 1.0), "slit_positions"),
            (lambda: SlitGeometry((0.0, math.inf), 500e-9, 1.0), "slit_positions"),
            (lambda: SlitGeometry((1e-6, -1e-6), 500e-9, 1.0), "slit_positions"),
            (lambda: SlitGeometry((-1e-6, 1e-6), 0.0, 1.0), "wavelength"),
            (lambda: SlitGeometry((-1e-6, 1e-6), math.nan, 1.0), "wavelength"),
            (lambda: SlitGeometry((-1e-6, 1e-6), 500e-9, -1.0), "screen_distance"),
            (lambda: SlitGeometry.evenly_spaced(1, 2e-6, 500e-9, 1.0), "slit_count"),
            (lambda: SlitGeometry.evenly_spaced(2, -2e-6, 500e-9, 1.0), "separation"),
            (lambda: SlitGeometry.evenly_spaced(2, math.inf, 500e-9, 1.0), "separation"),
            (lambda: SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 0.0), "screen_distance"),
        ],
    )
    def test_rejection_names_its_field(self, build, field):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(f"{field}: ")


class TestScreenPoint:
    def test_valid(self):
        assert ScreenPoint(0.3).theta == 0.3

    @pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2, 2.0, float("nan")])
    def test_out_of_range(self, theta):
        with pytest.raises(ValueError):
            ScreenPoint(theta)


class TestIncidenceAngles:
    def test_symmetric_pair_at_center(self, two_slit):
        angles = incidence_angles(two_slit, ScreenPoint(0.0))
        half = math.atan(1e-6 / 1.0)
        assert angles[0] == pytest.approx(half, abs=1e-15)
        assert angles[1] == pytest.approx(-half, abs=1e-15)

    def test_central_slit_sees_theta(self):
        g = SlitGeometry((-1e-5, 0.0, 1e-5), 500e-9, 1.0)
        for theta in (0.0, 0.1, -0.2, 0.7):
            angles = incidence_angles(g, ScreenPoint(theta))
            assert angles[1] == pytest.approx(theta, abs=1e-14)

    def test_against_coordinate_oracle(self):
        # frozen from the brute-force coordinate oracle:
        # x_P = tan(0.001); alpha_i = atan((x_P - a_i)/L)
        g = SlitGeometry((-1e-5, 1e-5), 500e-9, 1.0)
        angles = incidence_angles(g, ScreenPoint(0.001))
        assert angles[0] == pytest.approx(0.0010099999898996702, abs=1e-15)
        assert angles[1] == pytest.approx(0.0009900000099003301, abs=1e-15)


class TestPairPhase:
    def test_zero_at_center(self, three_slit):
        p = ScreenPoint(0.0)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j:
                    assert pair_phase(three_slit, p, i, j) == 0.0

    def test_half_wave_separation_at_grazing(self):
        lam = 500e-9
        g = SlitGeometry((-lam / 4, lam / 4), lam, 1.0)
        theta = np.nextafter(math.pi / 2, 0.0)
        assert pair_phase(g, ScreenPoint(theta), 1, 2) == pytest.approx(math.pi, abs=1e-12)

    def test_equally_spaced_doubling_is_exact(self, three_slit, rng):
        for theta in rng.uniform(-1.2, 1.2, size=200):
            p = ScreenPoint(theta)
            assert pair_phase(three_slit, p, 1, 3) == 2.0 * pair_phase(three_slit, p, 1, 2)

    def test_antisymmetry_is_exact(self, rng):
        for _ in range(100):
            positions = np.sort(rng.uniform(-5e-5, 5e-5, size=4))
            g = SlitGeometry(tuple(positions), rng.uniform(2e-7, 8e-7), 1.0)
            p = ScreenPoint(rng.uniform(-1.2, 1.2))
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    assert pair_phase(g, p, i, j) + pair_phase(g, p, j, i) == 0.0

    def test_additivity_to_last_bit(self, rng):
        # exact in real arithmetic; float64 leaves a few units in the last place
        worst = 0.0
        bound = 0.0
        for _ in range(300):
            positions = np.sort(rng.uniform(-5e-5, 5e-5, size=3))
            if np.any(np.diff(positions) <= 0):
                continue
            g = SlitGeometry(tuple(positions), rng.uniform(2e-7, 8e-7), 1.0)
            p = ScreenPoint(rng.uniform(-1.2, 1.2))
            bound = max(bound, float(np.max(np.abs(slit_phases(g, p)))))
            lhs = pair_phase(g, p, 1, 3)
            rhs = pair_phase(g, p, 1, 2) + pair_phase(g, p, 2, 3)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 8 * np.finfo(float).eps * max(bound, 1.0)

    def test_strictly_monotone_in_sin_theta(self, two_slit):
        thetas = np.linspace(-1.2, 1.2, 101)
        values = [pair_phase(two_slit, ScreenPoint(t), 1, 2) for t in thetas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_index_validation(self, two_slit):
        p = ScreenPoint(0.1)
        with pytest.raises(IndexError):
            pair_phase(two_slit, p, 1, 3)
        with pytest.raises(IndexError):
            pair_phase(two_slit, p, 0, 1)
        with pytest.raises(IndexError):
            pair_phase(two_slit, p, 2, 2)


@st.composite
def _layout_grid_and_pairs(draw):
    positions = draw(st.lists(st.floats(-1e-4, 1e-4), min_size=2, max_size=6, unique=True))
    layout = SlitGeometry(tuple(sorted(positions)), draw(st.floats(2e-7, 8e-7)), 1.0)
    thetas = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8)))
    n = layout.n_slits
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=10))
    i, j = (np.array(column) for column in zip(*pairs))
    return layout, thetas, i, j


class TestPairPhaseArrays:
    @settings(max_examples=60, deadline=None)
    @given(_layout_grid_and_pairs())
    def test_grid_and_index_arrays_equal_scalar_calls(self, drawn):
        layout, thetas, i, j = drawn
        table = pair_phase(layout, thetas, i, j)
        assert table.shape == thetas.shape + i.shape
        for s, theta in enumerate(thetas):
            point = ScreenPoint(theta)
            row = pair_phase(layout, point, i, j)
            assert row.shape == i.shape
            for p in range(i.size):
                scalar = pair_phase(layout, point, int(i[p]), int(j[p]))
                assert type(scalar) is float
                assert table[s, p] == row[p] == scalar
            assert np.array_equal(pair_phase(layout, thetas, int(i[0]), int(j[0])), table[:, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        size=st.integers(1, 6),
        where=st.integers(0, 5),
        kind=st.sampled_from(["low", "high", "equal"]),
        side=st.sampled_from(["i", "j"]),
    )
    def test_bad_index_array_names_the_index(self, n, size, where, kind, side):
        layout = SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0)
        i, j = np.ones(size, dtype=int), np.full(size, n)
        where %= size
        if kind == "equal":
            i[where] = j[where] = 2
            message = "needs two distinct slits, got i=j=2"
        else:
            bad = 0 if kind == "low" else n + 1
            (i if side == "i" else j)[where] = bad
            message = f"slit index {side}={bad} out of range 1..{n}"
        with pytest.raises(IndexError, match=message):
            pair_phase(layout, np.array([0.1, 0.2]), i, j)
        with pytest.raises(IndexError, match=message):
            pair_phase(layout, ScreenPoint(0.1), i, j)


class TestSlitPhases:
    def test_matches_direct_formula(self, three_slit):
        p = ScreenPoint(0.2)
        expected = [
            2 * math.pi * a * math.sin(0.2) / three_slit.wavelength
            for a in three_slit.slit_positions
        ]
        assert np.allclose(slit_phases(three_slit, p), expected, rtol=1e-15)


class TestGridForms:
    @pytest.mark.parametrize("function", [slit_phases, incidence_angles])
    def test_rows_match_screen_points(self, function, rng):
        eps = np.finfo(float).eps
        for _ in range(20):
            n = int(rng.integers(2, 7))
            positions = np.sort(rng.uniform(-5e-5, 5e-5, size=n))
            g = SlitGeometry(tuple(positions), rng.uniform(2e-7, 8e-7), rng.uniform(0.5, 2.0))
            thetas = rng.uniform(-1.5, 1.5, size=50)
            table = function(g, thetas)
            assert table.shape == (thetas.size, n)
            for theta, row in zip(thetas, table):
                expected = function(g, ScreenPoint(theta))
                assert np.all(np.abs(row - expected) <= 4 * eps * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("bad", [math.pi / 2, -2.0, float("nan"), float("inf")])
    def test_grid_entries_validated(self, two_slit, bad):
        for function in (slit_phases, incidence_angles):
            with pytest.raises(ValueError, match="pi/2"):
                function(two_slit, np.array([0.0, bad, 0.1]))


@st.composite
def _layout_stack(draw):
    """m layouts of one slit count n, with m angles and a few 1-based index pairs."""
    n = draw(st.integers(2, 6))
    positions = st.lists(st.floats(-1e-4, 1e-4), min_size=n, max_size=n, unique=True)
    layouts = draw(st.lists(
        st.builds(SlitGeometry, positions.map(lambda p: tuple(sorted(p))), st.floats(2e-7, 8e-7), st.just(1.0)),
        min_size=1, max_size=6,
    ))
    thetas = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=len(layouts), max_size=len(layouts))))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=8))
    i, j = (np.array(column) for column in zip(*pairs))
    return layouts, thetas, i, j


class TestLayoutStacks:
    """A sequence of m layouts with m angles: row k is layout k at angle k, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_layout_stack())
    def test_rows_equal_the_per_layout_calls(self, drawn):
        layouts, thetas, i, j = drawn
        phases = slit_phases(layouts, thetas)
        pairs = pair_phase(layouts, thetas, i, j)
        stacked_pairs = pair_phase(layouts, thetas, np.stack([i, j]), np.stack([j, i]))
        assert phases.shape == (len(layouts), layouts[0].n_slits)
        assert pairs.shape == (len(layouts),) + i.shape
        for k, (layout, theta) in enumerate(zip(layouts, thetas)):
            point = ScreenPoint(theta)
            assert np.array_equal(phases[k], slit_phases(layout, point))
            assert np.array_equal(pairs[k], pair_phase(layout, point, i, j))
            assert np.array_equal(stacked_pairs[k], pair_phase(layout, point, np.stack([i, j]), np.stack([j, i])))
            assert pair_phase(layouts, thetas, int(i[0]), int(j[0]))[k] == pair_phase(layout, point, int(i[0]), int(j[0]))

    def test_mixed_slit_counts_raise_naming_them(self):
        layouts = [SlitGeometry.evenly_spaced(n, 2e-6, 500e-9, 1.0) for n in (2, 3, 2)]
        with pytest.raises(ValueError, match=r"one slit count, got \[2, 3\]"):
            slit_phases(layouts, np.zeros(3))
        with pytest.raises(ValueError, match=r"one slit count, got \[2, 3\]"):
            pair_phase(layouts, np.zeros(3), 1, 2)

    @pytest.mark.parametrize("thetas", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), 0.1])
    def test_length_mismatch_raises_naming_both_lengths(self, thetas):
        layouts = [SlitGeometry.evenly_spaced(3, 2e-6, 500e-9, 1.0)] * 3
        for call in (lambda: slit_phases(layouts, thetas), lambda: pair_phase(layouts, thetas, 1, 2)):
            with pytest.raises(ValueError, match="3 stacked layouts need 3 angles, got shape"):
                call()

    def test_stack_indices_and_angles_are_validated(self):
        layouts = [SlitGeometry.evenly_spaced(3, 2e-6, 500e-9, 1.0)] * 2
        with pytest.raises(IndexError, match="slit index j=4 out of range 1..3"):
            pair_phase(layouts, np.zeros(2), 1, 4)
        with pytest.raises(ValueError, match="pi/2"):
            slit_phases(layouts, np.array([0.0, math.pi / 2]))


class TestSubtendedAngle:
    def test_symmetric_pair_at_center(self, two_slit):
        expected = 2 * math.atan(1e-6 / 1.0)
        assert subtended_angle(two_slit, ScreenPoint(0.0), 1, 2) == pytest.approx(
            expected, abs=1e-15
        )

    def test_vanishes_at_large_distance_while_phase_fixed(self):
        near = SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1.0)
        far = SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1000.0)
        p = ScreenPoint(0.1)
        assert abs(subtended_angle(far, p, 1, 2)) < abs(subtended_angle(near, p, 1, 2)) / 100
        assert pair_phase(far, p, 1, 2) == pytest.approx(pair_phase(near, p, 1, 2), rel=1e-12)

    def test_against_arctan_oracle(self):
        # frozen: 2*atan(5e-7) for d = 1e-6 m, L = 1 m, theta = 0
        g = SlitGeometry.evenly_spaced(2, 1e-6, 500e-9, 1.0)
        assert subtended_angle(g, ScreenPoint(0.0), 1, 2) == pytest.approx(
            9.999999999999165e-07, abs=1e-18
        )

    def test_index_validation(self, two_slit):
        with pytest.raises(IndexError):
            subtended_angle(two_slit, ScreenPoint(0.0), 1, 1)
