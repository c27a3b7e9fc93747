"""The self-check battery: report contract and fault injection."""

import itertools
import math

import numpy as np
import pytest

import spinfringe.fringe
import spinfringe.oracle
import spinfringe.qstate
import spinfringe.rotor
import spinfringe.verify
from spinfringe import SlitGeometry, classical_intensity, intensity_profile, multi_slit_intensity, pair_phase, slit_phases
from spinfringe.verify import format_report, run_checks


class TestRunChecks:
    def test_all_pass_on_correct_build(self):
        results = run_checks(scale=0.05)
        assert all(r.passed for r in results)

    def test_report_lists_each_law_with_max_error(self):
        results = run_checks(scale=0.05)
        report = format_report(results)
        lines = report.splitlines()
        assert len(lines) == len(results) + 1
        for line in lines[:-1]:
            assert line.startswith(("PASS", "FAIL"))
            assert "max_error=" in line and "tol=" in line
        assert "all" in lines[-1] and "passed" in lines[-1]

    def test_report_contains_composition_entry(self):
        report = format_report(run_checks(scale=0.05))
        assert "composition" in report

    def test_report_contains_pairwise_identity_entry(self):
        report = format_report(run_checks(scale=0.05))
        assert "pairwise identity N=2..6" in report

    def test_deterministic(self):
        first = run_checks(scale=0.05)
        second = run_checks(scale=0.05)
        assert [(r.name, r.max_error) for r in first] == [(r.name, r.max_error) for r in second]

    def test_the_model_block_size_does_not_move_the_draws(self, monkeypatch):
        # the battery walks its own sample blocks, so the model's memory bound leaves the report as it was
        before = [r.max_error for r in run_checks(scale=0.3)]
        monkeypatch.setattr(spinfringe.fringe, "_BLOCK_ROWS", 7)
        assert [r.max_error for r in run_checks(scale=0.3)] == before


class TestFaultInjection:
    def test_wrong_transformation_law_detected(self, monkeypatch):
        true_law = spinfringe.rotor.pair_on_u

        def skewed(alpha, beta):
            c_u, c_v = true_law(alpha, beta)
            return (c_u + 1e-6, c_v)

        monkeypatch.setattr(spinfringe.rotor, "pair_on_u", skewed)
        results = run_checks(scale=0.05)
        failed = [r.name for r in results if not r.passed]
        assert "u/v transformation law" in failed
        report = format_report(results)
        assert "FAIL" in report

    def test_fault_in_the_last_partial_block_detected(self, monkeypatch):
        # 10,000 samples at scale 0.123 are 1,230: one full block and a partial one
        count = round(10_000 * 0.123)
        partial = count % spinfringe.verify._BLOCK_ROWS
        assert count > spinfringe.verify._BLOCK_ROWS and partial > 0
        true_law = spinfringe.rotor.pair_on_u

        def skewed(alpha, beta):
            c_u, c_v = true_law(alpha, beta)
            if np.shape(alpha) == (partial,):
                c_u = c_u.copy()
                c_u[-1] += 1e-6
            return (c_u, c_v)

        monkeypatch.setattr(spinfringe.rotor, "pair_on_u", skewed)
        results = run_checks(scale=0.123)
        failed = [r.name for r in results if not r.passed]
        assert failed == ["u/v transformation law"]

    def test_wrong_measurement_detected(self, monkeypatch):
        true_measure = spinfringe.fringe.measure_factor

        def skewed(state, factor, axis_angle=0.0):
            result = true_measure(state, factor, axis_angle)
            if isinstance(result, spinfringe.fringe.Ensemble):
                return result
            weights, states = result
            weights = weights.copy()
            weights[0] *= 1 + 1e-6
            return weights, states

        monkeypatch.setattr(spinfringe.fringe, "measure_factor", skewed)
        results = run_checks(scale=0.05)
        failed = [r.name for r in results if not r.passed]
        # both checks that evaluate stacked measurements see the skew
        assert failed == ["measurement ensemble weights", "measurement transmission vs density matrix"]

    def test_wrong_ensemble_form_detected(self, monkeypatch):
        # the weights check keeps one scalar Ensemble sample per block; a skew of that form alone shows
        true_measure = spinfringe.fringe.measure_factor

        def skewed(state, factor, axis_angle=0.0):
            result = true_measure(state, factor, axis_angle)
            if not isinstance(result, spinfringe.fringe.Ensemble):
                return result
            return spinfringe.fringe.Ensemble(((1.0, result.entries[0][1]),))  # one branch kept

        monkeypatch.setattr(spinfringe.fringe, "measure_factor", skewed)
        results = run_checks(scale=0.05)
        assert [r.name for r in results if not r.passed] == ["measurement ensemble weights"]

    def test_wrong_operator_detected(self, monkeypatch):
        true_op = spinfringe.rotor.apply_pair

        def skewed(pair, state):
            alpha, beta = pair
            return true_op((alpha, beta + 1e-8), state)

        monkeypatch.setattr(spinfringe.rotor, "apply_pair", skewed)
        results = run_checks(scale=0.05)
        assert any(not r.passed for r in results)

    def test_wrong_phase_table_detected(self, monkeypatch):
        true_phases = spinfringe.geometry.slit_phases

        def skewed(geometry, point):
            return true_phases(geometry, point) * (1 + 1e-7)

        monkeypatch.setattr(spinfringe.geometry, "slit_phases", skewed)
        results = run_checks(scale=0.05)
        failed = [r.name for r in results if not r.passed]
        assert "multi-slit vs classical oracle (half)" in failed

    def test_wrong_pair_phase_detected(self, monkeypatch):
        true_phase = spinfringe.geometry.pair_phase

        def skewed(geometry, point, i, j):
            return true_phase(geometry, point, i, j) * (1 + 1e-7)

        # every binding of the function, as a defect in it would reach them all
        for module in (spinfringe.geometry, spinfringe.fringe):
            monkeypatch.setattr(module, "pair_phase", skewed)
        results = run_checks(scale=0.05)
        failed = [r.name for r in results if not r.passed]
        assert "multi-slit vs classical oracle (half)" in failed

    def test_half_convention_in_place_of_paper_detected(self, monkeypatch):
        # half-convention maxima sit on the even half-wave orders only
        monkeypatch.setattr(spinfringe.fringe, "_rotation_scale", lambda convention: 0.5)
        results = run_checks(scale=0.05)
        failed = [r.name for r in results if not r.passed]
        assert "fringe maxima at half-wave orders (paper)" in failed


def _nan_everywhere(true_fn):
    """``true_fn`` with every entry of its result (each part of a tuple) replaced by NaN."""
    def faulted(*args, **kwargs):
        result = true_fn(*args, **kwargs)
        if isinstance(result, tuple):
            return tuple(np.full(np.shape(part), np.nan) for part in result)
        return np.full(np.shape(result), np.nan)
    return faulted


def _nan_in_the_last_partial_block(true_fn):
    """``pair_on_u`` with NaN in the last row of the last, partial block of 10,000 samples at scale 0.123."""
    partial = round(10_000 * 0.123) % spinfringe.verify._BLOCK_ROWS

    def faulted(alpha, beta):
        c_u, c_v = true_fn(alpha, beta)
        if np.shape(alpha) == (partial,):
            c_u = c_u.copy()
            c_u[-1] = np.nan
        return c_u, c_v
    return faulted


class TestNaNFails:
    """A law that yields NaN fails its own check with max_error=nan, whatever the fold's shape."""

    @pytest.mark.parametrize("module, name, fault, check", [
        (spinfringe.qstate, "tensor", _nan_everywhere, "tensor norm product"),
        (spinfringe.rotor, "pair_on_u", _nan_in_the_last_partial_block, "u/v transformation law"),
        (spinfringe.oracle, "pairwise_identity_check", _nan_everywhere, "pairwise identity N=2..6"),
        (spinfringe.oracle, "classical_intensity", _nan_everywhere, "multi-slit vs classical oracle (half)"),
    ], ids=["row-block", "last-partial-block", "pairwise-n-loop", "layout-stack"])
    def test_nan_law_fails_only_its_check(self, monkeypatch, module, name, fault, check):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        results = run_checks(scale=0.123)
        assert [r.name for r in results if not r.passed] == [check]
        assert math.isnan(next(r.max_error for r in results if r.name == check))
        line = next(line for line in format_report(results).splitlines() if check in line)
        assert line.startswith("FAIL") and "max_error=nan" in line


class TestStackedChecksEqualTheirLoops:
    """The stacked checks report the error of a loop over each peak or each index tuple."""

    @pytest.mark.parametrize("scale", [1.0, 0.123, 0.02])
    def test_fringe_maxima_equal_the_per_peak_loop(self, scale):
        layout = SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1.0)
        grid = np.linspace(-0.3, 0.3, spinfringe.verify._count(10_000, scale))
        values = intensity_profile(layout, grid, convention="paper").intensities
        half_wave = layout.wavelength / (2.0 * (layout.slit_positions[1] - layout.slit_positions[0]))
        errors = [
            abs(grid[i] - math.asin(round(math.sin(grid[i]) / half_wave) * half_wave))
            for i in range(1, len(grid) - 1)
            if values[i] >= values[i - 1] and values[i] >= values[i + 1] and values[i] > 0.5
        ]
        # np.arcsin may be a SIMD routine a few ulp from math.asin, so allow a few eps of theta
        stacked = spinfringe.verify.check_fringe_maxima_paper(scale).max_error
        assert errors and abs(stacked - max(errors)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("scale", [0.5, 0.05])
    def test_phase_additivity_equals_the_per_triple_calls(self, scale):
        rng, errors, bound = np.random.default_rng(11), [0.0], 0.0
        for _ in range(spinfringe.verify._count(300, scale)):
            layout, point = spinfringe.verify._random_geometry(rng)
            bound = max(bound, float(np.max(np.abs(slit_phases(layout, point)))))
            for i, j, k in itertools.combinations(range(1, layout.n_slits + 1), 3):
                rhs = pair_phase(layout, point, i, j) + pair_phase(layout, point, j, k)
                errors.append(abs(pair_phase(layout, point, i, k) - rhs))
        result = spinfringe.verify.check_phase_additivity(np.random.default_rng(11), scale)
        assert max(errors) > 0.0
        assert (result.max_error, result.tolerance) == (max(errors), 8.0 * np.finfo(float).eps * max(bound, 1.0))

    @pytest.mark.parametrize("scale", [1.0, 0.05])
    def test_multi_slit_oracle_equals_the_per_sample_loop(self, scale):
        rng, err = np.random.default_rng(5), 0.0
        for _ in range(spinfringe.verify._count(1000, scale)):
            layout, theta = spinfringe.verify._random_geometry(rng)
            point = spinfringe.ScreenPoint(theta)
            reference = classical_intensity(slit_phases(layout, point))
            err = max(err, abs(multi_slit_intensity(layout, point, convention="half") - reference))
        result = spinfringe.verify.check_multi_slit_oracle(np.random.default_rng(5), scale)
        assert err > 0.0 and result.max_error == err

    @pytest.mark.parametrize("scale", [1.0, 0.05])
    def test_phase_antisymmetry_equals_the_per_pair_calls(self, scale):
        # the stacked pair phase is exact, so a skew of phi_ji would show as a nonzero error here
        rng, errors = np.random.default_rng(13), [0.0]
        for _ in range(spinfringe.verify._count(300, scale)):
            layout, point = spinfringe.verify._random_geometry(rng)
            for i, j in itertools.combinations(range(1, layout.n_slits + 1), 2):
                errors.append(abs(pair_phase(layout, point, i, j) + pair_phase(layout, point, j, i)))
        result = spinfringe.verify.check_phase_antisymmetry(np.random.default_rng(13), scale)
        assert result.max_error == max(errors) == 0.0

    @pytest.mark.parametrize("seed, scale", [(3, 1.0), (4, 0.123), (5, 0.0101)])
    def test_measurement_weights_equal_the_per_sample_loop(self, seed, scale):
        looped, err = np.random.default_rng(seed), 0.0
        for _ in range(spinfringe.verify._count(1000, scale)):
            state = spinfringe.fringe.PairState.from_rotation(looped.uniform(-10, 10)).as_state()
            ensemble = spinfringe.fringe.measure_factor(state, factor=int(looped.integers(1, 3)))
            weights = [w for w, _ in ensemble.entries]
            err = max(err, *(abs(w - 0.5) for w in weights), abs(sum(weights) - 1.0))
            err = max(err, *(abs(entry.norm2() - 1.0) for _, entry in ensemble.entries))
        stacked = np.random.default_rng(seed)
        result = spinfringe.verify.check_measurement_weights(stacked, scale)
        assert err > 0.0 and result.max_error == err
        assert stacked.bit_generator.state == looped.bit_generator.state

    def test_layout_checks_draw_the_same_samples_as_the_loop(self):
        # each layout check leaves the generator where the per-sample loop left it
        for check, count in ((spinfringe.verify.check_multi_slit_oracle, 1000),
                             (spinfringe.verify.check_phase_antisymmetry, 300),
                             (spinfringe.verify.check_phase_additivity, 300)):
            looped, stacked = np.random.default_rng(17), np.random.default_rng(17)
            for _ in range(spinfringe.verify._count(count, 0.2)):
                spinfringe.verify._random_geometry(looped)
            check(stacked, 0.2)
            assert looped.bit_generator.state == stacked.bit_generator.state


class TestRandomGeometry:
    def test_colliding_draws_are_spread_apart_before_the_angle_is_drawn(self):
        class Stub:
            """Hands out fixed draws in order: a slit count, positions within 1 nm, lambda, L, then theta."""

            def __init__(self):
                self.draws = [3, np.array([2e-6, 1e-6, 1e-6 + 5e-10]), 5e-7, 1.0, 0.25]

            def integers(self, low, high):
                return self.draws.pop(0)

            def uniform(self, low, high, size=None):
                return self.draws.pop(0)

        rng = Stub()
        layout, theta = spinfringe.verify._random_geometry(rng)
        positions = np.array(layout.slit_positions)
        assert rng.draws == [] and theta == 0.25
        assert np.all(np.diff(positions) > 1e-9)
        assert np.allclose(positions, [1e-6, 1e-6 + 2.5e-9, 2e-6 + 4e-9], rtol=0, atol=1e-15)
        assert (layout.wavelength, layout.screen_distance) == (5e-7, 1.0)

    @pytest.mark.parametrize("coarse", [False, True], ids=["drawn", "colliding"])
    @pytest.mark.parametrize("seed", [0, 1, 20240811])
    def test_draws_equal_the_numpy_formulation(self, seed, coarse):
        def reference(rng):
            """The same draws with numpy's sort, diff and arange over the positions."""
            n = int(rng.integers(2, 7))
            positions = np.sort(rng.uniform(-5e-5, 5e-5, size=n))
            if np.any(np.diff(positions) <= 1e-9):
                positions = positions + np.arange(n) * 2e-9
            layout = SlitGeometry(tuple(positions), rng.uniform(2e-7, 8e-7), rng.uniform(0.5, 2.0))
            return layout, rng.uniform(-1.2, 1.2)

        class Coarse:
            """A generator whose position draws are rounded to 10 um, so about half the layouts take the spread."""

            def __init__(self, rng):
                self.integers, self.bit_generator, self.rng = rng.integers, rng.bit_generator, rng

            def uniform(self, low, high, size=None):
                value = self.rng.uniform(low, high, size)
                return value if size is None else np.round(value, 5)

        def bits(layout, theta):
            return [float(x).hex() for x in (*layout.slit_positions, layout.wavelength, layout.screen_distance, theta)]

        drawn, expected = np.random.default_rng(seed), np.random.default_rng(seed)
        if coarse:
            drawn, expected = Coarse(drawn), Coarse(expected)
        spread = 0
        for _ in range(2000):
            layout, theta = spinfringe.verify._random_geometry(drawn)
            assert bits(layout, theta) == bits(*reference(expected))
            assert drawn.bit_generator.state == expected.bit_generator.state
            spread += min(np.diff(layout.slit_positions)) < 1e-8
        assert not coarse or spread > 500  # about half the coarse layouts collide and are spread 2 nm apart
