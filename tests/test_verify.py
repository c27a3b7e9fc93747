"""The self-check battery: report contract and fault injection."""

import numpy as np

import spinfringe.fringe
import spinfringe.rotor
import spinfringe.verify
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
        assert failed == ["measurement transmission vs density matrix"]

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
