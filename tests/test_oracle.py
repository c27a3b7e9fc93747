"""Classical-wave reference: coherent/incoherent intensities and the pairwise identity."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinfringe
from spinfringe import classical_intensity, independent_intensity, pairwise_identity_check

phase_lists = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=6
)


class TestClassicalIntensity:
    def test_constructive(self):
        assert classical_intensity([0.0, 0.0]) == pytest.approx(1.0)

    def test_destructive(self):
        assert classical_intensity([0.0, math.pi]) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_cancellation(self):
        assert classical_intensity([0.0, 2 * math.pi / 3, 4 * math.pi / 3]) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_bounds_and_peak_condition(self, rng):
        for _ in range(200):
            phases = rng.uniform(-20, 20, size=rng.integers(2, 7))
            value = classical_intensity(phases)
            assert -1e-15 <= value <= 1.0 + 1e-12
        # equals 1 iff all phases agree mod 2*pi
        assert classical_intensity([0.1, 0.1 + 2 * math.pi, 0.1 - 4 * math.pi]) == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(phases=phase_lists, shift=st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_shift_invariance(self, phases, shift):
        base = classical_intensity(phases)
        shifted = classical_intensity([p + shift for p in phases])
        assert abs(base - shifted) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classical_intensity([])


class TestPhaseTables:
    def test_rows_match_single_sets(self, rng):
        for n in (1, 2, 5, 64):
            table = rng.uniform(-50, 50, size=(40, n))
            coherent = classical_intensity(table)
            incoherent = independent_intensity(table)
            assert coherent.shape == incoherent.shape == (40,)
            for k, row in enumerate(table):
                assert coherent[k] == classical_intensity(row)
                assert incoherent[k] == independent_intensity(row) == 1.0 / n

    def test_single_set_gives_float(self):
        assert type(classical_intensity([0.0, 1.0])) is float
        assert type(independent_intensity([0.0, 1.0])) is float

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            classical_intensity(np.empty((3, 0)))


class TestIndependentIntensity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_over_n(self, n, rng):
        phases = rng.uniform(-10, 10, size=n)
        assert independent_intensity(phases) == pytest.approx(1.0 / n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            independent_intensity([])


class TestPairwiseIdentity:
    def test_constructive_pair(self):
        lhs, rhs, diff = pairwise_identity_check([0.0, 0.0])
        assert lhs == pytest.approx(4.0)
        assert rhs == pytest.approx(4.0)
        assert diff <= 1e-15

    def test_three_phases(self):
        _, _, diff = pairwise_identity_check([0.0, math.pi / 3, math.pi])
        assert diff <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(table=st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(st.floats(-50, 50), min_size=n, max_size=n), min_size=1, max_size=6)
    ))
    def test_table_rows_match_single_sets(self, table):
        lhs, rhs, diff = pairwise_identity_check(np.array(table))
        assert lhs.shape == rhs.shape == diff.shape == (len(table),)
        for k, row in enumerate(table):
            assert np.max(np.abs(np.array([lhs[k], rhs[k], diff[k]]) - pairwise_identity_check(row))) <= 1e-12

    def test_single_set_gives_floats(self):
        assert all(type(x) is float for x in pairwise_identity_check([0.0, 1.0, 2.5]))

    def test_randomized_brute_force(self, rng):
        worst = 0.0
        for n in range(2, 7):
            for _ in range(2000):
                _, _, diff = pairwise_identity_check(rng.uniform(-20, 20, size=n))
                worst = max(worst, diff)
        assert worst <= 1e-9


def test_oracle_imports_nothing_from_the_model():
    # the oracle checks the model, so a shared import would let one fault pass both sides unseen
    tree = ast.parse((Path(spinfringe.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    shared = [
        ast.unparse(node) for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "spinfringe"))
        or (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "spinfringe" for alias in node.names))
    ]
    assert shared == []
