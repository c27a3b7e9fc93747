"""Pair rotations: the transformation, reduction, and composition laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinfringe import (
    NotInUVSpanError,
    PairRotation,
    TwoSpinState,
    apply_pair,
    basis_u,
    basis_v,
    compose_pair_state,
    decompose_uv,
    pair_on_u,
    pair_on_v,
    rotation_matrix,
)


def uv_state(phi: float) -> TwoSpinState:
    """cos(phi) u - sin(phi) v, built directly from the basis vectors."""
    vec = math.cos(phi) * basis_u().vector() - math.sin(phi) * basis_v().vector()
    return TwoSpinState.from_vector(vec)


class TestRotationMatrix:
    def test_identity_at_zero(self):
        assert np.allclose(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        # oracle: substitute a = pi/2 into [[cos, sin], [-sin, cos]] and multiply
        a = math.pi / 2
        oracle = np.array(
            [
                math.cos(a) * 1.0 + math.sin(a) * 0.0,
                -math.sin(a) * 1.0 + math.cos(a) * 0.0,
            ]
        )
        assert np.allclose(oracle, [0.0, -1.0], atol=1e-12)
        assert np.allclose(rotation_matrix(a) @ [1.0, 0.0], oracle, atol=1e-12)

    def test_inverse_is_negative_angle(self, rng):
        for a in rng.uniform(-10, 10, size=50):
            assert np.max(np.abs(rotation_matrix(a) @ rotation_matrix(-a) - np.eye(2))) <= 1e-12

    def test_orthogonal_unit_determinant(self, rng):
        for a in rng.uniform(-10, 10, size=50):
            r = rotation_matrix(a)
            assert np.max(np.abs(r.T @ r - np.eye(2))) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(ValueError):
            rotation_matrix(bad)
        with pytest.raises(ValueError):
            rotation_matrix(np.array([[0.1, 0.2], [bad, 0.3]]))


class TestApplyPair:
    def test_equal_angles_fix_u_and_v(self, rng):
        for a in rng.uniform(-10, 10, size=100):
            for state in (basis_u(), basis_v()):
                moved = apply_pair((a, a), state)
                assert np.max(np.abs(moved.vector() - state.vector())) <= 1e-12

    def test_u_rotates_into_v(self):
        phi = 0.7
        moved = apply_pair((0.0, phi), basis_u())
        expected = math.cos(phi) * basis_u().vector() - math.sin(phi) * basis_v().vector()
        assert np.max(np.abs(moved.vector() - expected)) <= 1e-12

    def test_single_sided_amplitudes(self, rng):
        # amplitudes of (I, R(a)) u are (cos a, -sin a, sin a, cos a)/sqrt(2)
        for a in rng.uniform(-10, 10, size=100):
            moved = apply_pair(PairRotation(0.0, a), basis_u()).vector()
            expected = np.array([math.cos(a), -math.sin(a), math.sin(a), math.cos(a)])
            expected = expected / math.sqrt(2)
            assert np.max(np.abs(moved - expected)) <= 1e-12

    def test_norm_preserved_off_plane(self, rng):
        for _ in range(100):
            state = TwoSpinState.from_vector(rng.normal(size=4) + 1j * rng.normal(size=4))
            pair = tuple(rng.uniform(-10, 10, size=2))
            assert abs(apply_pair(pair, state).norm2() - state.norm2()) <= 1e-12 * max(
                1.0, state.norm2()
            )

    def test_group_action_on_uv_plane(self, rng):
        for _ in range(10_000):
            a1, b1, a2, b2 = rng.uniform(-10, 10, size=4)
            state = uv_state(rng.uniform(-10, 10))
            chained = apply_pair((a2, b2), apply_pair((a1, b1), state))
            merged = apply_pair((a1 + a2, b1 + b2), state)
            assert np.max(np.abs(chained.vector() - merged.vector())) <= 1e-12

    def test_reduction_to_single_sided(self, rng):
        for _ in range(500):
            alpha, beta = rng.uniform(-10, 10, size=2)
            state = uv_state(rng.uniform(-10, 10))
            full = apply_pair((alpha, beta), state)
            reduced = apply_pair((0.0, beta - alpha), state)
            assert np.max(np.abs(full.vector() - reduced.vector())) <= 1e-12


class TestPairOnUV:
    def test_u_fixed_points(self):
        c_u, c_v = pair_on_u(1.3, 1.3)
        assert (c_u, c_v) == pytest.approx((1.0, 0.0))

    def test_u_quarter_turn(self):
        assert pair_on_u(0.0, math.pi / 2) == pytest.approx((0.0, -1.0), abs=1e-12)

    def test_u_generic(self):
        assert pair_on_u(0.2, 0.5) == pytest.approx((math.cos(0.3), -math.sin(0.3)))

    def test_v_fixed_points(self):
        assert pair_on_v(0.8, 0.8) == pytest.approx((0.0, 1.0))

    def test_v_quarter_turn(self):
        assert pair_on_v(0.0, math.pi / 2) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_v_generic(self):
        assert pair_on_v(1.0, 1.4) == pytest.approx((math.sin(0.4), math.cos(0.4)))

    def test_agrees_with_decomposition(self, rng):
        for _ in range(200):
            alpha, beta = rng.uniform(-10, 10, size=2)
            for state, law in ((basis_u(), pair_on_u), (basis_v(), pair_on_v)):
                c_u, c_v, residual = decompose_uv(apply_pair((alpha, beta), state))
                expected = law(alpha, beta)
                assert abs(c_u - expected[0]) <= 1e-12
                assert abs(c_v - expected[1]) <= 1e-12
                assert residual <= 1e-12


class TestComposePairState:
    def test_identity_difference(self):
        out = compose_pair_state(basis_u(), 0.4, 0.4)
        assert np.max(np.abs(out.vector() - basis_u().vector())) <= 1e-12

    def test_mixing_angles_add(self):
        out = compose_pair_state(uv_state(0.3), 1.1, 1.3)
        assert np.max(np.abs(out.vector() - uv_state(0.5).vector())) <= 1e-12

    def test_v_to_u(self):
        out = compose_pair_state(basis_v(), 0.0, math.pi / 2)
        assert np.max(np.abs(out.vector() - basis_u().vector())) <= 1e-12

    def test_off_plane_input_rejected(self):
        with pytest.raises(NotInUVSpanError):
            compose_pair_state(TwoSpinState((0, 1, 0, 0)), 0.1, 0.2)

    def test_near_plane_input_accepted(self):
        vec = basis_u().vector()
        vec[1] += 1e-11  # inside the span tolerance
        out = compose_pair_state(TwoSpinState.from_vector(vec), 0.0, 0.0)
        assert np.max(np.abs(out.vector() - vec)) <= 1e-12


def _bounded(shape, bound):
    return hnp.arrays(np.float64, shape, elements=st.floats(-bound, bound))


class TestStackedForms:
    """Each row of a stacked call equals the scalar call on that row."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=4))
    def test_rows_match_scalar_calls(self, data, shape):
        alpha, beta, phi = (data.draw(_bounded(shape, 20.0)) for _ in range(3))
        parts = data.draw(_bounded(shape + (2, 4), 10.0))
        states = parts[..., 0, :] + 1j * parts[..., 1, :]
        in_plane = np.multiply.outer(np.cos(phi), basis_u().vector()) + np.multiply.outer(
            np.sin(phi), basis_v().vector()
        )

        rotations = rotation_matrix(alpha)
        moved = apply_pair((alpha, beta), states)
        moved_u = apply_pair((alpha, beta), basis_u().vector())
        c_u, c_v, residual = decompose_uv(states)
        on_u, on_v = pair_on_u(alpha, beta), pair_on_v(alpha, beta)
        composed = compose_pair_state(in_plane, alpha, beta)
        assert rotations.shape == shape + (2, 2)
        assert moved.shape == moved_u.shape == composed.shape == shape + (4,)
        assert c_u.shape == c_v.shape == residual.shape == shape
        assert all(part.shape == shape for part in (*on_u, *on_v))

        def close(stacked, scalar):
            assert np.max(np.abs(np.asarray(stacked) - np.asarray(scalar))) <= 1e-12

        for k in np.ndindex(shape):
            a, b = alpha[k], beta[k]
            state = TwoSpinState.from_vector(states[k])
            close(rotations[k], rotation_matrix(a))
            close(moved[k], apply_pair((a, b), state).vector())
            close(moved_u[k], apply_pair((a, b), basis_u()).vector())
            close((c_u[k], c_v[k], residual[k]), decompose_uv(state))
            close((on_u[0][k], on_u[1][k]), pair_on_u(a, b))
            close((on_v[0][k], on_v[1][k]), pair_on_v(a, b))
            scalar = compose_pair_state(TwoSpinState.from_vector(in_plane[k]), a, b)
            close(composed[k], scalar.vector())

    def test_scalar_forms_keep_their_types(self):
        assert isinstance(apply_pair((0.1, 0.4), basis_u()), TwoSpinState)
        assert rotation_matrix(0.3).shape == (2, 2)
        c_u, c_v, residual = decompose_uv(basis_v())
        assert isinstance(c_u, complex) and isinstance(c_v, complex) and isinstance(residual, float)
        assert all(isinstance(x, float) for x in pair_on_u(0.1, 0.4) + pair_on_v(0.1, 0.4))

    def test_state_object_with_array_angles_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(3,\).*state\.vector\(\)"):
            apply_pair((np.zeros(3), np.zeros(3)), basis_u())
        assert apply_pair((np.zeros(3), 0.0), basis_u().vector()).shape == (3, 4)

    @pytest.mark.parametrize("bad_row", [[0, 1, 0, 0], [math.nan, 0, 0, 0]])
    def test_one_bad_row_rejects_the_stack(self, bad_row):
        stack = np.array([basis_u().vector(), basis_v().vector(), bad_row])
        with pytest.raises(NotInUVSpanError):
            compose_pair_state(stack, 0.1, 0.2)
        assert compose_pair_state(stack[:2], 0.1, 0.2).shape == (2, 4)
