"""State algebra: tensor products, inner products, the u/v basis, decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfringe import (
    Ensemble,
    Spinor,
    TwoSpinState,
    basis_u,
    basis_v,
    decompose_uv,
    inner,
    tensor,
)

SQRT_HALF = math.sqrt(0.5)

amplitude = st.complex_numbers(min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False)


def gram_schmidt_residual(vec: np.ndarray) -> float:
    """Independent residual oracle: subtract projections onto an explicitly
    orthonormalized {u, v} pair built from scratch."""
    u = np.array([1, 0, 0, 1], dtype=complex)
    u = u / np.linalg.norm(u)
    v = np.array([0, 1, -1, 0], dtype=complex)
    v = v - np.vdot(u, v) * u
    v = v / np.linalg.norm(v)
    rem = vec - np.vdot(u, vec) * u - np.vdot(v, vec) * v
    return float(np.linalg.norm(rem))


class TestSpinor:
    def test_vector_and_norm(self):
        s = Spinor(3.0, 4.0j)
        assert np.allclose(s.vector(), [3.0, 4.0j])
        assert s.norm2() == pytest.approx(25.0)
        assert not s.is_normalized()
        assert Spinor(SQRT_HALF, SQRT_HALF).is_normalized()


class TestTensor:
    def test_basis_products(self):
        up, down = Spinor(1, 0), Spinor(0, 1)
        assert tensor(up, up).amplitudes == (1, 0, 0, 0)
        assert tensor(down, up).amplitudes == (0, 0, 1, 0)
        assert tensor(up, down).amplitudes == (0, 1, 0, 0)
        assert tensor(down, down).amplitudes == (0, 0, 0, 1)

    def test_linearity(self):
        plus_x = Spinor(SQRT_HALF, SQRT_HALF)
        out = tensor(plus_x, Spinor(1, 0))
        assert np.allclose(out.vector(), [SQRT_HALF, 0, SQRT_HALF, 0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("inf"))])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            tensor(Spinor(bad, 0), Spinor(1, 0))
        with pytest.raises(ValueError):
            tensor(Spinor(1, 0), Spinor(0, bad))

    @settings(max_examples=100, deadline=None)
    @given(a1=amplitude, a2=amplitude, b1=amplitude, b2=amplitude)
    def test_norm_multiplies(self, a1, a2, b1, b2):
        a, b = Spinor(a1, a2), Spinor(b1, b2)
        product = tensor(a, b)
        assert abs(product.norm2() - a.norm2() * b.norm2()) <= 1e-12 * max(1.0, a.norm2() * b.norm2())


    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        data=st.data(),
    )
    def test_stacked_rows_equal_the_spinor_calls(self, shape, data):
        parts = np.array(data.draw(st.lists(amplitude, min_size=4 * math.prod(shape), max_size=4 * math.prod(shape))))
        a, b = np.split(parts.reshape(shape + (4,)), 2, axis=-1)
        product = tensor(a, b)
        assert product.shape == shape + (4,)
        for index in np.ndindex(shape):
            scalar = tensor(Spinor(*a[index]), Spinor(*b[index]))
            assert np.array_equal(product[index], scalar.vector())

    def test_stacked_broadcasts_and_rejects_a_non_finite_row(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [SQRT_HALF, SQRT_HALF]])
        assert np.array_equal(tensor(a, np.array([0.0, 1.0])), [[0, 1, 0, 0], [0, 0, 0, 1], [0, SQRT_HALF, 0, SQRT_HALF]])
        a[1, 0] = np.nan
        with pytest.raises(ValueError, match="spinor a has a non-finite amplitude"):
            tensor(a, Spinor(1, 0))


class TestInner:
    def test_uv_orthonormal(self):
        u, v = basis_u(), basis_v()
        assert abs(inner(u, u) - 1) <= 1e-12
        assert abs(inner(v, v) - 1) <= 1e-12
        assert abs(inner(u, v)) <= 1e-12

    def test_basis_overlap(self):
        plus_plus = TwoSpinState((1, 0, 0, 0))
        assert inner(plus_plus, basis_u()) == pytest.approx(SQRT_HALF)
        plus_minus = TwoSpinState((0, 1, 0, 0))
        assert inner(plus_minus, basis_v()) == pytest.approx(SQRT_HALF)

    def test_conjugate_linear_first_slot(self, rng):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = TwoSpinState.from_vector(vec)
        scaled = TwoSpinState.from_vector((2 - 1j) * vec)
        t = TwoSpinState.from_vector(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert inner(scaled, t) == pytest.approx(np.conj(2 - 1j) * inner(s, t))
        assert inner(s, s) == pytest.approx(s.norm2())


class TestBasisStates:
    def test_u_amplitudes(self):
        assert np.allclose(basis_u().vector(), [0.7071067811865476, 0, 0, 0.7071067811865476])
        assert basis_u().norm2() == pytest.approx(1.0, abs=1e-12)

    def test_v_amplitudes(self):
        assert np.allclose(basis_v().vector(), [0, 0.7071067811865476, -0.7071067811865476, 0])
        assert basis_v().norm2() == pytest.approx(1.0, abs=1e-12)


class TestDecomposeUV:
    def test_u_itself(self):
        c_u, c_v, residual = decompose_uv(basis_u())
        assert c_u == pytest.approx(1.0)
        assert abs(c_v) <= 1e-12
        assert residual <= 1e-12

    def test_in_plane_combination(self):
        vec = math.cos(0.3) * basis_u().vector() - math.sin(0.3) * basis_v().vector()
        c_u, c_v, residual = decompose_uv(TwoSpinState.from_vector(vec))
        assert c_u == pytest.approx(math.cos(0.3))
        assert c_v == pytest.approx(-math.sin(0.3))
        assert residual <= 1e-12

    def test_out_of_plane_component(self):
        # frozen from the Gram-Schmidt oracle below: residual = 1/sqrt(2)
        state = TwoSpinState((1, 0, 0, 0))
        c_u, c_v, residual = decompose_uv(state)
        assert c_u == pytest.approx(SQRT_HALF)
        assert abs(c_v) <= 1e-12
        assert residual == pytest.approx(0.7071067811865476)
        assert residual == pytest.approx(gram_schmidt_residual(state.vector()))

    def test_reconstruction_roundtrip(self, rng):
        u, v = basis_u().vector(), basis_v().vector()
        for _ in range(200):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = TwoSpinState.from_vector(vec)
            c_u, c_v, residual = decompose_uv(s)
            remainder = vec - c_u * u - c_v * v
            assert abs(np.linalg.norm(remainder) - residual) <= 1e-12
            assert np.max(np.abs(c_u * u + c_v * v + remainder - vec)) <= 1e-12
            assert residual == pytest.approx(gram_schmidt_residual(vec), abs=1e-12)


class TestTwoSpinState:
    def test_from_vector_shape_check(self):
        with pytest.raises(ValueError):
            TwoSpinState.from_vector([1, 0, 0])

    def test_amplitude_count_check(self):
        with pytest.raises(ValueError):
            TwoSpinState((1, 0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(math.inf, 0)])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TwoSpinState((bad, 0, 0, 0))
        with pytest.raises(ValueError, match="finite"):
            TwoSpinState.from_vector([0, 0, bad, 0])


class TestEnsemble:
    def test_valid(self):
        e = Ensemble(((0.5, basis_u()), (0.5, basis_v())))
        assert len(e.entries) == 2

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((0.5, basis_u()), (0.4, basis_v())))

    def test_weight_range(self):
        with pytest.raises(ValueError, match="probability"):
            Ensemble(((1.5, basis_u()), (-0.5, basis_v())))

    def test_states_must_be_normalized(self):
        stretched = TwoSpinState((1.0, 0, 0, 1.0))
        with pytest.raises(ValueError, match="normalized"):
            Ensemble(((1.0, stretched),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(())
